//! The caching proxy: prefix caching plus joint cache/origin delivery.
//!
//! Everything the proxy knows about an object — name, size, bit-rate and the
//! stored prefix bytes — is one record owned by the engine shard the object
//! hashes to, indexed by the shard's slot handle and guarded by the shard's
//! mutex (see `ARCHITECTURE.md`, "Proxy data path"). A `GET` is a sequence
//! of stages, [`handle_client`]: *parse* → *lookup* (first shard lock) →
//! *plan* (pure) → *decide* (second shard lock: the request's one engine
//! access, on the estimate it starts with) → *relay* → *store* (third
//! shard lock, only when tail bytes were kept) → *observe*; no other
//! per-object lock or name-keyed map exists. Around that, a fixed pool of
//! identical threads accepts and serves, each running
//! [`crate::pool`]'s one loop with [`handle_client`] as its body: idle
//! threads wait in `accept()` itself, and the thread the kernel wakes for a
//! connection serves it whenever another thread is still accepting, and
//! only otherwise queues it; one fd per client connection, and a warm hit
//! is one read and one vectored write. A request holds at most one origin
//! connection at a time, so the pool bounds those too. The origin's reply
//! is read straight into the worker's fixed-size reusable chunk ring and
//! its header line parsed in place, so whatever payload arrived behind the
//! header is already where the relay reads — a small miss is one origin
//! read and one vectored client write. The tail streams through the same
//! ring until the relay has kept exactly the bytes the engine granted,
//! never the whole object; from then on, once the header is out, the rest
//! moves kernel to kernel, origin socket → the worker's pipe → client
//! socket ([`crate::splice`]), and never enters user space.
//!
//! On top of that sits the overload layer (see `ARCHITECTURE.md`,
//! "Overload & admission control"): the pool's queue sheds with `BUSY` a
//! connection whose wait blew [`ProxyConfig::queue_deadline`] and, with an
//! in-flight cap, drop-oldest at admission; client sockets get per-step
//! timeouts and an optional per-client token bucket so a slow reader cannot
//! pin a worker, and the `STATS` verb dumps every counter as one JSON line.
//! A request's failures end at the socket: the client gets its `ERR` or a
//! short stream, a timed-out write is counted, and nothing is returned.
//!
//! Each decision has one owner: [`records`] the record layout,
//! [`upstream`] the origin conversation, [`relay`](mod@relay) the client's
//! socket, and [`config`] and [`stats`] the knobs and the counters. This
//! module holds the state they share, [`handle_client`] and the stages it
//! runs between theirs.

mod config;
mod records;
mod relay;
mod stats;
mod upstream;

pub use config::ProxyConfig;
pub use stats::ProxyStats;

use crate::content::verify_content;
use crate::error::ProxyError;
use crate::lock;
use crate::pool::{self, AcceptQueue};
use crate::protocol::{header_line, Response};
use crate::ratelimit::RateLimiter;
use crate::retry::{BreakerState, CircuitBreaker};
use records::{Header, Lookup, ShardRecords};
use relay::{parse, relay, release, write_paced, WorkerScratch};
use sc_cache::policy::PolicyKind;
use sc_cache::{ObjectKey, ObjectMeta, ShardedEngine};
use sc_netmodel::{EstimatorBank, EstimatorKind};
use stats::Counters;
use std::hash::{DefaultHasher, Hasher as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use upstream::{open_origin, Await, OriginAnswer};

/// Bandwidth assumed towards the origin before any transfer has been
/// observed (bytes per second): the fallback of the estimator bank, and so
/// the estimate a fresh proxy's first decision uses. Subsequent transfers
/// teach its EWMA (passive measurement, Section 2.7 of the paper).
///
/// This prior is the one rule in which the proxy's decision differs from
/// the simulator's, which falls back to the path's long-run mean; Figure 5
/// run live must set the two equal.
const ASSUMED_ORIGIN_BPS: f64 = 64_000.0;

/// Capacity of the bounded accept queue. A connection is queued only when
/// every other pool thread is busy; a full queue blocks the last accepting
/// thread, pushing backpressure into the OS listen backlog.
const ACCEPT_QUEUE_LEN: usize = 1024;

#[derive(Debug)]
struct ProxyState {
    config: ProxyConfig,
    /// N-way sharded cache engine, each shard carrying the records of its
    /// objects: requests for objects in different shards take different
    /// locks, and one lock covers an object's cache decision and its bytes.
    engine: ShardedEngine<PolicyKind, ShardRecords>,
    /// One EWMA path for the one origin.
    estimator: Mutex<EstimatorBank>,
    /// The pool's accepting count and accept queue: part of the state so
    /// both the stats snapshot and the `STATS` verb can read the
    /// shed/wait/depth counters it maintains.
    queue: AcceptQueue,
    /// Per-origin circuit breaker guarding every dial-out.
    breaker: CircuitBreaker,
    /// Monotonic nonce decorrelating concurrent requests' backoff jitter.
    open_nonce: AtomicU64,
    /// The counters every request bumps, lock-free.
    hot: Counters,
}

impl ProxyState {
    /// The origin-path bandwidth estimate the next decision uses: the
    /// bank's, on the assumed rate before any transfer has taught it. The
    /// proxy cannot probe, so it passes no current rate.
    fn estimate(&self) -> f64 {
        lock(&self.estimator).decision_bps(0, ASSUMED_ORIGIN_BPS, None)
    }
}

/// A running caching proxy backed by a fixed pool of identical threads.
///
/// The proxy serves whatever prefix of the requested object it holds at
/// LAN speed, streams the remainder from the origin over the (rate-limited)
/// WAN path through a fixed-size relay ring, updates its bandwidth estimate
/// from the observed origin throughput, and lets the configured
/// [`PolicyKind`] decide how large a prefix of the object to retain.
/// Shutdown is graceful: queued and in-flight requests are drained before
/// the pool's threads exit.
#[derive(Debug)]
pub struct CachingProxy {
    addr: SocketAddr,
    /// The `worker_threads + 1` pool threads; empty once shut down.
    pool: Vec<JoinHandle<()>>,
    state: Arc<ProxyState>,
}

impl CachingProxy {
    /// Binds to an ephemeral localhost port and spawns the pool; every
    /// thread starts out accepting clients.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::InvalidConfig`] for a negative capacity, a
    /// zero-sized worker pool, a zero timeout, retry budget or breaker
    /// threshold, a NaN client rate limit or policy `e`, and
    /// [`ProxyError::Io`] if binding fails.
    pub fn start(config: ProxyConfig) -> Result<Self, ProxyError> {
        config.validate()?;
        let engine = ShardedEngine::with_companions(
            config.cache_capacity_bytes,
            config.worker_threads,
            || config.policy,
            ShardRecords::default,
        )
        .map_err(|e| ProxyError::InvalidConfig("cache_capacity_bytes", e.to_string()))?;
        let listener = Arc::new(TcpListener::bind("127.0.0.1:0")?);
        let addr = listener.local_addr()?;
        let state = Arc::new(ProxyState {
            engine,
            estimator: Mutex::new(EstimatorBank::new(EstimatorKind::Ewma, 1)),
            queue: AcceptQueue::new(
                ACCEPT_QUEUE_LEN,
                config.max_in_flight,
                config.queue_deadline,
            ),
            breaker: CircuitBreaker::new(config.breaker),
            open_nonce: AtomicU64::new(0),
            hot: Counters::default(),
            config,
        });

        // Identical threads, each with its own scratch; the listener closes
        // when the last one exits.
        let pool = (0..=state.config.worker_threads)
            .map(|_| {
                let state = Arc::clone(&state);
                let listener = Arc::clone(&listener);
                std::thread::spawn(move || {
                    let mut scratch = WorkerScratch::new();
                    pool::run_thread(
                        &state.queue,
                        || listener.accept().map(|(stream, _)| stream),
                        |stream| handle_client(stream, &state, &mut scratch),
                    );
                })
            })
            .collect();
        Ok(CachingProxy { addr, pool, state })
    }

    /// The address streaming clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the proxy's statistics. The hot counters are read
    /// lock-free; the per-shard totals and the other counters take the
    /// locks that maintain them, once each.
    pub fn stats(&self) -> ProxyStats {
        self.state.snapshot()
    }

    /// Current state of the origin circuit breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.state.breaker.state()
    }

    /// Number of cache-engine shards this proxy is running with.
    pub fn engine_shards(&self) -> usize {
        self.state.engine.shard_count()
    }

    /// Bytes of `name` currently cached.
    pub fn cached_prefix_len(&self, name: &str) -> usize {
        lookup(&self.state, key_for(name), name).cached.len()
    }

    /// Snapshot of the cached objects as `(name, engine_bytes,
    /// store_bytes)` triples, in unspecified order — the engine's granted
    /// allocation next to the bytes the object's record actually holds, for
    /// observability and byte-accounting tests.
    pub fn contents(&self) -> Vec<(String, f64, usize)> {
        let mut all = Vec::new();
        for shard in 0..self.state.engine.shard_count() {
            self.state
                .engine
                .with_shard_index(shard, |engine, records| {
                    all.extend(engine.contents().into_iter().map(|(key, engine_bytes)| {
                        let (name, store_bytes) = records
                            .entry(engine.slot_of(key))
                            .map_or((String::new(), 0), |(name, len)| (name.to_string(), len));
                        (name, engine_bytes, store_bytes)
                    }));
                });
        }
        all
    }

    /// Requests shutdown, drains queued and in-flight requests, and joins
    /// every pool thread.
    pub fn shutdown(&mut self) {
        if self.pool.is_empty() {
            return;
        }
        // Refuse new connections (this wakes an acceptor stuck on a full
        // queue), then nudge the threads parked in `accept()` awake. A
        // thread comes back from `accept()` at most once after the close —
        // it finds the queue closed and never accepts again — so one
        // connection per pool thread is enough, and a refused one means the
        // last thread has already gone and taken the listener with it.
        // Every thread drains whatever was queued before the close, then
        // exits.
        self.state.queue.close();
        for _ in &self.pool {
            if TcpStream::connect(self.addr).is_err() {
                break;
            }
        }
        for handle in self.pool.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for CachingProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Stable mapping from object names to cache keys; keys only need to be
/// stable within one proxy process. Names come from clients, so this is
/// std's SipHash rather than the Fx mix the engine uses on the keys
/// themselves: Fx collides on ordinary catalogs (`clip-1619` and
/// `clip-1692` hash equal) and on crafted names at will, and a name whose
/// key is already taken cannot be cached (see [`Lookup::ours`]).
fn key_for(name: &str) -> ObjectKey {
    let mut hasher = DefaultHasher::new();
    hasher.write(name.as_bytes());
    ObjectKey::new(hasher.finish())
}

/// Serves one client connection as a sequence of stages: *parse* the
/// command, *lookup* the object's record (first shard lock), *plan* the
/// answer (pure, consulting the origin only when it must), *decide* what
/// the cache keeps (second shard lock), *relay* — the header with whatever
/// is in hand in one write, then the origin tail, keeping the granted
/// bytes — *store* them (third shard lock) and *observe* the transfer.
/// Whatever goes wrong has been answered or counted by the time it returns.
fn handle_client(stream: TcpStream, state: &ProxyState, scratch: &mut WorkerScratch) {
    let mut client = &stream;
    let Some(name) = parse(client, state) else {
        return;
    };
    // Per-client pacing: one token bucket per connection, so a greedy
    // client is bounded without penalizing its neighbours.
    let mut pace = RateLimiter::new(state.config.client_rate_limit_bps);
    let key = key_for(&name);
    let found = lookup(state, key, &name);

    // The origin connection is opened *before* replying to the client so
    // that the tail can be relayed as it arrives.
    let mut origin = None;
    let answer = plan(found.known, found.cached.len() as u64, |offset| {
        let (answer, conn) = open_origin(state, &name, offset, Await::Header, &mut scratch.chunk);
        origin = conn;
        answer
    });
    let head = header_line(&answer);
    let Response::Ok {
        size,
        bitrate_bps,
        degraded,
    } = answer
    else {
        // An `ERR` goes out alone.
        let _ = write_paced(state, &mut client, &head, &[], &mut pace);
        return;
    };
    let mut job = Job {
        name: &name,
        meta: ObjectMeta::new(key, size as f64 / bitrate_bps, bitrate_bps, 0.0),
        size,
        prefix: &found.cached[..found.cached.len().min(size as usize)],
        keep: 0,
    };
    // A degraded hit leaves the engine, the record and the estimator
    // untouched — an outage should not perturb what the policy learned from
    // healthy transfers — and so does a name whose key belongs to another.
    if !degraded && found.ours {
        job.keep = decide(state, &job);
    }
    let Ok(relayed) = relay(state, &job, origin, &head, &mut client, &mut pace, scratch) else {
        release(&mut scratch.retained);
        return;
    };
    if !degraded {
        // Defensive check: the retained tail must continue the cached prefix.
        debug_assert_eq!(
            verify_content(&name, job.prefix.len() as u64, &scratch.retained),
            None,
            "origin payload does not match expected content"
        );
        if !scratch.retained.is_empty() {
            store(state, &job, &scratch.retained);
        }
    }
    observe(state, &job, degraded, relayed, &scratch.retained);
    release(&mut scratch.retained);
}

/// Stage 2 (first shard lock): reads the name's record.
fn lookup(state: &ProxyState, key: ObjectKey, name: &str) -> Lookup {
    state.engine.with_shard(key, |engine, records| {
        records.lookup(engine.slot_of(key), name)
    })
}

/// Stage 3, pure: the response header for what `lookup` found, asking
/// `open_origin(offset)` only when the object is not fully cached or its
/// metadata is still unknown. A known object is served under the metadata
/// its record holds; with the origin down, a cached prefix is served
/// flagged `degraded` — the paper's partial caching masking the outage —
/// and with nothing cached the request fails.
fn plan(
    known: Option<Header>,
    cached_len: u64,
    open_origin: impl FnOnce(u64) -> OriginAnswer,
) -> Response {
    let ok = |header: Header, degraded| Response::Ok {
        size: header.size,
        bitrate_bps: header.bitrate_bps,
        degraded,
    };
    if let Some(header) = known.filter(|header| cached_len >= header.size) {
        return ok(header, false);
    }
    match (open_origin(cached_len), known) {
        (OriginAnswer::Stream(_), Some(header)) | (OriginAnswer::Stream(header), None) => {
            ok(header, false)
        }
        (OriginAnswer::Unknown, _) => Response::Err("unknown object".into()),
        (OriginAnswer::Unavailable, Some(header)) if cached_len > 0 => ok(header, true),
        (OriginAnswer::Unavailable, _) => Response::Err("origin unavailable".into()),
    }
}

/// One answered `GET` on its way through decide, relay and store.
struct Job<'a> {
    name: &'a str,
    meta: ObjectMeta,
    size: u64,
    /// The cached bytes this request serves from the record; the relay
    /// starts behind them.
    prefix: &'a [u8],
    /// Leading tail bytes the relay keeps for the record: what [`decide`]
    /// granted beyond `prefix` (0 when the engine was not consulted).
    keep: usize,
}

/// Stage 4 (second shard lock): the request's one engine access, on the
/// estimate the request starts with — the simulator's order (decide on the
/// current estimate, then learn from the transfer). Inside the lock the
/// shard's records follow the access: victims lose their prefixes, and a
/// first contact gets its record. Returns the grant, in whole bytes and at
/// most `size`, minus the prefix this request serves: the tail bytes the
/// relay keeps.
///
/// A slot belongs to the first name admitted under its key: should another
/// name get here (a key collision that `lookup` could not see yet), the
/// record is left alone and nothing is kept.
fn decide(state: &ProxyState, job: &Job<'_>) -> usize {
    let estimate = state.estimate();
    let key = job.meta.key;
    let header = Header {
        size: job.size,
        bitrate_bps: job.meta.bitrate_bps,
    };
    state
        .engine
        .access_with(&job.meta, estimate, |engine, records, out| {
            // The engine evicts victims whole, and only here.
            for &(victim, _, _) in engine.last_evictions() {
                records.evict(victim);
            }
            let slot = engine
                .slot_of(key)
                .expect("accessed keys are interned by on_access");
            if !records.admit(slot, job.name, header) {
                return 0;
            }
            let granted = (out.cached_bytes_after as usize).min(job.size as usize);
            granted.saturating_sub(job.prefix.len())
        })
}

/// Stage 6 (third shard lock, only when tail bytes were kept): grows the
/// record's prefix from the bytes in hand (`job.prefix` followed by
/// `retained`) to `min(the slot's allocation, prefix + retained)`. The
/// allocation is read here, under this lock, because a concurrent access
/// may have evicted or grown the slot since [`decide`].
///
/// **Stored equals the grant once a transfer completes with no other
/// access to the object's shard in between.** Otherwise — a short stream,
/// or an access that evicted or grew the slot meanwhile — stored is less
/// than the slot's allocation, never more, and the object's next request
/// fetches the gap.
fn store(state: &ProxyState, job: &Job<'_>, retained: &[u8]) {
    let key = job.meta.key;
    state.engine.with_shard(key, |engine, records| {
        let slot = engine.slot_of(key).expect("decide interned the key");
        let granted = (engine.cached_bytes(key) as usize).min(job.size as usize);
        records.grow(slot, granted, job.prefix, retained);
    });
}

/// Stage 7: the counters count the request, and a transfer teaches the
/// estimator for later decisions. A full hit moved no tail and has no
/// sample, so it leaves the estimator's lock alone; a degraded hit, whose
/// range-correct prefix is all the client got, is counted as one. The relay
/// succeeded once its last byte was written into the client's socket, so
/// what is counted here is what was written: a client that has gone
/// without reading it still counts as served.
fn observe(
    state: &ProxyState,
    job: &Job<'_>,
    degraded: bool,
    (tail_len, origin_bps): (u64, Option<f64>),
    retained: &[u8],
) {
    let hot = &state.hot;
    if degraded {
        hot.degraded_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        if let Some(bps) = origin_bps {
            lock(&state.estimator).observe_transfer(0, bps);
        }
        hot.peak_tail_bytes
            .fetch_max(retained.len() as u64, Ordering::Relaxed);
    }
    // Request counters are lock-free: no stats critical section.
    hot.requests.fetch_add(1, Ordering::Relaxed);
    hot.bytes_from_cache
        .fetch_add(job.prefix.len() as u64, Ordering::Relaxed);
    hot.bytes_from_origin.fetch_add(tail_len, Ordering::Relaxed);
}

#[cfg(test)]
mod tests;
