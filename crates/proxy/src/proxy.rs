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
//! in-flight cap, drop-oldest at admission; client sockets get per-write
//! timeouts and an optional per-client token bucket so a slow reader cannot
//! pin a worker, and the `STATS` verb dumps every counter as one JSON line.
//! A request's failures end at the socket: the client gets its `ERR` or a
//! short stream, a timed-out write is counted, and nothing is returned.

use crate::content::verify_content;
use crate::error::ProxyError;
use crate::pool::{self, AcceptQueue};
use crate::protocol::{
    header_line, read_command, read_response, write_request, Command, Request, Response,
    MAX_LINE_BYTES,
};
use crate::ratelimit::RateLimiter;
use crate::retry::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use crate::splice::Pipe;
use bytes::Bytes;
use parking_lot::Mutex;
use sc_cache::policy::PolicyKind;
use sc_cache::{ObjectKey, ObjectMeta, ShardedEngine};
use sc_netmodel::{BandwidthEstimator, EwmaEstimator};
use std::hash::{DefaultHasher, Hasher as _};
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Size of each worker's reusable relay chunk buffer (the "ring"): origin
/// tails stream through this fixed window, so relay memory per request is
/// `RING_BYTES` plus the prefix the engine granted — never the whole
/// object.
const RING_BYTES: usize = 64 * 1024;

/// Bandwidth assumed towards the origin before any transfer has been
/// observed (bytes per second), and so the estimate a fresh proxy's first
/// decision uses. Subsequent transfers feed an EWMA estimator (passive
/// measurement, Section 2.7 of the paper).
const ASSUMED_ORIGIN_BPS: f64 = 64_000.0;

/// Capacity of the bounded accept queue. A connection is queued only when
/// every other pool thread is busy; a full queue blocks the last accepting
/// thread, pushing backpressure into the OS listen backlog.
const ACCEPT_QUEUE_LEN: usize = 1024;

/// Configuration of the caching proxy.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Address of the origin server to fetch misses from.
    pub origin_addr: SocketAddr,
    /// Cache capacity in bytes.
    pub cache_capacity_bytes: f64,
    /// The cache-management policy (PB by default).
    pub policy: PolicyKind,
    /// Maximum number of requests handled concurrently (must be ≥ 1). The
    /// pool runs one thread more than this: idle threads wait in
    /// `accept()`, the one a connection wakes serves it itself as long as
    /// another is still accepting, and the last one never leaves — so at
    /// any moment at least one thread is accepting. The cache engine gets
    /// one shard per worker, each with its own lock, utility heap and byte
    /// budget (the capacity is split evenly), so workers serving objects
    /// that hash to different shards never contend on the cache; one
    /// worker is the single-engine proxy exactly. A request holds at most
    /// one origin connection at a time, so this bounds those too (one more
    /// while a shutdown drains the accept queue).
    pub worker_threads: usize,
    /// Per-attempt timeout for dialing the origin (must be non-zero).
    pub connect_timeout: Duration,
    /// Per-read timeout on origin sockets (must be non-zero): a stalled
    /// "slow-loris" origin surfaces as a read error instead of wedging a
    /// worker, and the resilient path reconnects mid-stream.
    pub origin_read_timeout: Duration,
    /// Retry/backoff bounds for origin opens (attempts, pauses and the
    /// total deadline budget; see [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds for the origin path (see
    /// [`BreakerConfig`]; the failure threshold must be ≥ 1).
    pub breaker: BreakerConfig,
    /// Maximum time a connection may sit in the accept queue before a
    /// thread picks it up. A request whose queue wait exceeded this is
    /// already past its latency budget, so that thread sheds it with a
    /// `BUSY <retry-after-ms>` answer instead of serving a response
    /// nobody is waiting for. `Duration::ZERO` disables the deadline.
    pub queue_deadline: Duration,
    /// Hard cap on admitted requests in flight (queued plus being
    /// handled); 0 = unbounded. At the cap, admission sheds deterministic
    /// drop-oldest: the oldest queued connection is answered `BUSY` to
    /// admit the newcomer (the newest arrival is the one most likely to
    /// still be listening), and with nothing queued the newcomer itself
    /// is shed.
    pub max_in_flight: usize,
    /// Per-write timeout on client sockets. A stalled or wedged reader
    /// turns into a write error after at most this long, counted in
    /// `client_timeouts`, instead of pinning a worker indefinitely.
    /// `Duration::ZERO` disables the timeout.
    pub client_write_timeout: Duration,
    /// Per-client token-bucket rate limit in bytes per second (0 =
    /// unlimited): bounds how fast any single client may drain the proxy,
    /// so one greedy reader cannot starve the pool.
    pub client_rate_limit_bps: f64,
}

impl ProxyConfig {
    /// A PB-policy proxy in front of `origin_addr` with the given capacity.
    pub fn new(origin_addr: SocketAddr, cache_capacity_bytes: f64) -> Self {
        ProxyConfig {
            origin_addr,
            cache_capacity_bytes,
            policy: PolicyKind::PartialBandwidth,
            worker_threads: 8,
            connect_timeout: Duration::from_secs(1),
            origin_read_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            queue_deadline: Duration::from_secs(30),
            max_in_flight: 0,
            client_write_timeout: Duration::from_secs(10),
            client_rate_limit_bps: 0.0,
        }
    }
}

/// Per-proxy cache statistics exposed for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProxyStats {
    /// Requests handled.
    pub requests: u64,
    /// Bytes served to clients straight from the prefix store.
    pub bytes_from_cache: u64,
    /// Bytes relayed from the origin server.
    pub bytes_from_origin: u64,
    /// Current number of objects with a cached prefix.
    pub cached_objects: usize,
    /// Current bytes held in the prefix store.
    pub cached_bytes: u64,
    /// The origin-path bandwidth estimate in bytes per second: the one the
    /// next cache decision will use (an EWMA of the transfers observed so
    /// far).
    pub estimated_origin_bps: f64,
    /// Largest tail-retention buffer any single request has resided in
    /// memory. Together with the fixed per-worker relay ring
    /// (`RING_BYTES`), this bounds per-request memory: it tracks the prefix
    /// the engine granted, not the object size.
    pub peak_tail_bytes: u64,
    /// Origin connection attempts made after a failed one (retries within
    /// one open, across all requests).
    pub origin_retries: u64,
    /// Mid-stream reconnects that successfully resumed a transfer after a
    /// reset, truncation or stall.
    pub origin_resumes: u64,
    /// Cumulative backoff time slept before origin retries, in
    /// microseconds.
    pub origin_backoff_micros: u64,
    /// Circuit-breaker state transitions since the proxy started.
    pub breaker_transitions: u64,
    /// Requests served *degraded*: the origin was unavailable and the
    /// response carried only the policy-cached prefix, flagged on the wire.
    pub degraded_hits: u64,
    /// Requests shed under overload with a `BUSY` answer: in-flight-cap
    /// evictions at admission plus queue-deadline misses at dequeue.
    pub shed_requests: u64,
    /// Connections that went through the accept queue and were dequeued,
    /// shed or served alike. Only the overflow path queues: a connection
    /// accepted while another thread was still in `accept()` is served by
    /// the thread that accepted it and counts in none of the three queue
    /// figures.
    pub queued_requests: u64,
    /// Cumulative accept-queue wait over the `queued_requests` dequeued
    /// connections, in microseconds.
    pub queue_wait_micros: u64,
    /// High-water mark of the accept-queue depth (connections waiting for
    /// a thread, excluding those being handled); 0 as long as no
    /// connection ever found every thread busy.
    pub peak_queue_depth: u64,
    /// Client connections dropped because a write to them timed out: the
    /// reader was too slow (or gone) and holding on would pin a worker.
    pub client_timeouts: u64,
    /// Tail bytes relayed without entering user space: once the policy
    /// keeps nothing more of an object, its tail moves origin socket →
    /// pipe → client socket.
    pub spliced_bytes: u64,
}

impl ProxyStats {
    /// The stats as one line of hand-rolled JSON — the payload of the
    /// `STATS` protocol verb, so load tests and operators can scrape
    /// counters without process introspection.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\": {}, \"bytes_from_cache\": {}, \"bytes_from_origin\": {}, \
             \"cached_objects\": {}, \"cached_bytes\": {}, \"estimated_origin_bps\": {}, \
             \"peak_tail_bytes\": {}, \"origin_retries\": {}, \"origin_resumes\": {}, \
             \"origin_backoff_micros\": {}, \"breaker_transitions\": {}, \
             \"degraded_hits\": {}, \"shed_requests\": {}, \"queued_requests\": {}, \
             \"queue_wait_micros\": {}, \"peak_queue_depth\": {}, \"client_timeouts\": {}, \
             \"spliced_bytes\": {}}}",
            self.requests,
            self.bytes_from_cache,
            self.bytes_from_origin,
            self.cached_objects,
            self.cached_bytes,
            self.estimated_origin_bps,
            self.peak_tail_bytes,
            self.origin_retries,
            self.origin_resumes,
            self.origin_backoff_micros,
            self.breaker_transitions,
            self.degraded_hits,
            self.shed_requests,
            self.queued_requests,
            self.queue_wait_micros,
            self.peak_queue_depth,
            self.client_timeouts,
            self.spliced_bytes,
        )
    }
}

/// What the origin's `OK` header says about an object.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Header {
    /// Total object size in bytes.
    size: u64,
    /// Encoding bit-rate in bytes per second.
    bitrate_bps: f64,
}

/// Everything the proxy knows about one object: one record, owned by the
/// shard the object's key routes to.
#[derive(Debug)]
struct Record {
    /// The name the slot was first admitted under. Keys are 64-bit hashes
    /// of client-supplied names, so two names can share a key (and with it
    /// a slot); the record belongs to this name only, and a request under
    /// any other name neither reads nor writes it.
    name: String,
    /// Learned from the origin on first contact.
    header: Header,
    /// The stored prefix (empty when nothing is cached); never longer than
    /// the engine's allocation for the slot.
    prefix: Bytes,
}

/// One shard's records, indexed by the shard engine's slot handle: the
/// [`ShardedEngine`] companion, so it is only ever touched under the lock
/// of the engine whose decisions it mirrors.
#[derive(Debug, Default)]
struct ShardRecords {
    by_slot: Vec<Option<Record>>,
    /// Running totals over `by_slot`'s prefixes, so `STATS` never walks.
    stored_bytes: u64,
    stored_objects: usize,
}

impl ShardRecords {
    /// The record at `slot`, whichever name it belongs to.
    fn at(&self, slot: Option<u32>) -> Option<&Record> {
        self.by_slot.get(slot? as usize)?.as_ref()
    }

    /// Whether `name` may use `slot`: nobody's yet, or this very name's.
    fn admits(&self, slot: Option<u32>, name: &str) -> bool {
        self.at(slot).is_none_or(|r| r.name == name)
    }

    /// Replaces the prefix stored at `slot` (empty = drop it).
    fn store(&mut self, slot: u32, prefix: Bytes) {
        let record = self.by_slot[slot as usize]
            .as_mut()
            .expect("the access that interns a slot creates its record");
        self.stored_bytes = self.stored_bytes - record.prefix.len() as u64 + prefix.len() as u64;
        self.stored_objects = self.stored_objects - usize::from(!record.prefix.is_empty())
            + usize::from(!prefix.is_empty());
        record.prefix = prefix;
    }
}

#[derive(Debug)]
struct ProxyState {
    config: ProxyConfig,
    /// N-way sharded cache engine, each shard carrying the records of its
    /// objects: requests for objects in different shards take different
    /// locks, and one lock covers an object's cache decision and its bytes.
    engine: ShardedEngine<PolicyKind, ShardRecords>,
    estimator: Mutex<EwmaEstimator>,
    /// The pool's accepting count and accept queue: part of the state so
    /// both the stats snapshot and the `STATS` verb can read the
    /// shed/wait/depth counters it maintains.
    queue: AcceptQueue,
    /// Per-origin circuit breaker guarding every dial-out.
    breaker: CircuitBreaker,
    /// Monotonic nonce decorrelating concurrent requests' backoff jitter.
    open_nonce: AtomicU64,
    /// Hot request counters, updated lock-free with relaxed atomics (the
    /// per-request stats critical section is gone).
    requests: AtomicU64,
    bytes_from_cache: AtomicU64,
    bytes_from_origin: AtomicU64,
    peak_tail_bytes: AtomicU64,
    origin_retries: AtomicU64,
    origin_resumes: AtomicU64,
    origin_backoff_micros: AtomicU64,
    degraded_hits: AtomicU64,
    client_timeouts: AtomicU64,
    spliced_bytes: AtomicU64,
}

impl ProxyState {
    /// The origin-path bandwidth estimate, after folding in `observed_bps`
    /// (if any) under the same estimator acquisition.
    fn estimate_after(&self, observed_bps: Option<f64>) -> f64 {
        let mut estimator = self.estimator.lock();
        if let Some(bps) = observed_bps {
            estimator.observe(bps);
        }
        estimator.estimate_bps().unwrap_or(ASSUMED_ORIGIN_BPS)
    }

    /// A consistent-enough snapshot of every counter: the hot counters are
    /// read lock-free; the per-shard stored totals, the estimator, the
    /// queue's counts and the breaker's transitions are each read under
    /// the lock that maintains them. Used both by [`CachingProxy::stats`]
    /// and the `STATS` verb.
    fn snapshot(&self) -> ProxyStats {
        let (cached_objects, cached_bytes) = (0..self.engine.shard_count())
            .map(|shard| {
                self.engine
                    .with_shard_index(shard, |_, r| (r.stored_objects, r.stored_bytes))
            })
            .fold((0, 0), |sum, shard| (sum.0 + shard.0, sum.1 + shard.1));
        let queue = self.queue.counts();
        ProxyStats {
            requests: self.requests.load(Ordering::Relaxed),
            bytes_from_cache: self.bytes_from_cache.load(Ordering::Relaxed),
            bytes_from_origin: self.bytes_from_origin.load(Ordering::Relaxed),
            cached_objects,
            cached_bytes,
            estimated_origin_bps: self.estimate_after(None),
            peak_tail_bytes: self.peak_tail_bytes.load(Ordering::Relaxed),
            origin_retries: self.origin_retries.load(Ordering::Relaxed),
            origin_resumes: self.origin_resumes.load(Ordering::Relaxed),
            origin_backoff_micros: self.origin_backoff_micros.load(Ordering::Relaxed),
            breaker_transitions: self.breaker.transitions(),
            degraded_hits: self.degraded_hits.load(Ordering::Relaxed),
            shed_requests: queue.shed,
            queued_requests: queue.dequeued,
            queue_wait_micros: queue.wait_micros,
            peak_queue_depth: queue.peak_depth,
            client_timeouts: self.client_timeouts.load(Ordering::Relaxed),
            spliced_bytes: self.spliced_bytes.load(Ordering::Relaxed),
        }
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
        if config.worker_threads == 0 {
            return Err(ProxyError::InvalidConfig(
                "worker_threads",
                "the worker pool needs at least one thread".into(),
            ));
        }
        if config.connect_timeout.is_zero() {
            return Err(ProxyError::InvalidConfig(
                "connect_timeout",
                "origin dials need a non-zero timeout".into(),
            ));
        }
        if config.origin_read_timeout.is_zero() {
            return Err(ProxyError::InvalidConfig(
                "origin_read_timeout",
                "origin reads need a non-zero timeout".into(),
            ));
        }
        if config.retry.max_attempts == 0 {
            return Err(ProxyError::InvalidConfig(
                "retry.max_attempts",
                "at least one origin attempt is required".into(),
            ));
        }
        if config.retry.deadline.is_zero() {
            return Err(ProxyError::InvalidConfig(
                "retry.deadline",
                "the retry deadline budget must be non-zero".into(),
            ));
        }
        if config.breaker.failure_threshold == 0 {
            return Err(ProxyError::InvalidConfig(
                "breaker.failure_threshold",
                "at least one failure must trip the breaker".into(),
            ));
        }
        if config.client_rate_limit_bps.is_nan() {
            return Err(ProxyError::InvalidConfig(
                "client_rate_limit_bps",
                "the client rate limit must be a number (0 disables it)".into(),
            ));
        }
        config
            .policy
            .validate()
            .map_err(|e| ProxyError::InvalidConfig("policy", e.to_string()))?;
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
            estimator: Mutex::new(EwmaEstimator::new(0.3)),
            queue: AcceptQueue::new(
                ACCEPT_QUEUE_LEN,
                config.max_in_flight,
                config.queue_deadline,
            ),
            breaker: CircuitBreaker::new(config.breaker),
            open_nonce: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            bytes_from_cache: AtomicU64::new(0),
            bytes_from_origin: AtomicU64::new(0),
            peak_tail_bytes: AtomicU64::new(0),
            origin_retries: AtomicU64::new(0),
            origin_resumes: AtomicU64::new(0),
            origin_backoff_micros: AtomicU64::new(0),
            degraded_hits: AtomicU64::new(0),
            client_timeouts: AtomicU64::new(0),
            spliced_bytes: AtomicU64::new(0),
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
                            .at(engine.slot_of(key))
                            .map_or((String::new(), 0), |r| (r.name.clone(), r.prefix.len()));
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

/// Per-worker reusable buffers: everything a request needs that should not
/// be reallocated per request.
struct WorkerScratch {
    /// Fixed-size relay ring: the origin's reply is read and parsed here,
    /// and every origin chunk passes through.
    chunk: Vec<u8>,
    /// Tail-retention buffer: the leading tail bytes the engine granted,
    /// grown only as they arrive.
    retained: Vec<u8>,
    /// The spliced tail's pipe, empty between steps; made on first use,
    /// and dropped when a failed drain may have left bytes in it.
    pipe: Option<Pipe>,
}

impl WorkerScratch {
    fn new() -> Self {
        WorkerScratch {
            chunk: vec![0u8; RING_BYTES],
            retained: Vec::new(),
            pipe: None,
        }
    }
}

/// Where a relay writes to: a writer, and the socket beneath it if there
/// is one — the spliced tail moves bytes into that socket directly.
trait ClientWire: Write {
    fn socket(&self) -> Option<&TcpStream> {
        None
    }
}

impl ClientWire for &TcpStream {
    fn socket(&self) -> Option<&TcpStream> {
        Some(self)
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

/// Classifies a failed client-socket write: a timed-out write means the
/// reader is too slow (or gone), which is counted in `client_timeouts`.
/// The error passes through either way.
fn client_err(state: &ProxyState, err: std::io::Error) -> std::io::Error {
    if matches!(
        err.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ) {
        state.client_timeouts.fetch_add(1, Ordering::Relaxed);
    }
    err
}

/// Writes `head` (a framed response header, or nothing) and then payload
/// bytes to the client in ring-sized chunks, paced by the per-client token
/// bucket and with write failures classified through [`client_err`]. The
/// header rides in front of the first chunk in one vectored write — one
/// segment instead of two on a warm hit or a small miss — and goes out
/// alone only when there is no payload or the payload has to wait for the
/// bucket.
fn write_paced<W: Write>(
    state: &ProxyState,
    client: &mut W,
    mut head: &[u8],
    bytes: &[u8],
    pace: &mut RateLimiter,
) -> std::io::Result<()> {
    let classify = |e| client_err(state, e);
    let mut chunks = bytes.chunks(RING_BYTES);
    let first = chunks.next().unwrap_or_default();
    // The header never waits on the token bucket: if the first chunk must,
    // the header goes ahead of it alone.
    if !head.is_empty() && !pace.would_sleep(first.len()).is_zero() {
        client
            .write_all(std::mem::take(&mut head))
            .map_err(classify)?;
    }
    pace.acquire(first.len());
    write_all_pair(client, head, first).map_err(classify)?;
    for chunk in chunks {
        pace.acquire(chunk.len());
        client.write_all(chunk).map_err(classify)?;
    }
    Ok(())
}

/// `write_all` of `head` followed by `body`, starting with one vectored
/// write of both (std's `write_all_vectored` is unstable).
fn write_all_pair<W: Write>(wire: &mut W, head: &[u8], body: &[u8]) -> std::io::Result<()> {
    if head.is_empty() {
        return wire.write_all(body);
    }
    let written = loop {
        match wire.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    };
    // A short write (full socket buffer): the rest goes out piecewise.
    if let Some(rest) = head.get(written..) {
        wire.write_all(rest)?;
        wire.write_all(body)
    } else {
        wire.write_all(&body[written - head.len()..])
    }
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
    let Ok((tail_len, origin_bps)) =
        relay(state, &job, origin, &head, &mut client, &mut pace, scratch)
    else {
        release(&mut scratch.retained);
        return;
    };

    if degraded {
        // The range-correct prefix is all the client got.
        state.degraded_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        // Defensive check: the retained tail must continue the cached prefix.
        debug_assert_eq!(
            verify_content(&name, job.prefix.len() as u64, &scratch.retained),
            None,
            "origin payload does not match expected content"
        );
        if !scratch.retained.is_empty() {
            store(state, &job, &scratch.retained);
        }
        // Observe: the transfer teaches the estimator for later decisions.
        state.estimate_after(origin_bps);
        state
            .peak_tail_bytes
            .fetch_max(scratch.retained.len() as u64, Ordering::Relaxed);
        release(&mut scratch.retained);
    }

    // Request counters are lock-free: no stats critical section.
    state.requests.fetch_add(1, Ordering::Relaxed);
    state
        .bytes_from_cache
        .fetch_add(job.prefix.len() as u64, Ordering::Relaxed);
    state
        .bytes_from_origin
        .fetch_add(tail_len, Ordering::Relaxed);
}

/// Empties the tail-retention buffer and gives its capacity back down to
/// the ring size: a request that retained a large prefix must not pin it
/// in the worker for the proxy's lifetime, whether the bytes went to the
/// record or the client left mid-tail.
fn release(retained: &mut Vec<u8>) {
    retained.clear();
    retained.shrink_to(RING_BYTES);
}

/// Stage 1: socket options and one command off the wire. `STATS`,
/// malformed input and a failed read are answered here or not at all
/// (`None`); a `GET` comes back as the requested name.
fn parse(mut client: &TcpStream, state: &ProxyState) -> Option<String> {
    client.set_nodelay(true).ok();
    if !state.config.client_write_timeout.is_zero() {
        client
            .set_write_timeout(Some(state.config.client_write_timeout))
            .ok();
    }
    // Reads through the shared reference: no second fd. The buffer stays at
    // std's 8 KiB — closing with more junk unread than a smaller one takes
    // in makes the kernel answer RST and the peer never sees the `ERR`.
    match read_command(&mut BufReader::new(client)) {
        Ok(Command::Get(request)) => Some(request.name),
        Ok(Command::Stats) => {
            let mut json = state.snapshot().to_json();
            json.push('\n');
            if let Err(e) = client.write_all(json.as_bytes()) {
                client_err(state, e);
            }
            None
        }
        Err(ProxyError::Protocol(_)) => {
            // Malformed or adversarial input: the bounded parser already
            // stopped reading; answer with a clean ERR and drop the
            // connection (best-effort — the peer may be gone).
            let _ = client.write_all(&header_line(&Response::Err("malformed request".into())));
            None
        }
        Err(_) => None,
    }
}

/// What the owning shard knows about a requested name.
struct Lookup {
    /// From the name's record; `None` on first contact.
    known: Option<Header>,
    /// The stored prefix (empty when nothing is cached).
    cached: Bytes,
    /// `false` when the key's slot already belongs to a *different* name
    /// (a 64-bit key collision): this request is relayed uncached.
    ours: bool,
}

/// Stage 2 (first shard lock): reads the name's record.
fn lookup(state: &ProxyState, key: ObjectKey, name: &str) -> Lookup {
    state.engine.with_shard(key, |engine, records| {
        let slot = engine.slot_of(key);
        let ours = records.admits(slot, name);
        let record = records.at(slot).filter(|_| ours);
        Lookup {
            known: record.map(|r| r.header),
            cached: record.map_or_else(Bytes::new, |r| r.prefix.clone()),
            ours,
        }
    })
}

/// The origin's answer to one resilient open, without the connection.
#[derive(Debug, Clone, Copy, PartialEq)]
enum OriginAnswer {
    /// The origin is streaming the object, under this header.
    Stream(Header),
    /// The origin answered but does not know the object.
    Unknown,
    /// The origin could not be reached within the retry budget, or the
    /// circuit breaker is open.
    Unavailable,
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
    let estimate = state.estimate_after(None);
    let key = job.meta.key;
    state
        .engine
        .access_with(&job.meta, estimate, |engine, records, out| {
            // The engine evicts victims whole, and only here.
            for &(victim, _, _) in engine.last_evictions() {
                records.store(victim, Bytes::new());
            }
            let slot = engine
                .slot_of(key)
                .expect("accessed keys are interned by on_access");
            if !records.admits(Some(slot), job.name) {
                return 0;
            }
            let index = slot as usize;
            if records.by_slot.len() <= index {
                records.by_slot.resize_with(index + 1, || None);
            }
            records.by_slot[index].get_or_insert_with(|| Record {
                name: job.name.to_string(),
                header: Header {
                    size: job.size,
                    bitrate_bps: job.meta.bitrate_bps,
                },
                prefix: Bytes::new(),
            });
            let granted = (out.cached_bytes_after as usize).min(job.size as usize);
            granted.saturating_sub(job.prefix.len())
        })
}

/// Stage 5: answers the client — `head` (the framed response header) with
/// the cached prefix, then the origin tail, keeping in `scratch.retained`
/// exactly its first `job.keep` bytes. Without an origin connection (a full
/// or degraded hit) header and prefix are the whole answer. Returns the
/// tail bytes relayed — never more than the size the header declared,
/// whatever the origin sends — and the observed origin throughput.
///
/// The header leaves at once, in one write with the first bytes there are:
/// the cached prefix (LAN speed); with nothing cached, the payload that
/// arrived behind the origin's own header and already sits in the ring;
/// with neither, alone. It never waits for payload that is still on its
/// way, nor (see [`write_paced`]) for the token bucket.
///
/// Tail bytes pass through the fixed-size ring until `keep` is reached.
/// From then on, once nothing is in hand and the header is out, each step
/// moves them kernel to kernel instead (see [`splice_step`]), when the
/// client is a socket and the worker has a pipe; with `keep` 0 that is
/// from the first step.
fn relay<W: ClientWire>(
    state: &ProxyState,
    job: &Job<'_>,
    mut origin: Option<OriginConn>,
    mut head: &[u8],
    client: &mut W,
    pace: &mut RateLimiter,
    scratch: &mut WorkerScratch,
) -> std::io::Result<(u64, Option<f64>)> {
    scratch.retained.clear();
    let expected_tail = job.size.saturating_sub(job.prefix.len() as u64);
    let rides_with_tail = job.prefix.is_empty()
        && expected_tail > 0
        && origin.as_ref().is_some_and(|conn| !conn.in_hand.is_empty());
    if !rides_with_tail {
        write_paced(state, client, std::mem::take(&mut head), job.prefix, pace)?;
    }
    if origin.is_none() {
        return Ok((0, None));
    }
    let mut tail_len: u64 = 0;
    let started = Instant::now();
    while tail_len < expected_tail {
        let Some(conn) = origin.as_mut() else {
            break;
        };
        // Never past the size the header declared, whatever the origin sends.
        let left = usize::try_from(expected_tail - tail_len).unwrap_or(usize::MAX);
        // What an open left in the ring is the next chunk, without a read.
        let mut chunk = std::mem::take(&mut conn.in_hand);
        // Every step before `keep` is reached is kept whole, so the kept
        // bytes continue the prefix without a gap.
        let to_keep = job.keep - scratch.retained.len();
        let socket = client
            .socket()
            .filter(|_| to_keep == 0 && chunk.is_empty() && head.is_empty());
        if socket.is_some() && scratch.pipe.is_none() {
            scratch.pipe = Pipe::new().ok();
        }
        // The step's bytes go through the pipe, or lie in `chunk` of the
        // ring; none moved when the origin failed.
        let n = match (socket, scratch.pipe.as_mut()) {
            (Some(socket), Some(pipe)) => {
                match splice_step(state, &conn.stream, socket, pipe, left, pace) {
                    Ok(n) => n,
                    Err(e) => {
                        // Bytes may be left in the pipe: they must never
                        // reach the next request.
                        scratch.pipe = None;
                        return Err(client_err(state, e));
                    }
                }
            }
            _ => {
                if chunk.is_empty() {
                    chunk = read_some(&mut conn.stream, &mut scratch.chunk).map_or(0..0, |n| 0..n);
                }
                chunk.end = chunk.end.min(chunk.start + left);
                let bytes = &scratch.chunk[chunk.clone()];
                write_paced(state, client, std::mem::take(&mut head), bytes, pace)?;
                bytes.len()
            }
        };
        if n == 0 {
            // Early EOF (mid-stream reset or truncated response) or a read
            // timeout (stalled origin): drop the connection first, so a
            // request never holds two, then resume from the current offset
            // through the resilient open, which comes back only with
            // payload in hand. If the origin stays down, or keeps answering
            // without delivering, the client gets a short stream, and the
            // record still gets the kept bytes in hand.
            drop(origin.take());
            let offset = job.prefix.len() as u64 + tail_len;
            let ring = &mut scratch.chunk;
            origin = open_origin(state, job.name, offset, Await::Payload, ring).1;
            if origin.is_some() {
                state.origin_resumes.fetch_add(1, Ordering::Relaxed);
            }
            continue;
        }
        tail_len += n as u64;
        // `keep` not yet reached: this step went through the ring.
        if to_keep > 0 {
            scratch
                .retained
                .extend_from_slice(&scratch.chunk[chunk][..to_keep.min(n)]);
        }
    }
    drop(origin);
    let secs = started.elapsed().as_secs_f64();
    let origin_bps = (secs > 0.0 && tail_len > 0).then(|| tail_len as f64 / secs);
    Ok((tail_len, origin_bps))
}

/// One relay step that never enters user space: one `splice` of at most
/// `left` bytes from the origin socket into the worker's empty pipe — at
/// most its size, and with an active token bucket at most a ring's worth,
/// whose tokens are taken before it leaves, as [`write_paced`]'s chunks
/// do — then all of it out into the client socket. `Ok(0)`: the origin
/// failed or ended, and nothing moved. An error is the client's, and may
/// leave bytes in the pipe.
fn splice_step(
    state: &ProxyState,
    origin: &TcpStream,
    client: &TcpStream,
    pipe: &mut Pipe,
    left: usize,
    pace: &mut RateLimiter,
) -> std::io::Result<usize> {
    let mut max = left.min(pipe.capacity());
    if !pace.is_unlimited() {
        max = max.min(RING_BYTES);
    }
    let n = pipe.fill(origin, max).unwrap_or(0);
    if n > 0 {
        pace.acquire(n);
        pipe.drain(client, n)?;
        state.spliced_bytes.fetch_add(n as u64, Ordering::Relaxed);
    }
    Ok(n)
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
        let stored = records
            .at(Some(slot))
            .expect("decide made the record of the name it kept bytes for")
            .prefix
            .len();
        let granted = (engine.cached_bytes(key) as usize).min(job.size as usize);
        debug_assert!(
            stored <= granted,
            "`{}` stored {stored} B but the engine granted {granted}",
            job.name
        );
        let usable = granted.min(job.prefix.len() + retained.len());
        if usable > stored {
            let cached = &job.prefix[..job.prefix.len().min(usable)];
            let kept = &retained[..usable - cached.len()];
            records.store(slot, Bytes::from([cached, kept].concat()));
        }
    });
}

/// An open origin connection positioned at the requested offset.
struct OriginConn {
    stream: TcpStream,
    /// Where in the worker's ring the payload bytes lie that arrived behind
    /// the origin's header: the relay's first chunk.
    in_hand: Range<usize>,
}

/// What an origin open has to come back with.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Await {
    /// The origin's header; payload only if it came along. A first open:
    /// the client's header must not wait for payload.
    Header,
    /// At least one payload byte. A mid-stream resume: an origin that
    /// answers `OK` and then delivers nothing has not resumed anything, and
    /// the attempt counts as failed.
    Payload,
}

/// Opens an origin connection for `name` starting at `offset` through the
/// resilience stack: the circuit breaker gates every attempt, each attempt
/// dials and reads (into `ring`) under per-attempt timeouts, and failures
/// back off exponentially (seeded jitter) until the attempt count or the
/// deadline budget runs out. Transport failures are absorbed into
/// [`OriginAnswer::Unavailable`] rather than propagated; the connection
/// comes back only with [`OriginAnswer::Stream`].
fn open_origin(
    state: &ProxyState,
    name: &str,
    offset: u64,
    wait: Await,
    ring: &mut [u8],
) -> (OriginAnswer, Option<OriginConn>) {
    let policy = state.config.retry;
    let started = Instant::now();
    let nonce = state.open_nonce.fetch_add(1, Ordering::Relaxed);
    let mut attempt: u32 = 0;
    loop {
        if !state.breaker.allow() {
            return (OriginAnswer::Unavailable, None);
        }
        match try_open_origin(state, name, offset, wait, ring) {
            // A definite answer from a healthy origin, streaming or not.
            Ok(answered) => {
                state.breaker.record_success();
                return answered;
            }
            // The failed attempt took its connection with it: the backoff
            // below holds none.
            Err(_) => {
                state.breaker.record_failure();
                attempt += 1;
                if attempt >= policy.max_attempts || started.elapsed() >= policy.deadline {
                    return (OriginAnswer::Unavailable, None);
                }
                let pause = policy
                    .backoff(attempt - 1, nonce)
                    .min(policy.deadline.saturating_sub(started.elapsed()));
                if !pause.is_zero() {
                    state
                        .origin_backoff_micros
                        .fetch_add(pause.as_micros() as u64, Ordering::Relaxed);
                    std::thread::sleep(pause);
                }
                state.origin_retries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// One origin connection attempt under the per-attempt timeouts.
fn try_open_origin(
    state: &ProxyState,
    name: &str,
    offset: u64,
    wait: Await,
    ring: &mut [u8],
) -> Result<(OriginAnswer, Option<OriginConn>), ProxyError> {
    let mut stream =
        TcpStream::connect_timeout(&state.config.origin_addr, state.config.connect_timeout)?;
    stream.set_read_timeout(Some(state.config.origin_read_timeout))?;
    // No `TCP_NODELAY` here: the request line below is the only write this
    // connection ever sees, and Nagle holds a segment back only behind
    // unacknowledged data, which a fresh connection does not have. (Client
    // sockets keep the option: they take many writes.)
    //
    // The request line is framed in memory: one write.
    let mut line = Vec::with_capacity(name.len() + 32);
    write_request(
        &mut line,
        &Request {
            name: name.to_string(),
            offset,
        },
    )?;
    stream.write_all(&line)?;
    let (response, mut in_hand) = read_reply(&mut stream, ring)?;
    match response {
        Response::Ok {
            size, bitrate_bps, ..
        } => {
            if wait == Await::Payload && in_hand.is_empty() {
                in_hand = 0..read_some(&mut stream, ring)?;
            }
            let conn = OriginConn { stream, in_hand };
            Ok((
                OriginAnswer::Stream(Header { size, bitrate_bps }),
                Some(conn),
            ))
        }
        Response::Err(_) => Ok((OriginAnswer::Unknown, None)),
        // An overloaded origin counts as a transport failure: the caller
        // backs off and retries within the usual budget.
        Response::Busy { retry_after_ms } => Err(ProxyError::Busy(retry_after_ms)),
    }
}

/// Reads an origin's reply into `ring`, where the relay will read: bytes
/// are taken until the header line's `\n` — which has to come within
/// [`MAX_LINE_BYTES`], as for every protocol line — and the line is parsed
/// in place by [`read_response`]. Whatever arrived behind it is payload and
/// stays where it is; the returned range says where. The origin closing
/// before its header line ended is an error.
fn read_reply<R: Read>(
    origin: &mut R,
    ring: &mut [u8],
) -> Result<(Response, Range<usize>), ProxyError> {
    debug_assert!(ring.len() > MAX_LINE_BYTES);
    let mut filled = 0;
    let line_end = loop {
        // A line of at most MAX_LINE_BYTES ends within one byte more.
        let window = &ring[..filled.min(MAX_LINE_BYTES + 1)];
        if let Some(newline) = window.iter().position(|&b| b == b'\n') {
            break newline + 1;
        }
        if filled > MAX_LINE_BYTES {
            return Err(ProxyError::Protocol(format!(
                "line exceeds {MAX_LINE_BYTES} bytes"
            )));
        }
        filled += read_some(origin, &mut ring[filled..])?;
    };
    let response = read_response(&mut &ring[..line_end])?;
    Ok((response, line_end..filled))
}

/// One `read` that delivers: `Interrupted` is retried, end-of-stream is an
/// error.
fn read_some<R: Read>(reader: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    loop {
        match reader.read(buf) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::write_response;

    #[test]
    fn keys_are_stable_and_distinct() {
        assert_eq!(key_for("movie-1"), key_for("movie-1"));
        assert_ne!(key_for("movie-1"), key_for("movie-2"));
        // Pairs the Fx mix maps to one key.
        assert_ne!(key_for("clip-1619"), key_for("clip-1692"));
        assert_ne!(key_for("clip-aaaclip-bbb"), key_for("c2240331i,qmngqH"));
    }

    #[test]
    fn proxy_config_defaults() {
        let cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6);
        assert_eq!(cfg.policy, PolicyKind::PartialBandwidth);
        const { assert!(ASSUMED_ORIGIN_BPS > 0.0) };
        assert!(cfg.worker_threads >= 1);
        assert!(!cfg.connect_timeout.is_zero());
        assert!(!cfg.origin_read_timeout.is_zero());
        assert!(cfg.retry.max_attempts >= 1);
        assert!(cfg.retry.deadline >= cfg.retry.max_backoff);
        assert!(cfg.breaker.failure_threshold > 0, "breaker on by default");
        // Overload knobs default permissive: a generous queue deadline and
        // write timeout, no in-flight cap, no per-client pacing.
        assert!(!cfg.queue_deadline.is_zero());
        assert_eq!(cfg.max_in_flight, 0);
        assert!(!cfg.client_write_timeout.is_zero());
        assert_eq!(cfg.client_rate_limit_bps, 0.0);
    }

    #[test]
    fn stats_json_is_well_formed_and_complete() {
        let stats = ProxyStats {
            requests: 7,
            shed_requests: 3,
            queued_requests: 5,
            peak_queue_depth: 11,
            client_timeouts: 2,
            spliced_bytes: 13,
            estimated_origin_bps: 64_000.0,
            ..ProxyStats::default()
        };
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"requests\": 7"));
        assert!(json.contains("\"shed_requests\": 3"));
        assert!(json.contains("\"queued_requests\": 5"));
        assert!(json.contains("\"peak_queue_depth\": 11"));
        assert!(json.contains("\"client_timeouts\": 2"));
        assert!(json.contains("\"spliced_bytes\": 13"));
        assert!(json.contains("\"queue_wait_micros\": 0"));
        assert!(json.contains("\"estimated_origin_bps\": 64000"));
        // One line, no trailing newline: the verb handler appends it.
        assert!(!json.contains('\n'));
    }

    /// A client that records every write call it receives as one entry, and
    /// takes at most `first` bytes on the first of them.
    struct Wire {
        first: usize,
        writes: Vec<Vec<u8>>,
    }

    impl Wire {
        fn taking(first: usize) -> Self {
            Wire {
                first,
                writes: Vec::new(),
            }
        }
    }

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let room = std::mem::replace(&mut self.first, usize::MAX);
            let mut call = Vec::new();
            for buf in bufs {
                let take = buf.len().min(room - call.len());
                call.extend_from_slice(&buf[..take]);
            }
            let len = call.len();
            self.writes.push(call);
            Ok(len)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A recording, not a socket: every step goes through the ring.
    impl ClientWire for Wire {}

    #[test]
    fn write_all_pair_survives_a_short_first_write_at_every_split() {
        let (head, body) = (b"OK 5 1000\n", b"hello");
        for first in 1..=head.len() + body.len() {
            let mut wire = Wire::taking(first);
            write_all_pair(&mut wire, head, body).unwrap();
            assert_eq!(
                wire.writes.concat(),
                b"OK 5 1000\nhello",
                "first write took {first}"
            );
        }
        // Nothing short: header and body leave in one call.
        let mut whole = Wire::taking(usize::MAX);
        write_all_pair(&mut whole, head, body).unwrap();
        assert_eq!(whole.writes.len(), 1);
        // A wire that takes nothing is an error, not a spin.
        let stuck = write_all_pair(&mut Wire::taking(0), head, body).unwrap_err();
        assert_eq!(stuck.kind(), std::io::ErrorKind::WriteZero);
    }

    /// A reader that hands out exactly what the script says, one step per
    /// `read`, and counts the calls; end of script is end of stream.
    struct Scripted {
        steps: std::collections::VecDeque<std::io::Result<Vec<u8>>>,
        reads: usize,
    }

    fn scripted<const N: usize>(steps: [std::io::Result<&[u8]>; N]) -> Scripted {
        Scripted {
            steps: steps.into_iter().map(|s| s.map(<[u8]>::to_vec)).collect(),
            reads: 0,
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            match self.steps.pop_front() {
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(e)) => Err(e),
                None => Ok(0),
            }
        }
    }

    const REPLY_HEAD: &[u8] = b"OK 16384 96000\n";
    const REPLY_OK: Response = Response::Ok {
        size: 16_384,
        bitrate_bps: 96_000.0,
        degraded: false,
    };

    fn clip_bytes(len: usize) -> Vec<u8> {
        let mut payload = vec![0u8; len];
        crate::content::fill_content("clip", 0, &mut payload);
        payload
    }

    #[test]
    fn read_reply_finds_the_header_wherever_the_stream_is_cut() {
        let payload = clip_bytes(16_384);
        let wire = [REPLY_HEAD, &payload].concat();
        let mut ring = vec![0u8; RING_BYTES];
        // Two reads, cut at every byte position: the reply parses the same,
        // and what is in hand plus what is still unread is the payload.
        for cut in 1..wire.len() {
            let mut origin = scripted([Ok(&wire[..cut]), Ok(&wire[cut..])]);
            let (response, in_hand) = read_reply(&mut origin, &mut ring).unwrap();
            assert_eq!(response, REPLY_OK, "cut at {cut}");
            assert_eq!(in_hand.start, REPLY_HEAD.len(), "cut at {cut}");
            // A header cut short takes the second read, payload and all; a
            // complete one is not read past.
            let expected = if cut < REPLY_HEAD.len() {
                payload.len()
            } else {
                cut - REPLY_HEAD.len()
            };
            assert_eq!(ring[in_hand], payload[..expected], "cut at {cut}");
            let unread: usize = origin.steps.iter().flatten().map(Vec::len).sum();
            assert_eq!(expected + unread, payload.len(), "cut at {cut}");
        }
        // `write_response` on a raw socket, as the benchmark's stub answers:
        // the line in as many pieces as `writeln!` makes of it, then the
        // payload.
        let mut stub = Wire::taking(usize::MAX);
        write_response(&mut stub, &REPLY_OK).unwrap();
        let pieces = stub.writes.len();
        assert!(pieces > 1, "the stub's header left in one write");
        let mut origin = Scripted {
            steps: stub
                .writes
                .into_iter()
                .chain([payload.clone()])
                .map(Ok)
                .collect(),
            reads: 0,
        };
        let (response, in_hand) = read_reply(&mut origin, &mut ring).unwrap();
        assert_eq!((response, in_hand), (REPLY_OK, 15..15));
        assert_eq!(
            origin.reads, pieces,
            "the header alone: payload is not waited for"
        );
        // Header and whole payload in one read: all of it is in hand.
        let mut origin = scripted([Ok(&wire)]);
        let (response, in_hand) = read_reply(&mut origin, &mut ring).unwrap();
        assert_eq!(response, REPLY_OK);
        assert_eq!(ring[in_hand], payload[..]);
        assert_eq!(origin.reads, 1);
        // `Interrupted` in the middle is retried, not reported.
        let mut origin = scripted([
            Ok(b"OK 16"),
            Err(std::io::ErrorKind::Interrupted.into()),
            Ok(b"384 96000\npay"),
        ]);
        let (response, in_hand) = read_reply(&mut origin, &mut ring).unwrap();
        assert_eq!(response, REPLY_OK);
        assert_eq!(&ring[in_hand], b"pay");
    }

    #[test]
    fn read_reply_keeps_the_line_parsers_answers_and_bounds() {
        let mut ring = vec![0u8; RING_BYTES];
        let mut reply = |mut origin: Scripted| {
            let outcome = read_reply(&mut origin, &mut ring);
            (outcome, origin.reads)
        };
        let (outcome, _) = reply(scripted([Ok(b"ERR unknown object\n")]));
        assert_eq!(
            outcome.unwrap(),
            (Response::Err("unknown object".into()), 19..19)
        );
        let (outcome, _) = reply(scripted([Ok(b"BUSY 125\n")]));
        assert_eq!(
            outcome.unwrap().0,
            Response::Busy {
                retry_after_ms: 125
            }
        );
        for junk in [&b"YES 5\n"[..], b"OK abc def\n", b"OK 1 2 3 4 5 6\n", b"\n"] {
            let (outcome, _) = reply(scripted([Ok(junk)]));
            assert!(matches!(outcome, Err(ProxyError::Protocol(_))), "{junk:?}");
        }
        let (outcome, _) = reply(scripted([Ok(b"OK \xff\xfe 1\n")]));
        assert!(matches!(outcome, Err(ProxyError::Protocol(_))));
        // The origin hangs up before the line ends — mid-number, where a
        // parser fed "what arrived" would read a plausible smaller size.
        for steps in [scripted([]), scripted([Ok(b"OK 16384 96")])] {
            match reply(steps).0 {
                Err(ProxyError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
                other => panic!("expected an early EOF, got {other:?}"),
            }
        }
        // A read that fails is the attempt's failure, as it was.
        let timed_out = std::io::ErrorKind::WouldBlock;
        let (outcome, _) = reply(scripted([Ok(b"OK 1"), Err(timed_out.into())]));
        assert!(matches!(outcome, Err(ProxyError::Io(e)) if e.kind() == timed_out));
        // The line bound is `read_line_bounded`'s: MAX_LINE_BYTES without
        // the terminator pass, one more does not ...
        let longest = format!("ERR {}\n", "x".repeat(MAX_LINE_BYTES - 4));
        let (outcome, _) = reply(scripted([Ok(longest.as_bytes())]));
        assert!(matches!(outcome, Ok((Response::Err(_), _))));
        let too_long = format!("ERR {}\n", "x".repeat(MAX_LINE_BYTES - 3));
        let (outcome, _) = reply(scripted([Ok(too_long.as_bytes())]));
        assert!(matches!(outcome, Err(ProxyError::Protocol(_))));
        // ... and an endless line costs a bounded read, not a full ring.
        let endless = Scripted {
            steps: (0..RING_BYTES / 100).map(|_| Ok(vec![b'O'; 100])).collect(),
            reads: 0,
        };
        let (outcome, reads) = reply(endless);
        assert!(matches!(outcome, Err(ProxyError::Protocol(_))));
        assert_eq!(reads, MAX_LINE_BYTES / 100 + 1);
    }

    /// Runs `relay` for a 1 000-byte object whose first `cached` bytes are
    /// the stored prefix, with the next `in_hand` bytes already in the ring
    /// behind a header and the rest waiting in the origin socket, keeping
    /// half the tail; returns the client-side write calls.
    fn relayed_writes(cached: usize, in_hand: usize, client_bps: f64) -> Vec<Vec<u8>> {
        const HEAD: &[u8] = b"OK 1000 96000\n";
        let proxy = CachingProxy::start(ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6))
            .expect("a proxy to borrow the state of");
        let state = &*proxy.state;
        let object = &clip_bytes(1_000)[..];
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut far_end, _) = listener.accept().unwrap();
        far_end.write_all(&object[cached + in_hand..]).unwrap();
        drop(far_end);

        let mut scratch = WorkerScratch::new();
        let in_hand = HEAD.len()..HEAD.len() + in_hand;
        scratch.chunk[in_hand.clone()].copy_from_slice(&object[cached..][..in_hand.len()]);
        let origin = OriginConn { stream, in_hand };
        let job = Job {
            name: "clip",
            meta: ObjectMeta::new(key_for("clip"), 1_000.0 / 96e3, 96e3, 0.0),
            size: 1_000,
            prefix: &object[..cached],
            keep: (1_000 - cached) / 2,
        };
        let mut client = Wire::taking(usize::MAX);
        let mut pace = RateLimiter::new(client_bps);
        let (tail_len, _) = relay(
            state,
            &job,
            Some(origin),
            HEAD,
            &mut client,
            &mut pace,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(tail_len as usize, 1_000 - cached);
        assert_eq!(client.writes.concat(), [HEAD, object].concat());
        // Exactly the granted leading tail bytes are kept, whichever step
        // they arrived in.
        assert_eq!(scratch.retained, object[cached..][..job.keep]);
        client.writes
    }

    #[test]
    fn the_header_leaves_in_one_write_with_the_first_bytes_in_hand() {
        const HEAD: usize = b"OK 1000 96000\n".len();
        // A miss whose payload arrived with the origin's header: one write.
        assert_eq!(relayed_writes(0, 1_000, 0.0).len(), 1);
        // Only part of it did: the header does not wait for the rest.
        let writes = relayed_writes(0, 300, 0.0);
        assert_eq!(writes[0].len(), HEAD + 300);
        // Nothing but the header has arrived: the header leaves alone.
        let writes = relayed_writes(0, 0, 0.0);
        assert_eq!(writes[0].len(), HEAD);
        // A partial hit: header and cached prefix first, then the tail.
        let writes = relayed_writes(400, 600, 0.0);
        assert_eq!(
            writes.iter().map(Vec::len).collect::<Vec<_>>(),
            [HEAD + 400, 600]
        );
        // A bucket that makes the first chunk wait (1 000 B at 20 kB/s:
        // 50 ms) does not hold the header back with it.
        let writes = relayed_writes(0, 1_000, 20_000.0);
        assert_eq!(
            writes.iter().map(Vec::len).collect::<Vec<_>>(),
            [HEAD, 1_000]
        );
    }

    /// A client that leaves mid-tail must not leave the worker holding what
    /// the relay retained of the object: under IF every relayed byte is
    /// kept, and the origin holds its last 3 MiB back until the client has
    /// read 256 KiB and gone, so the relay fails with far more than a ring's
    /// worth retained.
    #[test]
    fn a_failed_relay_releases_the_retention_buffer() {
        const SIZE: usize = 4 << 20;
        const FIRST: usize = 1 << 20;
        let origin = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut config = ProxyConfig::new(origin.local_addr().unwrap(), 1e12);
        config.policy = PolicyKind::IntegralFrequency;
        let proxy = CachingProxy::start(config).unwrap();
        let (gone, client_left) = std::sync::mpsc::channel();
        let origin = std::thread::spawn(move || {
            let (mut conn, _) = origin.accept().unwrap();
            crate::protocol::read_request(&mut BufReader::new(&conn)).unwrap();
            let object = clip_bytes(SIZE);
            conn.write_all(format!("OK {SIZE} 96000\n").as_bytes())
                .unwrap();
            conn.write_all(&object[..FIRST]).unwrap();
            client_left.recv().unwrap();
            let _ = conn.write_all(&object[FIRST..]);
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (served, _) = listener.accept().unwrap();
        client.write_all(b"GET clip 0\n").unwrap();
        let reader = std::thread::spawn(move || {
            let mut some = vec![0u8; 256 << 10];
            client.read_exact(&mut some).unwrap();
            drop(client);
            gone.send(()).unwrap();
        });

        let mut scratch = WorkerScratch::new();
        handle_client(served, &proxy.state, &mut scratch);
        reader.join().unwrap();
        origin.join().unwrap();
        assert_eq!(proxy.stats().requests, 0, "the relay did not fail");
        assert!(
            scratch.retained.capacity() <= RING_BYTES,
            "the worker still holds {} B",
            scratch.retained.capacity()
        );
    }

    #[test]
    fn nan_client_rate_limit_is_rejected() {
        let mut cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6);
        cfg.client_rate_limit_bps = f64::NAN;
        assert!(CachingProxy::start(cfg).is_err());
    }

    #[test]
    fn nan_policy_estimator_is_rejected() {
        for policy in [
            PolicyKind::HybridPartialBandwidth { e: f64::NAN },
            PolicyKind::PartialBandwidthValue { e: f64::NAN },
        ] {
            let mut cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6);
            cfg.policy = policy;
            assert!(matches!(
                CachingProxy::start(cfg),
                Err(ProxyError::InvalidConfig("policy", why)) if why.contains("`e`")
            ));
        }
    }

    #[test]
    fn engine_shards_default_to_worker_count() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        for workers in [3, 1] {
            let mut cfg = ProxyConfig::new(addr, 1e6);
            cfg.worker_threads = workers;
            let proxy = CachingProxy::start(cfg).unwrap();
            assert_eq!(proxy.engine_shards(), workers);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        assert!(CachingProxy::start(ProxyConfig::new(addr, -1.0)).is_err());
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.worker_threads = 0;
        assert!(CachingProxy::start(cfg).is_err());
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.connect_timeout = Duration::ZERO;
        assert!(CachingProxy::start(cfg).is_err());
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.origin_read_timeout = Duration::ZERO;
        assert!(CachingProxy::start(cfg).is_err());
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.retry.max_attempts = 0;
        assert!(CachingProxy::start(cfg).is_err());
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.retry.deadline = Duration::ZERO;
        assert!(CachingProxy::start(cfg).is_err());
        // The breaker has no off state.
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.breaker.failure_threshold = 0;
        assert!(matches!(
            CachingProxy::start(cfg),
            Err(ProxyError::InvalidConfig("breaker.failure_threshold", _))
        ));
    }

    #[test]
    fn plan_covers_every_lookup_and_origin_outcome() {
        use OriginAnswer::{Stream, Unavailable, Unknown};
        // What the shard's record says, and an origin header that
        // deliberately disagrees: a known object is served under the
        // metadata the shard holds.
        let record = Header {
            size: 1_000,
            bitrate_bps: 8e3,
        };
        let origin = Header {
            size: 2_000,
            bitrate_bps: 16e3,
        };
        let known = Some(record);
        let ok = |header: Header, degraded| Response::Ok {
            size: header.size,
            bitrate_bps: header.bitrate_bps,
            degraded,
        };
        let unknown = Response::Err("unknown object".into());
        let down = Response::Err("origin unavailable".into());
        // (metadata known?, cached bytes, origin outcome — `None` when the
        // origin must not be consulted) → the header on the wire.
        let rows = [
            (known, 1_000, None, ok(record, false)),
            (known, 1_001, None, ok(record, false)),
            (known, 400, Some(Stream(origin)), ok(record, false)),
            (known, 0, Some(Stream(origin)), ok(record, false)),
            (known, 400, Some(Unknown), unknown.clone()),
            (known, 400, Some(Unavailable), ok(record, true)),
            (known, 0, Some(Unavailable), down.clone()),
            (None, 0, Some(Stream(origin)), ok(origin, false)),
            (None, 0, Some(Unknown), unknown),
            (None, 0, Some(Unavailable), down),
        ];
        for (known, cached_len, answer, expected) in rows {
            let row = format!("known {known:?}, cached {cached_len}, origin {answer:?}");
            let answered = plan(known, cached_len, |offset| {
                assert_eq!(offset, cached_len, "{row}: tail starts after the prefix");
                answer.unwrap_or_else(|| panic!("{row}: origin consulted"))
            });
            assert_eq!(answered, expected, "{row}");
        }
    }

    /// A one-shard proxy whose estimator reads `estimate_bps`.
    fn proxy_at(policy: PolicyKind, capacity: f64, estimate_bps: f64) -> CachingProxy {
        let mut cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), capacity);
        cfg.policy = policy;
        cfg.worker_threads = 1;
        let proxy = CachingProxy::start(cfg).unwrap();
        assert_eq!(proxy.state.estimate_after(Some(estimate_bps)), estimate_bps);
        proxy
    }

    fn job<'a>(name: &'a str, key: u64, meta: (f64, f64), prefix: &'a [u8]) -> Job<'a> {
        let (duration_secs, bitrate_bps) = meta;
        Job {
            name,
            meta: ObjectMeta::new(ObjectKey::new(key), duration_secs, bitrate_bps, 0.0),
            size: (duration_secs * bitrate_bps) as u64,
            prefix,
            keep: 0,
        }
    }

    #[test]
    fn decide_keeps_the_grant_minus_the_prefix_served() {
        const FILM: (f64, f64) = (10.0, 100_000.0);
        // PB at 40 kB/s wants (100 - 40) kB/s × 10 s = 600 000 B of a
        // 1 000 000 B object: all of it is tail when nothing is stored ...
        let proxy = proxy_at(PolicyKind::PartialBandwidth, 1e7, 40_000.0);
        assert_eq!(decide(&proxy.state, &job("film", 1, FILM, &[])), 600_000);
        // ... and only the rest of it behind a 500 000 B prefix.
        let stored = vec![0u8; 500_000];
        assert_eq!(
            decide(&proxy.state, &job("film", 1, FILM, &stored)),
            100_000
        );
        // Abundant bandwidth: nothing worth keeping.
        let proxy = proxy_at(PolicyKind::PartialBandwidth, 1e7, 1e9);
        assert_eq!(decide(&proxy.state, &job("film", 1, FILM, &[])), 0);
        // IF wants the whole object, but the capacity grants none of it.
        let proxy = proxy_at(PolicyKind::IntegralFrequency, 1_000.0, 40_000.0);
        assert_eq!(decide(&proxy.state, &job("film", 1, FILM, &[])), 0);
    }

    #[test]
    fn a_slot_belongs_to_the_first_name_admitted_under_its_key() {
        let proxy = proxy_at(PolicyKind::IntegralFrequency, 1e6, 1e9);
        let state = &*proxy.state;
        // Two names forged onto one key, as a 64-bit collision would.
        let key = ObjectKey::new(7);
        let a = job("a", 7, (1e-3, 1e6), &[]);
        assert_eq!(decide(state, &a), 1_000);
        store(state, &a, &[1u8; 1_000]);
        let found = lookup(state, key, "a");
        assert_eq!(found.known.map(|h| h.size), Some(1_000));
        assert_eq!(&found.cached[..], &[1u8; 1_000][..]);
        assert!(found.ours);

        // The other name sees nothing of the record, so its request skips
        // decide; one that raced past lookup keeps nothing, so it never
        // reaches store, and leaves the record alone.
        let b = lookup(state, key, "b");
        assert!(!b.ours);
        assert_eq!(b.known, None);
        assert!(b.cached.is_empty());
        assert_eq!(decide(state, &job("b", 7, (3e-3, 1e6), &[])), 0);
        let found = lookup(state, key, "a");
        assert_eq!(found.known.map(|h| h.size), Some(1_000));
        assert_eq!(&found.cached[..], &[1u8; 1_000][..]);
        let stats = proxy.stats();
        assert_eq!((stats.cached_objects, stats.cached_bytes), (1, 1_000));
    }
}
