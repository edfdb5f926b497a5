//! The caching proxy: prefix caching plus joint cache/origin delivery.
//!
//! Everything the proxy knows about an object — name, size, bit-rate and the
//! stored prefix bytes — is one record owned by the engine shard the object
//! hashes to, indexed by the shard's slot handle and guarded by the shard's
//! mutex (see `ARCHITECTURE.md`, "Proxy data path"). A `GET` is a sequence
//! of stages, [`handle_client`]: *parse* → *lookup* (first shard lock) →
//! *plan* (pure) → *relay* → *admit* (second shard lock); no other
//! per-object lock or name-keyed map exists. Around that, a fixed
//! leader/followers pool (see [`crate::pool`]) accepts and serves: the
//! thread that accepts a connection serves it whenever another thread is
//! free to take over accepting, and only otherwise queues it; one fd per
//! client connection, and a warm hit is one read and one vectored write.
//! Origin connections are bounded by a counting semaphore, and the origin
//! tail streams through a fixed-size reusable chunk ring, retaining only
//! the prefix the policy may admit, never the whole object.
//!
//! On top of that sits the overload layer (see `ARCHITECTURE.md`,
//! "Overload & admission control"): queued connections carry enqueue
//! timestamps and are shed with `BUSY` once their wait blows
//! [`ProxyConfig::queue_deadline`], an optional in-flight cap sheds
//! drop-oldest at admission, client sockets get per-write timeouts and an
//! optional per-client token bucket so a slow reader cannot pin a worker,
//! and the `STATS` verb dumps every counter as one JSON line.

use crate::content::verify_content;
use crate::error::ProxyError;
use crate::pool::{AcceptQueue, Admission, InFlightSlot, OriginBudget, OriginPermit, Turn};
use crate::protocol::{
    read_command, read_response, write_request, write_response, Command, Request, Response,
};
use crate::ratelimit::RateLimiter;
use crate::retry::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use bytes::Bytes;
use parking_lot::Mutex;
use sc_cache::policy::{PolicyKind, UtilityPolicy};
use sc_cache::{ObjectKey, ObjectMeta, ShardedEngine};
use sc_netmodel::{BandwidthEstimator, EwmaEstimator};
use std::hash::{DefaultHasher, Hasher as _};
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Size of each worker's reusable relay chunk buffer (the "ring"): origin
/// tails stream through this fixed window, so relay memory per request is
/// `RING_BYTES` plus whatever prefix the policy may admit — never the whole
/// object.
const RING_BYTES: usize = 64 * 1024;

/// Safety margin on the conservative bandwidth lower bound used to size the
/// tail-retention buffer: the retention cap is computed as the policy
/// target at 90% of the bound, so estimator movement during the transfer
/// cannot strand the store short of the engine's eventual grant.
const RETAIN_BANDWIDTH_SLACK: f64 = 0.9;

/// Bandwidth assumed towards the origin before any transfer has been
/// observed (bytes per second). Subsequent transfers feed an EWMA
/// estimator (passive measurement, Section 2.7 of the paper).
const ASSUMED_ORIGIN_BPS: f64 = 64_000.0;

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
    /// pool runs one thread more than this: at any moment one thread is
    /// the leader blocked in `accept()`, and the thread that accepts a
    /// connection serves it itself whenever another is idle to take over
    /// the accepting. The cache engine gets one shard per worker, each
    /// with its own lock, utility heap and byte budget (the capacity is
    /// split evenly), so workers serving objects that hash to different
    /// shards never contend on the cache; one worker is the single-engine
    /// proxy exactly.
    pub worker_threads: usize,
    /// Capacity of the bounded accept queue (must be ≥ 1). A connection is
    /// queued only when every other pool thread is busy; a full queue
    /// blocks the leader, pushing backpressure into the OS listen backlog.
    pub accept_queue_len: usize,
    /// Maximum concurrent connections to the origin server (0 = unlimited).
    pub max_origin_connections: usize,
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
    /// [`BreakerConfig`]; a zero failure threshold disables the breaker).
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
            accept_queue_len: 1024,
            max_origin_connections: 32,
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

    /// The retry pause suggested with a `BUSY` answer: half the queue
    /// deadline (clamped to at least 1 ms), so a retrying client lands
    /// when roughly half of today's backlog has drained. With the
    /// deadline disabled (cap-driven sheds only) a flat 100 ms is used.
    fn busy_retry_after_ms(&self) -> u64 {
        if self.queue_deadline.is_zero() {
            return 100;
        }
        (self.queue_deadline.as_millis() as u64 / 2).max(1)
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
    /// Latest estimate of the origin-path bandwidth in bytes per second.
    pub estimated_origin_bps: f64,
    /// Largest tail-retention buffer any single request has resided in
    /// memory. Together with the fixed per-worker relay ring
    /// (`RING_BYTES`), this bounds per-request memory: it tracks the prefix
    /// the policy could admit, not the object size.
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
    /// accepted while another thread was idle is served by the accepting
    /// thread and counts in none of the three queue figures.
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
             \"queue_wait_micros\": {}, \"peak_queue_depth\": {}, \"client_timeouts\": {}}}",
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
    engine: ShardedEngine<Box<dyn UtilityPolicy + Send + Sync>, ShardRecords>,
    estimator: Mutex<EwmaEstimator>,
    /// The pool's hand-over point and accept queue: part of the state so
    /// both the stats snapshot and the `STATS` verb can read the
    /// shed/wait/depth counters it maintains.
    queue: AcceptQueue,
    origin_budget: OriginBudget,
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
    /// read lock-free; only the per-shard stored totals and the estimator
    /// take locks. Used both by [`CachingProxy::stats`] and the `STATS`
    /// verb.
    fn snapshot(&self) -> ProxyStats {
        let (cached_objects, cached_bytes) = (0..self.engine.shard_count())
            .map(|shard| {
                self.engine
                    .with_shard_index(shard, |_, r| (r.stored_objects, r.stored_bytes))
            })
            .fold((0, 0), |sum, shard| (sum.0 + shard.0, sum.1 + shard.1));
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
            shed_requests: self.queue.shed_count(),
            queued_requests: self.queue.dequeued_count(),
            queue_wait_micros: self.queue.total_wait_micros(),
            peak_queue_depth: self.queue.peak_depth(),
            client_timeouts: self.client_timeouts.load(Ordering::Relaxed),
        }
    }
}

/// A running caching proxy backed by a fixed leader/followers pool.
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
    /// Binds to an ephemeral localhost port and spawns the pool, whose
    /// first thread to run starts accepting clients.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::InvalidConfig`] for a negative capacity, a
    /// zero-sized worker pool or accept queue, and [`ProxyError::Io`] if
    /// binding fails.
    pub fn start(config: ProxyConfig) -> Result<Self, ProxyError> {
        if config.worker_threads == 0 {
            return Err(ProxyError::InvalidConfig(
                "worker_threads",
                "the worker pool needs at least one thread".into(),
            ));
        }
        if config.accept_queue_len == 0 {
            return Err(ProxyError::InvalidConfig(
                "accept_queue_len",
                "the accept queue needs a non-zero capacity".into(),
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
        if config.client_rate_limit_bps.is_nan() {
            return Err(ProxyError::InvalidConfig(
                "client_rate_limit_bps",
                "the client rate limit must be a number (0 disables it)".into(),
            ));
        }
        let engine = ShardedEngine::with_companions(
            config.cache_capacity_bytes,
            config.worker_threads,
            || config.policy.build(),
            ShardRecords::default,
        )
        .map_err(|e| ProxyError::InvalidConfig("cache_capacity_bytes", e.to_string()))?;
        let listener = Arc::new(TcpListener::bind("127.0.0.1:0")?);
        let addr = listener.local_addr()?;
        let state = Arc::new(ProxyState {
            engine,
            estimator: Mutex::new(EwmaEstimator::new(0.3)),
            queue: AcceptQueue::new(config.accept_queue_len, config.max_in_flight),
            origin_budget: OriginBudget::new(config.max_origin_connections),
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
            config,
        });

        // Identical threads; the listener closes when the last one exits.
        let pool = (0..=state.config.worker_threads)
            .map(|_| {
                let state = Arc::clone(&state);
                let listener = Arc::clone(&listener);
                std::thread::spawn(move || run_pool_thread(&state, &listener))
            })
            .collect();
        Ok(CachingProxy { addr, pool, state })
    }

    /// The address streaming clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the proxy's statistics. The hot counters are read
    /// lock-free; only the per-shard stored totals and the estimator take
    /// locks.
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
        // Refuse new connections (this wakes the idle followers and a
        // leader stuck on a full queue), then nudge a leader parked in
        // `accept()` awake; it finds the queue closed. Every thread drains
        // whatever was queued before the close, then exits.
        self.state.queue.close();
        let _ = TcpStream::connect(self.addr);
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

/// One pool thread: take a turn — a queued connection, else the vacant
/// leadership, else wait — until the queue is closed and drained.
fn run_pool_thread(state: &ProxyState, listener: &TcpListener) {
    let mut scratch = WorkerScratch::new(state.config.policy);
    loop {
        // A connection served by the thread that accepted it never waited.
        let (stream, queue_wait) = match state.queue.next_turn() {
            Turn::Exit => break,
            Turn::Serve(conn) => (conn.stream, Some(conn.enqueued_at.elapsed())),
            Turn::Lead => match lead(state, listener) {
                Some(stream) => (stream, None),
                None => continue,
            },
        };
        let _slot = InFlightSlot::new(&state.queue);
        if let Some(wait) = queue_wait {
            state.queue.record_wait(wait);
            let deadline = state.config.queue_deadline;
            if !deadline.is_zero() && wait > deadline {
                // The client has waited past its latency budget: shedding
                // now is cheaper for both sides than serving a stale
                // request.
                state.queue.record_shed();
                shed_with_busy(stream, state.config.busy_retry_after_ms());
                continue;
            }
        }
        let _ = handle_client(stream, state, &mut scratch);
    }
}

/// The leader's loop: accepts and admits until a connection is this
/// thread's to serve (leadership has then passed to a follower), or until
/// the queue closes (`None`; the caller's next turn drains and exits).
fn lead(state: &ProxyState, listener: &TcpListener) -> Option<TcpStream> {
    let retry_after = state.config.busy_retry_after_ms();
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // Without a listener nothing will ever be admitted again: let
            // the pool drain and exit rather than wait forever.
            state.queue.close();
            return None;
        };
        match state.queue.admit(stream) {
            Admission::Closed => return None,
            Admission::Inline(stream) => return Some(stream),
            Admission::Queued { shed } => {
                if let Some(old) = shed {
                    shed_with_busy(old.stream, retry_after);
                }
            }
            Admission::ShedIncoming(stream) => shed_with_busy(stream, retry_after),
        }
    }
}

/// Per-worker reusable buffers and a private policy instance: everything a
/// request needs that should not be reallocated per request or fetched
/// under a shared lock.
struct WorkerScratch {
    /// Fixed-size relay ring: every origin chunk passes through here.
    chunk: Vec<u8>,
    /// Tail-retention buffer, capped at the prefix the policy may admit.
    retained: Vec<u8>,
    /// Stateless policy clone used to size the retention cap without
    /// touching the engine lock from the relay loop.
    policy: Box<dyn UtilityPolicy + Send + Sync>,
}

impl WorkerScratch {
    fn new(policy: PolicyKind) -> Self {
        WorkerScratch {
            chunk: vec![0u8; RING_BYTES],
            retained: Vec::new(),
            policy: policy.build(),
        }
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

/// Tail bytes worth retaining for the record, given the conservative
/// bandwidth lower bound `b_lo`: the policy's target allocation at
/// slightly-below `b_lo`, minus the prefix already stored. Policy targets
/// are non-increasing in bandwidth and this request's own observation
/// lands the EWMA between the prior estimate and the observed throughput,
/// so a cap computed from a running minimum of those two quantities covers
/// the engine's eventual grant in the common case. It is best-effort: what
/// happens when the grant turns out larger is [`admit`]'s rule.
fn retain_cap(
    policy: &(dyn UtilityPolicy + Send + Sync),
    meta: &ObjectMeta,
    b_lo: f64,
    prefix_bytes: usize,
) -> usize {
    let size = meta.size_bytes();
    let target = policy
        .target_bytes(meta, (b_lo * RETAIN_BANDWIDTH_SLACK).max(0.0))
        .clamp(0.0, size);
    (target.ceil() as usize).saturating_sub(prefix_bytes)
}

/// Answers a shed connection with `BUSY <retry-after-ms>` and closes it.
/// The write is bounded by a short timeout (and errors are ignored): a
/// peer that is already gone or wedged must not pin the shedding thread.
fn shed_with_busy(stream: TcpStream, retry_after_ms: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = (&stream).write_all(&header_line(&Response::Busy { retry_after_ms }));
}

/// A response header framed in memory, so that it reaches the unbuffered
/// socket in one write — alone, or in front of the first payload chunk.
fn header_line(response: &Response) -> Vec<u8> {
    let mut line = Vec::with_capacity(64);
    write_response(&mut line, response).expect("writing to a Vec cannot fail");
    line
}

/// Classifies a failed client-socket write: a timed-out write means the
/// reader is too slow (or gone), which is counted and surfaced as
/// [`ProxyError::ClientTimeout`]; everything else passes through.
fn client_err(state: &ProxyState, err: ProxyError) -> ProxyError {
    if let ProxyError::Io(e) = &err {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            state.client_timeouts.fetch_add(1, Ordering::Relaxed);
            return ProxyError::ClientTimeout;
        }
    }
    err
}

/// Writes `head` (a framed response header, or nothing) and then payload
/// bytes to the client in ring-sized chunks, paced by the per-client token
/// bucket and with write failures classified through [`client_err`]. The
/// header rides in front of the first chunk in one vectored write — one
/// segment instead of two on a warm hit — and goes out alone only when
/// there is no payload or the payload has to wait for the bucket.
fn write_paced(
    state: &ProxyState,
    mut client: &TcpStream,
    mut head: &[u8],
    bytes: &[u8],
    pace: &mut RateLimiter,
) -> Result<(), ProxyError> {
    let classify = |e| client_err(state, ProxyError::Io(e));
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
    write_all_pair(&mut client, head, first).map_err(classify)?;
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
/// answer (pure, consulting the origin only when it must), send header and
/// cached prefix in one write, *relay* the origin tail, and *admit* the
/// object (second shard lock).
fn handle_client(
    stream: TcpStream,
    state: &ProxyState,
    scratch: &mut WorkerScratch,
) -> Result<(), ProxyError> {
    let client = &stream;
    let Some(name) = parse(client, state)? else {
        return Ok(());
    };
    // Per-client pacing: one token bucket per connection, so a greedy
    // client is bounded without penalizing its neighbours.
    let mut pace = RateLimiter::new(state.config.client_rate_limit_bps);
    let key = key_for(&name);
    let found = lookup(state, key, &name);

    // The origin connection is opened *before* replying to the client so
    // that the tail can be relayed as it arrives; its permit bounds
    // concurrent origin connections for the whole transfer.
    let mut origin = None;
    let decided = plan(found.known, found.cached.len() as u64, |offset| {
        let (answer, conn) = open_origin(state, &name, offset);
        origin = conn;
        answer
    });
    // The cached prefix goes out immediately (LAN speed), behind the
    // header; an `ERR` goes out alone.
    let prefix = match &decided {
        Ok(plan) => &found.cached[..found.cached.len().min(plan.header.size as usize)],
        Err(_) => &[],
    };
    let head = header_line(&wire_answer(&decided));
    write_paced(state, client, &head, prefix, &mut pace)?;
    let plan = decided.map_err(|failure| failure.into_error(&name))?;
    let Header { size, bitrate_bps } = plan.header;

    let mut tail_len = 0;
    if plan.action == Action::Degrade {
        // Degraded hit: the range-correct prefix is all the client gets.
        // The record, the engine and the bandwidth estimator are left
        // untouched — an outage should not perturb what the policy learned
        // from healthy transfers.
        state.degraded_hits.fetch_add(1, Ordering::Relaxed);
    } else {
        let job = Job {
            name: &name,
            meta: ObjectMeta::new(key, size as f64 / bitrate_bps, bitrate_bps, 0.0),
            size,
            prefix_bytes: prefix.len(),
            cacheable: found.ours,
        };
        let origin_bps;
        (tail_len, origin_bps) = relay(state, &job, origin, client, &mut pace, scratch)?;
        // Defensive check: the retained tail must continue the cached prefix.
        debug_assert_eq!(
            verify_content(&name, prefix.len() as u64, &scratch.retained),
            None,
            "origin payload does not match expected content"
        );
        let estimated = state.estimate_after(origin_bps);
        if job.cacheable {
            admit(state, &job, prefix, &scratch.retained, estimated);
        }
        state
            .peak_tail_bytes
            .fetch_max(scratch.retained.len() as u64, Ordering::Relaxed);
        // A request that retained a large prefix must not pin that capacity
        // in the worker for the proxy's lifetime: release it back down to
        // the ring size once the bytes have been handed to the record.
        scratch.retained.clear();
        scratch.retained.shrink_to(RING_BYTES);
    }

    // Request counters are lock-free: no stats critical section.
    state.requests.fetch_add(1, Ordering::Relaxed);
    state
        .bytes_from_cache
        .fetch_add(prefix.len() as u64, Ordering::Relaxed);
    state
        .bytes_from_origin
        .fetch_add(tail_len, Ordering::Relaxed);
    Ok(())
}

/// Stage 1: socket options and one command off the wire. `STATS` and
/// malformed input are answered here (`Ok(None)` / `Err`); a `GET` comes
/// back as the requested name.
fn parse(mut client: &TcpStream, state: &ProxyState) -> Result<Option<String>, ProxyError> {
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
        Ok(Command::Get(request)) => Ok(Some(request.name)),
        Ok(Command::Stats) => {
            let mut json = state.snapshot().to_json();
            json.push('\n');
            client
                .write_all(json.as_bytes())
                .map_err(|e| client_err(state, ProxyError::Io(e)))?;
            Ok(None)
        }
        Err(err @ ProxyError::Protocol(_)) => {
            // Malformed or adversarial input: the bounded parser already
            // stopped reading; answer with a clean ERR and drop the
            // connection (best-effort — the peer may be gone).
            let _ = client.write_all(&header_line(&Response::Err("malformed request".into())));
            Err(err)
        }
        Err(err) => Err(err),
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

/// How a plan serves the request.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    /// The whole object is cached: the origin is never consulted.
    ServeCached,
    /// Metadata known, prefix short: the origin streams the tail.
    FetchTail,
    /// First contact: size and bit-rate come from the origin's header.
    LearnFromOrigin,
    /// The origin is down but a prefix is cached: serve that, flagged on
    /// the wire — the paper's partial caching masking the outage.
    Degrade,
}

/// The decision for one `GET`: the header to answer with and what follows.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Plan {
    header: Header,
    action: Action,
}

/// Why a `GET` cannot be served at all.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Failure {
    UnknownObject,
    /// Nothing cached, so the outage cannot be masked.
    OriginUnavailable,
}

impl Failure {
    fn into_error(self, name: &str) -> ProxyError {
        match self {
            Failure::UnknownObject => ProxyError::UnknownObject(name.into()),
            Failure::OriginUnavailable => ProxyError::OriginUnavailable(name.into()),
        }
    }
}

/// Stage 3, pure: decides the answer from what `lookup` found, asking
/// `open_origin(offset)` only when the object is not fully cached or its
/// metadata is still unknown.
fn plan(
    known: Option<Header>,
    cached_len: u64,
    open_origin: impl FnOnce(u64) -> OriginAnswer,
) -> Result<Plan, Failure> {
    use Action::*;
    if let Some(header) = known.filter(|header| cached_len >= header.size) {
        return Ok(Plan {
            header,
            action: ServeCached,
        });
    }
    let (header, action) = match (open_origin(cached_len), known) {
        (OriginAnswer::Stream(_), Some(header)) => (header, FetchTail),
        (OriginAnswer::Stream(header), None) => (header, LearnFromOrigin),
        (OriginAnswer::Unknown, _) => return Err(Failure::UnknownObject),
        (OriginAnswer::Unavailable, Some(header)) if cached_len > 0 => (header, Degrade),
        (OriginAnswer::Unavailable, _) => return Err(Failure::OriginUnavailable),
    };
    Ok(Plan { header, action })
}

/// The response header a decision puts on the wire.
fn wire_answer(decided: &Result<Plan, Failure>) -> Response {
    match *decided {
        Ok(Plan { header, action }) => Response::Ok {
            size: header.size,
            bitrate_bps: header.bitrate_bps,
            degraded: action == Action::Degrade,
        },
        Err(Failure::UnknownObject) => Response::Err("unknown object".into()),
        Err(Failure::OriginUnavailable) => Response::Err("origin unavailable".into()),
    }
}

/// One planned `GET` on its way through relay and admit.
struct Job<'a> {
    name: &'a str,
    meta: ObjectMeta,
    size: u64,
    /// Bytes already served from the record; the relay starts here.
    prefix_bytes: usize,
    /// Whether the object may be retained and admitted (see [`Lookup::ours`]).
    cacheable: bool,
}

/// Stage 4: relays the origin tail to the client through the fixed-size
/// ring, retaining in `scratch.retained` only the leading bytes the policy
/// could plausibly admit. Returns the tail bytes relayed and the observed
/// origin throughput.
fn relay<'a>(
    state: &'a ProxyState,
    job: &Job<'_>,
    mut origin: Option<OriginConn<'a>>,
    client: &TcpStream,
    pace: &mut RateLimiter,
    scratch: &mut WorkerScratch,
) -> Result<(u64, Option<f64>), ProxyError> {
    scratch.retained.clear();
    if origin.is_none() {
        return Ok((0, None));
    }
    let mut tail_len: u64 = 0;
    let expected_tail = job.size.saturating_sub(job.prefix_bytes as u64);
    // `b_lo` is a running lower bound on this request's contribution to the
    // post-transfer estimate: the minimum of the prior estimate and the
    // observed throughput so far (see `retain_cap`). Once a byte is dropped
    // the retained prefix can never be extended again (it must stay
    // contiguous), hence the `gapped` latch.
    let mut b_lo = state.estimate_after(None);
    let started = Instant::now();
    let mut gapped = !job.cacheable;
    while tail_len < expected_tail {
        let Some((origin_reader, _)) = origin.as_mut() else {
            break;
        };
        let n = match origin_reader.read(&mut scratch.chunk) {
            Ok(n) if n > 0 => n,
            // Early EOF (mid-stream reset or truncated response) or a
            // read timeout (stalled origin): drop the connection — and
            // its budget permit — then resume from the current offset
            // through the resilient open. If the origin stays down the
            // client gets a short stream, and the record still keeps the
            // contiguous bytes in hand.
            Ok(_) | Err(_) => {
                origin = None;
                let offset = job.prefix_bytes as u64 + tail_len;
                if let (_, Some(conn)) = open_origin(state, job.name, offset) {
                    origin = Some(conn);
                    state.origin_resumes.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
        };
        write_paced(state, client, &[], &scratch.chunk[..n], pace)?;
        tail_len += n as u64;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            b_lo = b_lo.min(tail_len as f64 / elapsed);
        }
        if !gapped {
            let cap = retain_cap(scratch.policy.as_ref(), &job.meta, b_lo, job.prefix_bytes);
            let keep = cap.saturating_sub(scratch.retained.len()).min(n);
            scratch.retained.extend_from_slice(&scratch.chunk[..keep]);
            gapped = keep < n;
        }
    }
    drop(origin);
    let secs = started.elapsed().as_secs_f64();
    let origin_bps = (secs > 0.0 && tail_len > 0).then(|| tail_len as f64 / secs);
    Ok((tail_len, origin_bps))
}

/// Stage 5 (second shard lock): lets the policy decide how much of the
/// object to keep, then brings the shard's records in line with that
/// decision — victims lose their prefixes, this object's prefix grows to
/// its grant from the bytes in hand (`cached` followed by `retained`).
///
/// **Stored ≤ granted.** A record never holds more bytes than the engine
/// granted its slot; it may hold fewer. [`retain_cap`] is sized from a
/// lower bound on the bandwidth estimate, but an origin stall after
/// retention stopped, or concurrent transfers dragging the shared estimator
/// lower, can make the grant larger than what was retained. Only the bytes
/// in hand are stored, and the record catches up on the object's next
/// request, which fetches from the shorter stored offset.
///
/// A slot belongs to the first name admitted under its key: should another
/// name get here (a key collision that `lookup` could not see yet), the
/// record is left alone.
fn admit(state: &ProxyState, job: &Job<'_>, cached: &[u8], retained: &[u8], estimated_bps: f64) {
    let key = job.meta.key;
    state
        .engine
        .access_with(&job.meta, estimated_bps, |engine, records, out| {
            // The engine evicts victims whole, and only here.
            for &(victim, _, _) in engine.last_evictions() {
                records.store(victim, Bytes::new());
            }
            let slot = engine
                .slot_of(key)
                .expect("accessed keys are interned by on_access");
            if !records.admits(Some(slot), job.name) {
                return;
            }
            let index = slot as usize;
            if records.by_slot.len() <= index {
                records.by_slot.resize_with(index + 1, || None);
            }
            let stored = records.by_slot[index]
                .get_or_insert_with(|| Record {
                    name: job.name.to_string(),
                    header: Header {
                        size: job.size,
                        bitrate_bps: job.meta.bitrate_bps,
                    },
                    prefix: Bytes::new(),
                })
                .prefix
                .len();
            let granted = (out.cached_bytes_after as usize).min(job.size as usize);
            let usable = granted.min(cached.len() + retained.len());
            if usable > stored {
                let mut prefix = Vec::with_capacity(usable);
                prefix.extend_from_slice(&cached[..cached.len().min(usable)]);
                prefix.extend_from_slice(&retained[..usable - prefix.len()]);
                records.store(slot, Bytes::from(prefix));
            }
            debug_assert!(
                stored <= granted,
                "`{}` stored {stored} B but the engine granted {granted}",
                job.name
            );
        });
}

/// An open origin connection positioned at the requested offset, holding
/// one origin-budget permit for its lifetime.
type OriginConn<'a> = (BufReader<TcpStream>, OriginPermit<'a>);

/// Opens an origin connection for `name` starting at `offset` through the
/// resilience stack: the circuit breaker gates every attempt, each attempt
/// dials and reads under per-attempt timeouts, and failures back off
/// exponentially (seeded jitter) until the attempt count or the deadline
/// budget runs out. Transport failures are absorbed into
/// [`OriginAnswer::Unavailable`] rather than propagated; the connection
/// comes back only with [`OriginAnswer::Stream`].
fn open_origin<'a>(
    state: &'a ProxyState,
    name: &str,
    offset: u64,
) -> (OriginAnswer, Option<OriginConn<'a>>) {
    let policy = state.config.retry;
    let started = Instant::now();
    let nonce = state.open_nonce.fetch_add(1, Ordering::Relaxed);
    let mut attempt: u32 = 0;
    loop {
        if !state.breaker.allow() {
            return (OriginAnswer::Unavailable, None);
        }
        let remaining = policy.deadline.saturating_sub(started.elapsed());
        let Some(permit) = state.origin_budget.acquire_within(remaining) else {
            // The budget, not the origin, ran out of room: release the
            // half-open probe slot (if we held it) without an outcome.
            state.breaker.release_probe();
            return (OriginAnswer::Unavailable, None);
        };
        match try_open_origin(state, name, offset) {
            // A definite answer from a healthy origin, streaming or not.
            Ok((answer, reader)) => {
                state.breaker.record_success();
                return (answer, reader.map(|reader| (reader, permit)));
            }
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
) -> Result<(OriginAnswer, Option<BufReader<TcpStream>>), ProxyError> {
    let stream =
        TcpStream::connect_timeout(&state.config.origin_addr, state.config.connect_timeout)?;
    stream.set_read_timeout(Some(state.config.origin_read_timeout))?;
    stream.set_nodelay(true).ok();
    // The request line is framed in memory and sent through the shared
    // reference: one write, and the one fd then belongs to the reader.
    let mut line = Vec::with_capacity(name.len() + 32);
    write_request(
        &mut line,
        &Request {
            name: name.to_string(),
            offset,
        },
    )?;
    (&stream).write_all(&line)?;
    let mut reader = BufReader::new(stream);
    match read_response(&mut reader)? {
        Response::Ok {
            size, bitrate_bps, ..
        } => Ok((
            OriginAnswer::Stream(Header { size, bitrate_bps }),
            Some(reader),
        )),
        Response::Err(_) => Ok((OriginAnswer::Unknown, None)),
        // An overloaded origin counts as a transport failure: the caller
        // backs off and retries within the usual budget.
        Response::Busy { retry_after_ms } => Err(ProxyError::Busy(retry_after_ms)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(cfg.accept_queue_len >= 1);
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
    fn busy_retry_after_tracks_the_queue_deadline() {
        let mut cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6);
        cfg.queue_deadline = Duration::from_millis(300);
        assert_eq!(cfg.busy_retry_after_ms(), 150);
        cfg.queue_deadline = Duration::from_millis(1);
        assert_eq!(cfg.busy_retry_after_ms(), 1, "clamped to at least 1 ms");
        cfg.queue_deadline = Duration::ZERO;
        assert_eq!(cfg.busy_retry_after_ms(), 100, "flat default when off");
    }

    #[test]
    fn stats_json_is_well_formed_and_complete() {
        let stats = ProxyStats {
            requests: 7,
            shed_requests: 3,
            queued_requests: 5,
            peak_queue_depth: 11,
            client_timeouts: 2,
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
        assert!(json.contains("\"queue_wait_micros\": 0"));
        assert!(json.contains("\"estimated_origin_bps\": 64000"));
        // One line, no trailing newline: the verb handler appends it.
        assert!(!json.contains('\n'));
    }

    #[test]
    fn write_all_pair_survives_a_short_first_write_at_every_split() {
        /// Takes at most `first` bytes on its first call, everything after.
        struct Short {
            first: usize,
            calls: usize,
            out: Vec<u8>,
        }
        impl Write for Short {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
                self.calls += 1;
                let room = std::mem::replace(&mut self.first, usize::MAX);
                let before = self.out.len();
                for buf in bufs {
                    let take = buf.len().min(room - (self.out.len() - before));
                    self.out.extend_from_slice(&buf[..take]);
                }
                Ok(self.out.len() - before)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let wire = |first| Short {
            first,
            calls: 0,
            out: Vec::new(),
        };
        let (head, body) = (b"OK 5 1000\n", b"hello");
        for first in 1..=head.len() + body.len() {
            let mut wire = wire(first);
            write_all_pair(&mut wire, head, body).unwrap();
            assert_eq!(wire.out, b"OK 5 1000\nhello", "first write took {first}");
        }
        // Nothing short: header and body leave in one call.
        let mut whole = wire(usize::MAX);
        write_all_pair(&mut whole, head, body).unwrap();
        assert_eq!(whole.calls, 1);
        // A wire that takes nothing is an error, not a spin.
        let stuck = write_all_pair(&mut wire(0), head, body).unwrap_err();
        assert_eq!(stuck.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn nan_client_rate_limit_is_rejected() {
        let mut cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6);
        cfg.client_rate_limit_bps = f64::NAN;
        assert!(CachingProxy::start(cfg).is_err());
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
        cfg.accept_queue_len = 0;
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
    }

    #[test]
    fn plan_covers_every_lookup_and_origin_outcome() {
        use Action::*;
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
        let unknown = Err((Failure::UnknownObject, "unknown object"));
        let down = Err((Failure::OriginUnavailable, "origin unavailable"));
        // (metadata known?, cached bytes, origin outcome — `None` when the
        // origin must not be consulted) → header and action, or failure
        // and its `ERR` text.
        let rows = [
            (known, 1_000, None, Ok((record, ServeCached))),
            (known, 1_001, None, Ok((record, ServeCached))),
            (known, 400, Some(Stream(origin)), Ok((record, FetchTail))),
            (known, 0, Some(Stream(origin)), Ok((record, FetchTail))),
            (known, 400, Some(Unknown), unknown),
            (known, 400, Some(Unavailable), Ok((record, Degrade))),
            (known, 0, Some(Unavailable), down),
            (None, 0, Some(Stream(origin)), Ok((origin, LearnFromOrigin))),
            (None, 0, Some(Unknown), unknown),
            (None, 0, Some(Unavailable), down),
        ];
        for (known, cached_len, answer, expected) in rows {
            let row = format!("known {known:?}, cached {cached_len}, origin {answer:?}");
            let decided = plan(known, cached_len, |offset| {
                assert_eq!(offset, cached_len, "{row}: tail starts after the prefix");
                answer.unwrap_or_else(|| panic!("{row}: origin consulted"))
            });
            let (decision, on_the_wire) = match expected {
                Ok((header, action)) => (
                    Ok(Plan { header, action }),
                    Response::Ok {
                        size: header.size,
                        bitrate_bps: header.bitrate_bps,
                        degraded: action == Degrade,
                    },
                ),
                Err((failure, text)) => (Err(failure), Response::Err(text.into())),
            };
            assert_eq!(decided, decision, "{row}");
            assert_eq!(wire_answer(&decided), on_the_wire, "{row}");
        }
    }

    #[test]
    fn a_slot_belongs_to_the_first_name_admitted_under_its_key() {
        let mut cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6);
        cfg.policy = PolicyKind::IntegralFrequency;
        let proxy = CachingProxy::start(cfg).unwrap();
        let state = &*proxy.state;
        // Two names forged onto one key, as a 64-bit collision would.
        let key = ObjectKey::new(7);
        let job = |name, size: u64| Job {
            name,
            meta: ObjectMeta::new(key, size as f64 / 1e6, 1e6, 0.0),
            size,
            prefix_bytes: 0,
            cacheable: true,
        };
        admit(state, &job("a", 1_000), &[], &[1u8; 1_000], 1e9);
        let a = lookup(state, key, "a");
        assert_eq!(a.known.map(|h| h.size), Some(1_000));
        assert_eq!(&a.cached[..], &[1u8; 1_000][..]);
        assert!(a.ours);

        // The other name sees nothing of the record, so its request skips
        // admit; one that raced past lookup leaves the record alone.
        let b = lookup(state, key, "b");
        assert!(!b.ours);
        assert_eq!(b.known, None);
        assert!(b.cached.is_empty());
        admit(state, &job("b", 3_000), &[], &[2u8; 3_000], 1e9);
        let a = lookup(state, key, "a");
        assert_eq!(a.known.map(|h| h.size), Some(1_000));
        assert_eq!(&a.cached[..], &[1u8; 1_000][..]);
        let stats = proxy.stats();
        assert_eq!((stats.cached_objects, stats.cached_bytes), (1, 1_000));
    }

    #[test]
    fn retention_cap_covers_the_policy_target() {
        let policy = PolicyKind::PartialBandwidth.build();
        let meta = ObjectMeta::new(ObjectKey::new(1), 10.0, 100_000.0, 0.0);
        // PB at 40 KB/s wants (100 - 40) * 10 = 600 KB; the slack makes the
        // cap at least that.
        let cap = retain_cap(policy.as_ref(), &meta, 40_000.0, 0);
        assert!(cap >= 600_000, "cap {cap}");
        assert!(cap <= meta.size_bytes() as usize);
        // A stored prefix reduces what is worth retaining.
        let cap_warm = retain_cap(policy.as_ref(), &meta, 40_000.0, 500_000);
        assert!(cap_warm >= 100_000 && cap_warm < cap, "cap_warm {cap_warm}");
        // Abundant bandwidth: nothing worth retaining.
        assert_eq!(retain_cap(policy.as_ref(), &meta, 1e9, 0), 0);
    }
}
