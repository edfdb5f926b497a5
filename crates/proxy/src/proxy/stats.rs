//! The proxy's counters: the hot ones every request bumps, and the
//! [`ProxyStats`] snapshot that both [`CachingProxy::stats`] and the
//! `STATS` verb read out of them.
//!
//! [`CachingProxy::stats`]: super::CachingProxy::stats

use super::ProxyState;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-proxy cache statistics exposed for observability and tests.
///
/// A request's counters and its `store` land after its last payload byte
/// has left and before its connection closes: a client that has read the
/// whole object can be ahead of the counters that count it. So a snapshot
/// counts every request only when no request is being handled; taken
/// while one is, it may be one request behind for each.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProxyStats {
    /// Requests handled: every request whose relay wrote all it had into
    /// the client's socket, whether or not the client read it. A client
    /// that left after the relay's last write is counted here too.
    pub requests: u64,
    /// Bytes of the prefix store written into clients' sockets; bytes
    /// written, not bytes the clients are known to have received.
    pub bytes_from_cache: u64,
    /// Bytes relayed from the origin server into clients' sockets; bytes
    /// written, not bytes the clients are known to have received.
    pub bytes_from_origin: u64,
    /// Current number of objects with a cached prefix.
    pub cached_objects: usize,
    /// Current bytes held in the prefix store.
    pub cached_bytes: u64,
    /// The origin-path bandwidth estimate in bytes per second: the one the
    /// next cache decision will use (an EWMA of the transfers observed so
    /// far, the assumed 64 kB/s before the first).
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

/// The hot request counters, updated lock-free with relaxed atomics (the
/// per-request stats critical section is gone).
#[derive(Debug, Default)]
pub(super) struct Counters {
    pub(super) requests: AtomicU64,
    pub(super) bytes_from_cache: AtomicU64,
    pub(super) bytes_from_origin: AtomicU64,
    pub(super) peak_tail_bytes: AtomicU64,
    pub(super) origin_retries: AtomicU64,
    pub(super) origin_resumes: AtomicU64,
    pub(super) origin_backoff_micros: AtomicU64,
    pub(super) degraded_hits: AtomicU64,
    pub(super) client_timeouts: AtomicU64,
    pub(super) spliced_bytes: AtomicU64,
}

impl ProxyState {
    /// A consistent-enough snapshot of every counter: the hot counters are
    /// read lock-free; the per-shard stored totals, the estimator, the
    /// queue's counts and the breaker's transitions are each read under
    /// the lock that maintains them. Used both by
    /// [`CachingProxy::stats`](super::CachingProxy::stats) and the `STATS`
    /// verb.
    pub(super) fn snapshot(&self) -> ProxyStats {
        let (cached_objects, cached_bytes) = (0..self.engine.shard_count())
            .map(|shard| self.engine.with_shard_index(shard, |_, r| r.totals()))
            .fold((0, 0), |sum, shard| (sum.0 + shard.0, sum.1 + shard.1));
        let queue = self.queue.counts();
        ProxyStats {
            requests: self.hot.requests.load(Ordering::Relaxed),
            bytes_from_cache: self.hot.bytes_from_cache.load(Ordering::Relaxed),
            bytes_from_origin: self.hot.bytes_from_origin.load(Ordering::Relaxed),
            cached_objects,
            cached_bytes,
            estimated_origin_bps: self.estimate(),
            peak_tail_bytes: self.hot.peak_tail_bytes.load(Ordering::Relaxed),
            origin_retries: self.hot.origin_retries.load(Ordering::Relaxed),
            origin_resumes: self.hot.origin_resumes.load(Ordering::Relaxed),
            origin_backoff_micros: self.hot.origin_backoff_micros.load(Ordering::Relaxed),
            breaker_transitions: self.breaker.transitions(),
            degraded_hits: self.hot.degraded_hits.load(Ordering::Relaxed),
            shed_requests: queue.shed,
            queued_requests: queue.dequeued,
            queue_wait_micros: queue.wait_micros,
            peak_queue_depth: queue.peak_depth,
            client_timeouts: self.hot.client_timeouts.load(Ordering::Relaxed),
            spliced_bytes: self.hot.spliced_bytes.load(Ordering::Relaxed),
        }
    }
}
