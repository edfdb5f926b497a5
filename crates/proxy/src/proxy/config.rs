//! The proxy's configuration and its one validity check.

use crate::error::ProxyError;
use crate::retry::{BreakerConfig, RetryPolicy};
use sc_cache::policy::PolicyKind;
use std::net::SocketAddr;
use std::time::Duration;

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
    /// Write timeout towards the client, per relay step: one ring chunk
    /// (with the header in front of it) or one pipe's worth of a spliced
    /// tail. The socket's send timeout is set to the same. A ring step not
    /// in the client's socket this long after it started fails at its next
    /// short write, however few bytes each write moved, so it ends within
    /// twice this long. A spliced step waits in `poll` for what is left of
    /// its deadline and ends at it: 200.3–200.4 ms at a 200 ms setting over
    /// 30 runs, where one blocking `splice` had taken 402–408 ms by waiting
    /// out the send timeout once per batch of pipe buffers. So a stalled or
    /// wedged reader turns into a write error, counted in
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

    /// The first field a proxy cannot start with, as
    /// [`ProxyError::InvalidConfig`]: a zero-sized worker pool, a zero
    /// timeout, retry budget or breaker threshold, a NaN client rate limit
    /// or policy `e`, or a value-based policy (PB-V, IB-V): the proxy gives
    /// every object value 0, so their utility is 0 for every object and the
    /// cache would never turn over. The capacity is the engine's to check.
    pub(super) fn validate(&self) -> Result<(), ProxyError> {
        let checks = [
            (
                self.worker_threads == 0,
                "worker_threads",
                "the worker pool needs at least one thread",
            ),
            (
                self.connect_timeout.is_zero(),
                "connect_timeout",
                "origin dials need a non-zero timeout",
            ),
            (
                self.origin_read_timeout.is_zero(),
                "origin_read_timeout",
                "origin reads need a non-zero timeout",
            ),
            (
                self.retry.max_attempts == 0,
                "retry.max_attempts",
                "at least one origin attempt is required",
            ),
            (
                self.retry.deadline.is_zero(),
                "retry.deadline",
                "the retry deadline budget must be non-zero",
            ),
            (
                self.breaker.failure_threshold == 0,
                "breaker.failure_threshold",
                "at least one failure must trip the breaker",
            ),
            (
                self.client_rate_limit_bps.is_nan(),
                "client_rate_limit_bps",
                "the client rate limit must be a number (0 disables it)",
            ),
        ];
        if let Some(&(_, field, why)) = checks.iter().find(|check| check.0) {
            return Err(ProxyError::InvalidConfig(field, why.into()));
        }
        self.policy
            .validate()
            .map_err(|e| ProxyError::InvalidConfig("policy", e.to_string()))?;
        if matches!(
            self.policy,
            PolicyKind::PartialBandwidthValue { .. } | PolicyKind::IntegralBandwidthValue
        ) {
            return Err(ProxyError::InvalidConfig(
                "policy",
                format!(
                    "{} weighs objects by value, and every object the proxy serves has value 0",
                    self.policy.label()
                ),
            ));
        }
        Ok(())
    }
}
