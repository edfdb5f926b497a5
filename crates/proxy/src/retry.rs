//! Origin-path resilience primitives: bounded retry with seeded
//! exponential backoff, and a per-origin circuit breaker.
//!
//! The proxy wraps every origin dial in a [`RetryPolicy`] (per-attempt
//! timeouts live on the socket; the policy bounds how many attempts are
//! made and how long the whole dance may take) and consults one
//! [`CircuitBreaker`] per origin so that a dead origin costs a fast
//! in-memory check instead of a connect timeout per request.
//!
//! Backoff jitter is *seeded*: the pause for a given `(attempt, nonce)`
//! pair is a pure function of the policy and `JITTER_SEED`, so tests can
//! pin exact schedules while concurrent requests (distinct nonces) still
//! decorrelate their retry storms.

use crate::lock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seed of the deterministic backoff jitter.
const JITTER_SEED: u64 = 0x5eed_cafe;

/// Bounds on the proxy's origin retry loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum connection attempts per origin open (≥ 1; 1 disables
    /// retrying).
    pub max_attempts: u32,
    /// Backoff before the first retry; attempt `k` waits roughly
    /// `base_backoff · 2^k`, jittered.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff pause.
    pub max_backoff: Duration,
    /// Total wall-clock budget for one origin open, attempts and pauses
    /// included. Once exceeded, the open fails rather than retry again.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(400),
            deadline: Duration::from_secs(3),
        }
    }
}

impl RetryPolicy {
    /// The pause before retry number `attempt` (0-based) for a request
    /// identified by `nonce`: exponential in the attempt, capped at
    /// [`max_backoff`](Self::max_backoff), with a deterministic jitter
    /// factor in `[0.5, 1.0)` drawn from `JITTER_SEED ⊕ attempt ⊕ nonce`.
    pub fn backoff(&self, attempt: u32, nonce: u64) -> Duration {
        let base = self.base_backoff.as_secs_f64();
        if base <= 0.0 {
            return Duration::ZERO;
        }
        let exp = base * 2f64.powi(attempt.min(30) as i32);
        let capped = exp.min(self.max_backoff.as_secs_f64()).max(0.0);
        let seed = JITTER_SEED
            ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ nonce.wrapping_mul(0xd134_2543_de82_ef95);
        let jitter = 0.5 + 0.5 * StdRng::seed_from_u64(seed).gen::<f64>();
        Duration::from_secs_f64(capped * jitter)
    }
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive origin failures that trip the breaker open (≥ 1).
    pub failure_threshold: u32,
    /// How long an open breaker rejects requests before letting one
    /// half-open probe through.
    pub open_duration: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_duration: Duration::from_millis(500),
        }
    }
}

/// Observable breaker states (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; consecutive failures are being counted.
    Closed,
    /// Requests fail fast without touching the origin.
    Open,
    /// One probe request is allowed through; its outcome decides between
    /// `Closed` (success) and `Open` (failure).
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    /// State transitions since creation.
    transitions: u64,
}

/// A per-origin circuit breaker: closed → open on consecutive failures,
/// open → half-open after [`BreakerConfig::open_duration`], half-open →
/// closed/open on the probe's outcome.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// Creates a breaker in the closed state.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: None,
                transitions: 0,
            }),
        }
    }

    /// Whether a request may contact the origin right now. An open breaker
    /// that has cooled down transitions to half-open and admits exactly one
    /// probe; callers that get `true` must report the outcome via
    /// [`record_success`](Self::record_success) or
    /// [`record_failure`](Self::record_failure). Half-open means that probe
    /// is in flight, so everyone else fails fast until its outcome is in.
    pub fn allow(&self) -> bool {
        let mut inner = lock(&self.inner);
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                let cooled = inner
                    .opened_at
                    .map(|t| t.elapsed() >= self.config.open_duration)
                    .unwrap_or(true);
                if cooled {
                    inner.state = BreakerState::HalfOpen;
                    inner.transitions += 1;
                }
                cooled
            }
            BreakerState::HalfOpen => false,
        }
    }

    /// Records a successful origin exchange: resets the failure count and
    /// closes the breaker from any state.
    pub fn record_success(&self) {
        let mut inner = lock(&self.inner);
        inner.consecutive_failures = 0;
        if inner.state != BreakerState::Closed {
            inner.state = BreakerState::Closed;
            inner.opened_at = None;
            inner.transitions += 1;
        }
    }

    /// Records a failed origin exchange; trips the breaker open once the
    /// failure threshold is reached (immediately, from half-open).
    pub fn record_failure(&self) {
        let mut inner = lock(&self.inner);
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.config.failure_threshold {
                    inner.state = BreakerState::Open;
                    inner.opened_at = Some(Instant::now());
                    inner.transitions += 1;
                }
            }
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at = Some(Instant::now());
                inner.transitions += 1;
            }
            BreakerState::Open => {}
        }
    }

    /// The breaker's current state.
    pub fn state(&self) -> BreakerState {
        lock(&self.inner).state
    }

    /// Number of state transitions since creation (closed→open, open→
    /// half-open and half-open→closed/open each count once).
    pub fn transitions(&self) -> u64 {
        lock(&self.inner).transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(60),
            deadline: Duration::from_secs(1),
        }
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let p = policy();
        for attempt in 0..6 {
            for nonce in [0u64, 1, 99] {
                assert_eq!(p.backoff(attempt, nonce), p.backoff(attempt, nonce));
                let exp = 0.010 * 2f64.powi(attempt as i32);
                let capped = exp.min(0.060);
                let got = p.backoff(attempt, nonce).as_secs_f64();
                assert!(
                    got >= 0.5 * capped - 1e-9 && got < capped + 1e-9,
                    "attempt {attempt} nonce {nonce}: {got} outside [{}, {capped}]",
                    0.5 * capped
                );
            }
        }
        // The schedule is pinned: the seed is a constant.
        assert_eq!(
            [(0, 0), (1, 0), (1, 1), (5, 99)].map(|(attempt, nonce)| p.backoff(attempt, nonce)),
            [8_338_896, 13_702_827, 19_141_006, 59_838_698].map(Duration::from_nanos)
        );
        // Distinct nonces decorrelate the jitter (not a hard guarantee for
        // every pair, but these particular draws differ).
        assert_ne!(p.backoff(1, 0), p.backoff(1, 1));
        // A zero base disables the pause entirely.
        let free = RetryPolicy {
            base_backoff: Duration::ZERO,
            ..p
        };
        assert_eq!(free.backoff(3, 7), Duration::ZERO);
    }

    #[test]
    fn breaker_trips_after_threshold_and_fails_fast() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            open_duration: Duration::from_secs(60),
        });
        assert_eq!(breaker.state(), BreakerState::Closed);
        for _ in 0..2 {
            assert!(breaker.allow());
            breaker.record_failure();
            assert_eq!(breaker.state(), BreakerState::Closed);
        }
        assert!(breaker.allow());
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.allow(), "open breaker must fail fast");
        assert_eq!(breaker.transitions(), 1);
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            open_duration: Duration::from_secs(60),
        });
        breaker.record_failure();
        breaker.record_success();
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Closed);
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
    }

    #[test]
    fn half_open_admits_one_probe_and_its_outcome_decides() {
        let breaker = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_duration: Duration::from_millis(20),
        });
        assert!(breaker.allow());
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(30));
        // Cooled down: exactly one probe goes through.
        assert!(breaker.allow());
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(!breaker.allow(), "only one probe at a time");
        // Probe fails: back to open, and the window restarts.
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(!breaker.allow());
        std::thread::sleep(Duration::from_millis(30));
        assert!(breaker.allow());
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.allow());
        // closed→open, open→half-open, half-open→open, open→half-open,
        // half-open→closed.
        assert_eq!(breaker.transitions(), 5);
    }
}
