//! Token-bucket pacing used to emulate constrained origin-server paths.

use std::time::{Duration, Instant};

/// A byte-rate limiter that paces a sender to a target throughput.
///
/// The origin server of the prototype wraps every connection in a
/// `RateLimiter` so that the path between the proxy and the origin behaves
/// like the bandwidth-constrained Internet paths of the paper, while the
/// cache→client hop stays unconstrained (the paper's "abundant last-mile
/// bandwidth" assumption).
///
/// ```
/// use sc_proxy::RateLimiter;
/// use std::time::Instant;
///
/// let mut limiter = RateLimiter::new(1_000_000.0); // 1 MB/s
/// let start = Instant::now();
/// limiter.acquire(100_000);                         // 100 KB
/// // Pacing 100 KB at 1 MB/s takes about 0.1 s.
/// assert!(start.elapsed().as_secs_f64() >= 0.08);
/// ```
#[derive(Debug)]
pub struct RateLimiter {
    bytes_per_sec: f64,
    started: Instant,
    consumed_bytes: f64,
}

impl RateLimiter {
    /// Creates a limiter with the given target rate in bytes per second.
    /// Rates of zero or below, and NaN, disable pacing entirely
    /// (unlimited); a rate so small that a pause would not fit a
    /// [`Duration`] pauses for [`Duration::MAX`].
    pub fn new(bytes_per_sec: f64) -> Self {
        RateLimiter {
            bytes_per_sec,
            started: Instant::now(),
            consumed_bytes: 0.0,
        }
    }

    /// Returns `true` if the limiter enforces no pacing.
    pub fn is_unlimited(&self) -> bool {
        self.bytes_per_sec.is_nan() || self.bytes_per_sec <= 0.0
    }

    /// Blocks until sending `bytes` more bytes keeps the cumulative
    /// throughput at or below the target rate.
    pub fn acquire(&mut self, bytes: usize) {
        if self.is_unlimited() {
            return;
        }
        self.consumed_bytes += bytes as f64;
        let due = self.due(self.consumed_bytes);
        let elapsed = self.started.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
        }
    }

    /// The pause [`acquire`](Self::acquire) would impose for `bytes` more
    /// bytes right now, without consuming any budget. Lets callers judge
    /// whether a paced write still fits a latency budget before they
    /// commit to it.
    pub fn would_sleep(&self, bytes: usize) -> Duration {
        if self.is_unlimited() {
            return Duration::ZERO;
        }
        self.due(self.consumed_bytes + bytes as f64)
            .saturating_sub(self.started.elapsed())
    }

    /// When, counted from the start, `bytes` in total may have been sent.
    fn due(&self, bytes: f64) -> Duration {
        Duration::try_from_secs_f64(bytes / self.bytes_per_sec).unwrap_or(Duration::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_sleeps() {
        let mut limiter = RateLimiter::new(0.0);
        assert!(limiter.is_unlimited());
        let start = Instant::now();
        limiter.acquire(100_000_000);
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn paced_transfer_takes_expected_time() {
        let mut limiter = RateLimiter::new(2_000_000.0);
        let start = Instant::now();
        for _ in 0..10 {
            limiter.acquire(40_000); // 400 KB total at 2 MB/s ≈ 0.2 s
        }
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= 0.15, "elapsed {elapsed}");
        assert!(elapsed < 1.0, "elapsed {elapsed}");
    }

    #[test]
    fn would_sleep_previews_the_debt_without_charging_it() {
        let mut limiter = RateLimiter::new(100_000.0);
        // 50 KB at 100 KB/s owes ~0.5 s; the preview sees the debt ...
        let preview = limiter.would_sleep(50_000);
        assert!(preview.as_secs_f64() > 0.4, "preview {preview:?}");
        // ... but charges nothing: an immediate small acquire stays cheap.
        let start = Instant::now();
        limiter.acquire(1_000);
        assert!(start.elapsed() < Duration::from_millis(100));
        // Unlimited limiters never owe anything.
        assert_eq!(
            RateLimiter::new(0.0).would_sleep(usize::MAX),
            Duration::ZERO
        );
    }

    #[test]
    fn negative_and_non_finite_rates_disable_pacing() {
        for rate in [-1.0, f64::NEG_INFINITY, f64::NAN] {
            let mut limiter = RateLimiter::new(rate);
            assert!(limiter.is_unlimited(), "rate {rate} must be unlimited");
            let start = Instant::now();
            limiter.acquire(usize::MAX);
            assert!(start.elapsed() < Duration::from_millis(50));
        }
    }

    #[test]
    fn vanishing_rate_saturates_instead_of_panicking() {
        // One byte at 1e-300 B/s is due in 1e300 s, far past what a
        // `Duration` holds: the preview saturates instead of panicking.
        let year = Duration::from_secs(365 * 24 * 3600);
        assert!(RateLimiter::new(1e-300).would_sleep(1) >= year);
    }

    #[test]
    fn zero_byte_acquires_are_free_at_any_rate() {
        // A zero-byte acquire consumes no budget, so a sequence of them
        // never sleeps — even at a crawling 1 B/s.
        let mut limiter = RateLimiter::new(1.0);
        let start = Instant::now();
        for _ in 0..1_000 {
            limiter.acquire(0);
        }
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn sub_byte_budgets_accumulate_fractionally() {
        // 10 KB/s with 1-byte acquires: each byte owes ~0.1 ms. The float
        // accumulator must charge the *cumulative* debt, not round each
        // acquire down to zero sleep.
        let mut limiter = RateLimiter::new(10_000.0);
        let start = Instant::now();
        for _ in 0..500 {
            limiter.acquire(1);
        }
        let elapsed = start.elapsed().as_secs_f64();
        // 500 bytes at 10 KB/s = 50 ms of debt.
        assert!(elapsed >= 0.04, "elapsed {elapsed}");
        assert!(elapsed < 0.5, "elapsed {elapsed}");
    }

    #[test]
    fn fast_early_bytes_do_not_earn_future_credit_beyond_the_curve() {
        // The limiter paces against the cumulative curve `bytes = rate · t`:
        // an initial burst is owed back on the very next acquire.
        let mut limiter = RateLimiter::new(100_000.0);
        let start = Instant::now();
        limiter.acquire(10_000); // 0.1 s of budget, consumed instantly-ish
        limiter.acquire(10_000); // must wait until t ≈ 0.2 s
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed >= 0.15, "elapsed {elapsed}");
    }
}
