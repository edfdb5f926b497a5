//! Concurrency tests pinning the circuit breaker's half-open gate.
//!
//! The breaker's contract under contention: a cooled-down open breaker
//! admits *exactly one* probe no matter how many threads race `allow()`,
//! everyone else fails fast until that probe's outcome is recorded, and a
//! failed probe re-opens the breaker so the cooldown restarts. These are the
//! invariants the proxy's origin path leans on — a double-admitted probe
//! would stampede a recovering origin.

use sc_proxy::{BreakerConfig, BreakerState, CircuitBreaker};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const RACERS: usize = 16;

/// Trips the breaker open and waits out the cooldown so the next `allow`
/// race is over a half-open-eligible breaker.
fn trip_and_cool(breaker: &CircuitBreaker, open_duration: Duration) {
    breaker.record_failure();
    assert_eq!(breaker.state(), BreakerState::Open);
    std::thread::sleep(open_duration + Duration::from_millis(10));
}

/// Races `RACERS` threads through `allow()` from a shared barrier and
/// returns how many were admitted.
fn race_allow(breaker: &Arc<CircuitBreaker>) -> usize {
    let admitted = AtomicUsize::new(0);
    let barrier = Barrier::new(RACERS);
    std::thread::scope(|scope| {
        for _ in 0..RACERS {
            scope.spawn(|| {
                barrier.wait();
                if breaker.allow() {
                    admitted.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    admitted.load(Ordering::SeqCst)
}

#[test]
fn exactly_one_probe_wins_the_cooled_half_open_race() {
    let open_duration = Duration::from_millis(20);
    let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
        failure_threshold: 1,
        open_duration,
    }));
    for round in 0..20 {
        trip_and_cool(&breaker, open_duration);
        let admitted = race_allow(&breaker);
        assert_eq!(
            admitted, 1,
            "round {round}: a cooled breaker must admit exactly one probe"
        );
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        // Losers keep failing fast while the probe is in flight.
        assert!(!breaker.allow());
        // Close it out for the next round.
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
    }
}

#[test]
fn failed_probe_reopens_and_restarts_the_cooldown() {
    let open_duration = Duration::from_millis(40);
    let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
        failure_threshold: 1,
        open_duration,
    }));
    trip_and_cool(&breaker, open_duration);
    assert_eq!(race_allow(&breaker), 1);

    // The winning probe fails: straight back to open, and the cooldown
    // starts over — even a full stampede is locked out until it elapses.
    breaker.record_failure();
    assert_eq!(breaker.state(), BreakerState::Open);
    assert_eq!(race_allow(&breaker), 0, "re-opened breaker must fail fast");

    // After the fresh cooldown the cycle repeats: one probe, and this time
    // its success closes the breaker for everyone.
    std::thread::sleep(open_duration + Duration::from_millis(10));
    assert_eq!(race_allow(&breaker), 1);
    breaker.record_success();
    assert_eq!(breaker.state(), BreakerState::Closed);
    assert_eq!(
        race_allow(&breaker),
        RACERS,
        "a closed breaker admits everyone"
    );
}
