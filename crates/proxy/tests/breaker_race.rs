//! Concurrency tests pinning the circuit breaker's half-open gate.
//!
//! The breaker's contract under contention: a cooled-down open breaker
//! admits *exactly one* probe no matter how many threads race `allow()`;
//! `release_probe` hands the slot to at most one successor; and a failed
//! probe re-opens the breaker so the cooldown restarts. These are the
//! invariants the proxy's origin path leans on — a double-admitted probe
//! would stampede a recovering origin, a lost slot would wedge the breaker
//! half-open forever.

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

/// One round over a half-open breaker whose probe is in flight: thread 0
/// releases the probe, the other `RACERS - 1` call `allow()`. The release
/// happens either before the barrier (ordered: every `allow()` comes after
/// it) or after it (racing the admitters). Returns how many were admitted.
fn release_round(breaker: &CircuitBreaker, release_before_barrier: bool) -> usize {
    let admitted = AtomicUsize::new(0);
    let barrier = Barrier::new(RACERS);
    let (admitted_ref, barrier_ref) = (&admitted, &barrier);
    std::thread::scope(|scope| {
        for i in 0..RACERS {
            scope.spawn(move || {
                if i == 0 && release_before_barrier {
                    breaker.release_probe();
                }
                barrier_ref.wait();
                if i == 0 {
                    if !release_before_barrier {
                        breaker.release_probe();
                    }
                } else if breaker.allow() {
                    admitted_ref.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
    });
    admitted.load(Ordering::SeqCst)
}

#[test]
fn release_probe_racing_allow_admits_at_most_one_successor() {
    let open_duration = Duration::from_millis(10);
    let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
        failure_threshold: 1,
        open_duration,
    }));
    // Rounds 0..40 race the release against the admitters: depending on
    // interleaving zero or one allow() lands after it — never more, the
    // slot is a single token, not a broadcast. Which of the two happens is
    // up to the scheduler, so liveness is checked separately: rounds 40..50
    // release *before* the barrier, every allow() comes after the release,
    // and exactly one of them must get the slot.
    for round in 0..50 {
        let ordered = round >= 40;
        trip_and_cool(&breaker, open_duration);
        assert!(breaker.allow(), "round {round}: the initial probe");
        assert_eq!(breaker.state(), BreakerState::HalfOpen);

        let admitted = release_round(&breaker, ordered);
        assert!(
            admitted <= 1,
            "round {round}: release_probe handed out {admitted} probe slots"
        );
        if ordered {
            assert_eq!(admitted, 1, "round {round}: the released slot was lost");
        }
        if admitted == 1 {
            // The successor holds the only slot.
            assert!(!breaker.allow());
        } else {
            // Every allow() beat the release; the freed slot is still
            // there for the next caller.
            assert!(breaker.allow(), "round {round}: released slot was lost");
        }
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        breaker.record_success();
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
