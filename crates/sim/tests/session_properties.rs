//! Conservation properties of the session event core.
//!
//! Where `session_reference.rs` checks the core against an independent
//! implementation, these tests check it against *invariants* that hold for
//! any fluid processor-sharing system, on randomized scenarios and on the
//! full workload-driven session mode:
//!
//! * the concurrent-viewer curve integrates to the sum of session
//!   durations (every viewer is present for exactly its playback window);
//! * the rebuffer probability is a probability, and is exactly zero when
//!   every path's capacity covers its aggregate encoding rate;
//! * the origin egress curve sums to the total origin bytes (no traffic
//!   is lost or double-counted by the binning);
//! * the event heap never holds more than one entry per path: a path's one
//!   pending completion (arrivals, outage edges and playback ends are
//!   walked from sorted arrays).

use sc_sim::experiments::ExperimentScale;
use sc_sim::session::{simulate_sessions, NoCacheHooks, SessionSimOutput, SessionSpec};
use sc_sim::{run_sessions, SimulationConfig};

struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn random_specs(seed: u64, n_paths: usize) -> Vec<SessionSpec> {
    let mut rng = Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(seed | 1));
    let n_sessions = 15 + rng.below(40) as usize;
    let mut specs: Vec<SessionSpec> = (0..n_sessions)
        .map(|_| {
            let duration = 20.0 + rng.below(10) as f64 * 10.0;
            let rate = 16_000.0 * (1 + rng.below(4)) as f64;
            SessionSpec {
                path: rng.below(n_paths as u64) as u32,
                arrival_secs: rng.below(200) as f64 * 0.5,
                duration_secs: duration,
                rate_bps: rate,
                size_bytes: duration * rate,
            }
        })
        .collect();
    specs.sort_by(|a, b| a.arrival_secs.total_cmp(&b.arrival_secs));
    specs
}

fn assert_one_heap_entry_per_path_at_most(out: &SessionSimOutput, n_paths: usize, seed: u64) {
    assert!(
        out.telemetry.peak_heap_len <= n_paths as u64,
        "seed {seed}: peak heap {} over {n_paths} paths",
        out.telemetry.peak_heap_len
    );
}

fn assert_close(actual: f64, expected: f64, what: &str) {
    let scale = expected.abs().max(1.0);
    assert!(
        (actual - expected).abs() <= 1e-9 * scale,
        "{what}: got {actual}, expected {expected}"
    );
}

#[test]
fn viewer_curve_integrates_to_sum_of_session_durations() {
    for seed in 0..12 {
        let specs = random_specs(seed, 3);
        let out = simulate_sessions(
            &specs,
            3,
            |p, _| 20_000.0 * (p + 1) as f64,
            &mut NoCacheHooks,
            10,
        );
        assert_one_heap_entry_per_path_at_most(&out, 3, seed);
        let total_duration: f64 = specs.iter().map(|s| s.duration_secs).sum();
        assert_close(
            out.metrics.viewer_seconds,
            total_duration,
            &format!("viewer-seconds integral, seed {seed}"),
        );
        assert_close(
            out.metrics.avg_concurrent_viewers,
            total_duration / out.metrics.horizon_secs,
            &format!("average viewers, seed {seed}"),
        );
        assert!(out.metrics.peak_concurrent_viewers as usize <= specs.len());
    }
}

#[test]
fn rebuffer_probability_is_a_probability_and_zero_under_ample_capacity() {
    for seed in 0..12 {
        let specs = random_specs(seed, 2);
        // Scarce capacity: the probability must still be a probability.
        let scarce = simulate_sessions(&specs, 2, |_, _| 9_000.0, &mut NoCacheHooks, 10);
        assert_one_heap_entry_per_path_at_most(&scarce, 2, seed);
        assert!(
            (0.0..=1.0).contains(&scarce.metrics.rebuffer_probability),
            "seed {seed}: {}",
            scarce.metrics.rebuffer_probability
        );

        // Ample capacity: each path can serve every one of its sessions at
        // the path's highest encoding rate simultaneously, so every share
        // stays at or above every member's rate and no deficit can ever
        // open up. (Capacity equal to the *sum* of rates is not enough
        // with heterogeneous rates: an equal share can still starve the
        // highest-rate session.)
        let ample_cap: [f64; 2] = [0, 1].map(|p| {
            let on_path: Vec<_> = specs.iter().filter(|s| s.path == p as u32).collect();
            let max_rate = on_path.iter().map(|s| s.rate_bps).fold(0.0, f64::max);
            (on_path.len() as f64 * max_rate).max(1.0)
        });
        let ample = simulate_sessions(&specs, 2, |p, _| ample_cap[p], &mut NoCacheHooks, 10);
        assert_one_heap_entry_per_path_at_most(&ample, 2, seed);
        let max_rebuf = ample
            .finals
            .iter()
            .map(|f| f.rebuffer_secs)
            .fold(0.0, f64::max);
        assert_eq!(
            ample.metrics.rebuffer_probability, 0.0,
            "seed {seed}: rebuffering despite ample capacity (max {max_rebuf:e} s)"
        );
        // Raw per-session stall time may carry float-accumulation dust
        // (compare `rate · Δt` against a sum of `share · dt` segments) —
        // that dust must stay below the epsilon the probability uses.
        assert!(max_rebuf <= sc_sim::session::REBUFFER_EPSILON_SECS);
        assert!(ample.metrics.avg_rebuffer_secs <= sc_sim::session::REBUFFER_EPSILON_SECS);
    }
}

#[test]
fn egress_curve_sums_to_total_origin_bytes() {
    for seed in 0..12u64 {
        let specs = random_specs(seed + 100, 3);
        let out = simulate_sessions(&specs, 3, |_, _| 30_000.0, &mut NoCacheHooks, 7);
        assert_one_heap_entry_per_path_at_most(&out, 3, seed);
        let binned: f64 = out.metrics.egress_bins_bytes.iter().sum();
        assert_close(
            binned,
            out.metrics.origin_bytes_total,
            &format!("egress bins, seed {seed}"),
        );
        // With no cache every origin byte is a session byte.
        let total_size: f64 = specs.iter().map(|s| s.size_bytes).sum();
        assert_close(out.metrics.origin_bytes_total, total_size, "origin bytes");
        assert_eq!(out.metrics.traffic_reduction_ratio, 0.0);
    }
}

#[test]
fn workload_driven_session_mode_upholds_the_same_invariants() {
    // The full pipeline — workload generation, cache, estimators, AR(1)
    // bandwidth — must preserve the conservation properties too.
    let config = SimulationConfig {
        seed: 7,
        ..ExperimentScale::Test.base_config().with_cache_fraction(0.1)
    };
    let metrics = run_sessions(&config).unwrap().metrics;

    assert!(metrics.sessions > 0);
    assert!((0.0..=1.0).contains(&metrics.rebuffer_probability));
    assert!((0.0..=1.0).contains(&metrics.traffic_reduction_ratio));
    assert!(metrics.avg_rebuffer_secs >= 0.0);
    assert!(metrics.peak_concurrent_viewers >= 1);
    assert!(metrics.avg_concurrent_viewers > 0.0);

    let binned: f64 = metrics.egress_bins_bytes.iter().sum();
    assert_close(binned, metrics.origin_bytes_total, "egress bins");

    // viewer_seconds == Σ durations also holds here, but durations live
    // inside the generated workload; check the derived identity instead.
    assert_close(
        metrics.avg_concurrent_viewers,
        metrics.viewer_seconds / metrics.horizon_secs,
        "viewer identity",
    );
}
