//! The execution layer's hard constraint: sharding the `(configuration,
//! seed)` grid across threads must be **byte-identical** to running it
//! sequentially. Both grids — `run_grid` and `run_session_grid`, which every
//! replicated run, paired comparison, sweep and figure goes through — are
//! checked with the sequential executor (threads = 1) against parallel ones
//! (threads = 4 and 32), comparing every float field bit-for-bit.

use std::slice::from_ref;
use streamcache::cache::policy::PolicyKind;
use streamcache::sim::exec::{run_grid, ExecConfig, ParallelExecutor};
use streamcache::sim::sweep::sweep_policies;
use streamcache::sim::{
    run_session_grid, BandwidthModel, EstimatorKind, Metrics, SessionMetrics, SimulationConfig,
    VariabilityKind,
};

fn small(policy: PolicyKind, cache_fraction: f64) -> SimulationConfig {
    SimulationConfig {
        policy,
        ..SimulationConfig::small()
    }
    .with_cache_fraction(cache_fraction)
}

fn sequential() -> ParallelExecutor {
    ParallelExecutor::sequential()
}

fn parallel() -> ParallelExecutor {
    ParallelExecutor::new(ExecConfig::with_threads(4))
}

fn threads(n: usize) -> ParallelExecutor {
    ParallelExecutor::new(ExecConfig::with_threads(n))
}

/// The `policies × fractions` grid `sweep_policies` runs, policy-major.
fn policy_grid(
    base: &SimulationConfig,
    policies: &[PolicyKind],
    fractions: &[f64],
) -> Vec<SimulationConfig> {
    policies
        .iter()
        .flat_map(|&policy| {
            fractions
                .iter()
                .map(move |&f| SimulationConfig { policy, ..*base }.with_cache_fraction(f))
        })
        .collect()
}

/// Bit-for-bit equality on every metric field (PartialEq would treat
/// -0.0 == 0.0 and is therefore weaker than what the golden tests need).
fn assert_bit_identical(a: &Metrics, b: &Metrics, what: &str) {
    assert_eq!(a.requests, b.requests, "{what}: requests");
    for (field, x, y) in [
        (
            "traffic_reduction_ratio",
            a.traffic_reduction_ratio,
            b.traffic_reduction_ratio,
        ),
        (
            "avg_service_delay_secs",
            a.avg_service_delay_secs,
            b.avg_service_delay_secs,
        ),
        (
            "avg_stream_quality",
            a.avg_stream_quality,
            b.avg_stream_quality,
        ),
        (
            "total_added_value",
            a.total_added_value,
            b.total_added_value,
        ),
        ("hit_ratio", a.hit_ratio, b.hit_ratio),
        ("immediate_ratio", a.immediate_ratio, b.immediate_ratio),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: {field} diverged between sequential and parallel ({x} vs {y})"
        );
    }
}

/// [`assert_bit_identical`] over two grids' results, configuration by
/// configuration.
fn assert_grids_bit_identical(a: &[Metrics], b: &[Metrics], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: configuration count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_bit_identical(x, y, &format!("{what} [{i}]"));
    }
}

#[test]
fn replicated_runs_are_thread_count_invariant() {
    for policy in [
        PolicyKind::PartialBandwidth,
        PolicyKind::IntegralFrequency,
        PolicyKind::HybridPartialBandwidth { e: 0.5 },
    ] {
        let config = small(policy, 0.05);
        let seq = run_grid(from_ref(&config), 4, &sequential()).unwrap();
        let par = run_grid(from_ref(&config), 4, &parallel()).unwrap();
        assert_grids_bit_identical(&seq, &par, &policy.label());
    }
}

#[test]
fn comparisons_are_thread_count_invariant_and_paired() {
    let configs = vec![
        small(PolicyKind::IntegralFrequency, 0.05),
        small(PolicyKind::PartialBandwidth, 0.05),
        small(PolicyKind::IntegralBandwidth, 0.05),
    ];
    let seq = run_grid(&configs, 2, &sequential()).unwrap();
    let par = run_grid(&configs, 2, &parallel()).unwrap();
    assert_grids_bit_identical(&seq, &par, "comparison");
    // The shared-workload path must agree with generating each replicated
    // run on its own, one configuration per grid.
    for (config, compared) in configs.iter().zip(&seq) {
        let alone = run_grid(from_ref(config), 2, &sequential()).unwrap();
        assert_grids_bit_identical(from_ref(compared), &alone, "comparison vs standalone");
    }
}

#[test]
fn policy_sweep_is_thread_count_invariant() {
    let base = SimulationConfig {
        variability: VariabilityKind::MeasuredModerate,
        ..SimulationConfig::small()
    };
    let policies = [PolicyKind::PartialBandwidth, PolicyKind::IntegralBandwidth];
    let fractions = [0.02, 0.05, 0.1];
    let grid = policy_grid(&base, &policies, &fractions);
    let seq = run_grid(&grid, 2, &sequential()).unwrap();
    let par = run_grid(&grid, 2, &parallel()).unwrap();
    assert_grids_bit_identical(&seq, &par, "policy sweep");
    // The flattened multi-policy grid must agree with per-policy grids.
    for (i, &policy) in policies.iter().enumerate() {
        let single = run_grid(&policy_grid(&base, &[policy], &fractions), 2, &sequential());
        let flattened = &seq[i * fractions.len()..(i + 1) * fractions.len()];
        assert_grids_bit_identical(flattened, &single.unwrap(), "flattened vs single sweep");
    }
    // The sweep is that sequential grid cut into one series per policy.
    let series = sweep_policies(&base, &policies, &fractions, 2).unwrap();
    assert_eq!(series.len(), policies.len());
    for ((s, policy), metrics) in series.iter().zip(policies).zip(seq.chunks(fractions.len())) {
        assert_eq!(s.label, policy.label());
        assert_eq!(s.points.len(), fractions.len());
        for ((point, x), m) in s.points.iter().zip(fractions).zip(metrics) {
            assert_eq!(point.x.to_bits(), x.to_bits());
            assert_bit_identical(&point.metrics, m, "sweep vs sequential grid");
        }
    }
}

#[test]
fn estimator_and_zipf_sweeps_are_thread_count_invariant() {
    let base = SimulationConfig::small();
    let estimators = [0.0, 0.5, 1.0].map(|e| PolicyKind::HybridPartialBandwidth { e });
    let grid = policy_grid(&base, &estimators, &[0.05]);
    let seq_e = run_grid(&grid, 2, &sequential()).unwrap();
    let par_e = run_grid(&grid, 2, &parallel()).unwrap();
    assert_grids_bit_identical(&seq_e, &par_e, "estimator sweep");

    // Each α is its own workload, so this grid generates one per (α, seed).
    let grid = [0.6, 1.2].map(|alpha| {
        let mut config = small(PolicyKind::PartialBandwidth, 0.05);
        config.workload.trace.zipf_alpha = alpha;
        config
    });
    let seq_z = run_grid(&grid, 2, &sequential()).unwrap();
    let par_z = run_grid(&grid, 2, &parallel()).unwrap();
    assert_grids_bit_identical(&seq_z, &par_z, "zipf sweep");
}

#[test]
fn ar1_mode_is_thread_count_invariant() {
    // Time-varying bandwidth pre-generates one AR(1) series per path from
    // the run seed; sharding across threads must not change a single bit,
    // for a replicated run and for a flattened policy sweep.
    let mut config = small(PolicyKind::PartialBandwidth, 0.05);
    config.variability = VariabilityKind::MeasuredModerate;
    config.bandwidth_model = BandwidthModel::Ar1;
    let seq = run_grid(from_ref(&config), 4, &sequential()).unwrap();
    for n in [4, 32] {
        let par = run_grid(from_ref(&config), 4, &threads(n)).unwrap();
        assert_grids_bit_identical(&seq, &par, &format!("ar1 replicated, {n} threads"));
    }

    let base = SimulationConfig {
        variability: VariabilityKind::NlanrLike,
        bandwidth_model: BandwidthModel::Ar1,
        ..SimulationConfig::small()
    };
    let policies = [PolicyKind::PartialBandwidth, PolicyKind::IntegralFrequency];
    let grid = policy_grid(&base, &policies, &[0.02, 0.05]);
    let seq = run_grid(&grid, 2, &sequential()).unwrap();
    let par = run_grid(&grid, 2, &parallel()).unwrap();
    assert_grids_bit_identical(&seq, &par, "ar1 sweep");
}

#[test]
fn stateful_estimators_are_thread_count_invariant() {
    // Estimator state lives inside each worker, so even history-dependent
    // estimates cannot couple runs across threads.
    for estimator in [
        EstimatorKind::Ewma,
        EstimatorKind::Windowed,
        EstimatorKind::Probe,
    ] {
        let mut config = small(PolicyKind::PartialBandwidth, 0.05);
        config.variability = VariabilityKind::MeasuredModerate;
        config.bandwidth_model = BandwidthModel::Ar1;
        config.estimator = estimator;
        let seq = run_grid(from_ref(&config), 3, &sequential()).unwrap();
        let par = run_grid(from_ref(&config), 3, &parallel()).unwrap();
        assert_grids_bit_identical(&seq, &par, estimator.label());
    }
}

/// Session-mode analogue of [`assert_bit_identical`]: every float field of
/// the time-weighted metrics, including each egress bin, bit-for-bit.
fn assert_session_bit_identical(a: &SessionMetrics, b: &SessionMetrics, what: &str) {
    assert_eq!(a.sessions, b.sessions, "{what}: sessions");
    assert_eq!(
        a.peak_concurrent_viewers, b.peak_concurrent_viewers,
        "{what}: peak viewers"
    );
    for (field, x, y) in [
        ("viewer_seconds", a.viewer_seconds, b.viewer_seconds),
        (
            "avg_concurrent_viewers",
            a.avg_concurrent_viewers,
            b.avg_concurrent_viewers,
        ),
        (
            "rebuffer_probability",
            a.rebuffer_probability,
            b.rebuffer_probability,
        ),
        (
            "avg_rebuffer_secs",
            a.avg_rebuffer_secs,
            b.avg_rebuffer_secs,
        ),
        (
            "traffic_reduction_ratio",
            a.traffic_reduction_ratio,
            b.traffic_reduction_ratio,
        ),
        (
            "origin_bytes_total",
            a.origin_bytes_total,
            b.origin_bytes_total,
        ),
        ("horizon_secs", a.horizon_secs, b.horizon_secs),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: {field} diverged between sequential and parallel ({x} vs {y})"
        );
    }
    assert_eq!(
        a.egress_bins_bytes.len(),
        b.egress_bins_bytes.len(),
        "{what}: egress bin count"
    );
    for (i, (x, y)) in a
        .egress_bins_bytes
        .iter()
        .zip(&b.egress_bins_bytes)
        .enumerate()
    {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: egress bin {i} diverged ({x} vs {y})"
        );
    }
}

/// [`assert_session_bit_identical`] over two session grids' results,
/// configuration by configuration.
fn assert_session_grids_bit_identical(a: &[SessionMetrics], b: &[SessionMetrics], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: configuration count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_session_bit_identical(x, y, &format!("{what} [{i}]"));
    }
}

#[test]
fn session_mode_is_thread_count_invariant() {
    // The session event core rides the same grid engine as the per-request
    // mode; its time-weighted metrics must be byte-identical at any thread
    // count, for IID and AR(1) bandwidth alike.
    let mut config = small(PolicyKind::PartialBandwidth, 0.05);
    config.variability = VariabilityKind::MeasuredModerate;
    let seq = run_session_grid(from_ref(&config), 3, &sequential()).unwrap();
    for n in [4, 32] {
        let par = run_session_grid(from_ref(&config), 3, &threads(n)).unwrap();
        let what = format!("session replicated, {n} threads");
        assert_session_grids_bit_identical(&seq, &par, &what);
    }

    let mut ar1 = small(PolicyKind::IntegralBandwidth, 0.05);
    ar1.variability = VariabilityKind::NlanrLike;
    ar1.bandwidth_model = BandwidthModel::Ar1;
    let seq = run_session_grid(from_ref(&ar1), 2, &sequential()).unwrap();
    let par = run_session_grid(from_ref(&ar1), 2, &parallel()).unwrap();
    assert_session_grids_bit_identical(&seq, &par, "session ar1 replicated");
}

#[test]
fn session_comparisons_are_thread_count_invariant_and_paired() {
    let configs = vec![
        small(PolicyKind::PartialBandwidth, 0.05),
        small(PolicyKind::IntegralBandwidth, 0.05),
        small(PolicyKind::Lru, 0.05),
    ];
    let seq = run_session_grid(&configs, 2, &sequential()).unwrap();
    let par = run_session_grid(&configs, 2, &parallel()).unwrap();
    assert_session_grids_bit_identical(&seq, &par, "session comparison");
    // Paired workloads: the comparison must agree bit-for-bit with running
    // each configuration's replications on their own.
    for (config, compared) in configs.iter().zip(&seq) {
        let alone = run_session_grid(from_ref(config), 2, &sequential()).unwrap();
        let what = "session comparison vs standalone";
        assert_session_grids_bit_identical(from_ref(compared), &alone, what);
    }
}

#[test]
fn oversubscribed_executor_is_still_deterministic() {
    // More threads than work items, and a thread count far above the
    // machine's parallelism, must not change a single bit.
    let config = small(PolicyKind::PartialBandwidth, 0.05);
    let seq = run_grid(from_ref(&config), 2, &sequential()).unwrap();
    let over = run_grid(from_ref(&config), 2, &threads(32)).unwrap();
    assert_grids_bit_identical(&seq, &over, "oversubscribed");
}
