//! Regression tests for the time-varying (AR(1)) bandwidth mode.
//!
//! Three contracts:
//!
//! * enabling AR(1) mode must not perturb i.i.d. runs — a configuration
//!   that spells out the defaults (`BandwidthModel::Iid`,
//!   `EstimatorKind::Oracle`) is byte-identical to the seed behaviour the
//!   golden metrics pin;
//! * AR(1) runs are seeded-deterministic and actually different from their
//!   i.i.d. counterparts;
//! * every bandwidth a request observes in AR(1) mode is a sample of the
//!   path's series, at or above the series floor.

use rand::rngs::StdRng;
use rand::SeedableRng;
use streamcache::cache::policy::PolicyKind;
use streamcache::netmodel::SAMPLE_INTERVAL_SECS;
use streamcache::sim::{
    run_simulation, BandwidthModel, BandwidthProvider, EstimatorKind, SimulationConfig,
    VariabilityKind,
};

fn small(policy: PolicyKind, cache_fraction: f64) -> SimulationConfig {
    SimulationConfig {
        policy,
        ..SimulationConfig::small()
    }
    .with_cache_fraction(cache_fraction)
}

fn ar1_config() -> SimulationConfig {
    SimulationConfig {
        variability: VariabilityKind::MeasuredModerate,
        bandwidth_model: BandwidthModel::Ar1,
        ..small(PolicyKind::PartialBandwidth, 0.05)
    }
}

/// Spelling out the i.i.d. defaults is a no-op: the golden metrics of
/// `determinism_and_golden.rs` are reproduced bit-for-bit, so the new
/// plumbing cannot have touched the seed behaviour.
#[test]
fn explicit_iid_oracle_matches_default_run_bit_for_bit() {
    let default_run = run_simulation(&small(PolicyKind::PartialBandwidth, 0.05))
        .unwrap()
        .metrics;
    let mut explicit = small(PolicyKind::PartialBandwidth, 0.05);
    explicit.bandwidth_model = BandwidthModel::Iid;
    explicit.estimator = EstimatorKind::Oracle;
    let explicit_run = run_simulation(&explicit).unwrap().metrics;
    assert_eq!(default_run, explicit_run);
    assert_eq!(
        default_run.avg_service_delay_secs.to_bits(),
        explicit_run.avg_service_delay_secs.to_bits()
    );
    assert_eq!(
        default_run.traffic_reduction_ratio.to_bits(),
        explicit_run.traffic_reduction_ratio.to_bits()
    );
}

/// AR(1) runs are reproducible under a fixed seed, sensitive to the seed,
/// and genuinely different from the i.i.d. run of the same configuration.
#[test]
fn ar1_mode_is_seeded_deterministic_and_distinct_from_iid() {
    let config = ar1_config();
    let a = run_simulation(&config).unwrap().metrics;
    let b = run_simulation(&config).unwrap().metrics;
    assert_eq!(a, b, "same-seed AR(1) runs diverged");

    let mut reseeded = config;
    reseeded.seed += 1;
    let c = run_simulation(&reseeded).unwrap().metrics;
    assert_ne!(a, c, "changing the seed did not change the AR(1) metrics");

    let mut iid = config;
    iid.bandwidth_model = BandwidthModel::Iid;
    let d = run_simulation(&iid).unwrap().metrics;
    assert_ne!(a, d, "AR(1) mode produced the i.i.d. result");
}

/// Every estimator kind runs under drift, deterministically, and stale
/// estimators actually change the cache's decisions relative to the oracle.
#[test]
fn estimators_run_deterministically_under_drift() {
    let oracle = run_simulation(&ar1_config()).unwrap().metrics;
    let mut any_divergence = false;
    for estimator in [
        EstimatorKind::Ewma,
        EstimatorKind::Windowed,
        EstimatorKind::Probe,
    ] {
        let mut config = ar1_config();
        config.estimator = estimator;
        let a = run_simulation(&config).unwrap().metrics;
        let b = run_simulation(&config).unwrap().metrics;
        assert_eq!(a, b, "{}: same-seed runs diverged", estimator.label());
        if a != oracle {
            any_divergence = true;
        }
    }
    assert!(
        any_divergence,
        "no estimator ever changed a decision vs the oracle"
    );
}

/// Seeded-loop property test: in AR(1) mode, every bandwidth the provider
/// hands to a request is a sample of the path's series, which spans the
/// whole horizon and never drops below a thousandth of the path mean — a
/// floor the high-variability NLANR-like paths reach.
#[test]
fn ar1_request_bandwidth_stays_within_series_bounds() {
    let mut floored = 0;
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = 200_000.0;
        let provider = BandwidthProvider::generate_with_model(
            40,
            VariabilityKind::NlanrLike,
            BandwidthModel::Ar1,
            horizon,
            &mut rng,
        );
        for index in 0..40 {
            let floor = provider.estimated_bps(index) * 1e-3;
            let series = provider.series(index).unwrap();
            assert!(series.len() as f64 * SAMPLE_INTERVAL_SECS >= horizon);
            for step in 0..=2_000 {
                let t = horizon * step as f64 / 2_000.0;
                let bw = provider.request_bps(index, t, &mut rng);
                assert!(
                    bw >= floor && series.samples_bps().contains(&bw),
                    "seed {seed} path {index} t={t}: {bw} below {floor} or off the series"
                );
                if bw == floor {
                    floored += 1;
                }
            }
        }
    }
    assert!(floored > 0, "no request ever met the floor");
}
