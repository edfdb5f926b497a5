//! Integration: bandwidth estimators feeding caching decisions, and the
//! policy sweep used by the experiment harness.

use rand::rngs::StdRng;
use rand::SeedableRng;
use streamcache::cache::policy::PolicyKind;
use streamcache::cache::{CacheEngine, ObjectKey, ObjectMeta};
use streamcache::netmodel::{
    BandwidthEstimator, EwmaEstimator, NlanrBandwidthModel, VariabilityModel,
};
use streamcache::sim::sweep::sweep_policies;
use streamcache::sim::SimulationConfig;

/// A passive EWMA estimator converges near the true mean bandwidth of a
/// variable path, so the PB allocation it drives converges near the
/// allocation computed from the true mean.
#[test]
fn ewma_estimator_drives_pb_towards_the_true_deficit() {
    let mut rng = StdRng::seed_from_u64(3);
    let variability = VariabilityModel::measured_path_moderate();
    let true_mean = 24_000.0;
    let mut estimator = EwmaEstimator::new(0.2);
    let object = ObjectMeta::new(ObjectKey::new(1), 600.0, 48_000.0, 0.0);
    let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();

    for _ in 0..200 {
        let observed = variability.apply(&mut rng, true_mean);
        estimator.observe(observed);
        let estimate = estimator.estimate_bps().unwrap();
        cache.on_access(&object, estimate);
    }
    let estimate = estimator.estimate_bps().unwrap();
    assert!(
        (estimate - true_mean).abs() / true_mean < 0.35,
        "EWMA estimate {estimate} should be near {true_mean}"
    );
    let cached = cache.cached_bytes(object.key);
    let ideal = object.prefix_needed(true_mean);
    // The allocation only grows when estimates dip below the mean, so it is
    // at least the ideal deficit and never more than the whole object.
    assert!(cached >= ideal * 0.9, "cached {cached} vs ideal {ideal}");
    assert!(cached <= object.size_bytes());
}

/// Per-path mean bandwidths drawn from the NLANR model produce a mix of
/// "needs caching" and "does not need caching" objects, as the paper's
/// motivation requires.
#[test]
fn nlanr_model_yields_a_mixed_population_at_48kbps() {
    let model = NlanrBandwidthModel::paper_default();
    let mut rng = StdRng::seed_from_u64(9);
    let samples = model.sample_n_bps(&mut rng, 5_000);
    let starved = samples.iter().filter(|&&b| b < 48_000.0).count() as f64 / 5_000.0;
    assert!(
        (0.25..0.50).contains(&starved),
        "fraction of starved paths {starved}"
    );
}

/// The policy sweep returns one point per requested cache size and keeps
/// the series labels stable — the experiment drivers rely on both
/// properties.
#[test]
fn sweeps_produce_complete_labelled_series() {
    let base = SimulationConfig::small();
    let fractions = [0.01, 0.05];
    let series = sweep_policies(
        &base,
        &[
            PolicyKind::IntegralFrequency,
            PolicyKind::PartialBandwidth,
            PolicyKind::HybridPartialBandwidth { e: 0.5 },
        ],
        &fractions,
        1,
    )
    .unwrap();
    assert_eq!(series.len(), 3);
    assert_eq!(series[0].label, "IF");
    assert_eq!(series[2].label, "PB(e=0.50)");
    for s in &series {
        assert_eq!(s.points.len(), fractions.len());
        for (point, fraction) in s.points.iter().zip(fractions) {
            assert_eq!(point.x, fraction);
            assert!(point.metrics.requests > 0);
        }
    }

    let single = sweep_policies(&base, &[PolicyKind::Lru], &[0.05], 1).unwrap();
    assert_eq!(single.len(), 1);
    assert_eq!(single[0].label, "LRU");
    assert_eq!(single[0].points.len(), 1);
}
