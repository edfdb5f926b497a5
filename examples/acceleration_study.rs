//! Acceleration study: how much cache is needed to hide startup delays for
//! a bandwidth-starved catalog, and how the conservative estimator `e`
//! trades traffic reduction against delay (a reduced-scale Figure 9).
//!
//! Run with:
//!
//! ```text
//! cargo run --example acceleration_study --release
//! ```

use streamcache::cache::policy::PolicyKind;
use streamcache::sim::sweep::sweep_policies;
use streamcache::sim::{SimulationConfig, VariabilityKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = SimulationConfig {
        variability: VariabilityKind::MeasuredModerate,
        ..SimulationConfig::small()
    };

    println!("-- cache size sweep (PB policy, measured-path variability) --");
    println!(
        "{:>10} {:>10} {:>12} {:>10}",
        "cache", "traffic", "delay(s)", "quality"
    );
    let fractions = [0.005, 0.01, 0.02, 0.05, 0.1, 0.169];
    let series = sweep_policies(&base, &[PolicyKind::PartialBandwidth], &fractions, 2)?;
    for point in &series[0].points {
        println!(
            "{:>10.3} {:>10.4} {:>12.1} {:>10.4}",
            point.x,
            point.metrics.traffic_reduction_ratio,
            point.metrics.avg_service_delay_secs,
            point.metrics.avg_stream_quality
        );
    }

    println!();
    println!("-- estimator sweep at a 5% cache (PB(e), NLANR-like variability) --");
    println!(
        "{:>10} {:>10} {:>12} {:>10}",
        "e", "traffic", "delay(s)", "quality"
    );
    let nlanr = SimulationConfig {
        variability: VariabilityKind::NlanrLike,
        ..SimulationConfig::small()
    };
    // One PB(e) policy per estimator value, all at the same cache size.
    let estimators = [0.0, 0.25, 0.5, 0.75, 1.0];
    let policies = estimators.map(|e| PolicyKind::HybridPartialBandwidth { e });
    for (e, series) in estimators
        .iter()
        .zip(sweep_policies(&nlanr, &policies, &[0.05], 2)?)
    {
        let metrics = series.points[0].metrics;
        println!(
            "{:>10.2} {:>10.4} {:>12.1} {:>10.4}",
            e,
            metrics.traffic_reduction_ratio,
            metrics.avg_service_delay_secs,
            metrics.avg_stream_quality
        );
    }
    println!();
    println!("Lower e caches bigger prefixes: more robust to variability (and more");
    println!("traffic reduction), at the cost of fitting fewer objects in the cache.");
    Ok(())
}
