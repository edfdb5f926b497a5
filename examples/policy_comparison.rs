//! Policy comparison: IF vs PB vs IB on a synthetic workload, under constant
//! and variable bandwidth (a reduced-scale version of Figures 5, 7 and 8).
//!
//! Run with:
//!
//! ```text
//! cargo run --example policy_comparison --release
//! ```

use streamcache::cache::policy::PolicyKind;
use streamcache::sim::sweep::sweep_policies;
use streamcache::sim::{SimulationConfig, VariabilityKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let policies = [
        PolicyKind::IntegralFrequency,
        PolicyKind::PartialBandwidth,
        PolicyKind::IntegralBandwidth,
    ];
    for variability in [VariabilityKind::Constant, VariabilityKind::NlanrLike] {
        println!("== bandwidth model: {} ==", variability.label());
        println!(
            "{:<6} {:>10} {:>12} {:>10} {:>10}",
            "policy", "traffic", "delay(s)", "quality", "hit-ratio"
        );
        let base = SimulationConfig {
            variability,
            ..SimulationConfig::small()
        };
        // One paired grid: every policy replays the same workloads.
        for series in sweep_policies(&base, &policies, &[0.05], 2)? {
            let metrics = series.points[0].metrics;
            println!(
                "{:<6} {:>10.4} {:>12.1} {:>10.4} {:>10.4}",
                series.label,
                metrics.traffic_reduction_ratio,
                metrics.avg_service_delay_secs,
                metrics.avg_stream_quality,
                metrics.hit_ratio
            );
        }
        println!();
    }
    println!("Expected shape (paper Figures 5 and 7):");
    println!(" * constant bandwidth — PB has the lowest delay and highest quality,");
    println!("   IF the highest traffic reduction;");
    println!(" * high variability  — PB loses its delay advantage to IB.");
    Ok(())
}
