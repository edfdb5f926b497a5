//! Figures 10–12: value-maximising caching (Section 2.6 / Section 4.4).

use crate::config::{BandwidthModel, SimError, SimulationConfig, VariabilityKind};
use crate::exec::{run_grid, ParallelExecutor};
use crate::experiments::figures::policy_comparison_figure;
use crate::experiments::ExperimentScale;
use crate::report::{assemble_series, FigureResult};
use crate::sweep::estimator_grid;
use sc_cache::policy::PolicyKind;

/// The policies of the value comparisons, Figures 10 and 11; the metrics
/// of interest are the traffic-reduction ratio and the total added value.
const VALUE_POLICIES: [PolicyKind; 3] = [
    PolicyKind::IntegralFrequency,
    PolicyKind::PartialBandwidthValue { e: 1.0 },
    PolicyKind::IntegralBandwidthValue,
];

/// Figure 10: IF vs PB-V vs IB-V under constant bandwidth.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig10(scale: ExperimentScale) -> Result<FigureResult, SimError> {
    policy_comparison_figure(
        "fig10",
        "Value-based caching (IF vs PB-V vs IB-V) under constant bandwidth",
        &VALUE_POLICIES,
        VariabilityKind::Constant,
        BandwidthModel::Iid,
        scale,
    )
}

/// Figure 11: IF vs PB-V vs IB-V under measured-path bandwidth variability.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig11(scale: ExperimentScale) -> Result<FigureResult, SimError> {
    policy_comparison_figure(
        "fig11",
        "Value-based caching (IF vs PB-V vs IB-V) under measured-path variability",
        &VALUE_POLICIES,
        VariabilityKind::MeasuredModerate,
        BandwidthModel::Iid,
        scale,
    )
}

/// Figure 12: the conservative-estimator sweep for value-based partial
/// caching (PB-V(e)) under measured-path variability. One series per cache
/// size, `e` on the x-axis; the paper finds that a moderate `e ≈ 0.5`
/// maximises the total added value.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig12(scale: ExperimentScale) -> Result<FigureResult, SimError> {
    let base = SimulationConfig {
        variability: VariabilityKind::MeasuredModerate,
        ..scale.base_config()
    };
    let estimators: Vec<f64> = match scale {
        ExperimentScale::Paper => vec![0.2, 0.4, 0.5, 0.6, 0.8, 1.0],
        ExperimentScale::Quick => vec![0.2, 0.5, 1.0],
        ExperimentScale::Test => vec![0.5, 1.0],
    };
    let fractions = scale.cache_fractions();

    // One flattened (cache size, e) grid over one shared set of workloads.
    let configs = estimator_grid(&base, &fractions, &estimators, true);
    let metrics = run_grid(&configs, scale.runs(), &ParallelExecutor::from_env())?;

    let mut fig = FigureResult::new(
        "fig12",
        "Value-based partial caching with conservative bandwidth estimation (PB-V(e))",
        "estimator e",
    );
    let labels = fractions.iter().map(|f| format!("PB-V(e) C={f:.3}"));
    fig.series = assemble_series(labels, &estimators, metrics);
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_value_ordering_matches_paper() {
        let fig = fig10(ExperimentScale::Test).unwrap();
        assert_eq!(fig.series.len(), 3);
        let if_series = fig.series("IF").unwrap();
        let pbv_series = fig.series("PB-V").unwrap();
        let ibv_series = fig.series("IB-V").unwrap();
        for i in 0..if_series.points.len() {
            let if_m = if_series.points[i].metrics;
            let pbv_m = pbv_series.points[i].metrics;
            let ibv_m = ibv_series.points[i].metrics;
            // Paper Figure 10: PB-V yields the highest total added value,
            // IF the highest traffic reduction; IB-V sits in between on
            // value.
            assert!(
                pbv_m.total_added_value + 1e-9 >= if_m.total_added_value,
                "PB-V value {} vs IF value {}",
                pbv_m.total_added_value,
                if_m.total_added_value
            );
            assert!(
                if_m.traffic_reduction_ratio >= pbv_m.traffic_reduction_ratio - 0.03,
                "IF traffic {} vs PB-V {}",
                if_m.traffic_reduction_ratio,
                pbv_m.traffic_reduction_ratio
            );
            assert!(pbv_m.total_added_value + 1e-9 >= ibv_m.total_added_value * 0.8);
        }
    }

    #[test]
    fn fig12_has_one_series_per_cache_size() {
        let fig = fig12(ExperimentScale::Test).unwrap();
        assert_eq!(
            fig.series.len(),
            ExperimentScale::Test.cache_fractions().len()
        );
        for series in &fig.series {
            assert_eq!(series.points.len(), 2);
            for p in &series.points {
                assert!(p.metrics.total_added_value >= 0.0);
            }
        }
    }
}
