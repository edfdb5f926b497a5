//! Figures 5–9: delay/quality-oriented policy comparisons.

use crate::config::{BandwidthModel, SimError, SimulationConfig, VariabilityKind};
use crate::exec::{run_grid, ParallelExecutor};
use crate::experiments::ExperimentScale;
use crate::report::{assemble_series, FigureResult};
use crate::sweep::{estimator_grid, sweep_policies, zipf_alpha_config};
use sc_cache::policy::PolicyKind;

/// The IF / PB / IB comparison over a range of cache sizes, under the given
/// bandwidth-variability model. This is the common engine behind Figures 5,
/// 7 and 8 of the paper.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn policy_comparison_figure(
    id: &str,
    title: &str,
    variability: VariabilityKind,
    scale: ExperimentScale,
) -> Result<FigureResult, SimError> {
    policy_comparison_figure_with_model(id, title, variability, BandwidthModel::Iid, scale)
}

/// [`policy_comparison_figure`] under an explicit [`BandwidthModel`] —
/// running a figure in [`BandwidthModel::Ar1`] mode replaces the i.i.d.
/// per-request ratios by a mean-reverting evolution of every path, which is
/// the more faithful reading of the paper's Figure 4 measurements.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn policy_comparison_figure_with_model(
    id: &str,
    title: &str,
    variability: VariabilityKind,
    bandwidth_model: BandwidthModel,
    scale: ExperimentScale,
) -> Result<FigureResult, SimError> {
    let base = SimulationConfig {
        variability,
        bandwidth_model,
        ..scale.base_config()
    };
    let policies = [
        PolicyKind::IntegralFrequency,
        PolicyKind::PartialBandwidth,
        PolicyKind::IntegralBandwidth,
    ];
    let series = sweep_policies(&base, &policies, &scale.cache_fractions(), scale.runs())?;
    let mut fig = FigureResult::new(id, title, "cache fraction");
    fig.series = series;
    Ok(fig)
}

/// Figure 5: IF vs PB vs IB under **constant** bandwidth — traffic-reduction
/// ratio, average service delay and average stream quality versus cache
/// size.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig5(scale: ExperimentScale) -> Result<FigureResult, SimError> {
    policy_comparison_figure(
        "fig5",
        "IF vs PB vs IB under constant bandwidth",
        VariabilityKind::Constant,
        scale,
    )
}

/// Figure 7: the same comparison under **high** (NLANR-log-like) bandwidth
/// variability.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig7(scale: ExperimentScale) -> Result<FigureResult, SimError> {
    fig7_with(scale, BandwidthModel::Iid)
}

/// [`fig7`] under an explicit [`BandwidthModel`]. In AR(1) mode the figure
/// id becomes `fig7_ar1`, so both variants can be emitted side by side.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig7_with(scale: ExperimentScale, model: BandwidthModel) -> Result<FigureResult, SimError> {
    let (id, title) = match model {
        BandwidthModel::Iid => (
            "fig7",
            "IF vs PB vs IB under high (NLANR-like) bandwidth variability",
        ),
        BandwidthModel::Ar1 { .. } => (
            "fig7_ar1",
            "IF vs PB vs IB under high (NLANR-like) AR(1) bandwidth evolution",
        ),
    };
    policy_comparison_figure_with_model(id, title, VariabilityKind::NlanrLike, model, scale)
}

/// Figure 8: the same comparison under **low** (measured-path) bandwidth
/// variability.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig8(scale: ExperimentScale) -> Result<FigureResult, SimError> {
    fig8_with(scale, BandwidthModel::Iid)
}

/// [`fig8`] under an explicit [`BandwidthModel`]. In AR(1) mode the figure
/// id becomes `fig8_ar1`, so both variants can be emitted side by side.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig8_with(scale: ExperimentScale, model: BandwidthModel) -> Result<FigureResult, SimError> {
    let (id, title) = match model {
        BandwidthModel::Iid => (
            "fig8",
            "IF vs PB vs IB under measured-path bandwidth variability",
        ),
        BandwidthModel::Ar1 { .. } => (
            "fig8_ar1",
            "IF vs PB vs IB under measured-path AR(1) bandwidth evolution",
        ),
    };
    policy_comparison_figure_with_model(id, title, VariabilityKind::MeasuredModerate, model, scale)
}

/// Figure 6: effect of the Zipf-like popularity skew α on PB and IB, over a
/// grid of (α, cache size) points. Each series is labelled
/// `"<policy> C=<fraction>"` with α on the x-axis.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig6(scale: ExperimentScale) -> Result<FigureResult, SimError> {
    let base = scale.base_config();
    let alphas: Vec<f64> = match scale {
        ExperimentScale::Paper => vec![0.6, 0.73, 0.9, 1.05, 1.2],
        ExperimentScale::Quick => vec![0.6, 0.9, 1.2],
        ExperimentScale::Test => vec![0.6, 1.2],
    };
    let fractions = scale.cache_fractions();

    // One flattened (policy, cache size, α) grid: each α's workload is
    // generated once per seed and shared by every series that needs it.
    let mut configs = Vec::with_capacity(2 * fractions.len() * alphas.len());
    let mut labels = Vec::with_capacity(2 * fractions.len());
    for policy in [PolicyKind::PartialBandwidth, PolicyKind::IntegralBandwidth] {
        for &fraction in &fractions {
            labels.push(format!("{} C={:.3}", policy.label(), fraction));
            for &alpha in &alphas {
                configs.push(zipf_alpha_config(&base, policy, fraction, alpha));
            }
        }
    }
    let metrics = run_grid(&configs, scale.runs(), &ParallelExecutor::from_env())?;

    let mut fig = FigureResult::new(
        "fig6",
        "Effect of Zipf popularity skew (alpha) on PB and IB",
        "zipf alpha",
    );
    fig.series = assemble_series(labels, &alphas, metrics);
    Ok(fig)
}

/// Figure 9: the estimator sweep — partial caching based on a conservative
/// bandwidth estimate `e ∈ (0, 1]`, spanning the spectrum from IB-like
/// (`e → 0`) to PB (`e = 1`), under variable bandwidth. One series per
/// cache size, `e` on the x-axis.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig9(scale: ExperimentScale) -> Result<FigureResult, SimError> {
    let base = SimulationConfig {
        variability: VariabilityKind::NlanrLike,
        ..scale.base_config()
    };
    let estimators: Vec<f64> = match scale {
        ExperimentScale::Paper => vec![0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        ExperimentScale::Quick => vec![0.0, 0.5, 1.0],
        ExperimentScale::Test => vec![0.0, 1.0],
    };
    let fractions = scale.cache_fractions();

    // One flattened (cache size, e) grid over one shared set of workloads.
    let configs = estimator_grid(&base, &fractions, &estimators, false);
    let metrics = run_grid(&configs, scale.runs(), &ParallelExecutor::from_env())?;

    let mut fig = FigureResult::new(
        "fig9",
        "Partial caching with conservative bandwidth estimation (PB(e))",
        "estimator e",
    );
    let labels = fractions.iter().map(|f| format!("PB(e) C={f:.3}"));
    fig.series = assemble_series(labels, &estimators, metrics);
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shapes_match_the_paper() {
        let fig = fig5(ExperimentScale::Test).unwrap();
        assert_eq!(fig.series.len(), 3);
        let if_series = fig.series("IF").unwrap();
        let pb_series = fig.series("PB").unwrap();
        let ib_series = fig.series("IB").unwrap();
        for i in 0..if_series.points.len() {
            let if_m = if_series.points[i].metrics;
            let pb_m = pb_series.points[i].metrics;
            let ib_m = ib_series.points[i].metrics;
            // Paper Figure 5: IF achieves the highest traffic reduction, PB
            // the lowest; PB achieves the lowest delay and highest quality.
            assert!(
                if_m.traffic_reduction_ratio >= pb_m.traffic_reduction_ratio - 0.03,
                "IF traffic {} vs PB {}",
                if_m.traffic_reduction_ratio,
                pb_m.traffic_reduction_ratio
            );
            assert!(
                pb_m.avg_service_delay_secs <= if_m.avg_service_delay_secs + 1.0,
                "PB delay {} vs IF {}",
                pb_m.avg_service_delay_secs,
                if_m.avg_service_delay_secs
            );
            assert!(
                pb_m.avg_service_delay_secs <= ib_m.avg_service_delay_secs + 1.0,
                "PB delay {} vs IB {}",
                pb_m.avg_service_delay_secs,
                ib_m.avg_service_delay_secs
            );
            assert!(pb_m.avg_stream_quality + 0.02 >= if_m.avg_stream_quality);
        }
    }

    #[test]
    fn fig7_and_fig8_run_in_ar1_mode_with_distinct_ids() {
        let ar1 = BandwidthModel::ar1_default();
        let f7 = fig7_with(ExperimentScale::Test, ar1).unwrap();
        assert_eq!(f7.id, "fig7_ar1");
        assert_eq!(f7.series.len(), 3);
        let f8 = fig8_with(ExperimentScale::Test, ar1).unwrap();
        assert_eq!(f8.id, "fig8_ar1");
        // AR(1) evolution must actually change the numbers relative to the
        // i.i.d. run of the same figure (same seeds, same workload).
        let f8_iid = fig8(ExperimentScale::Test).unwrap();
        assert_eq!(f8_iid.id, "fig8");
        assert_ne!(
            f8.series("PB").unwrap().points[0].metrics,
            f8_iid.series("PB").unwrap().points[0].metrics,
            "AR(1) mode did not alter the simulation"
        );
    }

    #[test]
    fn fig9_e_zero_reduces_more_traffic_than_e_one() {
        let fig = fig9(ExperimentScale::Test).unwrap();
        for series in &fig.series {
            let first = series.points.first().unwrap();
            let last = series.points.last().unwrap();
            assert_eq!(first.x, 0.0);
            assert_eq!(last.x, 1.0);
            assert!(
                first.metrics.traffic_reduction_ratio
                    >= last.metrics.traffic_reduction_ratio - 0.03
            );
        }
    }
}
