//! Figure 13 (beyond the paper): bandwidth-estimator staleness under
//! time-varying bandwidth.
//!
//! The paper's evaluation gives the caching algorithm an oracle — the true
//! long-run mean bandwidth of every path. Once path bandwidth *drifts*
//! ([`BandwidthModel::Ar1`]), a real proxy has to estimate it (Section 2.7):
//! passively from the throughput of past transfers (EWMA, sliding window)
//! or actively by probing. This experiment compares those estimators under
//! identical drifting-bandwidth workloads: one series per
//! [`EstimatorKind`], cache fraction on the x-axis, everything else held at
//! the Figure 8 configuration (PB policy, measured-path variability).

use crate::config::{BandwidthModel, SimError, SimulationConfig, VariabilityKind};
use crate::exec::{run_grid, ParallelExecutor};
use crate::experiments::ExperimentScale;
use crate::report::{assemble_series, FigureResult};
use crate::EstimatorKind;
use sc_cache::policy::PolicyKind;

/// The estimator kinds compared by [`fig13`], in series order.
pub const FIG13_ESTIMATORS: [EstimatorKind; 4] = [
    EstimatorKind::Oracle,
    EstimatorKind::Ewma,
    EstimatorKind::Windowed,
    EstimatorKind::Probe,
];

/// Figure 13: PB under bandwidth drift, driven by each of the paper's
/// estimator families. The `figures` driver runs it with
/// [`BandwidthModel::Ar1`]; a [`BandwidthModel::Iid`] run is the
/// no-drift control (estimators then only add sampling noise) and is
/// emitted under the id `fig13_iid`.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig13(scale: ExperimentScale, model: BandwidthModel) -> Result<FigureResult, SimError> {
    let base = SimulationConfig {
        policy: PolicyKind::PartialBandwidth,
        variability: VariabilityKind::MeasuredModerate,
        bandwidth_model: model,
        ..scale.base_config()
    };
    let fractions = scale.cache_fractions();

    // One flattened (estimator, cache fraction) grid so every point of the
    // figure shards across threads at once; run_grid merges in
    // deterministic grid order.
    let mut configs = Vec::with_capacity(FIG13_ESTIMATORS.len() * fractions.len());
    for &estimator in &FIG13_ESTIMATORS {
        for &fraction in &fractions {
            configs.push(SimulationConfig { estimator, ..base }.with_cache_fraction(fraction));
        }
    }
    let metrics = run_grid(&configs, scale.runs(), &ParallelExecutor::from_env())?;

    // Like fig7/fig8, each bandwidth model gets its own figure id so the
    // drift run and the no-drift control can sit side by side in results/.
    let (id, title) = match model {
        BandwidthModel::Ar1 => (
            "fig13",
            "PB under AR(1) bandwidth drift: oracle vs EWMA vs windowed vs probe estimation",
        ),
        BandwidthModel::Iid => (
            "fig13_iid",
            "PB under i.i.d. bandwidth (no-drift control): oracle vs EWMA vs windowed vs probe estimation",
        ),
    };
    let mut fig = FigureResult::new(id, title, "cache fraction");
    let labels = FIG13_ESTIMATORS.iter().map(EstimatorKind::label);
    fig.series = assemble_series(labels, &fractions, metrics);
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_produces_one_series_per_estimator() {
        let fig = fig13(ExperimentScale::Test, BandwidthModel::Ar1).unwrap();
        assert_eq!(fig.id, "fig13");
        assert_eq!(fig.series.len(), FIG13_ESTIMATORS.len());
        for (series, kind) in fig.series.iter().zip(FIG13_ESTIMATORS) {
            assert_eq!(series.label, kind.label());
            assert_eq!(
                series.points.len(),
                ExperimentScale::Test.cache_fractions().len()
            );
            for p in &series.points {
                assert!(p.metrics.requests > 0);
                assert!(p.metrics.avg_stream_quality > 0.0);
            }
        }
        // The estimator choice must reach the cache decisions: under drift
        // the stale-estimator runs cannot all be identical to the oracle.
        let oracle = fig.series("oracle-mean").unwrap();
        let differs = ["ewma", "windowed", "probe"]
            .iter()
            .any(|label| fig.series(label).unwrap().points[0].metrics != oracle.points[0].metrics);
        assert!(differs, "estimators never diverged from the oracle");
    }

    #[test]
    fn fig13_is_reproducible() {
        let a = fig13(ExperimentScale::Test, BandwidthModel::Ar1).unwrap();
        let b = fig13(ExperimentScale::Test, BandwidthModel::Ar1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fig13_no_drift_control_gets_its_own_id() {
        let fig = fig13(ExperimentScale::Test, BandwidthModel::Iid).unwrap();
        assert_eq!(fig.id, "fig13_iid");
        assert!(fig.title.contains("no-drift"));
    }
}
