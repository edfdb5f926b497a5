//! Drivers that regenerate every table and figure of the paper's evaluation
//! (Section 4).
//!
//! Each function returns a [`FigureResult`](crate::FigureResult) containing
//! the same series the paper plots; the `sc-bench` binaries print these as
//! tables and JSON. Absolute values differ from the paper (the bandwidth
//! models are synthetic equivalents — see `DESIGN.md`), but the qualitative
//! shape (which policy wins, where crossovers occur) is preserved.
//!
//! Beyond the paper: [`fig7_with`]/[`fig8_with`] rerun the
//! variable-bandwidth figures under AR(1) bandwidth evolution
//! ([`crate::BandwidthModel::Ar1`]) instead of i.i.d. ratios, and [`fig13`]
//! studies how bandwidth-estimator staleness (oracle vs EWMA vs windowed vs
//! probe) affects partial caching under that drift.

mod estimator_figures;
mod fault_figures;
mod figures;
mod session_figures;
mod table1;
mod value_figures;

pub use estimator_figures::{fig13, fig13_with, FIG13_ESTIMATORS};
pub use fault_figures::{fig_faults, fig_faults_with, FIG_FAULTS_MTTRS, FIG_FAULTS_POLICIES};
pub use figures::{
    fig5, fig6, fig7, fig7_with, fig8, fig8_with, fig9, policy_comparison_figure,
    policy_comparison_figure_with_model,
};
pub use session_figures::{fig_sessions, fig_sessions_with, FIG_SESSIONS_POLICIES};
pub use table1::{table1, Table1};
pub use value_figures::{fig10, fig11, fig12, value_comparison_figure};

use crate::config::SimulationConfig;
use crate::sweep::{PAPER_CACHE_FRACTIONS, QUICK_CACHE_FRACTIONS};
use sc_workload::WorkloadConfig;

/// How much compute to spend on an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Full paper scale: 5,000 objects, 100,000 requests per run, several
    /// replicated runs per data point, all six cache sizes.
    Paper,
    /// Reduced scale for quick exploration: 1,000 objects, 20,000 requests,
    /// two runs, three cache sizes.
    Quick,
    /// Minimal scale used by the test suite: 300 objects, 4,000 requests,
    /// one run, two cache sizes.
    Test,
}

impl ExperimentScale {
    /// The workload configuration for this scale.
    pub fn workload(&self) -> WorkloadConfig {
        let mut w = WorkloadConfig::paper_default();
        match self {
            ExperimentScale::Paper => {}
            ExperimentScale::Quick => {
                w.catalog.objects = 1_000;
                w.trace.requests = 20_000;
            }
            ExperimentScale::Test => {
                w.catalog.objects = 300;
                w.trace.requests = 4_000;
            }
        }
        w
    }

    /// Number of replicated runs averaged per data point.
    pub fn runs(&self) -> usize {
        match self {
            // The paper averages ten runs; three keeps the full-scale
            // harness affordable while still smoothing seed noise.
            ExperimentScale::Paper => 3,
            ExperimentScale::Quick => 2,
            ExperimentScale::Test => 1,
        }
    }

    /// Cache-size fractions swept on the x-axis.
    pub fn cache_fractions(&self) -> Vec<f64> {
        match self {
            ExperimentScale::Paper => PAPER_CACHE_FRACTIONS.to_vec(),
            ExperimentScale::Quick => QUICK_CACHE_FRACTIONS.to_vec(),
            ExperimentScale::Test => vec![0.02, 0.1],
        }
    }

    /// The base simulation configuration for this scale (constant bandwidth,
    /// PB policy; experiments override what they need).
    pub fn base_config(&self) -> SimulationConfig {
        SimulationConfig {
            workload: self.workload(),
            ..SimulationConfig::paper_default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariabilityKind;
    use crate::report::FigureSeries;
    use crate::sweep::{sweep_estimator, sweep_zipf_alpha};
    use crate::Metrics;
    use sc_cache::policy::PolicyKind;

    fn series_of(label: String, points: Vec<(f64, Metrics)>) -> FigureSeries {
        let mut series = FigureSeries::new(label);
        for (x, metrics) in points {
            series.push(x, metrics);
        }
        series
    }

    /// fig6, fig9 and fig12 used to be built one sweep — one grid, one
    /// workload generation — per series. That construction is kept here as
    /// the reference the single-grid figures must reproduce exactly.
    #[test]
    fn one_grid_figures_equal_their_per_series_sweeps() {
        let scale = ExperimentScale::Test;
        let (fractions, runs) = (scale.cache_fractions(), scale.runs());

        let base = scale.base_config();
        let mut expected = Vec::new();
        for policy in [PolicyKind::PartialBandwidth, PolicyKind::IntegralBandwidth] {
            for &fraction in &fractions {
                let points = sweep_zipf_alpha(&base, policy, fraction, &[0.6, 1.2], runs).unwrap();
                expected.push(series_of(
                    format!("{} C={:.3}", policy.label(), fraction),
                    points,
                ));
            }
        }
        assert_eq!(fig6(scale).unwrap().series, expected);

        let estimator_figure = |variability, es: &[f64], value_based, name: &str| {
            let base = SimulationConfig {
                variability,
                ..scale.base_config()
            };
            fractions
                .iter()
                .map(|&fraction| {
                    let points = sweep_estimator(&base, fraction, es, value_based, runs).unwrap();
                    series_of(format!("{name} C={fraction:.3}"), points)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            fig9(scale).unwrap().series,
            estimator_figure(VariabilityKind::NlanrLike, &[0.0, 1.0], false, "PB(e)")
        );
        assert_eq!(
            fig12(scale).unwrap().series,
            estimator_figure(
                VariabilityKind::MeasuredModerate,
                &[0.5, 1.0],
                true,
                "PB-V(e)"
            )
        );
    }

    #[test]
    fn scales_shrink_monotonically() {
        let paper = ExperimentScale::Paper;
        let quick = ExperimentScale::Quick;
        let test = ExperimentScale::Test;
        assert!(paper.workload().trace.requests > quick.workload().trace.requests);
        assert!(quick.workload().trace.requests > test.workload().trace.requests);
        assert!(paper.runs() >= quick.runs());
        assert!(quick.runs() >= test.runs());
        assert!(paper.cache_fractions().len() >= quick.cache_fractions().len());
        assert!(test.base_config().validate().is_ok());
    }
}
