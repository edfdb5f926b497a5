//! The cache-size sweep behind the policy-comparison figures, and the
//! grid builders of the estimator and Zipf figures.
//!
//! A sweep flattens its whole `(policy, cache size, run seed)` grid into
//! one work list for [`run_grid`], so all points of a figure shard across
//! threads at once instead of executing as nested sequential loops, and
//! the averages are cut back into one series per policy.
//! Results are merged in deterministic grid order: a sweep's output is
//! byte-identical for every thread count.
//!
//! A sweep varies the policy and the cache size and inherits everything
//! else — in particular [`SimulationConfig::bandwidth_model`] and
//! [`SimulationConfig::estimator`] — from the base configuration, so it
//! runs unchanged under i.i.d. or AR(1) bandwidth.

use crate::config::{SimError, SimulationConfig};
use crate::exec::{run_grid, ParallelExecutor};
use crate::report::{assemble_series, FigureSeries};
use sc_cache::policy::PolicyKind;

/// The cache sizes used across the paper's figures, expressed as fractions
/// of the total unique object size (4 GB ≈ 0.5 % up to 128 GB ≈ 16.9 % of
/// 790 GB — paper Section 3.2).
pub const PAPER_CACHE_FRACTIONS: [f64; 6] = [0.005, 0.01, 0.02, 0.04, 0.08, 0.169];

/// A reduced set of cache fractions for quick runs and tests.
pub const QUICK_CACHE_FRACTIONS: [f64; 3] = [0.01, 0.05, 0.169];

/// Sweeps the cache size for several policies: one [`FigureSeries`] per
/// policy, labelled with the policy name, with the cache fraction on the
/// x-axis. The whole `policies × fractions × runs` grid is flattened into
/// one work list and sharded across the environment-configured executor
/// ([`ParallelExecutor::from_env`], `SC_SIM_THREADS`).
///
/// # Errors
///
/// Propagates configuration validation errors from the runner.
pub fn sweep_policies(
    base: &SimulationConfig,
    policies: &[PolicyKind],
    fractions: &[f64],
    runs: usize,
) -> Result<Vec<FigureSeries>, SimError> {
    let mut configs = Vec::with_capacity(policies.len() * fractions.len());
    for &policy in policies {
        for &fraction in fractions {
            configs.push(SimulationConfig { policy, ..*base }.with_cache_fraction(fraction));
        }
    }
    let metrics = run_grid(&configs, runs, &ParallelExecutor::from_env())?;
    let labels = policies.iter().map(PolicyKind::label);
    Ok(assemble_series(labels, fractions, metrics))
}

/// The `(cache fraction, e)` grid of an estimator figure (fig9, fig12),
/// fraction-major: `base` running PB(e) — or PB-V(e) when `value_based` —
/// at every point.
pub(crate) fn estimator_grid(
    base: &SimulationConfig,
    cache_fractions: &[f64],
    estimators: &[f64],
    value_based: bool,
) -> Vec<SimulationConfig> {
    let mut configs = Vec::with_capacity(cache_fractions.len() * estimators.len());
    for &fraction in cache_fractions {
        for &e in estimators {
            let policy = if value_based {
                PolicyKind::PartialBandwidthValue { e }
            } else {
                PolicyKind::HybridPartialBandwidth { e }
            };
            configs.push(SimulationConfig { policy, ..*base }.with_cache_fraction(fraction));
        }
    }
    configs
}

/// One point of the Zipf figure (fig6): `base` running `policy` at
/// `cache_fraction` over a workload of popularity skew `alpha`.
pub(crate) fn zipf_alpha_config(
    base: &SimulationConfig,
    policy: PolicyKind,
    cache_fraction: f64,
    alpha: f64,
) -> SimulationConfig {
    let mut config = SimulationConfig { policy, ..*base }.with_cache_fraction(cache_fraction);
    config.workload.trace.zipf_alpha = alpha;
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimulationConfig {
        SimulationConfig::small()
    }

    #[test]
    fn cache_size_sweep_is_monotone_in_traffic_reduction() {
        let [series] = sweep_policies(&base(), &[PolicyKind::IntegralFrequency], &[0.01, 0.1], 1)
            .unwrap()
            .try_into()
            .unwrap();
        assert_eq!(series.points.len(), 2);
        assert!(
            series.points[1].metrics.traffic_reduction_ratio
                >= series.points[0].metrics.traffic_reduction_ratio
        );
        assert_eq!(series.label, "IF");
    }

    #[test]
    fn policy_sweep_produces_one_series_per_policy() {
        let series = sweep_policies(
            &base(),
            &[PolicyKind::PartialBandwidth, PolicyKind::IntegralBandwidth],
            &[0.05],
            1,
        )
        .unwrap();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].label, "PB");
        assert_eq!(series[1].label, "IB");
    }

    #[test]
    fn estimator_sweep_spans_ib_to_pb() {
        let configs = estimator_grid(&base(), &[0.05], &[0.0, 1.0], false);
        let points = run_grid(&configs, 1, &ParallelExecutor::from_env()).unwrap();
        assert_eq!(points.len(), 2);
        // e = 0 caches whole objects: higher traffic reduction than e = 1.
        assert!(
            points[0].traffic_reduction_ratio >= points[1].traffic_reduction_ratio - 0.02,
            "e=0 {} vs e=1 {}",
            points[0].traffic_reduction_ratio,
            points[1].traffic_reduction_ratio
        );
    }

    #[test]
    fn zipf_sweep_gains_from_locality() {
        let configs = [0.5, 1.2]
            .map(|alpha| zipf_alpha_config(&base(), PolicyKind::PartialBandwidth, 0.05, alpha));
        let points = run_grid(&configs, 1, &ParallelExecutor::from_env()).unwrap();
        assert_eq!(points.len(), 2);
        // Stronger locality (higher alpha) should not reduce traffic savings.
        assert!(points[1].traffic_reduction_ratio >= points[0].traffic_reduction_ratio - 0.02);
    }
}
