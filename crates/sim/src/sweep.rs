//! Parameter sweeps used by the experiment drivers.
//!
//! Every sweep flattens its full parameter grid — `(policy, cache size,
//! run seed)` and friends — into one work list and hands it to the
//! execution layer ([`crate::exec`]), so all points of a figure shard
//! across threads at once instead of executing as nested sequential loops.
//! Results are merged in deterministic grid order: a sweep's output is
//! byte-identical for every thread count.
//!
//! Sweeps vary exactly one dimension and inherit everything else — in
//! particular [`SimulationConfig::bandwidth_model`] and
//! [`SimulationConfig::estimator`] — from the base configuration, so any
//! sweep runs unchanged under i.i.d. or AR(1) bandwidth.

use crate::config::{SimError, SimulationConfig};
use crate::exec::{run_grid, ParallelExecutor};
use crate::metrics::Metrics;
use crate::report::{assemble_series, FigureSeries};
use sc_cache::policy::PolicyKind;

/// The cache sizes used across the paper's figures, expressed as fractions
/// of the total unique object size (4 GB ≈ 0.5 % up to 128 GB ≈ 16.9 % of
/// 790 GB — paper Section 3.2).
pub const PAPER_CACHE_FRACTIONS: [f64; 6] = [0.005, 0.01, 0.02, 0.04, 0.08, 0.169];

/// A reduced set of cache fractions for quick runs and tests.
pub const QUICK_CACHE_FRACTIONS: [f64; 3] = [0.01, 0.05, 0.169];

/// Sweeps the cache size for one policy, holding everything else fixed.
///
/// Returns one [`FigureSeries`] labelled with the policy name, with the
/// cache fraction on the x-axis.
///
/// # Errors
///
/// Propagates configuration validation errors from the runner.
pub fn sweep_cache_size(
    base: &SimulationConfig,
    policy: PolicyKind,
    fractions: &[f64],
    runs: usize,
) -> Result<FigureSeries, SimError> {
    sweep_cache_size_with(base, policy, fractions, runs, &ParallelExecutor::from_env())
}

/// [`sweep_cache_size`] with an explicit executor (thread count).
///
/// # Errors
///
/// Propagates configuration validation errors from the runner.
pub fn sweep_cache_size_with(
    base: &SimulationConfig,
    policy: PolicyKind,
    fractions: &[f64],
    runs: usize,
    executor: &ParallelExecutor,
) -> Result<FigureSeries, SimError> {
    let mut series = sweep_policies_with(base, &[policy], fractions, runs, executor)?;
    Ok(series.pop().expect("one policy, one series"))
}

/// Sweeps the cache size for several policies. The whole
/// `policies × fractions × runs` grid is flattened into one work list and
/// sharded across the environment-configured executor.
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
    sweep_policies_with(
        base,
        policies,
        fractions,
        runs,
        &ParallelExecutor::from_env(),
    )
}

/// [`sweep_policies`] with an explicit executor (thread count).
///
/// # Errors
///
/// Propagates configuration validation errors from the runner.
pub fn sweep_policies_with(
    base: &SimulationConfig,
    policies: &[PolicyKind],
    fractions: &[f64],
    runs: usize,
    executor: &ParallelExecutor,
) -> Result<Vec<FigureSeries>, SimError> {
    let mut configs = Vec::with_capacity(policies.len() * fractions.len());
    for &policy in policies {
        for &fraction in fractions {
            configs.push(SimulationConfig { policy, ..*base }.with_cache_fraction(fraction));
        }
    }
    let metrics = run_grid(&configs, runs, executor)?;
    let labels = policies.iter().map(PolicyKind::label);
    Ok(assemble_series(labels, fractions, metrics))
}

/// The `(cache fraction, e)` grid of an estimator sweep, fraction-major:
/// `base` running PB(e) — or PB-V(e) when `value_based` — at every point.
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

/// One point of a Zipf sweep: `base` running `policy` at `cache_fraction`
/// over a workload of popularity skew `alpha`.
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

/// Sweeps the conservative estimator `e` of the hybrid PB(e) policy at a
/// fixed cache size. Returns `(e, metrics)` pairs.
///
/// # Errors
///
/// Propagates configuration validation errors from the runner.
pub fn sweep_estimator(
    base: &SimulationConfig,
    cache_fraction: f64,
    estimators: &[f64],
    value_based: bool,
    runs: usize,
) -> Result<Vec<(f64, Metrics)>, SimError> {
    sweep_estimator_with(
        base,
        cache_fraction,
        estimators,
        value_based,
        runs,
        &ParallelExecutor::from_env(),
    )
}

/// [`sweep_estimator`] with an explicit executor (thread count).
///
/// # Errors
///
/// Propagates configuration validation errors from the runner.
pub fn sweep_estimator_with(
    base: &SimulationConfig,
    cache_fraction: f64,
    estimators: &[f64],
    value_based: bool,
    runs: usize,
    executor: &ParallelExecutor,
) -> Result<Vec<(f64, Metrics)>, SimError> {
    let configs = estimator_grid(base, &[cache_fraction], estimators, value_based);
    let metrics = run_grid(&configs, runs, executor)?;
    Ok(estimators.iter().copied().zip(metrics).collect())
}

/// Sweeps the Zipf skew parameter α for one policy at a fixed cache size.
/// Returns `(alpha, metrics)` pairs.
///
/// # Errors
///
/// Propagates configuration validation errors from the runner.
pub fn sweep_zipf_alpha(
    base: &SimulationConfig,
    policy: PolicyKind,
    cache_fraction: f64,
    alphas: &[f64],
    runs: usize,
) -> Result<Vec<(f64, Metrics)>, SimError> {
    sweep_zipf_alpha_with(
        base,
        policy,
        cache_fraction,
        alphas,
        runs,
        &ParallelExecutor::from_env(),
    )
}

/// [`sweep_zipf_alpha`] with an explicit executor (thread count).
///
/// # Errors
///
/// Propagates configuration validation errors from the runner.
pub fn sweep_zipf_alpha_with(
    base: &SimulationConfig,
    policy: PolicyKind,
    cache_fraction: f64,
    alphas: &[f64],
    runs: usize,
    executor: &ParallelExecutor,
) -> Result<Vec<(f64, Metrics)>, SimError> {
    let configs: Vec<SimulationConfig> = alphas
        .iter()
        .map(|&alpha| zipf_alpha_config(base, policy, cache_fraction, alpha))
        .collect();
    let metrics = run_grid(&configs, runs, executor)?;
    Ok(alphas.iter().copied().zip(metrics).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimulationConfig {
        SimulationConfig::small()
    }

    #[test]
    fn cache_size_sweep_is_monotone_in_traffic_reduction() {
        let series =
            sweep_cache_size(&base(), PolicyKind::IntegralFrequency, &[0.01, 0.1], 1).unwrap();
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
        let points = sweep_estimator(&base(), 0.05, &[0.0, 1.0], false, 1).unwrap();
        assert_eq!(points.len(), 2);
        // e = 0 caches whole objects: higher traffic reduction than e = 1.
        assert!(
            points[0].1.traffic_reduction_ratio >= points[1].1.traffic_reduction_ratio - 0.02,
            "e=0 {} vs e=1 {}",
            points[0].1.traffic_reduction_ratio,
            points[1].1.traffic_reduction_ratio
        );
    }

    #[test]
    fn zipf_sweep_gains_from_locality() {
        let points =
            sweep_zipf_alpha(&base(), PolicyKind::PartialBandwidth, 0.05, &[0.5, 1.2], 1).unwrap();
        assert_eq!(points.len(), 2);
        // Stronger locality (higher alpha) should not reduce traffic savings.
        assert!(points[1].1.traffic_reduction_ratio >= points[0].1.traffic_reduction_ratio - 0.02);
    }
}
