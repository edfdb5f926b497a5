//! The `fig_faults` figure (beyond the paper): resilience of partial
//! caching under origin-path outages.
//!
//! The paper argues that a network-aware cached prefix accelerates startup;
//! this experiment measures the same prefix's second dividend —
//! *availability*. Origin paths are subjected to the seeded outage model
//! ([`crate::PathFaultModel`]): exponential failure/repair alternation with
//! a small residual capacity during the outage. The figure sweeps the
//! outage rate (failures per hour of path up-time, the x-axis) at two
//! repair speeds, and compares how the rebuffer probability of PB, IB and
//! LRU degrades — plus how much stall time the cached prefixes mask
//! ([`crate::SessionMetrics::masked_stall_secs`]).

use crate::config::{PathFaultModel, SimError, SimulationConfig, VariabilityKind};
use crate::exec::ParallelExecutor;
use crate::experiments::ExperimentScale;
use crate::metrics::SessionMetrics;
use crate::report::{assemble_series, FigureResult};
use crate::session::run_session_grid_traced;
use sc_cache::policy::PolicyKind;

/// The policies compared by [`fig_faults`], in series order.
pub const FIG_FAULTS_POLICIES: [PolicyKind; 3] = [
    PolicyKind::PartialBandwidth,
    PolicyKind::IntegralBandwidth,
    PolicyKind::Lru,
];

/// The mean-time-to-repair values (seconds) compared by [`fig_faults`]:
/// a fast recovery and a slow one, bracketing the session durations.
pub const FIG_FAULTS_MTTRS: [f64; 2] = [60.0, 300.0];

/// Capacity fraction surviving an outage in this figure: a brown-out close
/// to a hard failure.
const FAULT_RESIDUAL: f64 = 0.02;

/// Cache fraction held fixed while the outage rate sweeps — the middle of
/// the range where the policies are already well separated in
/// `fig_sessions`.
const FAULT_CACHE_FRACTION: f64 = 0.10;

/// Outage rates swept on the x-axis, in failures per hour of up-time.
fn outage_rates(scale: ExperimentScale) -> Vec<f64> {
    match scale {
        ExperimentScale::Paper => vec![0.0, 1.0, 2.0, 4.0, 8.0, 16.0],
        ExperimentScale::Quick => vec![0.0, 2.0, 8.0],
        ExperimentScale::Test => vec![0.0, 6.0],
    }
}

/// The resilience figure: rebuffer probability (and masked stall time)
/// versus origin outage rate, one series per `policy × MTTR` combination,
/// at a fixed mid-range cache fraction.
///
/// A zero rate means no fault injection at all — the leftmost point of
/// every series reproduces the healthy baseline bit-for-bit.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig_faults(scale: ExperimentScale) -> Result<FigureResult<SessionMetrics>, SimError> {
    let base = SimulationConfig {
        variability: VariabilityKind::Constant,
        ..scale.base_config()
    }
    .with_cache_fraction(FAULT_CACHE_FRACTION);
    let rates = outage_rates(scale);

    // One flattened (policy, mttr, rate) grid so the whole figure shards
    // across threads at once and merges in deterministic grid order.
    let series = FIG_FAULTS_POLICIES.len() * FIG_FAULTS_MTTRS.len();
    let mut configs = Vec::with_capacity(series * rates.len());
    let mut labels = Vec::with_capacity(series);
    for &policy in &FIG_FAULTS_POLICIES {
        for &mttr_secs in &FIG_FAULTS_MTTRS {
            labels.push(format!("{} mttr={}s", policy.label(), mttr_secs));
            for &rate in &rates {
                let path_faults = (rate > 0.0).then(|| PathFaultModel {
                    mtbf_secs: 3_600.0 / rate,
                    mttr_secs,
                    residual_capacity_fraction: FAULT_RESIDUAL,
                });
                configs.push(SimulationConfig {
                    policy,
                    path_faults,
                    ..base
                });
            }
        }
    }
    let (metrics, telemetry) =
        run_session_grid_traced(&configs, scale.runs(), &ParallelExecutor::from_env())?;

    let mut fig = FigureResult::new(
        "fig_faults",
        "Resilience under origin outages: rebuffer probability vs outage rate and MTTR",
        "outages per hour",
    );
    fig.telemetry = Some(telemetry);
    fig.series = assemble_series(labels, &rates, metrics);
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_faults_produces_policy_by_mttr_series() {
        let fig = fig_faults(ExperimentScale::Test).unwrap();
        assert_eq!(fig.id, "fig_faults");
        assert_eq!(
            fig.series.len(),
            FIG_FAULTS_POLICIES.len() * FIG_FAULTS_MTTRS.len()
        );
        for series in &fig.series {
            assert_eq!(
                series.points.len(),
                outage_rates(ExperimentScale::Test).len()
            );
            // The rate-0 point carries no outage; every faulted point does.
            assert_eq!(series.points[0].metrics.outage_secs, 0.0);
            assert_eq!(series.points[0].metrics.masked_stall_secs, 0.0);
            for p in &series.points[1..] {
                assert!(p.metrics.outage_secs > 0.0);
                assert!((0.0..=1.0).contains(&p.metrics.rebuffer_probability));
            }
        }
        // Outages must hurt: the faulted point cannot rebuffer less than
        // the healthy baseline of the same series.
        for series in &fig.series {
            let healthy = &series.points[0].metrics;
            let faulted = series.points.last().unwrap();
            assert!(faulted.metrics.avg_rebuffer_secs >= healthy.avg_rebuffer_secs);
        }
    }

    #[test]
    fn fig_faults_is_reproducible() {
        let a = fig_faults(ExperimentScale::Test).unwrap();
        let b = fig_faults(ExperimentScale::Test).unwrap();
        assert_eq!(a, b);
    }
}
