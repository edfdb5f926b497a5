//! The `fig_sessions` figure family (beyond the paper): policy comparison
//! under session-level shared-bottleneck contention.
//!
//! The paper's figures treat every request as an isolated bandwidth draw;
//! this experiment replays the same workloads through the discrete-event
//! session core ([`crate::session`]), where sessions span their playback
//! duration and share each origin path's bottleneck capacity by processor
//! sharing. The time-weighted metrics — concurrent viewers, rebuffer
//! probability, origin egress over time — quantify what partial caching
//! buys once contention exists: every cached prefix byte both removes
//! origin traffic *and* frees bottleneck bandwidth for the sessions that
//! still need it.

use crate::config::{SimError, SimulationConfig, VariabilityKind};
use crate::exec::ParallelExecutor;
use crate::experiments::ExperimentScale;
use crate::report::{assemble_series, SessionFigureResult};
use crate::session::run_session_grid_traced;
use sc_cache::policy::PolicyKind;

/// The policies compared by [`fig_sessions`], in series order.
pub const FIG_SESSIONS_POLICIES: [PolicyKind; 3] = [
    PolicyKind::PartialBandwidth,
    PolicyKind::IntegralBandwidth,
    PolicyKind::Lru,
];

/// The session-contention figure: PB vs IB vs LRU across cache fractions,
/// under the constant-variability paper setting, measured by the
/// time-weighted session metrics.
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig_sessions(scale: ExperimentScale) -> Result<SessionFigureResult, SimError> {
    fig_sessions_with(scale, &ParallelExecutor::from_env())
}

/// [`fig_sessions`] with an explicit executor (thread count).
///
/// # Errors
///
/// Propagates configuration validation errors from the simulator.
pub fn fig_sessions_with(
    scale: ExperimentScale,
    executor: &ParallelExecutor,
) -> Result<SessionFigureResult, SimError> {
    let base = SimulationConfig {
        variability: VariabilityKind::Constant,
        ..scale.base_config()
    };
    let fractions = scale.cache_fractions();

    // One flattened (policy, cache fraction) grid so every point of the
    // figure shards across threads at once; the session grid merges in
    // deterministic grid order, exactly like the per-request figures.
    let mut configs = Vec::with_capacity(FIG_SESSIONS_POLICIES.len() * fractions.len());
    for &policy in &FIG_SESSIONS_POLICIES {
        for &fraction in &fractions {
            configs.push(SimulationConfig { policy, ..base }.with_cache_fraction(fraction));
        }
    }
    let (metrics, telemetry) = run_session_grid_traced(&configs, scale.runs(), executor)?;

    let mut fig = SessionFigureResult::new(
        "fig_sessions",
        "Session-level contention: PB vs IB vs LRU under shared-bottleneck processor sharing",
        "cache fraction",
    );
    fig.telemetry = telemetry;
    let labels = FIG_SESSIONS_POLICIES.iter().map(PolicyKind::label);
    fig.series = assemble_series(labels, &fractions, metrics);
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_sessions_produces_one_series_per_policy() {
        let fig = fig_sessions(ExperimentScale::Test).unwrap();
        assert_eq!(fig.id, "fig_sessions");
        assert_eq!(fig.series.len(), FIG_SESSIONS_POLICIES.len());
        for (series, policy) in fig.series.iter().zip(FIG_SESSIONS_POLICIES) {
            assert_eq!(series.label, policy.label());
            assert_eq!(
                series.points.len(),
                ExperimentScale::Test.cache_fractions().len()
            );
            for p in &series.points {
                assert!(p.metrics.sessions > 0);
                assert!(p.metrics.viewer_seconds > 0.0);
                assert!((0.0..=1.0).contains(&p.metrics.rebuffer_probability));
            }
        }
        // The policy choice must reach the outcome: the three series cannot
        // all coincide on the first point.
        let first: Vec<_> = fig.series.iter().map(|s| &s.points[0].metrics).collect();
        assert!(
            first[0] != first[1] || first[0] != first[2],
            "policies never diverged"
        );
        // Paired workloads: the viewer curve is policy-independent up to
        // float accumulation order (policies change the event instants the
        // integral is split at, not its value).
        for other in [first[1], first[2]] {
            assert!(
                (first[0].viewer_seconds - other.viewer_seconds).abs() / first[0].viewer_seconds
                    < 1e-12
            );
            assert_eq!(first[0].sessions, other.sessions);
        }
    }

    #[test]
    fn fig_sessions_is_reproducible() {
        let a = fig_sessions(ExperimentScale::Test).unwrap();
        let b = fig_sessions(ExperimentScale::Test).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fig_sessions_is_the_same_at_one_and_four_threads_telemetry_included() {
        use crate::exec::ExecConfig;
        let run = |threads| {
            let executor = ParallelExecutor::new(ExecConfig::with_threads(threads));
            fig_sessions_with(ExperimentScale::Test, &executor).unwrap()
        };
        let (one, four) = (run(1), run(4));
        assert!(one.telemetry.events_scheduled > 0 && one.telemetry.redivisions > 0);
        assert_eq!(one.telemetry, four.telemetry);
        assert_eq!(one, four);
    }
}
