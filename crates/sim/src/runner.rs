//! One simulation run, in either mode.
//!
//! The per-run bodies live in [`crate::exec::SimWorker`] and
//! [`crate::session::SessionWorker`]; more than one run is a grid —
//! [`crate::exec::run_grid`] or [`crate::session::run_session_grid`] —
//! which shards the independent `(configuration, seed)` items across
//! threads and merges results in deterministic seed order, so parallel
//! output is byte-identical to sequential output. A replicated run is
//! `run_grid(std::slice::from_ref(&config), runs, &executor)`.
//!
//! Both modes take their bandwidth behaviour from the configuration:
//! [`SimulationConfig::bandwidth_model`] selects i.i.d. per-request ratios
//! or AR(1) evolution on the simulation clock, and
//! [`SimulationConfig::estimator`] selects what the caching algorithm
//! knows about each path (oracle mean, passive EWMA/windowed measurement,
//! or active probing).

use crate::config::{SimError, SimulationConfig};
use crate::exec::SimWorker;
use crate::metrics::Metrics;
use crate::session::{SessionRunResult, SessionWorker};

/// Result of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Metrics collected over the measurement (post-warm-up) phase.
    pub metrics: Metrics,
    /// Number of warm-up requests that were excluded from the metrics.
    pub warmup_requests: u64,
    /// Bytes held in the cache at the end of the run.
    pub final_cache_used_bytes: f64,
    /// Number of distinct objects (fully or partially) cached at the end.
    pub final_cached_objects: usize,
}

/// Runs a single simulation described by `config`.
///
/// # Errors
///
/// Returns a [`SimError`] if the configuration is invalid.
pub fn run_simulation(config: &SimulationConfig) -> Result<RunResult, SimError> {
    SimWorker::new(*config, config.seed).run()
}

/// Runs a single **session-mode** simulation described by `config`: the
/// discrete-event core of [`crate::session`], where sessions span their
/// playback duration and share per-path bottleneck bandwidth.
///
/// # Errors
///
/// Returns a [`SimError`] if the configuration is invalid.
pub fn run_sessions(config: &SimulationConfig) -> Result<SessionRunResult, SimError> {
    SessionWorker::new(*config, config.seed).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariabilityKind;
    use crate::exec::{run_grid, ParallelExecutor};
    use crate::session::run_session_grid;
    use sc_cache::policy::PolicyKind;

    fn small(policy: PolicyKind, cache_fraction: f64) -> SimulationConfig {
        SimulationConfig {
            policy,
            ..SimulationConfig::small()
        }
        .with_cache_fraction(cache_fraction)
    }

    #[test]
    fn simulation_runs_and_uses_cache() {
        let cfg = small(PolicyKind::PartialBandwidth, 0.05);
        let result = run_simulation(&cfg).unwrap();
        assert_eq!(result.metrics.requests, 2_500);
        assert!(result.final_cache_used_bytes > 0.0);
        assert!(result.final_cached_objects > 0);
        assert!(result.metrics.traffic_reduction_ratio > 0.0);
        assert!(result.metrics.avg_stream_quality > 0.0);
        assert!(result.metrics.avg_stream_quality <= 1.0);
    }

    #[test]
    fn zero_cache_size_yields_no_traffic_reduction() {
        let mut cfg = small(PolicyKind::PartialBandwidth, 0.0);
        cfg.cache_size_bytes = 0.0;
        let result = run_simulation(&cfg).unwrap();
        assert_eq!(result.metrics.traffic_reduction_ratio, 0.0);
        assert_eq!(result.final_cached_objects, 0);
        // Even with no cache, some requests enjoy abundant bandwidth.
        assert!(result.metrics.immediate_ratio > 0.0);
    }

    #[test]
    fn bigger_caches_do_not_hurt() {
        let configs = [
            small(PolicyKind::PartialBandwidth, 0.01),
            small(PolicyKind::PartialBandwidth, 0.15),
        ];
        let [small_cache, big_cache] = run_grid(&configs, 2, &ParallelExecutor::from_env())
            .unwrap()
            .try_into()
            .unwrap();
        assert!(big_cache.traffic_reduction_ratio >= small_cache.traffic_reduction_ratio);
        assert!(big_cache.avg_service_delay_secs <= small_cache.avg_service_delay_secs + 1e-6);
        assert!(big_cache.avg_stream_quality + 1e-9 >= small_cache.avg_stream_quality);
    }

    #[test]
    fn caching_improves_over_no_cache() {
        let mut no_cache_cfg = small(PolicyKind::PartialBandwidth, 0.0);
        no_cache_cfg.cache_size_bytes = 0.0;
        let no_cache = run_simulation(&no_cache_cfg).unwrap().metrics;
        let with_cache = run_simulation(&small(PolicyKind::PartialBandwidth, 0.1))
            .unwrap()
            .metrics;
        assert!(with_cache.avg_service_delay_secs < no_cache.avg_service_delay_secs);
        assert!(with_cache.avg_stream_quality > no_cache.avg_stream_quality);
    }

    #[test]
    fn same_seed_is_reproducible() {
        let cfg = small(PolicyKind::IntegralBandwidth, 0.05);
        let a = run_simulation(&cfg).unwrap();
        let b = run_simulation(&cfg).unwrap();
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn replication_requires_at_least_one_run() {
        let cfg = small(PolicyKind::PartialBandwidth, 0.05);
        let executor = ParallelExecutor::from_env();
        assert!(matches!(
            run_grid(&[cfg], 0, &executor),
            Err(SimError::NoRuns)
        ));
        assert!(matches!(
            run_session_grid(&[cfg], 0, &executor),
            Err(SimError::NoRuns)
        ));
    }

    #[test]
    fn comparison_runs_all_policies_on_same_workload() {
        let configs = vec![
            small(PolicyKind::IntegralFrequency, 0.05),
            small(PolicyKind::PartialBandwidth, 0.05),
            small(PolicyKind::IntegralBandwidth, 0.05),
        ];
        let metrics = run_grid(&configs, 1, &ParallelExecutor::from_env()).unwrap();
        assert_eq!(metrics.len(), 3);
        // Under constant bandwidth, PB should not have higher average delay
        // than IF (the paper's headline qualitative result).
        let if_delay = metrics[0].avg_service_delay_secs;
        let pb_delay = metrics[1].avg_service_delay_secs;
        assert!(
            pb_delay <= if_delay + 1e-6,
            "PB delay {pb_delay} vs IF delay {if_delay}"
        );
        // IF should achieve at least as much traffic reduction as PB.
        assert!(
            metrics[0].traffic_reduction_ratio >= metrics[1].traffic_reduction_ratio - 0.02,
            "IF {} vs PB {}",
            metrics[0].traffic_reduction_ratio,
            metrics[1].traffic_reduction_ratio
        );
    }

    #[test]
    fn session_mode_entry_points_run_and_average() {
        let cfg = small(PolicyKind::PartialBandwidth, 0.05);
        let single = run_sessions(&cfg).unwrap();
        assert_eq!(single.metrics.sessions, 5_000);
        let executor = ParallelExecutor::from_env();
        let avg = run_session_grid(&[cfg], 2, &executor).unwrap();
        assert_eq!(avg[0].sessions, 5_000);
        assert!(avg[0].viewer_seconds > 0.0);
        let configs = [cfg, small(PolicyKind::IntegralBandwidth, 0.05)];
        let compared = run_session_grid(&configs, 1, &executor).unwrap();
        assert_eq!(compared.len(), 2);
        // Paired comparison: identical workloads, so the viewer curves
        // agree up to float accumulation order (the policies split the
        // integral at different event instants).
        let (a, b) = (compared[0].viewer_seconds, compared[1].viewer_seconds);
        assert!((a - b).abs() / a < 1e-12, "{a} vs {b}");
        assert_eq!(compared[0].sessions, compared[1].sessions);
    }

    #[test]
    fn variable_bandwidth_increases_delay() {
        let constant_cfg = small(PolicyKind::PartialBandwidth, 0.05);
        let variable_cfg = SimulationConfig {
            variability: VariabilityKind::NlanrLike,
            ..constant_cfg
        };
        let [constant, variable] = run_grid(
            &[constant_cfg, variable_cfg],
            2,
            &ParallelExecutor::from_env(),
        )
        .unwrap()
        .try_into()
        .unwrap();
        assert!(
            variable.avg_service_delay_secs > constant.avg_service_delay_secs,
            "variable {} vs constant {}",
            variable.avg_service_delay_secs,
            constant.avg_service_delay_secs
        );
        assert!(variable.avg_stream_quality <= constant.avg_stream_quality + 1e-9);
    }
}
