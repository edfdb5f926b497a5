//! Simulation configuration.

use sc_cache::policy::PolicyKind;
use sc_netmodel::EstimatorKind;
use sc_workload::WorkloadConfig;
use std::error::Error;
use std::fmt;

/// Which bandwidth-variability model drives the instantaneous bandwidth of
/// each request (Section 3.1 / Figures 3–4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariabilityKind {
    /// No variability: each path's bandwidth is constant over time
    /// (the assumption behind Figures 5, 6 and 10).
    Constant,
    /// High variability matching the NLANR proxy-log ratios (Figure 3;
    /// used in Figure 7).
    NlanrLike,
    /// Moderate variability (Taiwan-like measured path, Figure 4; used in
    /// Figures 8, 11 and 12).
    MeasuredModerate,
}

impl VariabilityKind {
    /// Instantiates the corresponding ratio distribution.
    pub fn model(&self) -> sc_netmodel::VariabilityModel {
        use sc_netmodel::VariabilityModel as V;
        match self {
            VariabilityKind::Constant => V::constant(),
            VariabilityKind::NlanrLike => V::nlanr_like(),
            VariabilityKind::MeasuredModerate => V::measured_path_moderate(),
        }
    }

    /// Human-readable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            VariabilityKind::Constant => "constant",
            VariabilityKind::NlanrLike => "nlanr-variability",
            VariabilityKind::MeasuredModerate => "measured-moderate",
        }
    }
}

/// How each path's *instantaneous* bandwidth relates to its long-run
/// average over the course of a simulated session.
///
/// The paper's measurements (Section 3.1) show both a marginal ratio
/// distribution (Figures 3–4) and temporal structure: bandwidth drifts
/// slowly around the mean rather than being redrawn independently for every
/// request. [`BandwidthModel::Iid`] reproduces only the marginal
/// distribution; [`BandwidthModel::Ar1`] additionally reproduces the drift
/// by evolving every path through the mean-reverting AR(1) process of
/// [`sc_netmodel::BandwidthTimeSeries`], sampled at each request's arrival
/// time on the simulation clock.
///
/// ```
/// use sc_sim::{BandwidthModel, SimulationConfig};
///
/// let mut config = SimulationConfig::small();
/// assert_eq!(config.bandwidth_model, BandwidthModel::Iid);
/// // Switch Figure 7/8-style runs to time-varying bandwidth.
/// config.bandwidth_model = BandwidthModel::Ar1;
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandwidthModel {
    /// Each request draws an independent sample-to-mean ratio from the
    /// configured [`VariabilityKind`] — the seed behaviour, and the model
    /// behind the golden regression metrics.
    Iid,
    /// Each path's bandwidth evolves as a mean-reverting AR(1) process
    /// ([`sc_netmodel::TimeSeriesConfig`]): the path mean comes from the
    /// NLANR-like base distribution, the marginal coefficient of variation
    /// from the configured [`VariabilityKind`], and consecutive samples —
    /// four minutes apart, the measurement cadence of the paper's Figure 4
    /// paths — are strongly correlated (`rho = 0.9`).
    Ar1,
}

impl BandwidthModel {
    /// Human-readable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            BandwidthModel::Iid => "iid",
            BandwidthModel::Ar1 => "ar1",
        }
    }
}

/// A stochastic outage model for the origin paths of the session
/// simulator — the deterministic counterpart of the runnable proxy's
/// fault-injection layer (`sc_proxy`'s `FaultPlan`).
///
/// Each path alternates between *up* and *down* periods whose lengths are
/// drawn from exponential distributions with means `mtbf_secs` (mean time
/// between failures) and `mttr_secs` (mean time to repair). While a path is
/// down its capacity is multiplied by `residual_capacity_fraction` — a
/// brown-out rather than a hard zero, which keeps the processor-sharing
/// core's positive-capacity invariant intact (a full outage is approximated
/// by a small residual such as the default 1 %).
///
/// The whole outage timeline is pre-generated from a seed derived from the
/// run seed ([`crate::exec::fault_seed`]) before the event loop starts, so
/// runs remain byte-identical at any `SC_SIM_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathFaultModel {
    /// Mean up-time between outages, in seconds (exponentially
    /// distributed).
    pub mtbf_secs: f64,
    /// Mean outage duration, in seconds (exponentially distributed).
    pub mttr_secs: f64,
    /// Multiplier applied to a path's capacity while it is down, in
    /// `(0, 1]`.
    pub residual_capacity_fraction: f64,
}

impl Default for PathFaultModel {
    /// One outage per simulated hour on average, repaired in a minute,
    /// with 1 % of the path capacity surviving the outage.
    fn default() -> Self {
        PathFaultModel {
            mtbf_secs: 3_600.0,
            mttr_secs: 60.0,
            residual_capacity_fraction: 0.01,
        }
    }
}

impl PathFaultModel {
    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FaultModel`] when either mean is not positive
    /// and finite or the residual capacity fraction is outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.mtbf_secs.is_finite() || self.mtbf_secs <= 0.0 {
            return Err(SimError::FaultModel(format!(
                "mean time between failures must be positive and finite, got {}",
                self.mtbf_secs
            )));
        }
        if !self.mttr_secs.is_finite() || self.mttr_secs <= 0.0 {
            return Err(SimError::FaultModel(format!(
                "mean time to repair must be positive and finite, got {}",
                self.mttr_secs
            )));
        }
        if !self.residual_capacity_fraction.is_finite()
            || self.residual_capacity_fraction <= 0.0
            || self.residual_capacity_fraction > 1.0
        {
            return Err(SimError::FaultModel(format!(
                "residual capacity fraction must lie in (0, 1], got {}",
                self.residual_capacity_fraction
            )));
        }
        Ok(())
    }
}

/// Error returned when a [`SimulationConfig`] is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The cache size was negative or not finite.
    InvalidCacheSize(f64),
    /// The workload configuration was invalid.
    Workload(String),
    /// The number of replicated runs was zero.
    NoRuns,
    /// The session-mode egress bin count was zero.
    InvalidEgressBins,
    /// The path fault model parameters were invalid.
    FaultModel(String),
    /// The replacement policy's parameters were invalid.
    Policy(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidCacheSize(v) => {
                write!(f, "cache size must be finite and non-negative, got {v}")
            }
            SimError::Workload(why) => write!(f, "invalid workload configuration: {why}"),
            SimError::NoRuns => write!(f, "at least one simulation run is required"),
            SimError::InvalidEgressBins => {
                write!(f, "session egress accumulation needs at least one bin")
            }
            SimError::FaultModel(why) => write!(f, "invalid path fault model: {why}"),
            SimError::Policy(why) => write!(f, "invalid policy: {why}"),
        }
    }
}

impl Error for SimError {}

/// Full description of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Workload (catalog + request trace) configuration.
    pub workload: WorkloadConfig,
    /// Cache capacity in bytes.
    pub cache_size_bytes: f64,
    /// Replacement policy under test.
    pub policy: PolicyKind,
    /// Bandwidth variability model (the marginal ratio distribution).
    pub variability: VariabilityKind,
    /// Temporal structure of each path's bandwidth: i.i.d. per-request
    /// ratios or an AR(1) evolution sampled on the simulation clock.
    pub bandwidth_model: BandwidthModel,
    /// How the caching algorithm estimates per-path bandwidth.
    pub estimator: EstimatorKind,
    /// Number of fixed-width time bins of the session-mode
    /// origin-egress-over-time curve (session mode only).
    pub session_egress_bins: usize,
    /// Optional path outage model (session mode only). `None` — the
    /// default — injects no faults and leaves every golden-pinned result
    /// bit-for-bit unchanged.
    pub path_faults: Option<PathFaultModel>,
    /// Base seed; replicated runs use `seed`, `seed + 1`, ….
    pub seed: u64,
}

impl Default for SimulationConfig {
    /// The paper's default setting (Table 1 workload, constant bandwidth,
    /// 32 GB cache, PB policy, first half of the trace as warm-up).
    fn default() -> Self {
        SimulationConfig {
            workload: WorkloadConfig::default(),
            cache_size_bytes: 32.0 * 1e9,
            policy: PolicyKind::PartialBandwidth,
            variability: VariabilityKind::Constant,
            bandwidth_model: BandwidthModel::Iid,
            estimator: EstimatorKind::Oracle,
            session_egress_bins: 24,
            path_faults: None,
            seed: 1,
        }
    }
}

impl SimulationConfig {
    /// A reduced-scale configuration suitable for unit tests and examples
    /// (500 objects, 5,000 requests).
    pub fn small() -> Self {
        SimulationConfig {
            workload: WorkloadConfig::small(),
            cache_size_bytes: 2.0 * 1e9,
            ..Self::default()
        }
    }

    /// Sets the cache size as a fraction of the expected total unique bytes
    /// of the workload (the x-axis of most figures in the paper).
    pub fn with_cache_fraction(mut self, fraction: f64) -> Self {
        self.cache_size_bytes = fraction * self.expected_total_bytes();
        self
    }

    /// Expected total unique bytes implied by the workload configuration
    /// (object count × mean duration × bit-rate).
    pub fn expected_total_bytes(&self) -> f64 {
        let mu = self.workload.catalog.duration_mu;
        let sigma = self.workload.catalog.duration_sigma;
        let mean_minutes = (mu + sigma * sigma / 2.0).exp();
        self.workload.catalog.objects as f64
            * mean_minutes
            * 60.0
            * self.workload.catalog.bitrate_bps
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] describing the first problem found.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.cache_size_bytes.is_finite() || self.cache_size_bytes < 0.0 {
            return Err(SimError::InvalidCacheSize(self.cache_size_bytes));
        }
        if self.session_egress_bins == 0 {
            return Err(SimError::InvalidEgressBins);
        }
        self.policy
            .validate()
            .map_err(|e| SimError::Policy(e.to_string()))?;
        if let Some(faults) = &self.path_faults {
            faults.validate()?;
        }
        self.workload
            .validate()
            .map_err(|e| SimError::Workload(e.to_string()))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimulationConfig::default();
        assert_eq!(c.workload.catalog.objects, 5_000);
        assert_eq!(c.variability, VariabilityKind::Constant);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn expected_total_bytes_is_near_790_gb_at_paper_scale() {
        let c = SimulationConfig::default();
        let gb = c.expected_total_bytes() / 1e9;
        assert!((750.0..830.0).contains(&gb), "expected total {gb} GB");
    }

    #[test]
    fn cache_fraction_scales_capacity() {
        let c = SimulationConfig::default().with_cache_fraction(0.01);
        assert!((c.cache_size_bytes / c.expected_total_bytes() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = SimulationConfig::small();
        c.cache_size_bytes = -1.0;
        assert!(matches!(c.validate(), Err(SimError::InvalidCacheSize(_))));
        let mut c = SimulationConfig::small();
        c.workload.catalog.objects = 0;
        assert!(matches!(c.validate(), Err(SimError::Workload(_))));
        let mut c = SimulationConfig::small();
        c.session_egress_bins = 0;
        assert!(matches!(c.validate(), Err(SimError::InvalidEgressBins)));
        assert!(SimError::InvalidEgressBins.to_string().contains("bin"));
    }

    #[test]
    fn a_nan_estimator_is_rejected_for_both_kinds() {
        use crate::runner::{run_sessions, run_simulation};
        for policy in [
            PolicyKind::HybridPartialBandwidth { e: f64::NAN },
            PolicyKind::PartialBandwidthValue { e: f64::NAN },
        ] {
            let c = SimulationConfig {
                policy,
                ..SimulationConfig::small()
            }
            .with_cache_fraction(0.05);
            let err = c.validate().unwrap_err();
            assert!(
                matches!(&err, SimError::Policy(why) if why.contains("`e`")),
                "{err}"
            );
            assert_eq!(run_simulation(&c).unwrap_err(), err);
            assert_eq!(run_sessions(&c).unwrap_err(), err);
        }
        // A finite e outside [0, 1] is clamped, not rejected.
        let c = SimulationConfig {
            policy: PolicyKind::HybridPartialBandwidth { e: 1.5 },
            ..SimulationConfig::small()
        };
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn variability_kinds_build_models() {
        for kind in [
            VariabilityKind::Constant,
            VariabilityKind::NlanrLike,
            VariabilityKind::MeasuredModerate,
        ] {
            let m = kind.model();
            assert!((m.distribution().mean() - 1.0).abs() < 1e-9);
            assert!(!kind.label().is_empty());
        }
        assert_eq!(
            VariabilityKind::Constant.model().coefficient_of_variation(),
            0.0
        );
    }

    #[test]
    fn fault_model_validation() {
        assert!(PathFaultModel::default().validate().is_ok());
        for bad in [
            PathFaultModel {
                mtbf_secs: 0.0,
                ..PathFaultModel::default()
            },
            PathFaultModel {
                mtbf_secs: f64::INFINITY,
                ..PathFaultModel::default()
            },
            PathFaultModel {
                mttr_secs: -1.0,
                ..PathFaultModel::default()
            },
            PathFaultModel {
                residual_capacity_fraction: 0.0,
                ..PathFaultModel::default()
            },
            PathFaultModel {
                residual_capacity_fraction: 1.5,
                ..PathFaultModel::default()
            },
            PathFaultModel {
                residual_capacity_fraction: f64::NAN,
                ..PathFaultModel::default()
            },
        ] {
            assert!(matches!(bad.validate(), Err(SimError::FaultModel(_))));
            let mut c = SimulationConfig::small();
            c.path_faults = Some(bad);
            assert!(c.validate().is_err());
        }
        // The boundary residual 1.0 (an outage with no capacity effect) is
        // legal.
        assert!(PathFaultModel {
            residual_capacity_fraction: 1.0,
            ..PathFaultModel::default()
        }
        .validate()
        .is_ok());
        assert_eq!(SimulationConfig::default().path_faults, None);
    }

    #[test]
    fn sim_error_display() {
        assert!(SimError::NoRuns.to_string().contains("at least one"));
        assert!(SimError::InvalidCacheSize(-2.0).to_string().contains("-2"));
        assert!(SimError::Policy("x".into()).to_string().contains("policy"));
    }

    #[test]
    fn default_bandwidth_model_is_iid_with_oracle_estimator() {
        let c = SimulationConfig::default();
        assert_eq!(c.bandwidth_model, BandwidthModel::Iid);
        assert_eq!(c.estimator, EstimatorKind::Oracle);
        assert_eq!(c.bandwidth_model.label(), "iid");
        assert_eq!(c.estimator.label(), "oracle-mean");
    }

    #[test]
    fn bandwidth_model_validation() {
        // Neither model has a parameter left to get wrong.
        for (model, label) in [(BandwidthModel::Iid, "iid"), (BandwidthModel::Ar1, "ar1")] {
            assert_eq!(model.label(), label);
            let c = SimulationConfig {
                bandwidth_model: model,
                ..SimulationConfig::small()
            };
            assert!(c.validate().is_ok());
        }
    }

    #[test]
    fn estimator_kind_validation() {
        // No estimator has a parameter left to get wrong.
        for (estimator, label) in [
            (EstimatorKind::Oracle, "oracle-mean"),
            (EstimatorKind::Ewma, "ewma"),
            (EstimatorKind::Windowed, "windowed"),
            (EstimatorKind::Probe, "probe"),
        ] {
            assert_eq!(estimator.label(), label);
            let c = SimulationConfig {
                estimator,
                ..SimulationConfig::small()
            };
            assert!(c.validate().is_ok());
        }
    }
}
