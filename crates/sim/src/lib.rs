//! # sc-sim — simulation of network-aware streaming-media caching
//!
//! A discrete-event-style simulator of the architecture evaluated in
//! *Accelerating Internet Streaming Media Delivery using Network-Aware
//! Partial Caching* (Jin, Bestavros, Iyengar; ICDCS 2002): clients request
//! CBR streaming objects through an edge cache; each object's origin server
//! is reached over a path with its own (possibly time-varying) bandwidth;
//! the cache runs one of the replacement policies from [`sc_cache`]; and
//! requests are delivered jointly from the cache and the origin.
//!
//! The crate provides:
//!
//! * [`SimulationConfig`] / [`run_simulation`] / [`run_sessions`] — one run
//!   in the per-request or the session mode;
//! * [`exec::run_grid`] / [`run_session_grid`] — one grid per mode, the
//!   only entry points that take a [`ParallelExecutor`]: a
//!   `configs × runs` grid of independent `(configuration, seed)` runs,
//!   sharded across threads (`SC_SIM_THREADS`, default = available
//!   parallelism) and averaged per configuration in deterministic seed
//!   order, so results are byte-identical to a sequential run. A
//!   replicated run is a one-configuration grid, a paired comparison a
//!   grid over several;
//! * [`BandwidthModel`] — the temporal structure of path bandwidth:
//!   i.i.d. per-request ratios or a mean-reverting AR(1) evolution
//!   ([`sc_netmodel::BandwidthTimeSeries`]) sampled on the simulation
//!   clock;
//! * [`EstimatorKind`] — what the caching algorithm knows about each path:
//!   an oracle long-run mean, passive EWMA/windowed measurement, or active
//!   probing. The kinds and their per-path [`EstimatorBank`] live in
//!   [`sc_netmodel`], shared with the runnable proxy, and are re-exported
//!   here; both modes decide through one estimate → access → learn step;
//! * [`Metrics`] — the paper's four metrics (traffic-reduction ratio,
//!   average service delay, average stream quality, total added value);
//! * [`sweep::sweep_policies`] — policies × cache sizes, one series per
//!   policy, on the environment-configured executor;
//! * [`experiments`] — one driver per table/figure of the paper
//!   (`table1`, `fig5` … `fig12`, plus the `fig13` estimator-staleness
//!   study), each returning a [`FigureResult`].
//!
//! ```
//! use sc_cache::policy::PolicyKind;
//! use sc_sim::{run_simulation, SimulationConfig};
//!
//! # fn main() -> Result<(), sc_sim::SimError> {
//! let config = SimulationConfig {
//!     policy: PolicyKind::PartialBandwidth,
//!     ..SimulationConfig::small()
//! }
//! .with_cache_fraction(0.05);
//! let result = run_simulation(&config)?;
//! assert!(result.metrics.traffic_reduction_ratio > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bandwidth;
mod config;
mod delivery;
pub mod event;
pub mod exec;
pub mod experiments;
mod metrics;
mod report;
mod runner;
pub mod session;
pub mod sweep;

pub use bandwidth::BandwidthProvider;
pub use config::{BandwidthModel, PathFaultModel, SimError, SimulationConfig, VariabilityKind};
pub use delivery::{deliver, DeliveryOutcome};
pub use event::{Event, EventKind, EventQueue};
pub use exec::{ExecConfig, ParallelExecutor, SharedWorkload, SimWorker};
pub use metrics::{Metrics, MetricsCollector, SessionMetrics};
pub use report::{FigurePoint, FigureResult, FigureSeries};
pub use runner::{run_sessions, run_simulation, RunResult};
pub use sc_netmodel::{EstimatorBank, EstimatorKind};
pub use session::{
    run_session_grid, simulate_sessions, simulate_sessions_with_faults, NoCacheHooks,
    PathFaultTimeline, SessionHooks, SessionRunResult, SessionSimOutput, SessionSpec, SessionState,
    SessionTelemetry, SessionWorker,
};
