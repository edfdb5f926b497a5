//! # sc-netmodel — Internet bandwidth models for streaming-media caching
//!
//! The caching algorithms of *Accelerating Internet Streaming Media Delivery
//! using Network-Aware Partial Caching* (Jin, Bestavros, Iyengar; ICDCS 2002)
//! are **network-aware**: they rank objects by how bandwidth-poor the path to
//! the origin server is. This crate provides the bandwidth models the paper
//! uses in its evaluation:
//!
//! * [`NlanrBandwidthModel`] — the base (per-path average) bandwidth
//!   distribution, calibrated to the NLANR proxy-log statistics reported in
//!   Figure 2 of the paper (37 % of paths below 50 KB/s, 56 % below
//!   100 KB/s).
//! * [`VariabilityModel`] — sample-to-mean ratio distributions: the
//!   high-variability NLANR-log model of Figure 3 and the lower-variability
//!   measured-path models of Figure 4.
//! * [`BandwidthTimeSeries`] — mean-reverting bandwidth evolution processes
//!   for Figure 4 style time-series plots.
//! * [`PathSet`] — the per-object cache↔origin paths used by the simulator:
//!   one mean bandwidth per path beside the one variability model they all
//!   share (Section 4.3 gives every path the same ratio model).
//! * [`EstimatorBank`] — what a cache knows about each origin path: the
//!   estimate a placement decision uses and the transfers that teach it,
//!   per [`EstimatorKind`] (oracle, passive EWMA or windowed
//!   [`BandwidthEstimator`]s, active probe; Section 2.7). Both simulator
//!   modes and the runnable proxy decide through it.
//!
//! ```
//! use sc_netmodel::{NlanrBandwidthModel, PathSet, VariabilityModel};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // One path per origin server, averages drawn from the NLANR-like model,
//! // per-request variation following the measured-path model.
//! let paths = PathSet::generate(
//!     1_000,
//!     &NlanrBandwidthModel::paper_default(),
//!     VariabilityModel::measured_path_moderate(),
//!     &mut rng,
//! );
//! let bw = paths.bandwidth_sample(0, &mut rng);
//! assert!(bw > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod empirical;
mod error;
mod estimator;
mod hist;
mod nlanr;
mod paths;
pub mod stats;
mod timeseries;
mod variability;

pub use empirical::EmpiricalDistribution;
pub use error::NetModelError;
pub use estimator::{
    BandwidthEstimator, EstimatorBank, EstimatorKind, EwmaEstimator, WindowedEstimator,
};
pub use hist::Histogram;
pub use nlanr::{NlanrBandwidthModel, BYTES_PER_KB};
pub use paths::PathSet;
pub use stats::Summary;
pub use timeseries::{BandwidthTimeSeries, TimeSeriesConfig, SAMPLE_INTERVAL_SECS};
pub use variability::VariabilityModel;
