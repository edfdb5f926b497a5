//! # sc-workload — synthetic streaming-media workload generation
//!
//! This crate re-implements the parts of the GISMO toolset (Jin & Bestavros,
//! *GISMO: Generator of Streaming Media Objects and Workloads*, PER 2001)
//! that are needed to reproduce the evaluation of *Accelerating Internet
//! Streaming Media Delivery using Network-Aware Partial Caching*
//! (Jin, Bestavros, Iyengar; ICDCS 2002).
//!
//! The generated workload follows Table 1 of the paper:
//!
//! | Characteristic        | Value                                   |
//! |-----------------------|-----------------------------------------|
//! | Number of objects     | 5,000                                   |
//! | Object popularity     | Zipf-like, α = 0.73                     |
//! | Number of requests    | 100,000                                 |
//! | Request arrivals      | Poisson                                 |
//! | Object duration       | Lognormal (µ = 3.85, σ = 0.56) minutes  |
//! | Object bit-rate       | 2 KB/frame × 24 frame/s = 48 KB/s       |
//! | Total unique bytes    | ≈ 790 GB                                |
//! | Object value          | Uniform($1, $10) (Section 4.4)          |
//!
//! # Quick start
//!
//! ```
//! use sc_workload::WorkloadConfig;
//!
//! # fn main() -> Result<(), sc_workload::WorkloadError> {
//! // A small workload (500 objects, 5,000 requests) for tests/examples.
//! let config = WorkloadConfig {
//!     seed: 42,
//!     ..WorkloadConfig::small()
//! };
//! let workload = config.generate()?;
//!
//! assert_eq!(workload.catalog.len(), 500);
//! assert_eq!(workload.trace.len(), 5_000);
//! # Ok(())
//! # }
//! ```
//!
//! The full paper-scale workload is [`WorkloadConfig::default`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod catalog;
mod error;
mod lognormal;
mod object;
mod poisson;
mod stats;
mod trace;
mod zipf;

pub use builder::{Workload, WorkloadConfig};
pub use catalog::{Catalog, CatalogConfig};
pub use error::WorkloadError;
pub use lognormal::LogNormal;
pub use object::{MediaObject, ObjectId};
pub use poisson::PoissonProcess;
pub use stats::{CatalogStats, TraceStats};
pub use trace::{Request, RequestTrace, SessionArrival, TraceConfig};
pub use zipf::ZipfLike;
