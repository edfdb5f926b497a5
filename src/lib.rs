//! # streamcache — network-aware partial caching for streaming media
//!
//! An open-source reproduction of *Accelerating Internet Streaming Media
//! Delivery using Network-Aware Partial Caching* (Shudong Jin, Azer
//! Bestavros, Arun Iyengar; ICDCS 2002).
//!
//! This umbrella crate re-exports the workspace's component crates:
//!
//! | Module | Crate | What it provides |
//! |--------|-------|------------------|
//! | [`cache`] | `sc-cache` | The paper's contribution: partial-caching allocation math, the IF/IB/PB/PB(e)/PB-V/IB-V replacement policies (one `PolicyKind` enum), the cache engine, and the offline optimal solvers. |
//! | [`workload`] | `sc-workload` | GISMO-like synthetic workload generation (Zipf popularity, Poisson arrivals, lognormal durations). |
//! | [`netmodel`] | `sc-netmodel` | Bandwidth models: NLANR-like base distribution, variability models, time series, TCP throughput, bandwidth estimators. |
//! | [`sim`] | `sc-sim` | The simulator and the per-figure experiment drivers (`fig5` … `fig13`, `table1`). |
//! | [`proxy`] | `sc-proxy` | A runnable origin + caching proxy + measuring client prototype over TCP. |
//!
//! ## Quick start
//!
//! ```
//! use streamcache::cache::policy::PolicyKind;
//! use streamcache::cache::{CacheEngine, ObjectKey, ObjectMeta};
//!
//! # fn main() -> Result<(), streamcache::cache::CacheError> {
//! // A one-hour, 48 KB/s stream reachable over a 20 KB/s path.
//! let movie = ObjectMeta::new(ObjectKey::new(1), 3_600.0, 48_000.0, 0.0);
//! let bandwidth = 20_000.0;
//!
//! let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth)?;
//! cache.on_access(&movie, bandwidth);
//!
//! // The cache stores exactly the bandwidth-deficit prefix, which removes
//! // the startup delay for subsequent viewers.
//! let cached = cache.cached_bytes(movie.key);
//! assert_eq!(cached, (48_000.0 - 20_000.0) * 3_600.0);
//! assert_eq!(movie.service_delay(bandwidth, cached), 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios and `crates/bench`
//! for the harness that regenerates every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The core caching library (`sc-cache`).
pub use sc_cache as cache;
/// Bandwidth and network models (`sc-netmodel`).
pub use sc_netmodel as netmodel;
/// The streaming proxy prototype (`sc-proxy`).
pub use sc_proxy as proxy;
/// The simulator and experiment drivers (`sc-sim`).
pub use sc_sim as sim;
/// Synthetic workload generation (`sc-workload`).
pub use sc_workload as workload;
