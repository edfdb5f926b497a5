//! # sc-cache — network-aware partial caching for streaming media
//!
//! This crate implements the primary contribution of *Accelerating Internet
//! Streaming Media Delivery using Network-Aware Partial Caching* (Jin,
//! Bestavros, Iyengar; ICDCS 2002): cache-management algorithms that are
//! both **stream-aware** (they know each object's bit-rate and duration) and
//! **network-aware** (they know the available bandwidth to each origin
//! server), and that may cache *partial* objects — prefixes sized exactly to
//! bridge the gap between an object's bit-rate and the bandwidth of the path
//! it streams over.
//!
//! ## Components
//!
//! * [`ObjectMeta`] — object descriptors (duration `T`, bit-rate `r`,
//!   value `V`).
//! * Allocation math — [`prefix_bytes_needed`], [`service_delay_secs`],
//!   [`stream_quality`]: the formulas of Section 2.2.
//! * [`policy`] — every replacement algorithm evaluated in the paper
//!   (IF, IB, PB, PB(e), PB-V, IB-V) plus the LRU baseline, each one
//!   variant of [`policy::PolicyKind`], which implements the engine's
//!   [`policy::UtilityPolicy`] seam.
//! * [`CacheEngine`] — the online replacement engine of Section 2.4:
//!   frequency estimation, a utility [`UtilityHeap`] (or, for LRU, a
//!   recency list that evicts identically), admission and
//!   eviction. Per-object state lives in a dense slab addressed by `u32`
//!   slot handles, so the steady-state access path is hash-free and
//!   allocation-free (see `ARCHITECTURE.md`, "Hot path & performance").
//! * [`ShardedEngine`] — N-way sharding of the engine for concurrent
//!   callers: independent slabs routed by key hash, fixed per-shard byte
//!   budgets, an optional per-shard companion under the engine's lock, and
//!   aggregate statistics that are the sum of the shards' [`CacheStats`].
//! * [`fx`] — the hand-rolled Fx-style hasher behind the engine's thin
//!   key→slot interning map.
//! * Offline solvers — [`optimal_partial_allocation`] (the fractional
//!   knapsack optimum of Section 2.3), [`greedy_value_selection`] and
//!   [`exact_value_selection`] (the value-based knapsack of Section 2.6).
//!
//! ## Example: accelerating a bandwidth-starved object
//!
//! ```
//! use sc_cache::policy::PolicyKind;
//! use sc_cache::{CacheEngine, ObjectKey, ObjectMeta};
//!
//! # fn main() -> Result<(), sc_cache::CacheError> {
//! // A 10-minute, 48 KB/s clip reachable over a 24 KB/s path.
//! let clip = ObjectMeta::new(ObjectKey::new(42), 600.0, 48_000.0, 0.0);
//! let bandwidth = 24_000.0;
//!
//! // Without a cache the client waits for the whole bandwidth deficit.
//! assert_eq!(clip.service_delay(bandwidth, 0.0), 600.0);
//!
//! // A PB cache stores exactly the deficit prefix ...
//! let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth)?;
//! cache.on_access(&clip, bandwidth);
//! let cached = cache.cached_bytes(clip.key);
//! assert_eq!(cached, clip.size_bytes() / 2.0);
//!
//! // ... which hides the startup delay entirely on the next request.
//! assert_eq!(clip.service_delay(bandwidth, cached), 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
mod engine;
mod error;
pub mod fx;
mod heap;
mod object;
mod optimal;
mod order;
pub mod policy;
mod shard;
mod stats;

pub use alloc::{
    conservative_prefix_bytes, prefix_bytes_needed, service_delay_secs, stream_quality,
};
pub use engine::{AccessOutcome, CacheEngine};
pub use error::CacheError;
pub use heap::UtilityHeap;
pub use object::{ObjectKey, ObjectMeta};
pub use optimal::{
    average_service_delay, exact_value_selection, greedy_value_selection,
    optimal_partial_allocation, total_value, OfflineObject,
};
pub use shard::ShardedEngine;
pub use stats::CacheStats;
