//! Running statistics of a cache instance, plus the lock-free atomic
//! counterpart aggregated by the sharded engine.

use crate::engine::AccessOutcome;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters maintained by the [`CacheEngine`](crate::CacheEngine).
///
/// The byte-level counters directly support the paper's *traffic reduction
/// ratio* metric: the fraction of all requested bytes that were served from
/// the cache rather than the origin servers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Number of accesses processed.
    pub requests: u64,
    /// Accesses that found at least one cached byte of the object.
    pub hits: u64,
    /// Number of admissions (new allocations or allocation growth).
    pub admissions: u64,
    /// Number of objects evicted.
    pub evictions: u64,
    /// Total bytes requested (sum of full object sizes over all accesses).
    pub bytes_requested: f64,
    /// Bytes served from the cache (cached prefix available at access time).
    pub bytes_from_cache: f64,
    /// Bytes that had to be fetched from origin servers.
    pub bytes_from_origin: f64,
    /// Total bytes written into the cache by admissions.
    pub bytes_admitted: f64,
    /// Total bytes released by evictions.
    pub bytes_evicted: f64,
}

impl CacheStats {
    /// Fraction of requested bytes served by the cache (the paper's traffic
    /// reduction ratio). Zero when nothing was requested.
    pub fn traffic_reduction_ratio(&self) -> f64 {
        if self.bytes_requested > 0.0 {
            self.bytes_from_cache / self.bytes_requested
        } else {
            0.0
        }
    }

    /// Fraction of accesses that found at least one cached byte.
    pub fn hit_ratio(&self) -> f64 {
        if self.requests > 0 {
            self.hits as f64 / self.requests as f64
        } else {
            0.0
        }
    }

    /// Resets all counters (used when switching from warm-up to measurement).
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }
}

/// Lock-free mirror of [`CacheStats`], updated with relaxed atomics.
///
/// The [`ShardedEngine`](crate::ShardedEngine) aggregates its per-access
/// statistics here so that [`snapshot`](Self::snapshot) never has to take a
/// shard lock. Integer counters are plain relaxed `fetch_add`s; the `f64`
/// byte counters are stored as IEEE-754 bit patterns in `AtomicU64`s and
/// accumulated with a compare-exchange loop.
///
/// Single-threaded, the accumulation order matches the engine's own
/// [`CacheStats`] updates add for add, so a one-shard engine reproduces the
/// unsharded counters bit for bit. Under concurrency the interleaving of
/// `f64` additions is scheduling-dependent (floating-point addition is not
/// associative), so byte counters are exact sums of the recorded
/// contributions but their low bits depend on thread timing.
#[derive(Debug, Default)]
pub struct AtomicCacheStats {
    requests: AtomicU64,
    hits: AtomicU64,
    admissions: AtomicU64,
    evictions: AtomicU64,
    /// `f64` totals stored as bit patterns.
    bytes_requested: AtomicU64,
    bytes_from_cache: AtomicU64,
    bytes_from_origin: AtomicU64,
    bytes_admitted: AtomicU64,
    bytes_evicted: AtomicU64,
}

/// Adds `v` to the `f64` total stored in `cell` as IEEE-754 bits.
fn add_f64(cell: &AtomicU64, v: f64) {
    if v == 0.0 {
        return;
    }
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(current) + v).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(observed) => current = observed,
        }
    }
}

impl AtomicCacheStats {
    /// Creates a zeroed counter block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed access from its outcome: request/hit counts,
    /// the byte split of the request, and the admission (if any). Evicted
    /// bytes are recorded separately via
    /// [`record_evicted_bytes`](Self::record_evicted_bytes) so each
    /// victim's contribution lands as its own addition, matching the
    /// engine's accumulation order.
    pub fn record_access(&self, size_bytes: f64, out: &AccessOutcome) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if out.bytes_from_cache > 0.0 {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        add_f64(&self.bytes_requested, size_bytes);
        add_f64(&self.bytes_from_cache, out.bytes_from_cache);
        add_f64(&self.bytes_from_origin, out.bytes_from_origin);
        if out.admitted {
            self.admissions.fetch_add(1, Ordering::Relaxed);
            add_f64(
                &self.bytes_admitted,
                out.cached_bytes_after - out.cached_bytes_before,
            );
        }
        self.evictions
            .fetch_add(out.evictions as u64, Ordering::Relaxed);
    }

    /// Records one eviction's byte count (admission-driven victims and
    /// `clear` both funnel through here).
    pub fn record_evicted_bytes(&self, bytes: f64) {
        add_f64(&self.bytes_evicted, bytes);
    }

    /// Records `count` evictions that are not part of any access outcome
    /// (`clear`); their bytes go through
    /// [`record_evicted_bytes`](Self::record_evicted_bytes), victim by victim.
    pub fn record_evictions(&self, count: u64) {
        self.evictions.fetch_add(count, Ordering::Relaxed);
    }

    /// A point-in-time [`CacheStats`] view of the counters (relaxed loads;
    /// fields read concurrently with updates may be mutually torn by one
    /// in-flight access).
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            admissions: self.admissions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_requested: f64::from_bits(self.bytes_requested.load(Ordering::Relaxed)),
            bytes_from_cache: f64::from_bits(self.bytes_from_cache.load(Ordering::Relaxed)),
            bytes_from_origin: f64::from_bits(self.bytes_from_origin.load(Ordering::Relaxed)),
            bytes_admitted: f64::from_bits(self.bytes_admitted.load(Ordering::Relaxed)),
            bytes_evicted: f64::from_bits(self.bytes_evicted.load(Ordering::Relaxed)),
        }
    }

    /// Resets every counter to zero (warm-up/measurement boundary).
    pub fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.admissions.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.bytes_requested.store(0, Ordering::Relaxed);
        self.bytes_from_cache.store(0, Ordering::Relaxed);
        self.bytes_from_origin.store(0, Ordering::Relaxed);
        self.bytes_admitted.store(0, Ordering::Relaxed);
        self.bytes_evicted.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_empty_stats() {
        let s = CacheStats::default();
        assert_eq!(s.traffic_reduction_ratio(), 0.0);
        assert_eq!(s.hit_ratio(), 0.0);
    }

    #[test]
    fn ratios_compute() {
        let s = CacheStats {
            requests: 10,
            hits: 4,
            bytes_requested: 100.0,
            bytes_from_cache: 25.0,
            bytes_from_origin: 75.0,
            ..Default::default()
        };
        assert!((s.traffic_reduction_ratio() - 0.25).abs() < 1e-12);
        assert!((s.hit_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = CacheStats {
            requests: 5,
            ..Default::default()
        };
        s.reset();
        assert_eq!(s, CacheStats::default());
    }

    fn outcome(
        from_cache: f64,
        from_origin: f64,
        admitted: bool,
        evictions: usize,
    ) -> AccessOutcome {
        AccessOutcome {
            cached_bytes_before: 0.0,
            cached_bytes_after: if admitted { from_origin } else { 0.0 },
            bytes_from_cache: from_cache,
            bytes_from_origin: from_origin,
            evictions,
            admitted,
        }
    }

    #[test]
    fn atomic_stats_record_and_snapshot() {
        let stats = AtomicCacheStats::new();
        stats.record_access(100.0, &outcome(0.0, 100.0, true, 0));
        stats.record_access(100.0, &outcome(40.0, 60.0, false, 1));
        stats.record_evicted_bytes(25.0);
        let snap = stats.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.hits, 1);
        assert_eq!(snap.admissions, 1);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.bytes_requested, 200.0);
        assert_eq!(snap.bytes_from_cache, 40.0);
        assert_eq!(snap.bytes_from_origin, 160.0);
        assert_eq!(snap.bytes_admitted, 100.0);
        assert_eq!(snap.bytes_evicted, 25.0);
        stats.reset();
        assert_eq!(stats.snapshot(), CacheStats::default());
    }

    #[test]
    fn atomic_stats_sum_exactly_under_concurrency() {
        // Integer counters and the *sum* of byte contributions must be
        // exact regardless of interleaving (each thread adds integral
        // values, so f64 addition here is lossless in any order).
        let stats = std::sync::Arc::new(AtomicCacheStats::new());
        let threads: u64 = 4;
        let per_thread: u64 = 1_000;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let stats = std::sync::Arc::clone(&stats);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        stats.record_access(8.0, &outcome(3.0, 5.0, false, 0));
                        stats.record_evicted_bytes(2.0);
                    }
                });
            }
        });
        let snap = stats.snapshot();
        let n = (threads * per_thread) as f64;
        assert_eq!(snap.requests, threads * per_thread);
        assert_eq!(snap.hits, threads * per_thread);
        assert_eq!(snap.bytes_requested, 8.0 * n);
        assert_eq!(snap.bytes_from_cache, 3.0 * n);
        assert_eq!(snap.bytes_from_origin, 5.0 * n);
        assert_eq!(snap.bytes_evicted, 2.0 * n);
    }
}
