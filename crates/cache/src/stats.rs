//! Running statistics of a cache instance. The sharded engine keeps no
//! tally of its own: its aggregate is the sum of its shards' counters.

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
}

/// Field-wise sum: how [`ShardedEngine::stats`](crate::ShardedEngine::stats)
/// folds its shards' counters, in shard order.
impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.admissions += other.admissions;
        self.evictions += other.evictions;
        self.bytes_requested += other.bytes_requested;
        self.bytes_from_cache += other.bytes_from_cache;
        self.bytes_from_origin += other.bytes_from_origin;
        self.bytes_admitted += other.bytes_admitted;
        self.bytes_evicted += other.bytes_evicted;
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
}
