//! Least-Recently-Used caching over whole objects.

use crate::object::ObjectMeta;
use crate::policy::traits::UtilityPolicy;

/// Least-Recently-Used caching.
///
/// The classic recency-based baseline mentioned in Section 3.3 of the paper:
/// it caches whole objects and ranks them by how recently they were
/// accessed, ignoring both popularity counts and network bandwidth. Included
/// for baseline comparisons and ablations.
///
/// The utility is the logical access clock supplied by the engine, so a
/// larger utility means "accessed more recently" — and nothing else, which
/// [`utility_is_access_clock`](UtilityPolicy::utility_is_access_clock)
/// declares: the engine then keeps LRU's objects in a recency list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lru;

impl Lru {
    /// Creates the LRU policy.
    pub fn new() -> Self {
        Lru
    }
}

impl UtilityPolicy for Lru {
    fn name(&self) -> String {
        "LRU".to_string()
    }

    fn utility(&self, _meta: &ObjectMeta, _frequency: u64, _bandwidth_bps: f64, clock: u64) -> f64 {
        clock as f64
    }

    fn target_bytes(&self, meta: &ObjectMeta, _bandwidth_bps: f64) -> f64 {
        meta.size_bytes()
    }

    fn allows_partial_admission(&self) -> bool {
        false
    }

    fn utility_is_access_clock(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectKey;

    #[test]
    fn recency_drives_utility() {
        let p = Lru::new();
        let obj = ObjectMeta::new(ObjectKey::new(1), 10.0, 1_000.0, 0.0);
        assert!(p.utility(&obj, 100, 1.0, 5) < p.utility(&obj, 1, 1.0, 6));
        assert_eq!(p.target_bytes(&obj, 0.0), obj.size_bytes());
        assert!(!p.allows_partial_admission());
        assert_eq!(p.name(), "LRU");
    }
}
