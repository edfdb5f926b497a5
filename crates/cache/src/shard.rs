//! N-way sharding of the cache engine for concurrent callers.
//!
//! A single [`CacheEngine`] behind one mutex serializes every request that
//! touches the cache — the scalability ceiling of the proxy's worker pool.
//! [`ShardedEngine`] splits the key space across `N` independent engine
//! slabs (key hash → shard via the Fx mix, [`fx::hash_u64`]), each with its
//! own lock, utility heap, key→slot interning and byte budget, so accesses
//! to different shards never contend. Each access is tallied once, in its
//! shard's own [`CacheStats`] under the shard lock; the aggregate
//! ([`stats`](ShardedEngine::stats)) is the sum of those.
//!
//! **Budgets.** The global byte budget is split evenly across shards
//! (floored, with the remainder going to shard 0) and never moves: eviction
//! is local to each shard, so an object competes only with the objects that
//! hash to its shard, and an allocation changes only while its own shard
//! processes an access.
//!
//! **Ownership.** Each shard can carry a caller-defined *companion* `S`
//! under the same mutex as its engine (`ShardedEngine<P, S>`, `S = ()` by
//! default). A caller that keeps per-object state beside the cache — the
//! proxy's object records and stored prefixes — puts it there, indexed by the
//! shard-local slot handle, and updates it inside
//! [`access_with`](ShardedEngine::access_with) from the access outcome and
//! [`CacheEngine::last_evictions`]: one lock covers the decision and
//! everything that must agree with it.
//!
//! **Determinism.** `shards = 1` routes every key to one engine whose
//! behaviour — outcomes, contents, and statistics, bit for bit — is
//! identical to an unsharded [`CacheEngine`] with the same capacity, which
//! is why the simulator's determinism-pinned paths keep using the plain
//! engine (or one shard) while the proxy shards freely. With several
//! shards, single-threaded runs are still deterministic (routing is a pure
//! hash); under concurrency the interleaving of accesses to the *same*
//! shard is scheduling-dependent, like any locked cache — the aggregate
//! counters are as exact as each shard's, since they are their sum.

use crate::engine::CacheEngine;
use crate::error::CacheError;
use crate::fx;
use crate::object::{ObjectKey, ObjectMeta};
use crate::policy::UtilityPolicy;
use crate::stats::CacheStats;
use crate::AccessOutcome;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Takes a shard's lock, recovering the guard if a panic poisoned it: a
/// caller's closure that panics under the lock must not take the shard out
/// of service for every later request routed to it.
fn lock<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An array of independent [`CacheEngine`] shards routed by key hash, each
/// optionally paired with a companion `S` under the same lock.
///
/// Concurrency-safe by shard: all methods take `&self`, so the engine can
/// sit directly in an `Arc` shared across worker threads.
///
/// ```
/// use sc_cache::policy::PolicyKind;
/// use sc_cache::{ObjectKey, ObjectMeta, ShardedEngine};
///
/// # fn main() -> Result<(), sc_cache::CacheError> {
/// let cache = ShardedEngine::new(10_000_000.0, 4, || PolicyKind::PartialBandwidth)?;
/// let obj = ObjectMeta::new(ObjectKey::new(1), 100.0, 48_000.0, 0.0);
/// cache.on_access(&obj, 24_000.0);
/// assert_eq!(cache.cached_bytes(obj.key), obj.size_bytes() / 2.0);
/// assert_eq!(cache.stats().requests, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ShardedEngine<P, S = ()> {
    shards: Vec<Mutex<(CacheEngine<P>, S)>>,
    capacity_bytes: f64,
}

impl<P: UtilityPolicy> ShardedEngine<P> {
    /// Creates `shards` engine slabs sharing `capacity_bytes`, without
    /// companions; see [`with_companions`](Self::with_companions).
    ///
    /// # Errors
    ///
    /// [`CacheError::InvalidCapacity`] for a negative or non-finite
    /// capacity, [`CacheError::InvalidShardCount`] for zero shards.
    pub fn new(
        capacity_bytes: f64,
        shards: usize,
        make_policy: impl FnMut() -> P,
    ) -> Result<Self, CacheError> {
        Self::with_companions(capacity_bytes, shards, make_policy, || ())
    }

    /// Removes every cached object from every shard and returns the number
    /// of evictions. Frequencies and statistics are preserved; each shard
    /// counts its own victims, exactly as [`CacheEngine::clear`] does.
    ///
    /// Only offered without companions: a companion learns of evictions
    /// from the access that caused them, and this is not an access.
    pub fn clear(&self) -> usize {
        self.shards.iter().map(|s| lock(s).0.clear()).sum()
    }
}

impl<P: UtilityPolicy, S> ShardedEngine<P, S> {
    /// Creates `shards` engine slabs sharing `capacity_bytes`: every shard
    /// gets `floor(capacity / shards)` bytes and shard 0 additionally keeps
    /// the remainder, so the budgets sum to the global capacity exactly.
    ///
    /// `make_policy` and `make_companion` are called once per shard
    /// (policies may carry state, so each shard owns its own instance).
    ///
    /// # Errors
    ///
    /// [`CacheError::InvalidCapacity`] for a negative or non-finite
    /// capacity, [`CacheError::InvalidShardCount`] for zero shards.
    pub fn with_companions(
        capacity_bytes: f64,
        shards: usize,
        mut make_policy: impl FnMut() -> P,
        mut make_companion: impl FnMut() -> S,
    ) -> Result<Self, CacheError> {
        if shards == 0 {
            return Err(CacheError::InvalidShardCount(shards));
        }
        if !capacity_bytes.is_finite() || capacity_bytes < 0.0 {
            return Err(CacheError::InvalidCapacity(capacity_bytes));
        }
        let per_shard = (capacity_bytes / shards as f64).floor();
        let shard0 = capacity_bytes - per_shard * (shards - 1) as f64;
        let shards = (0..shards)
            .map(|i| {
                let budget = if i == 0 { shard0 } else { per_shard };
                let engine = CacheEngine::new(budget, make_policy())?;
                Ok(Mutex::new((engine, make_companion())))
            })
            .collect::<Result<Vec<_>, CacheError>>()?;
        Ok(ShardedEngine {
            shards,
            capacity_bytes,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global byte budget (sum of all shard capacities).
    pub fn capacity_bytes(&self) -> f64 {
        self.capacity_bytes
    }

    /// The shard `key` routes to: `fx::hash_u64(key) % shards`.
    pub fn shard_of(&self, key: ObjectKey) -> usize {
        (fx::hash_u64(key.as_u64()) % self.shards.len() as u64) as usize
    }

    /// Byte budget of shard `index` (fixed at construction).
    pub fn shard_capacity(&self, index: usize) -> f64 {
        lock(&self.shards[index]).0.capacity_bytes()
    }

    /// Bytes currently allocated in shard `index`.
    pub fn shard_used_bytes(&self, index: usize) -> f64 {
        lock(&self.shards[index]).0.used_bytes()
    }

    /// Total bytes allocated across all shards (locks each shard briefly;
    /// a moving target under concurrent writers).
    pub fn used_bytes(&self) -> f64 {
        self.shards.iter().map(|s| lock(s).0.used_bytes()).sum()
    }

    /// Number of objects with a cached prefix across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).0.len()).sum()
    }

    /// Returns `true` if nothing is cached anywhere.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock(s).0.is_empty())
    }

    /// Aggregate statistics: the field-wise sum of the shards' own counters
    /// in shard order (locks each shard briefly; not atomic across shards
    /// under concurrent writers). With one shard this *is* the engine's
    /// [`CacheStats`].
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total += *lock(shard).0.stats();
        }
        total
    }

    /// Runs `f` with the engine shard that `key` routes to and its
    /// companion, under that shard's lock. The engine is read-only here —
    /// accesses go through [`access_with`](Self::access_with), which brings
    /// the companion in line with them. The closure must not call back into
    /// this `ShardedEngine` (the shard lock is held).
    pub fn with_shard<R>(&self, key: ObjectKey, f: impl FnOnce(&CacheEngine<P>, &mut S) -> R) -> R {
        self.with_shard_index(self.shard_of(key), f)
    }

    /// Runs `f` with shard `index` under its lock (observability walks).
    pub fn with_shard_index<R>(
        &self,
        index: usize,
        f: impl FnOnce(&CacheEngine<P>, &mut S) -> R,
    ) -> R {
        let (engine, companion) = &mut *lock(&self.shards[index]);
        f(engine, companion)
    }

    /// Processes one access on the shard `meta.key` routes to. Semantics
    /// per shard are exactly [`CacheEngine::on_access`].
    pub fn on_access(&self, meta: &ObjectMeta, bandwidth_bps: f64) -> AccessOutcome {
        self.access_with(meta, bandwidth_bps, |_, _, out| out)
    }

    /// [`on_access`](Self::on_access), then `f` under the same shard lock:
    /// where the companion is brought in line with the access, from the
    /// outcome and the engine's [`last_evictions`](CacheEngine::last_evictions).
    /// `f`'s return value is passed through.
    pub fn access_with<R>(
        &self,
        meta: &ObjectMeta,
        bandwidth_bps: f64,
        f: impl FnOnce(&CacheEngine<P>, &mut S, AccessOutcome) -> R,
    ) -> R {
        let (engine, companion) = &mut *lock(&self.shards[self.shard_of(meta.key)]);
        let out = engine.on_access(meta, bandwidth_bps);
        f(engine, companion, out)
    }

    /// Bytes of `key` currently cached (0 when absent).
    pub fn cached_bytes(&self, key: ObjectKey) -> f64 {
        self.with_shard(key, |engine, _| engine.cached_bytes(key))
    }

    /// Whether any prefix of `key` is cached.
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.with_shard(key, |engine, _| engine.contains(key))
    }

    /// Number of requests observed for `key` so far.
    pub fn frequency(&self, key: ObjectKey) -> u64 {
        self.with_shard(key, |engine, _| engine.frequency(key))
    }

    /// Snapshot of the full cache contents as `(key, cached_bytes)` pairs,
    /// shard by shard, in unspecified order within each shard. Not atomic
    /// across shards under concurrent writers.
    pub fn contents(&self) -> Vec<(ObjectKey, f64)> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend(lock(shard).0.contents());
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    const R: f64 = 48_000.0;

    fn obj(key: u64, duration: f64) -> ObjectMeta {
        ObjectMeta::new(ObjectKey::new(key), duration, R, 1.0)
    }

    #[test]
    fn rejects_bad_construction() {
        assert!(matches!(
            ShardedEngine::new(1e6, 0, || PolicyKind::PartialBandwidth),
            Err(CacheError::InvalidShardCount(0))
        ));
        assert!(ShardedEngine::new(-1.0, 2, || PolicyKind::PartialBandwidth).is_err());
        assert!(ShardedEngine::new(f64::NAN, 2, || PolicyKind::PartialBandwidth).is_err());
    }

    #[test]
    fn budget_split_sums_to_capacity_with_remainder_on_shard_zero() {
        let capacity = 10_000_000.0 + 7.0;
        let cache = ShardedEngine::new(capacity, 3, || PolicyKind::PartialBandwidth).unwrap();
        let per = (capacity / 3.0).floor();
        assert_eq!(cache.shard_capacity(1), per);
        assert_eq!(cache.shard_capacity(2), per);
        assert_eq!(cache.shard_capacity(0), capacity - 2.0 * per);
        let total: f64 = (0..3).map(|i| cache.shard_capacity(i)).sum();
        assert_eq!(total, capacity);
        // One shard gets everything.
        let one = ShardedEngine::new(capacity, 1, || PolicyKind::PartialBandwidth).unwrap();
        assert_eq!(one.shard_capacity(0), capacity);
    }

    #[test]
    fn routing_is_stable_and_covers_all_shards() {
        let cache = ShardedEngine::new(1e9, 4, || PolicyKind::PartialBandwidth).unwrap();
        let mut seen = [false; 4];
        for k in 0..64 {
            let key = ObjectKey::new(k);
            let s = cache.shard_of(key);
            assert_eq!(s, cache.shard_of(key), "routing must be stable");
            assert_eq!(
                s,
                (fx::hash_u64(k) % 4) as usize,
                "routing must be the documented hash"
            );
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 keys must hit all 4 shards");
    }

    #[test]
    fn accesses_land_on_their_shard_and_aggregate() {
        let cache = ShardedEngine::new(1e9, 4, || PolicyKind::PartialBandwidth).unwrap();
        for k in 0..16 {
            cache.on_access(&obj(k, 100.0), R / 2.0);
        }
        assert_eq!(cache.stats().requests, 16);
        assert_eq!(cache.len(), 16);
        for k in 0..16 {
            let key = ObjectKey::new(k);
            let shard = cache.shard_of(key);
            let in_shard = cache.with_shard_index(shard, |engine, _| engine.cached_bytes(key));
            assert_eq!(in_shard, cache.cached_bytes(key));
            assert!(in_shard > 0.0);
        }
        let total: f64 = cache.contents().iter().map(|&(_, b)| b).sum();
        assert!((total - cache.used_bytes()).abs() < 1e-6);
    }

    #[test]
    fn clear_empties_every_shard_and_counts_evictions() {
        let cache = ShardedEngine::new(1e9, 4, || PolicyKind::PartialBandwidth).unwrap();
        for k in 0..16 {
            cache.on_access(&obj(k, 100.0), R / 2.0);
        }
        let cached = cache.len();
        assert_eq!(cache.clear(), cached);
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0.0);
        assert_eq!(cache.stats().evictions, cached as u64);
        // Frequencies survive, as in the unsharded engine.
        assert_eq!(cache.frequency(ObjectKey::new(0)), 1);
    }

    #[test]
    fn boxed_policies_shard_too() {
        let kind = PolicyKind::PartialBandwidth;
        let cache = ShardedEngine::new(1e9, 3, || kind.build()).unwrap();
        let o = obj(1, 100.0);
        let out = cache.on_access(&o, R / 2.0);
        assert!(out.admitted);
        assert_eq!(cache.cached_bytes(o.key), o.size_bytes() / 2.0);
    }

    #[test]
    fn companion_is_per_shard() {
        // Each shard's companion records the slots its own accesses touched
        // and evicted, under the lock of the access that caused them.
        let unit = obj(0, 100.0).size_bytes();
        let cache: ShardedEngine<_, Vec<(u32, usize)>> = ShardedEngine::with_companions(
            2.0 * unit,
            2,
            || PolicyKind::IntegralBandwidth,
            Vec::new,
        )
        .unwrap();
        let record = |o: &ObjectMeta, bandwidth: f64| {
            cache.access_with(o, bandwidth, |engine, seen, out| {
                assert_eq!(engine.last_evictions().len(), out.evictions);
                let slot = engine.slot_of(o.key).expect("accessed keys are interned");
                seen.push((slot, out.evictions));
            })
        };
        // Two objects routed to one shard, each filling its one-unit budget:
        // the second, behind a slower path, evicts the first.
        let a = obj(1, 100.0);
        let b = (2..)
            .map(|k| obj(k, 100.0))
            .find(|o| cache.shard_of(o.key) == cache.shard_of(a.key))
            .unwrap();
        record(&a, R / 2.0);
        record(&b, R / 10.0);
        let shard = cache.shard_of(a.key);
        assert_eq!(
            cache.with_shard_index(shard, |_, seen| seen.clone()),
            vec![(0, 0), (1, 1)]
        );
        // The other shard saw nothing.
        assert!(cache.with_shard_index(1 - shard, |_, seen| seen.is_empty()));
    }

    #[test]
    fn a_closure_that_panics_under_the_lock_leaves_its_shard_in_service() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let cache: ShardedEngine<_, Vec<u32>> =
            ShardedEngine::with_companions(1e9, 2, || PolicyKind::PartialBandwidth, Vec::new)
                .unwrap();
        let o = obj(1, 100.0);
        cache.access_with(&o, R / 2.0, |_, seen, _| seen.push(1));
        let read = catch_unwind(AssertUnwindSafe(|| {
            cache.with_shard(o.key, |_, _| panic!("a reader panics under the shard lock"))
        }));
        assert!(read.is_err());
        assert!(cache.shards[cache.shard_of(o.key)].is_poisoned());
        let write = catch_unwind(AssertUnwindSafe(|| {
            cache.access_with(&o, R / 2.0, |_, seen, _| {
                seen.push(2);
                panic!("an access's closure panics under the shard lock")
            })
        }));
        assert!(write.is_err());
        // The same shard still serves: both earlier accesses counted, and
        // the companion keeps what the panicking closure pushed.
        let out = cache.on_access(&o, R / 2.0);
        assert_eq!(out.cached_bytes_after, o.size_bytes() / 2.0);
        assert_eq!(cache.stats().requests, 3);
        assert_eq!(cache.contents(), vec![(o.key, o.size_bytes() / 2.0)]);
        assert_eq!(cache.with_shard(o.key, |_, seen| seen.clone()), vec![1, 2]);
    }
}
