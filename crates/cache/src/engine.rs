//! The cache engine: frequency tracking, utility heap, admission and
//! eviction (Section 2.4 of the paper), built around a dense slab object
//! table so the steady-state hot path performs no hashing and no heap
//! allocation.

use crate::error::CacheError;
use crate::fx::FxHashMap;
use crate::object::{ObjectKey, ObjectMeta};
use crate::order::EvictionOrder;
use crate::policy::UtilityPolicy;
use crate::stats::CacheStats;

/// Result of processing one access through the cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessOutcome {
    /// Bytes of the object cached *before* this access was processed; this
    /// is what the current request can actually be served from the cache.
    pub cached_bytes_before: f64,
    /// Bytes cached after admission/eviction decisions.
    pub cached_bytes_after: f64,
    /// Bytes of this request served from the cache
    /// (`min(cached_bytes_before, object size)`).
    pub bytes_from_cache: f64,
    /// Bytes of this request that must come from the origin server.
    pub bytes_from_origin: f64,
    /// Number of objects evicted while processing this access.
    pub evictions: usize,
    /// Whether the accessed object's allocation was created or grown.
    pub admitted: bool,
}

/// Per-object state, stored in one contiguous slab indexed by slot handle.
///
/// `cached_bytes > 0` if and only if the slot is in the eviction order: the
/// engine zeroes the field on every eviction, so membership, allocation
/// and frequency are all one indexed load away from a slot handle.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: ObjectKey,
    frequency: u64,
    cached_bytes: f64,
}

/// A streaming-media cache driven by a [`UtilityPolicy`].
///
/// The engine implements the replacement scheme of Section 2.4: it counts
/// request frequencies, keeps cached objects in a priority queue keyed by
/// utility, and on each access tries to bring the accessed object up to its
/// policy-defined target allocation, evicting strictly-lower-utility objects
/// as needed. Heap operations make each access `O(log n)` in the number of
/// cached objects; a policy that declares its utility to be the access
/// clock ([`UtilityPolicy::utility_is_access_clock`], i.e. LRU) is kept in a
/// recency list instead, `O(1)` per access with the same evictions.
///
/// Internally all per-object state (frequency, cached bytes, heap
/// position) lives in a dense slab addressed by `u32` slot handles. Callers
/// with dense object indices — the simulator, whose catalog ids are already
/// `0..N` — size the slab with [`ensure_slots`](Self::ensure_slots), after
/// which key `i < N` *is* slot `i`: neither
/// [`on_access_slot`](Self::on_access_slot) nor a keyed
/// [`on_access`](Self::on_access) of such a key hashes. Any other key is
/// interned through a thin Fx-hashed key→slot map (one fast hash per
/// access). In steady state no path allocates: eviction scratch space is a
/// reusable buffer and the heap writes positions back into a flat table.
///
/// ```
/// use sc_cache::policy::PolicyKind;
/// use sc_cache::{CacheEngine, ObjectKey, ObjectMeta};
///
/// # fn main() -> Result<(), sc_cache::CacheError> {
/// let mut cache = CacheEngine::new(10_000_000.0, PolicyKind::PartialBandwidth)?;
/// let obj = ObjectMeta::new(ObjectKey::new(1), 100.0, 48_000.0, 0.0);
///
/// // First access: a miss, but the object's bandwidth deficit is admitted.
/// let out = cache.on_access(&obj, 24_000.0);
/// assert_eq!(out.bytes_from_cache, 0.0);
/// assert!(out.admitted);
///
/// // Second access: half the object is now served from the cache.
/// let out = cache.on_access(&obj, 24_000.0);
/// assert_eq!(out.bytes_from_cache, obj.size_bytes() / 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CacheEngine<P> {
    capacity_bytes: f64,
    used_bytes: f64,
    policy: P,
    slots: Vec<Slot>,
    /// Keys below this count are their own slot handles
    /// ([`ensure_slots`](Self::ensure_slots)); they are never in
    /// `key_to_slot`.
    dense_keys: u64,
    /// The slot of every other key seen.
    key_to_slot: FxHashMap<ObjectKey, u32>,
    /// The cached slots by utility: a heap, or a recency list when the
    /// policy's utility is this engine's `clock`.
    order: EvictionOrder,
    /// Reusable victim buffer for [`rebalance`](Self::rebalance):
    /// `(slot, cached bytes, utility)` of each popped candidate. A commit
    /// leaves the victims in place for [`last_evictions`](Self::last_evictions);
    /// a rollback re-inserts them and empties the buffer.
    scratch: Vec<(u32, f64, f64)>,
    clock: u64,
    stats: CacheStats,
}

impl<P: UtilityPolicy> CacheEngine<P> {
    /// Creates a cache with the given capacity in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidCapacity`] if `capacity_bytes` is
    /// negative or not finite.
    pub fn new(capacity_bytes: f64, policy: P) -> Result<Self, CacheError> {
        if !capacity_bytes.is_finite() || capacity_bytes < 0.0 {
            return Err(CacheError::InvalidCapacity(capacity_bytes));
        }
        let order = EvictionOrder::new(policy.utility_is_access_clock());
        Ok(CacheEngine {
            capacity_bytes,
            used_bytes: 0.0,
            policy,
            slots: Vec::new(),
            dense_keys: 0,
            key_to_slot: FxHashMap::default(),
            order,
            scratch: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
        })
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> f64 {
        self.capacity_bytes
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> f64 {
        self.used_bytes
    }

    /// Number of objects with a cached prefix.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.order.len() == 0
    }

    /// Running statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Sizes the slab so that slot handle `i` denotes `ObjectKey::new(i)`
    /// for every `i < n` — the layout produced by dense catalogs, whose
    /// object ids are already indices `0..N`.
    ///
    /// The slab and the eviction order's handle table are reserved exactly;
    /// the keys are not interned. A key below `n` resolves to its slot
    /// arithmetically, so [`on_access_slot`](Self::on_access_slot) with the
    /// catalog index and the keyed [`on_access`](Self::on_access) are
    /// equivalent and **neither hashes**. Growing an existing slab is fine;
    /// already-allocated slots are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if the existing slab is not already dense — i.e. the engine
    /// interned a sparse key through [`on_access`](Self::on_access) before
    /// this call, so some slot `i` does not hold `ObjectKey::new(i)`. Call
    /// `ensure_slots` before the first access instead.
    pub fn ensure_slots(&mut self, n: usize) {
        assert!(n <= u32::MAX as usize, "slot handles are u32");
        // The dense guarantee must hold for every slot below n, including
        // ones allocated earlier: a sparse key interned before this call
        // would silently alias a different object onto a dense handle. A
        // key in `slots.len()..n` interned earlier sits at a slot below
        // `slots.len()`, so this scan finds it too. The scan is setup-time
        // only (ensure_slots runs once per run).
        for (i, slot) in self.slots.iter().enumerate().take(n) {
            assert!(
                slot.key == ObjectKey::new(i as u64),
                "slot {i} holds {}, not the dense key: ensure_slots must \
                 precede sparse keyed accesses",
                slot.key
            );
        }
        self.order.reserve_handles(n);
        self.slots.reserve_exact(n.saturating_sub(self.slots.len()));
        for i in self.slots.len()..n {
            self.slots.push(Slot {
                key: ObjectKey::new(i as u64),
                frequency: 0,
                cached_bytes: 0.0,
            });
        }
        self.dense_keys = self.dense_keys.max(n as u64);
    }

    /// The slot handle a key is interned at, if any: the key itself below
    /// the [`ensure_slots`](Self::ensure_slots) count, else the map's entry.
    pub fn slot_of(&self, key: ObjectKey) -> Option<u32> {
        if key.as_u64() < self.dense_keys {
            return Some(key.as_u64() as u32);
        }
        self.key_to_slot.get(&key).copied()
    }

    /// Interns `key`, allocating a fresh slot on first sight.
    fn slot_for(&mut self, key: ObjectKey) -> u32 {
        if let Some(slot) = self.slot_of(key) {
            return slot;
        }
        let slot = self.slots.len() as u32;
        self.key_to_slot.insert(key, slot);
        self.slots.push(Slot {
            key,
            frequency: 0,
            cached_bytes: 0.0,
        });
        slot
    }

    /// Bytes of `key` currently cached (0 when absent).
    pub fn cached_bytes(&self, key: ObjectKey) -> f64 {
        self.slot_of(key)
            .map_or(0.0, |s| self.slots[s as usize].cached_bytes)
    }

    /// Whether any prefix of `key` is cached.
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.slot_of(key).is_some_and(|s| self.order.contains(s))
    }

    /// Number of requests observed for `key` so far.
    pub fn frequency(&self, key: ObjectKey) -> u64 {
        self.slot_of(key)
            .map_or(0, |s| self.slots[s as usize].frequency)
    }

    /// Snapshot of the cache contents as `(key, cached_bytes)` pairs in
    /// unspecified order.
    pub fn contents(&self) -> Vec<(ObjectKey, f64)> {
        self.order
            .iter()
            .map(|(slot, _)| {
                let s = &self.slots[slot as usize];
                (s.key, s.cached_bytes)
            })
            .collect()
    }

    /// Removes every cached object and returns the number of evictions.
    /// Frequencies and statistics are preserved.
    pub fn clear(&mut self) -> usize {
        let n = self.order.len();
        for slot in &mut self.slots {
            if slot.cached_bytes > 0.0 {
                self.stats.evictions += 1;
                self.stats.bytes_evicted += slot.cached_bytes;
                slot.cached_bytes = 0.0;
            }
        }
        self.order.clear();
        self.used_bytes = 0.0;
        n
    }

    /// Processes one access to `meta` given the current estimate of the
    /// bandwidth between the cache and the object's origin server.
    ///
    /// This records the request, updates the object's utility, serves
    /// whatever prefix is already cached, and then tries to grow the
    /// object's allocation to the policy's target by evicting
    /// strictly-lower-utility objects.
    ///
    /// A key below the [`ensure_slots`](Self::ensure_slots) count is its
    /// own slot; any other key costs one Fx-hash lookup, and is interned on
    /// first sight.
    pub fn on_access(&mut self, meta: &ObjectMeta, bandwidth_bps: f64) -> AccessOutcome {
        let slot = self.slot_for(meta.key);
        self.access_slot(slot, meta, bandwidth_bps)
    }

    /// [`on_access`](Self::on_access) addressed by slot handle: the
    /// zero-hash, zero-allocation steady-state hot path.
    ///
    /// The slab must cover `slot` (via [`ensure_slots`](Self::ensure_slots)
    /// or earlier keyed accesses), and `meta.key` must be the key the slot
    /// was created with.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never allocated; debug-asserts the key match.
    pub fn on_access_slot(
        &mut self,
        slot: u32,
        meta: &ObjectMeta,
        bandwidth_bps: f64,
    ) -> AccessOutcome {
        assert!(
            (slot as usize) < self.slots.len(),
            "slot {slot} not allocated; call ensure_slots first"
        );
        debug_assert_eq!(
            self.slots[slot as usize].key, meta.key,
            "slot/key mismatch: slot {slot} holds {}, access says {}",
            self.slots[slot as usize].key, meta.key
        );
        self.access_slot(slot, meta, bandwidth_bps)
    }

    fn access_slot(&mut self, slot: u32, meta: &ObjectMeta, bandwidth_bps: f64) -> AccessOutcome {
        self.clock += 1;
        let s = &mut self.slots[slot as usize];
        s.frequency += 1;
        let freq = s.frequency;
        let size = meta.size_bytes();
        let cached_before = s.cached_bytes;
        let bytes_from_cache = cached_before.min(size);
        let bytes_from_origin = (size - bytes_from_cache).max(0.0);

        self.stats.requests += 1;
        if bytes_from_cache > 0.0 {
            self.stats.hits += 1;
        }
        self.stats.bytes_requested += size;
        self.stats.bytes_from_cache += bytes_from_cache;
        self.stats.bytes_from_origin += bytes_from_origin;

        let utility = self
            .policy
            .utility(meta, freq, bandwidth_bps, self.clock)
            .max(0.0);
        debug_assert!(!utility.is_nan(), "policy produced a NaN utility");
        let target = self
            .policy
            .target_bytes(meta, bandwidth_bps)
            .clamp(0.0, size);

        let (cached_after, evictions, admitted) =
            self.rebalance(slot, cached_before, target, utility);

        AccessOutcome {
            cached_bytes_before: cached_before,
            cached_bytes_after: cached_after,
            bytes_from_cache,
            bytes_from_origin,
            evictions,
            admitted,
        }
    }

    /// The victims the most recent access evicted, as
    /// `(slot, bytes, utility)` in eviction order: exactly
    /// [`AccessOutcome::evictions`] entries, so empty after an access that
    /// refreshed, admitted into free space or rolled its eviction attempt
    /// back.
    ///
    /// The engine only ever evicts a victim whole, and only while processing
    /// an access, so `(outcome.cached_bytes_after, last_evictions())` is the
    /// complete list of allocation changes that access made. Whoever keeps
    /// per-object state beside the engine — the proxy's stored prefixes, in
    /// the sharded wrapper's companion — reads it under the same lock as
    /// the access; no change log is kept.
    pub fn last_evictions(&self) -> &[(u32, f64, f64)] {
        &self.scratch
    }

    /// Grows (never shrinks) the allocation of `slot` towards `target`,
    /// evicting strictly-lower-utility victims when space is needed.
    /// Returns `(cached_after, evictions, admitted)`.
    fn rebalance(
        &mut self,
        slot: u32,
        cached_before: f64,
        target: f64,
        utility: f64,
    ) -> (f64, usize, bool) {
        // The scratch buffer is reused across accesses, so the steady state
        // allocates nothing; afterwards it holds this access's committed
        // victims (see `last_evictions`).
        self.scratch.clear();

        // Nothing to grow: refresh the key and return.
        if target <= cached_before {
            self.order.update(slot, utility);
            return (cached_before, 0, false);
        }

        // Conceptually take the object's current allocation out, then try to
        // re-admit it at the target size.
        if self.order.remove(slot).is_some() {
            self.used_bytes -= cached_before;
        }

        // Pop candidate victims (strictly lower utility) until the target
        // fits or no eligible victim remains. Eviction is committed only if
        // admission succeeds; otherwise the pops are rolled back.
        while self.capacity_bytes - self.used_bytes < target {
            match self.order.peek_min() {
                Some((victim, victim_utility)) if victim_utility < utility => {
                    self.order.pop_min();
                    let bytes = self.slots[victim as usize].cached_bytes;
                    self.used_bytes -= bytes;
                    self.scratch.push((victim, bytes, victim_utility));
                }
                _ => break,
            }
        }

        let available = (self.capacity_bytes - self.used_bytes).max(0.0);
        let grant = if self.policy.allows_partial_admission() {
            target.min(available)
        } else if available >= target {
            target
        } else {
            0.0
        };

        // Admission needs a non-zero grant that at least re-covers the old
        // allocation: a shrink would throw away bytes the object already
        // holds, and a zero grant means the policy (or the capacity) said
        // "do not cache". Equal-size re-admission commits — the evicted
        // victims stay out — but does not count as an admission.
        if grant > 0.0 && grant >= cached_before {
            // Commit: victims are gone for good, the object holds `grant`.
            for &(victim, bytes, _) in &self.scratch {
                self.slots[victim as usize].cached_bytes = 0.0;
                self.stats.evictions += 1;
                self.stats.bytes_evicted += bytes;
            }
            let evicted = self.scratch.len();
            self.slots[slot as usize].cached_bytes = grant;
            self.used_bytes += grant;
            self.order.insert(slot, utility);
            let grew = grant > cached_before;
            if grew {
                self.stats.admissions += 1;
                self.stats.bytes_admitted += grant - cached_before;
            }
            debug_assert!(self.used_bytes <= self.capacity_bytes + 1e-6);
            (grant, evicted, grew)
        } else {
            // Roll back: restore the popped victims and the object itself.
            for &(victim, bytes, victim_utility) in self.scratch.iter().rev() {
                self.used_bytes += bytes;
                self.order.insert(victim, victim_utility);
            }
            self.scratch.clear();
            if cached_before > 0.0 {
                self.used_bytes += cached_before;
                self.order.insert(slot, utility);
            }
            (cached_before, 0, false)
        }
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
    fn rejects_invalid_capacity() {
        assert!(CacheEngine::new(-1.0, PolicyKind::PartialBandwidth).is_err());
        assert!(CacheEngine::new(f64::NAN, PolicyKind::PartialBandwidth).is_err());
        assert!(CacheEngine::new(f64::INFINITY, PolicyKind::PartialBandwidth).is_err());
    }

    #[test]
    fn pb_caches_only_the_deficit() {
        let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        let o = obj(1, 100.0);
        let out = cache.on_access(&o, R / 2.0);
        assert!(out.admitted);
        assert_eq!(out.cached_bytes_after, o.size_bytes() / 2.0);
        assert_eq!(cache.cached_bytes(o.key), o.size_bytes() / 2.0);
        assert_eq!(cache.len(), 1);
        // Object with abundant bandwidth is never cached by PB.
        let fast = obj(2, 100.0);
        let out = cache.on_access(&fast, 2.0 * R);
        assert!(!out.admitted);
        assert_eq!(cache.cached_bytes(fast.key), 0.0);
    }

    #[test]
    fn if_caches_whole_objects_regardless_of_bandwidth() {
        let mut cache = CacheEngine::new(1e9, PolicyKind::IntegralFrequency).unwrap();
        let o = obj(1, 100.0);
        let out = cache.on_access(&o, 10.0 * R);
        assert!(out.admitted);
        assert_eq!(cache.cached_bytes(o.key), o.size_bytes());
    }

    #[test]
    fn second_access_is_served_from_cache() {
        let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        let o = obj(1, 100.0);
        let first = cache.on_access(&o, R / 2.0);
        assert_eq!(first.bytes_from_cache, 0.0);
        let second = cache.on_access(&o, R / 2.0);
        assert_eq!(second.bytes_from_cache, o.size_bytes() / 2.0);
        assert_eq!(second.bytes_from_origin, o.size_bytes() / 2.0);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().requests, 2);
        assert!((cache.stats().traffic_reduction_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn low_utility_objects_are_evicted_for_high_utility_ones() {
        // Capacity fits exactly one whole object.
        let size = obj(1, 100.0).size_bytes();
        let mut cache = CacheEngine::new(size, PolicyKind::IntegralBandwidth).unwrap();
        let slow = obj(1, 100.0);
        let slower = obj(2, 100.0);
        // Access the first object once over a moderately slow path.
        cache.on_access(&slow, R / 2.0);
        assert!(cache.contains(slow.key));
        // Access the second object twice over a much slower path: its
        // utility (2 / (R/10)) exceeds (1 / (R/2)), so it displaces the
        // first object.
        cache.on_access(&slower, R / 10.0);
        cache.on_access(&slower, R / 10.0);
        assert!(cache.contains(slower.key));
        assert!(!cache.contains(slow.key));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.used_bytes() <= cache.capacity_bytes() + 1e-6);
    }

    #[test]
    fn high_utility_objects_are_not_evicted_by_low_utility_ones() {
        let size = obj(1, 100.0).size_bytes();
        let mut cache = CacheEngine::new(size, PolicyKind::IntegralBandwidth).unwrap();
        let hot = obj(1, 100.0);
        for _ in 0..5 {
            cache.on_access(&hot, R / 4.0);
        }
        // A cold object over a faster path must not displace the hot one.
        let cold = obj(2, 100.0);
        cache.on_access(&cold, R / 2.0);
        assert!(cache.contains(hot.key));
        assert!(!cache.contains(cold.key));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn integral_admission_is_all_or_nothing() {
        // Capacity covers only half an object.
        let o = obj(1, 100.0);
        let mut cache =
            CacheEngine::new(o.size_bytes() / 2.0, PolicyKind::IntegralBandwidth).unwrap();
        let out = cache.on_access(&o, R / 2.0);
        assert!(!out.admitted);
        assert_eq!(cache.cached_bytes(o.key), 0.0);
        assert_eq!(cache.used_bytes(), 0.0);
    }

    #[test]
    fn partial_admission_fills_whatever_fits() {
        let o = obj(1, 100.0);
        // Capacity is a quarter of the object; PB wants half.
        let mut cache =
            CacheEngine::new(o.size_bytes() / 4.0, PolicyKind::PartialBandwidth).unwrap();
        let out = cache.on_access(&o, R / 2.0);
        assert!(out.admitted);
        assert!((cache.cached_bytes(o.key) - o.size_bytes() / 4.0).abs() < 1e-6);
        assert!(cache.used_bytes() <= cache.capacity_bytes() + 1e-6);
    }

    #[test]
    fn partial_allocation_grows_when_bandwidth_drops() {
        let o = obj(1, 100.0);
        let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        cache.on_access(&o, R / 2.0);
        assert_eq!(cache.cached_bytes(o.key), o.size_bytes() / 2.0);
        // Bandwidth estimate worsens: the prefix grows.
        cache.on_access(&o, R / 4.0);
        assert_eq!(cache.cached_bytes(o.key), o.size_bytes() * 0.75);
        // Bandwidth improves again: the allocation is not shrunk.
        cache.on_access(&o, R);
        assert_eq!(cache.cached_bytes(o.key), o.size_bytes() * 0.75);
    }

    #[test]
    fn failed_integral_admission_rolls_back_victims() {
        let small = obj(1, 50.0);
        let big = obj(2, 200.0);
        // Capacity fits the small object only.
        let mut cache =
            CacheEngine::new(small.size_bytes(), PolicyKind::IntegralBandwidth).unwrap();
        cache.on_access(&small, R / 2.0);
        assert!(cache.contains(small.key));
        // The big object has higher utility (slower path, after two
        // accesses) but cannot fit even after evicting the small one, so the
        // small object must survive.
        cache.on_access(&big, R / 10.0);
        cache.on_access(&big, R / 10.0);
        assert!(cache.contains(small.key));
        assert!(!cache.contains(big.key));
        assert_eq!(cache.stats().evictions, 0);
        assert!((cache.used_bytes() - small.size_bytes()).abs() < 1e-6);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let size = obj(1, 100.0).size_bytes();
        let mut cache = CacheEngine::new(2.0 * size, PolicyKind::Lru).unwrap();
        let a = obj(1, 100.0);
        let b = obj(2, 100.0);
        let c = obj(3, 100.0);
        cache.on_access(&a, R);
        cache.on_access(&b, R);
        cache.on_access(&a, R); // refresh a
        cache.on_access(&c, R); // evicts b
        assert!(cache.contains(a.key));
        assert!(!cache.contains(b.key));
        assert!(cache.contains(c.key));
    }

    #[test]
    fn zero_capacity_cache_never_admits() {
        let mut cache = CacheEngine::new(0.0, PolicyKind::PartialBandwidth).unwrap();
        let o = obj(1, 100.0);
        let out = cache.on_access(&o, R / 2.0);
        assert!(!out.admitted);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.used_bytes(), 0.0);
    }

    #[test]
    fn clear_frees_everything_but_keeps_frequencies() {
        let mut cache = CacheEngine::new(1e9, PolicyKind::IntegralFrequency).unwrap();
        let o = obj(1, 100.0);
        cache.on_access(&o, R);
        cache.on_access(&o, R);
        assert_eq!(cache.frequency(o.key), 2);
        let evicted = cache.clear();
        assert_eq!(evicted, 1);
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0.0);
        assert_eq!(cache.frequency(o.key), 2);
        // The cache keeps working after a clear: re-admission succeeds.
        let out = cache.on_access(&o, R);
        assert!(out.admitted);
        assert!(cache.contains(o.key));
    }

    #[test]
    fn contents_and_accessors() {
        let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        let o = obj(7, 100.0);
        cache.on_access(&o, R / 2.0);
        let contents = cache.contents();
        assert_eq!(contents.len(), 1);
        assert_eq!(contents[0].0, o.key);
    }

    #[test]
    fn boxed_policy_engine_works() {
        let kind = PolicyKind::HybridPartialBandwidth { e: 0.5 };
        let mut cache = CacheEngine::new(1e9, kind.build()).unwrap();
        let o = obj(1, 100.0);
        let out = cache.on_access(&o, R / 2.0);
        assert!(out.admitted);
        // e = 0.5: prefix = (r - 0.5 b) T = 0.75 size.
        assert!((cache.cached_bytes(o.key) - 0.75 * o.size_bytes()).abs() < 1e-6);
    }

    #[test]
    fn used_bytes_never_exceed_capacity_under_churn() {
        let mut cache = CacheEngine::new(
            5.0 * obj(0, 100.0).size_bytes(),
            PolicyKind::PartialBandwidth,
        )
        .unwrap();
        // Deterministic pseudo-random access pattern over 50 objects.
        let mut state = 0xdeadbeefu64;
        for _ in 0..2_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 50;
            let duration = 50.0 + (state % 100) as f64;
            let bandwidth = 1_000.0 + (state % 60_000) as f64;
            let o = obj(key, duration);
            cache.on_access(&o, bandwidth);
            assert!(
                cache.used_bytes() <= cache.capacity_bytes() + 1e-3,
                "capacity violated: used {} capacity {}",
                cache.used_bytes(),
                cache.capacity_bytes()
            );
        }
        // Sum of entries equals used bytes.
        let total: f64 = cache.contents().iter().map(|(_, b)| b).sum();
        assert!((total - cache.used_bytes()).abs() < 1e-3);
    }

    // --- slot-path and slab-specific behaviour ---

    #[test]
    fn slot_path_matches_keyed_path() {
        // The same deterministic access stream produces identical outcomes,
        // stats and contents through on_access and on_access_slot.
        let mut keyed = CacheEngine::new(
            8.0 * obj(0, 100.0).size_bytes(),
            PolicyKind::PartialBandwidth,
        )
        .unwrap();
        let mut slotted = CacheEngine::new(
            8.0 * obj(0, 100.0).size_bytes(),
            PolicyKind::PartialBandwidth,
        )
        .unwrap();
        slotted.ensure_slots(40);
        let mut state = 0x5eed_cafeu64;
        for _ in 0..3_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 40;
            let duration = 30.0 + (state % 200) as f64;
            let bandwidth = 1_000.0 + (state % 90_000) as f64;
            let o = obj(key, duration);
            let a = keyed.on_access(&o, bandwidth);
            let b = slotted.on_access_slot(key as u32, &o, bandwidth);
            assert_eq!(a, b);
        }
        assert_eq!(keyed.used_bytes().to_bits(), slotted.used_bytes().to_bits());
        assert_eq!(keyed.len(), slotted.len());
        assert_eq!(keyed.stats().evictions, slotted.stats().evictions);
        assert_eq!(keyed.stats().hits, slotted.stats().hits);
        for key in 0..40 {
            let k = ObjectKey::new(key);
            assert_eq!(
                keyed.cached_bytes(k).to_bits(),
                slotted.cached_bytes(k).to_bits()
            );
            assert_eq!(keyed.frequency(k), slotted.frequency(k));
        }
    }

    #[test]
    fn ensure_slots_is_idempotent_and_growable() {
        let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        cache.ensure_slots(10);
        cache.ensure_slots(5); // shrinking request: no-op
        cache.ensure_slots(20); // growth keeps earlier slots intact
        let o = obj(3, 100.0);
        cache.on_access_slot(3, &o, R / 2.0);
        assert!(cache.contains(o.key));
        assert_eq!(cache.slot_of(o.key), Some(3));
        // Keyed access to a dense key resolves to the same slot.
        cache.on_access(&o, R / 2.0);
        assert_eq!(cache.frequency(o.key), 2);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn unallocated_slot_access_panics() {
        let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        cache.ensure_slots(2);
        let o = obj(5, 100.0);
        cache.on_access_slot(5, &o, R);
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn ensure_slots_after_sparse_interning_panics() {
        // A sparse key interned first lands at slot 0; a later ensure_slots
        // must refuse rather than alias dense key 0 onto that slot.
        let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        cache.on_access(&obj(7, 100.0), R / 2.0);
        cache.ensure_slots(3);
    }

    #[test]
    fn ensure_slots_after_dense_prefix_interning_is_fine() {
        // Keys that happen to be interned densely (0 first, then 1, ...)
        // already satisfy the layout; growing the slab afterwards is legal.
        let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        cache.on_access(&obj(0, 100.0), R / 2.0);
        cache.on_access(&obj(1, 100.0), R / 2.0);
        cache.ensure_slots(4);
        assert_eq!(cache.slot_of(ObjectKey::new(3)), Some(3));
        assert_eq!(cache.frequency(ObjectKey::new(0)), 1);
    }

    #[test]
    fn keys_on_either_side_of_the_dense_count_find_their_slots() {
        // Below the ensure_slots count a key is its own slot; at and above
        // it, keys are interned in first-seen order after the dense slots.
        let mut keyed = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        let mut slotted = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        keyed.ensure_slots(4);
        slotted.ensure_slots(4);
        for key in [0, 3] {
            let o = obj(key, 100.0);
            let a = keyed.on_access(&o, R / 2.0);
            let b = slotted.on_access_slot(key as u32, &o, R / 2.0);
            assert_eq!(a, b);
            assert_eq!(keyed.slot_of(o.key), Some(key as u32));
            assert_eq!(keyed.cached_bytes(o.key), slotted.cached_bytes(o.key));
        }
        let four = obj(4, 50.0);
        let far = obj(u64::MAX, 200.0);
        keyed.on_access(&four, R / 2.0);
        keyed.on_access(&far, R / 2.0);
        assert_eq!(keyed.slot_of(four.key), Some(4));
        assert_eq!(keyed.slot_of(far.key), Some(5));
        assert_eq!(keyed.slot_of(ObjectKey::new(6)), None);

        let mut contents = keyed.contents();
        contents.sort_by_key(|&(key, _)| key.as_u64());
        let half = |o: &ObjectMeta| o.size_bytes() / 2.0;
        assert_eq!(
            contents,
            vec![
                (ObjectKey::new(0), half(&obj(0, 100.0))),
                (ObjectKey::new(3), half(&obj(3, 100.0))),
                (four.key, half(&four)),
                (far.key, half(&far)),
            ]
        );

        // Slot 4 holds key 4, so the dense count may grow over it; slot 5
        // holds a sparse key, so it may not grow over that.
        keyed.ensure_slots(5);
        assert_eq!(keyed.slot_of(four.key), Some(4));
        assert_eq!(keyed.frequency(four.key), 1);
        let grown =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| keyed.ensure_slots(7)));
        let payload = grown.expect_err("slot 5 holds a sparse key");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(message.contains("dense"), "{message}");
    }

    #[test]
    fn sparse_keys_intern_fresh_slots() {
        let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        let a = obj(u64::MAX, 100.0);
        let b = obj(u64::MAX - 7, 100.0);
        cache.on_access(&a, R / 2.0);
        cache.on_access(&b, R / 2.0);
        assert_eq!(cache.slot_of(a.key), Some(0));
        assert_eq!(cache.slot_of(b.key), Some(1));
        assert_eq!(cache.len(), 2);
    }

    // --- admission predicate semantics (pinned) ---

    #[test]
    fn readmission_at_equal_size_commits_evictions() {
        // An integral-policy object re-requested when its target exactly
        // equals the available space after evicting a lower-utility victim:
        // grant == target > cached_before == 0 is a plain admission, but
        // the interesting pinned case is grant == cached_before > 0, which
        // commits without counting as an admission. Construct it with PB:
        // bandwidth drops so target grows beyond capacity, the partial
        // grant equals the old allocation exactly.
        let o = obj(1, 100.0);
        let size = o.size_bytes();
        // Capacity = half the object: PB at R/2 wants and gets size/2.
        let mut cache = CacheEngine::new(size / 2.0, PolicyKind::PartialBandwidth).unwrap();
        let first = cache.on_access(&o, R / 2.0);
        assert!(first.admitted);
        assert_eq!(cache.cached_bytes(o.key), size / 2.0);
        let admissions_before = cache.stats().admissions;
        // Bandwidth worsens: target = 0.75 * size, but only size/2 fits.
        // grant == cached_before == size/2: the access commits (allocation
        // is unchanged) and is NOT counted as an admission.
        let second = cache.on_access(&o, R / 4.0);
        assert!(!second.admitted);
        assert_eq!(second.cached_bytes_after, size / 2.0);
        assert_eq!(cache.cached_bytes(o.key), size / 2.0);
        assert_eq!(cache.stats().admissions, admissions_before);
        assert!(cache.contains(o.key));
    }

    #[test]
    fn zero_grant_is_rejected_and_rolls_back() {
        // A non-partial policy whose target cannot fit gets a zero grant:
        // nothing may be admitted and any popped victims must return.
        let small = obj(1, 40.0);
        let big = obj(2, 400.0);
        let mut cache =
            CacheEngine::new(small.size_bytes(), PolicyKind::IntegralBandwidth).unwrap();
        cache.on_access(&small, R / 2.0);
        let used_before = cache.used_bytes();
        // big's utility after three accesses exceeds small's, so small is
        // popped as a victim — but big still cannot fit, grant = 0, and the
        // pop must roll back.
        for _ in 0..3 {
            let out = cache.on_access(&big, R / 16.0);
            assert!(!out.admitted);
            assert_eq!(out.evictions, 0);
            assert_eq!(out.cached_bytes_after, 0.0);
        }
        assert!(cache.contains(small.key));
        assert!(!cache.contains(big.key));
        assert_eq!(cache.used_bytes().to_bits(), used_before.to_bits());
        assert_eq!(cache.stats().evictions, 0);
    }

    // --- eviction report (`last_evictions`) ---

    #[test]
    fn eviction_report_is_empty_at_first_and_after_a_free_space_admission() {
        // A fresh engine reports no victims, and an admission into free
        // space leaves the report empty.
        let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        assert!(cache.last_evictions().is_empty());
        let out = cache.on_access(&obj(1, 100.0), R / 2.0);
        assert!(out.admitted);
        assert!(cache.last_evictions().is_empty());
    }

    #[test]
    fn eviction_report_names_the_victim_of_an_admission() {
        let size = obj(1, 100.0).size_bytes();
        let mut cache = CacheEngine::new(size, PolicyKind::IntegralBandwidth).unwrap();

        let a = obj(1, 100.0);
        let out = cache.on_access(&a, R / 2.0);
        assert_eq!(out.cached_bytes_after, size);
        assert!(cache.last_evictions().is_empty());

        // A higher-utility object displaces `a`: the report names `a`'s slot
        // with the bytes it held, the outcome carries `b`'s new allocation.
        let b = obj(2, 100.0);
        let out = cache.on_access(&b, R / 10.0);
        assert_eq!(out.evictions, 1);
        assert_eq!(out.cached_bytes_after, size);
        let victims = cache.last_evictions();
        assert_eq!(victims.len(), 1);
        assert_eq!(Some(victims[0].0), cache.slot_of(a.key));
        assert_eq!(victims[0].1, size);
        // The report covers one access: a repeat evicts nothing.
        cache.on_access(&b, R / 10.0);
        assert!(cache.last_evictions().is_empty());
    }

    #[test]
    fn eviction_report_is_silent_on_rollback_and_refresh() {
        let small = obj(1, 50.0);
        let big = obj(2, 200.0);
        let mut cache =
            CacheEngine::new(small.size_bytes(), PolicyKind::IntegralBandwidth).unwrap();
        cache.on_access(&small, R / 2.0);
        // Rollback: big pops small as a victim but cannot fit; state is
        // restored exactly, so no victim may be reported.
        cache.on_access(&big, R / 10.0);
        let out = cache.on_access(&big, R / 10.0);
        assert_eq!(out.evictions, 0);
        assert!(cache.last_evictions().is_empty());
        assert!(cache.contains(small.key));
        // Refresh (target <= cached): no allocation change, no victim — and
        // the victim of an earlier access does not linger in the report.
        let mut cache = CacheEngine::new(small.size_bytes(), PolicyKind::Lru).unwrap();
        cache.on_access(&small, R);
        cache.on_access(&obj(3, 50.0), R);
        assert_eq!(cache.last_evictions().len(), 1);
        cache.on_access(&obj(3, 50.0), R);
        assert!(cache.last_evictions().is_empty());
    }

    #[test]
    fn zero_grant_with_zero_cached_never_creates_an_entry() {
        // PB with abundant bandwidth wants target 0 for an uncached object:
        // target (0) <= cached_before (0) takes the refresh path, and no
        // entry may appear.
        let mut cache = CacheEngine::new(1e9, PolicyKind::PartialBandwidth).unwrap();
        let o = obj(1, 100.0);
        let out = cache.on_access(&o, 2.0 * R);
        assert!(!out.admitted);
        assert!(!cache.contains(o.key));
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.frequency(o.key), 1, "frequency still counted");
    }
}
