//! Model-based fuzz test of the slab cache engine.
//!
//! A naive reference model — a `BTreeMap` of cached entries, min-utility
//! victim selection by full scan, no heap, no slab, no scratch buffers —
//! re-implements the replacement semantics of Section 2.4 in the most
//! obviously-correct way. Identical randomized access streams are driven
//! through the real [`CacheEngine`] (via the slot-addressed hot path) and
//! the model, asserting identical outcomes at every step: hits, evictions,
//! admissions, per-object cached bytes (bitwise) and total used bytes
//! (bitwise). Tight capacities keep the streams deep in the
//! admission/eviction/rollback regime of `rebalance`.
//!
//! Utility ties make the victim choice ambiguous between a heap and a scan.
//! The bandwidth-aware policies draw continuous random bandwidths, so their
//! utilities (`F/b`) are distinct with probability 1; LRU's clock values are
//! distinct by construction. IF's integer frequencies tie all the time, so
//! the model is handed the engine's [`CacheEngine::last_evictions`] and, at
//! each pop, follows the engine's pick **only if** that pick is one of the
//! minimum-utility entries of its own scan — any other pick makes the two
//! diverge and the comparison fail. The victims the model ends up with must
//! then equal the engine's `(key, bytes, utility)` triples bitwise.
//!
//! Object sizes run from 0.2 to 4 units against capacities of 0.75–3 units,
//! so some objects exceed the whole cache: under LRU such an access pops
//! every entry (all are older than the clock) and rolls all of them back.
//! Every [`CLEAR_EVERY`] steps both sides are cleared.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_cache::policy::{PolicyKind, UtilityPolicy};
use sc_cache::{AccessOutcome, CacheEngine, ObjectKey, ObjectMeta, ShardedEngine};
use std::collections::BTreeMap;

/// The naive reference: entries keyed by raw object id in a `BTreeMap`,
/// victims found by scanning for the strict-minimum utility.
struct ReferenceModel<P> {
    capacity: f64,
    used: f64,
    policy: P,
    clock: u64,
    /// key → (cached bytes, last utility)
    entries: BTreeMap<u64, (f64, f64)>,
    frequencies: BTreeMap<u64, u64>,
    hits: u64,
    evictions: u64,
    admissions: u64,
    /// `(key, bytes, utility)` of the victims the last access committed.
    last_victims: Vec<(u64, f64, f64)>,
    /// Rollbacks that had popped every other entry before giving up.
    full_drain_rollbacks: u64,
}

impl<P: UtilityPolicy> ReferenceModel<P> {
    fn new(capacity: f64, policy: P) -> Self {
        ReferenceModel {
            capacity,
            used: 0.0,
            policy,
            clock: 0,
            entries: BTreeMap::new(),
            frequencies: BTreeMap::new(),
            hits: 0,
            evictions: 0,
            admissions: 0,
            last_victims: Vec::new(),
            full_drain_rollbacks: 0,
        }
    }

    /// Drops every entry, counting each as an eviction; frequencies stay.
    fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.evictions += n as u64;
        self.entries.clear();
        self.used = 0.0;
        n
    }

    /// `engine_victims` is the engine's eviction order for the same access,
    /// consulted only to break utility ties (see the module header).
    fn on_access(
        &mut self,
        meta: &ObjectMeta,
        bandwidth_bps: f64,
        engine_victims: &[u64],
    ) -> AccessOutcome {
        self.clock += 1;
        let key = meta.key.as_u64();
        let freq = {
            let f = self.frequencies.entry(key).or_insert(0);
            *f += 1;
            *f
        };
        let size = meta.size_bytes();
        let cached_before = self.entries.get(&key).map_or(0.0, |e| e.0);
        let bytes_from_cache = cached_before.min(size);
        let bytes_from_origin = (size - bytes_from_cache).max(0.0);
        if bytes_from_cache > 0.0 {
            self.hits += 1;
        }

        let utility = self
            .policy
            .utility(meta, freq, bandwidth_bps, self.clock)
            .max(0.0);
        let target = self
            .policy
            .target_bytes(meta, bandwidth_bps)
            .clamp(0.0, size);

        let (cached_after, evictions, admitted) =
            self.rebalance(key, cached_before, target, utility, engine_victims);

        AccessOutcome {
            cached_bytes_before: cached_before,
            cached_bytes_after: cached_after,
            bytes_from_cache,
            bytes_from_origin,
            evictions,
            admitted,
        }
    }

    fn rebalance(
        &mut self,
        key: u64,
        cached_before: f64,
        target: f64,
        utility: f64,
        engine_victims: &[u64],
    ) -> (f64, usize, bool) {
        self.last_victims.clear();
        if target <= cached_before {
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.1 = utility;
            }
            return (cached_before, 0, false);
        }

        // Conceptually remove the object, then find victims by scanning for
        // the strictly-lower-utility minimum until the target fits.
        let mut used = self.used;
        if self.entries.contains_key(&key) {
            used -= cached_before;
        }
        let mut victims: Vec<(u64, f64, f64)> = Vec::new();
        while self.capacity - used < target {
            let eligible = |k: &u64| *k != key && !victims.iter().any(|v| v.0 == *k);
            let scanned = self
                .entries
                .iter()
                .filter(|(k, _)| eligible(k))
                .min_by(|a, b| (a.1).1.partial_cmp(&(b.1).1).expect("utility is not NaN"))
                .map(|(k, e)| (*k, e.0, e.1));
            // Tie-break: the engine's pick stands if it is as small as the
            // scan's minimum.
            let candidate = scanned.map(|min| {
                engine_victims
                    .get(victims.len())
                    .filter(|k| eligible(k))
                    .and_then(|k| self.entries.get(k).map(|e| (*k, e.0, e.1)))
                    .filter(|pick| pick.2 == min.2)
                    .unwrap_or(min)
            });
            match candidate {
                Some((k, bytes, victim_utility)) if victim_utility < utility => {
                    used -= bytes;
                    victims.push((k, bytes, victim_utility));
                }
                _ => break,
            }
        }

        let available = (self.capacity - used).max(0.0);
        let grant = if self.policy.allows_partial_admission() {
            target.min(available)
        } else if available >= target {
            target
        } else {
            0.0
        };

        if grant > 0.0 && grant >= cached_before {
            let evicted = victims.len();
            for v in &victims {
                self.entries.remove(&v.0);
                self.evictions += 1;
            }
            self.last_victims = victims;
            self.entries.insert(key, (grant, utility));
            self.used = used + grant;
            let grew = grant > cached_before;
            if grew {
                self.admissions += 1;
            }
            (grant, evicted, grew)
        } else {
            // Roll back: nothing evicted, the object keeps its old bytes
            // (but its utility is refreshed, as in the engine).
            let others = self.entries.len() - usize::from(self.entries.contains_key(&key));
            if !victims.is_empty() && victims.len() == others {
                self.full_drain_rollbacks += 1;
            }
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.1 = utility;
            }
            (cached_before, 0, false)
        }
    }
}

/// Both sides are cleared after every this many accesses.
const CLEAR_EVERY: usize = 700;

/// The engine's victims of the last access as `(key, bytes, utility)`.
fn engine_victims<P: UtilityPolicy>(engine: &CacheEngine<P>, objects: u64) -> Vec<(u64, f64, f64)> {
    engine
        .last_evictions()
        .iter()
        .map(|&(slot, bytes, utility)| {
            let key = (0..objects)
                .find(|k| engine.slot_of(ObjectKey::new(*k)) == Some(slot))
                .expect("a victim's slot belongs to an interned key");
            (key, bytes, utility)
        })
        .collect()
}

/// Bitwise equality of two victim lists.
fn assert_same_victims(engine: &[(u64, f64, f64)], model: &[(u64, f64, f64)], context: &str) {
    let bits = |v: &[(u64, f64, f64)]| -> Vec<(u64, u64, u64)> {
        v.iter()
            .map(|&(k, b, u)| (k, b.to_bits(), u.to_bits()))
            .collect()
    };
    assert_eq!(bits(engine), bits(model), "{context}: eviction report");
}

/// Drives `steps` random accesses through the engine (slot path) and the
/// reference model, comparing every outcome and the full cache state.
fn fuzz_policy(kind: PolicyKind, capacity_objects: f64, seed: u64, steps: usize) {
    const OBJECTS: u64 = 30;
    const R: f64 = 48_000.0;
    let unit = ObjectMeta::new(ObjectKey::new(0), 100.0, R, 1.0).size_bytes();
    let capacity = capacity_objects * unit;

    let mut engine = CacheEngine::new(capacity, kind.build()).unwrap();
    engine.ensure_slots(OBJECTS as usize);
    let mut model = ReferenceModel::new(capacity, kind.build());
    let mut rng = StdRng::seed_from_u64(seed);

    // Durations are a fixed function of the key so each object's size is
    // stable across accesses, as in a real catalog.
    let metas: Vec<ObjectMeta> = (0..OBJECTS)
        .map(|k| ObjectMeta::new(ObjectKey::new(k), 20.0 + 13.0 * k as f64, R, 1.0 + k as f64))
        .collect();

    for step in 0..steps {
        let key = rng.gen_range(0..OBJECTS);
        let bandwidth = rng.gen_range(1_000.0..120_000.0);
        let meta = &metas[key as usize];

        // Alternate entry points: both must agree with the model.
        let out = if step % 2 == 0 {
            engine.on_access_slot(key as u32, meta, bandwidth)
        } else {
            engine.on_access(meta, bandwidth)
        };
        let victims = engine_victims(&engine, OBJECTS);
        let hint: Vec<u64> = victims.iter().map(|v| v.0).collect();
        let expected = model.on_access(meta, bandwidth, &hint);
        assert_eq!(
            out,
            expected,
            "{} diverged from model at step {step} (key {key})",
            kind.label()
        );
        assert_same_victims(
            &victims,
            &model.last_victims,
            &format!("{} step {step}", kind.label()),
        );

        // Full-state comparison: same objects cached with the same bytes.
        assert_eq!(
            engine.len(),
            model.entries.len(),
            "{} entry count diverged at step {step}",
            kind.label()
        );
        for (k, (bytes, _)) in &model.entries {
            assert_eq!(
                engine.cached_bytes(ObjectKey::new(*k)).to_bits(),
                bytes.to_bits(),
                "{} cached bytes of {k} diverged at step {step}",
                kind.label()
            );
        }
        assert_eq!(
            engine.used_bytes().to_bits(),
            model.used.to_bits(),
            "{} used bytes diverged at step {step}",
            kind.label()
        );
        assert_eq!(engine.stats().hits, model.hits);
        assert_eq!(engine.stats().evictions, model.evictions);
        assert_eq!(engine.stats().admissions, model.admissions);
        assert!(engine.used_bytes() <= capacity + 1e-6);

        if step % CLEAR_EVERY == CLEAR_EVERY - 1 {
            assert_eq!(engine.clear(), model.clear(), "{} clear", kind.label());
            assert!(engine.is_empty() && engine.contents().is_empty());
            assert_eq!(engine.used_bytes(), 0.0);
            assert_eq!(engine.stats().evictions, model.evictions);
        }
    }

    // The run must actually have exercised the interesting paths.
    assert!(model.evictions > 0, "{}: no evictions", kind.label());
    assert!(model.admissions > 0, "{}: no admissions", kind.label());
    if kind == PolicyKind::Lru {
        assert!(
            model.full_drain_rollbacks > 0,
            "LRU: no oversize access drained and restored the whole cache"
        );
    }
}

/// Drives `steps` random accesses through a [`ShardedEngine`] and one
/// reference model **per shard**, each sized by the engine's own budget
/// split (`floor(capacity / shards)`, remainder on shard 0) and fed only
/// the keys the engine's hash routes to it. Outcomes, per-object bytes,
/// per-shard used bytes and the aggregate counters must all match bitwise
/// — for `shards = 1` this is exactly the unsharded comparison.
fn fuzz_sharded(kind: PolicyKind, capacity_objects: f64, shards: usize, seed: u64, steps: usize) {
    const OBJECTS: u64 = 30;
    const R: f64 = 48_000.0;
    let unit = ObjectMeta::new(ObjectKey::new(0), 100.0, R, 1.0).size_bytes();
    let capacity = capacity_objects * unit;

    let engine = ShardedEngine::new(capacity, shards, || kind.build()).unwrap();
    // One model per shard, budgets mirroring the engine's split.
    let per_shard = (capacity / shards as f64).floor();
    let mut models: Vec<ReferenceModel<_>> = (0..shards)
        .map(|i| {
            let budget = if i == 0 {
                capacity - per_shard * (shards - 1) as f64
            } else {
                per_shard
            };
            assert_eq!(budget.to_bits(), engine.shard_capacity(i).to_bits());
            ReferenceModel::new(budget, kind.build())
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);

    let metas: Vec<ObjectMeta> = (0..OBJECTS)
        .map(|k| ObjectMeta::new(ObjectKey::new(k), 20.0 + 13.0 * k as f64, R, 1.0 + k as f64))
        .collect();

    for step in 0..steps {
        let key = rng.gen_range(0..OBJECTS);
        let bandwidth = rng.gen_range(1_000.0..120_000.0);
        let meta = &metas[key as usize];
        let shard = engine.shard_of(meta.key);

        let (out, victims) = engine.access_with(meta, bandwidth, |shard_engine, _, out| {
            (out, engine_victims(shard_engine, OBJECTS))
        });
        let hint: Vec<u64> = victims.iter().map(|v| v.0).collect();
        let expected = models[shard].on_access(meta, bandwidth, &hint);
        assert_eq!(
            out,
            expected,
            "{} ({shards} shards) diverged from model at step {step} (key {key}, shard {shard})",
            kind.label()
        );
        assert_same_victims(
            &victims,
            &models[shard].last_victims,
            &format!("{} ({shards} shards) step {step}", kind.label()),
        );
        for (s, model) in models.iter().enumerate() {
            for (k, (bytes, _)) in &model.entries {
                assert_eq!(
                    engine.cached_bytes(ObjectKey::new(*k)).to_bits(),
                    bytes.to_bits(),
                    "{} cached bytes of {k} (shard {s}) diverged at step {step}",
                    kind.label()
                );
            }
            assert_eq!(
                engine.shard_used_bytes(s).to_bits(),
                model.used.to_bits(),
                "{} shard {s} used bytes diverged at step {step}",
                kind.label()
            );
        }

        if step % CLEAR_EVERY == CLEAR_EVERY - 1 {
            let cleared: usize = models.iter_mut().map(|m| m.clear()).sum();
            assert_eq!(engine.clear(), cleared, "{} clear", kind.label());
            assert!(engine.is_empty());
        }
    }

    // Aggregate counters equal the per-shard model sums.
    let stats = engine.stats();
    assert_eq!(stats.requests, steps as u64);
    assert_eq!(stats.hits, models.iter().map(|m| m.hits).sum::<u64>());
    assert_eq!(
        stats.evictions,
        models.iter().map(|m| m.evictions).sum::<u64>()
    );
    assert_eq!(
        stats.admissions,
        models.iter().map(|m| m.admissions).sum::<u64>()
    );
    assert_eq!(
        engine.len(),
        models.iter().map(|m| m.entries.len()).sum::<usize>()
    );
    assert!(
        models.iter().map(|m| m.evictions).sum::<u64>() > 0,
        "{} ({shards} shards): no evictions",
        kind.label()
    );
}

/// PB: partial admission — grants shrink to whatever fits, rollbacks only
/// when nothing fits at all.
#[test]
fn pb_matches_reference_model() {
    fuzz_policy(PolicyKind::PartialBandwidth, 2.5, 0xF00D, 4_000);
    fuzz_policy(PolicyKind::PartialBandwidth, 0.75, 0xBEEF, 2_000);
}

/// IB: integral admission — all-or-nothing grants make the rollback path
/// (pop victims, fail to fit, restore) the common case under tight space.
#[test]
fn ib_matches_reference_model() {
    fuzz_policy(PolicyKind::IntegralBandwidth, 3.0, 0xCAFE, 4_000);
    fuzz_policy(PolicyKind::IntegralBandwidth, 1.25, 0x5EED, 2_000);
}

/// PB(e) hybrid: larger targets than PB, still partial.
#[test]
fn hybrid_matches_reference_model() {
    fuzz_policy(
        PolicyKind::HybridPartialBandwidth { e: 0.5 },
        2.0,
        0xD00D,
        3_000,
    );
}

/// IB-V: value-weighted utilities exercise a different utility surface.
#[test]
fn ibv_matches_reference_model() {
    fuzz_policy(PolicyKind::IntegralBandwidthValue, 2.0, 0xA11CE, 3_000);
}

/// One shard must reproduce the reference model exactly like the plain
/// engine does — same comparison, routed through `ShardedEngine`.
#[test]
fn sharded_pb_one_shard_matches_reference_model() {
    fuzz_sharded(PolicyKind::PartialBandwidth, 2.5, 1, 0xF00D, 3_000);
}

/// Four shards: each shard is an independent engine against its own
/// model, with the hash route deciding membership.
#[test]
fn sharded_pb_four_shards_match_reference_models() {
    fuzz_sharded(PolicyKind::PartialBandwidth, 4.0, 4, 0xF00D, 3_000);
}

/// IB under sharding keeps the all-or-nothing rollback path hot in every
/// shard (per-shard budgets are a quarter of the global one).
#[test]
fn sharded_ib_four_shards_match_reference_models() {
    fuzz_sharded(PolicyKind::IntegralBandwidth, 5.0, 4, 0xCAFE, 3_000);
}

/// LRU: the utility is the access clock, so every cached entry is an
/// eligible victim and an object larger than the cache pops all of them
/// before the rollback restores them in reverse.
#[test]
fn lru_matches_reference_model() {
    fuzz_policy(PolicyKind::Lru, 2.5, 0x1A0, 4_000);
    fuzz_policy(PolicyKind::Lru, 0.75, 0x1A1, 2_000);
}

/// IF: integer frequencies tie constantly; the model accepts the engine's
/// pick among equal minima and nothing else.
#[test]
fn if_matches_reference_model() {
    fuzz_policy(PolicyKind::IntegralFrequency, 3.0, 0x1F0, 4_000);
    fuzz_policy(PolicyKind::IntegralFrequency, 1.25, 0x1F1, 2_000);
}

#[test]
fn sharded_lru_matches_reference_models() {
    fuzz_sharded(PolicyKind::Lru, 2.5, 1, 0x1A2, 3_000);
    fuzz_sharded(PolicyKind::Lru, 5.0, 4, 0x1A3, 3_000);
}

#[test]
fn sharded_if_matches_reference_models() {
    fuzz_sharded(PolicyKind::IntegralFrequency, 3.0, 1, 0x1F2, 3_000);
    fuzz_sharded(PolicyKind::IntegralFrequency, 5.0, 4, 0x1F3, 3_000);
}
