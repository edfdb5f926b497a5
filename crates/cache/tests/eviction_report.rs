//! Oracle equivalence for the engine's per-access change report.
//!
//! The engine keeps no change log: what one access did to the cache is its
//! [`AccessOutcome`] (the accessed object's allocation afterwards) plus
//! [`CacheEngine::last_evictions`] (the victims, each evicted whole). A
//! shadow map maintained from that pair alone must equal a full
//! [`CacheEngine::contents`] scan bitwise after every access, across
//! policies with partial admission, integral admission and rollback paths.
//! This is the contract that lets the proxy keep its stored prefixes in
//! step with the engine in O(changes) per request, under the shard lock.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_cache::policy::PolicyKind;
use sc_cache::{CacheEngine, ObjectKey, ObjectMeta};
use std::collections::BTreeMap;

fn meta(key: u64, duration: f64) -> ObjectMeta {
    ObjectMeta::new(ObjectKey::new(key), duration, 48_000.0, 1.0)
}

/// Drives a randomized access stream through an engine, maintaining a
/// shadow `slot → bytes` map purely from `(AccessOutcome, reported
/// victims)`, and asserts it equals the full-`contents()` oracle after
/// every access.
fn check_policy(kind: PolicyKind, seed: u64, capacity_objects: f64, accesses: usize) {
    let size = meta(0, 100.0).size_bytes();
    let mut engine = CacheEngine::new(capacity_objects * size, kind.build()).unwrap();
    let mut shadow: BTreeMap<u32, f64> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(seed);

    for step in 0..accesses {
        let key = rng.gen_range(0..40u64);
        let duration = 30.0 + rng.gen_range(0.0..200.0);
        let bandwidth = rng.gen_range(2_000.0..120_000.0);
        let m = meta(key, duration);
        let out = engine.on_access(&m, bandwidth);

        let victims = engine.last_evictions();
        assert_eq!(
            victims.len(),
            out.evictions,
            "{kind:?} seed {seed} step {step}: report and outcome disagree"
        );
        for &(victim, bytes, _) in victims {
            let held = shadow.remove(&victim).unwrap_or_else(|| {
                panic!("{kind:?} seed {seed} step {step}: victim {victim} was not mirrored")
            });
            assert_eq!(held.to_bits(), bytes.to_bits(), "victims go whole");
        }
        let slot = engine.slot_of(m.key).expect("accessed keys are interned");
        if out.cached_bytes_after > 0.0 {
            shadow.insert(slot, out.cached_bytes_after);
        } else {
            assert!(
                !shadow.contains_key(&slot),
                "{kind:?} seed {seed} step {step}: allocation vanished outside an eviction"
            );
        }

        // Occasionally wipe the cache: not an access, so the mirror's owner
        // wipes the mirror itself.
        if step % 977 == 976 {
            engine.clear();
            shadow.clear();
        }

        let oracle: BTreeMap<u32, f64> = engine
            .contents()
            .into_iter()
            .map(|(k, b)| (engine.slot_of(k).expect("cached keys are interned"), b))
            .collect();
        assert_eq!(
            shadow.len(),
            oracle.len(),
            "{kind:?} seed {seed} step {step}: entry count diverged"
        );
        for (slot, bytes) in &oracle {
            let mirrored = shadow.get(slot).unwrap_or_else(|| {
                panic!("{kind:?} seed {seed} step {step}: slot {slot} missing from the mirror")
            });
            assert_eq!(
                mirrored.to_bits(),
                bytes.to_bits(),
                "{kind:?} seed {seed} step {step}: slot {slot} bytes diverged"
            );
        }
    }
}

#[test]
fn delta_mirror_matches_full_scan_oracle_partial_policies() {
    for seed in 0..4 {
        check_policy(PolicyKind::PartialBandwidth, seed, 5.0, 3_000);
        check_policy(
            PolicyKind::HybridPartialBandwidth { e: 0.5 },
            seed,
            4.0,
            2_000,
        );
    }
}

#[test]
fn delta_mirror_matches_full_scan_oracle_integral_policies() {
    // Integral policies take the rollback path often under tight capacity;
    // rollbacks must leave both the report and the mirror untouched.
    for seed in 0..4 {
        check_policy(PolicyKind::IntegralBandwidth, seed, 3.0, 3_000);
        check_policy(PolicyKind::IntegralFrequency, seed, 3.0, 2_000);
        check_policy(PolicyKind::Lru, seed, 3.0, 2_000);
    }
}

#[test]
fn last_evictions_reports_one_access_however_many_came_before() {
    // The report describes one access only, however many came before: the
    // engine accumulates no history.
    let capacity = 5.0 * meta(0, 100.0).size_bytes();
    let mut engine = CacheEngine::new(capacity, PolicyKind::Lru.build()).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let mut evictions = 0;
    for _ in 0..1_000 {
        let m = meta(rng.gen_range(0..20u64), 100.0);
        let out = engine.on_access(&m, rng.gen_range(2_000.0..120_000.0));
        assert_eq!(engine.last_evictions().len(), out.evictions);
        assert!(out.evictions < 20, "an access evicts at most the others");
        evictions += out.evictions;
    }
    assert!(evictions > 0, "a tight LRU cache must evict");
}
