//! Property-style tests of the caching core: allocation math invariants,
//! heap correctness, engine capacity safety and solver optimality bounds.
//!
//! The registry-less build environment has no `proptest`, so these are
//! seeded-loop property tests: each property draws a few hundred random
//! cases from a fixed-seed [`StdRng`] and asserts the invariant on every
//! case. Failures print the offending case, and reruns are deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_cache::policy::{PolicyKind, UtilityPolicy};
use sc_cache::{
    average_service_delay, greedy_value_selection, optimal_partial_allocation, prefix_bytes_needed,
    service_delay_secs, stream_quality, total_value, CacheEngine, ObjectKey, ObjectMeta,
    OfflineObject, UtilityHeap,
};
use std::collections::HashMap;

fn meta(key: u64, duration: f64, bitrate: f64, value: f64) -> ObjectMeta {
    ObjectMeta::new(ObjectKey::new(key), duration, bitrate, value)
}

/// The prefix needed never exceeds the object size, and fully caching that
/// prefix always removes the startup delay.
#[test]
fn prefix_hides_delay() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for _ in 0..300 {
        let duration = rng.gen_range(1.0..10_000.0);
        let bitrate = rng.gen_range(100.0..1e6);
        let bandwidth = rng.gen_range(0.0..2e6);
        let prefix = prefix_bytes_needed(duration, bitrate, bandwidth);
        assert!(prefix >= 0.0);
        assert!(prefix <= duration * bitrate + 1e-6);
        if bandwidth > 0.0 {
            let delay = service_delay_secs(duration, bitrate, bandwidth, prefix);
            assert!(delay.abs() < 1e-6, "delay {delay}");
        }
    }
}

/// The delay is zero **iff** the cached prefix covers the bandwidth deficit
/// `(r − b)⁺·T` (up to float tolerance) — the exactness claim of
/// Section 2.2 that makes PB's allocation minimal.
#[test]
fn delay_zero_iff_prefix_covers_deficit() {
    let mut rng = StdRng::seed_from_u64(0xDEF1C17);
    for _ in 0..500 {
        let duration = rng.gen_range(1.0..5_000.0);
        let bitrate = rng.gen_range(100.0..1e6);
        let bandwidth = rng.gen_range(1.0..2e6);
        let deficit = prefix_bytes_needed(duration, bitrate, bandwidth);
        let cached = rng.gen_range(0.0..=duration * bitrate);
        let delay = service_delay_secs(duration, bitrate, bandwidth, cached);
        // Tolerance band around the deficit: scale-aware epsilon.
        let eps = 1e-9 * duration * bitrate;
        if cached >= deficit + eps {
            assert_eq!(delay, 0.0, "cached {cached} >= deficit {deficit}");
        }
        if delay == 0.0 {
            assert!(
                cached >= deficit - eps,
                "zero delay with cached {cached} < deficit {deficit}"
            );
        } else {
            assert!(delay > 0.0);
            assert!(cached < deficit, "positive delay despite covered deficit");
        }
    }
}

/// Delay decreases monotonically (weakly) as more bytes are cached, and
/// quality increases monotonically.
#[test]
fn delay_and_quality_monotone() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..300 {
        let duration = rng.gen_range(1.0..5_000.0);
        let bitrate = rng.gen_range(100.0..1e6);
        let bandwidth = rng.gen_range(1.0..2e6);
        let size = duration * bitrate;
        let frac_a: f64 = rng.gen();
        let frac_b: f64 = rng.gen();
        let (lo, hi) = if frac_a <= frac_b {
            (frac_a, frac_b)
        } else {
            (frac_b, frac_a)
        };
        let d_lo = service_delay_secs(duration, bitrate, bandwidth, lo * size);
        let d_hi = service_delay_secs(duration, bitrate, bandwidth, hi * size);
        assert!(d_hi <= d_lo + 1e-9);
        let q_lo = stream_quality(duration, bitrate, bandwidth, lo * size);
        let q_hi = stream_quality(duration, bitrate, bandwidth, hi * size);
        assert!(q_hi + 1e-12 >= q_lo);
        assert!((0.0..=1.0).contains(&q_lo) && (0.0..=1.0).contains(&q_hi));
    }
}

/// The heap always pops utilities in non-decreasing order.
#[test]
fn heap_pops_sorted() {
    let mut rng = StdRng::seed_from_u64(0x48EA9);
    for _ in 0..100 {
        let n = rng.gen_range(1..200usize);
        let mut heap = UtilityHeap::new();
        for i in 0..n {
            heap.insert(i as u32, rng.gen_range(0.0..1e9));
        }
        assert!(heap.validate());
        let mut prev = f64::NEG_INFINITY;
        while let Some((_, u)) = heap.pop_min() {
            assert!(u >= prev);
            prev = u;
        }
    }
}

/// Heap order and index consistency are preserved under arbitrary mixes of
/// `insert`, `update`, `pop_min` and `remove`, checked against a flat
/// `HashMap` model of the expected contents.
#[test]
fn heap_invariant_under_mixed_operations() {
    let mut rng = StdRng::seed_from_u64(0xB1476);
    let mut heap = UtilityHeap::new();
    let mut model: HashMap<u32, f64> = HashMap::new();
    for step in 0..20_000 {
        let handle = rng.gen_range(0..150u32);
        match rng.gen_range(0..4u32) {
            0 => {
                let u = rng.gen_range(0.0..1e6);
                heap.insert(handle, u);
                model.insert(handle, u);
            }
            1 => {
                let u = rng.gen_range(0.0..1e6);
                heap.update(handle, u);
                model.insert(handle, u);
            }
            2 => {
                let removed = heap.remove(handle);
                assert_eq!(removed, model.remove(&handle), "remove disagreed at {step}");
            }
            _ => match heap.pop_min() {
                None => assert!(model.is_empty()),
                Some((h, u)) => {
                    let model_min = model.values().cloned().fold(f64::INFINITY, f64::min);
                    assert_eq!(u, model_min, "pop_min not minimal at {step}");
                    assert_eq!(model.remove(&h), Some(u));
                }
            },
        }
        assert_eq!(heap.len(), model.len());
        // Cheap order probe every step, full structural check periodically.
        if let Some((_, u)) = heap.peek_min() {
            let model_min = model.values().cloned().fold(f64::INFINITY, f64::min);
            assert_eq!(u, model_min);
        }
        if step % 64 == 0 {
            assert!(heap.validate(), "heap invariant broken at step {step}");
            for (h, u) in model.iter() {
                assert_eq!(heap.utility(*h), Some(*u));
            }
        }
    }
    assert!(heap.validate());
}

/// Under arbitrary access patterns the engine never exceeds its capacity,
/// and its bookkeeping (sum of entries == used bytes) stays consistent.
/// Checked for a partial and two integral policies.
#[test]
fn engine_capacity_invariant() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for _ in 0..25 {
        let capacity = rng.gen_range(1.0..200.0) * 1e6;
        let mut pb = CacheEngine::new(capacity, PolicyKind::PartialBandwidth).unwrap();
        let mut ib = CacheEngine::new(capacity, PolicyKind::IntegralBandwidth).unwrap();
        let mut ifc = CacheEngine::new(capacity, PolicyKind::IntegralFrequency).unwrap();
        let accesses = rng.gen_range(1..300usize);
        for _ in 0..accesses {
            let key = rng.gen_range(0..30u64);
            let duration = rng.gen_range(10.0..500.0);
            let bandwidth = rng.gen_range(1_000.0..100_000.0);
            let o = meta(key, duration, 48_000.0, 1.0);
            pb.on_access(&o, bandwidth);
            ib.on_access(&o, bandwidth);
            ifc.on_access(&o, bandwidth);
            assert!(pb.used_bytes() <= pb.capacity_bytes() + 1e-3);
            let pb_total: f64 = pb.contents().iter().map(|(_, b)| b).sum();
            assert!((pb_total - pb.used_bytes()).abs() < 1e-3);
            assert!(ib.used_bytes() <= ib.capacity_bytes() + 1e-3);
            let ib_total: f64 = ib.contents().iter().map(|(_, b)| b).sum();
            assert!((ib_total - ib.used_bytes()).abs() < 1e-3);
            assert!(ifc.used_bytes() <= ifc.capacity_bytes() + 1e-3);
            let ifc_total: f64 = ifc.contents().iter().map(|(_, b)| b).sum();
            assert!((ifc_total - ifc.used_bytes()).abs() < 1e-3);
        }
        // Stats are consistent: cache + origin bytes == requested bytes.
        for s in [*pb.stats(), *ib.stats(), *ifc.stats()] {
            assert!((s.bytes_from_cache + s.bytes_from_origin - s.bytes_requested).abs() < 1.0);
            assert!(s.traffic_reduction_ratio() >= 0.0 && s.traffic_reduction_ratio() <= 1.0);
        }
    }
}

/// PB never caches more than the object's own size.
#[test]
fn pb_allocation_bounds() {
    let mut rng = StdRng::seed_from_u64(0x9B0B);
    for _ in 0..25 {
        let mut cache = CacheEngine::new(1e12, PolicyKind::PartialBandwidth).unwrap();
        let accesses = rng.gen_range(1..200usize);
        for _ in 0..accesses {
            let key = rng.gen_range(0..20u64);
            let bandwidth = rng.gen_range(1_000.0..100_000.0);
            // Object metadata is a fixed function of the key.
            let duration = 10.0 + 25.0 * key as f64;
            let o = meta(key, duration, 48_000.0, 1.0);
            cache.on_access(&o, bandwidth);
            let cached = cache.cached_bytes(o.key);
            assert!(cached <= o.size_bytes() + 1e-6);
        }
    }
}

/// The hybrid policy's allocation interpolates between PB (e = 1) and
/// whole-object caching (e = 0).
#[test]
fn hybrid_targets_bracketed() {
    let mut rng = StdRng::seed_from_u64(0x4B1D);
    for _ in 0..300 {
        let duration = rng.gen_range(10.0..1_000.0);
        let bandwidth = rng.gen_range(1_000.0..47_000.0);
        let e = rng.gen_range(0.0..=1.0);
        let o = meta(1, duration, 48_000.0, 1.0);
        let pb = PolicyKind::PartialBandwidth.target_bytes(&o, bandwidth);
        let hybrid = PolicyKind::HybridPartialBandwidth { e }.target_bytes(&o, bandwidth);
        assert!(hybrid + 1e-9 >= pb);
        assert!(hybrid <= o.size_bytes() + 1e-6);
    }
}

/// The offline optimal allocation respects capacity and is never worse (in
/// rate-weighted delay) than the "cache nothing" and the "equal share"
/// baselines.
#[test]
fn offline_optimal_dominates_baselines() {
    let mut rng = StdRng::seed_from_u64(0x0FF11E);
    for _ in 0..60 {
        let n = rng.gen_range(1..30usize);
        let objects: Vec<OfflineObject> = (0..n)
            .map(|i| {
                OfflineObject::new(
                    meta(i as u64, rng.gen_range(10.0..500.0), 48_000.0, 1.0),
                    rng.gen_range(0.1..10.0),
                    rng.gen_range(1_000.0..100_000.0),
                )
            })
            .collect();
        let capacity = rng.gen_range(0.0..500.0) * 1e6;
        let alloc = optimal_partial_allocation(&objects, capacity).unwrap();
        let total: f64 = alloc.iter().sum();
        assert!(total <= capacity + 1e-3);
        for (a, o) in alloc.iter().zip(&objects) {
            assert!(*a <= o.meta.size_bytes() + 1e-6);
        }
        let optimal = average_service_delay(&objects, &alloc).unwrap();
        let nothing = average_service_delay(&objects, &vec![0.0; objects.len()]).unwrap();
        assert!(optimal <= nothing + 1e-9);
        let equal: Vec<f64> = objects
            .iter()
            .map(|o| {
                (capacity / objects.len() as f64).min(prefix_bytes_needed(
                    o.meta.duration_secs,
                    o.meta.bitrate_bps,
                    o.bandwidth_bps,
                ))
            })
            .collect();
        if equal.iter().sum::<f64>() <= capacity + 1e-3 {
            let equal_delay = average_service_delay(&objects, &equal).unwrap();
            assert!(
                optimal <= equal_delay + 1e-6,
                "optimal {optimal} vs equal {equal_delay}"
            );
        }
    }
}

/// Greedy value selection fits in the capacity and never selects objects
/// with abundant bandwidth.
#[test]
fn greedy_value_selection_feasible() {
    let mut rng = StdRng::seed_from_u64(0x6EEED);
    for _ in 0..60 {
        let n = rng.gen_range(1..30usize);
        let objects: Vec<OfflineObject> = (0..n)
            .map(|i| {
                OfflineObject::new(
                    meta(
                        i as u64,
                        rng.gen_range(10.0..500.0),
                        48_000.0,
                        rng.gen_range(1.0..10.0),
                    ),
                    rng.gen_range(0.1..10.0),
                    rng.gen_range(1_000.0..100_000.0),
                )
            })
            .collect();
        let capacity = rng.gen_range(0.0..500.0) * 1e6;
        let selected = greedy_value_selection(&objects, capacity).unwrap();
        let used: f64 = objects
            .iter()
            .zip(&selected)
            .filter(|(_, &s)| s)
            .map(|(o, _)| {
                prefix_bytes_needed(o.meta.duration_secs, o.meta.bitrate_bps, o.bandwidth_bps)
            })
            .sum();
        assert!(used <= capacity + 1e-3);
        for (o, &s) in objects.iter().zip(&selected) {
            if o.meta.bitrate_bps <= o.bandwidth_bps {
                assert!(!s);
            }
        }
        assert!(total_value(&objects, &selected).unwrap() >= 0.0);
    }
}

/// All paper policies process arbitrary access streams without panicking or
/// breaking capacity, through the boxed (dynamic) interface.
#[test]
fn all_policies_are_safe() {
    let mut rng = StdRng::seed_from_u64(0xA11);
    for _ in 0..10 {
        let accesses: Vec<(u64, f64, f64)> = (0..rng.gen_range(1..100usize))
            .map(|_| {
                (
                    rng.gen_range(0..15u64),
                    rng.gen_range(10.0..300.0),
                    rng.gen_range(1_000.0..100_000.0),
                )
            })
            .collect();
        for kind in PolicyKind::all_paper_policies() {
            let mut cache = CacheEngine::new(50e6, kind.build()).unwrap();
            for &(key, duration, bandwidth) in &accesses {
                let o = meta(key, duration, 48_000.0, 5.0);
                cache.on_access(&o, bandwidth);
                assert!(cache.used_bytes() <= cache.capacity_bytes() + 1e-3);
            }
        }
    }
}
