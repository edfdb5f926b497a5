//! Concurrency suite for [`ShardedEngine`]: budget invariants under
//! multi-threaded load, exact aggregate counters, and bit-identity of the
//! one-shard configuration with the plain [`CacheEngine`].
//!
//! Thread count follows `SC_SIM_THREADS` (default 4) so CI can pin it.

use sc_cache::policy::PolicyKind;
use sc_cache::{CacheEngine, CacheStats, ObjectKey, ObjectMeta, ShardedEngine};
use std::sync::Arc;

const R: f64 = 48_000.0;

fn threads() -> usize {
    std::env::var("SC_SIM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

fn obj(key: u64, duration: f64) -> ObjectMeta {
    ObjectMeta::new(ObjectKey::new(key), duration, R, 1.0)
}

/// A tiny per-thread xorshift so each worker draws its own access pattern
/// without any shared state.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Budget invariants hold at every observation point under threads hitting
/// disjoint key ranges (mostly distinct shards, zero logical contention).
#[test]
fn disjoint_keys_respect_budgets_under_concurrency() {
    let threads = threads();
    let capacity = 64.0 * obj(0, 100.0).size_bytes();
    let cache =
        Arc::new(ShardedEngine::new(capacity, 4, || PolicyKind::IntegralBandwidth).unwrap());
    let per_thread = 400u64;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                let mut rng = 0x1234_5678_9abc_def0u64 ^ ((t as u64 + 1) << 32);
                for _ in 0..per_thread {
                    // Each thread owns keys [t*1000, t*1000+32).
                    let key = (t as u64) * 1_000 + xorshift(&mut rng) % 32;
                    let duration = 50.0 + (xorshift(&mut rng) % 200) as f64;
                    let bandwidth = R * 0.25 + (xorshift(&mut rng) % 32_000) as f64;
                    cache.on_access(&obj(key, duration), bandwidth);
                    // Budget invariants must hold at any instant, not just
                    // at the end.
                    assert!(cache.used_bytes() <= cache.capacity_bytes() + 1e-6);
                }
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(stats.requests, threads as u64 * per_thread);
    for i in 0..cache.shard_count() {
        assert!(
            cache.shard_used_bytes(i) <= cache.shard_capacity(i) + 1e-6,
            "shard {i} exceeded its budget"
        );
    }
    assert!(cache.used_bytes() <= cache.capacity_bytes() + 1e-6);
}

/// Every `f64` of `stats` as its bit pattern, for bitwise comparison.
fn byte_totals_bits(stats: &CacheStats) -> [u64; 5] {
    [
        stats.bytes_requested,
        stats.bytes_from_cache,
        stats.bytes_from_origin,
        stats.bytes_admitted,
        stats.bytes_evicted,
    ]
    .map(f64::to_bits)
}

/// The same invariants under full contention: every thread hammers the same
/// small key set, so the shard locks are racing.
#[test]
fn overlapping_keys_respect_budgets_under_concurrency() {
    let threads = threads();
    // Tight budget (8 object-units for ~16 objects) to keep evictions hot.
    let capacity = 8.0 * obj(0, 100.0).size_bytes();
    let cache =
        Arc::new(ShardedEngine::new(capacity, 4, || PolicyKind::IntegralBandwidth).unwrap());
    let per_thread = 600u64;

    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                let mut rng = 0xdead_beef_cafe_f00du64 ^ (t as u64 + 1);
                for _ in 0..per_thread {
                    let key = xorshift(&mut rng) % 16;
                    let duration = 50.0 + (key * 20) as f64;
                    let bandwidth = R * 0.25 + (xorshift(&mut rng) % 32_000) as f64;
                    cache.on_access(&obj(key, duration), bandwidth);
                }
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(stats.requests, threads as u64 * per_thread);
    // Eviction pressure was real.
    assert!(stats.evictions > 0, "tight budget must force evictions");
    // The aggregate is the shards' own counters, summed in shard order.
    let mut summed = CacheStats::default();
    for i in 0..cache.shard_count() {
        let shard = cache.with_shard_index(i, |engine, _| *engine.stats());
        summed.requests += shard.requests;
        summed.hits += shard.hits;
        summed.admissions += shard.admissions;
        summed.evictions += shard.evictions;
        summed.bytes_requested += shard.bytes_requested;
        summed.bytes_from_cache += shard.bytes_from_cache;
        summed.bytes_from_origin += shard.bytes_from_origin;
        summed.bytes_admitted += shard.bytes_admitted;
        summed.bytes_evicted += shard.bytes_evicted;
    }
    assert_eq!(stats, summed);
    assert_eq!(byte_totals_bits(&stats), byte_totals_bits(&summed));
    for i in 0..cache.shard_count() {
        assert!(
            cache.shard_used_bytes(i) <= cache.shard_capacity(i) + 1e-6,
            "shard {i} exceeded its budget"
        );
    }
    assert!(cache.used_bytes() <= cache.capacity_bytes() + 1e-6);
    // contents() agrees with used_bytes() once writers are done.
    let total: f64 = cache.contents().iter().map(|&(_, b)| b).sum();
    assert!((total - cache.used_bytes()).abs() < 1e-6);
}

/// `shards = 1`, single thread: outcomes, contents and every statistics
/// field must be **bit-identical** to the unsharded engine fed the same
/// access sequence.
#[test]
fn one_shard_is_bit_identical_to_plain_engine() {
    let capacity = 10.0 * obj(0, 100.0).size_bytes();
    let sharded = ShardedEngine::new(capacity, 1, || PolicyKind::PartialBandwidth).unwrap();
    let mut plain = CacheEngine::new(capacity, PolicyKind::PartialBandwidth).unwrap();

    let mut rng = 0x5eed_5eed_5eed_5eedu64;
    for step in 0..2_000 {
        let key = xorshift(&mut rng) % 24;
        let duration = 40.0 + (xorshift(&mut rng) % 300) as f64;
        let bandwidth = 1_000.0 + (xorshift(&mut rng) % 90_000) as f64;
        let meta = obj(key, duration);

        let a = sharded.on_access(&meta, bandwidth);
        let b = plain.on_access(&meta, bandwidth);
        assert_eq!(a, b, "outcome diverged at step {step}");
        assert_eq!(
            sharded.cached_bytes(meta.key).to_bits(),
            plain.cached_bytes(meta.key).to_bits(),
            "cached bytes diverged at step {step}"
        );

        // Exercise clear() occasionally — its eviction accounting must
        // match the engine's slot-order accumulation exactly.
        if step % 500 == 499 {
            assert_eq!(sharded.clear(), plain.clear());
        }
    }

    assert_eq!(sharded.used_bytes().to_bits(), plain.used_bytes().to_bits());
    assert_eq!(sharded.len(), plain.len());

    let a = sharded.stats();
    let b = plain.stats();
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.hits, b.hits);
    assert_eq!(a.admissions, b.admissions);
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(a.bytes_requested.to_bits(), b.bytes_requested.to_bits());
    assert_eq!(a.bytes_from_cache.to_bits(), b.bytes_from_cache.to_bits());
    assert_eq!(a.bytes_from_origin.to_bits(), b.bytes_from_origin.to_bits());
    assert_eq!(a.bytes_admitted.to_bits(), b.bytes_admitted.to_bits());
    assert_eq!(a.bytes_evicted.to_bits(), b.bytes_evicted.to_bits());

    // Contents agree as multisets of exact bit patterns.
    let mut ca: Vec<(u64, u64)> = sharded
        .contents()
        .into_iter()
        .map(|(k, v)| (k.as_u64(), v.to_bits()))
        .collect();
    let mut cb: Vec<(u64, u64)> = plain
        .contents()
        .into_iter()
        .map(|(k, v)| (k.as_u64(), v.to_bits()))
        .collect();
    ca.sort_unstable();
    cb.sort_unstable();
    assert_eq!(ca, cb);
}

/// Sharded multi-threaded runs must agree with a single-threaded replay on
/// everything order-independent: per-shard placement is a pure function of
/// the key, and integer request counts are exact.
#[test]
fn routing_is_identical_across_thread_counts() {
    let capacity = 1e9;
    let concurrent =
        Arc::new(ShardedEngine::new(capacity, 4, || PolicyKind::PartialBandwidth).unwrap());
    let sequential = ShardedEngine::new(capacity, 4, || PolicyKind::PartialBandwidth).unwrap();
    let keys: Vec<u64> = (0..64).collect();

    std::thread::scope(|scope| {
        for chunk in keys.chunks(keys.len() / threads().max(1) + 1) {
            let cache = Arc::clone(&concurrent);
            scope.spawn(move || {
                for &k in chunk {
                    cache.on_access(&obj(k, 120.0), R / 2.0);
                }
            });
        }
    });
    for &k in &keys {
        sequential.on_access(&obj(k, 120.0), R / 2.0);
    }

    for &k in &keys {
        let key = ObjectKey::new(k);
        assert_eq!(concurrent.shard_of(key), sequential.shard_of(key));
        // Capacity is effectively unbounded, so allocations are identical
        // regardless of arrival order.
        assert_eq!(
            concurrent.cached_bytes(key).to_bits(),
            sequential.cached_bytes(key).to_bits()
        );
    }
    assert_eq!(concurrent.stats().requests, sequential.stats().requests);
}

/// Several shards, one thread: two replays of one access sequence give
/// bit-equal byte totals, evictions and `clear` included.
#[test]
fn single_threaded_replays_at_four_shards_agree_bitwise() {
    let replay = || {
        let capacity = 8.0 * obj(0, 100.0).size_bytes();
        let cache = ShardedEngine::new(capacity, 4, || PolicyKind::PartialBandwidth).unwrap();
        let mut rng = 0x0123_4567_89ab_cdefu64;
        for step in 0..3_000 {
            let key = xorshift(&mut rng) % 48;
            let duration = 40.0 + (xorshift(&mut rng) % 300) as f64;
            let bandwidth = 1_000.0 + (xorshift(&mut rng) % 90_000) as f64;
            cache.on_access(&obj(key, duration), bandwidth);
            if step == 1_500 {
                cache.clear();
            }
        }
        cache.stats()
    };
    let (a, b) = (replay(), replay());
    assert!(a.evictions > 0 && a.bytes_evicted > 0.0);
    assert_eq!(a.requests, 3_000);
    assert_eq!(byte_totals_bits(&a), byte_totals_bits(&b));
    assert_eq!(a, b);
}
