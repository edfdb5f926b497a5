//! Integration: drive the cache engine directly with a generated workload
//! and bandwidth model, and check the optimal-offline solver against the
//! online policies.

use rand::rngs::StdRng;
use rand::SeedableRng;
use streamcache::cache::policy::PolicyKind;
use streamcache::cache::{
    average_service_delay, optimal_partial_allocation, CacheEngine, ObjectKey, ObjectMeta,
    OfflineObject,
};
use streamcache::netmodel::{NlanrBandwidthModel, PathSet, VariabilityModel};
use streamcache::workload::WorkloadConfig;

fn setup(objects: usize, requests: usize) -> (streamcache::workload::Workload, PathSet) {
    let mut config = WorkloadConfig {
        seed: 11,
        ..WorkloadConfig::default()
    };
    config.catalog.objects = objects;
    config.trace.requests = requests;
    let workload = config.generate().expect("valid workload");
    let mut rng = StdRng::seed_from_u64(11);
    let paths = PathSet::generate(
        objects,
        &NlanrBandwidthModel::paper_default(),
        VariabilityModel::constant(),
        &mut rng,
    );
    (workload, paths)
}

fn to_meta(obj: &streamcache::workload::MediaObject) -> ObjectMeta {
    ObjectMeta::new(
        ObjectKey::new(obj.id.index() as u64),
        obj.duration_secs,
        obj.bitrate_bps,
        obj.value,
    )
}

#[test]
fn online_pb_tracks_request_frequencies_and_respects_capacity() {
    let (workload, paths) = setup(200, 3_000);
    let capacity = 0.05 * workload.catalog.total_bytes();
    let mut cache = CacheEngine::new(capacity, PolicyKind::PartialBandwidth).unwrap();
    for request in workload.trace.iter() {
        let obj = workload.catalog.object(request.object);
        cache.on_access(&to_meta(obj), paths.mean_bps(obj.id.index()));
        assert!(cache.used_bytes() <= cache.capacity_bytes() + 1e-3);
    }
    let stats = cache.stats();
    assert_eq!(stats.requests, 3_000);
    assert!(stats.traffic_reduction_ratio() > 0.0);
    assert!(stats.traffic_reduction_ratio() < 1.0);
    // High-utility objects should be cached. PB ranks by `F/b` (not raw
    // frequency): take the ten starved objects with the highest observed
    // count-to-bandwidth ratio and check most hold a prefix.
    let counts = workload.trace.request_counts(workload.catalog.len());
    let mut ranked: Vec<usize> = (0..workload.catalog.len())
        .filter(|&i| paths.mean_bps(i) < workload.catalog.as_slice()[i].bitrate_bps)
        .collect();
    ranked.sort_by(|&a, &b| {
        let ua = counts[a] as f64 / paths.mean_bps(a);
        let ub = counts[b] as f64 / paths.mean_bps(b);
        ub.partial_cmp(&ua).expect("utilities are finite")
    });
    let cached_hot = ranked
        .iter()
        .take(10)
        .filter(|&&i| cache.cached_bytes(ObjectKey::new(i as u64)) > 0.0)
        .count();
    assert!(
        cached_hot >= 6,
        "only {cached_hot}/10 high-utility starved objects cached"
    );
}

#[test]
fn offline_optimum_is_no_worse_than_online_policies_on_average_delay() {
    let (workload, paths) = setup(150, 4_000);
    let capacity = 0.04 * workload.catalog.total_bytes();
    let counts = workload.trace.request_counts(workload.catalog.len());

    // Offline optimal allocation computed from the true request counts.
    let offline: Vec<OfflineObject> = workload
        .catalog
        .iter()
        .map(|o| {
            OfflineObject::new(
                to_meta(o),
                counts[o.id.index()] as f64,
                paths.mean_bps(o.id.index()),
            )
        })
        .collect();
    let optimal_alloc = optimal_partial_allocation(&offline, capacity).unwrap();
    let optimal_delay = average_service_delay(&offline, &optimal_alloc).unwrap();

    // Online PB allocation after replaying the trace.
    for kind in [
        PolicyKind::PartialBandwidth,
        PolicyKind::IntegralBandwidth,
        PolicyKind::IntegralFrequency,
        PolicyKind::Lru,
    ] {
        let mut cache = CacheEngine::new(capacity, kind.build()).unwrap();
        for request in workload.trace.iter() {
            let obj = workload.catalog.object(request.object);
            cache.on_access(&to_meta(obj), paths.mean_bps(obj.id.index()));
        }
        let online_alloc: Vec<f64> = workload
            .catalog
            .iter()
            .map(|o| cache.cached_bytes(ObjectKey::new(o.id.index() as u64)))
            .collect();
        // The online allocation may exceed capacity *bounds* never, so it is
        // a feasible solution of the same knapsack; the offline optimum must
        // be at least as good.
        let online_delay = average_service_delay(&offline, &online_alloc).unwrap();
        assert!(
            optimal_delay <= online_delay + 1e-6,
            "offline optimum {optimal_delay} worse than online {} ({online_delay})",
            kind.label()
        );
    }
}

#[test]
fn bandwidth_aware_online_policy_beats_frequency_only_policy_on_delay() {
    let (workload, paths) = setup(300, 6_000);
    let capacity = 0.03 * workload.catalog.total_bytes();
    let counts = workload.trace.request_counts(workload.catalog.len());
    let offline: Vec<OfflineObject> = workload
        .catalog
        .iter()
        .map(|o| {
            OfflineObject::new(
                to_meta(o),
                counts[o.id.index()] as f64,
                paths.mean_bps(o.id.index()),
            )
        })
        .collect();

    let mut delays = Vec::new();
    for kind in [PolicyKind::PartialBandwidth, PolicyKind::IntegralFrequency] {
        let mut cache = CacheEngine::new(capacity, kind.build()).unwrap();
        for request in workload.trace.iter() {
            let obj = workload.catalog.object(request.object);
            cache.on_access(&to_meta(obj), paths.mean_bps(obj.id.index()));
        }
        let alloc: Vec<f64> = workload
            .catalog
            .iter()
            .map(|o| cache.cached_bytes(ObjectKey::new(o.id.index() as u64)))
            .collect();
        delays.push(average_service_delay(&offline, &alloc).unwrap());
    }
    assert!(
        delays[0] <= delays[1] + 1e-6,
        "PB delay {} should not exceed IF delay {}",
        delays[0],
        delays[1]
    );
}
