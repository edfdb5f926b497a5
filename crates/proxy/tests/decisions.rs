//! The proxy decides what the engine decides. A one-worker proxy serving
//! one sequential client makes one engine access per request, on the
//! estimate the request starts with — which is what `STATS` reads just
//! before it. Replaying the same object metadata at that estimate through
//! a plain [`CacheEngine`] must give, after every request, the same cached
//! objects with bit-equal allocations, and the proxy must hold exactly the
//! granted bytes of each. No scripted estimator is needed: whatever the
//! loopback transfers teach the proxy's estimator, the reference is told.
//! The proxy's shards hold the `PolicyKind` itself and the reference its
//! boxed [`PolicyKind::build`], so the replay also pins the two dispatches
//! against each other.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_cache::policy::PolicyKind;
use sc_cache::{CacheEngine, ObjectKey, ObjectMeta};
use sc_proxy::{
    CachingProxy, ObjectSpec, OriginConfig, OriginServer, ProxyConfig, StreamingClient,
};

const OBJECTS: usize = 48;
const REQUESTS: usize = 400;

/// 48 objects of 8–48 KiB whose bit-rates spread from 1e5 to 1e10 B/s,
/// denser towards the top, so PB keeps a prefix of some and nothing of
/// others at any estimate loopback produces, and what it keeps outgrows the
/// capacity. Size, bit-rate and popularity rank are decorrelated.
fn catalog() -> Vec<ObjectSpec> {
    (0..OBJECTS)
        .map(|i| {
            let size = 8 * 1024 + (i * 37 % 41) as u64 * 1024;
            let spread = (((i * 29) % OBJECTS) as f64 / 47.0).sqrt();
            let bitrate = 10f64.powf(5.0 + 5.0 * spread);
            ObjectSpec::new(format!("obj-{i}"), size, bitrate)
        })
        .collect()
}

/// `(name, engine bytes, stored bytes)`, sorted by name.
type Contents = Vec<(String, f64, usize)>;

fn replay(policy: PolicyKind, seed: u64) {
    let specs = catalog();
    let catalog_bytes: u64 = specs.iter().map(|s| s.size_bytes).sum();
    let capacity = catalog_bytes as f64 / 4.0;
    let origin = OriginServer::start(OriginConfig {
        objects: specs.clone(),
        rate_limit_bps: 0.0,
    })
    .expect("origin start");
    let mut config = ProxyConfig::new(origin.addr(), capacity);
    config.policy = policy;
    config.worker_threads = 1;
    let proxy = CachingProxy::start(config).expect("proxy start");
    let client = StreamingClient::new();
    let mut reference = CacheEngine::new(capacity, policy.build()).expect("reference engine");
    let mut rng = StdRng::seed_from_u64(seed);

    for request in 0..REQUESTS {
        // Skewed towards low indices: repeats, hits and evictions.
        let i = (rng.gen::<f64>().powi(3) * OBJECTS as f64) as usize;
        let spec = &specs[i];
        let estimate = proxy.stats().estimated_origin_bps;
        let report = client.fetch(proxy.addr(), &spec.name).expect("fetch");
        assert!(
            report.content_ok && !report.degraded,
            "{policy:?} #{request}"
        );
        assert_eq!(report.bytes, spec.size_bytes, "{policy:?} #{request}");
        // The metadata as the proxy builds it from the header.
        let bitrate = report.bitrate_bps;
        let meta = ObjectMeta::new(
            ObjectKey::new(i as u64),
            spec.size_bytes as f64 / bitrate,
            bitrate,
            0.0,
        );
        reference.on_access(&meta, estimate);

        let mut expected: Contents = reference
            .contents()
            .into_iter()
            .map(|(key, bytes)| {
                let name = &specs[key.as_u64() as usize].name;
                (name.clone(), bytes, bytes as usize)
            })
            .collect();
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        let mut actual = proxy.contents();
        actual.sort_by(|a, b| a.0.cmp(&b.0));
        let bits = |c: &Contents| -> Vec<(String, u64, usize)> {
            c.iter()
                .map(|(name, bytes, stored)| (name.clone(), bytes.to_bits(), *stored))
                .collect()
        };
        assert_eq!(
            bits(&actual),
            bits(&expected),
            "{policy:?} #{request} (`{}` at {estimate} B/s): proxy {actual:?}, engine {expected:?}",
            spec.name
        );
    }
    // The replay exercised what it claims to: something was cached, and
    // for the policies whose grants do not depend on the estimate the
    // capacity forced evictions (PB and IB evict too on this catalog, but
    // how much depends on what loopback measures).
    let stats = reference.stats();
    assert!(stats.hits > 0, "{policy:?}: no hit in {REQUESTS} requests");
    if matches!(policy, PolicyKind::IntegralFrequency | PolicyKind::Lru) {
        assert!(stats.evictions > 0, "{policy:?}: nothing evicted");
    }
}

#[test]
fn pb_decides_what_the_engine_decides() {
    replay(PolicyKind::PartialBandwidth, 1);
}

#[test]
fn pb_e_decides_what_the_engine_decides() {
    replay(PolicyKind::HybridPartialBandwidth { e: 0.5 }, 5);
}

#[test]
fn ib_decides_what_the_engine_decides() {
    replay(PolicyKind::IntegralBandwidth, 2);
}

#[test]
fn if_decides_what_the_engine_decides() {
    replay(PolicyKind::IntegralFrequency, 3);
}

#[test]
fn lru_decides_what_the_engine_decides() {
    replay(PolicyKind::Lru, 4);
}
