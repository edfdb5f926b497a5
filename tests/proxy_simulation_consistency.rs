//! Integration: the running proxy prototype and the analytic delivery model
//! agree — the prefix the PB policy stores is exactly the one the formula
//! says is needed at the estimate the request started with, and the
//! measured startup delay behaves like the model's service delay.

use streamcache::cache::{prefix_bytes_needed, service_delay_secs};
use streamcache::proxy::{
    CachingProxy, ObjectSpec, OriginConfig, OriginServer, ProxyConfig, StreamingClient,
};

#[test]
fn proxy_prefix_matches_the_analytic_deficit() {
    // 300 KB at 600 KB/s bit-rate over a 200 KB/s path: duration 0.5 s,
    // deficit (600-200)*0.5 = 200 KB.
    let origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("clip", 300_000, 600_000.0)],
        rate_limit_bps: 200_000.0,
    })
    .unwrap();
    let proxy = CachingProxy::start(ProxyConfig::new(origin.addr(), 10_000_000.0)).unwrap();
    let client = StreamingClient::new();

    // The cold request decides on the estimate it starts with: on a fresh
    // proxy, the assumed 64 kB/s.
    let estimated = proxy.stats().estimated_origin_bps;
    assert_eq!(estimated, 64_000.0);
    let cold = client.fetch(proxy.addr(), "clip").unwrap();
    assert!(cold.content_ok);

    let duration = 300_000.0 / 600_000.0;
    // (600 - 64) kB/s × 0.5 s = 268 000 B, to the byte.
    let expected_prefix = prefix_bytes_needed(duration, 600_000.0, estimated) as usize;
    assert_eq!(expected_prefix, 268_000);
    assert_eq!(proxy.cached_prefix_len("clip"), expected_prefix);
    let actual_prefix = expected_prefix as f64;

    // The analytic model predicts (r/b - 1)*T ≈ 1.0 s of startup delay for a
    // cold client and ~0 for a warm one; the measured values should follow
    // the same ordering with a clear gap.
    let model_cold = service_delay_secs(duration, 600_000.0, 200_000.0, 0.0);
    let model_warm = service_delay_secs(duration, 600_000.0, 200_000.0, actual_prefix);
    let warm = client.fetch(proxy.addr(), "clip").unwrap();
    assert!(model_cold > model_warm);
    assert!(
        warm.startup_delay_secs < cold.startup_delay_secs,
        "warm {} vs cold {}",
        warm.startup_delay_secs,
        cold.startup_delay_secs
    );
    // Cold measured delay should be within a factor of ~2 of the model
    // (scheduling noise, TCP buffering).
    assert!(
        cold.startup_delay_secs > model_cold * 0.3,
        "cold measured {} vs model {}",
        cold.startup_delay_secs,
        model_cold
    );
}
