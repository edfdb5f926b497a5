//! End-to-end tests: origin ↔ caching proxy ↔ measuring client.
//!
//! These tests exercise the full acceleration story of the paper on
//! localhost: an object whose bit-rate exceeds the (rate-limited) origin
//! path bandwidth suffers a startup delay when fetched directly, and the
//! delay disappears once the proxy holds the bandwidth-deficit prefix.

use sc_cache::policy::PolicyKind;
use sc_proxy::{
    CachingProxy, ObjectSpec, OriginConfig, OriginServer, ProxyConfig, StreamingClient,
};

/// Spin up an origin hosting `objects` with the given per-connection rate
/// limit, plus a proxy in front of it.
fn setup(
    objects: Vec<ObjectSpec>,
    rate_limit_bps: f64,
    capacity: f64,
    policy: PolicyKind,
) -> (OriginServer, CachingProxy) {
    let origin = OriginServer::start(OriginConfig {
        objects,
        rate_limit_bps,
    })
    .expect("origin starts");
    let proxy = CachingProxy::start(ProxyConfig {
        policy,
        ..ProxyConfig::new(origin.addr(), capacity)
    })
    .expect("proxy starts");
    (origin, proxy)
}

#[test]
fn direct_fetch_of_a_starved_object_has_startup_delay() {
    // 240 KB object at 480 KB/s bit-rate over a 160 KB/s path: the path
    // sustains only a third of the encoding rate.
    let origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("starved", 240_000, 480_000.0)],
        rate_limit_bps: 160_000.0,
    })
    .unwrap();
    let report = StreamingClient::new()
        .fetch(origin.addr(), "starved")
        .unwrap();
    assert_eq!(report.bytes, 240_000);
    assert!(report.content_ok);
    // Transfer takes ~1.5 s but playout only needs 0.5 s: the client must
    // wait roughly a second before starting.
    assert!(
        report.startup_delay_secs > 0.4,
        "startup delay {}",
        report.startup_delay_secs
    );
}

#[test]
fn warm_proxy_hides_the_startup_delay() {
    let (_origin, proxy) = setup(
        vec![ObjectSpec::new("clip", 240_000, 480_000.0)],
        160_000.0,
        10_000_000.0,
        PolicyKind::PartialBandwidth,
    );
    let client = StreamingClient::new();

    // Cold fetch: the proxy has nothing; delay comparable to direct access.
    let cold = client.fetch(proxy.addr(), "clip").unwrap();
    assert_eq!(cold.bytes, 240_000);
    assert!(cold.content_ok);
    assert!(
        cold.startup_delay_secs > 0.3,
        "cold delay {}",
        cold.startup_delay_secs
    );

    // The PB policy should now hold the bandwidth-deficit prefix
    // ((r - b)/r = 2/3 of the object).
    let cached = proxy.cached_prefix_len("clip");
    assert!(
        cached >= 140_000,
        "expected a substantial prefix, got {cached} bytes"
    );

    // Warm fetch: prefix arrives at LAN speed, the rest trickles from the
    // origin while the prefix plays — the startup delay collapses.
    let warm = client.fetch(proxy.addr(), "clip").unwrap();
    assert_eq!(warm.bytes, 240_000);
    assert!(warm.content_ok);
    assert!(
        warm.startup_delay_secs < cold.startup_delay_secs / 2.0,
        "warm delay {} vs cold {}",
        warm.startup_delay_secs,
        cold.startup_delay_secs
    );

    let stats = proxy.stats();
    assert_eq!(stats.requests, 2);
    assert!(stats.bytes_from_cache > 0);
    assert!(stats.bytes_from_origin > 0);
    assert!(stats.estimated_origin_bps > 0.0);
}

#[test]
fn well_connected_objects_are_not_cached_by_pb() {
    // Bit-rate 40 KB/s over an effectively unlimited path: PB never caches.
    let (_origin, proxy) = setup(
        vec![ObjectSpec::new("easy", 120_000, 40_000.0)],
        0.0,
        10_000_000.0,
        PolicyKind::PartialBandwidth,
    );
    let client = StreamingClient::new();
    let a = client.fetch(proxy.addr(), "easy").unwrap();
    let b = client.fetch(proxy.addr(), "easy").unwrap();
    assert!(a.content_ok && b.content_ok);
    assert!(a.startup_delay_secs < 0.2);
    assert!(b.startup_delay_secs < 0.2);
    assert_eq!(proxy.cached_prefix_len("easy"), 0);
}

#[test]
fn integral_policy_caches_whole_objects() {
    let (_origin, proxy) = setup(
        vec![ObjectSpec::new("whole", 200_000, 400_000.0)],
        150_000.0,
        10_000_000.0,
        PolicyKind::IntegralBandwidth,
    );
    let client = StreamingClient::new();
    client.fetch(proxy.addr(), "whole").unwrap();
    assert_eq!(proxy.cached_prefix_len("whole"), 200_000);
    // Fully cached: the origin is not contacted again.
    let before = proxy.stats().bytes_from_origin;
    let warm = client.fetch(proxy.addr(), "whole").unwrap();
    assert!(warm.content_ok);
    assert!(warm.startup_delay_secs < 0.1);
    assert_eq!(proxy.stats().bytes_from_origin, before);
}

#[test]
fn unknown_objects_propagate_an_error() {
    let (_origin, proxy) = setup(vec![], 0.0, 1_000_000.0, PolicyKind::PartialBandwidth);
    let err = StreamingClient::new().fetch(proxy.addr(), "ghost");
    assert!(err.is_err());
}

#[test]
fn capacity_pressure_evicts_lower_utility_objects() {
    // Two starved objects but capacity for roughly one deficit prefix.
    let (_origin, proxy) = setup(
        vec![
            ObjectSpec::new("popular", 120_000, 360_000.0),
            ObjectSpec::new("rare", 120_000, 360_000.0),
        ],
        120_000.0,
        100_000.0,
        PolicyKind::PartialBandwidth,
    );
    let client = StreamingClient::new();
    // Make "popular" clearly more popular.
    client.fetch(proxy.addr(), "rare").unwrap();
    for _ in 0..3 {
        client.fetch(proxy.addr(), "popular").unwrap();
    }
    let popular = proxy.cached_prefix_len("popular");
    let rare = proxy.cached_prefix_len("rare");
    assert!(
        popular >= rare,
        "popular prefix {popular} should be at least the rare prefix {rare}"
    );
    let stats = proxy.stats();
    assert!(
        stats.cached_bytes <= 100_000 + 16_384,
        "cached {}",
        stats.cached_bytes
    );
}

/// The header and the first cached chunk normally leave in one write; a
/// per-client pace that makes the chunk wait must not hold the header back
/// with it.
#[test]
fn paced_client_gets_its_header_before_the_bucket_opens() {
    use sc_proxy::protocol::{read_response, write_request, Request, Response};
    use std::io::{BufReader, Read};
    use std::time::{Duration, Instant};

    let origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("clip", 32 * 1024, 1e6)],
        rate_limit_bps: 0.0,
    })
    .unwrap();
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    config.policy = PolicyKind::IntegralFrequency;
    config.client_rate_limit_bps = 64.0 * 1024.0; // the 32 KiB prefix waits 0.5 s
    let proxy = CachingProxy::start(config).unwrap();
    StreamingClient::new().fetch(proxy.addr(), "clip").unwrap();
    assert_eq!(proxy.cached_prefix_len("clip"), 32 * 1024);

    let started = Instant::now();
    let mut stream = std::net::TcpStream::connect(proxy.addr()).unwrap();
    let request = Request {
        name: "clip".into(),
        offset: 0,
    };
    write_request(&mut stream, &request).unwrap();
    let mut reader = BufReader::new(stream);
    assert!(matches!(
        read_response(&mut reader).unwrap(),
        Response::Ok { size: 32_768, .. }
    ));
    let header_after = started.elapsed();
    let mut body = Vec::new();
    reader.read_to_end(&mut body).unwrap();
    assert_eq!(body.len(), 32 * 1024);
    assert!(
        header_after < Duration::from_millis(250),
        "header took {header_after:?}"
    );
    assert!(
        started.elapsed() >= Duration::from_millis(400),
        "the body was not paced: {:?}",
        started.elapsed()
    );
}

/// Relay memory follows the prefix the engine grants, not the object: a
/// 16 MiB film on a path PB has learned is abundant streams through the
/// fixed ring, and the only bytes ever retained are the probe's own on
/// first contact (PB's target for 64 KiB at the assumed 64 kB/s).
#[test]
fn relay_memory_is_bounded_by_the_admissible_prefix_not_the_object() {
    const PROBE_BYTES: u64 = 64 * 1024;
    const FILM_BYTES: u64 = 16 * 1024 * 1024;
    let (_origin, proxy) = setup(
        vec![
            ObjectSpec::new("probe", PROBE_BYTES, 1e6),
            ObjectSpec::new("feature-film", FILM_BYTES, 1e6),
        ],
        0.0,
        1e12,
        PolicyKind::PartialBandwidth,
    );
    let client = StreamingClient::new();
    // Warm the estimator: after these the proxy knows the path is far
    // faster than any bit-rate, so PB's target for the film is zero.
    for _ in 0..3 {
        client.fetch(proxy.addr(), "probe").unwrap();
    }
    for _ in 0..2 {
        let report = client.fetch(proxy.addr(), "feature-film").unwrap();
        assert!(report.content_ok);
        assert_eq!(report.bytes, FILM_BYTES);
    }
    assert_eq!(proxy.cached_prefix_len("feature-film"), 0);
    let peak = proxy.stats().peak_tail_bytes;
    assert!(
        peak <= PROBE_BYTES,
        "relay retained {peak} bytes of a {FILM_BYTES}-byte stream"
    );
}

/// An object PB declines from its first request on — 8 kB/s, below the
/// bandwidth the proxy assumes before any transfer — keeps nothing, so
/// once the header and whatever arrived with it are out, its tail moves
/// kernel to kernel (origin socket → pipe → client socket) and arrives
/// byte-exact, twice.
#[test]
fn a_declined_object_is_spliced_through_byte_exact() {
    const FILM_BYTES: u64 = 8 * 1024 * 1024;
    let (_origin, proxy) = setup(
        vec![ObjectSpec::new("film", FILM_BYTES, 8_000.0)],
        0.0,
        1e12,
        PolicyKind::PartialBandwidth,
    );
    let client = StreamingClient::new();
    for _ in 0..2 {
        let report = client.fetch(proxy.addr(), "film").unwrap();
        assert_eq!(report.bytes, FILM_BYTES);
        assert!(report.content_ok);
    }
    let stats = proxy.stats();
    assert!(stats.spliced_bytes > 0, "the tail went through the ring");
    assert_eq!(stats.peak_tail_bytes, 0);
    assert_eq!(proxy.cached_prefix_len("film"), 0);
}
