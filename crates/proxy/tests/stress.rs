//! Multi-client stress tests of the worker-pool proxy: concurrent requests
//! over a shared catalog, with byte-accounting consistency between the
//! cache engine's grants and the stored prefixes checked after the load
//! drains. Each shard owns its objects' records under the engine's lock and
//! updates them from the access outcome and the reported victims, so these
//! invariants are exactly what that O(changes) update must preserve.

use sc_cache::policy::PolicyKind;
use sc_proxy::{
    BreakerConfig, BreakerState, CachingProxy, FaultAction, FaultPlan, ObjectSpec, OriginConfig,
    OriginServer, ProxyConfig, RetryPolicy, StreamingClient,
};
use std::time::Duration;

/// Asserts the engine/store byte-accounting invariants on a drained proxy:
/// every store entry belongs to a live engine entry and never exceeds the
/// engine's grant, no store bytes exist outside engine-tracked entries,
/// and the engine respects its capacity.
fn assert_byte_accounting(proxy: &CachingProxy, capacity_bytes: f64) {
    let contents = proxy.contents();
    let mut engine_total = 0.0;
    let mut store_total = 0usize;
    for (name, engine_bytes, store_bytes) in &contents {
        assert!(!name.is_empty(), "engine entry without a registered name");
        assert!(
            *store_bytes as f64 <= engine_bytes.ceil(),
            "store holds {store_bytes} B of `{name}` but the engine granted only {engine_bytes}"
        );
        engine_total += engine_bytes;
        store_total += store_bytes;
    }
    assert!(
        engine_total <= capacity_bytes + 1e-6,
        "engine over capacity: {engine_total} > {capacity_bytes}"
    );
    // No orphans: every byte the store holds is accounted to a live engine
    // entry (store mutations are serialized under the engine lock).
    let stats = proxy.stats();
    assert_eq!(
        stats.cached_bytes as usize, store_total,
        "store holds bytes for objects the engine does not track"
    );
    assert_eq!(stats.cached_objects, contents.len());
}

#[test]
fn concurrent_clients_shared_catalog_accounting_stays_consistent() {
    const OBJECTS: u32 = 24;
    const OBJECT_BYTES: u64 = 32 * 1024;
    const BITRATE: f64 = 4e6; // bit-rate far above the path: PB caches prefixes
    let specs: Vec<ObjectSpec> = (0..OBJECTS)
        .map(|i| ObjectSpec::new(format!("movie-{i}"), OBJECT_BYTES, BITRATE))
        .collect();
    let origin = OriginServer::start(OriginConfig {
        objects: specs,
        rate_limit_bps: 2e6,
    })
    .unwrap();
    // Capacity for roughly six whole objects: admissions and evictions
    // churn continuously under the shared catalog.
    let capacity = 6.0 * OBJECT_BYTES as f64;
    let mut config = ProxyConfig::new(origin.addr(), capacity);
    config.worker_threads = 4;
    config.max_origin_connections = 8;
    let proxy = CachingProxy::start(config).unwrap();
    let addr = proxy.addr();

    std::thread::scope(|scope| {
        for c in 0..8usize {
            scope.spawn(move || {
                let client = StreamingClient::new();
                for r in 0..12usize {
                    // Zipf-ish skew: low object ids are requested often,
                    // the tail rarely — steady eviction pressure.
                    let id = ((c + r * 7) % 36).min((OBJECTS - 1) as usize);
                    let report = client.fetch(addr, &format!("movie-{id}")).unwrap();
                    assert!(report.content_ok, "payload corruption under load");
                    assert_eq!(report.bytes, OBJECT_BYTES);
                }
            });
        }
    });

    let stats = proxy.stats();
    assert_eq!(stats.requests, 8 * 12);
    assert!(stats.bytes_from_origin > 0);
    assert_byte_accounting(&proxy, capacity);
}

/// Two names the Fx mix maps to one 64-bit key (the second word is chosen
/// as `w2 ^ rotl5(h1) ^ rotl5(h1')`). Keyed by Fx they shared one engine
/// slot while their bytes were stored twice; each must be served its own
/// bytes and every stored byte must be accounted to the engine.
#[test]
fn names_colliding_under_fx_are_served_correctly_and_accounted() {
    use std::hash::Hasher as _;
    const A: (&str, u64) = ("clip-aaaclip-bbb", 48 * 1024);
    const B: (&str, u64) = ("c2240331i,qmngqH", 80 * 1024);
    let fx = |name: &str| {
        let mut hasher = sc_cache::fx::FxHasher::default();
        hasher.write(name.as_bytes());
        hasher.finish()
    };
    assert_eq!(fx(A.0), fx(B.0), "the test needs a colliding pair");

    let origin = OriginServer::start(OriginConfig {
        objects: vec![
            ObjectSpec::new(A.0, A.1, 1e6),
            ObjectSpec::new(B.0, B.1, 1e6),
        ],
        rate_limit_bps: 0.0,
    })
    .unwrap();
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    config.policy = PolicyKind::IntegralFrequency;
    let proxy = CachingProxy::start(config).unwrap();

    let client = StreamingClient::new();
    for (name, size) in [A, B, A, B] {
        let report = client.fetch(proxy.addr(), name).unwrap();
        assert!(report.content_ok, "`{name}` answered with foreign bytes");
        assert_eq!(report.bytes, size);
    }
    assert_eq!(proxy.stats().requests, 4);
    assert_byte_accounting(&proxy, 1e9);
}

#[test]
fn tiny_worker_pool_and_origin_budget_still_serve_everyone() {
    // 1 worker and 1 origin permit: everything serializes but nothing
    // deadlocks, drops or corrupts.
    let origin = OriginServer::start(OriginConfig {
        objects: (0..6)
            .map(|i| ObjectSpec::new(format!("clip-{i}"), 16 * 1024, 1e6))
            .collect(),
        rate_limit_bps: 0.0,
    })
    .unwrap();
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    config.worker_threads = 1;
    config.accept_queue_len = 4;
    config.max_origin_connections = 1;
    let proxy = CachingProxy::start(config).unwrap();
    let addr = proxy.addr();

    std::thread::scope(|scope| {
        for c in 0..6usize {
            scope.spawn(move || {
                let client = StreamingClient::new();
                for r in 0..4usize {
                    let report = client
                        .fetch(addr, &format!("clip-{}", (c + r) % 6))
                        .unwrap();
                    assert!(report.content_ok);
                }
            });
        }
    });
    assert_eq!(proxy.stats().requests, 24);
    assert_byte_accounting(&proxy, 1e9);
}

#[test]
fn graceful_shutdown_drains_and_joins() {
    let origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("clip", 64 * 1024, 1e6)],
        rate_limit_bps: 0.0,
    })
    .unwrap();
    let mut proxy = CachingProxy::start(ProxyConfig::new(origin.addr(), 1e9)).unwrap();
    let client = StreamingClient::new();
    for _ in 0..3 {
        client.fetch(proxy.addr(), "clip").unwrap();
    }
    let before = proxy.stats();
    proxy.shutdown();
    // Shutdown is idempotent and the stats survive it.
    proxy.shutdown();
    assert_eq!(proxy.stats().requests, before.requests);
    // New connections are refused once shut down: either the connect fails
    // outright or the connection is dropped without a response.
    assert!(client.fetch(proxy.addr(), "clip").is_err());
}

/// The pool protocol under sustained load at its tightest: one worker means
/// two pool threads taking turns in `accept()` on nearly every connection —
/// whichever is left there alone queues what it gets — while up to three
/// more wait in the queue. A stranded queue entry, or a moment with nobody
/// accepting, shows as a hung client; a connection served twice as a
/// miscounted request.
#[test]
fn one_worker_pool_answers_every_request_once_and_joins_from_accept() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 2_000;
    const OBJECT_BYTES: u64 = 4 * 1024;
    let origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("clip", OBJECT_BYTES, 1e6)],
        rate_limit_bps: 0.0,
    })
    .unwrap();
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    config.policy = PolicyKind::IntegralFrequency;
    config.worker_threads = 1;
    let mut proxy = CachingProxy::start(config).unwrap();
    let addr = proxy.addr();

    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(move || {
                let client = StreamingClient::new();
                for _ in 0..REQUESTS_PER_CLIENT {
                    let report = client.fetch(addr, "clip").unwrap();
                    assert!(report.content_ok);
                    assert_eq!(report.bytes, OBJECT_BYTES);
                }
            });
        }
    });

    let stats = proxy.stats();
    assert_eq!(stats.requests, (CLIENTS * REQUESTS_PER_CLIENT) as u64);
    assert_eq!(stats.shed_requests, 0);
    // Closed-loop clients hold one connection each (a client may be back
    // with its next one while the thread that served it is still tidying
    // up), and those served by the thread that accepted them never queue.
    assert!(stats.peak_queue_depth <= CLIENTS as u64);
    assert!(stats.queued_requests <= stats.requests);
    // Nothing in flight: both threads are parked in `accept()`, and both
    // must come home promptly.
    let started = std::time::Instant::now();
    proxy.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "joining the idle pool took {:?}",
        started.elapsed()
    );
}

/// `shutdown()` on a helper thread, so that one that wakes too few threads
/// out of `accept()` fails the test instead of hanging it.
fn shutdown_within(proxy: CachingProxy, limit: Duration) -> Option<CachingProxy> {
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut proxy = proxy;
        proxy.shutdown();
        let _ = done.send(proxy);
    });
    joined.recv_timeout(limit).ok()
}

/// Idle pool threads wait in `accept()`, where no condition variable
/// reaches them: shutdown has to wake every one of them through the
/// listener. And with a backlog queued behind a busy worker at that
/// moment, the backlog is served before the threads go.
#[test]
fn shutdown_wakes_every_thread_out_of_accept_and_drains_the_backlog_first() {
    const OBJECT_BYTES: u64 = 16 * 1024;
    let origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("clip", OBJECT_BYTES, 1e6)],
        rate_limit_bps: 0.0,
    })
    .unwrap();

    // All `worker_threads + 1` threads idle in `accept()` (the pause lets
    // the one that served get back there; shutdown has to work from any
    // state, this is the one only the nudges reach).
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    config.worker_threads = 5;
    let proxy = CachingProxy::start(config).unwrap();
    StreamingClient::new().fetch(proxy.addr(), "clip").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let proxy = shutdown_within(proxy, Duration::from_secs(5))
        .expect("shutdown left a thread waiting in accept()");
    assert_eq!(proxy.stats().requests, 1);

    // One worker, paced to ~250 ms a request. The first client is in
    // service — the origin has seen its connection — before the other three
    // connect, so the one thread left in `accept()` can only queue them,
    // and a peak depth of three means all three are in the proxy's hands
    // (a connection still in the listen backlog at the close would be
    // refused, as it always was). Shutdown then finds a backlog of three
    // and one thread accepting.
    const CLIENTS: usize = 4;
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    config.worker_threads = 1;
    config.client_rate_limit_bps = 64_000.0;
    let proxy = CachingProxy::start(config).unwrap();
    let addr = proxy.addr();
    let dialled = origin.fault_connections_seen();
    std::thread::scope(|scope| {
        let wait_until = |happened: &dyn Fn() -> bool, or_else: &str| {
            let limit = std::time::Instant::now() + Duration::from_secs(10);
            while !happened() {
                assert!(std::time::Instant::now() < limit, "{or_else}");
                std::thread::yield_now();
            }
        };
        let fetch = move || StreamingClient::new().fetch(addr, "clip");
        let mut clients = vec![scope.spawn(fetch)];
        wait_until(
            &|| origin.fault_connections_seen() > dialled,
            "the first request never reached the origin",
        );
        clients.extend((1..CLIENTS).map(|_| scope.spawn(fetch)));
        wait_until(
            &|| proxy.stats().peak_queue_depth >= (CLIENTS - 1) as u64,
            "no backlog formed",
        );
        let proxy = shutdown_within(proxy, Duration::from_secs(10))
            .expect("shutdown did not return with a backlog queued");
        for client in clients {
            let report = client
                .join()
                .unwrap()
                .expect("a queued request must be drained, not dropped");
            assert_eq!(report.bytes, OBJECT_BYTES);
            assert!(report.content_ok);
        }
        let stats = proxy.stats();
        assert_eq!(stats.requests, CLIENTS as u64);
        assert_eq!(stats.shed_requests, 0);
    });
}

/// A proxy config with test-friendly resilience bounds: short per-attempt
/// timeouts, two attempts with millisecond backoff, and a breaker that
/// trips after two consecutive failures and cools down in 80 ms.
fn resilient_config(origin: std::net::SocketAddr, capacity: f64) -> ProxyConfig {
    let mut config = ProxyConfig::new(origin, capacity);
    config.connect_timeout = Duration::from_millis(500);
    config.origin_read_timeout = Duration::from_millis(120);
    config.retry = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        deadline: Duration::from_secs(2),
        jitter_seed: 7,
    };
    config.breaker = BreakerConfig {
        failure_threshold: 2,
        open_duration: Duration::from_millis(80),
    };
    config
}

#[test]
fn refused_connection_is_retried_and_served_in_full() {
    let origin = OriginServer::start_with_faults(
        OriginConfig {
            objects: vec![ObjectSpec::new("clip", 32 * 1024, 1e6)],
            rate_limit_bps: 0.0,
        },
        FaultPlan::from_actions(vec![FaultAction::Refuse]),
    )
    .unwrap();
    let proxy = CachingProxy::start(resilient_config(origin.addr(), 1e9)).unwrap();
    let report = StreamingClient::new().fetch(proxy.addr(), "clip").unwrap();
    assert_eq!(report.bytes, 32 * 1024);
    assert!(report.content_ok);
    assert!(!report.degraded, "a successful retry is not degraded");
    let stats = proxy.stats();
    assert!(stats.origin_retries >= 1, "the refusal must cost a retry");
    assert_eq!(stats.degraded_hits, 0);
    assert_eq!(proxy.breaker_state(), BreakerState::Closed);
}

#[test]
fn full_outage_serves_degraded_prefix_and_breaker_recovers_half_open() {
    // A bandwidth-starved object so PB caches a substantial prefix, then a
    // full outage window: connection 0 warms the cache, connections 1–2
    // are refused (exactly the proxy's two attempts), everything after is
    // healthy again.
    let origin = OriginServer::start_with_faults(
        OriginConfig {
            objects: vec![ObjectSpec::new("clip", 240_000, 480_000.0)],
            rate_limit_bps: 160_000.0,
        },
        FaultPlan::from_actions(vec![
            FaultAction::None,
            FaultAction::Refuse,
            FaultAction::Refuse,
        ]),
    )
    .unwrap();
    let mut config = resilient_config(origin.addr(), 10_000_000.0);
    // A wide-open window so the fast-fail fetch below cannot race the
    // breaker into half-open on a slow machine.
    config.breaker.open_duration = Duration::from_millis(400);
    let proxy = CachingProxy::start(config).unwrap();
    let client = StreamingClient::new();

    // Warm the prefix over the healthy connection.
    let warm = client.fetch(proxy.addr(), "clip").unwrap();
    assert!(warm.content_ok && !warm.degraded);
    let prefix = proxy.cached_prefix_len("clip");
    assert!(
        prefix > 0 && prefix < 240_000,
        "PB must cache a strict prefix"
    );

    // Outage: both attempts are refused, the breaker trips open, and the
    // request degrades to the cached prefix — range-correct and byte-exact.
    let masked = client.fetch(proxy.addr(), "clip").unwrap();
    assert!(masked.degraded, "outage must be flagged on the wire");
    assert_eq!(masked.bytes as usize, prefix, "degraded hit is byte-exact");
    assert!(masked.content_ok, "degraded prefix content must verify");
    assert_eq!(proxy.breaker_state(), BreakerState::Open);

    // While open the breaker fails fast: another degraded hit without a
    // single new origin connection.
    let dialed_before = origin.fault_connections_seen();
    let fast = client.fetch(proxy.addr(), "clip").unwrap();
    assert!(fast.degraded);
    assert_eq!(fast.bytes as usize, prefix);
    assert_eq!(
        origin.fault_connections_seen(),
        dialed_before,
        "an open breaker must not dial the origin"
    );

    // After the cool-down the half-open probe finds a healthy origin and
    // the breaker closes: full content again.
    std::thread::sleep(Duration::from_millis(500));
    let recovered = client.fetch(proxy.addr(), "clip").unwrap();
    assert!(!recovered.degraded);
    assert_eq!(recovered.bytes, 240_000);
    assert!(recovered.content_ok);
    assert_eq!(proxy.breaker_state(), BreakerState::Closed);

    let stats = proxy.stats();
    assert_eq!(stats.degraded_hits, 2);
    assert!(stats.origin_retries >= 1);
    assert!(
        stats.breaker_transitions >= 3,
        "closed→open, open→half-open, half-open→closed"
    );
}

#[test]
fn origin_death_degrades_warm_objects_and_errors_cold_ones() {
    let mut origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("clip", 240_000, 480_000.0)],
        rate_limit_bps: 160_000.0,
    })
    .unwrap();
    let proxy = CachingProxy::start(resilient_config(origin.addr(), 10_000_000.0)).unwrap();
    let client = StreamingClient::new();
    client.fetch(proxy.addr(), "clip").unwrap();
    let prefix = proxy.cached_prefix_len("clip");
    assert!(prefix > 0);

    // Kill the origin outright: dials now fail at the connect level.
    origin.shutdown();
    drop(origin);

    let masked = client.fetch(proxy.addr(), "clip").unwrap();
    assert!(masked.degraded);
    assert_eq!(masked.bytes as usize, prefix);
    assert!(masked.content_ok);
    // No cached prefix and no metadata: nothing can mask the outage.
    assert!(client.fetch(proxy.addr(), "ghost").is_err());
    assert!(proxy.stats().degraded_hits >= 1);
}

#[test]
fn mid_stream_faults_are_resumed_transparently() {
    // Three cold fetches, each hitting a different mid-stream fault on its
    // first connection: a truncated response, an abrupt reset, and a
    // slow-loris stall longer than the proxy's read timeout. Every resume
    // reconnects at the exact broken offset, so the client still sees full,
    // verified content.
    let origin = OriginServer::start_with_faults(
        OriginConfig {
            objects: (0..3)
                .map(|i| ObjectSpec::new(format!("clip-{i}"), 64 * 1024, 1e6))
                .collect(),
            rate_limit_bps: 0.0,
        },
        FaultPlan::from_actions(vec![
            FaultAction::TruncateAfter(8_192),
            FaultAction::None,
            FaultAction::ResetAfter(4_096),
            FaultAction::None,
            FaultAction::StallAt {
                offset: 16_384,
                millis: 400,
            },
            FaultAction::None,
        ]),
    )
    .unwrap();
    let proxy = CachingProxy::start(resilient_config(origin.addr(), 1e9)).unwrap();
    let client = StreamingClient::new();
    for i in 0..3 {
        let report = client.fetch(proxy.addr(), &format!("clip-{i}")).unwrap();
        assert_eq!(report.bytes, 64 * 1024, "clip-{i} must arrive in full");
        assert!(
            report.content_ok,
            "clip-{i} content must survive the resume"
        );
        assert!(!report.degraded);
    }
    let stats = proxy.stats();
    assert_eq!(
        stats.origin_resumes, 3,
        "each fault costs exactly one resume"
    );
    assert_byte_accounting(&proxy, 1e9);
}

#[test]
fn graceful_shutdown_mid_outage_drains_and_joins() {
    let origin = OriginServer::start_with_faults(
        OriginConfig {
            objects: vec![ObjectSpec::new("clip", 240_000, 480_000.0)],
            rate_limit_bps: 160_000.0,
        },
        FaultPlan::refuse_window(1, 64),
    )
    .unwrap();
    let mut config = resilient_config(origin.addr(), 10_000_000.0);
    // Long enough for the shutdown to land mid-retry-loop.
    config.retry.deadline = Duration::from_millis(400);
    config.retry.max_attempts = 16;
    config.breaker.failure_threshold = 1_000; // keep it retrying, not tripping
    let mut proxy = CachingProxy::start(config).unwrap();
    let client = StreamingClient::new();
    client.fetch(proxy.addr(), "clip").unwrap();
    let prefix = proxy.cached_prefix_len("clip");
    assert!(prefix > 0);

    // One request enters the outage (it will spin in the retry loop), then
    // the proxy shuts down while it is in flight: shutdown must drain the
    // request — served degraded from the prefix — and join every worker.
    let addr = proxy.addr();
    let in_flight = std::thread::spawn(move || StreamingClient::new().fetch(addr, "clip"));
    std::thread::sleep(Duration::from_millis(60));
    proxy.shutdown();
    let report = in_flight
        .join()
        .unwrap()
        .expect("the in-flight request must be drained, not dropped");
    assert!(report.degraded);
    assert_eq!(report.bytes as usize, prefix);
    assert!(report.content_ok);
    assert_eq!(proxy.stats().degraded_hits, 1);
}

#[test]
fn integral_policy_under_concurrency_caches_whole_objects() {
    const OBJECTS: u32 = 8;
    const OBJECT_BYTES: u64 = 16 * 1024;
    let origin = OriginServer::start(OriginConfig {
        objects: (0..OBJECTS)
            .map(|i| ObjectSpec::new(format!("clip-{i}"), OBJECT_BYTES, 1e6))
            .collect(),
        rate_limit_bps: 0.0,
    })
    .unwrap();
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    config.policy = PolicyKind::IntegralFrequency;
    let proxy = CachingProxy::start(config).unwrap();
    let addr = proxy.addr();

    std::thread::scope(|scope| {
        for c in 0..4usize {
            scope.spawn(move || {
                let client = StreamingClient::new();
                for r in 0..8usize {
                    let id = (c * 2 + r) as u32 % OBJECTS;
                    let report = client.fetch(addr, &format!("clip-{id}")).unwrap();
                    assert!(report.content_ok);
                }
            });
        }
    });

    // Ample capacity + integral policy: every requested object ends up
    // fully cached, and the accounting matches exactly.
    for i in 0..OBJECTS {
        assert_eq!(
            proxy.cached_prefix_len(&format!("clip-{i}")),
            OBJECT_BYTES as usize,
            "clip-{i} not fully cached"
        );
    }
    assert_byte_accounting(&proxy, 1e9);
}
