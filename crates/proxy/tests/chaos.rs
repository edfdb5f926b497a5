//! Chaos harness: seeded origin faults composed with seeded client
//! misbehaviour over deterministic schedules.
//!
//! PR 8's resilience layer was proven against a *failing origin*; this
//! suite adds the client side — slow readers, mid-request disconnects,
//! malformed frames and bursts beyond admission capacity — drawn from the
//! same seeded-schedule discipline (`StdRng::seed_from_u64`), so every
//! run of a given seed replays the exact same misbehaviour. After every
//! storm the standing invariants are re-asserted: graceful shutdown
//! drains, store ⊆ engine byte accounting, capacity conservation across
//! shards, and every counter consistent with what clients observed.
//!
//! `SC_SIM_THREADS` scales the number of concurrent chaos clients (the CI
//! matrix runs 1 and 4); the per-thread schedules depend only on the seed
//! and the thread index, never on interleaving.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_cache::policy::PolicyKind;
use sc_proxy::protocol::{read_response, Response};
use sc_proxy::{
    verify_content, BreakerConfig, CachingProxy, FaultPlan, FaultProfile, ObjectSpec, OriginConfig,
    OriginServer, ProxyConfig, ProxyStats, RetryPolicy, StreamingClient,
};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

/// Concurrent chaos clients: `SC_SIM_THREADS` when set (the CI matrix runs
/// the suite at 1 and 4), else 4.
fn chaos_threads() -> usize {
    std::env::var("SC_SIM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// One client's behaviour for one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientAction {
    /// A well-behaved fetch reading the stream to completion.
    Normal,
    /// Reads the stream in small chunks with short pauses: slow, but
    /// within the proxy's write tolerance.
    SlowReader { pause_ms: u64 },
    /// Reads the header and up to `bytes` of payload, then disconnects.
    DisconnectAfter { bytes: u64 },
    /// Sends a malformed frame (variant selects which) and expects a
    /// bounded `ERR` or a clean close — never a hang.
    Malformed { variant: u8 },
}

/// The deterministic misbehaviour schedule for one chaos thread: depends
/// only on the seed, never on wall-clock or interleaving.
fn seeded_actions(seed: u64, n: usize) -> Vec<ClientAction> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen();
            // Draw the parameter unconditionally so every action consumes a
            // fixed number of RNG words (mirrors `FaultPlan::seeded`).
            let p = rng.gen_range(0..4096u64);
            if u < 0.15 {
                ClientAction::SlowReader {
                    pause_ms: 1 + p % 8,
                }
            } else if u < 0.30 {
                ClientAction::DisconnectAfter { bytes: p * 8 }
            } else if u < 0.45 {
                ClientAction::Malformed {
                    variant: (p % 6) as u8,
                }
            } else {
                ClientAction::Normal
            }
        })
        .collect()
}

/// What one chaos connection observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// `OK` header and the whole advertised payload arrived, content-exact.
    ServedFull,
    /// `OK` header but the stream ended early (origin fault the proxy
    /// could not mask, a degraded prefix, or our own disconnect); every
    /// byte that did arrive was content-exact.
    ServedPartial,
    /// `BUSY <retry-after-ms>`: shed under overload.
    Busy(u64),
    /// `ERR <reason>` line.
    ErrLine,
    /// The connection closed before any header arrived.
    Closed,
}

/// Runs one scheduled action against the proxy and classifies the result.
/// Panics only on invariant violations (corrupt payload bytes, oversized
/// streams); everything else — refusals, sheds, closes — is an outcome.
fn run_action(addr: SocketAddr, name: &str, action: ClientAction) -> Outcome {
    let Ok(stream) = TcpStream::connect(addr) else {
        return Outcome::Closed;
    };
    stream.set_nodelay(true).ok();
    // A liveness bound, not a correctness knob: a healthy proxy answers
    // orders of magnitude faster; a wedged one fails the test here.
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let Ok(read_half) = stream.try_clone() else {
        return Outcome::Closed;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    if let ClientAction::Malformed { variant } = action {
        let junk: &[u8] = match variant {
            0 => b"PUT clip 0\n",
            1 => &[b'G'; 2048],
            2 => b"GET \xff\xfe\xfd\n",
            3 => b"GET\n",
            4 => b"OK 5 2.0\n",
            _ => b"GET a b c d e f\n",
        };
        if writer
            .write_all(junk)
            .and_then(|()| writer.flush())
            .is_err()
        {
            return Outcome::Closed;
        }
        // Half-close so a junk frame without a newline still terminates
        // the proxy's bounded read.
        let _ = writer.get_ref().shutdown(Shutdown::Write);
        let mut line = String::new();
        return match reader.read_line(&mut line) {
            Ok(0) => Outcome::Closed,
            Ok(_) if line.starts_with("ERR ") => Outcome::ErrLine,
            Ok(_) => panic!("malformed frame drew a non-ERR answer: {line:?}"),
            Err(_) => Outcome::Closed,
        };
    }

    if writer
        .write_all(format!("GET {name} 0\n").as_bytes())
        .and_then(|()| writer.flush())
        .is_err()
    {
        return Outcome::Closed;
    }
    let (size, _bitrate, _degraded) = match read_response(&mut reader) {
        Ok(Response::Ok {
            size,
            bitrate_bps,
            degraded,
        }) => (size, bitrate_bps, degraded),
        Ok(Response::Busy { retry_after_ms }) => {
            assert!(retry_after_ms > 0, "BUSY must carry a usable retry pause");
            return Outcome::Busy(retry_after_ms);
        }
        Ok(Response::Err(_)) => return Outcome::ErrLine,
        Err(_) => return Outcome::Closed,
    };

    let read_cap = match action {
        ClientAction::DisconnectAfter { bytes } => bytes.min(size),
        _ => size,
    };
    let mut received: u64 = 0;
    let mut chunk = vec![0u8; 16 * 1024];
    while received < read_cap {
        if let ClientAction::SlowReader { pause_ms } = action {
            std::thread::sleep(Duration::from_millis(pause_ms));
        }
        let want = chunk.len().min((read_cap - received) as usize);
        let n = match reader.read(&mut chunk[..want]) {
            Ok(0) => break,
            Ok(n) => n,
            Err(_) => break,
        };
        // The standing payload invariant: whatever the proxy serves is
        // content-exact at its offset, chaos or not.
        assert_eq!(
            verify_content(name, received, &chunk[..n]),
            None,
            "corrupt payload byte for {name} at offset {received}"
        );
        received += n as u64;
    }
    assert!(received <= size, "stream longer than advertised");
    if matches!(action, ClientAction::DisconnectAfter { .. }) {
        // Drop without draining: the proxy's write side sees the reset.
        return Outcome::ServedPartial;
    }
    if received == size {
        // Drain until close to synchronise with the proxy's bookkeeping
        // (mirrors `StreamingClient::fetch`).
        let mut sink = [0u8; 1024];
        while reader.read(&mut sink).map(|n| n > 0).unwrap_or(false) {}
        Outcome::ServedFull
    } else {
        Outcome::ServedPartial
    }
}

/// Asserts the engine/store byte-accounting invariants on a drained proxy
/// (the same contract the stress suite pins): every store entry belongs to
/// a live engine entry and never exceeds the engine's grant, the engine
/// respects its capacity, and the store summary counters agree.
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
    let stats = proxy.stats();
    assert_eq!(
        stats.cached_bytes as usize, store_total,
        "store holds bytes for objects the engine does not track"
    );
    // A relay that failed after its decision leaves a grant with nothing
    // stored yet (the object's next request fills it): the counter is of
    // entries holding bytes.
    let holding = contents.iter().filter(|c| c.2 > 0).count();
    assert_eq!(stats.cached_objects, holding);
}

/// The proxy's counters and the `STATS` verb's dump of them, taken between
/// two equal API snapshots: `proxy.stats()`, the verb, `proxy.stats()`
/// again, repeated until the two snapshots agree. A request's counters
/// and its `store` land after its last payload byte and before its
/// connection closes, so a client that left without reading to the end (a
/// `DisconnectAfter` action) can leave its handler counting after every
/// client has returned; a snapshot counts every request only when no
/// handler is running.
fn settled_stats(proxy: &CachingProxy, client: &StreamingClient) -> (ProxyStats, String) {
    for _ in 0..100 {
        let before = proxy.stats();
        let json = client.stats(proxy.addr()).unwrap();
        if proxy.stats() == before {
            return (before, json);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("the proxy's counters kept moving for 2 s after the storm");
}

/// Short-fused resilient proxy config (the stress suite's, plus the
/// overload knobs this suite exercises).
fn chaos_config(origin: SocketAddr, capacity: f64) -> ProxyConfig {
    let mut config = ProxyConfig::new(origin, capacity);
    config.connect_timeout = Duration::from_millis(500);
    config.origin_read_timeout = Duration::from_millis(120);
    config.retry = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        deadline: Duration::from_secs(2),
    };
    config.breaker = BreakerConfig {
        failure_threshold: 2,
        open_duration: Duration::from_millis(80),
    };
    config.client_write_timeout = Duration::from_secs(2);
    config.queue_deadline = Duration::from_secs(10);
    config
}

#[test]
fn seeded_schedules_are_byte_stable_across_reruns() {
    let profile = FaultProfile {
        refuse: 0.1,
        reset: 0.1,
        stall: 0.05,
        truncate: 0.1,
        fault_offset_max: 16 * 1024,
        stall_millis: 150,
    };
    for seed in [1u64, 7, 11, 23, 42] {
        assert_eq!(
            seeded_actions(seed, 64),
            seeded_actions(seed, 64),
            "client schedule for seed {seed} must replay identically"
        );
        // FaultPlan has no PartialEq; its Debug form lists every action.
        assert_eq!(
            format!("{:?}", FaultPlan::seeded(seed, 64, profile)),
            format!("{:?}", FaultPlan::seeded(seed, 64, profile)),
            "fault plan for seed {seed} must replay identically"
        );
    }
    assert_ne!(
        seeded_actions(1, 64),
        seeded_actions(2, 64),
        "different seeds must draw different schedules"
    );
}

/// The composed storm: seeded origin faults and seeded client misbehaviour
/// at the same time, across multiple seeds, invariants asserted after each.
#[test]
fn composed_chaos_preserves_invariants_across_seeds() {
    const OBJECTS: usize = 12;
    const OBJECT_BYTES: u64 = 32 * 1024;
    for seed in [11u64, 23] {
        let origin = OriginServer::start_with_faults(
            OriginConfig {
                objects: (0..OBJECTS)
                    .map(|i| ObjectSpec::new(format!("movie-{i}"), OBJECT_BYTES, 4e6))
                    .collect(),
                rate_limit_bps: 2e6,
            },
            FaultPlan::seeded(
                seed,
                48,
                FaultProfile {
                    refuse: 0.1,
                    reset: 0.1,
                    stall: 0.05,
                    truncate: 0.1,
                    fault_offset_max: 16 * 1024,
                    stall_millis: 150,
                },
            ),
        )
        .unwrap();
        let capacity = 6.0 * OBJECT_BYTES as f64;
        let mut config = chaos_config(origin.addr(), capacity);
        config.worker_threads = 3;
        let mut proxy = CachingProxy::start(config).unwrap();
        let addr = proxy.addr();

        let threads = chaos_threads();
        let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let outcomes = &outcomes;
                scope.spawn(move || {
                    let actions =
                        seeded_actions(seed.wrapping_mul(1_000).wrapping_add(t as u64), 10);
                    for (i, action) in actions.into_iter().enumerate() {
                        let name = format!("movie-{}", (t * 7 + i * 3) % OBJECTS);
                        let outcome = run_action(addr, &name, action);
                        outcomes.lock().unwrap().push(outcome);
                    }
                });
            }
        });
        let outcomes = outcomes.into_inner().unwrap();
        assert_eq!(outcomes.len(), threads * 10);

        // The pool survived the storm: a healthy origin (the fault plan is
        // exhausted or will be shortly) plus a live worker pool must serve
        // a plain fetch once the breaker's cooldown passes.
        let client = StreamingClient::new();
        let mut recovered = false;
        for _ in 0..20 {
            if let Ok(report) = client.fetch(addr, "movie-0") {
                assert!(report.content_ok, "post-chaos payload corruption");
                recovered = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        assert!(recovered, "the proxy never recovered after the storm");

        // Counter consistency against what the clients observed.
        let (stats, json) = settled_stats(&proxy, &client);
        let served_full = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::ServedFull))
            .count() as u64;
        let busy = outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Busy(_)))
            .count() as u64;
        assert!(
            stats.requests >= served_full,
            "clients confirmed {served_full} full serves but the proxy counted {}",
            stats.requests
        );
        assert!(
            stats.shed_requests >= busy,
            "clients saw {busy} BUSY answers but the proxy counted {} sheds",
            stats.shed_requests
        );

        // The STATS verb reports the same counters the API snapshot does:
        // the dump was taken between two equal API snapshots.
        for needle in [
            format!("\"requests\": {}", stats.requests),
            format!("\"shed_requests\": {}", stats.shed_requests),
            format!("\"client_timeouts\": {}", stats.client_timeouts),
            format!("\"cached_bytes\": {}", stats.cached_bytes),
            format!("\"degraded_hits\": {}", stats.degraded_hits),
        ] {
            assert!(json.contains(&needle), "STATS dump {json} missing {needle}");
        }

        // Byte accounting holds after the storm, and shutdown drains.
        settled_stats(&proxy, &client);
        assert_byte_accounting(&proxy, capacity);
        proxy.shutdown();
        let after = proxy.stats();
        assert_eq!(after.cached_bytes, proxy.stats().cached_bytes);
        assert!(after.requests >= stats.requests);
    }
}

/// A burst far beyond the in-flight cap: excess connections get `BUSY`
/// deterministically, the admitted ones are served correctly, and the
/// proxy recovers to full service afterwards.
#[test]
fn burst_beyond_capacity_sheds_with_busy_and_recovers() {
    const CLIENTS: usize = 12;
    let origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("clip", 16 * 1024, 1e6)],
        rate_limit_bps: 0.0,
    })
    .unwrap();
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    config.worker_threads = 2;
    config.max_in_flight = 2;
    // Per-client pacing gives every request a ~250 ms service time, so the
    // burst genuinely exceeds capacity instead of draining instantly.
    config.client_rate_limit_bps = 64_000.0;
    config.queue_deadline = Duration::from_secs(10);
    let proxy = CachingProxy::start(config).unwrap();
    let addr = proxy.addr();

    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let outcomes = &outcomes;
            scope.spawn(move || {
                let outcome = run_action(addr, "clip", ClientAction::Normal);
                outcomes.lock().unwrap().push(outcome);
            });
        }
    });
    let outcomes = outcomes.into_inner().unwrap();
    let served = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::ServedFull))
        .count();
    let busy = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Busy(_)))
        .count();
    let closed = outcomes
        .iter()
        .filter(|o| matches!(o, Outcome::Closed))
        .count();
    assert_eq!(
        served + busy + closed,
        CLIENTS,
        "unexpected outcome mix: {outcomes:?}"
    );
    assert!(served >= 1, "the admitted requests must be served");
    assert!(busy >= 1, "a 6× burst over the cap must shed");
    let stats = proxy.stats();
    assert!(
        stats.shed_requests >= busy as u64,
        "every BUSY answer must be counted"
    );

    // The burst over, admission is open again.
    let report = StreamingClient::new().fetch(addr, "clip").unwrap();
    assert!(report.content_ok);
    assert_eq!(report.bytes, 16 * 1024);
}

/// Requests that outwait the queue deadline are shed by the workers with
/// the deadline-derived retry pause, and the wait/depth gauges move.
#[test]
fn queue_deadline_sheds_stale_requests_with_busy() {
    const CLIENTS: usize = 6;
    let origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("clip", 16 * 1024, 1e6)],
        rate_limit_bps: 0.0,
    })
    .unwrap();
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    config.worker_threads = 1;
    config.client_rate_limit_bps = 64_000.0; // ~250 ms per request
    config.queue_deadline = Duration::from_millis(100);
    let proxy = CachingProxy::start(config).unwrap();
    let addr = proxy.addr();

    let outcomes: Mutex<Vec<Outcome>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let outcomes = &outcomes;
            scope.spawn(move || {
                let outcome = run_action(addr, "clip", ClientAction::Normal);
                outcomes.lock().unwrap().push(outcome);
            });
        }
    });
    let outcomes = outcomes.into_inner().unwrap();
    let busy: Vec<u64> = outcomes
        .iter()
        .filter_map(|o| match o {
            Outcome::Busy(ms) => Some(*ms),
            _ => None,
        })
        .collect();
    assert!(
        !busy.is_empty(),
        "a single slow worker must shed stale queue entries: {outcomes:?}"
    );
    for ms in &busy {
        assert_eq!(*ms, 50, "retry-after must be half the queue deadline");
    }
    let stats = proxy.stats();
    assert!(stats.shed_requests >= busy.len() as u64);
    assert!(
        stats.queue_wait_micros >= 100_000,
        "shed requests waited at least one deadline: {} µs",
        stats.queue_wait_micros
    );
    assert!(stats.peak_queue_depth >= 1);
}

/// An object size no loopback connection can absorb in its socket buffers:
/// the kernel's send- plus receive-buffer maxima and a margin (64 MiB when
/// `/proc` is unreadable), so a write to a reader that stopped must block.
fn larger_than_socket_buffers() -> u64 {
    const MIB: u64 = 1024 * 1024;
    let max_of = |file: &str| -> Option<u64> {
        let limits = std::fs::read_to_string(format!("/proc/sys/net/ipv4/{file}")).ok()?;
        limits.split_whitespace().last()?.parse().ok()
    };
    match (max_of("tcp_wmem"), max_of("tcp_rmem")) {
        (Some(wmem), Some(rmem)) => wmem + rmem + 4 * MIB,
        _ => 64 * MIB,
    }
}

/// A reader that stalls mid-download is cut off by the per-write timeout,
/// counted, and does not wedge the pool for well-behaved clients.
#[test]
fn stalled_reader_is_disconnected_counted_and_does_not_wedge_the_pool() {
    let big = larger_than_socket_buffers();
    let origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("big", big, 8e6)],
        rate_limit_bps: 0.0,
    })
    .unwrap();
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    // IF caches whole objects regardless of the bandwidth estimate, so the
    // stalled read below is served from cache and stalls on the *client*
    // write path, not the origin.
    config.policy = PolicyKind::IntegralFrequency;
    config.worker_threads = 2;
    config.client_write_timeout = Duration::from_millis(200);
    let proxy = CachingProxy::start(config).unwrap();
    let addr = proxy.addr();

    let client = StreamingClient::new();
    let warm = client.fetch(addr, "big").unwrap();
    assert_eq!(warm.bytes, big);
    assert_eq!(proxy.cached_prefix_len("big") as u64, big);

    // The wedged client: request the object, read a token amount, then
    // stop reading entirely. The proxy's writes overwhelm the socket
    // buffers and the write timeout fires.
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    writer.write_all(b"GET big 0\n").unwrap();
    writer.flush().unwrap();
    let mut token = [0u8; 1024];
    let _ = reader.read(&mut token).unwrap();
    std::thread::sleep(Duration::from_millis(900));

    // While the wedged client still holds its socket, a healthy client is
    // served in full: the pool was not wedged.
    let healthy = client.fetch(addr, "big").unwrap();
    assert_eq!(healthy.bytes, big);
    assert!(healthy.content_ok);
    assert!(
        proxy.stats().client_timeouts >= 1,
        "the stalled reader must surface as a counted client timeout"
    );
    drop(reader);
    drop(writer);
}

/// The same stall where nothing is cached: an object PB declines from the
/// first request on (8 kB/s, below the bandwidth the proxy assumes before
/// any transfer) is relayed kernel to kernel, and the stalled reader is cut
/// off there — the `splice` into its socket honours the write timeout.
#[test]
fn stalled_reader_of_a_spliced_tail_is_cut_off_and_counted() {
    let big = larger_than_socket_buffers();
    let origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("big", big, 8_000.0)],
        rate_limit_bps: 0.0,
    })
    .unwrap();
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    config.worker_threads = 2;
    config.client_write_timeout = Duration::from_millis(200);
    let proxy = CachingProxy::start(config).unwrap();
    let addr = proxy.addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    writer.write_all(b"GET big 0\n").unwrap();
    writer.flush().unwrap();
    let mut token = [0u8; 1024];
    let _ = reader.read(&mut token).unwrap();
    std::thread::sleep(Duration::from_millis(900));

    let healthy = StreamingClient::new().fetch(addr, "big").unwrap();
    assert_eq!(healthy.bytes, big);
    assert!(healthy.content_ok);
    let stats = proxy.stats();
    assert!(
        stats.client_timeouts >= 1,
        "the stalled reader must surface as a counted client timeout"
    );
    assert!(stats.spliced_bytes > 0, "the tail went through the ring");
    assert_eq!(proxy.cached_prefix_len("big"), 0);
    drop(reader);
    drop(writer);
}

/// A client that leaves mid-splice leaves bytes in its worker's pipe; the
/// pipe goes with them, so none reach the next request. One worker, so the
/// pool's two threads serve everything: each round's abort is followed by
/// two full fetches, one of which lands on the thread that served it
/// whichever way `accept()` hands connections out.
#[test]
fn a_client_leaving_mid_splice_leaves_no_bytes_for_the_next_request() {
    const MIB: u64 = 1024 * 1024;
    const ROUNDS: usize = 3;
    let big = larger_than_socket_buffers();
    let origin = OriginServer::start(OriginConfig {
        objects: (0..ROUNDS)
            .map(|i| ObjectSpec::new(format!("big-{i}"), big, 8_000.0))
            .chain((0..2 * ROUNDS).map(|i| ObjectSpec::new(format!("film-{i}"), 2 * MIB, 8_000.0)))
            .collect(),
        rate_limit_bps: 0.0,
    })
    .unwrap();
    let mut config = ProxyConfig::new(origin.addr(), 1e9);
    config.worker_threads = 1;
    let proxy = CachingProxy::start(config).unwrap();
    let addr = proxy.addr();

    for round in 0..ROUNDS {
        let leaving = ClientAction::DisconnectAfter { bytes: MIB };
        assert_eq!(
            run_action(addr, &format!("big-{round}"), leaving),
            Outcome::ServedPartial
        );
        for film in [2 * round, 2 * round + 1] {
            assert_eq!(
                run_action(addr, &format!("film-{film}"), ClientAction::Normal),
                Outcome::ServedFull,
                "film-{film} after the client of big-{round} left"
            );
        }
    }
    let stats = proxy.stats();
    assert!(stats.spliced_bytes > 0, "the tails went through the ring");
    assert_eq!(stats.requests, 2 * ROUNDS as u64, "the aborts failed");
}

/// The STATS verb on a quiet proxy: counters match the API snapshot and
/// requests are not inflated by the scrape itself.
#[test]
fn stats_verb_dumps_the_snapshot_without_counting_as_a_request() {
    let origin = OriginServer::start(OriginConfig {
        objects: vec![ObjectSpec::new("clip", 8 * 1024, 1e6)],
        rate_limit_bps: 0.0,
    })
    .unwrap();
    let proxy = CachingProxy::start(ProxyConfig::new(origin.addr(), 1e9)).unwrap();
    let client = StreamingClient::new();
    client.fetch(proxy.addr(), "clip").unwrap();
    client.fetch(proxy.addr(), "clip").unwrap();

    let json = client.stats(proxy.addr()).unwrap();
    assert_eq!(json, proxy.stats().to_json());
    assert!(json.contains("\"requests\": 2"));
    // Scraping is free: a second scrape reports the same request count.
    let again = client.stats(proxy.addr()).unwrap();
    assert!(again.contains("\"requests\": 2"));
}

/// An origin that does exactly what a test tells it: every connection's
/// request line is parsed and handed, with the socket, to `serve` on a
/// thread of its own. Returns the address and the count of requests seen
/// so far. The listener lives until the test process exits.
fn scripted_origin(
    serve: impl Fn(sc_proxy::protocol::Request, TcpStream) + Send + Sync + 'static,
) -> (SocketAddr, std::sync::Arc<std::sync::atomic::AtomicUsize>) {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let seen = Arc::new(AtomicUsize::new(0));
    let serve = Arc::new(serve);
    let count = Arc::clone(&seen);
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let (serve, count) = (Arc::clone(&serve), Arc::clone(&count));
            std::thread::spawn(move || {
                let Ok(request) = sc_proxy::protocol::read_request(&mut BufReader::new(&stream))
                else {
                    return;
                };
                count.fetch_add(1, Ordering::SeqCst);
                serve(request, stream);
            });
        }
    });
    (addr, seen)
}

/// `OK <declared> 1e6` and the object's bytes `from..to`, framed in memory.
fn framed_reply(name: &str, declared: u64, from: u64, to: u64) -> Vec<u8> {
    let mut reply = format!("OK {declared} 1000000\n").into_bytes();
    let header = reply.len();
    reply.resize(header + to.saturating_sub(from) as usize, 0);
    sc_proxy::fill_content(name, from, &mut reply[header..]);
    reply
}

/// An origin whose header promises more than it has (a replaced or
/// truncated object): every resume is answered `OK` and delivers nothing.
/// Reopening without a progress check reconnects forever — the client
/// hangs, the worker is pinned, shutdown never returns. A resume that
/// delivers nothing is a failed attempt instead, so the retry budget ends
/// it: the client gets the short stream and the worker is free.
#[test]
fn a_resume_that_delivers_nothing_is_a_failed_attempt_not_a_livelock() {
    const DECLARED: u64 = 65_536;
    const HAS: u64 = 100;
    let (origin, seen) = scripted_origin(|request, mut stream| {
        let reply = match request.name.as_str() {
            "short" => framed_reply("short", DECLARED, request.offset.min(HAS), HAS),
            name => framed_reply(name, 4_096, request.offset.min(4_096), 4_096),
        };
        let _ = stream.write_all(&reply);
    });
    let config = chaos_config(origin, 1e9);
    let (retry, cooldown) = (config.retry, config.breaker.open_duration);
    let proxy = CachingProxy::start(config).unwrap();
    let addr = proxy.addr();

    // Observe first, assert at the end: on a proxy that livelocks, an early
    // panic would unwind into a `Drop` that joins the pinned worker.
    let started = std::time::Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"GET short 0\n").unwrap();
    let mut reader = BufReader::new(stream);
    let header = read_response(&mut reader);
    let mut body = Vec::new();
    let eof = reader.read_to_end(&mut body);
    let took = started.elapsed();
    let origin_connections = seen.load(std::sync::atomic::Ordering::SeqCst);

    // The fruitless resumes tripped the breaker; past its cool-down a
    // healthy object is served — by whichever worker, this one included.
    let client = StreamingClient::new();
    let healthy = (0..20).find_map(|_| {
        std::thread::sleep(cooldown);
        client.fetch(addr, "whole").ok()
    });
    let stats = proxy.stats();
    let (done, joined) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut proxy = proxy;
        proxy.shutdown();
        let _ = done.send(());
    });
    let shut_down = joined.recv_timeout(Duration::from_secs(10)).is_ok();

    assert!(
        matches!(header, Ok(Response::Ok { size: DECLARED, .. })),
        "{header:?}"
    );
    assert!(eof.is_ok(), "no EOF after the short stream: {eof:?}");
    assert_eq!(body.len() as u64, HAS, "the bytes the origin has, no more");
    assert_eq!(verify_content("short", 0, &body), None);
    assert!(took < retry.deadline, "giving up took {took:?}");
    assert!(
        origin_connections <= retry.max_attempts as usize + 1,
        "{origin_connections} origin connections for one request"
    );
    let healthy = healthy.expect("the proxy never served again");
    assert!(healthy.content_ok && healthy.bytes == 4_096);
    assert_eq!(stats.origin_resumes, 0, "nothing was resumed");
    assert!(shut_down, "shutdown() did not return: a worker is pinned");
}

/// The client's header never waits for payload: a scripted origin sends
/// its header and then holds the payload back until the test has read the
/// `OK` line through the proxy. No sleeps — a proxy that withholds the
/// header runs into the client's read timeout instead.
#[test]
fn the_header_reaches_the_client_before_the_origin_sends_any_payload() {
    const SIZE: u64 = 16 * 1024;
    let (release, gate) = std::sync::mpsc::channel::<()>();
    let gate = Mutex::new(gate);
    let (origin, _) = scripted_origin(move |request, mut stream| {
        let reply = framed_reply(&request.name, SIZE, request.offset.min(SIZE), SIZE);
        let line_end = reply.iter().position(|&b| b == b'\n').unwrap() + 1;
        let (header, payload) = reply.split_at(line_end);
        let _ = stream.write_all(header);
        if gate.lock().unwrap().recv().is_ok() {
            let _ = stream.write_all(payload);
        }
    });
    let proxy = CachingProxy::start(ProxyConfig::new(origin, 1e9)).unwrap();

    let mut stream = TcpStream::connect(proxy.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream.write_all(b"GET clip 0\n").unwrap();
    let mut reader = BufReader::new(stream);
    let header = read_response(&mut reader);
    assert!(
        matches!(header, Ok(Response::Ok { size: SIZE, .. })),
        "the header waited for payload: {header:?}"
    );
    release.send(()).unwrap();
    let mut body = Vec::new();
    reader.read_to_end(&mut body).unwrap();
    assert_eq!(body.len() as u64, SIZE);
    assert_eq!(verify_content("clip", 0, &body), None);
}

/// The other side of the same coin: when the origin's header and payload
/// arrive together, the client gets them together — header and the whole
/// 16 KiB object in its first read.
#[test]
fn a_small_miss_reaches_the_client_in_one_piece() {
    const SIZE: u64 = 16 * 1024;
    let (origin, _) = scripted_origin(|request, mut stream| {
        let reply = framed_reply(&request.name, SIZE, request.offset.min(SIZE), SIZE);
        let _ = stream.write_all(&reply);
    });
    let proxy = CachingProxy::start(ProxyConfig::new(origin, 1e9)).unwrap();

    let mut stream = TcpStream::connect(proxy.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream.write_all(b"GET clip 0\n").unwrap();
    let mut first = vec![0u8; 20 * 1024];
    let n = stream.read(&mut first).unwrap();
    let expected = framed_reply("clip", SIZE, 0, SIZE);
    assert_eq!(n, expected.len(), "header and object in the first read");
    assert_eq!(first[..n], expected[..]);
    assert_eq!(stream.read(&mut first).unwrap(), 0, "then EOF");
}

/// An origin that sends 100 bytes more than its header declares: a reply
/// is framed by the size in its header, so the client gets that many bytes
/// and then EOF, and nothing past them is kept.
#[test]
fn the_relay_stops_at_the_size_the_origin_declared() {
    const SIZE: u64 = 16_384;
    let (origin, _) = scripted_origin(|request, mut stream| {
        let reply = framed_reply("clip", SIZE, request.offset, SIZE + 100);
        let _ = stream.write_all(&reply);
    });
    let proxy = CachingProxy::start(ProxyConfig::new(origin, 1e9)).unwrap();

    let mut stream = TcpStream::connect(proxy.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream.write_all(b"GET clip 0\n").unwrap();
    let mut reader = BufReader::new(stream);
    let header = read_response(&mut reader);
    assert!(
        matches!(header, Ok(Response::Ok { size: SIZE, .. })),
        "{header:?}"
    );
    let mut body = Vec::new();
    reader.read_to_end(&mut body).unwrap();
    assert_eq!(body.len() as u64, SIZE, "the declared size, then EOF");
    assert_eq!(verify_content("clip", 0, &body), None);
    assert!(proxy.cached_prefix_len("clip") as u64 <= SIZE);
}
