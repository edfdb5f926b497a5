//! End-to-end proxy load benchmark: concurrent streaming clients against a
//! synthetic origin through the caching proxy, emitted as `BENCH_proxy.json`
//! so the proxy request-path perf trajectory is tracked across PRs.
//!
//! Run `cargo run --release -p sc_bench --bin bench_proxy` for the full
//! measurement (64 concurrent clients), or `-- --smoke` for the reduced CI
//! smoke mode. Two phases:
//!
//! * **`warm_64_clients`** — N clients hammer a fully-warm cache (integral
//!   policy, every object entirely cached, no origin traffic in the timed
//!   region). This isolates the proxy's per-request hot path: accept,
//!   protocol parse, store lookup, engine access, store reconciliation.
//!   The timed loop uses a raw protocol client (one content-verified fetch
//!   per client thread, the rest read-and-discard) so client-side
//!   byte-by-byte verification does not mask the proxy's costs.
//!   Reports requests/sec and p50/p99 client-observed delay.
//! * **`large_tail_stream`** — one large object streamed through the proxy
//!   on a fast path the (estimator-warmed) PB policy declines to cache, so
//!   the whole tail is relayed. Reports the proxy's peak resident
//!   tail-retention bytes, which together with the fixed relay ring bounds
//!   per-request memory under large-object workloads.
//!
//! A third output, `BENCH_shard.json`, sweeps the warm phase over worker
//! counts (1→64) at fixed engine shard counts (a single-lock engine versus
//! one sharded wider than any pool), tracking how request throughput
//! responds to pool size with and without cache-lock contention.

use sc_cache::policy::PolicyKind;
use sc_proxy::protocol::{read_response, write_request, Request, Response};
use sc_proxy::{
    CachingProxy, ObjectSpec, OriginConfig, OriginServer, ProxyConfig, StreamingClient,
};
use std::fmt::Write as _;
use std::io::{BufReader, BufWriter, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One measured phase of the proxy benchmark.
struct PhaseResult {
    name: String,
    requests: u64,
    wall_clock_secs: f64,
    p50_delay_secs: f64,
    p99_delay_secs: f64,
    peak_tail_bytes: u64,
}

impl PhaseResult {
    fn requests_per_sec(&self) -> f64 {
        if self.wall_clock_secs > 0.0 {
            self.requests as f64 / self.wall_clock_secs
        } else {
            f64::INFINITY
        }
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Minimal fetch: request `name`, read the payload into a reusable scratch
/// buffer without inspecting it, drain to EOF (synchronising with the
/// proxy's post-transfer bookkeeping). Returns bytes received.
fn raw_fetch(addr: SocketAddr, name: &str, scratch: &mut [u8]) -> u64 {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    write_request(
        &mut writer,
        &Request {
            name: name.to_string(),
            offset: 0,
        },
    )
    .expect("request");
    let size = match read_response(&mut reader).expect("response") {
        Response::Ok { size, .. } => size,
        Response::Err(e) => panic!("unexpected error response: {e}"),
        Response::Busy { .. } => panic!("unexpected shed: this bench never overloads admission"),
    };
    let mut received: u64 = 0;
    while received < size {
        let want = scratch.len().min((size - received) as usize);
        let n = reader.read(&mut scratch[..want]).expect("read");
        if n == 0 {
            break;
        }
        received += n as u64;
    }
    while reader.read(scratch).map(|n| n > 0).unwrap_or(false) {}
    received
}

/// Phase 1: N concurrent clients over a shared catalog with a fully-warm
/// cache. The integral-frequency policy caches whole objects, so after the
/// sequential warm-up pass every request is served entirely from the prefix
/// store and the timed region measures pure proxy request-path overhead.
/// `workers`/`shards` configure the proxy's worker pool and engine shard
/// count (`shards = 0` keeps the default of one shard per worker).
fn bench_warm_clients(
    clients: usize,
    requests_per_client: usize,
    objects: u32,
    workers: usize,
    shards: usize,
) -> PhaseResult {
    const OBJECT_BYTES: u64 = 16 * 1024;
    const BITRATE_BPS: f64 = 1e6;
    let specs: Vec<ObjectSpec> = (0..objects)
        .map(|i| ObjectSpec::new(format!("clip-{i}"), OBJECT_BYTES, BITRATE_BPS))
        .collect();
    let origin = OriginServer::start(OriginConfig {
        objects: specs,
        rate_limit_bps: 0.0,
    })
    .expect("origin start");
    let mut config = ProxyConfig::new(origin.addr(), 1e12);
    config.policy = PolicyKind::IntegralFrequency;
    config.worker_threads = workers;
    config.engine_shards = shards;
    let proxy = CachingProxy::start(config).expect("proxy start");
    let addr = proxy.addr();

    // Warm-up: one sequential (verified) pass caches every object in full.
    let client = StreamingClient::new();
    for i in 0..objects {
        let report = client
            .fetch(addr, &format!("clip-{i}"))
            .expect("warm-up fetch");
        assert!(report.content_ok, "warm-up content mismatch");
    }
    let warm_stats = proxy.stats();
    assert_eq!(
        warm_stats.cached_bytes,
        u64::from(objects) * OBJECT_BYTES,
        "cache must be fully warm before the timed phase"
    );

    // Timed region: each client thread fetches a deterministic slice of the
    // catalog, recording per-request wall-clock delay. One verified fetch
    // per thread guards correctness without paying per-byte hashing on
    // every request.
    let started = Instant::now();
    let delays: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let verified = StreamingClient::new()
                        .fetch(addr, &format!("clip-{}", c as u32 % objects))
                        .expect("verified fetch");
                    assert!(verified.content_ok, "content mismatch under load");
                    let mut scratch = vec![0u8; 64 * 1024];
                    let mut delays = Vec::with_capacity(requests_per_client);
                    for r in 1..requests_per_client {
                        let name = format!("clip-{}", (c + r * 17) as u32 % objects);
                        let t0 = Instant::now();
                        let received = raw_fetch(addr, &name, &mut scratch);
                        delays.push(t0.elapsed().as_secs_f64());
                        assert_eq!(received, OBJECT_BYTES);
                    }
                    delays
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();

    let mut sorted = delays;
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let peak_tail_bytes = proxy.stats().peak_tail_bytes;
    PhaseResult {
        name: format!("warm_{clients}_clients"),
        requests: (clients * requests_per_client) as u64,
        wall_clock_secs: wall,
        p50_delay_secs: percentile(&sorted, 0.50),
        p99_delay_secs: percentile(&sorted, 0.99),
        peak_tail_bytes,
    }
}

/// Phase 2: a single large object on a fast path, fetched twice through a
/// PB proxy whose estimator was first warmed on a probe object (so the
/// policy correctly sees an abundant path and declines to cache). The whole
/// tail is relayed each time; the subject is the proxy's peak resident
/// tail-retention bytes.
fn bench_large_tail(object_bytes: u64) -> PhaseResult {
    let origin = OriginServer::start(OriginConfig {
        objects: vec![
            ObjectSpec::new("probe", 64 * 1024, 1e6),
            ObjectSpec::new("feature-film", object_bytes, 1e6),
        ],
        rate_limit_bps: 0.0,
    })
    .expect("origin start");
    let proxy = CachingProxy::start(ProxyConfig::new(origin.addr(), 1e12)).expect("proxy start");
    let client = StreamingClient::new();

    // Warm the bandwidth estimator: after these the proxy knows the path is
    // far faster than any bit-rate, so PB's target for the film is zero.
    for _ in 0..3 {
        client.fetch(proxy.addr(), "probe").expect("probe fetch");
    }

    let started = Instant::now();
    let mut delays = Vec::new();
    for _ in 0..2 {
        let t0 = Instant::now();
        let report = client
            .fetch(proxy.addr(), "feature-film")
            .expect("large fetch");
        delays.push(t0.elapsed().as_secs_f64());
        assert!(report.content_ok);
        assert_eq!(report.bytes, object_bytes);
    }
    let wall = started.elapsed().as_secs_f64();
    delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let peak_tail_bytes = proxy.stats().peak_tail_bytes;
    PhaseResult {
        name: "large_tail_stream".to_string(),
        requests: 2,
        wall_clock_secs: wall,
        p50_delay_secs: percentile(&delays, 0.50),
        p99_delay_secs: percentile(&delays, 0.99),
        peak_tail_bytes,
    }
}

/// One point of the worker-scaling sweep: the warm phase at a given worker
/// and shard count.
struct SweepPoint {
    workers: usize,
    shards: usize,
    result: PhaseResult,
}

/// Worker-count scaling sweep at fixed shard counts: how proxy throughput
/// responds to pool size when the cache is a single lock (`shards = 1`)
/// versus sharded wider than the pool (`shards ≥ workers`). Each point is
/// an independent proxy+origin pair on a warm cache.
fn sweep_workers(
    worker_counts: &[usize],
    shard_counts: &[usize],
    clients: usize,
    requests_per_client: usize,
    objects: u32,
) -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for &shards in shard_counts {
        for &workers in worker_counts {
            let result = bench_warm_clients(clients, requests_per_client, objects, workers, shards);
            println!(
                "sweep workers={workers:<3} shards={shards:<3} {:>10.0} req/s  p99 {:>8.4} s",
                result.requests_per_sec(),
                result.p99_delay_secs,
            );
            points.push(SweepPoint {
                workers,
                shards,
                result,
            });
        }
    }
    points
}

/// Serialises the sweep as `BENCH_shard.json` (or the smoke variant).
fn write_shard_json(points: &[SweepPoint], smoke: bool, clients: usize) {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"id\": \"bench_shard\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"clients\": {clients},");
    json.push_str("  \"sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"workers\": {}, \"shards\": {}, \"requests\": {}, \
             \"wall_clock_secs\": {:.6}, \"requests_per_sec\": {:.1}, \
             \"p50_delay_secs\": {:.6}, \"p99_delay_secs\": {:.6}}}",
            p.workers,
            p.shards,
            p.result.requests,
            p.result.wall_clock_secs,
            p.result.requests_per_sec(),
            p.result.p50_delay_secs,
            p.result.p99_delay_secs,
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = if smoke {
        let _ = std::fs::create_dir_all("results");
        "results/BENCH_shard_smoke.json"
    } else {
        "BENCH_shard.json"
    };
    match std::fs::write(path, &json) {
        Ok(()) => println!("(wrote {path})"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (clients, requests_per_client, objects, large_bytes) = if smoke {
        (8, 8, 128, 2 * 1024 * 1024)
    } else {
        (64, 100, 2048, 16 * 1024 * 1024)
    };

    let results = [
        // Default worker pool and sharding (one shard per worker).
        bench_warm_clients(clients, requests_per_client, objects, 8, 0),
        bench_large_tail(large_bytes),
    ];

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"id\": \"bench_proxy\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"clients\": {clients},");
    json.push_str("  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        println!(
            "{:<20} {:>7} req {:>8.3} s {:>10.0} req/s  p50 {:>8.4} s  p99 {:>8.4} s  peak tail {:>10} B",
            r.name,
            r.requests,
            r.wall_clock_secs,
            r.requests_per_sec(),
            r.p50_delay_secs,
            r.p99_delay_secs,
            r.peak_tail_bytes,
        );
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"requests\": {}, \"wall_clock_secs\": {:.6}, \
             \"requests_per_sec\": {:.1}, \"p50_delay_secs\": {:.6}, \
             \"p99_delay_secs\": {:.6}, \"peak_tail_bytes\": {}}}",
            r.name,
            r.requests,
            r.wall_clock_secs,
            r.requests_per_sec(),
            r.p50_delay_secs,
            r.p99_delay_secs,
            r.peak_tail_bytes,
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    // Full mode refreshes the checked-in baseline; smoke mode (CI) writes
    // next to the figure JSON so it never clobbers the tracked trajectory.
    let path = if smoke {
        let _ = std::fs::create_dir_all("results");
        "results/BENCH_proxy_smoke.json"
    } else {
        "BENCH_proxy.json"
    };
    match std::fs::write(path, &json) {
        Ok(()) => println!("(wrote {path})"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }

    // Worker-scaling sweep → BENCH_shard.json. Full mode walks 1→64 workers
    // against a single-lock engine and one sharded wider than any pool;
    // smoke mode pins two small points per shard count as a CI gate.
    let (worker_counts, shard_counts, sweep_requests, sweep_objects): (
        &[usize],
        &[usize],
        usize,
        u32,
    ) = if smoke {
        (&[1, 4], &[1, 4], 6, 64)
    } else {
        (&[1, 2, 4, 8, 16, 32, 64], &[1, 64], 40, 512)
    };
    let points = sweep_workers(
        worker_counts,
        shard_counts,
        clients,
        sweep_requests,
        sweep_objects,
    );
    write_shard_json(&points, smoke, clients);
}
