//! Overload benchmark: the proxy driven past its admission capacity, with
//! shed rate and served-request latency recorded as `BENCH_overload.json`.
//!
//! Run `cargo run --release -p sc_bench --bin bench_overload` for the full
//! measurement, or `-- --smoke` for the reduced CI smoke mode. Two phases
//! over an identical fully-warm catalog:
//!
//! * **`warm_baseline`** — N concurrent clients with admission control off.
//!   Every request is admitted; per-client token-bucket pacing on the
//!   proxy side gives each request an identical ~16 ms service time, so
//!   the measured p50/p99 is queueing plus service, not noise.
//! * **`overdrive_4x`** — 4N clients against an in-flight cap sized close
//!   to the baseline's natural concurrency plus a queue-wait deadline.
//!   Excess load is answered `BUSY` (counted in `shed_requests`); clients
//!   honour the suggested retry pause. The point of the phase: while the
//!   offered load is ~4× capacity, the requests that *are* served keep a
//!   p99 within 3× of the uncontended baseline — overload degrades
//!   throughput for the shed, not latency for the admitted.
//!
//! The bin asserts the overdrive phase actually shed (both modes) and, in
//! full mode, that the served-request p99 stayed within the 3× envelope.
//! Full mode runs the pair [`FULL_ROUNDS`] times and reports the round with
//! the median p99 ratio, with the (min, max) of the shed rate and of the
//! ratio over all rounds beside it, so the file carries its own spread.

use sc_cache::policy::PolicyKind;
use sc_proxy::protocol::{read_response, write_request, Request, Response};
use sc_proxy::{
    CachingProxy, ObjectSpec, OriginConfig, OriginServer, ProxyConfig, StreamingClient,
};
use std::fmt::Write as _;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const OBJECT_BYTES: u64 = 16 * 1024;
const BITRATE_BPS: f64 = 1e6;
/// Proxy-side per-client pacing: 16 KB at 1 MB/s ≈ 16 ms of service per
/// request, identical in both phases, so latency differences are pure
/// queueing.
const CLIENT_PACE_BPS: f64 = 1e6;
/// Baseline/overdrive pairs a full run measures (smoke mode: one).
const FULL_ROUNDS: usize = 5;

/// Knobs for one phase of the overload benchmark.
struct PhaseSpec {
    name: &'static str,
    clients: usize,
    attempts_per_client: usize,
    objects: u32,
    workers: usize,
    /// In-flight admission cap (0 = off).
    max_in_flight: usize,
    /// Queue-wait shedding deadline (zero = off).
    queue_deadline: Duration,
}

/// What one phase measured.
struct PhaseResult {
    name: &'static str,
    clients: usize,
    attempts: u64,
    served: u64,
    busy_answers: u64,
    other: u64,
    wall_clock_secs: f64,
    p50_delay_secs: f64,
    p99_delay_secs: f64,
    shed_requests: u64,
    peak_queue_depth: u64,
    queue_wait_micros: u64,
    client_timeouts: u64,
}

impl PhaseResult {
    fn served_per_sec(&self) -> f64 {
        if self.wall_clock_secs > 0.0 {
            self.served as f64 / self.wall_clock_secs
        } else {
            f64::INFINITY
        }
    }

    fn shed_rate(&self) -> f64 {
        if self.attempts > 0 {
            self.busy_answers as f64 / self.attempts as f64
        } else {
            0.0
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

/// One client attempt: served (with the observed delay), shed with a retry
/// pause, or something else (refused connect, mid-stream close).
enum Attempt {
    Served(f64),
    Busy(u64),
    Other,
}

fn attempt_fetch(addr: SocketAddr, name: &str, scratch: &mut [u8]) -> Attempt {
    let t0 = Instant::now();
    let Ok(stream) = TcpStream::connect(addr) else {
        return Attempt::Other;
    };
    stream.set_nodelay(true).ok();
    let Ok(read_half) = stream.try_clone() else {
        return Attempt::Other;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    if write_request(
        &mut writer,
        &Request {
            name: name.to_string(),
            offset: 0,
        },
    )
    .is_err()
    {
        return Attempt::Other;
    }
    let size = match read_response(&mut reader) {
        Ok(Response::Ok { size, .. }) => size,
        Ok(Response::Busy { retry_after_ms }) => return Attempt::Busy(retry_after_ms),
        Ok(Response::Err(_)) | Err(_) => return Attempt::Other,
    };
    let mut received: u64 = 0;
    while received < size {
        let want = scratch.len().min((size - received) as usize);
        match reader.read(&mut scratch[..want]) {
            Ok(0) | Err(_) => return Attempt::Other,
            Ok(n) => received += n as u64,
        }
    }
    while reader.read(scratch).map(|n| n > 0).unwrap_or(false) {}
    Attempt::Served(t0.elapsed().as_secs_f64())
}

/// Runs one phase: fresh origin + proxy, sequential warm-up to a fully
/// cached catalog, then the timed concurrent storm.
fn run_phase(spec: &PhaseSpec) -> PhaseResult {
    let origin = OriginServer::start(OriginConfig {
        objects: (0..spec.objects)
            .map(|i| ObjectSpec::new(format!("clip-{i}"), OBJECT_BYTES, BITRATE_BPS))
            .collect(),
        rate_limit_bps: 0.0,
    })
    .expect("origin start");
    let mut config = ProxyConfig::new(origin.addr(), 1e12);
    config.policy = PolicyKind::IntegralFrequency;
    config.worker_threads = spec.workers;
    config.client_rate_limit_bps = CLIENT_PACE_BPS;
    config.max_in_flight = spec.max_in_flight;
    config.queue_deadline = spec.queue_deadline;
    let proxy = CachingProxy::start(config).expect("proxy start");
    let addr = proxy.addr();

    // Warm-up: cache the whole catalog so the timed region never touches
    // the origin and the per-request service time is the pacing alone.
    let client = StreamingClient::new();
    for i in 0..spec.objects {
        let report = client
            .fetch(addr, &format!("clip-{i}"))
            .expect("warm-up fetch");
        assert!(report.content_ok, "warm-up content mismatch");
    }
    assert_eq!(
        proxy.stats().cached_bytes,
        u64::from(spec.objects) * OBJECT_BYTES,
        "cache must be fully warm before the timed phase"
    );

    let objects = spec.objects;
    let attempts_per_client = spec.attempts_per_client;
    let started = Instant::now();
    let per_client: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut scratch = vec![0u8; 64 * 1024];
                    let mut delays = Vec::with_capacity(attempts_per_client);
                    let mut busy: u64 = 0;
                    let mut other: u64 = 0;
                    for r in 0..attempts_per_client {
                        let name = format!("clip-{}", (c + r * 17) as u32 % objects);
                        match attempt_fetch(addr, &name, &mut scratch) {
                            Attempt::Served(delay) => delays.push(delay),
                            Attempt::Busy(retry_after_ms) => {
                                busy += 1;
                                // Honour the server's pause (bounded so an
                                // over-generous hint cannot stall the bench).
                                std::thread::sleep(Duration::from_millis(retry_after_ms.min(200)));
                            }
                            Attempt::Other => other += 1,
                        }
                    }
                    (delays, busy, other)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = started.elapsed().as_secs_f64();

    let mut delays: Vec<f64> = Vec::new();
    let mut busy_answers: u64 = 0;
    let mut other: u64 = 0;
    for (d, b, o) in per_client {
        delays.extend(d);
        busy_answers += b;
        other += o;
    }
    delays.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let stats = proxy.stats();
    PhaseResult {
        name: spec.name,
        clients: spec.clients,
        attempts: (spec.clients * spec.attempts_per_client) as u64,
        served: delays.len() as u64,
        busy_answers,
        other,
        wall_clock_secs: wall,
        p50_delay_secs: percentile(&delays, 0.50),
        p99_delay_secs: percentile(&delays, 0.99),
        shed_requests: stats.shed_requests,
        peak_queue_depth: stats.peak_queue_depth,
        queue_wait_micros: stats.queue_wait_micros,
        client_timeouts: stats.client_timeouts,
    }
}

fn phase_json(r: &PhaseResult) -> String {
    format!(
        "{{\"name\": \"{}\", \"clients\": {}, \"attempts\": {}, \"served\": {}, \
         \"busy_answers\": {}, \"other\": {}, \"wall_clock_secs\": {:.6}, \
         \"served_per_sec\": {:.1}, \"shed_rate\": {:.4}, \"p50_delay_secs\": {:.6}, \
         \"p99_delay_secs\": {:.6}, \"shed_requests\": {}, \"peak_queue_depth\": {}, \
         \"queue_wait_micros\": {}, \"client_timeouts\": {}}}",
        r.name,
        r.clients,
        r.attempts,
        r.served,
        r.busy_answers,
        r.other,
        r.wall_clock_secs,
        r.served_per_sec(),
        r.shed_rate(),
        r.p50_delay_secs,
        r.p99_delay_secs,
        r.shed_requests,
        r.peak_queue_depth,
        r.queue_wait_micros,
        r.client_timeouts,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Baseline concurrency N, overdrive 4N. The overdrive cap admits about
    // 1.5× the baseline's natural concurrency, so the admitted requests
    // queue a little deeper than baseline but far less than 4×; the queue
    // deadline bounds the worst admitted wait.
    let (clients, attempts, objects, workers) = if smoke {
        (8, 6, 32, 4)
    } else {
        (64, 20, 64, 8)
    };
    let baseline = PhaseSpec {
        name: "warm_baseline",
        clients,
        attempts_per_client: attempts,
        objects,
        workers,
        max_in_flight: 0,
        queue_deadline: Duration::ZERO,
    };
    let overdrive = PhaseSpec {
        name: "overdrive_4x",
        clients: clients * 4,
        attempts_per_client: attempts,
        objects,
        workers,
        max_in_flight: clients + clients / 2,
        queue_deadline: Duration::from_millis(250),
    };
    let rounds = if smoke { 1 } else { FULL_ROUNDS };
    let mut pairs: Vec<(f64, PhaseResult, PhaseResult)> = (0..rounds)
        .map(|_| {
            let (baseline, overdrive) = (run_phase(&baseline), run_phase(&overdrive));
            let p99_ratio = if baseline.p99_delay_secs > 0.0 {
                overdrive.p99_delay_secs / baseline.p99_delay_secs
            } else {
                f64::INFINITY
            };
            (p99_ratio, baseline, overdrive)
        })
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let p99_ratio_range = (pairs[0].0, pairs[rounds - 1].0);
    let shed_rates = pairs.iter().map(|(_, _, overdrive)| overdrive.shed_rate());
    let shed_rate_range = shed_rates.fold((f64::INFINITY, 0.0_f64), |(lo, hi), rate| {
        (lo.min(rate), hi.max(rate))
    });
    let (p99_ratio, baseline, overdrive) = pairs.swap_remove(rounds / 2);

    for r in [&baseline, &overdrive] {
        println!(
            "{:<14} {:>4} clients {:>6} attempts  served {:>6} ({:>7.1}/s)  busy {:>6} \
             (shed rate {:>5.3})  p50 {:>7.4} s  p99 {:>7.4} s  peak queue {:>4}",
            r.name,
            r.clients,
            r.attempts,
            r.served,
            r.served_per_sec(),
            r.busy_answers,
            r.shed_rate(),
            r.p50_delay_secs,
            r.p99_delay_secs,
            r.peak_queue_depth,
        );
    }
    println!(
        "overdrive p99 / baseline p99 = {p99_ratio:.2}  (shed {} of {} attempts)",
        overdrive.busy_answers, overdrive.attempts
    );
    println!(
        "median of {rounds} round(s); over all of them shed rate {:.3}–{:.3}, p99 ratio {:.2}–{:.2}",
        shed_rate_range.0, shed_rate_range.1, p99_ratio_range.0, p99_ratio_range.1
    );

    // The contract this benchmark exists to enforce.
    assert!(
        overdrive.shed_requests > 0 && overdrive.busy_answers > 0,
        "4x overdrive must shed: shed_requests={}, busy_answers={}",
        overdrive.shed_requests,
        overdrive.busy_answers
    );
    assert_eq!(
        baseline.shed_requests, 0,
        "the uncapped baseline must not shed"
    );
    if !smoke {
        assert!(
            p99_ratio <= 3.0,
            "served-request p99 under 4x overdrive degraded {p99_ratio:.2}x over baseline (limit 3x)"
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"id\": \"bench_overload\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(json, "  \"object_bytes\": {OBJECT_BYTES},");
    let _ = writeln!(json, "  \"client_pace_bps\": {CLIENT_PACE_BPS},");
    let _ = writeln!(
        json,
        "  \"p99_ratio_overdrive_vs_baseline\": {p99_ratio:.4},"
    );
    let _ = writeln!(json, "  \"rounds\": {rounds},");
    let _ = writeln!(
        json,
        "  \"shed_rate_range\": [{:.4}, {:.4}],",
        shed_rate_range.0, shed_rate_range.1
    );
    let _ = writeln!(
        json,
        "  \"p99_ratio_range\": [{:.4}, {:.4}],",
        p99_ratio_range.0, p99_ratio_range.1
    );
    json.push_str("  \"phases\": [\n");
    let _ = writeln!(json, "    {},", phase_json(&baseline));
    let _ = writeln!(json, "    {}", phase_json(&overdrive));
    json.push_str("  ]\n}\n");

    // Full mode refreshes the checked-in baseline; smoke mode (CI) writes
    // next to the figure JSON so it never clobbers the tracked trajectory.
    let path = if smoke {
        let _ = std::fs::create_dir_all("results");
        "results/BENCH_overload_smoke.json"
    } else {
        "BENCH_overload.json"
    };
    match std::fs::write(path, &json) {
        Ok(()) => println!("(wrote {path})"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}
