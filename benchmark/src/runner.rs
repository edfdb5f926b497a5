//! One run of one workload in this process: set-up, the timed phases, the
//! correctness checks, and the metrics that come out.
//!
//! An untraced run times one phase of `seconds` and reports the end-to-end
//! metrics. A traced run spends a quarter of `seconds` untraced and a
//! quarter traced (their throughput ratio is the tracing overhead), then
//! runs the part of the layer table the workload touches, and reports the
//! per-layer metrics.

use crate::json::Json;
use crate::layers::{self, Budget, Group, LayerStat};
use crate::load::{self, LoadPlan, LoadResult};
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::origin_stub::{self, OriginRecord};
use crate::procfs::{self, ProcSample};
use crate::reference::CpuReference;
use crate::stats;
use crate::trace::{self, now_ns, Span, SpanIds};
use crate::workloads::{self, Kind, ProxyEnv, Scale, Workload};
use sc_proxy::ProxyStats;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// No operation failed and every check on the program's own counters
    /// held.
    pub correct: bool,
    /// `(name, value)` of every end-to-end metric (untraced) or every
    /// per-layer metric (traced), in manifest order. `None` marks a layer
    /// this workload does not touch; the driver's line carries it as 0.
    pub metrics: Vec<(&'static str, Option<f64>)>,
    /// Latency samples behind each percentile: those of the smallest window
    /// (proxy) or group of passes (simulator).
    pub samples: u64,
    /// Failure messages and failed checks.
    pub notes: Vec<String>,
    /// The simulated statistics' exact printed form: equal between two
    /// runs exactly when the statistics are bit-identical.
    pub fingerprint: String,
    pub layers: Vec<LayerStat>,
    pub spans: Vec<Span>,
    /// Per window or pass: what was measured and what the reference block
    /// next to it read, before calibration. For the detail file.
    pub windows: Vec<Json>,
}

fn unit_of(name: &str) -> &'static str {
    metrics::end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| metrics::per_layer(name).map(|m| m.unit))
        .unwrap_or("")
}

impl RunReport {
    /// The one line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(true)),
        ])
        .to_line()
    }

    fn metrics_json(&self, untouched_as_zero: bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .filter_map(|&(name, value)| {
                    let value = value.or(untouched_as_zero.then_some(0.0))?;
                    Some((
                        name.to_string(),
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::str(unit_of(name))),
                        ]),
                    ))
                })
                .collect(),
        )
    }

    /// Everything about the run, for the files `run` keeps. At most
    /// `span_limit` spans are written; `spans_total` says how many the run
    /// recorded.
    pub fn to_detail(&self, args: &RunArgs, span_limit: usize) -> Json {
        Json::obj([
            ("workload", Json::str(args.workload.name())),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("smoke", Json::Bool(args.scale == Scale::Smoke)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("samples", Json::Num(self.samples as f64)),
            ("metrics", self.metrics_json(false)),
            ("fingerprint", Json::str(self.fingerprint.as_str())),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
            (
                "layers",
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|row| (row.name.to_string(), row.to_json()))
                        .collect(),
                ),
            ),
            ("windows", Json::Arr(self.windows.clone())),
            ("spans_total", Json::Num(self.spans.len() as f64)),
            ("spans", trace::to_json(&self.spans, span_limit)),
        ])
    }

    fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.notes.push(what());
        }
    }

    /// Fills `metrics` from `values` in the order of `names`.
    fn set_metrics(&mut self, names: impl Iterator<Item = &'static str>, values: &[(&str, f64)]) {
        self.metrics = names
            .map(|name| {
                let value = values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
                (name, value)
            })
            .collect();
    }
}

/// Windows a proxy run is cut into. Each is a block of load through the
/// proxy followed by a reference block straight at the origin stub; the
/// median window is reported, so a burst of interference shorter than half
/// the run does not move the result.
const WINDOWS: usize = 10;

/// Share of a window spent on the reference block.
const REFERENCE_SHARE: f64 = 0.3;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Timing {
    throughput_ops_s: f64,
    p50_us: f64,
    p90_us: f64,
    samples: u64,
}

/// Throughput and percentiles of one block of closed-loop load; `None` when
/// no operation of the block succeeded.
fn block_timing(block: &LoadResult) -> Option<Timing> {
    let mut sorted = block.latencies_us.clone();
    if sorted.is_empty() {
        return None;
    }
    stats::sort(&mut sorted);
    Some(Timing {
        throughput_ops_s: block.throughput_ops_s(),
        p50_us: stats::percentile(&sorted, 0.50),
        p90_us: stats::percentile(&sorted, 0.90),
        samples: sorted.len() as u64,
    })
}

impl Timing {
    /// These numbers as the nominal box would have produced them: each
    /// statistic is scaled by how far the same statistic of the `reference`
    /// block next to it was from its `nominal` value. Like is held against
    /// like because a busy box does not slow everything alike — stalls
    /// stretch a block's p90 and cut its throughput while its median hardly
    /// moves.
    fn calibrated(self, reference: &Timing, nominal: &Timing) -> Timing {
        Timing {
            throughput_ops_s: self.throughput_ops_s * nominal.throughput_ops_s
                / reference.throughput_ops_s,
            p50_us: self.p50_us * nominal.p50_us / reference.p50_us,
            p90_us: self.p90_us * nominal.p90_us / reference.p90_us,
            samples: self.samples,
        }
    }
}

/// What a reference block of `workload` reads on the nominal box.
fn nominal_reference(workload: Workload) -> Timing {
    let (throughput_ops_s, p50_us, p90_us) = workloads::reference_nominal(workload);
    Timing {
        throughput_ops_s,
        p50_us,
        p90_us,
        samples: 0,
    }
}

/// The median window. Its sample count is the smallest window's: every
/// percentile reported rests on at least that many samples.
fn median_window(windows: &[Timing]) -> Timing {
    let column = |f: fn(&Timing) -> f64| stats::median(&windows.iter().map(f).collect::<Vec<_>>());
    Timing {
        throughput_ops_s: column(|w| w.throughput_ops_s),
        p50_us: column(|w| w.p50_us),
        p90_us: column(|w| w.p90_us),
        samples: windows.iter().map(|w| w.samples).min().unwrap_or(0),
    }
}

/// Groups of consecutive passes a simulator run is cut into.
const SIM_WINDOWS: usize = 3;

/// One simulator pass: how long it took, and what the reference blocks
/// around it read (nanoseconds per operation, mean of the two).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pass {
    secs: f64,
    reference_ns: f64,
}

/// Summary of simulator passes. Each pass is one latency sample; the passes
/// are cut into [`SIM_WINDOWS`] groups in the order they ran and the median
/// group is reported, as for the proxy, so interference that lasts a third
/// of the run does not set the tail. A group is calibrated as a whole, by
/// the median of its reference readings: what slows a single pass is mostly
/// over before the block after it starts, so scaling pass by pass would only
/// add the blocks' own scatter to the tail.
fn summarize_passes(passes: &[Pass], ops_per_pass: u64) -> Timing {
    let windows: Vec<Timing> = passes
        .chunks(passes.len().div_ceil(SIM_WINDOWS).max(1))
        .map(|group| {
            let mut sorted: Vec<f64> = group.iter().map(|p| p.secs * 1e6).collect();
            stats::sort(&mut sorted);
            let reference_ns =
                stats::median(&group.iter().map(|p| p.reference_ns).collect::<Vec<_>>());
            let scale = workloads::CPU_REFERENCE_NOMINAL_NS / reference_ns;
            let p50_us = stats::median(&sorted) * scale;
            Timing {
                throughput_ops_s: ops_per_pass as f64 / (p50_us / 1e6),
                p50_us,
                p90_us: stats::percentile(&sorted, 0.90) * scale,
                samples: sorted.len() as u64,
            }
        })
        .collect();
    median_window(&windows)
}

/// Set-ups per run. One set-up of 0.2 to 0.6 s scatters by 10 to 20 % of
/// itself between identical runs; the median of five by half that.
fn setup_repeats(scale: Scale) -> usize {
    match scale {
        Scale::Full => 5,
        Scale::Smoke => 1,
    }
}

/// Sets up `repeats` times, tearing down in between, and returns the last
/// environment with the median set-up time. `setup` times itself, so that
/// it can leave its own checks out of the time.
fn repeated_setup<E>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<(E, f64), String>,
) -> Result<(E, f64), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut env = None;
    for _ in 0..repeats.max(1) {
        drop(env.take());
        let (new_env, secs) = setup()?;
        env = Some(new_env);
        times.push(secs);
    }
    Ok((env.expect("at least one set-up ran"), stats::median(&times)))
}

fn end_to_end_values(setup_s: f64, timing: Timing) -> Vec<(&'static str, f64)> {
    vec![
        (metrics::SETUP_S, setup_s),
        (metrics::THROUGHPUT, timing.throughput_ops_s),
        (metrics::LATENCY_P50, timing.p50_us),
        (metrics::LATENCY_P90, timing.p90_us),
        (metrics::PEAK_RSS, procfs::peak_rss_mb().unwrap_or(0.0)),
    ]
}

fn layer_budget(scale: Scale) -> Budget {
    match scale {
        Scale::Full => Budget::TRACED_RUN,
        Scale::Smoke => Budget::SMOKE,
    }
}

pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let mut report = match args.workload.kind() {
        Kind::Proxy => run_proxy(args)?,
        Kind::Sim => run_sim(args)?,
    };
    report.correct = report.failed == 0 && report.notes.is_empty() && report.attempted > 0;
    Ok(report)
}

/// Counters of the proxy and the stub at one instant.
struct Counters {
    proxy: ProxyStats,
    origin_connections: u64,
}

impl Counters {
    fn read(env: &ProxyEnv) -> Self {
        Counters {
            proxy: env.proxy.stats(),
            origin_connections: env.origin.connections(),
        }
    }
}

/// Holds the program's own counters against what the clients saw.
fn check_phase(
    report: &mut RunReport,
    workload: Workload,
    env: &ProxyEnv,
    phase: &LoadResult,
    before: &Counters,
    after: &Counters,
) {
    report.attempted += phase.attempted;
    report.failed += phase.failed;
    report.notes.extend(phase.failures.iter().cloned());
    if phase.failed > 0 {
        // The counters below only add up when every request completed.
        return;
    }
    let served = after.proxy.requests - before.proxy.requests;
    report.check(served == phase.attempted, || {
        format!(
            "proxy counted {served} requests, clients made {}",
            phase.attempted
        )
    });
    let bytes = (after.proxy.bytes_from_cache - before.proxy.bytes_from_cache)
        + (after.proxy.bytes_from_origin - before.proxy.bytes_from_origin);
    let expected = phase.attempted * env.payloads.object_bytes() as u64;
    report.check(bytes == expected, || {
        format!("proxy accounts for {bytes} bytes, clients received {expected}")
    });
    let shed = after.proxy.shed_requests - before.proxy.shed_requests;
    report.check(shed == 0, || format!("{shed} requests shed"));
    let opened = after.origin_connections - before.origin_connections;
    let as_designed = match workload {
        Workload::WarmHit => opened == 0,
        Workload::LargeRelay => opened == phase.attempted,
        _ => opened > 0 && opened < phase.attempted,
    };
    report.check(as_designed, || {
        format!(
            "{}: {opened} origin connections for {} requests",
            workload.name(),
            phase.attempted
        )
    });
}

/// `seconds` of the workload's load at `addr`: the proxy, or the origin stub.
fn timed_plan(
    workload: Workload,
    env: &ProxyEnv,
    addr: SocketAddr,
    seconds: f64,
    traced: bool,
) -> LoadPlan {
    LoadPlan {
        addr,
        clients: env.clients,
        duration: Duration::from_secs_f64(seconds),
        max_ops_per_client: u64::MAX,
        compare_every: workloads::compare_every(workload),
        traced,
    }
}

/// A block of load straight at the origin stub, bypassing the proxy: the
/// same clients, objects and checks, none of the program's code. What it
/// measures is the box — loopback connections and copies at this moment.
fn reference_block(
    report: &mut RunReport,
    workload: Workload,
    env: &mut ProxyEnv,
    seconds: f64,
) -> Option<Timing> {
    let plan = timed_plan(workload, env, env.origin.addr(), seconds, false);
    let block = load::run(&plan, &env.payloads, &mut env.client_states);
    report.check(block.failed == 0, || {
        format!("reference fetches failed: {:?}", block.failures)
    });
    block_timing(&block)
}

fn run_proxy(args: &RunArgs) -> Result<RunReport, String> {
    let workload = args.workload;
    // Once per process, outside the set-up time: it checks the benchmark's
    // stub, not the program.
    origin_stub::self_test(&Arc::new(workloads::self_test_payloads(workload)))?;
    let mut report = RunReport::default();
    let nominal = nominal_reference(workload);
    let window_secs = args.seconds / WINDOWS as f64;
    let reference_secs = window_secs * REFERENCE_SHARE;
    let (mut env, setup_s) = repeated_setup(setup_repeats(args.scale), || {
        let started = Instant::now();
        let mut env = workloads::setup_proxy(workload, args.seed)?;
        let secs = started.elapsed().as_secs_f64();
        let reference = reference_block(&mut report, workload, &mut env, reference_secs)
            .ok_or("no reference fetch succeeded after set-up")?;
        Ok((env, secs * nominal.p50_us / reference.p50_us))
    })?;
    let plan = |env: &ProxyEnv, seconds: f64, traced: bool| {
        timed_plan(workload, env, env.proxy.addr(), seconds, traced)
    };

    if !args.trace {
        let mut windows = Vec::with_capacity(WINDOWS);
        for _ in 0..WINDOWS {
            let plan = plan(&env, window_secs - reference_secs, false);
            let before = Counters::read(&env);
            let block = load::run(&plan, &env.payloads, &mut env.client_states);
            let after = Counters::read(&env);
            check_phase(&mut report, workload, &env, &block, &before, &after);
            let reference = reference_block(&mut report, workload, &mut env, reference_secs);
            if let (Some(timing), Some(reference)) = (block_timing(&block), reference) {
                report.windows.push(Json::obj([
                    ("throughput_ops_s", Json::Num(timing.throughput_ops_s)),
                    ("p50_us", Json::Num(timing.p50_us)),
                    ("p90_us", Json::Num(timing.p90_us)),
                    (
                        "reference_throughput_ops_s",
                        Json::Num(reference.throughput_ops_s),
                    ),
                    ("reference_p50_us", Json::Num(reference.p50_us)),
                    ("reference_p90_us", Json::Num(reference.p90_us)),
                ]));
                windows.push(timing.calibrated(&reference, &nominal));
            }
        }
        if windows.is_empty() {
            return Err("no window completed an operation".into());
        }
        let timing = median_window(&windows);
        report.samples = timing.samples;
        report.set_metrics(
            END_TO_END.iter().map(|m| m.name),
            &end_to_end_values(setup_s, timing),
        );
        return Ok(report);
    }

    let untraced_plan = plan(&env, args.seconds / 4.0, false);
    let before = Counters::read(&env);
    let untraced = load::run(&untraced_plan, &env.payloads, &mut env.client_states);
    let between = Counters::read(&env);
    check_phase(&mut report, workload, &env, &untraced, &before, &between);

    let traced_plan = plan(&env, args.seconds / 4.0, true);
    env.origin.set_recording(true);
    let traced = load::run(&traced_plan, &env.payloads, &mut env.client_states);
    env.origin.set_recording(false);
    let after = Counters::read(&env);
    check_phase(&mut report, workload, &env, &traced, &between, &after);
    let records = env.origin.take_records();

    let mut stats_calls: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(env.proxy.stats());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::sort(&mut stats_calls);

    let mut values = client_values(&traced);
    // The four phases tile a request, so their means must add up to the
    // mean latency; 2 % covers the rounding of half a million divisions.
    let mean = trace::mean_us(&traced.spans, load::REQUEST);
    let phases: f64 = [load::CONNECT, load::TTFB, load::BODY, load::CLOSE]
        .iter()
        .map(|phase| trace::mean_us(&traced.spans, phase))
        .sum();
    report.check((phases - mean).abs() <= 0.02 * mean, || {
        format!("client phases sum to {phases} us, mean latency is {mean} us")
    });
    values.extend(origin_values(&records, traced.correct()));
    values.extend(proxy_values(&between.proxy, &after.proxy));
    values.push(("proxy.stats_call_us", stats::median(&stats_calls)));
    values.extend(proc_values(
        &traced.proc_before,
        &traced.proc_after,
        traced.correct(),
    ));
    values.push((
        "trace.overhead_ratio",
        untraced.throughput_ops_s() / traced.throughput_ops_s(),
    ));
    values.push(("client.throughput_ops_s", traced.throughput_ops_s()));
    if let Some(direct) = reference_block(&mut report, workload, &mut env, reference_secs) {
        values.push(("reference.direct_p50_us", direct.p50_us));
        values.push(("reference.speed_factor", nominal.p50_us / direct.p50_us));
    }

    report.samples = traced.latencies_us.len() as u64;
    report.spans = traced.spans;
    link_origin_spans(&mut report.spans, &records, env.clients);
    // The servers go before the table runs: their idle threads would share
    // the cores with it.
    drop(env);
    report.layers = layers::run(&[Group::Proxy], layer_budget(args.scale), args.scale);
    values.extend(report.layers.iter().map(|row| (row.name, row.median)));
    report.set_metrics(PER_LAYER.iter().map(|m| m.name), &values);
    Ok(report)
}

fn per_op(total: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total / ops as f64
    }
}

fn client_values(traced: &LoadResult) -> Vec<(&'static str, f64)> {
    let spans = &traced.spans;
    let p99 = |name: &str| {
        let sorted = trace::sorted_us(spans, name);
        if sorted.is_empty() {
            0.0
        } else {
            stats::percentile(&sorted, 0.99)
        }
    };
    vec![
        (
            "client.latency_us_mean",
            trace::mean_us(spans, load::REQUEST),
        ),
        ("client.latency_us_p99", p99(load::REQUEST)),
        (
            "client.connect_us_mean",
            trace::mean_us(spans, load::CONNECT),
        ),
        ("client.ttfb_us_mean", trace::mean_us(spans, load::TTFB)),
        ("client.body_us_mean", trace::mean_us(spans, load::BODY)),
        ("client.close_us_mean", trace::mean_us(spans, load::CLOSE)),
        ("client.ttfb_us_p99", p99(load::TTFB)),
        (
            "client.goodput_mb_s",
            traced.bytes as f64 / traced.wall_secs / 1e6,
        ),
    ]
}

fn origin_values(records: &[OriginRecord], ops: u64) -> Vec<(&'static str, f64)> {
    let count = records.len() as u64;
    let sum = |f: fn(&OriginRecord) -> u64| records.iter().map(f).sum::<u64>() as f64;
    vec![
        ("origin.conns_per_op", per_op(count as f64, ops)),
        (
            "origin.open_us_mean",
            per_op(sum(|r| r.parsed_ns - r.accepted_ns) / 1e3, count),
        ),
        (
            "origin.serve_us_mean",
            per_op(sum(|r| r.served_ns - r.parsed_ns) / 1e3, count),
        ),
        ("origin.bytes_per_op", per_op(sum(|r| r.payload_bytes), ops)),
    ]
}

fn proxy_values(before: &ProxyStats, after: &ProxyStats) -> Vec<(&'static str, f64)> {
    let requests = after.requests - before.requests;
    let from_cache = (after.bytes_from_cache - before.bytes_from_cache) as f64;
    let from_origin = (after.bytes_from_origin - before.bytes_from_origin) as f64;
    vec![
        (
            "proxy.pool.queue_wait_us_per_op",
            per_op(
                (after.queue_wait_micros - before.queue_wait_micros) as f64,
                requests,
            ),
        ),
        ("proxy.pool.peak_queue_depth", after.peak_queue_depth as f64),
        (
            "proxy.pool.shed_ops",
            (after.shed_requests - before.shed_requests) as f64,
        ),
        (
            "proxy.store.byte_hit_ratio",
            if from_cache + from_origin > 0.0 {
                from_cache / (from_cache + from_origin)
            } else {
                0.0
            },
        ),
        ("proxy.store.cached_objects", after.cached_objects as f64),
        ("proxy.relay.peak_tail_bytes", after.peak_tail_bytes as f64),
        (
            "proxy.retry.origin_retries",
            (after.origin_retries - before.origin_retries) as f64,
        ),
        (
            "proxy.retry.breaker_transitions",
            (after.breaker_transitions - before.breaker_transitions) as f64,
        ),
    ]
}

fn proc_values(before: &ProcSample, after: &ProcSample, ops: u64) -> Vec<(&'static str, f64)> {
    vec![
        (
            "proc.cpu_user_us_per_op",
            per_op((after.cpu.user_secs - before.cpu.user_secs) * 1e6, ops),
        ),
        (
            "proc.cpu_sys_us_per_op",
            per_op((after.cpu.sys_secs - before.cpu.sys_secs) * 1e6, ops),
        ),
        (
            "proc.ctx_switches_per_op",
            per_op(
                after.ctx_switches.saturating_sub(before.ctx_switches) as f64,
                ops,
            ),
        ),
        (
            "proc.threads_peak",
            before.threads.max(after.threads) as f64,
        ),
    ]
}

pub const ORIGIN_OPEN: &str = "origin.open";
pub const ORIGIN_SERVE: &str = "origin.serve";

/// Adds the stub's side of each origin connection as children of the client
/// request that caused it. Client `c` of `n` owns the objects ≡ `c` (mod
/// `n`) and has one request in flight, so the cause is the request of the
/// owning client that was open when the stub accepted the connection.
fn link_origin_spans(spans: &mut Vec<Span>, records: &[OriginRecord], clients: usize) {
    let mut roots: Vec<Vec<Span>> = vec![Vec::new(); clients];
    for span in spans.iter().filter(|s| s.name == load::REQUEST) {
        // SpanIds::lane(c, clients) hands out ids ≡ c + 1 (mod clients).
        roots[(span.id as usize - 1) % clients].push(*span);
    }
    for lane in &mut roots {
        lane.sort_by_key(|s| s.start_ns);
    }
    let mut ids = SpanIds::after(spans.iter().map(|s| s.id).max().unwrap_or(0));
    for record in records {
        let lane = &roots[record.object % clients];
        let candidate = lane.partition_point(|s| s.start_ns <= record.accepted_ns);
        let parent = candidate
            .checked_sub(1)
            .map(|i| lane[i])
            .filter(|s| record.accepted_ns <= s.end_ns)
            .map_or(0, |s| s.id);
        for (name, start_ns, end_ns) in [
            (ORIGIN_OPEN, record.accepted_ns, record.parsed_ns),
            (ORIGIN_SERVE, record.parsed_ns, record.served_ns),
        ] {
            spans.push(Span {
                id: ids.next(),
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}

pub const SIM_PASS: &str = "sim.pass";

/// A simulator workload behind one interface: a pass, its size, and the
/// statistics the first pass produced.
struct SimEnv {
    pass: Box<dyn Fn() -> Result<String, String>>,
    ops_per_pass: u64,
    /// Printed form of the first pass's output.
    reference: String,
    stats: Vec<(&'static str, f64)>,
    group: Group,
}

fn setup_sim(workload: Workload, seed: u64, scale: Scale) -> Result<SimEnv, String> {
    if workload == Workload::SimGrid {
        let env = workloads::setup_grid(seed, scale)?;
        // Configurations are policy-major with ascending cache fractions:
        // the first is PB at the smallest cache.
        let pb = env.reference[0];
        Ok(SimEnv {
            ops_per_pass: env.ops_per_pass,
            reference: workloads::fingerprint(&env.reference),
            stats: vec![
                ("sim.grid.pb_avg_service_delay_s", pb.avg_service_delay_secs),
                (
                    "sim.grid.pb_traffic_reduction_ratio",
                    pb.traffic_reduction_ratio,
                ),
            ],
            group: Group::Grid,
            pass: Box::new(move || {
                workloads::grid_pass(&env.configs, env.runs).map(|m| workloads::fingerprint(&m))
            }),
        })
    } else {
        let env = workloads::setup_sessions(seed, scale)?;
        // The statistics of the first trace stand for the run; the
        // fingerprint covers all of them.
        let metrics = &env.reference[0].metrics;
        Ok(SimEnv {
            ops_per_pass: env.ops_per_pass,
            reference: workloads::fingerprint(&env.reference),
            stats: vec![
                (
                    "sim.session.rebuffer_probability",
                    metrics.rebuffer_probability,
                ),
                ("sim.session.origin_bytes_total", metrics.origin_bytes_total),
            ],
            group: Group::Sessions,
            pass: Box::new(move || {
                workloads::sessions_pass(&env.workers).map(|r| workloads::fingerprint(&r))
            }),
        })
    }
}

/// Longest reference block between two simulator passes.
const SIM_REFERENCE_SECS: f64 = 0.1;

/// Runs passes until `seconds` have gone by (at least one), holding each
/// pass's output against the reference bit for bit. A block of
/// [`CpuReference`] runs before the first pass and after every pass.
fn sim_phase(
    env: &SimEnv,
    cpu: &mut CpuReference,
    seconds: f64,
    report: &mut RunReport,
    mut spans: Option<&mut Vec<Span>>,
) -> Vec<Pass> {
    let reference_secs = (seconds / 40.0).min(SIM_REFERENCE_SECS);
    let mut passes = Vec::new();
    let mut ids = SpanIds::lane(0, 1);
    let started = Instant::now();
    let mut before_ns = cpu.block(reference_secs);
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let start_ns = now_ns();
        let pass_started = Instant::now();
        let output = (env.pass)();
        let secs = pass_started.elapsed().as_secs_f64();
        if let Some(spans) = spans.as_deref_mut() {
            spans.push(Span {
                id: ids.next(),
                parent: 0,
                name: SIM_PASS,
                start_ns,
                end_ns: now_ns(),
            });
        }
        let after_ns = cpu.block(reference_secs);
        let reference_ns = (before_ns + after_ns) / 2.0;
        before_ns = after_ns;
        report.windows.push(Json::obj([
            ("pass_s", Json::Num(secs)),
            ("reference_ns_per_op", Json::Num(reference_ns)),
        ]));
        passes.push(Pass { secs, reference_ns });
        report.attempted += env.ops_per_pass;
        match output {
            Ok(output) if output == env.reference => {}
            Ok(_) => {
                report.failed += env.ops_per_pass;
                if report.notes.len() < 3 {
                    report
                        .notes
                        .push("a pass's output differs from the first pass's".into());
                }
            }
            Err(e) => {
                report.failed += env.ops_per_pass;
                if report.notes.len() < 3 {
                    report.notes.push(format!("pass failed: {e}"));
                }
            }
        }
    }
    passes
}

fn run_sim(args: &RunArgs) -> Result<RunReport, String> {
    let mut cpu = CpuReference::new();
    let (env, setup_s) = repeated_setup(setup_repeats(args.scale), || {
        let started = Instant::now();
        let env = setup_sim(args.workload, args.seed, args.scale)?;
        let secs = started.elapsed().as_secs_f64();
        let reference_ns = cpu.block(SIM_REFERENCE_SECS);
        Ok((
            env,
            secs * workloads::CPU_REFERENCE_NOMINAL_NS / reference_ns,
        ))
    })?;
    let mut report = RunReport {
        fingerprint: env.reference.clone(),
        ..RunReport::default()
    };
    if !args.trace {
        let passes = sim_phase(&env, &mut cpu, args.seconds, &mut report, None);
        let timing = summarize_passes(&passes, env.ops_per_pass);
        report.samples = timing.samples;
        report.set_metrics(
            END_TO_END.iter().map(|m| m.name),
            &end_to_end_values(setup_s, timing),
        );
        return Ok(report);
    }

    let untraced = sim_phase(&env, &mut cpu, args.seconds / 4.0, &mut report, None);
    let mut spans = Vec::new();
    let proc_before = procfs::sample_self();
    let traced = sim_phase(
        &env,
        &mut cpu,
        args.seconds / 4.0,
        &mut report,
        Some(&mut spans),
    );
    let proc_after = procfs::sample_self();
    let traced_ops = env.ops_per_pass * traced.len() as u64;

    let mut values = env.stats.clone();
    values.extend(proc_values(&proc_before, &proc_after, traced_ops));
    values.push((
        "trace.overhead_ratio",
        summarize_passes(&traced, env.ops_per_pass).p50_us
            / summarize_passes(&untraced, env.ops_per_pass).p50_us,
    ));
    values.push((
        "reference.speed_factor",
        workloads::CPU_REFERENCE_NOMINAL_NS / cpu.block(SIM_REFERENCE_SECS),
    ));
    let group = env.group;
    drop(env);
    report.layers = layers::run(&[group], layer_budget(args.scale), args.scale);
    values.extend(report.layers.iter().map(|row| (row.name, row.median)));
    report.samples = traced.len() as u64;
    report.spans = spans;
    report.set_metrics(PER_LAYER.iter().map(|m| m.name), &values);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_calibrated_then_the_median_one_is_reported() {
        let block = |latencies: &[f64], wall_secs: f64| LoadResult {
            latencies_us: latencies.to_vec(),
            attempted: latencies.len() as u64,
            wall_secs,
            ..LoadResult::default()
        };
        let work = block(&[100.0, 300.0, 200.0, 400.0, 500.0], 0.5);
        let timing = block_timing(&work).unwrap();
        assert_eq!(
            (
                timing.throughput_ops_s,
                timing.p50_us,
                timing.p90_us,
                timing.samples
            ),
            (10.0, 300.0, 500.0, 5)
        );
        assert_eq!(block_timing(&LoadResult::default()), None);
        // Next to it the reference block ran at half its nominal rate, with
        // twice the nominal median and four times the nominal p90: the
        // nominal box would have done that much better, statistic by
        // statistic.
        let nominal = nominal_reference(Workload::WarmHit);
        let reference = Timing {
            throughput_ops_s: nominal.throughput_ops_s / 2.0,
            p50_us: nominal.p50_us * 2.0,
            p90_us: nominal.p90_us * 4.0,
            samples: 3,
        };
        let calibrated = timing.calibrated(&reference, &nominal);
        assert_eq!(
            (
                calibrated.throughput_ops_s,
                calibrated.p50_us,
                calibrated.p90_us
            ),
            (20.0, 150.0, 125.0)
        );
        // One disturbed window out of three does not move the result.
        let disturbed = Timing {
            throughput_ops_s: 1.0,
            p50_us: 9e9,
            p90_us: 9e9,
            samples: 5,
        };
        let median = median_window(&[calibrated, disturbed, calibrated]);
        assert_eq!((median.throughput_ops_s, median.p50_us), (20.0, 150.0));
        assert_eq!(median.samples, 5);
    }

    #[test]
    fn pass_summary_is_the_median_group_of_passes() {
        // Three groups of three; the last one ran while the box was busy.
        let nominal = workloads::CPU_REFERENCE_NOMINAL_NS;
        let pass = |secs, reference_ns| Pass { secs, reference_ns };
        let passes: Vec<Pass> = [0.5, 0.4, 0.7, 0.5, 0.6, 0.4, 2.0, 3.0, 2.5]
            .into_iter()
            .map(|secs| pass(secs, nominal))
            .collect();
        let timing = summarize_passes(&passes, 1000);
        assert_eq!(timing.p50_us, 500_000.0);
        assert_eq!(timing.p90_us, 700_000.0);
        assert_eq!(timing.throughput_ops_s, 2000.0);
        assert_eq!(timing.samples, 3);
        // A box at half speed: the group's median reference reading scales
        // every statistic of the group back. Fewer passes than groups: every
        // pass is its own group.
        let slow = [pass(0.5, 2.0 * nominal), pass(0.7, 2.0 * nominal)];
        let timing = summarize_passes(&slow, 1000);
        assert_eq!((timing.p50_us, timing.p90_us), (300_000.0, 300_000.0));
    }

    #[test]
    fn origin_spans_hang_under_the_owning_clients_open_request() {
        let root = |id, start_ns, end_ns| Span {
            id,
            parent: 0,
            name: load::REQUEST,
            start_ns,
            end_ns,
        };
        // Two clients: ids 1, 3 belong to client 0 and 2, 4 to client 1.
        let mut spans = vec![
            root(1, 0, 100),
            root(2, 10, 90),
            root(3, 200, 300),
            root(4, 100, 150),
        ];
        let record = |object, accepted_ns| OriginRecord {
            object,
            accepted_ns,
            parsed_ns: accepted_ns + 5,
            served_ns: accepted_ns + 20,
            payload_bytes: 1,
        };
        // Object 6 → client 0 at t=250 (request 3); object 7 → client 1 at
        // t=95 (between its requests: no parent).
        link_origin_spans(&mut spans, &[record(6, 250), record(7, 95)], 2);
        let origin: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("origin."))
            .collect();
        assert_eq!(origin.len(), 4);
        assert_eq!((origin[0].name, origin[0].parent), (ORIGIN_OPEN, 3));
        assert_eq!((origin[1].name, origin[1].parent), (ORIGIN_SERVE, 3));
        assert_eq!(origin[1].duration_ns(), 15);
        assert_eq!(origin[2].parent, 0);
        let mut ids: Vec<_> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), spans.len(), "ids stay unique");
    }

    #[test]
    fn report_line_has_exactly_the_contract_keys() {
        let mut report = RunReport {
            attempted: 10,
            correct: true,
            ..RunReport::default()
        };
        report.set_metrics(
            END_TO_END.iter().map(|m| m.name),
            &[(metrics::SETUP_S, 0.5), (metrics::THROUGHPUT, 123.456)],
        );
        let parsed = Json::parse(&report.to_line()).unwrap();
        let keys: Vec<_> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let throughput = parsed
            .get("metrics")
            .unwrap()
            .get(metrics::THROUGHPUT)
            .unwrap();
        assert_eq!(throughput.get("value").unwrap().as_f64(), Some(123.456));
        assert_eq!(throughput.get("unit").unwrap().as_str(), Some("1/s"));
    }

    #[test]
    fn smoke_runs_of_a_simulator_workload_are_correct_and_repeat() {
        let args = RunArgs {
            workload: Workload::SimGrid,
            seed: 5,
            seconds: 0.05,
            trace: false,
            scale: Scale::Smoke,
        };
        let a = run(&args).unwrap();
        let b = run(&args).unwrap();
        assert!(a.correct && b.correct, "{:?}", a.notes);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(
            a.metrics.iter().all(|(_, v)| v.is_some_and(|v| v > 0.0)),
            "{:?}",
            a.metrics
        );
    }
}
