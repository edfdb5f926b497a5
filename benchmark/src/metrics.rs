//! The benchmark's metrics: name, unit, direction, and — for end-to-end
//! metrics — the bound by which a later change may worsen them.
//!
//! `BENCHMARK.json` is printed from these tables (`benchmark manifest`), so
//! the file the driver reads and the names the program prints cannot drift
//! apart. For every per-layer metric the table also says which end-to-end
//! metric it should move, on which workload: the prediction is written
//! down before anyone measures a change.

use crate::json::Json;
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression. Each bound is at least three
    /// times the spread of ten runs on the box the baseline was taken on
    /// (`benchmark/README.md` records those spreads).
    pub bound: f64,
}

pub const SETUP_S: &str = "setup_s";
pub const THROUGHPUT: &str = "throughput_ops_s";
pub const LATENCY_P50: &str = "latency_p50_us";
pub const LATENCY_P90: &str = "latency_p90_us";
pub const PEAK_RSS: &str = "peak_rss_mb";

pub const END_TO_END: [EndToEnd; 5] = [
    // Set-up to the first timed operation: payload generation, server start
    // and cache warm-up, or workload generation and the first simulator
    // pass. Median of five set-ups.
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    // Correct operations completed per second (requests, simulated
    // requests, sessions): the median of the run's ten windows, or of its
    // passes.
    EndToEnd {
        name: THROUGHPUT,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    // Client-observed connect to EOF; for the simulator the wall time of one
    // pass.
    EndToEnd {
        name: LATENCY_P50,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    // 90th percentile (nearest rank) of the same samples: the median of the
    // windows' percentiles for the proxy, the 90th percentile of the passes
    // for the simulator. Not p99: between identical runs on the box the
    // baseline was taken on, p99 moved by up to 50 % of itself, twice the
    // largest bound a metric may have; it is the per-layer metric
    // `client.latency_us_p99`.
    EndToEnd {
        name: LATENCY_P90,
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    // Peak resident set (VmHWM) of the process that holds the clients, the
    // proxy and the origin stub, or the simulator.
    EndToEnd {
        name: PEAK_RSS,
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// A metric of one layer. Per-layer metrics carry no bound: they explain a
/// move of an end-to-end metric, they do not gate a change.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const READS: &str = "latency_p50_us on warm_hit";
const WRITES: &str = "latency_p50_us on miss_churn";
const EVERY_THROUGHPUT: &str = "throughput_ops_s on every workload";
const GRID: &str = "throughput_ops_s on sim_grid; none on sim_sessions";
const SESSIONS: &str = "throughput_ops_s on sim_sessions; none on sim_grid";
const COUNT_ONLY: &str = "none: a simulated statistic that must repeat exactly for a seed";

pub const PER_LAYER: &[PerLayer] = &[
    // Client side of a proxy connection, from the traced phase.
    layer(
        "client.latency_us_mean",
        "us",
        Lower,
        "the traced mean the four phases below sum to",
    ),
    layer(
        "client.latency_us_p99",
        "us",
        Lower,
        "latency_p90_us on warm_hit, miss_churn, large_relay",
    ),
    layer(
        "client.connect_us_mean",
        "us",
        Lower,
        "latency_p50_us on warm_hit, miss_churn",
    ),
    layer(
        "client.ttfb_us_mean",
        "us",
        Lower,
        "latency_p50_us on warm_hit, miss_churn",
    ),
    layer(
        "client.body_us_mean",
        "us",
        Lower,
        "latency_p50_us on large_relay (and its goodput)",
    ),
    layer(
        "client.close_us_mean",
        "us",
        Lower,
        "latency_p50_us on warm_hit, miss_churn",
    ),
    layer(
        "client.ttfb_us_p99",
        "us",
        Lower,
        "latency_p90_us on warm_hit, miss_churn",
    ),
    layer(
        "client.goodput_mb_s",
        "MB/s",
        Higher,
        "throughput_ops_s on large_relay (same number times the object size)",
    ),
    layer(
        "client.throughput_ops_s",
        "1/s",
        Higher,
        "throughput_ops_s on the same workload: the traced phase, uncalibrated",
    ),
    // The box, from fetches that bypass the proxy.
    layer(
        "reference.direct_p50_us",
        "us",
        Lower,
        "none: a direct fetch from the origin stub runs none of the program's code",
    ),
    layer(
        "reference.speed_factor",
        "ratio",
        Higher,
        "none: nominal over measured direct fetch; every proxy window is scaled by it",
    ),
    // The origin stub's side, linked to the client span by object ownership.
    layer(
        "origin.conns_per_op",
        "ratio",
        Lower,
        "latency_p50_us on miss_churn; 0 on warm_hit, 1 on large_relay",
    ),
    layer("origin.open_us_mean", "us", Lower, WRITES),
    layer(
        "origin.serve_us_mean",
        "us",
        Lower,
        "latency_p50_us on large_relay, miss_churn",
    ),
    layer(
        "origin.bytes_per_op",
        "bytes",
        Lower,
        "latency_p50_us on miss_churn; none on warm_hit",
    ),
    // CachingProxy::stats() deltas over the traced phase.
    layer(
        "proxy.pool.queue_wait_us_per_op",
        "us",
        Lower,
        "latency_p90_us on warm_hit",
    ),
    layer(
        "proxy.pool.peak_queue_depth",
        "count",
        Lower,
        "latency_p90_us on warm_hit",
    ),
    layer(
        "proxy.pool.shed_ops",
        "count",
        Lower,
        "failed operations on every proxy workload; expected 0",
    ),
    layer(
        "proxy.store.byte_hit_ratio",
        "ratio",
        Higher,
        "latency_p50_us on miss_churn",
    ),
    layer(
        "proxy.store.cached_objects",
        "count",
        Higher,
        "none: states the cache's steady state",
    ),
    layer(
        "proxy.relay.peak_tail_bytes",
        "bytes",
        Lower,
        "peak_rss_mb on large_relay; expected 0 there",
    ),
    layer(
        "proxy.retry.origin_retries",
        "count",
        Lower,
        "latency_p90_us on miss_churn; expected 0",
    ),
    layer(
        "proxy.retry.breaker_transitions",
        "count",
        Lower,
        "failed operations; expected 0",
    ),
    layer(
        "proxy.stats_call_us",
        "us",
        Lower,
        "none while nobody polls STATS; the O(n) snapshot",
    ),
    // /proc/self over the traced phase.
    layer("proc.cpu_user_us_per_op", "us", Lower, EVERY_THROUGHPUT),
    layer("proc.cpu_sys_us_per_op", "us", Lower, EVERY_THROUGHPUT),
    layer("proc.ctx_switches_per_op", "ratio", Lower, EVERY_THROUGHPUT),
    layer(
        "proc.threads_peak",
        "count",
        Lower,
        "peak_rss_mb on warm_hit, miss_churn, large_relay",
    ),
    layer(
        "trace.overhead_ratio",
        "ratio",
        Lower,
        "none: untraced over traced throughput of the same run",
    ),
    // Layer table: one thread, in memory.
    layer("proxy.protocol.read_command_ns", "ns", Lower, READS),
    layer("proxy.protocol.write_response_ns", "ns", Lower, READS),
    layer("proxy.protocol.write_request_ns", "ns", Lower, WRITES),
    layer("proxy.protocol.read_response_ns", "ns", Lower, WRITES),
    layer("proxy.store.get_hit_ns", "ns", Lower, READS),
    layer("proxy.store.put_16k_ns", "ns", Lower, WRITES),
    layer("proxy.store.remove_ns", "ns", Lower, WRITES),
    layer(
        "proxy.store.total_bytes_2048_ns",
        "ns",
        Lower,
        "proxy.stats_call_us",
    ),
    layer("proxy.retry.breaker_allow_ns", "ns", Lower, WRITES),
    layer("proxy.ratelimit.acquire_unlimited_ns", "ns", Lower, READS),
    layer(
        "proxy.content.fill_ns_per_byte",
        "ns/byte",
        Lower,
        "setup_s on every proxy workload",
    ),
    layer(
        "proxy.content.verify_ns_per_byte",
        "ns/byte",
        Lower,
        "none in release builds (debug_assert only)",
    ),
    layer("cache.engine.on_access_keyed_hit_ns", "ns", Lower, READS),
    layer("cache.engine.on_access_slot_hit_ns", "ns", Lower, GRID),
    layer("cache.engine.on_access_miss_evict_ns", "ns", Lower, WRITES),
    layer("cache.shard.access_with_1t_ns", "ns", Lower, READS),
    layer("cache.shard.access_with_2t_ns", "ns", Lower, READS),
    layer("cache.heap.insert_pop_ns", "ns", Lower, WRITES),
    layer(
        "netmodel.estimator.ewma_observe_estimate_ns",
        "ns",
        Lower,
        WRITES,
    ),
    layer("workload.generate_paper_ms", "ms", Lower, GRID),
    layer("workload.zipf.sample_ns", "ns", Lower, GRID),
    layer("sim.bandwidth.generate_ms", "ms", Lower, GRID),
    layer("sim.bandwidth.request_bps_ns", "ns", Lower, GRID),
    layer("sim.delivery.deliver_ns", "ns", Lower, GRID),
    layer("sim.metrics.record_ns", "ns", Lower, GRID),
    layer("sim.exec.worker_run_ns_per_req", "ns", Lower, GRID),
    layer(
        "sim.exec.grid_speedup_2t",
        "ratio",
        Higher,
        "none: the workload runs on one thread",
    ),
    layer("sim.event.push_pop_ns", "ns", Lower, SESSIONS),
    layer("sim.event.cancel_ns", "ns", Lower, SESSIONS),
    layer("sim.session.core_sessions_s", "1/s", Higher, SESSIONS),
    layer("sim.session.worker_sessions_s", "1/s", Higher, SESSIONS),
    layer("sim.session.peak_concurrent", "count", Lower, SESSIONS),
    layer("sim.grid.pb_avg_service_delay_s", "s", Lower, COUNT_ONLY),
    layer(
        "sim.grid.pb_traffic_reduction_ratio",
        "ratio",
        Higher,
        COUNT_ONLY,
    ),
    layer(
        "sim.session.rebuffer_probability",
        "ratio",
        Lower,
        COUNT_ONLY,
    ),
    layer("sim.session.origin_bytes_total", "bytes", Lower, COUNT_ONLY),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// How long one driver run measures. With five set-ups and the last
/// simulator pass running over, a run takes about 24 s; the driver's 114
/// runs and two builds then need some 2800 of its 3420 seconds.
pub const RUN_SECONDS: u64 = 20;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .into_iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_respect_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "every name is used once");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit)));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = end_to_end(SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().to_pretty().len() < 64 * 1024);
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest().to_pretty(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }
}
