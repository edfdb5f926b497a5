//! The layer table: each module's hot operation on one thread, in memory.
//!
//! These are the parts a request or a simulated operation is made of. Their
//! sum is far below an end-to-end time — the table says so when printed —
//! which is the point: it shows how much of a ~100 µs proxy request the
//! cache and the protocol are (under 1 µs), and how much of a simulated
//! request each simulator layer is.
//!
//! Every entry reports the median of `repeats` repeats with their minimum
//! and maximum; a repeat runs its operation until `min_time` has passed.

use crate::json::Json;
use crate::stats;
use crate::workloads::{
    experiment_scale, Scale, SMALL_OBJECTS as OBJECTS, SMALL_OBJECT_BYTES as OBJECT_BYTES,
};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_cache::policy::{PolicyKind, UtilityPolicy};
use sc_cache::{CacheEngine, ObjectKey, ObjectMeta, ShardedEngine, UtilityHeap};
use sc_netmodel::{BandwidthEstimator, EwmaEstimator};
use sc_proxy::protocol::{
    read_command, read_response, write_request, write_response, Request, Response,
};
use sc_proxy::{BreakerConfig, CircuitBreaker, PrefixStore, RateLimiter};
use sc_sim::exec::{run_grid, ExecConfig, ParallelExecutor, SharedWorkload};
use sc_sim::experiments::ExperimentScale;
use sc_sim::session::{simulate_sessions, NoCacheHooks, SessionSpec};
use sc_sim::{
    deliver, BandwidthProvider, EventKind, EventQueue, MetricsCollector, SessionWorker, SimWorker,
    SimulationConfig, VariabilityKind,
};
use sc_workload::ZipfLike;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the table may take.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub repeats: usize,
    pub min_time: Duration,
}

impl Budget {
    /// `run --layers`: the numbers the README quotes.
    pub const FULL: Budget = Budget {
        repeats: 5,
        min_time: Duration::from_millis(200),
    };
    /// Inside one traced driver run, next to the workload.
    pub const TRACED_RUN: Budget = Budget {
        repeats: 3,
        min_time: Duration::from_millis(50),
    };
    pub const SMOKE: Budget = Budget {
        repeats: 1,
        min_time: Duration::from_millis(10),
    };
}

/// Which part of the table to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// `sc_proxy`, `sc_cache`, `sc_netmodel`: what a proxy request touches.
    Proxy,
    /// `sc_workload` and the per-request simulator: what `sim_grid` touches.
    Grid,
    /// The event queue and the session core: what `sim_sessions` touches.
    Sessions,
}

/// One row of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStat {
    pub name: &'static str,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl LayerStat {
    pub fn to_json(&self) -> Json {
        let unit = crate::metrics::per_layer(self.name).map_or("", |m| m.unit);
        Json::obj([
            ("value", Json::Num(self.median)),
            ("unit", Json::str(unit)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
        ])
    }
}

/// A batch of operations reports how many it did and how long the timed
/// part took, so a batch can rebuild its state outside the timed part.
type Batch = (u64, Duration);

/// Times `ops` calls of `op`.
fn timed(ops: u64, mut op: impl FnMut(u64)) -> Batch {
    let started = Instant::now();
    for i in 0..ops {
        op(i);
    }
    (ops, started.elapsed())
}

struct Table {
    budget: Budget,
    rows: Vec<LayerStat>,
}

impl Table {
    /// One value per repeat.
    fn sample(&mut self, name: &'static str, mut value: impl FnMut() -> f64) {
        debug_assert!(crate::metrics::per_layer(name).is_some(), "{name}");
        let values: Vec<f64> = (0..self.budget.repeats.max(1)).map(|_| value()).collect();
        let (min, max) = stats::min_max(&values);
        self.rows.push(LayerStat {
            name,
            median: stats::median(&values),
            min,
            max,
        });
    }

    /// Time per operation in `unit_ns` nanoseconds (1 for ns, 1e6 for ms):
    /// each repeat runs batches until `min_time` of timed work is done.
    fn per_op(&mut self, name: &'static str, unit_ns: f64, mut batch: impl FnMut() -> Batch) {
        let min_time = self.budget.min_time;
        self.sample(name, || {
            let (mut ops, mut spent) = (0u64, Duration::ZERO);
            while spent < min_time || ops == 0 {
                let (n, t) = batch();
                ops += n;
                spent += t;
            }
            spent.as_nanos() as f64 / ops as f64 / unit_ns
        });
    }
}

/// Operations per timed batch of the nanosecond-scale entries.
const BATCH: u64 = 4096;

fn metas() -> Vec<ObjectMeta> {
    // 16 KiB at 1 MB/s, like the small objects of the proxy workloads.
    (0..OBJECTS)
        .map(|i| {
            ObjectMeta::new(
                ObjectKey::new(i as u64),
                OBJECT_BYTES as f64 / 1e6,
                1e6,
                0.0,
            )
        })
        .collect()
}

type Policy = Box<dyn UtilityPolicy + Send + Sync>;

fn warm_engine(
    policy: PolicyKind,
    capacity_objects: usize,
    metas: &[ObjectMeta],
) -> CacheEngine<Policy> {
    let mut engine = CacheEngine::new((capacity_objects * OBJECT_BYTES) as f64, policy.build())
        .expect("a finite, positive capacity");
    engine.ensure_slots(metas.len());
    for (slot, meta) in metas.iter().enumerate() {
        engine.on_access_slot(slot as u32, meta, 1e9);
    }
    engine
}

fn proxy_group(t: &mut Table) {
    let request = Request {
        name: "clip-1234".into(),
        offset: 0,
    };
    let ok = Response::Ok {
        size: OBJECT_BYTES as u64,
        bitrate_bps: 1e6,
        degraded: false,
    };
    let mut wire = Vec::with_capacity(64);
    t.per_op("proxy.protocol.read_command_ns", 1.0, || {
        timed(BATCH, |_| {
            let mut input: &[u8] = black_box(b"GET clip-1234 0\n");
            black_box(read_command(&mut input).expect("a well-formed request"));
        })
    });
    t.per_op("proxy.protocol.write_response_ns", 1.0, || {
        timed(BATCH, |_| {
            wire.clear();
            write_response(&mut wire, black_box(&ok)).expect("writing to memory");
            black_box(&wire);
        })
    });
    t.per_op("proxy.protocol.write_request_ns", 1.0, || {
        timed(BATCH, |_| {
            wire.clear();
            write_request(&mut wire, black_box(&request)).expect("writing to memory");
            black_box(&wire);
        })
    });
    t.per_op("proxy.protocol.read_response_ns", 1.0, || {
        timed(BATCH, |_| {
            let mut input: &[u8] = black_box(b"OK 16384 1000000\n");
            black_box(read_response(&mut input).expect("a well-formed header"));
        })
    });

    let names: Vec<String> = (0..OBJECTS).map(|i| format!("clip-{i}")).collect();
    let payload = vec![0xa5u8; OBJECT_BYTES];
    let store = PrefixStore::new();
    for name in &names {
        store.put(name, Bytes::from(payload.clone()));
    }
    t.per_op("proxy.store.get_hit_ns", 1.0, || {
        timed(BATCH, |i| {
            black_box(store.get(&names[i as usize % OBJECTS]));
        })
    });
    // What admission does: copy the bytes in hand into a fresh buffer and
    // replace the entry.
    t.per_op("proxy.store.put_16k_ns", 1.0, || {
        timed(256, |i| {
            store.put(&names[i as usize % OBJECTS], Bytes::from(payload.clone()));
        })
    });
    t.per_op("proxy.store.remove_ns", 1.0, || {
        let batch = timed(OBJECTS as u64, |i| {
            black_box(store.remove(&names[i as usize]));
        });
        for name in &names {
            store.put(name, Bytes::from(payload.clone()));
        }
        batch
    });
    t.per_op("proxy.store.total_bytes_2048_ns", 1.0, || {
        timed(64, |_| {
            black_box(store.total_bytes());
        })
    });
    drop(store);

    let breaker = CircuitBreaker::new(BreakerConfig::default());
    t.per_op("proxy.retry.breaker_allow_ns", 1.0, || {
        timed(BATCH, |_| {
            black_box(breaker.allow());
        })
    });
    let mut unlimited = RateLimiter::new(0.0);
    t.per_op("proxy.ratelimit.acquire_unlimited_ns", 1.0, || {
        timed(BATCH, |_| unlimited.acquire(black_box(OBJECT_BYTES)))
    });
    let mut content = vec![0u8; OBJECT_BYTES];
    t.per_op("proxy.content.fill_ns_per_byte", 1.0, || {
        let (_, spent) = timed(8, |_| {
            sc_proxy::fill_content(black_box("clip-1234"), 0, &mut content);
        });
        (8 * OBJECT_BYTES as u64, spent)
    });
    t.per_op("proxy.content.verify_ns_per_byte", 1.0, || {
        let (_, spent) = timed(8, |_| {
            black_box(sc_proxy::verify_content(
                black_box("clip-1234"),
                0,
                &content,
            ));
        });
        (8 * OBJECT_BYTES as u64, spent)
    });

    let metas = metas();
    let mut all_cached = warm_engine(PolicyKind::IntegralFrequency, 2 * OBJECTS, &metas);
    t.per_op("cache.engine.on_access_keyed_hit_ns", 1.0, || {
        timed(BATCH, |i| {
            black_box(all_cached.on_access(&metas[i as usize % OBJECTS], 1e9));
        })
    });
    t.per_op("cache.engine.on_access_slot_hit_ns", 1.0, || {
        timed(BATCH, |i| {
            let slot = i as usize % OBJECTS;
            black_box(all_cached.on_access_slot(slot as u32, &metas[slot], 1e9));
        })
    });
    // LRU holding an eighth of the objects, visited round-robin: every
    // access misses, is admitted, and evicts the oldest.
    let mut churning = warm_engine(PolicyKind::Lru, OBJECTS / 8, &metas);
    t.per_op("cache.engine.on_access_miss_evict_ns", 1.0, || {
        timed(BATCH, |i| {
            black_box(churning.on_access(&metas[i as usize % OBJECTS], 1e9));
        })
    });

    let sharded: ShardedEngine<Policy> =
        ShardedEngine::new((2 * OBJECTS * OBJECT_BYTES) as f64, 8, || {
            PolicyKind::IntegralFrequency.build()
        })
        .expect("a finite capacity and eight shards");
    for meta in &metas {
        sharded.on_access(meta, 1e9);
    }
    t.per_op("cache.shard.access_with_1t_ns", 1.0, || {
        timed(BATCH, |i| {
            black_box(sharded.access_with(&metas[i as usize % OBJECTS], 1e9, |_, _, out| out));
        })
    });
    // Two threads at once, each on its own half of the keys; the time is
    // what one of them sees per call.
    t.per_op("cache.shard.access_with_2t_ns", 1.0, || {
        let started = Instant::now();
        std::thread::scope(|scope| {
            for lane in 0..2usize {
                let (sharded, metas) = (&sharded, &metas);
                scope.spawn(move || {
                    for i in 0..BATCH as usize {
                        let meta = &metas[(2 * i + lane) % OBJECTS];
                        black_box(sharded.access_with(meta, 1e9, |_, _, out| out));
                    }
                });
            }
        });
        (BATCH, started.elapsed())
    });

    let mut heap = UtilityHeap::with_capacity(OBJECTS);
    for handle in 0..OBJECTS as u32 {
        heap.insert(handle, f64::from(handle));
    }
    let mut next_utility = OBJECTS as f64;
    t.per_op("cache.heap.insert_pop_ns", 1.0, || {
        timed(BATCH, |_| {
            let (handle, _) = heap.pop_min().expect("the heap stays full");
            next_utility += 1.0;
            heap.insert(handle, next_utility);
        })
    });

    let mut ewma = EwmaEstimator::new(0.3);
    t.per_op("netmodel.estimator.ewma_observe_estimate_ns", 1.0, || {
        timed(BATCH, |i| {
            ewma.observe(black_box(1e6 + i as f64));
            black_box(ewma.estimate_bps());
        })
    });
}

fn grid_group(t: &mut Table, scale: Scale) {
    let experiment = experiment_scale(scale, ExperimentScale::Paper);
    let config = SimulationConfig {
        policy: PolicyKind::PartialBandwidth,
        ..experiment.base_config()
    }
    .with_cache_fraction(0.04);
    let objects = config.workload.catalog.objects;

    t.per_op("workload.generate_paper_ms", 1e6, || {
        timed(1, |_| {
            black_box(config.workload.generate().expect("a valid workload"));
        })
    });
    let zipf = ZipfLike::new(objects, config.workload.trace.zipf_alpha).expect("valid Zipf");
    let mut rng = StdRng::seed_from_u64(1);
    t.per_op("workload.zipf.sample_ns", 1.0, || {
        timed(BATCH, |_| {
            black_box(zipf.sample(&mut rng));
        })
    });
    t.per_op("sim.bandwidth.generate_ms", 1e6, || {
        timed(1, |_| {
            black_box(BandwidthProvider::generate(
                objects,
                VariabilityKind::Constant,
                &mut rng,
            ));
        })
    });
    let provider = BandwidthProvider::generate(objects, VariabilityKind::Constant, &mut rng);
    t.per_op("sim.bandwidth.request_bps_ns", 1.0, || {
        timed(BATCH, |i| {
            black_box(provider.request_bps(i as usize % objects, i as f64, &mut rng));
        })
    });
    let meta = ObjectMeta::new(ObjectKey::new(1), 2800.0, 48_000.0, 5.0);
    t.per_op("sim.delivery.deliver_ns", 1.0, || {
        timed(BATCH, |i| {
            black_box(deliver(black_box(&meta), (i * 1000) as f64, 24_000.0));
        })
    });
    let outcome = deliver(&meta, 1e6, 24_000.0);
    let mut collector = MetricsCollector::new();
    t.per_op("sim.metrics.record_ns", 1.0, || {
        timed(BATCH, |_| collector.record(black_box(&outcome)))
    });
    black_box(collector.finish());

    let workload = Arc::new(
        SharedWorkload::generate(&config.workload, config.seed).expect("a valid workload"),
    );
    let requests = config.workload.trace.requests as u64;
    let worker = SimWorker::with_workload(config, config.seed, workload);
    t.per_op("sim.exec.worker_run_ns_per_req", 1.0, || {
        let (_, spent) = timed(1, |_| {
            black_box(worker.run().expect("a valid configuration"));
        });
        (requests, spent)
    });

    // The second core is not always there on a shared box: read this one
    // with its minimum and maximum.
    let quick = experiment_scale(scale, ExperimentScale::Quick);
    let configs: Vec<SimulationConfig> = quick
        .cache_fractions()
        .into_iter()
        .map(|f| quick.base_config().with_cache_fraction(f))
        .collect();
    let time_grid = |executor: &ParallelExecutor| {
        let started = Instant::now();
        black_box(run_grid(&configs, 2, executor).expect("a valid grid"));
        started.elapsed().as_secs_f64()
    };
    let two_threads = ParallelExecutor::new(ExecConfig::with_threads(2));
    t.sample("sim.exec.grid_speedup_2t", || {
        time_grid(&ParallelExecutor::sequential()) / time_grid(&two_threads)
    });
}

/// Live events in the queue while it is measured.
const LIVE_EVENTS: usize = 4096;

fn full_queue() -> (EventQueue, Vec<u64>) {
    let mut queue = EventQueue::new();
    let seqs = (0..LIVE_EVENTS)
        .map(|i| {
            // Scattered times, so pushes and pops sift through the heap.
            let time = ((i * 7919) % LIVE_EVENTS) as f64;
            queue.push(time, EventKind::Arrival(i as u32))
        })
        .collect();
    (queue, seqs)
}

/// The session specs of a `SessionWorker` run, built the way the worker
/// builds them.
fn session_specs(workload: &SharedWorkload) -> Vec<SessionSpec> {
    workload
        .trace
        .session_arrivals(&workload.catalog)
        .into_iter()
        .map(|s| SessionSpec {
            path: s.object.as_u32(),
            arrival_secs: s.time_secs,
            duration_secs: s.duration_secs,
            rate_bps: s.bitrate_bps,
            size_bytes: s.size_bytes,
        })
        .collect()
}

fn sessions_group(t: &mut Table, scale: Scale) {
    let (mut queue, _) = full_queue();
    let mut clock = LIVE_EVENTS as f64;
    t.per_op("sim.event.push_pop_ns", 1.0, || {
        timed(BATCH, |i| {
            let event = queue.pop().expect("the queue stays full");
            clock += 1.0;
            black_box(event);
            queue.push(
                clock + (i % 64) as f64,
                EventKind::TransferComplete(i as u32),
            );
        })
    });
    t.per_op("sim.event.cancel_ns", 1.0, || {
        let (mut queue, seqs) = full_queue();
        timed(LIVE_EVENTS as u64, |i| {
            black_box(queue.cancel(seqs[i as usize]));
        })
    });

    // One trace of the `sim_sessions` workload.
    let config = crate::workloads::session_config(1, scale);
    let workload = Arc::new(
        SharedWorkload::generate(&config.workload, config.seed).expect("a valid workload"),
    );
    let specs = session_specs(&workload);
    let paths = workload.catalog.len();
    let rate = config.workload.catalog.bitrate_bps;
    let bins = config.session_egress_bins;
    let worker = SessionWorker::with_workload(config, config.seed, Arc::clone(&workload));
    // The contention core alone: no cache, every path exactly as fast as
    // one stream, so overlapping sessions on a path always contend.
    t.sample("sim.session.core_sessions_s", || {
        let started = Instant::now();
        let out = simulate_sessions(&specs, paths, |_, _| rate, &mut NoCacheHooks, bins);
        let secs = started.elapsed().as_secs_f64();
        black_box(&out);
        specs.len() as f64 / secs
    });
    t.sample("sim.session.worker_sessions_s", || {
        let started = Instant::now();
        black_box(worker.run().expect("a valid configuration"));
        specs.len() as f64 / started.elapsed().as_secs_f64()
    });
    let peak = worker
        .run()
        .expect("a valid configuration")
        .metrics
        .peak_concurrent_viewers as f64;
    t.rows.push(LayerStat {
        name: "sim.session.peak_concurrent",
        median: peak,
        min: peak,
        max: peak,
    });
}

/// Runs the requested groups of the table.
pub fn run(groups: &[Group], budget: Budget, scale: Scale) -> Vec<LayerStat> {
    let mut table = Table {
        budget,
        rows: Vec::new(),
    };
    for group in groups {
        match group {
            Group::Proxy => proxy_group(&mut table),
            Group::Grid => grid_group(&mut table, scale),
            Group::Sessions => sessions_group(&mut table, scale),
        }
    }
    table.rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_group_fills_its_rows_with_positive_numbers() {
        let tiny = Budget {
            repeats: 1,
            min_time: Duration::from_millis(1),
        };
        let rows = run(
            &[Group::Proxy, Group::Grid, Group::Sessions],
            tiny,
            Scale::Smoke,
        );
        for row in &rows {
            assert!(
                crate::metrics::per_layer(row.name).is_some(),
                "{}",
                row.name
            );
            assert!(
                row.median > 0.0 && row.min <= row.median && row.median <= row.max,
                "{row:?}"
            );
        }
        let mut names: Vec<_> = rows.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rows.len());
        // Everything the manifest lists under these three prefixes except
        // the counts taken from a workload's own run.
        let from_workloads = |n: &str| {
            n.starts_with("proxy.pool.")
                || n.starts_with("proxy.relay.")
                || n == "proxy.store.byte_hit_ratio"
                || n == "proxy.store.cached_objects"
                || n == "proxy.retry.origin_retries"
                || n == "proxy.retry.breaker_transitions"
                || n == "proxy.stats_call_us"
                || n.starts_with("sim.grid.")
                || n == "sim.session.rebuffer_probability"
                || n == "sim.session.origin_bytes_total"
        };
        for metric in crate::metrics::PER_LAYER {
            let in_table = ["proxy.", "cache.", "netmodel.", "workload.", "sim."]
                .iter()
                .any(|p| metric.name.starts_with(p))
                && !from_workloads(metric.name);
            assert_eq!(names.contains(&metric.name), in_table, "{}", metric.name);
        }
    }
}
