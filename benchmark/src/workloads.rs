//! The five workloads: what each one is, and how its environment is set up
//! through the program's public API.
//!
//! The names are final — later issues refer to them. `benchmark/README.md`
//! gives the reasoning for each one at length; the `why` strings here are
//! the one-line form that `BENCHMARK.json` carries.

use crate::load::{self, ClientState, LoadPlan};
use crate::origin_stub::{OriginStub, Payloads};
use sc_cache::policy::PolicyKind;
use sc_proxy::{CachingProxy, ProxyConfig};
use sc_sim::exec::{run_grid, ParallelExecutor, SharedWorkload};
use sc_sim::experiments::ExperimentScale;
use sc_sim::{Metrics, SessionRunResult, SessionWorker, SimulationConfig};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmHit,
    MissChurn,
    LargeRelay,
    SimGrid,
    SimSessions,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Real sockets: clients → `CachingProxy` → origin stub.
    Proxy,
    /// No sockets: calls into `sc_sim`.
    Sim,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WarmHit,
        Workload::MissChurn,
        Workload::LargeRelay,
        Workload::SimGrid,
        Workload::SimSessions,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHit => "warm_hit",
            Workload::MissChurn => "miss_churn",
            Workload::LargeRelay => "large_relay",
            Workload::SimGrid => "sim_grid",
            Workload::SimSessions => "sim_sessions",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn kind(self) -> Kind {
        match self {
            Workload::WarmHit | Workload::MissChurn | Workload::LargeRelay => Kind::Proxy,
            Workload::SimGrid | Workload::SimSessions => Kind::Sim,
        }
    }

    /// Why the workload exists, in one line (at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WarmHit => {
                "proxy, 2048 x 16 KiB objects all cached: the smallest message, so per-request overhead (connection, parse, lookup, engine access) is all the work and the origin stays idle"
            }
            Workload::MissChurn => {
                "proxy, LRU holding 1/8 of the same objects: exercises the write side (origin open, relay, admit, evict) that warm_hit only reads, so a read-path gain that taxes admission shows"
            }
            Workload::LargeRelay => {
                "proxy, 8 x 8 MiB objects PB declines to cache: the largest message, bytes/s through the relay ring; per-request overhead is under 1 %, so connection-lifecycle work is bypassed"
            }
            Workload::SimGrid => {
                "simulator, run_grid over 4 policies x 6 paper cache sizes x 3 seeds at paper scale, one thread: engine slot path, bandwidth draws and metrics do the work; the event queue does none"
            }
            Workload::SimSessions => {
                "simulator, PB session-mode runs, 4 traces of 8k sessions: the event queue and processor-sharing re-division dominate and the cache engine is noise; the session core's only number"
            }
        }
    }
}

/// How much work a run does. `Smoke` keeps every code path and shrinks the
/// simulator inputs so the whole suite finishes in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// Closed-loop clients: one connection in flight each. More clients than
/// cores would measure the scheduler; the accept queue therefore never
/// holds more than this many connections, and nothing measured here says
/// anything about queueing.
pub fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

pub const SMALL_OBJECTS: usize = 2048;
pub const SMALL_OBJECT_BYTES: usize = 16 * 1024;
/// `miss_churn`'s cache holds this many of the small objects.
const CHURN_CACHED_OBJECTS: usize = SMALL_OBJECTS / 8;
const LARGE_OBJECTS: usize = 8;
const LARGE_OBJECT_BYTES: usize = 8 * 1024 * 1024;
/// Encoding rate of the small objects, bytes per second.
const SMALL_BITRATE_BPS: f64 = 1e6;
/// Encoding rate of the large objects: far below any loopback bandwidth
/// estimate and below `ProxyConfig`'s assumed bandwidth before the first
/// transfer, so PB's target for them is zero from the first request on.
const LARGE_BITRATE_BPS: f64 = 8_000.0;

/// What a reference block — the clients fetching the workload's objects
/// straight from the origin stub — reads on the box the baseline was taken
/// on while that box is quiet: `(operations per second, p50 µs, p90 µs)`
/// with two clients. A run measures the same block next to every window
/// and scales the window by how far the box is from these values, so they
/// only fix the scale of the reported numbers.
pub fn reference_nominal(workload: Workload) -> (f64, f64, f64) {
    match workload {
        Workload::LargeRelay => (476.0, 3_900.0, 4_960.0),
        _ => (18_700.0, 84.0, 160.0),
    }
}

/// What an operation of [`crate::reference::CpuReference`] takes on the same
/// quiet box, in nanoseconds. The simulator workloads scale every pass by
/// how far a block next to it was from this value.
pub const CPU_REFERENCE_NOMINAL_NS: f64 = 104.0;

/// Byte-compare every n-th response; every response is length-checked.
pub fn compare_every(workload: Workload) -> u64 {
    match workload {
        // ~1 µs of memcmp on a ~100 µs request.
        Workload::WarmHit | Workload::MissChurn => 1,
        // ~1 ms of memcmp on a ~10 ms request would move the number.
        Workload::LargeRelay => 16,
        Workload::SimGrid | Workload::SimSessions => 1,
    }
}

/// A proxy workload's environment: payload table, origin stub, proxy, and
/// the clients' state, warmed to the workload's steady state.
/// Dropping it shuts the proxy and the stub down and joins their threads.
#[derive(Debug)]
pub struct ProxyEnv {
    pub payloads: Arc<Payloads>,
    // Field order is drop order: the proxy goes first, while the origin it
    // may still be reading from is alive.
    pub proxy: CachingProxy,
    pub origin: OriginStub,
    pub client_states: Vec<ClientState>,
    pub clients: usize,
}

/// Name prefix, count, size and encoding rate of a proxy workload's objects.
fn payload_shape(workload: Workload) -> (&'static str, usize, usize, f64) {
    match workload {
        Workload::WarmHit | Workload::MissChurn => {
            ("clip", SMALL_OBJECTS, SMALL_OBJECT_BYTES, SMALL_BITRATE_BPS)
        }
        Workload::LargeRelay => ("film", LARGE_OBJECTS, LARGE_OBJECT_BYTES, LARGE_BITRATE_BPS),
        Workload::SimGrid | Workload::SimSessions => {
            unreachable!("simulator workloads have no payloads")
        }
    }
}

/// Generates the payload table of a proxy workload.
pub fn generate_payloads(workload: Workload) -> Payloads {
    let (prefix, count, object_bytes, bitrate_bps) = payload_shape(workload);
    Payloads::generate(prefix, count, object_bytes, bitrate_bps)
}

/// The first two objects of the workload's table: all the origin stub's
/// self-test asks for.
pub fn self_test_payloads(workload: Workload) -> Payloads {
    let (prefix, _, object_bytes, bitrate_bps) = payload_shape(workload);
    Payloads::generate(prefix, 2, object_bytes, bitrate_bps)
}

/// Sets up a proxy workload: payloads, stub, proxy (defaults of
/// `ProxyConfig::new` except policy and capacity, so a later change of a
/// default is measured and not bypassed), then the warm-up that brings the
/// cache to the state the workload measures.
pub fn setup_proxy(workload: Workload, seed: u64) -> Result<ProxyEnv, String> {
    let clients = client_count();
    let payloads = Arc::new(generate_payloads(workload));
    let origin = OriginStub::start(Arc::clone(&payloads), clients + 1)
        .map_err(|e| format!("origin stub: {e}"))?;
    let (policy, capacity_bytes) = match workload {
        Workload::WarmHit => (PolicyKind::IntegralFrequency, 1e12),
        Workload::MissChurn => (
            PolicyKind::Lru,
            (CHURN_CACHED_OBJECTS * SMALL_OBJECT_BYTES) as f64,
        ),
        _ => (PolicyKind::PartialBandwidth, 1e12),
    };
    let mut config = ProxyConfig::new(origin.addr(), capacity_bytes);
    config.policy = policy;
    let proxy = CachingProxy::start(config).map_err(|e| format!("proxy: {e}"))?;
    let mut env = ProxyEnv {
        client_states: (0..clients)
            .map(|c| ClientState::new(seed, c as u64, payloads.object_bytes()))
            .collect(),
        payloads,
        proxy,
        origin,
        clients,
    };
    match workload {
        Workload::MissChurn => {
            // Twice the cache's worth of uniform picks fills it and starts
            // the churn; the pick streams carry on into the measurement.
            let warm = load::run(
                &LoadPlan {
                    addr: env.proxy.addr(),
                    clients,
                    duration: Duration::from_secs(60),
                    max_ops_per_client: (2 * CHURN_CACHED_OBJECTS / clients) as u64,
                    compare_every: 1,
                    traced: false,
                },
                &env.payloads,
                &mut env.client_states,
            );
            if warm.failed > 0 {
                return Err(format!("warm-up failed: {:?}", warm.failures));
            }
        }
        _ => fetch_every_object(&mut env)?,
    }
    let stats = env.proxy.stats();
    let total_bytes = (env.payloads.len() * env.payloads.object_bytes()) as u64;
    let warmed = match workload {
        Workload::WarmHit => {
            stats.cached_objects == env.payloads.len() && stats.cached_bytes == total_bytes
        }
        // The store may briefly hold a few objects more than the engine
        // granted (the proxy documents that drift), so only the order of
        // magnitude is held to account.
        Workload::MissChurn => {
            stats.cached_objects >= CHURN_CACHED_OBJECTS / 2
                && stats.cached_objects <= 2 * CHURN_CACHED_OBJECTS
        }
        _ => stats.cached_objects == 0 && stats.cached_bytes == 0,
    };
    if !warmed {
        return Err(format!(
            "{} is not in its steady state after warm-up: {} objects, {} bytes cached",
            workload.name(),
            stats.cached_objects,
            stats.cached_bytes
        ));
    }
    Ok(env)
}

/// Every object once, each client its own, every byte compared.
fn fetch_every_object(env: &mut ProxyEnv) -> Result<(), String> {
    let addr = env.proxy.addr();
    let (payloads, clients) = (&env.payloads, env.clients);
    std::thread::scope(|scope| {
        let handles: Vec<_> = env
            .client_states
            .iter_mut()
            .enumerate()
            .map(|(c, state)| {
                scope.spawn(move || {
                    for object in (c..payloads.len()).step_by(clients) {
                        let (name, bytes) = (payloads.name(object), payloads.bytes(object));
                        load::fetch(addr, name, bytes, true, state.buf())
                            .map_err(|e| format!("warm-up fetch of {name}: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("a warm-up thread panicked"))
    })
}

/// Seeds of the simulated workloads: derived from `--seed` so two runs with
/// the same seed simulate the same traces.
fn sim_seed(seed: u64) -> u64 {
    // Keeps `seed + run index` arithmetic inside run_grid far from wrapping.
    seed % (1 << 32)
}

/// The `sim_grid` environment: the grid of configurations and the result of
/// the first pass, which every later pass must reproduce bit for bit.
#[derive(Debug)]
pub struct GridEnv {
    pub configs: Vec<SimulationConfig>,
    pub runs: usize,
    pub reference: Vec<Metrics>,
    /// Simulated requests per pass.
    pub ops_per_pass: u64,
}

pub const GRID_POLICIES: [PolicyKind; 4] = [
    PolicyKind::PartialBandwidth,
    PolicyKind::IntegralBandwidth,
    PolicyKind::IntegralFrequency,
    PolicyKind::Lru,
];

pub fn experiment_scale(scale: Scale, full: ExperimentScale) -> ExperimentScale {
    match scale {
        Scale::Full => full,
        Scale::Smoke => ExperimentScale::Test,
    }
}

pub fn grid_configs(seed: u64, scale: Scale) -> (Vec<SimulationConfig>, usize) {
    let experiment = experiment_scale(scale, ExperimentScale::Paper);
    let base = SimulationConfig {
        seed: sim_seed(seed),
        ..experiment.base_config()
    };
    let configs = GRID_POLICIES
        .iter()
        .flat_map(|&policy| {
            experiment
                .cache_fractions()
                .into_iter()
                .map(move |fraction| {
                    SimulationConfig { policy, ..base }.with_cache_fraction(fraction)
                })
        })
        .collect();
    (configs, experiment.runs())
}

pub fn grid_pass(env_configs: &[SimulationConfig], runs: usize) -> Result<Vec<Metrics>, String> {
    run_grid(env_configs, runs, &ParallelExecutor::sequential()).map_err(|e| e.to_string())
}

pub fn setup_grid(seed: u64, scale: Scale) -> Result<GridEnv, String> {
    let (configs, runs) = grid_configs(seed, scale);
    let reference = grid_pass(&configs, runs)?;
    let ops_per_pass = configs
        .iter()
        .map(|c| c.workload.trace.requests as u64 * runs as u64)
        .sum();
    Ok(GridEnv {
        configs,
        runs,
        reference,
        ops_per_pass,
    })
}

/// The `sim_sessions` environment: PB session-mode workers over
/// pre-generated workloads, and the results of their first runs.
#[derive(Debug)]
pub struct SessionEnv {
    pub workers: Vec<SessionWorker>,
    pub reference: Vec<SessionRunResult>,
    /// Sessions per pass (all workers together).
    pub ops_per_pass: u64,
}

/// The cache fraction of the `sim_sessions` runs: the middle of the quick
/// sweep, where PB holds a prefix of many objects.
const SESSION_CACHE_FRACTION: f64 = 0.05;

/// One pass runs this many traces, on consecutive seeds. Sessions pile up on
/// the paths of the most popular objects, so what a session costs grows with
/// the length of its trace (7 µs at 4 000 sessions, 18 µs at 8 000, 90 µs at
/// the quick scale's 20 000) and depends on how long those few objects
/// happen to be: one 20 000-session trace moves by ±20 % with the seed and
/// allows ten passes in a run, eight 4 000-session traces hardly pile up at
/// all. Four traces of 8 000 keep the re-division the larger part of a pass
/// and move by ±7 % with the seed.
const SESSION_TRACES: u64 = 4;

/// The session-mode configuration of one trace: the quick scale's catalog
/// and two fifths of its 20 000 sessions.
pub fn session_config(seed: u64, scale: Scale) -> SimulationConfig {
    let experiment = experiment_scale(scale, ExperimentScale::Quick);
    let mut config = SimulationConfig {
        policy: PolicyKind::PartialBandwidth,
        seed: sim_seed(seed),
        ..experiment.base_config()
    }
    .with_cache_fraction(SESSION_CACHE_FRACTION);
    config.workload.trace.requests = config.workload.trace.requests * 2 / 5;
    config
}

pub fn sessions_pass(workers: &[SessionWorker]) -> Result<Vec<SessionRunResult>, String> {
    workers
        .iter()
        .map(|worker| worker.run().map_err(|e| e.to_string()))
        .collect()
}

pub fn setup_sessions(seed: u64, scale: Scale) -> Result<SessionEnv, String> {
    let config = session_config(seed, scale);
    let workers = (0..SESSION_TRACES)
        .map(|i| {
            let seed = config.seed + i;
            let workload =
                SharedWorkload::generate(&config.workload, seed).map_err(|e| e.to_string())?;
            Ok(SessionWorker::with_workload(
                config,
                seed,
                Arc::new(workload),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let reference = sessions_pass(&workers)?;
    Ok(SessionEnv {
        ops_per_pass: reference.iter().map(|r| r.metrics.sessions).sum(),
        workers,
        reference,
    })
}

/// A value's `Debug` form: `f64` prints as its shortest round-trip decimal,
/// so two values print alike exactly when they are bit-identical (signed
/// zeros included).
pub fn fingerprint<T: std::fmt::Debug>(value: &T) -> String {
    format!("{value:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_whys_fit_the_manifest() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "{}: {} chars",
                w.name(),
                w.why().len()
            );
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("warm"), None);
    }

    #[test]
    fn grid_covers_policies_times_fractions_and_seed_moves_it() {
        let (configs, runs) = grid_configs(3, Scale::Smoke);
        assert_eq!(configs.len(), GRID_POLICIES.len() * 2);
        assert_eq!(runs, 1);
        assert!(configs.iter().all(|c| c.seed == 3));
        let (full, full_runs) = grid_configs(3, Scale::Full);
        assert_eq!((full.len(), full_runs), (24, 3));
    }

    #[test]
    fn smoke_simulations_repeat_bit_for_bit() {
        let grid = setup_grid(11, Scale::Smoke).unwrap();
        let again = grid_pass(&grid.configs, grid.runs).unwrap();
        assert_eq!(fingerprint(&again), fingerprint(&grid.reference));
        assert_eq!(grid.ops_per_pass, 8 * 4000);
        let other = setup_grid(12, Scale::Smoke).unwrap();
        assert_ne!(fingerprint(&other.reference), fingerprint(&grid.reference));

        let sessions = setup_sessions(11, Scale::Smoke).unwrap();
        let rerun = sessions_pass(&sessions.workers).unwrap();
        assert_eq!(fingerprint(&rerun), fingerprint(&sessions.reference));
        assert_eq!(sessions.ops_per_pass, SESSION_TRACES * 1600);
    }
}
