//! The parallel execution layer.
//!
//! Everything in the simulator that runs more than once — replicated runs,
//! paired comparisons, [`crate::sweep::sweep_policies`] and every figure —
//! is a grid of fully independent `(configuration, seed)` simulations. This
//! module turns that grid into shardable work:
//!
//! * [`SimWorker`] is the reusable, `Send`-safe body of one simulation run.
//!   It optionally borrows an [`Arc`]-shared [`SharedWorkload`], so one
//!   workload generation per seed is shared by every configuration that
//!   uses the same workload parameters (paired policy comparisons).
//! * [`ParallelExecutor`] shards work items across `std::thread::scope`
//!   threads and returns results **in item order**, so the parallel output is
//!   byte-identical to a sequential run: each item is seeded independently
//!   and touches no shared mutable state, which makes the schedule
//!   irrelevant to the result. Results come back through the threads' join
//!   handles, and so does an item's panic.
//! * [`run_grid`] flattens a `configs × runs` grid into one work list,
//!   ordered seed-major: the runs that share a workload are adjacent, the
//!   first of them generates it and the last lets it go, so a thread holds
//!   one workload at a time. It runs everything through an executor, puts
//!   the results back in grid order and averages per-configuration metrics
//!   in deterministic seed order. The session mode runs the same grid with
//!   its own per-run closure.
//!
//! The thread count comes from [`ExecConfig`]: explicitly, from the
//! `SC_SIM_THREADS` environment variable, or (by default) from
//! [`std::thread::available_parallelism`].

use crate::bandwidth::BandwidthProvider;
use crate::config::{SimError, SimulationConfig};
use crate::delivery::deliver;
use crate::metrics::{Metrics, MetricsCollector};
use crate::runner::RunResult;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_cache::policy::PolicyKind;
use sc_cache::{AccessOutcome, CacheEngine, ObjectKey, ObjectMeta};
use sc_netmodel::EstimatorBank;
use sc_workload::{Catalog, MediaObject, RequestTrace, WorkloadConfig};
use std::sync::{Arc, Mutex, PoisonError};

/// Environment variable controlling the default number of worker threads.
pub const THREADS_ENV_VAR: &str = "SC_SIM_THREADS";

/// Derives the bandwidth-stream seed from a run seed.
///
/// Bandwidth state (path means, AR(1) series, per-request draws) must be
/// decoupled from workload generation so that changing workload parameters
/// never perturbs the bandwidth realisation of a given run seed. Both the
/// per-request mode ([`SimWorker`]) and the session mode
/// ([`crate::session::SessionWorker`]) start from the one run set-up that
/// seeds its bandwidth RNG here, so the two modes see the same path
/// capacities for the same seed.
pub fn bandwidth_seed(run_seed: u64) -> u64 {
    run_seed ^ 0x9e37_79b9_7f4a_7c15
}

/// Derives the path-outage-timeline seed from a run seed.
///
/// Fault injection draws its exponential up/down periods from a stream
/// that is decoupled from both workload generation (the run seed itself)
/// and the bandwidth realisation ([`bandwidth_seed`]), so enabling or
/// re-parameterising the fault model never perturbs which requests arrive
/// or what the healthy path capacities are — only when outages strike.
pub fn fault_seed(run_seed: u64) -> u64 {
    run_seed ^ 0xc2b2_ae3d_27d4_eb4f
}

/// Configuration of the execution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of worker threads; `1` means fully sequential execution.
    pub threads: usize,
}

impl ExecConfig {
    /// Sequential execution (one thread, no spawning).
    pub fn sequential() -> Self {
        ExecConfig { threads: 1 }
    }

    /// An explicit thread count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads: threads.max(1),
        }
    }

    /// Reads `SC_SIM_THREADS`; a missing, unparsable or zero value falls
    /// back to [`std::thread::available_parallelism`].
    pub fn from_env() -> Self {
        Self::from_env_value(std::env::var(THREADS_ENV_VAR).ok().as_deref())
    }

    /// The parsing behind [`from_env`](Self::from_env), taking the raw
    /// variable value so it is testable without mutating the process
    /// environment (which is not thread-safe).
    fn from_env_value(value: Option<&str>) -> Self {
        let threads = value
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        ExecConfig { threads }
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// A workload generated once and shared (via [`Arc`]) by every run that
/// needs the identical catalog and request stream.
///
/// The catalog is the one per-object table: a run builds an object's
/// cache-side [`ObjectMeta`] from its catalog entry where it needs it (four
/// field copies), so paired policy comparisons sharing a workload share
/// nothing but the catalog and the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedWorkload {
    /// The object catalog.
    pub catalog: Catalog,
    /// The request trace.
    pub trace: RequestTrace,
}

impl SharedWorkload {
    /// Bundles a catalog and trace.
    pub fn new(catalog: Catalog, trace: RequestTrace) -> Self {
        SharedWorkload { catalog, trace }
    }

    /// Generates the workload described by `config` under `seed`
    /// (overriding the configuration's own seed, as replicated runs do).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Workload`] if the configuration is invalid.
    pub fn generate(config: &WorkloadConfig, seed: u64) -> Result<Self, SimError> {
        let mut wl_config = *config;
        wl_config.seed = seed;
        let workload = wl_config
            .generate()
            .map_err(|e| SimError::Workload(e.to_string()))?;
        Ok(Self::new(workload.catalog, workload.trace))
    }
}

/// Converts a workload [`MediaObject`] into the cache's [`ObjectMeta`],
/// keyed by its dense catalog index (== its cache slot handle).
pub(crate) fn to_meta(obj: &MediaObject) -> ObjectMeta {
    ObjectMeta::new(
        ObjectKey::new(obj.id.index() as u64),
        obj.duration_secs,
        obj.bitrate_bps,
        obj.value,
    )
}

/// What a run of either mode starts from: the workload, the path state
/// drawn from the bandwidth RNG, the estimators, and a cache whose slab is
/// addressed by catalog index. Both modes decide through its
/// [`step`](Self::step).
///
/// Fields drop in declaration order, so the cache goes first and the
/// workload last. Without a second per-object table the reverse order
/// peaks alike: `sim_sessions` 6.18 MB either way.
pub(crate) struct RunSetup {
    cache: CacheEngine<PolicyKind>,
    estimators: EstimatorBank,
    pub(crate) provider: BandwidthProvider,
    pub(crate) workload: Arc<SharedWorkload>,
}

impl RunSetup {
    /// Validates `config` and builds the set-up for `seed` over `workload`,
    /// generating it from `config.workload` when none is given. `horizon`
    /// is how far into a workload the mode reads path capacity:
    /// [`last_arrival_secs`] for the per-request mode, the last playback
    /// end for the session mode.
    ///
    /// Also returns the bandwidth RNG, seeded from [`bandwidth_seed`] and
    /// already advanced past the provider's draws: the per-request mode
    /// goes on drawing from it.
    pub(crate) fn new(
        config: &SimulationConfig,
        seed: u64,
        workload: Option<&Arc<SharedWorkload>>,
        horizon: fn(&SharedWorkload) -> f64,
    ) -> Result<(Self, StdRng), SimError> {
        config.validate()?;
        let workload = match workload {
            Some(shared) => Arc::clone(shared),
            None => Arc::new(SharedWorkload::generate(&config.workload, seed)?),
        };
        let objects = workload.catalog.len();
        // Bandwidth state and the per-request variability stream use a seed
        // derived from the run seed but decoupled from workload generation.
        // In AR(1) mode the per-path series span the mode's horizon; in
        // i.i.d. mode the horizon is irrelevant and the rng stream is
        // identical to the seed behaviour.
        let mut bw_rng = StdRng::seed_from_u64(bandwidth_seed(seed));
        let provider = BandwidthProvider::generate_with_model(
            objects,
            config.variability,
            config.bandwidth_model,
            horizon(&workload),
            &mut bw_rng,
        );
        let mut cache = CacheEngine::new(config.cache_size_bytes, config.policy)
            .map_err(|e| SimError::Workload(e.to_string()))?;
        // Catalog ids are dense, so the engine's slab is slot-addressed by
        // catalog index: the request path performs no hashing, and no key
        // is interned.
        cache.ensure_slots(objects);
        let setup = RunSetup {
            cache,
            estimators: EstimatorBank::new(config.estimator, objects),
            provider,
            workload,
        };
        Ok((setup, bw_rng))
    }

    /// The run's decision step, over this set-up's parts.
    pub(crate) fn step(&mut self) -> DecisionStep<'_> {
        DecisionStep {
            cache: &mut self.cache,
            estimators: &mut self.estimators,
            provider: &self.provider,
            workload: &self.workload,
        }
    }
}

/// The estimate → access → learn step both modes decide through, over a
/// run's cache, estimators, paths and workload: a request for an object is
/// decided on the estimator's view of its path, and a completed transfer
/// teaches the estimator. What differs
/// between the modes stays with them: where the current rate comes from (a
/// bandwidth draw, or the fair share at arrival) and when a transfer has
/// completed.
pub(crate) struct DecisionStep<'a> {
    pub(crate) cache: &'a mut CacheEngine<PolicyKind>,
    estimators: &'a mut EstimatorBank,
    pub(crate) provider: &'a BandwidthProvider,
    pub(crate) workload: &'a SharedWorkload,
}

impl DecisionStep<'_> {
    /// One engine access for `meta`, the object at catalog index `index`
    /// (see [`to_meta`]), on the estimate the request starts with: the
    /// bank's, with the path mean as the fallback and `current_bps` as what
    /// a probe reads.
    // Always inlined: left to the optimiser, it stays one call per request
    // in the per-request loop that `sim_grid` times.
    #[inline(always)]
    pub(crate) fn access(
        &mut self,
        index: usize,
        meta: &ObjectMeta,
        current_bps: f64,
    ) -> AccessOutcome {
        let mean = self.provider.estimated_bps(index);
        let estimated = self.estimators.decision_bps(index, mean, Some(current_bps));
        self.cache.on_access_slot(index as u32, meta, estimated)
    }

    /// Teaches the estimator of object `index`'s path the throughput of a
    /// transfer that moved origin bytes.
    #[inline]
    pub(crate) fn learn(&mut self, index: usize, throughput_bps: f64) {
        self.estimators.observe_transfer(index, throughput_bps);
    }
}

/// How far the per-request mode reads path capacity: the last request's
/// arrival.
pub(crate) fn last_arrival_secs(workload: &SharedWorkload) -> f64 {
    workload.trace.times().last().copied().unwrap_or(0.0)
}

/// Fraction of a per-request trace that warms the cache before metrics are
/// collected: the paper's first half. Session-mode metrics are time-weighted
/// over the whole trace and have no warm-up.
const WARMUP_FRACTION: f64 = 0.5;

/// The self-contained body of one simulation run: a configuration, a run
/// seed, and optionally a pre-generated shared workload.
///
/// A worker owns everything it needs (the workload only behind an [`Arc`]),
/// so it is `Send` and can execute on any thread; given the same inputs it
/// produces bit-identical results regardless of where or when it runs.
#[derive(Debug, Clone)]
pub struct SimWorker {
    config: SimulationConfig,
    seed: u64,
    workload: Option<Arc<SharedWorkload>>,
}

impl SimWorker {
    /// A worker that generates its own workload from `config.workload`
    /// (with the seed overridden by `seed`).
    pub fn new(config: SimulationConfig, seed: u64) -> Self {
        SimWorker {
            config,
            seed,
            workload: None,
        }
    }

    /// A worker running over a pre-generated workload. The caller is
    /// responsible for the workload matching `seed` (as [`run_grid`] does);
    /// the bandwidth stream is still derived from `seed` alone.
    pub fn with_workload(
        config: SimulationConfig,
        seed: u64,
        workload: Arc<SharedWorkload>,
    ) -> Self {
        SimWorker {
            config,
            seed,
            workload: Some(workload),
        }
    }

    /// Executes the simulation run.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the configuration is invalid.
    pub fn run(&self) -> Result<RunResult, SimError> {
        let (mut setup, mut bw_rng) = RunSetup::new(
            &self.config,
            self.seed,
            self.workload.as_ref(),
            last_arrival_secs,
        )?;
        let mut step = setup.step();
        let (workload, provider) = (step.workload, step.provider);
        let (catalog, trace) = (&workload.catalog, &workload.trace);

        let warmup_len = ((trace.len() as f64) * WARMUP_FRACTION).round() as usize;
        let mut collector = MetricsCollector::new();

        for (i, request) in trace.iter().enumerate() {
            let index = request.object.index();
            // The request's metadata, built once from its catalog entry for
            // both the engine and the delivery.
            let meta = to_meta(catalog.object(request.object));
            // The caching algorithm sees the configured estimator's view of
            // the path; the actual transfer experiences the instantaneous
            // bandwidth at the request's arrival time.
            let instantaneous = provider.request_bps(index, request.time_secs, &mut bw_rng);
            let outcome = step.access(index, &meta, instantaneous);

            if i >= warmup_len {
                let delivery = deliver(&meta, outcome.cached_bytes_before, instantaneous);
                collector.record(&delivery);
            }

            // Passive estimators learn from transfers that actually touched
            // the origin; a full cache hit reveals nothing about the path.
            if outcome.bytes_from_origin > 0.0 {
                step.learn(index, instantaneous);
            }
        }

        Ok(RunResult {
            metrics: collector.finish(),
            warmup_requests: warmup_len as u64,
            final_cache_used_bytes: step.cache.used_bytes(),
            final_cached_objects: step.cache.len(),
        })
    }
}

/// Shards independent work items across a scoped thread pool.
///
/// Results are always returned in item order, and each item is processed by
/// exactly one thread with no shared mutable state, so the output is
/// independent of the thread count and of scheduling — the determinism
/// guarantee the golden-metrics tests rely on.
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    threads: usize,
}

impl ParallelExecutor {
    /// An executor with the given configuration.
    pub fn new(config: ExecConfig) -> Self {
        ParallelExecutor {
            threads: config.threads.max(1),
        }
    }

    /// An executor configured from the environment ([`ExecConfig::from_env`]).
    pub fn from_env() -> Self {
        Self::new(ExecConfig::from_env())
    }

    /// A strictly sequential executor (runs items inline, spawns nothing).
    pub fn sequential() -> Self {
        Self::new(ExecConfig::sequential())
    }

    /// The number of worker threads this executor uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, sharding across worker threads, and
    /// returns the results in item order. The items are consumed: each one
    /// is dropped as soon as its result is produced. Threads take items in
    /// list order, so [`run_grid`], whose list is seed-major, holds at most
    /// `min(threads, distinct workloads)` workloads at once: a workload's
    /// memory goes as soon as its last run finishes, instead of living for
    /// the whole grid.
    ///
    /// With one thread (or at most one item) the items are processed inline
    /// on the calling thread, in order, with no synchronisation at all —
    /// this is the reference sequential path.
    ///
    /// # Panics
    ///
    /// If `f` panics on an item, with that panic's own payload at any
    /// thread count.
    pub fn map_consume<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.threads <= 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }

        // The only lock: held while a thread takes the next `(index, item)`,
        // never while `f` runs, so an item's panic cannot poison it. Each
        // thread returns the pairs it produced through its join handle.
        let work = Mutex::new(items.into_iter().enumerate());
        let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..self.threads.min(n))
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let next = work.lock().expect("`next` does not panic").next();
                            let Some((i, item)) = next else { break done };
                            done.push((i, f(item)));
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, result)| result).collect()
    }
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Runs the full `configs × runs` grid through `executor` and returns one
/// seed-averaged [`Metrics`] per configuration, in configuration order.
///
/// Replicated runs use seeds `config.seed`, `config.seed + 1`, …,
/// `config.seed + runs - 1` (wrapping: a seed names an RNG stream, it is
/// not a count). The workload for each distinct
/// `(workload parameters, seed)` pair is generated exactly once and shared
/// by every configuration that needs it, so a paired policy comparison is
/// both faster than regenerating per configuration and structurally
/// guaranteed to see identical request streams.
///
/// The runs go seed-major: every run of one workload, in grid order, then
/// the next workload's, in first-use order. The first run of a workload
/// generates it (only runs of that workload wait for it) and the last one
/// takes it out of the grid, so at most `min(threads, distinct workloads)`
/// workloads are alive at once — one on the sequential executor.
///
/// The merge happens in deterministic `(configuration, seed)` order, so the
/// result is byte-identical for every thread count, including the
/// sequential executor.
///
/// # Errors
///
/// Returns [`SimError::NoRuns`] when `runs` is zero, the first validation
/// error across the grid in configuration order (before any run starts),
/// or else the first error of a run in `(configuration, seed)` order.
pub fn run_grid(
    configs: &[SimulationConfig],
    runs: usize,
    executor: &ParallelExecutor,
) -> Result<Vec<Metrics>, SimError> {
    let per_run = run_grid_with(configs, runs, executor, |config, seed, workload| {
        SimWorker::with_workload(*config, seed, workload)
            .run()
            .map(|r| r.metrics)
    })?;
    Ok(per_run.chunks(runs).map(Metrics::average).collect())
}

/// The grid engine behind [`run_grid`] and the session mode's
/// [`run_session_grid`](crate::session::run_session_grid): the flattening,
/// workload deduplication, seed-major schedule and sharding are written
/// (and tested for thread-count invariance) once, and `run` is the mode's
/// per-run body. Returns every run's result, configuration by
/// configuration, each configuration's `runs` results in seed order. See
/// [`run_grid`] for the seeding, deduplication, residency and determinism
/// contract.
///
/// # Errors
///
/// Returns [`SimError::NoRuns`] when `runs` is zero, the first validation
/// error across the grid in configuration order (before any run starts),
/// or else the first error of a run in `(configuration, seed)` order.
pub(crate) fn run_grid_with<O: Send>(
    configs: &[SimulationConfig],
    runs: usize,
    executor: &ParallelExecutor,
    run: impl Fn(&SimulationConfig, u64, Arc<SharedWorkload>) -> Result<O, SimError> + Sync,
) -> Result<Vec<O>, SimError> {
    if runs == 0 {
        return Err(SimError::NoRuns);
    }
    for config in configs {
        config.validate()?;
    }

    // Flatten the grid, configuration by configuration, and deduplicate
    // workload generation: one slot per distinct (workload parameters,
    // seed) pair, in first-use order. Each item is (grid index,
    // configuration, seed, slot).
    let mut slots: Vec<WorkloadSlot> = Vec::new();
    let mut items: Vec<(usize, usize, u64, usize)> = Vec::with_capacity(configs.len() * runs);
    for (ci, config) in configs.iter().enumerate() {
        for r in 0..runs {
            let seed = config.seed.wrapping_add(r as u64);
            let mut wl = config.workload;
            wl.seed = seed;
            let slot = match slots.iter().position(|s| s.config == wl) {
                Some(i) => i,
                None => {
                    slots.push(WorkloadSlot::new(wl));
                    slots.len() - 1
                }
            };
            slots[slot].uses += 1;
            items.push((items.len(), ci, seed, slot));
        }
    }
    // Seed-major: a workload's runs are adjacent in the work list (the sort
    // is stable, so they keep their grid order), and at most one workload
    // is partly handed out at a time.
    items.sort_by_key(|&(_, _, _, slot)| slot);
    let slots: Vec<Mutex<WorkloadSlot>> = slots.into_iter().map(Mutex::new).collect();

    let mut done = executor.map_consume(items, |(index, ci, seed, slot)| {
        // A run of a workload that is still being generated waits here for
        // it; no other run does. The guard is gone before the run starts.
        let workload = slots[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        (index, workload.and_then(|w| run(&configs[ci], seed, w)))
    });
    // Back to (configuration, seed) order: the first error in that order is
    // the one returned.
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// One distinct workload of a grid: generated by the first run that takes
/// it, and taken out of the slot by the last, so its memory goes with that
/// run instead of living for the whole grid.
struct WorkloadSlot {
    /// The workload parameters, with the run's seed.
    config: WorkloadConfig,
    workload: Option<Result<Arc<SharedWorkload>, SimError>>,
    /// Runs that have not taken the workload yet.
    uses: usize,
}

impl WorkloadSlot {
    fn new(config: WorkloadConfig) -> Self {
        WorkloadSlot {
            config,
            workload: None,
            uses: 0,
        }
    }

    /// The workload for one run: generated on the first call, let go of by
    /// the slot on the last. A generation that panicked left the slot as it
    /// was, so the next caller generates it again.
    fn take(&mut self) -> Result<Arc<SharedWorkload>, SimError> {
        let config = &self.config;
        let workload = self
            .workload
            .get_or_insert_with(|| SharedWorkload::generate(config, config.seed).map(Arc::new))
            .clone();
        self.uses -= 1;
        if self.uses == 0 {
            self.workload = None;
        }
        workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_cache::policy::PolicyKind;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Weak;

    fn small(policy: PolicyKind, cache_fraction: f64) -> SimulationConfig {
        SimulationConfig {
            policy,
            ..SimulationConfig::small()
        }
        .with_cache_fraction(cache_fraction)
    }

    #[test]
    fn executor_map_preserves_item_order() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 4, 7] {
            let executor = ParallelExecutor::new(ExecConfig::with_threads(threads));
            let doubled = executor.map_consume(items.clone(), |i| i * 2);
            assert_eq!(doubled, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn executor_map_consume_preserves_order_and_drops_items() {
        struct Tracked(usize, Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.1.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let live = Arc::new(AtomicUsize::new(0));
        for threads in [1, 4] {
            let items: Vec<Tracked> = (0..32)
                .map(|i| {
                    live.fetch_add(1, Ordering::SeqCst);
                    Tracked(i, live.clone())
                })
                .collect();
            let executor = ParallelExecutor::new(ExecConfig::with_threads(threads));
            let tripled = executor.map_consume(items, |t| t.0 * 3);
            assert_eq!(tripled, (0..32).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(
                live.load(Ordering::SeqCst),
                0,
                "threads={threads} leaked items"
            );
        }
    }

    #[test]
    fn an_items_panic_reaches_the_caller_with_its_own_message() {
        for threads in [1, 4] {
            let executor = ParallelExecutor::new(ExecConfig::with_threads(threads));
            let payload = std::panic::catch_unwind(|| {
                executor.map_consume(vec![1u32, 2, 3, 4, 5, 6, 7, 8], |i| {
                    assert!(i != 5, "item {i} is bad");
                    i
                })
            })
            .expect_err("item 5 panics");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .expect("a panic message");
            assert!(
                message.contains("item 5 is bad"),
                "threads={threads}: {message}"
            );
        }
    }

    #[test]
    fn both_modes_start_from_the_same_paths_for_a_seed() {
        // The per-request worker is handed a workload by the grid, a lone
        // session worker generates its own: for one (config, seed) the
        // set-up gives both the same path state and leaves the bandwidth
        // rng at the same draw, under either bandwidth model.
        use crate::config::BandwidthModel;
        use rand::Rng;
        for bandwidth_model in [BandwidthModel::Iid, BandwidthModel::Ar1] {
            let config = SimulationConfig {
                bandwidth_model,
                ..small(PolicyKind::PartialBandwidth, 0.05)
            };
            let seed = config.seed + 3;
            let shared = Arc::new(SharedWorkload::generate(&config.workload, seed).unwrap());
            let (given, mut given_rng) =
                RunSetup::new(&config, seed, Some(&shared), last_arrival_secs).unwrap();
            let (generated, mut generated_rng) =
                RunSetup::new(&config, seed, None, last_arrival_secs).unwrap();
            assert_eq!(*given.workload, *generated.workload);
            assert_eq!(given.provider.len(), shared.catalog.len());
            for path in 0..given.provider.len() {
                assert_eq!(
                    given.provider.estimated_bps(path).to_bits(),
                    generated.provider.estimated_bps(path).to_bits(),
                    "path {path} under {bandwidth_model:?}"
                );
            }
            assert_eq!(given_rng.gen::<u64>(), generated_rng.gen::<u64>());
        }
    }

    #[test]
    fn executor_clamps_to_at_least_one_thread() {
        assert_eq!(
            ParallelExecutor::new(ExecConfig::with_threads(0)).threads(),
            1
        );
        assert_eq!(ExecConfig::with_threads(0).threads, 1);
        assert_eq!(ExecConfig::sequential().threads, 1);
    }

    #[test]
    fn env_var_value_overrides_thread_count() {
        // Exercises the parsing without std::env::set_var: mutating the
        // process environment races concurrently-running tests that read
        // SC_SIM_THREADS through ParallelExecutor::from_env().
        assert_eq!(ExecConfig::from_env_value(Some("3")).threads, 3);
        assert_eq!(ExecConfig::from_env_value(Some(" 8 ")).threads, 8);
        let fallback = ExecConfig::from_env_value(None).threads;
        assert!(fallback >= 1);
        assert_eq!(
            ExecConfig::from_env_value(Some("not-a-number")).threads,
            fallback
        );
        assert_eq!(ExecConfig::from_env_value(Some("0")).threads, fallback);
        assert!(ExecConfig::from_env().threads >= 1);
    }

    #[test]
    fn worker_with_shared_workload_matches_self_generated() {
        let config = small(PolicyKind::PartialBandwidth, 0.05);
        let seed = config.seed;
        let own = SimWorker::new(config, seed).run().unwrap();
        let shared = Arc::new(SharedWorkload::generate(&config.workload, seed).unwrap());
        let borrowed = SimWorker::with_workload(config, seed, shared)
            .run()
            .unwrap();
        assert_eq!(own.metrics, borrowed.metrics);
        assert_eq!(own.final_cached_objects, borrowed.final_cached_objects);
    }

    #[test]
    fn a_grid_keeps_one_workload_resident_per_thread() {
        // Two policies × two cache sizes × three seeds over one set of
        // workload parameters: three workloads, each used by four runs.
        let configs: Vec<SimulationConfig> = [PolicyKind::PartialBandwidth, PolicyKind::Lru]
            .into_iter()
            .flat_map(|policy| [0.02, 0.05].map(|fraction| small(policy, fraction)))
            .collect();
        let runs = 3;
        // At most one workload per thread: exactly one on the sequential
        // executor.
        for threads in [1, 2] {
            // Every workload the grid has handed out, alive or not: a Weak
            // keeps the allocation, so addresses stay distinct.
            let handed: Mutex<Vec<Weak<SharedWorkload>>> = Mutex::new(Vec::new());
            let executor = ParallelExecutor::new(ExecConfig::with_threads(threads));
            let per_run = run_grid_with(&configs, runs, &executor, |config, seed, workload| {
                let mut handed = handed.lock().unwrap();
                handed.push(Arc::downgrade(&workload));
                let mut alive: Vec<*const SharedWorkload> = handed
                    .iter()
                    .filter(|w| w.strong_count() > 0)
                    .map(Weak::as_ptr)
                    .collect();
                alive.sort_unstable();
                alive.dedup();
                Ok((*config, seed, Arc::downgrade(&workload), alive.len()))
            })
            .unwrap();

            assert_eq!(per_run.len(), configs.len() * runs);
            // Back in (configuration, seed) order.
            for (i, (config, seed, workload, alive)) in per_run.iter().enumerate() {
                assert_eq!(*config, configs[i / runs], "threads={threads}: run {i}");
                assert_eq!(
                    *seed,
                    config.seed + (i % runs) as u64,
                    "threads={threads}: run {i}"
                );
                assert!(
                    (1..=threads).contains(alive),
                    "threads={threads}: run {i}: {alive} alive"
                );
                // Generated exactly once per (workload parameters, seed).
                for (j, (_, other_seed, other, _)) in per_run.iter().enumerate() {
                    assert_eq!(
                        Weak::ptr_eq(workload, other),
                        seed == other_seed,
                        "threads={threads}: runs {i} and {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn grid_is_thread_count_invariant() {
        let configs = vec![
            small(PolicyKind::PartialBandwidth, 0.05),
            small(PolicyKind::IntegralFrequency, 0.05),
        ];
        let sequential = run_grid(&configs, 2, &ParallelExecutor::sequential()).unwrap();
        for threads in [2, 4] {
            let parallel = run_grid(
                &configs,
                2,
                &ParallelExecutor::new(ExecConfig::with_threads(threads)),
            )
            .unwrap();
            assert_eq!(sequential, parallel, "threads={threads} diverged");
        }
    }

    #[test]
    fn seeds_at_the_top_of_the_range_replicate() {
        let config = SimulationConfig {
            seed: u64::MAX,
            ..SimulationConfig::small()
        };
        let sequential = run_grid(&[config], 2, &ParallelExecutor::sequential());
        let parallel = run_grid(
            &[config],
            2,
            &ParallelExecutor::new(ExecConfig::with_threads(4)),
        );
        assert!(sequential.is_ok());
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn grid_rejects_zero_runs_and_invalid_configs() {
        let config = small(PolicyKind::PartialBandwidth, 0.05);
        let executor = ParallelExecutor::sequential();
        assert!(matches!(
            run_grid(&[config], 0, &executor),
            Err(SimError::NoRuns)
        ));
        let mut bad = config;
        bad.cache_size_bytes = -1.0;
        assert!(matches!(
            run_grid(&[config, bad], 1, &executor),
            Err(SimError::InvalidCacheSize(_))
        ));
        assert_eq!(run_grid(&[], 1, &executor).unwrap(), Vec::new());
    }

    #[test]
    fn grid_shares_workloads_across_identical_seeds() {
        // Two configs with identical workload parameters and seeds: the
        // grid must produce the same result as running them separately.
        let pb = small(PolicyKind::PartialBandwidth, 0.05);
        let if_ = small(PolicyKind::IntegralFrequency, 0.05);
        let together = run_grid(&[pb, if_], 2, &ParallelExecutor::sequential()).unwrap();
        let alone_pb = run_grid(&[pb], 2, &ParallelExecutor::sequential()).unwrap();
        let alone_if = run_grid(&[if_], 2, &ParallelExecutor::sequential()).unwrap();
        assert_eq!(together[0], alone_pb[0]);
        assert_eq!(together[1], alone_if[0]);
    }
}
