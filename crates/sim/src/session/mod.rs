//! The session-level discrete-event core: overlapping streaming sessions
//! sharing bottleneck links.
//!
//! The per-request simulator ([`crate::SimWorker`]) treats every request as
//! an isolated bandwidth draw. Real streaming load is different: a session
//! spans its playback duration, and all sessions fetching from the same
//! origin share that path's bottleneck capacity. This module adds that
//! contention axis as a separate, golden-pinned-path-preserving mode:
//!
//! * **Processor sharing** — a path with capacity `C` and `n` sessions
//!   actively transferring gives each session `C / n` bytes per second.
//!   Every arrival on, departure from and outage edge of the path
//!   re-divides the capacity. Because all members get the same rate, only
//!   the member with the smallest `now + remaining / share` can complete
//!   before the next re-division, and every event on the path re-divides
//!   it anyway — so the path keeps **one** pending completion event on the
//!   [`EventQueue`] (its earliest member's; ties go to the lowest session
//!   index), keyed by the path, and each re-division re-keys that one
//!   event in place ([`EventQueue::push_keyed`]); it never pushes a plain
//!   event or cancels one.
//!   This pops the same events in the same order as scheduling every
//!   member would: the members' other completions would all have been
//!   cancelled before they could pop, and the surviving events take their
//!   sequence numbers in the same relative order, so every
//!   `(time, sequence)` tie-break falls the same way.
//! * **One pass per re-division** — an arrival or a completion walks the
//!   path's members once, in ascending index order: each member is
//!   integrated up to now at its old share, given the new one, and checked
//!   for the earliest completion. An outage edge first integrates every
//!   session that arrived on the path through the boundary, then walks the
//!   members.
//! * **Pre-known events are walked, not heaped** — the arrivals (the spec
//!   list, already sorted), the outage edges and the playback ends (each
//!   sorted once) are each read by a cursor; the heap holds only the
//!   completions, at most one per path. A playback end takes its sequence
//!   number at its session's arrival, where it would have been pushed.
//!   Each iteration takes the earliest of the four sources, ties going
//!   arrival, edge, then playback end or completion by sequence number —
//!   the `(time, sequence)` order of pushing the arrivals and edges first
//!   and each playback end at its arrival.
//! * **Fluid sessions** — between events every session's download and
//!   playback-buffer state evolve piecewise-linearly, so
//!   [`SessionState::advance_masked`] integrates them in closed form. A
//!   session rebuffers whenever its cumulative playback demand exceeds the
//!   bytes available (cached prefix + downloaded so far). The members of a
//!   path are integrated over the same interval, so [`EgressAccumulator`]
//!   cuts an interval into bins once and every member adds its bytes
//!   through that cut, and within a pass the one or two bins of the cut
//!   keep their running sums in locals (`EgressPass`) until the cut
//!   changes or the pass ends.
//! * **Time-weighted metrics** ([`SessionMetrics`]) — concurrent-viewer
//!   curves, rebuffer probability, and origin egress binned over time.
//!
//! # Determinism contract
//!
//! A run is a pure function of `(configuration, seed)`, byte-identical at
//! any `SC_SIM_THREADS` (parallelism only shards independent runs, as in
//! the per-request mode). Within a run the event order is total:
//! `(time, sequence)` with sequences assigned at schedule time (arrivals
//! first, then outage edges, then whatever the run schedules), and every
//! path re-division iterates its member sessions in ascending session
//! index. The naive fluid reference model in
//! `crates/sim/tests/session_reference.rs` replays the same contract
//! without the heap or the incremental bookkeeping and must match bitwise.
//!
//! # Layout
//!
//! One owner per concern: `state.rs` integrates one session
//! ([`SessionState`]), `egress.rs` bins origin bytes over time
//! ([`EgressAccumulator`]), `faults.rs` draws outages
//! ([`PathFaultTimeline`]), and `event_loop.rs` is the loop
//! ([`simulate_sessions_with_faults`]): the merge of the four event
//! sources, one method per event kind, and `reshare`, the one
//! re-division. This file holds the interface — the specs, the hooks and
//! the workload-driven [`SessionWorker`] — and is the one place that
//! reads a session's path as its object's catalog index.
//!
//! [`EventQueue`]: crate::EventQueue
//! [`EventQueue::push_keyed`]: crate::EventQueue::push_keyed

mod egress;
mod event_loop;
mod faults;
mod state;

pub use egress::EgressAccumulator;
pub use event_loop::{simulate_sessions_with_faults, SessionSimOutput, SessionTelemetry};
pub use faults::PathFaultTimeline;
pub use state::{SessionState, REBUFFER_EPSILON_SECS};

use crate::config::{SimError, SimulationConfig};
use crate::exec::{
    fault_seed, run_grid_with, to_meta, DecisionStep, ParallelExecutor, RunSetup, SharedWorkload,
};
use crate::metrics::SessionMetrics;
use event_loop::playback_horizon;
use sc_workload::ObjectId;
use std::sync::Arc;

/// One streaming session to simulate: a path (bottleneck link) index plus
/// the arrival instant and playback characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSpec {
    /// Index of the bottleneck path (== the object's catalog index in the
    /// workload-driven mode).
    pub path: u32,
    /// Arrival time on the simulation clock, in seconds.
    pub arrival_secs: f64,
    /// Playback duration in seconds.
    pub duration_secs: f64,
    /// CBR encoding rate in bytes per second.
    pub rate_bps: f64,
    /// Total object size in bytes.
    pub size_bytes: f64,
}

/// Callbacks connecting the contention core to the caching layer.
///
/// The event loop is cache-agnostic: at each arrival it asks the hooks how
/// many prefix bytes the cache serves instantly, and at each completed
/// origin transfer it reports the realised throughput (the input of the
/// passive bandwidth estimators). [`NoCacheHooks`] is the trivial
/// implementation used by pure-contention tests.
pub trait SessionHooks {
    /// Called once per session, in event order, when the session arrives.
    ///
    /// `share_bps` is the processor-sharing bandwidth the session would
    /// receive if it joined its path now (capacity divided by the member
    /// count including itself) — what an active probe would measure.
    /// Returns the prefix bytes served from the cache; the core clamps the
    /// value into `[0, size_bytes]`.
    fn on_arrival(&mut self, index: usize, spec: &SessionSpec, share_bps: f64) -> f64;

    /// Called when a session's origin transfer completes, with the mean
    /// throughput the transfer achieved. Sessions served entirely from the
    /// cache never report (a full hit reveals nothing about the path).
    fn on_transfer_complete(&mut self, index: usize, spec: &SessionSpec, throughput_bps: f64) {
        let _ = (index, spec, throughput_bps);
    }
}

/// Hooks for cache-less contention scenarios: no prefix is ever cached.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoCacheHooks;

impl SessionHooks for NoCacheHooks {
    fn on_arrival(&mut self, _index: usize, _spec: &SessionSpec, _share_bps: f64) -> f64 {
        0.0
    }
}

/// Runs the discrete-event session simulation over `specs`.
///
/// `capacity` maps `(path, time)` to the path's bottleneck capacity in
/// bytes per second — it must be positive and finite whenever the path has
/// an active session. `egress_bins` sets the resolution of the
/// origin-egress-over-time curve.
///
/// Sessions must be given in non-decreasing arrival order (the order their
/// arrival events are scheduled, hence the tie-break order for
/// simultaneous arrivals).
///
/// ```
/// use sc_sim::session::{simulate_sessions, NoCacheHooks, SessionSpec};
///
/// // Two overlapping sessions on one 50 KB/s path, 100 s × 48 KB/s each:
/// // alone each would keep up, but while both transfer each gets 25 KB/s.
/// let spec = |t| SessionSpec {
///     path: 0,
///     arrival_secs: t,
///     duration_secs: 100.0,
///     rate_bps: 48_000.0,
///     size_bytes: 4_800_000.0,
/// };
/// let out = simulate_sessions(&[spec(0.0), spec(10.0)], 1, |_, _| 50_000.0,
///                             &mut NoCacheHooks, 8);
/// assert_eq!(out.metrics.sessions, 2);
/// assert!(out.metrics.rebuffer_probability > 0.0);
/// assert_eq!(out.metrics.peak_concurrent_viewers, 2);
/// ```
///
/// # Panics
///
/// Panics if `specs` is not sorted by arrival time, a spec's path index is
/// not below `n_paths`, an event time is not finite (a playback end whose
/// finite arrival and duration sum to infinity included), a spec's
/// duration is negative or not finite, or `capacity` returns a
/// non-positive or non-finite value for a path with active sessions.
/// Everything but `capacity` is checked before the loop runs, so no hook
/// is called on a run rejected for it.
pub fn simulate_sessions<C, H>(
    specs: &[SessionSpec],
    n_paths: usize,
    capacity: C,
    hooks: &mut H,
    egress_bins: usize,
) -> SessionSimOutput
where
    C: Fn(usize, f64) -> f64,
    H: SessionHooks + ?Sized,
{
    simulate_sessions_with_faults(specs, n_paths, capacity, hooks, egress_bins, None)
}

/// The observation horizon of a workload's sessions, read from its trace
/// and catalog: how far the session mode reads path capacity.
fn last_playback_end_secs(workload: &SharedWorkload) -> f64 {
    workload
        .trace
        .iter()
        .map(|r| r.time_secs + workload.catalog.object(r.object).duration_secs)
        .fold(0.0_f64, f64::max)
}

/// Result of one session-mode simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRunResult {
    /// Time-weighted session metrics over the whole run.
    pub metrics: SessionMetrics,
    /// Bytes held in the cache at the end of the run.
    pub final_cache_used_bytes: f64,
    /// Number of distinct objects (fully or partially) cached at the end.
    pub final_cached_objects: usize,
}

/// The self-contained body of one session-mode run, mirroring
/// [`crate::SimWorker`]: a configuration, a run seed, and optionally a
/// pre-generated shared workload.
#[derive(Debug, Clone)]
pub struct SessionWorker {
    config: SimulationConfig,
    seed: u64,
    workload: Option<Arc<SharedWorkload>>,
}

/// The workload-driven session mode's hooks: the run's decision step.
///
/// A session's path is its object's catalog index: these hooks read it as
/// one (the step's object index), and [`SessionWorker`] sets it
/// (`path: s.object.as_u32()`). Nowhere else in the session core does a
/// path stand for an object, so letting objects share origin paths
/// changes only this file.
impl SessionHooks for DecisionStep<'_> {
    fn on_arrival(&mut self, _index: usize, spec: &SessionSpec, share_bps: f64) -> f64 {
        // The estimator's "current bandwidth" is the fair share this
        // session would get — what an active probe observes under
        // contention.
        let meta = to_meta(self.workload.catalog.object(ObjectId::new(spec.path)));
        self.access(spec.path as usize, &meta, share_bps)
            .cached_bytes_before
    }

    fn on_transfer_complete(&mut self, _index: usize, spec: &SessionSpec, throughput_bps: f64) {
        self.learn(spec.path as usize, throughput_bps);
    }
}

impl SessionWorker {
    /// A worker that generates its own workload from `config.workload`
    /// (with the seed overridden by `seed`).
    pub fn new(config: SimulationConfig, seed: u64) -> Self {
        SessionWorker {
            config,
            seed,
            workload: None,
        }
    }

    /// A worker running over a pre-generated workload (see
    /// [`crate::SimWorker::with_workload`] for the seed contract).
    pub fn with_workload(
        config: SimulationConfig,
        seed: u64,
        workload: Arc<SharedWorkload>,
    ) -> Self {
        SessionWorker {
            config,
            seed,
            workload: Some(workload),
        }
    }

    /// Executes the session-mode simulation run.
    ///
    /// Unlike the per-request mode, session metrics are time-weighted over
    /// the whole trace; the per-request mode's warm-up half has no
    /// counterpart here (the contention transient *is* part of the measured
    /// signal).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the configuration is invalid.
    pub fn run(&self) -> Result<SessionRunResult, SimError> {
        self.run_traced().map(|(result, _)| result)
    }

    /// The run's set-up, its series sized by [`last_playback_end_secs`].
    /// The session mode draws nothing after set-up, so the bandwidth RNG
    /// goes.
    fn setup(&self) -> Result<RunSetup, SimError> {
        RunSetup::new(
            &self.config,
            self.seed,
            self.workload.as_ref(),
            last_playback_end_secs,
        )
        .map(|(setup, _)| setup)
    }

    /// [`SessionWorker::run`] plus the run's scheduling telemetry.
    fn run_traced(&self) -> Result<(SessionRunResult, SessionTelemetry), SimError> {
        let config = &self.config;
        // The same set-up as the per-request mode, hence the same path
        // means for a seed; under AR(1) the series run on to the last
        // playback end, where the per-request mode's series stop at the
        // last arrival.
        let mut setup = self.setup()?;
        let mut step = setup.step();
        let (workload, provider) = (step.workload, step.provider);
        let (catalog, trace) = (&workload.catalog, &workload.trace);

        let specs: Vec<SessionSpec> = trace
            .session_arrivals(catalog)
            .into_iter()
            .map(|s| SessionSpec {
                path: s.object.as_u32(),
                arrival_secs: s.time_secs,
                duration_secs: s.duration_secs,
                rate_bps: s.bitrate_bps,
                size_bytes: s.size_bytes,
            })
            .collect();

        // The outage timeline (if any) is drawn up front from its own
        // derived seed, spanning the playback horizon of the trace.
        let horizon_secs = playback_horizon(&specs);
        let timeline = config.path_faults.map(|model| {
            PathFaultTimeline::generate(catalog.len(), horizon_secs, model, fault_seed(self.seed))
        });
        let output = simulate_sessions_with_faults(
            &specs,
            catalog.len(),
            |path, time| provider.capacity_bps(path, time),
            &mut step,
            config.session_egress_bins,
            timeline.as_ref(),
        );

        let result = SessionRunResult {
            metrics: output.metrics,
            final_cache_used_bytes: step.cache.used_bytes(),
            final_cached_objects: step.cache.len(),
        };
        Ok((result, output.telemetry))
    }
}

/// Runs the full `configs × runs` grid in session mode and returns one
/// seed-averaged [`SessionMetrics`] per configuration, in configuration
/// order — the session-mode analogue of [`crate::exec::run_grid`], with
/// the same workload deduplication, residency bound and determinism
/// guarantees.
///
/// # Errors
///
/// Returns [`SimError::NoRuns`] when `runs` is zero, or the first
/// validation error across the grid in configuration order.
pub fn run_session_grid(
    configs: &[SimulationConfig],
    runs: usize,
    executor: &ParallelExecutor,
) -> Result<Vec<SessionMetrics>, SimError> {
    run_session_grid_traced(configs, runs, executor).map(|(metrics, _)| metrics)
}

/// [`run_session_grid`] plus the scheduling telemetry of all its runs
/// together: each run returns its own with its metrics, and they are folded
/// in grid order once the executor is done.
pub(crate) fn run_session_grid_traced(
    configs: &[SimulationConfig],
    runs: usize,
    executor: &ParallelExecutor,
) -> Result<(Vec<SessionMetrics>, SessionTelemetry), SimError> {
    let per_run = run_grid_with(configs, runs, executor, |config, seed, workload| {
        let (result, telemetry) =
            SessionWorker::with_workload(*config, seed, workload).run_traced()?;
        Ok((result.metrics, telemetry))
    })?;
    let (metrics, traces): (Vec<SessionMetrics>, Vec<SessionTelemetry>) =
        per_run.into_iter().unzip();
    let mut telemetry = SessionTelemetry::default();
    for trace in traces {
        telemetry.merge(trace);
    }
    let metrics = metrics.chunks(runs).map(SessionMetrics::average).collect();
    Ok((metrics, telemetry))
}

#[cfg(test)]
mod tests {
    use super::state::positive_measure;
    use super::*;
    use crate::config::{PathFaultModel, VariabilityKind};
    use sc_cache::policy::PolicyKind;

    fn spec(path: u32, arrival: f64, duration: f64, rate: f64) -> SessionSpec {
        SessionSpec {
            path,
            arrival_secs: arrival,
            duration_secs: duration,
            rate_bps: rate,
            size_bytes: duration * rate,
        }
    }

    #[test]
    fn single_session_downloads_at_full_capacity() {
        let out = simulate_sessions(
            &[spec(0, 0.0, 100.0, 48_000.0)],
            1,
            |_, _| 96_000.0,
            &mut NoCacheHooks,
            4,
        );
        let f = &out.finals[0];
        assert_eq!(f.downloaded_bytes, 4_800_000.0);
        // 4.8 MB at 96 KB/s: done at t = 50.
        assert!((f.transfer_end_secs - 50.0).abs() < 1e-9);
        assert_eq!(f.rebuffer_secs, 0.0);
        assert_eq!(out.metrics.sessions, 1);
        assert_eq!(out.metrics.peak_concurrent_viewers, 1);
        // One viewer for 100 s.
        assert!((out.metrics.viewer_seconds - 100.0).abs() < 1e-9);
        assert!((out.metrics.origin_bytes_total - 4_800_000.0).abs() < 1e-6);
    }

    #[test]
    fn slow_path_rebuffers_for_the_bandwidth_deficit_time() {
        // 100 s × 48 KB/s over a 24 KB/s path, nothing cached: the buffer
        // is drained the whole playback window.
        let out = simulate_sessions(
            &[spec(0, 0.0, 100.0, 48_000.0)],
            1,
            |_, _| 24_000.0,
            &mut NoCacheHooks,
            4,
        );
        let f = &out.finals[0];
        assert!((f.rebuffer_secs - 100.0).abs() < 1e-9);
        // Transfer takes 200 s, well past the playback window.
        assert!((f.transfer_end_secs - 200.0).abs() < 1e-9);
        assert_eq!(out.metrics.rebuffer_probability, 1.0);
    }

    #[test]
    fn cached_prefix_prevents_rebuffering_on_a_half_rate_path() {
        // Half-rate path, half the object cached: the classic PB setting —
        // demand r·t never exceeds prefix + (r/2)·t for t ≤ D because
        // prefix = (r/2)·D.
        struct HalfPrefix;
        impl SessionHooks for HalfPrefix {
            fn on_arrival(&mut self, _i: usize, spec: &SessionSpec, _share: f64) -> f64 {
                spec.size_bytes / 2.0
            }
        }
        let out = simulate_sessions(
            &[spec(0, 0.0, 100.0, 48_000.0)],
            1,
            |_, _| 24_000.0,
            &mut HalfPrefix,
            4,
        );
        let f = &out.finals[0];
        assert_eq!(f.prefix_bytes, 2_400_000.0);
        assert_eq!(f.rebuffer_secs, 0.0);
        assert_eq!(out.metrics.rebuffer_probability, 0.0);
        assert!((out.metrics.traffic_reduction_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn processor_sharing_halves_throughput_while_two_sessions_overlap() {
        // Session A alone from t=0; B joins at t=25 on the same path.
        let specs = [
            spec(0, 0.0, 100.0, 48_000.0),
            spec(0, 25.0, 100.0, 48_000.0),
        ];
        let out = simulate_sessions(&specs, 1, |_, _| 96_000.0, &mut NoCacheHooks, 4);
        // A downloads 2.4 MB alone by t=25, then shares 48 KB/s each; A
        // needs another 2.4 MB → 50 s → done at t=75.
        assert!((out.finals[0].transfer_end_secs - 75.0).abs() < 1e-6);
        // B: 48 KB/s from 25 to 75 (2.4 MB), then full 96 KB/s for the
        // remaining 2.4 MB → 25 s → done at t=100.
        assert!((out.finals[1].transfer_end_secs - 100.0).abs() < 1e-6);
        assert_eq!(out.metrics.peak_concurrent_viewers, 2);
        // Viewer curve integral = sum of durations.
        assert!((out.metrics.viewer_seconds - 200.0).abs() < 1e-9);
    }

    #[test]
    fn a_path_holds_one_completion_event_however_many_members_it_has() {
        // A alone, B joins at t=25, A done at t=75, B done at t=100: three
        // re-divisions (B's completion leaves the path empty), each
        // scheduling one completion; only the one pending at B's arrival is
        // replaced, and it is replaced in place.
        let specs = [
            spec(0, 0.0, 100.0, 48_000.0),
            spec(0, 25.0, 100.0, 48_000.0),
        ];
        let out = simulate_sessions(&specs, 1, |_, _| 96_000.0, &mut NoCacheHooks, 4);
        assert_eq!(
            out.telemetry,
            SessionTelemetry {
                // 2 arrivals + 2 playback ends + 3 completions.
                events_scheduled: 7,
                events_cancelled: 1,
                // Only the path's completion, re-keyed in place: the
                // playback ends are walked, not heaped.
                peak_heap_len: 1,
                redivisions: 3,
            }
        );

        // Forty simultaneous members cost one event per re-division, not
        // forty: 40 arrivals + 40 playback ends + 40 + 39 re-divisions.
        let crowd = [spec(0, 0.0, 50.0, 48_000.0); 40];
        let out = simulate_sessions(&crowd, 1, |_, _| 96_000.0, &mut NoCacheHooks, 4);
        assert_eq!(out.telemetry.redivisions, 79);
        assert_eq!(out.telemetry.events_scheduled, 80 + 79);
        assert_eq!(out.telemetry.events_cancelled, 39);
    }

    #[test]
    fn simultaneous_arrivals_share_from_the_start() {
        let specs = [spec(0, 10.0, 50.0, 48_000.0), spec(0, 10.0, 50.0, 48_000.0)];
        let out = simulate_sessions(&specs, 1, |_, _| 96_000.0, &mut NoCacheHooks, 4);
        // Both transfer at 48 KB/s throughout: 2.4 MB / 48 KB/s = 50 s.
        for f in &out.finals {
            assert!((f.transfer_end_secs - 60.0).abs() < 1e-6);
            assert_eq!(f.rebuffer_secs, 0.0);
        }
    }

    #[test]
    fn sessions_on_different_paths_do_not_contend() {
        let specs = [spec(0, 0.0, 100.0, 48_000.0), spec(1, 0.0, 100.0, 48_000.0)];
        let out = simulate_sessions(&specs, 2, |_, _| 96_000.0, &mut NoCacheHooks, 4);
        for f in &out.finals {
            assert!((f.transfer_end_secs - 50.0).abs() < 1e-9);
        }
    }

    #[test]
    fn full_hit_sessions_never_touch_the_origin() {
        struct FullHit;
        impl SessionHooks for FullHit {
            fn on_arrival(&mut self, _i: usize, spec: &SessionSpec, _share: f64) -> f64 {
                spec.size_bytes
            }
            fn on_transfer_complete(&mut self, _i: usize, _s: &SessionSpec, _t: f64) {
                panic!("full hits must not report transfers");
            }
        }
        let out = simulate_sessions(
            &[spec(0, 0.0, 100.0, 48_000.0)],
            1,
            |_, _| 1.0, // capacity is irrelevant: the path is never joined
            &mut FullHit,
            4,
        );
        assert_eq!(out.metrics.origin_bytes_total, 0.0);
        assert_eq!(out.finals[0].downloaded_bytes, 0.0);
        assert_eq!(out.finals[0].rebuffer_secs, 0.0);
        assert!((out.metrics.traffic_reduction_ratio - 1.0).abs() < 1e-12);
        assert_eq!(out.metrics.egress_bins_bytes.iter().sum::<f64>(), 0.0);
    }

    #[test]
    fn egress_bins_sum_to_origin_bytes() {
        let specs = [
            spec(0, 0.0, 100.0, 48_000.0),
            spec(1, 10.0, 200.0, 24_000.0),
            spec(0, 30.0, 60.0, 48_000.0),
        ];
        let out = simulate_sessions(&specs, 2, |_, _| 40_000.0, &mut NoCacheHooks, 16);
        let total: f64 = out.metrics.egress_bins_bytes.iter().sum();
        assert!(
            (total - out.metrics.origin_bytes_total).abs() / out.metrics.origin_bytes_total < 1e-9
        );
        assert_eq!(out.metrics.egress_bins_bytes.len(), 16);
    }

    #[test]
    #[should_panic(expected = "event time must be finite, got inf for Arrival(1)")]
    fn an_infinite_arrival_is_rejected_before_the_loop_runs() {
        struct NeverAsked;
        impl SessionHooks for NeverAsked {
            fn on_arrival(&mut self, _i: usize, _s: &SessionSpec, _share: f64) -> f64 {
                panic!("the loop must not start");
            }
        }
        let specs = [
            spec(0, 0.0, 10.0, 48_000.0),
            spec(0, f64::INFINITY, 10.0, 48_000.0),
        ];
        simulate_sessions(&specs, 1, |_, _| 96_000.0, &mut NeverAsked, 4);
    }

    #[test]
    fn an_overflowing_playback_end_is_rejected_before_the_loop_runs() {
        struct Counting(usize);
        impl SessionHooks for Counting {
            fn on_arrival(&mut self, _i: usize, _s: &SessionSpec, _share: f64) -> f64 {
                self.0 += 1;
                0.0
            }
        }
        // A finite arrival and a finite duration whose sum is infinite.
        let specs = [
            spec(0, 0.0, 10.0, 48_000.0),
            SessionSpec {
                arrival_secs: f64::MAX,
                duration_secs: f64::MAX,
                ..spec(0, 0.0, 10.0, 48_000.0)
            },
        ];
        let mut hooks = Counting(0);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            simulate_sessions(&specs, 1, |_, _| 96_000.0, &mut hooks, 4)
        }))
        .expect_err("an infinite playback end must panic");
        let message = panic
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert_eq!(
            message,
            "event time must be finite, got inf for PlaybackEnd(1)"
        );
        assert_eq!(hooks.0, 0, "the loop must not start");
    }

    #[test]
    #[should_panic(
        expected = "session duration must be finite and non-negative, got -5 for session 0"
    )]
    fn a_negative_duration_is_rejected_before_the_loop_runs() {
        // Without the check the playback end pops before the arrival that
        // pushed it and the viewer curve integrates to -1 s.
        let specs = [
            SessionSpec {
                path: 0,
                arrival_secs: 10.0,
                duration_secs: -5.0,
                rate_bps: 1_000.0,
                size_bytes: 1_000.0,
            },
            SessionSpec {
                path: 0,
                arrival_secs: 12.0,
                duration_secs: 4.0,
                rate_bps: 1_000.0,
                size_bytes: 4_000.0,
            },
        ];
        simulate_sessions(&specs, 1, |_, _| 2_000.0, &mut NoCacheHooks, 4);
    }

    #[test]
    #[should_panic(
        expected = "session duration must be finite and non-negative, got inf for session 1"
    )]
    fn an_infinite_duration_is_rejected_before_the_loop_runs() {
        let specs = [
            spec(0, 0.0, 10.0, 48_000.0),
            SessionSpec {
                duration_secs: f64::INFINITY,
                ..spec(0, 1.0, 10.0, 48_000.0)
            },
        ];
        simulate_sessions(&specs, 1, |_, _| 96_000.0, &mut NoCacheHooks, 4);
    }

    #[test]
    #[should_panic(expected = "event time must be finite, got inf for PathUp(0)")]
    fn a_non_finite_outage_edge_is_rejected_before_the_loop_runs() {
        // `from_outages` refuses such an interval, so build the timeline
        // directly: the loop checks what it is given, not who built it.
        let timeline = PathFaultTimeline {
            outages: vec![vec![(5.0, f64::INFINITY)]],
            residual: 0.5,
        };
        simulate_sessions_with_faults(
            &[spec(0, 0.0, 10.0, 48_000.0)],
            1,
            |_, _| 96_000.0,
            &mut NoCacheHooks,
            4,
            Some(&timeline),
        );
    }

    #[test]
    fn pre_known_events_are_counted_but_never_heaped() {
        // One session, two outages: 1 arrival, 4 edges and 1 playback end
        // walked by cursors, re-divisions on the heap.
        let timeline =
            PathFaultTimeline::from_outages(vec![vec![(10.0, 20.0), (200.0, 300.0)]], 0.5);
        let out = simulate_sessions_with_faults(
            &[spec(0, 0.0, 100.0, 48_000.0)],
            1,
            |_, _| 96_000.0,
            &mut NoCacheHooks,
            4,
            Some(&timeline),
        );
        // Re-divisions: the arrival and the first outage's two edges (the
        // transfer is over by t = 60, long before the second outage).
        assert_eq!(out.telemetry.redivisions, 3);
        assert_eq!(out.telemetry.events_cancelled, 2);
        assert_eq!(out.telemetry.events_scheduled, 1 + 4 + 1 + 3);
        // The path's one completion, which each re-division re-keys in
        // place; an arrival, an edge or a playback end waiting its turn
        // takes no room.
        assert_eq!(out.telemetry.peak_heap_len, 1);
    }

    #[test]
    fn a_playback_end_and_a_completion_at_one_instant_go_by_sequence_number() {
        // Which of the two goes first shows only in the order their bytes
        // reach the egress bins. So each run's bins are checked against
        // the origin segments added one by one in `(time, sequence)`
        // order, and that order against the tied pair swapped, which must
        // differ in some bin or the case would pin nothing.
        fn bins(horizon_secs: f64, adds: &[(f64, f64, f64)]) -> Vec<u64> {
            let mut egress = EgressAccumulator::new(9, horizon_secs);
            for &(from, to, bytes) in adds {
                egress.add(from, to, bytes);
            }
            egress.bins().iter().map(|b| b.to_bits()).collect()
        }
        let cases = [
            // At t = 40.5 session 0's completion on path 1, scheduled at
            // t = 0, goes before session 2's end, numbered at its arrival
            // (t = 25.5).
            (
                vec![
                    spec(1, 0.0, 67.5, 24_000.0),
                    spec(0, 8.0, 72.5, 24_000.0),
                    spec(0, 25.5, 15.0, 16_000.0),
                ],
                80.5,
                vec![
                    (8.0, 25.5, 350_000.0),
                    (0.0, 40.5, 1_620_000.0), // completion 0
                    (25.5, 40.5, 150_000.0),  // end 2
                    (25.5, 49.5, 240_000.0),
                    (40.5, 49.5, 90_000.0),
                    (49.5, 80.5, 620_000.0),
                    (80.5, 107.0, 530_000.0),
                ],
                1,
            ),
            // At t = 114.5 session 2's end, numbered at its arrival just
            // before the path's completion was re-keyed there, goes
            // before session 1's completion.
            (
                vec![
                    spec(0, 1.0, 7.5, 32_000.0),
                    spec(0, 14.0, 72.5, 16_000.0),
                    spec(0, 29.5, 85.0, 24_000.0),
                ],
                114.5,
                vec![
                    (1.0, 8.5, 150_000.0),
                    (8.5, 13.0, 90_000.0),
                    (14.0, 29.5, 310_000.0),
                    (29.5, 86.5, 570_000.0),
                    (29.5, 114.5, 850_000.0), // end 2
                    (86.5, 114.5, 280_000.0), // completion 1
                    (114.5, 174.0, 1_190_000.0),
                ],
                4,
            ),
        ];
        for (specs, horizon_secs, adds, tied) in cases {
            let out = simulate_sessions(
                &specs,
                2,
                |p, _| 20_000.0 * (p + 1) as f64,
                &mut NoCacheHooks,
                9,
            );
            let mut swapped = adds.clone();
            swapped.swap(tied, tied + 1);
            assert_ne!(bins(horizon_secs, &swapped), bins(horizon_secs, &adds));
            let got: Vec<u64> = out
                .metrics
                .egress_bins_bytes
                .iter()
                .map(|b| b.to_bits())
                .collect();
            assert_eq!(got, bins(horizon_secs, &adds));
        }
    }

    #[test]
    fn positive_measure_covers_all_slopes() {
        assert_eq!(positive_measure(1.0, 0.0, 5.0), 5.0);
        assert_eq!(positive_measure(-1.0, 0.0, 5.0), 0.0);
        // Crosses zero upward at x=2: positive on (2, 5].
        assert!((positive_measure(-2.0, 1.0, 5.0) - 3.0).abs() < 1e-12);
        // Crosses zero downward at x=2: positive on [0, 2).
        assert!((positive_measure(2.0, -1.0, 5.0) - 2.0).abs() < 1e-12);
        // Entirely positive / entirely negative with slope.
        assert_eq!(positive_measure(1.0, 1.0, 5.0), 5.0);
        assert_eq!(positive_measure(-10.0, 1.0, 5.0), 0.0);
    }

    #[test]
    fn empty_spec_list_yields_empty_metrics() {
        let out = simulate_sessions(&[], 0, |_, _| 1.0, &mut NoCacheHooks, 4);
        assert_eq!(out.metrics.sessions, 0);
        assert_eq!(out.metrics.viewer_seconds, 0.0);
        assert!(out.finals.is_empty());
    }

    #[test]
    fn fault_timeline_is_deterministic_and_well_formed() {
        let model = PathFaultModel {
            mtbf_secs: 300.0,
            mttr_secs: 30.0,
            residual_capacity_fraction: 0.05,
        };
        let a = PathFaultTimeline::generate(8, 10_000.0, model, 42);
        let b = PathFaultTimeline::generate(8, 10_000.0, model, 42);
        assert_eq!(a, b, "same seed must reproduce the same outages");
        let c = PathFaultTimeline::generate(8, 10_000.0, model, 43);
        assert_ne!(a, c, "a different seed must move the outages");
        assert_eq!(a.paths(), 8);
        assert_eq!(a.residual_capacity_fraction(), 0.05);
        let mut saw_outage = false;
        for path in 0..a.paths() {
            let mut prev_end = f64::NEG_INFINITY;
            for &(start, end) in a.outages(path) {
                assert!(start >= prev_end && end >= start && start < 10_000.0);
                prev_end = end;
                saw_outage = true;
            }
        }
        assert!(
            saw_outage,
            "with ~33 expected outages per path, none at all is a generation bug"
        );
        assert!(a.outage_secs_within(10_000.0) > 0.0);
        // Clamping: no outage time is counted before t = 0.
        assert_eq!(a.outage_secs_within(0.0), 0.0);
    }

    #[test]
    fn empty_timeline_is_bitwise_identical_to_no_timeline() {
        let specs = [
            spec(0, 0.0, 100.0, 48_000.0),
            spec(1, 10.0, 200.0, 24_000.0),
            spec(0, 30.0, 60.0, 48_000.0),
        ];
        let plain = simulate_sessions(&specs, 2, |_, _| 40_000.0, &mut NoCacheHooks, 8);
        let empty = PathFaultTimeline::from_outages(vec![Vec::new(), Vec::new()], 0.05);
        let faulted = simulate_sessions_with_faults(
            &specs,
            2,
            |_, _| 40_000.0,
            &mut NoCacheHooks,
            8,
            Some(&empty),
        );
        assert_eq!(plain, faulted);
    }

    #[test]
    fn cached_prefix_masks_an_outage_without_stalling() {
        // The paper's resilience story in one scenario: half the object is
        // cached, and the path is (almost) fully down for the entire first
        // half of playback. The prefix alone covers demand until t = 50 on
        // the half-rate path, so the outage is fully masked; after repair
        // the 96 KB/s path outruns the 48 KB/s drain, so playback never
        // stalls at all.
        struct HalfPrefix;
        impl SessionHooks for HalfPrefix {
            fn on_arrival(&mut self, _i: usize, spec: &SessionSpec, _share: f64) -> f64 {
                spec.size_bytes / 2.0
            }
        }
        let timeline = PathFaultTimeline::from_outages(vec![vec![(0.0, 50.0)]], 0.05);
        let out = simulate_sessions_with_faults(
            &[spec(0, 0.0, 100.0, 48_000.0)],
            1,
            |_, _| 96_000.0,
            &mut HalfPrefix,
            4,
            Some(&timeline),
        );
        let f = &out.finals[0];
        assert_eq!(f.rebuffer_secs, 0.0, "the prefix must mask the outage");
        assert!((out.metrics.masked_stall_secs - 50.0).abs() < 1e-9);
        assert_eq!(out.metrics.outage_secs, 50.0);
        assert_eq!(out.metrics.rebuffer_probability, 0.0);
        // During the outage the session still trickled at the residual
        // share (4.8 KB/s × 50 s), then finished at full capacity.
        assert_eq!(f.downloaded_bytes, 2_400_000.0);
        assert!((f.transfer_end_secs - 72.5).abs() < 1e-9);
    }

    #[test]
    fn without_a_prefix_the_same_outage_stalls_playback() {
        let timeline = PathFaultTimeline::from_outages(vec![vec![(0.0, 50.0)]], 0.05);
        let out = simulate_sessions_with_faults(
            &[spec(0, 0.0, 100.0, 48_000.0)],
            1,
            |_, _| 96_000.0,
            &mut NoCacheHooks,
            4,
            Some(&timeline),
        );
        let f = &out.finals[0];
        assert!(
            f.rebuffer_secs > 40.0,
            "a cold cache cannot mask a 50 s outage, stalled {}",
            f.rebuffer_secs
        );
        assert_eq!(out.metrics.rebuffer_probability, 1.0);
        assert!(out.metrics.masked_stall_secs < 10.0);
    }

    #[test]
    fn worker_with_faults_is_deterministic_and_sees_outages() {
        let healthy = SimulationConfig::small().with_cache_fraction(0.05);
        let mut faulted = healthy;
        faulted.path_faults = Some(PathFaultModel {
            mtbf_secs: 1_200.0,
            mttr_secs: 120.0,
            residual_capacity_fraction: 0.02,
        });
        let a = SessionWorker::new(faulted, 7).run().unwrap();
        let b = SessionWorker::new(faulted, 7).run().unwrap();
        assert_eq!(a, b);
        assert!(a.metrics.outage_secs > 0.0);
        assert!(a.metrics.masked_stall_secs > 0.0);
        let base = SessionWorker::new(healthy, 7).run().unwrap();
        assert_eq!(base.metrics.outage_secs, 0.0);
        assert_eq!(base.metrics.masked_stall_secs, 0.0);
        assert!(
            a.metrics.avg_rebuffer_secs >= base.metrics.avg_rebuffer_secs,
            "outages cannot make rebuffering better: {} vs {}",
            a.metrics.avg_rebuffer_secs,
            base.metrics.avg_rebuffer_secs
        );
    }

    #[test]
    fn worker_runs_and_uses_cache() {
        let config = SimulationConfig {
            policy: PolicyKind::PartialBandwidth,
            variability: VariabilityKind::Constant,
            ..SimulationConfig::small()
        }
        .with_cache_fraction(0.05);
        let result = SessionWorker::new(config, config.seed).run().unwrap();
        assert_eq!(result.metrics.sessions, 5_000);
        assert!(result.final_cache_used_bytes > 0.0);
        assert!(result.final_cached_objects > 0);
        assert!(result.metrics.traffic_reduction_ratio > 0.0);
        assert!(result.metrics.avg_concurrent_viewers > 1.0);
        assert!(result.metrics.peak_concurrent_viewers >= 2);
        assert!((0.0..=1.0).contains(&result.metrics.rebuffer_probability));
        assert_eq!(
            result.metrics.egress_bins_bytes.len(),
            config.session_egress_bins
        );
    }

    #[test]
    fn worker_is_deterministic_and_seed_sensitive() {
        let config = SimulationConfig::small().with_cache_fraction(0.05);
        let a = SessionWorker::new(config, 7).run().unwrap();
        let b = SessionWorker::new(config, 7).run().unwrap();
        assert_eq!(a, b);
        let c = SessionWorker::new(config, 8).run().unwrap();
        assert_ne!(a.metrics, c.metrics);
    }

    #[test]
    fn caching_reduces_rebuffering_in_session_mode() {
        let no_cache = SimulationConfig {
            cache_size_bytes: 0.0,
            ..SimulationConfig::small()
        };
        let with_cache = SimulationConfig::small().with_cache_fraction(0.10);
        let none = SessionWorker::new(no_cache, 1).run().unwrap().metrics;
        let cached = SessionWorker::new(with_cache, 1).run().unwrap().metrics;
        // Rebuffer *probability* is a coarse binary per-session signal (a
        // prefix often shortens a drain without eliminating it), so the
        // strict improvement is asserted on rebuffer time.
        assert!(
            cached.avg_rebuffer_secs < none.avg_rebuffer_secs,
            "cached {} vs none {}",
            cached.avg_rebuffer_secs,
            none.avg_rebuffer_secs
        );
        assert!(cached.rebuffer_probability <= none.rebuffer_probability);
        assert!(cached.origin_bytes_total < none.origin_bytes_total);
        assert_eq!(none.traffic_reduction_ratio, 0.0);
    }

    /// Under AR(1) the session mode reads capacity until the last playback
    /// end, hours after the last arrival: the series must run that far, or
    /// every path's capacity freezes at its last sample for the trace's
    /// tail.
    #[test]
    fn ar1_capacity_keeps_varying_after_the_last_arrival() {
        let config = SimulationConfig {
            variability: VariabilityKind::MeasuredModerate,
            bandwidth_model: crate::config::BandwidthModel::Ar1,
            ..SimulationConfig::small()
        }
        .with_cache_fraction(0.05);
        let setup = SessionWorker::new(config, 7).setup().unwrap();
        let (catalog, trace) = (&setup.workload.catalog, &setup.workload.trace);
        let last_end = trace
            .session_arrivals(catalog)
            .iter()
            .map(|s| s.time_secs + s.duration_secs)
            .fold(0.0_f64, f64::max);
        let last_arrival = crate::exec::last_arrival_secs(&setup.workload);
        let tail = last_end - last_arrival;
        assert!(
            tail > 10.0 * sc_netmodel::SAMPLE_INTERVAL_SECS,
            "tail {tail} s"
        );
        for path in 0..setup.provider.len() {
            let mut reads: Vec<u64> = (1..=20)
                .map(|k| last_arrival + tail * f64::from(k) / 20.0)
                .map(|t| setup.provider.capacity_bps(path, t).to_bits())
                .collect();
            reads.dedup();
            assert!(
                reads.len() > 1,
                "path {path} is frozen after {last_arrival} s"
            );
        }
    }
}
