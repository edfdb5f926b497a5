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
//!   index) and each re-division replaces that one event. This pops the
//!   same events in the same order as scheduling every member would: the
//!   members' other completions would all have been cancelled before they
//!   could pop, and the surviving events are pushed in the same relative
//!   order, so every `(time, sequence)` tie-break falls the same way.
//! * **Pre-known events are walked, not heaped** — the arrivals (the spec
//!   list, already sorted) and the outage edges (sorted once) are each read
//!   by a cursor; the heap holds only what the run schedules as it goes
//!   (playback ends, completions). Each iteration takes the earliest of
//!   the three, ties going arrival, edge, heap — the `(time, sequence)`
//!   order of pushing the pre-known events first.
//! * **Fluid sessions** — between events every session's download and
//!   playback-buffer state evolve piecewise-linearly, so
//!   [`SessionState::advance`] integrates them in closed form. A session
//!   rebuffers whenever its cumulative playback demand exceeds the bytes
//!   available (cached prefix + downloaded so far). The members of a path
//!   are integrated over the same interval, so [`EgressAccumulator`] cuts
//!   an interval into bins once and every member adds its bytes through
//!   that cut.
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

use crate::bandwidth::{BandwidthProvider, EstimatorBank};
use crate::config::{PathFaultModel, SimError, SimulationConfig};
use crate::event::{assert_finite_time, EventKind, EventQueue};
use crate::exec::{fault_seed, run_grid_with, ParallelExecutor, RunSetup, SharedWorkload};
use crate::metrics::SessionMetrics;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_cache::policy::UtilityPolicy;
use sc_cache::CacheEngine;
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

/// Origin egress accumulated into fixed-width time bins.
///
/// Bytes downloaded during `[from, to]` are spread uniformly over the bins
/// the interval overlaps; time at or beyond the horizon lands in the last
/// bin, so the bins always sum to the total origin bytes.
///
/// Cutting an interval into bins — the first bin it overlaps and the share
/// of the interval inside each bin — depends on `(from, to)` alone, and the
/// event core integrates every member of a path over the same interval. So
/// the accumulator keeps the last cut and reuses it while `(from, to)` are
/// bit-equal: per call what remains is one `bytes * share` product per
/// overlapped bin, the same products added in the same call order as
/// cutting afresh each time, so every bin ends bit-identical.
#[derive(Debug, Clone)]
pub struct EgressAccumulator {
    bins: Vec<f64>,
    horizon_secs: f64,
    /// `horizon_secs / bins.len()`: non-negative, since `horizon_secs` is
    /// clamped (and `f64::max` drops a NaN).
    width: f64,
    /// The bits of the `(from, to)` the cut below was computed for.
    cut_interval: Option<(u64, u64)>,
    /// First bin the cut interval overlaps.
    cut_first: usize,
    /// Share of the cut interval inside bin `cut_first + i`.
    cut_shares: Vec<f64>,
}

/// Two accumulators are equal when they hold the same bins over the same
/// horizon; which interval was cut last is not part of the value.
impl PartialEq for EgressAccumulator {
    fn eq(&self, other: &Self) -> bool {
        self.bins == other.bins && self.horizon_secs == other.horizon_secs
    }
}

impl EgressAccumulator {
    /// Creates `bins` zeroed bins spanning `[0, horizon_secs]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn new(bins: usize, horizon_secs: f64) -> Self {
        assert!(bins > 0, "egress accumulation needs at least one bin");
        let horizon_secs = horizon_secs.max(0.0);
        EgressAccumulator {
            bins: vec![0.0; bins],
            horizon_secs,
            width: horizon_secs / bins as f64,
            cut_interval: None,
            cut_first: 0,
            cut_shares: Vec::new(),
        }
    }

    /// Adds `bytes` transferred uniformly over `[from, to]`.
    pub fn add(&mut self, from: f64, to: f64, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        if self.width <= 0.0 || to <= from {
            // Degenerate horizon or instantaneous transfer: lump the bytes
            // into the bin of the starting instant.
            let idx = self.index_of(from);
            self.bins[idx] += bytes;
            return;
        }
        if self.cut_interval != Some((from.to_bits(), to.to_bits())) {
            self.cut(from, to);
        }
        for (bin, share) in self.bins[self.cut_first..].iter_mut().zip(&self.cut_shares) {
            *bin += bytes * share;
        }
    }

    /// Cuts `[from, to]` (`from < to`, positive bin width) into bins and
    /// keeps the cut.
    fn cut(&mut self, from: f64, to: f64) {
        let n = self.bins.len();
        let width = self.width;
        let span = to - from;
        let first = self.index_of(from);
        let last = self.index_of(to);
        self.cut_interval = Some((from.to_bits(), to.to_bits()));
        self.cut_first = first;
        self.cut_shares.clear();
        for idx in first..=last {
            let bin_start = idx as f64 * width;
            let bin_end = if idx + 1 == n {
                f64::INFINITY
            } else {
                (idx + 1) as f64 * width
            };
            // Adjacent bins cut the interval at the identical float
            // boundary value, so the segments telescope to exactly `span`.
            let seg = (to.min(bin_end) - from.max(bin_start)).max(0.0);
            self.cut_shares.push(seg / span);
        }
    }

    fn index_of(&self, t: f64) -> usize {
        if self.width > 0.0 {
            ((t / self.width) as usize).min(self.bins.len() - 1)
        } else {
            0
        }
    }

    /// The accumulated bins.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Consumes the accumulator, returning the bins.
    pub fn into_bins(self) -> Vec<f64> {
        self.bins
    }
}

/// Pre-generated per-path outage intervals for one simulation run.
///
/// The timeline is drawn *before* the event loop starts — path by path,
/// alternating exponential up (`mtbf_secs`) and down (`mttr_secs`) periods
/// from a single seeded RNG — so the realised outages are a pure function
/// of `(n_paths, horizon, model, seed)` and the simulation stays
/// byte-identical at any `SC_SIM_THREADS`. Down periods that begin before
/// the horizon keep their full sampled length (a transfer outlasting the
/// horizon still sees the repair), while sampling stops at the first
/// up-period start beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct PathFaultTimeline {
    /// Sorted, disjoint `(down_start, down_end)` intervals per path.
    outages: Vec<Vec<(f64, f64)>>,
    /// Capacity multiplier while a path is down, in `(0, 1]`.
    residual: f64,
}

/// One exponential draw with the given mean: `-mean · ln(1 − u)`.
fn exp_sample(rng: &mut StdRng, mean_secs: f64) -> f64 {
    let u: f64 = rng.gen();
    -mean_secs * (1.0 - u).ln()
}

impl PathFaultTimeline {
    /// Draws the outage timeline for `n_paths` paths over
    /// `[0, horizon_secs]` from `model`, seeded by `seed` (derive it from
    /// the run seed via [`crate::exec::fault_seed`]).
    ///
    /// # Panics
    ///
    /// Panics if `model` fails [`PathFaultModel::validate`] — callers are
    /// expected to validate configurations up front.
    pub fn generate(n_paths: usize, horizon_secs: f64, model: PathFaultModel, seed: u64) -> Self {
        model
            .validate()
            .expect("fault model must be validated before timeline generation");
        let mut rng = StdRng::seed_from_u64(seed);
        let outages = (0..n_paths)
            .map(|_| {
                let mut intervals = Vec::new();
                let mut t = exp_sample(&mut rng, model.mtbf_secs);
                while t < horizon_secs {
                    let down = exp_sample(&mut rng, model.mttr_secs);
                    intervals.push((t, t + down));
                    t += down + exp_sample(&mut rng, model.mtbf_secs);
                }
                intervals
            })
            .collect();
        PathFaultTimeline {
            outages,
            residual: model.residual_capacity_fraction,
        }
    }

    /// Builds a timeline from explicit per-path outage intervals — for
    /// hand-crafted scenarios and tests.
    ///
    /// # Panics
    ///
    /// Panics if any path's intervals are unsorted, overlapping, or
    /// ill-formed (`end < start`, non-finite bounds), or if `residual` is
    /// outside `(0, 1]`.
    pub fn from_outages(outages: Vec<Vec<(f64, f64)>>, residual: f64) -> Self {
        assert!(
            residual.is_finite() && residual > 0.0 && residual <= 1.0,
            "residual capacity fraction must lie in (0, 1], got {residual}"
        );
        for intervals in &outages {
            let mut prev_end = f64::NEG_INFINITY;
            for &(start, end) in intervals {
                assert!(
                    start.is_finite() && end.is_finite() && start <= end && start >= prev_end,
                    "outage intervals must be finite, ordered and disjoint"
                );
                prev_end = end;
            }
        }
        PathFaultTimeline { outages, residual }
    }

    /// Number of paths the timeline covers.
    pub fn paths(&self) -> usize {
        self.outages.len()
    }

    /// The sorted `(down_start, down_end)` outage intervals of `path`.
    pub fn outages(&self, path: usize) -> &[(f64, f64)] {
        &self.outages[path]
    }

    /// Capacity multiplier applied while a path is down.
    pub fn residual_capacity_fraction(&self) -> f64 {
        self.residual
    }

    /// Total down-time summed over all paths, clamped to
    /// `[0, horizon_secs]`.
    pub fn outage_secs_within(&self, horizon_secs: f64) -> f64 {
        self.outages
            .iter()
            .flatten()
            .map(|&(start, end)| (end.min(horizon_secs) - start.min(horizon_secs)).max(0.0))
            .sum()
    }
}

/// The evolving state of one session.
///
/// Public so the naive fluid reference model can drive the *identical*
/// closed-form integration ([`SessionState::advance`]) while independently
/// re-deriving shares and completion times from scratch — the bitwise
/// cross-check then isolates the event core's scheduling and bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// The static description of the session.
    pub spec: SessionSpec,
    /// Prefix bytes served from the cache at arrival.
    pub prefix_bytes: f64,
    /// Bytes that must come from the origin (`size - prefix`).
    pub origin_bytes: f64,
    /// Origin bytes downloaded so far.
    pub downloaded_bytes: f64,
    /// Current processor-sharing allocation, in bytes per second (0 when
    /// not transferring).
    pub share_bps: f64,
    /// Simulation time up to which this state has been integrated.
    pub last_update_secs: f64,
    /// Accumulated time during which the playback buffer was drained
    /// (cumulative demand exceeded available bytes), in seconds.
    pub rebuffer_secs: f64,
    /// Playback time spent inside a path outage *without* stalling, in
    /// seconds — the cached prefix (plus whatever buffer the session had
    /// built) masking the fault. Zero unless fault injection is active.
    pub masked_stall_secs: f64,
    /// Whether the session currently holds a share on its path.
    pub transferring: bool,
    /// Time the origin transfer finished (the arrival time for full hits);
    /// `NaN` until then.
    pub transfer_end_secs: f64,
}

impl SessionState {
    /// A session that has just arrived with `prefix_bytes` served from the
    /// cache.
    pub fn begin(spec: SessionSpec, prefix_bytes: f64) -> Self {
        let prefix = prefix_bytes.clamp(0.0, spec.size_bytes);
        SessionState {
            spec,
            prefix_bytes: prefix,
            origin_bytes: spec.size_bytes - prefix,
            downloaded_bytes: 0.0,
            share_bps: 0.0,
            last_update_secs: spec.arrival_secs,
            rebuffer_secs: 0.0,
            masked_stall_secs: 0.0,
            transferring: false,
            transfer_end_secs: f64::NAN,
        }
    }

    /// Integrates the session from its last update instant to `to`:
    /// advances the origin download at the current share, accumulates
    /// playback-buffer drain time, and attributes the downloaded bytes to
    /// `egress`.
    ///
    /// Both the event core and the naive reference model call exactly this
    /// function at exactly the same instants, which is what makes their
    /// outputs bitwise comparable.
    pub fn advance(&mut self, to: f64, egress: &mut EgressAccumulator) {
        self.advance_masked(to, egress, false);
    }

    /// [`SessionState::advance`] with outage attribution: when `path_down`
    /// is set, the playback time of this segment that did *not* stall is
    /// credited to [`SessionState::masked_stall_secs`] — the fault-aware
    /// event loop guarantees no advance segment straddles an outage
    /// boundary, so the flag is well-defined per segment.
    pub fn advance_masked(&mut self, to: f64, egress: &mut EgressAccumulator, path_down: bool) {
        let from = self.last_update_secs;
        if to <= from {
            return;
        }
        let rate = if self.transferring {
            self.share_bps
        } else {
            0.0
        };

        // Rebuffer accumulation is confined to the playback window: the
        // buffer deficit f(t) = demand(t) - available(t) is linear between
        // events, so the time spent with f > 0 has a closed form.
        let play_end = self.spec.arrival_secs + self.spec.duration_secs;
        let rb_end = to.min(play_end);
        if rb_end > from {
            let f0 = self.spec.rate_bps * (from - self.spec.arrival_secs)
                - (self.prefix_bytes + self.downloaded_bytes);
            let slope = self.spec.rate_bps - rate;
            let stalled = positive_measure(f0, slope, rb_end - from);
            self.rebuffer_secs += stalled;
            if path_down {
                self.masked_stall_secs += ((rb_end - from) - stalled).max(0.0);
            }
        }

        if self.transferring && rate > 0.0 {
            let before = self.downloaded_bytes;
            self.downloaded_bytes = (before + rate * (to - from)).min(self.origin_bytes);
            egress.add(from, to, self.downloaded_bytes - before);
        }
        self.last_update_secs = to;
    }

    /// Origin bytes still to download.
    pub fn remaining_bytes(&self) -> f64 {
        (self.origin_bytes - self.downloaded_bytes).max(0.0)
    }
}

/// Stall durations at or below this threshold are float-accumulation dust,
/// not model predictions, and do not count a session as rebuffered.
///
/// The buffer deficit compares `rate · elapsed` (one multiplication)
/// against the downloaded bytes (a sum of `share · dt` segments); when the
/// two are mathematically equal, rounding can leave a residue of a few ulps
/// — observed around 1e-14 s — which would otherwise flip whole sessions
/// into the rebuffer-probability numerator under exactly-sufficient
/// capacity. A nanosecond is five orders of magnitude above that dust and
/// far below any stall a viewer (or the fluid model, at meaningfully scarce
/// capacity) can produce. `SessionFinal::rebuffer_secs` stays raw.
pub const REBUFFER_EPSILON_SECS: f64 = 1e-9;

/// Length of the sub-interval of `[0, len]` on which the linear function
/// `f0 + slope · x` is strictly positive.
fn positive_measure(f0: f64, slope: f64, len: f64) -> f64 {
    if slope == 0.0 {
        return if f0 > 0.0 { len } else { 0.0 };
    }
    let root = (-f0 / slope).clamp(0.0, len);
    if slope > 0.0 {
        len - root
    } else {
        root
    }
}

/// Per-session final state, exposed for the reference cross-check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionFinal {
    /// Prefix bytes the cache served at arrival.
    pub prefix_bytes: f64,
    /// Origin bytes downloaded (equals `size - prefix` once complete).
    pub downloaded_bytes: f64,
    /// Accumulated playback-buffer drain time in seconds.
    pub rebuffer_secs: f64,
    /// Time the origin transfer finished.
    pub transfer_end_secs: f64,
}

/// What the event loop did to produce a run — how much scheduling work,
/// not what was simulated. Kept out of [`SessionMetrics`], whose values are
/// the model's predictions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTelemetry {
    /// Events the run was given or scheduled itself (arrivals, playback
    /// ends, outage edges and completions, cancelled ones included).
    pub events_scheduled: u64,
    /// Completion events cancelled by a later re-division.
    pub events_cancelled: u64,
    /// Largest number of heap entries, tombstones included. The heap holds
    /// only the events a run schedules as it goes — playback ends and
    /// completions; arrivals and outage edges are read from sorted arrays
    /// and take no room in it.
    pub peak_heap_len: u64,
    /// Processor-sharing re-divisions of a path's capacity.
    pub redivisions: u64,
}

impl SessionTelemetry {
    /// Folds another run's counts into a total: sums, and the larger peak.
    pub(crate) fn merge(&mut self, other: SessionTelemetry) {
        self.events_scheduled += other.events_scheduled;
        self.events_cancelled += other.events_cancelled;
        self.peak_heap_len = self.peak_heap_len.max(other.peak_heap_len);
        self.redivisions += other.redivisions;
    }
}

/// Everything a session simulation produces: the aggregate time-weighted
/// metrics plus the per-session final states.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSimOutput {
    /// Aggregate time-weighted metrics.
    pub metrics: SessionMetrics,
    /// Final state of session `i` at index `i` (spec order).
    pub finals: Vec<SessionFinal>,
    /// Scheduling work of the run.
    pub telemetry: SessionTelemetry,
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
/// not below `n_paths`, an event time is not finite, or `capacity` returns
/// a non-positive or non-finite value for a path with active sessions.
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

/// [`simulate_sessions`] with an optional pre-generated path outage
/// timeline.
///
/// While a path is down, `capacity(path, t)` is multiplied by the
/// timeline's residual fraction, and every affected session's
/// processor-sharing allocation is re-divided at the outage boundaries.
/// Sessions that keep playing through a down period accumulate
/// [`SessionState::masked_stall_secs`] — the paper's partial-caching value
/// proposition under failure: the cached prefix masking an origin outage.
/// With `faults = None` this is exactly [`simulate_sessions`], event for
/// event and bit for bit.
///
/// # Panics
///
/// As [`simulate_sessions`]; additionally panics if the timeline covers
/// fewer paths than `n_paths`.
pub fn simulate_sessions_with_faults<C, H>(
    specs: &[SessionSpec],
    n_paths: usize,
    capacity: C,
    hooks: &mut H,
    egress_bins: usize,
    faults: Option<&PathFaultTimeline>,
) -> SessionSimOutput
where
    C: Fn(usize, f64) -> f64,
    H: SessionHooks + ?Sized,
{
    run_event_loop(
        specs,
        n_paths,
        capacity,
        hooks,
        egress_bins,
        playback_horizon(specs),
        faults,
    )
}

/// The observation horizon of a run: the end of the last playback window.
fn playback_horizon(specs: &[SessionSpec]) -> f64 {
    specs
        .iter()
        .map(|s| s.arrival_secs + s.duration_secs)
        .fold(0.0_f64, f64::max)
}

/// The event loop behind [`simulate_sessions_with_faults`], with the
/// [`playback_horizon`] of `specs` passed in so a caller that needs it to
/// draw the outage timeline computes it once.
fn run_event_loop<C, H>(
    specs: &[SessionSpec],
    n_paths: usize,
    capacity: C,
    hooks: &mut H,
    egress_bins: usize,
    horizon_secs: f64,
    faults: Option<&PathFaultTimeline>,
) -> SessionSimOutput
where
    C: Fn(usize, f64) -> f64,
    H: SessionHooks + ?Sized,
{
    assert!(
        specs
            .windows(2)
            .all(|w| w[0].arrival_secs <= w[1].arrival_secs),
        "session specs must be sorted by arrival time"
    );
    assert!(
        specs.iter().all(|s| (s.path as usize) < n_paths),
        "session path index out of range"
    );

    // Egress from transfers that outlast the horizon is clamped into the
    // final bin.
    let mut egress = EgressAccumulator::new(egress_bins, horizon_secs);

    // Everything known before the loop starts — the arrivals and the
    // outage edges — is walked by a cursor instead of being heaped. The
    // order is the one pushing them first would give: arrivals take the
    // sequence numbers `0..specs.len()` in spec order (already sorted),
    // edges the next ones path by path, and whatever the run schedules
    // comes after both, so a pre-known event wins every tie against the
    // heap and an arrival every tie against an edge.
    for (i, spec) in specs.iter().enumerate() {
        assert_finite_time(spec.arrival_secs, EventKind::Arrival(i as u32));
    }
    let mut next_arrival = 0;

    let residual = faults.map_or(1.0, |f| f.residual_capacity_fraction());
    let mut edges: Vec<(f64, EventKind)> = Vec::new();
    if let Some(timeline) = faults {
        assert!(
            timeline.paths() >= n_paths,
            "fault timeline covers {} paths but the simulation has {n_paths}",
            timeline.paths()
        );
        edges.reserve_exact(
            2 * (0..n_paths)
                .map(|p| timeline.outages(p).len())
                .sum::<usize>(),
        );
        for path in 0..n_paths {
            for &(down_start, down_end) in timeline.outages(path) {
                edges.push((down_start, EventKind::PathDown(path as u32)));
                edges.push((down_end, EventKind::PathUp(path as u32)));
            }
        }
        for &(time_secs, kind) in &edges {
            assert_finite_time(time_secs, kind);
        }
        // Stable: edges at one instant keep their path-major order.
        edges.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    let mut next_edge = 0;
    // The heap holds only what the run itself schedules: playback ends and
    // completions.
    let mut queue = EventQueue::new();
    // Whether each path is currently inside an outage; capacity is scaled
    // by `residual` while true.
    let mut path_down: Vec<bool> = vec![false; n_paths];
    // The path's healthy capacity at `now`, scaled by the residual while
    // the path is `down`.
    let path_capacity = |path: usize, now: f64, down: bool| {
        let cap = capacity(path, now);
        assert!(
            cap.is_finite() && cap > 0.0,
            "path {path} capacity must be positive and finite, got {cap}"
        );
        if down {
            cap * residual
        } else {
            cap
        }
    };

    let mut states: Vec<SessionState> = Vec::with_capacity(specs.len());
    // seq of the one pending TransferComplete event per path (its earliest
    // member's); `None` while the path has no member.
    let mut completion_seq: Vec<Option<u64>> = vec![None; n_paths];
    // Active (transferring) session indices per path, ascending — the
    // iteration order of every re-division, part of the determinism
    // contract shared with the reference model.
    let mut path_members: Vec<Vec<u32>> = vec![Vec::new(); n_paths];
    // Every arrived session per path, ascending: what an outage edge has
    // to integrate through the boundary.
    let mut path_arrived: Vec<Vec<u32>> = vec![Vec::new(); n_paths];
    let mut telemetry = SessionTelemetry::default();

    let mut viewers: u64 = 0;
    let mut peak_viewers: u64 = 0;
    let mut viewer_seconds = 0.0;
    let mut last_event_secs = 0.0;

    loop {
        // The heap only grows while an event is handled, so its length
        // just before each pop is its peak.
        telemetry.peak_heap_len = telemetry.peak_heap_len.max(queue.heap_len() as u64);
        // The earliest of the three sources under the heap's own
        // comparator; on a tie, arrival before edge before heap. A
        // completion carries the sequence number it was pushed under.
        let arrival = specs.get(next_arrival).map(|s| s.arrival_secs);
        let edge = edges.get(next_edge).map(|e| e.0);
        let heap = queue.peek_time();
        let (now, kind, heap_seq) = if due_no_later(arrival, edge) && due_no_later(arrival, heap) {
            let s = next_arrival;
            next_arrival += 1;
            (specs[s].arrival_secs, EventKind::Arrival(s as u32), None)
        } else if due_no_later(edge, heap) {
            let (time_secs, kind) = edges[next_edge];
            next_edge += 1;
            (time_secs, kind, None)
        } else if let Some(event) = queue.pop() {
            (event.time_secs, event.kind, Some(event.seq))
        } else {
            break;
        };
        viewer_seconds += viewers as f64 * (now - last_event_secs);
        last_event_secs = now;

        match kind {
            EventKind::Arrival(s) => {
                let index = s as usize;
                let spec = &specs[index];
                let path = spec.path as usize;
                path_arrived[path].push(s);

                let cap = path_capacity(path, now, path_down[path]);
                let share_if_joined = cap / (path_members[path].len() + 1) as f64;
                let prefix = hooks.on_arrival(index, spec, share_if_joined);

                debug_assert_eq!(states.len(), index);
                let mut state = SessionState::begin(*spec, prefix);
                viewers += 1;
                peak_viewers = peak_viewers.max(viewers);
                queue.push(
                    spec.arrival_secs + spec.duration_secs,
                    EventKind::PlaybackEnd(index as u32),
                );

                if state.origin_bytes > 0.0 {
                    state.transferring = true;
                    states.push(state);
                    // Bring the existing members up to now at their old
                    // shares, admit the newcomer (highest index, so the
                    // member list stays ascending), then re-divide.
                    advance_path(
                        &path_members[path],
                        &mut states,
                        now,
                        &mut egress,
                        path_down[path],
                    );
                    path_members[path].push(s);
                    reshare_path(
                        &path_members[path],
                        &mut states,
                        &mut completion_seq[path],
                        &mut queue,
                        cap,
                        now,
                        &mut telemetry,
                    );
                } else {
                    // Full cache hit: no origin transfer at all.
                    state.transfer_end_secs = now;
                    states.push(state);
                }
            }
            EventKind::TransferComplete(s) => {
                let index = s as usize;
                let path = states[index].spec.path as usize;
                // Stale completions are cancelled inside the queue, so the
                // popped one is the path's pending event.
                debug_assert_eq!(completion_seq[path], heap_seq);
                completion_seq[path] = None;
                advance_path(
                    &path_members[path],
                    &mut states,
                    now,
                    &mut egress,
                    path_down[path],
                );

                let state = &mut states[index];
                state.downloaded_bytes = state.origin_bytes;
                state.transferring = false;
                state.share_bps = 0.0;
                state.transfer_end_secs = now;
                let elapsed = now - state.spec.arrival_secs;
                let origin = state.origin_bytes;
                let spec = state.spec;
                if elapsed > 0.0 {
                    hooks.on_transfer_complete(index, &spec, origin / elapsed);
                }

                let members = &mut path_members[path];
                let pos = members
                    .binary_search(&s)
                    .expect("completing session is a path member");
                members.remove(pos);
                if !members.is_empty() {
                    reshare_path(
                        &path_members[path],
                        &mut states,
                        &mut completion_seq[path],
                        &mut queue,
                        path_capacity(path, now, path_down[path]),
                        now,
                        &mut telemetry,
                    );
                }
            }
            EventKind::PlaybackEnd(s) => {
                // Integrate the tail of the playback window (rebuffer time
                // never accrues past it) before the viewer departs.
                let path = states[s as usize].spec.path as usize;
                states[s as usize].advance_masked(now, &mut egress, path_down[path]);
                viewers -= 1;
            }
            EventKind::PathDown(p) | EventKind::PathUp(p) => {
                let path = p as usize;
                let goes_down = matches!(kind, EventKind::PathDown(_));
                // Integrate *every* arrived session on the path — members
                // and buffer-only players alike — through the boundary
                // under the outgoing state, so no advance segment ever
                // straddles an outage edge (the invariant masked-stall
                // attribution rests on). Sessions past their window are
                // no-ops inside advance.
                advance_path(
                    &path_arrived[path],
                    &mut states,
                    now,
                    &mut egress,
                    path_down[path],
                );
                path_down[path] = goes_down;
                if !path_members[path].is_empty() {
                    reshare_path(
                        &path_members[path],
                        &mut states,
                        &mut completion_seq[path],
                        &mut queue,
                        path_capacity(path, now, goes_down),
                        now,
                        &mut telemetry,
                    );
                }
            }
        }
    }

    let finals: Vec<SessionFinal> = states
        .iter()
        .map(|s| SessionFinal {
            prefix_bytes: s.prefix_bytes,
            downloaded_bytes: s.downloaded_bytes,
            rebuffer_secs: s.rebuffer_secs,
            transfer_end_secs: s.transfer_end_secs,
        })
        .collect();

    let mut metrics = SessionMetrics::from_sessions(
        &states,
        viewer_seconds,
        peak_viewers,
        horizon_secs,
        egress.into_bins(),
    );
    metrics.outage_secs = faults.map_or(0.0, |f| f.outage_secs_within(horizon_secs));
    telemetry.events_scheduled = (specs.len() + edges.len()) as u64 + queue.scheduled();
    SessionSimOutput {
        metrics,
        finals,
        telemetry,
    }
}

/// Whether an event due at `a` pops no later than one due at `b` when `a`
/// was scheduled first: the heap's `(time, sequence)` order. `None` is an
/// exhausted source.
fn due_no_later(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.total_cmp(&b).is_le(),
        (a, _) => a.is_some(),
    }
}

/// Integrates the listed sessions of a path up to `now` at their current
/// shares.
fn advance_path(
    members: &[u32],
    states: &mut [SessionState],
    now: f64,
    egress: &mut EgressAccumulator,
    path_down: bool,
) {
    for &m in members {
        states[m as usize].advance_masked(now, egress, path_down);
    }
}

/// Re-divides a path's capacity among its members (non-empty, already
/// advanced to `now`) and replaces the path's pending completion event
/// with that of the member now due to finish first.
fn reshare_path(
    members: &[u32],
    states: &mut [SessionState],
    completion_seq: &mut Option<u64>,
    queue: &mut EventQueue,
    capacity_bps: f64,
    now: f64,
    telemetry: &mut SessionTelemetry,
) {
    let share = capacity_bps / members.len() as f64;
    let mut earliest = (f64::INFINITY, u32::MAX);
    for &m in members {
        let state = &mut states[m as usize];
        state.share_bps = share;
        let completes = now + state.remaining_bytes() / share;
        // Checked for every member, not just the one that gets scheduled.
        assert!(
            completes.is_finite(),
            "completion time must be finite, got {completes} for session {m}"
        );
        // Strictly earlier only: among equal times the lowest index wins,
        // as its event would have had the lowest sequence number.
        if completes.total_cmp(&earliest.0).is_lt() {
            earliest = (completes, m);
        }
    }
    if let Some(seq) = completion_seq.take() {
        telemetry.events_cancelled += u64::from(queue.cancel(seq));
    }
    let (completes, m) = earliest;
    *completion_seq = Some(queue.push(completes, EventKind::TransferComplete(m)));
    telemetry.redivisions += 1;
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

/// The cache + estimator hooks of the workload-driven session mode.
struct CacheHooks<'a> {
    cache: &'a mut CacheEngine<Box<dyn UtilityPolicy + Send + Sync>>,
    estimators: &'a mut EstimatorBank,
    provider: &'a BandwidthProvider,
    metas: &'a [sc_cache::ObjectMeta],
}

impl SessionHooks for CacheHooks<'_> {
    fn on_arrival(&mut self, _index: usize, spec: &SessionSpec, share_bps: f64) -> f64 {
        let path = spec.path as usize;
        let meta = &self.metas[path];
        let oracle = self.provider.estimated_bps(path);
        // The estimator's "current bandwidth" is the fair share this
        // session would get — what an active probe observes under
        // contention.
        let estimated = self.estimators.decision_bps(path, oracle, share_bps);
        let outcome = self.cache.on_access_slot(spec.path, meta, estimated);
        outcome.cached_bytes_before
    }

    fn on_transfer_complete(&mut self, _index: usize, spec: &SessionSpec, throughput_bps: f64) {
        self.estimators
            .observe_transfer(spec.path as usize, throughput_bps);
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

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configuration under test.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// Executes the session-mode simulation run.
    ///
    /// Unlike the per-request mode, session metrics are time-weighted over
    /// the whole trace; `warmup_fraction` is a per-request-mode concept and
    /// is ignored here (the contention transient *is* part of the measured
    /// signal).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the configuration is invalid.
    pub fn run(&self) -> Result<SessionRunResult, SimError> {
        self.run_traced().map(|(result, _)| result)
    }

    /// [`SessionWorker::run`] plus the run's scheduling telemetry.
    fn run_traced(&self) -> Result<(SessionRunResult, SessionTelemetry), SimError> {
        let config = &self.config;
        // The same set-up as the per-request mode, hence the same path
        // capacities for a seed.
        let RunSetup {
            workload,
            provider,
            mut estimators,
            mut cache,
            ..
        } = RunSetup::new(config, self.seed, self.workload.as_ref())?;
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

        let mut hooks = CacheHooks {
            cache: &mut cache,
            estimators: &mut estimators,
            provider: &provider,
            metas: workload.metas(),
        };
        // The outage timeline (if any) is drawn up front from its own
        // derived seed, spanning the playback horizon of the trace.
        let horizon_secs = playback_horizon(&specs);
        let timeline = config.path_faults.map(|model| {
            PathFaultTimeline::generate(catalog.len(), horizon_secs, model, fault_seed(self.seed))
        });
        let output = run_event_loop(
            &specs,
            catalog.len(),
            |path, time| provider.capacity_bps(path, time),
            &mut hooks,
            config.session_egress_bins,
            horizon_secs,
            timeline.as_ref(),
        );

        let result = SessionRunResult {
            metrics: output.metrics,
            final_cache_used_bytes: cache.used_bytes(),
            final_cached_objects: cache.len(),
        };
        Ok((result, output.telemetry))
    }
}

/// Runs the full `configs × runs` grid in session mode and returns one
/// seed-averaged [`SessionMetrics`] per configuration, in configuration
/// order — the session-mode analogue of [`crate::exec::run_grid`], with
/// the same workload deduplication and determinism guarantees.
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
    use super::*;
    use crate::config::VariabilityKind;
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
        // re-divisions (B's completion leaves the path empty), each pushing
        // one completion; only the one pending at B's arrival is cancelled.
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
                // At B's arrival: A's playback end, A's cancelled and new
                // completions, B's playback end.
                peak_heap_len: 4,
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
    fn egress_accumulator_distributes_and_clamps() {
        let mut acc = EgressAccumulator::new(4, 100.0);
        acc.add(0.0, 50.0, 100.0);
        assert!((acc.bins()[0] - 50.0).abs() < 1e-12);
        assert!((acc.bins()[1] - 50.0).abs() < 1e-12);
        // Beyond the horizon: everything lands in the last bin.
        acc.add(150.0, 250.0, 40.0);
        assert!((acc.bins()[3] - 40.0).abs() < 1e-12);
        // Degenerate interval: lumped at the start instant.
        acc.add(60.0, 60.0, 7.0);
        assert!((acc.bins()[2] - 7.0).abs() < 1e-12);
        // Zero bytes are a no-op.
        acc.add(0.0, 10.0, 0.0);
        let sum: f64 = acc.bins().iter().sum();
        assert!((sum - 147.0).abs() < 1e-12);
    }

    /// `EgressAccumulator::add` as it was before the cut was kept: bin
    /// width, both bin indices and every share re-derived on each call.
    /// The bitwise reference for the reuse.
    struct RecutEveryCall {
        bins: Vec<f64>,
        horizon_secs: f64,
    }

    impl RecutEveryCall {
        fn new(bins: usize, horizon_secs: f64) -> Self {
            RecutEveryCall {
                bins: vec![0.0; bins],
                horizon_secs: horizon_secs.max(0.0),
            }
        }

        fn add(&mut self, from: f64, to: f64, bytes: f64) {
            if bytes <= 0.0 {
                return;
            }
            let n = self.bins.len();
            let width = self.horizon_secs / n as f64;
            if width <= 0.0 || to <= from {
                let idx = self.index_of(from, width);
                self.bins[idx] += bytes;
                return;
            }
            let span = to - from;
            let first = self.index_of(from, width);
            let last = self.index_of(to, width);
            for idx in first..=last {
                let bin_start = idx as f64 * width;
                let bin_end = if idx + 1 == n {
                    f64::INFINITY
                } else {
                    (idx + 1) as f64 * width
                };
                let seg = (to.min(bin_end) - from.max(bin_start)).max(0.0);
                self.bins[idx] += bytes * (seg / span);
            }
        }

        fn index_of(&self, t: f64, width: f64) -> usize {
            if width > 0.0 {
                ((t / width) as usize).min(self.bins.len() - 1)
            } else {
                0
            }
        }
    }

    #[test]
    fn reused_cut_is_bitwise_the_cut_made_afresh() {
        // Every (bins, horizon) shape the early returns and the clamp see:
        // ordinary, one bin, a width that is not a dyadic fraction, and
        // the degenerate horizons (zero, negative, NaN — all width 0).
        let shapes = [
            (8, 100.0),
            (1, 100.0),
            (7, 33.3),
            (64, 86_400.0),
            (5, 0.0),
            (5, -3.0),
            (5, f64::NAN),
        ];
        for (shape, &(n, horizon)) in shapes.iter().enumerate() {
            let width = horizon.max(0.0) / n as f64;
            // Intervals built to sit on the reuse's edges: inside one bin,
            // across 2 … all bins, ending beyond the horizon, starting
            // beyond it, a bin boundary as `from` and as `to`, `to == from`
            // and `to < from`, and the two zeros, which are equal as
            // numbers and different as bits.
            let mut intervals = vec![
                (0.1 * width, 0.9 * width),
                (0.5 * width, 1.5 * width),
                (0.25 * width, 3.75 * width),
                (0.0, horizon),
                (-0.0, horizon),
                (0.0, 0.5 * width),
                (-0.0, 0.5 * width),
                (0.5 * width, 2.0 * horizon),
                (1.5 * horizon, 2.5 * horizon),
                (2.0 * width, 2.5 * width),
                (1.3 * width, 3.0 * width),
                (3.0 * width, 3.0 * width),
                (4.0 * width, 1.0 * width),
                (-2.0 * width, 0.5 * width),
            ];
            let mut rng = StdRng::seed_from_u64(shape as u64);
            intervals.extend((0..16).map(|_| {
                let from = rng.gen::<f64>() * 1.3 * horizon;
                (from, from + rng.gen::<f64>() * 1.1 * horizon)
            }));

            let mut kept = EgressAccumulator::new(n, horizon);
            let mut afresh = RecutEveryCall::new(n, horizon);
            let mut check = |kept: &mut EgressAccumulator, from: f64, to: f64, bytes: f64| {
                kept.add(from, to, bytes);
                afresh.add(from, to, bytes);
                for (i, (a, b)) in kept.bins().iter().zip(&afresh.bins).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "shape {shape}, bin {i} after add({from}, {to}, {bytes}): {a} vs {b}"
                    );
                }
            };
            for step in 0..4_000 {
                let a = intervals[rng.gen_range(0..intervals.len())];
                let b = intervals[rng.gen_range(0..intervals.len())];
                let mut bytes = || 1.0 + rng.gen::<f64>() * 1e11;
                match step % 4 {
                    // A run over one interval, as the members of a path
                    // give: different bytes each time, and a member that
                    // moved nothing (or a negative rounding residue)
                    // between two that did.
                    0 => {
                        for (i, scale) in [1.0, 3.0, 0.0, 0.5, -1.0, 2.0].iter().enumerate() {
                            check(&mut kept, a.0, a.1, bytes() * scale * (i + 1) as f64);
                        }
                    }
                    // A member whose own playback end fell inside the
                    // interval has a later `from`: A A B A.
                    1 => {
                        for (from, to) in [a, a, b, a] {
                            check(&mut kept, from, to, bytes());
                        }
                    }
                    // Same `from`, different `to`, and the reverse.
                    2 => {
                        check(&mut kept, a.0, a.1, bytes());
                        check(&mut kept, a.0, b.1, bytes());
                        check(&mut kept, b.0, b.1, bytes());
                        check(&mut kept, a.0, b.1, bytes());
                    }
                    _ => check(&mut kept, a.0, a.1, bytes()),
                }
            }
            let total: f64 = kept.bins().iter().sum();
            assert!(total > 0.0, "shape {shape} accumulated nothing");
            // A NaN bound is cut like any other interval, twice running
            // included, and poisons the same bins the same way.
            for (from, to) in [(0.5 * width, f64::NAN), (f64::NAN, 0.5 * width)] {
                check(&mut kept, from, to, 1.0);
                check(&mut kept, from, to, 2.0);
            }
        }
    }

    #[test]
    fn equal_accumulators_may_have_cut_different_intervals_last() {
        let mut a = EgressAccumulator::new(4, 100.0);
        let mut b = EgressAccumulator::new(4, 100.0);
        a.add(0.0, 50.0, 10.0);
        a.add(50.0, 100.0, 10.0);
        b.add(50.0, 100.0, 10.0);
        b.add(0.0, 50.0, 10.0);
        assert_eq!(a, b);
        b.add(0.0, 50.0, 1.0);
        assert_ne!(a, b);
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
        // One session, two outages: 1 arrival + 4 edges walked by the
        // cursor, 1 playback end + re-divisions on the heap.
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
        // The playback end, a completion and the tombstone of the one it
        // replaced; an arrival or an edge waiting its turn takes no room.
        assert_eq!(out.telemetry.peak_heap_len, 3);
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
}
