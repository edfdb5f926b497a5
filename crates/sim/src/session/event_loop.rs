//! The event loop: the four-source merge, one method per event kind, and
//! the processor-sharing re-division of a path.

use super::egress::{EgressAccumulator, EgressPass};
use super::faults::PathFaultTimeline;
use super::state::SessionState;
use super::{SessionHooks, SessionSpec};
use crate::event::{assert_finite_time, EventKind, EventQueue};
use crate::metrics::SessionMetrics;

/// What the event loop did to produce a run — how much scheduling work,
/// not what was simulated. Kept out of [`SessionMetrics`], whose values are
/// the model's predictions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTelemetry {
    /// Events the run was given or scheduled itself (arrivals, playback
    /// ends, outage edges and completions, cancelled ones included).
    pub events_scheduled: u64,
    /// Completion events replaced by a later re-division before they
    /// popped.
    pub events_cancelled: u64,
    /// Largest number of heap entries. The heap holds only the
    /// completions, one per path with a transfer in flight, which each
    /// re-division re-keys in place, so this is at most the number of
    /// paths; arrivals, outage edges and playback ends are read from
    /// sorted arrays and take no room in it.
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
    pub finals: Vec<SessionState>,
    /// Scheduling work of the run.
    pub telemetry: SessionTelemetry,
}

/// [`simulate_sessions`](super::simulate_sessions) with an optional
/// pre-generated path outage timeline.
///
/// While a path is down, `capacity(path, t)` is multiplied by the
/// timeline's residual fraction, and every affected session's
/// processor-sharing allocation is re-divided at the outage boundaries.
/// Sessions that keep playing through a down period accumulate
/// [`SessionState::masked_stall_secs`] — the paper's partial-caching value
/// proposition under failure: the cached prefix masking an origin outage.
/// With `faults = None` this is exactly
/// [`simulate_sessions`](super::simulate_sessions), event for event and
/// bit for bit.
///
/// # Panics
///
/// As [`simulate_sessions`](super::simulate_sessions) — unsorted specs, a
/// path index out of range, a non-finite event time (an outage edge or an
/// overflowing playback end included), a negative or non-finite duration,
/// a bad capacity — and additionally if the timeline covers fewer paths
/// than `n_paths`. As there, everything but `capacity` is checked before
/// the loop runs.
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
    // Egress from transfers that outlast the horizon is clamped into the
    // final bin.
    let horizon_secs = playback_horizon(specs);
    let egress = EgressAccumulator::new(egress_bins, horizon_secs);
    let mut run = EventLoop::new(specs, n_paths, capacity, hooks, egress, faults);
    while let Some((now, kind)) = run.next_event() {
        run.viewer_seconds += run.viewers as f64 * (now - run.last_event_secs);
        run.last_event_secs = now;
        match kind {
            EventKind::Arrival(s) => run.arrival(s, now),
            EventKind::TransferComplete(s) => run.completion(s, now),
            EventKind::PlaybackEnd(s) => run.playback_end(s, now),
            EventKind::PathDown(p) => run.edge(p, true, now),
            EventKind::PathUp(p) => run.edge(p, false, now),
        }
    }

    let mut metrics = SessionMetrics::from_sessions(
        &run.states,
        run.viewer_seconds,
        run.peak_viewers,
        horizon_secs,
        run.egress.into_bins(),
    );
    metrics.outage_secs = faults.map_or(0.0, |f| f.outage_secs_within(horizon_secs));
    run.telemetry.events_scheduled = (specs.len() + run.edges.len()) as u64 + run.queue.scheduled();
    SessionSimOutput {
        metrics,
        finals: run.states,
        telemetry: run.telemetry,
    }
}

/// The observation horizon of a run: the end of the last playback window.
pub(super) fn playback_horizon(specs: &[SessionSpec]) -> f64 {
    specs
        .iter()
        .map(|s| s.arrival_secs + s.duration_secs)
        .fold(0.0_f64, f64::max)
}

/// The state of one run between events.
///
/// The arrivals and the outage edges are walked by a cursor instead of
/// being heaped. The order is the one pushing them first would give:
/// arrivals take the sequence numbers `0..specs.len()` in spec order
/// (already sorted), edges the next ones path by path, and whatever the
/// run schedules comes after both, so an arrival or an edge wins every tie
/// against a playback end or a completion, and an arrival every tie
/// against an edge. The playback ends are known before the loop too, but
/// not their sequence numbers: an end takes the next one when its session
/// arrives, as pushing it there would, and is walked by a cursor over the
/// ends sorted by `(time, index)`. Arrivals are handled in index order, so
/// among equal end times index order is sequence order.
struct EventLoop<'a, C, H: ?Sized> {
    specs: &'a [SessionSpec],
    capacity: C,
    hooks: &'a mut H,
    /// Capacity multiplier while a path is down.
    residual: f64,
    /// Outage edges by time; at one instant, path-major.
    edges: Vec<(f64, EventKind)>,
    /// Playback ends sorted by `(time, index)`.
    ends: Vec<(f64, u32)>,
    next_edge: usize,
    next_end: usize,
    /// `end_seqs[i]`: the sequence number session `i`'s end took at its
    /// arrival.
    end_seqs: Vec<u64>,
    /// The completions, at most one per path, keyed by the path.
    queue: EventQueue,
    /// Whether each path is inside an outage; its capacity is scaled by
    /// `residual` while true.
    path_down: Vec<bool>,
    /// The arrived sessions, in arrival order: the next arrival is
    /// `specs[states.len()]`.
    states: Vec<SessionState>,
    egress: EgressAccumulator,
    /// Active (transferring) session indices per path, ascending — the
    /// iteration order of every re-division, part of the determinism
    /// contract shared with the reference model. A path with members has
    /// one pending completion event.
    path_members: Vec<Vec<u32>>,
    /// Every arrived session per path, ascending: what an outage edge has
    /// to integrate through the boundary. Only outage edges read it, so it
    /// is filled only when there are some.
    path_arrived: Vec<Vec<u32>>,
    telemetry: SessionTelemetry,
    viewers: u64,
    peak_viewers: u64,
    viewer_seconds: f64,
    last_event_secs: f64,
}

impl<'a, C, H> EventLoop<'a, C, H>
where
    C: Fn(usize, f64) -> f64,
    H: SessionHooks + ?Sized,
{
    /// Checks everything but `capacity` and lays out the pre-known events,
    /// so no hook is called on a run rejected for its input.
    fn new(
        specs: &'a [SessionSpec],
        n_paths: usize,
        capacity: C,
        hooks: &'a mut H,
        egress: EgressAccumulator,
        faults: Option<&PathFaultTimeline>,
    ) -> Self {
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
        let mut ends: Vec<(f64, u32)> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                assert_finite_time(spec.arrival_secs, EventKind::Arrival(i as u32));
                // A negative duration would put the playback end before its
                // arrival, running the clock backwards.
                assert!(
                    spec.duration_secs.is_finite() && spec.duration_secs >= 0.0,
                    "session duration must be finite and non-negative, got {} for session {i}",
                    spec.duration_secs
                );
                let end = spec.arrival_secs + spec.duration_secs;
                // Finite arrival and duration can still sum to infinity.
                assert_finite_time(end, EventKind::PlaybackEnd(i as u32));
                (end, i as u32)
            })
            .collect();
        let edges = outage_edges(n_paths, faults);
        ends.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        EventLoop {
            specs,
            capacity,
            hooks,
            residual: faults.map_or(1.0, |f| f.residual_capacity_fraction()),
            edges,
            ends,
            next_edge: 0,
            next_end: 0,
            end_seqs: Vec::with_capacity(specs.len()),
            queue: EventQueue::new(),
            path_down: vec![false; n_paths],
            states: Vec::with_capacity(specs.len()),
            egress,
            path_members: vec![Vec::new(); n_paths],
            path_arrived: vec![Vec::new(); n_paths],
            telemetry: SessionTelemetry::default(),
            viewers: 0,
            peak_viewers: 0,
            viewer_seconds: 0.0,
            last_event_secs: 0.0,
        }
    }

    /// Takes the earliest of the four sources under the heap's own
    /// comparator; on a tie, arrival before edge before the two the run
    /// schedules, which go by sequence number. `None` once all are spent.
    fn next_event(&mut self) -> Option<(f64, EventKind)> {
        // The heap only grows while an event is handled, so its length
        // just before each pop is its peak.
        self.telemetry.peak_heap_len = self.telemetry.peak_heap_len.max(self.queue.len() as u64);
        let arrival = self.specs.get(self.states.len()).map(|s| s.arrival_secs);
        let edge = self.edges.get(self.next_edge).map(|e| e.0);
        let end = self.ends.get(self.next_end).map(|e| e.0);
        let top = self.queue.peek();
        let heap = top.map(|e| e.time_secs);
        if due_no_later(arrival, edge) && due_no_later(arrival, end) && due_no_later(arrival, heap)
        {
            let s = self.states.len();
            Some((self.specs[s].arrival_secs, EventKind::Arrival(s as u32)))
        } else if due_no_later(edge, end) && due_no_later(edge, heap) {
            self.next_edge += 1;
            Some(self.edges[self.next_edge - 1])
        } else if let Some(&(time_secs, s)) =
            self.ends.get(self.next_end).filter(|&&(time_secs, s)| {
                // On a time tie the end's arrival, no later and winning ties,
                // has been handled, so its sequence number exists.
                top.is_none_or(|top| {
                    time_secs
                        .total_cmp(&top.time_secs)
                        .then_with(|| self.end_seqs[s as usize].cmp(&top.seq))
                        .is_lt()
                })
            })
        {
            self.next_end += 1;
            Some((time_secs, EventKind::PlaybackEnd(s)))
        } else {
            self.queue.pop().map(|event| (event.time_secs, event.kind))
        }
    }

    /// Session `s` arrives: the hooks decide its prefix, its playback end
    /// takes its sequence number, and unless the cache serves it whole it
    /// joins its path, which is re-divided.
    fn arrival(&mut self, s: u32, now: f64) {
        let index = s as usize;
        let spec = &self.specs[index];
        let path = spec.path as usize;
        if !self.edges.is_empty() {
            self.path_arrived[path].push(s);
        }

        let cap = self.path_capacity(path, now);
        let share_if_joined = cap / (self.path_members[path].len() + 1) as f64;
        let prefix = self.hooks.on_arrival(index, spec, share_if_joined);

        let mut state = SessionState::begin(*spec, prefix);
        self.viewers += 1;
        self.peak_viewers = self.peak_viewers.max(self.viewers);
        // The playback end is walked from `ends`: only its place in the
        // sequence is taken here.
        self.end_seqs.push(self.queue.reserve_seq());

        if state.origin_bytes > 0.0 {
            state.transferring = true;
            self.states.push(state);
            // Admit the newcomer (highest index, so the member list stays
            // ascending; integrated from `now`, so the pass moves nothing
            // of it) and re-divide: the existing members are brought up to
            // now at their old shares.
            self.path_members[path].push(s);
            self.reshare(path, None, now, Some(cap));
        } else {
            // Full cache hit: no origin transfer at all.
            state.transfer_end_secs = now;
            self.states.push(state);
        }
    }

    /// Session `s`'s origin transfer completes: its path is re-divided
    /// among the others, and the hooks learn the transfer's throughput.
    fn completion(&mut self, s: u32, now: f64) {
        let index = s as usize;
        let path = self.states[index].spec.path as usize;
        // The popped event was the path's pending one, so the path has
        // none until the re-division schedules the next.
        self.reshare(path, Some(s), now, None);

        let state = &mut self.states[index];
        state.downloaded_bytes = state.origin_bytes;
        state.transferring = false;
        state.share_bps = 0.0;
        state.transfer_end_secs = now;
        let elapsed = now - state.spec.arrival_secs;
        if elapsed > 0.0 {
            self.hooks
                .on_transfer_complete(index, &state.spec, state.origin_bytes / elapsed);
        }

        let members = &mut self.path_members[path];
        let pos = members
            .binary_search(&s)
            .expect("completing session is a path member");
        members.remove(pos);
    }

    /// Session `s`'s playback window ends: the tail of the window is
    /// integrated (rebuffer time never accrues past it) before the viewer
    /// departs.
    fn playback_end(&mut self, s: u32, now: f64) {
        let state = &mut self.states[s as usize];
        let path = state.spec.path as usize;
        state.advance_masked(now, &mut self.egress, self.path_down[path]);
        self.viewers -= 1;
    }

    /// Path `p` goes down or comes back up.
    fn edge(&mut self, p: u32, goes_down: bool, now: f64) {
        let path = p as usize;
        // Integrate *every* arrived session on the path — members and
        // buffer-only players alike — through the boundary under the
        // outgoing state, so no advance segment ever straddles an outage
        // edge (the invariant masked-stall attribution rests on). Sessions
        // past their window are no-ops inside the integration.
        advance_path(
            &self.path_arrived[path],
            &mut self.states,
            now,
            &mut self.egress,
            self.path_down[path],
        );
        self.path_down[path] = goes_down;
        // The members are at `now` already: the re-division's pass only
        // re-shares them.
        self.reshare(path, None, now, None);
    }

    /// The path's healthy capacity at `now`, scaled by the residual while
    /// the path is down.
    fn path_capacity(&self, path: usize, now: f64) -> f64 {
        let cap = (self.capacity)(path, now);
        assert!(
            cap.is_finite() && cap > 0.0,
            "path {path} capacity must be positive and finite, got {cap}"
        );
        if self.path_down[path] {
            cap * self.residual
        } else {
            cap
        }
    }

    /// Re-divides `path` among its members and makes the earliest of them
    /// the path's pending completion, re-keying the one it had in place:
    /// one re-division. With no member left to share it, the path keeps no
    /// event.
    ///
    /// Each of the path's sharers gets its capacity over their number;
    /// `completing`, the member whose transfer completes at `now`, is
    /// integrated in its place but takes no share (the caller removes it).
    /// `cap` is the capacity at `now` if the caller has read it already;
    /// otherwise it is read here, and only when someone shares.
    fn reshare(&mut self, path: usize, completing: Option<u32>, now: f64, cap: Option<f64>) {
        let members = &self.path_members[path];
        let sharing = members.len() - usize::from(completing.is_some());
        let share = if sharing > 0 {
            cap.unwrap_or_else(|| self.path_capacity(path, now)) / sharing as f64
        } else {
            0.0
        };
        let earliest = redivide(
            members,
            completing,
            share,
            now,
            self.path_down[path],
            &mut self.states,
            &mut self.egress,
        );
        if let Some((completes, member)) = earliest {
            let (_, replaced) =
                self.queue
                    .push_keyed(path as u32, completes, EventKind::TransferComplete(member));
            self.telemetry.events_cancelled += u64::from(replaced);
            self.telemetry.redivisions += 1;
        }
    }
}

/// The outage edges of `faults` on the first `n_paths` paths, each checked
/// finite, sorted by time; edges at one instant keep their path-major
/// order.
fn outage_edges(n_paths: usize, faults: Option<&PathFaultTimeline>) -> Vec<(f64, EventKind)> {
    let Some(timeline) = faults else {
        return Vec::new();
    };
    assert!(
        timeline.paths() >= n_paths,
        "fault timeline covers {} paths but the simulation has {n_paths}",
        timeline.paths()
    );
    let mut edges = Vec::new();
    for path in 0..n_paths as u32 {
        for &(down, up) in timeline.outages(path as usize) {
            edges.push((down, EventKind::PathDown(path)));
            edges.push((up, EventKind::PathUp(path)));
        }
    }
    for &(time_secs, kind) in &edges {
        assert_finite_time(time_secs, kind);
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0));
    edges
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
    sessions: &[u32],
    states: &mut [SessionState],
    now: f64,
    egress: &mut EgressAccumulator,
    path_down: bool,
) {
    let mut pass = EgressPass::new(egress);
    for &m in sessions {
        let state = &mut states[m as usize];
        let from = state.last_update_secs;
        let downloaded = state.integrate(now, path_down);
        pass.add(from, now, downloaded);
    }
    pass.finish();
}

/// Re-divides a path among its members in one pass, in ascending index
/// order: each member is integrated up to `now` at its old share, then
/// given `share_bps`. Returns the member due to finish first and when —
/// ties going to the lowest index, whose event would have had the lowest
/// sequence number — or `None` when no member takes a share.
///
/// `completing`, the member whose transfer completes at `now`, is
/// integrated in its place but takes no share; the caller removes it.
fn redivide(
    members: &[u32],
    completing: Option<u32>,
    share_bps: f64,
    now: f64,
    path_down: bool,
    states: &mut [SessionState],
    egress: &mut EgressAccumulator,
) -> Option<(f64, u32)> {
    let mut pass = EgressPass::new(egress);
    let mut earliest = None;
    for &m in members {
        let state = &mut states[m as usize];
        let from = state.last_update_secs;
        let downloaded = state.integrate(now, path_down);
        pass.add(from, now, downloaded);
        if Some(m) == completing {
            continue;
        }
        state.share_bps = share_bps;
        let completes = now + state.remaining_bytes() / share_bps;
        // Checked for every member, not just the one that gets scheduled.
        assert!(
            completes.is_finite(),
            "completion time must be finite, got {completes} for session {m}"
        );
        // Strictly earlier only: among equal times the lowest index wins.
        if earliest.is_none_or(|(first, _): (f64, u32)| completes.total_cmp(&first).is_lt()) {
            earliest = Some((completes, m));
        }
    }
    pass.finish();
    earliest
}
