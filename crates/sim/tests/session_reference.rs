//! Naive fluid reference model for the session event core.
//!
//! The discrete-event core (`sc_sim::session`) earns its speed from
//! incremental bookkeeping: a binary heap whose keyed events are re-keyed
//! in place, per-path member lists and arrival rosters, cached shares, and
//! *one* pending completion event per path (its earliest member's). This
//! reference model keeps none of that — pending events live in a flat list
//! popped by linear `(time, seq)` scan, path membership is recomputed from
//! scratch at every event by scanning all sessions, every re-division
//! recomputes the share from the capacity and the fresh member count and
//! schedules a completion for *every* member, and an outage edge walks all
//! sessions of the run. Only the per-session integration arithmetic
//! (`SessionState::advance_masked`) and the event scheduling *order* are
//! shared, so a bitwise match isolates the core's heap and path
//! bookkeeping as the only thing under test — the same role
//! `model_fuzz.rs` plays for the slab cache engine.

use sc_cache::policy::{PolicyKind, UtilityPolicy};
use sc_cache::{CacheEngine, ObjectKey, ObjectMeta};
use sc_sim::session::{
    simulate_sessions_with_faults, PathFaultTimeline, SessionHooks, SessionSimOutput, SessionSpec,
    SessionState,
};
use sc_sim::{EstimatorBank, EstimatorKind, EventKind};

/// The event core's egress bins are part of the bitwise contract, so the
/// reference re-derives them through the same public accumulator.
use sc_sim::session::EgressAccumulator;

// ---------------------------------------------------------------------------
// The naive reference simulator
// ---------------------------------------------------------------------------

struct RefEvent {
    time: f64,
    seq: u64,
    kind: EventKind,
}

struct RefOutput {
    states: Vec<SessionState>,
    viewer_seconds: f64,
    peak_viewers: u64,
    egress_bins: Vec<f64>,
}

/// Per-path `(down_start, down_end)` outage intervals plus the capacity
/// multiplier while a path is down.
type Outages<'a> = (&'a [Vec<(f64, f64)>], f64);

/// The flat pending-event list and the sequence counter behind it.
struct RefQueue {
    pending: Vec<RefEvent>,
    next_seq: u64,
}

impl RefQueue {
    fn push(&mut self, time: f64, kind: EventKind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(RefEvent { time, seq, kind });
        seq
    }

    /// Linear-scan pop of the minimum (time, seq) — no heap.
    fn pop(&mut self) -> Option<RefEvent> {
        let pos = self
            .pending
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.time.total_cmp(&b.1.time).then(a.1.seq.cmp(&b.1.seq)))
            .map(|(i, _)| i)?;
        Some(self.pending.remove(pos))
    }
}

/// Fresh ascending scan instead of the core's maintained member lists.
fn members_of(states: &[SessionState], path: u32) -> Vec<usize> {
    states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.transferring && s.spec.path == path)
        .map(|(i, _)| i)
        .collect()
}

/// The naive re-division of a path with members: every one of them gets the fresh share
/// and its *own* completion event, its previous one removed from the list.
/// (The core schedules only the earliest member's; all the others here are
/// removed again before they can pop.)
fn reshare_naive(
    states: &mut [SessionState],
    completion_seq: &mut [Option<u64>],
    queue: &mut RefQueue,
    path: u32,
    cap: f64,
    now: f64,
) {
    let members = members_of(states, path);
    let share = cap / members.len() as f64;
    for &m in &members {
        states[m].share_bps = share;
        if let Some(seq) = completion_seq[m].take() {
            queue.pending.retain(|e| e.seq != seq);
        }
        let completes = now + states[m].remaining_bytes() / share;
        completion_seq[m] = Some(queue.push(completes, EventKind::TransferComplete(m as u32)));
    }
}

/// O(events × sessions) fluid simulation: same event order, same
/// arithmetic, zero shared bookkeeping with the event core. With `outages`
/// it also replays the fault contract: boundaries are scheduled after the
/// arrivals (path by path, down then up), every arrived session of the
/// path is integrated through each edge under the outgoing state, and the
/// capacity is scaled by the residual while the path is down.
fn reference_simulate<H: SessionHooks>(
    specs: &[SessionSpec],
    capacity: impl Fn(usize, f64) -> f64,
    hooks: &mut H,
    egress_bins: usize,
    outages: Option<Outages>,
) -> RefOutput {
    let horizon = specs
        .iter()
        .map(|s| s.arrival_secs + s.duration_secs)
        .fold(0.0_f64, f64::max);
    let mut egress = EgressAccumulator::new(egress_bins, horizon);

    // Arrivals are pre-scheduled in spec order: seq == spec index, exactly
    // as the core pushes them.
    let mut queue = RefQueue {
        pending: Vec::new(),
        next_seq: 0,
    };
    for (i, s) in specs.iter().enumerate() {
        queue.push(s.arrival_secs, EventKind::Arrival(i as u32));
    }
    let (intervals, residual) = outages.unwrap_or((&[], 1.0));
    for (path, intervals) in intervals.iter().enumerate() {
        for &(down_start, down_end) in intervals {
            queue.push(down_start, EventKind::PathDown(path as u32));
            queue.push(down_end, EventKind::PathUp(path as u32));
        }
    }
    let n_paths = specs.iter().map(|s| s.path as usize + 1).max().unwrap_or(0);
    let mut down = vec![false; n_paths.max(intervals.len())];
    let scaled = |path: u32, now: f64, down: bool| {
        let cap = capacity(path as usize, now);
        if down {
            cap * residual
        } else {
            cap
        }
    };

    let mut states: Vec<SessionState> = Vec::new();
    let mut completion_seq: Vec<Option<u64>> = Vec::new();
    let mut viewers: u64 = 0;
    let mut peak_viewers: u64 = 0;
    let mut viewer_seconds = 0.0;
    let mut last_t = 0.0;

    while let Some(ev) = queue.pop() {
        viewer_seconds += viewers as f64 * (ev.time - last_t);
        last_t = ev.time;
        let now = ev.time;

        match ev.kind {
            EventKind::Arrival(_) => {
                let index = ev.seq as usize;
                let spec = &specs[index];
                let path = spec.path;
                let is_down = down[path as usize];
                let cap = scaled(path, now, is_down);
                let old_members = members_of(&states, path);
                let share_if_joined = cap / (old_members.len() + 1) as f64;
                let prefix = hooks.on_arrival(index, spec, share_if_joined);

                let mut state = SessionState::begin(*spec, prefix);
                viewers += 1;
                peak_viewers = peak_viewers.max(viewers);
                queue.push(
                    spec.arrival_secs + spec.duration_secs,
                    EventKind::PlaybackEnd(index as u32),
                );

                completion_seq.push(None);
                if state.origin_bytes > 0.0 {
                    state.transferring = true;
                    for &m in &old_members {
                        states[m].advance_masked(now, &mut egress, is_down);
                    }
                    states.push(state);
                    reshare_naive(&mut states, &mut completion_seq, &mut queue, path, cap, now);
                } else {
                    state.transfer_end_secs = now;
                    states.push(state);
                }
            }
            EventKind::TransferComplete(s) => {
                let index = s as usize;
                completion_seq[index] = None;
                let path = states[index].spec.path;
                let is_down = down[path as usize];
                for m in members_of(&states, path) {
                    states[m].advance_masked(now, &mut egress, is_down);
                }
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
                if !members_of(&states, path).is_empty() {
                    let cap = scaled(path, now, is_down);
                    reshare_naive(&mut states, &mut completion_seq, &mut queue, path, cap, now);
                }
            }
            EventKind::PlaybackEnd(s) => {
                let path = states[s as usize].spec.path as usize;
                states[s as usize].advance_masked(now, &mut egress, down[path]);
                viewers -= 1;
            }
            EventKind::PathDown(p) | EventKind::PathUp(p) => {
                let goes_down = matches!(ev.kind, EventKind::PathDown(_));
                // Every arrived session of the path, transferring or not,
                // crosses the edge under the outgoing state.
                for state in states.iter_mut().filter(|s| s.spec.path == p) {
                    state.advance_masked(now, &mut egress, down[p as usize]);
                }
                down[p as usize] = goes_down;
                if !members_of(&states, p).is_empty() {
                    let cap = scaled(p, now, goes_down);
                    reshare_naive(&mut states, &mut completion_seq, &mut queue, p, cap, now);
                }
            }
        }
    }

    RefOutput {
        states,
        viewer_seconds,
        peak_viewers,
        egress_bins: egress.into_bins(),
    }
}

// ---------------------------------------------------------------------------
// Scenario generation (self-contained LCG: no dependence on the rand shim)
// ---------------------------------------------------------------------------

struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

struct Scenario {
    specs: Vec<SessionSpec>,
    /// Per-path (duration, rate, capacity) — one "object" per path.
    paths: Vec<(f64, f64, f64)>,
}

/// Small randomized scenario with quantized times so simultaneous events
/// (arrival/arrival and arrival/completion ties) actually occur.
fn random_scenario(seed: u64) -> Scenario {
    let mut rng = Lcg(seed.wrapping_mul(2654435761).wrapping_add(1));
    let n_paths = 2 + rng.below(4) as usize;
    let paths: Vec<(f64, f64, f64)> = (0..n_paths)
        .map(|_| {
            let duration = 30.0 + rng.below(8) as f64 * 15.0;
            let rate = 24_000.0 * (1 + rng.below(3)) as f64;
            let capacity = 16_000.0 * (1 + rng.below(6)) as f64;
            (duration, rate, capacity)
        })
        .collect();
    let n_sessions = 20 + rng.below(30) as usize;
    let mut arrivals: Vec<(f64, u32)> = (0..n_sessions)
        .map(|_| {
            // Half-second grid over 60 s: with 20+ sessions, ties are
            // effectively guaranteed.
            let t = rng.below(120) as f64 * 0.5;
            let p = rng.below(n_paths as u64) as u32;
            (t, p)
        })
        .collect();
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let specs = arrivals
        .into_iter()
        .map(|(t, p)| {
            let (duration, rate, _) = paths[p as usize];
            SessionSpec {
                path: p,
                arrival_secs: t,
                duration_secs: duration,
                rate_bps: rate,
                size_bytes: duration * rate,
            }
        })
        .collect();
    Scenario { specs, paths }
}

// ---------------------------------------------------------------------------
// Cache hooks shared (by construction, not by instance) between the two
// models
// ---------------------------------------------------------------------------

struct TestCacheHooks {
    cache: CacheEngine<Box<dyn UtilityPolicy + Send + Sync>>,
    estimators: EstimatorBank,
    metas: Vec<ObjectMeta>,
    means: Vec<f64>,
}

impl TestCacheHooks {
    fn new(policy: PolicyKind, scenario: &Scenario, cache_fraction: f64) -> Self {
        let metas: Vec<ObjectMeta> = scenario
            .paths
            .iter()
            .enumerate()
            .map(|(i, &(duration, rate, _))| {
                ObjectMeta::new(ObjectKey::new(i as u64), duration, rate, 1.0 + i as f64)
            })
            .collect();
        let total: f64 = metas.iter().map(|m| m.size_bytes()).sum();
        let mut cache =
            CacheEngine::new(cache_fraction * total, policy.build()).expect("valid cache");
        cache.ensure_slots(metas.len());
        let means = scenario.paths.iter().map(|&(_, _, cap)| cap).collect();
        TestCacheHooks {
            cache,
            estimators: EstimatorBank::new(EstimatorKind::Ewma, metas.len()),
            metas,
            means,
        }
    }
}

impl SessionHooks for TestCacheHooks {
    fn on_arrival(&mut self, _index: usize, spec: &SessionSpec, share_bps: f64) -> f64 {
        let p = spec.path as usize;
        let estimated = self
            .estimators
            .decision_bps(p, self.means[p], Some(share_bps));
        self.cache
            .on_access_slot(spec.path, &self.metas[p], estimated)
            .cached_bytes_before
    }

    fn on_transfer_complete(&mut self, _index: usize, spec: &SessionSpec, throughput_bps: f64) {
        self.estimators
            .observe_transfer(spec.path as usize, throughput_bps);
    }
}

// ---------------------------------------------------------------------------
// The bitwise cross-check
// ---------------------------------------------------------------------------

fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{what}: core {a} vs reference {b}"
    );
}

fn cross_check(scenario: &Scenario, policy: PolicyKind, bins: usize) {
    cross_check_with_outages(scenario, policy, bins, None);
}

/// Runs core and reference over the scenario (and outage list, if any),
/// asserts they agree bitwise, and returns the core's output.
fn cross_check_with_outages(
    scenario: &Scenario,
    policy: PolicyKind,
    bins: usize,
    outages: Option<Outages>,
) -> SessionSimOutput {
    let capacity = |p: usize, _t: f64| scenario.paths[p].2;

    let timeline = outages
        .map(|(intervals, residual)| PathFaultTimeline::from_outages(intervals.to_vec(), residual));
    let mut core_hooks = TestCacheHooks::new(policy, scenario, 0.3);
    let core = simulate_sessions_with_faults(
        &scenario.specs,
        scenario.paths.len(),
        capacity,
        &mut core_hooks,
        bins,
        timeline.as_ref(),
    );

    let mut ref_hooks = TestCacheHooks::new(policy, scenario, 0.3);
    let reference = reference_simulate(&scenario.specs, capacity, &mut ref_hooks, bins, outages);

    assert_eq!(core.finals.len(), reference.states.len());
    for (i, (f, s)) in core.finals.iter().zip(&reference.states).enumerate() {
        assert_bits(
            f.prefix_bytes,
            s.prefix_bytes,
            &format!("session {i} prefix"),
        );
        assert_bits(
            f.downloaded_bytes,
            s.downloaded_bytes,
            &format!("session {i} downloaded"),
        );
        assert_bits(
            f.rebuffer_secs,
            s.rebuffer_secs,
            &format!("session {i} rebuffer"),
        );
        assert_bits(
            f.transfer_end_secs,
            s.transfer_end_secs,
            &format!("session {i} transfer end"),
        );
    }

    // Aggregates, re-derived from the reference states with the same
    // in-order summation the core's metrics use.
    let m = &core.metrics;
    assert_eq!(m.sessions as usize, reference.states.len());
    assert_bits(m.viewer_seconds, reference.viewer_seconds, "viewer seconds");
    assert_eq!(m.peak_concurrent_viewers, reference.peak_viewers);
    let ref_rebuffered = reference
        .states
        .iter()
        .filter(|s| s.rebuffer_secs > sc_sim::session::REBUFFER_EPSILON_SECS)
        .count();
    assert_bits(
        m.rebuffer_probability,
        ref_rebuffered as f64 / reference.states.len() as f64,
        "rebuffer probability",
    );
    let ref_origin: f64 = reference.states.iter().map(|s| s.downloaded_bytes).sum();
    assert_bits(m.origin_bytes_total, ref_origin, "origin bytes");
    assert_eq!(m.egress_bins_bytes.len(), reference.egress_bins.len());
    for (i, (a, b)) in m
        .egress_bins_bytes
        .iter()
        .zip(&reference.egress_bins)
        .enumerate()
    {
        assert_bits(*a, *b, &format!("egress bin {i}"));
    }

    // Fault attribution: the masked-stall total in session order, and the
    // injected down-time summed interval by interval inside the horizon.
    let ref_masked: f64 = reference.states.iter().map(|s| s.masked_stall_secs).sum();
    assert_bits(m.masked_stall_secs, ref_masked, "masked stall seconds");
    let ref_outage = outages.map_or(0.0, |(intervals, _)| {
        intervals
            .iter()
            .flatten()
            .map(|&(start, end)| (end.min(m.horizon_secs) - start.min(m.horizon_secs)).max(0.0))
            .sum()
    });
    assert_bits(m.outage_secs, ref_outage, "outage seconds");
    core
}

const POLICIES: [PolicyKind; 3] = [
    PolicyKind::PartialBandwidth,
    PolicyKind::IntegralBandwidth,
    PolicyKind::Lru,
];

#[test]
fn event_core_matches_naive_reference_across_policies_and_seeds() {
    for policy in POLICIES {
        for seed in 0..8 {
            let scenario = random_scenario(seed);
            cross_check(&scenario, policy, 12);
        }
    }
}

#[test]
fn simultaneous_arrival_and_departure_ties_match_bitwise() {
    // Path capacity 48 KB/s, object 30 s × 48 KB/s: a session alone
    // finishes its transfer exactly 30 s after arrival — and its playback
    // window ends at the same instant. A second session arriving exactly
    // then makes the completion, the playback end, and the arrival
    // simultaneous; two more simultaneous arrivals at t = 60 pile a
    // three-way arrival tie on top of the resulting completions.
    let spec = |t: f64| SessionSpec {
        path: 0,
        arrival_secs: t,
        duration_secs: 30.0,
        rate_bps: 48_000.0,
        size_bytes: 30.0 * 48_000.0,
    };
    let scenario = Scenario {
        specs: vec![spec(0.0), spec(30.0), spec(60.0), spec(60.0), spec(60.0)],
        paths: vec![(30.0, 48_000.0, 48_000.0)],
    };
    for policy in POLICIES {
        cross_check(&scenario, policy, 6);
    }
}

#[test]
fn reference_agrees_on_multi_path_tie_scenarios() {
    // Two paths with identical timing grids: every arrival instant carries
    // a tie across paths, exercising the (time, seq) order between events
    // whose handlers touch disjoint state.
    let spec = |p: u32, t: f64| SessionSpec {
        path: p,
        arrival_secs: t,
        duration_secs: 45.0,
        rate_bps: 24_000.0,
        size_bytes: 45.0 * 24_000.0,
    };
    let scenario = Scenario {
        specs: vec![
            spec(0, 0.0),
            spec(1, 0.0),
            spec(0, 15.0),
            spec(1, 15.0),
            spec(0, 15.0),
            spec(1, 30.0),
        ],
        paths: vec![(45.0, 24_000.0, 40_000.0), (45.0, 24_000.0, 20_000.0)],
    };
    for policy in POLICIES {
        cross_check(&scenario, policy, 9);
    }
}

// ---------------------------------------------------------------------------
// The regime the benchmark runs in: hundreds of sessions piled on a path
// ---------------------------------------------------------------------------

/// 560+ sessions on two paths on a half-second grid, the three quarters of
/// them on path 0 all inside each other's playback windows. Path 1 is exactly as fast as one stream and its
/// first session is alone until t = 30, so that session's completion, its
/// playback end and three arrivals fall on the same instant; everywhere
/// else several sessions per grid slot arrive together, and two that join
/// a path together with the same prefix carry bit-equal completion times
/// from then on.
fn pile_up_scenario(seed: u64) -> Scenario {
    let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let paths = vec![(120.0, 48_000.0, 96_000.0), (30.0, 48_000.0, 48_000.0)];
    let mut arrivals: Vec<(f64, u32)> = vec![(0.0, 0), (0.0, 1), (30.0, 1), (30.0, 1), (30.0, 0)];
    arrivals.extend((0..560).map(|_| {
        let t = 30.0 + rng.below(100) as f64 * 0.5;
        // Three in four on the long path: that is where the pile grows.
        let p = u32::from(rng.below(4) == 0);
        (t, p)
    }));
    arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let specs = arrivals
        .into_iter()
        .map(|(t, p)| {
            let (duration, rate, _) = paths[p as usize];
            SessionSpec {
                path: p,
                arrival_secs: t,
                duration_secs: duration,
                rate_bps: rate,
                size_bytes: duration * rate,
            }
        })
        .collect();
    Scenario { specs, paths }
}

#[test]
fn pile_up_of_hundreds_of_sessions_on_two_paths_matches_bitwise() {
    for policy in POLICIES {
        for seed in 0..2 {
            let scenario = pile_up_scenario(seed);
            let core = cross_check_with_outages(&scenario, policy, 16, None);
            assert!(
                core.metrics.peak_concurrent_viewers >= 400,
                "the sessions must overlap, peak {}",
                core.metrics.peak_concurrent_viewers
            );
            // The case one-event-per-path has to get right: two members of
            // a path due at the bit-identical instant (the lower index goes
            // first, the other follows zero seconds later).
            let specs = &scenario.specs;
            let tied = (1..specs.len()).any(|i| {
                let (a, b) = (&core.finals[i - 1], &core.finals[i]);
                specs[i - 1].path == specs[i].path
                    && a.downloaded_bytes > 0.0
                    && b.downloaded_bytes > 0.0
                    && a.transfer_end_secs.to_bits() == b.transfer_end_secs.to_bits()
            });
            assert!(tied, "{policy:?} seed {seed}: no bit-equal completion pair");
        }
    }
}

// ---------------------------------------------------------------------------
// Outages
// ---------------------------------------------------------------------------

#[test]
fn outage_edges_coinciding_with_arrivals_and_completions_match_bitwise() {
    // 30 s x 48 KB/s objects; one stream's worth of capacity on paths 0-2,
    // two on path 3.
    let spec = |p: u32, t: f64| SessionSpec {
        path: p,
        arrival_secs: t,
        duration_secs: 30.0,
        rate_bps: 48_000.0,
        size_bytes: 30.0 * 48_000.0,
    };
    let scenario = Scenario {
        specs: vec![
            spec(0, 0.0),
            spec(1, 0.0),
            spec(2, 0.0),
            spec(3, 0.0),
            spec(0, 10.0),
            spec(0, 30.0),
            spec(0, 45.0),
            spec(2, 50.0),
        ],
        paths: vec![
            (30.0, 48_000.0, 48_000.0),
            (30.0, 48_000.0, 48_000.0),
            (30.0, 48_000.0, 48_000.0),
            (30.0, 48_000.0, 96_000.0),
        ],
    };
    let outages = vec![
        // Path 0: both edges fall on an arrival (t = 10 and t = 30), and a
        // second outage opens at a session's playback end (t = 40).
        vec![(10.0, 30.0), (40.0, 50.0)],
        // Path 1: a cold session alone completes at exactly t = 30, where
        // the path goes down — the edge pops first and re-schedules a
        // completion that is due zero seconds later.
        vec![(30.0, 35.0)],
        // Path 2: at half capacity from t = 10 the cold session is due at
        // exactly t = 50, where the path comes back up and the next
        // session arrives.
        vec![(10.0, 50.0)],
        // Path 3: the session has its whole object by t = 15 and plays from
        // its buffer through an outage it is no longer a path member for —
        // both edges must still cut its integration, or the five seconds
        // are not credited as masked.
        vec![(20.0, 25.0)],
    ];
    for policy in POLICIES {
        let core = cross_check_with_outages(&scenario, policy, 10, Some((&outages, 0.5)));
        if policy == PolicyKind::Lru {
            // Nothing fits LRU's cache here, so the timings are the plain
            // fluid ones and the coincidences above really happen.
            assert_eq!(core.finals[1].transfer_end_secs, 30.0);
            assert_eq!(core.finals[2].transfer_end_secs, 50.0);
        }
        assert!(core.metrics.masked_stall_secs >= 5.0);
    }
}

#[test]
fn arrival_edge_playback_end_and_completion_at_one_instant_on_one_path() {
    // One stream's worth of capacity: session 0, alone, has its last byte
    // at exactly t = 30 — where its playback window ends, session 1
    // arrives and the path goes down. What was known before the run goes
    // first, in the order it was scheduled (the arrival, then the edge),
    // then what the run scheduled (the playback end, pushed at t = 0, and
    // the completion, re-scheduled by the arrival and again by the edge,
    // each time due zero seconds later).
    let spec = |t: f64| SessionSpec {
        path: 0,
        arrival_secs: t,
        duration_secs: 30.0,
        rate_bps: 48_000.0,
        size_bytes: 30.0 * 48_000.0,
    };
    let scenario = Scenario {
        specs: vec![spec(0.0), spec(30.0)],
        paths: vec![(30.0, 48_000.0, 48_000.0)],
    };
    let outages = vec![vec![(30.0, 40.0)]];
    for policy in POLICIES {
        let core = cross_check_with_outages(&scenario, policy, 6, Some((&outages, 0.5)));
        if policy == PolicyKind::Lru {
            // The object does not fit LRU's cache, so the timings are the
            // plain fluid ones: session 1 moves 10 s at the residual
            // 24 KB/s, then the remaining 1.2 MB at 48 KB/s.
            assert_eq!(core.finals[0].transfer_end_secs, 30.0);
            assert_eq!(core.finals[1].transfer_end_secs, 65.0);
            // 0 arrives, 1 joins, the path goes down, 0 leaves, the path
            // comes back up; 1 leaves it empty.
            assert_eq!(core.telemetry.redivisions, 5);
        }
    }
}

#[test]
fn random_outages_over_random_scenarios_match_bitwise() {
    for policy in POLICIES {
        for seed in 0..6 {
            let scenario = random_scenario(seed);
            // Up to three disjoint outages per path on the arrivals' own
            // half-second grid, so edges tie with arrivals and playback ends.
            let mut rng = Lcg(seed.wrapping_mul(40_503).wrapping_add(11));
            let outages: Vec<Vec<(f64, f64)>> = scenario
                .paths
                .iter()
                .map(|_| {
                    let mut t = 0.0;
                    (0..rng.below(4))
                        .map(|_| {
                            let start = t + rng.below(60) as f64 * 0.5;
                            let end = start + (1 + rng.below(40)) as f64 * 0.5;
                            t = end;
                            (start, end)
                        })
                        .collect()
                })
                .collect();
            let residual = [0.02, 0.25, 1.0][seed as usize % 3];
            cross_check_with_outages(&scenario, policy, 12, Some((&outages, residual)));
        }
    }
}
