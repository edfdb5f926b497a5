//! The session event core against queueing theory.
//!
//! `session_reference.rs` replays the core's own contract and
//! `session_properties.rs` checks conservation laws; neither would catch a
//! share rule or an integration that is wrong in the same way everywhere.
//! This file checks the core against a result derived independently of it.
//!
//! One path of constant capacity `C`, Poisson arrivals of rate `λ`, origin
//! sizes `X`, nothing cached: an M/G/1 processor-sharing queue. Its mean
//! sojourn time given the size is
//!
//! ```text
//! E[T | X = x] = x / (C (1 − ρ)),   ρ = λ E[X] / C,
//! ```
//!
//! whatever the distribution of `X` (Kleinrock, "Time-shared systems: a
//! theoretical treatment", JACM 14(2), 1967). The sojourn of a session is
//! `transfer_end_secs − arrival_secs`. Each run drops its first tenth as
//! warm-up, cuts the rest in arrival order into batches and takes the
//! standard error of the batch means; the check is that the mean sojourn
//! of each size lies within `TOLERANCE_SE` standard errors of theory.
//!
//! The two simulator modes are also held to the paper's delay model
//! (§2.1): a session alone on a path of constant capacity `b`, playing an
//! object of rate `r` and length `T` from a cached prefix `x`, misses
//! `[rT − bT − x]⁺` bytes. The session mode stalls `rebuffer_secs` while
//! its buffer drains at `r − b`; the per-request mode delays the start by
//! `service_delay_secs` while the missing bytes arrive at `b`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_cache::{ObjectKey, ObjectMeta};
use sc_sim::deliver;
use sc_sim::session::{simulate_sessions, NoCacheHooks, SessionHooks, SessionSpec};

/// Path capacity in bytes per second.
const CAPACITY_BPS: f64 = 100_000.0;
/// Sessions per run, warm-up included.
const SESSIONS: usize = 200_000;
/// Leading sessions dropped from the estimate while the queue fills.
const WARM_UP: usize = SESSIONS / 10;
/// Batches the measured sessions are cut into for the standard error.
const BATCHES: usize = 20;
/// How many standard errors of its own run an estimate may be off.
const TOLERANCE_SE: f64 = 4.0;

/// Draws a Poisson stream of `SESSIONS` sessions on path 0 whose sizes are
/// picked uniformly from `sizes`, at offered load `rho`.
fn poisson_sessions(rho: f64, sizes: &[f64], seed: u64) -> Vec<SessionSpec> {
    let mean_size = sizes.iter().sum::<f64>() / sizes.len() as f64;
    let lambda = rho * CAPACITY_BPS / mean_size;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..SESSIONS)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / lambda;
            let size_bytes = sizes[rng.gen_range(0..sizes.len())];
            // Playback does not touch the transfer; any finite window does.
            SessionSpec {
                path: 0,
                arrival_secs: t,
                duration_secs: size_bytes / CAPACITY_BPS,
                rate_bps: CAPACITY_BPS,
                size_bytes,
            }
        })
        .collect()
}

/// Mean and batch-means standard error of the sojourns of the measured
/// sessions of size `size`.
fn mean_sojourn(specs: &[SessionSpec], sojourns: &[f64], size: f64) -> (f64, f64) {
    let measured = WARM_UP..specs.len();
    let per_batch = measured.len() / BATCHES;
    let batch_means: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let start = WARM_UP + b * per_batch;
            let (sum, n) = (start..start + per_batch)
                .filter(|&i| specs[i].size_bytes == size)
                .fold((0.0, 0usize), |(sum, n), i| (sum + sojourns[i], n + 1));
            assert!(n > 0, "a batch holds no session of size {size}");
            sum / n as f64
        })
        .collect();
    let mean = batch_means.iter().sum::<f64>() / BATCHES as f64;
    let variance = batch_means
        .iter()
        .map(|m| (m - mean) * (m - mean))
        .sum::<f64>()
        / (BATCHES - 1) as f64;
    (mean, (variance / BATCHES as f64).sqrt())
}

/// Runs the core at each load on `sizes` and checks every size's mean
/// sojourn against `x / (C (1 − ρ))`.
fn check_against_processor_sharing(sizes: &[f64], seed: u64) {
    for (k, rho) in [0.3, 0.6, 0.8].into_iter().enumerate() {
        let specs = poisson_sessions(rho, sizes, seed + k as u64);
        let out = simulate_sessions(&specs, 1, |_, _| CAPACITY_BPS, &mut NoCacheHooks, 1);
        let sojourns: Vec<f64> = out
            .finals
            .iter()
            .zip(&specs)
            .map(|(f, s)| f.transfer_end_secs - s.arrival_secs)
            .collect();
        for &size in sizes {
            let theory = size / (CAPACITY_BPS * (1.0 - rho));
            let (mean, se) = mean_sojourn(&specs, &sojourns, size);
            assert!(
                (mean - theory).abs() <= TOLERANCE_SE * se,
                "rho {rho}, size {size}: mean sojourn {mean:.4} s vs theory {theory:.4} s \
                 (ratio {:.4}, {TOLERANCE_SE} SE = {:.4} s)",
                mean / theory,
                TOLERANCE_SE * se
            );
        }
    }
}

#[test]
fn one_size_meets_the_processor_sharing_mean_sojourn() {
    check_against_processor_sharing(&[1_000_000.0], 11);
}

#[test]
fn a_size_mix_meets_the_processor_sharing_mean_sojourn_per_size() {
    check_against_processor_sharing(&[200_000.0, 1_000_000.0, 5_000_000.0], 21);
}

/// `(r, b, T)` of each path of the missing-bytes check: rate and capacity
/// in bytes per second, length in seconds. The third path is one byte per
/// second short of its rate; on the fourth the capacity exceeds the rate.
const MISSING_BYTES_PATHS: [(f64, f64, f64); 4] = [
    (48_000.0, 20_000.0, 120.0),
    (100_000.0, 64_000.0, 300.5),
    (250_000.0, 249_999.0, 1_000.0),
    (40_000.0, 50_000.0, 60.0),
];
/// Seconds between two sessions on one path: longer than any of their
/// playbacks and transfers, so sessions never overlap on a path.
const MISSING_BYTES_GAP_SECS: f64 = 2_000.0;
/// Rounded operations between the exact inputs and the compared numbers,
/// each off by at most `u = 2⁻⁵³` of a magnitude no larger than
/// `max(r, b) · (a + T)` bytes (times run to `a + T`, and reach bytes
/// through a rate no larger than `max(r, b)`; byte counts stay below
/// `max(r, b) · T`). Session mode, `rebuffer_secs × (r − b)`: the playback
/// end `a + T`, the integrated length `(a + T) − a`, the slope `r − b`,
/// the root `x / (r − b)`, the stall `length − root`, and this test's
/// `r − b` and product: 7 (the share `b / 1` and the deficit at arrival
/// `r · 0 − x` are exact). The formula `r·T − b·T − x`: 2 products and 2
/// differences, 4. Per-request mode: `service_delay_secs` computes the
/// formula's own 4 operations in the same order, so the same bits, then
/// divides by `b`, and this test multiplies by `b`: 2 more, within the
/// session side's 7. So both sides sit within `γ₁₁ · max(r, b) · (a + T)`
/// of the formula, where `γₙ = n·u / (1 − n·u)` bounds the compounded
/// relative error of `n` roundings (Higham, *Accuracy and Stability of
/// Numerical Algorithms*, 2nd ed., 2002, §3.1).
const MISSING_BYTES_ROUNDINGS: f64 = 11.0;

/// The session mode's hooks for the check: session `i` is served
/// `prefixes[i]` from the cache, whatever its share.
struct FixedPrefix(Vec<f64>);

impl SessionHooks for FixedPrefix {
    fn on_arrival(&mut self, index: usize, _spec: &SessionSpec, _share_bps: f64) -> f64 {
        self.0[index]
    }
}

/// Test 16(ii): per session, the session mode's `rebuffer_secs × (r − b)`
/// and the per-request mode's `service_delay_secs × b` both equal the
/// missing bytes `[rT − bT − x]⁺`, for prefixes of none, part of the
/// deficit, exactly the deficit and above it.
#[test]
fn both_modes_miss_the_papers_missing_bytes() {
    let mut cases: Vec<(SessionSpec, f64)> = Vec::new();
    for (p, &(r, b, t)) in MISSING_BYTES_PATHS.iter().enumerate() {
        let size = r * t;
        let deficit = (r * t - b * t).max(0.0);
        let prefixes = [
            0.0,
            0.37 * deficit,
            deficit,
            deficit + 0.5 * (size - deficit),
        ];
        for (k, x) in prefixes.into_iter().enumerate() {
            let spec = SessionSpec {
                path: p as u32,
                arrival_secs: 1_000.25 + MISSING_BYTES_GAP_SECS * k as f64 + 0.5 * p as f64,
                duration_secs: t,
                rate_bps: r,
                size_bytes: size,
            };
            cases.push((spec, x));
        }
    }
    cases.sort_by(|a, b| a.0.arrival_secs.total_cmp(&b.0.arrival_secs));
    let specs: Vec<SessionSpec> = cases.iter().map(|&(spec, _)| spec).collect();
    let mut hooks = FixedPrefix(cases.iter().map(|&(_, x)| x).collect());
    let capacity = |path: usize, _| MISSING_BYTES_PATHS[path].1;
    let out = simulate_sessions(&specs, MISSING_BYTES_PATHS.len(), capacity, &mut hooks, 1);

    let u = f64::EPSILON / 2.0;
    let gamma = MISSING_BYTES_ROUNDINGS * u / (1.0 - MISSING_BYTES_ROUNDINGS * u);
    for (i, (spec, x)) in cases.into_iter().enumerate() {
        let (r, t, a) = (spec.rate_bps, spec.duration_secs, spec.arrival_secs);
        let b = capacity(spec.path as usize, a);
        let want = (r * t - b * t - x).max(0.0);
        let tolerance = gamma * r.max(b) * (a + t);
        let state = &out.finals[i];
        assert_eq!(state.prefix_bytes, x, "session {i}: the prefix served");
        let session = state.rebuffer_secs * (r - b);
        let meta = ObjectMeta::new(ObjectKey::new(i as u64), t, r, 1.0);
        let request = deliver(&meta, x, b).service_delay_secs * b;
        for (mode, got) in [("session", session), ("per-request", request)] {
            assert!(
                (got - want).abs() <= tolerance,
                "session {i} (r {r}, b {b}, T {t}, x {x}): {mode} mode misses {got} B, \
                 the formula {want} B, tolerance {tolerance} B"
            );
        }
    }
}
