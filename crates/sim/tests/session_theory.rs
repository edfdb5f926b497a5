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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_sim::session::{simulate_sessions, NoCacheHooks, SessionSpec};

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
