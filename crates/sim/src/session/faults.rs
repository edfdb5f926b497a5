//! Per-path outage timelines, drawn before a run starts.

use crate::config::PathFaultModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    pub(super) outages: Vec<Vec<(f64, f64)>>,
    /// Capacity multiplier while a path is down, in `(0, 1]`.
    pub(super) residual: f64,
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
