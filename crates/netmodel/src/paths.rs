//! The cache↔origin paths of one run: an array of mean bandwidths beside
//! one shared variability model.
//!
//! In the paper, every origin server (equivalently, every object, since the
//! paper assumes one path per object) is reached over a path with an average
//! bandwidth drawn from the NLANR-like distribution; instantaneous bandwidth
//! for a given request is the average multiplied by a ratio drawn from a
//! [`VariabilityModel`]. Section 4.3 gives all paths the *same* ratio model,
//! so a path is just its mean and the set holds the model once.

use crate::nlanr::NlanrBandwidthModel;
use crate::variability::VariabilityModel;
use rand::Rng;

/// The set of paths between one cache and all origin servers, one path per
/// object in the catalog.
///
/// ```
/// use sc_netmodel::{NlanrBandwidthModel, PathSet, VariabilityModel};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let paths = PathSet::generate(
///     100,
///     &NlanrBandwidthModel::paper_default(),
///     VariabilityModel::constant(),
///     &mut rng,
/// );
/// assert_eq!(paths.len(), 100);
/// assert!(paths.mean_bps(0) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PathSet {
    mean_bps: Vec<f64>,
    variability: VariabilityModel,
}

impl PathSet {
    /// Generates `n` paths whose average bandwidth is drawn from `base` (one
    /// draw per path, floored at 1 byte/s) and which all share the
    /// variability model `variability`.
    pub fn generate<R: Rng + ?Sized>(
        n: usize,
        base: &NlanrBandwidthModel,
        variability: VariabilityModel,
        rng: &mut R,
    ) -> Self {
        let mean_bps = (0..n).map(|_| base.sample_bps(rng).max(1.0)).collect();
        PathSet {
            mean_bps,
            variability,
        }
    }

    /// Number of paths.
    pub fn len(&self) -> usize {
        self.mean_bps.len()
    }

    /// Returns `true` if the set contains no paths.
    pub fn is_empty(&self) -> bool {
        self.mean_bps.is_empty()
    }

    /// Long-run average bandwidth of every path, in bytes per second,
    /// indexed by object/server.
    pub fn means(&self) -> &[f64] {
        &self.mean_bps
    }

    /// The variability model all paths share.
    pub fn variability(&self) -> &VariabilityModel {
        &self.variability
    }

    /// Long-run average bandwidth of path `i` in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn mean_bps(&self, i: usize) -> f64 {
        self.mean_bps[i]
    }

    /// Draws the instantaneous bandwidth seen by a request to object `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bandwidth_sample<R: Rng + ?Sized>(&self, i: usize, rng: &mut R) -> f64 {
        self.variability.apply(rng, self.mean_bps[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn generate(n: usize, variability: VariabilityModel, rng: &mut StdRng) -> PathSet {
        PathSet::generate(n, &NlanrBandwidthModel::paper_default(), variability, rng)
    }

    #[test]
    fn generate_draws_one_floored_base_sample_per_path_in_order() {
        let base = NlanrBandwidthModel::paper_default();
        let mut a = StdRng::seed_from_u64(6);
        let mut b = StdRng::seed_from_u64(6);
        let set = PathSet::generate(300, &base, VariabilityModel::nlanr_like(), &mut a);
        let by_hand: Vec<f64> = (0..300).map(|_| base.sample_bps(&mut b).max(1.0)).collect();
        assert_eq!(set.means(), by_hand.as_slice());
        // Nothing else was drawn: the two streams continue in step.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn path_sample_respects_constant_model() {
        let mut rng = StdRng::seed_from_u64(1);
        let set = generate(10, VariabilityModel::constant(), &mut rng);
        for i in 0..10 {
            assert_eq!(set.bandwidth_sample(i, &mut rng), set.mean_bps(i));
        }
    }

    #[test]
    fn path_set_accessors() {
        let mut rng = StdRng::seed_from_u64(5);
        let set = generate(2, VariabilityModel::measured_path_low(), &mut rng);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.means(), [set.mean_bps(0), set.mean_bps(1)]);
        assert_eq!(set.variability(), &VariabilityModel::measured_path_low());
        assert!(generate(0, VariabilityModel::constant(), &mut rng).is_empty());
    }

    #[test]
    fn path_set_generation_spans_heterogeneous_bandwidth() {
        let mut rng = StdRng::seed_from_u64(2);
        let set = generate(2_000, VariabilityModel::constant(), &mut rng);
        assert_eq!(set.len(), 2_000);
        let slow = set.means().iter().filter(|&&m| m < 50_000.0).count() as f64 / 2_000.0;
        assert!((slow - 0.37).abs() < 0.05, "slow fraction {slow}");
        let fast = set.means().iter().filter(|&&m| m > 200_000.0).count();
        assert!(fast > 0);
    }

    #[test]
    fn variable_paths_average_to_mean() {
        let mut rng = StdRng::seed_from_u64(3);
        let set = generate(1, VariabilityModel::nlanr_like(), &mut rng);
        let mean_bps = set.mean_bps(0);
        let n = 20_000;
        let mean = (0..n)
            .map(|_| set.bandwidth_sample(0, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean - mean_bps).abs() / mean_bps < 0.03, "mean {mean}");
    }
}
