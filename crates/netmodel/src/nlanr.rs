//! Synthetic stand-in for the NLANR proxy-log bandwidth distribution.
//!
//! The paper derives its base bandwidth distribution from a nine-day NLANR
//! UC-site proxy log (April 12–20, 2001): a bandwidth sample is the size of
//! a missed >200 KB object divided by its connection duration. The log
//! itself is no longer distributable, so this module provides a synthetic
//! distribution matched to the shape statistics the paper reports for
//! Figure 2:
//!
//! * 37 % of requests observe less than 50 KB/s,
//! * 56 % observe less than 100 KB/s,
//! * a long right tail reaching past 450 KB/s,
//! * histogram plotted with 4 KB/s bins.

use crate::empirical::EmpiricalDistribution;
use rand::Rng;

/// Number of bytes per kilobyte used throughout the crate (the paper uses
/// decimal KB/s on its axes).
pub const BYTES_PER_KB: f64 = 1_000.0;

/// Synthetic model of the base (per-path average) bandwidth between a cache
/// and origin servers, calibrated to the NLANR statistics reported in the
/// paper (Figure 2).
///
/// Bandwidth values are expressed in **bytes per second**.
///
/// ```
/// use sc_netmodel::NlanrBandwidthModel;
/// use rand::SeedableRng;
///
/// let model = NlanrBandwidthModel::paper_default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let bw = model.sample_bps(&mut rng);
/// assert!(bw > 0.0);
/// // The paper's landmark: 37% of paths are below 50 KB/s.
/// assert!((model.fraction_below_kbps(50.0) - 0.37).abs() < 0.02);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NlanrBandwidthModel {
    distribution: EmpiricalDistribution,
}

impl NlanrBandwidthModel {
    /// The default model calibrated to the paper's reported CDF landmarks.
    ///
    /// CDF knots are specified in KB/s and converted to bytes/s:
    /// `P(bw < 50 KB/s) = 0.37`, `P(bw < 100 KB/s) = 0.56`, with a right
    /// tail extending to 800 KB/s.
    pub fn paper_default() -> Self {
        // (KB/s, cumulative probability)
        let knots_kbps: &[(f64, f64)] = &[
            (2.0, 0.0),
            (10.0, 0.06),
            (20.0, 0.15),
            (30.0, 0.24),
            (40.0, 0.31),
            (50.0, 0.37),
            (65.0, 0.44),
            (80.0, 0.50),
            (100.0, 0.56),
            (125.0, 0.63),
            (150.0, 0.69),
            (175.0, 0.74),
            (200.0, 0.78),
            (250.0, 0.84),
            (300.0, 0.89),
            (350.0, 0.92),
            (400.0, 0.95),
            (450.0, 0.97),
            (600.0, 0.99),
            (800.0, 1.0),
        ];
        let knots = knots_kbps
            .iter()
            .map(|&(kbps, p)| (kbps * BYTES_PER_KB, p))
            .collect();
        NlanrBandwidthModel {
            distribution: EmpiricalDistribution::from_cdf(knots)
                .expect("paper_default knots are valid by construction"),
        }
    }

    /// The underlying empirical distribution (bytes per second).
    pub fn distribution(&self) -> &EmpiricalDistribution {
        &self.distribution
    }

    /// Draws one base-bandwidth sample in bytes per second.
    pub fn sample_bps<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.distribution.sample(rng)
    }

    /// Draws `n` samples in bytes per second.
    pub fn sample_n_bps<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        self.distribution.sample_n(rng, n)
    }

    /// Fraction of paths with bandwidth below `kbps` KB/s.
    pub fn fraction_below_kbps(&self, kbps: f64) -> f64 {
        self.distribution.cdf(kbps * BYTES_PER_KB)
    }

    /// Mean bandwidth in bytes per second.
    pub fn mean_bps(&self) -> f64 {
        self.distribution.mean()
    }
}

impl Default for NlanrBandwidthModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_landmarks_hold() {
        let m = NlanrBandwidthModel::paper_default();
        assert!((m.fraction_below_kbps(50.0) - 0.37).abs() < 1e-9);
        assert!((m.fraction_below_kbps(100.0) - 0.56).abs() < 1e-9);
        assert!(m.fraction_below_kbps(450.0) >= 0.96);
        assert_eq!(m.fraction_below_kbps(2000.0), 1.0);
    }

    #[test]
    fn samples_span_a_heterogeneous_range() {
        let m = NlanrBandwidthModel::paper_default();
        let mut rng = StdRng::seed_from_u64(9);
        let samples = m.sample_n_bps(&mut rng, 10_000);
        let below_50k = samples.iter().filter(|&&s| s < 50.0 * BYTES_PER_KB).count() as f64
            / samples.len() as f64;
        assert!(
            (below_50k - 0.37).abs() < 0.02,
            "below 50 KB/s: {below_50k}"
        );
        let above_200k = samples
            .iter()
            .filter(|&&s| s > 200.0 * BYTES_PER_KB)
            .count() as f64
            / samples.len() as f64;
        assert!(above_200k > 0.15, "above 200 KB/s: {above_200k}");
    }

    #[test]
    fn histogram_of_samples_resembles_figure_2() {
        // Reproduce the Figure 2 machinery: 4 KB/s bins, CDF derived from
        // the histogram.
        let m = NlanrBandwidthModel::paper_default();
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = m
            .sample_n_bps(&mut rng, 5_000)
            .iter()
            .map(|b| b / BYTES_PER_KB)
            .collect();
        let hist = Histogram::from_samples(4.0, 200, &samples);
        assert_eq!(hist.total(), 5_000);
        let cdf = hist.cumulative();
        // CDF at 100 KB/s (bin index 25) should be near 0.56.
        assert!(
            (cdf[24] - 0.56).abs() < 0.03,
            "cdf at 100 KB/s: {}",
            cdf[24]
        );
    }

    #[test]
    fn mean_and_kbps_helpers() {
        let m = NlanrBandwidthModel::paper_default();
        let mean_kbps = m.mean_bps() / BYTES_PER_KB;
        assert!(
            (80.0..200.0).contains(&mean_kbps),
            "mean bandwidth {mean_kbps} KB/s"
        );
    }
}
