//! Bandwidth time-series generation (Figure 4 style evolution plots).
//!
//! The paper measures real Internet paths by repeatedly downloading large
//! files every four minutes over 30–45 hours and plotting the observed
//! bandwidth as a time series. To reproduce those plots without the original
//! vantage points, this module generates mean-reverting (AR(1)-style)
//! bandwidth processes whose marginal variability matches a target
//! [`VariabilityModel`]-like coefficient of variation.

use crate::error::NetModelError;
use rand::Rng;

/// Spacing of the series samples in seconds: the paper measures its paths
/// by downloading a file every four minutes (Figure 4).
pub const SAMPLE_INTERVAL_SECS: f64 = 240.0;

/// Lower bound on every sample, as a fraction of the mean: a path never
/// loses *all* bandwidth, so samples stay above `mean_bps / 1000`.
const FLOOR_RATIO: f64 = 1e-3;

/// Configuration of an AR(1) mean-reverting bandwidth process, sampled
/// every [`SAMPLE_INTERVAL_SECS`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeSeriesConfig {
    /// Long-run mean bandwidth in bytes per second.
    pub mean_bps: f64,
    /// Target coefficient of variation of the marginal distribution.
    pub cov: f64,
    /// Autocorrelation of consecutive samples, in `[0, 1)`. Higher values
    /// produce smoother series (the INRIA path is smoother than Hong Kong).
    pub autocorrelation: f64,
}

impl Default for TimeSeriesConfig {
    fn default() -> Self {
        TimeSeriesConfig {
            mean_bps: 100_000.0,
            cov: 0.2,
            autocorrelation: 0.8,
        }
    }
}

impl TimeSeriesConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NetModelError::InvalidParameter`] for a non-positive mean,
    /// negative CoV, or autocorrelation outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), NetModelError> {
        if !self.mean_bps.is_finite() || self.mean_bps <= 0.0 {
            return Err(NetModelError::InvalidParameter("mean_bps", self.mean_bps));
        }
        if !self.cov.is_finite() || self.cov < 0.0 {
            return Err(NetModelError::InvalidParameter("cov", self.cov));
        }
        if !self.autocorrelation.is_finite() || !(0.0..1.0).contains(&self.autocorrelation) {
            return Err(NetModelError::InvalidParameter(
                "autocorrelation",
                self.autocorrelation,
            ));
        }
        Ok(())
    }
}

/// A generated bandwidth time series.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthTimeSeries {
    samples_bps: Vec<f64>,
}

impl BandwidthTimeSeries {
    /// Generates `n` samples of a mean-reverting bandwidth process: an
    /// AR(1) in the bandwidth domain,
    /// `x_{t+1} = mean + rho (x_t - mean) + eps`, with normal innovations
    /// scaled so the marginal standard deviation equals `cov * mean`. Every
    /// sample (and the process state itself) is floored at `mean / 1000`.
    ///
    /// ```
    /// use sc_netmodel::{BandwidthTimeSeries, TimeSeriesConfig};
    /// use rand::SeedableRng;
    ///
    /// // A 30-hour trace of a 100 KB/s path sampled every 4 minutes, the
    /// // measurement methodology behind Figure 4 of the paper.
    /// let config = TimeSeriesConfig {
    ///     mean_bps: 100_000.0,
    ///     cov: 0.2,
    ///     autocorrelation: 0.8,
    /// };
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    /// let series = BandwidthTimeSeries::generate(&config, 450, &mut rng)?;
    /// assert_eq!(series.len(), 450);
    /// assert!((series.duration_hours() - 30.0).abs() < 1e-9);
    /// assert!(series.samples_bps().iter().all(|&bw| bw > 0.0));
    /// # Ok::<(), sc_netmodel::NetModelError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn generate<R: Rng + ?Sized>(
        config: &TimeSeriesConfig,
        n: usize,
        rng: &mut R,
    ) -> Result<Self, NetModelError> {
        config.validate()?;
        let rho = config.autocorrelation;
        let floor = config.mean_bps * FLOOR_RATIO;
        let sigma_innov = config.cov * config.mean_bps * (1.0 - rho * rho).sqrt();
        let mut x = config.mean_bps;
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let eps = sigma_innov * standard_normal(rng);
            x = (config.mean_bps + rho * (x - config.mean_bps) + eps).max(floor);
            samples.push(x);
        }
        Ok(BandwidthTimeSeries {
            samples_bps: samples,
        })
    }

    /// The bandwidth samples in bytes per second.
    pub fn samples_bps(&self) -> &[f64] {
        &self.samples_bps
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_bps.len()
    }

    /// Returns `true` when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples_bps.is_empty()
    }

    /// Total covered duration in hours.
    pub fn duration_hours(&self) -> f64 {
        self.samples_bps.len() as f64 * SAMPLE_INTERVAL_SECS / 3600.0
    }

    /// Bandwidth at an arbitrary time (piecewise-constant interpolation,
    /// clamped to the series range). Times before zero map to the first
    /// sample and times past the end map to the last sample.
    pub fn bandwidth_at(&self, time_secs: f64) -> f64 {
        if self.samples_bps.is_empty() {
            return 0.0;
        }
        let idx = if time_secs <= 0.0 {
            0
        } else {
            ((time_secs / SAMPLE_INTERVAL_SECS) as usize).min(self.samples_bps.len() - 1)
        };
        self.samples_bps[idx]
    }

    /// Mean of the samples.
    pub fn mean_bps(&self) -> f64 {
        crate::stats::mean(&self.samples_bps)
    }

    /// Sample-to-mean ratios (the quantity histogrammed in Figure 4).
    pub fn sample_to_mean_ratios(&self) -> Vec<f64> {
        let mean = self.mean_bps();
        if mean <= 0.0 {
            return vec![0.0; self.samples_bps.len()];
        }
        self.samples_bps.iter().map(|s| s / mean).collect()
    }
}

/// Box–Muller standard normal (kept private to avoid a dependency on
/// `rand_distr`).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = loop {
        let v: f64 = rng.gen();
        if v > f64::MIN_POSITIVE {
            break v;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validation_rejects_bad_parameters() {
        let bad = [
            TimeSeriesConfig {
                mean_bps: 0.0,
                ..Default::default()
            },
            TimeSeriesConfig {
                cov: -0.1,
                ..Default::default()
            },
            TimeSeriesConfig {
                autocorrelation: 1.0,
                ..Default::default()
            },
            TimeSeriesConfig {
                autocorrelation: f64::NAN,
                ..Default::default()
            },
        ];
        let mut rng = StdRng::seed_from_u64(1);
        for cfg in bad {
            assert!(BandwidthTimeSeries::generate(&cfg, 10, &mut rng).is_err());
        }
    }

    #[test]
    fn generated_series_matches_target_moments() {
        let cfg = TimeSeriesConfig {
            mean_bps: 100_000.0,
            cov: 0.3,
            autocorrelation: 0.7,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let ts = BandwidthTimeSeries::generate(&cfg, 20_000, &mut rng).unwrap();
        let s = Summary::of(ts.samples_bps()).unwrap();
        assert!(
            (s.mean - 100_000.0).abs() / 100_000.0 < 0.05,
            "mean {}",
            s.mean
        );
        assert!((s.cov - 0.3).abs() < 0.05, "cov {}", s.cov);
        assert!(ts.samples_bps().iter().all(|&x| x > 0.0));
    }

    #[test]
    fn duration_and_lookup() {
        let cfg = TimeSeriesConfig::default();
        let mut rng = StdRng::seed_from_u64(3);
        let ts = BandwidthTimeSeries::generate(&cfg, 15, &mut rng).unwrap();
        assert_eq!(ts.len(), 15);
        assert!(!ts.is_empty());
        assert!((ts.duration_hours() - 1.0).abs() < 1e-9);
        assert_eq!(ts.bandwidth_at(-5.0), ts.samples_bps()[0]);
        assert_eq!(ts.bandwidth_at(0.0), ts.samples_bps()[0]);
        assert_eq!(ts.bandwidth_at(241.0), ts.samples_bps()[1]);
        assert_eq!(ts.bandwidth_at(1e9), *ts.samples_bps().last().unwrap());
    }

    #[test]
    fn ratios_have_unit_mean() {
        let cfg = TimeSeriesConfig::default();
        let mut rng = StdRng::seed_from_u64(4);
        let ts = BandwidthTimeSeries::generate(&cfg, 1_000, &mut rng).unwrap();
        let ratios = ts.sample_to_mean_ratios();
        let mean = crate::stats::mean(&ratios);
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_cov_is_constant_series() {
        let cfg = TimeSeriesConfig {
            cov: 0.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let ts = BandwidthTimeSeries::generate(&cfg, 50, &mut rng).unwrap();
        assert!(ts
            .samples_bps()
            .iter()
            .all(|&x| (x - cfg.mean_bps).abs() < 1e-6));
    }

    #[test]
    fn samples_respect_the_floor_across_long_runs() {
        // Seeded-loop property test: for a spread of seeds and shapes, every
        // sample of a long run stays at or above a thousandth of the mean,
        // and at CoV 1 and above (a normal marginal with much of its mass
        // below zero) some samples sit exactly on that floor.
        for seed in 0..24u64 {
            let cfg = TimeSeriesConfig {
                mean_bps: 50_000.0 + 10_000.0 * (seed % 5) as f64,
                cov: 0.1 + 0.5 * (seed % 4) as f64,
                autocorrelation: 0.05 + 0.9 * ((seed % 3) as f64 / 2.0).min(0.99),
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let ts = BandwidthTimeSeries::generate(&cfg, 20_000, &mut rng).unwrap();
            let floor = cfg.mean_bps * FLOOR_RATIO;
            assert!(
                ts.samples_bps().iter().all(|&x| x >= floor),
                "seed {seed}: sample below {floor}"
            );
            if cfg.cov >= 1.0 {
                assert!(ts.samples_bps().contains(&floor), "seed {seed}");
            }
        }
    }

    #[test]
    fn higher_autocorrelation_is_smoother() {
        let mut rng = StdRng::seed_from_u64(6);
        let smooth = BandwidthTimeSeries::generate(
            &TimeSeriesConfig {
                autocorrelation: 0.95,
                ..Default::default()
            },
            5_000,
            &mut rng,
        )
        .unwrap();
        let rough = BandwidthTimeSeries::generate(
            &TimeSeriesConfig {
                autocorrelation: 0.1,
                ..Default::default()
            },
            5_000,
            &mut rng,
        )
        .unwrap();
        let mean_abs_step = |ts: &BandwidthTimeSeries| {
            ts.samples_bps()
                .windows(2)
                .map(|w| (w[1] - w[0]).abs())
                .sum::<f64>()
                / (ts.len() - 1) as f64
        };
        assert!(mean_abs_step(&smooth) < mean_abs_step(&rough));
    }
}
