//! Lognormal distribution used for object durations.

use crate::WorkloadError;
use rand::Rng;

/// A lognormal distribution `exp(N(mu, sigma^2))`.
///
/// The paper draws object durations (in minutes) from a lognormal with
/// `mu = 3.85` and `sigma = 0.56`, giving a mean duration of about 55
/// minutes (≈ 79 K frames at 24 frames/s).
///
/// Normal variates are generated with the Box–Muller transform so the crate
/// does not depend on `rand_distr`.
///
/// ```
/// use sc_workload::LogNormal;
/// use rand::SeedableRng;
///
/// let durations = LogNormal::new(3.85, 0.56)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let minutes = durations.sample(&mut rng);
/// assert!(minutes > 0.0);
/// // The analytic mean is exp(mu + sigma^2 / 2) ≈ 55 minutes.
/// assert!((durations.mean() - 55.0).abs() < 1.0);
/// # Ok::<(), sc_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal distribution with location `mu` and scale `sigma`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `mu` is not finite or
    /// `sigma` is not finite or is negative.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, WorkloadError> {
        if !mu.is_finite() {
            return Err(WorkloadError::InvalidParameter("mu", mu));
        }
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(WorkloadError::InvalidParameter("sigma", sigma));
        }
        Ok(LogNormal { mu, sigma })
    }

    /// The location parameter `mu` of the underlying normal.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The scale parameter `sigma` of the underlying normal.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Analytic mean `exp(mu + sigma^2/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// Analytic median `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Analytic variance `(exp(sigma^2) - 1) * exp(2 mu + sigma^2)`.
    pub fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }

    /// Draws one lognormal sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    /// Draws `n` lognormal samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Draws a standard-normal variate using the Box–Muller transform (no
/// `rand_distr` dependency). Only [`LogNormal`] uses it: `sc_netmodel`'s
/// bandwidth time series keep an identical private copy.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u1 == 0 which would produce ln(0).
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            LogNormal::new(f64::NAN, 0.5),
            Err(WorkloadError::InvalidParameter("mu", _))
        ));
        assert!(matches!(
            LogNormal::new(1.0, -0.1),
            Err(WorkloadError::InvalidParameter("sigma", _))
        ));
        assert!(matches!(
            LogNormal::new(1.0, f64::INFINITY),
            Err(WorkloadError::InvalidParameter("sigma", _))
        ));
    }

    #[test]
    fn paper_parameters_mean_is_about_55_minutes() {
        let ln = LogNormal::new(3.85, 0.56).unwrap();
        assert!((ln.mean() - 55.0).abs() < 1.0, "mean = {}", ln.mean());
        assert!((ln.median() - 46.99).abs() < 0.1);
    }

    #[test]
    fn samples_are_positive() {
        let ln = LogNormal::new(3.85, 0.56).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            assert!(ln.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn empirical_mean_close_to_analytic() {
        let ln = LogNormal::new(3.85, 0.56).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let mean = ln.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
        assert!(
            (mean - ln.mean()).abs() / ln.mean() < 0.03,
            "empirical {mean} vs analytic {}",
            ln.mean()
        );
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let ln = LogNormal::new(2.0, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            assert!((ln.sample(&mut rng) - 2.0f64.exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
