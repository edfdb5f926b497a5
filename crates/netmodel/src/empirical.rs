//! Piecewise-linear empirical distributions.
//!
//! The paper parameterises its simulations with *empirical* bandwidth
//! distributions (derived from NLANR proxy logs and from live path
//! measurements) rather than closed-form ones. [`EmpiricalDistribution`]
//! represents such a distribution as a piecewise-linear CDF over a set of
//! knot points and supports inverse-transform sampling, quantile queries and
//! moment estimation.

use crate::error::NetModelError;
use rand::Rng;

/// A continuous distribution described by a piecewise-linear CDF.
///
/// The CDF is given as a list of `(value, cumulative_probability)` knots.
/// The first knot must have probability 0 and the last probability 1;
/// both coordinates must be non-decreasing.
///
/// ```
/// use sc_netmodel::EmpiricalDistribution;
/// use rand::SeedableRng;
///
/// // A triangular-ish distribution between 0 and 100.
/// let dist = EmpiricalDistribution::from_cdf(vec![
///     (0.0, 0.0),
///     (50.0, 0.8),
///     (100.0, 1.0),
/// ])?;
/// assert!((dist.quantile(0.8) - 50.0).abs() < 1e-9);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let x = dist.sample(&mut rng);
/// assert!((0.0..=100.0).contains(&x));
/// # Ok::<(), sc_netmodel::NetModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalDistribution {
    /// CDF knots as (value, cumulative probability), strictly validated.
    knots: Vec<(f64, f64)>,
}

impl EmpiricalDistribution {
    /// Builds a distribution from CDF knots.
    ///
    /// # Errors
    ///
    /// Returns [`NetModelError::InvalidCdf`] if fewer than two knots are
    /// given, if values or probabilities are not non-decreasing, if any
    /// coordinate is not finite, or if the probabilities do not start at 0
    /// and end at 1.
    pub fn from_cdf(knots: Vec<(f64, f64)>) -> Result<Self, NetModelError> {
        if knots.len() < 2 {
            return Err(NetModelError::InvalidCdf(
                "at least two knots are required".into(),
            ));
        }
        for w in knots.windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            if !v0.is_finite() || !p0.is_finite() || !v1.is_finite() || !p1.is_finite() {
                return Err(NetModelError::InvalidCdf("non-finite knot".into()));
            }
            if v1 < v0 {
                return Err(NetModelError::InvalidCdf(
                    "values must be non-decreasing".into(),
                ));
            }
            if p1 < p0 {
                return Err(NetModelError::InvalidCdf(
                    "probabilities must be non-decreasing".into(),
                ));
            }
        }
        let first_p = knots.first().expect("len checked").1;
        let last_p = knots.last().expect("len checked").1;
        if first_p != 0.0 {
            return Err(NetModelError::InvalidCdf(
                "first knot probability must be 0".into(),
            ));
        }
        if (last_p - 1.0).abs() > 1e-9 {
            return Err(NetModelError::InvalidCdf(
                "last knot probability must be 1".into(),
            ));
        }
        Ok(EmpiricalDistribution { knots })
    }

    /// The CDF knots.
    pub fn knots(&self) -> &[(f64, f64)] {
        &self.knots
    }

    /// Smallest representable value.
    pub fn min(&self) -> f64 {
        self.knots.first().expect("validated").0
    }

    /// Largest representable value.
    pub fn max(&self) -> f64 {
        self.knots.last().expect("validated").0
    }

    /// Cumulative probability `P(X <= x)`.
    ///
    /// Locates the containing segment by binary search: this (with
    /// [`quantile`](Self::quantile)) sits inside every per-request bandwidth
    /// draw of the simulator, so the lookup is `O(log knots)` rather than a
    /// linear scan.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.min() {
            return if x < self.min() { 0.0 } else { self.knots[0].1 };
        }
        if x >= self.max() {
            return 1.0;
        }
        // First segment whose upper knot value reaches x. Its lower knot is
        // below x: for the first such segment the preceding upper knot (its
        // lower knot) was still below x, and min < x covers segment 0.
        let i = self.knots[1..].partition_point(|&(v, _)| v < x);
        let (v0, p0) = self.knots[i];
        let (v1, p1) = self.knots[i + 1];
        if v1 == v0 {
            p1
        } else {
            let t = (x - v0) / (v1 - v0);
            p0 + t * (p1 - p0)
        }
    }

    /// Quantile (inverse CDF) for probability `p`, clamped to `[0, 1]`.
    ///
    /// Binary-searches the CDF knots; equivalent to scanning for the first
    /// segment whose probability range contains `p` (vertical segments —
    /// duplicate probabilities — resolve to the segment's upper value, as
    /// the scan did).
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        // First segment whose upper knot probability reaches p; its lower
        // knot probability is <= p by the same first-crossing argument as in
        // `cdf` (segment 0 starts at probability 0). No segment reaches p
        // only when p == 1 and the last knot sits at 1 - epsilon (within
        // `from_cdf` tolerance): return the largest value, as before.
        let i = self.knots[1..].partition_point(|&(_, q)| q < p);
        if i + 1 >= self.knots.len() {
            return self.max();
        }
        let (v0, p0) = self.knots[i];
        let (v1, p1) = self.knots[i + 1];
        if p1 == p0 {
            v1
        } else {
            let t = (p - p0) / (p1 - p0);
            v0 + t * (v1 - v0)
        }
    }

    /// Draws one sample by inverse-transform sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.gen())
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Analytic mean of the piecewise-linear distribution.
    ///
    /// Each linear CDF segment contributes a uniform component over its
    /// value range, weighted by the segment's probability mass.
    pub fn mean(&self) -> f64 {
        let mut m = 0.0;
        for w in self.knots.windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            m += (p1 - p0) * (v0 + v1) / 2.0;
        }
        m
    }

    /// Returns a copy of the distribution with all values multiplied by
    /// `factor` (used, e.g., to convert units or to scale a base bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative"
        );
        EmpiricalDistribution {
            knots: self.knots.iter().map(|&(v, p)| (v * factor, p)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn simple() -> EmpiricalDistribution {
        EmpiricalDistribution::from_cdf(vec![(0.0, 0.0), (10.0, 0.5), (20.0, 1.0)]).unwrap()
    }

    #[test]
    fn rejects_invalid_cdfs() {
        assert!(EmpiricalDistribution::from_cdf(vec![(0.0, 0.0)]).is_err());
        assert!(EmpiricalDistribution::from_cdf(vec![(0.0, 0.1), (1.0, 1.0)]).is_err());
        assert!(EmpiricalDistribution::from_cdf(vec![(0.0, 0.0), (1.0, 0.9)]).is_err());
        assert!(EmpiricalDistribution::from_cdf(vec![(1.0, 0.0), (0.0, 1.0)]).is_err());
        assert!(EmpiricalDistribution::from_cdf(vec![(0.0, 0.0), (1.0, f64::NAN)]).is_err());
        assert!(EmpiricalDistribution::from_cdf(vec![
            (0.0, 0.0),
            (1.0, 0.6),
            (2.0, 0.5),
            (3.0, 1.0)
        ])
        .is_err());
    }

    #[test]
    fn cdf_and_quantile_are_inverses_on_knots() {
        let d = simple();
        assert_eq!(d.cdf(0.0), 0.0);
        assert!((d.cdf(10.0) - 0.5).abs() < 1e-12);
        assert_eq!(d.cdf(20.0), 1.0);
        assert_eq!(d.cdf(-5.0), 0.0);
        assert_eq!(d.cdf(25.0), 1.0);
        assert!((d.quantile(0.5) - 10.0).abs() < 1e-12);
        assert!((d.quantile(0.25) - 5.0).abs() < 1e-12);
        assert!((d.quantile(0.75) - 15.0).abs() < 1e-12);
        assert_eq!(d.quantile(-0.5), 0.0);
        assert_eq!(d.quantile(2.0), 20.0);
    }

    #[test]
    fn mean_of_uniform_segments() {
        let d = simple();
        // 0.5 * mean(U(0,10)) + 0.5 * mean(U(10,20)) = 0.5*5 + 0.5*15 = 10.
        assert!((d.mean() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn samples_in_support_and_mean_converges() {
        let d = simple();
        let mut rng = StdRng::seed_from_u64(3);
        let samples = d.sample_n(&mut rng, 20_000);
        assert!(samples.iter().all(|&x| (0.0..=20.0).contains(&x)));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn scaling_scales_values_only() {
        let d = simple().scaled(2.0);
        assert_eq!(d.max(), 40.0);
        assert!((d.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn negative_scale_panics() {
        let _ = simple().scaled(-1.0);
    }

    /// The linear knot scan the binary search replaced, kept verbatim as
    /// the reference implementation for the property tests below.
    fn quantile_linear(d: &EmpiricalDistribution, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        for w in d.knots().windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            if p >= p0 && p <= p1 {
                if p1 == p0 {
                    return v1;
                }
                let t = (p - p0) / (p1 - p0);
                return v0 + t * (v1 - v0);
            }
        }
        d.max()
    }

    fn cdf_linear(d: &EmpiricalDistribution, x: f64) -> f64 {
        if x <= d.min() {
            return if x < d.min() { 0.0 } else { d.knots()[0].1 };
        }
        if x >= d.max() {
            return 1.0;
        }
        for w in d.knots().windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            if x >= v0 && x <= v1 {
                if v1 == v0 {
                    return p1;
                }
                let t = (x - v0) / (v1 - v0);
                return p0 + t * (p1 - p0);
            }
        }
        1.0
    }

    /// A random valid CDF: non-decreasing values (possibly duplicated) and
    /// non-decreasing probabilities pinned to 0 and 1 at the ends, with
    /// flat (duplicate-probability) and vertical (duplicate-value) segments
    /// mixed in.
    fn random_cdf(rng: &mut StdRng) -> EmpiricalDistribution {
        let n = rng.gen_range(2..=16usize);
        let mut value = rng.gen_range(-50.0..50.0);
        let mut knots = Vec::with_capacity(n);
        let mut cum = vec![0.0f64];
        for _ in 1..n {
            // One in four increments is zero, exercising duplicates.
            let dp = if rng.gen_bool(0.25) {
                0.0
            } else {
                rng.gen_range(0.0..1.0)
            };
            cum.push(cum.last().unwrap() + dp);
        }
        let total = *cum.last().unwrap();
        for (i, c) in cum.iter().enumerate() {
            let p = if total == 0.0 {
                // All increments were zero: a valid CDF still needs to end
                // at 1, so make it a single vertical jump at the last knot.
                if i + 1 == n {
                    1.0
                } else {
                    0.0
                }
            } else if i + 1 == n {
                1.0
            } else {
                c / total
            };
            knots.push((value, p));
            if !rng.gen_bool(0.25) {
                value += rng.gen_range(0.0..20.0);
            }
        }
        EmpiricalDistribution::from_cdf(knots).unwrap()
    }

    #[test]
    fn binary_search_quantile_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(0xe3_14);
        for _ in 0..500 {
            let d = random_cdf(&mut rng);
            // Edge probabilities, every knot probability, and random draws.
            let mut probes = vec![0.0, 1.0, -0.5, 1.5, 0.5];
            probes.extend(d.knots().iter().map(|&(_, p)| p));
            probes.extend((0..20).map(|_| rng.gen::<f64>()));
            for p in probes {
                let fast = d.quantile(p);
                let slow = quantile_linear(&d, p);
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "quantile({p}) diverged on {:?}: fast {fast} vs linear {slow}",
                    d.knots()
                );
            }
        }
    }

    #[test]
    fn binary_search_cdf_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..500 {
            let d = random_cdf(&mut rng);
            let span = (d.max() - d.min()).max(1.0);
            let mut probes = vec![d.min(), d.max(), d.min() - 1.0, d.max() + 1.0];
            probes.extend(d.knots().iter().map(|&(v, _)| v));
            probes.extend((0..20).map(|_| d.min() + rng.gen::<f64>() * span));
            for x in probes {
                let fast = d.cdf(x);
                let slow = cdf_linear(&d, x);
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "cdf({x}) diverged on {:?}: fast {fast} vs linear {slow}",
                    d.knots()
                );
            }
        }
    }

    #[test]
    fn sampling_matches_linear_scan_stream() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let d = random_cdf(&mut rng);
            let mut fast_rng = StdRng::seed_from_u64(11);
            let mut slow_rng = StdRng::seed_from_u64(11);
            for _ in 0..50 {
                let fast = d.sample(&mut fast_rng);
                let slow = quantile_linear(&d, slow_rng.gen());
                assert_eq!(fast.to_bits(), slow.to_bits());
            }
        }
    }

    #[test]
    fn quantile_edge_cases() {
        // p = 0 resolves to the smallest value; p = 1 to the largest.
        let d = simple();
        assert_eq!(d.quantile(0.0), 0.0);
        assert_eq!(d.quantile(1.0), 20.0);

        // Duplicate-probability knots: a flat CDF stretch resolves to its
        // first crossing (the stretch's lower value), as the linear scan
        // did; probabilities just past the stretch land on its far side.
        let flat =
            EmpiricalDistribution::from_cdf(vec![(0.0, 0.0), (5.0, 0.5), (9.0, 0.5), (10.0, 1.0)])
                .unwrap();
        assert_eq!(flat.quantile(0.5), 5.0);
        assert!(flat.quantile(0.5 + 1e-12) > 9.0);

        // A point mass (duplicate values) keeps returning that value.
        let point = EmpiricalDistribution::from_cdf(vec![(3.0, 0.0), (3.0, 1.0)]).unwrap();
        assert_eq!(point.quantile(0.0), 3.0);
        assert_eq!(point.quantile(0.7), 3.0);
        assert_eq!(point.quantile(1.0), 3.0);

        // A last probability of 1 - epsilon (within from_cdf tolerance)
        // still resolves p = 1 to the maximum value.
        let eps = EmpiricalDistribution::from_cdf(vec![(0.0, 0.0), (8.0, 1.0 - 5e-10)]).unwrap();
        assert_eq!(eps.quantile(1.0), 8.0);
    }
}
