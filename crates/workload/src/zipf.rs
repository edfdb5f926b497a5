//! Zipf-like popularity distribution.

use crate::WorkloadError;
use rand::Rng;

/// A Zipf-like discrete distribution over ranks `1..=n`.
///
/// With skew parameter `alpha`, the probability of drawing the object with
/// popularity rank `r` is proportional to `r^{-alpha}`. The paper uses
/// `alpha = 0.73` by default and sweeps `alpha ∈ [0.5, 1.2]` in Section 4.2.
///
/// Sampling uses inverse-transform over the precomputed cumulative
/// distribution. A guide table of `n` entries — for every level `k / n`, the
/// first rank whose cumulative probability reaches it — starts the search
/// next to the answer, so drawing a sample costs `O(1)` expected steps.
///
/// ```
/// use sc_workload::ZipfLike;
/// use rand::SeedableRng;
///
/// let zipf = ZipfLike::new(1000, 0.73)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!((1..=1000).contains(&rank));
/// // Rank 1 is the most likely outcome.
/// assert!(zipf.probability(1) > zipf.probability(1000));
/// # Ok::<(), sc_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ZipfLike {
    n: usize,
    alpha: f64,
    /// `cdf[r-1]` = P(rank <= r); last entry is exactly 1.0.
    cdf: Vec<f64>,
    /// `guide[k]` = the first index `i` with `cdf[i] >= k / n`, for `k < n`.
    guide: Vec<u32>,
}

impl ZipfLike {
    /// Creates a Zipf-like distribution over `n` ranks with skew `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::EmptyCatalog`] if `n == 0` and
    /// [`WorkloadError::InvalidZipfAlpha`] if `alpha` is negative, NaN or
    /// infinite.
    pub fn new(n: usize, alpha: f64) -> Result<Self, WorkloadError> {
        if n == 0 {
            return Err(WorkloadError::EmptyCatalog);
        }
        if !alpha.is_finite() || alpha < 0.0 {
            return Err(WorkloadError::InvalidZipfAlpha(alpha));
        }
        let mut weights = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 1..=n {
            let w = (r as f64).powf(-alpha);
            total += w;
            weights.push(w);
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        // Guard against floating-point drift.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        // Levels rise with k and the last entry is 1.0 > every level, so one
        // forward sweep finds each first crossing.
        let mut guide = Vec::with_capacity(n);
        let mut i = 0;
        for k in 0..n {
            let level = k as f64 / n as f64;
            while cdf[i] < level {
                i += 1;
            }
            guide.push(i as u32);
        }
        Ok(ZipfLike {
            n,
            alpha,
            cdf,
            guide,
        })
    }

    /// Number of ranks in the distribution.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the distribution has no ranks (never happens for a
    /// successfully constructed value; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The skew parameter `alpha`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Probability of drawing popularity rank `rank` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is zero or greater than [`len`](Self::len).
    pub fn probability(&self, rank: usize) -> f64 {
        assert!(rank >= 1 && rank <= self.n, "rank out of range");
        let prev = if rank == 1 { 0.0 } else { self.cdf[rank - 2] };
        self.cdf[rank - 1] - prev
    }

    /// Draws a popularity rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.rank_for_quantile(u)
    }

    /// Returns the smallest rank `r` such that `P(rank <= r) >= q`.
    ///
    /// `q` is clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is NaN.
    pub fn rank_for_quantile(&self, q: f64) -> usize {
        assert!(!q.is_nan(), "quantile must not be NaN");
        let q = q.clamp(0.0, 1.0);
        let level = ((q * self.n as f64) as usize).min(self.n - 1);
        let mut i = self.guide[level] as usize;
        // `q * n` can round up past a level whose first crossing lies
        // beyond the answer: step back to it.
        while i > 0 && self.cdf[i - 1] >= q {
            i -= 1;
        }
        // Terminates: the last entry is 1.0 >= q.
        while self.cdf[i] < q {
            i += 1;
        }
        i + 1
    }

    /// Expected request share of the `k` most popular ranks.
    pub fn head_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.cdf[k.min(self.n) - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rejects_empty_and_bad_alpha() {
        assert!(matches!(
            ZipfLike::new(0, 0.73),
            Err(WorkloadError::EmptyCatalog)
        ));
        assert!(matches!(
            ZipfLike::new(10, -0.5),
            Err(WorkloadError::InvalidZipfAlpha(_))
        ));
        assert!(matches!(
            ZipfLike::new(10, f64::NAN),
            Err(WorkloadError::InvalidZipfAlpha(_))
        ));
    }

    #[test]
    fn probabilities_sum_to_one() {
        let z = ZipfLike::new(100, 0.73).unwrap();
        let total: f64 = (1..=100).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_decrease_with_rank() {
        let z = ZipfLike::new(50, 1.0).unwrap();
        for r in 1..50 {
            assert!(z.probability(r) >= z.probability(r + 1));
        }
    }

    #[test]
    fn alpha_zero_is_uniform() {
        let z = ZipfLike::new(10, 0.0).unwrap();
        for r in 1..=10 {
            assert!((z.probability(r) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn higher_alpha_concentrates_head_mass() {
        let low = ZipfLike::new(1000, 0.5).unwrap();
        let high = ZipfLike::new(1000, 1.2).unwrap();
        assert!(high.head_mass(10) > low.head_mass(10));
    }

    #[test]
    fn sampling_matches_head_mass_roughly() {
        let z = ZipfLike::new(200, 0.73).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let draws = 20_000;
        let mut head = 0usize;
        for _ in 0..draws {
            if z.sample(&mut rng) <= 20 {
                head += 1;
            }
        }
        let empirical = head as f64 / draws as f64;
        let expected = z.head_mass(20);
        assert!(
            (empirical - expected).abs() < 0.02,
            "empirical {empirical} vs expected {expected}"
        );
    }

    #[test]
    fn quantile_edges() {
        let z = ZipfLike::new(10, 0.73).unwrap();
        assert_eq!(z.rank_for_quantile(0.0), 1);
        assert_eq!(z.rank_for_quantile(1.0), 10);
        assert_eq!(z.rank_for_quantile(2.0), 10);
        assert_eq!(z.rank_for_quantile(-1.0), 1);
        assert_eq!(z.rank_for_quantile(f64::INFINITY), 10);
        assert_eq!(z.rank_for_quantile(f64::NEG_INFINITY), 1);
    }

    #[test]
    #[should_panic(expected = "quantile must not be NaN")]
    fn nan_quantile_is_rejected() {
        ZipfLike::new(10, 0.73).unwrap().rank_for_quantile(f64::NAN);
    }

    /// The binary search the guide table replaced, kept as the reference.
    fn reference_rank(z: &ZipfLike, q: f64) -> usize {
        let q = q.clamp(0.0, 1.0);
        match z
            .cdf
            .binary_search_by(|p| p.partial_cmp(&q).expect("cdf is never NaN"))
        {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(z.n),
        }
    }

    #[test]
    fn guide_table_returns_the_binary_search_rank() {
        let mut rng = StdRng::seed_from_u64(0x6_01DE);
        // At n = 6 and 10 with alpha = 0 the summed CDF entries for 5/6
        // and 9/10 lie one ulp below the levels `k / n`, yet `q * n`
        // rounds up to k: only the step back finds their ranks.
        for n in [1, 2, 6, 7, 10, 300, 1_000, 5_000] {
            for alpha in [0.0, 0.5, 0.73, 1.2] {
                let z = ZipfLike::new(n, alpha).unwrap();
                let mut quantiles = vec![0.0, -0.0, 1.0, -1.0, 2.0];
                for &p in &z.cdf {
                    quantiles.extend([p.next_down(), p, p.next_up()]);
                }
                for k in 0..=n {
                    let level = k as f64 / n as f64;
                    quantiles.extend([level.next_down(), level, level.next_up()]);
                }
                quantiles.extend((0..100_000).map(|_| rng.gen::<f64>()));
                for q in quantiles {
                    assert_eq!(
                        z.rank_for_quantile(q),
                        reference_rank(&z, q),
                        "n {n}, alpha {alpha}, q {q:e}"
                    );
                }
            }
        }
    }
}
