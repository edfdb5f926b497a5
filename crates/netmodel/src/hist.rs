//! Fixed-width histograms, as used in Figures 2, 3 and 4 of the paper.

/// A fixed-bin-width histogram over `[0, bin_width * bins)`.
///
/// The paper's Figure 2 histogram uses 4 KB/s bins over the observed NLANR
/// bandwidth samples; Figures 3 and 4 use ratio histograms with a bin width
/// of roughly 0.05.
///
/// ```
/// use sc_netmodel::Histogram;
///
/// let mut hist = Histogram::new(4_000.0, 120); // 4 KB/s bins up to 480 KB/s
/// hist.add(10_000.0);
/// hist.add(11_000.0);
/// hist.add(250_000.0);
/// assert_eq!(hist.total(), 3);
/// assert_eq!(hist.count(2), 2); // both 10 and 11 KB/s fall in bin [8, 12) KB/s
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    underflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of width `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is not strictly positive or `bins` is zero.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        assert!(bin_width > 0.0, "bin width must be positive");
        assert!(bins > 0, "histogram needs at least one bin");
        Histogram {
            bin_width,
            counts: vec![0; bins],
            overflow: 0,
            underflow: 0,
            total: 0,
        }
    }

    /// Builds a histogram directly from samples.
    pub fn from_samples(bin_width: f64, bins: usize, samples: &[f64]) -> Self {
        let mut h = Histogram::new(bin_width, bins);
        for &s in samples {
            h.add(s);
        }
        h
    }

    /// Adds a sample. Samples below zero count as underflow, samples beyond
    /// the last bin as overflow; both are included in [`total`](Self::total).
    pub fn add(&mut self, sample: f64) {
        self.total += 1;
        if sample < 0.0 {
            self.underflow += 1;
            return;
        }
        let idx = (sample / self.bin_width) as usize;
        if idx >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= bins()`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// All in-range bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of samples larger than the histogram range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Number of negative samples.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Total number of samples added (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Lower edge of bin `i`.
    pub fn bin_start(&self, i: usize) -> f64 {
        i as f64 * self.bin_width
    }

    /// Fraction of all samples that fell in bin `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Empirical cumulative distribution evaluated at the upper edge of each
    /// bin. The final value approaches 1 (exactly 1 when there is no
    /// overflow).
    pub fn cumulative(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut acc = self.underflow as f64;
        for &c in &self.counts {
            acc += c as f64;
            out.push(if self.total == 0 {
                0.0
            } else {
                acc / self.total as f64
            });
        }
        out
    }

    /// Fraction of samples strictly below `x` (approximated at bin
    /// granularity: the bin containing `x` is excluded).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let idx = ((x / self.bin_width) as usize).min(self.counts.len());
        let below: u64 = self.counts[..idx].iter().sum::<u64>() + self.underflow;
        below as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_width_panics() {
        let _ = Histogram::new(0.0, 10);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(1.0, 0);
    }

    #[test]
    fn binning_is_correct() {
        let mut h = Histogram::new(10.0, 5);
        h.add(0.0);
        h.add(9.999);
        h.add(10.0);
        h.add(49.9);
        h.add(50.0); // overflow
        h.add(-1.0); // underflow
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(1), 1);
        assert_eq!(h.count(4), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.total(), 6);
    }

    #[test]
    fn cumulative_reaches_one_without_overflow() {
        let h = Histogram::from_samples(1.0, 10, &[0.5, 1.5, 2.5, 9.5]);
        let cdf = h.cumulative();
        assert_eq!(cdf.len(), 10);
        assert!((cdf[9] - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn fraction_below_and_edges() {
        let h = Histogram::from_samples(10.0, 10, &[5.0, 15.0, 25.0, 95.0]);
        assert!((h.fraction_below(10.0) - 0.25).abs() < 1e-12);
        assert!((h.fraction_below(30.0) - 0.75).abs() < 1e-12);
        assert!((h.fraction_below(1_000.0) - 1.0).abs() < 1e-12);
        assert_eq!(h.bin_start(3), 30.0);
        assert!((h.fraction(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new(1.0, 4);
        assert_eq!(h.total(), 0);
        assert_eq!(h.fraction(0), 0.0);
        assert_eq!(h.fraction_below(10.0), 0.0);
        assert!(h.cumulative().iter().all(|&c| c == 0.0));
    }
}
