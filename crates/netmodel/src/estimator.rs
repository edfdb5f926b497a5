//! Bandwidth estimation at the proxy (Section 2.7 of the paper).
//!
//! The caching algorithms need an estimate of the bandwidth between the
//! cache and each origin server. The paper describes two families of
//! approaches:
//!
//! * **Passive measurement** — observe the throughput of past connections
//!   to the same server (no extra traffic, but stale under variability).
//!   Implemented by [`EwmaEstimator`] and [`WindowedEstimator`].
//! * **Active measurement** — probe the path (packet-pair / loss-rate
//!   probes). A probe reports current conditions and keeps no history, so
//!   it needs no estimator here: the simulator answers it from the
//!   bandwidth in effect at request time.
//!
//! The over-provisioning heuristic of Section 2.5 (scale the estimate by a
//! factor `e ∈ [0, 1]`) lives in the PB(e) caching policies, not in an
//! estimator.

use std::collections::VecDeque;

/// Weight of the newest observation in the EWMA estimate that both the
/// runnable proxy and the simulator's passive EWMA estimator use.
pub const EWMA_ALPHA: f64 = 0.3;

/// An online estimator of the available bandwidth of one path.
///
/// Implementations consume throughput observations (bytes per second) and
/// produce a current estimate. An estimator with no observations returns
/// `None` so callers can fall back to a default (the paper's proxies fall
/// back to a conservative default until the first transfer completes).
pub trait BandwidthEstimator {
    /// Records one observed throughput sample in bytes per second.
    fn observe(&mut self, throughput_bps: f64);

    /// Current estimate in bytes per second, or `None` before any
    /// observation.
    fn estimate_bps(&self) -> Option<f64>;

    /// Number of samples observed so far.
    fn samples(&self) -> usize;
}

/// Exponentially-weighted moving average estimator (passive measurement).
///
/// ```
/// use sc_netmodel::{BandwidthEstimator, EwmaEstimator};
///
/// let mut est = EwmaEstimator::new(0.25);
/// assert!(est.estimate_bps().is_none());
/// est.observe(100_000.0);
/// est.observe(50_000.0);
/// let e = est.estimate_bps().unwrap();
/// assert!(e < 100_000.0 && e > 50_000.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaEstimator {
    alpha: f64,
    current: Option<f64>,
    samples: usize,
}

impl EwmaEstimator {
    /// Creates an EWMA estimator with smoothing factor `alpha` (the weight
    /// of the newest sample), clamped to `[0, 1]`.
    pub fn new(alpha: f64) -> Self {
        EwmaEstimator {
            alpha: alpha.clamp(0.0, 1.0),
            current: None,
            samples: 0,
        }
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl BandwidthEstimator for EwmaEstimator {
    fn observe(&mut self, throughput_bps: f64) {
        let x = throughput_bps.max(0.0);
        self.current = Some(match self.current {
            None => x,
            Some(prev) => self.alpha * x + (1.0 - self.alpha) * prev,
        });
        self.samples += 1;
    }

    fn estimate_bps(&self) -> Option<f64> {
        self.current
    }

    fn samples(&self) -> usize {
        self.samples
    }
}

/// Sliding-window mean estimator (passive measurement over the last `k`
/// transfers).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedEstimator {
    window: usize,
    values: VecDeque<f64>,
    samples: usize,
}

impl WindowedEstimator {
    /// Creates an estimator that averages the `window` most recent samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        WindowedEstimator {
            window,
            values: VecDeque::with_capacity(window),
            samples: 0,
        }
    }

    /// The window length.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl BandwidthEstimator for WindowedEstimator {
    fn observe(&mut self, throughput_bps: f64) {
        if self.values.len() == self.window {
            self.values.pop_front();
        }
        self.values.push_back(throughput_bps.max(0.0));
        self.samples += 1;
    }

    fn estimate_bps(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }

    fn samples(&self) -> usize {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut est = EwmaEstimator::new(0.5);
        for _ in 0..32 {
            est.observe(80_000.0);
        }
        assert!((est.estimate_bps().unwrap() - 80_000.0).abs() < 1e-6);
        assert_eq!(est.samples(), 32);
        assert_eq!(est.alpha(), 0.5);
    }

    #[test]
    fn ewma_first_sample_is_estimate() {
        let mut est = EwmaEstimator::new(0.1);
        est.observe(42.0);
        assert_eq!(est.estimate_bps(), Some(42.0));
    }

    #[test]
    fn ewma_clamps_alpha_and_negative_samples() {
        let mut est = EwmaEstimator::new(7.0);
        assert_eq!(est.alpha(), 1.0);
        est.observe(-5.0);
        assert_eq!(est.estimate_bps(), Some(0.0));
    }

    #[test]
    fn windowed_only_remembers_recent_samples() {
        let mut est = WindowedEstimator::new(2);
        est.observe(10.0);
        est.observe(20.0);
        est.observe(30.0);
        assert_eq!(est.estimate_bps(), Some(25.0));
        assert_eq!(est.samples(), 3);
        assert_eq!(est.window(), 2);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn windowed_rejects_zero_window() {
        let _ = WindowedEstimator::new(0);
    }

    #[test]
    fn estimators_propagate_through_trait_objects() {
        let mut estimators: Vec<Box<dyn BandwidthEstimator>> = vec![
            Box::new(EwmaEstimator::new(0.3)),
            Box::new(WindowedEstimator::new(4)),
        ];
        for est in &mut estimators {
            est.observe(10_000.0);
            assert_eq!(est.estimate_bps(), Some(10_000.0));
        }
    }
}
