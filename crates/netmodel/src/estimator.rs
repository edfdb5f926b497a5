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
//!   it needs no estimator: the caller hands the rate a probe would read
//!   to [`EstimatorBank::decision_bps`].
//!
//! [`EstimatorBank`] is the one place where the estimate a placement
//! decision uses, and the transfers it learns from, are decided: both
//! simulator modes and the runnable proxy hold one, built from an
//! [`EstimatorKind`].
//!
//! The over-provisioning heuristic of Section 2.5 (scale the estimate by a
//! factor `e ∈ [0, 1]`) lives in the PB(e) caching policies, not in an
//! estimator.

use std::collections::VecDeque;

/// Weight of the newest observation in [`EstimatorKind::Ewma`]'s estimate.
const EWMA_ALPHA: f64 = 0.3;

/// Number of recent transfers the [`EstimatorKind::Windowed`] estimate
/// averages.
const WINDOW_TRANSFERS: usize = 8;

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
}

impl EwmaEstimator {
    /// Creates an EWMA estimator with smoothing factor `alpha` (the weight
    /// of the newest sample), clamped to `[0, 1]`.
    pub fn new(alpha: f64) -> Self {
        EwmaEstimator {
            alpha: alpha.clamp(0.0, 1.0),
            current: None,
        }
    }
}

impl BandwidthEstimator for EwmaEstimator {
    fn observe(&mut self, throughput_bps: f64) {
        let x = throughput_bps.max(0.0);
        self.current = Some(match self.current {
            None => x,
            Some(prev) => self.alpha * x + (1.0 - self.alpha) * prev,
        });
    }

    fn estimate_bps(&self) -> Option<f64> {
        self.current
    }
}

/// Sliding-window mean estimator (passive measurement over the last `k`
/// transfers).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedEstimator {
    window: usize,
    values: VecDeque<f64>,
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
        }
    }
}

impl BandwidthEstimator for WindowedEstimator {
    fn observe(&mut self, throughput_bps: f64) {
        if self.values.len() == self.window {
            self.values.pop_front();
        }
        self.values.push_back(throughput_bps.max(0.0));
    }

    fn estimate_bps(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }
}

/// How a cache estimates each origin path's bandwidth (Section 2.7 of the
/// paper).
///
/// The cache's placement decisions need a bandwidth estimate per origin
/// path; the transfer itself experiences the *true* instantaneous
/// bandwidth. Under time-varying bandwidth (the simulator's AR(1) model)
/// the estimator's staleness becomes a first-order effect — the subject of
/// the fig13 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// An oracle that always reports the caller's fallback — in the
    /// simulator the path's long-run mean: exact under i.i.d. bandwidth,
    /// increasingly stale under drift.
    Oracle,
    /// Passive exponentially-weighted moving average over the throughput of
    /// past transfers ([`EwmaEstimator`]), weighting the newest one by 0.3 —
    /// the runnable proxy's estimator.
    Ewma,
    /// Passive sliding-window mean over the last 8 transfers
    /// ([`WindowedEstimator`]).
    Windowed,
    /// Active probing: measure the path's current bandwidth just before
    /// each placement decision — fresh but (in a real proxy) not free. It
    /// keeps no history, so [`EstimatorBank`] answers it without state.
    Probe,
}

impl EstimatorKind {
    /// Human-readable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            EstimatorKind::Oracle => "oracle-mean",
            EstimatorKind::Ewma => "ewma",
            EstimatorKind::Windowed => "windowed",
            EstimatorKind::Probe => "probe",
        }
    }
}

/// Per-path bandwidth-estimator state: what a cache knows about each origin
/// path, indexed by path.
///
/// The bank turns an [`EstimatorKind`] into what the caching algorithm sees
/// on each access: the caller's fallback, a passive (EWMA / windowed)
/// estimate fed by the throughput of completed transfers, or a fresh
/// active probe of the current bandwidth. Passive estimators report the
/// fallback until their first observation, as the paper's proxies fall
/// back to a default before the first transfer completes.
///
/// ```
/// use sc_netmodel::{EstimatorBank, EstimatorKind};
///
/// // The runnable proxy's bank: one EWMA path, a 64 kB/s prior, no probe.
/// let mut bank = EstimatorBank::new(EstimatorKind::Ewma, 1);
/// assert_eq!(bank.decision_bps(0, 64_000.0, None), 64_000.0);
/// bank.observe_transfer(0, 160_000.0);
/// assert_eq!(bank.decision_bps(0, 64_000.0, None), 160_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct EstimatorBank {
    slots: Slots,
}

#[derive(Debug, Clone)]
enum Slots {
    /// No state: always report the fallback.
    Oracle,
    Ewma(Vec<EwmaEstimator>),
    Windowed(Vec<WindowedEstimator>),
    /// No state either: a probe is a fresh measurement of the current
    /// bandwidth, so only the newest value — which the caller already has
    /// in hand — would ever be read.
    Probe,
}

impl EstimatorBank {
    /// Creates estimator state for `paths` paths.
    pub fn new(kind: EstimatorKind, paths: usize) -> Self {
        let slots = match kind {
            EstimatorKind::Oracle => Slots::Oracle,
            EstimatorKind::Ewma => Slots::Ewma(vec![EwmaEstimator::new(EWMA_ALPHA); paths]),
            EstimatorKind::Windowed => {
                Slots::Windowed(vec![WindowedEstimator::new(WINDOW_TRANSFERS); paths])
            }
            EstimatorKind::Probe => Slots::Probe,
        };
        EstimatorBank { slots }
    }

    /// The bandwidth estimate a placement decision for path `path` uses.
    ///
    /// `fallback_bps` is the caller's prior, reported until a passive
    /// estimator has learnt something (and always by the oracle): the
    /// simulator passes the path's long-run mean, the proxy its assumed
    /// origin rate. `current_bps` is what an active probe would read now —
    /// the simulator's instantaneous bandwidth or fair share — and `None`
    /// where no probe can be made, in which case a probe reports the
    /// fallback too.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range for a passive kind.
    #[inline]
    pub fn decision_bps(&self, path: usize, fallback_bps: f64, current_bps: Option<f64>) -> f64 {
        match &self.slots {
            Slots::Oracle => fallback_bps,
            Slots::Ewma(slots) => slots[path].estimate_bps().unwrap_or(fallback_bps),
            Slots::Windowed(slots) => slots[path].estimate_bps().unwrap_or(fallback_bps),
            Slots::Probe => current_bps.unwrap_or(fallback_bps),
        }
    }

    /// Records the realised throughput of a completed transfer on path
    /// `path` — the input of the passive estimators. Active probing and the
    /// oracle ignore it.
    ///
    /// Only a transfer that moved origin bytes in a positive time teaches:
    /// one of at least one byte at the proxy, which moves whole bytes; a
    /// request not served whole from the cache in the simulator's
    /// per-request mode; a completed origin transfer with a positive
    /// elapsed time in its session mode. A full cache hit reveals nothing
    /// about the path, and its callers do not report one.
    ///
    /// # Panics
    ///
    /// Panics if `path` is out of range for a passive kind.
    #[inline]
    pub fn observe_transfer(&mut self, path: usize, throughput_bps: f64) {
        match &mut self.slots {
            Slots::Oracle | Slots::Probe => {}
            Slots::Ewma(slots) => slots[path].observe(throughput_bps),
            Slots::Windowed(slots) => slots[path].observe(throughput_bps),
        }
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
        est.observe(-5.0);
        assert_eq!(est.estimate_bps(), Some(0.0));
        // A weight clamped to 1 keeps only the newest sample.
        est.observe(9.0);
        assert_eq!(est.estimate_bps(), Some(9.0));
    }

    #[test]
    fn windowed_only_remembers_recent_samples() {
        let mut est = WindowedEstimator::new(2);
        est.observe(10.0);
        est.observe(20.0);
        est.observe(30.0);
        assert_eq!(est.estimate_bps(), Some(25.0));
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

    #[test]
    fn estimator_bank_oracle_and_probe() {
        let mut oracle = EstimatorBank::new(EstimatorKind::Oracle, 4);
        assert_eq!(oracle.decision_bps(1, 100.0, Some(40.0)), 100.0);
        oracle.observe_transfer(1, 40.0);
        assert_eq!(oracle.decision_bps(1, 100.0, Some(40.0)), 100.0);

        let mut probe = EstimatorBank::new(EstimatorKind::Probe, 4);
        assert_eq!(probe.decision_bps(0, 100.0, Some(37.5)), 37.5);
        probe.observe_transfer(0, 999.0);
        assert_eq!(probe.decision_bps(0, 100.0, Some(50.0)), 50.0);
        // No probe can be made: the prior stands.
        assert_eq!(probe.decision_bps(0, 100.0, None), 100.0);
    }

    #[test]
    fn estimator_bank_passive_kinds_lag_and_fall_back() {
        let mut ewma = EstimatorBank::new(EstimatorKind::Ewma, 2);
        // No observation yet: the fallback.
        assert_eq!(ewma.decision_bps(0, 80.0, Some(20.0)), 80.0);
        ewma.observe_transfer(0, 20.0);
        assert_eq!(ewma.decision_bps(0, 80.0, Some(60.0)), 20.0);
        ewma.observe_transfer(0, 60.0);
        // 0.3 · 60 + 0.7 · 20: the newest transfer weighs 0.3.
        assert!((ewma.decision_bps(0, 80.0, None) - 32.0).abs() < 1e-9);
        // Per-path state is independent.
        assert_eq!(ewma.decision_bps(1, 80.0, Some(60.0)), 80.0);

        let mut win = EstimatorBank::new(EstimatorKind::Windowed, 1);
        assert_eq!(win.decision_bps(0, 80.0, Some(10.0)), 80.0);
        for i in 1..=10 {
            win.observe_transfer(0, 10.0 * i as f64);
        }
        // The mean of the last eight transfers, 30 … 100.
        assert_eq!(win.decision_bps(0, 80.0, Some(10.0)), 65.0);
    }
}
