//! Per-request bandwidth provisioning for the simulator.
//!
//! [`BandwidthProvider`] owns the network state of one simulation run: one
//! [`PathSet`] — the per-object path averages (drawn from the NLANR-like
//! base distribution of Figure 2) beside the run's single variability model
//! — plus, per [`BandwidthModel`], either that model's i.i.d. ratio stream
//! or one pre-generated AR(1) [`BandwidthTimeSeries`] per path, sampled at
//! request time from the simulation clock. [`EstimatorBank`] maintains the
//! per-path [`sc_netmodel::BandwidthEstimator`] state that stands between
//! the true bandwidth and what the caching algorithm gets to see.

use crate::config::{BandwidthModel, EstimatorKind, VariabilityKind};
use rand::Rng;
use sc_netmodel::{
    BandwidthEstimator, BandwidthTimeSeries, EwmaEstimator, NlanrBandwidthModel, PathSet,
    TimeSeriesConfig, WindowedEstimator,
};

/// Supplies the simulator with per-object average bandwidths and per-request
/// instantaneous bandwidth samples.
///
/// Matches the methodology of Section 4.3 of the paper: every object's
/// origin server is reached over a path whose *average* bandwidth is drawn
/// from the NLANR-like distribution of Figure 2. How a request's
/// *instantaneous* bandwidth relates to that average depends on the
/// [`BandwidthModel`]:
///
/// * [`BandwidthModel::Iid`] — each request multiplies the average by an
///   independent ratio drawn from the configured variability model;
/// * [`BandwidthModel::Ar1`] — each path carries a mean-reverting
///   [`BandwidthTimeSeries`] spanning the whole trace, and a request
///   observes the series value at its arrival time.
#[derive(Debug, Clone)]
pub struct BandwidthProvider {
    paths: PathSet,
    /// One series per path in AR(1) mode; `None` in i.i.d. mode.
    series: Option<Vec<BandwidthTimeSeries>>,
}

impl BandwidthProvider {
    /// Generates i.i.d.-mode bandwidth state for `objects` objects.
    ///
    /// Path averages are drawn from the paper-default NLANR model using
    /// `rng`; per-request variation follows `kind`.
    pub fn generate<R: Rng + ?Sized>(objects: usize, kind: VariabilityKind, rng: &mut R) -> Self {
        Self::generate_with_model(objects, kind, BandwidthModel::Iid, 0.0, rng)
    }

    /// Generates bandwidth state for `objects` objects under an explicit
    /// [`BandwidthModel`].
    ///
    /// In AR(1) mode every path gets a time series covering `horizon_secs`
    /// of simulated time (the arrival time of the last request): the path's
    /// NLANR-drawn average becomes the series mean, the marginal coefficient
    /// of variation comes from `kind`, and the temporal parameters from the
    /// model. In i.i.d. mode this is exactly [`BandwidthProvider::generate`]
    /// — `horizon_secs` is ignored and no extra random draws are consumed,
    /// which keeps the golden metrics bit-stable.
    ///
    /// # Panics
    ///
    /// Panics if the AR(1) parameters are invalid; validate the simulation
    /// configuration first (as [`crate::SimWorker`] does).
    pub fn generate_with_model<R: Rng + ?Sized>(
        objects: usize,
        kind: VariabilityKind,
        model: BandwidthModel,
        horizon_secs: f64,
        rng: &mut R,
    ) -> Self {
        let paths = PathSet::generate(
            objects,
            &NlanrBandwidthModel::paper_default(),
            kind.model(),
            rng,
        );
        let series = match model {
            BandwidthModel::Iid => None,
            BandwidthModel::Ar1 {
                autocorrelation,
                interval_secs,
            } => {
                let samples = (horizon_secs.max(0.0) / interval_secs) as usize + 1;
                let cov = paths.variability().coefficient_of_variation();
                Some(
                    paths
                        .means()
                        .iter()
                        .map(|&mean_bps| {
                            let cfg = TimeSeriesConfig {
                                mean_bps,
                                cov,
                                autocorrelation,
                                interval_secs,
                                ..TimeSeriesConfig::default()
                            };
                            BandwidthTimeSeries::generate(&cfg, samples, rng)
                                .expect("validated AR(1) parameters")
                        })
                        .collect(),
                )
            }
        };
        BandwidthProvider { paths, series }
    }

    /// Number of paths (== number of objects).
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Returns `true` if the provider holds no paths.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The average bandwidth of the path to object `index`, i.e. what a
    /// measurement-based estimator would report to the caching algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn estimated_bps(&self, index: usize) -> f64 {
        self.paths.mean_bps(index)
    }

    /// The instantaneous bandwidth observed by a request for object `index`
    /// arriving at `time_secs` on the simulation clock.
    ///
    /// In i.i.d. mode this draws an independent ratio through `rng` and
    /// ignores `time_secs`; in AR(1) mode it reads the path's time series at
    /// `time_secs` and consumes no randomness.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn request_bps<R: Rng + ?Sized>(&self, index: usize, time_secs: f64, rng: &mut R) -> f64 {
        match &self.series {
            None => self.paths.bandwidth_sample(index, rng),
            Some(series) => series[index].bandwidth_at(time_secs),
        }
    }

    /// The bottleneck capacity of the path to object `index` at `time_secs`
    /// on the simulation clock — the quantity the session-mode
    /// processor-sharing model divides among concurrent sessions.
    ///
    /// Consumes no randomness: in i.i.d. mode the capacity is the path's
    /// long-run mean (the marginal ratio stream models per-request noise,
    /// which has no meaning for a shared fluid link), and in AR(1) mode it
    /// reads the path's time series at `time_secs`. The session core
    /// samples this only at path events (arrivals and departures), a
    /// piecewise-constant approximation of the series between events.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn capacity_bps(&self, index: usize, time_secs: f64) -> f64 {
        match &self.series {
            None => self.paths.mean_bps(index),
            Some(series) => series[index].bandwidth_at(time_secs),
        }
    }

    /// Returns `true` when bandwidth evolves over simulated time (AR(1)
    /// mode) rather than being redrawn independently per request.
    pub fn is_time_varying(&self) -> bool {
        self.series.is_some()
    }

    /// The AR(1) series of path `index`, or `None` in i.i.d. mode.
    pub fn series(&self, index: usize) -> Option<&BandwidthTimeSeries> {
        self.series.as_ref().map(|s| &s[index])
    }
}

/// Per-path bandwidth-estimator state for one simulation run.
///
/// The bank turns an [`EstimatorKind`] into what the caching algorithm
/// actually sees on each access: the oracle long-run mean, a passive
/// (EWMA / windowed) estimate fed by the throughput of completed transfers,
/// or a fresh active probe of the current bandwidth. Passive estimators
/// fall back to the oracle mean until their first observation, matching the
/// paper's proxies falling back to a default before the first transfer
/// completes.
#[derive(Debug, Clone)]
pub struct EstimatorBank {
    slots: Slots,
}

#[derive(Debug, Clone)]
enum Slots {
    /// No state: always report the long-run mean.
    Oracle,
    Ewma(Vec<EwmaEstimator>),
    Windowed(Vec<WindowedEstimator>),
    /// No state either: a probe is a fresh measurement of the current
    /// bandwidth, so only the newest value — which the caller already has
    /// in hand — would ever be read.
    Probe,
}

impl EstimatorBank {
    /// Creates estimator state for `objects` paths.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (zero window); validate the
    /// configuration first.
    pub fn new(kind: EstimatorKind, objects: usize) -> Self {
        let slots = match kind {
            EstimatorKind::Oracle => Slots::Oracle,
            EstimatorKind::Ewma { alpha } => Slots::Ewma(vec![EwmaEstimator::new(alpha); objects]),
            EstimatorKind::Windowed { window } => {
                Slots::Windowed(vec![WindowedEstimator::new(window); objects])
            }
            EstimatorKind::Probe => Slots::Probe,
        };
        EstimatorBank { slots }
    }

    /// The bandwidth estimate the caching algorithm uses for a request to
    /// object `index`: `oracle_bps` is the path's long-run mean (the
    /// fallback) and `current_bps` the true instantaneous bandwidth this
    /// request will experience (what an active probe measures).
    pub fn decision_bps(&mut self, index: usize, oracle_bps: f64, current_bps: f64) -> f64 {
        match &mut self.slots {
            Slots::Oracle => oracle_bps,
            Slots::Ewma(slots) => slots[index].estimate_bps().unwrap_or(oracle_bps),
            Slots::Windowed(slots) => slots[index].estimate_bps().unwrap_or(oracle_bps),
            Slots::Probe => current_bps,
        }
    }

    /// Records the realised throughput of a completed transfer to object
    /// `index` — the input of the passive estimators. Active probing
    /// ignores it (it already measured the path in
    /// [`decision_bps`](Self::decision_bps)).
    pub fn observe_transfer(&mut self, index: usize, throughput_bps: f64) {
        match &mut self.slots {
            Slots::Oracle | Slots::Probe => {}
            Slots::Ewma(slots) => slots[index].observe(throughput_bps),
            Slots::Windowed(slots) => slots[index].observe(throughput_bps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_variability_matches_estimate() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = BandwidthProvider::generate(50, VariabilityKind::Constant, &mut rng);
        assert_eq!(p.len(), 50);
        assert!(!p.is_empty());
        for i in 0..50 {
            let est = p.estimated_bps(i);
            let inst = p.request_bps(i, 0.0, &mut rng);
            assert!((est - inst).abs() < 1e-9);
        }
    }

    #[test]
    fn variable_bandwidth_deviates_from_estimate() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = BandwidthProvider::generate(20, VariabilityKind::NlanrLike, &mut rng);
        let mut any_deviation = false;
        for i in 0..20 {
            let est = p.estimated_bps(i);
            let inst = p.request_bps(i, 0.0, &mut rng);
            assert!(inst >= 0.0);
            if (est - inst).abs() > 1.0 {
                any_deviation = true;
            }
        }
        assert!(any_deviation);
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let pa = BandwidthProvider::generate(30, VariabilityKind::MeasuredLow, &mut a);
        let pb = BandwidthProvider::generate(30, VariabilityKind::MeasuredLow, &mut b);
        for i in 0..30 {
            assert_eq!(pa.estimated_bps(i), pb.estimated_bps(i));
        }
        assert_eq!(pa.len(), 30);
    }

    #[test]
    fn iid_mode_has_no_series_and_matches_plain_generate() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let plain = BandwidthProvider::generate(10, VariabilityKind::NlanrLike, &mut a);
        let explicit = BandwidthProvider::generate_with_model(
            10,
            VariabilityKind::NlanrLike,
            BandwidthModel::Iid,
            1e6,
            &mut b,
        );
        assert!(!plain.is_time_varying());
        assert!(!explicit.is_time_varying());
        assert!(explicit.series(0).is_none());
        for i in 0..10 {
            assert_eq!(plain.estimated_bps(i), explicit.estimated_bps(i));
        }
        // The i.i.d. constructor consumes no extra randomness: the streams
        // stay aligned after generation.
        assert_eq!(
            plain.request_bps(0, 0.0, &mut a),
            explicit.request_bps(0, 0.0, &mut b)
        );
    }

    #[test]
    fn ar1_mode_is_piecewise_constant_between_series_samples() {
        let mut rng = StdRng::seed_from_u64(11);
        let model = BandwidthModel::Ar1 {
            autocorrelation: 0.8,
            interval_secs: 100.0,
        };
        let p = BandwidthProvider::generate_with_model(
            5,
            VariabilityKind::MeasuredModerate,
            model,
            1_000.0,
            &mut rng,
        );
        assert!(p.is_time_varying());
        let series = p.series(2).unwrap();
        assert_eq!(series.len(), 11);
        // Reads at request time consume no randomness and agree with the
        // underlying series.
        let before = rng.clone();
        let at_0 = p.request_bps(2, 0.0, &mut rng);
        let at_mid = p.request_bps(2, 150.0, &mut rng);
        assert_eq!(at_0, series.samples_bps()[0]);
        assert_eq!(at_mid, series.samples_bps()[1]);
        assert_eq!(rng.gen::<u64>(), before.clone().gen::<u64>());
        // Same-seed regeneration is bit-identical.
        let mut rng2 = StdRng::seed_from_u64(11);
        let q = BandwidthProvider::generate_with_model(
            5,
            VariabilityKind::MeasuredModerate,
            model,
            1_000.0,
            &mut rng2,
        );
        for i in 0..5 {
            assert_eq!(
                p.series(i).unwrap().samples_bps(),
                q.series(i).unwrap().samples_bps()
            );
        }
    }

    #[test]
    fn ar1_series_mean_tracks_path_mean() {
        let mut rng = StdRng::seed_from_u64(13);
        let p = BandwidthProvider::generate_with_model(
            3,
            VariabilityKind::MeasuredLow,
            BandwidthModel::ar1_default(),
            2_000_000.0,
            &mut rng,
        );
        for i in 0..3 {
            let series = p.series(i).unwrap();
            let mean = series.mean_bps();
            let path_mean = p.estimated_bps(i);
            assert!(
                (mean - path_mean).abs() / path_mean < 0.1,
                "path {i}: series mean {mean} vs path mean {path_mean}"
            );
        }
    }

    #[test]
    fn capacity_is_mean_in_iid_mode_and_series_in_ar1_mode() {
        let mut rng = StdRng::seed_from_u64(5);
        let iid = BandwidthProvider::generate(4, VariabilityKind::NlanrLike, &mut rng);
        for i in 0..4 {
            assert_eq!(iid.capacity_bps(i, 0.0), iid.estimated_bps(i));
            assert_eq!(iid.capacity_bps(i, 1e6), iid.estimated_bps(i));
        }
        let ar1 = BandwidthProvider::generate_with_model(
            3,
            VariabilityKind::MeasuredModerate,
            BandwidthModel::Ar1 {
                autocorrelation: 0.8,
                interval_secs: 100.0,
            },
            1_000.0,
            &mut rng,
        );
        let series = ar1.series(1).unwrap();
        assert_eq!(ar1.capacity_bps(1, 0.0), series.samples_bps()[0]);
        assert_eq!(ar1.capacity_bps(1, 150.0), series.samples_bps()[1]);
    }

    #[test]
    fn estimator_bank_oracle_and_probe() {
        let mut oracle = EstimatorBank::new(EstimatorKind::Oracle, 4);
        assert_eq!(oracle.decision_bps(1, 100.0, 40.0), 100.0);
        oracle.observe_transfer(1, 40.0);
        assert_eq!(oracle.decision_bps(1, 100.0, 40.0), 100.0);

        let mut probe = EstimatorBank::new(EstimatorKind::Probe, 4);
        assert_eq!(probe.decision_bps(0, 100.0, 37.5), 37.5);
        probe.observe_transfer(0, 999.0);
        assert_eq!(probe.decision_bps(0, 100.0, 50.0), 50.0);
    }

    #[test]
    fn estimator_bank_passive_kinds_lag_and_fall_back() {
        let mut ewma = EstimatorBank::new(EstimatorKind::Ewma { alpha: 0.5 }, 2);
        // No observation yet: oracle fallback.
        assert_eq!(ewma.decision_bps(0, 80.0, 20.0), 80.0);
        ewma.observe_transfer(0, 20.0);
        assert_eq!(ewma.decision_bps(0, 80.0, 60.0), 20.0);
        ewma.observe_transfer(0, 60.0);
        assert_eq!(ewma.decision_bps(0, 80.0, 60.0), 40.0);
        // Per-path state is independent.
        assert_eq!(ewma.decision_bps(1, 80.0, 60.0), 80.0);

        let mut win = EstimatorBank::new(EstimatorKind::Windowed { window: 2 }, 1);
        assert_eq!(win.decision_bps(0, 80.0, 10.0), 80.0);
        win.observe_transfer(0, 10.0);
        win.observe_transfer(0, 20.0);
        win.observe_transfer(0, 30.0);
        assert_eq!(win.decision_bps(0, 80.0, 10.0), 25.0);
    }
}
