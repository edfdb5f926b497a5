//! Per-request bandwidth provisioning for the simulator.
//!
//! [`BandwidthProvider`] owns the network state of one simulation run: one
//! [`PathSet`] — the per-object path averages (drawn from the NLANR-like
//! base distribution of Figure 2) beside the run's single variability model
//! — plus, per [`BandwidthModel`], either that model's i.i.d. ratio stream
//! (no stream at all for the constant model, whose ratio is always 1) or
//! one pre-generated AR(1) [`BandwidthTimeSeries`] per path, sampled at
//! request time from the simulation clock. What the caching algorithm gets
//! to see of it is [`sc_netmodel::EstimatorBank`]'s answer, asked in
//! [`crate::exec`]'s decision step.

use crate::config::{BandwidthModel, VariabilityKind};
use rand::Rng;
use sc_netmodel::{
    BandwidthTimeSeries, NlanrBandwidthModel, PathSet, TimeSeriesConfig, SAMPLE_INTERVAL_SECS,
};

/// Autocorrelation of consecutive AR(1) series samples under
/// [`BandwidthModel::Ar1`].
const AR1_AUTOCORRELATION: f64 = 0.9;

/// Supplies the simulator with per-object average bandwidths and per-request
/// instantaneous bandwidth samples.
///
/// Matches the methodology of Section 4.3 of the paper: every object's
/// origin server is reached over a path whose *average* bandwidth is drawn
/// from the NLANR-like distribution of Figure 2. How a request's
/// *instantaneous* bandwidth relates to that average depends on the
/// [`BandwidthModel`]:
///
/// * [`BandwidthModel::Iid`] with [`VariabilityKind::Constant`] — the
///   ratio is always exactly 1, so each request sees the path average
///   itself and draws nothing;
/// * [`BandwidthModel::Iid`] with any other kind — each request multiplies
///   the average by an independent ratio drawn from the configured
///   variability model;
/// * [`BandwidthModel::Ar1`] — each path carries a mean-reverting
///   [`BandwidthTimeSeries`] spanning the whole trace, and a request
///   observes the series value at its arrival time.
///
/// Which of the three applies is decided once, when the provider is
/// generated.
#[derive(Debug, Clone)]
pub struct BandwidthProvider {
    paths: PathSet,
    source: Source,
}

/// Where a request's instantaneous bandwidth comes from.
#[derive(Debug, Clone)]
enum Source {
    /// The path mean: i.i.d. under the constant model, whose ratio is 1.
    Mean,
    /// One ratio draw per request: i.i.d. under any other model.
    Ratio,
    /// One AR(1) series per path, read at the request's arrival time.
    Series(Vec<BandwidthTimeSeries>),
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
    /// of simulated time (the last request's arrival in the per-request
    /// mode, the last playback end in the session mode): the path's
    /// NLANR-drawn average becomes the series mean, the marginal coefficient
    /// of variation comes from `kind`. In i.i.d. mode this is exactly [`BandwidthProvider::generate`]
    /// — `horizon_secs` is ignored and no extra random draws are consumed,
    /// which keeps the golden metrics bit-stable.
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
        let source = match model {
            BandwidthModel::Iid if kind == VariabilityKind::Constant => Source::Mean,
            BandwidthModel::Iid => Source::Ratio,
            BandwidthModel::Ar1 => {
                let samples = (horizon_secs.max(0.0) / SAMPLE_INTERVAL_SECS) as usize + 1;
                let cov = paths.variability().coefficient_of_variation();
                Source::Series(
                    paths
                        .means()
                        .iter()
                        .map(|&mean_bps| {
                            let cfg = TimeSeriesConfig {
                                mean_bps,
                                cov,
                                autocorrelation: AR1_AUTOCORRELATION,
                            };
                            BandwidthTimeSeries::generate(&cfg, samples, rng)
                                .expect("a path mean is positive and a variability CoV finite")
                        })
                        .collect(),
                )
            }
        };
        BandwidthProvider { paths, source }
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
    /// In i.i.d. mode this ignores `time_secs` and draws one independent
    /// ratio through `rng` — except under the constant model, where it
    /// returns the path mean (what a ratio of exactly 1 gives) and consumes
    /// no randomness. In AR(1) mode it reads the path's time series at
    /// `time_secs` and consumes no randomness either.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn request_bps<R: Rng + ?Sized>(&self, index: usize, time_secs: f64, rng: &mut R) -> f64 {
        match &self.source {
            Source::Mean => self.paths.mean_bps(index),
            Source::Ratio => self.paths.bandwidth_sample(index, rng),
            Source::Series(series) => series[index].bandwidth_at(time_secs),
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
        match &self.source {
            Source::Mean | Source::Ratio => self.paths.mean_bps(index),
            Source::Series(series) => series[index].bandwidth_at(time_secs),
        }
    }

    /// Returns `true` when bandwidth evolves over simulated time (AR(1)
    /// mode) rather than being redrawn independently per request.
    pub fn is_time_varying(&self) -> bool {
        matches!(self.source, Source::Series(_))
    }

    /// The AR(1) series of path `index`, or `None` in i.i.d. mode.
    pub fn series(&self, index: usize) -> Option<&BandwidthTimeSeries> {
        match &self.source {
            Source::Series(series) => Some(&series[index]),
            Source::Mean | Source::Ratio => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Asserts that `rng` has advanced exactly `draws` words past `before`.
    fn assert_advanced(rng: &mut StdRng, mut before: StdRng, draws: usize) {
        for _ in 0..draws {
            before.next_u64();
        }
        assert_eq!(rng.clone().next_u64(), before.next_u64());
    }

    #[test]
    fn constant_variability_matches_estimate() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = BandwidthProvider::generate(50, VariabilityKind::Constant, &mut rng);
        assert_eq!(p.len(), 50);
        assert!(!p.is_empty());
        for i in 0..50 {
            let before = rng.clone();
            let inst = p.request_bps(i, 0.0, &mut rng);
            assert_eq!(inst.to_bits(), p.estimated_bps(i).to_bits());
            assert_advanced(&mut rng, before, 0);
        }
    }

    #[test]
    fn every_variable_iid_kind_draws_one_word_per_request() {
        for kind in [
            VariabilityKind::NlanrLike,
            VariabilityKind::MeasuredModerate,
        ] {
            let mut rng = StdRng::seed_from_u64(4);
            let p = BandwidthProvider::generate(8, kind, &mut rng);
            for i in 0..8 {
                let before = rng.clone();
                p.request_bps(i, 0.0, &mut rng);
                assert_advanced(&mut rng, before, 1);
            }
        }
    }

    #[test]
    fn ar1_requests_draw_nothing() {
        for kind in [VariabilityKind::Constant, VariabilityKind::NlanrLike] {
            let mut rng = StdRng::seed_from_u64(9);
            let p = BandwidthProvider::generate_with_model(
                4,
                kind,
                BandwidthModel::Ar1,
                1_000.0,
                &mut rng,
            );
            for i in 0..4 {
                let before = rng.clone();
                p.request_bps(i, 500.0, &mut rng);
                assert_advanced(&mut rng, before, 0);
            }
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
        let pa = BandwidthProvider::generate(30, VariabilityKind::MeasuredModerate, &mut a);
        let pb = BandwidthProvider::generate(30, VariabilityKind::MeasuredModerate, &mut b);
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
        let p = BandwidthProvider::generate_with_model(
            5,
            VariabilityKind::MeasuredModerate,
            BandwidthModel::Ar1,
            10.0 * SAMPLE_INTERVAL_SECS,
            &mut rng,
        );
        assert!(p.is_time_varying());
        let series = p.series(2).unwrap();
        assert_eq!(series.len(), 11);
        // Reads at request time consume no randomness and agree with the
        // underlying series.
        let before = rng.clone();
        let at_0 = p.request_bps(2, 0.0, &mut rng);
        let at_mid = p.request_bps(2, 1.5 * SAMPLE_INTERVAL_SECS, &mut rng);
        assert_eq!(at_0, series.samples_bps()[0]);
        assert_eq!(at_mid, series.samples_bps()[1]);
        assert_eq!(rng.gen::<u64>(), before.clone().gen::<u64>());
        // Same-seed regeneration is bit-identical.
        let mut rng2 = StdRng::seed_from_u64(11);
        let q = BandwidthProvider::generate_with_model(
            5,
            VariabilityKind::MeasuredModerate,
            BandwidthModel::Ar1,
            10.0 * SAMPLE_INTERVAL_SECS,
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
            VariabilityKind::MeasuredModerate,
            BandwidthModel::Ar1,
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
            BandwidthModel::Ar1,
            4.0 * SAMPLE_INTERVAL_SECS,
            &mut rng,
        );
        let series = ar1.series(1).unwrap();
        assert_eq!(ar1.capacity_bps(1, 0.0), series.samples_bps()[0]);
        assert_eq!(
            ar1.capacity_bps(1, 1.5 * SAMPLE_INTERVAL_SECS),
            series.samples_bps()[1]
        );
    }
}
