//! Property-style tests for the bandwidth models.
//!
//! Seeded-loop property tests (the registry-less build environment has no
//! `proptest`): every property draws random cases from a fixed-seed
//! [`StdRng`], so failures reproduce deterministically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_netmodel::{
    BandwidthEstimator, BandwidthTimeSeries, EmpiricalDistribution, EwmaEstimator, Histogram,
    NlanrBandwidthModel, PathSet, TimeSeriesConfig, VariabilityModel, WindowedEstimator,
};

/// The empirical CDF and quantile functions are inverse to each other
/// inside the support.
#[test]
fn empirical_cdf_quantile_roundtrip() {
    let d = EmpiricalDistribution::from_cdf(vec![(0.0, 0.0), (5.0, 0.3), (20.0, 0.9), (40.0, 1.0)])
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0F);
    for _ in 0..200 {
        let p: f64 = rng.gen();
        let x = d.quantile(p);
        let q = d.cdf(x);
        assert!((q - p).abs() < 1e-9, "p={p} x={x} q={q}");
    }
}

/// Empirical samples always stay inside the distribution's support.
#[test]
fn empirical_samples_in_support() {
    let d = EmpiricalDistribution::from_cdf(vec![(10.0, 0.0), (90.0, 1.0)]).unwrap();
    let mut rng = StdRng::seed_from_u64(0x5A3);
    for _ in 0..2_000 {
        let x = d.sample(&mut rng);
        assert!((10.0..=90.0).contains(&x));
    }
}

/// NLANR model samples are positive and bounded by the distribution max.
#[test]
fn nlanr_samples_positive() {
    let m = NlanrBandwidthModel::paper_default();
    let mut rng = StdRng::seed_from_u64(0x91A);
    for _ in 0..2_000 {
        let bw = m.sample_bps(&mut rng);
        assert!(bw > 0.0);
        assert!(bw <= 800_000.0 + 1e-6);
    }
}

/// Variability ratios are non-negative and path samples scale with the base
/// bandwidth.
#[test]
fn variability_apply_scales() {
    let m = VariabilityModel::nlanr_like();
    let mut rng = StdRng::seed_from_u64(0xAB5);
    for _ in 0..2_000 {
        let base = rng.gen_range(1_000.0..1_000_000.0);
        let bw = m.apply(&mut rng, base);
        assert!(bw >= 0.0);
        assert!(bw <= base * 3.5);
    }
}

/// Histograms conserve the number of samples.
#[test]
fn histogram_conserves_mass() {
    let mut rng = StdRng::seed_from_u64(0x415);
    for _ in 0..64 {
        let n = rng.gen_range(1..200usize);
        let samples: Vec<f64> = (0..n).map(|_| rng.gen_range(-10.0..500.0)).collect();
        let h = Histogram::from_samples(4.0, 100, &samples);
        let binned: u64 = h.counts().iter().sum();
        assert_eq!(binned + h.overflow() + h.underflow(), samples.len() as u64);
        assert_eq!(h.total(), samples.len() as u64);
    }
}

/// Time series stay positive regardless of mean and coefficient of
/// variation.
#[test]
fn timeseries_positive() {
    let mut rng = StdRng::seed_from_u64(0x715);
    for _ in 0..64 {
        let cfg = TimeSeriesConfig {
            mean_bps: rng.gen_range(10_000.0..500_000.0),
            cov: rng.gen_range(0.0..0.6),
            autocorrelation: 0.5,
            interval_secs: 60.0,
            ..TimeSeriesConfig::default()
        };
        let ts = BandwidthTimeSeries::generate(&cfg, 256, &mut rng).unwrap();
        assert!(ts.samples_bps().iter().all(|&x| x > 0.0));
    }
}

/// Estimators never return a negative estimate.
#[test]
fn estimators_non_negative() {
    let mut rng = StdRng::seed_from_u64(0xE57);
    for _ in 0..64 {
        let mut ewma = EwmaEstimator::new(0.3);
        let mut window = WindowedEstimator::new(5);
        let n = rng.gen_range(1..50usize);
        for _ in 0..n {
            let v = rng.gen_range(-10.0..1e6);
            ewma.observe(v);
            window.observe(v);
        }
        assert!(ewma.estimate_bps().unwrap() >= 0.0);
        assert!(window.estimate_bps().unwrap() >= 0.0);
    }
}

/// Path sets always produce the requested number of paths with positive
/// mean bandwidth.
#[test]
fn path_sets_well_formed() {
    let mut rng = StdRng::seed_from_u64(0x9A7);
    for _ in 0..32 {
        let n = rng.gen_range(1..200usize);
        let set = PathSet::generate(
            n,
            &NlanrBandwidthModel::paper_default(),
            VariabilityModel::measured_path_low(),
            &mut rng,
        );
        assert_eq!(set.len(), n);
        assert!(set.means().iter().all(|&m| m > 0.0));
    }
}
