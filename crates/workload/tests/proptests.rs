//! Property-style tests for the workload generators.
//!
//! Seeded-loop property tests (the registry-less build environment has no
//! `proptest`): every property draws random cases from a fixed-seed
//! [`StdRng`], so failures reproduce deterministically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_workload::{
    Catalog, CatalogConfig, LogNormal, PoissonProcess, RequestTrace, TraceConfig, WorkloadConfig,
    ZipfLike,
};

/// Zipf probabilities always sum to one and are non-increasing in rank.
#[test]
fn zipf_is_a_valid_distribution() {
    let mut rng = StdRng::seed_from_u64(0x21BF);
    for _ in 0..64 {
        let n = rng.gen_range(1..400usize);
        let alpha = rng.gen_range(0.0..2.5);
        let z = ZipfLike::new(n, alpha).unwrap();
        let mut total = 0.0;
        let mut prev = f64::INFINITY;
        for r in 1..=n {
            let p = z.probability(r);
            assert!(p >= 0.0);
            assert!(p <= prev + 1e-12);
            prev = p;
            total += p;
        }
        assert!((total - 1.0).abs() < 1e-6);
    }
}

/// Sampled ranks are always within range.
#[test]
fn zipf_samples_in_range() {
    let mut rng = StdRng::seed_from_u64(0x21F5);
    for _ in 0..64 {
        let n = rng.gen_range(1..200usize);
        let alpha = rng.gen_range(0.0..2.0);
        let z = ZipfLike::new(n, alpha).unwrap();
        for _ in 0..50 {
            let r = z.sample(&mut rng);
            assert!(r >= 1 && r <= n);
        }
    }
}

/// Lognormal samples are strictly positive and finite.
#[test]
fn lognormal_samples_positive() {
    let mut rng = StdRng::seed_from_u64(0x106);
    for _ in 0..64 {
        let mu = rng.gen_range(-2.0..5.0);
        let sigma = rng.gen_range(0.0..1.5);
        let ln = LogNormal::new(mu, sigma).unwrap();
        for _ in 0..50 {
            let x = ln.sample(&mut rng);
            assert!(x > 0.0);
            assert!(x.is_finite());
        }
    }
}

/// Poisson arrival times are strictly increasing.
#[test]
fn poisson_times_increasing() {
    let mut rng = StdRng::seed_from_u64(0x9015);
    for _ in 0..64 {
        let rate = rng.gen_range(0.01..100.0);
        let p = PoissonProcess::new(rate).unwrap();
        let times = p.arrival_times(&mut rng, 200);
        assert!(times.windows(2).all(|w| w[1] >= w[0]));
        assert!(times[0] > 0.0);
    }
}

/// Values always respect the paper's $1–$10 bounds.
#[test]
fn values_respect_bounds() {
    let mut rng = StdRng::seed_from_u64(0xBA1);
    for _ in 0..64 {
        let catalog = Catalog::generate(
            &CatalogConfig {
                objects: 100,
                ..CatalogConfig::small()
            },
            &mut rng,
        )
        .unwrap();
        assert!(catalog.iter().all(|o| (1.0..=10.0).contains(&o.value)));
    }
}

/// Generated traces reference only objects from the catalog and are sorted
/// by time.
#[test]
fn traces_are_well_formed() {
    let mut rng = StdRng::seed_from_u64(0x7ACE);
    for _ in 0..32 {
        let objects = rng.gen_range(1..100usize);
        let requests = rng.gen_range(1..500usize);
        let catalog = Catalog::generate(
            &CatalogConfig {
                objects,
                ..CatalogConfig::small()
            },
            &mut rng,
        )
        .unwrap();
        let trace = RequestTrace::generate(
            &catalog,
            &TraceConfig {
                requests,
                ..TraceConfig::small()
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(trace.len(), requests);
        assert!(trace.iter().all(|r| r.object.index() < objects));
        assert!(trace.times().windows(2).all(|w| w[0] <= w[1]));
        let counts = trace.request_counts(objects);
        let total: u64 = counts.iter().sum();
        assert_eq!(total as usize, requests);
    }
}

/// Workload generation is deterministic in its seed.
#[test]
fn builder_deterministic() {
    let mut rng = StdRng::seed_from_u64(0xD373);
    for _ in 0..16 {
        let mut config = WorkloadConfig {
            seed: rng.gen(),
            ..WorkloadConfig::default()
        };
        config.catalog.objects = 30;
        config.trace.requests = 100;
        let a = config.generate().unwrap();
        let b = config.generate().unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.catalog, b.catalog);
    }
}
