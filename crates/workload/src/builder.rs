//! One-stop workload builder combining catalog and trace generation.

use crate::catalog::{Catalog, CatalogConfig};
use crate::stats::{CatalogStats, TraceStats};
use crate::trace::{RequestTrace, TraceConfig};
use crate::value::ValueModel;
use crate::WorkloadError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Complete configuration of a synthetic workload (catalog + trace).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WorkloadConfig {
    /// Catalog (object population) configuration.
    pub catalog: CatalogConfig,
    /// Trace (request stream) configuration.
    pub trace: TraceConfig,
    /// Seed for the deterministic random number generator.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's Table 1 configuration (5,000 objects, 100,000 requests).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// A reduced configuration (500 objects, 5,000 requests) suitable for
    /// tests, examples, and fast benchmarks.
    pub fn small() -> Self {
        WorkloadConfig {
            catalog: CatalogConfig::small(),
            trace: TraceConfig::small(),
            seed: 0,
        }
    }

    /// Validates both halves of the configuration.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from [`CatalogConfig`] and
    /// [`TraceConfig`].
    pub fn validate(&self) -> Result<(), WorkloadError> {
        self.catalog.validate()?;
        self.trace.validate()?;
        Ok(())
    }

    /// Generates the workload described by this configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] if validation fails.
    pub fn generate(&self) -> Result<Workload, WorkloadError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let catalog = Catalog::generate(&self.catalog, &mut rng)?;
        let trace = RequestTrace::generate(&catalog, &self.trace, &mut rng)?;
        Ok(Workload {
            config: *self,
            catalog,
            trace,
        })
    }
}

/// A generated workload: the object catalog plus the request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The configuration the workload was generated from.
    pub config: WorkloadConfig,
    /// The object catalog.
    pub catalog: Catalog,
    /// The request trace.
    pub trace: RequestTrace,
}

impl Workload {
    /// Catalog statistics (Table 1 style).
    pub fn catalog_stats(&self) -> CatalogStats {
        CatalogStats::compute(&self.catalog)
    }

    /// Trace statistics (Table 1 style).
    pub fn trace_stats(&self) -> TraceStats {
        TraceStats::compute(&self.catalog, &self.trace)
    }
}

/// Fluent builder over [`WorkloadConfig`].
///
/// ```
/// use sc_workload::WorkloadBuilder;
///
/// let workload = WorkloadBuilder::new()
///     .objects(200)
///     .requests(1_000)
///     .zipf_alpha(1.0)
///     .bitrate_bps(48_000.0)
///     .seed(7)
///     .build()?;
/// assert_eq!(workload.catalog.len(), 200);
/// # Ok::<(), sc_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadBuilder {
    config: WorkloadConfig,
}

impl Default for WorkloadBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadBuilder {
    /// Starts from the paper's default configuration.
    pub fn new() -> Self {
        WorkloadBuilder {
            config: WorkloadConfig::default(),
        }
    }

    /// Sets the number of unique objects.
    pub fn objects(mut self, n: usize) -> Self {
        self.config.catalog.objects = n;
        self
    }

    /// Sets the number of requests.
    pub fn requests(mut self, n: usize) -> Self {
        self.config.trace.requests = n;
        self
    }

    /// Sets the Zipf-like popularity skew `alpha`.
    pub fn zipf_alpha(mut self, alpha: f64) -> Self {
        self.config.trace.zipf_alpha = alpha;
        self
    }

    /// Sets the mean request arrival rate (requests per second).
    pub fn arrival_rate(mut self, rate: f64) -> Self {
        self.config.trace.arrival_rate = rate;
        self
    }

    /// Sets the CBR bit-rate in bytes per second.
    pub fn bitrate_bps(mut self, bps: f64) -> Self {
        self.config.catalog.bitrate_bps = bps;
        self
    }

    /// Sets the lognormal duration parameters (minutes).
    pub fn duration_lognormal(mut self, mu: f64, sigma: f64) -> Self {
        self.config.catalog.duration_mu = mu;
        self.config.catalog.duration_sigma = sigma;
        self
    }

    /// Sets the per-object value model.
    pub fn value_model(mut self, model: ValueModel) -> Self {
        self.config.catalog.value_model = model;
        self
    }

    /// Sets the RNG seed (workload generation is fully deterministic for a
    /// given seed and configuration).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Returns the configuration built so far without generating.
    pub fn config(&self) -> WorkloadConfig {
        self.config
    }

    /// Generates the workload.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] if the assembled configuration is invalid.
    pub fn build(self) -> Result<Workload, WorkloadError> {
        self.config.generate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_all_fields() {
        let cfg = WorkloadBuilder::new()
            .objects(10)
            .requests(20)
            .zipf_alpha(0.9)
            .arrival_rate(2.0)
            .bitrate_bps(1_000.0)
            .duration_lognormal(1.0, 0.1)
            .value_model(ValueModel::Constant(2.0))
            .seed(99)
            .config();
        assert_eq!(cfg.catalog.objects, 10);
        assert_eq!(cfg.trace.requests, 20);
        assert_eq!(cfg.trace.zipf_alpha, 0.9);
        assert_eq!(cfg.trace.arrival_rate, 2.0);
        assert_eq!(cfg.catalog.bitrate_bps, 1_000.0);
        assert_eq!(cfg.catalog.duration_mu, 1.0);
        assert_eq!(cfg.catalog.duration_sigma, 0.1);
        assert_eq!(cfg.catalog.value_model, ValueModel::Constant(2.0));
        assert_eq!(cfg.seed, 99);
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = WorkloadBuilder::new()
            .objects(50)
            .requests(200)
            .seed(5)
            .build()
            .unwrap();
        let b = WorkloadBuilder::new()
            .objects(50)
            .requests(200)
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(a.catalog, b.catalog);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadBuilder::new()
            .objects(50)
            .requests(200)
            .seed(5)
            .build()
            .unwrap();
        let b = WorkloadBuilder::new()
            .objects(50)
            .requests(200)
            .seed(6)
            .build()
            .unwrap();
        assert_ne!(a.trace, b.trace);
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        assert!(WorkloadBuilder::new().objects(0).build().is_err());
        assert!(WorkloadBuilder::new().requests(0).build().is_err());
        assert!(WorkloadBuilder::new().zipf_alpha(-1.0).build().is_err());
    }

    #[test]
    fn workload_stats_accessors() {
        let w = WorkloadBuilder::new()
            .objects(100)
            .requests(500)
            .seed(1)
            .build()
            .unwrap();
        assert_eq!(w.catalog_stats().objects, 100);
        assert_eq!(w.trace_stats().requests, 500);
    }
}
