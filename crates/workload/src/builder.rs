//! A complete workload: catalog and trace configuration, and generation.

use crate::catalog::{Catalog, CatalogConfig};
use crate::stats::{CatalogStats, TraceStats};
use crate::trace::{RequestTrace, TraceConfig};
use crate::WorkloadError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Complete configuration of a synthetic workload (catalog + trace); the
/// default is the paper's Table 1 configuration (5,000 objects, 100,000
/// requests).
///
/// ```
/// use sc_workload::WorkloadConfig;
///
/// let mut config = WorkloadConfig::small();
/// config.catalog.objects = 200;
/// config.trace.requests = 1_000;
/// config.seed = 7;
/// let workload = config.generate()?;
/// assert_eq!(workload.catalog.len(), 200);
/// # Ok::<(), sc_workload::WorkloadError>(())
/// ```
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

#[cfg(test)]
mod tests {
    use super::*;

    fn config(objects: usize, requests: usize, seed: u64) -> WorkloadConfig {
        let mut config = WorkloadConfig {
            seed,
            ..WorkloadConfig::default()
        };
        config.catalog.objects = objects;
        config.trace.requests = requests;
        config
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = config(50, 200, 5).generate().unwrap();
        let b = config(50, 200, 5).generate().unwrap();
        assert_eq!(a.catalog, b.catalog);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn different_seeds_differ() {
        let a = config(50, 200, 5).generate().unwrap();
        let b = config(50, 200, 6).generate().unwrap();
        assert_ne!(a.trace, b.trace);
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        assert!(config(0, 200, 0).generate().is_err());
        assert!(config(50, 0, 0).generate().is_err());
        let mut skewed = config(50, 200, 0);
        skewed.trace.zipf_alpha = -1.0;
        assert!(skewed.generate().is_err());
    }

    #[test]
    fn workload_stats_accessors() {
        let w = config(100, 500, 1).generate().unwrap();
        assert_eq!(w.catalog_stats().objects, 100);
        assert_eq!(w.trace_stats().requests, 500);
    }
}
