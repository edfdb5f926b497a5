//! Catalogs of streaming media objects.

use crate::lognormal::LogNormal;
use crate::object::{MediaObject, ObjectId};
use crate::WorkloadError;
use rand::Rng;

/// Configuration of a synthetic object catalog.
///
/// Defaults match Table 1 of the paper (5,000 objects, 48 KB/s CBR encoding,
/// lognormal durations in minutes with µ = 3.85 and σ = 0.56). Object
/// values are always the paper's (Section 4.4): uniform on $1–$10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CatalogConfig {
    /// Number of unique objects (`N`).
    pub objects: usize,
    /// Location parameter of the lognormal duration distribution (minutes).
    pub duration_mu: f64,
    /// Scale parameter of the lognormal duration distribution (minutes).
    pub duration_sigma: f64,
    /// CBR bit-rate of every object in bytes per second.
    pub bitrate_bps: f64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            objects: 5_000,
            duration_mu: 3.85,
            duration_sigma: 0.56,
            bitrate_bps: 48_000.0,
        }
    }
}

impl CatalogConfig {
    /// A reduced configuration (500 objects) convenient for unit tests and
    /// doc examples; all distributional parameters match the paper.
    pub fn small() -> Self {
        CatalogConfig {
            objects: 500,
            ..Self::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] when the object count is zero or any
    /// distribution parameter is out of range.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.objects == 0 {
            return Err(WorkloadError::EmptyCatalog);
        }
        if !self.bitrate_bps.is_finite() || self.bitrate_bps <= 0.0 {
            return Err(WorkloadError::InvalidParameter(
                "bitrate_bps",
                self.bitrate_bps,
            ));
        }
        LogNormal::new(self.duration_mu, self.duration_sigma)?;
        Ok(())
    }
}

/// An immutable collection of [`MediaObject`]s indexed by [`ObjectId`].
///
/// Objects are stored in popularity-rank order: `catalog.get(ObjectId::new(0))`
/// is the most popular object of the workload.
///
/// ```
/// use sc_workload::{Catalog, CatalogConfig};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let catalog = Catalog::generate(&CatalogConfig::small(), &mut rng)?;
/// assert_eq!(catalog.len(), 500);
/// let total_gb = catalog.total_bytes() / 1e9;
/// assert!(total_gb > 10.0, "total unique bytes should be tens of GB");
/// # Ok::<(), sc_workload::WorkloadError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    objects: Vec<MediaObject>,
}

impl Catalog {
    /// Builds a catalog from an explicit list of objects.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::EmptyCatalog`] if `objects` is empty.
    pub fn from_objects(objects: Vec<MediaObject>) -> Result<Self, WorkloadError> {
        if objects.is_empty() {
            return Err(WorkloadError::EmptyCatalog);
        }
        Ok(Catalog { objects })
    }

    /// Generates a synthetic catalog according to `config`, drawing each
    /// object's duration and then its value.
    ///
    /// # Errors
    ///
    /// Returns a [`WorkloadError`] if the configuration fails validation.
    pub fn generate<R: Rng + ?Sized>(
        config: &CatalogConfig,
        rng: &mut R,
    ) -> Result<Self, WorkloadError> {
        config.validate()?;
        let durations = LogNormal::new(config.duration_mu, config.duration_sigma)?;
        let n = config.objects;
        let mut objects = Vec::with_capacity(n);
        for i in 0..n {
            let minutes = durations.sample(rng);
            let value = rng.gen_range(1.0..=10.0);
            objects.push(MediaObject::new(
                ObjectId::new(i as u32),
                minutes * 60.0,
                config.bitrate_bps,
                value,
            ));
        }
        Ok(Catalog { objects })
    }

    /// Number of objects in the catalog.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` if the catalog contains no objects (never the case for
    /// a successfully constructed catalog).
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Looks up an object by id.
    pub fn get(&self, id: ObjectId) -> Option<&MediaObject> {
        self.objects.get(id.index())
    }

    /// Returns the object with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is not part of this catalog.
    #[inline]
    pub fn object(&self, id: ObjectId) -> &MediaObject {
        &self.objects[id.index()]
    }

    /// Iterates over all objects in popularity-rank order.
    pub fn iter(&self) -> std::slice::Iter<'_, MediaObject> {
        self.objects.iter()
    }

    /// All objects as a slice, in popularity-rank order.
    pub fn as_slice(&self) -> &[MediaObject] {
        &self.objects
    }

    /// Total unique bytes across all objects (`Σ T_i · r_i`).
    pub fn total_bytes(&self) -> f64 {
        self.objects.iter().map(MediaObject::size_bytes).sum()
    }

    /// Mean object duration in seconds.
    pub fn mean_duration_secs(&self) -> f64 {
        self.objects.iter().map(|o| o.duration_secs).sum::<f64>() / self.objects.len() as f64
    }

    /// Mean object size in bytes.
    pub fn mean_size_bytes(&self) -> f64 {
        self.total_bytes() / self.objects.len() as f64
    }
}

impl<'a> IntoIterator for &'a Catalog {
    type Item = &'a MediaObject;
    type IntoIter = std::slice::Iter<'a, MediaObject>;

    fn into_iter(self) -> Self::IntoIter {
        self.objects.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_config_matches_table1() {
        let c = CatalogConfig::default();
        assert_eq!(c.objects, 5_000);
        assert_eq!(c.bitrate_bps, 48_000.0);
        assert_eq!(c.duration_mu, 3.85);
        assert_eq!(c.duration_sigma, 0.56);
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = CatalogConfig::small();
        c.objects = 0;
        assert!(matches!(c.validate(), Err(WorkloadError::EmptyCatalog)));
        let mut c = CatalogConfig::small();
        c.bitrate_bps = -48.0;
        assert!(c.validate().is_err());
        let mut c = CatalogConfig::small();
        c.duration_sigma = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn generate_produces_requested_count_with_positive_sizes() {
        let mut rng = StdRng::seed_from_u64(2);
        let cat = Catalog::generate(&CatalogConfig::small(), &mut rng).unwrap();
        assert_eq!(cat.len(), 500);
        assert!(!cat.is_empty());
        for obj in &cat {
            assert!(obj.duration_secs > 0.0);
            assert!(obj.size_bytes() > 0.0);
            assert!((1.0..=10.0).contains(&obj.value));
        }
    }

    #[test]
    fn values_are_uniform_on_one_to_ten_dollars() {
        // Section 4.4's values: each object draws its duration, then its
        // value uniformly on [$1, $10], from the one catalog stream.
        let mut rng = StdRng::seed_from_u64(4);
        let cat = Catalog::generate(&CatalogConfig::default(), &mut rng).unwrap();
        let durations = LogNormal::new(3.85, 0.56).unwrap();
        let mut by_hand = StdRng::seed_from_u64(4);
        for obj in &cat {
            assert_eq!(obj.duration_secs, durations.sample(&mut by_hand) * 60.0);
            assert_eq!(obj.value, by_hand.gen_range(1.0..=10.0));
        }
        let mean = cat.iter().map(|o| o.value).sum::<f64>() / cat.len() as f64;
        assert!((mean - 5.5).abs() < 0.2, "mean {mean}");
        assert!(cat.iter().all(|o| (1.0..=10.0).contains(&o.value)));
    }

    #[test]
    fn ids_are_dense_and_in_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let cat = Catalog::generate(&CatalogConfig::small(), &mut rng).unwrap();
        for (i, obj) in cat.iter().enumerate() {
            assert_eq!(obj.id.index(), i);
        }
        assert!(cat.get(ObjectId::new(499)).is_some());
        assert!(cat.get(ObjectId::new(500)).is_none());
    }

    #[test]
    fn paper_scale_total_bytes_is_roughly_790_gb() {
        let mut rng = StdRng::seed_from_u64(4);
        let cat = Catalog::generate(&CatalogConfig::default(), &mut rng).unwrap();
        let total_gb = cat.total_bytes() / 1e9;
        // Paper: "The total unique object size is 790 GB" (mean duration 55
        // minutes at 48 KB/s for 5,000 objects). Allow sampling noise.
        assert!(
            (700.0..900.0).contains(&total_gb),
            "total unique size {total_gb} GB"
        );
    }

    #[test]
    fn from_objects_rejects_empty() {
        assert!(matches!(
            Catalog::from_objects(vec![]),
            Err(WorkloadError::EmptyCatalog)
        ));
    }

    #[test]
    fn mean_accessors_consistent() {
        let objs = vec![
            MediaObject::new(ObjectId::new(0), 60.0, 1000.0, 1.0),
            MediaObject::new(ObjectId::new(1), 120.0, 1000.0, 1.0),
        ];
        let cat = Catalog::from_objects(objs).unwrap();
        assert!((cat.mean_duration_secs() - 90.0).abs() < 1e-12);
        assert!((cat.mean_size_bytes() - 90_000.0).abs() < 1e-9);
        assert!((cat.total_bytes() - 180_000.0).abs() < 1e-9);
    }
}
