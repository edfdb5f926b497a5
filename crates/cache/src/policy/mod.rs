//! Cache-management policies.
//!
//! Every replacement algorithm evaluated in the paper is expressed as a
//! [`UtilityPolicy`]: a utility function (what to keep) plus a target
//! allocation (how much of each object to keep). The
//! [`CacheEngine`](crate::CacheEngine) provides the shared machinery —
//! frequency tracking, the utility heap and the eviction loop.

mod bandwidth;
mod frequency;
mod hybrid;
mod lru;
mod partial;
mod traits;
mod value;

pub use bandwidth::IntegralBandwidth;
pub use frequency::{IntegralFrequency, Lfu};
pub use hybrid::HybridPartialBandwidth;
pub use lru::Lru;
pub use partial::PartialBandwidth;
pub use traits::UtilityPolicy;
pub use value::{IntegralBandwidthValue, PartialBandwidthValue};

use crate::error::CacheError;

/// Enumeration of all built-in policies, convenient for configuration files
/// and experiment sweeps.
///
/// ```
/// use sc_cache::policy::PolicyKind;
///
/// let policy = PolicyKind::PartialBandwidth.build();
/// assert_eq!(policy.name(), "PB");
/// assert_eq!(PolicyKind::all_paper_policies().len(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Integral frequency-based caching (IF).
    IntegralFrequency,
    /// Integral bandwidth-based caching (IB).
    IntegralBandwidth,
    /// Partial bandwidth-based caching (PB).
    PartialBandwidth,
    /// Partial bandwidth-based caching with conservative estimator `e`.
    HybridPartialBandwidth {
        /// The conservative bandwidth scaling factor `e ∈ [0, 1]`.
        e: f64,
    },
    /// Partial bandwidth-value-based caching (PB-V) with estimator `e`
    /// (`e = 1` is the paper's exact PB-V).
    PartialBandwidthValue {
        /// The conservative bandwidth scaling factor `e ∈ [0, 1]`.
        e: f64,
    },
    /// Integral bandwidth-value-based caching (IB-V).
    IntegralBandwidthValue,
    /// Least-recently-used whole-object caching.
    Lru,
    /// Least-frequently-used whole-object caching.
    Lfu,
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn UtilityPolicy + Send + Sync> {
        match *self {
            PolicyKind::IntegralFrequency => Box::new(IntegralFrequency::new()),
            PolicyKind::IntegralBandwidth => Box::new(IntegralBandwidth::new()),
            PolicyKind::PartialBandwidth => Box::new(PartialBandwidth::new()),
            PolicyKind::HybridPartialBandwidth { e } => Box::new(HybridPartialBandwidth::new(e)),
            PolicyKind::PartialBandwidthValue { e } => {
                Box::new(PartialBandwidthValue::with_estimator(e))
            }
            PolicyKind::IntegralBandwidthValue => Box::new(IntegralBandwidthValue::new()),
            PolicyKind::Lru => Box::new(Lru::new()),
            PolicyKind::Lfu => Box::new(Lfu::new()),
        }
    }

    /// Checks the policy's parameters: a NaN conservative factor `e` is
    /// rejected (it would survive the constructors' clamp and silently run
    /// as `e = 0`); any other `e` outside `[0, 1]` is clamped, as documented
    /// on the policies.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidInput`] naming `e` when it is NaN.
    pub fn validate(&self) -> Result<(), CacheError> {
        match *self {
            PolicyKind::HybridPartialBandwidth { e } | PolicyKind::PartialBandwidthValue { e }
                if e.is_nan() =>
            {
                Err(CacheError::InvalidInput("e", e))
            }
            _ => Ok(()),
        }
    }

    /// Short label used in experiment reports ("IF", "PB", "PB(e=0.50)", …).
    pub fn label(&self) -> String {
        self.build().name()
    }

    /// The policies compared across the paper's figures: IF, IB, PB, PB(e),
    /// PB-V and IB-V.
    pub fn all_paper_policies() -> Vec<PolicyKind> {
        vec![
            PolicyKind::IntegralFrequency,
            PolicyKind::IntegralBandwidth,
            PolicyKind::PartialBandwidth,
            PolicyKind::HybridPartialBandwidth { e: 0.5 },
            PolicyKind::PartialBandwidthValue { e: 1.0 },
            PolicyKind::IntegralBandwidthValue,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_matching_names() {
        assert_eq!(PolicyKind::IntegralFrequency.label(), "IF");
        assert_eq!(PolicyKind::IntegralBandwidth.label(), "IB");
        assert_eq!(PolicyKind::PartialBandwidth.label(), "PB");
        assert_eq!(
            PolicyKind::HybridPartialBandwidth { e: 0.25 }.label(),
            "PB(e=0.25)"
        );
        assert_eq!(PolicyKind::PartialBandwidthValue { e: 1.0 }.label(), "PB-V");
        assert_eq!(PolicyKind::IntegralBandwidthValue.label(), "IB-V");
        assert_eq!(PolicyKind::Lru.label(), "LRU");
        assert_eq!(PolicyKind::Lfu.label(), "LFU");
    }

    #[test]
    fn only_a_nan_estimator_is_rejected() {
        for kind in [
            PolicyKind::HybridPartialBandwidth { e: f64::NAN },
            PolicyKind::PartialBandwidthValue { e: f64::NAN },
        ] {
            assert!(matches!(
                kind.validate(),
                Err(CacheError::InvalidInput("e", e)) if e.is_nan()
            ));
        }
        for e in [-1.0, 0.0, 0.5, 1.0, 3.0, f64::INFINITY] {
            assert_eq!(PolicyKind::HybridPartialBandwidth { e }.validate(), Ok(()));
            assert_eq!(PolicyKind::PartialBandwidthValue { e }.validate(), Ok(()));
        }
        for kind in PolicyKind::all_paper_policies() {
            assert_eq!(kind.validate(), Ok(()));
        }
    }

    #[test]
    fn boxed_policies_are_usable_through_the_trait() {
        use crate::object::{ObjectKey, ObjectMeta};
        let meta = ObjectMeta::new(ObjectKey::new(1), 100.0, 48_000.0, 2.0);
        for kind in PolicyKind::all_paper_policies() {
            let policy = kind.build();
            let u = policy.utility(&meta, 2, 24_000.0, 1);
            assert!(!u.is_nan());
            let t = policy.target_bytes(&meta, 24_000.0);
            assert!(t >= 0.0);
        }
    }
}
