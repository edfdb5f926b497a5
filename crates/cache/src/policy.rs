//! Cache-management policies.
//!
//! Every replacement algorithm evaluated in the paper is a utility function
//! (what to keep) plus a target allocation (how much of each object to
//! keep): one [`PolicyKind`] variant, one row of the table on its doc, one
//! arm per [`UtilityPolicy`] method. The [`CacheEngine`](crate::CacheEngine)
//! provides the shared machinery — frequency tracking, the utility heap and
//! the eviction loop.

use crate::alloc::conservative_prefix_bytes;
use crate::error::CacheError;
use crate::object::ObjectMeta;
use std::fmt;

/// A cache-management policy expressed as a utility function plus a target
/// allocation size — the engine's seam. [`PolicyKind`] implements it for
/// every algorithm of the paper; its doc has the formulas.
///
/// The [`CacheEngine`](crate::CacheEngine) drives the policy: it tracks
/// frequencies, keeps cached objects ordered by utility (a heap, Section
/// 2.4), and evicts the lowest-utility entries to make room for
/// higher-utility ones.
pub trait UtilityPolicy: fmt::Debug {
    /// Utility of the object: the replacement algorithm keeps the objects
    /// with the highest utility. Must never return NaN.
    ///
    /// `frequency` is the number of requests observed so far (≥ 1 at call
    /// time), `bandwidth_bps` the current estimate of the bandwidth to the
    /// origin server, and `clock` a logical access counter (used by
    /// recency-based policies).
    fn utility(&self, meta: &ObjectMeta, frequency: u64, bandwidth_bps: f64, clock: u64) -> f64;

    /// How many bytes of the object the policy wants cached, given the
    /// current bandwidth estimate. Returning 0 means "do not cache".
    ///
    /// The engine clamps the result to `[0, size_bytes]`.
    fn target_bytes(&self, meta: &ObjectMeta, bandwidth_bps: f64) -> f64;

    /// Whether the engine may admit fewer bytes than
    /// [`target_bytes`](Self::target_bytes) when space is tight. Partial
    /// policies return `true`; integral (whole-object) policies return
    /// `false` so that admission is all-or-nothing.
    fn allows_partial_admission(&self) -> bool;

    /// Declares that **every** value [`utility`](Self::utility) returns is
    /// its `clock` argument (as `f64`), whatever the other arguments.
    ///
    /// The engine reads this once, at construction. The clock grows with
    /// every access, so for such a policy eviction order is arrival order
    /// and the engine keeps its cached objects in an O(1) recency list
    /// instead of the utility heap; hits, evictions and statistics are the
    /// ones the heap would produce. The list checks every key it is handed
    /// and panics on one that is not in clock order, so a wrong `true` is
    /// loud, never a silently different eviction. The default `false` is
    /// always safe; a wrapper that forwards `utility` but not this method
    /// (the `Box<P>` implementation forwards both) only loses the list.
    fn utility_is_access_clock(&self) -> bool {
        false
    }
}

impl<P: UtilityPolicy + ?Sized> UtilityPolicy for Box<P> {
    fn utility(&self, meta: &ObjectMeta, frequency: u64, bandwidth_bps: f64, clock: u64) -> f64 {
        (**self).utility(meta, frequency, bandwidth_bps, clock)
    }

    fn target_bytes(&self, meta: &ObjectMeta, bandwidth_bps: f64) -> f64 {
        (**self).target_bytes(meta, bandwidth_bps)
    }

    fn allows_partial_admission(&self) -> bool {
        (**self).allows_partial_admission()
    }

    fn utility_is_access_clock(&self) -> bool {
        (**self).utility_is_access_clock()
    }
}

/// Every built-in policy: the enum is the policy (it implements
/// [`UtilityPolicy`]), so configurations, sweeps, the simulator and the
/// proxy all hold the same `Copy` value.
///
/// | Policy | Utility (keep the highest)          | Target bytes                  |
/// |--------|-------------------------------------|-------------------------------|
/// | IF     | `F`                                 | whole object                  |
/// | IB     | `F / b`                             | whole object if `r > b`       |
/// | PB     | `F / b`                             | `(r − b)⁺ · T`                |
/// | PB(e)  | `F / b`                             | `(r − e·b)⁺ · T`              |
/// | PB-V   | `F·V / ((r − e·b)⁺ · T)`            | `(r − e·b)⁺ · T` if `r > b`   |
/// | IB-V   | `F·V / (T · r · b)`                 | whole object if `r > b`       |
/// | LRU    | logical access clock †              | whole object                  |
///
/// where `F` is the observed request count, `b` the estimated bandwidth to
/// the origin, `r` the bit-rate, `T` the duration and `V` the value; `e` is
/// clamped to `[0, 1]`. Only PB and PB(e) admit partially. A ratio with a
/// zero or negative denominator is infinite (an object behind a dead path
/// is infinitely valuable to cache), and a PB-V object with nothing to
/// cache has utility 0.
/// † LRU declares [`utility_is_access_clock`](UtilityPolicy::utility_is_access_clock),
/// so the engine orders it with a recency list rather than the heap.
///
/// ```
/// use sc_cache::policy::{PolicyKind, UtilityPolicy};
/// use sc_cache::{ObjectKey, ObjectMeta};
///
/// let obj = ObjectMeta::new(ObjectKey::new(0), 100.0, 48_000.0, 0.0);
/// let pb = PolicyKind::PartialBandwidth;
/// assert_eq!(pb.label(), "PB");
/// // `build()` boxes the same policy for the dynamic seam.
/// assert_eq!(pb.build().target_bytes(&obj, 24_000.0), pb.target_bytes(&obj, 24_000.0));
/// assert_eq!(PolicyKind::all_paper_policies().len(), 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// Integral Frequency-based caching (**IF** in the paper).
    ///
    /// Caches whole objects, ranked purely by request frequency; it is
    /// network-oblivious and serves as the classic baseline in Figures 5,
    /// 7, 8, 10 and 11. Functionally this is an LFU policy over whole
    /// streaming objects.
    ///
    /// ```
    /// use sc_cache::policy::{PolicyKind, UtilityPolicy};
    /// use sc_cache::{ObjectKey, ObjectMeta};
    ///
    /// let policy = PolicyKind::IntegralFrequency;
    /// let obj = ObjectMeta::new(ObjectKey::new(0), 100.0, 1_000.0, 0.0);
    /// // Frequency drives utility; bandwidth is ignored.
    /// assert_eq!(policy.utility(&obj, 7, 1e9, 0), 7.0);
    /// assert_eq!(policy.target_bytes(&obj, 1e9), obj.size_bytes());
    /// assert!(!policy.allows_partial_admission());
    /// ```
    IntegralFrequency,
    /// Integral Bandwidth-based caching (**IB** in the paper, Section 2.5).
    ///
    /// Ranks objects by `F_i / b_i` — frequently requested objects behind
    /// slow paths are the most valuable — but caches **whole objects
    /// only**. This is the most conservative variant: it needs no
    /// coordination between cache and origin, and it is the most robust to
    /// bandwidth variability (Figure 7), at the cost of fitting fewer
    /// objects in the cache. Objects whose bit-rate does not exceed the
    /// path bandwidth (`r ≤ b`) are never cached.
    ///
    /// ```
    /// use sc_cache::policy::{PolicyKind, UtilityPolicy};
    /// use sc_cache::{ObjectKey, ObjectMeta};
    ///
    /// let policy = PolicyKind::IntegralBandwidth;
    /// let obj = ObjectMeta::new(ObjectKey::new(0), 100.0, 48_000.0, 0.0);
    /// // Slow path: cache the whole object.
    /// assert_eq!(policy.target_bytes(&obj, 10_000.0), obj.size_bytes());
    /// // Fast path: do not cache at all.
    /// assert_eq!(policy.target_bytes(&obj, 64_000.0), 0.0);
    /// ```
    IntegralBandwidth,
    /// Partial Bandwidth-based caching (**PB** in the paper, Sections
    /// 2.3–2.4), the paper's headline policy.
    ///
    /// The online approximation of the optimal fractional-knapsack
    /// allocation: rank objects by `F_i / b_i` and cache a **prefix** of
    /// exactly `(r_i − b_i)⁺ · T_i` bytes — just enough for the cache and
    /// the origin server to jointly sustain immediate, continuous playout.
    /// Under the constant-bandwidth assumption PB minimises average service
    /// delay and maximises stream quality for a given cache size (Figure
    /// 5); under very high bandwidth variability the fixed prefix may prove
    /// too small, which is what
    /// [`HybridPartialBandwidth`](Self::HybridPartialBandwidth) addresses.
    /// PB is PB(e) at `e = 1`.
    ///
    /// ```
    /// use sc_cache::policy::{PolicyKind, UtilityPolicy};
    /// use sc_cache::{ObjectKey, ObjectMeta};
    ///
    /// let policy = PolicyKind::PartialBandwidth;
    /// let obj = ObjectMeta::new(ObjectKey::new(0), 100.0, 48_000.0, 0.0);
    /// // Path delivers half the bit-rate: cache half the object.
    /// assert_eq!(policy.target_bytes(&obj, 24_000.0), obj.size_bytes() / 2.0);
    /// assert!(policy.allows_partial_admission());
    /// ```
    PartialBandwidth,
    /// Partial bandwidth-based caching with a conservative bandwidth
    /// estimator (**PB(e)** in the paper, Sections 2.5 and 4.3, Figure 9).
    ///
    /// The policy under-estimates the measured bandwidth by a factor `e`
    /// and caches a prefix of `(r − e·b)⁺ · T` bytes. `e = 1` is exactly
    /// [`PartialBandwidth`](Self::PartialBandwidth); `e = 0` caches whole
    /// objects by `F/b`, i.e. [`IntegralBandwidth`](Self::IntegralBandwidth)
    /// without the `r > b` admission filter; an intermediate `e`
    /// over-provisions prefixes to tolerate bandwidth variability (Figure 9
    /// shows a moderate `e` minimises delay under variable bandwidth).
    ///
    /// ```
    /// use sc_cache::policy::{PolicyKind, UtilityPolicy};
    /// use sc_cache::{ObjectKey, ObjectMeta};
    ///
    /// let obj = ObjectMeta::new(ObjectKey::new(0), 100.0, 48_000.0, 0.0);
    /// let b = 24_000.0;
    /// let aggressive = PolicyKind::HybridPartialBandwidth { e: 1.0 };
    /// let conservative = PolicyKind::HybridPartialBandwidth { e: 0.5 };
    /// assert!(conservative.target_bytes(&obj, b) > aggressive.target_bytes(&obj, b));
    /// ```
    HybridPartialBandwidth {
        /// The conservative bandwidth scaling factor, clamped to `[0, 1]`.
        e: f64,
    },
    /// Partial Bandwidth-Value-based caching (**PB-V** in the paper,
    /// Section 2.6, Figures 10–12) with estimator `e` (`e = 1` is the
    /// paper's exact PB-V).
    ///
    /// The objective is to maximise the total value `Σ λ_i·V_i` of objects
    /// that can be played **immediately**. That requires caching
    /// `[T_i·r_i − T_i·b_i]⁺` bytes, so the greedy knapsack ranks objects by
    /// value density `λ_i·V_i / (T_i·r_i − T_i·b_i)` and caches exactly that
    /// prefix, enlarged by `e` as in PB(e) (Figure 12 shows `e ≈ 0.5`
    /// maximises total added value under realistic variability). Admission
    /// is all-or-nothing: a smaller prefix does not enable immediate
    /// playout and therefore contributes no value.
    PartialBandwidthValue {
        /// The conservative bandwidth scaling factor, clamped to `[0, 1]`.
        e: f64,
    },
    /// Integral Bandwidth-Value-based caching (**IB-V** in the paper).
    ///
    /// Caches whole objects, ranked by `λ_i·V_i / (T_i·r_i·b_i)` —
    /// preferring objects with lower bandwidth, higher value and smaller
    /// size. Like IB it needs no joint cache/origin delivery and is robust
    /// to bandwidth variability; Figures 10–11 show it strikes a balance
    /// between IF and PB-V.
    IntegralBandwidthValue,
    /// Least-Recently-Used caching over whole objects, the recency baseline
    /// of Section 3.3: the utility is the engine's logical access clock, so
    /// a larger utility means "accessed more recently" — and nothing else.
    Lru,
}

impl PolicyKind {
    /// The policy behind the engine's dynamic seam, for callers that mix it
    /// with other [`UtilityPolicy`] implementations.
    pub fn build(&self) -> Box<dyn UtilityPolicy + Send + Sync> {
        Box::new(*self)
    }

    /// Checks the policy's parameters: a NaN conservative factor `e` is
    /// rejected (it would survive the clamp and silently run as `e = 0`);
    /// any other `e` outside `[0, 1]` is clamped.
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
        match *self {
            PolicyKind::IntegralFrequency => "IF".into(),
            PolicyKind::IntegralBandwidth => "IB".into(),
            PolicyKind::PartialBandwidth => "PB".into(),
            PolicyKind::HybridPartialBandwidth { e } => format!("PB(e={:.2})", e.clamp(0.0, 1.0)),
            PolicyKind::PartialBandwidthValue { e } => match e.clamp(0.0, 1.0) {
                e if (e - 1.0).abs() < f64::EPSILON => "PB-V".into(),
                e => format!("PB-V(e={e:.2})"),
            },
            PolicyKind::IntegralBandwidthValue => "IB-V".into(),
            PolicyKind::Lru => "LRU".into(),
        }
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

impl UtilityPolicy for PolicyKind {
    fn utility(&self, meta: &ObjectMeta, frequency: u64, bandwidth_bps: f64, clock: u64) -> f64 {
        let f = frequency as f64;
        match *self {
            PolicyKind::IntegralFrequency => f,
            PolicyKind::IntegralBandwidth
            | PolicyKind::PartialBandwidth
            | PolicyKind::HybridPartialBandwidth { .. } => safe_ratio(f, bandwidth_bps),
            PolicyKind::PartialBandwidthValue { .. } => {
                match self.target_bytes(meta, bandwidth_bps) {
                    // Never cached (abundant bandwidth): the utility is
                    // irrelevant, but must not read as "infinitely valuable".
                    cost if cost <= 0.0 => 0.0,
                    cost => safe_ratio(f * meta.value, cost),
                }
            }
            PolicyKind::IntegralBandwidthValue => {
                safe_ratio(f * meta.value, meta.size_bytes() * bandwidth_bps)
            }
            PolicyKind::Lru => clock as f64,
        }
    }

    fn target_bytes(&self, meta: &ObjectMeta, bandwidth_bps: f64) -> f64 {
        let prefix =
            |e| conservative_prefix_bytes(meta.duration_secs, meta.bitrate_bps, bandwidth_bps, e);
        match *self {
            PolicyKind::IntegralFrequency | PolicyKind::Lru => meta.size_bytes(),
            // The origin alone sustains playout (`r ≤ b`): caching adds
            // nothing.
            PolicyKind::IntegralBandwidth
            | PolicyKind::IntegralBandwidthValue
            | PolicyKind::PartialBandwidthValue { .. }
                if meta.bandwidth_sufficient(bandwidth_bps) =>
            {
                0.0
            }
            PolicyKind::IntegralBandwidth | PolicyKind::IntegralBandwidthValue => meta.size_bytes(),
            PolicyKind::PartialBandwidth => prefix(1.0),
            PolicyKind::HybridPartialBandwidth { e } | PolicyKind::PartialBandwidthValue { e } => {
                prefix(e)
            }
        }
    }

    fn allows_partial_admission(&self) -> bool {
        matches!(
            self,
            PolicyKind::PartialBandwidth | PolicyKind::HybridPartialBandwidth { .. }
        )
    }

    fn utility_is_access_clock(&self) -> bool {
        matches!(self, PolicyKind::Lru)
    }
}

/// Divides `numerator` by `denominator`, mapping a zero or negative
/// denominator to `f64::INFINITY` (an object behind a zero-bandwidth path is
/// infinitely valuable to cache) and guarding against NaN.
fn safe_ratio(numerator: f64, denominator: f64) -> f64 {
    if numerator <= 0.0 {
        return 0.0;
    }
    if denominator <= 0.0 {
        return f64::INFINITY;
    }
    numerator / denominator
}

#[cfg(test)]
mod traits {
    mod tests {
        use crate::policy::safe_ratio;

        #[test]
        fn safe_ratio_handles_edges() {
            assert_eq!(safe_ratio(1.0, 2.0), 0.5);
            assert_eq!(safe_ratio(1.0, 0.0), f64::INFINITY);
            assert_eq!(safe_ratio(1.0, -1.0), f64::INFINITY);
            assert_eq!(safe_ratio(0.0, 0.0), 0.0);
            assert_eq!(safe_ratio(-1.0, 0.0), 0.0);
            assert!(!safe_ratio(0.0, 0.0).is_nan());
        }
    }
}

#[cfg(test)]
mod frequency {
    mod tests {
        use crate::object::{ObjectKey, ObjectMeta};
        use crate::policy::{PolicyKind, UtilityPolicy};

        fn obj() -> ObjectMeta {
            ObjectMeta::new(ObjectKey::new(1), 200.0, 48_000.0, 3.0)
        }

        #[test]
        fn if_ignores_bandwidth() {
            let p = PolicyKind::IntegralFrequency;
            assert_eq!(p.utility(&obj(), 3, 10.0, 0), p.utility(&obj(), 3, 1e9, 5));
            assert_eq!(p.target_bytes(&obj(), 0.0), obj().size_bytes());
            assert_eq!(p.target_bytes(&obj(), 1e12), obj().size_bytes());
            assert_eq!(p.label(), "IF");
        }

        #[test]
        fn utility_increases_with_frequency() {
            let p = PolicyKind::IntegralFrequency;
            assert!(p.utility(&obj(), 10, 1.0, 0) > p.utility(&obj(), 2, 1.0, 0));
        }
    }
}

#[cfg(test)]
mod bandwidth {
    mod tests {
        use crate::object::{ObjectKey, ObjectMeta};
        use crate::policy::{PolicyKind, UtilityPolicy};

        fn obj() -> ObjectMeta {
            ObjectMeta::new(ObjectKey::new(2), 100.0, 48_000.0, 0.0)
        }

        #[test]
        fn utility_prefers_slow_paths() {
            let p = PolicyKind::IntegralBandwidth;
            let slow = p.utility(&obj(), 5, 10_000.0, 0);
            let fast = p.utility(&obj(), 5, 100_000.0, 0);
            assert!(slow > fast);
        }

        #[test]
        fn utility_scales_with_frequency() {
            let p = PolicyKind::IntegralBandwidth;
            assert!(p.utility(&obj(), 10, 10_000.0, 0) > p.utility(&obj(), 1, 10_000.0, 0));
        }

        #[test]
        fn zero_bandwidth_is_infinitely_valuable() {
            let p = PolicyKind::IntegralBandwidth;
            assert_eq!(p.utility(&obj(), 1, 0.0, 0), f64::INFINITY);
            assert_eq!(p.target_bytes(&obj(), 0.0), obj().size_bytes());
        }

        #[test]
        fn sufficient_bandwidth_means_no_caching() {
            let p = PolicyKind::IntegralBandwidth;
            assert_eq!(p.target_bytes(&obj(), 48_000.0), 0.0);
            assert_eq!(p.target_bytes(&obj(), 1e9), 0.0);
            assert_eq!(p.target_bytes(&obj(), 47_999.0), obj().size_bytes());
        }

        #[test]
        fn integral_admission() {
            let p = PolicyKind::IntegralBandwidth;
            assert!(!p.allows_partial_admission());
            assert_eq!(p.label(), "IB");
        }
    }
}

#[cfg(test)]
mod partial {
    mod tests {
        use crate::object::{ObjectKey, ObjectMeta};
        use crate::policy::{PolicyKind, UtilityPolicy};

        fn obj() -> ObjectMeta {
            ObjectMeta::new(ObjectKey::new(3), 100.0, 48_000.0, 0.0)
        }

        #[test]
        fn target_is_the_bandwidth_deficit() {
            let p = PolicyKind::PartialBandwidth;
            assert_eq!(p.target_bytes(&obj(), 0.0), obj().size_bytes());
            assert_eq!(p.target_bytes(&obj(), 12_000.0), 100.0 * 36_000.0);
            assert_eq!(p.target_bytes(&obj(), 48_000.0), 0.0);
            assert_eq!(p.target_bytes(&obj(), 96_000.0), 0.0);
        }

        #[test]
        fn utility_matches_ib_ranking() {
            let p = PolicyKind::PartialBandwidth;
            assert_eq!(p.utility(&obj(), 6, 12_000.0, 0), 6.0 / 12_000.0);
            assert_eq!(p.utility(&obj(), 1, 0.0, 0), f64::INFINITY);
        }

        #[test]
        fn partial_admission_allowed() {
            let p = PolicyKind::PartialBandwidth;
            assert!(p.allows_partial_admission());
            assert_eq!(p.label(), "PB");
        }
    }
}

#[cfg(test)]
mod hybrid {
    mod tests {
        use crate::object::{ObjectKey, ObjectMeta};
        use crate::policy::{PolicyKind, UtilityPolicy};

        fn obj() -> ObjectMeta {
            ObjectMeta::new(ObjectKey::new(4), 100.0, 48_000.0, 0.0)
        }

        #[test]
        fn e_one_matches_pb() {
            let hybrid = PolicyKind::HybridPartialBandwidth { e: 1.0 };
            let pb = PolicyKind::PartialBandwidth;
            for b in [0.0, 10_000.0, 24_000.0, 48_000.0, 96_000.0] {
                assert_eq!(hybrid.target_bytes(&obj(), b), pb.target_bytes(&obj(), b));
            }
        }

        #[test]
        fn e_zero_caches_whole_objects() {
            let hybrid = PolicyKind::HybridPartialBandwidth { e: 0.0 };
            for b in [10_000.0, 48_000.0, 1e9] {
                assert_eq!(hybrid.target_bytes(&obj(), b), obj().size_bytes());
            }
        }

        #[test]
        fn target_decreases_with_e() {
            let b = 24_000.0;
            let mut prev = f64::INFINITY;
            for e in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let t = PolicyKind::HybridPartialBandwidth { e }.target_bytes(&obj(), b);
                assert!(t <= prev);
                prev = t;
            }
        }

        #[test]
        fn e_is_clamped_and_named() {
            let target =
                |e| PolicyKind::HybridPartialBandwidth { e }.target_bytes(&obj(), 24_000.0);
            assert_eq!(target(3.0), target(1.0));
            assert_eq!(target(-1.0), target(0.0));
            assert_eq!(
                PolicyKind::HybridPartialBandwidth { e: 3.0 }.label(),
                "PB(e=1.00)"
            );
            assert_eq!(
                PolicyKind::HybridPartialBandwidth { e: -1.0 }.label(),
                "PB(e=0.00)"
            );
            assert_eq!(
                PolicyKind::HybridPartialBandwidth { e: 0.5 }.label(),
                "PB(e=0.50)"
            );
        }

        #[test]
        fn utility_is_bandwidth_aware() {
            let h = PolicyKind::HybridPartialBandwidth { e: 0.5 };
            assert!(h.utility(&obj(), 4, 10_000.0, 0) > h.utility(&obj(), 4, 40_000.0, 0));
            assert!(h.allows_partial_admission());
        }
    }
}

#[cfg(test)]
mod value {
    mod tests {
        use crate::object::{ObjectKey, ObjectMeta};
        use crate::policy::{PolicyKind, UtilityPolicy};

        const PBV: PolicyKind = PolicyKind::PartialBandwidthValue { e: 1.0 };

        fn obj(value: f64) -> ObjectMeta {
            ObjectMeta::new(ObjectKey::new(5), 100.0, 48_000.0, value)
        }

        #[test]
        fn pbv_target_is_immediate_service_prefix() {
            assert_eq!(PBV.target_bytes(&obj(5.0), 24_000.0), 100.0 * 24_000.0);
            assert_eq!(PBV.target_bytes(&obj(5.0), 48_000.0), 0.0);
            assert_eq!(PBV.target_bytes(&obj(5.0), 1e9), 0.0);
        }

        #[test]
        fn pbv_utility_is_value_density() {
            let u = PBV.utility(&obj(8.0), 3, 24_000.0, 0);
            assert!((u - 3.0 * 8.0 / (100.0 * 24_000.0)).abs() < 1e-15);
            // Higher value, same cost: higher utility.
            assert!(
                PBV.utility(&obj(10.0), 3, 24_000.0, 0) > PBV.utility(&obj(1.0), 3, 24_000.0, 0)
            );
            // No cost (abundant bandwidth): utility zero — never cached anyway.
            assert_eq!(PBV.utility(&obj(10.0), 3, 48_000.0, 0), 0.0);
        }

        #[test]
        fn pbv_estimator_grows_prefix() {
            let conservative = PolicyKind::PartialBandwidthValue { e: 0.5 };
            assert!(
                conservative.target_bytes(&obj(5.0), 24_000.0)
                    > PBV.target_bytes(&obj(5.0), 24_000.0)
            );
            assert_eq!(conservative.label(), "PB-V(e=0.50)");
            assert_eq!(PBV.label(), "PB-V");
            let clamped = PolicyKind::PartialBandwidthValue { e: 9.0 };
            assert_eq!(
                clamped.target_bytes(&obj(5.0), 24_000.0),
                PBV.target_bytes(&obj(5.0), 24_000.0)
            );
            assert_eq!(clamped.label(), "PB-V");
        }

        #[test]
        fn pbv_is_all_or_nothing() {
            assert!(!PBV.allows_partial_admission());
        }

        #[test]
        fn ibv_prefers_low_bandwidth_high_value_small_objects() {
            let p = PolicyKind::IntegralBandwidthValue;
            let small = ObjectMeta::new(ObjectKey::new(1), 50.0, 48_000.0, 5.0);
            let large = ObjectMeta::new(ObjectKey::new(2), 500.0, 48_000.0, 5.0);
            assert!(p.utility(&small, 2, 20_000.0, 0) > p.utility(&large, 2, 20_000.0, 0));
            assert!(p.utility(&small, 2, 10_000.0, 0) > p.utility(&small, 2, 20_000.0, 0));
            assert!(p.utility(&obj(9.0), 2, 20_000.0, 0) > p.utility(&obj(1.0), 2, 20_000.0, 0));
            assert_eq!(p.utility(&obj(9.0), 2, 0.0, 0), f64::INFINITY);
        }

        #[test]
        fn ibv_targets_whole_objects_behind_slow_paths() {
            let p = PolicyKind::IntegralBandwidthValue;
            assert_eq!(p.target_bytes(&obj(5.0), 24_000.0), obj(5.0).size_bytes());
            assert_eq!(p.target_bytes(&obj(5.0), 48_000.0), 0.0);
            assert!(!p.allows_partial_admission());
            assert_eq!(p.label(), "IB-V");
        }
    }
}

#[cfg(test)]
mod lru {
    mod tests {
        use crate::object::{ObjectKey, ObjectMeta};
        use crate::policy::{PolicyKind, UtilityPolicy};

        #[test]
        fn recency_drives_utility() {
            let p = PolicyKind::Lru;
            let obj = ObjectMeta::new(ObjectKey::new(1), 10.0, 1_000.0, 0.0);
            assert!(p.utility(&obj, 100, 1.0, 5) < p.utility(&obj, 1, 1.0, 6));
            assert_eq!(p.target_bytes(&obj, 0.0), obj.size_bytes());
            assert!(!p.allows_partial_admission());
            assert_eq!(p.label(), "LRU");
        }
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
    fn every_kind_answers_its_table_row() {
        use crate::object::{ObjectKey, ObjectMeta};
        // Each row of the policy table computed here from its formula: a
        // built policy must return these exact bits and these two flags.
        let (t, r) = (100.0, 48_000.0);
        let size = t * r;
        let ratio = |n: f64, d: f64| -> f64 {
            if n <= 0.0 {
                0.0
            } else if d <= 0.0 {
                f64::INFINITY
            } else {
                n / d
            }
        };
        // `(r − e·b)⁺ · T` capped at the object, `e` clamped to [0, 1].
        let prefix =
            |b: f64, e: f64| ((r - (b * e.clamp(0.0, 1.0)).max(0.0)) * t).clamp(0.0, t * r);
        let mut kinds = vec![
            PolicyKind::IntegralFrequency,
            PolicyKind::IntegralBandwidth,
            PolicyKind::PartialBandwidth,
            PolicyKind::IntegralBandwidthValue,
            PolicyKind::Lru,
        ];
        for e in [-1.0, 0.0, 0.25, 0.5, 1.0, 3.0, f64::INFINITY] {
            kinds.push(PolicyKind::HybridPartialBandwidth { e });
            kinds.push(PolicyKind::PartialBandwidthValue { e });
        }
        for kind in kinds {
            let policy = kind.build();
            for b in [-1.0, 0.0, r / 4.0, r / 2.0, r, 2.0 * r, f64::INFINITY] {
                let whole_unless_sufficient = if r <= b { 0.0 } else { size };
                for (v, f, clock) in [0.0, 3.0]
                    .into_iter()
                    .flat_map(|v| [1u64, 7].map(|f| (v, f)))
                    .flat_map(|(v, f)| [0u64, 9].map(|clock| (v, f, clock)))
                {
                    let meta = ObjectMeta::new(ObjectKey::new(1), t, r, v);
                    let n = f as f64;
                    let (utility, target, partial) = match kind {
                        PolicyKind::IntegralFrequency => (n, size, false),
                        PolicyKind::IntegralBandwidth => {
                            (ratio(n, b), whole_unless_sufficient, false)
                        }
                        PolicyKind::PartialBandwidth => (ratio(n, b), prefix(b, 1.0), true),
                        PolicyKind::HybridPartialBandwidth { e } => {
                            (ratio(n, b), prefix(b, e), true)
                        }
                        PolicyKind::PartialBandwidthValue { e } => {
                            let cost = if r <= b { 0.0 } else { prefix(b, e) };
                            let density = if cost <= 0.0 { 0.0 } else { ratio(n * v, cost) };
                            (density, cost, false)
                        }
                        PolicyKind::IntegralBandwidthValue => {
                            (ratio(n * v, size * b), whole_unless_sufficient, false)
                        }
                        PolicyKind::Lru => (clock as f64, size, false),
                    };
                    let at = format!("{} at b={b} F={f} clock={clock} V={v}", kind.label());
                    assert_eq!(
                        policy.utility(&meta, f, b, clock).to_bits(),
                        utility.to_bits(),
                        "utility of {at}"
                    );
                    assert_eq!(
                        policy.target_bytes(&meta, b).to_bits(),
                        target.to_bits(),
                        "target of {at}"
                    );
                    assert_eq!(policy.allows_partial_admission(), partial, "{at}");
                    assert_eq!(
                        policy.utility_is_access_clock(),
                        kind == PolicyKind::Lru,
                        "{at}"
                    );
                }
            }
        }
        let labels = [
            (PolicyKind::HybridPartialBandwidth { e: 3.0 }, "PB(e=1.00)"),
            (PolicyKind::HybridPartialBandwidth { e: -1.0 }, "PB(e=0.00)"),
            (PolicyKind::PartialBandwidthValue { e: 3.0 }, "PB-V"),
            (PolicyKind::PartialBandwidthValue { e: 0.5 }, "PB-V(e=0.50)"),
        ];
        for (kind, label) in labels {
            assert_eq!(kind.label(), label);
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
