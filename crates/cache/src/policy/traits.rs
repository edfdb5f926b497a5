//! The utility-policy abstraction shared by all replacement algorithms.

use crate::object::ObjectMeta;
use std::fmt;

/// A cache-management policy expressed as a utility function plus a target
/// allocation size.
///
/// Every algorithm evaluated in the paper fits this shape:
///
/// | Policy | Utility (keep the highest)          | Target bytes                  |
/// |--------|-------------------------------------|-------------------------------|
/// | IF     | `F`                                 | whole object                  |
/// | IB     | `F / b`                             | whole object if `r > b`       |
/// | PB     | `F / b`                             | `(r − b)⁺ · T`                |
/// | PB(e)  | `F / b`                             | `(r − e·b)⁺ · T`              |
/// | PB-V   | `F·V / ((r − e·b)⁺ · T)`            | `(r − e·b)⁺ · T`              |
/// | IB-V   | `F·V / (T · r · b)`                 | whole object if `r > b`       |
/// | LRU    | logical access clock †              | whole object                  |
/// | LFU    | `F`                                 | whole object                  |
///
/// where `F` is the observed request count, `b` the estimated bandwidth to
/// the origin, `r` the bit-rate, `T` the duration and `V` the value.
/// † LRU declares [`utility_is_access_clock`](Self::utility_is_access_clock),
/// so the engine orders it with a recency list rather than the heap.
///
/// The [`CacheEngine`](crate::CacheEngine) drives the policy: it tracks
/// frequencies, keeps cached objects ordered by utility (a heap, Section
/// 2.4), and evicts the lowest-utility entries to make room for
/// higher-utility ones.
pub trait UtilityPolicy: fmt::Debug {
    /// Short human-readable name ("PB", "IB", …) used in reports.
    fn name(&self) -> String;

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
    fn name(&self) -> String {
        (**self).name()
    }

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

/// Divides `numerator` by `denominator`, mapping a zero or negative
/// denominator to `f64::INFINITY` (an object behind a zero-bandwidth path is
/// infinitely valuable to cache) and guarding against NaN.
pub(crate) fn safe_ratio(numerator: f64, denominator: f64) -> f64 {
    if numerator <= 0.0 {
        return 0.0;
    }
    if denominator <= 0.0 {
        return f64::INFINITY;
    }
    numerator / denominator
}

#[cfg(test)]
mod tests {
    use super::*;

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
