//! Origin egress binned over time, and the pass through which the event
//! core adds a path's members to it.

/// Origin egress accumulated into fixed-width time bins.
///
/// Bytes downloaded during `[from, to]` are spread uniformly over the bins
/// the interval overlaps; time at or beyond the horizon lands in the last
/// bin, so the bins always sum to the total origin bytes.
///
/// Cutting an interval into bins — the first bin it overlaps and the share
/// of the interval inside each bin — depends on `(from, to)` alone, and the
/// event core integrates every member of a path over the same interval. So
/// the accumulator keeps the last cut and reuses it while `(from, to)` are
/// bit-equal: per call what remains is one `bytes * share` product per
/// overlapped bin, the same products added in the same call order as
/// cutting afresh each time, so every bin ends bit-identical.
#[derive(Debug, Clone)]
pub struct EgressAccumulator {
    bins: Vec<f64>,
    horizon_secs: f64,
    /// `horizon_secs / bins.len()`: non-negative, since `horizon_secs` is
    /// clamped (and `f64::max` drops a NaN).
    width: f64,
    /// The bits of the `(from, to)` the cut below was computed for.
    cut_interval: Option<(u64, u64)>,
    /// First bin the cut interval overlaps.
    cut_first: usize,
    /// Share of the cut interval inside bin `cut_first + i`.
    cut_shares: Vec<f64>,
}

/// Two accumulators are equal when they hold the same bins over the same
/// horizon; which interval was cut last is not part of the value.
impl PartialEq for EgressAccumulator {
    fn eq(&self, other: &Self) -> bool {
        self.bins == other.bins && self.horizon_secs == other.horizon_secs
    }
}

impl EgressAccumulator {
    /// Creates `bins` zeroed bins spanning `[0, horizon_secs]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn new(bins: usize, horizon_secs: f64) -> Self {
        assert!(bins > 0, "egress accumulation needs at least one bin");
        let horizon_secs = horizon_secs.max(0.0);
        EgressAccumulator {
            bins: vec![0.0; bins],
            horizon_secs,
            width: horizon_secs / bins as f64,
            cut_interval: None,
            cut_first: 0,
            cut_shares: Vec::new(),
        }
    }

    /// Adds `bytes` transferred uniformly over `[from, to]`.
    pub fn add(&mut self, from: f64, to: f64, bytes: f64) {
        let mut pass = EgressPass::new(self);
        pass.add(from, to, bytes);
        pass.finish();
    }

    /// Cuts `[from, to]` (`from < to`, positive bin width) into bins and
    /// keeps the cut.
    fn cut(&mut self, from: f64, to: f64) {
        let n = self.bins.len();
        let width = self.width;
        let span = to - from;
        let first = self.index_of(from);
        let last = self.index_of(to);
        self.cut_interval = Some((from.to_bits(), to.to_bits()));
        self.cut_first = first;
        self.cut_shares.clear();
        for idx in first..=last {
            let bin_start = idx as f64 * width;
            let bin_end = if idx + 1 == n {
                f64::INFINITY
            } else {
                (idx + 1) as f64 * width
            };
            // Adjacent bins cut the interval at the identical float
            // boundary value, so the segments telescope to exactly `span`.
            let seg = (to.min(bin_end) - from.max(bin_start)).max(0.0);
            self.cut_shares.push(seg / span);
        }
    }

    fn index_of(&self, t: f64) -> usize {
        if self.width > 0.0 {
            ((t / self.width) as usize).min(self.bins.len() - 1)
        } else {
            0
        }
    }

    /// The accumulated bins.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Consumes the accumulator, returning the bins.
    pub fn into_bins(self) -> Vec<f64> {
        self.bins
    }
}

/// An [`EgressAccumulator`] borrowed for a run of adds — the event core's
/// pass over a path's members — that keeps the bins of the current cut in
/// locals.
///
/// Every member of a pass is integrated over the same `(from, to)` (bar a
/// member whose own playback end moved its `from`), and the interval
/// between two events on a path rarely spans more than two bins. So while
/// the cut overlaps one or two bins their running sums live here and are
/// written back when the cut changes or the pass ends
/// ([`EgressPass::finish`]): each
/// `bytes * share` product is still added to its bin's running sum in the
/// order of the adds, so every bin ends bit-identical to adding through
/// memory, without the load-add-store chain from one member to the next.
/// A wider cut adds straight to the bins.
pub(crate) struct EgressPass<'a> {
    egress: &'a mut EgressAccumulator,
    /// How many bins, from the cut's first, are held: 1 or 2, else 0.
    held: usize,
    /// The first held bin.
    first: usize,
    /// The cut's shares of the held bins.
    share0: f64,
    share1: f64,
    /// The running sums of the held bins.
    sum0: f64,
    sum1: f64,
}

impl<'a> EgressPass<'a> {
    /// Starts a pass, holding the accumulator's last cut if it is narrow.
    #[inline(always)]
    pub(crate) fn new(egress: &'a mut EgressAccumulator) -> Self {
        let mut pass = EgressPass {
            egress,
            held: 0,
            first: 0,
            share0: 0.0,
            share1: 0.0,
            sum0: 0.0,
            sum1: 0.0,
        };
        pass.hold();
        pass
    }

    /// [`EgressAccumulator::add`], through the held bins.
    #[inline(always)]
    pub(crate) fn add(&mut self, from: f64, to: f64, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        if self.egress.width <= 0.0 || to <= from {
            // Degenerate horizon or instantaneous transfer: lump the bytes
            // into the bin of the starting instant.
            let idx = self.egress.index_of(from);
            match idx.wrapping_sub(self.first) {
                0 if self.held > 0 => self.sum0 += bytes,
                1 if self.held > 1 => self.sum1 += bytes,
                _ => self.egress.bins[idx] += bytes,
            }
            return;
        }
        if self.egress.cut_interval != Some((from.to_bits(), to.to_bits())) {
            self.release();
            self.egress.cut(from, to);
            self.hold();
        }
        match self.held {
            1 => self.sum0 += bytes * self.share0,
            2 => {
                self.sum0 += bytes * self.share0;
                self.sum1 += bytes * self.share1;
            }
            _ => {
                let egress = &mut *self.egress;
                for (bin, share) in egress.bins[egress.cut_first..]
                    .iter_mut()
                    .zip(&egress.cut_shares)
                {
                    *bin += bytes * share;
                }
            }
        }
    }

    /// Loads the bins of the accumulator's cut into the locals when it
    /// overlaps one or two.
    #[inline(always)]
    fn hold(&mut self) {
        let egress = &*self.egress;
        self.held = match egress.cut_shares[..] {
            [share0] => {
                self.share0 = share0;
                1
            }
            [share0, share1] => {
                self.share0 = share0;
                self.share1 = share1;
                2
            }
            _ => 0,
        };
        self.first = egress.cut_first;
        if self.held > 0 {
            self.sum0 = egress.bins[self.first];
        }
        if self.held > 1 {
            self.sum1 = egress.bins[self.first + 1];
        }
    }

    /// Ends the pass, writing the held sums back to their bins.
    ///
    /// Explicit rather than on drop: a pass with drop glue would be
    /// handed by address to the unwinding path of every panic in the loop
    /// around it, which keeps its sums in memory instead of registers.
    #[inline(always)]
    pub(crate) fn finish(mut self) {
        self.release();
    }

    /// Writes the held sums back to their bins.
    #[inline(always)]
    fn release(&mut self) {
        if self.held > 0 {
            self.egress.bins[self.first] = self.sum0;
        }
        if self.held > 1 {
            self.egress.bins[self.first + 1] = self.sum1;
        }
        self.held = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn egress_accumulator_distributes_and_clamps() {
        let mut acc = EgressAccumulator::new(4, 100.0);
        acc.add(0.0, 50.0, 100.0);
        assert!((acc.bins()[0] - 50.0).abs() < 1e-12);
        assert!((acc.bins()[1] - 50.0).abs() < 1e-12);
        // Beyond the horizon: everything lands in the last bin.
        acc.add(150.0, 250.0, 40.0);
        assert!((acc.bins()[3] - 40.0).abs() < 1e-12);
        // Degenerate interval: lumped at the start instant.
        acc.add(60.0, 60.0, 7.0);
        assert!((acc.bins()[2] - 7.0).abs() < 1e-12);
        // Zero bytes are a no-op.
        acc.add(0.0, 10.0, 0.0);
        let sum: f64 = acc.bins().iter().sum();
        assert!((sum - 147.0).abs() < 1e-12);
    }

    /// `EgressAccumulator::add` as it was before the cut was kept: bin
    /// width, both bin indices and every share re-derived on each call.
    /// The bitwise reference for the reuse.
    struct RecutEveryCall {
        bins: Vec<f64>,
        horizon_secs: f64,
    }

    impl RecutEveryCall {
        fn new(bins: usize, horizon_secs: f64) -> Self {
            RecutEveryCall {
                bins: vec![0.0; bins],
                horizon_secs: horizon_secs.max(0.0),
            }
        }

        fn add(&mut self, from: f64, to: f64, bytes: f64) {
            if bytes <= 0.0 {
                return;
            }
            let n = self.bins.len();
            let width = self.horizon_secs / n as f64;
            if width <= 0.0 || to <= from {
                let idx = self.index_of(from, width);
                self.bins[idx] += bytes;
                return;
            }
            let span = to - from;
            let first = self.index_of(from, width);
            let last = self.index_of(to, width);
            for idx in first..=last {
                let bin_start = idx as f64 * width;
                let bin_end = if idx + 1 == n {
                    f64::INFINITY
                } else {
                    (idx + 1) as f64 * width
                };
                let seg = (to.min(bin_end) - from.max(bin_start)).max(0.0);
                self.bins[idx] += bytes * (seg / span);
            }
        }

        fn index_of(&self, t: f64, width: f64) -> usize {
            if width > 0.0 {
                ((t / width) as usize).min(self.bins.len() - 1)
            } else {
                0
            }
        }
    }

    #[test]
    fn reused_cut_is_bitwise_the_cut_made_afresh() {
        // Every (bins, horizon) shape the early returns and the clamp see:
        // ordinary, one bin, a width that is not a dyadic fraction, and
        // the degenerate horizons (zero, negative, NaN — all width 0).
        let shapes = [
            (8, 100.0),
            (1, 100.0),
            (7, 33.3),
            (64, 86_400.0),
            (5, 0.0),
            (5, -3.0),
            (5, f64::NAN),
        ];
        for (shape, &(n, horizon)) in shapes.iter().enumerate() {
            let width = horizon.max(0.0) / n as f64;
            // Intervals built to sit on the reuse's edges: inside one bin,
            // across 2 … all bins, ending beyond the horizon, starting
            // beyond it, a bin boundary as `from` and as `to`, `to == from`
            // and `to < from`, and the two zeros, which are equal as
            // numbers and different as bits.
            let mut intervals = vec![
                (0.1 * width, 0.9 * width),
                (0.5 * width, 1.5 * width),
                (0.25 * width, 3.75 * width),
                (0.0, horizon),
                (-0.0, horizon),
                (0.0, 0.5 * width),
                (-0.0, 0.5 * width),
                (0.5 * width, 2.0 * horizon),
                (1.5 * horizon, 2.5 * horizon),
                (2.0 * width, 2.5 * width),
                (1.3 * width, 3.0 * width),
                (3.0 * width, 3.0 * width),
                (4.0 * width, 1.0 * width),
                (-2.0 * width, 0.5 * width),
            ];
            let mut rng = StdRng::seed_from_u64(shape as u64);
            intervals.extend((0..16).map(|_| {
                let from = rng.gen::<f64>() * 1.3 * horizon;
                (from, from + rng.gen::<f64>() * 1.1 * horizon)
            }));

            // `kept` takes one add at a time, `batched` each step's adds as
            // one pass — the event core's pass over a path's members.
            let mut kept = EgressAccumulator::new(n, horizon);
            let mut batched = EgressAccumulator::new(n, horizon);
            let mut afresh = RecutEveryCall::new(n, horizon);
            let mut check = |kept: &mut EgressAccumulator,
                             batched: &mut EgressAccumulator,
                             adds: &[(f64, f64, f64)]| {
                let same = |acc: &EgressAccumulator, afresh: &RecutEveryCall, what: &str| {
                    for (i, (a, b)) in acc.bins().iter().zip(&afresh.bins).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "shape {shape}, bin {i} after {what}: {a} vs {b}"
                        );
                    }
                };
                for &(from, to, bytes) in adds {
                    kept.add(from, to, bytes);
                    afresh.add(from, to, bytes);
                    same(kept, &afresh, &format!("add({from}, {to}, {bytes})"));
                }
                let mut pass = EgressPass::new(batched);
                for &(from, to, bytes) in adds {
                    pass.add(from, to, bytes);
                }
                pass.finish();
                same(batched, &afresh, &format!("the pass {adds:?}"));
            };
            for step in 0..4_000 {
                let a = intervals[rng.gen_range(0..intervals.len())];
                let b = intervals[rng.gen_range(0..intervals.len())];
                let mut bytes = || 1.0 + rng.gen::<f64>() * 1e11;
                let adds: Vec<(f64, f64, f64)> = match step % 4 {
                    // A run over one interval, as the members of a path
                    // give: different bytes each time, and a member that
                    // moved nothing (or a negative rounding residue)
                    // between two that did.
                    0 => [1.0, 3.0, 0.0, 0.5, -1.0, 2.0]
                        .iter()
                        .enumerate()
                        .map(|(i, scale)| (a.0, a.1, bytes() * scale * (i + 1) as f64))
                        .collect(),
                    // A member whose own playback end fell inside the
                    // interval has a later `from`: A A B A.
                    1 => [a, a, b, a]
                        .into_iter()
                        .map(|(from, to)| (from, to, bytes()))
                        .collect(),
                    // Same `from`, different `to`, and the reverse.
                    2 => [(a.0, a.1), (a.0, b.1), (b.0, b.1), (a.0, b.1)]
                        .into_iter()
                        .map(|(from, to)| (from, to, bytes()))
                        .collect(),
                    _ => vec![(a.0, a.1, bytes())],
                };
                check(&mut kept, &mut batched, &adds);
            }
            // An instantaneous transfer whose bin the pass holds lands in
            // the held sum; one outside it goes straight to its bin.
            for adds in [
                [
                    (0.5 * width, 1.5 * width, 1.0),
                    (0.75 * width, 0.75 * width, 2.0),
                    (1.25 * width, 1.0 * width, 3.0),
                    (3.5 * width, 3.5 * width, 4.0),
                    (0.5 * width, 1.5 * width, 5.0),
                ],
                [
                    (2.0 * width, 2.5 * width, 1.0),
                    (2.25 * width, 2.25 * width, 2.0),
                    (2.75 * width, 2.5 * width, 3.0),
                    (0.5 * width, 0.5 * width, 4.0),
                    (2.0 * width, 2.5 * width, 5.0),
                ],
            ] {
                check(&mut kept, &mut batched, &adds);
            }
            let total: f64 = kept.bins().iter().sum();
            assert!(total > 0.0, "shape {shape} accumulated nothing");
            // A NaN bound is cut like any other interval, twice running
            // included, and poisons the same bins the same way.
            for (from, to) in [(0.5 * width, f64::NAN), (f64::NAN, 0.5 * width)] {
                check(&mut kept, &mut batched, &[(from, to, 1.0), (from, to, 2.0)]);
            }
        }
    }

    #[test]
    fn equal_accumulators_may_have_cut_different_intervals_last() {
        let mut a = EgressAccumulator::new(4, 100.0);
        let mut b = EgressAccumulator::new(4, 100.0);
        a.add(0.0, 50.0, 10.0);
        a.add(50.0, 100.0, 10.0);
        b.add(50.0, 100.0, 10.0);
        b.add(0.0, 50.0, 10.0);
        assert_eq!(a, b);
        b.add(0.0, 50.0, 1.0);
        assert_ne!(a, b);
    }
}
