//! The evolving state of one session, integrated in closed form between
//! events.

use super::egress::EgressAccumulator;
use super::SessionSpec;

/// The evolving state of one session.
///
/// Public so the naive fluid reference model can drive the *identical*
/// closed-form integration ([`SessionState::advance_masked`]) while
/// independently re-deriving shares and completion times from scratch —
/// the bitwise cross-check then isolates the event core's scheduling and
/// bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// The static description of the session.
    pub spec: SessionSpec,
    /// Prefix bytes served from the cache at arrival.
    pub prefix_bytes: f64,
    /// Bytes that must come from the origin (`size - prefix`).
    pub origin_bytes: f64,
    /// Origin bytes downloaded so far.
    pub downloaded_bytes: f64,
    /// Current processor-sharing allocation, in bytes per second (0 when
    /// not transferring).
    pub share_bps: f64,
    /// Simulation time up to which this state has been integrated.
    pub last_update_secs: f64,
    /// Accumulated time during which the playback buffer was drained
    /// (cumulative demand exceeded available bytes), in seconds.
    pub rebuffer_secs: f64,
    /// Playback time spent inside a path outage *without* stalling, in
    /// seconds — the cached prefix (plus whatever buffer the session had
    /// built) masking the fault. Zero unless fault injection is active.
    pub masked_stall_secs: f64,
    /// Whether the session currently holds a share on its path.
    pub transferring: bool,
    /// Time the origin transfer finished (the arrival time for full hits);
    /// `NaN` until then.
    pub transfer_end_secs: f64,
}

impl SessionState {
    /// A session that has just arrived with `prefix_bytes` served from the
    /// cache.
    pub fn begin(spec: SessionSpec, prefix_bytes: f64) -> Self {
        let prefix = prefix_bytes.clamp(0.0, spec.size_bytes);
        SessionState {
            spec,
            prefix_bytes: prefix,
            origin_bytes: spec.size_bytes - prefix,
            downloaded_bytes: 0.0,
            share_bps: 0.0,
            last_update_secs: spec.arrival_secs,
            rebuffer_secs: 0.0,
            masked_stall_secs: 0.0,
            transferring: false,
            transfer_end_secs: f64::NAN,
        }
    }

    /// Integrates the session from its last update instant to `to`:
    /// advances the origin download at the current share, accumulates
    /// playback-buffer drain time, and attributes the downloaded bytes to
    /// `egress`. When `path_down` is set, the playback time of this
    /// segment that did *not* stall is credited to
    /// [`SessionState::masked_stall_secs`] — the fault-aware event loop
    /// guarantees no segment straddles an outage boundary, so the flag is
    /// well-defined per segment.
    ///
    /// Both the event core and the naive reference model integrate
    /// exactly this way at exactly the same instants, which is what makes
    /// their outputs bitwise comparable.
    pub fn advance_masked(&mut self, to: f64, egress: &mut EgressAccumulator, path_down: bool) {
        let from = self.last_update_secs;
        let downloaded = self.integrate(to, path_down);
        egress.add(from, to, downloaded);
    }

    /// The integration behind [`SessionState::advance_masked`], returning
    /// the origin bytes downloaded over `[last_update_secs, to]` (zero
    /// when `to` is not later) instead of attributing them, so the event
    /// core can add them through an [`EgressPass`](super::egress::EgressPass).
    #[inline(always)]
    pub(super) fn integrate(&mut self, to: f64, path_down: bool) -> f64 {
        let from = self.last_update_secs;
        if to <= from {
            return 0.0;
        }
        let rate = if self.transferring {
            self.share_bps
        } else {
            0.0
        };

        // Rebuffer accumulation is confined to the playback window: the
        // buffer deficit f(t) = demand(t) - available(t) is linear between
        // events, so the time spent with f > 0 has a closed form.
        let play_end = self.spec.arrival_secs + self.spec.duration_secs;
        let rb_end = to.min(play_end);
        if rb_end > from {
            let f0 = self.spec.rate_bps * (from - self.spec.arrival_secs)
                - (self.prefix_bytes + self.downloaded_bytes);
            let slope = self.spec.rate_bps - rate;
            let stalled = positive_measure(f0, slope, rb_end - from);
            self.rebuffer_secs += stalled;
            if path_down {
                self.masked_stall_secs += ((rb_end - from) - stalled).max(0.0);
            }
        }

        self.last_update_secs = to;
        if self.transferring && rate > 0.0 {
            let before = self.downloaded_bytes;
            self.downloaded_bytes = (before + rate * (to - from)).min(self.origin_bytes);
            self.downloaded_bytes - before
        } else {
            0.0
        }
    }

    /// Origin bytes still to download.
    pub fn remaining_bytes(&self) -> f64 {
        (self.origin_bytes - self.downloaded_bytes).max(0.0)
    }
}

/// Stall durations at or below this threshold are float-accumulation dust,
/// not model predictions, and do not count a session as rebuffered.
///
/// The buffer deficit compares `rate · elapsed` (one multiplication)
/// against the downloaded bytes (a sum of `share · dt` segments); when the
/// two are mathematically equal, rounding can leave a residue of a few ulps
/// — observed around 1e-14 s — which would otherwise flip whole sessions
/// into the rebuffer-probability numerator under exactly-sufficient
/// capacity. A nanosecond is five orders of magnitude above that dust and
/// far below any stall a viewer (or the fluid model, at meaningfully scarce
/// capacity) can produce. [`SessionState::rebuffer_secs`] stays raw.
pub const REBUFFER_EPSILON_SECS: f64 = 1e-9;

/// Length of the sub-interval of `[0, len]` on which the linear function
/// `f0 + slope · x` is strictly positive.
pub(super) fn positive_measure(f0: f64, slope: f64, len: f64) -> f64 {
    if slope == 0.0 {
        return if f0 > 0.0 { len } else { 0.0 };
    }
    let root = (-f0 / slope).clamp(0.0, len);
    if slope > 0.0 {
        len - root
    } else {
        root
    }
}
