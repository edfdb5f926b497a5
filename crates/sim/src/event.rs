//! The deterministic discrete-event queue behind the session simulator.
//!
//! [`EventQueue`] is a binary min-heap of timestamped events with a hard
//! determinism contract: events are popped in increasing `(time, sequence)`
//! order, where the sequence number is assigned monotonically at push time.
//! Two events with *exactly* equal timestamps therefore pop in the order
//! they were scheduled, regardless of heap internals or push interleaving —
//! the property the session core's tie-break (simultaneous arrivals and
//! departures) and its cross-thread byte-identity rest on.
//!
//! The session core keeps one pending completion event per path — the
//! earliest among the path's members — and replaces it at every
//! processor-sharing re-division. Rather than rebuilding the heap,
//! [`EventQueue::cancel`] clears the event's entry in a table indexed by
//! sequence number (sequences are dense and monotonic, so the table is a
//! plain vector: no hashing) and [`EventQueue::pop`] silently discards
//! heap entries whose sequence is no longer pending, so a cancelled event
//! is never observed by the simulation loop.
//!
//! The table grows by one byte per event ever pushed and is never trimmed.
//! It is not a ring over the live sequence window, and this is why: since
//! the session core reads its pre-known events (arrivals, outage edges)
//! from sorted arrays, the queue sees only playback ends and completions.
//! Measured at `--scale paper`, one thread, the largest single run of
//! `fig_faults` pushes 1 648 214 events (1.6 MB of flags, beside a heap
//! that peaks at 524 766 entries × 24 B = 12.6 MB and a 68 MB edge array;
//! at the parent of that change the same run pushed 5.97 M, 4.23 M of them
//! edges) and the largest of `fig_sessions` 259 790. A playback end stays
//! pending for its session's whole duration, so the live window is most of
//! the table anyway — at most 368 249 sequences (22 %) in that `fig_faults`
//! run, 181 054 (70 %) in the `fig_sessions` one: a ring would save about
//! a megabyte in the first and 80 KB in the second, and pay for it with a
//! base offset on every index and a trim loop in `pop` and `cancel`.

use std::collections::BinaryHeap;

/// What happened, attached to every scheduled event.
///
/// The payload is a session index into the simulator's session table for
/// the session events, and a path index for the fault events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A session arrives: it performs its cache access and (if any origin
    /// bytes remain) joins its path's processor-sharing set.
    Arrival(u32),
    /// A session's origin transfer finishes: it releases its bandwidth
    /// share and the path re-divides among the remaining sessions.
    TransferComplete(u32),
    /// A session's playback window ends: the concurrent-viewer count drops.
    PlaybackEnd(u32),
    /// A path outage begins: the path's capacity drops to its residual
    /// fraction and every affected session re-shares.
    PathDown(u32),
    /// A path outage ends: full capacity returns and every affected
    /// session re-shares.
    PathUp(u32),
}

/// A scheduled event, as returned by [`EventQueue::pop`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time at which the event fires, in seconds.
    pub time_secs: f64,
    /// Monotonic schedule-order sequence number (the tie-break).
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

/// Internal heap entry ordered so that `BinaryHeap` (a max-heap) pops the
/// smallest `(time, seq)` first.
#[derive(Debug)]
struct HeapEntry(Event);

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.time_secs.to_bits() == other.0.time_secs.to_bits() && self.0.seq == other.0.seq
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: the smallest (time, seq) must be the heap maximum.
        // total_cmp gives a total order; event times are finite by
        // construction (EventQueue::push rejects non-finite times).
        other
            .0
            .time_secs
            .total_cmp(&self.0.time_secs)
            .then(other.0.seq.cmp(&self.0.seq))
    }
}

/// The check [`EventQueue::push`] makes of every event time, for the
/// session core's pre-known events, which never enter the queue.
pub(crate) fn assert_finite_time(time_secs: f64, kind: EventKind) {
    assert!(
        time_secs.is_finite(),
        "event time must be finite, got {time_secs} for {kind:?}"
    );
}

/// A binary-heap event queue with deterministic `(time, sequence)` ordering
/// and seq-indexed cancellation.
///
/// ```
/// use sc_sim::event::{EventKind, EventQueue};
///
/// let mut queue = EventQueue::new();
/// let _late = queue.push(5.0, EventKind::Arrival(0));
/// let early = queue.push(1.0, EventKind::Arrival(1));
/// let tied = queue.push(5.0, EventKind::PlaybackEnd(1));
/// queue.cancel(early);
/// // The cancelled event is never observed; equal times pop in push order.
/// assert_eq!(queue.pop().unwrap().kind, EventKind::Arrival(0));
/// assert_eq!(queue.pop().unwrap().seq, tied);
/// assert!(queue.pop().is_none());
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<HeapEntry>,
    /// `pending[seq]` is true from the push of `seq` until it is popped or
    /// cancelled; its length is the number of sequences handed out. A heap
    /// entry whose flag is clear is a tombstone. One byte per event ever
    /// scheduled buys a [`cancel`](Self::cancel) that is an indexed store
    /// instead of an O(heap) scan or two hash-set updates (the module
    /// header has the measured size, and why it is not a ring).
    pending: Vec<bool>,
    /// Number of set flags in `pending`.
    live: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules an event at `time_secs` and returns its sequence number
    /// (the handle for [`cancel`](Self::cancel)).
    ///
    /// # Panics
    ///
    /// Panics if `time_secs` is not finite — a non-finite timestamp would
    /// poison the pop order (a `NaN` has no place in a total event order,
    /// and an infinite completion time means a zero bandwidth share, which
    /// the session core rules out before scheduling).
    pub fn push(&mut self, time_secs: f64, kind: EventKind) -> u64 {
        assert_finite_time(time_secs, kind);
        let seq = self.pending.len() as u64;
        self.pending.push(true);
        self.live += 1;
        self.heap.push(HeapEntry(Event {
            time_secs,
            seq,
            kind,
        }));
        seq
    }

    /// Cancels a previously scheduled event by its sequence number.
    ///
    /// Returns `true` if the event was still pending (it will now never be
    /// popped) and `false` if it had already been popped, cancelled, or was
    /// never scheduled.
    pub fn cancel(&mut self, seq: u64) -> bool {
        // An already-popped, already-cancelled or never-scheduled seq has
        // no set flag: reporting that cancellation as successful would be
        // a lie.
        match self.pending.get_mut(seq as usize) {
            Some(flag) if *flag => {
                *flag = false;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Pops the next pending event in `(time, seq)` order, discarding
    /// cancelled entries.
    pub fn pop(&mut self) -> Option<Event> {
        while let Some(HeapEntry(event)) = self.heap.pop() {
            if std::mem::take(&mut self.pending[event.seq as usize]) {
                self.live -= 1;
                return Some(event);
            }
        }
        None
    }

    /// The timestamp of the next pending (non-cancelled) event.
    pub fn peek_time(&mut self) -> Option<f64> {
        // Drain cancelled entries off the top so the peek is accurate.
        while let Some(HeapEntry(event)) = self.heap.peek() {
            if self.pending[event.seq as usize] {
                return Some(event.time_secs);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` when no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of sequence numbers handed out so far.
    pub fn scheduled(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Entries physically in the heap: pending events plus the tombstones
    /// of cancelled ones that have not surfaced yet.
    pub(crate) fn heap_len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, EventKind::Arrival(0));
        q.push(1.0, EventKind::Arrival(1));
        q.push(2.0, EventKind::Arrival(2));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Arrival(s) => s,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 0]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_timestamps_pop_in_sequence_order_regardless_of_push_order() {
        // Interleave several distinct timestamps so the tied entries enter
        // the heap at different depths; the pop order of the tied group
        // must still be exactly their push order.
        let mut q = EventQueue::new();
        let mut tied_seqs = Vec::new();
        for i in 0..8u32 {
            tied_seqs.push(q.push(10.0, EventKind::Arrival(i)));
            q.push(10.0 + f64::from(i + 1), EventKind::PlaybackEnd(i));
            q.push(
                10.0 - f64::from(i + 1) * 0.5,
                EventKind::TransferComplete(i),
            );
        }
        let mut popped = Vec::new();
        while let Some(event) = q.pop() {
            if event.time_secs == 10.0 {
                popped.push(event.seq);
            }
        }
        assert_eq!(popped, tied_seqs, "tied events must pop in push order");
    }

    #[test]
    fn sequence_numbers_are_monotonic_and_reported() {
        let mut q = EventQueue::new();
        let a = q.push(1.0, EventKind::Arrival(0));
        let b = q.push(0.5, EventKind::Arrival(1));
        assert!(b > a);
        assert_eq!(q.scheduled(), 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn cancel_hides_event_from_pop() {
        let mut q = EventQueue::new();
        let keep = q.push(1.0, EventKind::Arrival(0));
        let drop_ = q.push(0.5, EventKind::TransferComplete(0));
        assert!(q.cancel(drop_));
        assert_eq!(q.len(), 1);
        let event = q.pop().unwrap();
        assert_eq!(event.seq, keep);
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_then_reschedule_pops_only_the_replacement() {
        // The session core's re-division pattern: a completion event is
        // cancelled and re-scheduled (possibly earlier, possibly later)
        // every time the share changes.
        let mut q = EventQueue::new();
        let first = q.push(10.0, EventKind::TransferComplete(7));
        assert!(q.cancel(first));
        let earlier = q.push(4.0, EventKind::TransferComplete(7));
        assert!(q.cancel(earlier));
        let final_ = q.push(6.0, EventKind::TransferComplete(7));
        q.push(5.0, EventKind::Arrival(1));

        let popped: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped.len(), 2);
        assert_eq!(popped[0].kind, EventKind::Arrival(1));
        assert_eq!(popped[1].seq, final_);
        assert_eq!(popped[1].time_secs, 6.0);
    }

    #[test]
    fn cancel_of_unknown_or_popped_or_cancelled_seq_is_false() {
        let mut q = EventQueue::new();
        let a = q.push(1.0, EventKind::Arrival(0));
        assert!(!q.cancel(999), "never-scheduled seq");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel");
        let b = q.push(2.0, EventKind::Arrival(1));
        assert_eq!(q.pop().unwrap().seq, b);
        assert!(!q.cancel(b), "already popped");
    }

    #[test]
    fn peek_time_skips_cancelled_entries() {
        let mut q = EventQueue::new();
        let head = q.push(1.0, EventKind::Arrival(0));
        q.push(3.0, EventKind::Arrival(1));
        assert_eq!(q.peek_time(), Some(1.0));
        assert!(q.cancel(head));
        assert_eq!(q.peek_time(), Some(3.0));
        q.pop();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn cancelled_entries_stay_in_the_heap_until_they_surface() {
        let mut q = EventQueue::new();
        let late = q.push(9.0, EventKind::TransferComplete(0));
        q.push(1.0, EventKind::Arrival(0));
        assert!(q.cancel(late));
        assert_eq!((q.len(), q.heap_len()), (1, 2));
        assert_eq!(q.pop().unwrap().kind, EventKind::Arrival(0));
        assert_eq!((q.len(), q.heap_len()), (0, 1));
        assert!(q.pop().is_none());
        assert_eq!(q.heap_len(), 0);
        assert_eq!(q.scheduled(), 2);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_times_are_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, EventKind::Arrival(0));
    }

    #[test]
    fn negative_zero_and_zero_tie_break_by_seq() {
        // total_cmp orders -0.0 < 0.0; both are "time zero" for the
        // simulation, and the seq tie-break keeps the pop order stable
        // either way. Pin the exact behaviour so it never drifts silently.
        let mut q = EventQueue::new();
        let plus = q.push(0.0, EventKind::Arrival(0));
        let minus = q.push(-0.0, EventKind::Arrival(1));
        assert_eq!(q.pop().unwrap().seq, minus);
        assert_eq!(q.pop().unwrap().seq, plus);
    }
}
