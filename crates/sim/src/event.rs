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
//! processor-sharing re-division. That event is *keyed* by its path:
//! [`EventQueue::push_keyed`] re-schedules a key's pending event in place,
//! moving its heap entry up or down to the new `(time, sequence)` with the
//! sequence number drawn from the same counter as every other push, so the
//! pop order is exactly the one cancelling the old event and pushing a new
//! one would give. Its playback ends are walked from a sorted array; each
//! only takes its sequence number from the queue's counter when its
//! session arrives, so it keeps its place in the `(time, sequence)` order
//! without entering the heap.
//!
//! Every heap entry is a pending event: popping removes it, re-keying
//! moves it, and [`EventQueue::cancel`] — which the session core never
//! calls — finds it by a scan and takes it out at once.

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

/// The key of a plain (unkeyed) heap entry.
const PLAIN: u32 = u32::MAX;

/// A key's slot while it has no entry in the heap.
const ABSENT: u32 = u32::MAX;

/// One heap entry: an event, with its `(time, seq)` held as one integer,
/// and the key it is the pending event of ([`PLAIN`] for a plain push).
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    /// The time's bits mapped so that their unsigned order is
    /// `f64::total_cmp`'s, above the sequence number: the entries pop in
    /// increasing `order`, which is the `(time, seq)` order, and one
    /// integer comparison decides it without a branch.
    order: u128,
    kind: EventKind,
    key: u32,
}

/// The sign bit of an `f64`, and the top bit of a mapped time.
const SIGN: u64 = 1 << 63;

impl HeapEntry {
    fn new(event: Event, key: u32) -> Self {
        let bits = event.time_secs.to_bits();
        // Non-negative times above negative ones; a negative time's
        // magnitude reversed.
        let time = if bits & SIGN == 0 { bits | SIGN } else { !bits };
        HeapEntry {
            order: u128::from(time) << 64 | u128::from(event.seq),
            kind: event.kind,
            key,
        }
    }

    fn event(&self) -> Event {
        let time = (self.order >> 64) as u64;
        let bits = if time & SIGN != 0 {
            time & !SIGN
        } else {
            !time
        };
        Event {
            time_secs: f64::from_bits(bits),
            seq: self.order as u64,
            kind: self.kind,
        }
    }

    /// Whether `self` pops before `other`.
    #[inline]
    fn precedes(&self, other: &HeapEntry) -> bool {
        self.order < other.order
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
/// and keyed events re-scheduled in place.
///
/// ```
/// use sc_sim::event::{EventKind, EventQueue};
///
/// let mut queue = EventQueue::new();
/// let _late = queue.push(5.0, EventKind::Arrival(0));
/// let early = queue.push(1.0, EventKind::Arrival(1));
/// let tied = queue.push(5.0, EventKind::PlaybackEnd(1));
/// queue.cancel(early);
/// // Key 3 holds one pending event; the second push replaces the first.
/// queue.push_keyed(3, 2.0, EventKind::TransferComplete(4));
/// let (moved, replaced) = queue.push_keyed(3, 6.0, EventKind::TransferComplete(5));
/// assert!(replaced);
/// // The cancelled event is never observed; equal times pop in push order.
/// assert_eq!(queue.pop().unwrap().kind, EventKind::Arrival(0));
/// assert_eq!(queue.pop().unwrap().seq, tied);
/// assert_eq!(queue.pop().unwrap().seq, moved);
/// assert!(queue.pop().is_none());
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    /// The binary min-heap over `(time, seq)`, root at index 0; every
    /// entry is a pending event.
    heap: Vec<HeapEntry>,
    /// `slots[key]` is the heap index of `key`'s entry, or [`ABSENT`];
    /// grown on demand to the largest key pushed.
    slots: Vec<u32>,
    /// The next sequence number, and so the count handed out.
    next_seq: u64,
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
        let event = self.next_event(time_secs, kind);
        let entry = HeapEntry::new(event, PLAIN);
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1, entry);
        event.seq
    }

    /// Schedules an event at `time_secs` as the one pending event of
    /// `key`, replacing the key's pending event if it has one.
    ///
    /// The event takes the next sequence number, as [`push`](Self::push)
    /// would give it, and the pop order is exactly that of cancelling the
    /// replaced event and pushing this one; but the replaced event's heap
    /// entry is re-keyed in place. Returns the new sequence number and
    /// whether a pending event was replaced. A key's event that has popped
    /// (or was cancelled) is not pending: the next `push_keyed` of that key
    /// schedules afresh.
    ///
    /// # Panics
    ///
    /// As [`push`](Self::push); also panics if `key` is `u32::MAX`.
    pub fn push_keyed(&mut self, key: u32, time_secs: f64, kind: EventKind) -> (u64, bool) {
        assert_ne!(key, PLAIN, "u32::MAX is not a valid event key");
        let event = self.next_event(time_secs, kind);
        let entry = HeapEntry::new(event, key);
        let slot = key as usize;
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, ABSENT);
        }
        match self.slots[slot] {
            ABSENT => {
                self.heap.push(entry);
                self.sift_up(self.heap.len() - 1, entry);
                (event.seq, false)
            }
            pos => {
                self.resift(pos as usize, entry);
                (event.seq, true)
            }
        }
    }

    /// Cancels a previously scheduled event by its sequence number.
    ///
    /// Returns `true` if the event was still pending (it will now never be
    /// popped) and `false` if it had already been popped, cancelled,
    /// replaced, or was never scheduled. O(n) in the pending events: the
    /// entry is found by a scan of the heap. The session core never
    /// cancels; it re-keys with [`push_keyed`](Self::push_keyed).
    pub fn cancel(&mut self, seq: u64) -> bool {
        let Some(pos) = self.heap.iter().position(|e| e.order as u64 == seq) else {
            return false;
        };
        let gone = self.heap.swap_remove(pos);
        if let Some(&moved) = self.heap.get(pos) {
            self.resift(pos, moved);
        }
        if gone.key != PLAIN {
            self.slots[gone.key as usize] = ABSENT;
        }
        true
    }

    /// Pops the next pending event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<Event> {
        let last = self.heap.pop()?;
        let top = match self.heap.first() {
            Some(&top) => {
                // The hole left at the root sinks along the smaller
                // children to the bottom, and the old last entry rises
                // from there: it came from the bottom, so it rarely
                // climbs far, and the sinking needs one comparison per
                // level instead of two.
                let bottom = self.sink_hole(0);
                self.sift_up(bottom, last);
                top
            }
            None => last,
        };
        if top.key != PLAIN {
            self.slots[top.key as usize] = ABSENT;
        }
        Some(top.event())
    }

    /// The next pending event, left in the queue.
    pub(crate) fn peek(&self) -> Option<Event> {
        self.heap.first().map(HeapEntry::event)
    }

    /// Takes the next sequence number, as [`push`](Self::push) would,
    /// without scheduling anything: for an event its caller keeps outside
    /// the heap and orders against it by `(time, sequence)`. The number
    /// counts in [`scheduled`](Self::scheduled) and is never pending.
    pub(crate) fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no pending events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of sequence numbers handed out so far.
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// The event a push schedules: its time checked and the next sequence
    /// number taken.
    fn next_event(&mut self, time_secs: f64, kind: EventKind) -> Event {
        assert_finite_time(time_secs, kind);
        Event {
            time_secs,
            seq: self.reserve_seq(),
            kind,
        }
    }

    /// Places `entry` at `pos`, which held another entry, moving it up or
    /// down to where it belongs.
    fn resift(&mut self, pos: usize, entry: HeapEntry) {
        if pos > 0 && entry.precedes(&self.heap[(pos - 1) / 2]) {
            self.sift_up(pos, entry);
        } else {
            self.sift_down(pos, entry);
        }
    }

    /// Writes `entry` at `pos` and records the position of a keyed one.
    #[inline]
    fn place(&mut self, pos: usize, entry: HeapEntry) {
        if entry.key != PLAIN {
            self.slots[entry.key as usize] = pos as u32;
        }
        self.heap[pos] = entry;
    }

    /// Moves `entry`, to be placed at `pos`, up past every parent it
    /// precedes.
    fn sift_up(&mut self, mut pos: usize, entry: HeapEntry) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.heap[parent];
            if !entry.precedes(&above) {
                break;
            }
            self.place(pos, above);
            pos = parent;
        }
        self.place(pos, entry);
    }

    /// Moves `entry`, to be placed at `pos`, down past every child that
    /// precedes it.
    fn sift_down(&mut self, mut pos: usize, entry: HeapEntry) {
        let len = self.heap.len();
        loop {
            let mut child = 2 * pos + 1;
            if child >= len {
                break;
            }
            if child + 1 < len {
                child += usize::from(self.heap[child + 1].precedes(&self.heap[child]));
            }
            let below = self.heap[child];
            if !below.precedes(&entry) {
                break;
            }
            self.place(pos, below);
            pos = child;
        }
        self.place(pos, entry);
    }

    /// Moves the hole at `pos` down to a leaf, filling it from the
    /// smaller child at each level, and returns the leaf.
    fn sink_hole(&mut self, mut pos: usize) -> usize {
        let len = self.heap.len();
        let mut child = 2 * pos + 1;
        while child + 1 < len {
            child += usize::from(self.heap[child + 1].precedes(&self.heap[child]));
            self.place(pos, self.heap[child]);
            pos = child;
            child = 2 * pos + 1;
        }
        if child + 1 == len {
            self.place(pos, self.heap[child]);
            pos = child;
        }
        pos
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

    #[test]
    fn rekeying_earlier_and_later_pops_only_the_replacement() {
        let mut q = EventQueue::new();
        q.push(5.0, EventKind::Arrival(1));
        let (first, replaced) = q.push_keyed(7, 10.0, EventKind::TransferComplete(7));
        assert!(!replaced);
        let (earlier, replaced) = q.push_keyed(7, 4.0, EventKind::TransferComplete(8));
        assert!(replaced);
        let (later, replaced) = q.push_keyed(7, 6.0, EventKind::TransferComplete(9));
        assert!(replaced);
        assert!(first < earlier && earlier < later);
        assert_eq!((q.len(), q.scheduled()), (2, 4));
        assert!(
            !q.cancel(first) && !q.cancel(earlier),
            "replaced is not pending"
        );

        let popped: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped.len(), 2);
        assert_eq!(popped[0].kind, EventKind::Arrival(1));
        assert_eq!(
            popped[1],
            Event {
                time_secs: 6.0,
                seq: later,
                kind: EventKind::TransferComplete(9),
            }
        );
    }

    #[test]
    fn keyed_and_plain_events_at_equal_times_pop_in_sequence_order() {
        let mut q = EventQueue::new();
        let mut seqs = Vec::new();
        for i in 0..6u32 {
            seqs.push(q.push(3.0, EventKind::PlaybackEnd(i)));
            // Re-keyed from a later and from an earlier time onto the tie.
            q.push_keyed(i, 9.0 - f64::from(i), EventKind::TransferComplete(i));
            let (seq, _) = q.push_keyed(i, 3.0, EventKind::TransferComplete(i));
            seqs.push(seq);
            q.push(0.5 + f64::from(i), EventKind::Arrival(i));
        }
        let tied: Vec<u64> = std::iter::from_fn(|| q.pop())
            .filter(|e| e.time_secs == 3.0)
            .map(|e| e.seq)
            .collect();
        assert_eq!(tied, seqs);
    }

    #[test]
    fn rekeying_after_the_keyed_event_popped_inserts_a_fresh_one() {
        let mut q = EventQueue::new();
        let (first, _) = q.push_keyed(2, 1.0, EventKind::TransferComplete(0));
        assert_eq!(q.pop().unwrap().seq, first);
        assert!(q.is_empty());
        let (second, replaced) = q.push_keyed(2, 0.5, EventKind::TransferComplete(1));
        assert!(!replaced, "a popped event is not replaced");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().seq, second);
        assert!(q.pop().is_none());

        // A cancelled keyed event is not replaced either: the cancel took
        // its entry out, and the fresh one is inserted.
        let (third, _) = q.push_keyed(2, 4.0, EventKind::TransferComplete(2));
        assert!(q.cancel(third));
        assert!(q.is_empty());
        let (fourth, replaced) = q.push_keyed(2, 5.0, EventKind::TransferComplete(3));
        assert!(!replaced);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().seq, fourth);
    }

    #[test]
    fn cancelling_a_plain_event_is_unaffected_by_keyed_ones() {
        let mut q = EventQueue::new();
        let plain = q.push(2.0, EventKind::PlaybackEnd(0));
        q.push_keyed(0, 1.0, EventKind::TransferComplete(0));
        let (keyed, _) = q.push_keyed(0, 3.0, EventKind::TransferComplete(1));
        assert!(q.cancel(plain));
        assert!(!q.cancel(plain));
        assert_eq!(q.peek().map(|e| e.time_secs), Some(3.0));
        assert_eq!(q.pop().unwrap().seq, keyed);
        assert!(q.pop().is_none());
    }

    #[test]
    fn a_reserved_sequence_number_is_counted_but_never_pending() {
        let mut q = EventQueue::new();
        let first = q.push(2.0, EventKind::Arrival(0));
        let reserved = q.reserve_seq();
        let (keyed, _) = q.push_keyed(0, 2.0, EventKind::TransferComplete(0));
        assert_eq!((first, reserved, keyed), (0, 1, 2));
        assert_eq!((q.scheduled(), q.len()), (3, 2));
        assert_eq!(q.peek().map(|e| e.seq), Some(first));
        assert_eq!(q.pop().unwrap().seq, first);
        assert_eq!(q.pop().unwrap().seq, keyed);
        assert!(q.pop().is_none());
    }

    #[test]
    fn keyed_rescheduling_pops_exactly_as_cancel_and_push() {
        // A model check: the same script run with `push_keyed` and with
        // the cancel-then-push it replaces pops the same events.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut keyed = EventQueue::new();
        let mut plain = EventQueue::new();
        let mut pending: Vec<Option<u64>> = vec![None; 8];
        let mut clock = 0.0;
        for step in 0..20_000u32 {
            match next(4) {
                0 | 1 => {
                    let key = next(8) as u32;
                    // Coarse times, so ties are common.
                    let time = clock + next(16) as f64;
                    let kind = EventKind::TransferComplete(step);
                    let (seq, replaced) = keyed.push_keyed(key, time, kind);
                    let was = pending[key as usize].take();
                    assert_eq!(replaced, was.is_some_and(|old| plain.cancel(old)));
                    assert_eq!(plain.push(time, kind), seq);
                    pending[key as usize] = Some(seq);
                }
                2 => {
                    let time = clock + next(16) as f64;
                    assert_eq!(
                        keyed.push(time, EventKind::PlaybackEnd(step)),
                        plain.push(time, EventKind::PlaybackEnd(step))
                    );
                }
                _ => {
                    let event = keyed.pop();
                    assert_eq!(event, plain.pop());
                    if let Some(event) = event {
                        clock = event.time_secs;
                    }
                }
            }
            assert_eq!(keyed.len(), plain.len());
        }
        while let Some(event) = keyed.pop() {
            assert_eq!(Some(event), plain.pop());
        }
        assert!(plain.pop().is_none());
    }

    #[test]
    fn eager_cancel_matches_a_naive_reference() {
        // The reference keeps every pending event in a flat list, pops by
        // a linear `(time, seq)` scan and cancels by removing from it.
        struct Pending {
            event: Event,
            key: Option<u32>,
        }
        fn earliest(reference: &[Pending]) -> Option<usize> {
            (0..reference.len()).min_by(|&a, &b| {
                let (a, b) = (&reference[a].event, &reference[b].event);
                a.time_secs.total_cmp(&b.time_secs).then(a.seq.cmp(&b.seq))
            })
        }
        /// The time's bits, so that `-0.0` and `0.0` are told apart.
        fn exact(event: Option<Event>) -> Option<(u64, u64, EventKind)> {
            event.map(|e| (e.time_secs.to_bits(), e.seq, e.kind))
        }
        #[derive(Clone, Copy, PartialEq)]
        enum Fate {
            Pending,
            Popped,
            Cancelled,
            Replaced,
            Reserved,
        }

        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        // Few distinct times, so ties are common, and both zeros.
        const TIMES: [f64; 6] = [-0.0, 0.0, 0.0, 1.0, 2.5, -1.0];
        const KEYS: u64 = 6;
        let mut q = EventQueue::new();
        let mut reference: Vec<Pending> = Vec::new();
        let mut fates: Vec<Fate> = Vec::new();
        let mut cancelled_key = [false; KEYS as usize];
        // How often each case the test must reach was reached.
        let mut fresh_after_cancel = 0;
        let mut cancels_by_fate = [0; 5];
        let mut never_issued = 0;
        let mut zero_ties = 0;
        for step in 0..40_000u32 {
            let time = TIMES[next(TIMES.len() as u64) as usize];
            match next(10) {
                0 | 1 => {
                    let kind = EventKind::Arrival(step);
                    let seq = q.push(time, kind);
                    assert_eq!(seq, fates.len() as u64);
                    let event = Event {
                        time_secs: time,
                        seq,
                        kind,
                    };
                    reference.push(Pending { event, key: None });
                    fates.push(Fate::Pending);
                }
                2..=4 => {
                    let key = next(KEYS) as u32;
                    let kind = EventKind::TransferComplete(step);
                    let (seq, replaced) = q.push_keyed(key, time, kind);
                    assert_eq!(seq, fates.len() as u64);
                    let old = reference.iter().position(|p| p.key == Some(key));
                    assert_eq!(replaced, old.is_some());
                    if let Some(old) = old {
                        fates[reference.remove(old).event.seq as usize] = Fate::Replaced;
                    } else if std::mem::take(&mut cancelled_key[key as usize]) {
                        fresh_after_cancel += 1;
                    }
                    let event = Event {
                        time_secs: time,
                        seq,
                        kind,
                    };
                    reference.push(Pending {
                        event,
                        key: Some(key),
                    });
                    fates.push(Fate::Pending);
                }
                5 => {
                    assert_eq!(q.reserve_seq(), fates.len() as u64);
                    fates.push(Fate::Reserved);
                }
                6 | 7 => {
                    // A pending event, any issued sequence number or one
                    // not issued yet.
                    let issued = fates.len() as u64;
                    let seq = match (next(4), reference.len() as u64) {
                        (0 | 1, live) if live > 0 => reference[next(live) as usize].event.seq,
                        (3, _) => issued + next(3),
                        _ => next(issued.max(1)),
                    };
                    let at = reference.iter().position(|p| p.event.seq == seq);
                    assert_eq!(q.cancel(seq), at.is_some(), "cancel({seq})");
                    match fates.get(seq as usize) {
                        None => never_issued += 1,
                        Some(&fate) => cancels_by_fate[fate as usize] += 1,
                    }
                    if let Some(at) = at {
                        let gone = reference.remove(at);
                        fates[seq as usize] = Fate::Cancelled;
                        if let Some(key) = gone.key {
                            cancelled_key[key as usize] = true;
                        }
                    }
                }
                _ => {
                    let expected = earliest(&reference).map(|at| reference.remove(at));
                    if let Some(pending) = &expected {
                        fates[pending.event.seq as usize] = Fate::Popped;
                        if let Some(after) = earliest(&reference) {
                            let (first, then) = (pending.event, reference[after].event);
                            if first.time_secs == 0.0
                                && then.time_secs == 0.0
                                && first.time_secs.to_bits() != then.time_secs.to_bits()
                            {
                                zero_ties += 1;
                            }
                        }
                    }
                    assert_eq!(exact(q.pop()), exact(expected.map(|p| p.event)));
                }
            }
            assert_eq!(q.len(), reference.len());
            assert_eq!(q.scheduled(), fates.len() as u64);
            let head = earliest(&reference).map(|at| reference[at].event);
            assert_eq!(exact(q.peek()), exact(head));
        }
        while let Some(pending) = earliest(&reference).map(|at| reference.remove(at)) {
            assert_eq!(exact(q.pop()), exact(Some(pending.event)));
        }
        assert!(q.pop().is_none());

        // Every case was reached many times over.
        assert!(fresh_after_cancel > 100, "{fresh_after_cancel}");
        assert!(never_issued > 20, "{never_issued}");
        assert!(zero_ties > 100, "{zero_ties}");
        for (fate, count) in ["pending", "popped", "cancelled", "replaced", "reserved"]
            .iter()
            .zip(cancels_by_fate)
        {
            assert!(count > 100, "cancels of a {fate} event: {count}");
        }
    }
}
