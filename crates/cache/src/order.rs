//! The engine's eviction order: the utility heap, or — for a policy whose
//! utility is the engine's access clock — a recency list.
//!
//! Under a clock utility the heap maintains what is simply arrival order:
//! every access carries a key larger than everything cached, and the only
//! keys that ever come back smaller are victims an aborted admission
//! re-inserts, newest first, below everything still present. A doubly-linked
//! list addressed by the same `u32` slot handles keeps that order with O(1)
//! pushes at either end and O(1) unlinking. [`RecencyList::insert`] does not
//! trust the policy's declaration: a key that belongs at neither end
//! panics. Clock values are distinct, so the list pops exactly the sequence
//! the heap would.

use crate::heap::UtilityHeap;

/// Link value of the list's two ends.
const NIL: u32 = u32::MAX;
/// `next` of a handle that is not in the list.
const UNLINKED: u32 = u32::MAX - 1;

#[derive(Debug, Clone, Copy)]
struct Node {
    prev: u32,
    next: u32,
    utility: f64,
}

const VACANT: Node = Node {
    prev: NIL,
    next: UNLINKED,
    utility: 0.0,
};

/// Handles in ascending utility order, oldest at the head, with the subset
/// of [`UtilityHeap`]'s operations the engine uses. Nodes live in one `Vec`
/// indexed by handle; no operation allocates once the handles are reserved.
#[derive(Debug, Clone)]
pub(crate) struct RecencyList {
    nodes: Vec<Node>,
    head: u32,
    tail: u32,
    len: usize,
}

impl RecencyList {
    fn new() -> Self {
        RecencyList {
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    fn reserve_handles(&mut self, n: usize) {
        if self.nodes.len() < n {
            self.nodes.resize(n, VACANT);
        }
    }

    #[inline]
    fn contains(&self, handle: u32) -> bool {
        self.nodes
            .get(handle as usize)
            .is_some_and(|node| node.next != UNLINKED)
    }

    #[inline]
    fn peek_min(&self) -> Option<(u32, f64)> {
        (self.head != NIL).then(|| (self.head, self.nodes[self.head as usize].utility))
    }

    /// Links `handle` at the end its key belongs to, unlinking it first if
    /// present.
    ///
    /// # Panics
    ///
    /// Panics if `utility` is NaN, or neither above the newest nor below the
    /// oldest entry: the policy's utility is not the access clock it
    /// declared, and the list would silently evict in the wrong order.
    fn insert(&mut self, handle: u32, utility: f64) {
        assert!(!utility.is_nan(), "utility must not be NaN");
        assert!(handle < UNLINKED, "handle {handle} is a link sentinel");
        self.reserve_handles(handle as usize + 1);
        self.remove(handle);
        let (prev, next) = if self.tail == NIL || utility > self.nodes[self.tail as usize].utility {
            (self.tail, NIL)
        } else {
            let oldest = self.nodes[self.head as usize].utility;
            assert!(
                utility < oldest,
                "recency list: key {utility} of handle {handle} is neither above the newest \
                 entry nor below the oldest ({oldest}); a policy that declares \
                 utility_is_access_clock must return the clock argument"
            );
            (NIL, self.head)
        };
        self.nodes[handle as usize] = Node {
            prev,
            next,
            utility,
        };
        match prev {
            NIL => self.head = handle,
            p => self.nodes[p as usize].next = handle,
        }
        match next {
            NIL => self.tail = handle,
            n => self.nodes[n as usize].prev = handle,
        }
        self.len += 1;
    }

    fn remove(&mut self, handle: u32) -> Option<f64> {
        if !self.contains(handle) {
            return None;
        }
        let Node {
            prev,
            next,
            utility,
        } = std::mem::replace(&mut self.nodes[handle as usize], VACANT);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
        self.len -= 1;
        Some(utility)
    }

    #[inline]
    fn pop_min(&mut self) -> Option<(u32, f64)> {
        let head = self.head;
        self.remove(head).map(|utility| (head, utility))
    }

    fn clear(&mut self) {
        while self.pop_min().is_some() {}
    }

    /// Entries from oldest to newest.
    fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let node = self.nodes[at as usize];
            let item = (at, node.utility);
            at = node.next;
            Some(item)
        })
    }
}

/// What [`CacheEngine`](crate::CacheEngine) keeps its cached slots in,
/// chosen once from
/// [`UtilityPolicy::utility_is_access_clock`](crate::policy::UtilityPolicy::utility_is_access_clock).
#[derive(Debug, Clone)]
pub(crate) enum EvictionOrder {
    Heap(UtilityHeap),
    Recency(RecencyList),
}

/// Forwards a call to whichever structure is held.
macro_rules! either {
    ($self:expr, $order:ident => $call:expr) => {
        match $self {
            EvictionOrder::Heap($order) => $call,
            EvictionOrder::Recency($order) => $call,
        }
    };
}

impl EvictionOrder {
    pub(crate) fn new(utility_is_access_clock: bool) -> Self {
        if utility_is_access_clock {
            EvictionOrder::Recency(RecencyList::new())
        } else {
            EvictionOrder::Heap(UtilityHeap::new())
        }
    }

    pub(crate) fn reserve_handles(&mut self, n: usize) {
        either!(self, order => order.reserve_handles(n))
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            EvictionOrder::Heap(heap) => heap.len(),
            EvictionOrder::Recency(list) => list.len,
        }
    }

    #[inline]
    pub(crate) fn contains(&self, handle: u32) -> bool {
        either!(self, order => order.contains(handle))
    }

    /// Inserts `handle`, or re-keys it if present.
    #[inline]
    pub(crate) fn insert(&mut self, handle: u32, utility: f64) {
        either!(self, order => order.insert(handle, utility))
    }

    /// Re-keys `handle` if it is present; returns whether it was.
    #[inline]
    pub(crate) fn update(&mut self, handle: u32, utility: f64) -> bool {
        let present = self.contains(handle);
        if present {
            match self {
                EvictionOrder::Heap(heap) => heap.update(handle, utility),
                EvictionOrder::Recency(list) => list.insert(handle, utility),
            }
        }
        present
    }

    #[inline]
    pub(crate) fn remove(&mut self, handle: u32) -> Option<f64> {
        either!(self, order => order.remove(handle))
    }

    #[inline]
    pub(crate) fn peek_min(&self) -> Option<(u32, f64)> {
        either!(self, order => order.peek_min())
    }

    #[inline]
    pub(crate) fn pop_min(&mut self) -> Option<(u32, f64)> {
        either!(self, order => order.pop_min())
    }

    pub(crate) fn clear(&mut self) {
        either!(self, order => order.clear())
    }

    /// Every entry, in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        let (heap, list) = match self {
            EvictionOrder::Heap(heap) => (Some(heap), None),
            EvictionOrder::Recency(list) => (None, Some(list)),
        };
        let heap = heap.into_iter().flat_map(UtilityHeap::iter);
        heap.chain(list.into_iter().flat_map(RecencyList::iter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies one clock-like operation sequence to the list and to a
    /// `UtilityHeap`, comparing `peek_min`, `len` and membership as it goes.
    struct Pair {
        list: RecencyList,
        heap: UtilityHeap,
        clock: f64,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                list: RecencyList::new(),
                heap: UtilityHeap::new(),
                clock: 0.0,
            }
        }

        fn touch(&mut self, handle: u32) {
            self.clock += 1.0;
            self.list.insert(handle, self.clock);
            self.heap.insert(handle, self.clock);
            self.check();
        }

        fn remove(&mut self, handle: u32) {
            assert_eq!(self.list.remove(handle), self.heap.remove(handle));
            self.check();
        }

        fn pop(&mut self) -> Option<(u32, f64)> {
            let popped = self.list.pop_min();
            assert_eq!(popped, self.heap.pop_min());
            self.check();
            popped
        }

        fn reinsert(&mut self, (handle, utility): (u32, f64)) {
            self.list.insert(handle, utility);
            self.heap.insert(handle, utility);
            self.check();
        }

        fn check(&self) {
            assert_eq!(self.list.peek_min(), self.heap.peek_min());
            assert_eq!(self.list.len, self.heap.len());
            assert_eq!(self.list.iter().count(), self.list.len);
            assert!(self.list.iter().all(|(h, _)| self.heap.contains(h)));
            assert!(self
                .list
                .iter()
                .zip(self.list.iter().skip(1))
                .all(|(a, b)| a.1 < b.1));
        }
    }

    #[test]
    fn list_pops_what_the_heap_pops_on_clock_sequences() {
        let mut pair = Pair::new();
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..2_000 {
            let handle = (next() % 40) as u32;
            match next() % 8 {
                // Accesses: new handles and re-touches of present ones.
                0..=4 => pair.touch(handle),
                // Middle removal (the engine taking an object out to re-admit it).
                5 => pair.remove(handle),
                6 => {
                    pair.pop();
                }
                // An aborted admission: drain some or all, restore in reverse.
                _ => {
                    let take = if round % 3 == 0 { usize::MAX } else { 3 };
                    let mut popped = Vec::new();
                    while popped.len() < take {
                        match pair.pop() {
                            Some(entry) => popped.push(entry),
                            None => break,
                        }
                    }
                    for &entry in popped.iter().rev() {
                        pair.reinsert(entry);
                    }
                }
            }
        }
        // Drain: the full pop order agrees.
        while pair.pop().is_some() {}
        assert_eq!(pair.list.len, 0);
        assert_eq!((pair.list.head, pair.list.tail), (NIL, NIL));
    }

    #[test]
    fn clear_unlinks_everything_and_the_list_stays_usable() {
        let mut list = RecencyList::new();
        list.reserve_handles(8);
        for h in 0..8 {
            list.insert(h, f64::from(h) + 1.0);
        }
        list.clear();
        assert_eq!(list.len, 0);
        assert!((0..8).all(|h| !list.contains(h)));
        assert_eq!(list.peek_min(), None);
        list.insert(3, 1.0);
        assert_eq!(list.pop_min(), Some((3, 1.0)));
        assert!(!list.contains(1_000), "beyond the reserved handles");
    }

    #[test]
    #[should_panic(expected = "neither above the newest")]
    fn a_key_between_the_ends_panics() {
        let mut list = RecencyList::new();
        list.insert(0, 1.0);
        list.insert(1, 3.0);
        list.insert(2, 2.0);
    }

    #[test]
    #[should_panic(expected = "neither above the newest")]
    fn a_key_equal_to_the_newest_panics() {
        let mut list = RecencyList::new();
        list.insert(0, 1.0);
        list.insert(1, 1.0);
    }

    #[test]
    #[should_panic(expected = "neither above the newest")]
    fn rekeying_a_present_handle_into_the_middle_panics() {
        let mut list = RecencyList::new();
        list.insert(0, 1.0);
        list.insert(1, 2.0);
        list.insert(2, 3.0);
        list.insert(2, 1.5);
    }

    #[test]
    fn order_iterates_either_structure() {
        for clock in [false, true] {
            let mut order = EvictionOrder::new(clock);
            order.reserve_handles(4);
            order.insert(2, 1.0);
            order.insert(0, 2.0);
            order.insert(2, 3.0);
            let mut seen: Vec<_> = order.iter().collect();
            seen.sort_by_key(|&(handle, _)| handle);
            assert_eq!(seen, vec![(0, 2.0), (2, 3.0)]);
            assert_eq!(order.len(), 2);
            assert_eq!(order.pop_min(), Some((0, 2.0)));
            order.clear();
            assert_eq!((order.len(), order.peek_min()), (0, None));
        }
    }
}
