//! An updatable min-heap keyed by utility.
//!
//! Section 2.4 of the paper notes that the replacement algorithm "can be
//! implemented with a priority queue (heap) which uses the utility value as
//! the key" with `O(log n)` per operation. This module provides that heap,
//! addressed by **dense `u32` slot handles** rather than hashed object
//! keys: the position of every handle is maintained in a flat `Vec`
//! write-back table, so every operation — insert, update, remove, pop —
//! touches only contiguous memory and performs no hashing. The
//! [`CacheEngine`](crate::CacheEngine) allocates the handles (one per
//! object slot) and owns the handle→key mapping.
//!
//! Determinism note: the heap's structure (and therefore which of several
//! equal-utility entries pops first) is a pure function of the operation
//! sequence — there is no hash-order or address-order dependence — which is
//! what lets the simulator's golden-metrics tests pin results bit-for-bit.
//!
//! The sifts move a *hole* rather than swapping: the travelling entry is
//! loaded once, each level pulls one neighbour into the hole (one entry
//! write and one position write, not two of each), and the entry lands with
//! a single write where the hole stops. The comparisons are the ones a
//! swap-based sift makes — smaller child first, the left one on a tie, stop
//! unless strictly smaller — so the array after every operation is the one
//! swapping would produce. `tests/eviction_order.rs` keeps the swap version
//! as a reference and compares layouts under heavy ties.

/// Sentinel position meaning "handle not present".
const ABSENT: u32 = u32::MAX;

/// A binary min-heap of `(slot handle, utility)` pairs with `O(log n)`
/// insert / remove / update / pop and `O(1)` minimum lookup and membership
/// tests.
///
/// Handles are expected to be small dense integers (the engine's slot
/// indices): the position table is a `Vec` indexed by handle and grows to
/// the largest handle ever inserted.
///
/// ```
/// use sc_cache::UtilityHeap;
///
/// let mut heap = UtilityHeap::new();
/// heap.insert(1, 5.0);
/// heap.insert(2, 1.0);
/// heap.insert(3, 3.0);
/// assert_eq!(heap.peek_min(), Some((2, 1.0)));
/// heap.update(2, 10.0);
/// assert_eq!(heap.peek_min(), Some((3, 3.0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct UtilityHeap {
    /// Heap-ordered `(handle, utility)` entries.
    entries: Vec<(u32, f64)>,
    /// Position of every handle inside `entries` (`ABSENT` when missing),
    /// indexed by handle.
    positions: Vec<u32>,
}

impl UtilityHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        UtilityHeap {
            entries: Vec::new(),
            positions: Vec::new(),
        }
    }

    /// Creates an empty heap with pre-allocated capacity for `capacity`
    /// entries and handles `0..capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        UtilityHeap {
            entries: Vec::with_capacity(capacity),
            positions: vec![ABSENT; capacity],
        }
    }

    /// Grows the position table to cover handles `0..n` without inserting
    /// anything. The entries are not reserved: they grow with the set of
    /// handles actually inserted, so a heap stops allocating once that set
    /// stops growing.
    pub fn reserve_handles(&mut self, n: usize) {
        if self.positions.len() < n {
            self.positions.resize(n, ABSENT);
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the heap holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    #[inline]
    fn position(&self, handle: u32) -> Option<usize> {
        match self.positions.get(handle as usize) {
            Some(&pos) if pos != ABSENT => Some(pos as usize),
            _ => None,
        }
    }

    /// Returns `true` if `handle` is present.
    #[inline]
    pub fn contains(&self, handle: u32) -> bool {
        self.position(handle).is_some()
    }

    /// Returns the utility of `handle`, if present.
    #[inline]
    pub fn utility(&self, handle: u32) -> Option<f64> {
        self.position(handle).map(|i| self.entries[i].1)
    }

    /// The minimum-utility entry without removing it.
    #[inline]
    pub fn peek_min(&self) -> Option<(u32, f64)> {
        self.entries.first().copied()
    }

    /// Inserts a new entry or updates the utility of an existing one.
    ///
    /// # Panics
    ///
    /// Panics if `utility` is NaN.
    pub fn insert(&mut self, handle: u32, utility: f64) {
        assert!(!utility.is_nan(), "utility must not be NaN");
        if self.positions.len() <= handle as usize {
            self.positions.resize(handle as usize + 1, ABSENT);
        }
        if self.positions[handle as usize] != ABSENT {
            self.update(handle, utility);
            return;
        }
        self.entries.push((handle, utility));
        self.sift_up(self.entries.len() - 1, (handle, utility));
    }

    /// Updates the utility of an existing entry; inserts it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `utility` is NaN.
    #[inline]
    pub fn update(&mut self, handle: u32, utility: f64) {
        assert!(!utility.is_nan(), "utility must not be NaN");
        match self.position(handle) {
            None => self.insert(handle, utility),
            Some(idx) => {
                if utility < self.entries[idx].1 {
                    self.sift_up(idx, (handle, utility));
                } else {
                    self.sift_down(idx, (handle, utility));
                }
            }
        }
    }

    /// Removes and returns the minimum-utility entry with a single
    /// root-to-leaf sift.
    pub fn pop_min(&mut self) -> Option<(u32, f64)> {
        let min = *self.entries.first()?;
        let last = self.entries.pop()?;
        self.positions[min.0 as usize] = ABSENT;
        if !self.entries.is_empty() {
            self.sift_down(0, last);
        }
        Some(min)
    }

    /// Removes an arbitrary entry. Returns its utility if it was present.
    pub fn remove(&mut self, handle: u32) -> Option<f64> {
        let idx = self.position(handle)?;
        let removed_utility = self.entries[idx].1;
        let last = self.entries.pop()?;
        self.positions[handle as usize] = ABSENT;
        if idx < self.entries.len() {
            self.sift_down(idx, last);
            self.sift_up(idx, self.entries[idx]);
        }
        Some(removed_utility)
    }

    /// Removes every entry, keeping the allocated capacity and the size of
    /// the handle table.
    pub fn clear(&mut self) {
        for &(handle, _) in &self.entries {
            self.positions[handle as usize] = ABSENT;
        }
        self.entries.clear();
    }

    /// Iterates over all entries in unspecified (heap) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Places `moving` at `hole` or nearer the root: parents larger than it
    /// are pulled down into the hole, the entry and its position are written
    /// once where the hole stops. Whatever `entries[hole]` held is
    /// overwritten.
    fn sift_up(&mut self, mut hole: usize, moving: (u32, f64)) {
        let entries = self.entries.as_mut_slice();
        while hole > 0 {
            let parent = (hole - 1) / 2;
            let pulled = entries[parent];
            if moving.1 < pulled.1 {
                entries[hole] = pulled;
                self.positions[pulled.0 as usize] = hole as u32;
                hole = parent;
            } else {
                break;
            }
        }
        entries[hole] = moving;
        self.positions[moving.0 as usize] = hole as u32;
    }

    /// Places `moving` at `hole` or nearer the leaves: the smaller child
    /// (the left one on a tie) is pulled up while it is smaller than the
    /// entry. Whatever `entries[hole]` held is overwritten.
    fn sift_down(&mut self, mut hole: usize, moving: (u32, f64)) {
        let entries = self.entries.as_mut_slice();
        let len = entries.len();
        loop {
            let left = 2 * hole + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child = if right < len && entries[right].1 < entries[left].1 {
                right
            } else {
                left
            };
            let pulled = entries[child];
            if pulled.1 < moving.1 {
                entries[hole] = pulled;
                self.positions[pulled.0 as usize] = hole as u32;
                hole = child;
            } else {
                break;
            }
        }
        entries[hole] = moving;
        self.positions[moving.0 as usize] = hole as u32;
    }

    /// Checks the internal heap invariant (every parent's utility is at most
    /// its children's) and the consistency of the handle→position table.
    ///
    /// Always true for a correctly behaving heap; exposed so invariant and
    /// property tests can verify the structure after arbitrary operation
    /// sequences.
    pub fn validate(&self) -> bool {
        for i in 1..self.entries.len() {
            let parent = (i - 1) / 2;
            if self.entries[parent].1 > self.entries[i].1 {
                return false;
            }
        }
        let present = self.positions.iter().filter(|&&pos| pos != ABSENT).count();
        present == self.entries.len()
            && self
                .entries
                .iter()
                .enumerate()
                .all(|(i, &(handle, _))| self.positions.get(handle as usize) == Some(&(i as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_pop_in_order() {
        let mut h = UtilityHeap::new();
        for (i, u) in [5.0, 1.0, 4.0, 2.0, 3.0].iter().enumerate() {
            h.insert(i as u32, *u);
        }
        assert_eq!(h.len(), 5);
        assert!(h.validate());
        let mut popped = Vec::new();
        while let Some((_, u)) = h.pop_min() {
            popped.push(u);
        }
        assert_eq!(popped, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!(h.is_empty());
    }

    #[test]
    fn update_moves_entries() {
        let mut h = UtilityHeap::new();
        h.insert(1, 1.0);
        h.insert(2, 2.0);
        h.insert(3, 3.0);
        h.update(1, 10.0);
        assert_eq!(h.peek_min().unwrap().0, 2);
        h.update(3, 0.5);
        assert_eq!(h.peek_min().unwrap().0, 3);
        assert!(h.validate());
        assert_eq!(h.utility(1), Some(10.0));
    }

    #[test]
    fn insert_existing_handle_updates() {
        let mut h = UtilityHeap::new();
        h.insert(1, 5.0);
        h.insert(1, 2.0);
        assert_eq!(h.len(), 1);
        assert_eq!(h.utility(1), Some(2.0));
    }

    #[test]
    fn update_missing_handle_inserts() {
        let mut h = UtilityHeap::new();
        h.update(7, 1.5);
        assert!(h.contains(7));
        assert!(!h.contains(6));
        assert_eq!(h.utility(6), None);
    }

    #[test]
    fn remove_arbitrary_entries() {
        let mut h = UtilityHeap::new();
        for i in 0..20 {
            h.insert(i, (20 - i) as f64);
        }
        assert_eq!(h.remove(5), Some(15.0));
        assert_eq!(h.remove(5), None);
        assert_eq!(h.len(), 19);
        assert!(h.validate());
        assert!(!h.contains(5));
        // Remaining entries still pop in sorted order.
        let mut prev = f64::NEG_INFINITY;
        while let Some((_, u)) = h.pop_min() {
            assert!(u >= prev);
            prev = u;
        }
    }

    #[test]
    fn remove_last_and_empty_pop() {
        let mut h = UtilityHeap::new();
        assert_eq!(h.pop_min(), None);
        h.insert(1, 1.0);
        assert_eq!(h.remove(1), Some(1.0));
        assert!(h.is_empty());
        assert!(h.validate());
    }

    #[test]
    fn clear_keeps_handle_table_consistent() {
        let mut h = UtilityHeap::with_capacity(8);
        for i in 0..8 {
            h.insert(i, i as f64);
        }
        h.clear();
        assert!(h.is_empty());
        assert!(h.validate());
        assert!(!h.contains(3));
        h.insert(3, 1.0);
        assert_eq!(h.peek_min(), Some((3, 1.0)));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_utility_panics() {
        let mut h = UtilityHeap::new();
        h.insert(1, f64::NAN);
    }

    #[test]
    fn iter_with_capacity_and_sparse_handles() {
        let mut h = UtilityHeap::with_capacity(4);
        h.insert(1, 1.0);
        // A handle far beyond the reserved range grows the table safely.
        h.insert(1_000_000, 2.0);
        let mut items: Vec<_> = h.iter().collect();
        items.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        assert_eq!(items, vec![(1, 1.0), (1_000_000, 2.0)]);
        assert!(h.validate());
    }

    #[test]
    fn reserve_handles_is_idempotent() {
        let mut h = UtilityHeap::new();
        h.reserve_handles(100);
        h.reserve_handles(10);
        h.insert(99, 1.0);
        assert!(h.contains(99));
        assert!(h.validate());
    }

    #[test]
    fn randomised_operations_keep_invariant() {
        // Deterministic pseudo-random sequence without external crates.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut h = UtilityHeap::new();
        for _ in 0..2_000 {
            let handle = (next() % 100) as u32;
            match next() % 3 {
                0 => h.insert(handle, (next() % 1_000) as f64),
                1 => h.update(handle, (next() % 1_000) as f64),
                _ => {
                    h.remove(handle);
                }
            }
            debug_assert!(h.validate());
        }
        assert!(h.validate());
    }
}
