//! The engine's eviction order is an implementation detail with a visible
//! consequence: which of several equal-utility victims goes first. These
//! tests pin the two structures behind it to what they replaced.
//!
//! * [`UtilityHeap`]'s hole-based sifts must leave the array exactly as the
//!   swap-based sifts did ([`SwapHeap`] below is that code, kept as the
//!   reference) after every operation, ties included.
//! * An LRU engine (recency list) and the same policy with its
//!   `utility_is_access_clock` declaration hidden (heap) must agree bitwise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_cache::policy::{Lru, PolicyKind, UtilityPolicy};
use sc_cache::{CacheEngine, ObjectKey, ObjectMeta, UtilityHeap};

/// The heap as it was before the sifts moved a hole: every level swaps two
/// entries and rewrites both positions.
#[derive(Default)]
struct SwapHeap {
    entries: Vec<(u32, f64)>,
    positions: Vec<Option<usize>>,
}

impl SwapHeap {
    fn insert(&mut self, handle: u32, utility: f64) {
        if self.positions.len() <= handle as usize {
            self.positions.resize(handle as usize + 1, None);
        }
        match self.positions[handle as usize] {
            Some(idx) => {
                let old = std::mem::replace(&mut self.entries[idx].1, utility);
                if utility < old {
                    self.sift_up(idx);
                } else {
                    self.sift_down(idx);
                }
            }
            None => {
                self.entries.push((handle, utility));
                let idx = self.entries.len() - 1;
                self.positions[handle as usize] = Some(idx);
                self.sift_up(idx);
            }
        }
    }

    fn remove(&mut self, handle: u32) -> Option<f64> {
        let idx = (*self.positions.get(handle as usize)?)?;
        let last = self.entries.len() - 1;
        self.swap(idx, last);
        let (_, utility) = self.entries.pop()?;
        self.positions[handle as usize] = None;
        if idx < self.entries.len() {
            self.sift_down(idx);
            self.sift_up(idx);
        }
        Some(utility)
    }

    fn pop_min(&mut self) -> Option<(u32, f64)> {
        let min = *self.entries.first()?;
        self.remove(min.0);
        Some(min)
    }

    fn sift_up(&mut self, mut idx: usize) {
        while idx > 0 {
            let parent = (idx - 1) / 2;
            if self.entries[idx].1 < self.entries[parent].1 {
                self.swap(idx, parent);
                idx = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut idx: usize) {
        loop {
            let left = 2 * idx + 1;
            let right = 2 * idx + 2;
            let mut smallest = idx;
            if left < self.entries.len() && self.entries[left].1 < self.entries[smallest].1 {
                smallest = left;
            }
            if right < self.entries.len() && self.entries[right].1 < self.entries[smallest].1 {
                smallest = right;
            }
            if smallest == idx {
                break;
            }
            self.swap(idx, smallest);
            idx = smallest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.entries.swap(a, b);
        self.positions[self.entries[a].0 as usize] = Some(a);
        self.positions[self.entries[b].0 as usize] = Some(b);
    }
}

/// Replays `steps` seeded operations on both heaps, with utilities drawn by
/// `utility`, requiring the same array after each one.
fn replay_against_swap_heap(
    seed: u64,
    handles: u32,
    steps: usize,
    utility: fn(&mut StdRng) -> f64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut heap = UtilityHeap::new();
    let mut reference = SwapHeap::default();
    for step in 0..steps {
        let handle = rng.gen_range(0..handles);
        match rng.gen_range(0..6u32) {
            0 | 1 => {
                let u = utility(&mut rng);
                heap.insert(handle, u);
                reference.insert(handle, u);
            }
            2 | 3 => {
                let u = utility(&mut rng);
                heap.update(handle, u);
                reference.insert(handle, u);
            }
            4 => assert_eq!(heap.remove(handle), reference.remove(handle)),
            _ => assert_eq!(heap.pop_min(), reference.pop_min()),
        }
        assert!(
            heap.iter().eq(reference.entries.iter().copied()),
            "seed {seed:#x}: layouts differ after step {step}"
        );
        assert_eq!(heap.peek_min(), reference.entries.first().copied());
        assert!(heap.validate());
    }
}

#[test]
fn hole_sifts_reproduce_the_swap_layout_under_heavy_ties() {
    // Three utility levels over 64 handles: almost every comparison is a tie.
    let tied = |rng: &mut StdRng| f64::from(rng.gen_range(1..4u32));
    for seed in 0..8 {
        replay_against_swap_heap(0x71E5_0000 + seed, 64, 20_000, tied);
    }
    // A tiny heap keeps the root and last-entry edge cases hot.
    replay_against_swap_heap(0x71E5_1000, 3, 5_000, tied);
}

#[test]
fn hole_sifts_reproduce_the_swap_layout_with_spread_utilities() {
    let spread = |rng: &mut StdRng| rng.gen_range(0.0..1_000.0);
    for seed in 0..4 {
        replay_against_swap_heap(0x5EED_0000 + seed, 200, 20_000, spread);
    }
}

#[test]
fn only_lru_declares_a_clock_utility_and_the_box_forwards_it() {
    assert!(Lru::new().utility_is_access_clock());
    // Simulator and proxy build policies through `PolicyKind::build`: an
    // unforwarded default would silently put LRU back on the heap.
    assert!(PolicyKind::Lru.build().utility_is_access_clock());
    let others = [
        PolicyKind::Lfu,
        PolicyKind::IntegralFrequency,
        PolicyKind::IntegralBandwidth,
        PolicyKind::PartialBandwidth,
        PolicyKind::HybridPartialBandwidth { e: 0.5 },
        PolicyKind::PartialBandwidthValue { e: 1.0 },
        PolicyKind::IntegralBandwidthValue,
    ];
    for kind in others {
        assert!(!kind.build().utility_is_access_clock(), "{}", kind.label());
    }
}

/// LRU without the declaration: the engine keeps it on the heap.
#[derive(Debug)]
struct UndeclaredLru(Lru);

impl UtilityPolicy for UndeclaredLru {
    fn name(&self) -> String {
        self.0.name()
    }
    fn utility(&self, meta: &ObjectMeta, frequency: u64, bandwidth_bps: f64, clock: u64) -> f64 {
        self.0.utility(meta, frequency, bandwidth_bps, clock)
    }
    fn target_bytes(&self, meta: &ObjectMeta, bandwidth_bps: f64) -> f64 {
        self.0.target_bytes(meta, bandwidth_bps)
    }
    fn allows_partial_admission(&self) -> bool {
        self.0.allows_partial_admission()
    }
}

#[test]
fn lru_on_the_list_equals_lru_on_the_heap() {
    const OBJECTS: u64 = 200;
    const R: f64 = 48_000.0;
    // Sizes from 0.1 to 6 units against a 4-unit cache: some objects never
    // fit, so full drains and rollbacks interleave with ordinary churn.
    let unit = 100.0 * R;
    let metas: Vec<ObjectMeta> = (0..OBJECTS)
        .map(|k| {
            let duration = 10.0 + 590.0 * ((k * 37) % OBJECTS) as f64 / OBJECTS as f64;
            ObjectMeta::new(ObjectKey::new(k), duration, R, 1.0)
        })
        .collect();
    let mut list = CacheEngine::new(4.0 * unit, PolicyKind::Lru.build()).unwrap();
    let mut heap = CacheEngine::new(4.0 * unit, UndeclaredLru(Lru::new())).unwrap();
    list.ensure_slots(OBJECTS as usize);
    heap.ensure_slots(OBJECTS as usize);

    let bits = |v: &[(u32, f64, f64)]| -> Vec<(u32, u64, u64)> {
        v.iter()
            .map(|&(s, b, u)| (s, b.to_bits(), u.to_bits()))
            .collect()
    };
    let sorted_contents = |mut c: Vec<(ObjectKey, f64)>| {
        c.sort_by_key(|&(key, _)| key.as_u64());
        c
    };

    let mut rng = StdRng::seed_from_u64(0x1A57);
    let mut rollbacks = 0u32;
    for step in 0..100_000u32 {
        // Skewed picks so hits (list: move to back) are common too.
        let key = rng.gen_range(0..OBJECTS).min(rng.gen_range(0..OBJECTS));
        let meta = &metas[key as usize];
        let (a, b) = if step % 2 == 0 {
            (
                list.on_access_slot(key as u32, meta, R),
                heap.on_access_slot(key as u32, meta, R),
            )
        } else {
            (list.on_access(meta, R), heap.on_access(meta, R))
        };
        assert_eq!(a, b, "outcome at step {step}");
        assert_eq!(
            bits(list.last_evictions()),
            bits(heap.last_evictions()),
            "victims at step {step}"
        );
        assert_eq!(list.used_bytes().to_bits(), heap.used_bytes().to_bits());
        assert_eq!(list.len(), heap.len());
        rollbacks += u32::from(!a.admitted && a.cached_bytes_before == 0.0);
        if step % 997 == 0 {
            assert_eq!(
                sorted_contents(list.contents()),
                sorted_contents(heap.contents()),
                "contents at step {step}"
            );
        }
        if step % 30_011 == 30_010 {
            assert_eq!(list.clear(), heap.clear());
        }
    }
    assert_eq!(
        sorted_contents(list.contents()),
        sorted_contents(heap.contents())
    );
    assert_eq!(list.stats(), heap.stats());
    assert!(list.stats().evictions > 10_000 && rollbacks > 1_000);
}
