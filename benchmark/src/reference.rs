//! Fixed single-thread work that runs none of the program's code: what it
//! measures is the box at this moment.
//!
//! A shared box changes speed over minutes — a neighbour on the sibling
//! hardware thread slows a core by a third without a tick of steal time
//! showing. The simulator workloads run one of these blocks next to every
//! pass and scale the pass by how far the block was from its nominal time,
//! as the proxy workloads do with fetches straight from the origin stub.
//!
//! The work is a small discrete-event loop, because that is what both
//! simulators are: pop the earliest event from a binary heap, look a record
//! up in a table that fits the second-level cache, and push a follow-up
//! event at a later time.

use crate::load::Picker;
use std::hint::black_box;
use std::time::Instant;

const EVENTS: usize = 4096;
/// 32 768 × 8 bytes = 256 KiB.
const RECORDS: usize = 32 * 1024;
/// Operations between two looks at the clock.
const CHUNK: u64 = 4096;

/// The loop's state; built once and reused by every block of a run.
#[derive(Debug)]
pub struct CpuReference {
    /// Min-heap of `(time, record)`.
    heap: Vec<(f64, u32)>,
    records: Vec<f64>,
    rng: Picker,
}

impl CpuReference {
    pub fn new() -> Self {
        let mut rng = Picker::new(0, 0);
        let records = (0..RECORDS)
            .map(|_| 0.5 + (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        let mut reference = CpuReference {
            heap: Vec::with_capacity(EVENTS),
            records,
            rng,
        };
        for _ in 0..EVENTS {
            let time = (reference.rng.next_u64() % EVENTS as u64) as f64;
            let record = (reference.rng.next_u64() % RECORDS as u64) as u32;
            reference.push(time, record);
        }
        reference
    }

    fn push(&mut self, time: f64, record: u32) {
        self.heap.push((time, record));
        let mut child = self.heap.len() - 1;
        while child > 0 {
            let parent = (child - 1) / 2;
            if self.heap[parent].0 <= self.heap[child].0 {
                break;
            }
            self.heap.swap(parent, child);
            child = parent;
        }
    }

    fn pop(&mut self) -> (f64, u32) {
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let earliest = self.heap.pop().expect("the heap stays full");
        let mut parent = 0;
        loop {
            let left = 2 * parent + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.heap[right].0 < self.heap[left].0 {
                right
            } else {
                left
            };
            if self.heap[parent].0 <= self.heap[child].0 {
                break;
            }
            self.heap.swap(parent, child);
            parent = child;
        }
        earliest
    }

    /// One event: pop, look up, push the follow-up.
    fn step(&mut self) {
        let (time, record) = self.pop();
        let gap = self.records[record as usize];
        let next = (self.rng.next_u64() % RECORDS as u64) as u32;
        self.push(time + gap * (1 + next % 64) as f64, next);
    }

    /// Runs for about `seconds` and returns nanoseconds per operation.
    pub fn block(&mut self, seconds: f64) -> f64 {
        let started = Instant::now();
        let mut ops = 0u64;
        loop {
            for _ in 0..CHUNK {
                self.step();
            }
            ops += CHUNK;
            let spent = started.elapsed().as_secs_f64();
            if spent >= seconds {
                black_box(&self.heap);
                return spent * 1e9 / ops as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_out_in_time_order_and_the_heap_stays_full() {
        let mut reference = CpuReference::new();
        let mut last = f64::NEG_INFINITY;
        for _ in 0..10_000 {
            let (time, _) = reference.heap[0];
            assert!(time >= last, "{time} after {last}");
            last = time;
            reference.step();
            assert_eq!(reference.heap.len(), EVENTS);
        }
        assert!(reference.block(0.001) > 0.0);
    }
}
