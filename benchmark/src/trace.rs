//! Spans recorded by the benchmark around its calls into the program.
//!
//! Nothing in the program under test is instrumented: a span here is the
//! time between two instants the benchmark itself observes — on the client
//! side of a proxy connection, inside the benchmark's origin stub, or
//! around a simulator call. Spans stay in memory and are written once, when
//! the run ends.

use crate::json::Json;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process; every span of a run
/// shares this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One traced interval. `id` is unique within a run; `parent` names the
/// span that caused this one (0 for a root). All spans of one operation
/// hang under the same root, so the root's `id` identifies the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Hands out span ids. Each recording thread owns one allocator with its
/// own stride, so ids never collide and no thread waits for another.
#[derive(Debug)]
pub struct SpanIds {
    next: u64,
    stride: u64,
}

impl SpanIds {
    /// Allocator number `lane` of `lanes` (ids start at 1: 0 means "no
    /// parent").
    pub fn lane(lane: usize, lanes: usize) -> Self {
        SpanIds {
            next: 1 + lane as u64,
            stride: lanes.max(1) as u64,
        }
    }

    /// An allocator for ids above `max_id`, for spans added once every
    /// recording thread has finished.
    pub fn after(max_id: u64) -> Self {
        SpanIds {
            next: max_id + 1,
            stride: 1,
        }
    }

    pub fn next(&mut self) -> u64 {
        let id = self.next;
        self.next += self.stride;
        id
    }
}

/// Mean duration in microseconds of the spans called `name`.
pub fn mean_us(spans: &[Span], name: &str) -> f64 {
    let (sum, count) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(sum, count), s| {
            (sum + s.duration_ns(), count + 1)
        });
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1e3
    }
}

/// Durations in microseconds of the spans called `name`, ascending.
pub fn sorted_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut out: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    crate::stats::sort(&mut out);
    out
}

/// At most `limit` spans as JSON, in order of their start: the spans of an
/// operation, whichever thread recorded them, stay together, and a cut
/// keeps the earliest operations whole.
pub fn to_json(spans: &[Span], limit: usize) -> Json {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    // A root and its first child start together; the root has the lower id.
    ordered.sort_by_key(|s| (s.start_ns, s.id));
    Json::Arr(
        ordered
            .into_iter()
            .take(limit)
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn lanes_never_collide_and_skip_zero() {
        let mut a = SpanIds::lane(0, 3);
        let mut b = SpanIds::lane(2, 3);
        let ids: Vec<u64> = (0..3).flat_map(|_| [a.next(), b.next()]).collect();
        assert_eq!(ids, [1, 3, 4, 6, 7, 9]);
    }

    #[test]
    fn means_and_sorted_durations_select_by_name() {
        let spans = [
            span(1, 0, "request", 0, 100),
            span(2, 1, "connect", 0, 30),
            span(3, 1, "body", 40, 90),
            span(4, 3, "origin", 45, 80),
        ];
        assert_eq!(mean_us(&spans, "connect"), 0.03);
        assert_eq!(mean_us(&spans, "absent"), 0.0);
        assert_eq!(sorted_us(&spans, "body"), [0.05]);
    }

    #[test]
    fn written_spans_are_ordered_by_start_and_cut_at_the_limit() {
        // Recorded client by client, origin spans last — as a run does.
        let spans = [
            span(1, 0, "request", 0, 100),
            span(3, 1, "connect", 0, 30),
            span(2, 0, "request", 10, 90),
            span(9, 1, "origin", 20, 60),
        ];
        let written = to_json(&spans, 3);
        let ids: Vec<f64> = written
            .as_arr()
            .unwrap()
            .iter()
            .map(|s| s.get("id").unwrap().as_f64().unwrap())
            .collect();
        assert_eq!(ids, [1.0, 3.0, 2.0]);
        assert_eq!(to_json(&spans, 10).as_arr().unwrap().len(), 4);
    }

    #[test]
    fn clock_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
