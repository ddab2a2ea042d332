//! Spans: what the traced run records around each call into a layer, and
//! the arithmetic on them (self time, overlap joins).
//!
//! All timestamps are nanoseconds since one `Instant` taken before the
//! daemon is forked, so spans recorded by the forked serve loop and by the
//! client side share a clock (`CLOCK_MONOTONIC`) and join by overlap.

use std::time::Instant;

use crate::json::Json;

/// One timed call. `parent` is the id of the span that caused it: the
/// serve-loop iteration for daemon-side calls, the probe for client-side
/// ones. `count` is whatever the call counted (beats drained, apps reaped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u64,
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            ("parent", Json::Num(self.parent as f64)),
            ("count", Json::Num(self.count as f64)),
        ])
    }
}

/// Nanoseconds of `[a_start, a_end)` that `[b_start, b_end)` covers.
pub fn overlap_ns(a: (u64, u64), b: (u64, u64)) -> u64 {
    a.1.min(b.1).saturating_sub(a.0.max(b.0))
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover. Children may overlap each other and may stick out of
/// the parent; covered time is the length of the *union* of the children
/// clipped to the parent, so nothing is subtracted twice.
pub fn self_time_ns(span: &Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start_ns;
    for (start, end) in clipped {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    span.duration_ns() - covered
}

/// A clock shared by both sides of a fork.
#[derive(Debug, Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    pub fn now() -> Self {
        Epoch(Instant::now())
    }

    #[inline]
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent: 0,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let iteration = span("iteration", 100, 200);
        // No children: all of it is self time.
        assert_eq!(self_time_ns(&iteration, &[]), 100);
        // Back-to-back children that tile the parent leave nothing.
        let tiled = [span("a", 100, 130), span("b", 130, 200)];
        assert_eq!(self_time_ns(&iteration, &tiled), 0);
        // Overlapping children are not subtracted twice; a child sticking
        // out of the parent only counts for the part inside; a child wholly
        // outside counts for nothing.
        let ragged = [
            span("a", 110, 150),
            span("b", 140, 160),
            span("c", 190, 260),
            span("d", 10, 90),
            span("nested", 120, 125),
        ];
        // Covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_time_ns(&iteration, &ragged), 40);
    }

    #[test]
    fn overlap_is_symmetric_and_zero_for_disjoint_intervals() {
        assert_eq!(overlap_ns((0, 10), (5, 20)), 5);
        assert_eq!(overlap_ns((5, 20), (0, 10)), 5);
        assert_eq!(overlap_ns((0, 10), (10, 20)), 0);
        assert_eq!(overlap_ns((0, 10), (30, 40)), 0);
        assert_eq!(overlap_ns((0, 100), (30, 40)), 10);
    }
}
