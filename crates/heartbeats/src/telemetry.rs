//! Allocation-free runtime telemetry primitives: a fixed-bucket
//! log-linear latency histogram and a ring-buffered decision trace.
//!
//! A daemon managing thousands of applications cannot afford telemetry
//! that allocates, locks, or branches unpredictably on the drain path.
//! Both primitives here are built for that constraint:
//!
//! * [`LatencyHistogram`] is an HDR-style log-linear histogram over a
//!   fixed 64×8 bucket grid (512 `u64` counters inline in the struct —
//!   no heap). [`LatencyHistogram::record`] is a couple of shifts and
//!   one array increment; quantile queries and merges are cold-path.
//! * [`DecisionTraceRing`] is a fixed-capacity overwrite-oldest ring of
//!   `Copy` [`DecisionTraceRecord`]s. It allocates once at construction
//!   and never again; a push is a bounds-free store plus two counter
//!   updates.
//!
//! # Bucket layout
//!
//! Values are bucketed by their most-significant bit (the octave) and
//! the next [`LatencyHistogram::SUB_BUCKET_BITS`] bits below it (the
//! sub-bucket), giving 8 sub-buckets per power of two:
//!
//! ```text
//! row 0:  values 0..8        width 1   (exact)
//! row 1:  values 8..16       width 1   (exact)
//! row 2:  values 16..32      width 2
//! row 3:  values 32..64      width 4
//! ...
//! row r:  values 2^(r+2)..2^(r+3), width 2^(r-1)     (r >= 1)
//! ...
//! row 61: values 2^63..2^64  width 2^60
//! ```
//!
//! Every representable `u64` maps to one of 496 buckets (rows 62 and 63
//! of the grid are unused headroom), and the bucket width is at most
//! 1/8th of the bucket's lower bound — so any reported quantile is
//! within **12.5%** of the true sample value, at any magnitude from
//! nanoseconds to hours. Merging two histograms is a bucket-wise add,
//! which makes fleet-wide rollups *exact* aggregations of the per-app
//! histograms (unlike averaging percentiles, which is meaningless).
//!
//! # Overhead budget
//!
//! One `record()` call costs a handful of ALU operations and one
//! counter increment; the drain path records a whole batch through
//! [`LatencyHistogram::record_all`], which keeps the summary fields in
//! registers and coalesces same-bucket runs into one add (~2 ns per
//! sample in cache). At fleet scale the histograms exceed L2, so
//! [`LatencyHistogram::prefetch`] lets the drain loop warm the lines
//! while the decision kernel runs. End to end the daemon records one
//! latency sample per drained beat and one QoS sample per quantum;
//! `control.daemon.telemetry_tax_pct` in `BENCHMARK.json` prices a tick
//! against the same tick with `telemetry: false`, and
//! `ladder.telemetry_ns_per_beat` is the histograms' own share of a
//! quantum.
//! The `no_alloc` suites prove the instrumented path never touches the
//! allocator.

use crate::time::Timestamp;

/// Summary statistics of a [`LatencyHistogram`], extracted on the cold
/// path for snapshot export.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Smallest recorded value (exact; 0 when empty).
    pub min: u64,
    /// Largest recorded value (exact; 0 when empty).
    pub max: u64,
    /// Mean of the recorded values (exact up to `u64` sum saturation).
    pub mean: f64,
    /// Median (see [`LatencyHistogram::value_at_quantile`]).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSummary {
    /// The all-zero summary of an empty histogram.
    pub const EMPTY: HistogramSummary = HistogramSummary {
        count: 0,
        min: 0,
        max: 0,
        mean: 0.0,
        p50: 0,
        p95: 0,
        p99: 0,
    };
}

/// An allocation-free, fixed-footprint log-linear histogram of `u64`
/// values (HDR-histogram style), sized for nanosecond latencies but
/// exact-width across the whole `u64` range.
///
/// See the [module docs](self) for the bucket layout and error bound.
/// The struct is ~4 KiB of inline counters; clone it freely on cold
/// paths, keep one per hot entity, never box per-sample.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; LatencyHistogram::BUCKETS],
    count: u64,
    /// Saturating sum of all recorded values (for the mean).
    sum: u64,
    min: u64,
    max: u64,
    /// Bucket hit by the most recent record — the cache line
    /// [`LatencyHistogram::prefetch`] warms, since stable latency
    /// distributions hit the same bucket quantum after quantum.
    last_bucket: usize,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Sub-bucket resolution: values within one octave are split into
    /// `2^SUB_BUCKET_BITS` linear sub-buckets.
    pub const SUB_BUCKET_BITS: u32 = 3;
    /// Sub-buckets per octave row of the grid.
    pub const SUB_BUCKETS: usize = 1 << Self::SUB_BUCKET_BITS;
    /// Rows in the bucket grid (one per octave, plus the linear row).
    pub const ROWS: usize = 64;
    /// Total buckets: the 64×8 grid.
    pub const BUCKETS: usize = Self::ROWS * Self::SUB_BUCKETS;
    /// Worst-case relative quantile error: one sub-bucket width, i.e.
    /// `1 / SUB_BUCKETS` of the value.
    pub const RELATIVE_ERROR: f64 = 1.0 / Self::SUB_BUCKETS as f64;

    /// Creates an empty histogram. `const`, so histograms can live in
    /// statics or be built without touching the allocator.
    pub const fn new() -> Self {
        LatencyHistogram {
            buckets: [0; Self::BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            last_bucket: 0,
        }
    }

    /// The grid bucket a value falls into: branchless — `value | 8`
    /// forces the linear row's values onto the same msb as row 1, which
    /// folds the `value < 8` special case into the general formula
    /// (`row * 8 + sub` algebraically collapses to
    /// `shift * 8 + (value >> shift)`), so the hot loop carries no
    /// data-dependent branch.
    #[inline]
    fn bucket_of(value: u64) -> usize {
        let msb = 63 - (value | Self::SUB_BUCKETS as u64).leading_zeros();
        let shift = msb - Self::SUB_BUCKET_BITS;
        ((shift as usize) << Self::SUB_BUCKET_BITS) + ((value >> shift) as usize)
    }

    /// Smallest value mapping to `bucket`.
    #[inline]
    fn bucket_lower_bound(bucket: usize) -> u64 {
        let row = bucket / Self::SUB_BUCKETS;
        let sub = (bucket % Self::SUB_BUCKETS) as u64;
        if row == 0 {
            sub
        } else {
            (Self::SUB_BUCKETS as u64 + sub) << (row - 1)
        }
    }

    /// Largest value mapping to `bucket` (the reported quantile value).
    #[inline]
    fn bucket_upper_bound(bucket: usize) -> u64 {
        let row = bucket / Self::SUB_BUCKETS;
        let width = if row == 0 { 1 } else { 1u64 << (row - 1) };
        Self::bucket_lower_bound(bucket) + (width - 1)
    }

    /// Records one value. Hot path: two shifts, one increment, four
    /// scalar updates — no allocation, no branching on the data beyond
    /// min/max.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let bucket = Self::bucket_of(value);
        self.buckets[bucket] += 1;
        self.last_bucket = bucket;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Records a batch of values in one pass. Equivalent to calling
    /// [`LatencyHistogram::record`] per value, but the summary fields
    /// (count/sum/min/max) accumulate in registers and land in the
    /// struct once, and consecutive values that fall into the same
    /// bucket coalesce into a single counter add. Real drain batches are
    /// runs of similar latencies, so the common case touches one bucket
    /// line per run instead of issuing a dependent read-modify-write per
    /// sample — this is what keeps the instrumented drain path within
    /// the benchmark's overhead budget.
    #[inline]
    pub fn record_all<I: IntoIterator<Item = u64>>(&mut self, values: I) {
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut saturated = false;
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut run_bucket = usize::MAX;
        let mut run_len = 0u64;
        for value in values {
            count += 1;
            let (next_sum, overflow) = sum.overflowing_add(value);
            sum = if overflow { u64::MAX } else { next_sum };
            saturated |= overflow;
            min = min.min(value);
            max = max.max(value);
            let bucket = Self::bucket_of(value);
            if bucket == run_bucket {
                run_len += 1;
            } else {
                if run_len > 0 {
                    self.buckets[run_bucket] += run_len;
                }
                run_bucket = bucket;
                run_len = 1;
            }
        }
        if run_len > 0 {
            self.buckets[run_bucket] += run_len;
            self.last_bucket = run_bucket;
        }
        if count == 0 {
            return;
        }
        self.count += count;
        self.sum = if saturated {
            u64::MAX
        } else {
            self.sum.saturating_add(sum)
        };
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }

    /// Warms the cache lines the next [`LatencyHistogram::record`] /
    /// [`LatencyHistogram::record_all`] burst will touch: the summary
    /// header and the most recently hit bucket line (latency
    /// distributions are stable from quantum to quantum, so the last
    /// bucket is almost always the next one too). A fleet of thousands
    /// of histograms exceeds L2, so without this every app's first
    /// record of a quantum stalls on a cold line; issued a few hundred
    /// nanoseconds ahead (e.g. at drain time, before the decision
    /// kernel) the miss overlaps work that doesn't need the line. No-op
    /// off x86_64.
    #[inline]
    pub fn prefetch(&self) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `_mm_prefetch` is a hint; it performs no memory access
        // and is defined for any address.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch((&raw const self.count).cast::<i8>(), _MM_HINT_T0);
            _mm_prefetch(
                (&raw const self.buckets[self.last_bucket]).cast::<i8>(),
                _MM_HINT_T0,
            );
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value (exact). 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact). 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values. 0.0 when empty. Exact unless the
    /// running sum saturated `u64` (≈584 years of nanoseconds).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (clamped to `[0, 1]`), by the
    /// nearest-rank definition: the upper bound of the bucket holding
    /// the `ceil(q·count)`-th smallest sample, capped at the exact
    /// recorded maximum. Within [`LatencyHistogram::RELATIVE_ERROR`] of
    /// the true sample value, and monotone in `q`. Returns 0 when
    /// empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (bucket, &hits) in self.buckets.iter().enumerate() {
            cumulative += hits;
            if cumulative >= target {
                return Self::bucket_upper_bound(bucket).min(self.max);
            }
        }
        self.max
    }

    /// Adds every sample of `other` into `self`, bucket-wise — the
    /// merged histogram is *identical* to one that recorded both sample
    /// streams directly, so rollups over merged histograms are exact.
    pub fn merge_from(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Resets the histogram to empty without releasing its (inline)
    /// storage.
    pub fn reset(&mut self) {
        *self = LatencyHistogram::new();
    }

    /// Extracts the snapshot summary (count, min, max, mean, p50, p95,
    /// p99). Cold path.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.value_at_quantile(0.50),
            p95: self.value_at_quantile(0.95),
            p99: self.value_at_quantile(0.99),
        }
    }
}

impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.buckets[..] == other.buckets[..]
    }
}

/// Why a [`DecisionTraceRecord`] was emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceReason {
    /// A normal actuation-quantum decision: the controller consumed an
    /// observation at a quantum boundary and (re)planned.
    Boundary,
    /// The first decision published for an application adopted from a
    /// crashed predecessor daemon, warm-started from the segment's
    /// warm-start block.
    WarmStart,
    /// The application's decision state was reset to the safe/empty
    /// state (unregistered or reaped; its segment's next tenant starts
    /// clean).
    SafeReset,
    /// The application was blamed for a fault (panic or poisoned window)
    /// and quarantined: its channel is parked and its decision block
    /// holds the configured safe-state until it is reaped.
    Quarantined,
    /// A worker shard's thread died (panic escaping per-app containment
    /// or an injected kill). The record's `app` field carries the shard
    /// index, not an application id.
    ShardDead,
    /// A dead worker shard was respawned on a fresh thread. The record's
    /// `app` field carries the shard index.
    ShardRespawned,
    /// A surviving application was migrated onto a respawned shard with
    /// its control state intact.
    Migrated,
}

impl TraceReason {
    /// Stable lowercase name, used in the JSON snapshot.
    pub const fn as_str(self) -> &'static str {
        match self {
            TraceReason::Boundary => "boundary",
            TraceReason::WarmStart => "warm_start",
            TraceReason::SafeReset => "safe_reset",
            TraceReason::Quarantined => "quarantined",
            TraceReason::ShardDead => "shard_dead",
            TraceReason::ShardRespawned => "shard_respawned",
            TraceReason::Migrated => "migrated",
        }
    }
}

/// One entry of the decision trace: which knob was chosen for which
/// application, when, and why. `Copy`, fixed-size, no heap — a trace
/// push never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionTraceRecord {
    /// Monotonic sequence number within the owning ring (stamped by
    /// [`DecisionTraceRing::push`]; records overwritten by wraparound
    /// leave a visible gap).
    pub seq: u64,
    /// Timestamp of the last beat folded into this decision (beat time,
    /// not wall time — the daemon runs on the application's clock).
    pub timestamp: Timestamp,
    /// Raw application id the decision belongs to.
    pub app: u64,
    /// Chosen knob-table point index.
    pub point_idx: u32,
    /// What triggered the record.
    pub reason: TraceReason,
    /// The decision's knob gain (target speedup of the next quantum).
    pub gain: f64,
    /// Achieved speedup of the schedule the controller is executing.
    pub achieved_speedup: f64,
    /// Expected QoS loss of that schedule.
    pub qos_loss: f64,
}

impl Default for DecisionTraceRecord {
    fn default() -> Self {
        DecisionTraceRecord {
            seq: 0,
            timestamp: Timestamp::from_nanos(0),
            app: 0,
            point_idx: 0,
            reason: TraceReason::Boundary,
            gain: 0.0,
            achieved_speedup: 0.0,
            qos_loss: 0.0,
        }
    }
}

/// A fixed-capacity, overwrite-oldest ring of [`DecisionTraceRecord`]s.
///
/// Storage is allocated once at construction; [`DecisionTraceRing::push`]
/// is a store plus two counter updates and never allocates, so the ring
/// can sit directly on the daemon's drain path. Capacity 0 is a valid
/// no-op ring (tracing disabled).
#[derive(Debug, Clone)]
pub struct DecisionTraceRing {
    records: Box<[DecisionTraceRecord]>,
    /// Next write position.
    head: usize,
    /// Live records (≤ capacity).
    len: usize,
    /// Records ever pushed (also the next sequence number).
    total: u64,
}

impl Default for DecisionTraceRing {
    /// A capacity-0 (disabled) ring.
    fn default() -> Self {
        DecisionTraceRing::with_capacity(0)
    }
}

impl DecisionTraceRing {
    /// Creates a ring holding at most `capacity` records. `0` disables
    /// tracing: pushes become no-ops and nothing is allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        DecisionTraceRing {
            records: vec![DecisionTraceRecord::default(); capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            total: 0,
        }
    }

    /// Appends a record, stamping its sequence number and overwriting
    /// the oldest entry when full. Allocation-free.
    #[inline]
    pub fn push(&mut self, mut record: DecisionTraceRecord) {
        let capacity = self.records.len();
        if capacity == 0 {
            return;
        }
        record.seq = self.total;
        self.total += 1;
        self.records[self.head] = record;
        self.head = (self.head + 1) % capacity;
        if self.len < capacity {
            self.len += 1;
        }
    }

    /// Live records in the ring.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been recorded (or capacity is 0).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum records the ring retains.
    pub fn capacity(&self) -> usize {
        self.records.len()
    }

    /// Records ever pushed (including those already overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Iterates the live records oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &DecisionTraceRecord> {
        let capacity = self.records.len().max(1);
        let start = if self.len < self.records.len() {
            0
        } else {
            self.head
        };
        (0..self.len).map(move |i| &self.records[(start + i) % capacity])
    }

    /// Copies the live records oldest → newest into a fresh `Vec`
    /// (cold-path snapshot export).
    pub fn to_vec(&self) -> Vec<DecisionTraceRecord> {
        self.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.summary(), HistogramSummary::EMPTY);
    }

    #[test]
    fn linear_region_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        // Rows 0 and 1 have width-1 buckets: every value below 16 is
        // recovered exactly by its own quantile.
        for v in 0..16u64 {
            let q = (v + 1) as f64 / 16.0;
            assert_eq!(h.value_at_quantile(q), v, "value {v}");
        }
    }

    #[test]
    fn bucket_boundaries_round_trip_exactly() {
        // The lower bound of every bucket maps back to that bucket, and
        // bucket bounds tile the u64 range without gaps or overlaps.
        for bucket in 0..LatencyHistogram::BUCKETS {
            let low = LatencyHistogram::bucket_lower_bound(bucket);
            if bucket > 0 && low == 0 {
                break; // rows beyond 61 are unused headroom
            }
            assert_eq!(LatencyHistogram::bucket_of(low), bucket, "bucket {bucket}");
            let high = LatencyHistogram::bucket_upper_bound(bucket);
            assert_eq!(LatencyHistogram::bucket_of(high), bucket, "bucket {bucket}");
            if high < u64::MAX {
                assert_eq!(
                    LatencyHistogram::bucket_of(high + 1),
                    bucket + 1,
                    "bucket {bucket} upper bound should abut bucket {}",
                    bucket + 1
                );
            }
        }
        assert_eq!(
            LatencyHistogram::bucket_of(u64::MAX),
            61 * LatencyHistogram::SUB_BUCKETS + 7
        );
    }

    #[test]
    fn quantiles_are_within_relative_error_of_samples() {
        let mut h = LatencyHistogram::new();
        let mut samples: Vec<u64> = Vec::new();
        // Deterministic multiplicative walk across five decades.
        let mut v = 3u64;
        for i in 0..4096u64 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(i) % 10_000_000_000;
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).max(1) - 1;
            let exact = samples[rank];
            let approx = h.value_at_quantile(q);
            assert!(approx >= exact, "q={q}: {approx} < exact {exact}");
            let bound = exact + exact / LatencyHistogram::SUB_BUCKETS as u64 + 1;
            assert!(approx <= bound, "q={q}: {approx} > bound {bound}");
        }
        assert_eq!(h.value_at_quantile(1.0), *samples.last().unwrap());
    }

    #[test]
    fn record_all_equals_per_sample_record() {
        // Mixed runs (the coalescing fast path) and a pseudo-random walk
        // (worst case: every sample lands in a different bucket), plus
        // empty and single-element batches.
        let batches: Vec<Vec<u64>> = vec![
            vec![],
            vec![42],
            vec![40_000_000; 20],
            vec![0, 0, 7, 7, 7, 8, 1_000, 1_000, u64::MAX, u64::MAX],
            {
                let mut v = 3u64;
                (0..997u64)
                    .map(|i| {
                        v = v.wrapping_mul(6364136223846793005).wrapping_add(i) % 10_000_000_000;
                        v
                    })
                    .collect()
            },
        ];
        let mut batched = LatencyHistogram::new();
        let mut one_by_one = LatencyHistogram::new();
        for batch in &batches {
            batched.record_all(batch.iter().copied());
            for &value in batch {
                one_by_one.record(value);
            }
            assert_eq!(batched.count(), one_by_one.count());
            assert_eq!(batched.min(), one_by_one.min());
            assert_eq!(batched.max(), one_by_one.max());
            assert_eq!(batched.summary(), one_by_one.summary());
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(
                    batched.value_at_quantile(q),
                    one_by_one.value_at_quantile(q),
                    "quantile mismatch at q={q}"
                );
            }
        }
    }

    #[test]
    fn record_all_saturates_sum_like_record() {
        let mut batched = LatencyHistogram::new();
        let mut one_by_one = LatencyHistogram::new();
        let values = [u64::MAX, u64::MAX, 5];
        batched.record_all(values.iter().copied());
        for &value in &values {
            one_by_one.record(value);
        }
        assert_eq!(batched.summary(), one_by_one.summary());
        assert_eq!(batched.summary().mean, u64::MAX as f64 / 3.0);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let mut h = LatencyHistogram::new();
        let mut v = 17u64;
        for _ in 0..1000 {
            v = v.wrapping_mul(2862933555777941757).wrapping_add(3037000493) % 1_000_000;
            h.record(v);
        }
        let mut last = 0u64;
        for step in 0..=100 {
            let q = step as f64 / 100.0;
            let value = h.value_at_quantile(q);
            assert!(value >= last, "quantile regressed at q={q}");
            last = value;
        }
    }

    #[test]
    fn merge_equals_concatenated_recording() {
        let (mut a, mut b, mut combined) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        let mut v = 99u64;
        for i in 0..500u64 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1) % 50_000_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a, combined);
        assert_eq!(a.summary(), combined.summary());
    }

    #[test]
    fn trace_ring_overwrites_oldest_and_stamps_seq() {
        let mut ring = DecisionTraceRing::with_capacity(4);
        assert!(ring.is_empty());
        for i in 0..10u64 {
            ring.push(DecisionTraceRecord {
                app: i,
                ..DecisionTraceRecord::default()
            });
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.capacity(), 4);
        assert_eq!(ring.total_recorded(), 10);
        let records: Vec<_> = ring.iter().copied().collect();
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        let apps: Vec<u64> = records.iter().map(|r| r.app).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert_eq!(apps, vec![6, 7, 8, 9]);
        assert_eq!(ring.to_vec(), records);
    }

    #[test]
    fn zero_capacity_ring_is_a_no_op() {
        let mut ring = DecisionTraceRing::with_capacity(0);
        ring.push(DecisionTraceRecord::default());
        assert!(ring.is_empty());
        assert_eq!(ring.total_recorded(), 0);
        assert_eq!(ring.iter().count(), 0);
    }

    #[test]
    fn partial_ring_iterates_in_insertion_order() {
        let mut ring = DecisionTraceRing::with_capacity(8);
        for i in 0..3u64 {
            ring.push(DecisionTraceRecord {
                app: i,
                ..DecisionTraceRecord::default()
            });
        }
        let apps: Vec<u64> = ring.iter().map(|r| r.app).collect();
        assert_eq!(apps, vec![0, 1, 2]);
    }
}
