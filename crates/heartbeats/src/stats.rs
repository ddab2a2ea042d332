//! Sliding-window statistics over heartbeat latencies.
//!
//! The window is the heart of PowerDial's feedback path: the controller
//! reads the windowed rate once per heartbeat, so [`SlidingWindow::push`],
//! [`SlidingWindow::rate`], and [`SlidingWindow::statistics`] must all be
//! O(1) and allocation-free in steady state. The implementation keeps
//! incrementally maintained aggregates instead of recomputing over the
//! stored latencies:
//!
//! * running sum and sum-of-squares of the latencies in **integer
//!   nanoseconds** (`u128`), so eviction subtracts exactly what insertion
//!   added — no floating-point drift, ever;
//! * two monotonic deques holding the suffix minima / maxima of the window,
//!   giving O(1)-amortized min/max under FIFO eviction.
//!
//! The pre-optimization recompute-on-read implementation is preserved as
//! `crate::naive::NaiveSlidingWindow` (compiled for this crate's tests
//! only) and is property-tested against this one.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::record::HeartRate;
use crate::time::TimestampDelta;

/// Nanoseconds per second, as used when converting aggregates to seconds.
const NANOS_PER_SEC_F64: f64 = 1e9;

/// The summed window latencies exceed `u64::MAX` nanoseconds (more than
/// five centuries of latency in one window).
///
/// No organic heartbeat stream gets here — only a hostile or corrupted
/// producer pushing near-`u64::MAX` latencies. [`SlidingWindow::rate`] and
/// [`SlidingWindow::try_total`] surface it as this typed error so a control
/// loop can blame and quarantine the one poisoned app instead of unwinding
/// through the shard that serves its neighbors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowOverflow;

impl fmt::Display for WindowOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "window latency sum overflows u64 nanoseconds")
    }
}

impl std::error::Error for WindowOverflow {}

/// A fixed-capacity sliding window of heartbeat latencies.
///
/// The window keeps the most recent `capacity` latencies and exposes the
/// aggregate statistics PowerDial's controller consumes: the windowed heart
/// rate (beats divided by the summed latency), the mean latency, the latency
/// variance, and the min/max latency. All queries are O(1); `push` is
/// amortized O(1) and performs no heap allocation after construction.
///
/// # Example
///
/// ```
/// use powerdial_heartbeats::{SlidingWindow, TimestampDelta};
///
/// let mut window = SlidingWindow::new(3);
/// for _ in 0..5 {
///     window.push(TimestampDelta::from_millis(50));
/// }
/// assert_eq!(window.len(), 3);
/// let rate = window.rate().expect("no overflow").expect("non-empty");
/// assert!((rate.beats_per_second() - 20.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlidingWindow {
    capacity: usize,
    latencies: VecDeque<TimestampDelta>,
    /// Total pushes ever performed: the index the next push will receive.
    push_count: u64,
    /// Sum of the stored latencies, in nanoseconds (exact).
    sum_nanos: u128,
    /// Sum of the squared stored latencies, in nanoseconds² (exact).
    sum_sq_nanos: u128,
    /// `(push index, nanos)` suffix minima: values strictly increase from
    /// front to back, so the front is the window minimum.
    min_deque: VecDeque<(u64, u64)>,
    /// `(push index, nanos)` suffix maxima: values strictly decrease from
    /// front to back, so the front is the window maximum.
    max_deque: VecDeque<(u64, u64)>,
}

/// Every arithmetic op in this impl is on the controller's per-beat hot
/// path and feeds exact integer aggregates, so implicit overflow semantics
/// (panic in debug, wrap in release) are banned: each op is an explicit
/// `wrapping_*`/`checked_*` with its no-overflow argument, or a documented
/// adversarial-input concession.
#[deny(clippy::arithmetic_side_effects)]
impl SlidingWindow {
    /// Creates a window holding at most `capacity` latencies.
    ///
    /// All storage (the latency deque and both extremum deques) is allocated
    /// here; no later operation allocates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sliding window capacity must be at least 1");
        SlidingWindow {
            capacity,
            latencies: VecDeque::with_capacity(capacity),
            push_count: 0,
            sum_nanos: 0,
            sum_sq_nanos: 0,
            min_deque: VecDeque::with_capacity(capacity),
            max_deque: VecDeque::with_capacity(capacity),
        }
    }

    /// Returns the maximum number of latencies retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns the number of latencies currently stored.
    pub fn len(&self) -> usize {
        self.latencies.len()
    }

    /// Returns true when the window holds no latencies.
    pub fn is_empty(&self) -> bool {
        self.latencies.is_empty()
    }

    /// Returns true when the window holds `capacity` latencies.
    pub fn is_full(&self) -> bool {
        self.latencies.len() == self.capacity
    }

    /// Pushes a new latency, evicting the oldest if the window is full.
    ///
    /// Amortized O(1), allocation-free: the aggregates are updated
    /// incrementally and each element enters and leaves the extremum deques
    /// at most once.
    pub fn push(&mut self, latency: TimestampDelta) {
        if self.latencies.len() == self.capacity {
            let evicted = self
                .latencies
                .pop_front()
                .expect("full window has a front element");
            let nanos = u128::from(evicted.as_nanos());
            // Eviction subtracts exactly what insertion added (same wrapping
            // group), so the running sums are exact whenever insertion never
            // wrapped — see the insertion-side bounds below.
            self.sum_nanos = self.sum_nanos.wrapping_sub(nanos);
            self.sum_sq_nanos = self.sum_sq_nanos.wrapping_sub(nanos.wrapping_mul(nanos));
            // The evicted element can only sit at the front of a deque: the
            // deques hold indices in increasing order. `push_count` counts at
            // least `capacity` pushes here (the window is full), in the same
            // wrapping index space the deques store.
            let evicted_index = self.push_count.wrapping_sub(self.capacity as u64);
            if self
                .min_deque
                .front()
                .is_some_and(|&(i, _)| i == evicted_index)
            {
                self.min_deque.pop_front();
            }
            if self
                .max_deque
                .front()
                .is_some_and(|&(i, _)| i == evicted_index)
            {
                self.max_deque.pop_front();
            }
        }

        let nanos = latency.as_nanos();
        self.latencies.push_back(latency);
        // `sum_nanos` holds at most `capacity` u64 values, so it fits u128
        // for any allocatable capacity and the add is exact. `sum_sq_nanos`
        // can genuinely wrap under adversarial near-`u64::MAX` latencies
        // (each square is up to ~2¹²⁸); that only garbles the variance —
        // rate/total/min/max/mean never read it, and the overflow that
        // matters (`sum_nanos > u64::MAX`) is caught as a typed
        // [`WindowOverflow`] at the rate read.
        self.sum_nanos = self.sum_nanos.wrapping_add(u128::from(nanos));
        self.sum_sq_nanos = self
            .sum_sq_nanos
            .wrapping_add(u128::from(nanos).wrapping_mul(u128::from(nanos)));
        while self.min_deque.back().is_some_and(|&(_, v)| v >= nanos) {
            self.min_deque.pop_back();
        }
        self.min_deque.push_back((self.push_count, nanos));
        while self.max_deque.back().is_some_and(|&(_, v)| v <= nanos) {
            self.max_deque.pop_back();
        }
        self.max_deque.push_back((self.push_count, nanos));
        // Wrapping: the index space the extremum deques key on is compared
        // by equality only, which stays consistent across a wrap.
        self.push_count = self.push_count.wrapping_add(1);
    }

    /// Pushes every latency in `latencies`, oldest first — exactly
    /// equivalent to calling [`push`](Self::push) once per element, but
    /// written for the batched decision kernel's hot path.
    ///
    /// When the slice is at least as long as the window's capacity, none
    /// of the pre-existing contents survive, so the window is rebuilt
    /// from the slice's tail in one pass instead of churning through
    /// `len` evictions. The rebuild is **bit-identical** to the
    /// sequential pushes: the integer nanosecond sums are exact under
    /// both orders, and the monotonic deques end up holding the same
    /// `(index, value)` suffix extrema either way (sequential eviction
    /// would have popped every entry that predates the surviving
    /// window). The property test `push_slice_matches_sequential_push`
    /// pins this, including queries after further singleton pushes.
    ///
    /// Allocation-free: both paths reuse the storage sized at
    /// construction.
    pub fn push_slice(&mut self, latencies: &[TimestampDelta]) {
        if latencies.len() >= self.capacity {
            // Full replacement: only the slice's last `capacity` entries
            // can survive, so skip straight to them. (`len >= capacity`
            // here, so the subtraction cannot underflow.)
            let skipped = latencies.len().wrapping_sub(self.capacity);
            self.latencies.clear();
            self.min_deque.clear();
            self.max_deque.clear();
            self.sum_nanos = 0;
            self.sum_sq_nanos = 0;
            self.push_count = self.push_count.wrapping_add(skipped as u64);
            for &latency in &latencies[skipped..] {
                let nanos = latency.as_nanos();
                self.latencies.push_back(latency);
                // Same exactness argument as in `push`.
                self.sum_nanos = self.sum_nanos.wrapping_add(u128::from(nanos));
                self.sum_sq_nanos = self
                    .sum_sq_nanos
                    .wrapping_add(u128::from(nanos).wrapping_mul(u128::from(nanos)));
                while self.min_deque.back().is_some_and(|&(_, v)| v >= nanos) {
                    self.min_deque.pop_back();
                }
                self.min_deque.push_back((self.push_count, nanos));
                while self.max_deque.back().is_some_and(|&(_, v)| v <= nanos) {
                    self.max_deque.pop_back();
                }
                self.max_deque.push_back((self.push_count, nanos));
                self.push_count = self.push_count.wrapping_add(1);
            }
        } else {
            for &latency in latencies {
                self.push(latency);
            }
        }
    }

    /// Removes all stored latencies, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.latencies.clear();
        self.min_deque.clear();
        self.max_deque.clear();
        self.push_count = 0;
        self.sum_nanos = 0;
        self.sum_sq_nanos = 0;
    }

    /// Iterates over the stored latencies from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = TimestampDelta> + '_ {
        self.latencies.iter().copied()
    }

    /// Returns the total time spanned by the stored latencies, or a typed
    /// [`WindowOverflow`] when the sum exceeds `u64::MAX` nanoseconds.
    /// O(1): read from the running sum.
    pub fn try_total(&self) -> Result<TimestampDelta, WindowOverflow> {
        let nanos = u64::try_from(self.sum_nanos).map_err(|_| WindowOverflow)?;
        Ok(TimestampDelta::from_nanos(nanos))
    }

    /// Returns the total time spanned by the stored latencies. O(1): read
    /// from the running sum.
    ///
    /// # Panics
    ///
    /// Panics if the summed latencies exceed `u64::MAX` nanoseconds (more
    /// than five centuries; the pre-optimization fold overflowed there too).
    /// Poison-tolerant callers use [`try_total`](Self::try_total) instead.
    pub fn total(&self) -> TimestampDelta {
        self.try_total()
            .expect("window total overflows u64 nanoseconds")
    }

    /// Returns the windowed heart rate: stored beats divided by their summed
    /// latency. `Ok(None)` if the window is empty or the summed latency is
    /// zero; a typed [`WindowOverflow`] (instead of a panic unwinding
    /// through whoever hosts the window) when a poisoned stream pushed the
    /// latency sum past `u64::MAX` nanoseconds. O(1).
    pub fn rate(&self) -> Result<Option<HeartRate>, WindowOverflow> {
        Ok(HeartRate::from_beats_over(
            self.latencies.len() as u64,
            self.try_total()?,
        ))
    }

    /// Returns summary statistics for the stored latencies, or `None` when
    /// the window is empty. O(1): mean and variance come from the running
    /// sums, min and max from the monotonic deques.
    ///
    /// The variance is computed as `(n·Σx² − (Σx)²) / n²` over **exact**
    /// integer nanosecond sums, so there is no catastrophic cancellation and
    /// no drift relative to a naive recompute (see the equivalence property
    /// tests against `crate::naive::NaiveSlidingWindow`).
    pub fn statistics(&self) -> Option<RateStatistics> {
        let n = self.latencies.len();
        if n == 0 {
            return None;
        }
        let n_f64 = n as f64;
        let mean_nanos = self.sum_nanos as f64 / n_f64;
        // Cauchy–Schwarz guarantees n·Σx² ≥ (Σx)², so this cannot underflow
        // for any stream whose squared sums fit u128; under adversarial
        // near-`u64::MAX` latencies the wrapped `sum_sq_nanos` only garbles
        // the variance (documented in `push`), never panics.
        let variance_numerator = (n as u128)
            .wrapping_mul(self.sum_sq_nanos)
            .wrapping_sub(self.sum_nanos.wrapping_mul(self.sum_nanos));
        let variance_nanos2 = variance_numerator as f64 / (n_f64 * n_f64);
        let min_nanos = self
            .min_deque
            .front()
            .expect("non-empty window has a minimum")
            .1;
        let max_nanos = self
            .max_deque
            .front()
            .expect("non-empty window has a maximum")
            .1;
        Some(RateStatistics {
            count: n,
            mean_latency_secs: mean_nanos / NANOS_PER_SEC_F64,
            latency_variance: variance_nanos2 / (NANOS_PER_SEC_F64 * NANOS_PER_SEC_F64),
            min_latency_secs: min_nanos as f64 / NANOS_PER_SEC_F64,
            max_latency_secs: max_nanos as f64 / NANOS_PER_SEC_F64,
        })
    }
}

/// Two windows are equal when they have the same capacity and the same
/// stored latencies (the aggregates are a pure function of those).
impl PartialEq for SlidingWindow {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.latencies == other.latencies
    }
}

/// Summary statistics over a window of heartbeat latencies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateStatistics {
    /// Number of latencies in the window.
    pub count: usize,
    /// Mean latency in seconds.
    pub mean_latency_secs: f64,
    /// Population variance of the latency in seconds squared.
    pub latency_variance: f64,
    /// Smallest latency in seconds.
    pub min_latency_secs: f64,
    /// Largest latency in seconds.
    pub max_latency_secs: f64,
}

impl RateStatistics {
    /// Returns the standard deviation of the latency, in seconds.
    pub fn latency_std_dev(&self) -> f64 {
        self.latency_variance.sqrt()
    }

    /// Returns the heart rate implied by the mean latency, or `None` if the
    /// mean latency is zero.
    pub fn mean_rate(&self) -> Option<HeartRate> {
        if self.mean_latency_secs == 0.0 {
            None
        } else {
            Some(HeartRate::from_bps(1.0 / self.mean_latency_secs))
        }
    }

    /// Returns the coefficient of variation (standard deviation divided by
    /// mean), a unit-free measure of how noisy the heartbeat stream is.
    /// Returns `None` when the mean latency is zero.
    pub fn coefficient_of_variation(&self) -> Option<f64> {
        if self.mean_latency_secs == 0.0 {
            None
        } else {
            Some(self.latency_std_dev() / self.mean_latency_secs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> TimestampDelta {
        TimestampDelta::from_millis(v)
    }

    #[test]
    fn window_evicts_oldest_entries() {
        let mut w = SlidingWindow::new(2);
        w.push(ms(10));
        w.push(ms(20));
        w.push(ms(30));
        let stored: Vec<_> = w.iter().collect();
        assert_eq!(stored, vec![ms(20), ms(30)]);
        assert!(w.is_full());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_panics() {
        SlidingWindow::new(0);
    }

    #[test]
    fn rate_counts_beats_over_total_time() {
        let mut w = SlidingWindow::new(4);
        w.push(ms(100));
        w.push(ms(100));
        w.push(ms(200));
        // 3 beats over 0.4 seconds = 7.5 beats/s.
        assert!((w.rate().unwrap().unwrap().beats_per_second() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn empty_window_has_no_rate_or_statistics() {
        let w = SlidingWindow::new(3);
        assert!(w.rate().unwrap().is_none());
        assert!(w.statistics().is_none());
        assert!(w.is_empty());
    }

    #[test]
    fn statistics_report_mean_and_variance() {
        let mut w = SlidingWindow::new(10);
        w.push(ms(100));
        w.push(ms(300));
        let stats = w.statistics().unwrap();
        assert_eq!(stats.count, 2);
        assert!((stats.mean_latency_secs - 0.2).abs() < 1e-9);
        assert!((stats.latency_variance - 0.01).abs() < 1e-9);
        assert!((stats.min_latency_secs - 0.1).abs() < 1e-9);
        assert!((stats.max_latency_secs - 0.3).abs() < 1e-9);
        assert!((stats.latency_std_dev() - 0.1).abs() < 1e-9);
        assert!((stats.mean_rate().unwrap().beats_per_second() - 5.0).abs() < 1e-9);
        assert!((stats.coefficient_of_variation().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn clear_empties_the_window() {
        let mut w = SlidingWindow::new(3);
        w.push(ms(10));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.capacity(), 3);
        assert!(w.statistics().is_none());
        // The window is fully usable again after a clear.
        w.push(ms(20));
        assert_eq!(w.statistics().unwrap().count, 1);
        assert!((w.statistics().unwrap().mean_latency_secs - 0.02).abs() < 1e-12);
    }

    #[test]
    fn min_max_track_eviction() {
        let mut w = SlidingWindow::new(3);
        w.push(ms(500)); // will be evicted
        w.push(ms(10));
        w.push(ms(20));
        let stats = w.statistics().unwrap();
        assert!((stats.max_latency_secs - 0.5).abs() < 1e-12);
        w.push(ms(30)); // evicts the 500 ms outlier
        let stats = w.statistics().unwrap();
        assert!((stats.max_latency_secs - 0.03).abs() < 1e-12);
        assert!((stats.min_latency_secs - 0.01).abs() < 1e-12);
    }

    #[test]
    fn poisoned_sum_surfaces_typed_overflow_instead_of_panicking() {
        let mut w = SlidingWindow::new(2);
        let poison = TimestampDelta::from_nanos(u64::MAX / 2 + 1);
        w.push(poison);
        w.push(poison);
        assert_eq!(w.rate(), Err(WindowOverflow));
        assert_eq!(w.try_total(), Err(WindowOverflow));
        // Min/max/mean still answer; only the variance is a documented
        // casualty of adversarial inputs.
        assert!(w.statistics().is_some());
        // The naive reference agrees on the overflow verdict.
        let mut naive = crate::naive::NaiveSlidingWindow::new(2);
        naive.push(poison);
        naive.push(poison);
        assert_eq!(naive.rate(), Err(WindowOverflow));
        // Evicting the poison heals the window: no sticky state.
        w.push(ms(10));
        w.push(ms(10));
        let healed = w.rate().expect("poison evicted").expect("non-empty");
        assert!(healed.beats_per_second() > 0.0);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn total_still_panics_on_overflow_for_compat() {
        let mut w = SlidingWindow::new(2);
        let poison = TimestampDelta::from_nanos(u64::MAX / 2 + 1);
        w.push(poison);
        w.push(poison);
        let _ = w.total();
    }

    #[test]
    fn equal_content_windows_compare_equal_regardless_of_history() {
        // Same final contents through different push histories.
        let mut a = SlidingWindow::new(2);
        a.push(ms(1));
        a.push(ms(2));
        let mut b = SlidingWindow::new(2);
        b.push(ms(9));
        b.push(ms(1));
        b.push(ms(2));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_mean_latency_gives_no_rate() {
        let stats = RateStatistics {
            count: 1,
            mean_latency_secs: 0.0,
            latency_variance: 0.0,
            min_latency_secs: 0.0,
            max_latency_secs: 0.0,
        };
        assert!(stats.mean_rate().is_none());
        assert!(stats.coefficient_of_variation().is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::naive::NaiveSlidingWindow;
    use proptest::prelude::*;

    proptest! {
        /// The window never stores more than its capacity.
        #[test]
        fn window_length_bounded_by_capacity(
            capacity in 1usize..32,
            latencies in proptest::collection::vec(1u64..1_000_000, 0..100),
        ) {
            let mut w = SlidingWindow::new(capacity);
            for l in &latencies {
                w.push(TimestampDelta::from_nanos(*l));
                prop_assert!(w.len() <= capacity);
            }
            prop_assert_eq!(w.len(), latencies.len().min(capacity));
        }

        /// The windowed rate always equals count / total for non-empty windows.
        #[test]
        fn rate_matches_definition(
            capacity in 1usize..16,
            latencies in proptest::collection::vec(1u64..10_000_000, 1..50),
        ) {
            let mut w = SlidingWindow::new(capacity);
            for l in &latencies {
                w.push(TimestampDelta::from_nanos(*l));
            }
            let rate = w.rate().unwrap().unwrap().beats_per_second();
            let expected = w.len() as f64 / w.total().as_secs_f64();
            prop_assert!((rate - expected).abs() <= 1e-9 * expected.max(1.0));
        }

        /// Latency statistics stay within the observed min/max bounds.
        #[test]
        fn statistics_bounds_hold(
            latencies in proptest::collection::vec(1u64..10_000_000, 1..50),
        ) {
            let mut w = SlidingWindow::new(latencies.len());
            for l in &latencies {
                w.push(TimestampDelta::from_nanos(*l));
            }
            let stats = w.statistics().unwrap();
            prop_assert!(stats.mean_latency_secs >= stats.min_latency_secs - 1e-12);
            prop_assert!(stats.mean_latency_secs <= stats.max_latency_secs + 1e-12);
            prop_assert!(stats.latency_variance >= 0.0);
        }

        /// `push_slice` is bit-equivalent to element-wise `push` across
        /// arbitrary chunkings — including chunks larger than the window
        /// (the full-replacement fast path), empty chunks, and singleton
        /// pushes interleaved after batches.
        #[test]
        fn push_slice_matches_sequential_push(
            capacity in 1usize..24,
            chunks in proptest::collection::vec(
                proptest::collection::vec(1u64..1_000_000_000_000u64, 0..64),
                0..16,
            ),
        ) {
            let mut batched = SlidingWindow::new(capacity);
            let mut sequential = SlidingWindow::new(capacity);
            for chunk in &chunks {
                let deltas: Vec<TimestampDelta> =
                    chunk.iter().map(|&l| TimestampDelta::from_nanos(l)).collect();
                batched.push_slice(&deltas);
                for &d in &deltas {
                    sequential.push(d);
                }
                prop_assert_eq!(&batched, &sequential);
                prop_assert_eq!(batched.len(), sequential.len());
                if !batched.is_empty() {
                    prop_assert_eq!(batched.total(), sequential.total());
                    let (a, b) = (batched.rate().unwrap().unwrap(), sequential.rate().unwrap().unwrap());
                    prop_assert_eq!(
                        a.beats_per_second().to_bits(),
                        b.beats_per_second().to_bits()
                    );
                    let (fast, slow) =
                        (batched.statistics().unwrap(), sequential.statistics().unwrap());
                    prop_assert_eq!(fast.mean_latency_secs.to_bits(), slow.mean_latency_secs.to_bits());
                    prop_assert_eq!(fast.latency_variance.to_bits(), slow.latency_variance.to_bits());
                    prop_assert_eq!(fast.min_latency_secs.to_bits(), slow.min_latency_secs.to_bits());
                    prop_assert_eq!(fast.max_latency_secs.to_bits(), slow.max_latency_secs.to_bits());
                }
                // A singleton push after a batch must keep agreeing: the
                // extremum deques' internal indices line up too.
                batched.push(TimestampDelta::from_nanos(7));
                sequential.push(TimestampDelta::from_nanos(7));
                prop_assert_eq!(&batched, &sequential);
                let (fa, sl) = (batched.statistics().unwrap(), sequential.statistics().unwrap());
                prop_assert_eq!(fa.min_latency_secs.to_bits(), sl.min_latency_secs.to_bits());
                prop_assert_eq!(fa.max_latency_secs.to_bits(), sl.max_latency_secs.to_bits());
            }
        }

        /// The incremental statistics match a naive recompute to within 1e-9
        /// across arbitrary push/evict sequences — the equivalence guarantee
        /// for the O(1) rework. Latencies span six orders of magnitude so the
        /// running sums see both tiny and huge evictions.
        #[test]
        fn incremental_statistics_match_naive_recompute(
            capacity in 1usize..24,
            latencies in proptest::collection::vec(1u64..1_000_000_000_000u64, 1..200),
        ) {
            let mut incremental = SlidingWindow::new(capacity);
            let mut naive = NaiveSlidingWindow::new(capacity);
            for l in &latencies {
                let latency = TimestampDelta::from_nanos(*l);
                incremental.push(latency);
                naive.push(latency);

                // Rate and total are bit-identical: both divide the same
                // integer-exact totals.
                prop_assert_eq!(incremental.total(), naive.total());
                let (a, b) = (incremental.rate().unwrap().unwrap(), naive.rate().unwrap().unwrap());
                prop_assert_eq!(a.beats_per_second().to_bits(), b.beats_per_second().to_bits());

                let fast = incremental.statistics().unwrap();
                let slow = naive.statistics().unwrap();
                prop_assert_eq!(fast.count, slow.count);
                let close = |x: f64, y: f64, what: &str| {
                    let tolerance = 1e-9 * x.abs().max(y.abs()).max(1.0);
                    if (x - y).abs() <= tolerance {
                        Ok(())
                    } else {
                        Err(TestCaseError::fail(format!("{what}: {x} vs {y}")))
                    }
                };
                close(fast.mean_latency_secs, slow.mean_latency_secs, "mean")?;
                close(fast.latency_variance, slow.latency_variance, "variance")?;
                // Min and max are exact: a monotone conversion of the same
                // integer nanosecond values.
                prop_assert_eq!(fast.min_latency_secs.to_bits(), slow.min_latency_secs.to_bits());
                prop_assert_eq!(fast.max_latency_secs.to_bits(), slow.max_latency_secs.to_bits());
            }
        }
    }
}
