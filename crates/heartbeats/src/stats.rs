//! Sliding-window statistics over heartbeat latencies.
//!
//! The window is the heart of PowerDial's feedback path. What the control
//! loop does with it is lopsided: every heartbeat is pushed
//! ([`SlidingWindow::push`], [`SlidingWindow::push_slice`]) and the
//! windowed rate is read once per quantum ([`SlidingWindow::rate`]), while
//! [`SlidingWindow::statistics`] is a diagnostic nothing on the decision
//! path calls. The window therefore keeps only what the loop reads:
//!
//! * **maintained on every push** — the stored latencies themselves (one
//!   ring, allocated at construction) and their running sum in **integer
//!   nanoseconds** (`u128`): eviction subtracts exactly what insertion
//!   added, so `rate()`/`try_total()` are O(1) and there is no
//!   floating-point drift, ever;
//! * **computed on read** — `statistics()` scans the at most `capacity`
//!   stored latencies for Σx², min and max. That is O(capacity) on a cold
//!   path; maintaining them incrementally cost every push a 64×64→128
//!   multiply on insert *and* evict plus two monotonic deques, for a
//!   query the controller never makes.
//!
//! A recompute-everything-on-read implementation is kept as
//! `crate::naive::NaiveSlidingWindow` (compiled for this crate's tests
//! only) and is property-tested against this one.

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
/// variance, and the min/max latency. `push` and the rate/total reads are
/// O(1) — one ring slot and one running sum; [`statistics`](Self::statistics)
/// is O(capacity). Nothing allocates after construction.
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
    /// The ring: `capacity` slots, of which `len` hold a latency and the
    /// rest hold zero (so evicting from a slot never filled subtracts
    /// nothing). Until the ring first fills, the stored latencies are
    /// `slots[..len]` and `cursor == len`; from then on every slot is
    /// stored and `slots[cursor]` is the oldest.
    slots: Box<[TimestampDelta]>,
    /// The slot the next push writes. Always `< capacity`.
    cursor: usize,
    /// Number of latencies stored. Always `<= capacity`.
    len: usize,
    /// Sum of the stored latencies, in nanoseconds (exact).
    sum_nanos: u128,
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
    /// The ring is allocated here; no later operation allocates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sliding window capacity must be at least 1");
        SlidingWindow {
            slots: vec![TimestampDelta::ZERO; capacity].into_boxed_slice(),
            cursor: 0,
            len: 0,
            sum_nanos: 0,
        }
    }

    /// Returns the maximum number of latencies retained.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Returns the number of latencies currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns true when the window holds no latencies.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns true when the window holds `capacity` latencies.
    pub fn is_full(&self) -> bool {
        self.len == self.slots.len()
    }

    /// Pushes a new latency, evicting the oldest if the window is full.
    ///
    /// O(1), allocation-free: one slot is overwritten and the running sum
    /// trades the evicted latency for the new one.
    #[inline]
    pub fn push(&mut self, latency: TimestampDelta) {
        let evicted = std::mem::replace(&mut self.slots[self.cursor], latency);
        // Eviction subtracts exactly what insertion added (zero for a slot
        // never filled), and the sum holds at most `capacity` u64 values,
        // which fit u128 for any allocatable capacity: both ops are exact.
        // The overflow that matters (`sum_nanos > u64::MAX`) is caught as a
        // typed [`WindowOverflow`] at the rate read.
        self.sum_nanos = self
            .sum_nanos
            .wrapping_sub(u128::from(evicted.as_nanos()))
            .wrapping_add(u128::from(latency.as_nanos()));
        // `cursor < capacity` and `len < capacity` where incremented, so
        // neither add can overflow.
        self.cursor = self.cursor.wrapping_add(1);
        if self.cursor == self.slots.len() {
            self.cursor = 0;
        }
        if self.len < self.slots.len() {
            self.len = self.len.wrapping_add(1);
        }
    }

    /// Pushes every latency in `latencies`, oldest first — exactly
    /// equivalent to calling [`push`](Self::push) once per element, but
    /// written for the batched decision kernel's hot path.
    ///
    /// When the slice is at least as long as the window's capacity, none
    /// of the pre-existing contents survive, so the ring is overwritten
    /// with the slice's tail and summed in one pass instead of churning
    /// through `len` evictions. The stored sequence and the integer sum —
    /// all the state there is — come out the same under both orders; the
    /// property test `push_slice_matches_sequential_push` pins it,
    /// including queries after further singleton pushes.
    ///
    /// Allocation-free: both paths reuse the ring sized at construction.
    pub fn push_slice(&mut self, latencies: &[TimestampDelta]) {
        if latencies.len() >= self.slots.len() {
            // Full replacement: only the slice's last `capacity` entries
            // can survive. (`len >= capacity` here, so the subtraction
            // cannot underflow.)
            let skipped = latencies.len().wrapping_sub(self.slots.len());
            self.slots.copy_from_slice(&latencies[skipped..]);
            self.cursor = 0;
            self.len = self.slots.len();
            // Same exactness argument as in `push`.
            self.sum_nanos = self.slots.iter().fold(0u128, |sum, latency| {
                sum.wrapping_add(u128::from(latency.as_nanos()))
            });
        } else {
            for &latency in latencies {
                self.push(latency);
            }
        }
    }

    /// Removes all stored latencies, keeping the allocated capacity.
    pub fn clear(&mut self) {
        self.slots.fill(TimestampDelta::ZERO);
        self.cursor = 0;
        self.len = 0;
        self.sum_nanos = 0;
    }

    /// Iterates over the stored latencies from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = TimestampDelta> + '_ {
        // Not yet full: `cursor == len`, so `older` is empty and `newer`
        // is the whole stored prefix. Full: the oldest sits at `cursor`.
        let (newer, older) = self.slots[..self.len].split_at(self.cursor);
        older.iter().chain(newer).copied()
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
            self.len as u64,
            self.try_total()?,
        ))
    }

    /// Returns summary statistics for the stored latencies, or `None` when
    /// the window is empty. O(capacity): the mean comes from the running
    /// sum; Σx², min and max are recomputed over the stored latencies —
    /// the control loop never asks for them, so no push pays for them.
    ///
    /// The variance is computed as `(n·Σx² − (Σx)²) / n²` over **exact**
    /// integer nanosecond sums, so there is no catastrophic cancellation and
    /// no drift relative to a naive recompute (see the equivalence property
    /// tests against `crate::naive::NaiveSlidingWindow`).
    pub fn statistics(&self) -> Option<RateStatistics> {
        let n = self.len;
        if n == 0 {
            return None;
        }
        // Order does not matter to a sum or an extremum, and the stored
        // latencies are `slots[..len]` whether or not the ring has wrapped.
        let mut sum_sq_nanos = 0u128;
        let mut min_nanos = u64::MAX;
        let mut max_nanos = 0u64;
        for latency in &self.slots[..n] {
            let nanos = latency.as_nanos();
            // Σx² can genuinely wrap under adversarial near-`u64::MAX`
            // latencies (each square is up to ~2¹²⁸); that only garbles the
            // variance — rate/total/min/max/mean never read it.
            sum_sq_nanos =
                sum_sq_nanos.wrapping_add(u128::from(nanos).wrapping_mul(u128::from(nanos)));
            min_nanos = min_nanos.min(nanos);
            max_nanos = max_nanos.max(nanos);
        }
        let n_f64 = n as f64;
        let mean_nanos = self.sum_nanos as f64 / n_f64;
        // Cauchy–Schwarz guarantees n·Σx² ≥ (Σx)², so this cannot underflow
        // for any stream whose squared sums fit u128; a wrapped Σx² only
        // garbles the variance (see above), never panics.
        let variance_numerator = (n as u128)
            .wrapping_mul(sum_sq_nanos)
            .wrapping_sub(self.sum_nanos.wrapping_mul(self.sum_nanos));
        let variance_nanos2 = variance_numerator as f64 / (n_f64 * n_f64);
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
/// stored latencies, oldest to newest (where the ring's cursor happens to
/// stand is history, and the sum is a pure function of the contents).
impl PartialEq for SlidingWindow {
    fn eq(&self, other: &Self) -> bool {
        self.capacity() == other.capacity() && self.iter().eq(other.iter())
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
    fn iteration_is_oldest_first_across_a_wrap_and_a_full_replacement() {
        let mut w = SlidingWindow::new(4);
        // Filling: the stored prefix, in push order.
        w.push_slice(&[ms(1), ms(2), ms(3)]);
        assert_eq!(w.iter().collect::<Vec<_>>(), [ms(1), ms(2), ms(3)]);
        // Wrapped: the cursor sits mid-ring, the oldest right behind it.
        w.push_slice(&[ms(4), ms(5), ms(6)]);
        assert_eq!(w.iter().collect::<Vec<_>>(), [ms(3), ms(4), ms(5), ms(6)]);
        assert_eq!(w.total(), ms(18));
        // Replaced outright by a longer slice: its last `capacity` entries.
        w.push_slice(&[ms(7), ms(8), ms(9), ms(10), ms(11), ms(12)]);
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            [ms(9), ms(10), ms(11), ms(12)]
        );
        assert_eq!(w.total(), ms(42));
        // ... and a push after the replacement evicts the oldest of those.
        w.push(ms(13));
        assert_eq!(
            w.iter().collect::<Vec<_>>(),
            [ms(10), ms(11), ms(12), ms(13)]
        );
        // Cleared mid-ring, the window fills from the start again.
        w.clear();
        assert_eq!(w.iter().count(), 0);
        w.push_slice(&[ms(14), ms(15)]);
        assert_eq!(w.iter().collect::<Vec<_>>(), [ms(14), ms(15)]);
        assert_eq!(w.total(), ms(29));
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

        /// Arbitrary interleavings of `push`, `push_slice` (shorter than,
        /// equal to and up to three times longer than the window), `clear`
        /// and near-`u64::MAX` poison leave the ring holding exactly what
        /// the naive deque holds, with every read bit-equal to a direct
        /// `u128` recompute over that sequence — a typed overflow appears,
        /// and heals on eviction, exactly when the naive fold's does.
        #[test]
        fn operation_sequences_match_naive_window_and_direct_recompute(
            capacity in 1usize..24,
            ops in proptest::collection::vec(
                (
                    0u32..10,
                    0usize..1000,
                    proptest::collection::vec(1u64..1_000_000_000_000u64, 72..73),
                ),
                0..48,
            ),
        ) {
            let mut ring = SlidingWindow::new(capacity);
            let mut naive = NaiveSlidingWindow::new(capacity);
            for (op, arg, values) in &ops {
                let slice_len = arg % (3 * capacity + 1);
                match op {
                    0..=3 => {
                        ring.push(TimestampDelta::from_nanos(values[0]));
                        naive.push(TimestampDelta::from_nanos(values[0]));
                    }
                    4..=6 | 9 => {
                        // Op 9 poisons about a third of the slice.
                        let slice: Vec<TimestampDelta> = values[..slice_len]
                            .iter()
                            .map(|&v| if *op == 9 && v % 3 == 0 { u64::MAX - v } else { v })
                            .map(TimestampDelta::from_nanos)
                            .collect();
                        ring.push_slice(&slice);
                        for &latency in &slice {
                            naive.push(latency);
                        }
                    }
                    7 => {
                        ring.clear();
                        naive.clear();
                    }
                    _ => {
                        let poison = TimestampDelta::from_nanos(u64::MAX - *arg as u64);
                        ring.push(poison);
                        naive.push(poison);
                    }
                }

                let stored: Vec<u64> = naive.iter().map(TimestampDelta::as_nanos).collect();
                prop_assert_eq!(
                    ring.iter().map(TimestampDelta::as_nanos).collect::<Vec<_>>(),
                    stored.clone()
                );
                prop_assert_eq!(ring.len(), stored.len());
                prop_assert_eq!(ring.is_empty(), stored.is_empty());
                prop_assert_eq!(ring.is_full(), stored.len() == capacity);

                prop_assert_eq!(ring.try_total(), naive.try_total());
                match (ring.rate(), naive.rate()) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        a.map(|r| r.beats_per_second().to_bits()),
                        b.map(|r| r.beats_per_second().to_bits())
                    ),
                    (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
                }

                let Some(stats) = ring.statistics() else {
                    prop_assert!(stored.is_empty());
                    continue;
                };
                let n = stored.len();
                let sum = stored.iter().fold(0u128, |s, &x| s + u128::from(x));
                let sum_sq = stored.iter().fold(0u128, |s, &x| {
                    s.wrapping_add(u128::from(x).wrapping_mul(u128::from(x)))
                });
                let numerator = (n as u128)
                    .wrapping_mul(sum_sq)
                    .wrapping_sub(sum.wrapping_mul(sum));
                let (min, max) = (stored.iter().min().unwrap(), stored.iter().max().unwrap());
                prop_assert_eq!(stats.count, n);
                prop_assert_eq!(
                    stats.mean_latency_secs.to_bits(),
                    (sum as f64 / n as f64 / 1e9).to_bits()
                );
                prop_assert_eq!(
                    stats.latency_variance.to_bits(),
                    (numerator as f64 / (n as f64 * n as f64) / (1e9 * 1e9)).to_bits()
                );
                prop_assert_eq!(stats.min_latency_secs.to_bits(), (*min as f64 / 1e9).to_bits());
                prop_assert_eq!(stats.max_latency_secs.to_bits(), (*max as f64 / 1e9).to_bits());
            }
        }
    }
}
