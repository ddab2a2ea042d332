//! Reference implementations the optimized ones are tested against.
//!
//! * [`MutexChannel`] — the mutex-guarded channel the serial mutex daemon
//!   (`powerdial_control::daemon::naive`) is built on: the oracle of the
//!   daemon equivalence suites and of `benchmark/`'s output checks.
//! * `NaiveSlidingWindow` (compiled for this crate's tests only) — a
//!   plain deque of latencies that keeps no aggregate at all: `total()`
//!   folds the whole window, `statistics()` collects the latencies into a
//!   scratch `Vec` of `f64` seconds and scans it four times. It is the
//!   oracle for what [`crate::SlidingWindow`] *maintains* — the ring's
//!   stored sequence (`iter()` order across wraps, full replacements and
//!   `clear`), the running integer sum behind `rate()`/`try_total()`
//!   (bit-identical, typed overflow appearing and healing at the same
//!   push) — and an independent floating-point check (to within 1e-9) of
//!   the mean and variance `statistics()` computes on read. The property
//!   tests in `stats.rs` drive both through arbitrary operation
//!   sequences. What the window costs is
//!   `heartbeats.stats.fold_ns_per_beat`, `heartbeats.stats.push_ns` and
//!   `heartbeats.stats.rate_ns` in `BENCHMARK.json`.
//!
//! Do not use either outside tests and benchmarks.

use std::collections::VecDeque;

#[cfg(test)]
use crate::record::HeartRate;
#[cfg(test)]
use crate::stats::{RateStatistics, WindowOverflow};
#[cfg(test)]
use crate::time::TimestampDelta;

/// The keep-nothing, recompute-on-every-read sliding window (test oracle).
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveSlidingWindow {
    capacity: usize,
    latencies: VecDeque<TimestampDelta>,
}

#[cfg(test)]
impl NaiveSlidingWindow {
    /// Creates a window holding at most `capacity` latencies.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sliding window capacity must be at least 1");
        NaiveSlidingWindow {
            capacity,
            latencies: VecDeque::with_capacity(capacity),
        }
    }

    /// Returns the number of latencies currently stored.
    pub fn len(&self) -> usize {
        self.latencies.len()
    }

    /// Returns true when the window holds no latencies.
    pub fn is_empty(&self) -> bool {
        self.latencies.is_empty()
    }

    /// Pushes a new latency, evicting the oldest if the window is full.
    pub fn push(&mut self, latency: TimestampDelta) {
        if self.latencies.len() == self.capacity {
            self.latencies.pop_front();
        }
        self.latencies.push_back(latency);
    }

    /// Removes all stored latencies.
    pub fn clear(&mut self) {
        self.latencies.clear();
    }

    /// Iterates over the stored latencies from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = TimestampDelta> + '_ {
        self.latencies.iter().copied()
    }

    /// Returns the total time spanned by the stored latencies (O(n) fold).
    pub fn total(&self) -> TimestampDelta {
        self.latencies
            .iter()
            .fold(TimestampDelta::ZERO, |acc, &l| acc + l)
    }

    /// Returns the total time spanned by the stored latencies, or a typed
    /// [`WindowOverflow`] when the fold exceeds `u64::MAX` nanoseconds —
    /// the same contract as [`crate::SlidingWindow::try_total`], so the
    /// equivalence proptests can compare the overflow edge too.
    pub fn try_total(&self) -> Result<TimestampDelta, WindowOverflow> {
        let mut nanos: u64 = 0;
        for latency in &self.latencies {
            nanos = nanos
                .checked_add(latency.as_nanos())
                .ok_or(WindowOverflow)?;
        }
        Ok(TimestampDelta::from_nanos(nanos))
    }

    /// Returns the windowed heart rate (O(n): folds the window), mirroring
    /// [`crate::SlidingWindow::rate`]'s typed-overflow contract.
    pub fn rate(&self) -> Result<Option<HeartRate>, WindowOverflow> {
        Ok(HeartRate::from_beats_over(
            self.latencies.len() as u64,
            self.try_total()?,
        ))
    }

    /// Returns summary statistics (O(n) with a scratch allocation per call).
    pub fn statistics(&self) -> Option<RateStatistics> {
        if self.latencies.is_empty() {
            return None;
        }
        let n = self.latencies.len() as f64;
        let secs: Vec<f64> = self.latencies.iter().map(|l| l.as_secs_f64()).collect();
        let mean = secs.iter().sum::<f64>() / n;
        let variance = secs.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n;
        let min = secs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = secs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(RateStatistics {
            count: self.latencies.len(),
            mean_latency_secs: mean,
            latency_variance: variance,
            min_latency_secs: min,
            max_latency_secs: max,
        })
    }
}

/// The mutex-guarded channel baseline the lock-free
/// [`crate::channel`] SPSC ring is benchmarked and equivalence-tested
/// against: a `Mutex<VecDeque>` with the same capacity-bounded,
/// reject-newest backpressure contract. Every push and every drain takes
/// the lock; the drain additionally shifts out of the deque one record at
/// a time.
///
/// Both halves are the same cloneable handle (the mutex serializes all
/// access), which is exactly the generality the lock-free ring gives up to
/// get its wait-free producer.
#[derive(Debug, Clone)]
pub struct MutexChannel<T: Copy> {
    inner: std::sync::Arc<std::sync::Mutex<MutexChannelState<T>>>,
    capacity: usize,
}

#[derive(Debug)]
struct MutexChannelState<T> {
    queue: VecDeque<T>,
    rejected: u64,
    pushed: u64,
}

impl<T: Copy> MutexChannel<T> {
    /// Creates a channel holding at most `capacity` in-flight records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "channel capacity must be at least 1");
        MutexChannel {
            inner: std::sync::Arc::new(std::sync::Mutex::new(MutexChannelState {
                queue: VecDeque::with_capacity(capacity),
                rejected: 0,
                pushed: 0,
            })),
            capacity,
        }
    }

    /// Pushes one record, rejecting it (backpressure) when the channel is
    /// full — the same contract as the lock-free producer's `try_push`.
    ///
    /// # Errors
    ///
    /// Returns the record back when the channel holds `capacity` records.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let mut state = self.inner.lock().expect("channel mutex poisoned");
        if state.queue.len() >= self.capacity {
            state.rejected += 1;
            return Err(value);
        }
        state.queue.push_back(value);
        state.pushed += 1;
        Ok(())
    }

    /// Drains every pending record into `out` (cleared first), oldest
    /// first, and returns how many were drained.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        out.clear();
        let mut state = self.inner.lock().expect("channel mutex poisoned");
        out.extend(state.queue.drain(..));
        out.len()
    }

    /// Drains at most `cap` pending records into `out` (cleared first),
    /// oldest first, and returns how many were drained; the rest stay
    /// queued for the next drain.
    pub fn drain_into_capped(&self, out: &mut Vec<T>, cap: usize) -> usize {
        out.clear();
        let mut state = self.inner.lock().expect("channel mutex poisoned");
        let take = state.queue.len().min(cap);
        out.extend(state.queue.drain(..take));
        take
    }

    /// Number of records currently pending.
    pub fn pending(&self) -> usize {
        self.inner
            .lock()
            .expect("channel mutex poisoned")
            .queue
            .len()
    }

    /// Number of pushes rejected so far because the channel was full.
    pub fn rejected(&self) -> u64 {
        self.inner.lock().expect("channel mutex poisoned").rejected
    }

    /// Total records successfully pushed.
    pub fn pushed(&self) -> u64 {
        self.inner.lock().expect("channel mutex poisoned").pushed
    }

    /// The channel's capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod channel_tests {
    use super::*;

    #[test]
    fn mutex_channel_matches_lock_free_contract() {
        let channel = MutexChannel::new(3);
        assert_eq!(channel.capacity(), 3);
        for i in 0..3u32 {
            channel.try_push(i).unwrap();
        }
        assert_eq!(channel.try_push(9), Err(9));
        assert_eq!(channel.rejected(), 1);
        assert_eq!(channel.pushed(), 3);
        assert_eq!(channel.pending(), 3);

        let mut out = Vec::new();
        assert_eq!(channel.drain_into(&mut out), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(channel.pending(), 0);
        channel.try_push(7).unwrap();
        assert_eq!(channel.pending(), 1);
    }
}
