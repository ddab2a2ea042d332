//! The heartbeat monitor: per-application heartbeat emission and rate
//! tracking.

use serde::{Deserialize, Serialize};

use crate::error::HeartbeatError;
use crate::record::{HeartRate, HeartbeatRecord, HeartbeatTag};
use crate::stats::{RateStatistics, SlidingWindow};
use crate::time::{Timestamp, TimestampDelta};

/// Default number of heartbeats in the sliding window (the paper's control
/// system smooths performance over the last twenty heartbeats).
pub const DEFAULT_WINDOW_SIZE: usize = 20;

/// A target heart-rate range: the performance goal of the application.
///
/// PowerDial's experiments set the minimum and maximum to the same value
/// (the heart rate measured with the default configuration), but the
/// framework supports genuine ranges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TargetRate {
    min: HeartRate,
    max: HeartRate,
}

impl TargetRate {
    /// Creates a target range from minimum and maximum beats-per-second
    /// values.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::InvalidTargetRange`] if either bound is not
    /// finite, either is negative, or `min > max`.
    pub fn new(min_bps: f64, max_bps: f64) -> Result<Self, HeartbeatError> {
        if !min_bps.is_finite() || !max_bps.is_finite() || min_bps < 0.0 || min_bps > max_bps {
            return Err(HeartbeatError::InvalidTargetRange {
                min: min_bps,
                max: max_bps,
            });
        }
        Ok(TargetRate {
            min: HeartRate::from_bps(min_bps),
            max: HeartRate::from_bps(max_bps),
        })
    }

    /// Creates a degenerate range whose minimum and maximum are the same
    /// rate, as used throughout the paper's evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::InvalidTargetRange`] if `bps` is negative or
    /// not finite.
    pub fn exact(bps: f64) -> Result<Self, HeartbeatError> {
        TargetRate::new(bps, bps)
    }

    /// Lower bound of the range.
    pub const fn min(&self) -> HeartRate {
        self.min
    }

    /// Upper bound of the range.
    pub const fn max(&self) -> HeartRate {
        self.max
    }

    /// Midpoint of the range, the single rate the controller drives toward.
    pub fn midpoint(&self) -> HeartRate {
        HeartRate::from_bps((self.min.beats_per_second() + self.max.beats_per_second()) / 2.0)
    }
}

/// Configuration of a [`HeartbeatMonitor`].
///
/// # Example
///
/// ```
/// use powerdial_heartbeats::MonitorConfig;
///
/// # fn main() -> Result<(), powerdial_heartbeats::HeartbeatError> {
/// let config = MonitorConfig::new("bodytrack")
///     .with_window_size(20)
///     .with_target_rate_range(0.5, 1.5)?;
/// assert_eq!(config.name(), "bodytrack");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorConfig {
    name: String,
    window_size: usize,
    target: Option<TargetRate>,
}

impl MonitorConfig {
    /// Creates a configuration with the default window size and no target
    /// rate.
    pub fn new(name: impl Into<String>) -> Self {
        MonitorConfig {
            name: name.into(),
            window_size: DEFAULT_WINDOW_SIZE,
            target: None,
        }
    }

    /// Sets the sliding-window size in heartbeats.
    ///
    /// # Panics
    ///
    /// Panics if `window_size` is zero; use
    /// [`MonitorConfig::try_with_window_size`] for a fallible variant.
    pub fn with_window_size(mut self, window_size: usize) -> Self {
        assert!(window_size > 0, "window size must be at least 1");
        self.window_size = window_size;
        self
    }

    /// Fallible variant of [`MonitorConfig::with_window_size`].
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::ZeroWindowSize`] when `window_size` is zero.
    pub fn try_with_window_size(mut self, window_size: usize) -> Result<Self, HeartbeatError> {
        if window_size == 0 {
            return Err(HeartbeatError::ZeroWindowSize);
        }
        self.window_size = window_size;
        Ok(self)
    }

    /// Sets the target heart-rate range in beats per second.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::InvalidTargetRange`] for an invalid range.
    pub fn with_target_rate_range(
        mut self,
        min_bps: f64,
        max_bps: f64,
    ) -> Result<Self, HeartbeatError> {
        self.target = Some(TargetRate::new(min_bps, max_bps)?);
        Ok(self)
    }

    /// Sets an already-validated target rate.
    pub fn with_target(mut self, target: TargetRate) -> Self {
        self.target = Some(target);
        self
    }

    /// The application name attached to heartbeats from this monitor.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured sliding-window size.
    pub fn window_size(&self) -> usize {
        self.window_size
    }

    /// The configured target range, if any. Panics are avoided by returning a
    /// permissive default of `[0, +inf)`-like wide range when unset via
    /// [`MonitorConfig::target`]; use [`MonitorConfig::target_opt`] to see
    /// whether a target was set explicitly.
    pub fn target(&self) -> TargetRate {
        self.target.unwrap_or(TargetRate {
            min: HeartRate::from_bps(0.0),
            max: HeartRate::from_bps(f64::MAX / 2.0),
        })
    }

    /// The explicitly configured target range, if any.
    pub fn target_opt(&self) -> Option<TargetRate> {
        self.target
    }
}

/// Tracks the heartbeats of one application instance.
///
/// The monitor is the producer side of the Application Heartbeats interface:
/// the application calls [`HeartbeatMonitor::heartbeat`] once per unit of
/// work; observers (the PowerDial controller, experiment harnesses) read the
/// derived heart rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeartbeatMonitor {
    config: MonitorConfig,
    window: SlidingWindow,
    last_record: Option<HeartbeatRecord>,
    next_tag: HeartbeatTag,
    first_timestamp: Option<Timestamp>,
    last_timestamp: Option<Timestamp>,
    total_beats: u64,
}

impl HeartbeatMonitor {
    /// Creates a monitor from its configuration.
    pub fn new(config: MonitorConfig) -> Self {
        let window = SlidingWindow::new(config.window_size());
        HeartbeatMonitor {
            config,
            window,
            last_record: None,
            next_tag: HeartbeatTag::default(),
            first_timestamp: None,
            last_timestamp: None,
            total_beats: 0,
        }
    }

    /// Returns the monitor's configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Emits a heartbeat at `now`, returning the record for this beat.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous heartbeat; use
    /// [`HeartbeatMonitor::try_heartbeat`] for a fallible variant.
    pub fn heartbeat(&mut self, now: Timestamp) -> HeartbeatRecord {
        self.try_heartbeat(now)
            .expect("heartbeat timestamps must be monotone")
    }

    /// Emits a heartbeat at `now`, returning the record for this beat.
    ///
    /// # Errors
    ///
    /// Returns [`HeartbeatError::NonMonotonicTimestamp`] if `now` precedes
    /// the previous heartbeat.
    pub fn try_heartbeat(&mut self, now: Timestamp) -> Result<HeartbeatRecord, HeartbeatError> {
        if let Some(last) = self.last_timestamp {
            if now < last {
                return Err(HeartbeatError::NonMonotonicTimestamp {
                    previous_nanos: last.as_nanos(),
                    current_nanos: now.as_nanos(),
                });
            }
        }

        let latency = match self.last_timestamp {
            Some(last) => now - last,
            None => TimestampDelta::ZERO,
        };

        if self.last_timestamp.is_some() {
            self.window.push(latency);
        }

        let tag = self.next_tag;
        self.next_tag = self.next_tag.next();
        self.total_beats += 1;
        if self.first_timestamp.is_none() {
            self.first_timestamp = Some(now);
        }
        self.last_timestamp = Some(now);

        let record = HeartbeatRecord {
            tag,
            timestamp: now,
            latency,
            instant_rate: HeartRate::from_latency(latency),
            window_rate: self.window.rate().unwrap_or(None),
            global_rate: self.global_rate(),
        };

        self.last_record = Some(record);
        Ok(record)
    }

    /// Total number of heartbeats emitted so far.
    pub fn total_beats(&self) -> u64 {
        self.total_beats
    }

    /// Timestamp of the first heartbeat, if any beat has been emitted.
    pub fn first_timestamp(&self) -> Option<Timestamp> {
        self.first_timestamp
    }

    /// Timestamp of the most recent heartbeat, if any beat has been emitted.
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.last_timestamp
    }

    /// The most recent heartbeat record, if any.
    pub fn last_record(&self) -> Option<&HeartbeatRecord> {
        self.last_record.as_ref()
    }

    /// The heart rate over the sliding window, if at least two beats have
    /// been emitted. Monitor-side latencies come from monotonic timestamp
    /// differences, so a summed-latency overflow (more than five centuries
    /// in one window) is treated as "no rate" rather than surfaced.
    pub fn window_rate(&self) -> Option<HeartRate> {
        self.window.rate().unwrap_or(None)
    }

    /// The heart rate over the whole execution (total beats minus one divided
    /// by the elapsed time), if defined.
    pub fn global_rate(&self) -> Option<HeartRate> {
        match (self.first_timestamp, self.last_timestamp) {
            (Some(first), Some(last)) if self.total_beats > 1 => {
                HeartRate::from_beats_over(self.total_beats - 1, last - first)
            }
            _ => None,
        }
    }

    /// Latency statistics over the sliding window, if any latency has been
    /// observed.
    pub fn window_statistics(&self) -> Option<RateStatistics> {
        self.window.statistics()
    }

    /// Returns the windowed rate normalized to the target midpoint: 1.0 means
    /// exactly on target, below 1.0 means the application is running slow.
    /// `None` when no window rate or no explicit target is available.
    pub fn normalized_performance(&self) -> Option<f64> {
        let target = self.config.target_opt()?;
        let rate = self.window_rate()?;
        Some(rate.normalized_to(target.midpoint()))
    }

    /// Resets the monitor to its initial state, keeping the configuration.
    pub fn reset(&mut self) {
        self.window.clear();
        self.last_record = None;
        self.next_tag = HeartbeatTag::default();
        self.first_timestamp = None;
        self.last_timestamp = None;
        self.total_beats = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor_with_window(window: usize) -> HeartbeatMonitor {
        HeartbeatMonitor::new(MonitorConfig::new("test").with_window_size(window))
    }

    #[test]
    fn first_heartbeat_has_zero_latency_and_no_rates() {
        let mut m = monitor_with_window(4);
        let record = m.heartbeat(Timestamp::from_millis(100));
        assert_eq!(record.tag, HeartbeatTag(0));
        assert_eq!(record.latency, TimestampDelta::ZERO);
        assert!(record.instant_rate.is_none());
        assert!(record.window_rate.is_none());
        assert!(record.global_rate.is_none());
    }

    #[test]
    fn steady_beats_produce_steady_rates() {
        let mut m = monitor_with_window(4);
        for i in 0..10u64 {
            m.heartbeat(Timestamp::from_millis(100 * i));
        }
        let window = m.window_rate().unwrap().beats_per_second();
        let global = m.global_rate().unwrap().beats_per_second();
        assert!((window - 10.0).abs() < 1e-9);
        assert!((global - 10.0).abs() < 1e-9);
    }

    #[test]
    fn window_rate_tracks_recent_slowdown() {
        let mut m = monitor_with_window(2);
        m.heartbeat(Timestamp::from_millis(0));
        m.heartbeat(Timestamp::from_millis(10));
        m.heartbeat(Timestamp::from_millis(20));
        // Sudden slowdown: next beats are 100 ms apart.
        m.heartbeat(Timestamp::from_millis(120));
        m.heartbeat(Timestamp::from_millis(220));
        let window = m.window_rate().unwrap().beats_per_second();
        assert!(
            (window - 10.0).abs() < 1e-9,
            "window rate should reflect the slowdown"
        );
        // Global rate still remembers the fast beginning.
        assert!(m.global_rate().unwrap().beats_per_second() > window);
    }

    #[test]
    fn non_monotonic_timestamp_is_rejected() {
        let mut m = monitor_with_window(4);
        m.heartbeat(Timestamp::from_millis(50));
        let err = m.try_heartbeat(Timestamp::from_millis(40)).unwrap_err();
        assert!(matches!(err, HeartbeatError::NonMonotonicTimestamp { .. }));
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let mut m = monitor_with_window(4);
        m.heartbeat(Timestamp::from_millis(10));
        let record = m.try_heartbeat(Timestamp::from_millis(10)).unwrap();
        assert_eq!(record.latency, TimestampDelta::ZERO);
        assert_eq!(m.last_record(), Some(&record));
    }

    #[test]
    fn normalized_performance_requires_target() {
        let mut without_target = monitor_with_window(4);
        without_target.heartbeat(Timestamp::from_millis(0));
        without_target.heartbeat(Timestamp::from_millis(10));
        assert!(without_target.normalized_performance().is_none());

        let config = MonitorConfig::new("t")
            .with_window_size(4)
            .with_target_rate_range(50.0, 50.0)
            .unwrap();
        let mut with_target = HeartbeatMonitor::new(config);
        with_target.heartbeat(Timestamp::from_millis(0));
        with_target.heartbeat(Timestamp::from_millis(20));
        // 50 bps observed vs 50 bps target.
        assert!((with_target.normalized_performance().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut m = monitor_with_window(4);
        for i in 0..5u64 {
            m.heartbeat(Timestamp::from_millis(i * 10));
        }
        m.reset();
        assert_eq!(m.total_beats(), 0);
        assert!(m.last_record().is_none());
        assert!(m.window_rate().is_none());
        assert!(m.global_rate().is_none());
        let record = m.heartbeat(Timestamp::from_millis(999));
        assert_eq!(record.tag, HeartbeatTag(0));
    }

    #[test]
    fn target_range_validation() {
        assert!(TargetRate::new(5.0, 1.0).is_err());
        assert!(TargetRate::new(-1.0, 1.0).is_err());
        assert!(TargetRate::new(f64::NAN, 1.0).is_err());
        let range = TargetRate::new(10.0, 30.0).unwrap();
        assert!((range.midpoint().beats_per_second() - 20.0).abs() < 1e-9);
        assert_eq!(
            TargetRate::exact(7.0).unwrap().min(),
            HeartRate::from_bps(7.0)
        );
    }

    #[test]
    fn config_builder_round_trip() {
        let config = MonitorConfig::new("swaptions")
            .try_with_window_size(8)
            .unwrap()
            .with_target_rate_range(1.0, 2.0)
            .unwrap();
        assert_eq!(config.name(), "swaptions");
        assert_eq!(config.window_size(), 8);
        assert!(config.target_opt().is_some());
        assert!(MonitorConfig::new("x").try_with_window_size(0).is_err());
    }

    #[test]
    fn default_target_is_permissive() {
        let config = MonitorConfig::new("no-target");
        let rate = HeartRate::from_bps(123.0);
        assert!(rate.is_within_target(config.target()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Heart-rate monotonicity: for evenly spaced beats the windowed rate
        /// equals the reciprocal of the spacing, regardless of window size.
        #[test]
        fn uniform_beats_give_exact_rate(
            window in 1usize..64,
            period_ms in 1u64..10_000,
            beats in 2u64..200,
        ) {
            let mut m = HeartbeatMonitor::new(
                MonitorConfig::new("prop").with_window_size(window),
            );
            for i in 0..beats {
                m.heartbeat(Timestamp::from_millis(i * period_ms));
            }
            let expected = 1000.0 / period_ms as f64;
            let window_rate = m.window_rate().unwrap().beats_per_second();
            let global_rate = m.global_rate().unwrap().beats_per_second();
            prop_assert!((window_rate - expected).abs() <= 1e-6 * expected);
            prop_assert!((global_rate - expected).abs() <= 1e-6 * expected);
        }

        /// The monitor accepts any monotone timestamp sequence and tags beats
        /// sequentially.
        #[test]
        fn monotone_sequences_are_accepted(
            mut offsets in proptest::collection::vec(0u64..1_000_000u64, 1..100),
        ) {
            offsets.sort_unstable();
            let mut m = HeartbeatMonitor::new(MonitorConfig::new("prop"));
            for (i, nanos) in offsets.iter().enumerate() {
                let record = m.try_heartbeat(Timestamp::from_nanos(*nanos)).unwrap();
                prop_assert_eq!(record.tag, HeartbeatTag(i as u64));
            }
            prop_assert_eq!(m.total_beats(), offsets.len() as u64);
        }
    }
}
