//! The seeded beat stream every workload is generated from, and the one
//! control problem every app is registered with.
//!
//! An app's simulated clock advances by one pace per beat. The pace of a
//! quantum is set by the speedup the daemon *currently publishes* for that
//! app and by a seeded capacity schedule over {0.5, 0.35, 0.75}: never
//! 1.0 and never the same value twice running, so the integral controller
//! never sits on a fixed point and every quantum boundary changes the
//! decision — which is what lets a probe see a reaction at all. The product
//! sees only the generated beats; the seed never reaches it.

use std::sync::Arc;

use powerdial_control::{ControllerConfig, DaemonConfig, RuntimeConfig};
use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
use powerdial_heartbeats::{Timestamp, TimestampDelta};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

/// Target (and baseline) heart rate of every app, beats per second.
pub const TARGET_RATE_BPS: f64 = 30.0;
/// The paper's actuation quantum and rate window, in heartbeats.
pub const QUANTUM: usize = 20;
/// Knob settings in every app's synthetic table.
pub const SETTINGS: usize = 8;
/// Ring capacity per app: three quanta, rounded to the power of two the
/// shared-memory geometry wants. A workload never has more than one quantum
/// in flight, so a rejected beat is a failure, not backpressure.
pub const RING_CAPACITY: usize = 64;

const CAPACITIES: [f64; 3] = [0.5, 0.35, 0.75];

/// splitmix64: the benchmark's only randomness.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One app's side of the stream: its capacity schedule and its clock.
pub struct AppStream {
    rng: SplitMix64,
    capacity: usize,
    now: Timestamp,
    pace: TimestampDelta,
}

impl AppStream {
    pub fn new(seed: u64, app: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ (app as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93));
        let capacity = (rng.next_u64() % 3) as usize;
        AppStream {
            rng,
            capacity,
            now: Timestamp::ZERO,
            pace: TimestampDelta::from_secs_f64(1.0 / TARGET_RATE_BPS),
        }
    }

    /// Starts the app's next quantum: steps the capacity schedule to one of
    /// the two *other* values and fixes the quantum's pace from it and the
    /// currently published speedup.
    pub fn begin_quantum(&mut self, published_speedup: f64) {
        self.capacity = (self.capacity + 1 + (self.rng.next_u64() & 1) as usize) % 3;
        let rate = TARGET_RATE_BPS * CAPACITIES[self.capacity] * published_speedup.max(1.0);
        self.pace = TimestampDelta::from_secs_f64(1.0 / rate);
    }

    /// The emission time of the app's next beat.
    #[inline]
    pub fn next_beat(&mut self) -> Timestamp {
        self.now += self.pace;
        self.now
    }
}

/// The 8-point synthetic knob table: speedups 4^(i/7) from 1 to 4, QoS loss
/// growing with speedup (the shape the legacy `hotpath`/`multiapp` bins
/// use, rebuilt here so the benchmark depends on product crates only).
pub fn knob_table() -> KnobTable {
    let values: Vec<f64> = (0..SETTINGS).map(|i| i as f64).collect();
    let space = ParameterSpace::builder()
        .parameter(ConfigParameter::new("knob", values, 0.0).expect("valid parameter"))
        .build()
        .expect("valid space");
    let points = (0..SETTINGS)
        .map(|i| {
            let speedup = 4.0f64.powf(i as f64 / (SETTINGS - 1) as f64);
            CalibrationPoint {
                setting_index: i,
                setting: space.setting(i).expect("index in range"),
                speedup,
                qos_loss: QosLoss::new((speedup - 1.0) * 0.03),
            }
        })
        .collect();
    KnobTable::from_points(points, 0, QosLossBound::UNBOUNDED).expect("non-empty table")
}

pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::new(
        ControllerConfig::new(TARGET_RATE_BPS, TARGET_RATE_BPS).expect("valid controller"),
    )
}

/// The daemon configuration every workload shares; only the worker count
/// (and, for the telemetry-tax measurement, the telemetry switch) varies.
pub fn daemon_config(workers: usize, telemetry: bool) -> DaemonConfig {
    DaemonConfig {
        workers,
        channel_capacity: RING_CAPACITY,
        window_size: QUANTUM,
        inline_apps: DaemonConfig::DEFAULT_INLINE_APPS,
        idle_skip_limit: 0,
        drain_cap: 0,
        telemetry,
        trace_capacity: DaemonConfig::DEFAULT_TRACE_CAPACITY,
        safe_point: 0,
    }
}

/// A fresh mapped segment with both halves attached in this process.
pub fn shm_pair() -> (ShmProducer, ShmConsumer) {
    let geometry = SegmentGeometry::for_beat_samples(RING_CAPACITY).expect("valid geometry");
    let segment = Arc::new(Segment::create(geometry).expect("create a segment"));
    let producer = ShmProducer::attach(Arc::clone(&segment)).expect("attach producer");
    let consumer = ShmConsumer::attach(segment).expect("attach consumer");
    (producer, consumer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_stream_and_capacity_never_repeats() {
        let mut a = AppStream::new(7, 3);
        let mut b = AppStream::new(7, 3);
        let mut other = AppStream::new(8, 3);
        let mut differs = false;
        let mut previous = a.capacity;
        for _ in 0..200 {
            a.begin_quantum(1.7);
            b.begin_quantum(1.7);
            other.begin_quantum(1.7);
            assert_ne!(a.capacity, previous, "a pace change every quantum");
            previous = a.capacity;
            let (ta, tb) = (a.next_beat(), b.next_beat());
            assert_eq!(ta, tb);
            differs |= ta != other.next_beat();
        }
        assert!(differs, "another seed gives another stream");
    }
}
