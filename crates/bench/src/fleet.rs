//! The synthetic fleet the chaos and adversarial harnesses and the
//! telemetry-snapshot tests run on: a geometric knob table any number of
//! applications can be served, and a closed loop of N such applications
//! on one in-process [`PowerDialDaemon`].
//!
//! The simulated applications respond to control: each quantum's beat
//! latencies derive from the gain the daemon last decided and a stepped
//! capacity schedule, so controllers keep re-planning rather than settling
//! into a single branch-predicted path.
//!
//! What the daemon *costs* is not measured here: that is `benchmark/`
//! (`BENCHMARK.json`).

use powerdial::control::daemon::{AppHandle, DaemonConfig, PowerDialDaemon};
use powerdial::control::{ControllerConfig, RuntimeConfig};
use powerdial::heartbeats::{Timestamp, TimestampDelta};
use powerdial::knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

/// Target heart rate of every synthetic application, in beats per second.
pub const TARGET_RATE_BPS: f64 = 30.0;

/// Heartbeats each application emits per actuation quantum (the paper's
/// 20-beat quantum).
pub const BEATS_PER_QUANTUM: usize = 20;

/// Knob settings in each application's synthetic table.
const SETTINGS: usize = 8;

/// Channel capacity: two quanta of slack over the per-tick burst.
const CHANNEL_CAPACITY: usize = BEATS_PER_QUANTUM * 3;

/// Builds a synthetic Pareto-optimal knob table with `settings` points whose
/// speedups rise geometrically from 1 (baseline) to ~4, mimicking the shape
/// of the paper's calibrated applications.
///
/// # Panics
///
/// Panics when `settings` is zero.
pub fn synthetic_knob_table(settings: usize) -> KnobTable {
    assert!(settings > 0, "knob table needs at least one setting");
    let values: Vec<f64> = (0..settings).map(|i| i as f64).collect();
    let space = ParameterSpace::builder()
        .parameter(ConfigParameter::new("knob", values, 0.0).expect("valid parameter"))
        .build()
        .expect("valid space");
    let points: Vec<CalibrationPoint> = (0..settings)
        .map(|i| {
            let fraction = if settings > 1 {
                i as f64 / (settings - 1) as f64
            } else {
                0.0
            };
            let speedup = 4.0f64.powf(fraction);
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

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::new(
        ControllerConfig::new(TARGET_RATE_BPS, TARGET_RATE_BPS).expect("valid controller"),
    )
}

/// The platform capacity available to app `index` at quantum `quantum`:
/// stepped per-app so different apps are in different control regimes at
/// any instant (as real consolidated machines would be).
fn capacity_at(index: usize, quantum: u64) -> f64 {
    match (quantum / 50 + index as u64) % 4 {
        0 => 1.0,
        1 => 0.5,
        2 => 0.75,
        _ => 0.35,
    }
}

/// One simulated application: its daemon handle and local clock.
struct SimApp {
    handle: AppHandle,
    now: Timestamp,
}

/// The closed loop: N apps → SPSC rings → sharded daemon.
pub struct DaemonMultiAppLoop {
    daemon: PowerDialDaemon,
    apps: Vec<SimApp>,
    quantum: u64,
}

impl DaemonMultiAppLoop {
    /// Builds the loop with `app_count` registered applications and
    /// `workers` shard threads (0 = inline on the caller), telemetry on
    /// (the production default).
    pub fn new(app_count: usize, workers: usize) -> Self {
        Self::with_telemetry(app_count, workers, true)
    }

    /// [`DaemonMultiAppLoop::new`] with the telemetry plane switchable.
    pub fn with_telemetry(app_count: usize, workers: usize, telemetry: bool) -> Self {
        let mut daemon = PowerDialDaemon::new(DaemonConfig {
            workers,
            channel_capacity: CHANNEL_CAPACITY,
            window_size: BEATS_PER_QUANTUM,
            telemetry,
            ..DaemonConfig::default()
        })
        .expect("valid daemon config");
        let apps = (0..app_count)
            .map(|_| SimApp {
                handle: daemon
                    .register(runtime_config(), synthetic_knob_table(SETTINGS))
                    .expect("valid runtime config"),
                now: Timestamp::ZERO,
            })
            .collect();
        DaemonMultiAppLoop {
            daemon,
            apps,
            quantum: 0,
        }
    }

    /// Runs one actuation quantum: every app emits its beats, then the
    /// daemon drains and controls. Returns beats processed this quantum.
    pub fn step(&mut self) -> u64 {
        let quantum = self.quantum;
        for (index, app) in self.apps.iter_mut().enumerate() {
            let gain = app.handle.latest_gain().unwrap_or(1.0).max(1.0);
            let capacity = capacity_at(index, quantum);
            let latency = TimestampDelta::from_secs_f64(1.0 / (TARGET_RATE_BPS * capacity * gain));
            for _ in 0..BEATS_PER_QUANTUM {
                app.now += latency;
                // A full ring rejects the beat (backpressure); the clock
                // moves on regardless.
                let _ = app.handle.beat(app.now);
            }
        }
        self.quantum += 1;
        self.daemon.tick()
    }

    /// Worker threads in use.
    pub fn workers(&self) -> usize {
        self.daemon.workers()
    }

    /// Total beats processed by the daemon so far.
    pub fn total_beats(&self) -> u64 {
        self.daemon.total_beats()
    }

    /// The daemon's cold-path telemetry snapshot (empty with telemetry
    /// off).
    pub fn telemetry_snapshot(&mut self) -> powerdial::control::telemetry::TelemetrySnapshot {
        self.daemon.telemetry_snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_loop_processes_every_emitted_beat() {
        let mut bench = DaemonMultiAppLoop::new(4, 0);
        let mut beats = 0;
        for _ in 0..50 {
            beats += bench.step();
        }
        assert_eq!(beats, 50 * 4 * BEATS_PER_QUANTUM as u64);
        assert_eq!(bench.total_beats(), beats);
        assert_eq!(bench.workers(), 0);
    }

    #[test]
    fn threaded_daemon_loop_loses_nothing() {
        let workers = 2;
        let mut bench = DaemonMultiAppLoop::new(8, workers);
        assert_eq!(bench.workers(), workers);
        let mut beats = 0;
        for _ in 0..25 {
            beats += bench.step();
        }
        assert_eq!(beats, 25 * 8 * BEATS_PER_QUANTUM as u64);
    }
}
