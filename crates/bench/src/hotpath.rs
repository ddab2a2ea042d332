//! Shared harness for the heartbeat→controller→actuator hot-path benchmarks.
//!
//! The PowerDial premise is that the control loop is cheap enough to run
//! once per heartbeat without perturbing the application it controls. This
//! module builds the closed loop the way a real deployment wires it —
//! monitor (windowed rate) → controller (speedup) → actuator (knob
//! schedule) — and steps it one heartbeat at a time, for the `hotpath`
//! binary (which emits `BENCH_hotpath.json`).
//!
//! Two variants exist:
//!
//! * [`HotPathLoop`] — the optimized O(1), allocation-free path:
//!   incremental [`SlidingWindow`] statistics plus the index-based
//!   [`PowerDialRuntime::on_heartbeat_idx`];
//! * [`NaiveHotPathLoop`] — the checked-in pre-optimization baseline:
//!   recompute-on-read [`NaiveSlidingWindow`] rates plus the clone-based
//!   [`NaivePowerDialRuntime`].

use powerdial::control::naive::NaivePowerDialRuntime;
use powerdial::control::{ControllerConfig, PowerDialRuntime, RuntimeConfig};
use powerdial::heartbeats::naive::NaiveSlidingWindow;
use powerdial::heartbeats::{HeartbeatMonitor, MonitorConfig, SlidingWindow, Timestamp};
use powerdial::knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

/// Target heart rate for the benchmark loop, in beats per second.
pub const TARGET_RATE_BPS: f64 = 30.0;

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

/// A power-capacity schedule: the fraction of nominal machine speed
/// available, stepped so the controller keeps re-planning (mirrors the
/// paper's power-cap experiment).
fn capacity_at(beat: u64) -> f64 {
    match (beat / 5_000) % 4 {
        0 => 1.0,
        1 => 0.5,
        2 => 0.75,
        _ => 0.35,
    }
}

/// The optimized closed loop: monitor → controller → actuator, all O(1)
/// per heartbeat and allocation-free in steady state.
pub struct HotPathLoop {
    monitor: HeartbeatMonitor,
    runtime: PowerDialRuntime,
    now: Timestamp,
    beat: u64,
}

impl HotPathLoop {
    /// Builds the loop over a synthetic `settings`-point knob table with the
    /// given sliding-window size and history retention.
    pub fn new(settings: usize, window_size: usize, history: usize) -> Self {
        let table = synthetic_knob_table(settings);
        let config = RuntimeConfig::new(
            ControllerConfig::new(TARGET_RATE_BPS, TARGET_RATE_BPS).expect("valid controller"),
        );
        let runtime = PowerDialRuntime::new(config, table).expect("valid runtime");
        let monitor = HeartbeatMonitor::new(
            MonitorConfig::new("hotpath")
                .with_window_size(window_size)
                .with_history_capacity(Some(history)),
        );
        HotPathLoop {
            monitor,
            runtime,
            now: Timestamp::ZERO,
            beat: 0,
        }
    }

    /// One full iteration: read the windowed rate, step the runtime, apply
    /// the decided gain to the simulated work unit, emit the heartbeat.
    /// Returns the decided knob gain (so callers can black-box it).
    #[inline]
    pub fn step(&mut self) -> f64 {
        let observed = self.monitor.window_rate().map(|r| r.beats_per_second());
        let decision = self.runtime.on_heartbeat_idx(observed);
        let capacity = capacity_at(self.beat);
        let latency_secs = 1.0 / (TARGET_RATE_BPS * capacity * decision.gain);
        self.now += powerdial::heartbeats::TimestampDelta::from_secs_f64(latency_secs);
        self.monitor.heartbeat(self.now);
        self.beat += 1;
        decision.gain
    }

    /// The monitor driven by this loop (for post-run inspection).
    pub fn monitor(&self) -> &HeartbeatMonitor {
        &self.monitor
    }
}

/// The pre-optimization closed loop: O(n) recompute-on-read rate queries
/// and the clone-per-beat runtime.
pub struct NaiveHotPathLoop {
    window: NaiveSlidingWindow,
    runtime: NaivePowerDialRuntime,
    last_latency_secs: f64,
    beat: u64,
}

impl NaiveHotPathLoop {
    /// Builds the baseline loop over the same synthetic table and window
    /// size as [`HotPathLoop::new`].
    pub fn new(settings: usize, window_size: usize) -> Self {
        let table = synthetic_knob_table(settings);
        let config = RuntimeConfig::new(
            ControllerConfig::new(TARGET_RATE_BPS, TARGET_RATE_BPS).expect("valid controller"),
        );
        let runtime = NaivePowerDialRuntime::new(config, table).expect("valid runtime");
        NaiveHotPathLoop {
            window: NaiveSlidingWindow::new(window_size),
            runtime,
            last_latency_secs: 0.0,
            beat: 0,
        }
    }

    /// One full iteration of the baseline loop; returns the decided gain.
    #[inline]
    pub fn step(&mut self) -> f64 {
        let observed = self
            .window
            .rate()
            .expect("no overflow")
            .map(|r| r.beats_per_second());
        let decision = self.runtime.on_heartbeat(observed);
        let capacity = capacity_at(self.beat);
        self.last_latency_secs = 1.0 / (TARGET_RATE_BPS * capacity * decision.gain);
        // The monitor-based loop never sees the first unit's latency (the
        // first heartbeat has latency zero by convention); mirror that so
        // both loops observe identical windows.
        if self.beat > 0 {
            self.window
                .push(powerdial::heartbeats::TimestampDelta::from_secs_f64(
                    self.last_latency_secs,
                ));
        }
        self.beat += 1;
        decision.gain
    }
}

/// Builds a pair of fully-warmed sliding windows (incremental and naive)
/// with identical contents, for the statistics-query micro-benchmarks.
pub fn warmed_windows(window_size: usize) -> (SlidingWindow, NaiveSlidingWindow) {
    let mut incremental = SlidingWindow::new(window_size);
    let mut naive = NaiveSlidingWindow::new(window_size);
    // Pseudo-random latencies around the 33 ms a 30 beats/s loop sees.
    let mut state = 0x9E37_79B9u64;
    for _ in 0..window_size * 2 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let jitter = (state >> 33) % 20_000_000;
        let latency = powerdial::heartbeats::TimestampDelta::from_nanos(23_000_000 + jitter);
        incremental.push(latency);
        naive.push(latency);
    }
    (incremental, naive)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loops_converge_to_target_rate() {
        let mut optimized = HotPathLoop::new(8, 20, 64);
        for _ in 0..2_000 {
            optimized.step();
        }
        let rate = optimized
            .monitor()
            .window_rate()
            .unwrap()
            .beats_per_second();
        assert!(
            (rate - TARGET_RATE_BPS).abs() < 10.0,
            "hot loop should track the target, got {rate}"
        );
    }

    #[test]
    fn optimized_and_naive_loops_decide_identically() {
        let mut optimized = HotPathLoop::new(8, 20, 64);
        let mut naive = NaiveHotPathLoop::new(8, 20);
        for beat in 0..500 {
            let a = optimized.step();
            let b = naive.step();
            assert_eq!(a.to_bits(), b.to_bits(), "gain diverged at beat {beat}");
        }
    }

    #[test]
    fn warmed_windows_agree() {
        let (incremental, naive) = warmed_windows(128);
        assert_eq!(incremental.len(), 128);
        let a = incremental.statistics().unwrap();
        let b = naive.statistics().unwrap();
        assert!((a.mean_latency_secs - b.mean_latency_secs).abs() < 1e-12);
    }
}
