//! Equivalence: the daemon-driven control path decides exactly what the
//! serial single-app simulation decides, beat for beat.
//!
//! The daemon batches: beats queue in the SPSC channel and the controller
//! runs once per actuation quantum over the drained batch. The serial
//! reference steps the same `PowerDialRuntime` and `SlidingWindow` inline,
//! one beat at a time. Because the daemon decides *before* folding each
//! drained beat's latency into its window — the same ordering the serial
//! loop uses — the two must produce bit-identical decision sequences and
//! identical planned quanta for any beat stream.

use powerdial_control::daemon::{DaemonConfig, PowerDialDaemon};
use powerdial_control::{
    ActuationPolicy, ControllerConfig, IndexedDecision, PowerDialRuntime, RuntimeConfig,
};
use powerdial_heartbeats::{SlidingWindow, Timestamp, TimestampDelta};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace, PointIdx};
use powerdial_qos::{QosLoss, QosLossBound};

fn test_table() -> KnobTable {
    let speedups = [1.0, 1.5, 2.0, 3.0, 4.0];
    let values: Vec<f64> = (0..speedups.len()).map(|i| i as f64).collect();
    let space = ParameterSpace::builder()
        .parameter(ConfigParameter::new("k", values, 0.0).unwrap())
        .build()
        .unwrap();
    let points = speedups
        .iter()
        .enumerate()
        .map(|(i, &s)| CalibrationPoint {
            setting_index: i,
            setting: space.setting(i).unwrap(),
            speedup: s,
            qos_loss: QosLoss::new((s - 1.0) * 0.02),
        })
        .collect();
    KnobTable::from_points(points, 0, QosLossBound::UNBOUNDED).unwrap()
}

/// An open-loop beat stream: latencies vary deterministically so plans mix
/// segments, saturate, and recover across many quanta.
fn latency_at(beat: u64) -> TimestampDelta {
    let millis = match (beat / 7) % 5 {
        0 => 33,
        1 => 66,
        2 => 25,
        3 => 100,
        _ => 40,
    };
    TimestampDelta::from_millis(millis + beat % 3)
}

#[test]
fn daemon_matches_serial_simulation_beat_for_beat() {
    for policy in [ActuationPolicy::MinimalSpeedup, ActuationPolicy::RaceToIdle] {
        let window_size = 20;
        let runtime_config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
            .with_policy(policy)
            .with_quantum_heartbeats(20)
            .unwrap();

        // Daemon side: inline mode so the shard can be stepped directly and
        // every per-beat decision observed.
        let mut daemon = PowerDialDaemon::new(DaemonConfig {
            workers: 0,
            channel_capacity: 64,
            window_size,
            inline_apps: 0,
            ..DaemonConfig::default()
        })
        .unwrap();
        let mut app = daemon.register(runtime_config, test_table()).unwrap();
        let app_id = app.id();

        // Serial reference: the same runtime and window stepped inline.
        let mut serial_runtime = PowerDialRuntime::new(runtime_config, test_table()).unwrap();
        let mut serial_window = SlidingWindow::new(window_size);

        let mut now = Timestamp::ZERO;
        let mut beat = 0u64;
        for quantum in 0..40u64 {
            // The application emits a quantum's worth of beats...
            let beats_this_quantum = 1 + (quantum % 20) as usize; // ragged batches
            let mut serial_decisions: Vec<IndexedDecision> = Vec::new();
            for _ in 0..beats_this_quantum {
                let latency = latency_at(beat);
                if beat > 0 {
                    now += latency;
                }
                app.beat(now).unwrap();

                // ...and the serial reference decides for each, inline.
                let observed = serial_window
                    .rate()
                    .expect("no overflow")
                    .map(|r| r.beats_per_second());
                serial_decisions.push(serial_runtime.on_heartbeat_idx(observed));
                if beat > 0 {
                    serial_window.push(latency);
                }
                beat += 1;
            }

            // The daemon drains the whole batch in one quantum.
            let mut daemon_decisions: Vec<IndexedDecision> = Vec::new();
            let shard = daemon.inline_shard_mut().unwrap();
            let drained = shard.run_quantum_with(&mut |_, decision| {
                daemon_decisions.push(decision);
            });
            assert_eq!(drained as usize, beats_this_quantum);

            assert_eq!(daemon_decisions.len(), serial_decisions.len());
            for (i, (fast, reference)) in daemon_decisions.iter().zip(&serial_decisions).enumerate()
            {
                assert_eq!(
                    fast.point_idx, reference.point_idx,
                    "policy {policy}: setting diverged at quantum {quantum} beat {i}"
                );
                assert_eq!(fast.gain.to_bits(), reference.gain.to_bits());
                assert_eq!(
                    fast.requested_speedup.to_bits(),
                    reference.requested_speedup.to_bits()
                );
                assert_eq!(
                    fast.planned_idle_fraction.to_bits(),
                    reference.planned_idle_fraction.to_bits()
                );
            }

            // The full planned quantum matches, not just the returned beats.
            let planned: Vec<PointIdx> = shard.planned_beat_indices(app_id).unwrap().to_vec();
            assert_eq!(planned, serial_runtime.planned_beat_indices().to_vec());
            assert_eq!(
                shard.quanta_planned(app_id).unwrap(),
                serial_runtime.quanta_planned()
            );
        }
        assert_eq!(app.beats_processed(), beat);
    }
}
