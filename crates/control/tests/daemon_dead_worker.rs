//! Degraded service across a dead worker shard.
//!
//! A panic inside control code used to abort the whole daemon (the tick
//! path `expect`ed worker acks). Now a dead worker orphans only its own
//! apps until resurrection: plain ticks keep serving every surviving
//! shard, and registration routes around the corpse.
//!
//! Worker death is injected through the explicit test-only hook
//! ([`PowerDialDaemon::inject_worker_panic`]), which panics the thread
//! *while it holds its shard lock* — the worst case. The historic
//! "poisoned latency sum" vector no longer kills a worker at all: the
//! overflow surfaces as a typed error and quarantines exactly one app
//! (see the `daemon_containment` suite), which is the point of the
//! containment work.

use powerdial_control::daemon::AppHandle;
use powerdial_control::daemon::{DaemonConfig, PowerDialDaemon};
use powerdial_control::{ControllerConfig, RuntimeConfig};
use powerdial_heartbeats::{Timestamp, TimestampDelta};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

fn test_table() -> KnobTable {
    let speedups = [1.0, 2.0, 4.0];
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

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
        .with_quantum_heartbeats(2)
        .unwrap()
}

/// Emits one healthy 2-beat quantum.
fn push_healthy_quantum(app: &mut AppHandle, now: &mut Timestamp) {
    for _ in 0..2 {
        *now += TimestampDelta::from_millis(40);
        app.beat(*now).unwrap();
    }
}

fn two_worker_daemon() -> PowerDialDaemon {
    PowerDialDaemon::new(DaemonConfig {
        workers: 2,
        channel_capacity: 64,
        window_size: 4,
        inline_apps: 0, // force apps onto workers
        ..DaemonConfig::default()
    })
    .unwrap()
}

#[test]
fn dead_worker_degrades_its_shard_and_spares_the_rest() {
    let mut daemon = two_worker_daemon();
    // Round-robin placement: orphan-to-be on worker 0, healthy on 1.
    let mut orphan = daemon.register(runtime_config(), test_table()).unwrap();
    let mut healthy = daemon.register(runtime_config(), test_table()).unwrap();
    assert_eq!(daemon.live_workers(), 2);

    let mut now = Timestamp::ZERO;
    push_healthy_quantum(&mut orphan, &mut now);
    push_healthy_quantum(&mut healthy, &mut now);
    assert_eq!(daemon.try_tick().unwrap(), 4);

    // Kill worker 0's thread mid-protocol (it dies holding its shard
    // lock). The death is observed immediately on the ack channel.
    assert!(daemon.inject_worker_panic(0));
    assert_eq!(daemon.live_workers(), 1);
    assert_eq!(daemon.shard_deaths(), 1);

    // Ticks keep serving the surviving shard; the corpse's app gets
    // nothing until resurrection migrates it.
    for _ in 0..3 {
        push_healthy_quantum(&mut orphan, &mut now);
        push_healthy_quantum(&mut healthy, &mut now);
        assert_eq!(daemon.try_tick().unwrap(), 2, "only the live shard beats");
    }
    assert_eq!(healthy.beats_processed(), 8);
    assert_eq!(
        orphan.beats_processed(),
        2,
        "the dead shard's app is parked"
    );
    assert!(healthy.latest_gain().is_some());
}

/// Regression: `unregister` used to go through the dead worker's command
/// channel, so for an app parked on a corpse it dropped the placement,
/// reported `false` ("never registered") and left the slot — and an shm
/// app's decision/warm blocks — in place until the next respawn. The
/// façade now evicts under the shard lock, dead worker or not.
#[test]
fn unregister_on_a_dead_worker_evicts_at_once() {
    let mut daemon = two_worker_daemon();
    let orphan = daemon.register(runtime_config(), test_table()).unwrap();
    let _healthy = daemon.register(runtime_config(), test_table()).unwrap();
    assert!(daemon.inject_worker_panic(0));

    assert!(
        daemon.unregister(orphan.id()),
        "the corpse's slot is evicted"
    );
    assert_eq!(daemon.app_count(), 1);
    assert!(!daemon.unregister(orphan.id()), "already gone");

    // The dead shard is empty: resurrection has nothing to migrate and
    // nothing stale to reconcile.
    assert_eq!(daemon.respawn_dead(), 1);
    assert_eq!(daemon.apps_migrated(), 0);
    assert_eq!(daemon.live_workers(), 2);
    assert_eq!(daemon.app_count(), 1);
}

#[test]
fn registration_routes_around_a_dead_worker() {
    let mut daemon = two_worker_daemon();
    let orphan = daemon.register(runtime_config(), test_table()).unwrap();
    assert!(daemon.inject_worker_panic(0));
    assert_eq!(daemon.live_workers(), 1);
    drop(orphan);

    // New registrations land on the surviving worker and get controlled.
    let mut late = daemon.register(runtime_config(), test_table()).unwrap();
    let mut now = Timestamp::ZERO;
    for _ in 0..4 {
        push_healthy_quantum(&mut late, &mut now);
        // Plain tick is degraded-but-infallible after the death was seen.
        assert_eq!(daemon.tick(), 2);
    }
    assert_eq!(late.beats_processed(), 8);
    assert!(late.latest_gain().is_some());
}
