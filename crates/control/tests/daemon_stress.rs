//! Threaded stress tests for the sharded multi-app daemon: concurrent
//! producers, live ticking, and unregistration mid-stream.

use std::thread;

use powerdial_control::daemon::{AppHandle, DaemonConfig, PowerDialDaemon};
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
}

/// Producer body: get `beats` heartbeats accepted by the channel, with a
/// per-app latency pattern. A rejected beat (full ring) is a real dropped
/// heartbeat — the retry emits a *fresh* beat at a later timestamp, exactly
/// what an instrumented application's next unit of work would do.
fn produce(mut app: AppHandle, beats: u64, seed: u64) -> AppHandle {
    let mut now = Timestamp::ZERO;
    for beat in 0..beats {
        now += TimestampDelta::from_millis(10 + (beat * 7 + seed) % 50);
        while app.beat(now).is_err() {
            thread::yield_now();
            now += TimestampDelta::from_millis(1);
        }
    }
    app
}

#[test]
fn concurrent_producers_lose_no_accepted_beats() {
    let mut daemon = PowerDialDaemon::new(DaemonConfig {
        workers: 2,
        inline_apps: 0,
        ..DaemonConfig::default()
    })
    .unwrap();

    const APPS: usize = 8;
    const BEATS: u64 = 20_000;
    let handles: Vec<AppHandle> = (0..APPS)
        .map(|_| daemon.register(runtime_config(), test_table()).unwrap())
        .collect();
    assert_eq!(daemon.app_count(), APPS);

    let producers: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(index, app)| thread::spawn(move || produce(app, BEATS, index as u64)))
        .collect();

    // Tick continuously while producers run.
    while producers.iter().any(|p| !p.is_finished()) {
        daemon.tick();
    }
    // Final drains for anything still queued.
    let mut idle_ticks = 0;
    while idle_ticks < 3 {
        if daemon.tick() == 0 {
            idle_ticks += 1;
        } else {
            idle_ticks = 0;
        }
    }

    let mut total_accepted = 0;
    for producer in producers {
        let app = producer.join().unwrap();
        // Exactly one beat is accepted per outer produce() iteration, so
        // accepted == BEATS; after the final idle drains every accepted
        // beat must have been processed — none lost in the channel.
        assert_eq!(
            app.beats_processed(),
            BEATS,
            "app processed {} of {} accepted beats",
            app.beats_processed(),
            BEATS
        );
        assert!(app.latest_gain().is_some());
        total_accepted += app.beats_processed();
    }
    assert_eq!(daemon.total_beats(), total_accepted);
}

#[test]
fn unregister_mid_stream_keeps_other_apps_alive() {
    let mut daemon = PowerDialDaemon::new(DaemonConfig {
        workers: 2,
        channel_capacity: 32,
        window_size: 10,
        inline_apps: 0,
        ..DaemonConfig::default()
    })
    .unwrap();

    let doomed = daemon.register(runtime_config(), test_table()).unwrap();
    let survivor = daemon.register(runtime_config(), test_table()).unwrap();
    let doomed_id = doomed.id();

    // Both apps stream from their own threads; the doomed app's producer
    // keeps pushing long after unregistration and must simply see
    // backpressure, never a crash or a hang.
    let doomed_thread = thread::spawn(move || {
        let mut app = doomed;
        let mut now = Timestamp::ZERO;
        let mut rejected = 0u64;
        for _ in 0..50_000u64 {
            now += TimestampDelta::from_millis(5);
            if app.beat(now).is_err() {
                rejected += 1;
            }
        }
        (app, rejected)
    });
    let survivor_thread = thread::spawn(move || produce(survivor, 10_000, 3));

    // Let some beats flow, then cut the doomed app mid-stream.
    for _ in 0..20 {
        daemon.tick();
    }
    assert!(daemon.unregister(doomed_id));
    assert_eq!(daemon.app_count(), 1);

    while !survivor_thread.is_finished() {
        daemon.tick();
    }
    let mut idle_ticks = 0;
    while idle_ticks < 3 {
        if daemon.tick() == 0 {
            idle_ticks += 1;
        } else {
            idle_ticks = 0;
        }
    }

    let survivor = survivor_thread.join().unwrap();
    let (doomed, doomed_rejections) = doomed_thread.join().unwrap();

    // The survivor processed its whole stream.
    assert!(survivor.beats_processed() >= 10_000);
    assert!(survivor.latest_gain().is_some());

    // The doomed app's channel backed up once nothing drained it: its
    // producer saw rejections (capacity 32 << 50k beats) but kept running.
    assert!(
        doomed_rejections > 0,
        "unregistered app's channel must exert backpressure"
    );
    assert!(doomed.beats_processed() < 50_000);

    // Unregistering the survivor too leaves an empty, ticking daemon.
    assert!(daemon.unregister(survivor.id()));
    assert_eq!(daemon.app_count(), 0);
    assert_eq!(daemon.tick(), 0);
}
