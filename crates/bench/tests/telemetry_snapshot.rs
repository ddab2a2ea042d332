//! End-to-end pin for the telemetry snapshot document.
//!
//! Runs a real multi-app daemon loop, takes a
//! `PowerDialDaemon::telemetry_snapshot`, and pushes the rendered JSON
//! back through the bench crate's strict JSON parser
//! (`powerdial_bench::json`). This is the contract the snapshot promises:
//! hand-rolled rendering (serde is a no-op stub here) that nonetheless
//! parses under a strict grammar, with per-app quantiles and *exact*
//! fleet rollups (bucket-wise histogram merges, never averaged
//! percentiles).

use std::sync::Arc;

use powerdial::control::daemon::{DaemonConfig, PowerDialDaemon};
use powerdial::control::{ControllerConfig, RuntimeConfig};
use powerdial::heartbeats::channel::BeatSample;
use powerdial::heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
use powerdial::heartbeats::{HeartbeatTag, Timestamp, TimestampDelta};
use powerdial_bench::fleet::{synthetic_knob_table, DaemonMultiAppLoop, BEATS_PER_QUANTUM};
use powerdial_bench::json::Json;

/// Pulls `key` as a number out of an object, failing loudly.
fn num(value: &Json, key: &str) -> f64 {
    value
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field {key:?}"))
}

#[test]
fn snapshot_json_round_trips_through_the_strict_parser() {
    let apps = 8usize;
    let quanta = 40u64;
    let mut bench = DaemonMultiAppLoop::new(apps, 2);
    for _ in 0..quanta {
        bench.step();
    }
    let snapshot = bench.telemetry_snapshot();
    let json = snapshot.to_json();
    let document = Json::parse(&json).expect("snapshot JSON must satisfy the strict grammar");

    assert_eq!(num(&document, "version"), 1.0);
    assert_eq!(
        document.get("snapshot").and_then(Json::as_str),
        Some("powerdial-telemetry")
    );
    assert_eq!(num(&document, "ticks"), quanta as f64);
    assert_eq!(num(&document, "apps_registered"), apps as f64);

    let reports = document
        .get("apps")
        .and_then(Json::as_array)
        .expect("apps array");
    assert_eq!(reports.len(), apps);
    let mut fleet_count = 0.0;
    for report in reports {
        let beats = num(report, "beats");
        assert!(beats > 0.0, "every app beat every quantum");
        let latency = report.get("beat_latency_ns").expect("latency histogram");
        let (count, min, max) = (
            num(latency, "count"),
            num(latency, "min"),
            num(latency, "max"),
        );
        let (p50, p95, p99) = (
            num(latency, "p50"),
            num(latency, "p95"),
            num(latency, "p99"),
        );
        // Tag-0 beats carry no latency, so one beat per app is excluded.
        assert_eq!(count, beats - 1.0);
        assert!(min <= p50 && p50 <= p95 && p95 <= p99 && p99 <= max);
        let mean = num(latency, "mean");
        assert!(mean >= min && mean <= max);
        // QoS loss is recorded once per quantum.
        let qos = report.get("qos_loss_ppm").expect("qos histogram");
        assert_eq!(num(qos, "count"), quanta as f64);
        fleet_count += count;
    }

    // The fleet rollup is the exact bucket-wise merge: its count is the
    // sum of the per-app counts, and its extrema bound every app's.
    let fleet = document
        .get("fleet")
        .and_then(|fleet| fleet.get("beat_latency_ns"))
        .expect("fleet latency rollup");
    assert_eq!(num(fleet, "count"), fleet_count);
    assert_eq!(
        fleet_count,
        (apps as u64 * quanta * BEATS_PER_QUANTUM as u64 - apps as u64) as f64,
        "fleet counts every non-tag-0 beat"
    );
    assert!(num(fleet, "p50") <= num(fleet, "p99"));

    // A fleet on in-heap channels has no producer process to watch.
    let liveness = document.get("liveness").expect("liveness object");
    for counter in ["watched_processes", "polled_apps", "death_events"] {
        assert_eq!(num(liveness, counter), 0.0, "{counter}");
    }

    // Two worker shards with apps on them: each ran one quantum per tick,
    // on its own thread or on the ticking one, and the first busy tick
    // found both threads asleep and woke them.
    let handoff = document.get("handoff").expect("handoff object");
    assert_eq!(
        num(handoff, "hot_ticks") + num(handoff, "serial_ticks"),
        2.0 * quanta as f64
    );
    assert!(num(handoff, "rearms") >= 2.0);
    assert!(num(handoff, "collect_parks") >= 0.0);

    // The decision trace carries boundary decisions with valid reasons.
    let trace = document
        .get("decision_trace")
        .and_then(Json::as_array)
        .expect("decision trace");
    assert!(!trace.is_empty(), "40 quanta must leave trace records");
    let mut last_timestamp = 0.0;
    for record in trace {
        let reason = record.get("reason").and_then(Json::as_str).expect("reason");
        assert!(
            matches!(reason, "boundary" | "warm_start" | "safe_reset"),
            "unknown trace reason {reason:?}"
        );
        let timestamp = num(record, "timestamp_ns");
        assert!(timestamp >= last_timestamp, "trace is timestamp-ordered");
        last_timestamp = timestamp;
        assert!(num(record, "gain") >= 1.0);
    }
}

/// The chaos suites prove the control plane survives SIGKILL; this is
/// the telemetry plane's version of that promise, run in-process (the
/// snapshot has no cross-process export transport yet): after a
/// producer dies mid-skip and is reaped, the snapshot must still render
/// strict JSON, drop the reaped app from the reports, and carry its
/// `safe_reset` trace record as the tombstone.
#[test]
fn snapshot_stays_sane_after_producer_sigkill_and_reap() {
    use std::sync::atomic::Ordering;

    let mut daemon = PowerDialDaemon::new(DaemonConfig {
        workers: 0,
        channel_capacity: 64,
        inline_apps: 0,
        idle_skip_limit: 4,
        ..DaemonConfig::default()
    })
    .unwrap();
    let runtime = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
        .with_quantum_heartbeats(20)
        .unwrap();
    let geometry = SegmentGeometry::for_beat_samples(64).unwrap();
    let mut segments = Vec::new();
    let mut producers = Vec::new();
    let mut views = Vec::new();
    for _ in 0..2 {
        let segment = Arc::new(Segment::create(geometry).unwrap());
        producers.push(ShmProducer::attach(Arc::clone(&segment)).unwrap());
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        views.push(
            daemon
                .register_shm(runtime, synthetic_knob_table(4), consumer)
                .unwrap(),
        );
        segments.push(segment);
    }

    // A few healthy quanta so both apps accumulate telemetry.
    let mut tags = [0u64; 2];
    let mut clocks = [Timestamp::ZERO; 2];
    for _ in 0..3 {
        for (index, producer) in producers.iter_mut().enumerate() {
            for _ in 0..20 {
                let latency = if tags[index] == 0 {
                    TimestampDelta::ZERO
                } else {
                    TimestampDelta::from_millis(40)
                };
                clocks[index] += TimestampDelta::from_millis(40);
                producer
                    .try_push(BeatSample {
                        tag: HeartbeatTag(tags[index]),
                        timestamp: clocks[index],
                        latency,
                    })
                    .unwrap();
                tags[index] += 1;
            }
        }
        daemon.tick();
    }

    // App 0's producer is SIGKILLed with two beats still in the ring.
    for _ in 0..2 {
        clocks[0] += TimestampDelta::from_millis(40);
        producers[0]
            .try_push(BeatSample {
                tag: HeartbeatTag(tags[0]),
                timestamp: clocks[0],
                latency: TimestampDelta::from_millis(40),
            })
            .unwrap();
        tags[0] += 1;
    }
    segments[0]
        .header()
        .producer_pid
        .store(0x7FFF_FF00, Ordering::Release);

    // Reap protocol: probe (wakes the slot), drain the tail, collect.
    assert!(daemon.reap_dead().is_empty());
    daemon.tick();
    assert_eq!(daemon.reap_dead().len(), 1);

    let snapshot = daemon.telemetry_snapshot();
    let document = Json::parse(&snapshot.to_json())
        .expect("post-SIGKILL snapshot must still render strict JSON");
    assert_eq!(
        document.get("apps_registered").and_then(Json::as_f64),
        Some(1.0),
        "the reaped app must leave the report"
    );
    let trace = document
        .get("decision_trace")
        .and_then(Json::as_array)
        .expect("decision trace");
    assert!(
        trace
            .iter()
            .any(|record| { record.get("reason").and_then(Json::as_str) == Some("safe_reset") }),
        "the reaped app must leave a safe_reset tombstone in the trace"
    );
    // The surviving app's report is intact.
    assert!(views[1].beats_processed() > 0);
}

/// The reaper's cost is per producer *process*, not per segment — as a
/// count, not a timing: 64 segments fed by one process hold exactly one
/// watch (one pidfd), and none of them is probed by syscall. A watched
/// attach listener is not a process and is not counted as one.
#[test]
fn a_fleet_fed_by_one_process_holds_one_watch() {
    let mut daemon = PowerDialDaemon::new(DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    })
    .unwrap();
    let runtime = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap());
    let geometry = SegmentGeometry::for_beat_samples(64).unwrap();
    let mut producers = Vec::new();
    let mut views = Vec::new();
    for _ in 0..64 {
        let segment = Arc::new(Segment::create(geometry).unwrap());
        producers.push(ShmProducer::attach(Arc::clone(&segment)).unwrap());
        let consumer = ShmConsumer::attach(segment).unwrap();
        views.push(
            daemon
                .register_shm(runtime, synthetic_knob_table(4), consumer)
                .unwrap(),
        );
    }

    let liveness = |daemon: &mut PowerDialDaemon| {
        let json = daemon.telemetry_snapshot().to_json();
        let document = Json::parse(&json).expect("snapshot JSON must satisfy the strict grammar");
        let liveness = document.get("liveness").expect("liveness object");
        (
            num(liveness, "watched_processes"),
            num(liveness, "polled_apps"),
            num(liveness, "death_events"),
        )
    };
    // Registration asks the kernel nothing; the first reap settles every
    // claim, and finds them all naming this process.
    assert_eq!(liveness(&mut daemon), (0.0, 0.0, 0.0));
    // An attach listener shares the readiness set with the producers
    // without being one: it is in the set from here to the end of the
    // test, and no count below moves for it.
    #[cfg(unix)]
    {
        let socket = std::env::temp_dir().join(format!("pd-snapshot-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let listener = std::os::unix::net::UnixListener::bind(&socket).unwrap();
        assert_eq!(daemon.watch_listener(&listener), cfg!(target_os = "linux"));
        let _ = std::fs::remove_file(&socket);
        assert_eq!(liveness(&mut daemon), (0.0, 0.0, 0.0));
    }
    daemon.tick();
    assert!(daemon.reap_dead().is_empty());
    if cfg!(target_os = "linux") {
        assert_eq!(liveness(&mut daemon), (1.0, 0.0, 0.0));
    } else {
        assert_eq!(liveness(&mut daemon), (0.0, 64.0, 0.0));
    }
    assert!(daemon.reap_dead().is_empty());
    assert_eq!(daemon.app_count(), 64);

    // The watch is held for the apps, and goes with the last of them.
    for (unregistered, view) in views.iter().enumerate() {
        assert!(daemon.unregister(view.id()));
        let watched = if cfg!(target_os = "linux") && unregistered < 63 {
            1.0
        } else {
            0.0
        };
        assert_eq!(liveness(&mut daemon).0, watched);
    }
}

#[test]
fn telemetry_off_snapshot_is_empty_but_valid() {
    let mut bench = DaemonMultiAppLoop::with_telemetry(4, 0, false);
    for _ in 0..10 {
        bench.step();
    }
    let snapshot = bench.telemetry_snapshot();
    assert!(snapshot.apps.is_empty());
    assert!(snapshot.trace.is_empty());
    // Tick/beat counters live on the daemon, not the telemetry plane.
    assert_eq!(snapshot.ticks, 10);
    assert!(snapshot.total_beats > 0);
    let document =
        Json::parse(&snapshot.to_json()).expect("empty snapshot still renders strict JSON");
    assert_eq!(num(&document, "apps_registered"), 0.0);
    // No workers, no hand-off to count.
    let handoff = document.get("handoff").expect("handoff object");
    for counter in ["hot_ticks", "serial_ticks", "rearms", "collect_parks"] {
        assert_eq!(num(handoff, counter), 0.0, "{counter}");
    }
}
