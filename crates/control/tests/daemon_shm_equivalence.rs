//! Equivalence of the shared-memory transport with the in-heap channel
//! transport, up to and including a real second process.
//!
//! The control code downstream of a drain is shared between transports, so
//! any divergence in decisions is a transport bug. The tests here pin the
//! strongest form of that claim: **decisions computed over shm-delivered
//! beats are beat-for-beat bit-identical to decisions computed over the
//! same beats delivered through the in-heap channel**, for
//!
//! * a same-process producer (deterministic interleavings), on the inline
//!   shard and on worker shards,
//! * a forked child that pushes and exits before the first drain,
//! * a forked child streaming concurrently with the draining daemon
//!   (nondeterministic batch boundaries — per-beat decisions must be
//!   invariant to them),
//!
//! plus the crash path: a child killed mid-stream is drained to its last
//! published beat and then reaped by the daemon.

#![cfg(unix)]

use std::sync::Arc;

use powerdial_control::daemon::{DaemonConfig, PowerDialDaemon};
use powerdial_control::{ControllerConfig, IndexedDecision, RuntimeConfig};
use powerdial_heartbeats::channel::BeatSample;
use powerdial_heartbeats::shm::process::{fork_child, ChildExit};
use powerdial_heartbeats::shm::{DecisionRead, Segment, SegmentGeometry, ShmConsumer, ShmProducer};
use powerdial_heartbeats::{HeartbeatTag, Timestamp, TimestampDelta};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

const CAPACITY: usize = 64;

fn test_table() -> KnobTable {
    let speedups = [1.0, 1.5, 2.0, 3.0, 4.5];
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
            qos_loss: QosLoss::new((s - 1.0) * 0.015),
        })
        .collect();
    KnobTable::from_points(points, 0, QosLossBound::UNBOUNDED).unwrap()
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
}

fn inline_daemon() -> PowerDialDaemon {
    daemon(0)
}

/// With workers every app sits on a worker shard (`inline_apps: 0`).
fn daemon(workers: usize) -> PowerDialDaemon {
    PowerDialDaemon::new(DaemonConfig {
        workers,
        channel_capacity: CAPACITY,
        inline_apps: 0,
        ..DaemonConfig::default()
    })
    .unwrap()
}

/// The deterministic beat stream both transports carry: latencies wander
/// around the 30 beats/s target so the controller keeps re-deciding.
fn beat(tag: u64) -> BeatSample {
    let latency_ms = 20 + (tag * 13) % 40;
    BeatSample {
        tag: HeartbeatTag(tag),
        timestamp: Timestamp::from_millis(tag * 45),
        latency: TimestampDelta::from_millis(if tag == 0 { 0 } else { latency_ms }),
    }
}

/// A decision in comparable form (f64s by bit pattern).
fn key(decision: IndexedDecision) -> (usize, u64, u64, u64) {
    (
        decision.point_idx.as_usize(),
        decision.gain.to_bits(),
        decision.requested_speedup.to_bits(),
        decision.planned_idle_fraction.to_bits(),
    )
}

/// Runs `beats` through an in-heap channel daemon in `chunk`-sized pushes
/// and returns every per-beat decision.
fn reference_decisions(beats: u64, chunk: usize) -> Vec<(usize, u64, u64, u64)> {
    let mut daemon = inline_daemon();
    let mut app = daemon.register(runtime_config(), test_table()).unwrap();
    let mut decisions = Vec::new();
    let mut tag = 0u64;
    while tag < beats {
        for _ in 0..chunk.min((beats - tag) as usize) {
            app.push_sample(beat(tag)).unwrap();
            tag += 1;
        }
        daemon
            .inline_shard_mut()
            .unwrap()
            .run_quantum_with(&mut |_, decision| decisions.push(key(decision)));
    }
    decisions
}

#[test]
fn same_process_shm_decisions_match_channel_decisions() {
    const BEATS: u64 = 480;
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(CAPACITY).unwrap()).unwrap());
    let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
    let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

    let mut daemon = inline_daemon();
    let view = daemon
        .register_shm(runtime_config(), test_table(), consumer)
        .unwrap();

    // Deliberately ragged batch sizes: decisions must not depend on where
    // the batch boundaries fall.
    let mut shm_decisions = Vec::new();
    let mut tag = 0u64;
    let mut batch = 1usize;
    while tag < BEATS {
        for _ in 0..batch.min((BEATS - tag) as usize) {
            producer.try_push(beat(tag)).unwrap();
            tag += 1;
        }
        daemon
            .inline_shard_mut()
            .unwrap()
            .run_quantum_with(&mut |_, decision| shm_decisions.push(key(decision)));
        batch = batch % (CAPACITY - 1) + 7;
    }

    // Reference stream in uniform 20-beat quanta.
    let reference = reference_decisions(BEATS, 20);
    assert_eq!(shm_decisions.len(), BEATS as usize);
    assert_eq!(
        shm_decisions, reference,
        "shm transport altered the decision sequence"
    );
    assert_eq!(view.beats_processed(), BEATS);
}

#[test]
fn shm_apps_on_worker_shards_lose_nothing() {
    // Mapped segments drained by worker threads, two to a shard: every
    // tick accounts for every beat pushed, and each app ends where the
    // same beats through an in-heap channel on the inline shard end.
    const APPS: usize = 4;
    const QUANTA: u64 = 25;
    const QUANTUM: u64 = 20;
    let mut threaded = daemon(2);
    assert_eq!(threaded.workers(), 2);
    let mut inline = inline_daemon();
    let mut shm_apps = Vec::new();
    let mut heap_apps = Vec::new();
    for _ in 0..APPS {
        let segment = Arc::new(
            Segment::create(SegmentGeometry::for_beat_samples(CAPACITY).unwrap()).unwrap(),
        );
        let producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let consumer = ShmConsumer::attach(segment).unwrap();
        let view = threaded
            .register_shm(runtime_config(), test_table(), consumer)
            .unwrap();
        shm_apps.push((producer, view));
        heap_apps.push(inline.register(runtime_config(), test_table()).unwrap());
    }
    for quantum in 0..QUANTA {
        for tag in quantum * QUANTUM..(quantum + 1) * QUANTUM {
            for ((producer, _), heap_app) in shm_apps.iter_mut().zip(&mut heap_apps) {
                producer.try_push(beat(tag)).unwrap();
                heap_app.push_sample(beat(tag)).unwrap();
            }
        }
        assert_eq!(threaded.tick(), APPS as u64 * QUANTUM, "quantum {quantum}");
        assert_eq!(inline.tick(), APPS as u64 * QUANTUM, "quantum {quantum}");
    }
    for ((_, view), heap_app) in shm_apps.iter().zip(&heap_apps) {
        assert_eq!(view.beats_processed(), QUANTA * QUANTUM);
        assert_eq!(
            view.latest_gain().unwrap().to_bits(),
            heap_app.latest_gain().unwrap().to_bits()
        );
    }
    assert_eq!(threaded.total_beats(), inline.total_beats());
}

#[test]
fn forked_child_burst_decisions_match_channel_decisions() {
    // Satellite shape from the issue: parent maps a segment, a forked
    // child pushes N beats and exits; the parent asserts an in-order
    // lossless drain and decisions identical to the in-heap transport.
    const BEATS: u64 = CAPACITY as u64; // fits the ring: no pacing needed
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(CAPACITY).unwrap()).unwrap());
    let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

    let child = fork_child(|| {
        let Ok(mut producer) = ShmProducer::attach(Arc::clone(&segment)) else {
            return 1;
        };
        for tag in 0..BEATS {
            if producer.try_push(beat(tag)).is_err() {
                return 2;
            }
        }
        0
    })
    .unwrap();
    assert_eq!(child.wait().unwrap(), ChildExit::Exited(0));

    let mut daemon = inline_daemon();
    let view = daemon
        .register_shm(runtime_config(), test_table(), consumer)
        .unwrap();
    let mut shm_decisions = Vec::new();
    daemon
        .inline_shard_mut()
        .unwrap()
        .run_quantum_with(&mut |_, decision| shm_decisions.push(key(decision)));

    assert_eq!(view.beats_processed(), BEATS, "lossless drain");
    let reference = reference_decisions(BEATS, BEATS as usize);
    assert_eq!(
        shm_decisions, reference,
        "cross-process beats produced different decisions"
    );
    // The dead child is reaped once its beats are collected.
    assert_eq!(daemon.reap_dead(), vec![view.id()]);
    assert_eq!(daemon.app_count(), 0);
}

#[test]
fn streaming_forked_child_decisions_match_channel_decisions() {
    // The child streams concurrently with the draining daemon: batch
    // boundaries are decided by scheduling noise, so this passes only
    // because per-beat decisions are invariant to batching.
    const BEATS: u64 = 600;
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(CAPACITY).unwrap()).unwrap());
    let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

    let child = fork_child(|| {
        let Ok(mut producer) = ShmProducer::attach(Arc::clone(&segment)) else {
            return 1;
        };
        for tag in 0..BEATS {
            let mut sample = beat(tag);
            let mut retries: u64 = 10_000_000_000;
            loop {
                match producer.try_push(sample) {
                    Ok(()) => break,
                    Err(rejected) => {
                        sample = rejected;
                        retries -= 1;
                        if retries == 0 {
                            return 2;
                        }
                        std::hint::spin_loop();
                    }
                }
            }
        }
        0
    })
    .unwrap();

    let mut daemon = inline_daemon();
    let view = daemon
        .register_shm(runtime_config(), test_table(), consumer)
        .unwrap();
    let mut shm_decisions: Vec<(usize, u64, u64, u64)> = Vec::new();
    while (shm_decisions.len() as u64) < BEATS {
        daemon
            .inline_shard_mut()
            .unwrap()
            .run_quantum_with(&mut |_, decision| shm_decisions.push(key(decision)));
        std::hint::spin_loop();
    }
    assert_eq!(child.wait().unwrap(), ChildExit::Exited(0));

    let reference = reference_decisions(BEATS, 20);
    assert_eq!(shm_decisions, reference);
    assert_eq!(view.beats_processed(), BEATS);
    assert_eq!(
        view.latest_gain().unwrap().to_bits(),
        reference.last().unwrap().1,
        "published gain matches the last per-beat decision"
    );
}

#[test]
fn daemon_reaps_child_killed_mid_stream() {
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(CAPACITY).unwrap()).unwrap());
    let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

    let child = fork_child(|| {
        let Ok(mut producer) = ShmProducer::attach(Arc::clone(&segment)) else {
            return 1;
        };
        let mut tag = 0u64;
        loop {
            let mut sample = beat(tag);
            loop {
                match producer.try_push(sample) {
                    Ok(()) => break,
                    Err(rejected) => {
                        sample = rejected;
                        std::hint::spin_loop();
                    }
                }
            }
            tag += 1;
        }
    })
    .unwrap();

    let mut daemon = inline_daemon();
    let view = daemon
        .register_shm(runtime_config(), test_table(), consumer)
        .unwrap();

    // Let the child stream for a while.
    let mut processed = 0u64;
    while processed < 150 {
        processed += daemon.tick();
        std::hint::spin_loop();
    }
    assert!(daemon.reap_dead().is_empty(), "live child is never reaped");

    child.kill().unwrap();
    assert!(matches!(child.wait().unwrap(), ChildExit::Signaled(_)));

    // Protocol: tick to collect the published tail, then reap. The first
    // reap may race a beat published between tick and kill, so run the
    // cycle until the daemon lets go — it must converge immediately after
    // one post-mortem tick.
    let mut reaped = daemon.reap_dead();
    if reaped.is_empty() {
        daemon.tick();
        reaped = daemon.reap_dead();
    }
    assert_eq!(reaped, vec![view.id()]);
    assert_eq!(daemon.app_count(), 0);
    // Every beat the daemon processed was a real, in-order beat.
    assert!(view.beats_processed() >= 150);
}

#[test]
fn decision_block_is_bit_identical_to_decision_view() {
    // The ABI v2 acceptance claim: a decision read back through the
    // segment's decision block is **bit-identical** to the daemon's
    // in-process `DecisionView` — the same words, NaN payloads and
    // signed zeros included, because the daemon publishes by re-reading
    // the very atomics the view serves.
    const BEATS: u64 = 480;
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(CAPACITY).unwrap()).unwrap());
    let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
    let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

    let mut daemon = inline_daemon();
    let view = daemon
        .register_shm(runtime_config(), test_table(), consumer)
        .unwrap();

    // Before any beat: nothing published, nothing viewable.
    assert_eq!(producer.read_decision(), DecisionRead::Empty);
    assert!(view.latest_gain().is_none());

    let mut tag = 0u64;
    let mut batch = 1usize;
    let mut compared = 0u64;
    while tag < BEATS {
        for _ in 0..batch.min((BEATS - tag) as usize) {
            producer.try_push(beat(tag)).unwrap();
            tag += 1;
        }
        daemon.tick();
        match producer.read_decision() {
            DecisionRead::Ready(shm) => {
                assert_eq!(shm.gain_bits, view.latest_gain().unwrap().to_bits());
                assert_eq!(
                    shm.achieved_speedup_bits,
                    view.achieved_speedup().unwrap().to_bits()
                );
                assert_eq!(
                    shm.qos_loss_bits,
                    view.expected_qos_loss().unwrap().to_bits()
                );
                assert_eq!(
                    shm.point_idx as usize,
                    view.latest_point().unwrap().as_usize()
                );
                compared += 1;
            }
            other => panic!("post-quantum decision must be readable, got {other:?}"),
        }
        batch = batch % (CAPACITY - 1) + 7;
    }
    assert!(compared > 0);
    assert_eq!(view.beats_processed(), BEATS);
}

#[test]
fn reaped_app_decision_block_is_reset_before_segment_reuse() {
    // The reap path must not leak the dead app's last decision into a
    // future reuse of the mapping: `reap_dead` resets the decision block
    // (under the seqlock discipline) before the daemon lets go.
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(CAPACITY).unwrap()).unwrap());
    let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

    let child = fork_child({
        let segment = Arc::clone(&segment);
        move || {
            let Ok(mut producer) = ShmProducer::attach(segment) else {
                return 1;
            };
            for tag in 0..CAPACITY as u64 {
                if producer.try_push(beat(tag)).is_err() {
                    return 2;
                }
            }
            0
        }
    })
    .unwrap();
    assert_eq!(child.wait().unwrap(), ChildExit::Exited(0));

    let mut daemon = inline_daemon();
    let view = daemon
        .register_shm(runtime_config(), test_table(), consumer)
        .unwrap();
    daemon.tick();
    assert!(
        matches!(segment.header().read_decision(), DecisionRead::Ready(_)),
        "the burst was processed and a decision published"
    );

    assert_eq!(daemon.reap_dead(), vec![view.id()]);
    assert_eq!(
        segment.header().read_decision(),
        DecisionRead::Empty,
        "a reaped app's decision block reads never-published again"
    );

    // `unregister` is the same removal path: it resets too.
    let segment2 =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(CAPACITY).unwrap()).unwrap());
    let consumer2 = ShmConsumer::attach(Arc::clone(&segment2)).unwrap();
    let mut producer2 = ShmProducer::attach(Arc::clone(&segment2)).unwrap();
    let view2 = daemon
        .register_shm(runtime_config(), test_table(), consumer2)
        .unwrap();
    producer2.try_push(beat(0)).unwrap();
    daemon.tick();
    assert!(matches!(
        segment2.header().read_decision(),
        DecisionRead::Ready(_)
    ));
    assert!(daemon.unregister(view2.id()));
    assert_eq!(segment2.header().read_decision(), DecisionRead::Empty);
}
