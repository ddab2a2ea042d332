//! Fault containment: a poison app is quarantined, its neighbors are not
//! perturbed, and a killed shard is resurrected with its survivors'
//! control state intact.
//!
//! The claims pinned here are the strong, bit-level forms:
//!
//! * **Blame is exact.** An injected panic (or a latency stream that
//!   overflows the rate window) quarantines *that* app within the same
//!   quantum; every neighbor's decision sequence stays **bit-identical**
//!   to a twin daemon that never saw the fault.
//! * **Quarantine publishes safety, not garbage.** The quarantined app's
//!   decision observables land on the configured safe point — a fresh,
//!   published decision, not the fault's leftovers.
//! * **Resurrection is warm.** After a worker thread dies and is
//!   respawned at the same index, the migrated survivors' decisions
//!   continue bit-identically to the no-fault twin: the whole shard
//!   state moves, so recovery is stronger than a warm start.
//! * **Quarantine unblocks the reaper.** A dead producer with a backlog
//!   normally parks until the backlog drains; a quarantined corpse's
//!   backlog is forfeit, so the reap frees the slot immediately.

#![cfg(unix)]

use std::sync::Arc;

use powerdial_control::daemon::{AppHandle, DaemonConfig, PowerDialDaemon};
use powerdial_control::{ControllerConfig, IndexedDecision, QuarantineReason, RuntimeConfig};
use powerdial_heartbeats::channel::BeatSample;
use powerdial_heartbeats::shm::process::{fork_child, ChildExit};
use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
use powerdial_heartbeats::{HeartbeatTag, Timestamp, TimestampDelta};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

const CAPACITY: usize = 64;
/// Safe point the quarantine must publish — deliberately *not* 0, so the
/// tests distinguish "published the configured safe state" from "reset".
const SAFE_POINT: u32 = 2;

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
        .with_quantum_heartbeats(4)
        .unwrap()
}

fn daemon(workers: usize) -> PowerDialDaemon {
    PowerDialDaemon::new(DaemonConfig {
        workers,
        channel_capacity: CAPACITY,
        window_size: 8,
        inline_apps: 0,
        safe_point: SAFE_POINT,
        ..DaemonConfig::default()
    })
    .unwrap()
}

/// Deterministic wandering latencies so the controller keeps re-deciding.
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

/// Pushes one quantum's worth of beats to an app, ignoring rejections
/// (a quarantined app's parked channel fills up — that is the point).
fn feed(app: &mut AppHandle, tag: &mut u64, beats: u64) {
    for _ in 0..beats {
        let _ = app.push_sample(beat(*tag));
        *tag += 1;
    }
}

#[test]
fn quarantine_blames_one_app_and_neighbors_stay_bit_identical() {
    let mut faulted = daemon(0);
    let mut twin = daemon(0);
    let mut apps_f: Vec<AppHandle> = (0..3)
        .map(|_| faulted.register(runtime_config(), test_table()).unwrap())
        .collect();
    let mut apps_t: Vec<AppHandle> = (0..3)
        .map(|_| twin.register(runtime_config(), test_table()).unwrap())
        .collect();
    let poison_id = apps_f[1].id();

    let mut tags = [0u64; 3];
    let mut decisions_f: Vec<Vec<(usize, u64, u64, u64)>> = vec![Vec::new(); 3];
    let mut decisions_t: Vec<Vec<(usize, u64, u64, u64)>> = vec![Vec::new(); 3];
    let quantum = |faulted: &mut PowerDialDaemon,
                   twin: &mut PowerDialDaemon,
                   apps_f: &mut Vec<AppHandle>,
                   apps_t: &mut Vec<AppHandle>,
                   tags: &mut [u64; 3],
                   decisions_f: &mut Vec<Vec<(usize, u64, u64, u64)>>,
                   decisions_t: &mut Vec<Vec<(usize, u64, u64, u64)>>| {
        let mut shared_tags = *tags;
        for (i, app) in apps_f.iter_mut().enumerate() {
            feed(app, &mut shared_tags[i], 4);
        }
        for (i, app) in apps_t.iter_mut().enumerate() {
            feed(app, &mut tags[i], 4);
        }
        let ids_f: Vec<_> = apps_f.iter().map(AppHandle::id).collect();
        let ids_t: Vec<_> = apps_t.iter().map(AppHandle::id).collect();
        faulted
            .inline_shard_mut()
            .unwrap()
            .run_quantum_with(&mut |id, decision| {
                let slot = ids_f.iter().position(|&i| i == id).unwrap();
                decisions_f[slot].push(key(decision));
            });
        twin.inline_shard_mut()
            .unwrap()
            .run_quantum_with(&mut |id, decision| {
                let slot = ids_t.iter().position(|&i| i == id).unwrap();
                decisions_t[slot].push(key(decision));
            });
    };

    for _ in 0..6 {
        quantum(
            &mut faulted,
            &mut twin,
            &mut apps_f,
            &mut apps_t,
            &mut tags,
            &mut decisions_f,
            &mut decisions_t,
        );
    }
    assert!(faulted.quarantine_reason(poison_id).is_none());

    // Arm the fault: the next quantum panics inside app 1's guarded step.
    assert!(faulted.inject_app_panic(poison_id));
    let frozen_beats = apps_f[1].beats_processed();
    for _ in 0..6 {
        quantum(
            &mut faulted,
            &mut twin,
            &mut apps_f,
            &mut apps_t,
            &mut tags,
            &mut decisions_f,
            &mut decisions_t,
        );
    }

    // Blame is exact and observable from every surface.
    assert_eq!(
        faulted.quarantine_reason(poison_id),
        Some(QuarantineReason::Panic)
    );
    assert_eq!(apps_f[1].quarantine_reason(), Some(QuarantineReason::Panic));
    assert_eq!(faulted.quarantined_apps(), 1);
    assert_eq!(faulted.incident_counts().quarantined_apps, 1);
    assert!(apps_f[0].quarantine_reason().is_none());
    assert!(apps_f[2].quarantine_reason().is_none());

    // The quarantined app is parked on the *configured* safe point — a
    // fresh published decision, not the pre-fault leftovers.
    assert_eq!(
        apps_f[1].latest_point().unwrap().as_usize(),
        SAFE_POINT as usize
    );
    assert_eq!(apps_f[1].latest_gain().unwrap().to_bits(), 2.0f64.to_bits());
    assert_eq!(
        apps_f[1].beats_processed(),
        frozen_beats,
        "a quarantined channel is never drained again"
    );

    // Neighbors are bit-identical to the no-fault twin, before and after.
    for slot in [0usize, 2] {
        assert_eq!(
            decisions_f[slot], decisions_t[slot],
            "app {slot} diverged from the no-fault twin"
        );
    }
    // And the poison app itself matched right up to the fault.
    assert_eq!(decisions_f[1], decisions_t[1][..decisions_f[1].len()]);
}

#[test]
fn window_overflow_quarantines_the_poison_producer_only() {
    let mut d = daemon(0);
    let mut poison = d.register(runtime_config(), test_table()).unwrap();
    let mut healthy = d.register(runtime_config(), test_table()).unwrap();

    // Two half-range latencies sum past u64::MAX once both are folded
    // into the window; the overflow surfaces at the *next quantum
    // boundary's* rate read as a typed error (never a panic — see
    // `SlidingWindow::try_total`). One full 4-beat quantum folds the
    // poison without reading the rate...
    let huge = TimestampDelta::from_nanos(1u64 << 63);
    for tag in 0..4u64 {
        poison
            .push_sample(BeatSample {
                tag: HeartbeatTag(tag),
                timestamp: Timestamp::from_millis(tag * 45),
                latency: if (1..=2).contains(&tag) {
                    huge
                } else {
                    TimestampDelta::from_nanos(0)
                },
            })
            .unwrap();
    }
    let mut tag_h = 0u64;
    feed(&mut healthy, &mut tag_h, 4);
    d.tick(); // decides fine (decide-before-fold), folds the poison
    assert!(d.quarantine_reason(poison.id()).is_none());

    // ...and the next boundary beat forces a rate read over the sum.
    let _ = poison.push_sample(beat(4));
    feed(&mut healthy, &mut tag_h, 4);
    d.tick();
    assert_eq!(
        d.quarantine_reason(poison.id()),
        Some(QuarantineReason::WindowOverflow)
    );
    assert_eq!(
        poison.quarantine_reason(),
        Some(QuarantineReason::WindowOverflow)
    );

    // The healthy neighbor never noticed.
    assert!(healthy.quarantine_reason().is_none());
    let before = healthy.beats_processed();
    feed(&mut healthy, &mut tag_h, 4);
    d.tick();
    assert_eq!(healthy.beats_processed(), before + 4);
    assert!(healthy.latest_gain().is_some());
}

#[test]
fn respawned_shard_continues_survivors_bit_identically() {
    let mut faulted = daemon(1);
    let mut twin = daemon(1);
    let mut apps_f: Vec<AppHandle> = (0..2)
        .map(|_| faulted.register(runtime_config(), test_table()).unwrap())
        .collect();
    let mut apps_t: Vec<AppHandle> = (0..2)
        .map(|_| twin.register(runtime_config(), test_table()).unwrap())
        .collect();

    let mut tags = [0u64; 2];
    let quantum = |faulted: &mut PowerDialDaemon,
                   twin: &mut PowerDialDaemon,
                   apps_f: &mut Vec<AppHandle>,
                   apps_t: &mut Vec<AppHandle>,
                   tags: &mut [u64; 2]| {
        let mut shared_tags = *tags;
        for (i, app) in apps_f.iter_mut().enumerate() {
            feed(app, &mut shared_tags[i], 4);
        }
        for (i, app) in apps_t.iter_mut().enumerate() {
            feed(app, &mut tags[i], 4);
        }
        let beats_f = faulted.tick();
        let beats_t = twin.tick();
        (beats_f, beats_t)
    };

    for _ in 0..5 {
        let (beats_f, beats_t) =
            quantum(&mut faulted, &mut twin, &mut apps_f, &mut apps_t, &mut tags);
        assert_eq!(beats_f, beats_t);
    }

    // Kill the only worker (it dies holding its shard lock — the worst
    // case), then resurrect it at the same index.
    assert!(faulted.inject_worker_panic(0));
    assert_eq!(faulted.live_workers(), 0);
    assert_eq!(faulted.respawn_dead(), 1);
    assert_eq!(faulted.live_workers(), 1);
    assert_eq!(faulted.shard_deaths(), 1);
    assert_eq!(faulted.shard_respawns(), 1);
    assert_eq!(faulted.apps_migrated(), 2);

    // The migrated shard carries its whole live state: every subsequent
    // decision observable stays bit-identical to the no-fault twin.
    for _ in 0..5 {
        let (beats_f, beats_t) =
            quantum(&mut faulted, &mut twin, &mut apps_f, &mut apps_t, &mut tags);
        assert_eq!(beats_f, beats_t, "post-respawn quantum diverged");
        for (f, t) in apps_f.iter().zip(&apps_t) {
            assert_eq!(f.beats_processed(), t.beats_processed());
            assert_eq!(
                f.latest_gain().map(f64::to_bits),
                t.latest_gain().map(f64::to_bits)
            );
            assert_eq!(f.latest_point(), t.latest_point());
            assert_eq!(
                f.achieved_speedup().map(f64::to_bits),
                t.achieved_speedup().map(f64::to_bits)
            );
        }
    }
}

#[test]
fn reaping_a_quarantined_shm_app_frees_its_slot() {
    const BEATS: u64 = 8;
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(CAPACITY).unwrap()).unwrap());
    let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

    // The producer dies without detaching, leaving a backlog in the ring.
    let child = fork_child(|| {
        let Ok(mut producer) = ShmProducer::attach(Arc::clone(&segment)) else {
            return 1;
        };
        for tag in 0..BEATS {
            if producer.try_push(beat(tag)).is_err() {
                return 2;
            }
        }
        std::mem::forget(producer); // die with the claim held
        0
    })
    .unwrap();
    assert_eq!(child.wait().unwrap(), ChildExit::Exited(0));

    let mut d = daemon(0);
    let view = d
        .register_shm(runtime_config(), test_table(), consumer)
        .unwrap();

    // Un-quarantined protocol: a corpse with a backlog is *not* reaped —
    // the reaper wakes the slot so the next tick drains the stragglers.
    assert!(d.reap_dead().is_empty());

    // Quarantine the app before that drain happens: the backlog is now
    // forfeit and the corpse must not park the slot forever.
    assert!(d.inject_app_panic(view.id()));
    d.tick();
    assert_eq!(
        d.quarantine_reason(view.id()),
        Some(QuarantineReason::Panic)
    );
    assert_eq!(view.quarantine_reason(), Some(QuarantineReason::Panic));

    let reaped = d.reap_dead();
    assert_eq!(reaped, vec![view.id()]);
    assert_eq!(d.app_count(), 0);
    assert_eq!(d.quarantined_apps(), 0, "the reap cleared the incident");

    // The slot is genuinely reusable: a fresh app registers and gets
    // controlled.
    let mut fresh = d.register(runtime_config(), test_table()).unwrap();
    let mut tag = 0u64;
    feed(&mut fresh, &mut tag, 8);
    assert!(d.tick() > 0);
    assert!(fresh.latest_gain().is_some());
    assert!(fresh.quarantine_reason().is_none());
}
