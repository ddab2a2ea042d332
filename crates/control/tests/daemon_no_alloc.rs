//! Proof that the daemon's per-quantum drain loop is steady-state
//! allocation-free.
//!
//! Mirrors the `no_alloc` discipline of the single-app hot path: a counting
//! global allocator wraps the system allocator; after a warm-up phase (the
//! first drains grow the shard's scratch buffer to the channel capacity and
//! the runtimes fill their planning buffers), hundreds of further quanta —
//! producer pushes, batched drains, per-beat control, decision publication —
//! must not allocate at all.
//!
//! The daemon runs in inline mode so the measured drain loop executes on
//! the test thread, where the thread-local counter sees it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use powerdial_control::daemon::{AppHandle, DaemonConfig, PowerDialDaemon};
use powerdial_control::{ActuationPolicy, ControllerConfig, RuntimeConfig};
use powerdial_heartbeats::channel::BeatSample;
use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
use powerdial_heartbeats::{HeartbeatTag, Timestamp, TimestampDelta};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

struct CountingAllocator;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

fn test_table() -> KnobTable {
    let speedups = [1.0, 1.4, 2.0, 2.8, 4.0];
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

/// One quantum of producer + daemon work for every app: emit `quantum`
/// beats per app with wandering latencies, then drain and control.
fn run_quantum(
    daemon: &mut PowerDialDaemon,
    apps: &mut [(AppHandle, Timestamp)],
    quantum: u64,
    round: u64,
) -> u64 {
    for (index, (app, now)) in apps.iter_mut().enumerate() {
        for beat in 0..quantum {
            let jitter = (round * 13 + beat * 7 + index as u64) % 60;
            *now += TimestampDelta::from_millis(15 + jitter);
            app.beat(*now).expect("channel sized for a full quantum");
        }
    }
    let beats = daemon.tick();
    // A supervision cycle reaps after every tick; the nothing-is-dead scan
    // is part of the steady state and must stay allocation-free too.
    assert!(daemon.reap_dead().is_empty());
    beats
}

#[test]
fn per_quantum_drain_loop_does_not_allocate() {
    for policy in [ActuationPolicy::MinimalSpeedup, ActuationPolicy::RaceToIdle] {
        let mut daemon = PowerDialDaemon::new(DaemonConfig {
            workers: 0, // inline: the drain loop runs on this thread
            channel_capacity: 64,
            window_size: 20,
            inline_apps: 0,
            idle_skip_limit: 0,
            drain_cap: 0,
            telemetry: true,
            trace_capacity: DaemonConfig::DEFAULT_TRACE_CAPACITY,
            safe_point: 0,
        })
        .unwrap();
        let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
            .with_policy(policy)
            .with_quantum_heartbeats(20)
            .unwrap();
        let mut apps: Vec<(AppHandle, Timestamp)> = (0..8)
            .map(|_| {
                (
                    daemon.register(config, test_table()).unwrap(),
                    Timestamp::ZERO,
                )
            })
            .collect();

        // Warm: grow the shard scratch buffer (first drains), fill every
        // runtime's preallocated planning buffer, and cross a few quantum
        // boundaries so replans are exercised.
        for round in 0..10u64 {
            run_quantum(&mut daemon, &mut apps, 20, round);
        }

        let before = allocations();
        let mut beats = 0u64;
        for round in 0..200u64 {
            beats += run_quantum(&mut daemon, &mut apps, 20, round + 10);
        }
        std::hint::black_box(beats);
        assert_eq!(beats, 200 * 20 * 8, "every emitted beat was processed");
        assert_eq!(
            allocations() - before,
            0,
            "steady-state per-quantum drain loop must not allocate (policy {policy})"
        );
    }
}

#[test]
fn per_quantum_shm_drain_loop_does_not_allocate() {
    // The same contract over the cross-process transport: once the
    // segments are mapped and every buffer is warm, a daemon quantum over
    // shm-backed apps — producer pushes into the mapping, batched drains
    // out of it, per-beat control, decision publication — is
    // allocation-free.
    let mut daemon = PowerDialDaemon::new(DaemonConfig {
        workers: 0, // inline: the drain loop runs on this thread
        channel_capacity: 64,
        window_size: 20,
        inline_apps: 0,
        idle_skip_limit: 0,
        drain_cap: 0,
        telemetry: true,
        trace_capacity: DaemonConfig::DEFAULT_TRACE_CAPACITY,
        safe_point: 0,
    })
    .unwrap();
    let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
        .with_quantum_heartbeats(20)
        .unwrap();

    let mut producers: Vec<(ShmProducer, HeartbeatTag, Timestamp)> = (0..4)
        .map(|_| {
            let segment =
                Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
            let producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
            let consumer = ShmConsumer::attach(segment).unwrap();
            daemon.register_shm(config, test_table(), consumer).unwrap();
            (producer, HeartbeatTag::default(), Timestamp::ZERO)
        })
        .collect();

    let run_quantum = |daemon: &mut PowerDialDaemon,
                       producers: &mut Vec<(ShmProducer, HeartbeatTag, Timestamp)>,
                       round: u64| {
        for (index, (producer, tag, now)) in producers.iter_mut().enumerate() {
            for beat in 0..20u64 {
                let jitter = (round * 13 + beat * 7 + index as u64) % 60;
                let latency = TimestampDelta::from_millis(15 + jitter);
                *now += latency;
                producer
                    .try_push(BeatSample {
                        tag: *tag,
                        timestamp: *now,
                        latency: if tag.value() == 0 {
                            TimestampDelta::ZERO
                        } else {
                            latency
                        },
                    })
                    .expect("segment sized for a full quantum");
                *tag = tag.next();
            }
        }
        let beats = daemon.tick();
        // The reap scan probes every live shm segment and finds nothing
        // dead — the every-cycle case, which must not allocate.
        assert!(daemon.reap_dead().is_empty());
        beats
    };

    // Warm scratch and planning buffers.
    for round in 0..10u64 {
        run_quantum(&mut daemon, &mut producers, round);
    }

    let before = allocations();
    let mut beats = 0u64;
    for round in 0..200u64 {
        beats += run_quantum(&mut daemon, &mut producers, round + 10);
    }
    std::hint::black_box(beats);
    assert_eq!(beats, 200 * 20 * 4, "every emitted beat was processed");
    assert_eq!(
        allocations() - before,
        0,
        "steady-state shm drain loop must not allocate"
    );
}

/// A producer that dies *inside* the measured window: the exit event, the
/// fan-out to the app that watched it, the wake of its undrained slot and
/// the tick that drains the tail allocate nothing. The first allocation
/// is the list of reaped ids handed to the caller.
#[cfg(target_os = "linux")]
#[test]
fn producer_death_allocates_nothing_until_the_reaped_ids_are_handed_over() {
    use powerdial_heartbeats::shm::process::fork_child;

    let mut daemon = PowerDialDaemon::new(DaemonConfig {
        workers: 0, // inline: the drain loop runs on this thread
        channel_capacity: 64,
        window_size: 20,
        inline_apps: 0,
        idle_skip_limit: 3,
        drain_cap: 0,
        telemetry: true,
        trace_capacity: DaemonConfig::DEFAULT_TRACE_CAPACITY,
        safe_point: 0,
    })
    .unwrap();
    let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
        .with_quantum_heartbeats(20)
        .unwrap();
    let sample = |tag: u64| BeatSample {
        tag: HeartbeatTag(tag),
        timestamp: Timestamp::from_millis(tag * 30),
        latency: TimestampDelta::from_millis(if tag == 0 { 0 } else { 30 }),
    };

    // One app fed by this process, one by a forked producer that keeps its
    // ring topped up until it is killed.
    let new_segment =
        || Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
    let own_segment = new_segment();
    let mut own = ShmProducer::attach(Arc::clone(&own_segment)).unwrap();
    let consumer = ShmConsumer::attach(own_segment).unwrap();
    daemon.register_shm(config, test_table(), consumer).unwrap();

    let doomed_segment = new_segment();
    let consumer = ShmConsumer::attach(Arc::clone(&doomed_segment)).unwrap();
    let doomed_ring = consumer.probe();
    let doomed = daemon.register_shm(config, test_table(), consumer).unwrap();
    let parent = std::process::id();
    let child = fork_child(move || {
        let Ok(mut producer) = ShmProducer::attach(doomed_segment) else {
            return 1;
        };
        let mut tag = 0u64;
        while std::os::unix::process::parent_id() == parent {
            if producer.try_push(sample(tag)).is_ok() {
                tag += 1;
            }
        }
        2
    })
    .unwrap();

    let mut own_tag = 0u64;
    let mut round = |daemon: &mut PowerDialDaemon| {
        for _ in 0..20 {
            own.try_push(sample(own_tag)).unwrap();
            own_tag += 1;
        }
        daemon.tick();
    };
    // Warm: scratch and planning buffers, and the watch on the child (its
    // claim must have been seen by a reap for the death to be an event).
    while doomed.beats_processed() < 200 {
        round(&mut daemon);
        assert!(daemon.reap_dead().is_empty());
    }
    assert_eq!(daemon.liveness_counts().watched_processes, 2);

    let before = allocations();
    let mut reaped_in_round = None;
    let mut reaping_call_allocations = 0;
    for index in 0..100u64 {
        round(&mut daemon);
        if index == 40 {
            // Dies with a tail in the ring, between a tick and a reap.
            while doomed_ring.pending() == 0 {
                std::hint::spin_loop();
            }
            child.kill().unwrap();
            child.await_exit().unwrap();
        }
        let entering = allocations();
        let reaped = daemon.reap_dead();
        if !reaped.is_empty() {
            reaping_call_allocations = allocations() - entering;
            assert_eq!(reaped_in_round.replace(index), None);
            assert_eq!(reaped.as_slice(), [doomed.id()]);
        }
    }
    let total = allocations() - before;
    child.wait().unwrap();

    assert_eq!(
        reaped_in_round,
        Some(41),
        "event and wake in round 40, tail drained and app reaped in round 41"
    );
    assert_eq!(daemon.liveness_counts().death_events, 1);
    assert_eq!(
        reaping_call_allocations, 1,
        "the returned list, nothing else"
    );
    assert_eq!(
        total - reaping_call_allocations,
        0,
        "a death is allocation-free until its app is handed to the caller"
    );
}
