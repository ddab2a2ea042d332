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
//! the test thread, where the thread-local counter sees it. The one test
//! with a worker thread reads that thread's allocations from a second
//! counter, which the allocator hook feeds on threads named like the
//! daemon's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Allocations made on the daemon's worker threads, whichever test they
/// belong to (one test has any).
static WORKER_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Whether the calling thread is one of the daemon's `powerdial-shard-N`
/// workers, by the name the OS has for it (15 bytes: `powerdial-shard`).
/// Asked of the OS and not of `std::thread::current()`, which is not to be
/// called from inside an allocator; only a yes is remembered, because a
/// thread allocates before it has been given its name.
#[cfg(target_os = "linux")]
fn on_a_worker_thread() -> bool {
    extern "C" {
        fn pthread_self() -> usize;
        fn pthread_getname_np(thread: usize, name: *mut u8, len: usize) -> i32;
    }
    thread_local! {
        static WORKER: Cell<bool> = const { Cell::new(false) };
    }
    WORKER
        .try_with(|worker| {
            if !worker.get() {
                let mut name = [0u8; 16];
                // SAFETY: `name` is writable for the length passed, which
                // is the 16 bytes the call requires.
                let named =
                    unsafe { pthread_getname_np(pthread_self(), name.as_mut_ptr(), name.len()) };
                worker.set(named == 0 && name.starts_with(b"powerdial-shard"));
            }
            worker.get()
        })
        .unwrap_or(false)
}

#[cfg(not(target_os = "linux"))]
fn on_a_worker_thread() -> bool {
    false
}

fn count_allocation() {
    let _ = THREAD_ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    if on_a_worker_thread() {
        WORKER_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
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
            inline_apps: 0,
            ..DaemonConfig::default()
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

/// What one `register` allocates. The rate window used to own three heap
/// blocks per app (its latencies and two extremum deques); it is one ring
/// now, two blocks fewer. The runtime gained one — the `quantum + 1`
/// words it remembers its beat interleaves in, sized at construction so
/// that planning never allocates — so a registration that made 8
/// allocations at the parent of that change makes 7 after it.
#[test]
fn a_registration_allocates_fewer_blocks_than_with_the_deque_window() {
    const WITH_THE_DEQUE_WINDOW: u64 = 8;

    let mut daemon = PowerDialDaemon::new(DaemonConfig {
        workers: 0, // inline: registration runs on this thread
        channel_capacity: 64,
        inline_apps: 0,
        ..DaemonConfig::default()
    })
    .unwrap();
    let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
        .with_quantum_heartbeats(20)
        .unwrap();
    // The first registration also grows the shard's per-app vectors from
    // empty; the second finds room in them.
    let _first = daemon.register(config, test_table()).unwrap();

    let table = test_table();
    let before = allocations();
    let second = daemon.register(config, table);
    let made = allocations() - before;
    assert!(second.is_ok());
    assert!(
        made <= WITH_THE_DEQUE_WINDOW - 2 + 1,
        "one register made {made} allocations"
    );
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
        inline_apps: 0,
        ..DaemonConfig::default()
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

/// The supervised daemon's whole serve-loop iteration — not only the tick
/// inside it — over a window in which nobody connects, with the broker's
/// listener in the daemon's readiness set: the listener check, the
/// quantum, the reap scan, the respawn check and the idle ladder allocate
/// nothing, on busy iterations and on empty ones, and `accept` is not
/// asked once.
#[cfg(target_os = "linux")]
#[test]
fn serve_loop_iteration_does_not_allocate_while_nobody_connects() {
    use powerdial_control::{AttachBroker, BrokerConfig, ServeLoop, SupervisorConfig};

    let socket_path =
        std::env::temp_dir().join(format!("pd-no-alloc-{}-serve.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket_path);
    let supervisor_config = SupervisorConfig {
        socket_path: socket_path.clone(),
        daemon: DaemonConfig {
            workers: 0, // inline: the whole iteration runs on this thread
            channel_capacity: 64,
            inline_apps: 0,
            ..DaemonConfig::default()
        },
        target_rate: 30.0,
        baseline_rate: 30.0,
        poll_interval: std::time::Duration::ZERO,
        restart_backoff: std::time::Duration::ZERO,
        restart_backoff_cap: std::time::Duration::ZERO,
    };
    let table = test_table();
    let broker = AttachBroker::bind(BrokerConfig::new(&socket_path)).unwrap();
    let mut daemon = PowerDialDaemon::new(supervisor_config.daemon).unwrap();
    let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
        .with_quantum_heartbeats(20)
        .unwrap();
    let mut producers: Vec<(ShmProducer, u64)> = (0..4)
        .map(|_| {
            let segment =
                Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
            let producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
            let consumer = ShmConsumer::attach(segment).unwrap();
            daemon
                .register_shm(config, table.clone(), consumer)
                .unwrap();
            (producer, 0)
        })
        .collect();
    assert!(daemon.watch_listener(&broker));
    let mut serve = ServeLoop::new(&supervisor_config, &table, broker, daemon);

    // Every fourth iteration finds no beats, so the idle arm (spin, never
    // far enough up the ladder to sleep) is inside the window too.
    let mut iterate = |serve: &mut ServeLoop, round: u64| {
        if round % 4 != 3 {
            for (index, (producer, tag)) in producers.iter_mut().enumerate() {
                for beat in 0..20u64 {
                    let jitter = (round * 13 + beat * 7 + index as u64) % 60;
                    producer
                        .try_push(BeatSample {
                            tag: HeartbeatTag(*tag),
                            timestamp: Timestamp::from_millis(*tag * 40),
                            latency: TimestampDelta::from_millis(15 + jitter),
                        })
                        .expect("segment sized for a full quantum");
                    *tag += 1;
                }
            }
        }
        serve.iterate().unwrap();
    };
    // Warm scratch and planning buffers, and let the first reap settle
    // the producer claims (a pidfd, the watch table's first slot).
    for round in 0..12u64 {
        iterate(&mut serve, round);
    }
    assert_eq!(serve.broker().accept_calls(), 1, "the first iteration's");

    let before = allocations();
    for round in 12..212u64 {
        iterate(&mut serve, round);
    }
    assert_eq!(
        allocations() - before,
        0,
        "a serve-loop iteration that serves nobody must not allocate"
    );
    assert_eq!(serve.broker().accept_calls(), 1, "nobody connected");
    assert_eq!(serve.daemon().total_beats(), 159 * 20 * 4);
    drop(serve);
    let _ = std::fs::remove_file(&socket_path);
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
        inline_apps: 0,
        idle_skip_limit: 3,
        ..DaemonConfig::default()
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

/// The worker hand-off allocates on neither side of it: not while the
/// worker thread takes every quantum, not while the façade runs the
/// quanta of a thread that sleeps, and not across the sleep → wake-up →
/// first-quantum transition in between.
#[cfg(target_os = "linux")]
#[test]
fn worker_hand_off_does_not_allocate_on_either_thread() {
    // The worker thread gets the second CPU this thread may use and this
    // thread keeps to the first: left to itself a two-CPU host wakes the
    // worker next to its waker, where it never gets to take a quantum.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable 1024-bit CPU set of the stated size.
    assert_eq!(
        unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) },
        0
    );
    let mut cpus = (0..1024).filter(|cpu| allowed[cpu / 64] & (1 << (cpu % 64)) != 0);
    let pin = |cpu: Option<usize>| {
        let mut mask = [0u64; 16];
        if let Some(cpu) = cpu {
            mask[cpu / 64] = 1 << (cpu % 64);
            // SAFETY: `mask` is a valid CPU set of the stated size.
            assert_eq!(unsafe { sched_setaffinity(0, size, mask.as_ptr()) }, 0);
        }
    };
    let (first, second) = (cpus.next(), cpus.next());
    pin(second);
    let mut daemon = PowerDialDaemon::new(DaemonConfig {
        workers: 1,
        channel_capacity: 64,
        inline_apps: 1, // one app on the façade's shard, three on the worker's
        ..DaemonConfig::default()
    })
    .unwrap();
    pin(second.and(first));
    let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
        .with_quantum_heartbeats(20)
        .unwrap();
    let mut apps: Vec<(AppHandle, Timestamp)> = (0..4)
        .map(|_| {
            (
                daemon.register(config, test_table()).unwrap(),
                Timestamp::ZERO,
            )
        })
        .collect();
    let mut round = 0u64;
    let mut quanta = |daemon: &mut PowerDialDaemon, count: u64| {
        for _ in 0..count {
            assert_eq!(run_quantum(daemon, &mut apps, 20, round), 4 * 20);
            round += 1;
        }
    };

    // Warm: buffers grown, and the thread up and taking quanta — a thread
    // allocates while it starts (std copies its name), and on a busy host
    // that can be a while after the spawn. A host that never lets it run
    // next to this thread leaves only the façade's side to measure.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let mut worker_ran = false;
    while !worker_ran && std::time::Instant::now() < deadline {
        quanta(&mut daemon, 50);
        worker_ran = daemon.telemetry_snapshot().handoff.hot_ticks > 0;
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    quanta(&mut daemon, 10);

    // One cycle: back-to-back quanta (the thread spins between them), a
    // pause far longer than it spins for (it parks), a silent quantum the
    // façade runs and wakes nobody for, then busy ones — the first run by
    // the façade, which wakes the thread, the rest by whichever of them
    // has it until the thread is up. What else the host runs decides which
    // of those a cycle actually crosses, so: as many cycles as it takes to
    // have seen them all, and no allocation in any.
    let counts_before = daemon.telemetry_snapshot().handoff;
    let mut counts = counts_before;
    for _ in 0..50 {
        let (mine, workers) = (allocations(), WORKER_ALLOCATIONS.load(Ordering::Relaxed));
        quanta(&mut daemon, 200);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(daemon.tick(), 0);
        quanta(&mut daemon, 200);
        assert_eq!(allocations() - mine, 0, "the ticking thread allocated");
        if worker_ran {
            assert_eq!(
                WORKER_ALLOCATIONS.load(Ordering::Relaxed) - workers,
                0,
                "the worker thread allocated"
            );
        }
        counts = daemon.telemetry_snapshot().handoff;
        if counts.hot_ticks > counts_before.hot_ticks
            && counts.serial_ticks > counts_before.serial_ticks
            && counts.rearms > counts_before.rearms
        {
            break;
        }
    }

    eprintln!("hand-off across the window: {counts_before:?} -> {counts:?}");
    assert!(counts.serial_ticks > counts_before.serial_ticks);
    if worker_ran {
        assert!(counts.hot_ticks > counts_before.hot_ticks);
        assert!(counts.rearms > counts_before.rearms);
    }
}
