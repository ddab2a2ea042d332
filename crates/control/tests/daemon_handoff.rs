//! The worker hand-off, from outside: whichever thread ends up running a
//! shard's quantum, every tick runs every shard exactly once.
//!
//! * A seeded tick schedule over two workers with inter-tick gaps drawn
//!   from {0, half a spin budget, a budget, ten budgets, 2 ms} — so ticks
//!   land on a spinning thread, on one giving up, on a parked one, on one
//!   just woken — and after **every** tick the beats reported equal the
//!   beats pushed, and every app's decision equals that of a twin daemon
//!   without workers and of the serial mutex daemon fed the same beats.
//! * The same on one CPU, against the clock: a forked child pinned to a
//!   single CPU must get through 10 000 busy ticks in no more than twice
//!   its worker-less twin's time. A thread that can only spin while the
//!   façade is not running must never be waited for.
//! * The snapshot's `handoff` counts say which thread did the work — and
//!   for a fleet within the default `inline_apps`, that no worker thread
//!   was ever offered any.
//! * Dropping a daemon joins its threads at once, spinning or parked.
//!
//! Replay a failing schedule with `POWERDIAL_CHAOS_SEED=<seed>`. Timing
//! assertions are for release builds; run with `cargo test --release`.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use powerdial_control::daemon::naive::{NaiveAppHandle, SerialMutexDaemon};
use powerdial_control::daemon::{AppHandle, DaemonConfig, PowerDialDaemon};
use powerdial_control::{ControllerConfig, HandoffCounts, RuntimeConfig};
use powerdial_heartbeats::shm::process::{fork_child, ChildExit};
use powerdial_heartbeats::{Timestamp, TimestampDelta};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

/// The hand-off's spin budget (`handoff::SPIN_BUDGET`, private to the
/// crate): the gaps below are placed around it.
const BUDGET: Duration = Duration::from_micros(50);
const QUANTUM: u64 = 20;

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

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
}

fn config(workers: usize) -> DaemonConfig {
    DaemonConfig {
        workers,
        channel_capacity: 64,
        inline_apps: 1,
        ..DaemonConfig::default()
    }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn seeds() -> Vec<u64> {
    match std::env::var("POWERDIAL_CHAOS_SEED") {
        Ok(seed) => vec![seed
            .trim()
            .parse()
            .or_else(|_| u64::from_str_radix(seed.trim().trim_start_matches("0x"), 16))
            .expect("POWERDIAL_CHAOS_SEED must be a u64 (decimal or 0x-hex)")],
        Err(_) => vec![0x4A9D_0001, 0x4A9D_0002],
    }
}

/// A daemon under test and the apps registered with it, each app emitting
/// its own clock.
struct Fleet {
    daemon: PowerDialDaemon,
    apps: Vec<AppHandle>,
    clocks: Vec<Timestamp>,
}

impl Fleet {
    /// [`Fleet::new`] with the worker threads on `cpus[1]` and the calling
    /// thread, from here on, on `cpus[0]` — when there are two to be had.
    /// Whether the scheduler would have given the workers a CPU of their
    /// own is the host's business (on a two-CPU box it wakes a thread
    /// next to its busy waker and leaves it there); what the hand-off
    /// does when it has not is the one-CPU test's.
    fn spread(workers: usize, apps: usize, cpus: &[usize]) -> Fleet {
        let [first, second, ..] = cpus else {
            return Fleet::new(workers, apps);
        };
        affinity::pin(&[*second]);
        let fleet = Fleet::new(workers, apps);
        affinity::pin(&[*first]);
        fleet
    }

    fn new(workers: usize, apps: usize) -> Fleet {
        Fleet::with_config(config(workers), apps)
    }

    fn with_config(config: DaemonConfig, apps: usize) -> Fleet {
        let mut daemon = PowerDialDaemon::new(config).unwrap();
        let apps = (0..apps)
            .map(|_| daemon.register(runtime_config(), test_table()).unwrap())
            .collect::<Vec<_>>();
        Fleet {
            daemon,
            clocks: vec![Timestamp::ZERO; apps.len()],
            apps,
        }
    }

    /// `beats` beats into app `index`, `pace_ms` apart.
    fn push(&mut self, index: usize, beats: u64, pace_ms: u64) {
        for _ in 0..beats {
            self.clocks[index] += TimestampDelta::from_millis(pace_ms);
            self.apps[index].beat(self.clocks[index]).unwrap();
        }
    }

    /// One quantum into every app, then a tick that must account for it.
    fn busy_tick(&mut self) {
        for index in 0..self.apps.len() {
            self.push(index, QUANTUM, 40 + index as u64);
        }
        assert_eq!(self.daemon.tick(), QUANTUM * self.apps.len() as u64);
    }

    fn handoff(&mut self) -> HandoffCounts {
        self.daemon.telemetry_snapshot().handoff
    }
}

/// The same fleet on the serial mutex daemon.
struct SerialFleet {
    daemon: SerialMutexDaemon,
    apps: Vec<NaiveAppHandle>,
    clocks: Vec<Timestamp>,
}

impl SerialFleet {
    fn new(apps: usize) -> SerialFleet {
        let mut daemon = SerialMutexDaemon::new(config(0)).unwrap();
        SerialFleet {
            apps: (0..apps)
                .map(|_| daemon.register(runtime_config(), test_table()).unwrap())
                .collect(),
            clocks: vec![Timestamp::ZERO; apps],
            daemon,
        }
    }

    fn push(&mut self, index: usize, beats: u64, pace_ms: u64) {
        for _ in 0..beats {
            self.clocks[index] += TimestampDelta::from_millis(pace_ms);
            self.apps[index].beat(self.clocks[index]).unwrap();
        }
    }
}

/// Every test here is about which thread gets a CPU when, and the harness
/// would otherwise run them all at once on whatever CPUs there are.
fn alone() -> std::sync::MutexGuard<'static, ()> {
    static ALONE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    ALONE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn busy_wait(gap: Duration) {
    let start = Instant::now();
    while start.elapsed() < gap {
        std::hint::spin_loop();
    }
}

#[test]
fn every_tick_runs_every_shard_once_whatever_the_worker_is_doing() {
    let _alone = alone();
    const APPS: usize = 5; // one inline, two on each worker
    const TICKS: usize = 20_000;
    let cpus = affinity::allowed();
    for seed in seeds() {
        let mut rng = SplitMix64(seed);
        let mut threaded = Fleet::spread(2, APPS, &cpus);
        let mut twin = Fleet::new(0, APPS);
        let mut serial = SerialFleet::new(APPS);

        for tick in 0..TICKS {
            let gap = match rng.next() % 20 {
                0..=7 => Duration::ZERO,
                8..=11 => BUDGET / 2,
                12..=15 => BUDGET,
                16..=18 => BUDGET * 10,
                _ => Duration::from_millis(2),
            };
            if gap >= Duration::from_millis(1) {
                std::thread::sleep(gap);
            } else {
                busy_wait(gap);
            }
            // A quarter of the ticks find nothing at all; otherwise each
            // app has emitted anything from nothing to two quanta.
            let silent = rng.next().is_multiple_of(4);
            let mut pushed = 0;
            for index in 0..APPS {
                let beats = if silent {
                    0
                } else {
                    rng.next() % (2 * QUANTUM + 1)
                };
                let pace_ms = 20 + rng.next() % 40;
                threaded.push(index, beats, pace_ms);
                twin.push(index, beats, pace_ms);
                serial.push(index, beats, pace_ms);
                pushed += beats;
            }
            let context = format!("seed {seed:#x}, tick {tick}, gap {gap:?}");
            assert_eq!(threaded.daemon.tick(), pushed, "{context}");
            assert_eq!(twin.daemon.tick(), pushed, "{context}");
            assert_eq!(serial.daemon.tick(), pushed, "{context}");
            for index in 0..APPS {
                let (a, b, c) = (
                    &threaded.apps[index],
                    &twin.apps[index],
                    &serial.apps[index],
                );
                let gain = a.latest_gain().map(f64::to_bits);
                assert_eq!(gain, b.latest_gain().map(f64::to_bits), "{context}");
                assert_eq!(gain, c.latest_gain().map(f64::to_bits), "{context}");
                assert_eq!(a.beats_processed(), b.beats_processed(), "{context}");
                assert_eq!(a.beats_processed(), c.beats_processed(), "{context}");
            }
        }

        let counts = threaded.handoff();
        eprintln!("seed {seed:#x}: {counts:?}");
        assert_eq!(
            counts.hot_ticks + counts.serial_ticks,
            2 * TICKS as u64,
            "one quantum per worker shard per tick"
        );
        assert_eq!(twin.handoff(), HandoffCounts::default());
        assert_eq!(threaded.daemon.shard_deaths(), 0);
        // Which thread ran how many depends on there being a second CPU
        // for a worker to spin on, and on ticks that take less than a
        // spin budget, which a debug build's do not.
        if cpus.len() > 1 && !cfg!(debug_assertions) {
            assert!(counts.hot_ticks > 1_000, "{counts:?}");
            assert!(counts.serial_ticks > 1_000, "{counts:?}");
            assert!(counts.rearms > 100, "{counts:?}");
        }
    }
}

mod affinity {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    /// The CPUs the calling thread may run on (empty if the kernel will
    /// not say).
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a valid, writable 1024-bit CPU set of the
        // stated size.
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Confines the calling thread — and every thread it spawns from here
    /// on — to `cpus`.
    pub fn pin(cpus: &[usize]) -> bool {
        let mut mask = [0u64; 16];
        for cpu in cpus {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a valid 1024-bit CPU set of the stated size.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }

    /// Straight to fd 2: a forked child inherits the test harness's
    /// captured `stderr`, which nobody would read.
    pub fn report(line: &str) {
        // SAFETY: the buffer is valid for its length.
        unsafe { write(2, line.as_ptr(), line.len()) };
    }
}

/// `ticks` busy ticks on a fresh fleet; the fastest of three passes.
fn fastest_pass(workers: usize, ticks: usize) -> Duration {
    (0..3)
        .map(|_| {
            let mut fleet = Fleet::new(workers, 5);
            let start = Instant::now();
            for _ in 0..ticks {
                fleet.busy_tick();
            }
            start.elapsed()
        })
        .min()
        .expect("three passes")
}

/// Every spin in the hand-off is bounded, and on one CPU every one of
/// them is wasted: a worker thread can only spin while the façade is not
/// running, and the façade can only wait for a thread that is not. The
/// wake back-off has to notice and leave the threads asleep.
#[test]
fn on_one_cpu_the_workers_cost_next_to_nothing() {
    let _alone = alone();
    const TICKS: usize = 10_000;
    let child = fork_child(|| {
        let Some(&cpu) = affinity::allowed().first() else {
            return 2;
        };
        if !affinity::pin(&[cpu]) {
            return 2;
        }
        let twin = fastest_pass(0, TICKS);
        let threaded = fastest_pass(2, TICKS);
        affinity::report(&format!(
            "one CPU, {TICKS} busy ticks: {threaded:?} with two workers, {twin:?} without\n"
        ));
        if threaded > Duration::from_secs(20) {
            return 3;
        }
        // The ratio is a release-build claim; a debug build's quanta are
        // an order of magnitude slower and hide what the hand-off costs.
        if !cfg!(debug_assertions) && threaded > twin * 2 {
            return 4;
        }
        0
    })
    .unwrap();
    assert_eq!(
        child.wait().unwrap(),
        ChildExit::Exited(0),
        "exit codes: 2 could not pin, 3 over the wall bound, 4 over twice the twin's time"
    );
}

#[test]
fn the_snapshot_counts_which_thread_ran_the_quanta() {
    let _alone = alone();
    let cpus = affinity::allowed();
    if cpus.len() < 2 || cfg!(debug_assertions) {
        eprintln!(
            "skipped: needs a second CPU for a worker thread to spin on, and release-build ticks"
        );
        return;
    }
    // Back-to-back busy ticks: once the thread is up it takes them all,
    // and the façade never has to sleep waiting for it. That is a claim
    // about the hand-off, not about what else the host schedules onto the
    // worker's CPU — each such visit costs a revoked quantum and a wake-up
    // (up to a scheduler timeslice of it) — so it has to hold in one window
    // of 10 000 out of twenty.
    let mut fleet = Fleet::spread(1, 3, &cpus);
    let mut windows = Vec::new();
    for _ in 0..20 {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut before = fleet.handoff();
        loop {
            assert!(Instant::now() < deadline, "the worker never took a quantum");
            for _ in 0..100 {
                fleet.busy_tick();
            }
            // The snapshot takes longer than a spinning thread waits.
            let after = fleet.handoff();
            if after.hot_ticks - before.hot_ticks == 100 {
                break;
            }
            before = after;
        }
        fleet.busy_tick();
        let before = fleet.handoff();
        for _ in 0..10_000 {
            fleet.busy_tick();
        }
        let after = fleet.handoff();
        let hot = after.hot_ticks - before.hot_ticks;
        let parks = after.collect_parks - before.collect_parks;
        windows.push((hot, parks));
        if hot >= 9_990 && parks <= 2 {
            return;
        }
    }
    panic!("(quanta on the worker, façade parks) per 10 000 busy ticks: {windows:?}");
}

#[test]
fn silence_wakes_nobody() {
    let _alone = alone();
    let mut fleet = Fleet::new(1, 3);
    for _ in 0..1_000 {
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(fleet.daemon.tick(), 0);
    }
    assert_eq!(
        fleet.handoff(),
        HandoffCounts {
            serial_ticks: 1_000,
            ..HandoffCounts::default()
        }
    );
    // Without workers there is no hand-off to count.
    let mut inline = Fleet::new(0, 3);
    for _ in 0..100 {
        inline.busy_tick();
    }
    assert_eq!(inline.handoff(), HandoffCounts::default());
}

/// A fleet no larger than [`DaemonConfig::DEFAULT_INLINE_APPS`] never
/// involves a worker thread, however many there are: a tick skips a worker
/// that has no apps, so nothing is offered and nobody is woken. (What the
/// mode costs is `react_solo` and `drain_threaded` in `BENCHMARK.json`.)
#[test]
fn a_solo_app_under_the_default_placement_never_involves_a_worker() {
    let _alone = alone();
    let fleet = |workers| {
        let placement = DaemonConfig {
            inline_apps: DaemonConfig::DEFAULT_INLINE_APPS,
            ..config(workers)
        };
        Fleet::with_config(placement, 1)
    };
    let mut threaded = fleet(8);
    let mut twin = fleet(0);
    assert_eq!(threaded.daemon.workers(), 8);
    for tick in 0..1_000 {
        threaded.busy_tick();
        twin.busy_tick();
        let (a, b) = (&threaded.apps[0], &twin.apps[0]);
        assert_eq!(
            a.latest_gain().map(f64::to_bits),
            b.latest_gain().map(f64::to_bits),
            "tick {tick}"
        );
        assert_eq!(a.beats_processed(), b.beats_processed(), "tick {tick}");
    }
    assert_eq!(threaded.handoff(), HandoffCounts::default());
}

#[test]
fn dropping_the_daemon_joins_a_spinning_and_a_parked_worker_promptly() {
    let _alone = alone();
    // Apps 1 and 2 sit on workers 0 and 1; only worker 0's app ever beats,
    // so worker 1's thread is never woken.
    let mut fleet = Fleet::spread(2, 3, &affinity::allowed());
    let deadline = Instant::now() + Duration::from_secs(2);
    while fleet.handoff().hot_ticks == 0 && Instant::now() < deadline {
        for _ in 0..100 {
            fleet.push(1, QUANTUM, 40);
            assert_eq!(fleet.daemon.tick(), QUANTUM);
        }
    }
    fleet.push(1, QUANTUM, 40);
    fleet.daemon.tick();
    let Fleet { daemon, .. } = fleet;
    let start = Instant::now();
    drop(daemon);
    let took = start.elapsed();
    assert!(took < Duration::from_millis(100), "drop took {took:?}");
}
