//! The reaper's watch against the rule it replaced.
//!
//! `PowerDialDaemon::reap_dead` used to ask the kernel about every shm
//! app's producer PID on every call (`ShmPeerProbe::producer_state`: a
//! `kill` and a read of `/proc/<pid>/stat`). It now watches producer
//! *processes* (pidfd + epoll, `powerdial_heartbeats::shm::watch`) and
//! keeps the syscall probe for claims the kernel will not watch. The old
//! rule is still there to be asked, so it is the oracle here:
//!
//! * a zombie producer — exited, never waited for — is reaped (the
//!   regression both arms had at the parent commit);
//! * over a seeded history of claims, beats, kills with and without a
//!   `wait`, detaches, re-claims, header scribbles, ticks, unregisters and
//!   segment reuse, every `reap_dead()` returns exactly the apps for which
//!   `producer_state().is_dead() && (pending() == 0 || quarantined)`, and
//!   the watch set holds exactly one pidfd per distinct live claim;
//! * with file descriptors exhausted, so that no pidfd can be had, the
//!   polled arm reaps the same deaths in the same number of rounds.
//!
//! Replay a failing history with `POWERDIAL_CHAOS_SEED=<seed>`.

#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use powerdial_control::daemon::{AppId, DaemonConfig, PowerDialDaemon};
use powerdial_control::{ControllerConfig, RuntimeConfig};
use powerdial_heartbeats::channel::BeatSample;
use powerdial_heartbeats::shm::process::{fork_child, ChildExit, ForkedChild};
use powerdial_heartbeats::shm::{
    Segment, SegmentGeometry, ShmConsumer, ShmError, ShmPeerProbe, ShmProducer,
};
use powerdial_heartbeats::{HeartbeatTag, Timestamp, TimestampDelta};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

const CAPACITY: usize = 64;
/// A PID beyond any configurable `pid_max`: the scribble every reap test
/// in the tree uses for "the producer is gone".
const NO_SUCH_PID: u32 = 0x7FFF_FF00;

fn test_table() -> KnobTable {
    let speedups = [1.0, 1.5, 2.0, 3.0];
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

fn daemon(workers: usize, idle_skip_limit: u32) -> PowerDialDaemon {
    PowerDialDaemon::new(DaemonConfig {
        workers,
        channel_capacity: CAPACITY,
        inline_apps: 1,
        idle_skip_limit,
        ..DaemonConfig::default()
    })
    .unwrap()
}

fn segment() -> Arc<Segment> {
    Arc::new(Segment::create(SegmentGeometry::for_beat_samples(CAPACITY).unwrap()).unwrap())
}

fn beat(tag: u64) -> BeatSample {
    BeatSample {
        tag: HeartbeatTag(tag),
        timestamp: Timestamp::from_millis(tag * 40),
        latency: TimestampDelta::from_millis(if tag == 0 { 0 } else { 40 }),
    }
}

/// Spins until `done`, failing the test instead of hanging it.
fn await_that(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// A forked producer process: claims every segment it is given, pushes up
/// to `beats` beats into each (stopping early at a full ring), then — with
/// `detach` — hands the roles back and exits 0, or else idles until it is
/// killed. Allocation-free after the fork, and it does not outlive the
/// test process.
fn fork_producer(segments: Vec<Arc<Segment>>, beats: u64, detach: bool) -> ForkedChild {
    let parent = std::process::id();
    fork_child(move || {
        let mut producers: [Option<ShmProducer>; 2] = [None, None];
        for (slot, segment) in producers.iter_mut().zip(&segments) {
            let Ok(mut producer) = ShmProducer::attach(Arc::clone(segment)) else {
                return 1;
            };
            let resume = producer.pushed();
            for tag in resume..resume + beats {
                if producer.try_push(beat(tag)).is_err() {
                    break;
                }
            }
            *slot = Some(producer);
        }
        if detach {
            for producer in producers.into_iter().flatten() {
                producer.detach();
            }
            return 0;
        }
        while std::os::unix::process::parent_id() == parent {
            std::thread::sleep(Duration::from_millis(1));
        }
        2
    })
    .unwrap()
}

/// Regression: a producer that pushed, exited and was never waited for is
/// a zombie, which `kill(pid, 0)` calls alive — at the parent commit its
/// app held its slot and segment until somebody reaped the process.
#[test]
fn zombie_producer_is_reaped_without_a_wait() {
    for workers in [0, 2] {
        let mut daemon = daemon(workers, 0);
        // Two apps, so that with workers one sits on a worker shard.
        let segments = [segment(), segment()];
        let views: Vec<_> = segments
            .iter()
            .map(|segment| {
                let consumer = ShmConsumer::attach(Arc::clone(segment)).unwrap();
                daemon
                    .register_shm(runtime_config(), test_table(), consumer)
                    .unwrap()
            })
            .collect();
        let child = fork_child({
            let segments = segments.clone();
            move || {
                for segment in &segments {
                    let Ok(mut producer) = ShmProducer::attach(Arc::clone(segment)) else {
                        return 1;
                    };
                    for tag in 0..5 {
                        if producer.try_push(beat(tag)).is_err() {
                            return 2;
                        }
                    }
                }
                0
            }
        })
        .unwrap();
        child.await_exit().unwrap();

        // The tail is pending: not yet. Then tick-and-reap collects both.
        assert!(daemon.reap_dead().is_empty());
        assert_eq!(daemon.tick(), 10);
        let mut reaped = daemon.reap_dead();
        reaped.sort();
        assert_eq!(reaped, vec![views[0].id(), views[1].id()]);
        assert_eq!(daemon.app_count(), 0);
        assert_eq!(daemon.liveness_counts().watched_processes, 0);
        assert_eq!(child.wait().unwrap(), ChildExit::Exited(0));
    }
}

/// splitmix64: the history's only randomness.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    /// A random element's index among those of `0..len` that `keep`.
    fn pick(&mut self, len: usize, keep: impl Fn(usize) -> bool) -> Option<usize> {
        let candidates: Vec<usize> = (0..len).filter(|&index| keep(index)).collect();
        (!candidates.is_empty()).then(|| candidates[self.below(candidates.len())])
    }
}

/// One segment of the history: who drains it (if anyone) and what its
/// header said before the last scribble.
struct Slot {
    segment: Arc<Segment>,
    app: Option<(AppId, ShmPeerProbe)>,
    /// The claim a scribble overwrote, for the un-scribble step.
    honest_claim: Option<(u32, u64)>,
}

impl Slot {
    fn claim(&self) -> (u32, u64) {
        let header = self.segment.header();
        (
            header.producer_pid.load(Ordering::Acquire),
            header.producer_nonce.load(Ordering::Acquire),
        )
    }

    fn set_claim(&self, (pid, nonce): (u32, u64)) {
        let header = self.segment.header();
        header.producer_nonce.store(nonce, Ordering::Release);
        header.producer_pid.store(pid, Ordering::Release);
    }

    fn pending(&self) -> u64 {
        let header = self.segment.header();
        header
            .tail
            .load(Ordering::Acquire)
            .saturating_sub(header.head.load(Ordering::Acquire))
    }
}

struct Child {
    process: ForkedChild,
    /// Killed and seen to exit, but not yet waited for: a zombie.
    exited: bool,
}

struct History {
    daemon: PowerDialDaemon,
    slots: Vec<Slot>,
    children: Vec<Child>,
    rng: SplitMix64,
}

impl Drop for History {
    /// No forked producer outlives the test, pass or fail.
    fn drop(&mut self) {
        for child in self.children.drain(..) {
            let _ = child.process.kill();
            let _ = child.process.wait();
        }
    }
}

impl History {
    /// Forks a producer onto `slots` and waits until everything it will
    /// ever do by itself is visible: the claims (PID, then nonce) and the
    /// beats that fit, or — for a detaching producer — its exit.
    fn fork_onto(&mut self, slots: &[usize], detach: bool) {
        let beats = 1 + self.rng.below(30) as u64;
        let segments = slots
            .iter()
            .map(|&slot| Arc::clone(&self.slots[slot].segment))
            .collect();
        let expected: Vec<u64> = slots
            .iter()
            .map(|&slot| {
                let slot = &self.slots[slot];
                let room = CAPACITY as u64 - slot.pending();
                slot.segment.header().tail.load(Ordering::Acquire) + beats.min(room)
            })
            .collect();
        let process = fork_producer(segments, beats, detach);
        if detach {
            assert_eq!(process.wait().unwrap(), ChildExit::Exited(0));
        } else {
            let pid = process.pid();
            await_that("a forked producer's claims and beats", || {
                slots.iter().zip(&expected).all(|(&slot, &tail)| {
                    let slot = &self.slots[slot];
                    let (claimed, nonce) = slot.claim();
                    claimed == pid
                        && nonce != 0
                        && slot.segment.header().tail.load(Ordering::Acquire) == tail
                })
            });
            self.children.push(Child {
                process,
                exited: false,
            });
        }
        for (&slot, &tail) in slots.iter().zip(&expected) {
            assert_eq!(
                self.slots[slot]
                    .segment
                    .header()
                    .tail
                    .load(Ordering::Acquire),
                tail
            );
            self.slots[slot].honest_claim = None;
        }
    }

    fn step(&mut self) -> &'static str {
        let slots = self.slots.len();
        match self.rng.below(14) {
            0 | 1 => {
                let Some(slot) = self.rng.pick(slots, |slot| self.slots[slot].app.is_none()) else {
                    return "register (every segment taken)";
                };
                let slot = &mut self.slots[slot];
                let consumer = match ShmConsumer::attach(Arc::clone(&slot.segment)) {
                    Ok(consumer) => consumer,
                    // What a dead tenant left behind: reuse the segment
                    // the way a broker would, with the claim wiped.
                    Err(ShmError::DeadPeer { .. }) => {
                        slot.set_claim((0, 0));
                        slot.honest_claim = None;
                        ShmConsumer::attach(Arc::clone(&slot.segment)).unwrap()
                    }
                    Err(other) => panic!("unexpected attach error: {other}"),
                };
                let probe = consumer.probe();
                let view = self
                    .daemon
                    .register_shm(runtime_config(), test_table(), consumer)
                    .unwrap();
                slot.app = Some((view.id(), probe));
                "register"
            }
            2 | 3 => {
                let Some(first) = self.rng.pick(slots, |slot| self.slots[slot].claim().0 == 0)
                else {
                    return "claim (every segment claimed)";
                };
                let second = self
                    .rng
                    .pick(slots, |slot| {
                        slot != first && self.slots[slot].claim().0 == 0
                    })
                    .filter(|_| self.rng.below(3) == 0);
                match second {
                    Some(second) => {
                        self.fork_onto(&[first, second], false);
                        "one process claims two segments"
                    }
                    None => {
                        self.fork_onto(&[first], false);
                        "claim"
                    }
                }
            }
            4 => {
                let Some(slot) = self.rng.pick(slots, |slot| self.slots[slot].claim().0 == 0)
                else {
                    return "claim-beat-detach (every segment claimed)";
                };
                self.fork_onto(&[slot], true);
                "claim, beat, detach, exit"
            }
            5 | 6 => {
                let live = self
                    .rng
                    .pick(self.children.len(), |child| !self.children[child].exited);
                let Some(child) = live else {
                    return "kill (nobody alive)";
                };
                self.children[child].process.kill().unwrap();
                if self.rng.below(2) == 0 {
                    let child = self.children.swap_remove(child);
                    assert!(matches!(
                        child.process.wait().unwrap(),
                        ChildExit::Signaled(_)
                    ));
                    "SIGKILL + wait"
                } else {
                    self.children[child].process.await_exit().unwrap();
                    self.children[child].exited = true;
                    "SIGKILL, no wait"
                }
            }
            7 => {
                let zombie = self
                    .rng
                    .pick(self.children.len(), |child| self.children[child].exited);
                let Some(child) = zombie else {
                    return "wait (no zombie)";
                };
                self.children.swap_remove(child).process.wait().unwrap();
                "wait for a zombie"
            }
            8 | 9 => {
                let Some(slot) = self.rng.pick(slots, |slot| self.slots[slot].claim().0 != 0)
                else {
                    return "scribble (nothing claimed)";
                };
                let slot = &mut self.slots[slot];
                let (pid, nonce) = slot.claim();
                slot.honest_claim.get_or_insert((pid, nonce));
                match self.rng.below(3) {
                    0 => {
                        slot.set_claim((NO_SUCH_PID, nonce));
                        "scribble producer_pid"
                    }
                    1 => {
                        slot.set_claim((pid, nonce.wrapping_add(1).max(1)));
                        "scribble a stale nonce"
                    }
                    _ => {
                        slot.set_claim((pid, 0));
                        "scribble the nonce away"
                    }
                }
            }
            10 => {
                let Some(slot) = self
                    .rng
                    .pick(slots, |slot| self.slots[slot].honest_claim.is_some())
                else {
                    return "un-scribble (nothing scribbled)";
                };
                let honest = self.slots[slot].honest_claim.take().unwrap();
                self.slots[slot].set_claim(honest);
                "un-scribble"
            }
            11 => {
                self.daemon.tick();
                "tick"
            }
            12 => {
                let Some(slot) = self.rng.pick(slots, |slot| self.slots[slot].app.is_some()) else {
                    return "unregister (nothing registered)";
                };
                let (id, _) = self.slots[slot].app.take().unwrap();
                assert!(self.daemon.unregister(id));
                "unregister"
            }
            _ => {
                let Some(slot) = self.rng.pick(slots, |slot| self.slots[slot].app.is_some()) else {
                    return "poison (nothing registered)";
                };
                let (id, _) = self.slots[slot].app.as_ref().unwrap();
                assert!(self.daemon.inject_app_panic(*id));
                "arm an app panic"
            }
        }
    }

    /// One `reap_dead()` against the old rule, then the watch set against
    /// the claims that are alive by the old rule.
    fn reap_and_compare(&mut self, context: &str) {
        let mut expected: Vec<AppId> = self
            .slots
            .iter()
            .filter_map(|slot| slot.app.as_ref())
            .filter(|(id, probe)| {
                probe.producer_state().is_dead()
                    && (probe.pending() == 0 || self.daemon.quarantine_reason(*id).is_some())
            })
            .map(|(id, _)| *id)
            .collect();
        let mut reaped = self.daemon.reap_dead();
        expected.sort();
        reaped.sort();
        assert_eq!(reaped, expected, "{context}");
        for slot in &mut self.slots {
            if slot.app.as_ref().is_some_and(|(id, _)| reaped.contains(id)) {
                slot.app = None;
            }
        }

        let live_claims: BTreeSet<(u32, u64)> = self
            .slots
            .iter()
            .filter_map(|slot| slot.app.as_ref())
            .filter(|(_, probe)| probe.producer_state().is_alive())
            .map(|(_, probe)| probe.producer_claim())
            .collect();
        let counts = self.daemon.liveness_counts();
        assert_eq!(
            counts.watched_processes,
            live_claims.len() as u64,
            "one pidfd per distinct live claim, none leaked: {context}"
        );
        assert_eq!(counts.polled_apps, 0, "{context}");
        assert_eq!(
            self.daemon.app_count(),
            self.slots.iter().filter(|slot| slot.app.is_some()).count(),
            "{context}"
        );
    }
}

fn seeds() -> Vec<u64> {
    match std::env::var("POWERDIAL_CHAOS_SEED") {
        Ok(seed) => vec![seed
            .trim()
            .parse()
            .or_else(|_| u64::from_str_radix(seed.trim().trim_start_matches("0x"), 16))
            .expect("POWERDIAL_CHAOS_SEED must be a u64 (decimal or 0x-hex)")],
        Err(_) => vec![0x11FE_0001, 0x11FE_0002, 0x11FE_0003],
    }
}

#[test]
fn reaper_agrees_with_the_syscall_probe_over_seeded_histories() {
    for seed in seeds() {
        for (workers, idle_skip_limit) in [(0, 0), (2, 3)] {
            let mut history = History {
                daemon: daemon(workers, idle_skip_limit),
                slots: (0..6)
                    .map(|_| Slot {
                        segment: segment(),
                        app: None,
                        honest_claim: None,
                    })
                    .collect(),
                children: Vec::new(),
                rng: SplitMix64(seed),
            };
            for step in 0..250 {
                let did = history.step();
                history.reap_and_compare(&format!(
                    "seed {seed:#x}, workers {workers}, step {step}: {did}"
                ));
            }

            // The end of every producer. A reap wakes what still has a
            // tail, one tick drains it, the next reap takes every app
            // whose claim names anybody — idle-skip or not.
            let context = format!("seed {seed:#x}, workers {workers}, the end");
            for child in std::mem::take(&mut history.children) {
                child.process.kill().unwrap();
                child.process.wait().unwrap();
            }
            history.reap_and_compare(&context);
            history.daemon.tick();
            history.reap_and_compare(&context);
            for slot in &history.slots {
                if slot.app.is_some() {
                    assert_eq!(slot.claim().0, 0, "a claimed app outlived its producer");
                }
            }
            assert_eq!(history.daemon.liveness_counts().watched_processes, 0);
        }
    }
}

mod rlimit {
    pub const RLIMIT_NOFILE: i32 = 7;
    pub const EMFILE: i32 = 24;

    #[repr(C)]
    pub struct RLimit {
        pub current: u64,
        pub maximum: u64,
    }

    extern "C" {
        pub fn getrlimit(resource: i32, limit: *mut RLimit) -> i32;
        pub fn setrlimit(resource: i32, limit: *const RLimit) -> i32;
    }

    /// Lowers this process's soft descriptor limit to zero: everything
    /// open stays open, nothing new can be. `Err` is an exit code.
    pub fn exhaust_fds() -> Result<(), i32> {
        let mut limit = RLimit {
            current: 0,
            maximum: 0,
        };
        // SAFETY: `limit` is a valid `struct rlimit` for both calls.
        unsafe {
            if getrlimit(RLIMIT_NOFILE, &mut limit) != 0 {
                return Err(30);
            }
            limit.current = 0;
            if setrlimit(RLIMIT_NOFILE, &limit) != 0 {
                return Err(31);
            }
        }
        match std::fs::File::open("/proc/self/stat") {
            Err(error) if error.raw_os_error() == Some(EMFILE) => Ok(()),
            _ => Err(32),
        }
    }
}

/// Registers `apps` segments, each claimed by a forked producer that
/// leaves a five-beat tail, lets the reaper settle on them, kills the
/// producers, and counts the tick+reap rounds until every app is reaped.
/// With `starve` the process runs out of file descriptors before the
/// reaper first sees the claims. `Err` is the step that went wrong, as an
/// exit code for the forked test process.
fn rounds_to_reap_a_killed_fleet(apps: usize, starve: bool) -> Result<u32, i32> {
    let mut daemon = daemon(0, 0);
    let segments: Vec<Arc<Segment>> = (0..apps).map(|_| segment()).collect();
    let mut producers = Vec::new();
    for segment in &segments {
        let consumer = ShmConsumer::attach(Arc::clone(segment)).map_err(|_| 20)?;
        daemon
            .register_shm(runtime_config(), test_table(), consumer)
            .map_err(|_| 21)?;
        producers.push(fork_producer(vec![Arc::clone(segment)], 5, false));
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while segments.iter().any(|segment| {
        let header = segment.header();
        header.tail.load(Ordering::Acquire) != 5
            || header.producer_nonce.load(Ordering::Acquire) == 0
    }) {
        if Instant::now() > deadline {
            return Err(22);
        }
        std::thread::yield_now();
    }
    if starve {
        rlimit::exhaust_fds()?;
    }
    for _ in 0..3 {
        if !daemon.reap_dead().is_empty() {
            return Err(23);
        }
    }
    let counts = daemon.liveness_counts();
    let expected = if starve {
        (0, apps as u64)
    } else {
        (apps as u64, 0)
    };
    if (counts.watched_processes, counts.polled_apps) != expected {
        return Err(24);
    }

    for producer in producers {
        producer.kill().map_err(|_| 25)?;
        producer.wait().map_err(|_| 26)?;
    }
    // The tails are still in the rings: this reap must not take anybody.
    if !daemon.reap_dead().is_empty() {
        return Err(27);
    }
    let mut rounds = 0;
    while daemon.app_count() > 0 {
        if rounds == 10 {
            return Err(28);
        }
        if daemon.tick() != 5 * apps as u64 && rounds == 0 {
            return Err(29);
        }
        daemon.reap_dead();
        rounds += 1;
    }
    Ok(rounds)
}

/// Degraded path: with no file descriptor to be had `pidfd_open` fails
/// with `EMFILE`, every claim falls to the syscall probe, and no death is
/// hidden or late. Runs in a forked process — the limit is per process,
/// and the other tests of this binary need their descriptors. On Linux
/// this is the only coverage the polled arm gets.
#[test]
fn fd_exhaustion_never_hides_a_death() {
    let child = fork_child(|| {
        let watched = match rounds_to_reap_a_killed_fleet(3, false) {
            Ok(rounds) => rounds,
            Err(code) => return code,
        };
        match rounds_to_reap_a_killed_fleet(3, true) {
            Ok(polled) if polled == watched && polled == 1 => 0,
            Ok(_) => 40,
            // Told apart from the watched arm's codes.
            Err(code) => 100 + code,
        }
    })
    .unwrap();
    assert_eq!(
        child.wait().unwrap(),
        ChildExit::Exited(0),
        "exit codes: rounds_to_reap_a_killed_fleet (+100 when starved), rlimit::exhaust_fds"
    );
}
