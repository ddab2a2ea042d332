//! The hand-off block: how the daemon façade gives a quantum to a worker
//! thread and takes the result back. One state word, no queue, and no
//! syscall while both sides are awake.
//!
//! ```text
//!               rearm                 wakes up
//!    Parked ───────────► Waking ───────────────► Hot ◄──────────┐
//!      ▲  ▲                                      │ │            │ complete
//!      │  └──────────── budget ran out ──────────┘ │ assign     │
//!      │                                           ▼            │
//!      └──────────── revoke ───────────────── Tick/Crash/Shutdown ──claim──► Running
//!
//!    any state ──the thread unwinds or returns──► Dead
//! ```
//!
//! | transition                         | made by | how                     |
//! |------------------------------------|---------|-------------------------|
//! | `Hot → Tick`  (assign)             | façade  | CAS                     |
//! | `Tick → Parked` (revoke)           | façade  | CAS, loses to the claim |
//! | `Parked → Waking` (re-arm)         | façade  | CAS, then `unpark`      |
//! | `* → Crash/Shutdown` (deliver)     | façade  | CAS, then `unpark`      |
//! | `Waking → Hot`                     | thread  | CAS                     |
//! | `Hot → Parked` (budget ran out)    | thread  | CAS, loses to an assign |
//! | `Tick → Running` (claim)           | thread  | CAS, loses to a revoke  |
//! | `Running → Hot` (complete)         | thread  | swap, after `beats`     |
//! | `* → Dead`                         | thread  | swap, in a `Drop` guard |
//!
//! Every contended pair above is two CASes from the same value, so exactly
//! one side wins and the loser re-reads. The word carries no payload: the
//! finished quantum's beat count sits beside it on the same cache line,
//! stored before the `Release` that publishes `Hot` and read after the
//! `Acquire` that observes it. The shard the quantum ran on is not ordered
//! by this word at all — it has its own mutex, which the thread holds
//! from claim to just before complete and the façade takes only while
//! the word says the thread does not.
//!
//! **Every spin is bounded** by [`SPIN_BUDGET`]. The thread spins that
//! long for its next quantum, then parks; the façade spins that long for a
//! quantum to be claimed, then takes it back and runs it itself (the
//! thread is evidently not on a CPU), and that long again for a claimed
//! quantum to finish, then sets [`WAITING`] on the word and parks until
//! the thread's next swap finds the flag and unparks it. Nobody waits in
//! a loop for a thread that needs the waiter's CPU to make progress, which
//! is what makes a one-CPU host safe.
//!
//! This is one of the workspace's lock-free protocols: implicit overflow
//! semantics are banned here (clippy `arithmetic_side_effects`).

#![deny(clippy::arithmetic_side_effects)]

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::telemetry::HandoffCounts;

/// How long either side spins on the word before it gives the CPU up. A
/// constant, not a setting: it only has to exceed the gap between two
/// ticks of a loop that is actually busy (a few microseconds of pushing
/// and reading) and stay below what an idle loop sleeps (the
/// [`IdleLadder`](crate::IdleLadder)'s first nap is 50 µs), and a park →
/// unpark round trip, which is what spinning avoids, costs about as much.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Spins between two looks at the clock.
const CLOCK_STRIDE: u32 = 64;

/// Ceiling of [`Rearm`]'s back-off, in busy façade-run quanta per wake.
const MAX_REARM_AFTER: u32 = 1024;

/// The thread is in (or on its way into) `thread::park`.
const PARKED: u32 = 0;
/// The façade has unparked the thread; it has not run yet.
const WAKING: u32 = 1;
/// The thread is spinning on the word for its next command.
const HOT: u32 = 2;
/// Assigned: run one quantum.
const TICK: u32 = 3;
/// Assigned: panic holding the shard lock (fault injection).
const CRASH: u32 = 4;
/// Assigned: return.
const SHUTDOWN: u32 = 5;
/// The thread holds the shard lock and is running the quantum.
const RUNNING: u32 = 6;
/// The thread is gone.
const DEAD: u32 = 7;
/// Flag, set by the façade over the state it is parked waiting out.
const WAITING: u32 = 8;

/// What a worker thread is told to do; the discriminant is the state
/// that says so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub(crate) enum Command {
    /// Run one quantum.
    Tick = TICK,
    /// Panic while holding the shard lock.
    Crash = CRASH,
    /// Return from the thread body.
    Shutdown = SHUTDOWN,
}

/// Where a tick's quantum for one worker went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assign {
    /// The thread was spinning and has the quantum: [`Handoff::collect`].
    Assigned,
    /// The thread is parked: the façade runs the quantum.
    Parked,
    /// The thread is on its way up (or an unwound tick left it busy): the
    /// façade runs the quantum and wakes nobody.
    Waking,
    /// The thread is gone.
    Dead,
}

/// How an assigned quantum came back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Collected {
    /// The thread ran it and drained this many beats.
    Done(u64),
    /// Nobody claimed it within the budget: it is the façade's again and
    /// the thread is marked parked.
    Revoked,
    /// The thread died with it.
    Dead,
}

/// One worker's hand-off block, shared between the façade and the thread.
/// Padded to its own cache-line pair so the word the two sides bounce
/// never shares a line with the shard beside it.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct Handoff {
    state: AtomicU32,
    /// Beats the last completed quantum drained.
    beats: AtomicU64,
    /// The worker thread, for `unpark`. Set once, right after the spawn.
    worker: OnceLock<Thread>,
    /// The thread parked in [`Handoff::park_while`], for the worker's
    /// `unpark`. Slow path only.
    collector: Mutex<Option<Thread>>,
}

impl Handoff {
    /// A block for a thread about to be spawned. It starts `Parked`: a
    /// fresh worker costs nothing until the façade has seen beats for it.
    pub(crate) fn new() -> Self {
        Handoff {
            state: AtomicU32::new(PARKED),
            beats: AtomicU64::new(0),
            worker: OnceLock::new(),
            collector: Mutex::new(None),
        }
    }

    /// Names the spawned thread. Before any other façade-side call.
    pub(crate) fn set_worker(&self, thread: Thread) {
        let _ = self.worker.set(thread);
    }

    fn unpark_worker(&self) {
        if let Some(worker) = self.worker.get() {
            worker.unpark();
        }
    }

    /// Spins while `pending(state)`, for at most [`SPIN_BUDGET`]. Returns
    /// the last word read, flag and all.
    fn spin_while(&self, pending: impl Fn(u32) -> bool) -> u32 {
        let mut word = self.state.load(Ordering::Acquire);
        if !pending(word & !WAITING) {
            return word;
        }
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            std::hint::spin_loop();
            word = self.state.load(Ordering::Acquire);
            if !pending(word & !WAITING) {
                return word;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(CLOCK_STRIDE) && start.elapsed() >= SPIN_BUDGET {
                return word;
            }
        }
    }

    /// Façade: parks while `pending(state)`, behind the [`WAITING`] flag
    /// the thread's next swap answers with an `unpark`. Returns the state.
    fn park_while(&self, pending: impl Fn(u32) -> bool) -> u32 {
        *self
            .collector
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        loop {
            let word = self.state.load(Ordering::Acquire);
            if !pending(word & !WAITING) {
                return word & !WAITING;
            }
            // The flag goes on by CAS: if the state moved first there is
            // nothing to wait for, and the re-read says so.
            if word & WAITING != 0
                || self
                    .state
                    .compare_exchange(word, word | WAITING, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                std::thread::park();
            }
        }
    }

    /// Façade: offers this tick's quantum. One CAS, no syscall.
    fn assign_tick(&self) -> Assign {
        match self
            .state
            .compare_exchange(HOT, TICK, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => Assign::Assigned,
            Err(PARKED) => Assign::Parked,
            Err(DEAD) => Assign::Dead,
            Err(_) => Assign::Waking,
        }
    }

    /// Façade: takes back the result of an [`Assign::Assigned`] quantum.
    /// `parks` counts the times this had to park.
    fn collect(&self, parks: &mut u64) -> Collected {
        let in_flight = |state| state == TICK || state == RUNNING;
        let mut state = self.spin_while(in_flight) & !WAITING;
        if state == TICK {
            // A spinning thread claims within a fraction of a microsecond;
            // a whole budget without a claim means it is not on a CPU, and
            // waiting for it could be waiting for this one.
            match self
                .state
                .compare_exchange(TICK, PARKED, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Collected::Revoked,
                Err(now) => state = now,
            }
        }
        if in_flight(state) {
            *parks = parks.wrapping_add(1);
            state = self.park_while(in_flight);
        }
        match state {
            DEAD => Collected::Dead,
            // `Hot`, or already `Parked` again if the façade was slow.
            _ => Collected::Done(self.beats.load(Ordering::Relaxed)),
        }
    }

    /// Façade: wakes a parked thread because beats are flowing. `false`
    /// when it was not parked.
    fn rearm(&self) -> bool {
        let woke = self
            .state
            .compare_exchange(PARKED, WAKING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if woke {
            self.unpark_worker();
        }
        woke
    }

    /// Façade: hands the thread `command` whatever it is doing, waking it
    /// if it sleeps. `false` when the thread is already dead.
    pub(crate) fn deliver(&self, command: Command) -> bool {
        let mut state = self.state.load(Ordering::Acquire) & !WAITING;
        loop {
            match state {
                DEAD => return false,
                // Only a tick that unwound before collecting leaves a
                // quantum out; overwriting it would lose the command to
                // the thread's completing swap.
                TICK | RUNNING => {
                    state = self.park_while(|state| state == TICK || state == RUNNING);
                }
                _ => match self.state.compare_exchange(
                    state,
                    command as u32,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.unpark_worker();
                        return true;
                    }
                    Err(now) => state = now & !WAITING,
                },
            }
        }
    }

    /// Façade: waits for the thread to die (after a delivered
    /// [`Command::Crash`]). Parks at once: a panic takes longer than a
    /// spin budget to print itself.
    pub(crate) fn await_dead(&self) {
        self.park_while(|state| state != DEAD);
    }

    /// Thread: the body of a worker thread. Runs `run` on every command
    /// but `Shutdown`, which returns, and publishes the beats it drained.
    /// `run` must have let go of the shard lock by the time it returns,
    /// so a façade that sees the quantum done finds the lock free — and
    /// must be holding it if it panics, so the façade that sees `Dead`
    /// finds it poisoned: however the thread ends (`Shutdown`, the
    /// injected crash, a panic that escaped the sweep's containment) a
    /// guard at the bottom of this frame publishes `Dead` and wakes a
    /// waiting façade, so a death is seen on the tick it happens.
    pub(crate) fn serve(&self, mut run: impl FnMut(Command) -> u64) {
        let _dead = DeathGuard(self);
        loop {
            let command = self.next_command();
            if command == Command::Shutdown {
                return;
            }
            let beats = run(command);
            self.beats.store(beats, Ordering::Relaxed);
            self.leave(HOT);
        }
    }

    /// Thread: the next command, claimed. Spins for it for one budget,
    /// then parks until the façade re-arms or delivers.
    fn next_command(&self) -> Command {
        loop {
            let word = self.spin_while(|state| state == HOT);
            let cas = |from, to| {
                self.state
                    .compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
            };
            match word & !WAITING {
                // Nothing came: stop burning the CPU. Losing this race
                // means a command just did.
                HOT => drop(cas(HOT, PARKED)),
                // `park` may return early; the word says whether it meant it.
                PARKED => std::thread::park(),
                WAKING => drop(cas(WAKING, HOT)),
                // The claim: against a revoke, exactly one CAS wins.
                TICK => {
                    if cas(word, RUNNING | (word & WAITING)).is_ok() {
                        return Command::Tick;
                    }
                }
                CRASH => return Command::Crash,
                SHUTDOWN => return Command::Shutdown,
                state => unreachable!("state {state} is only ever written by this thread"),
            }
        }
    }

    /// Thread: swaps `state` in and wakes the façade if it was parked on
    /// the state left behind.
    fn leave(&self, state: u32) {
        if self.state.swap(state, Ordering::AcqRel) & WAITING != 0 {
            let collector = self
                .collector
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(collector) = collector.as_ref() {
                collector.unpark();
            }
        }
    }
}

/// Publishes `Dead` when the worker thread's frame unwinds or returns.
struct DeathGuard<'a>(&'a Handoff);

impl Drop for DeathGuard<'_> {
    fn drop(&mut self) {
        self.0.leave(DEAD);
    }
}

/// Façade-side policy: when is a parked thread worth waking?
///
/// A wake costs the façade a futex syscall and the thread a spin budget
/// of CPU, and pays only if the next tick arrives while the thread is
/// still spinning. Beats in a façade-run quantum predict that; a thread
/// that was woken and went back to sleep without being given a single
/// quantum says the prediction was wrong — ticks further apart than the
/// budget, or a host with one CPU, where the thread can only spin while
/// the façade is *not* ticking. Each such wasted wake doubles the busy
/// quanta the next one needs (to [`MAX_REARM_AFTER`]); the first quantum
/// the thread does run resets it.
#[derive(Debug)]
struct Rearm {
    /// A wake is out and has not yet paid.
    armed: bool,
    /// Busy façade-run quanta since the last wake or verdict.
    busy: u32,
    /// Busy façade-run quanta the next wake needs.
    after: u32,
}

impl Rearm {
    const fn new() -> Self {
        Rearm {
            armed: false,
            busy: 0,
            after: 1,
        }
    }

    /// The thread ran a quantum.
    fn paid(&mut self) {
        *self = Rearm::new();
    }

    /// The façade ran a quantum for a thread it found parked; `busy` says
    /// whether it drained beats. `true`: wake the thread now.
    fn parked(&mut self, busy: bool) -> bool {
        if self.armed {
            self.armed = false;
            self.busy = 0;
            self.after = self.after.saturating_mul(2).min(MAX_REARM_AFTER);
        }
        if !busy {
            return false;
        }
        self.busy = self.busy.saturating_add(1);
        self.armed = self.busy >= self.after;
        if self.armed {
            self.busy = 0;
        }
        self.armed
    }
}

/// The façade's side of one worker's hand-off, across the two halves of a
/// tick: where the quantum went, and the wake-up policy.
#[derive(Debug)]
pub(crate) struct Dispatcher {
    assign: Assign,
    rearm: Rearm,
}

impl Dispatcher {
    pub(crate) const fn new() -> Self {
        Dispatcher {
            assign: Assign::Parked,
            rearm: Rearm::new(),
        }
    }

    /// First half of a tick, before the façade runs its own shard: the
    /// quantum goes to the thread if it is spinning.
    pub(crate) fn offer(&mut self, handoff: &Handoff) {
        self.assign = handoff.assign_tick();
    }

    /// Second half: brings the quantum home. One the thread took is
    /// collected; one it did not — it sleeps, is still waking, or never
    /// claimed — is run by `run_here`, and only if that drained beats is
    /// a sleeping thread woken for the next. Returns the beats drained,
    /// or `None` when the quantum killed the shard: the thread died with
    /// it, or `run_here` said so (the thread is then shut down — it has
    /// no shard left to serve).
    pub(crate) fn finish(
        &mut self,
        handoff: &Handoff,
        counts: &mut HandoffCounts,
        run_here: impl FnOnce() -> Option<u64>,
    ) -> Option<u64> {
        let asleep = match self.assign {
            Assign::Assigned => match handoff.collect(&mut counts.collect_parks) {
                Collected::Done(beats) => {
                    counts.hot_ticks = counts.hot_ticks.wrapping_add(1);
                    self.rearm.paid();
                    return Some(beats);
                }
                Collected::Revoked => true,
                Collected::Dead => return None,
            },
            Assign::Parked => true,
            Assign::Waking => false,
            Assign::Dead => return None,
        };
        let Some(beats) = run_here() else {
            handoff.deliver(Command::Shutdown);
            return None;
        };
        counts.serial_ticks = counts.serial_ticks.wrapping_add(1);
        if asleep && self.rearm.parked(beats > 0) && handoff.rearm() {
            counts.rearms = counts.rearms.wrapping_add(1);
        }
        Some(beats)
    }
}

#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn spawn(handoff: &Arc<Handoff>) -> std::thread::JoinHandle<u64> {
        let thread_side = Arc::clone(handoff);
        let thread = std::thread::spawn(move || {
            let mut quanta = 0u64;
            thread_side.serve(|command| {
                assert_eq!(command, Command::Tick, "crash");
                quanta += 1;
                quanta
            });
            quanta
        });
        handoff.set_worker(thread.thread().clone());
        thread
    }

    /// Ticks until one is assigned, waking the thread as needed.
    fn tick_until_hot(handoff: &Handoff) -> u64 {
        loop {
            match handoff.assign_tick() {
                Assign::Assigned => match handoff.collect(&mut 0) {
                    Collected::Done(beats) => return beats,
                    Collected::Revoked => {}
                    Collected::Dead => panic!("the thread died"),
                },
                Assign::Parked => {
                    handoff.rearm();
                }
                Assign::Waking => std::thread::yield_now(),
                Assign::Dead => panic!("the thread died"),
            }
        }
    }

    #[test]
    fn a_fresh_thread_is_parked_and_a_rearmed_one_takes_quanta() {
        let handoff = Arc::new(Handoff::new());
        let thread = spawn(&handoff);
        assert_eq!(handoff.assign_tick(), Assign::Parked);
        assert!(handoff.rearm());
        assert!(!handoff.rearm(), "one wake per sleep");
        assert_eq!(tick_until_hot(&handoff), 1);
        // Left alone for longer than the budget, it parks itself again.
        std::thread::sleep(SPIN_BUDGET * 40);
        assert_eq!(handoff.assign_tick(), Assign::Parked);
        assert_eq!(tick_until_hot(&handoff), 2);
        assert!(handoff.deliver(Command::Shutdown));
        assert_eq!(thread.join().unwrap(), 2);
        assert_eq!(handoff.assign_tick(), Assign::Dead);
        assert!(!handoff.deliver(Command::Shutdown));
    }

    #[test]
    fn a_crash_is_delivered_to_a_sleeping_thread_and_seen_at_once() {
        let handoff = Arc::new(Handoff::new());
        let thread = spawn(&handoff);
        assert!(handoff.deliver(Command::Crash));
        handoff.await_dead();
        assert_eq!(handoff.assign_tick(), Assign::Dead);
        assert!(thread.join().is_err());
    }

    #[test]
    fn an_unclaimed_quantum_is_revoked_not_waited_for() {
        // No thread at all: the word says `Hot`, nobody is on a CPU.
        let handoff = Handoff::new();
        handoff.state.store(HOT, Ordering::Release);
        assert_eq!(handoff.assign_tick(), Assign::Assigned);
        let start = Instant::now();
        let mut parks = 0;
        assert_eq!(handoff.collect(&mut parks), Collected::Revoked);
        assert!(start.elapsed() >= SPIN_BUDGET);
        assert_eq!(parks, 0);
        assert_eq!(handoff.assign_tick(), Assign::Parked);
    }

    #[test]
    fn wasted_wakes_back_off_and_a_run_quantum_resets_them() {
        let mut rearm = Rearm::new();
        assert!(!rearm.parked(false), "silence wakes nobody");
        assert!(rearm.parked(true));
        // Found parked again with nothing run in between: 2, then 4.
        assert!(!rearm.parked(true));
        assert!(rearm.parked(true));
        for _ in 0..3 {
            assert!(!rearm.parked(true));
        }
        assert!(rearm.parked(true));
        rearm.paid();
        assert!(rearm.parked(true), "back to one");
        let mut wakes = 0u32;
        for _ in 0..100_000 {
            wakes += u32::from(rearm.parked(true));
        }
        assert!(wakes < 10 + 100_000 / MAX_REARM_AFTER, "{wakes} wakes");
    }
}
