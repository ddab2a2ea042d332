//! The PowerDial daemon: one control process driving many applications.
//!
//! The paper's server-consolidation experiments run *many* instrumented
//! applications under a single PowerDial controller. This module provides
//! that multi-application runtime:
//!
//! ```text
//!  app 0 ──beat──► SPSC ring ─┐
//!  app 1 ──beat──► SPSC ring ─┤  shard 0 (worker thread) ─┐
//!  app 2 ──beat──► SPSC ring ─┼─►                         ├─► tick()
//!  app 3 ──beat──► SPSC ring ─┤  shard 1 (worker thread) ─┘
//!     ⋮                       ⋮
//! ```
//!
//! * Each registered application gets a lock-free
//!   [`powerdial_heartbeats::channel`] SPSC ring; the application side
//!   ([`AppHandle`]) pushes one `Copy` beat record per unit of work —
//!   wait-free, allocation-free, no syscalls.
//! * Applications are **sharded** across worker threads round-robin (the
//!   first [`DaemonConfig::inline_apps`] land on the caller's inline shard,
//!   so tiny fleets involve no second thread at all). Once per
//!   actuation quantum ([`PowerDialDaemon::tick`]) every shard drains each
//!   of its channels in one batch into a reused scratch buffer and steps
//!   the existing O(1) [`PowerDialRuntime`] through the **batched decision
//!   kernel**, so control decisions are batched per quantum exactly as the
//!   paper's actuator prescribes.
//! * Decisions flow back through a handful of per-app atomics (latest knob
//!   setting, gain, achieved speedup, expected QoS loss), read by the
//!   application without any lock.
//!
//! # The batched decision kernel
//!
//! The runtime's decide-before-observe ordering only *consumes* an
//! observed rate at a quantum boundary (`beat_in_quantum == 0`); interior
//! beats walk the already-planned per-beat schedule and ignore their
//! observation. [`DaemonShard::run_quantum`] exploits that: boundary beats
//! are stepped individually, and each maximal run of interior beats is
//! folded in one pass — [`PowerDialRuntime::advance_in_quantum`] skips the
//! schedule walk, `SlidingWindow::push_slice` folds the span's latencies.
//! Both ends of that are kept as cheap as what the loop reads allows: the
//! window maintains one ring and one integer sum (a fold is a store, a
//! subtract and an add per beat; Σx², min and max are computed only if
//! somebody asks for `statistics()`), and a boundary beat's per-beat
//! schedule is looked up by the plan's split — how many of the quantum's
//! beats its first setting got — instead of being re-derived, the
//! largest-deficit loop running once per split per app.
//! The result is **bit-identical** to the per-beat walk (which
//! [`DaemonShard::run_quantum_with`] and [`naive::SerialMutexDaemon`]
//! preserve); the `daemon_batch_equivalence` suite pins the relationship
//! under ragged drains, idle-skip, and the drain cap.
//!
//! # Fairness: the per-quantum drain cap
//!
//! With [`DaemonConfig::drain_cap`] set, a shard drains at most that many
//! beats from one app per quantum; the rest stay in the ring for the next
//! quantum. One flooded ring therefore delays its shard-mates by a bounded
//! amount of work instead of an entire backlog. Beats are never dropped by
//! the cap — they are deferred (the ring's own backpressure still applies
//! to the producer). `0` disables the cap.
//!
//! # Idle channels: the silent-streak skip
//!
//! With [`DaemonConfig::idle_skip_limit`] set to `k`, an app whose drain
//! has come up empty `k` quanta in a row is polled only every `k + 1`
//! quanta afterwards (the skipped quanta never touch the app's transport —
//! no cache line, no shm page). The first non-empty drain resets the
//! streak. Worst-case added decision latency for a waking app is `k`
//! quanta; `0` (the default) disables skipping, which is the right call
//! whenever bounded reaction latency matters more than idle cost (e.g. the
//! chaos harness's recovery-latency assertions).
//!
//! # The spin→yield→park ladder
//!
//! Driver loops that tick continuously (the supervisor's serve loop, a
//! dedicated daemon process) burn a core even when every channel is idle.
//! [`IdleLadder`] encodes the standard escalation: a few empty iterations
//! **spin** (lowest wake latency), further emptiness **yields** the core,
//! and a persistently idle daemon **parks** in bounded, exponentially
//! growing sleeps (capped at 1 ms so a waking fleet is never more than a
//! millisecond away). Any work resets the ladder to spinning.
//!
//! The per-quantum drain loop ([`DaemonShard::run_quantum`]) is
//! steady-state allocation-free — the `no_alloc` integration test steps a
//! shard under a counting allocator to prove it — and a shard whose
//! scratch buffer was grown by a flood shrinks it back on an amortized
//! cold path (every [`SHRINK_EPOCH_QUANTA`] quanta) once the flood
//! subsides. The serial, mutex-guarded baseline the benchmarks compare
//! against is [`naive::SerialMutexDaemon`].
//!
//! # Threading model
//!
//! With `workers: 0` the daemon runs **inline**: no threads are spawned and
//! [`PowerDialDaemon::tick`] processes every shard on the calling thread.
//! This mode is deterministic (used by the consolidation experiments and
//! the equivalence tests); threaded mode has the same per-app semantics but
//! interleaves beat arrival with draining.
//!
//! In threaded mode each worker has a shard behind a mutex and a thread,
//! and the thread is an **accelerator, not a dependency**: every tick runs
//! every shard's quantum exactly once before it returns, and *which*
//! thread runs a worker's quantum is decided per tick by the state of that
//! worker's hand-off block (one cache-line-padded state word, the private
//! `handoff` module):
//!
//! | state | the thread is… | a tick… |
//! |---|---|---|
//! | `Hot` | spinning on the word | assigns the quantum with one CAS, runs the inline shard meanwhile, collects with a bounded spin |
//! | `Tick` → `Running` | claiming, then running the quantum under the shard lock | (is waiting for this one) |
//! | `Parked` | asleep in `thread::park` | runs the quantum **itself** and wakes the thread only if it drained beats |
//! | `Waking` | unparked, not yet on a CPU | runs the quantum itself, wakes nobody |
//! | `Dead` | gone | marks the shard dead ([`PowerDialDaemon::try_tick`] reports it once) |
//!
//! Only the façade assigns, revokes and wakes; only the thread claims,
//! completes, parks itself and dies; each contended pair is two CASes from
//! the same value. The thread spins for a fixed 50 µs after each quantum
//! and then parks, so a loop that is actually busy (ticks a few
//! microseconds apart) never leaves the spinning state and pays no
//! syscall: measured on the 8-app `drain_threaded` benchmark, a tick's
//! hand-off costs about 0.06 µs where the command/ack channel pair it
//! replaced cost 36 µs (two futex wake-ups per tick, each side parked by
//! the time the other spoke). A silent fleet costs nothing across
//! threads either: the thread has parked, and an empty quantum run by the
//! façade wakes nobody. The budget is a constant because it has nothing
//! to tune: it must only exceed a busy loop's inter-tick gap and stay
//! below what an idle loop sleeps ([`IdleLadder::INITIAL_PARK`]).
//!
//! **What runs where.** The inline shard always runs on the ticking
//! thread. A worker's quantum runs on its own thread when that thread was
//! spinning at the start of the tick, otherwise on the ticking thread,
//! after the inline shard, under the same `catch_unwind` perimeter a
//! worker thread's death gives (a panic escaping the sweep kills the
//! *shard*, never the caller). Same function, same shard state, different
//! thread: decision sequences are bit-identical either way. Everything
//! else the façade does to a shard — register, unregister, wake, arm a
//! panic, read telemetry — it does by locking the shard itself: the façade
//! is `&mut self` and a tick brings every quantum home before it returns,
//! so between ticks the lock is always free, whether the worker is alive
//! or dead (a dead worker's poisoned lock is recovered, the state under it
//! being what the fatal quantum last saw).
//!
//! **Nobody waits for a thread that is not running.** A quantum that a
//! supposedly spinning thread has not claimed within one budget is taken
//! back (`Tick → Parked`, one CAS against the claim) and run by the
//! façade; only a *claimed* quantum is waited for, by a bounded spin and
//! then a park that the thread's completing swap ends. And a thread that
//! was woken and went back to sleep without being given a quantum — ticks
//! further apart than the budget, or a host whose scheduler runs it on
//! the façade's own CPU, where it can only spin while the façade does not
//! tick — doubles the busy quanta the next wake-up needs (up to 1024; the
//! first quantum it does run resets that). On a one-CPU host the threads
//! therefore stay asleep and a threaded daemon runs at the inline
//! daemon's speed (`daemon_handoff` pins a process to one CPU to hold it
//! to that); the same happens, harmlessly, wherever the kernel declines
//! to give a worker a CPU of its own.
//! [`TelemetrySnapshot`]'s `handoff` section counts which thread ran the
//! quanta and what the wake-ups cost.
//!
//! # The reap protocol: scan → event → dying
//!
//! An shm app whose producing process has died is *abandoned*: nothing
//! will ever push to its ring again. [`PowerDialDaemon::reap_dead`], called
//! once per serve-loop iteration after the tick, finds such apps and
//! unregisters them once their last beats are drained. It sits on the
//! reaction path of every live app, so what it does while nobody dies is
//! what matters:
//!
//! * **Scan.** Per shm app, two relaxed loads of its segment's header —
//!   the producer claim `(pid, start nonce)`
//!   ([`ShmPeerProbe::producer_claim`]) — compared with the claim the
//!   façade last settled on. Equal, which is every time but a handful,
//!   means no detach, re-claim or scribble has happened and there is
//!   nothing to do. A claim that appeared or changed is *settled*: the old
//!   claimant's watch is given back and the new one is handed to the
//!   daemon's [`ProcessWatch`] (`pidfd_open`, then one look at
//!   `/proc/<pid>/stat`, so a PID recycled before anyone opened it, a
//!   zombie and a PID that names nobody are all dead at once). Watches are
//!   per *process* and refcounted: a fleet of 64 segments fed by one
//!   process holds one pidfd. Registration itself asks the kernel nothing;
//!   the first reap after it does.
//! * **Event.** One `epoll_wait` with a zero timeout for the whole fleet,
//!   whose cost does not depend on how many processes are watched — and no
//!   epoll instance, hence no syscall, for a daemon with no shm app (and
//!   no listener, below). An
//!   exit is reported when it happens, not when the parent waits for the
//!   zombie, and is fanned out to every app that watched the process.
//! * **Dying.** An app whose claimant is dead stays *dying* until its ring
//!   reads empty (the tail the producer managed to publish survives it, in
//!   the segment) or is forfeit because the app is quarantined; then it is
//!   reaped. While beats are pending its slot is woken out of idle-skip so
//!   the next tick drains them. Only dying apps have their ring looked at.
//!   The one way out of dying other than the reap is the claim changing
//!   under it (a broker reusing the segment, a test un-scribbling it).
//!
//! **The fallback arm.** Where the kernel will not watch a claimant —
//! `pidfd_open` is `ENOSYS` (before Linux 5.3) or filtered (`EPERM`), the
//! process is out of file descriptors (`EMFILE`), the platform is not
//! Linux — that app alone is *polled*: [`ShmPeerProbe::producer_state`]
//! (`kill` + `/proc/<pid>/stat`, a few microseconds) on every reap, which
//! is what every app cost before the watch existed. Same answers, same
//! cadence; there is no setting for it and it does not retry until the
//! claim changes. [`PowerDialDaemon::liveness_counts`] (the snapshot's
//! `liveness` section) says how many processes are watched and how many
//! apps are polled.
//!
//! **The listener rides along.** The watch set is the serve loop's
//! readiness set, and a producer exiting is not the only thing a loop
//! wants to hear about: [`PowerDialDaemon::watch_listener`] takes the
//! attach broker's listening socket into the same epoll instance
//! (level-triggered, under a tag no process entry can carry), and the one
//! `epoll_wait` above then also says whether a client is waiting
//! ([`PowerDialDaemon::listener_pending`]). A loop that asks it calls
//! [`AttachBroker::poll_accept`](crate::broker::AttachBroker::poll_accept)
//! when somebody is there instead of paying `accept` → `EAGAIN`, over a
//! microsecond, on every iteration of every reaction. A daemon that was
//! never given a listener — every in-process one — polls exactly as
//! before, and where the set refuses the listener `listener_pending` says
//! "ask" every time, which is the loop there used to be. What is still
//! outside the set is a per-segment doorbell; with it the loop could
//! block on the set instead of polling it.
//!
//! # Fault containment and self-healing
//!
//! The daemon extends the paper's "keep applications responsive while the
//! environment misbehaves" guarantee to its own tenants. Faults are
//! contained at two nested perimeters, each with an explicit state
//! machine:
//!
//! ```text
//!  app:    Healthy ──panic / poisoned window──► Quarantined ──reap──► Evicted
//!            │  ▲                                   │
//!            │  └──── (never: quarantine is         └─ channel parked,
//!            │         one-way until eviction)         safe-state published
//!            ▼
//!          served every quantum
//!
//!  shard:  Live ──panic escaping containment / injected kill──► Dead
//!            ▲                                                    │
//!            └──────── respawn_dead(): fresh thread, ◄────────────┘
//!                      surviving slots migrated intact
//!                      (state: Respawned ≡ Live)
//! ```
//!
//! * **Per-app isolation.** Each app's per-quantum drain+decision step
//!   runs under a [`std::panic::catch_unwind`] guard (one guard per fleet
//!   *sweep*, with a cursor naming the slot mid-step, so blame stays
//!   per-app while the hot path stays batched and pays no per-slot
//!   landing pad). A panic, or a typed
//!   [`powerdial_heartbeats::WindowOverflow`] from a poisoned latency
//!   stream, blames exactly one app: it transitions to
//!   [`QuarantineReason`]-typed quarantine — its channel is parked (never
//!   drained or stepped again), its decision block publishes the
//!   configured safe state ([`DaemonConfig::safe_point`]) so the client
//!   ladder degrades cleanly, and the shard keeps serving its neighbors
//!   in the same quantum. Quarantine is one-way: the slot stays parked
//!   until [`PowerDialDaemon::unregister`]/[`PowerDialDaemon::reap_dead`]
//!   evicts it (a reaper treats a quarantined app's undrained backlog as
//!   forfeit — it would never be processed anyway).
//! * **Shard resurrection.** A shard dies when a panic escapes its
//!   quantum — on its worker thread, whose `Drop` guard then publishes
//!   `Dead` on the hand-off block and wakes a waiting façade, or on the
//!   façade, which catches it — or on an injected `Crash`; either way
//!   within the tick (or call) that caused it, so the death is always
//!   seen at once: the façade marks the shard dead —
//!   [`PowerDialDaemon::try_tick`] surfaces it once as
//!   [`ControlError::ShardDead`], new registrations go to live shards —
//!   and stops ticking it. The corpse's apps stay reachable through the
//!   shard lock in the meantime (unregister, reap and telemetry work on a
//!   dead shard exactly as on a live one; only draining stops).
//!   [`PowerDialDaemon::respawn_dead`] resurrects it: the shard state is
//!   taken out from under the poisoned mutex, the slot that was mid-step
//!   (if any) is quarantined, and a fresh thread is spawned *at the same
//!   shard index* with every surviving app's `AppShared`/segment binding
//!   migrated intact — runtimes, windows, and undrained transports
//!   included, so decisions resume bit-identically and no beat is lost
//!   beyond channel capacity. (The PR 6 shm warm-start block stays
//!   current throughout and remains the recovery path for
//!   *daemon-process* death, where in-heap state cannot survive.)
//!   Incidents are counted on the facade and traced as
//!   `shard_dead`/`shard_respawned`/`migrated` records.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use powerdial_heartbeats::channel::{beat_channel, BeatConsumer, BeatSample};
use powerdial_heartbeats::shm::{
    DecisionRead, ProcessWatch, ShmConsumer, ShmDecision, ShmPeerProbe, ShmWarmState, WarmRead,
    WatchId, Watched,
};
use powerdial_heartbeats::telemetry::{
    DecisionTraceRecord, DecisionTraceRing, LatencyHistogram, TraceReason,
};
use powerdial_heartbeats::{BeatProducer, HeartbeatTag, SlidingWindow, Timestamp, WindowOverflow};
use powerdial_knobs::{KnobTable, PointIdx};

use crate::error::ControlError;
use crate::handoff::{Command, Dispatcher, Handoff};
use crate::runtime::{IndexedDecision, PowerDialRuntime, RuntimeConfig};
use crate::telemetry::{
    AppTelemetryReport, HandoffCounts, IncidentCounts, LivenessCounts, ShardTelemetry,
    TelemetrySnapshot, QOS_PPM_SCALE,
};

/// Identifier of an application registered with a [`PowerDialDaemon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(u64);

impl AppId {
    /// Returns the raw identifier value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value (for the telemetry tests).
    #[cfg(test)]
    pub(crate) const fn from_raw(value: u64) -> Self {
        AppId(value)
    }
}

/// Configuration of a [`PowerDialDaemon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Worker threads to shard applications across. `0` runs the daemon
    /// inline: ticks process every shard on the calling thread. A worker
    /// buys parallelism for a loop that ticks more often than every 50 µs
    /// (its thread then spins between quanta and a tick hands it work for
    /// about 0.06 µs); at any slower cadence its thread sleeps, the ticking
    /// thread runs its shard, and the worker costs one uncontended lock per
    /// tick — see *Threading model* in the [module docs](self).
    pub workers: usize,
    /// Capacity, in beat records, of each application's SPSC channel.
    /// Should comfortably exceed the number of beats an application emits
    /// per actuation quantum; beats beyond it are rejected (backpressure).
    pub channel_capacity: usize,
    /// Sliding-window size, in heartbeats, for the daemon-side rate
    /// estimate fed to each application's controller (the paper uses 20).
    pub window_size: usize,
    /// In threaded mode, the first `inline_apps` registered applications
    /// are placed on the caller's inline shard instead of a worker: the
    /// ticking thread has to do something while the workers run, and a
    /// fleet this small (4 apps × 20 beats ≈ 3 µs of quantum) is finished
    /// before a second thread could have been told about it. Decisions
    /// are placement-independent (the shards run identical control code);
    /// only which thread does the work changes. Ignored in inline mode
    /// (`workers: 0`), where everything is inline anyway.
    pub inline_apps: usize,
    /// Silent-streak threshold for skipping idle channels: after this many
    /// consecutive empty drains an app is polled only every
    /// `idle_skip_limit + 1` quanta (worst-case added decision latency for
    /// a waking app: `idle_skip_limit` quanta). `0` disables skipping.
    pub idle_skip_limit: u32,
    /// Maximum beats drained from one app per quantum (the fairness cap);
    /// excess beats stay queued for the next quantum. `0` means uncapped.
    pub drain_cap: usize,
    /// Telemetry instrumentation (on by default): per-app beat-latency
    /// and QoS-loss histograms recorded on the drain path (allocation-
    /// free; see [`powerdial_heartbeats::telemetry`]) plus a per-shard
    /// decision trace, exported off the drain path by
    /// [`PowerDialDaemon::telemetry_snapshot`]. Disable only when the
    /// last few ns/beat matter more than observability.
    pub telemetry: bool,
    /// Capacity, in records, of each shard's [`DecisionTraceRing`].
    /// Ignored (no ring) when `telemetry` is off; `0` keeps histograms
    /// but disables tracing.
    pub trace_capacity: usize,
    /// Knob-table point index published for a quarantined application —
    /// the configured safe state its clients degrade to. The default `0`
    /// is the baseline (speedup 1.0, zero QoS loss) point of every table
    /// the calibrator emits; an out-of-range index is clamped to the
    /// app's table at quarantine time.
    pub safe_point: u32,
}

impl DaemonConfig {
    /// Default channel capacity: several quanta of the paper's default
    /// 20-beat quantum.
    pub const DEFAULT_CHANNEL_CAPACITY: usize = 256;

    /// Default [`DaemonConfig::inline_apps`]: fleets up to this size never
    /// involve a worker thread.
    pub const DEFAULT_INLINE_APPS: usize = 4;

    /// Default [`DaemonConfig::trace_capacity`]: a few dozen quanta of
    /// history per shard at fleet scale, a few KiB of fixed storage.
    pub const DEFAULT_TRACE_CAPACITY: usize = 256;

    /// A configuration with `workers` worker threads and the default
    /// channel capacity and window size.
    pub fn with_workers(workers: usize) -> Self {
        DaemonConfig {
            workers,
            ..DaemonConfig::default()
        }
    }

    /// Validates the configuration.
    fn validate(&self) -> Result<(), ControlError> {
        if self.channel_capacity == 0 {
            return Err(ControlError::ZeroChannelCapacity);
        }
        if self.window_size == 0 {
            return Err(ControlError::ZeroWindowSize);
        }
        Ok(())
    }
}

impl Default for DaemonConfig {
    /// One worker per available core (capped at 8 — the per-quantum work is
    /// memory-bound well before that), default channel capacity, and the
    /// paper's 20-beat window.
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(1);
        DaemonConfig {
            workers,
            channel_capacity: DaemonConfig::DEFAULT_CHANNEL_CAPACITY,
            window_size: 20,
            inline_apps: DaemonConfig::DEFAULT_INLINE_APPS,
            idle_skip_limit: 0,
            drain_cap: 0,
            telemetry: true,
            trace_capacity: DaemonConfig::DEFAULT_TRACE_CAPACITY,
            safe_point: 0,
        }
    }
}

/// Why an application was quarantined (the typed `Quarantined { reason }`
/// state of the fault-containment machine — see the module docs).
///
/// Readable lock-free from the app side via
/// [`DecisionView::quarantine_reason`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuarantineReason {
    /// A panic unwound out of the app's drain+decision step and was
    /// caught by the per-app containment guard.
    Panic,
    /// The app's latency stream overflowed its sliding window's summed
    /// nanoseconds ([`powerdial_heartbeats::WindowOverflow`]) — a poison
    /// producer, not an organic workload.
    WindowOverflow,
}

impl QuarantineReason {
    /// Stable lowercase name (used in diagnostics).
    pub const fn as_str(self) -> &'static str {
        match self {
            QuarantineReason::Panic => "panic",
            QuarantineReason::WindowOverflow => "window_overflow",
        }
    }

    /// Encoding stored in the shared atomic (0 = healthy).
    const fn code(self) -> u64 {
        match self {
            QuarantineReason::Panic => 1,
            QuarantineReason::WindowOverflow => 2,
        }
    }

    const fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(QuarantineReason::Panic),
            2 => Some(QuarantineReason::WindowOverflow),
            _ => None,
        }
    }
}

/// Decision state shared between a daemon shard and an [`AppHandle`],
/// published through atomics so neither side ever blocks the other.
#[derive(Debug, Default)]
struct AppShared {
    /// `(decision_count << 32) | point_idx`. A single atomic so the "is
    /// there a decision yet" flag and the setting index can never tear;
    /// the count wraps at 2³² (it only signals freshness/presence).
    decision: AtomicU64,
    /// Bit pattern of the latest decision's knob gain (f64).
    gain_bits: AtomicU64,
    /// Bit pattern of the latest quantum's achieved speedup (f64).
    achieved_speedup_bits: AtomicU64,
    /// Bit pattern of the latest quantum's expected QoS loss (f64).
    qos_loss_bits: AtomicU64,
    /// Total beats the daemon has processed for this application.
    beats_processed: AtomicU64,
    /// [`QuarantineReason::code`] once the app is quarantined (0 =
    /// healthy). Written exactly once, by the owning shard.
    quarantined: AtomicU64,
}

impl AppShared {
    /// The one publication of a decision: the three aggregate words, then
    /// the packed word under the next decision count. Single writer (the
    /// owning shard), so the count is carried in the word itself; it only
    /// signals presence/freshness, and the masked value 0 is skipped on
    /// the 2³² wrap so `latest_point` stays `Some`.
    fn publish(&self, decision: ShmDecision) {
        self.gain_bits.store(decision.gain_bits, Ordering::Release);
        self.achieved_speedup_bits
            .store(decision.achieved_speedup_bits, Ordering::Release);
        self.qos_loss_bits
            .store(decision.qos_loss_bits, Ordering::Release);
        // Relaxed: the sole writer reading back its own last store.
        let count = (self.decision.load(Ordering::Relaxed) >> 32) as u32;
        let count = count.checked_add(1).unwrap_or(1);
        self.decision.store(
            u64::from(count) << 32 | u64::from(decision.point_idx),
            Ordering::Release,
        );
    }

    /// The four decision words as last published (all zero before the
    /// first decision) — what the shm decision block, the trace and
    /// [`DecisionView`] all serve, so they agree bit for bit.
    fn latest(&self) -> ShmDecision {
        ShmDecision {
            point_idx: self.decision.load(Ordering::Acquire) as u32,
            gain_bits: self.gain_bits.load(Ordering::Acquire),
            achieved_speedup_bits: self.achieved_speedup_bits.load(Ordering::Acquire),
            qos_loss_bits: self.qos_loss_bits.load(Ordering::Acquire),
        }
    }

    fn latest_point(&self) -> Option<PointIdx> {
        let packed = self.decision.load(Ordering::Acquire);
        if packed >> 32 == 0 {
            None
        } else {
            Some(PointIdx::new(packed as u32))
        }
    }

    fn latest_gain(&self) -> Option<f64> {
        self.latest_point()
            .map(|_| f64::from_bits(self.gain_bits.load(Ordering::Acquire)))
    }

    fn achieved_speedup(&self) -> Option<f64> {
        self.latest_point()
            .map(|_| f64::from_bits(self.achieved_speedup_bits.load(Ordering::Acquire)))
    }

    fn expected_qos_loss(&self) -> Option<f64> {
        self.latest_point()
            .map(|_| f64::from_bits(self.qos_loss_bits.load(Ordering::Acquire)))
    }

    fn beats_processed(&self) -> u64 {
        self.beats_processed.load(Ordering::Acquire)
    }

    fn quarantine_reason(&self) -> Option<QuarantineReason> {
        QuarantineReason::from_code(self.quarantined.load(Ordering::Acquire))
    }
}

/// A read-only view of the daemon's latest control decision for one
/// application.
///
/// This is the decision-side half of an [`AppHandle`], separated so
/// shm-registered applications ([`PowerDialDaemon::register_shm`]) — whose
/// beat *producer* lives in another process — still expose the daemon's
/// decisions to in-process observers (experiment drivers, benchmarks,
/// equivalence tests). All reads are lock-free atomic loads.
#[derive(Debug, Clone)]
pub struct DecisionView {
    id: AppId,
    shared: Arc<AppShared>,
}

impl DecisionView {
    /// The application's daemon-assigned identifier.
    pub fn id(&self) -> AppId {
        self.id
    }

    /// Index (into the app's knob table) of the latest decided setting, or
    /// `None` before the daemon has processed any beat.
    pub fn latest_point(&self) -> Option<PointIdx> {
        self.shared.latest_point()
    }

    /// The latest decided knob gain (instantaneous speedup), or `None`
    /// before the first decision.
    pub fn latest_gain(&self) -> Option<f64> {
        self.shared.latest_gain()
    }

    /// The achieved (time-averaged) speedup of the most recent quantum the
    /// daemon planned for this app, or `None` before the first decision.
    pub fn achieved_speedup(&self) -> Option<f64> {
        self.shared.achieved_speedup()
    }

    /// The expected QoS loss of the most recent planned quantum, or `None`
    /// before the first decision.
    pub fn expected_qos_loss(&self) -> Option<f64> {
        self.shared.expected_qos_loss()
    }

    /// Total beats the daemon has processed for this application.
    pub fn beats_processed(&self) -> u64 {
        self.shared.beats_processed()
    }

    /// Why this application was quarantined, or `None` while it is
    /// healthy. Once `Some`, the decision accessors serve the configured
    /// safe state and no further beats will ever be processed.
    pub fn quarantine_reason(&self) -> Option<QuarantineReason> {
        self.shared.quarantine_reason()
    }
}

/// The application side of a daemon registration: push beats in, read the
/// latest control decision out. Both directions are lock-free.
///
/// The handle is `Send` but not `Sync`/`Clone` — it owns the single
/// producer half of the app's SPSC channel, so exactly one thread emits
/// beats (move the handle to hand it off).
#[derive(Debug)]
pub struct AppHandle {
    view: DecisionView,
    producer: BeatProducer,
    next_tag: HeartbeatTag,
    last_timestamp: Option<Timestamp>,
}

/// The decision getters (`latest_point`, `latest_gain`, …,
/// `quarantine_reason`) are [`DecisionView`]'s, reached through deref.
impl std::ops::Deref for AppHandle {
    type Target = DecisionView;

    fn deref(&self) -> &DecisionView {
        &self.view
    }
}

impl AppHandle {
    /// The application's daemon-assigned identifier.
    pub fn id(&self) -> AppId {
        self.view.id
    }

    /// Emits one heartbeat at `now`: builds the beat record (sequence tag
    /// and latency since the previous beat) and pushes it onto the
    /// channel. Wait-free and allocation-free.
    ///
    /// # Errors
    ///
    /// Returns the rejected record when the channel is full. The beat
    /// still counts for latency bookkeeping (the next accepted beat's
    /// latency spans the gap), so a drop degrades the rate estimate
    /// smoothly instead of corrupting it.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous beat.
    pub fn beat(&mut self, now: Timestamp) -> Result<(), BeatSample> {
        let latency = match self.last_timestamp {
            Some(last) => now - last,
            None => powerdial_heartbeats::TimestampDelta::ZERO,
        };
        let sample = BeatSample {
            tag: self.next_tag,
            timestamp: now,
            latency,
        };
        self.next_tag = self.next_tag.next();
        self.last_timestamp = Some(now);
        self.producer.try_push(sample)
    }

    /// Pushes an already-built beat record (e.g. one derived from a
    /// [`powerdial_heartbeats::HeartbeatRecord`] via
    /// [`BeatSample::from_record`]) without touching the handle's own
    /// tag/timestamp bookkeeping.
    ///
    /// # Errors
    ///
    /// Returns the rejected record when the channel is full.
    pub fn push_sample(&mut self, sample: BeatSample) -> Result<(), BeatSample> {
        self.producer.try_push(sample)
    }

    /// Beats rejected by the channel so far (backpressure).
    pub fn beats_rejected(&self) -> u64 {
        self.producer.rejected()
    }

    /// A standalone view of this app's decision state (what
    /// [`PowerDialDaemon::register_shm`] returns for cross-process apps).
    pub fn decision_view(&self) -> DecisionView {
        self.view.clone()
    }
}

/// A beat source a daemon shard drains: the in-heap SPSC ring or the
/// cross-process shared-memory segment — two storages of one ring. The
/// control code downstream of a drain is identical — where the bytes lived
/// is invisible to it.
#[derive(Debug)]
enum BeatSource {
    /// In-heap lock-free SPSC ring ([`powerdial_heartbeats::channel`]).
    Channel(BeatConsumer),
    /// Cross-process shared-memory segment
    /// ([`powerdial_heartbeats::shm`]).
    Shm(ShmConsumer),
}

impl BeatSource {
    fn drain_into_capped(&mut self, out: &mut Vec<BeatSample>, cap: usize) -> usize {
        match self {
            BeatSource::Channel(consumer) => consumer.drain_into_capped(out, cap),
            BeatSource::Shm(consumer) => consumer.drain_into_capped(out, cap),
        }
    }
}

/// Daemon-side control state for one application: the O(1) runtime, the
/// daemon's own sliding-window rate estimate, and the shared decision
/// atomics. Separated from the channel so the lock-free shard and the
/// mutex-guarded baseline run *identical* control code.
#[derive(Debug)]
struct ControlState {
    runtime: PowerDialRuntime,
    window: SlidingWindow,
    shared: Arc<AppShared>,
    /// Observed rate inherited from a crashed predecessor daemon's
    /// warm-start block. Primes the decide-before-observe step only while
    /// this daemon's own window is still empty (the window never empties
    /// once a sample lands, so the seed naturally expires); without it the
    /// first post-adoption quantum would skip its controller update and the
    /// integrator would diverge from an uninterrupted run forever.
    seed_rate: Option<f64>,
}

/// The decision kernels are the daemon's per-beat hot path: implicit
/// overflow semantics are banned here (clippy `arithmetic_side_effects`);
/// every index/counter op is an explicit `wrapping_*` with its bound
/// argued in place.
#[deny(clippy::arithmetic_side_effects)]
impl ControlState {
    /// Processes one batch of drained beats: for each beat, read the
    /// current windowed rate, step the runtime (decide *before* observing
    /// the beat's own latency — the same ordering as the single-app serial
    /// loop, so decision sequences are beat-for-beat identical), then fold
    /// the latency into the window. Publishes the final decision of the
    /// batch to the shared atomics.
    ///
    /// # Errors
    ///
    /// A poisoned latency stream that overflows the window's summed
    /// nanoseconds surfaces as [`WindowOverflow`]; nothing is published
    /// for the batch and the caller quarantines the app.
    fn process_drained(
        &mut self,
        id: AppId,
        samples: &[BeatSample],
        on_decision: &mut impl FnMut(AppId, IndexedDecision),
    ) -> Result<u64, WindowOverflow> {
        if samples.is_empty() {
            return Ok(0);
        }
        let mut last = None;
        for sample in samples {
            let observed = self
                .window
                .rate()?
                .map(|r| r.beats_per_second())
                .or(self.seed_rate);
            let decision = self.runtime.on_heartbeat_idx(observed);
            on_decision(id, decision);
            // The first beat of a stream has no predecessor; its zero
            // latency is a convention, not an observation (mirrors
            // `HeartbeatMonitor::try_heartbeat`).
            if sample.tag.value() != 0 {
                self.window.push(sample.latency);
            }
            last = Some(decision);
        }
        let decision = last.expect("non-empty batch");
        self.publish_batch(decision, samples.len());
        Ok(samples.len() as u64)
    }

    /// The batched counterpart of [`ControlState::process_drained`]:
    /// boundary beats (where the runtime consumes an observation and
    /// replans) are stepped individually, and every maximal run of
    /// interior beats is folded in one pass —
    /// [`PowerDialRuntime::advance_in_quantum`] advances the schedule
    /// walk, [`SlidingWindow::push_slice`] folds the latencies. Interior
    /// beats never consult the window's rate, because the per-beat path
    /// computes and then *ignores* it for them; skipping the computation
    /// is therefore exact, and the published decision sequence is
    /// bit-identical to the per-beat path's (pinned by the
    /// `daemon_batch_equivalence` suite).
    ///
    /// `lat_scratch` is the caller's reused latency buffer (grows to at
    /// most one drain's worth of beats; steady-state allocation-free).
    ///
    /// # Errors
    ///
    /// [`WindowOverflow`] under the same poisoned-stream condition as
    /// [`ControlState::process_drained`] — the overflow is only *observed*
    /// at a boundary beat's rate read, so the batched and per-beat paths
    /// blame the same drain (both quarantine within the quantum that
    /// drained the poison).
    fn process_drained_batched(
        &mut self,
        samples: &[BeatSample],
        lat_scratch: &mut Vec<powerdial_heartbeats::TimestampDelta>,
    ) -> Result<u64, WindowOverflow> {
        if samples.is_empty() {
            return Ok(0);
        }
        let quantum = self.runtime.quantum_heartbeats();
        let mut last = None;
        let mut i = 0usize;
        while i < samples.len() {
            let beat_in_quantum = self.runtime.beat_in_quantum();
            if beat_in_quantum == 0 {
                // Boundary beat: decide before observing, exactly as the
                // per-beat path does.
                let observed = self
                    .window
                    .rate()?
                    .map(|r| r.beats_per_second())
                    .or(self.seed_rate);
                let decision = self.runtime.on_heartbeat_idx(observed);
                if samples[i].tag.value() != 0 {
                    self.window.push(samples[i].latency);
                }
                last = Some(decision);
                // `i < samples.len()` (loop guard), so the increment
                // cannot wrap.
                i = i.wrapping_add(1);
            } else {
                // Interior span: everything up to the next boundary (or the
                // end of the drain), folded in one step. The runtime keeps
                // `beat_in_quantum < quantum`, and `i < samples.len()` by
                // the loop guard, so neither subtraction underflows.
                let span = (quantum.wrapping_sub(beat_in_quantum) as usize)
                    .min(samples.len().wrapping_sub(i));
                let decision = self.runtime.advance_in_quantum(span as u32);
                lat_scratch.clear();
                lat_scratch.extend(
                    samples[i..i.wrapping_add(span)]
                        .iter()
                        .filter(|s| s.tag.value() != 0)
                        .map(|s| s.latency),
                );
                self.window.push_slice(lat_scratch);
                last = Some(decision);
                i = i.wrapping_add(span);
            }
        }
        let decision = last.expect("non-empty batch");
        self.publish_batch(decision, samples.len());
        Ok(samples.len() as u64)
    }

    /// Publication tail shared by the per-beat and batched kernels: store
    /// the batch's final decision and the current schedule's aggregates
    /// into the shared atomics.
    fn publish_batch(&mut self, decision: IndexedDecision, batch_len: usize) {
        let schedule = self
            .runtime
            .current_schedule()
            .expect("schedule exists after stepping");
        let qos_loss = schedule.expected_qos_loss(self.runtime.table());
        self.shared.publish(ShmDecision {
            point_idx: decision.point_idx.as_usize() as u32,
            gain_bits: decision.gain.to_bits(),
            achieved_speedup_bits: schedule.achieved_speedup.to_bits(),
            qos_loss_bits: qos_loss.to_bits(),
        });
        self.shared
            .beats_processed
            .fetch_add(batch_len as u64, Ordering::AcqRel);
    }
}

/// The decision that serves knob-table point `point` as-is: gain and
/// achieved speedup are the point's speedup, QoS loss is the table's.
/// What quarantine publishes as the safe state, and what adoption
/// re-synthesizes from a warm point when the predecessor tore the block.
fn table_decision(table: &KnobTable, point: PointIdx) -> ShmDecision {
    let speedup = table.speedup_of(point);
    ShmDecision {
        point_idx: point.as_usize() as u32,
        gain_bits: speedup.to_bits(),
        achieved_speedup_bits: speedup.to_bits(),
        qos_loss_bits: table.point(point).qos_loss.value().to_bits(),
    }
}

/// The one constructor of a trace record (the ring stamps `seq`).
/// Incident records, which belong to a shard rather than a decision,
/// pass [`NO_DECISION`].
fn trace_record(
    app: u64,
    timestamp: Timestamp,
    reason: TraceReason,
    decision: ShmDecision,
) -> DecisionTraceRecord {
    DecisionTraceRecord {
        seq: 0,
        timestamp,
        app,
        point_idx: decision.point_idx,
        reason,
        gain: decision.gain(),
        achieved_speedup: decision.achieved_speedup(),
        qos_loss: decision.expected_qos_loss(),
    }
}

/// All-zero decision words: what [`AppShared::latest`] reads before the
/// first decision, and what shard-incident trace records carry.
const NO_DECISION: ShmDecision = ShmDecision {
    point_idx: 0,
    gain_bits: 0,
    achieved_speedup_bits: 0,
    qos_loss_bits: 0,
};

/// Per-app hot-path telemetry: the two fixed-footprint histograms the
/// drain loop records into, boxed so an `AppSlot` stays small for the
/// shard's slot-scan locality (the box is one pointer; the histograms
/// are ~8 KiB that only the owning app's drain touches).
#[derive(Debug)]
struct SlotTelemetry {
    /// Per-beat latency distribution, nanoseconds.
    beat_latency_ns: LatencyHistogram,
    /// Per-quantum expected QoS loss, parts per million.
    qos_loss_ppm: LatencyHistogram,
    /// Timestamp of the last beat folded into a decision (stamps the
    /// trace record of a reap/unregister, which has no beat of its own).
    last_beat: Timestamp,
    /// Set for an adopted app until its first processed quantum, whose
    /// trace record is tagged [`TraceReason::WarmStart`].
    warm_start_pending: bool,
}

impl SlotTelemetry {
    fn new(warm_start_pending: bool) -> Box<SlotTelemetry> {
        Box::new(SlotTelemetry {
            beat_latency_ns: LatencyHistogram::new(),
            qos_loss_ppm: LatencyHistogram::new(),
            last_beat: Timestamp::from_nanos(0),
            warm_start_pending,
        })
    }

    /// Warms the histogram cache lines `record_telemetry` will touch.
    /// At fleet scale the per-app histograms exceed L2, so the drain
    /// loop issues this right after draining — the decision kernel's
    /// work then overlaps the line fills instead of the record path
    /// stalling on them.
    #[inline]
    fn prefetch(&self) {
        self.beat_latency_ns.prefetch();
        self.qos_loss_ppm.prefetch();
    }
}

/// One application owned by a shard: its beat source plus control state.
#[derive(Debug)]
struct AppSlot {
    id: AppId,
    consumer: BeatSource,
    control: ControlState,
    /// Consecutive quanta whose drain came up empty (the silent streak).
    silent_streak: u32,
    /// Quanta left to skip before the next poll of an idle app.
    skip_countdown: u32,
    /// Hot-path metric state; `None` when telemetry is disabled.
    telemetry: Option<Box<SlotTelemetry>>,
    /// `Some` once the app is quarantined: the slot is parked (its
    /// transport is never drained and its runtime never stepped again)
    /// until eviction. One-way — see the module's containment diagram.
    quarantined: Option<QuarantineReason>,
    /// Fault-injection hook ([`PowerDialDaemon::inject_app_panic`] /
    /// [`DaemonShard::arm_panic`]): the next processing step panics
    /// inside the containment guard.
    panic_armed: bool,
}

/// Quanta per scratch-shrink epoch: the amortization period of the
/// cold-path check that returns flood-grown scratch capacity to the
/// steady-state working set.
pub const SHRINK_EPOCH_QUANTA: u32 = 64;

/// Floor below which scratch capacity is never shrunk (pointless churn).
const SHRINK_FLOOR: usize = 64;

/// A shard of the daemon: the set of applications one worker owns, plus
/// the scratch buffers their channels drain into.
///
/// Exposed publicly so tests and benchmarks can drive the exact per-quantum
/// drain loop the worker threads run — on the calling thread, under a
/// counting allocator, or single-stepped for equivalence checks.
#[derive(Debug, Default)]
pub struct DaemonShard {
    apps: Vec<AppSlot>,
    scratch: Vec<BeatSample>,
    /// Latency buffer of the batched kernel (one interior span at a time).
    lat_scratch: Vec<powerdial_heartbeats::TimestampDelta>,
    /// Silent-streak threshold for skipping idle apps (0 = disabled).
    idle_skip_limit: u32,
    /// Per-app, per-quantum drain cap (0 = uncapped).
    drain_cap: usize,
    /// Largest single drain observed in the current shrink epoch.
    epoch_peak: usize,
    /// Quanta run in the current shrink epoch.
    epoch_quanta: u32,
    /// Decision trace of this shard's apps (capacity 0 = disabled).
    trace: DecisionTraceRing,
    /// Knob-table point published for quarantined apps (see
    /// [`DaemonConfig::safe_point`]); clamped to each app's table at
    /// quarantine time.
    safe_point: u32,
    /// The app whose drain+decision step is currently executing, recorded
    /// before the containment guard runs it. A panic *inside* the guard
    /// quarantines the app and clears this; a panic that somehow escapes
    /// (or an injected worker crash) leaves it set, so the façade's
    /// resurrection path can blame exactly one app when it recovers the
    /// shard from the dead worker.
    in_flight: Option<u64>,
    /// Unit-test fault injection: the next sweep panics *outside* its
    /// containment guard, mid-step on the shard's first app — the escaped
    /// panic [`DaemonShard::blame_in_flight`] exists for, which no input
    /// can produce.
    #[cfg(test)]
    escape_armed: bool,
}

impl DaemonShard {
    /// Creates an empty shard tuned from the daemon's configuration:
    /// idle-skip threshold, drain cap, safe point, and — with telemetry
    /// on — a decision-trace ring of [`DaemonConfig::trace_capacity`]
    /// records.
    fn from_config(config: &DaemonConfig) -> Self {
        let trace_capacity = if config.telemetry {
            config.trace_capacity
        } else {
            0
        };
        DaemonShard {
            idle_skip_limit: config.idle_skip_limit,
            drain_cap: config.drain_cap,
            trace: DecisionTraceRing::with_capacity(trace_capacity),
            safe_point: config.safe_point,
            ..DaemonShard::default()
        }
    }

    /// Current capacity of the shard's drain scratch buffer, in beat
    /// records — observable so tests can pin the flood-then-shrink
    /// behavior.
    pub fn scratch_capacity(&self) -> usize {
        self.scratch.capacity()
    }

    /// Number of applications this shard owns.
    fn len(&self) -> usize {
        self.apps.len()
    }

    fn push_slot(&mut self, slot: AppSlot) {
        self.apps.push(slot);
    }

    fn slot(&self, id: AppId) -> Option<&AppSlot> {
        self.apps.iter().find(|slot| slot.id == id)
    }

    fn slot_mut(&mut self, id: AppId) -> Option<&mut AppSlot> {
        self.apps.iter_mut().find(|slot| slot.id == id)
    }

    fn remove(&mut self, id: AppId) -> bool {
        let Some(index) = self.apps.iter().position(|slot| slot.id == id) else {
            return false;
        };
        let slot = self.apps.swap_remove(index);
        // A reaped/unregistered shm app's decision and warm-start blocks
        // are reset before the daemon lets go of the mapping, so the
        // segment's next tenant starts from `Empty` — neither a previous
        // app's stale knob setting nor its controller trajectory leaks
        // into a reuse.
        if let BeatSource::Shm(consumer) = &slot.consumer {
            consumer.reset_decision();
            consumer.reset_warm_state();
        }
        if let Some(telemetry) = &slot.telemetry {
            self.trace.push(trace_record(
                id.value(),
                telemetry.last_beat,
                TraceReason::SafeReset,
                slot.control.shared.latest(),
            ));
        }
        true
    }

    /// Resets an app's idle-skip bookkeeping so the next quantum polls
    /// its transport unconditionally. Used by the reaper when a skipped
    /// slot's producer died with beats still pending — the countdown
    /// must not delay draining (and thus reaping) the corpse.
    fn wake(&mut self, id: AppId) {
        if let Some(slot) = self.slot_mut(id) {
            slot.silent_streak = 0;
            slot.skip_countdown = 0;
        }
    }

    /// Arms the fault-injection hook behind
    /// [`PowerDialDaemon::inject_app_panic`]: `id`'s next processing step
    /// panics *inside* the containment guard, exercising the quarantine
    /// path end to end. Returns `false` when the shard does not own `id`.
    fn arm_panic(&mut self, id: AppId) -> bool {
        self.slot_mut(id)
            .map(|slot| slot.panic_armed = true)
            .is_some()
    }

    /// Parks a faulty app: records the blame, publishes the configured
    /// safe-state so the app (and, for shm apps, its client-side ladder)
    /// lands on a known-good knob setting instead of whatever the fault
    /// left behind, and resets the shm warm-start block so a successor
    /// daemon cold-starts this app rather than warm-starting from
    /// possibly-poisoned controller state. One-way: the slot is skipped by
    /// every subsequent quantum until it is evicted (unregister/reap).
    ///
    /// Runs *outside* the containment guard on state the guard protects
    /// (shared atomics, the knob table, the segment's seqlocked blocks) —
    /// all of which stay structurally valid across an unwind out of the
    /// control kernels.
    fn quarantine_slot(
        slot: &mut AppSlot,
        safe_point: u32,
        trace: &mut DecisionTraceRing,
        reason: QuarantineReason,
    ) {
        slot.quarantined = Some(reason);
        let table = slot.control.runtime.table();
        let point = PointIdx::new(safe_point.min(table.len().saturating_sub(1) as u32));
        let safe = table_decision(table, point);
        // Through the same publication as a healthy decision, so
        // `latest_point` observers see a *fresh* safe decision rather than
        // the fault's leftovers.
        slot.control.shared.publish(safe);
        slot.control
            .shared
            .quarantined
            .store(reason.code(), Ordering::Release);
        if let BeatSource::Shm(consumer) = &slot.consumer {
            // The client reads a *published* safe decision (its ladder
            // serves it as `Published`, not a fallback) within its next
            // decision poll.
            consumer.publish_decision(safe);
            consumer.reset_warm_state();
        }
        let last_beat = slot.telemetry.as_deref().map(|t| t.last_beat);
        trace.push(trace_record(
            slot.id.value(),
            last_beat.unwrap_or(Timestamp::from_nanos(0)),
            TraceReason::Quarantined,
            safe,
        ));
    }

    /// Quarantines the app whose step was executing when this shard's
    /// worker died, if any. Contained faults never leave `in_flight` set
    /// (the sweep clears it); only a panic that escaped containment —
    /// e.g. an injected worker crash — does, and it blames exactly one
    /// app.
    fn blame_in_flight(&mut self) {
        let Some(blamed) = self.in_flight.take() else {
            return;
        };
        let DaemonShard {
            apps,
            trace,
            safe_point,
            ..
        } = self;
        let culprit = apps
            .iter_mut()
            .find(|slot| slot.id.value() == blamed && slot.quarantined.is_none());
        if let Some(slot) = culprit {
            Self::quarantine_slot(slot, *safe_point, trace, QuarantineReason::Panic);
        }
    }

    /// Drains one app's transport under the drain cap and keeps its
    /// silent streak current (what the sweep's idle-skip reads). Returns
    /// the beats drained into `scratch`.
    fn drain_slot(slot: &mut AppSlot, scratch: &mut Vec<BeatSample>, drain_cap: usize) -> usize {
        let cap = if drain_cap == 0 {
            usize::MAX
        } else {
            drain_cap
        };
        let drained = slot.consumer.drain_into_capped(scratch, cap);
        if drained == 0 {
            slot.silent_streak = slot.silent_streak.saturating_add(1);
        } else {
            slot.silent_streak = 0;
            slot.skip_countdown = 0;
        }
        drained
    }

    /// Amortized cold-path scratch maintenance: once per
    /// [`SHRINK_EPOCH_QUANTA`] quanta, if the scratch capacity exceeds
    /// four times the epoch's largest drain, shrink it to twice that peak.
    /// In steady state the capacity tracks the working set and the check
    /// never fires (`shrink_to` counts as a realloc, and the `no_alloc`
    /// suites must stay green); after a flood subsides, one epoch later
    /// the burst-sized buffer is returned.
    fn maintain_scratch(&mut self, quantum_peak: usize) {
        self.epoch_peak = self.epoch_peak.max(quantum_peak);
        self.epoch_quanta += 1;
        if self.epoch_quanta < SHRINK_EPOCH_QUANTA {
            return;
        }
        let watermark = self.epoch_peak.max(SHRINK_FLOOR) * 2;
        if self.scratch.capacity() > watermark * 2 {
            self.scratch.shrink_to(watermark);
        }
        if self.lat_scratch.capacity() > watermark * 2 {
            self.lat_scratch.shrink_to(watermark);
        }
        self.epoch_peak = 0;
        self.epoch_quanta = 0;
    }

    /// Runs one actuation quantum: drains every app's channel in one batch
    /// (at most [`DaemonConfig::drain_cap`] beats, skipping apps deep in a
    /// silent streak) and steps its controller through the batched
    /// decision kernel. Returns the total beats processed. Steady-state
    /// allocation-free: the scratch buffers and every runtime's planning
    /// buffer are reused in place.
    pub fn run_quantum(&mut self) -> u64 {
        self.sweep(|control, _, samples, lat_scratch| {
            control.process_drained_batched(samples, lat_scratch)
        })
    }

    /// The per-beat reference path: the same sweep as
    /// [`DaemonShard::run_quantum`] — identical drains (idle-skip, drain
    /// cap), containment and publication — but every beat steps the
    /// runtime individually and `on_decision` sees every per-beat
    /// decision (tests and diagnostics; the callback runs on the shard's
    /// thread). The batched kernel is property-tested against this path.
    pub fn run_quantum_with(
        &mut self,
        on_decision: &mut impl FnMut(AppId, IndexedDecision),
    ) -> u64 {
        self.sweep(|control, id, samples, _| control.process_drained(id, samples, on_decision))
    }

    /// The one sweep over the fleet, generic over the decision kernel
    /// `step` runs on each non-empty drain.
    ///
    /// **Fault containment.** The sweep runs under a `catch_unwind` guard
    /// — one guard per *sweep*, not per app, so at fleet scale the
    /// landing-pad setup amortizes to nothing and the only per-slot cost
    /// is keeping the sweep cursor current. A panic (or a poisoned
    /// latency stream overflowing the rate window) blames exactly one app
    /// — the cursor names the slot that was mid-step when the guard
    /// tripped — that app is [quarantined](DecisionView::quarantine_reason)
    /// and the sweep *resumes with its neighbor*, so every other app in
    /// the same quantum keeps being served; their decision sequences are
    /// bit-identical to a no-fault run, because the faulty slot's step
    /// shares no control state with its neighbors (the scratch buffers
    /// are refilled per slot).
    fn sweep(
        &mut self,
        mut step: impl FnMut(
            &mut ControlState,
            AppId,
            &[BeatSample],
            &mut Vec<powerdial_heartbeats::TimestampDelta>,
        ) -> Result<u64, WindowOverflow>,
    ) -> u64 {
        #[cfg(test)]
        if std::mem::take(&mut self.escape_armed) {
            self.in_flight = self.apps.first().map(|slot| slot.id.value());
            panic!("injected escaping panic (unit-test hook)");
        }
        let DaemonShard {
            apps,
            scratch,
            lat_scratch,
            idle_skip_limit,
            drain_cap,
            trace,
            safe_point,
            in_flight,
            ..
        } = self;
        let mut beats = 0u64;
        let mut peak = 0usize;
        let mut idx = 0usize;
        while idx < apps.len() {
            // Everything the guarded sweep mutates lives in plain memory
            // the outer frame still owns, so the values written before a
            // panic (processed counts, the cursor, `in_flight`) survive
            // the unwind and the culprit is `apps[idx]`.
            let guarded = catch_unwind(AssertUnwindSafe(|| {
                while idx < apps.len() {
                    let slot = &mut apps[idx];
                    if slot.quarantined.is_some() {
                        idx += 1;
                        continue;
                    }
                    // Idle-skip: an app `idle_skip_limit` empty drains
                    // deep is polled only when its countdown has run out
                    // (and is then re-armed). Pure slot-field arithmetic
                    // that cannot panic, so a parked fleet pays no blame
                    // bookkeeping at all.
                    if *idle_skip_limit > 0 && slot.silent_streak >= *idle_skip_limit {
                        if slot.skip_countdown > 0 {
                            slot.skip_countdown -= 1;
                            idx += 1;
                            continue;
                        }
                        slot.skip_countdown = *idle_skip_limit;
                    }
                    // From here a step can genuinely panic: record which
                    // slot, so an *escaped* panic (worker death) still
                    // blames the app mid-step. Cleared once per sweep —
                    // nothing between slots can trip the guard.
                    *in_flight = Some(slot.id.value());
                    if slot.panic_armed {
                        slot.panic_armed = false;
                        panic!("injected app panic (fault-injection hook)");
                    }
                    let drained = Self::drain_slot(slot, scratch, *drain_cap);
                    if drained > 0 {
                        if let Some(telemetry) = &slot.telemetry {
                            telemetry.prefetch();
                        }
                        match step(&mut slot.control, slot.id, scratch, lat_scratch) {
                            Ok(processed) => {
                                // Everything downstream of the kernel —
                                // the segment's decision block, the trace
                                // — serves the words *re-read* from the
                                // shared atomics `DecisionView` serves, so
                                // all three agree bit for bit by
                                // construction.
                                let decision = slot.control.shared.latest();
                                Self::publish_shm(slot, decision);
                                Self::record_telemetry(slot, scratch, trace, decision);
                                peak = peak.max(drained);
                                beats += processed;
                            }
                            Err(WindowOverflow) => {
                                Self::quarantine_slot(
                                    slot,
                                    *safe_point,
                                    trace,
                                    QuarantineReason::WindowOverflow,
                                );
                            }
                        }
                    }
                    idx += 1;
                }
                *in_flight = None;
            }));
            if guarded.is_err() {
                // The slot the cursor names panicked mid-step: contain
                // the blast there and resume the sweep with its neighbor.
                *in_flight = None;
                Self::quarantine_slot(&mut apps[idx], *safe_point, trace, QuarantineReason::Panic);
                idx += 1;
            }
        }
        self.maintain_scratch(peak);
        beats
    }

    /// Hot-path telemetry tail of a processed (non-empty) drain: fold
    /// each observed beat latency and the quantum's QoS loss into the
    /// slot's histograms, and append one decision-trace record. Histogram
    /// records and the ring push are allocation-free (the `no_alloc`
    /// suites run with telemetry enabled); a disabled slot costs one
    /// `None` check.
    #[inline]
    fn record_telemetry(
        slot: &mut AppSlot,
        samples: &[BeatSample],
        trace: &mut DecisionTraceRing,
        decision: ShmDecision,
    ) {
        let Some(telemetry) = slot.telemetry.as_deref_mut() else {
            return;
        };
        // First-beat zero latency is a convention, not an observation
        // (the same tag-0 rule the control window applies).
        telemetry.beat_latency_ns.record_all(
            samples
                .iter()
                .filter(|sample| sample.tag.value() != 0)
                .map(|sample| sample.latency.as_nanos()),
        );
        let qos_loss = decision.expected_qos_loss();
        let qos_ppm = if qos_loss.is_finite() && qos_loss > 0.0 {
            (qos_loss * QOS_PPM_SCALE) as u64
        } else {
            0
        };
        telemetry.qos_loss_ppm.record(qos_ppm);
        if let Some(last) = samples.last() {
            telemetry.last_beat = last.timestamp;
        }
        let reason = if telemetry.warm_start_pending {
            telemetry.warm_start_pending = false;
            TraceReason::WarmStart
        } else {
            TraceReason::Boundary
        };
        trace.push(trace_record(
            slot.id.value(),
            telemetry.last_beat,
            reason,
            decision,
        ));
    }

    /// Clones this shard's telemetry (per-app histograms + trace) for a
    /// snapshot. Cold path: runs between quanta, allocates freely, and
    /// never perturbs the histograms it copies.
    pub fn telemetry(&self) -> ShardTelemetry {
        ShardTelemetry {
            apps: self
                .apps
                .iter()
                .filter_map(|slot| {
                    let telemetry = slot.telemetry.as_deref()?;
                    Some(AppTelemetryReport {
                        app: slot.id,
                        beats: slot.control.shared.beats_processed.load(Ordering::Acquire),
                        beat_latency_ns: telemetry.beat_latency_ns.clone(),
                        qos_loss_ppm: telemetry.qos_loss_ppm.clone(),
                    })
                })
                .collect(),
            trace: self.trace.to_vec(),
        }
    }

    /// Re-publication of a processed quantum's decision through an shm
    /// app's segment (atomics only — the quantum loop stays
    /// allocation-free). No-op for in-heap channels.
    fn publish_shm(slot: &AppSlot, decision: ShmDecision) {
        let BeatSource::Shm(consumer) = &slot.consumer else {
            return;
        };
        consumer.publish_decision(decision);
        // Keep the segment's warm-start block current so a successor
        // daemon resumes from this actuation if we die after this store.
        // `publish_shm` only runs after a successfully processed batch,
        // so the window cannot be in overflow here; treat the impossible
        // case as "no rate yet".
        let rate = slot
            .control
            .window
            .rate()
            .ok()
            .flatten()
            .map(|r| r.beats_per_second())
            .unwrap_or(0.0);
        consumer.publish_warm_state(ShmWarmState {
            point_idx: decision.point_idx,
            speedup_bits: slot.control.runtime.controller().speedup().to_bits(),
            observed_rate_bits: rate.to_bits(),
            beat_in_quantum: u64::from(slot.control.runtime.beat_in_quantum()),
        });
    }

    /// The planned per-beat knob indices of `id`'s current quantum (empty
    /// before its first beat), for equivalence tests.
    pub fn planned_beat_indices(&self, id: AppId) -> Option<&[PointIdx]> {
        self.slot(id)
            .map(|slot| slot.control.runtime.planned_beat_indices())
    }

    /// Number of quanta `id`'s runtime has planned so far.
    pub fn quanta_planned(&self, id: AppId) -> Option<u64> {
        self.slot(id)
            .map(|slot| slot.control.runtime.quanta_planned())
    }
}

/// What the façade and one worker thread share: the hand-off block the
/// two synchronize through, and the shard whichever of them holds the
/// quantum runs it on.
struct WorkerShared {
    handoff: Handoff,
    /// The worker's shard. Its thread locks it for the length of a quantum
    /// it has claimed; the façade locks it for a quantum it runs itself
    /// and, between ticks, for every other operation
    /// ([`PowerDialDaemon::with_shard`]). After the thread dies
    /// [`PowerDialDaemon::respawn_dead`] takes the surviving apps' live
    /// state out of it.
    shard: Mutex<DaemonShard>,
}

/// One spawned worker, as the façade keeps it.
struct Worker {
    shared: Arc<WorkerShared>,
    thread: Option<JoinHandle<()>>,
    /// Set when the thread is found dead, or when a quantum the façade ran
    /// on its shard panicked. A dead worker is never ticked again; its
    /// apps stay parked on the dead shard until
    /// [`PowerDialDaemon::respawn_dead`] migrates them, and the rest of
    /// the daemon keeps going.
    dead: bool,
    /// Applications currently placed on this worker. Workers with zero
    /// apps are not ticked.
    apps: usize,
    /// The façade's half of the hand-off: where the current tick's
    /// quantum went, and when the sleeping thread is next worth waking.
    dispatcher: Dispatcher,
}

/// The sharded multi-application PowerDial daemon.
///
/// # Example
///
/// ```
/// use powerdial_control::{ControllerConfig, DaemonConfig, PowerDialDaemon, RuntimeConfig};
/// use powerdial_heartbeats::Timestamp;
/// use powerdial_knobs::{CalibrationPoint, KnobTable, ConfigParameter, ParameterSpace};
/// use powerdial_qos::{QosLoss, QosLossBound};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let space = ParameterSpace::builder()
/// #     .parameter(ConfigParameter::new("k", vec![0.0, 1.0], 0.0)?)
/// #     .build()?;
/// # let points = vec![
/// #     CalibrationPoint { setting_index: 0, setting: space.setting(0).unwrap(),
/// #                        speedup: 1.0, qos_loss: QosLoss::new(0.0) },
/// #     CalibrationPoint { setting_index: 1, setting: space.setting(1).unwrap(),
/// #                        speedup: 2.0, qos_loss: QosLoss::new(0.05) },
/// # ];
/// # let table = KnobTable::from_points(points, 0, QosLossBound::UNBOUNDED)?;
/// // Inline mode (workers: 0) keeps everything on this thread.
/// let mut daemon = PowerDialDaemon::new(DaemonConfig {
///     workers: 0,
///     ..DaemonConfig::default()
/// })?;
/// let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0)?);
/// let mut app = daemon.register(config, table)?;
///
/// // The application emits beats; the daemon controls once per quantum.
/// for beat in 0..40u64 {
///     app.beat(Timestamp::from_millis(beat * 50)).unwrap(); // 20 beats/s: too slow
///     if beat % 20 == 19 {
///         daemon.tick();
///     }
/// }
/// assert_eq!(app.beats_processed(), 40);
/// assert!(app.latest_gain().unwrap() >= 1.0);
/// # Ok(())
/// # }
/// ```
pub struct PowerDialDaemon {
    config: DaemonConfig,
    /// Threaded mode: one worker per shard.
    workers: Vec<Worker>,
    /// Inline mode (`workers: 0`): the single shard, ticked on the caller.
    inline_shard: DaemonShard,
    /// Where each app lives and (for shm apps) what is known of its
    /// producer.
    placements: HashMap<u64, Placement>,
    /// The producer processes of the shm apps, watched for exit, and the
    /// attach listener if one was handed over. Holds nothing (no epoll
    /// instance, no allocation) until an shm app's producer claim is first
    /// seen by [`PowerDialDaemon::reap_dead`] or
    /// [`PowerDialDaemon::watch_listener`] is called.
    watch: ProcessWatch,
    next_id: u64,
    next_worker: usize,
    total_beats: u64,
    ticks: u64,
    /// Which thread ran the workers' quanta, and what waking one cost.
    handoff: HandoffCounts,
    /// Worker threads found dead so far (lifetime count; monotonic).
    shard_deaths: u64,
    /// Dead workers respawned by [`PowerDialDaemon::respawn_dead`].
    shard_respawns: u64,
    /// Apps migrated off dead shards onto their replacements.
    apps_migrated: u64,
}

/// Facade-side record of one registered app: which shard owns it, plus —
/// for shm-backed apps — what the reaper knows of its producer, kept here
/// so liveness is judged without taking the owning shard's lock.
#[derive(Debug)]
struct Placement {
    /// Owning worker index (`None` = inline shard).
    worker: Option<usize>,
    /// Producer liveness of shm-backed apps; `None` for in-heap channels.
    liveness: Option<Liveness>,
    /// The app's shared decision state, mirrored here so the façade can
    /// observe quarantine without taking the owning shard's lock (the
    /// reaper and the incident counters both read it).
    shared: Arc<AppShared>,
}

/// What [`PowerDialDaemon::reap_dead`] knows about one shm app's producer.
#[derive(Debug)]
struct Liveness {
    probe: ShmPeerProbe,
    /// The producer claim `(pid, start nonce)` that `state` was settled
    /// for. A header that reads otherwise has been detached, re-claimed or
    /// scribbled on since, and `state` is settled again.
    claim: (u32, u64),
    state: ProducerWatch,
}

/// How the death of a claim's process will be (or was) learned.
#[derive(Debug, Clone, Copy)]
enum ProducerWatch {
    /// Nobody holds the producer role (PID 0): nothing can die.
    Unclaimed,
    /// The claimant is in the daemon's [`ProcessWatch`]; its exit arrives
    /// as an event.
    Watched(WatchId),
    /// The kernel refused a watch: the claim is probed through
    /// [`ShmPeerProbe::producer_state`] every reap, as all claims were
    /// before the watch existed.
    Polled,
    /// The claimant is dead. The app is reaped once its ring is drained
    /// (or forfeit); the claim changing is the only way back.
    Dying,
}

impl Liveness {
    /// Settles `state` for a claim just read from the header: gives back
    /// the watch on the previous claimant and asks for one on the new.
    /// Cold — it runs when a claim first appears, and again only after a
    /// detach, a re-claim or a scribble.
    #[cold]
    fn settle(&mut self, claim: (u32, u64), watch: &mut ProcessWatch) {
        if let ProducerWatch::Watched(watched) = self.state {
            watch.release(watched);
        }
        self.claim = claim;
        let (pid, nonce) = claim;
        self.state = if pid == 0 {
            ProducerWatch::Unclaimed
        } else {
            match watch.watch(pid, nonce) {
                Watched::Watching(watched) => ProducerWatch::Watched(watched),
                Watched::Dead => ProducerWatch::Dying,
                Watched::Unsupported => ProducerWatch::Polled,
            }
        };
    }
}

impl std::fmt::Debug for PowerDialDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PowerDialDaemon")
            .field("config", &self.config)
            .field("apps", &self.placements.len())
            .field("ticks", &self.ticks)
            .field("total_beats", &self.total_beats)
            .finish()
    }
}

impl PowerDialDaemon {
    /// Creates a daemon and spawns its worker threads (none in inline
    /// mode).
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ZeroChannelCapacity`] or
    /// [`ControlError::ZeroWindowSize`] for an invalid configuration.
    pub fn new(config: DaemonConfig) -> Result<Self, ControlError> {
        config.validate()?;
        let workers: Vec<Worker> = (0..config.workers)
            .map(|index| Self::spawn_worker(index, &config).expect("spawn daemon worker"))
            .collect();
        Ok(PowerDialDaemon {
            config,
            workers,
            inline_shard: DaemonShard::from_config(&config),
            placements: HashMap::new(),
            watch: ProcessWatch::new(),
            next_id: 0,
            next_worker: 0,
            total_beats: 0,
            ticks: 0,
            handoff: HandoffCounts::default(),
            shard_deaths: 0,
            shard_respawns: 0,
            apps_migrated: 0,
        })
    }

    /// Builds one worker: its shard and hand-off block (one allocation,
    /// shared with the thread) and the thread, which starts parked. Used
    /// both at construction and by [`PowerDialDaemon::respawn_dead`];
    /// spawn failure is fatal at construction but survivable during
    /// resurrection (the recovered apps fall back to the inline shard).
    fn spawn_worker(index: usize, config: &DaemonConfig) -> std::io::Result<Worker> {
        let shared = Arc::new(WorkerShared {
            handoff: Handoff::new(),
            shard: Mutex::new(DaemonShard::from_config(config)),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(format!("powerdial-shard-{index}"))
            .spawn(move || worker_main(&thread_shared))?;
        shared.handoff.set_worker(thread.thread().clone());
        Ok(Worker {
            shared,
            thread: Some(thread),
            dead: false,
            apps: 0,
            dispatcher: Dispatcher::new(),
        })
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// Registers an application: builds its SPSC channel and O(1) runtime,
    /// assigns it to a shard round-robin, and returns the application-side
    /// handle.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ZeroQuantum`] when the runtime configuration
    /// has a zero-heartbeat quantum.
    pub fn register(
        &mut self,
        config: RuntimeConfig,
        table: KnobTable,
    ) -> Result<AppHandle, ControlError> {
        let (producer, consumer) = beat_channel(self.config.channel_capacity);
        let (id, shared) = self.register_source(
            config,
            table,
            BeatSource::Channel(consumer),
            None,
            None,
            None,
        )?;
        Ok(AppHandle {
            view: DecisionView { id, shared },
            producer,
            next_tag: HeartbeatTag::default(),
            last_timestamp: None,
        })
    }

    /// Registers an application whose beats arrive from *another process*
    /// through a shared-memory segment: the daemon takes ownership of the
    /// attached [`ShmConsumer`] and drains it exactly like an in-heap
    /// channel — the control path downstream of the drain is identical.
    ///
    /// Returns a [`DecisionView`] (there is no producer half to hand back:
    /// the producing process attaches its own
    /// [`powerdial_heartbeats::shm::ShmProducer`] to the segment). The
    /// daemon keeps a probe of the segment, so
    /// [`PowerDialDaemon::reap_dead`] can detect and unregister apps whose
    /// producing process died.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ZeroQuantum`] when the runtime configuration
    /// has a zero-heartbeat quantum.
    pub fn register_shm(
        &mut self,
        config: RuntimeConfig,
        table: KnobTable,
        consumer: ShmConsumer,
    ) -> Result<DecisionView, ControlError> {
        let probe = consumer.probe();
        let (id, shared) = self.register_source(
            config,
            table,
            BeatSource::Shm(consumer),
            Some(probe),
            None,
            None,
        )?;
        Ok(DecisionView { id, shared })
    }

    /// Registers an application by *adopting* a shared-memory segment left
    /// behind by a crashed predecessor daemon (the segment arrives back over
    /// the broker's reattach hello; the consumer role was claimed via
    /// [`ShmConsumer::adopt`], stepping over the dead claimant).
    ///
    /// Recovery happens here, not in the transport layer, because only the
    /// daemon knows the knob table needed to validate and re-synthesize
    /// decisions:
    ///
    /// 1. **Warm start.** The segment's warm-start block (the predecessor's
    ///    last actuation: point index, controller speedup, observed rate,
    ///    beat-in-quantum) is read under its seqlock. A consistent block
    ///    whose point index is in range and whose speedup is finite
    ///    warm-starts this daemon's controller
    ///    ([`PowerDialRuntime::warm_start`]); a torn, empty, or implausible
    ///    block falls back to a cold controller — recovery never trusts
    ///    garbage into the control law.
    /// 2. **Torn-decision healing.** If the predecessor died *mid-publish*
    ///    of the decision block, the application is stuck reading
    ///    last-known-good forever. A warm point re-synthesizes the decision
    ///    from the table (gain = achieved = `speedup_of(point)`, QoS loss
    ///    from the table); with no warm state the block is reset to Empty so
    ///    the app degrades cleanly instead of spinning on a torn seqlock.
    /// 3. **Continuity.** A consistent published decision also seeds this
    ///    daemon's [`DecisionView`]/shared state, so in-process observers of
    ///    the successor see the predecessor's last decision immediately
    ///    instead of `None` until the first new quantum.
    ///
    /// Beats the application pushed across the outage are still in the ring
    /// (they live in the segment, not the dead process) and are drained on
    /// the first tick — nothing is lost beyond channel capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ZeroQuantum`] when the runtime configuration
    /// has a zero-heartbeat quantum.
    pub fn register_shm_adopted(
        &mut self,
        config: RuntimeConfig,
        table: KnobTable,
        consumer: ShmConsumer,
    ) -> Result<DecisionView, ControlError> {
        let probe = consumer.probe();
        let warm = match consumer.read_warm_state() {
            WarmRead::Ready(w)
                if (w.point_idx as usize) < table.len()
                    && f64::from_bits(w.speedup_bits).is_finite() =>
            {
                Some(w)
            }
            _ => None,
        };
        // Heal a decision block the predecessor tore mid-publish: re-publish
        // from warm state when we have it, otherwise reset to Empty so the
        // client's ladder degrades instead of retrying a torn read forever.
        if matches!(probe.read_decision(), DecisionRead::Torn) {
            match warm {
                Some(w) => {
                    consumer.publish_decision(table_decision(&table, PointIdx::new(w.point_idx)))
                }
                None => consumer.reset_decision(),
            }
        }
        let seed = match probe.read_decision() {
            DecisionRead::Ready(d) if (d.point_idx as usize) < table.len() => Some(d),
            _ => None,
        };
        let (id, shared) = self.register_source(
            config,
            table,
            BeatSource::Shm(consumer),
            Some(probe),
            warm,
            seed,
        )?;
        Ok(DecisionView { id, shared })
    }

    /// Shared registration path for both transports. `warm` restores the
    /// controller's integrator and primes the first quantum's observed rate
    /// (adoption path); `seed` pre-publishes a predecessor's decision into
    /// the shared state so observers see it before the first quantum.
    fn register_source(
        &mut self,
        config: RuntimeConfig,
        table: KnobTable,
        consumer: BeatSource,
        probe: Option<ShmPeerProbe>,
        warm: Option<ShmWarmState>,
        seed: Option<ShmDecision>,
    ) -> Result<(AppId, Arc<AppShared>), ControlError> {
        let mut runtime = PowerDialRuntime::new(config, table)?;
        let mut seed_rate = None;
        if let Some(w) = warm {
            // Speedup finiteness was validated by the adoption path; a
            // failure here (non-finite after a racing scribble) just means
            // a cold start.
            let _ = runtime.warm_start(f64::from_bits(w.speedup_bits));
            let rate = f64::from_bits(w.observed_rate_bits);
            if rate.is_finite() && rate > 0.0 {
                seed_rate = Some(rate);
            }
        }
        let shared = Arc::new(AppShared::default());
        if let Some(decision) = seed {
            shared.publish(decision);
        }
        let id = AppId(self.next_id);
        self.next_id += 1;
        let slot = AppSlot {
            id,
            consumer,
            control: ControlState {
                runtime,
                window: SlidingWindow::new(self.config.window_size),
                shared: Arc::clone(&shared),
                seed_rate,
            },
            // Fresh slots always start with cleared idle-skip bookkeeping
            // — in particular an *adopted* segment must not inherit a
            // predecessor's skip streak, or its backlog of outage beats
            // would wait out a countdown it never earned.
            silent_streak: 0,
            skip_countdown: 0,
            telemetry: self
                .config
                .telemetry
                .then(|| SlotTelemetry::new(warm.is_some())),
            quarantined: None,
            panic_armed: false,
        };
        let worker = self.pick_worker();
        self.with_shard(worker, |shard| shard.push_slot(slot));
        if let Some(index) = worker {
            self.workers[index].apps += 1;
        }
        self.placements.insert(
            id.0,
            Placement {
                worker,
                // Settled lazily, by the first reap that sees the claim:
                // registration makes no syscall on the producer's account.
                liveness: probe.map(|probe| Liveness {
                    probe,
                    claim: (0, 0),
                    state: ProducerWatch::Unclaimed,
                }),
                shared: Arc::clone(&shared),
            },
        );
        Ok((id, shared))
    }

    /// Records a worker-death transition exactly once (idempotent), so
    /// the incident counter matches the number of distinct shard deaths.
    fn mark_dead(&mut self, worker: usize) {
        if !self.workers[worker].dead {
            self.workers[worker].dead = true;
            self.shard_deaths += 1;
        }
    }

    /// Chooses the worker for a new app: `None` places it on the inline
    /// shard — always in inline mode, for the first
    /// [`DaemonConfig::inline_apps`] registrations in threaded mode, and
    /// whenever every worker is dead. Otherwise round-robin over live
    /// workers.
    fn pick_worker(&mut self) -> Option<usize> {
        if self.workers.is_empty() || self.inline_shard.len() < self.config.inline_apps {
            return None;
        }
        for _ in 0..self.workers.len() {
            let index = self.next_worker;
            self.next_worker = (self.next_worker + 1) % self.workers.len();
            if !self.workers[index].dead {
                return Some(index);
            }
        }
        None
    }

    /// Removes an application from its shard. Beats still in its channel
    /// are discarded; the application's handle keeps working but nothing
    /// drains its channel any more (pushes eventually see backpressure).
    /// For shm apps the consumer (and with it this process's mapping) is
    /// dropped. Works the same on a dead worker's shard (the slot is
    /// evicted and an shm segment reset at once, not at the next respawn).
    /// Returns `false` if `id` was never registered or already removed.
    pub fn unregister(&mut self, id: AppId) -> bool {
        let Some(placement) = self.placements.remove(&id.0) else {
            return false;
        };
        if let Some(Liveness {
            state: ProducerWatch::Watched(watched),
            ..
        }) = placement.liveness
        {
            self.watch.release(watched);
        }
        let removed = self.with_shard(placement.worker, |shard| shard.remove(id));
        if let (true, Some(worker)) = (removed, placement.worker) {
            self.workers[worker].apps -= 1;
        }
        removed
    }

    /// Hands the attach listener (an
    /// [`AttachBroker`](crate::broker::AttachBroker), or any listening
    /// socket) to the readiness set [`PowerDialDaemon::reap_dead`] polls
    /// once per call, so that the same `epoll_wait` that collects producer
    /// exits also says whether a client is connecting
    /// ([`PowerDialDaemon::listener_pending`]). The set watches a
    /// duplicate of the descriptor; a second call replaces the first.
    ///
    /// Returns whether the set took it. It does not where there is no
    /// epoll or no descriptor left at start-up; nothing else changes then,
    /// and [`PowerDialDaemon::listener_pending`] keeps answering "ask".
    #[cfg(unix)]
    pub fn watch_listener(&mut self, listener: &impl std::os::fd::AsFd) -> bool {
        self.watch.watch_listener(listener.as_fd())
    }

    /// Whether a serve loop should call
    /// [`AttachBroker::poll_accept`](crate::broker::AttachBroker::poll_accept)
    /// now: `false` only when a listener is watched
    /// ([`PowerDialDaemon::watch_listener`]) and the last
    /// [`PowerDialDaemon::reap_dead`] found no connection waiting on it.
    /// Before the first reap, and for a daemon whose set holds no
    /// listener, the answer is `true`. Readiness is level-triggered: one
    /// connection accepted from a backlog of two leaves this `true` after
    /// the next reap.
    pub fn listener_pending(&self) -> bool {
        self.watch.listener_pending()
    }

    /// Reaps abandoned shared-memory applications: every shm-registered
    /// app whose producing process has died **and** whose segment has been
    /// fully drained is unregistered, and the reaped ids are returned.
    ///
    /// Beats the producer managed to publish before dying survive in the
    /// segment, so the reap protocol is: [`PowerDialDaemon::tick`] first
    /// (collect the stragglers), then `reap_dead`. An app with a dead
    /// producer but pending beats is deliberately left for the next
    /// tick+reap round rather than losing its tail — but its idle-skip
    /// state is cleared here, so that next tick is guaranteed to drain
    /// it even if the slot was deep in a skip countdown (liveness is
    /// judged from the façade and is independent of skip state; without
    /// the wake, a SIGKILLed producer behind an idle-skipped segment
    /// would sit unreaped for up to `idle_skip_limit` extra quanta).
    ///
    /// Called every supervision cycle, so what it costs while nobody dies
    /// is the cost of the serve loop: one non-blocking `epoll_wait` for
    /// the whole fleet (none for a daemon with neither an shm app nor a
    /// watched listener) and two relaxed loads per shm app — see *The reap
    /// protocol* in the module docs. That `epoll_wait` is also where
    /// [`PowerDialDaemon::listener_pending`] gets its answer.
    /// That path and the one a death takes through it are allocation-free;
    /// only a call that actually reaps — rare by definition — pays for the
    /// list it returns.
    pub fn reap_dead(&mut self) -> Vec<AppId> {
        // Event: exits among the watched producers since the last call
        // (and, for `listener_pending`, whether a client is connecting).
        let deaths = self.watch.poll() > 0;
        let mut dead = Vec::new();
        for (id, placement) in &mut self.placements {
            let Some(liveness) = placement.liveness.as_mut() else {
                continue;
            };
            // Scan: is the claim still the one `state` was settled for?
            let claim = liveness.probe.producer_claim();
            if claim != liveness.claim {
                liveness.settle(claim, &mut self.watch);
            }
            // Liveness is judged from the façade, so a slot deep in an
            // idle-skip streak is judged exactly like any other —
            // skipping a poll must never postpone noticing a death.
            let dying = match liveness.state {
                ProducerWatch::Unclaimed => false,
                // A process may feed many segments: its one exit event
                // reaches every app that watched it.
                ProducerWatch::Watched(watched) => {
                    let died = deaths && self.watch.is_dead(watched);
                    if died {
                        self.watch.release(watched);
                        liveness.state = ProducerWatch::Dying;
                    }
                    died
                }
                ProducerWatch::Polled => liveness.probe.producer_state().is_dead(),
                ProducerWatch::Dying => true,
            };
            if !dying {
                continue;
            }
            // A quarantined app's ring is never drained again, so
            // waiting for `pending() == 0` would park the corpse
            // forever: its backlog is forfeit, reap immediately
            // (freeing the slot — and the segment — for reuse).
            if liveness.probe.pending() == 0 || placement.shared.quarantine_reason().is_some() {
                dead.push(AppId(*id));
            } else {
                // The producer died with beats still in the ring.
                // Clear the slot's skip countdown so the *next*
                // tick drains the stragglers and the reap after
                // it collects the corpse — instead of idling out
                // up to `idle_skip_limit` quanta first.
                Self::shard_in(
                    &mut self.inline_shard,
                    &self.workers,
                    placement.worker,
                    |shard| shard.wake(AppId(*id)),
                );
            }
        }
        for id in &dead {
            self.unregister(*id);
        }
        dead
    }

    /// Runs one actuation quantum across every shard (in parallel in
    /// threaded mode) and returns the total beats processed. Blocks until
    /// every live shard has finished its quantum.
    ///
    /// Degraded, never panicking: a worker found dead (its thread
    /// panicked) is skipped from then on and its beats are simply absent
    /// from the count — the other shards keep being served. Use
    /// [`PowerDialDaemon::try_tick`] to observe a death when it happens.
    pub fn tick(&mut self) -> u64 {
        self.tick_impl().0
    }

    /// [`PowerDialDaemon::tick`] that surfaces a worker death: returns
    /// [`ControlError::ShardDead`] (naming the first dead shard) on the
    /// tick that *detects* the death, after still collecting every live
    /// shard's quantum. Subsequent ticks skip the dead shard silently and
    /// return `Ok` again, so a supervision loop can log the event once and
    /// keep serving the surviving shards.
    ///
    /// # Errors
    ///
    /// [`ControlError::ShardDead`] when a worker thread was newly found
    /// dead during this tick.
    pub fn try_tick(&mut self) -> Result<u64, ControlError> {
        match self.tick_impl() {
            (_, Some(shard)) => Err(ControlError::ShardDead { shard }),
            (beats, None) => Ok(beats),
        }
    }

    /// Shared tick body: offer each live, non-empty worker its quantum
    /// (taken at once by a thread that is spinning, so its shard runs
    /// concurrently with the inline one), run the inline shard, then bring
    /// every worker's quantum home — collected from the thread that took
    /// it, or run here, under the shard's uncontended lock, for a thread
    /// that is asleep (see *Threading model* in the module docs). Either
    /// way each shard has run exactly one `run_quantum` when this returns.
    /// The `catch_unwind` gives a panic that escapes the sweep the same
    /// blast radius here that it has on the thread: the shard dies (lock
    /// poisoned, `in_flight` naming the culprit, exactly what
    /// [`PowerDialDaemon::respawn_dead`] recovers), the caller does not.
    /// Returns the beats processed plus the first worker newly discovered
    /// dead, if any. Allocation-free, and without workers both loops are
    /// empty.
    fn tick_impl(&mut self) -> (u64, Option<usize>) {
        let mut newly_dead = None;
        for worker in &mut self.workers {
            if !worker.dead && worker.apps > 0 {
                worker.dispatcher.offer(&worker.shared.handoff);
            }
        }
        let mut beats = self.inline_shard.run_quantum();
        for index in 0..self.workers.len() {
            let worker = &mut self.workers[index];
            if worker.dead || worker.apps == 0 {
                continue;
            }
            let WorkerShared { handoff, shard } = &*worker.shared;
            let run_here = || {
                let quantum = || {
                    shard
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .run_quantum()
                };
                catch_unwind(AssertUnwindSafe(quantum)).ok()
            };
            match worker
                .dispatcher
                .finish(handoff, &mut self.handoff, run_here)
            {
                Some(shard_beats) => beats += shard_beats,
                None => {
                    self.mark_dead(index);
                    newly_dead.get_or_insert(index);
                }
            }
        }
        self.total_beats += beats;
        self.ticks += 1;
        (beats, newly_dead)
    }

    /// Number of applications currently registered.
    pub fn app_count(&self) -> usize {
        self.placements.len()
    }

    /// Total beats processed across all ticks.
    pub fn total_beats(&self) -> u64 {
        self.total_beats
    }

    /// Number of ticks (actuation quanta) run so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Collects a [`TelemetrySnapshot`] across every shard: per-app
    /// beat-latency and QoS-loss histograms, exact fleet-wide rollups,
    /// and the merged decision trace. Render it with
    /// [`TelemetrySnapshot::to_json`].
    ///
    /// Cold path by design: the walk runs between quanta (each worker's
    /// shard is read under its lock, the inline shard directly), clones
    /// histogram state rather than draining it, and is the one telemetry
    /// operation allowed to allocate. A dead worker's shard outlives its
    /// thread, so its apps stay in the snapshot until
    /// [`PowerDialDaemon::respawn_dead`] migrates them. With
    /// [`DaemonConfig::telemetry`] off the snapshot is empty (no apps, no
    /// trace).
    pub fn telemetry_snapshot(&mut self) -> TelemetrySnapshot {
        let mut shards = Vec::with_capacity(self.workers.len() + 1);
        shards.push(self.inline_shard.telemetry());
        for index in 0..self.workers.len() {
            if self.workers[index].apps > 0 {
                shards.push(self.with_shard(Some(index), |shard| shard.telemetry()));
            }
        }
        TelemetrySnapshot {
            liveness: self.liveness_counts(),
            handoff: self.handoff,
            ..TelemetrySnapshot::from_shards(
                self.ticks,
                self.total_beats,
                shards,
                self.incident_counts(),
            )
        }
    }

    /// Worker threads in use (0 = inline mode).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Worker threads still alive (dead = panicked mid-quantum). Equals
    /// [`PowerDialDaemon::workers`] until a shard dies.
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.dead).count()
    }

    /// Resurrects every dead worker: joins the corpse, recovers its shard
    /// post-mortem, blames (quarantines) the app whose step was in flight
    /// when the thread died, and migrates the surviving apps — *live*
    /// control state, not a warm-start rebuild — onto a freshly spawned
    /// thread at the same worker index, so every placement stays valid.
    /// Returns the number of shards respawned.
    ///
    /// Call it from the supervision loop next to
    /// [`PowerDialDaemon::reap_dead`]; a fleet then resumes full service
    /// within one supervision cycle of a shard death, losing nothing
    /// beyond what died mid-quantum (beats still in the survivors'
    /// channels are drained by the next tick — they live in the channels,
    /// not the dead thread).
    ///
    /// If spawning the replacement thread fails, the recovered apps fall
    /// back onto the inline shard instead (service continuity over
    /// parallelism); the worker then stays dead.
    pub fn respawn_dead(&mut self) -> usize {
        let mut respawned = 0;
        for index in 0..self.workers.len() {
            if self.workers[index].dead {
                respawned += usize::from(self.respawn_worker(index));
            }
        }
        respawned
    }

    /// Resurrects one dead worker (see [`PowerDialDaemon::respawn_dead`]).
    /// Returns `true` when a replacement thread now serves the shard's
    /// surviving apps at the same index.
    fn respawn_worker(&mut self, index: usize) -> bool {
        // Join the corpse first (a thread whose shard died under the
        // façade was told to shut down and is on its way out); then take
        // the shard out from under the lock. Whoever ran the fatal quantum
        // panicked holding it, so the mutex is typically poisoned — the
        // state under it is exactly what that quantum last saw, and
        // recovery wants it.
        if let Some(thread) = self.workers[index].thread.take() {
            let _ = thread.join();
        }
        let mut shard = self.with_shard(Some(index), std::mem::take);
        shard.blame_in_flight();
        // Incident trace: the death, the respawn, and one record per
        // migrated app (records materialize when the shard is recovered).
        let incident = |reason: TraceReason, app: u64| {
            trace_record(app, Timestamp::from_nanos(0), reason, NO_DECISION)
        };
        shard
            .trace
            .push(incident(TraceReason::ShardDead, index as u64));
        let survivors = shard.apps.len() as u64;
        match Self::spawn_worker(index, &self.config) {
            Ok(replacement) => {
                shard
                    .trace
                    .push(incident(TraceReason::ShardRespawned, index as u64));
                {
                    let DaemonShard { apps, trace, .. } = &mut shard;
                    for slot in apps.iter() {
                        trace.push(incident(TraceReason::Migrated, slot.id.value()));
                    }
                }
                self.workers[index] = replacement;
                // Move the recovered shard — apps, trace, scratch — into
                // the replacement wholesale: migration preserves live
                // controller state bit-for-bit, which is strictly stronger
                // than the warm-start block a cross-process successor
                // would rebuild from.
                self.with_shard(Some(index), |fresh| *fresh = shard);
                self.workers[index].apps = survivors as usize;
                self.shard_respawns += 1;
                self.apps_migrated += survivors;
                true
            }
            Err(_) => {
                // No replacement thread: fall back to the inline shard so
                // the survivors keep being served, just not in parallel.
                for record in shard.trace.iter() {
                    self.inline_shard.trace.push(*record);
                }
                for slot in shard.apps.drain(..) {
                    if let Some(placement) = self.placements.get_mut(&slot.id.value()) {
                        placement.worker = None;
                    }
                    self.inline_shard
                        .trace
                        .push(incident(TraceReason::Migrated, slot.id.value()));
                    self.inline_shard.push_slot(slot);
                }
                self.workers[index].apps = 0;
                self.apps_migrated += survivors;
                false
            }
        }
    }

    /// Fault-injection hook (test-only by convention): arms `id` so its
    /// next processing step panics *inside* the per-app containment
    /// guard. Returns `false` for an unknown app.
    pub fn inject_app_panic(&mut self, id: AppId) -> bool {
        match self.placements.get(&id.0).map(|placement| placement.worker) {
            None => false,
            Some(worker) => self.with_shard(worker, |shard| shard.arm_panic(id)),
        }
    }

    /// Fault-injection hook (test-only by convention): kills worker
    /// `worker`'s thread with a panic that escapes containment — the
    /// thread dies holding its shard lock, the worst case resurrection
    /// must handle. Returns `true` once the worker is observed dead.
    pub fn inject_worker_panic(&mut self, worker: usize) -> bool {
        if worker >= self.workers.len() || self.workers[worker].dead {
            return false;
        }
        // Delivered in whatever state the thread is (a sleeping one is
        // woken for it); `false` means it had already died unseen.
        let handoff = &self.workers[worker].shared.handoff;
        if handoff.deliver(Command::Crash) {
            handoff.await_dead();
        }
        self.mark_dead(worker);
        true
    }

    /// Quarantine state of `id` as the façade observes it (through the
    /// app's shared decision atomics — no round-trip to the owning
    /// worker). `None` while healthy or for an unknown id.
    pub fn quarantine_reason(&self, id: AppId) -> Option<QuarantineReason> {
        self.placements
            .get(&id.0)
            .and_then(|placement| placement.shared.quarantine_reason())
    }

    /// Number of currently quarantined (parked but not yet evicted) apps.
    pub fn quarantined_apps(&self) -> usize {
        self.placements
            .values()
            .filter(|placement| placement.shared.quarantine_reason().is_some())
            .count()
    }

    /// Worker-thread deaths observed so far (lifetime count).
    pub fn shard_deaths(&self) -> u64 {
        self.shard_deaths
    }

    /// Dead workers successfully resurrected by
    /// [`PowerDialDaemon::respawn_dead`].
    pub fn shard_respawns(&self) -> u64 {
        self.shard_respawns
    }

    /// Apps migrated off dead shards (onto replacements or the inline
    /// shard).
    pub fn apps_migrated(&self) -> u64 {
        self.apps_migrated
    }

    /// The fault-containment incident counters, as embedded in
    /// [`PowerDialDaemon::telemetry_snapshot`]'s `incidents` section.
    pub fn incident_counts(&self) -> IncidentCounts {
        IncidentCounts {
            shard_deaths: self.shard_deaths,
            shard_respawns: self.shard_respawns,
            apps_migrated: self.apps_migrated,
            quarantined_apps: self.quarantined_apps() as u64,
        }
    }

    /// How producer deaths are being learned of, as embedded in
    /// [`PowerDialDaemon::telemetry_snapshot`]'s `liveness` section.
    pub fn liveness_counts(&self) -> LivenessCounts {
        let polled = self.placements.values().filter(|placement| {
            matches!(
                placement.liveness,
                Some(Liveness {
                    state: ProducerWatch::Polled,
                    ..
                })
            )
        });
        LivenessCounts {
            watched_processes: self.watch.watched_processes() as u64,
            polled_apps: polled.count() as u64,
            death_events: self.watch.death_events(),
        }
    }

    /// In inline mode (`workers: 0`), the daemon's single shard, for tests
    /// and diagnostics that need to observe per-beat decisions via
    /// [`DaemonShard::run_quantum_with`]. `None` in threaded mode.
    ///
    /// Quanta run directly on the shard bypass the daemon's
    /// [`PowerDialDaemon::total_beats`]/[`PowerDialDaemon::ticks`]
    /// bookkeeping.
    pub fn inline_shard_mut(&mut self) -> Option<&mut DaemonShard> {
        if self.workers.is_empty() {
            Some(&mut self.inline_shard)
        } else {
            None
        }
    }

    /// The one way into a shard outside a tick: runs `f` on the shard
    /// that owns placement `worker` — the inline shard directly, a
    /// worker's under its lock. The façade is `&mut self` and a tick
    /// brings every quantum home before returning, so the lock is never
    /// contended here; a dead worker's lock is poisoned (the fatal
    /// quantum panicked holding it) and is recovered, the state under it
    /// being what that quantum last saw (`in_flight` names the slot it
    /// died stepping, if any).
    fn with_shard<R>(&mut self, worker: Option<usize>, f: impl FnOnce(&mut DaemonShard) -> R) -> R {
        Self::shard_in(&mut self.inline_shard, &self.workers, worker, f)
    }

    /// [`PowerDialDaemon::with_shard`] over the two fields it needs, for
    /// a caller that holds a borrow of a third.
    fn shard_in<R>(
        inline_shard: &mut DaemonShard,
        workers: &[Worker],
        worker: Option<usize>,
        f: impl FnOnce(&mut DaemonShard) -> R,
    ) -> R {
        match worker {
            None => f(inline_shard),
            Some(index) => f(&mut workers[index]
                .shared
                .shard
                .lock()
                .unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

impl Drop for PowerDialDaemon {
    fn drop(&mut self) {
        // Tell every thread first, then join: the wake-ups overlap.
        for worker in &self.workers {
            worker.shared.handoff.deliver(Command::Shutdown);
        }
        for worker in &mut self.workers {
            if let Some(thread) = worker.thread.take() {
                let _ = thread.join();
            }
        }
    }
}

/// Worker thread body: serve the hand-off block — run a `Tick`'s quantum
/// under the shard lock (uncontended: the façade takes it only while the
/// block says this thread does not), letting go of it before the beat
/// count is published.
fn worker_main(shared: &WorkerShared) {
    shared.handoff.serve(|command| {
        // A poisoned mutex here would mean a previous quantum's panic
        // escaped on the façade — which retires the shard and shuts this
        // thread down, so it is unreachable; recovering the guard is the
        // conservative choice either way.
        let mut shard = shared.shard.lock().unwrap_or_else(PoisonError::into_inner);
        if command == Command::Crash {
            // Deliberately panics while *holding the lock*: the façade
            // must cope with a poisoned shard mutex, the worst case a
            // real escaped panic would leave behind.
            panic!("injected worker crash (fault-injection hook)");
        }
        shard.run_quantum()
    });
}

/// Where an [`IdleLadder`] currently sits: the escalation stage an idle
/// driver loop is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderRung {
    /// Busy-spin with [`std::hint::spin_loop`]: lowest wake latency, one
    /// core burned. The first rung after any work.
    Spin,
    /// Yield the core to the scheduler each iteration.
    Yield,
    /// Sleep in exponentially growing, bounded naps (up to
    /// [`IdleLadder::MAX_PARK`]): a persistently idle daemon stops burning
    /// a core, yet a waking fleet is never more than one nap away.
    Park,
}

/// The spin→yield→park escalation for driver loops that tick a daemon
/// continuously (the supervisor's serve loop, a dedicated daemon process).
///
/// Call [`IdleLadder::idle`] after an iteration that found no work — it
/// spins, yields, or naps according to the current rung and escalates.
/// Call [`IdleLadder::reset`] after an iteration that *did* work (beats
/// drained, an attach served) to drop back to spinning. The ladder is
/// pure policy over `std` primitives; it holds no handle to the daemon.
#[derive(Debug)]
pub struct IdleLadder {
    idle_streak: u32,
    park: std::time::Duration,
}

impl IdleLadder {
    /// Idle iterations spent spinning before the ladder yields.
    pub const SPIN_LIMIT: u32 = 64;
    /// Idle iterations spent yielding before the ladder parks.
    pub const YIELD_LIMIT: u32 = 64;
    /// First nap length once the ladder parks.
    pub const INITIAL_PARK: std::time::Duration = std::time::Duration::from_micros(50);
    /// Nap length cap: the worst-case extra latency a waking fleet sees.
    pub const MAX_PARK: std::time::Duration = std::time::Duration::from_millis(1);

    /// A ladder at its lowest rung (spinning).
    pub fn new() -> Self {
        IdleLadder {
            idle_streak: 0,
            park: IdleLadder::INITIAL_PARK,
        }
    }

    /// The rung the next [`IdleLadder::idle`] call will act on.
    pub fn rung(&self) -> LadderRung {
        if self.idle_streak < IdleLadder::SPIN_LIMIT {
            LadderRung::Spin
        } else if self.idle_streak < IdleLadder::SPIN_LIMIT + IdleLadder::YIELD_LIMIT {
            LadderRung::Yield
        } else {
            LadderRung::Park
        }
    }

    /// Records an idle iteration: spin, yield, or nap according to the
    /// current rung, escalate, and return the rung that was acted on.
    pub fn idle(&mut self) -> LadderRung {
        let rung = self.rung();
        match rung {
            LadderRung::Spin => std::hint::spin_loop(),
            LadderRung::Yield => std::thread::yield_now(),
            LadderRung::Park => {
                std::thread::sleep(self.park);
                self.park = (self.park * 2).min(IdleLadder::MAX_PARK);
            }
        }
        self.idle_streak = self.idle_streak.saturating_add(1);
        rung
    }

    /// Records a productive iteration: back to spinning, nap length reset.
    pub fn reset(&mut self) {
        self.idle_streak = 0;
        self.park = IdleLadder::INITIAL_PARK;
    }
}

impl Default for IdleLadder {
    fn default() -> Self {
        IdleLadder::new()
    }
}

pub mod naive {
    //! The serial, mutex-guarded multi-app baseline.
    //!
    //! What the daemon looked like before the lock-free rework: every
    //! application's beats go through a `Mutex<VecDeque>` channel
    //! ([`MutexChannel`]), and one thread drains and controls every
    //! application in sequence. Kept as the oracle of the equivalence
    //! tests and of `benchmark/`'s output checks (every in-process
    //! workload of `BENCHMARK.json` is replayed into it bit for bit) — the
    //! control code itself is *shared* with the lock-free shard, so any
    //! divergence between the two is a channel bug, not a control bug.

    use super::{AppId, AppShared, ControlState, DaemonConfig};
    use crate::error::ControlError;
    use crate::runtime::{PowerDialRuntime, RuntimeConfig};
    use powerdial_heartbeats::channel::BeatSample;
    use powerdial_heartbeats::naive::MutexChannel;
    use powerdial_heartbeats::{HeartbeatTag, SlidingWindow, Timestamp};
    use powerdial_knobs::KnobTable;
    use std::sync::Arc;

    /// The application-side handle of a [`SerialMutexDaemon`] registration:
    /// same surface as [`super::AppHandle`], but every beat takes the
    /// channel mutex.
    #[derive(Debug, Clone)]
    pub struct NaiveAppHandle {
        id: AppId,
        channel: MutexChannel<BeatSample>,
        shared: Arc<AppShared>,
        next_tag: HeartbeatTag,
        last_timestamp: Option<Timestamp>,
    }

    impl NaiveAppHandle {
        /// The application's daemon-assigned identifier.
        pub fn id(&self) -> AppId {
            self.id
        }

        /// Emits one heartbeat at `now` (locks the channel mutex).
        ///
        /// # Errors
        ///
        /// Returns the rejected record when the channel is full.
        pub fn beat(&mut self, now: Timestamp) -> Result<(), BeatSample> {
            let latency = match self.last_timestamp {
                Some(last) => now - last,
                None => powerdial_heartbeats::TimestampDelta::ZERO,
            };
            let sample = BeatSample {
                tag: self.next_tag,
                timestamp: now,
                latency,
            };
            self.next_tag = self.next_tag.next();
            self.last_timestamp = Some(now);
            self.channel.try_push(sample)
        }

        /// The latest decided knob gain, or `None` before the first
        /// decision.
        pub fn latest_gain(&self) -> Option<f64> {
            self.shared.latest_gain()
        }

        /// Total beats the daemon has processed for this application.
        pub fn beats_processed(&self) -> u64 {
            self.shared.beats_processed()
        }
    }

    /// One app of the serial daemon: mutex channel + the shared control
    /// state.
    struct NaiveSlot {
        id: AppId,
        channel: MutexChannel<BeatSample>,
        control: ControlState,
    }

    /// The pre-optimization multi-app runtime: mutex-guarded channels, one
    /// thread, apps drained and controlled strictly in sequence.
    pub struct SerialMutexDaemon {
        config: DaemonConfig,
        apps: Vec<NaiveSlot>,
        scratch: Vec<BeatSample>,
        next_id: u64,
        total_beats: u64,
    }

    impl SerialMutexDaemon {
        /// Creates a serial daemon (the `workers` field of the
        /// configuration is ignored — there is exactly one, the caller).
        ///
        /// # Errors
        ///
        /// Returns [`ControlError::ZeroChannelCapacity`] or
        /// [`ControlError::ZeroWindowSize`] for an invalid configuration.
        pub fn new(config: DaemonConfig) -> Result<Self, ControlError> {
            config.validate()?;
            Ok(SerialMutexDaemon {
                config,
                apps: Vec::new(),
                scratch: Vec::new(),
                next_id: 0,
                total_beats: 0,
            })
        }

        /// Registers an application, returning its mutex-channel handle.
        ///
        /// # Errors
        ///
        /// Returns [`ControlError::ZeroQuantum`] when the runtime
        /// configuration has a zero-heartbeat quantum.
        pub fn register(
            &mut self,
            config: RuntimeConfig,
            table: KnobTable,
        ) -> Result<NaiveAppHandle, ControlError> {
            let runtime = PowerDialRuntime::new(config, table)?;
            let channel = MutexChannel::new(self.config.channel_capacity);
            let shared = Arc::new(AppShared::default());
            let id = AppId(self.next_id);
            self.next_id += 1;
            self.apps.push(NaiveSlot {
                id,
                channel: channel.clone(),
                control: ControlState {
                    runtime,
                    window: SlidingWindow::new(self.config.window_size),
                    shared: Arc::clone(&shared),
                    seed_rate: None,
                },
            });
            Ok(NaiveAppHandle {
                id,
                channel,
                shared,
                next_tag: HeartbeatTag::default(),
                last_timestamp: None,
            })
        }

        /// Runs one actuation quantum over every app, serially, on the
        /// calling thread. Returns the total beats processed.
        ///
        /// # Panics
        ///
        /// On a poisoned latency stream whose summed nanoseconds overflow
        /// the rate window — the baseline has no quarantine machinery (the
        /// sharded daemon parks such an app instead).
        pub fn tick(&mut self) -> u64 {
            let mut beats = 0;
            for slot in &mut self.apps {
                slot.channel.drain_into(&mut self.scratch);
                beats += slot
                    .control
                    .process_drained(slot.id, &self.scratch, &mut |_, _| {})
                    .expect("window latency sum overflow in serial baseline");
            }
            self.total_beats += beats;
            beats
        }

        /// Number of applications registered.
        pub fn app_count(&self) -> usize {
            self.apps.len()
        }

        /// Total beats processed across all ticks.
        pub fn total_beats(&self) -> u64 {
            self.total_beats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerConfig;
    use crate::runtime::RuntimeConfig;
    use powerdial_knobs::{CalibrationPoint, ConfigParameter, ParameterSpace};
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

    fn inline_daemon() -> PowerDialDaemon {
        PowerDialDaemon::new(DaemonConfig {
            workers: 0,
            channel_capacity: 64,
            window_size: 20,
            inline_apps: 0,
            idle_skip_limit: 0,
            drain_cap: 0,
            telemetry: true,
            trace_capacity: DaemonConfig::DEFAULT_TRACE_CAPACITY,
            safe_point: 0,
        })
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(matches!(
            PowerDialDaemon::new(DaemonConfig {
                workers: 0,
                channel_capacity: 0,
                window_size: 20,
                inline_apps: 0,
                idle_skip_limit: 0,
                drain_cap: 0,
                telemetry: true,
                trace_capacity: DaemonConfig::DEFAULT_TRACE_CAPACITY,
                safe_point: 0,
            }),
            Err(ControlError::ZeroChannelCapacity)
        ));
        assert!(matches!(
            PowerDialDaemon::new(DaemonConfig {
                workers: 0,
                channel_capacity: 8,
                window_size: 0,
                inline_apps: 0,
                idle_skip_limit: 0,
                drain_cap: 0,
                telemetry: true,
                trace_capacity: DaemonConfig::DEFAULT_TRACE_CAPACITY,
                safe_point: 0,
            }),
            Err(ControlError::ZeroWindowSize)
        ));
        assert!(DaemonConfig::default().workers >= 1);
        assert_eq!(DaemonConfig::with_workers(3).workers, 3);
    }

    #[test]
    fn inline_daemon_controls_a_slow_app() {
        let mut daemon = inline_daemon();
        let mut app = daemon.register(runtime_config(), test_table()).unwrap();
        assert_eq!(daemon.app_count(), 1);
        assert!(app.latest_point().is_none());
        assert!(app.latest_gain().is_none());

        // 20 beats/s against a 30 beats/s target: the controller must ask
        // for speedup, so boosted settings appear.
        let mut now = Timestamp::ZERO;
        let mut boosted = false;
        for _ in 0..10 {
            for _ in 0..20 {
                now += powerdial_heartbeats::TimestampDelta::from_millis(50);
                app.beat(now).unwrap();
            }
            daemon.tick();
            if app.latest_gain().unwrap_or(1.0) > 1.0 {
                boosted = true;
            }
        }
        assert!(boosted, "slow app should receive a boosted setting");
        assert_eq!(app.beats_processed(), 200);
        assert_eq!(daemon.total_beats(), 200);
        assert_eq!(daemon.ticks(), 10);
        assert!(app.achieved_speedup().unwrap() >= 1.0);
        assert!(app.expected_qos_loss().unwrap() >= 0.0);
        assert_eq!(app.beats_rejected(), 0);
    }

    #[test]
    fn threaded_daemon_matches_inline_daemon() {
        // Same beat streams through a 2-worker daemon and the inline one:
        // per-app decision state must end identical (the shards run the
        // same code; only the thread that runs it differs).
        let mut threaded = PowerDialDaemon::new(DaemonConfig {
            workers: 2,
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
        let mut inline = inline_daemon();

        let mut threaded_apps: Vec<AppHandle> = (0..4)
            .map(|_| threaded.register(runtime_config(), test_table()).unwrap())
            .collect();
        let mut inline_apps: Vec<AppHandle> = (0..4)
            .map(|_| inline.register(runtime_config(), test_table()).unwrap())
            .collect();
        assert_eq!(threaded.workers(), 2);

        let mut now = Timestamp::ZERO;
        for _ in 0..8 {
            for _ in 0..20 {
                now += powerdial_heartbeats::TimestampDelta::from_millis(40);
                for (app_index, app) in threaded_apps.iter_mut().enumerate() {
                    // Distinct per-app latencies so apps genuinely differ.
                    let offset =
                        powerdial_heartbeats::TimestampDelta::from_millis(app_index as u64);
                    app.beat(now + offset).unwrap();
                }
                for (app_index, app) in inline_apps.iter_mut().enumerate() {
                    let offset =
                        powerdial_heartbeats::TimestampDelta::from_millis(app_index as u64);
                    app.beat(now + offset).unwrap();
                }
            }
            let a = threaded.tick();
            let b = inline.tick();
            assert_eq!(a, b);
        }
        for (threaded_app, inline_app) in threaded_apps.iter().zip(&inline_apps) {
            assert_eq!(threaded_app.beats_processed(), inline_app.beats_processed());
            assert_eq!(threaded_app.latest_point(), inline_app.latest_point());
            assert_eq!(
                threaded_app.latest_gain().unwrap().to_bits(),
                inline_app.latest_gain().unwrap().to_bits()
            );
            assert_eq!(
                threaded_app.achieved_speedup().unwrap().to_bits(),
                inline_app.achieved_speedup().unwrap().to_bits()
            );
        }
    }

    #[test]
    fn unregister_inline_and_threaded() {
        for workers in [0usize, 2] {
            let mut daemon = PowerDialDaemon::new(DaemonConfig {
                workers,
                channel_capacity: 16,
                window_size: 4,
                inline_apps: 0,
                idle_skip_limit: 0,
                drain_cap: 0,
                telemetry: true,
                trace_capacity: DaemonConfig::DEFAULT_TRACE_CAPACITY,
                safe_point: 0,
            })
            .unwrap();
            let mut a = daemon.register(runtime_config(), test_table()).unwrap();
            let b = daemon.register(runtime_config(), test_table()).unwrap();
            assert_eq!(daemon.app_count(), 2);

            assert!(daemon.unregister(b.id()));
            assert!(!daemon.unregister(b.id()), "double unregister");
            assert_eq!(daemon.app_count(), 1);

            // The remaining app still gets controlled.
            let mut now = Timestamp::ZERO;
            for _ in 0..8 {
                now += powerdial_heartbeats::TimestampDelta::from_millis(10);
                a.beat(now).unwrap();
            }
            assert_eq!(daemon.tick(), 8);
            assert_eq!(a.beats_processed(), 8);
        }
    }

    #[test]
    fn serial_mutex_daemon_matches_lock_free_daemon() {
        // Identical beat streams, identical decisions: the mutex baseline
        // shares the control code, so the only difference is the channel.
        let mut lock_free = inline_daemon();
        let mut serial = naive::SerialMutexDaemon::new(DaemonConfig {
            workers: 0,
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

        let mut fast_app = lock_free.register(runtime_config(), test_table()).unwrap();
        let mut slow_app = serial.register(runtime_config(), test_table()).unwrap();

        let mut now = Timestamp::ZERO;
        for quantum in 0..12 {
            let period_ms = 20 + (quantum % 5) * 10;
            for _ in 0..20 {
                now += powerdial_heartbeats::TimestampDelta::from_millis(period_ms);
                fast_app.beat(now).unwrap();
                slow_app.beat(now).unwrap();
            }
            assert_eq!(lock_free.tick(), serial.tick());
            assert_eq!(
                fast_app.latest_gain().unwrap().to_bits(),
                slow_app.latest_gain().unwrap().to_bits(),
                "decision diverged at quantum {quantum}"
            );
        }
        assert_eq!(fast_app.beats_processed(), slow_app.beats_processed());
        assert_eq!(serial.app_count(), 1);
        assert_eq!(serial.total_beats(), 240);
    }

    #[test]
    fn shm_backed_app_is_controlled_like_a_channel_app() {
        use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};

        let segment =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
        let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

        let mut daemon = inline_daemon();
        let view = daemon
            .register_shm(runtime_config(), test_table(), consumer)
            .unwrap();
        assert_eq!(daemon.app_count(), 1);
        assert!(view.latest_point().is_none());

        // 20 beats/s against a 30 beats/s target, through shared memory.
        let mut now = Timestamp::ZERO;
        let mut tag = HeartbeatTag::default();
        let mut boosted = false;
        for _ in 0..10 {
            for _ in 0..20 {
                let last = now;
                now += powerdial_heartbeats::TimestampDelta::from_millis(50);
                producer
                    .try_push(BeatSample {
                        tag,
                        timestamp: now,
                        latency: if tag.value() == 0 {
                            powerdial_heartbeats::TimestampDelta::ZERO
                        } else {
                            now - last
                        },
                    })
                    .unwrap();
                tag = tag.next();
            }
            daemon.tick();
            if view.latest_gain().unwrap_or(1.0) > 1.0 {
                boosted = true;
            }
        }
        assert!(boosted, "slow shm app should receive a boosted setting");
        assert_eq!(view.beats_processed(), 200);
        assert!(view.achieved_speedup().unwrap() >= 1.0);
        assert!(view.expected_qos_loss().unwrap() >= 0.0);
    }

    #[test]
    fn reap_dead_collects_abandoned_shm_apps() {
        use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
        use std::sync::atomic::Ordering;

        let segment =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap());
        let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

        let mut daemon = inline_daemon();
        let view = daemon
            .register_shm(runtime_config(), test_table(), consumer)
            .unwrap();
        // Channel-backed apps are never reaped.
        let _channel_app = daemon.register(runtime_config(), test_table()).unwrap();
        assert_eq!(daemon.app_count(), 2);

        // Producer alive: nothing to reap.
        assert!(daemon.reap_dead().is_empty());

        // Publish two beats, then simulate the producing process dying by
        // replacing its PID with one that cannot exist.
        for tag in 0..2u64 {
            producer
                .try_push(BeatSample {
                    tag: HeartbeatTag(tag),
                    timestamp: Timestamp::from_millis(tag * 40),
                    latency: powerdial_heartbeats::TimestampDelta::from_millis(40 * tag.min(1)),
                })
                .unwrap();
        }
        segment
            .header()
            .producer_pid
            .store(0x7FFF_FF00, Ordering::Release);

        // Dead producer but undrained beats: the tail is not abandoned.
        assert!(daemon.reap_dead().is_empty());
        assert_eq!(daemon.tick(), 2, "stragglers survive the producer");
        assert_eq!(view.beats_processed(), 2);

        // Drained and dead: reaped.
        assert_eq!(daemon.reap_dead(), vec![view.id()]);
        assert_eq!(daemon.app_count(), 1);
        assert!(daemon.reap_dead().is_empty(), "reap is idempotent");
    }

    /// Regression: idle-skip used to starve death detection. A producer
    /// SIGKILLed while its slot was deep in a skip countdown left its
    /// final beats undrained for up to `idle_skip_limit` further quanta
    /// (the skipped drains never touched the transport), postponing the
    /// reap by the same amount. `reap_dead` now probes liveness
    /// independently of skip state and wakes the slot, so the next
    /// tick+reap round collects the corpse.
    #[test]
    fn killed_producer_behind_idle_skipped_slot_is_reaped_promptly() {
        use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
        use std::sync::atomic::Ordering;

        let limit = 8u32;
        let mut daemon = PowerDialDaemon::new(DaemonConfig {
            workers: 0,
            channel_capacity: 64,
            window_size: 20,
            inline_apps: 0,
            idle_skip_limit: limit,
            drain_cap: 0,
            telemetry: true,
            trace_capacity: DaemonConfig::DEFAULT_TRACE_CAPACITY,
            safe_point: 0,
        })
        .unwrap();

        let segment =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap());
        let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let view = daemon
            .register_shm(runtime_config(), test_table(), consumer)
            .unwrap();

        // Idle the app until its slot is mid skip-countdown: `limit` empty
        // polls build the streak, one more arms the countdown, one more
        // starts consuming it.
        for _ in 0..limit + 2 {
            assert_eq!(daemon.tick(), 0);
        }

        // The producer publishes two last beats and is SIGKILLed.
        for tag in 0..2u64 {
            producer
                .try_push(BeatSample {
                    tag: HeartbeatTag(tag),
                    timestamp: Timestamp::from_millis(tag * 40),
                    latency: powerdial_heartbeats::TimestampDelta::from_millis(40 * tag.min(1)),
                })
                .unwrap();
        }
        segment
            .header()
            .producer_pid
            .store(0x7FFF_FF00, Ordering::Release);

        // The reaper sees the death through the skip state. No reap yet —
        // the tail is pending — but the slot is woken.
        assert!(daemon.reap_dead().is_empty());
        // The very next tick drains the stragglers despite the countdown
        // (pre-fix: up to `limit` zero-beat quanta first)...
        assert_eq!(daemon.tick(), 2, "wake must defeat the skip countdown");
        assert_eq!(view.beats_processed(), 2);
        // ...and the reap right after it collects the corpse.
        assert_eq!(daemon.reap_dead(), vec![view.id()]);
        assert_eq!(daemon.app_count(), 0);
    }

    #[test]
    fn backpressure_surfaces_on_full_channel() {
        let mut daemon = PowerDialDaemon::new(DaemonConfig {
            workers: 0,
            channel_capacity: 4,
            window_size: 4,
            inline_apps: 0,
            idle_skip_limit: 0,
            drain_cap: 0,
            telemetry: true,
            trace_capacity: DaemonConfig::DEFAULT_TRACE_CAPACITY,
            safe_point: 0,
        })
        .unwrap();
        let mut app = daemon.register(runtime_config(), test_table()).unwrap();
        let mut now = Timestamp::ZERO;
        let mut rejected = 0;
        for _ in 0..10 {
            now += powerdial_heartbeats::TimestampDelta::from_millis(10);
            if app.beat(now).is_err() {
                rejected += 1;
            }
        }
        assert_eq!(rejected, 6, "capacity-4 channel accepts 4 of 10 beats");
        assert_eq!(app.beats_rejected(), 6);
        assert_eq!(daemon.tick(), 4);
        // After a drain, pushes flow again.
        now += powerdial_heartbeats::TimestampDelta::from_millis(10);
        assert!(app.beat(now).is_ok());
    }

    /// Pushes one 20-beat quantum of 50 ms-spaced beats (20 beats/s against
    /// the 30 beats/s target) into an shm producer.
    fn push_slow_quantum(
        producer: &mut powerdial_heartbeats::shm::ShmProducer,
        now: &mut Timestamp,
        tag: &mut HeartbeatTag,
    ) {
        for _ in 0..20 {
            let last = *now;
            *now += powerdial_heartbeats::TimestampDelta::from_millis(50);
            producer
                .try_push(BeatSample {
                    tag: *tag,
                    timestamp: *now,
                    latency: if tag.value() == 0 {
                        powerdial_heartbeats::TimestampDelta::ZERO
                    } else {
                        *now - last
                    },
                })
                .unwrap();
            *tag = tag.next();
        }
    }

    #[test]
    fn adopted_daemon_resumes_predecessor_state_and_drains_outage_beats() {
        use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
        use std::sync::atomic::Ordering;

        let segment =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
        let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

        let mut daemon = inline_daemon();
        let view = daemon
            .register_shm(runtime_config(), test_table(), consumer)
            .unwrap();

        // Five quanta of slow beats: the predecessor daemon publishes
        // decisions and keeps the warm-start block current.
        let mut now = Timestamp::ZERO;
        let mut tag = HeartbeatTag::default();
        for _ in 0..5 {
            push_slow_quantum(&mut producer, &mut now, &mut tag);
            daemon.tick();
        }
        let last_point = view.latest_point().unwrap();
        let last_gain = view.latest_gain().unwrap();
        assert!(matches!(
            segment.header().read_warm_state(),
            WarmRead::Ready(_)
        ));

        // SIGKILL the predecessor: nothing is reset, the consumer claim
        // goes stale. (mem::forget models the kill — Drop never runs — and
        // the PID overwrite models the claimant process no longer existing.)
        std::mem::forget(daemon);
        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);

        // The application keeps beating across the outage; beats wait in
        // the ring (they live in the segment, not the dead process).
        push_slow_quantum(&mut producer, &mut now, &mut tag);

        // A successor daemon adopts the segment.
        let adopted = ShmConsumer::adopt(Arc::clone(&segment)).unwrap();
        let mut successor = inline_daemon();
        let view2 = successor
            .register_shm_adopted(runtime_config(), test_table(), adopted)
            .unwrap();

        // The predecessor's final decision is visible *before* the first
        // tick — observers never regress to "no decision yet".
        assert_eq!(view2.latest_point(), Some(last_point));
        assert_eq!(view2.latest_gain().unwrap().to_bits(), last_gain.to_bits());

        // The outage quantum drains in full on the first tick.
        assert_eq!(successor.tick(), 20);
        assert_eq!(view2.beats_processed(), 20);
        assert!(matches!(producer.read_decision(), DecisionRead::Ready(_)));
    }

    #[test]
    fn adopted_daemon_matches_uninterrupted_run_bit_for_bit() {
        use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
        use std::sync::atomic::Ordering;

        // Two identical slow-beat streams. Daemon A runs ten quanta
        // uninterrupted; daemon B is killed after five and a warm-started
        // successor finishes the rest. Warm start restores the integrator
        // bit-exactly and seeds the first quantum's observed rate from the
        // warm block, so the successor's decisions are bit-identical to the
        // uninterrupted run from the first post-crash quantum onward.
        let seg_a =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
        let seg_b =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
        let mut producer_a = ShmProducer::attach(Arc::clone(&seg_a)).unwrap();
        let mut producer_b = ShmProducer::attach(Arc::clone(&seg_b)).unwrap();
        let consumer_a = ShmConsumer::attach(Arc::clone(&seg_a)).unwrap();
        let consumer_b = ShmConsumer::attach(Arc::clone(&seg_b)).unwrap();

        let mut daemon_a = inline_daemon();
        let mut daemon_b = inline_daemon();
        let view_a = daemon_a
            .register_shm(runtime_config(), test_table(), consumer_a)
            .unwrap();
        let view_b = daemon_b
            .register_shm(runtime_config(), test_table(), consumer_b)
            .unwrap();

        let mut now_a = Timestamp::ZERO;
        let mut tag_a = HeartbeatTag::default();
        let mut now_b = Timestamp::ZERO;
        let mut tag_b = HeartbeatTag::default();
        for _ in 0..5 {
            push_slow_quantum(&mut producer_a, &mut now_a, &mut tag_a);
            push_slow_quantum(&mut producer_b, &mut now_b, &mut tag_b);
            daemon_a.tick();
            daemon_b.tick();
        }
        assert_eq!(
            view_a.latest_gain().unwrap().to_bits(),
            view_b.latest_gain().unwrap().to_bits()
        );

        // Kill daemon B; its app beats on through the outage.
        std::mem::forget(daemon_b);
        seg_b
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        push_slow_quantum(&mut producer_b, &mut now_b, &mut tag_b);

        let adopted = ShmConsumer::adopt(Arc::clone(&seg_b)).unwrap();
        let mut successor = inline_daemon();
        let view_b2 = successor
            .register_shm_adopted(runtime_config(), test_table(), adopted)
            .unwrap();

        for quantum in 5..10 {
            push_slow_quantum(&mut producer_a, &mut now_a, &mut tag_a);
            daemon_a.tick();
            if quantum > 5 {
                // Quantum 5's beats were already pushed during the outage.
                push_slow_quantum(&mut producer_b, &mut now_b, &mut tag_b);
            }
            successor.tick();
            assert_eq!(view_a.latest_point(), view_b2.latest_point());
            assert_eq!(
                view_a.latest_gain().unwrap().to_bits(),
                view_b2.latest_gain().unwrap().to_bits(),
                "gain diverged at quantum {quantum}"
            );
            assert_eq!(
                view_a.achieved_speedup().unwrap().to_bits(),
                view_b2.achieved_speedup().unwrap().to_bits(),
                "achieved speedup diverged at quantum {quantum}"
            );
        }
        assert_eq!(view_b2.beats_processed(), 100);
    }

    #[test]
    fn adoption_heals_torn_decision_block() {
        use powerdial_heartbeats::shm::{
            Segment, SegmentGeometry, ShmConsumer, ShmProducer, ShmWarmState,
        };
        use std::sync::atomic::Ordering;

        // Predecessor died mid-publish (odd decision seq) but its warm
        // block survived: adoption re-synthesizes the decision from the
        // knob table so the app is not stuck on a torn seqlock forever.
        let segment =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap());
        let producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        segment.header().publish_warm_state(ShmWarmState {
            point_idx: 2,
            speedup_bits: 4.0f64.to_bits(),
            observed_rate_bits: 20.0f64.to_bits(),
            beat_in_quantum: 0,
        });
        segment.header().decision.seq.store(3, Ordering::Release);
        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        assert!(matches!(producer.read_decision(), DecisionRead::Torn));

        let adopted = ShmConsumer::adopt(Arc::clone(&segment)).unwrap();
        let mut daemon = inline_daemon();
        let view = daemon
            .register_shm_adopted(runtime_config(), test_table(), adopted)
            .unwrap();
        match producer.read_decision() {
            DecisionRead::Ready(d) => {
                assert_eq!(d.point_idx, 2);
                assert_eq!(f64::from_bits(d.gain_bits), 4.0);
                assert_eq!(f64::from_bits(d.achieved_speedup_bits), 4.0);
                assert_eq!(f64::from_bits(d.qos_loss_bits), (4.0 - 1.0) * 0.02);
            }
            other => panic!("expected healed decision, got {other:?}"),
        }
        assert_eq!(view.latest_point(), Some(PointIdx::new(2)));
        assert_eq!(view.latest_gain(), Some(4.0));
        drop(daemon);

        // Torn decision and *no* warm state: the block is reset to Empty so
        // the application degrades per its ladder instead of spinning.
        let seg2 =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap());
        let producer2 = ShmProducer::attach(Arc::clone(&seg2)).unwrap();
        seg2.header().decision.seq.store(7, Ordering::Release);
        seg2.header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        assert!(matches!(producer2.read_decision(), DecisionRead::Torn));

        let adopted2 = ShmConsumer::adopt(Arc::clone(&seg2)).unwrap();
        let mut daemon2 = inline_daemon();
        let view2 = daemon2
            .register_shm_adopted(runtime_config(), test_table(), adopted2)
            .unwrap();
        assert!(matches!(producer2.read_decision(), DecisionRead::Empty));
        assert!(view2.latest_point().is_none());
    }

    #[test]
    fn reap_and_reregister_churn_resets_segment_state() {
        use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
        use std::sync::atomic::Ordering;

        // Repeated register → producer death → reap → re-register cycles on
        // one segment: every round must release the consumer claim and
        // reset both seqlock blocks, or state from a dead tenant leaks into
        // the next one.
        let segment =
            Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap());
        let mut daemon = inline_daemon();
        for round in 0..5u64 {
            let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
            let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
            let view = daemon
                .register_shm(runtime_config(), test_table(), consumer)
                .unwrap();
            assert_eq!(daemon.app_count(), 1, "round {round}");

            let base = Timestamp::from_millis(round * 10_000);
            for tag in 0..2u64 {
                producer
                    .try_push(BeatSample {
                        tag: HeartbeatTag(tag),
                        timestamp: base
                            + powerdial_heartbeats::TimestampDelta::from_millis(tag * 40),
                        latency: powerdial_heartbeats::TimestampDelta::from_millis(40 * tag.min(1)),
                    })
                    .unwrap();
            }
            assert_eq!(daemon.tick(), 2, "round {round}");
            assert!(matches!(
                segment.header().read_decision(),
                DecisionRead::Ready(_)
            ));
            assert!(matches!(
                segment.header().read_warm_state(),
                WarmRead::Ready(_)
            ));

            // The producing process dies; tick-then-reap collects the app.
            segment
                .header()
                .producer_pid
                .store(0x7FFF_FF00, Ordering::Release);
            assert_eq!(daemon.reap_dead(), vec![view.id()], "round {round}");
            assert_eq!(daemon.app_count(), 0);

            // Claims released and blocks reset for the segment's next tenant.
            assert_eq!(segment.header().consumer_pid.load(Ordering::Acquire), 0);
            assert!(matches!(
                segment.header().read_decision(),
                DecisionRead::Empty
            ));
            assert!(matches!(
                segment.header().read_warm_state(),
                WarmRead::Empty
            ));

            // Free the producer role for the next round (the dead-PID
            // sentinel was stored over this process's live claim, so Drop
            // must not run — it would CAS the wrong value).
            std::mem::forget(producer);
            segment.header().producer_pid.store(0, Ordering::Release);
            segment.header().producer_nonce.store(0, Ordering::Release);
        }
    }

    #[test]
    fn publication_counts_from_the_seed_and_skips_zero_on_the_wrap() {
        let decision = |point_idx: u32| ShmDecision {
            point_idx,
            gain_bits: 2.0f64.to_bits(),
            achieved_speedup_bits: 1.5f64.to_bits(),
            qos_loss_bits: 0.02f64.to_bits(),
        };
        let count = |shared: &AppShared| shared.decision.load(Ordering::Acquire) >> 32;

        // An adoption seed is just the first publication into a fresh
        // block: present at once, and the first live quantum counts on
        // from it.
        let shared = AppShared::default();
        assert_eq!(shared.latest_point(), None);
        assert_eq!(shared.latest(), NO_DECISION);
        shared.publish(decision(2));
        assert_eq!(count(&shared), 1);
        assert_eq!(shared.latest_point(), Some(PointIdx::new(2)));
        assert_eq!(shared.latest(), decision(2));
        shared.publish(decision(1));
        assert_eq!(count(&shared), 2);

        // Across the 2^32 wrap the count skips the masked value 0, which
        // would read as "no decision yet".
        shared
            .decision
            .store(0xFFFF_FFFE_u64 << 32 | 1, Ordering::Release);
        for (point, expected) in [(0, 0xFFFF_FFFF_u64), (2, 1), (1, 2)] {
            shared.publish(decision(point));
            assert_eq!(count(&shared), expected);
            assert_eq!(shared.latest_point(), Some(PointIdx::new(point)));
            assert_eq!(shared.latest_gain(), Some(2.0));
            assert_eq!(shared.latest(), decision(point));
        }
    }

    /// A daemon with one worker that owns every app, its twin without
    /// workers, and the same apps registered on both.
    fn worker_and_twin(
        apps: usize,
    ) -> (
        PowerDialDaemon,
        PowerDialDaemon,
        Vec<AppHandle>,
        Vec<AppHandle>,
    ) {
        let mut threaded = PowerDialDaemon::new(DaemonConfig {
            workers: 1,
            inline_apps: 0,
            ..*inline_daemon().config()
        })
        .unwrap();
        let mut twin = inline_daemon();
        let threaded_apps = (0..apps)
            .map(|_| threaded.register(runtime_config(), test_table()).unwrap())
            .collect();
        let twin_apps = (0..apps)
            .map(|_| twin.register(runtime_config(), test_table()).unwrap())
            .collect();
        (threaded, twin, threaded_apps, twin_apps)
    }

    /// One 20-beat quantum into every app of both fleets, then one tick of
    /// each daemon; the beats each tick reported.
    fn quantum_on_both(
        daemons: (&mut PowerDialDaemon, &mut PowerDialDaemon),
        fleets: (&mut [AppHandle], &mut [AppHandle]),
        now: &mut Timestamp,
    ) -> (u64, u64) {
        for _ in 0..20 {
            *now += powerdial_heartbeats::TimestampDelta::from_millis(40);
            for fleet in [&mut *fleets.0, &mut *fleets.1] {
                for (index, app) in fleet.iter_mut().enumerate() {
                    let offset = powerdial_heartbeats::TimestampDelta::from_millis(index as u64);
                    app.beat(*now + offset).unwrap();
                }
            }
        }
        (daemons.0.tick(), daemons.1.tick())
    }

    fn assert_same_decisions(threaded: &[AppHandle], twin: &[AppHandle]) {
        for (a, b) in threaded.iter().zip(twin) {
            assert_eq!(a.beats_processed(), b.beats_processed());
            assert_eq!(a.latest_point(), b.latest_point());
            assert_eq!(
                a.latest_gain().map(f64::to_bits),
                b.latest_gain().map(f64::to_bits)
            );
        }
    }

    #[test]
    fn a_crash_reaches_a_spinning_and_a_sleeping_worker_alike() {
        for asleep in [false, true] {
            let (mut threaded, mut twin, mut apps, mut twin_apps) = worker_and_twin(2);
            let mut now = Timestamp::ZERO;
            let mut quantum = |threaded: &mut PowerDialDaemon, twin: &mut PowerDialDaemon| {
                let beats =
                    quantum_on_both((threaded, twin), (&mut apps, &mut twin_apps), &mut now);
                assert_eq!(beats.0, beats.1);
            };
            if asleep {
                quantum(&mut threaded, &mut twin);
                // Far longer than the spin budget: the thread has parked,
                // and an empty tick neither assigns to it nor wakes it.
                std::thread::sleep(std::time::Duration::from_millis(20));
                let before = threaded.handoff;
                threaded.tick();
                twin.tick();
                assert_eq!(threaded.handoff.serial_ticks, before.serial_ticks + 1);
                assert_eq!(threaded.handoff.rearms, before.rearms);
            } else {
                // Back-to-back busy ticks get the thread spinning — where
                // the scheduler gives it a CPU of its own; elsewhere this
                // crashes a thread that is waking or asleep again.
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
                while threaded.handoff.hot_ticks < 3 && std::time::Instant::now() < deadline {
                    quantum(&mut threaded, &mut twin);
                }
            }

            assert!(threaded.inject_worker_panic(0));
            assert!(!threaded.inject_worker_panic(0), "already dead");
            assert!(threaded.workers[0].shared.shard.is_poisoned());
            assert_eq!((threaded.live_workers(), threaded.shard_deaths()), (0, 1));
            assert_eq!(threaded.respawn_dead(), 1);
            assert_eq!(threaded.apps_migrated(), 2);
            assert_eq!(threaded.quarantined_apps(), 0, "nobody was mid-step");
            for _ in 0..5 {
                quantum(&mut threaded, &mut twin);
            }
            assert_same_decisions(&apps, &twin_apps);
        }
    }

    #[test]
    fn a_panic_escaping_a_facade_run_quantum_kills_the_shard_not_the_caller() {
        let (mut threaded, mut twin, mut apps, mut twin_apps) = worker_and_twin(2);
        let mut now = Timestamp::ZERO;
        // A fresh worker thread sleeps, so this tick's quantum runs on the
        // façade — and panics outside the sweep's guard, mid-step on the
        // shard's first app.
        threaded.with_shard(Some(0), |shard| shard.escape_armed = true);
        for app in apps.iter_mut().chain(twin_apps.iter_mut()) {
            app.beat(now).unwrap();
        }
        assert!(matches!(
            threaded.try_tick(),
            Err(ControlError::ShardDead { shard: 0 })
        ));
        twin.tick();
        assert_eq!(threaded.handoff, HandoffCounts::default());
        assert!(threaded.workers[0].shared.shard.is_poisoned());
        assert_eq!((threaded.live_workers(), threaded.shard_deaths()), (0, 1));
        assert_eq!(threaded.try_tick().unwrap(), 0, "reported once");
        assert_eq!(threaded.shard_deaths(), 1);

        // Respawn joins the thread (told to shut down when its shard
        // died), blames the app that was mid-step and keeps the other,
        // whose undrained beat is still in its channel.
        assert_eq!(threaded.respawn_dead(), 1);
        assert_eq!(threaded.live_workers(), 1);
        assert_eq!(
            threaded.quarantine_reason(apps[0].id()),
            Some(QuarantineReason::Panic)
        );
        assert_eq!(threaded.quarantine_reason(apps[1].id()), None);
        assert_eq!(threaded.tick(), 1);
        for _ in 0..3 {
            let beats = quantum_on_both(
                (&mut threaded, &mut twin),
                (&mut apps[1..], &mut twin_apps[1..]),
                &mut now,
            );
            assert_eq!(beats, (20, 20));
        }
        assert_same_decisions(&apps[1..], &twin_apps[1..]);
    }
}
