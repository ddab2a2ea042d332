//! A fork-based daemon supervisor for crash-recovery tests and benches.
//!
//! Proving recovery needs a daemon that *really* dies: an in-process
//! "crash" cannot leave the segment in the state a SIGKILL leaves it in
//! (a dead PID stuck in the consumer slot, a possibly torn decision
//! block), because an in-process consumer's claim still names a live
//! process — which adoption rightly refuses. The [`Supervisor`] therefore
//! runs the whole daemon side — attach broker plus [`PowerDialDaemon`] —
//! in a **forked child process**, and exposes exactly the lifecycle a
//! chaos harness needs: [`start`](Supervisor::start),
//! [`kill`](Supervisor::kill) (SIGKILL, no warning, no cleanup), and
//! [`restart`](Supervisor::restart).
//!
//! The supervised daemon serves both attach flavors through its broker:
//! fresh hellos get a broker-created segment
//! ([`PowerDialDaemon::register_shm`]); reattach hellos from clients
//! orphaned by a previous incarnation get their surviving segment adopted
//! ([`PowerDialDaemon::register_shm_adopted`]) — stale consumer claim
//! stepped over, torn decision block healed, controller warm-started from
//! the segment's warm-state block. A successor incarnation rebinds the
//! same socket path; [`AttachBroker::bind`] already knows how to reclaim
//! the socket file a SIGKILLed predecessor left behind.
//!
//! This module is test/bench infrastructure, not deployment posture: a
//! production supervisor is the init system's job. It lives in the
//! library (not a test helper) so the chaos suite, the recovery bench,
//! and downstream experiments drive the *same* restart logic.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use powerdial_heartbeats::shm::process::{fork_child, ChildExit, ForkedChild};
use powerdial_heartbeats::shm::{jittered_backoff, ShmError};
use powerdial_knobs::KnobTable;

use crate::broker::{AttachBroker, AttachRequest, BrokerConfig, BrokerError};
use crate::daemon::{DaemonConfig, IdleLadder, PowerDialDaemon};
use crate::{ControllerConfig, RuntimeConfig};

/// Everything a daemon incarnation needs to serve: where to listen, how
/// to shard, and the control problem every attaching app gets.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Socket path each incarnation's broker binds (and rebinds).
    pub socket_path: PathBuf,
    /// Daemon sharding/channel configuration.
    pub daemon: DaemonConfig,
    /// Target heart rate handed to every registered app's controller.
    pub target_rate: f64,
    /// Baseline (uncontrolled) heart rate for the control law.
    pub baseline_rate: f64,
    /// Delay between the child's serve-loop iterations. Zero spins hot
    /// (lowest recovery latency, one core burned); a few tens of
    /// microseconds is plenty for tests. An iteration is a tick and a
    /// reap; it implies an `accept` only where the daemon's readiness set
    /// could not take the listener (see [`ServeLoop`]), so a waiting
    /// client is noticed by one iteration and served by the next, with no
    /// delay between the two.
    pub poll_interval: Duration,
    /// Base crash-loop backoff: [`restart`](Supervisor::restart) sleeps a
    /// deterministically jittered multiple of this before forking the
    /// successor, doubling per consecutive restart. [`Duration::ZERO`]
    /// disables the guard (chaos harnesses that restart on purpose want
    /// no artificial delay).
    pub restart_backoff: Duration,
    /// Rate cap for the crash-loop guard: the pre-jitter backoff never
    /// exceeds this, so a daemon stuck in a crash loop converges to at
    /// most one fork per `restart_backoff_cap` (plus jitter) instead of
    /// forking as fast as the kernel can reap.
    pub restart_backoff_cap: Duration,
}

/// Restarts a forked broker+daemon process across SIGKILLs.
///
/// Dropping a supervisor with a live child kills and reaps it.
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    table: KnobTable,
    child: Option<ForkedChild>,
    incarnations: u32,
    crash_streak: u32,
    last_exit: Option<ChildExit>,
}

impl Supervisor {
    /// A supervisor that will serve `table` to every attaching app. No
    /// child is started yet.
    pub fn new(config: SupervisorConfig, table: KnobTable) -> Self {
        Supervisor {
            config,
            table,
            child: None,
            incarnations: 0,
            crash_streak: 0,
            last_exit: None,
        }
    }

    /// Forks the next daemon incarnation and returns its PID.
    ///
    /// # Errors
    ///
    /// [`ShmError`] when the fork fails.
    ///
    /// # Panics
    ///
    /// Panics if an incarnation is already running — kill it first; the
    /// supervisor never races two children for one socket path.
    pub fn start(&mut self) -> Result<u32, ShmError> {
        assert!(
            self.child.is_none(),
            "an incarnation is already running; kill() it before start()"
        );
        let config = self.config.clone();
        let table = self.table.clone();
        let child = fork_child(move || daemon_process(&config, &table))?;
        let pid = child.pid();
        self.child = Some(child);
        self.incarnations += 1;
        Ok(pid)
    }

    /// SIGKILLs the running incarnation and reaps it — the crash under
    /// test: no signal handler runs, no destructor, no goodbye. The
    /// consumer claim and whatever half-written state the daemon held
    /// stay in every client's segment exactly as the kill left them.
    ///
    /// # Errors
    ///
    /// [`ShmError`] when the signal or the reaping wait fails.
    ///
    /// # Panics
    ///
    /// Panics if no incarnation is running.
    pub fn kill(&mut self) -> Result<ChildExit, ShmError> {
        let child = self.child.take().expect("no incarnation running");
        child.kill()?;
        let exit = child.wait()?;
        self.last_exit = Some(exit);
        Ok(exit)
    }

    /// [`kill`](Supervisor::kill) then [`start`](Supervisor::start):
    /// returns the successor's PID.
    ///
    /// Between the two halves the crash-loop guard runs: when
    /// [`SupervisorConfig::restart_backoff`] is non-zero, the supervisor
    /// sleeps a deterministically jittered backoff that doubles with each
    /// consecutive restart, capped at
    /// [`SupervisorConfig::restart_backoff_cap`]. The jitter is the
    /// client's ([`jittered_backoff`]: a splitmix64 mix over the process
    /// identity and the streak index), so the delay schedule is
    /// replayable yet two supervisors
    /// restarting off the same incident desynchronize. Call
    /// [`note_healthy`](Supervisor::note_healthy) after observing real
    /// service to reset the streak.
    ///
    /// # Errors
    ///
    /// [`ShmError`] from either half.
    pub fn restart(&mut self) -> Result<u32, ShmError> {
        self.kill()?;
        let delay = self.next_backoff();
        self.crash_streak = self.crash_streak.saturating_add(1);
        if delay > Duration::ZERO {
            std::thread::sleep(delay);
        }
        self.start()
    }

    /// The pre-sleep the *next* restart would impose: the base backoff
    /// doubled once per prior consecutive restart, capped, then jittered.
    /// Exposed so harnesses can assert the schedule without sleeping it.
    pub fn next_backoff(&self) -> Duration {
        let base = self.config.restart_backoff;
        if base == Duration::ZERO {
            return Duration::ZERO;
        }
        let factor = 1u32
            .checked_shl(self.crash_streak.min(16))
            .unwrap_or(u32::MAX);
        let capped = base
            .saturating_mul(factor)
            .min(self.config.restart_backoff_cap.max(base));
        jittered_backoff(capped, self.crash_streak)
    }

    /// Resets the crash-loop streak — call after the incarnation has
    /// demonstrably served (attached a client, ticked beats), so one
    /// later crash starts the backoff ladder from its base again.
    pub fn note_healthy(&mut self) {
        self.crash_streak = 0;
    }

    /// Consecutive restarts since the last
    /// [`note_healthy`](Supervisor::note_healthy) (or construction).
    pub fn crash_streak(&self) -> u32 {
        self.crash_streak
    }

    /// How the most recently reaped incarnation died, if any has been
    /// reaped: `Signaled(SIGKILL)` for supervisor-initiated kills,
    /// `Exited(code)` when the child beat the signal to the exit.
    pub fn last_exit_reason(&self) -> Option<ChildExit> {
        self.last_exit
    }

    /// PID of the running incarnation, if any.
    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(ForkedChild::pid)
    }

    /// How many incarnations have been started so far.
    pub fn incarnations(&self) -> u32 {
        self.incarnations
    }

    /// Kills and reaps the running incarnation if there is one; the
    /// orderly way to end a test. Errors are swallowed (the child may
    /// already be gone).
    pub fn shutdown(&mut self) {
        if let Some(child) = self.child.take() {
            let _ = child.kill();
            if let Ok(exit) = child.wait() {
                self.last_exit = Some(exit);
            }
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The child's entire life: bind, hand the listener to the daemon's
/// readiness set, and run [`ServeLoop::iterate`] forever — until SIGKILL
/// does it in. Exit codes are only ever observed when setup fails or the
/// listener breaks (the supervisor's caller sees them via
/// [`ChildExit::Exited`]).
fn daemon_process(config: &SupervisorConfig, table: &KnobTable) -> i32 {
    let Ok(broker) = AttachBroker::bind(BrokerConfig::new(&config.socket_path)) else {
        return 10;
    };
    let Ok(mut daemon) = PowerDialDaemon::new(config.daemon) else {
        return 11;
    };
    // Refused (no epoll on this platform, no descriptor to be had): the
    // loop observes that and asks `accept` itself every iteration.
    daemon.watch_listener(&broker);
    let mut serve = ServeLoop::new(config, table, broker, daemon);
    loop {
        if serve.iterate().is_err() {
            return 12;
        }
    }
}

/// A supervised daemon's serve loop, one iteration at a time: the body
/// of the forked child's `loop`, kept callable so that tests count and
/// measure the loop the child really runs.
///
/// An iteration serves at most one attach (fresh and reattach alike),
/// runs one actuation quantum, reaps, respawns, and then idles by
/// [`SupervisorConfig::poll_interval`] or — once 200 µs have passed
/// without work — the [`IdleLadder`].
///
/// **An iteration does not imply an `accept`.** The daemon's
/// [`reap_dead`](PowerDialDaemon::reap_dead) already makes one
/// `epoll_wait(0)` per iteration; when the broker's listener is in that
/// set ([`PowerDialDaemon::watch_listener`], which [`Supervisor`]'s child
/// calls before it builds the loop) the same call says whether a client
/// is connecting, and [`AttachBroker::poll_accept`] runs on the first
/// iteration and on iterations that follow such a report — once per
/// connection, not once per iteration. The iteration that makes the
/// report does not idle, so a client that wakes a napping daemon is
/// served after that one nap, not two. Readiness is level-triggered and
/// an iteration accepts one connection, so a burst is served one client
/// per iteration until the backlog is empty; a connection that is
/// reported but cannot be accepted (no descriptor left) is asked for
/// again every iteration while the ladder escalates as for any other
/// idle loop, which is what every iteration cost before.
///
/// Where the set holds no listener (it was refused at start-up, or never
/// offered) every iteration asks `accept` itself, as every iteration used
/// to; the loop reads which from [`PowerDialDaemon::listener_pending`]
/// and has no setting for it.
#[derive(Debug)]
pub struct ServeLoop<'a> {
    config: &'a SupervisorConfig,
    table: &'a KnobTable,
    broker: AttachBroker,
    daemon: PowerDialDaemon,
    ladder: IdleLadder,
    /// When the current run of workless iterations began; `None` while
    /// there is work.
    idle_since: Option<Instant>,
}

/// How long after its last work the loop stays hot before it lets the
/// [`IdleLadder`] count. The ladder escalates per *call* — 64 spins, 64
/// yields, then naps — which bought about this much hot waiting while
/// every iteration carried a 1.5 µs `accept`; an iteration of a small
/// fleet now takes a fifth of a microsecond, and counted from the first
/// workless one the loop would be napping within 50 µs. That is sooner
/// than a client's next move: one that lost the race against a fresh
/// daemon's `bind` retries ~150 µs later, found the daemon in a nap and
/// was served 100 µs late (a quarter of a one-client fleet's whole
/// set-up). The window restores what the count used to give, in the unit
/// it was always meant in.
const HOT_WINDOW: Duration = Duration::from_micros(200);

impl<'a> ServeLoop<'a> {
    /// A loop serving `broker`'s attaches into `daemon`, every app getting
    /// `table` and the control problem `config` names. Apps `daemon`
    /// already holds are served alongside.
    pub fn new(
        config: &'a SupervisorConfig,
        table: &'a KnobTable,
        broker: AttachBroker,
        daemon: PowerDialDaemon,
    ) -> Self {
        ServeLoop {
            config,
            table,
            broker,
            daemon,
            ladder: IdleLadder::new(),
            idle_since: None,
        }
    }

    /// One iteration; see the [type docs](ServeLoop). Allocation-free
    /// unless it serves an attach or reaps an app.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Listener`] when the listener itself is broken; the
    /// quantum of that iteration has not run.
    pub fn iterate(&mut self) -> Result<(), BrokerError> {
        let ServeLoop {
            config,
            table,
            broker,
            daemon,
            ladder,
            idle_since,
        } = self;
        let asked = daemon.listener_pending();
        let served = asked
            && broker
                .poll_accept(daemon.app_count(), |request| {
                    let runtime = RuntimeConfig::new(ControllerConfig::new(
                        config.target_rate,
                        config.baseline_rate,
                    )?);
                    match request {
                        AttachRequest::Fresh(consumer) => {
                            daemon.register_shm(runtime, table.clone(), consumer)
                        }
                        AttachRequest::Reattach(consumer) => {
                            daemon.register_shm_adopted(runtime, table.clone(), consumer)
                        }
                    }
                })?
                .is_some();
        let beats = daemon.tick();
        daemon.reap_dead();
        // Self-heal within the incarnation: a worker thread lost to a
        // contained-but-fatal fault is respawned at the same index with
        // its survivors migrated, so shard death never requires the
        // (much costlier) process-level restart above us.
        daemon.respawn_dead();
        if !asked && daemon.listener_pending() {
            // The reap has just found a client connecting, too late for
            // this iteration's `accept`: go straight round to serve it,
            // not through a nap. (Having asked and served nobody — the
            // client gave up, or there is no descriptor to accept it
            // with — is not this case: that idles, and escalates.)
            return Ok(());
        }
        if config.poll_interval > Duration::ZERO {
            std::thread::sleep(config.poll_interval);
        } else if served || beats > 0 {
            // Work arrived this iteration: stay hot for the next one.
            ladder.reset();
            *idle_since = None;
        } else if idle_since.get_or_insert_with(Instant::now).elapsed() < HOT_WINDOW {
            // Work was here a moment ago (or the loop has only just
            // started): more is likelier now than it will ever be.
            std::hint::spin_loop();
        } else {
            // Escalate spin → yield → park so an idle daemon stops
            // burning the core while staying quick to re-engage.
            ladder.idle();
        }
        Ok(())
    }

    /// The broker this loop accepts from.
    pub fn broker(&self) -> &AttachBroker {
        &self.broker
    }

    /// The daemon this loop ticks.
    pub fn daemon(&self) -> &PowerDialDaemon {
        &self.daemon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerdial_knobs::{CalibrationPoint, ConfigParameter, ParameterSpace};
    use powerdial_qos::{QosLoss, QosLossBound};

    fn test_table() -> KnobTable {
        let speedups = [1.0, 2.0];
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

    fn supervisor(base_ms: u64, cap_ms: u64) -> Supervisor {
        Supervisor::new(
            SupervisorConfig {
                socket_path: std::env::temp_dir().join("pd-supervisor-backoff-test.sock"),
                daemon: DaemonConfig {
                    workers: 0,
                    channel_capacity: 8,
                    window_size: 4,
                    inline_apps: 0,
                    telemetry: false,
                    ..DaemonConfig::default()
                },
                target_rate: 30.0,
                baseline_rate: 30.0,
                poll_interval: Duration::ZERO,
                restart_backoff: Duration::from_millis(base_ms),
                restart_backoff_cap: Duration::from_millis(cap_ms),
            },
            test_table(),
        )
    }

    /// `base + base/4` is the exact ceiling: permille tops out at 250.
    fn within_jitter(actual: Duration, base_ms: u64) -> bool {
        let base = Duration::from_millis(base_ms);
        actual >= base && actual <= base + base / 4
    }

    #[test]
    fn restart_backoff_doubles_then_caps() {
        let mut sup = supervisor(10, 40);
        assert!(within_jitter(sup.next_backoff(), 10));
        sup.crash_streak = 1;
        assert!(within_jitter(sup.next_backoff(), 20));
        sup.crash_streak = 2;
        assert!(within_jitter(sup.next_backoff(), 40));
        sup.crash_streak = 9;
        assert!(within_jitter(sup.next_backoff(), 40), "rate cap holds");
        sup.note_healthy();
        assert_eq!(sup.crash_streak(), 0);
        assert!(within_jitter(sup.next_backoff(), 10));
    }

    #[test]
    fn zero_base_disables_the_guard() {
        let mut sup = supervisor(0, 0);
        sup.crash_streak = 7;
        assert_eq!(sup.next_backoff(), Duration::ZERO);
        assert!(sup.last_exit_reason().is_none());
    }
}
