//! Deterministic chaos harness for daemon crash recovery.
//!
//! One driver thread owns N [`PowerDialClient`]s; the entire daemon side
//! — attach broker plus sharded daemon — runs in a forked child under a
//! [`Supervisor`]. The harness SIGKILLs the child at seeded-random points
//! in the beat stream, keeps the applications beating through the
//! outage, restarts the daemon, and measures how long each client takes
//! to read a *republished* decision through its (adopted, not replaced)
//! segment.
//!
//! Every run enforces the recovery invariants inline (panicking on
//! violation), so the same harness backs both the `chaos_recovery`
//! integration suite and the `chaos` benchmark binary:
//!
//! * **no false publishes** — while the daemon is dead, no client ever
//!   reads [`DecisionSource::Published`];
//! * **no torn reads** — every served decision decodes to a sane value
//!   (finite gain, in-range knob point), whatever rung it came from;
//! * **no beats lost beyond capacity** — the beat pacing keeps well under
//!   the ring capacity, so *zero* rejections are tolerated, and after
//!   each recovery every in-flight beat (including all beats emitted
//!   while the daemon was dead) drains to the successor;
//! * **bounded recovery** — every client must read a republished decision
//!   within [`ChaosConfig::recovery_deadline`] of the restart.
//!
//! Determinism note: kill points and outage lengths come from a seeded
//! splitmix64 stream, so a failing run names its seed and can be
//! replayed. Wall-clock interleavings (where exactly SIGKILL lands inside
//! the child's tick) still vary run to run — that nondeterminism is the
//! point of a chaos harness; the *workload schedule* is what the seed
//! pins down.

use std::time::{Duration, Instant};

use powerdial::control::daemon::DaemonConfig;
use powerdial::control::supervisor::{Supervisor, SupervisorConfig};
use powerdial::heartbeats::{Timestamp, TimestampDelta};
use powerdial_client::{ClientConfig, DecisionSource, PowerDialClient};

use crate::fleet::{synthetic_knob_table, TARGET_RATE_BPS};

/// Knob settings in the synthetic table every app is served.
const SETTINGS: usize = 8;

/// Simulated beat period: 50 ms (20 beats/s against a 30 beats/s target,
/// so the controller is always actively boosting).
const BEAT_PERIOD: TimestampDelta = TimestampDelta::from_millis(50);

/// Real-time pause between driver rounds. The driver must not hot-spin:
/// the daemon is a forked child sharing the machine, and a spinning
/// parent can starve it for a whole scheduler timeslice — long enough to
/// flood a 256-slot ring and report phantom "losses" that are really
/// driver-induced overrun. ~100 µs per round keeps a 256-slot ring tens
/// of milliseconds away from overrun even with the child descheduled.
const ROUND_PACE: Duration = Duration::from_micros(100);

/// A seeded splitmix64 stream: the harness's only randomness.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `[lo, hi]` (inclusive).
    pub fn in_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Shape of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Concurrent instrumented applications (one client + segment each).
    pub apps: usize,
    /// SIGKILL/restart cycles to run.
    pub kills: usize,
    /// Seed for the kill schedule.
    pub seed: u64,
    /// Ring capacity each client requests from the broker.
    pub capacity: u64,
    /// Hard bound on time-to-republished-decision per client per cycle.
    pub recovery_deadline: Duration,
}

impl ChaosConfig {
    /// A run of `kills` cycles over `apps` applications with the default
    /// seed, 256-record rings, and a 30 s recovery bound.
    pub fn new(apps: usize, kills: usize) -> Self {
        ChaosConfig {
            apps,
            kills,
            seed: 0xD1A1_0F0F_5EED_C0DE,
            capacity: 256,
            recovery_deadline: Duration::from_secs(30),
        }
    }
}

/// What one SIGKILL/restart cycle measured.
#[derive(Debug, Clone)]
pub struct KillStats {
    /// Beats each app emitted into the dead daemon's ring.
    pub outage_beats_per_app: u64,
    /// Restart-to-republished latency for every client (one sample per
    /// app, unordered).
    pub client_recovery: Vec<Duration>,
    /// Restart-to-republished latency of the slowest client.
    pub all_republished: Duration,
    /// Beats rejected by full rings during this cycle (an invariant
    /// violation unless capacity was genuinely exceeded; the harness's
    /// pacing keeps this at zero).
    pub beats_dropped: u64,
}

/// Aggregate outcome of a chaos run.
#[derive(Debug)]
pub struct ChaosReport {
    /// Per-cycle measurements, in order.
    pub kills: Vec<KillStats>,
    /// Total beats pushed by all clients over the whole run.
    pub beats_pushed: u64,
    /// Total beats rejected over the whole run (zero on a passing run).
    pub beats_dropped: u64,
    /// Daemon incarnations started (kills + 1 on a passing run).
    pub incarnations: u32,
}

/// Asserts a served decision is sane whatever rung it came from: a torn
/// read that leaked through the seqlock would show up here as a garbage
/// gain or an out-of-table knob point.
fn assert_decision_sane(current: &powerdial_client::CurrentDecision, context: &str) {
    assert!(
        current.decision.gain.is_finite()
            && current.decision.achieved_speedup.is_finite()
            && current.decision.expected_qos_loss.is_finite(),
        "{context}: non-finite decision {:?} — torn read leaked",
        current.decision
    );
    assert!(
        (current.decision.point_idx as usize) < SETTINGS,
        "{context}: knob point {} outside the {SETTINGS}-entry table",
        current.decision.point_idx
    );
}

/// Runs the full chaos schedule and returns its measurements, panicking
/// on any invariant violation (see the module docs for the list).
pub fn run(config: &ChaosConfig) -> ChaosReport {
    let socket_path = std::env::temp_dir().join(format!(
        "pd-chaos-{}-{:x}.sock",
        std::process::id(),
        config.seed
    ));
    let _ = std::fs::remove_file(&socket_path);
    let mut supervisor = Supervisor::new(
        SupervisorConfig {
            socket_path: socket_path.clone(),
            daemon: DaemonConfig {
                workers: 0,
                channel_capacity: config.capacity as usize,
                inline_apps: 0,
                // The defaults keep idle-skip off, as chaos needs: the
                // recovery-latency assertions demand every quantum polls
                // every channel.
                ..DaemonConfig::default()
            },
            target_rate: TARGET_RATE_BPS,
            baseline_rate: TARGET_RATE_BPS,
            poll_interval: Duration::from_micros(20),
            // Chaos restarts on purpose; the crash-loop guard would only
            // slow the schedule down.
            restart_backoff: Duration::ZERO,
            restart_backoff_cap: Duration::ZERO,
        },
        synthetic_knob_table(SETTINGS),
    );
    supervisor.start().expect("fork first daemon incarnation");

    let client_config = ClientConfig {
        capacity: config.capacity,
        attach_attempts: 20,
        retry_backoff: Duration::from_millis(2),
        grace: Duration::ZERO,
        ..ClientConfig::default()
    };
    let mut clients: Vec<PowerDialClient> = (0..config.apps)
        .map(|_| {
            PowerDialClient::register(&socket_path, client_config.clone())
                .expect("register with first incarnation")
        })
        .collect();

    let mut rng = SplitMix64::new(config.seed);
    let mut now = Timestamp::ZERO;
    let mut kills = Vec::with_capacity(config.kills);
    let mut dropped_so_far = 0u64;

    // Warm-up: beat until every client reads a published decision from
    // the first incarnation (the baseline state each cycle restores).
    let warm_deadline = Instant::now() + config.recovery_deadline;
    loop {
        for client in &mut clients {
            let _ = client.beat(now);
        }
        now += BEAT_PERIOD;
        let all_published = clients.iter_mut().all(|client| {
            let current = client.current_decision();
            assert_decision_sane(&current, "warm-up");
            current.source == DecisionSource::Published
        });
        if all_published {
            break;
        }
        assert!(
            Instant::now() < warm_deadline,
            "first incarnation never published to all {} apps",
            config.apps
        );
        std::thread::sleep(ROUND_PACE);
    }
    let warm_rejected: u64 = clients.iter().map(PowerDialClient::beats_rejected).sum();
    assert_eq!(warm_rejected, 0, "beats lost before the first kill");

    for cycle in 0..config.kills {
        // Run phase: a seeded stretch of healthy beating, so the kill
        // lands at a schedule point the seed controls (sometimes right
        // after a drain, sometimes deep into an undrained burst).
        let run_rounds = rng.in_range(3, 20);
        for _ in 0..run_rounds {
            for client in &mut clients {
                let _ = client.beat(now);
            }
            now += BEAT_PERIOD;
            std::thread::sleep(ROUND_PACE);
        }

        supervisor.kill().expect("SIGKILL daemon incarnation");

        // Outage phase: the apps keep beating into their rings; nobody is
        // draining. Every poll must degrade, never claim Published.
        let outage_rounds = rng.in_range(1, 10);
        for _ in 0..outage_rounds {
            for client in &mut clients {
                let _ = client.beat(now);
                let current = client.current_decision();
                assert_ne!(
                    current.source,
                    DecisionSource::Published,
                    "cycle {cycle}: published decision from a SIGKILLed daemon"
                );
                assert_decision_sane(&current, "outage");
            }
            now += BEAT_PERIOD;
            std::thread::sleep(ROUND_PACE);
        }

        // Restart and measure recovery: for each client, the time from
        // the successor's fork to its first republished decision read
        // through the *same* segment.
        let restarted_at = Instant::now();
        supervisor.start().expect("fork successor incarnation");
        let mut recovered: Vec<Option<Duration>> = vec![None; config.apps];
        let mut pending = config.apps;
        while pending > 0 {
            assert!(
                restarted_at.elapsed() < config.recovery_deadline,
                "cycle {cycle}: {pending} of {} clients not recovered within {:?} (seed {:#x})",
                config.apps,
                config.recovery_deadline,
                config.seed
            );
            for (client, slot) in clients.iter_mut().zip(recovered.iter_mut()) {
                if slot.is_some() {
                    continue;
                }
                let current = client.current_decision();
                assert_decision_sane(&current, "recovery");
                if current.source == DecisionSource::Published {
                    *slot = Some(restarted_at.elapsed());
                    pending -= 1;
                }
            }
            std::thread::sleep(ROUND_PACE);
        }
        let client_recovery: Vec<Duration> = recovered.into_iter().map(Option::unwrap).collect();
        let all_republished = *client_recovery.iter().max().unwrap();

        // Drain phase: every beat emitted during the outage is still in
        // the ring the successor adopted; it must all reach the daemon.
        let drain_deadline = Instant::now() + config.recovery_deadline;
        for client in &clients {
            while client.beats_in_flight() > 0 {
                assert!(
                    Instant::now() < drain_deadline,
                    "cycle {cycle}: successor never drained the outage beats"
                );
                std::thread::sleep(ROUND_PACE);
            }
        }

        let total_rejected: u64 = clients.iter().map(PowerDialClient::beats_rejected).sum();
        let beats_dropped = total_rejected - dropped_so_far;
        dropped_so_far = total_rejected;
        assert_eq!(
            beats_dropped, 0,
            "cycle {cycle}: beats lost without the ring ever reaching capacity"
        );

        kills.push(KillStats {
            outage_beats_per_app: outage_rounds,
            client_recovery,
            all_republished,
            beats_dropped,
        });
    }

    let beats_pushed = clients.iter().map(PowerDialClient::beats_pushed).sum();
    let incarnations = supervisor.incarnations();
    assert_eq!(
        incarnations,
        config.kills as u32 + 1,
        "every kill must be answered by exactly one restart"
    );
    supervisor.shutdown();
    let _ = std::fs::remove_file(&socket_path);

    ChaosReport {
        kills,
        beats_pushed,
        beats_dropped: dropped_so_far,
        incarnations,
    }
}

/// The `q`-th percentile (0–100) of a set of durations, by
/// nearest-rank on a sorted copy.
pub fn percentile(samples: &[Duration], q: f64) -> Duration {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q / 100.0) * (sorted.len() - 1) as f64).floor() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            let x = a.in_range(3, 20);
            assert_eq!(x, b.in_range(3, 20));
            assert!((3..=20).contains(&x));
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ms: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile(&ms, 50.0), Duration::from_millis(50));
        assert_eq!(percentile(&ms, 99.0), Duration::from_millis(99));
        assert_eq!(percentile(&ms, 100.0), Duration::from_millis(100));
    }

    /// A miniature end-to-end run (real forks, real SIGKILLs) so the
    /// harness itself is exercised by `cargo test` at every scale; the
    /// full 50-kill, 64-app schedule lives in the workspace-level
    /// `chaos_recovery` suite.
    #[test]
    fn two_kill_smoke_run_holds_all_invariants() {
        let report = run(&ChaosConfig::new(3, 2));
        assert_eq!(report.kills.len(), 2);
        assert_eq!(report.incarnations, 3);
        assert_eq!(report.beats_dropped, 0);
        assert!(report.beats_pushed > 0);
    }
}
