//! Adversarial chaos: a seeded *hostile-client* campaign against one
//! in-process daemon, with a fault-free twin proving non-interference.
//!
//! Where [`crate::chaos`] SIGKILLs the daemon and measures recovery,
//! this mode attacks the daemon *from the application side* and pins the
//! fault-containment contract:
//!
//! * **hostile injections** — app panics (via the daemon's explicit
//!   fault hook), poison latency streams that overflow the rate window,
//!   beat floods far past `drain_cap`, shared-memory header scribbling,
//!   register/vanish churn, and worker-thread kills;
//! * **the daemon never aborts** — the whole campaign runs in-process,
//!   so any escaped panic fails the run on the spot;
//! * **blame is exact** — every quarantined app is one the campaign
//!   attacked; an injected panic is quarantined within one quantum, a
//!   poison stream within [`POISON_BLAME_QUANTA`];
//! * **killed shards resurrect** — every worker kill is answered by one
//!   [`respawn_dead`] that migrates the survivors back into service;
//! * **unaffected apps are bit-identical** — a twin daemon with the same
//!   fleet and the same beat schedule, but no faults, must agree with
//!   the attacked daemon on every unaffected app's decision observables
//!   (`f64`s compared by bit pattern), every quantum in which their
//!   drained-beat counts line up, and unconditionally at the end of the
//!   campaign.
//!
//! Determinism: the schedule is a seeded splitmix64 stream
//! ([`crate::chaos::SplitMix64`]); a failing run names its seed and is
//! replayed with `POWERDIAL_CHAOS_SEED` (see [`seed_from_env`]).
//!
//! [`respawn_dead`]: powerdial::control::daemon::PowerDialDaemon::respawn_dead

use std::sync::Arc;

use powerdial::control::daemon::{AppHandle, AppId, DaemonConfig, DecisionView, PowerDialDaemon};
use powerdial::control::{ControllerConfig, QuarantineReason, RuntimeConfig};
use powerdial::heartbeats::channel::BeatSample;
use powerdial::heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
use powerdial::heartbeats::{HeartbeatTag, Timestamp, TimestampDelta};
use powerdial::knobs::PointIdx;

use crate::chaos::SplitMix64;
use crate::fleet::{synthetic_knob_table, TARGET_RATE_BPS};

/// Knob settings in the synthetic table every app is served.
const SETTINGS: usize = 8;
/// Heartbeats per actuation quantum; the harness feeds exactly one
/// quantum per app per tick, so decisions publish every round.
const QUANTUM_BEATS: u32 = 4;
/// Per-slot drain cap under attack — floods must not let one hostile app
/// monopolize a quantum.
const DRAIN_CAP: usize = 32;
/// A poison (window-overflow) stream must be blamed within this many
/// quanta of injection: the huge latencies fold silently, and the next
/// quantum-boundary rate read surfaces the typed overflow.
pub const POISON_BLAME_QUANTA: u64 = 3;
/// Quanta an app stays off-limits for poison after a flood: the blame
/// deadline assumes the poison beats drain promptly, so the backlog a
/// flood leaves behind must clear first (160 extra beats at a net
/// `DRAIN_CAP - QUANTUM_BEATS` per quantum).
const FLOOD_COOLDOWN_QUANTA: u64 = 10;
/// Quanta the campaign runs fault-free at the end so every backlog
/// (floods, respawn catch-up) drains before the final strict comparison.
const FINAL_SYNC_QUANTA: u64 = 24;

/// Shape of an adversarial campaign.
#[derive(Debug, Clone)]
pub struct AdversarialConfig {
    /// Fleet size (one registered app each; every fourth is shm-backed).
    pub apps: usize,
    /// Hostile injections to perform.
    pub injections: usize,
    /// Seed for the injection schedule.
    pub seed: u64,
    /// Worker threads in both daemons.
    pub workers: usize,
}

impl AdversarialConfig {
    /// A campaign of `injections` seeded attacks on `apps` applications
    /// over two worker shards.
    pub fn new(apps: usize, injections: usize) -> Self {
        AdversarialConfig {
            apps,
            injections,
            seed: 0x00BA_D5EE_D50F_BEEF,
            workers: 2,
        }
    }
}

/// What a passing campaign did.
#[derive(Debug)]
pub struct AdversarialReport {
    /// Quanta both daemons ran.
    pub quanta: u64,
    /// Apps quarantined in the attacked daemon (every one attacked).
    pub quarantined: usize,
    /// Worker kills, each answered by one respawn.
    pub worker_kills: u64,
    /// Beat floods injected (identically into both daemons).
    pub floods: usize,
    /// Shared-memory headers scribbled.
    pub scribbles: usize,
    /// Register/vanish churn apps cycled through the attacked daemon.
    pub churned: usize,
    /// Apps that stayed unaffected and were compared against the twin.
    pub compared_apps: usize,
    /// Per-app per-quantum bit-equality checks that ran (and passed).
    pub snapshots_compared: u64,
    /// The attacked daemon's final telemetry snapshot, rendered to JSON
    /// (incidents section included), for the caller to parse.
    pub telemetry_json: String,
}

/// The campaign seed: `POWERDIAL_CHAOS_SEED` (decimal or 0x-hex) when
/// set, else `default`.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var("POWERDIAL_CHAOS_SEED") {
        Ok(seed) => seed
            .trim()
            .parse()
            .or_else(|_| u64::from_str_radix(seed.trim().trim_start_matches("0x"), 16))
            .expect("POWERDIAL_CHAOS_SEED must be a u64 (decimal or 0x-hex)"),
        Err(_) => default,
    }
}

/// One registered victim: the transport the harness pushes through plus
/// the observables it compares. Every fourth app is shm-backed so the
/// header-scribbler fault has real shared memory to deface.
enum Victim {
    Chan(AppHandle),
    Shm {
        view: DecisionView,
        producer: ShmProducer,
        segment: Arc<Segment>,
    },
}

impl Victim {
    fn push(&mut self, sample: BeatSample) {
        // Rejections are tolerated by design: a quarantined app's parked
        // ring fills up, and a flooded ring may brim — both are the
        // attack working, not a harness bug.
        match self {
            Victim::Chan(app) => {
                let _ = app.push_sample(sample);
            }
            Victim::Shm { producer, .. } => {
                let _ = producer.try_push(sample);
            }
        }
    }

    fn beats_processed(&self) -> u64 {
        match self {
            Victim::Chan(app) => app.beats_processed(),
            Victim::Shm { view, .. } => view.beats_processed(),
        }
    }

    fn latest_point(&self) -> Option<PointIdx> {
        match self {
            Victim::Chan(app) => app.latest_point(),
            Victim::Shm { view, .. } => view.latest_point(),
        }
    }

    fn latest_gain_bits(&self) -> Option<u64> {
        match self {
            Victim::Chan(app) => app.latest_gain().map(f64::to_bits),
            Victim::Shm { view, .. } => view.latest_gain().map(f64::to_bits),
        }
    }

    fn achieved_bits(&self) -> Option<u64> {
        match self {
            Victim::Chan(app) => app.achieved_speedup().map(f64::to_bits),
            Victim::Shm { view, .. } => view.achieved_speedup().map(f64::to_bits),
        }
    }

    fn quarantine_reason(&self) -> Option<QuarantineReason> {
        match self {
            Victim::Chan(app) => app.quarantine_reason(),
            Victim::Shm { view, .. } => view.quarantine_reason(),
        }
    }

    fn id(&self) -> AppId {
        match self {
            Victim::Chan(app) => app.id(),
            Victim::Shm { view, .. } => view.id(),
        }
    }

    fn segment(&self) -> Option<&Arc<Segment>> {
        match self {
            Victim::Chan(_) => None,
            Victim::Shm { segment, .. } => Some(segment),
        }
    }
}

fn daemon(config: &AdversarialConfig) -> PowerDialDaemon {
    PowerDialDaemon::new(DaemonConfig {
        workers: config.workers,
        window_size: 8,
        inline_apps: 0,
        drain_cap: DRAIN_CAP,
        ..DaemonConfig::default()
    })
    .expect("valid adversarial daemon config")
}

fn runtime_config() -> RuntimeConfig {
    RuntimeConfig::new(
        ControllerConfig::new(TARGET_RATE_BPS, TARGET_RATE_BPS).expect("valid controller"),
    )
    .with_quantum_heartbeats(QUANTUM_BEATS)
    .expect("nonzero quantum")
}

fn register_fleet(daemon: &mut PowerDialDaemon, apps: usize) -> Vec<Victim> {
    (0..apps)
        .map(|i| {
            if i % 4 == 3 {
                let segment = Arc::new(
                    Segment::create(SegmentGeometry::for_beat_samples(256).expect("geometry"))
                        .expect("create segment"),
                );
                let producer = ShmProducer::attach(Arc::clone(&segment)).expect("producer");
                let consumer = ShmConsumer::attach(Arc::clone(&segment)).expect("consumer");
                let view = daemon
                    .register_shm(runtime_config(), synthetic_knob_table(SETTINGS), consumer)
                    .expect("register shm victim");
                Victim::Shm {
                    view,
                    producer,
                    segment,
                }
            } else {
                Victim::Chan(
                    daemon
                        .register(runtime_config(), synthetic_knob_table(SETTINGS))
                        .expect("register channel victim"),
                )
            }
        })
        .collect()
}

/// The shared healthy beat stream: latencies wander around the target so
/// the controller keeps re-deciding; identical for both daemons.
fn beat(tag: u64) -> BeatSample {
    let latency_ms = 20 + (tag * 13) % 40;
    BeatSample {
        tag: HeartbeatTag(tag),
        timestamp: Timestamp::from_millis(tag * 45),
        latency: TimestampDelta::from_millis(if tag == 0 { 0 } else { latency_ms }),
    }
}

/// A half-range poison latency: two of them overflow the window's summed
/// nanoseconds, surfacing as a typed overflow at the next rate read.
fn poison_beat(tag: u64) -> BeatSample {
    BeatSample {
        tag: HeartbeatTag(tag),
        timestamp: Timestamp::from_millis(tag * 45),
        latency: TimestampDelta::from_nanos(1u64 << 63),
    }
}

/// Picks an app the campaign has not touched and that has no flood
/// backlog outstanding, or `None` when the fleet is exhausted.
fn pick_bystander(
    rng: &mut SplitMix64,
    affected: &[bool],
    busy_until: &[u64],
    quanta: u64,
) -> Option<usize> {
    let candidates: Vec<usize> = (0..affected.len())
        .filter(|&i| !affected[i] && busy_until[i] <= quanta)
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.in_range(0, candidates.len() as u64 - 1) as usize])
    }
}

/// Runs the campaign, panicking on any contract violation, and returns
/// what happened.
#[allow(clippy::too_many_lines)]
pub fn run_adversarial(config: &AdversarialConfig) -> AdversarialReport {
    assert!(config.workers >= 1, "worker kills need worker threads");
    assert!(
        config.apps >= 8,
        "the fleet must outnumber the attack surface"
    );
    let mut attacked = daemon(config);
    let mut twin = daemon(config);
    let mut fleet_a = register_fleet(&mut attacked, config.apps);
    let mut fleet_t = register_fleet(&mut twin, config.apps);

    let mut rng = SplitMix64::new(config.seed);
    let mut tags = vec![0u64; config.apps];
    // Apps the campaign has touched; everything else must stay
    // bit-identical to the twin.
    let mut affected = vec![false; config.apps];
    let mut busy_until = vec![0u64; config.apps];
    let mut expected_panics: Vec<usize> = Vec::new();
    let mut pending_poisons: Vec<(usize, u64)> = Vec::new();
    let mut churn: Vec<(AppHandle, u64)> = Vec::new();
    let mut quanta = 0u64;
    let mut worker_kills = 0u64;
    let mut floods = 0usize;
    let mut scribbles = 0usize;
    let mut churned = 0usize;
    let mut snapshots_compared = 0u64;

    // One synchronized quantum: identical feeds into both fleets, one
    // tick each side. `$poison:expr` names the app (if any) whose
    // attacked-side stream is poisoned this quantum.
    macro_rules! quantum {
        ($poison:expr) => {{
            let poison: Option<usize> = $poison;
            for (i, victim) in fleet_a.iter_mut().enumerate() {
                for b in 0..u64::from(QUANTUM_BEATS) {
                    if poison == Some(i) {
                        victim.push(poison_beat(tags[i] + b));
                    } else {
                        victim.push(beat(tags[i] + b));
                    }
                }
            }
            for (i, victim) in fleet_t.iter_mut().enumerate() {
                for b in 0..u64::from(QUANTUM_BEATS) {
                    victim.push(beat(tags[i] + b));
                }
            }
            for tag in tags.iter_mut() {
                *tag += u64::from(QUANTUM_BEATS);
            }
            attacked.tick();
            twin.tick();
            quanta += 1;
        }};
    }

    // Post-quantum bookkeeping: blame deadlines, bystander innocence,
    // and bit-comparison wherever beat counts line up.
    macro_rules! settle_and_check {
        () => {{
            for &i in &expected_panics {
                assert_eq!(
                    fleet_a[i].quarantine_reason(),
                    Some(QuarantineReason::Panic),
                    "seed {:#x}: injected panic on app {i} not quarantined within one quantum",
                    config.seed
                );
            }
            expected_panics.clear();
            pending_poisons.retain(|&(i, deadline)| match fleet_a[i].quarantine_reason() {
                Some(QuarantineReason::WindowOverflow) => false,
                Some(other) => panic!(
                    "seed {:#x}: poison app {i} quarantined as {other:?}, not WindowOverflow",
                    config.seed
                ),
                None => {
                    assert!(
                        quanta < deadline,
                        "seed {:#x}: poison app {i} not blamed within \
                             {POISON_BLAME_QUANTA} quanta",
                        config.seed
                    );
                    true
                }
            });
            // Blame never lands on a bystander.
            for (i, victim) in fleet_a.iter().enumerate() {
                if !affected[i] {
                    assert!(
                        victim.quarantine_reason().is_none(),
                        "seed {:#x}: unattacked app {i} was quarantined",
                        config.seed
                    );
                }
            }
            // Bit-equality wherever the drained-beat counts line up (a
            // worker kill or flood backlog can lag the attacked side by
            // whole quanta; decisions are invariant to batch boundaries,
            // so equal counts demand bit-equal observables).
            for i in 0..config.apps {
                if affected[i] {
                    continue;
                }
                let (a, t) = (&fleet_a[i], &fleet_t[i]);
                if a.beats_processed() != t.beats_processed() {
                    continue;
                }
                assert_eq!(
                    a.latest_point(),
                    t.latest_point(),
                    "seed {:#x}: app {i} knob point diverged from the no-fault twin",
                    config.seed
                );
                assert_eq!(
                    a.latest_gain_bits(),
                    t.latest_gain_bits(),
                    "seed {:#x}: app {i} gain bits diverged",
                    config.seed
                );
                assert_eq!(
                    a.achieved_bits(),
                    t.achieved_bits(),
                    "seed {:#x}: app {i} achieved-speedup bits diverged",
                    config.seed
                );
                snapshots_compared += 1;
            }
            // Vanish half of the churn: registrations past their dwell
            // are unregistered (the "client disappeared" shape).
            churn.retain(|(handle, vanish_at)| {
                if quanta >= *vanish_at {
                    assert!(
                        attacked.unregister(handle.id()),
                        "seed {:#x}: churn app failed to unregister",
                        config.seed
                    );
                    false
                } else {
                    true
                }
            });
        }};
    }

    // Warm-up: a few clean quanta so every app has published at least
    // one decision before the attack begins.
    for _ in 0..4 {
        quantum!(None);
        settle_and_check!();
    }

    let max_affected = config.apps / 2;
    for _ in 0..config.injections {
        // A seeded stretch of healthy quanta between attacks.
        for _ in 0..rng.in_range(1, 3) {
            quantum!(None);
            settle_and_check!();
        }

        let affected_count = affected.iter().filter(|&&a| a).count();
        let mut kind = rng.next_u64() % 100;
        // Consuming attacks stop once half the fleet is gone: the
        // bit-equality claim needs a population of untouched apps.
        if affected_count >= max_affected && kind < 75 {
            kind = 45; // degrade to a flood, which consumes nobody
        }
        match kind {
            // Injected panic: quarantined within exactly one quantum.
            0..=24 => {
                let i = pick_bystander(&mut rng, &affected, &busy_until, quanta)
                    .expect("bystander available");
                affected[i] = true;
                assert!(attacked.inject_app_panic(fleet_a[i].id()));
                expected_panics.push(i);
                quantum!(None);
                settle_and_check!();
            }
            // Poison latency stream: typed overflow, blamed within
            // POISON_BLAME_QUANTA.
            25..=44 => {
                let i = pick_bystander(&mut rng, &affected, &busy_until, quanta)
                    .expect("bystander available");
                affected[i] = true;
                pending_poisons.push((i, quanta + POISON_BLAME_QUANTA));
                quantum!(Some(i));
                settle_and_check!();
            }
            // Beat flood far past drain_cap, into BOTH daemons: hostile
            // but deterministic, so the flooded app stays in the
            // compared population (drain_cap spreads the backlog over
            // quanta identically on each side).
            45..=59 => {
                floods += 1;
                let i = rng.in_range(0, config.apps as u64 - 1) as usize;
                for b in 0..(5 * DRAIN_CAP as u64) {
                    let sample = beat(tags[i] + b);
                    fleet_a[i].push(sample);
                    fleet_t[i].push(sample);
                }
                tags[i] += 5 * DRAIN_CAP as u64;
                busy_until[i] = quanta + FLOOD_COOLDOWN_QUANTA;
                quantum!(None);
                settle_and_check!();
            }
            // Header scribbler: deface a shm app's ring indices. The
            // daemon must survive whatever it drains; the app itself is
            // forfeit (garbage in, garbage or quarantine out).
            60..=74 => {
                let shm_bystander =
                    (0..config.apps).find(|&i| !affected[i] && fleet_a[i].segment().is_some());
                if let Some(i) = shm_bystander {
                    scribbles += 1;
                    affected[i] = true;
                    let header = fleet_a[i].segment().unwrap().header();
                    use std::sync::atomic::Ordering;
                    header.tail.store(rng.next_u64(), Ordering::Release);
                    header.head.store(rng.next_u64(), Ordering::Release);
                }
                quantum!(None);
                settle_and_check!();
            }
            // Worker kill: the shard dies holding its lock; one respawn
            // resurrects it at the same index with survivors migrated.
            75..=89 => {
                let w = rng.in_range(0, config.workers as u64 - 1) as usize;
                assert!(attacked.inject_worker_panic(w));
                worker_kills += 1;
                quantum!(None);
                assert_eq!(
                    attacked.respawn_dead(),
                    1,
                    "seed {:#x}: worker {w} kill not answered by one respawn",
                    config.seed
                );
                assert_eq!(attacked.live_workers(), config.workers);
                settle_and_check!();
            }
            // Register/vanish churn: appear, beat a little, disappear.
            _ => {
                churned += 1;
                let mut handle = attacked
                    .register(runtime_config(), synthetic_knob_table(SETTINGS))
                    .expect("churn registration");
                for b in 0..u64::from(QUANTUM_BEATS) {
                    let _ = handle.push_sample(beat(b));
                }
                churn.push((handle, quanta + rng.in_range(1, 3)));
                quantum!(None);
                settle_and_check!();
            }
        }
    }

    // Final sync: fault-free quanta drain every backlog, then the
    // unconditional comparison — every unaffected app must agree with
    // the twin on counts and on every observable, bit for bit.
    for _ in 0..FINAL_SYNC_QUANTA {
        quantum!(None);
        settle_and_check!();
    }
    let mut compared_apps = 0usize;
    for i in 0..config.apps {
        if affected[i] {
            continue;
        }
        compared_apps += 1;
        let (a, t) = (&fleet_a[i], &fleet_t[i]);
        assert_eq!(
            a.beats_processed(),
            t.beats_processed(),
            "seed {:#x}: app {i} never re-converged with the twin",
            config.seed
        );
        assert_eq!(a.latest_point(), t.latest_point());
        assert_eq!(a.latest_gain_bits(), t.latest_gain_bits());
        assert_eq!(a.achieved_bits(), t.achieved_bits());
    }
    assert!(
        pending_poisons.is_empty(),
        "seed {:#x}: poison blame outstanding at campaign end",
        config.seed
    );
    assert_eq!(
        attacked.shard_respawns(),
        worker_kills,
        "seed {:#x}: kills and respawns disagree",
        config.seed
    );

    let quarantined = attacked.quarantined_apps();
    let telemetry_json = attacked.telemetry_snapshot().to_json();
    AdversarialReport {
        quanta,
        quarantined,
        worker_kills,
        floods,
        scribbles,
        churned,
        compared_apps,
        snapshots_compared,
        telemetry_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_env_default_passes_through() {
        assert_eq!(seed_from_env(7), seed_from_env(7));
    }

    /// A miniature campaign so the harness itself runs under plain
    /// `cargo test`; the full 64-app, 50-injection schedule lives in the
    /// `chaos_adversarial` suite.
    #[test]
    fn small_campaign_holds_all_invariants() {
        let report = run_adversarial(&AdversarialConfig::new(8, 6));
        assert!(report.quanta > 0);
        assert!(report.compared_apps >= 4);
        assert!(report.snapshots_compared > 0);
    }
}
