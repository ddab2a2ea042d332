//! The untraced run: the five end-to-end metrics of one workload.
//!
//! Every workload is measured the same way — set up several times, warm
//! up, then spend the measured window in rounds of reaction probes, a
//! saturating drain and silence, and verify outputs — so that each
//! end-to-end metric exists on each deployment and a change that helps one
//! can be checked against all the others.
//!
//! # Rounds and the quietest slice
//!
//! The box this runs on is shared, and its memory system flips, for
//! fractions of a second to tens of seconds at a time, into a regime up to
//! 1.8× slower for anything that misses cache (an 8 MiB pointer chase
//! swings 18–28 M hops/s while a register-only loop holds ±2 %; one
//! `drain_shm` run read 19.8 20.1 19.9 20.0 14.0 15.2 19.2 … 11.0 11.0 13.6
//! 18.7 9.1 M beats/s slice by slice). A median over the run lands wherever
//! the neighbours put it. So the phases are interleaved — every metric
//! samples the whole run, in sixty slices — and reaction time and drain
//! rate are their *quietest slice*. Neighbours only ever slow a slice down
//! (a slice median of reactions cannot come out too fast, nor a slice's
//! beat count too high), so that estimates the undisturbed machine, and it
//! holds if one slice in sixty was quiet. Idle CPU takes the first decile
//! of its twenty slices instead — between the second and third cheapest —
//! because there the noise cuts both ways: a daemon that is briefly
//! descheduled reads as a *cheap* slice. The median
//! and every slice stay in the run's document.

use std::time::{Duration, Instant};

use powerdial_control::{IdleLadder, PowerDialDaemon};

use crate::fleet::{Fleet, Host, NoSpans, ProbeSink, Spec, Transport};
use crate::forked::Loop;
use crate::json::Json;
use crate::procfs;
use crate::stats;

/// Set-ups before the measured window (the last one is the fleet that gets
/// measured) and again after it; `setup_s` is the quietest of them all. A
/// fixed count, so that the allocator state a forked daemon inherits does
/// not depend on how fast the earlier set-ups happened to be; on both sides
/// of the window, so that they sample the box fifteen seconds apart — five
/// in a row share whatever regime the box is in, and their median moved
/// 0.13 → 0.21 → 0.18 → 0.23 s between batches of ten `fleet_idle` runs.
const SETUPS_EACH_SIDE: usize = 5;
/// The same for smoke windows, where set-ups would otherwise be most of the
/// run.
const QUICK_SETUPS_EACH_SIDE: usize = 2;
/// Windows shorter than this are smoke windows.
const QUICK_BELOW_SECONDS: f64 = 5.0;
/// Quanta the measured daemon is checked against its references for.
const VERIFIED_QUANTA: usize = 200;
/// Rounds of probing and draining the measured window is cut into at the
/// benchmark's own window length (one per second; fewer for shorter
/// windows).
const ROUNDS: usize = 15;
/// Reaction and drain slices per round.
const SLICES_PER_ROUND: usize = 4;
/// Reaction samples kept (a ring of the newest): a fixed, pre-touched
/// buffer, so the sample count never moves the generator's own RSS.
const REACT_SAMPLES: usize = 1 << 18;
/// Blocks of silence per run, and measured slices per block.
const IDLE_BLOCKS: usize = 5;
const IDLE_SLICES: usize = 4;

/// The generator's pause before each slice: see [`breather`], of which this
/// is the cheap half (only the generator's CPU goes idle).
const NAP: Duration = Duration::from_millis(2);

/// How a round is divided.
const REACT_SHARE: f64 = 0.4;
const DRAIN_SHARE: f64 = 0.3;
const IDLE_SHARE: f64 = 0.3;
const WARMUP: Duration = Duration::from_millis(300);

/// One series of samples and what is reported from it.
pub struct Series {
    pub samples: Vec<f64>,
}

impl Series {
    pub fn median(&self) -> f64 {
        stats::median(&self.samples)
    }

    /// The decile on the quiet side.
    pub fn quiet_decile(&self, higher_is_better: bool) -> f64 {
        stats::quantile(&self.samples, if higher_is_better { 0.9 } else { 0.1 })
    }

    /// The quietest slice (see the module docs).
    pub fn quietest(&self, higher_is_better: bool) -> f64 {
        stats::quantile(&self.samples, if higher_is_better { 1.0 } else { 0.0 })
    }

    pub fn to_json(&self, keep: usize) -> Json {
        if self.samples.is_empty() {
            return Json::obj([("count", Json::Num(0.0))]);
        }
        let tail = stats::tail_percentile(&self.samples);
        // Long series are thinned for the document; the statistics are
        // computed on all of it.
        let step = self.samples.len().div_ceil(keep.max(1)).max(1);
        let thinned: Vec<f64> = self.samples.iter().step_by(step).copied().collect();
        Json::obj([
            ("count", Json::Num(self.samples.len() as f64)),
            ("median", Json::Num(self.median())),
            (
                "tail_percentile",
                tail.map_or(Json::Null, |(p, _)| Json::Num(p)),
            ),
            ("tail_value", tail.map_or(Json::Null, |(_, v)| Json::Num(v))),
            ("series", Json::nums(&thinned)),
        ])
    }
}

/// Output checks of one run; all must hold for `correct`.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub decision_checksums: Vec<u64>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            (
                "decision_checksums",
                Json::Arr(
                    self.decision_checksums
                        .iter()
                        .map(|sum| Json::str(format!("{sum:016x}")))
                        .collect(),
                ),
            ),
        ])
    }
}

/// `(name, value, samples behind the value)`.
pub type Metric = (&'static str, f64, u64);

/// What one run hands to the printer.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub detail: Json,
}

/// The in-process output check: the first [`VERIFIED_QUANTA`] quanta of the
/// workload, replayed beat for beat into the other in-process transport and
/// into `daemon::naive::SerialMutexDaemon`, must leave every app with the
/// same `latest_gain` bits and `beats_processed` in all three daemons after
/// every quantum, with no beat rejected.
fn verify_against_references(spec: Spec, seed: u64, checks: &mut Checks) {
    if spec.transport == Transport::Broker {
        return;
    }
    let mut fleet = Fleet::build_mirrored(spec, seed);
    for quantum in 0..VERIFIED_QUANTA {
        fleet.cycle();
        if let Err(difference) = fleet.mirrors_agree() {
            checks
                .failures
                .push(format!("quantum {quantum}: {difference}"));
            break;
        }
    }
    checks.decision_checksums = fleet.decision_checksums();
    let first = checks.decision_checksums[0];
    checks.require(
        checks.decision_checksums.iter().all(|sum| *sum == first),
        || "decision checksums differ between transports".into(),
    );
    checks.require(fleet.ops.failed() == 0, || {
        format!(
            "operations failed while verifying: {}",
            fleet.ops.to_json().render()
        )
    });
}

/// Sets the workload up `count` times, appending the times and keeping the
/// last fleet.
fn timed_setups(spec: Spec, seed: u64, count: usize, times: &mut Vec<f64>) -> Fleet {
    let mut kept = None;
    for _ in 0..count {
        // The previous fleet (and its forked daemon) goes first, so two
        // daemons never overlap and each set-up starts from nothing.
        drop(kept.take());
        let start = Instant::now();
        let fleet = Fleet::build(spec, seed, Loop::Product);
        times.push(start.elapsed().as_secs_f64());
        kept = Some(fleet);
    }
    kept.expect("at least one set-up")
}

/// Runs cycles for `duration`.
pub fn warm_up(fleet: &mut Fleet, duration: Duration) {
    let start = Instant::now();
    while start.elapsed() < duration {
        fleet.cycle();
    }
}

/// Reaction latencies, microseconds: the newest [`REACT_SAMPLES`], and the
/// median of each slice they were taken in.
pub struct Reactions {
    ring: Vec<f64>,
    stored: usize,
    polls: u64,
    pub slice_medians: Vec<f64>,
}

impl Reactions {
    pub fn new() -> Self {
        Reactions {
            // NaN rather than zero: a zeroed vector is untouched calloc pages.
            ring: vec![f64::NAN; REACT_SAMPLES],
            stored: 0,
            polls: 0,
            slice_medians: Vec::new(),
        }
    }

    /// Probes for `duration`, in `slices` slices.
    pub fn slices<S: ProbeSink>(
        &mut self,
        fleet: &mut Fleet,
        duration: Duration,
        slices: usize,
        sink: &mut S,
    ) {
        for _ in 0..slices {
            self.slice(fleet, duration / slices as u32, sink);
        }
    }

    fn slice<S: ProbeSink>(&mut self, fleet: &mut Fleet, duration: Duration, sink: &mut S) {
        std::thread::sleep(NAP);
        let first = self.stored;
        let start = Instant::now();
        while start.elapsed() < duration {
            if let Some(result) = fleet.probe(sink) {
                self.ring[self.stored % REACT_SAMPLES] = result.latency.as_secs_f64() * 1e6;
                self.stored += 1;
                self.polls += result.polls;
            }
        }
        let taken = (self.stored - first).min(REACT_SAMPLES);
        if taken > 0 {
            let slice: Vec<f64> = (self.stored - taken..self.stored)
                .map(|index| self.ring[index % REACT_SAMPLES])
                .collect();
            self.slice_medians.push(stats::median(&slice));
        }
    }

    pub fn all(&self) -> Series {
        Series {
            samples: self.ring[..self.stored.min(REACT_SAMPLES)].to_vec(),
        }
    }

    /// One serve-loop iteration, as far as the probes can tell: a probe's
    /// boundary beat has always just missed a tick, so its latency is one
    /// full iteration (plus the publish).
    pub fn iteration_estimate(&self) -> Duration {
        match self.slice_medians[..] {
            [] => Duration::ZERO,
            _ => Duration::from_secs_f64(stats::median(&self.slice_medians) / 1e6),
        }
    }

    pub fn polls_per_probe(&self) -> f64 {
        self.polls as f64 / self.stored.max(1) as f64
    }
}

/// Saturating drain for `duration`, in `slices` equal slices; appends the
/// beats per wall second of each.
pub fn drain_slices<S: ProbeSink>(
    fleet: &mut Fleet,
    duration: Duration,
    slices: usize,
    sink: &mut S,
    out: &mut Vec<f64>,
) {
    let slice = duration / slices as u32;
    for _ in 0..slices {
        std::thread::sleep(NAP);
        let start = Instant::now();
        let mut beats = 0u64;
        while start.elapsed() < slice {
            beats += fleet.cycle_with(sink);
        }
        out.push(beats as f64 / start.elapsed().as_secs_f64());
    }
}

/// Idle iterations it takes a serve loop to climb its ladder to the longest
/// nap: the spins, the yields, and the naps doubling from 50 µs to 1 ms.
const LADDER_CLIMB: u32 = IdleLadder::SPIN_LIMIT + IdleLadder::YIELD_LIMIT + 8;

/// How long a forked serve loop whose iterations take `iteration` needs, left
/// alone, to reach its longest nap.
pub fn time_to_park(iteration: Duration) -> Duration {
    iteration * LADDER_CLIMB + Duration::from_millis(10)
}

/// Silence for `duration`: first until the serve loop has parked, then
/// `slices` measured slices; appends the milliseconds of CPU the process
/// hosting the daemon consumed per wall second of each. What is measured is
/// the steady state of a quiet fleet, not the [`LADDER_CLIMB`] busy
/// iterations every loop spends getting there (140 ms of spinning at 256
/// apps).
///
/// Across a fork the generator sleeps; the climb is waited out as
/// [`LADDER_CLIMB`] times `iteration`, the caller's estimate of one
/// serve-loop iteration (a reaction latency is one). In process the
/// generator runs the supervisor's own idle policy (`tick` → `reap_dead` →
/// `respawn_dead` → `IdleLadder`) on the calling thread, since there the
/// host loop *is* the caller's, and sees the ladder park. Returns the
/// measured iterations of that loop (0 across a fork).
pub fn idle_block(
    fleet: &mut Fleet,
    duration: Duration,
    slices: usize,
    iteration: Duration,
    out: &mut Vec<f64>,
) -> u64 {
    let pid = fleet.host_pid();
    let begun = Instant::now();
    let mut ladder = IdleLadder::new();
    let mut host_iteration = |daemon: &mut PowerDialDaemon| {
        let beats = daemon.tick();
        daemon.reap_dead();
        daemon.respawn_dead();
        if beats > 0 {
            ladder.reset();
        } else {
            ladder.idle();
        }
    };
    match &mut fleet.host {
        Host::Forked(_) => std::thread::sleep(time_to_park(iteration).min(duration / 2)),
        Host::InProcess(daemon) => {
            for _ in 0..LADDER_CLIMB {
                if begun.elapsed() > duration / 2 {
                    break;
                }
                host_iteration(daemon);
            }
        }
    }
    let slice = duration.saturating_sub(begun.elapsed()) / slices as u32;
    let mut iterations = 0;
    for _ in 0..slices {
        let cpu_before = procfs::process_cpu_ns(pid);
        let start = Instant::now();
        match &mut fleet.host {
            Host::Forked(_) => std::thread::sleep(slice),
            Host::InProcess(daemon) => {
                while start.elapsed() < slice {
                    iterations += 1;
                    host_iteration(daemon);
                }
            }
        }
        let wall = start.elapsed().as_secs_f64();
        out.push((procfs::process_cpu_ns(pid) - cpu_before) as f64 / 1e6 / wall);
    }
    iterations
}

/// A pause before each round, long enough for a forked serve loop to park,
/// so that both CPUs go idle for a moment.
///
/// The box keeps whole runs on plateaus: `react_fleet` reads 250 µs and
/// 4.4 M beats/s in one 15 s run and 380 µs and 3.0 M beats/s in the next,
/// slice after slice, where single-process workloads repeat within 2 %.
/// Whatever the host decides about two busy virtual CPUs, it decides when
/// one of them wakes; a run that never lets them sleep keeps the decision
/// it was started with, and one that does gets fifteen.
fn breather(fleet: &Fleet, iteration: Duration) {
    std::thread::sleep(match fleet.host {
        Host::Forked(_) => time_to_park(iteration),
        Host::InProcess(_) => Duration::from_millis(10),
    });
}

/// Rounds for a window of `seconds`: one per second, two at least and
/// [`ROUNDS`] at most.
fn rounds_for(seconds: f64) -> usize {
    (seconds.round() as usize).clamp(2, ROUNDS)
}

/// The untraced run of one workload.
pub fn run(spec: Spec, seed: u64, seconds: f64) -> Report {
    let mut checks = Checks::default();
    let setups_each_side = if seconds < QUICK_BELOW_SECONDS {
        QUICK_SETUPS_EACH_SIDE
    } else {
        SETUPS_EACH_SIDE
    };
    let mut setups = Vec::new();
    let mut fleet = timed_setups(spec, seed, setups_each_side, &mut setups);
    warm_up(
        &mut fleet,
        WARMUP.min(Duration::from_secs_f64(seconds * 0.1)),
    );

    let rounds = rounds_for(seconds);
    let window = |share: f64, parts: usize| Duration::from_secs_f64(seconds * share / parts as f64);
    let mut reactions = Reactions::new();
    let mut drain = Vec::new();
    let mut idle = Vec::new();
    for round in 1..=rounds {
        breather(&fleet, reactions.iteration_estimate());
        reactions.slices(
            &mut fleet,
            window(REACT_SHARE, rounds),
            SLICES_PER_ROUND,
            &mut NoSpans,
        );
        drain_slices(
            &mut fleet,
            window(DRAIN_SHARE, rounds),
            SLICES_PER_ROUND,
            &mut NoSpans,
            &mut drain,
        );
        // Silence needs a long run-in, so it comes in a few blocks spread
        // over the run instead of a sliver every round.
        if round * IDLE_BLOCKS % rounds < IDLE_BLOCKS {
            idle_block(
                &mut fleet,
                window(IDLE_SHARE, IDLE_BLOCKS),
                IDLE_SLICES,
                reactions.iteration_estimate(),
                &mut idle,
            );
        }
    }
    let react_slices = Series {
        samples: reactions.slice_medians.clone(),
    };
    let (drain, idle) = (Series { samples: drain }, Series { samples: idle });

    checks.require(
        react_slices.samples.len() == rounds * SLICES_PER_ROUND,
        || "a slice went by without one probe seeing a reaction".into(),
    );
    checks.require(fleet.ops.rejected == 0, || {
        format!("{} beats rejected", fleet.ops.rejected)
    });
    // Silence must not have cost anyone their decision or the daemon its
    // life.
    checks.require(fleet.all_published_and_alive(), || {
        "after the silence an app lost its Published decision or the daemon died".into()
    });
    let memory = procfs::Memory::of(fleet.host_pid());
    checks.require(memory.is_some(), || {
        "/proc/<pid>/status of the daemon's process unreadable".into()
    });
    let memory = memory.unwrap_or_default();
    let ops = fleet.ops;
    // Only now, with the peak RSS read and the measured fleet gone: the
    // reference daemons of the output check would otherwise be the peak.
    drop(fleet);
    drop(timed_setups(spec, seed, setups_each_side, &mut setups));
    verify_against_references(spec, seed, &mut checks);

    let react_all = reactions.all();
    let setups = Series { samples: setups };
    let metrics = vec![
        (
            "setup_s",
            setups.quietest(false),
            setups.samples.len() as u64,
        ),
        (
            "react_p50_us",
            if react_slices.samples.is_empty() {
                f64::NAN
            } else {
                react_slices.quietest(false)
            },
            react_all.samples.len() as u64,
        ),
        (
            "beats_per_s",
            drain.quietest(true),
            drain.samples.len() as u64,
        ),
        (
            "idle_cpu_ms_per_s",
            idle.quiet_decile(false),
            idle.samples.len() as u64,
        ),
        ("rss_mb", memory.owned_mib, 1),
    ];
    let detail = Json::obj([
        ("rounds", Json::Num(rounds as f64)),
        ("setup_s", setups.to_json(usize::MAX)),
        ("react_us", react_all.to_json(512)),
        ("react_us_slice_medians", react_slices.to_json(usize::MAX)),
        ("polls_per_probe", Json::Num(reactions.polls_per_probe())),
        ("beats_per_s", drain.to_json(usize::MAX)),
        ("idle_cpu_ms_per_s", idle.to_json(usize::MAX)),
        ("peak_rss_mib_with_file_pages", Json::Num(memory.peak_mib)),
        ("ops", ops.to_json()),
        ("checks", checks.to_json()),
    ]);
    Report {
        metrics,
        attempted: ops.attempted,
        failed: ops.failed(),
        checks,
        detail,
    }
}
