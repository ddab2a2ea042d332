//! A fleet: the apps of one workload, the daemon that serves them, and the
//! closed-loop operations every workload is built from.
//!
//! A workload is a *deployment* — how many apps, over which transport, with
//! the daemon on which side of a process boundary — and every deployment is
//! driven by the same three operations: [`Fleet::cycle`] (every app emits
//! one quantum, then the fleet settles), [`Fleet::probe`] (time one pace
//! change becoming a readable decision) and silence. The generator never
//! has more than one quantum per app in flight: a closed loop, so a slow
//! daemon receives less load rather than a growing queue.

use std::time::{Duration, Instant};

use powerdial_client::{ClientConfig, DecisionSource, PowerDialClient};
use powerdial_control::daemon::naive::{NaiveAppHandle, SerialMutexDaemon};
use powerdial_control::{AppHandle, DecisionView, PowerDialDaemon};
use powerdial_heartbeats::shm::ShmProducer;
use powerdial_heartbeats::{BeatSample, HeartbeatTag, Timestamp, TimestampDelta};

use crate::forked::{ForkedDaemon, Loop};
use crate::json::Json;
use crate::procfs::{self, Placement};
use crate::spans::{Epoch, Span};
use crate::stream::{self, AppStream, QUANTUM, RING_CAPACITY, SETTINGS};

/// A probe with no response within this long counts as failed. Generous on
/// purpose: this box now and then stalls a process for tens of
/// milliseconds, and a reaction that arrives late is a slow sample (it is
/// in `client.react_p99_us`), not a lost one.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);
/// A forked daemon that has not drained a quantum within this long is gone.
const SETTLE_TIMEOUT: Duration = Duration::from_secs(5);

/// How beats reach the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process `AppHandle` channels.
    Heap,
    /// Mapped segments in the daemon's own process (`register_shm`).
    Shm,
    /// Clients attached through the `AttachBroker` of a forked daemon.
    Broker,
}

/// One workload: a deployment and the reason it is in the set.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub apps: usize,
    pub transport: Transport,
    pub workers: usize,
}

/// The six workloads. `BENCHMARK.json` carries the same names with the
/// reason each was chosen; a unit test keeps the two in step.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "react_solo",
        apps: 1,
        transport: Transport::Broker,
        workers: 0,
    },
    Spec {
        name: "react_fleet",
        apps: 64,
        transport: Transport::Broker,
        workers: 0,
    },
    Spec {
        name: "drain_heap",
        apps: 512,
        transport: Transport::Heap,
        workers: 0,
    },
    Spec {
        name: "drain_shm",
        apps: 512,
        transport: Transport::Shm,
        workers: 0,
    },
    Spec {
        name: "drain_threaded",
        apps: 8,
        transport: Transport::Heap,
        workers: 1,
    },
    Spec {
        name: "fleet_idle",
        apps: 256,
        transport: Transport::Broker,
        workers: 0,
    },
];

/// Operations attempted and failed. A rejected beat, a probe with no
/// response in time, a response that is not `Published`, and a non-finite
/// or out-of-table decision each count as failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    /// Beats a full ring refused.
    pub rejected: u64,
    /// Probes that saw no changed decision within [`PROBE_TIMEOUT`].
    pub unanswered: u64,
    /// Decisions read that were not finite or not in the knob table.
    pub invalid: u64,
    /// Reads on which the client had given the daemon up (`Reattaching`).
    pub abandoned: u64,
}

impl Ops {
    /// Adds another fleet's counts to these.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.rejected += other.rejected;
        self.unanswered += other.unanswered;
        self.invalid += other.invalid;
        self.abandoned += other.abandoned;
    }

    pub fn failed(&self) -> u64 {
        self.rejected + self.unanswered + self.invalid + self.abandoned
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("rejected_beats", Json::Num(self.rejected as f64)),
            ("unanswered_probes", Json::Num(self.unanswered as f64)),
            ("invalid_decisions", Json::Num(self.invalid as f64)),
            ("abandoned_reads", Json::Num(self.abandoned as f64)),
        ])
    }
}

/// The producer half of a mapped segment with `AppHandle::beat`'s
/// bookkeeping (tag and latency since the previous beat).
pub struct ShmEmitter {
    producer: ShmProducer,
    view: DecisionView,
    next_tag: HeartbeatTag,
    last: Option<Timestamp>,
}

impl ShmEmitter {
    fn push(&mut self, now: Timestamp) -> bool {
        let latency = match self.last {
            Some(last) => now - last,
            None => TimestampDelta::ZERO,
        };
        let tag = self.next_tag;
        self.next_tag = tag.next();
        self.last = Some(now);
        self.producer
            .try_push(BeatSample {
                tag,
                timestamp: now,
                latency,
            })
            .is_ok()
    }
}

/// The application side of one registration.
pub enum Emitter {
    Heap(AppHandle),
    Shm(ShmEmitter),
    Client(Box<PowerDialClient>),
    /// The mutex-channel handle of the serial reference daemon; only ever a
    /// mirror, never measured.
    Naive(NaiveAppHandle),
}

impl Emitter {
    #[inline]
    fn push(&mut self, now: Timestamp) -> bool {
        match self {
            Emitter::Heap(handle) => handle.beat(now).is_ok(),
            Emitter::Shm(shm) => shm.push(now),
            Emitter::Client(client) => client.beat(now).is_ok(),
            Emitter::Naive(handle) => handle.beat(now).is_ok(),
        }
    }

    /// Reads the currently published decision, checks it, and returns its
    /// achieved speedup — what a probe watches the bits of, and what the
    /// next quantum is paced by. `None` when there is no `Published`
    /// decision to read right now, and a failed operation when the client
    /// has given the daemon up or the decision is not finite or outside the
    /// knob table.
    fn published(&mut self, ops: &mut Ops) -> Option<f64> {
        let (point, achieved, gain, qos_loss) = match self {
            Emitter::Heap(handle) => (
                handle.latest_point()?.as_usize(),
                handle.achieved_speedup()?,
                handle.latest_gain()?,
                handle.expected_qos_loss()?,
            ),
            Emitter::Shm(shm) => (
                shm.view.latest_point()?.as_usize(),
                shm.view.achieved_speedup()?,
                shm.view.latest_gain()?,
                shm.view.expected_qos_loss()?,
            ),
            Emitter::Client(client) => {
                ops.attempted += 1;
                let current = client.current_decision();
                match current.source {
                    DecisionSource::Published => {}
                    // No decision yet (before the first publish), or a read
                    // that raced the daemon's seqlock write and was served
                    // from the client's copy: not a response, not a failure.
                    DecisionSource::SafeState | DecisionSource::LastKnownGood => return None,
                    // The client believes the daemon is gone.
                    DecisionSource::Reattaching => {
                        ops.abandoned += 1;
                        return None;
                    }
                }
                let d = current.decision;
                (
                    d.point_idx as usize,
                    d.achieved_speedup,
                    d.gain,
                    d.expected_qos_loss,
                )
            }
            Emitter::Naive(_) => return None,
        };
        if point >= SETTINGS || !(achieved.is_finite() && gain.is_finite() && qos_loss.is_finite())
        {
            ops.invalid += 1;
            return None;
        }
        Some(achieved)
    }

    /// `(latest_gain bits, beats_processed)`: what the output checks
    /// compare across daemons.
    fn decision_state(&self) -> (u64, u64) {
        match self {
            Emitter::Heap(handle) => (
                handle.latest_gain().map_or(0, f64::to_bits),
                handle.beats_processed(),
            ),
            Emitter::Shm(shm) => (
                shm.view.latest_gain().map_or(0, f64::to_bits),
                shm.view.beats_processed(),
            ),
            Emitter::Naive(handle) => (
                handle.latest_gain().map_or(0, f64::to_bits),
                handle.beats_processed(),
            ),
            Emitter::Client(_) => (0, 0),
        }
    }
}

/// One simulated application.
pub struct App {
    stream: AppStream,
    emitter: Emitter,
    /// The speedup last read as published: a poll that races a publish
    /// (and so is served last-known-good) must not reset the pace to 1.
    speedup: f64,
    /// Registrations of the same app with reference daemons; every beat is
    /// replayed into them (output checks only — empty when measuring).
    mirrors: Vec<Emitter>,
}

impl App {
    fn begin_quantum(&mut self, ops: &mut Ops) {
        if let Some(speedup) = self.emitter.published(ops) {
            self.speedup = speedup;
        }
        self.stream.begin_quantum(self.speedup);
    }

    #[inline]
    fn push(&mut self, beats: usize, ops: &mut Ops) {
        for _ in 0..beats {
            let now = self.stream.next_beat();
            ops.attempted += 1;
            ops.rejected += u64::from(!self.emitter.push(now));
            for mirror in &mut self.mirrors {
                mirror.push(now);
            }
        }
    }
}

/// The process hosting the daemon.
pub enum Host {
    /// The benchmark's own process; `tick` is called by the generator.
    InProcess(PowerDialDaemon),
    /// A forked child running a serve loop.
    Forked(ForkedDaemon),
}

/// A reference daemon fed the same beats as the measured one.
pub enum Mirror {
    Daemon(Box<PowerDialDaemon>),
    Serial(SerialMutexDaemon),
}

/// Where client-side spans of a traced probe go. The untraced sink is a
/// no-op the compiler removes together with its clock reads.
pub trait ProbeSink {
    const ENABLED: bool;
    fn record(&mut self, span: Span);
}

pub struct NoSpans;

impl ProbeSink for NoSpans {
    const ENABLED: bool = false;
    fn record(&mut self, _span: Span) {}
}

/// Keeps the client-side spans of the newest probes.
pub struct ClientSpans {
    pub spans: std::collections::VecDeque<Span>,
    pub limit: usize,
}

impl ProbeSink for ClientSpans {
    const ENABLED: bool = true;
    fn record(&mut self, span: Span) {
        if self.spans.len() == self.limit {
            self.spans.pop_front();
        }
        self.spans.push_back(span);
    }
}

/// The outcome of one probe.
#[derive(Debug, Clone, Copy)]
pub struct ProbeResult {
    /// Push of the boundary beat → first read of a changed decision.
    pub latency: Duration,
    /// `current_decision()` polls (or ticks, in process) it took.
    pub polls: u64,
}

pub struct Fleet {
    spec: Spec,
    apps: Vec<App>,
    pub host: Host,
    mirrors: Vec<Mirror>,
    pub ops: Ops,
    /// The clock spans are stamped with: the traced daemon's, when there is
    /// one, so both sides of the fork share it.
    pub epoch: Epoch,
    probes: u64,
    cycles: u64,
}

pub fn client_config() -> ClientConfig {
    ClientConfig {
        capacity: RING_CAPACITY as u64,
        // The first client races the forked daemon's bind. A refused attempt
        // costs one back-off, doubling from here: short, so that losing the
        // race moves `setup_s` of a single-client fleet by a tenth of a
        // millisecond rather than by one; and many, so that patience still
        // runs to minutes.
        attach_attempts: 24,
        retry_backoff: Duration::from_micros(20),
        ..ClientConfig::default()
    }
}

fn register(daemon: &mut PowerDialDaemon, transport: Transport) -> Emitter {
    match transport {
        Transport::Heap => Emitter::Heap(
            daemon
                .register(stream::runtime_config(), stream::knob_table())
                .expect("register"),
        ),
        Transport::Shm | Transport::Broker => {
            let (producer, consumer) = stream::shm_pair();
            let view = daemon
                .register_shm(stream::runtime_config(), stream::knob_table(), consumer)
                .expect("register_shm");
            Emitter::Shm(ShmEmitter {
                producer,
                view,
                next_tag: HeartbeatTag::default(),
                last: None,
            })
        }
    }
}

impl Fleet {
    /// Sets the workload up: daemon built (forked, for broker workloads),
    /// every app registered and primed with its first beat, every app's
    /// first decision readable. This is what `setup_s` times.
    pub fn build(spec: Spec, seed: u64, which: Loop) -> Fleet {
        Fleet::build_inner(spec, seed, which, false)
    }

    /// [`Fleet::build`] for an in-process workload, plus two reference
    /// daemons fed the identical beats: the *other* in-process transport
    /// and the serial mutex daemon.
    pub fn build_mirrored(spec: Spec, seed: u64) -> Fleet {
        assert_ne!(
            spec.transport,
            Transport::Broker,
            "forked fleets have no mirrors"
        );
        Fleet::build_inner(spec, seed, Loop::Product, true)
    }

    fn build_inner(spec: Spec, seed: u64, which: Loop, mirrored: bool) -> Fleet {
        // Whatever the daemon forks or spawns inherits the affinity in force
        // when it is created; the generator moves back once it exists.
        let placement = Placement::get();
        if let Some(placement) = placement {
            procfs::pin_to(placement.daemon);
        }
        let mut mirrors = Vec::new();
        let mut apps = Vec::with_capacity(spec.apps);
        let host = match spec.transport {
            Transport::Broker => {
                let daemon = ForkedDaemon::start(which);
                if let Some(placement) = placement {
                    procfs::pin_to(placement.generator);
                }
                for index in 0..spec.apps {
                    let client = PowerDialClient::register(daemon.socket(), client_config())
                        .expect("register through the broker");
                    apps.push(App {
                        stream: AppStream::new(seed, index),
                        emitter: Emitter::Client(Box::new(client)),
                        speedup: 1.0,
                        mirrors: Vec::new(),
                    });
                }
                Host::Forked(daemon)
            }
            transport => {
                let mut daemon = PowerDialDaemon::new(stream::daemon_config(spec.workers, true))
                    .expect("daemon");
                if let Some(placement) = placement {
                    procfs::pin_to(placement.generator);
                }
                let mut other = None;
                let mut serial = None;
                if mirrored {
                    other =
                        Some(PowerDialDaemon::new(stream::daemon_config(0, true)).expect("daemon"));
                    serial = Some(
                        SerialMutexDaemon::new(stream::daemon_config(0, true)).expect("daemon"),
                    );
                }
                let other_transport = match transport {
                    Transport::Heap => Transport::Shm,
                    _ => Transport::Heap,
                };
                for index in 0..spec.apps {
                    let mut app = App {
                        stream: AppStream::new(seed, index),
                        emitter: register(&mut daemon, transport),
                        speedup: 1.0,
                        mirrors: Vec::new(),
                    };
                    if let Some(other) = &mut other {
                        app.mirrors.push(register(other, other_transport));
                    }
                    if let Some(serial) = &mut serial {
                        app.mirrors.push(Emitter::Naive(
                            serial
                                .register(stream::runtime_config(), stream::knob_table())
                                .expect("register"),
                        ));
                    }
                    apps.push(app);
                }
                mirrors.extend(other.map(|daemon| Mirror::Daemon(Box::new(daemon))));
                mirrors.extend(serial.map(Mirror::Serial));
                Host::InProcess(daemon)
            }
        };
        let mut fleet = Fleet {
            spec,
            apps,
            host,
            mirrors,
            ops: Ops::default(),
            epoch: match which {
                Loop::Traced(epoch) => epoch,
                Loop::Product => Epoch::now(),
            },
            probes: 0,
            cycles: 0,
        };
        fleet.prime();
        fleet
    }

    /// Every app emits the first beat of its stream (tag 0, the boundary of
    /// quantum 0) and waits for the decision it produces. From here on each
    /// cycle is nineteen interior beats followed by the next boundary beat.
    fn prime(&mut self) {
        let Fleet { apps, ops, .. } = self;
        for app in apps.iter_mut() {
            app.begin_quantum(ops);
            app.push(1, ops);
        }
        self.settle();
        let deadline = Instant::now() + SETTLE_TIMEOUT;
        for index in 0..self.apps.len() {
            while self.apps[index].emitter.published(&mut self.ops).is_none() {
                assert!(
                    Instant::now() < deadline,
                    "app {index} of {} never got its first decision",
                    self.spec.name
                );
                std::hint::spin_loop();
            }
        }
    }

    /// Lets the daemon take everything emitted so far: one `tick` in
    /// process; across a fork, a spin until every ring reads empty.
    pub fn settle(&mut self) {
        for mirror in &mut self.mirrors {
            match mirror {
                Mirror::Daemon(daemon) => {
                    daemon.tick();
                }
                Mirror::Serial(daemon) => {
                    daemon.tick();
                }
            }
        }
        match &mut self.host {
            Host::InProcess(daemon) => {
                daemon.tick();
            }
            Host::Forked(_) => {
                let start = Instant::now();
                let mut spins = 0u32;
                for app in &self.apps {
                    let Emitter::Client(client) = &app.emitter else {
                        unreachable!("forked fleets hold clients")
                    };
                    while client.beats_in_flight() > 0 {
                        spins = spins.wrapping_add(1);
                        if spins.is_multiple_of(4096) {
                            assert!(
                                start.elapsed() < SETTLE_TIMEOUT,
                                "the forked daemon of {} stopped draining",
                                self.spec.name
                            );
                        }
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// One closed-loop cycle: every app emits one quantum at its new pace,
    /// then the fleet settles. Returns the beats emitted.
    pub fn cycle(&mut self) -> u64 {
        self.cycle_with(&mut NoSpans)
    }

    /// [`Fleet::cycle`], with one span around the emission and one around
    /// the settling when `sink` records.
    pub fn cycle_with<S: ProbeSink>(&mut self, sink: &mut S) -> u64 {
        let epoch = self.epoch;
        let id = self.cycles;
        self.cycles += 1;
        let beats = (self.apps.len() * QUANTUM) as u64;
        let emit_start = if S::ENABLED { epoch.ns() } else { 0 };
        let Fleet { apps, ops, .. } = &mut *self;
        for app in apps.iter_mut() {
            app.begin_quantum(ops);
            app.push(QUANTUM, ops);
        }
        let settle_start = if S::ENABLED { epoch.ns() } else { 0 };
        self.settle();
        if S::ENABLED {
            let end = epoch.ns();
            sink.record(Span {
                name: "emit",
                start_ns: emit_start,
                end_ns: settle_start,
                parent: id,
                count: beats,
            });
            sink.record(Span {
                name: self.settle_name(),
                start_ns: settle_start,
                end_ns: end,
                parent: id,
                count: beats,
            });
        }
        beats
    }

    /// What settling is, for span names: a `tick` in process, a wait for
    /// the forked daemon otherwise.
    fn settle_name(&self) -> &'static str {
        match self.host {
            Host::InProcess(_) => "tick",
            Host::Forked(_) => "await_drain",
        }
    }

    /// One reaction probe on app 0. Every background app emits a whole
    /// quantum at its new pace and the fleet settles; the probe app emits
    /// the nineteen interior beats of its own and waits for them to drain;
    /// then it reads its decision, pushes the quantum-boundary beat, and
    /// polls until the achieved-speedup bits differ from the read taken
    /// just before the push. `None` (and a failed operation) when nothing
    /// changes in time.
    ///
    /// Across a fork the push lands just after the sweep that drained the
    /// probe app's interior beats, so the boundary beat has always *just
    /// missed* a tick: the probe times the loop's worst phase — one full
    /// serve-loop iteration plus the publish — and times it the same way
    /// every cycle, instead of sampling whatever phase the two processes
    /// happen to lock into.
    pub fn probe<S: ProbeSink>(&mut self, sink: &mut S) -> Option<ProbeResult> {
        if self.apps.len() > 1 {
            let Fleet { apps, ops, .. } = &mut *self;
            for app in &mut apps[1..] {
                app.begin_quantum(ops);
                app.push(QUANTUM, ops);
            }
            self.settle();
        }
        self.stage_probe();
        self.fire_probe(sink)
    }

    /// A probe into a fleet that has been silent for `silence`: only the
    /// probe app emits, and its boundary beat is the first thing the daemon
    /// sees after the pause — so the latency includes whatever it takes the
    /// serve loop to come down its idle ladder.
    pub fn wake_probe<S: ProbeSink>(
        &mut self,
        silence: Duration,
        sink: &mut S,
    ) -> Option<ProbeResult> {
        self.stage_probe();
        std::thread::sleep(silence);
        self.fire_probe(sink)
    }

    /// The probe app emits the interior beats of its quantum; everything
    /// emitted so far is drained.
    fn stage_probe(&mut self) {
        let Fleet { apps, ops, .. } = &mut *self;
        apps[0].begin_quantum(ops);
        apps[0].push(QUANTUM - 1, ops);
        self.settle();
    }

    fn fire_probe<S: ProbeSink>(&mut self, sink: &mut S) -> Option<ProbeResult> {
        let epoch = self.epoch;
        let id = self.probes;
        self.probes += 1;
        let Fleet {
            apps, ops, host, ..
        } = self;
        let probe = &mut apps[0];
        ops.attempted += 1;
        // The read may race a publish; retry rather than skip the probe,
        // because the boundary beat below has to go out either way — a
        // skipped beat would shift every later probe off the boundary.
        let begun = Instant::now();
        let before = loop {
            match probe.emitter.published(ops) {
                Some(achieved) => break Some(achieved.to_bits()),
                None if begun.elapsed() > PROBE_TIMEOUT => break None,
                None => std::hint::spin_loop(),
            }
        };
        let span_start = if S::ENABLED { epoch.ns() } else { 0 };
        let start = Instant::now();
        probe.push(1, ops);
        let Some(before) = before else {
            ops.unanswered += 1;
            return None;
        };
        if S::ENABLED {
            sink.record(Span {
                name: "beat",
                start_ns: span_start,
                end_ns: epoch.ns(),
                parent: id,
                count: 1,
            });
        }
        // Polls come by the thousand on a big fleet; the span file gets one
        // `polling` span over the fruitless ones and the poll that saw the
        // change on its own.
        let polling_start = if S::ENABLED { epoch.ns() } else { 0 };
        let mut polls = 0;
        loop {
            polls += 1;
            let poll_start = if S::ENABLED { epoch.ns() } else { 0 };
            let name = match host {
                Host::InProcess(daemon) => {
                    daemon.tick();
                    "tick"
                }
                Host::Forked(_) => "current_decision",
            };
            let after = probe.emitter.published(ops);
            let latency = start.elapsed();
            let changed = after.is_some_and(|after| after.to_bits() != before);
            let gave_up = latency > PROBE_TIMEOUT || matches!(host, Host::InProcess(_));
            if S::ENABLED && (changed || gave_up) {
                if polls > 1 {
                    sink.record(Span {
                        name: "polling",
                        start_ns: polling_start,
                        end_ns: poll_start,
                        parent: id,
                        count: polls - 1,
                    });
                }
                sink.record(Span {
                    name,
                    start_ns: poll_start,
                    end_ns: epoch.ns(),
                    parent: id,
                    count: 1,
                });
            }
            if changed {
                return Some(ProbeResult { latency, polls });
            }
            if gave_up {
                ops.unanswered += 1;
                return None;
            }
        }
    }

    /// PID of the process hosting the daemon.
    pub fn host_pid(&self) -> u32 {
        match &self.host {
            Host::InProcess(_) => std::process::id(),
            Host::Forked(daemon) => daemon.pid(),
        }
    }

    /// True when every app reads a valid `Published` decision and the
    /// process hosting the daemon is alive.
    pub fn all_published_and_alive(&mut self) -> bool {
        let Fleet {
            apps, ops, host, ..
        } = self;
        let alive = match host {
            Host::InProcess(_) => true,
            Host::Forked(daemon) => daemon.alive(),
        };
        alive
            && apps
                .iter_mut()
                .all(|app| app.emitter.published(ops).is_some())
    }

    /// Compares every app's `(latest_gain bits, beats_processed)` with its
    /// mirrors. `Err` names the first app and mirror that differ.
    pub fn mirrors_agree(&self) -> Result<(), String> {
        for (index, app) in self.apps.iter().enumerate() {
            let mine = app.emitter.decision_state();
            for (which, mirror) in app.mirrors.iter().enumerate() {
                let theirs = mirror.decision_state();
                if mine != theirs {
                    return Err(format!(
                        "app {index}: measured daemon {mine:x?} != reference {which} {theirs:x?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// One number over every app's `(latest_gain bits, beats_processed)` —
    /// for the measured daemon, and for each mirror in turn.
    pub fn decision_checksums(&self) -> Vec<u64> {
        let mirror_count = self.apps.first().map_or(0, |app| app.mirrors.len());
        let fold = |states: &mut dyn Iterator<Item = (u64, u64)>| {
            states.fold(0xCBF2_9CE4_8422_2325u64, |hash, (gain, beats)| {
                ((hash ^ gain).wrapping_mul(0x0000_0100_0000_01B3) ^ beats)
                    .wrapping_mul(0x0000_0100_0000_01B3)
            })
        };
        let mut sums = vec![fold(
            &mut self.apps.iter().map(|app| app.emitter.decision_state()),
        )];
        for which in 0..mirror_count {
            sums.push(fold(
                &mut self
                    .apps
                    .iter()
                    .map(|app| app.mirrors[which].decision_state()),
            ));
        }
        sums
    }
}
