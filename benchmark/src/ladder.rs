//! The layer ladder: the workload's stream replayed through growing
//! prefixes of the drain path, each rung built only from public calls.
//!
//! | rung | adds |
//! |---|---|
//! | 0 generator | the seeded stream alone |
//! | 1 ring | `try_push` per beat, one `drain_into_capped` per app |
//! | 2 window | `SlidingWindow::push`/`push_slice`, `rate()` at the boundary |
//! | 3 runtime | `PowerDialRuntime` stepping, QoS-loss lookup, decision atomics |
//! | 4 publish | decision block and warm-state block (mapped segments only) |
//! | 5 telemetry | two histograms per app, one trace record per quantum |
//! | 6 quantum | the real `DaemonShard::run_quantum` |
//! | 7 tick | the real `PowerDialDaemon::tick`, workload's worker count |
//!
//! A layer's self time is its rung minus the rung below. Rungs 1–5 are a
//! hand-built stand-in for the shard's kernel; whatever rung 6 costs beyond
//! rung 5 is what the stand-in does not explain (`catch_unwind`, the blame
//! cursor, slot layout, scratch upkeep) and is reported as
//! `control.daemon.unattributed_ns_per_beat`, so the self times and the
//! remainder sum to `control.daemon.quantum_ns_per_beat` by construction.
//! All rungs share one generator loop; only the push target and what is
//! done with a drained quantum differ.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use powerdial_control::telemetry::QOS_PPM_SCALE;
use powerdial_control::{AppHandle, DecisionView, PowerDialDaemon, PowerDialRuntime};
use powerdial_heartbeats::channel::beat_channel;
use powerdial_heartbeats::shm::{ShmConsumer, ShmDecision, ShmProducer, ShmWarmState};
use powerdial_heartbeats::{
    BeatConsumer, BeatProducer, BeatSample, DecisionTraceRecord, DecisionTraceRing, HeartbeatTag,
    LatencyHistogram, SlidingWindow, Timestamp, TimestampDelta, TraceReason,
};

use crate::fleet::{Spec, Transport};
use crate::stream::{self, AppStream, QUANTUM, RING_CAPACITY};

pub const RUNGS: [&str; 8] = [
    "generator",
    "ring",
    "window",
    "runtime",
    "publish",
    "telemetry",
    "quantum",
    "tick",
];

/// Timed slices per rung; a rung's cost is the quietest of them.
pub const PASSES: usize = 12;

/// Where a rung's beats go.
enum Tx {
    Nowhere,
    Heap(BeatProducer, BeatConsumer),
    Shm(ShmProducer, ShmConsumer),
    DaemonHeap(AppHandle),
    DaemonShm(ShmProducer, DecisionView),
}

/// The decision atomics `publish_batch` stores into.
#[derive(Default)]
struct Shared {
    decision: AtomicU64,
    gain_bits: AtomicU64,
    achieved_bits: AtomicU64,
    qos_bits: AtomicU64,
    beats: AtomicU64,
}

struct Telemetry {
    beat_latency_ns: LatencyHistogram,
    qos_loss_ppm: LatencyHistogram,
}

struct LadderApp {
    stream: AppStream,
    tx: Tx,
    next_tag: HeartbeatTag,
    last: Option<Timestamp>,
    beat_in_quantum: usize,
    window: SlidingWindow,
    runtime: PowerDialRuntime,
    shared: Arc<Shared>,
    decisions: u64,
    // Boxed, as in the shard: two 4 KiB histograms per app are what pushes
    // a 512-app fleet's working set past L2.
    telemetry: Box<Telemetry>,
    speedup: f64,
}

impl LadderApp {
    fn new(seed: u64, index: usize, tx: Tx) -> Self {
        LadderApp {
            stream: AppStream::new(seed, index),
            tx,
            next_tag: HeartbeatTag::default(),
            last: None,
            beat_in_quantum: 0,
            window: SlidingWindow::new(QUANTUM),
            runtime: PowerDialRuntime::new(stream::runtime_config(), stream::knob_table())
                .expect("valid runtime"),
            shared: Arc::new(Shared::default()),
            decisions: 0,
            telemetry: Box::new(Telemetry {
                beat_latency_ns: LatencyHistogram::new(),
                qos_loss_ppm: LatencyHistogram::new(),
            }),
            speedup: 1.0,
        }
    }

    /// Generates and pushes `beats` beats.
    #[inline]
    fn emit(&mut self, beats: usize) {
        for _ in 0..beats {
            let now = self.stream.next_beat();
            if let Tx::DaemonHeap(handle) = &mut self.tx {
                let _ = std::hint::black_box(handle.beat(now));
                continue;
            }
            let latency = match self.last {
                Some(last) => now - last,
                None => TimestampDelta::ZERO,
            };
            let tag = self.next_tag;
            self.next_tag = tag.next();
            self.last = Some(now);
            let sample = BeatSample {
                tag,
                timestamp: now,
                latency,
            };
            match &mut self.tx {
                Tx::Nowhere => {
                    std::hint::black_box(sample);
                }
                Tx::Heap(producer, _) => {
                    let _ = std::hint::black_box(producer.try_push(sample));
                }
                Tx::Shm(producer, _) | Tx::DaemonShm(producer, _) => {
                    let _ = std::hint::black_box(producer.try_push(sample));
                }
                Tx::DaemonHeap(_) => unreachable!("handled above"),
            }
        }
    }

    /// What rungs 1–5 do with one app's drained beats: the shard's batched
    /// kernel, spelled out in public calls, up to `LEVEL`.
    #[inline]
    fn process<const LEVEL: u8>(
        &mut self,
        id: u64,
        scratch: &mut Vec<BeatSample>,
        lat_scratch: &mut Vec<TimestampDelta>,
        trace: &mut DecisionTraceRing,
    ) {
        let drained = match &mut self.tx {
            Tx::Heap(_, consumer) => consumer.drain_into_capped(scratch, usize::MAX),
            Tx::Shm(_, consumer) => consumer.drain_into_capped(scratch, usize::MAX),
            _ => 0,
        };
        if LEVEL < 2 || drained == 0 {
            std::hint::black_box(&scratch);
            return;
        }
        let mut last_gain = 0.0f64;
        let mut last_point = 0u32;
        let mut i = 0;
        while i < drained {
            if self.beat_in_quantum == 0 {
                let observed = self
                    .window
                    .rate()
                    .expect("the stream cannot overflow the window")
                    .map(|rate| rate.beats_per_second());
                if LEVEL >= 3 {
                    let decision = self.runtime.on_heartbeat_idx(observed);
                    last_gain = decision.gain;
                    last_point = decision.point_idx.as_usize() as u32;
                } else {
                    std::hint::black_box(observed);
                }
                if scratch[i].tag.value() != 0 {
                    self.window.push(scratch[i].latency);
                }
                self.beat_in_quantum = 1 % QUANTUM;
                i += 1;
            } else {
                let span = (QUANTUM - self.beat_in_quantum).min(drained - i);
                if LEVEL >= 3 {
                    let decision = self.runtime.advance_in_quantum(span as u32);
                    last_gain = decision.gain;
                    last_point = decision.point_idx.as_usize() as u32;
                }
                lat_scratch.clear();
                lat_scratch.extend(
                    scratch[i..i + span]
                        .iter()
                        .filter(|sample| sample.tag.value() != 0)
                        .map(|sample| sample.latency),
                );
                self.window.push_slice(lat_scratch);
                self.beat_in_quantum = (self.beat_in_quantum + span) % QUANTUM;
                i += span;
            }
        }
        if LEVEL < 3 {
            return;
        }

        // publish_batch
        let schedule = self
            .runtime
            .current_schedule()
            .expect("schedule exists after stepping");
        let qos_loss = schedule.expected_qos_loss(self.runtime.table());
        self.speedup = schedule.achieved_speedup;
        self.decisions += 1;
        let shared = &*self.shared;
        shared
            .gain_bits
            .store(last_gain.to_bits(), Ordering::Release);
        shared
            .achieved_bits
            .store(schedule.achieved_speedup.to_bits(), Ordering::Release);
        shared.qos_bits.store(qos_loss.to_bits(), Ordering::Release);
        shared.decision.store(
            (self.decisions & 0xFFFF_FFFF) << 32 | u64::from(last_point),
            Ordering::Release,
        );
        shared.beats.fetch_add(drained as u64, Ordering::AcqRel);

        if LEVEL >= 4 {
            if let Tx::Shm(_, consumer) = &self.tx {
                consumer.publish_decision(ShmDecision {
                    point_idx: shared.decision.load(Ordering::Acquire) as u32,
                    gain_bits: shared.gain_bits.load(Ordering::Acquire),
                    achieved_speedup_bits: shared.achieved_bits.load(Ordering::Acquire),
                    qos_loss_bits: shared.qos_bits.load(Ordering::Acquire),
                });
                let rate = self
                    .window
                    .rate()
                    .ok()
                    .flatten()
                    .map_or(0.0, |rate| rate.beats_per_second());
                consumer.publish_warm_state(ShmWarmState {
                    point_idx: shared.decision.load(Ordering::Acquire) as u32,
                    speedup_bits: self.runtime.controller().speedup().to_bits(),
                    observed_rate_bits: rate.to_bits(),
                    beat_in_quantum: u64::from(self.runtime.beat_in_quantum()),
                });
            }
        }

        if LEVEL >= 5 {
            let telemetry = &mut *self.telemetry;
            telemetry.beat_latency_ns.record_all(
                scratch
                    .iter()
                    .filter(|sample| sample.tag.value() != 0)
                    .map(|sample| sample.latency.as_nanos()),
            );
            let qos_ppm = if qos_loss.is_finite() && qos_loss > 0.0 {
                (qos_loss * QOS_PPM_SCALE) as u64
            } else {
                0
            };
            telemetry.qos_loss_ppm.record(qos_ppm);
            trace.push(DecisionTraceRecord {
                seq: 0,
                timestamp: scratch.last().map_or(Timestamp::ZERO, |s| s.timestamp),
                app: id,
                point_idx: shared.decision.load(Ordering::Acquire) as u32,
                reason: TraceReason::Boundary,
                gain: f64::from_bits(shared.gain_bits.load(Ordering::Acquire)),
                achieved_speedup: f64::from_bits(shared.achieved_bits.load(Ordering::Acquire)),
                qos_loss,
            });
        }
    }
}

/// One rung's fleet.
struct Rung {
    apps: Vec<LadderApp>,
    daemon: Option<PowerDialDaemon>,
    scratch: Vec<BeatSample>,
    lat_scratch: Vec<TimestampDelta>,
    trace: DecisionTraceRing,
}

impl Rung {
    fn build(level: usize, spec: Spec, seed: u64, telemetry: bool) -> Rung {
        let shm = spec.transport != Transport::Heap;
        let mut daemon = (level >= 6).then(|| {
            // Rung 6 calls the shard directly, which only the inline daemon
            // allows; rung 7 is the workload's real worker count.
            let workers = if level == 6 { 0 } else { spec.workers };
            PowerDialDaemon::new(stream::daemon_config(workers, telemetry)).expect("daemon")
        });
        let apps = (0..spec.apps)
            .map(|index| {
                let tx = match (&mut daemon, level, shm) {
                    (_, 0, _) => Tx::Nowhere,
                    (None, _, false) => {
                        let (producer, consumer) = beat_channel(RING_CAPACITY);
                        Tx::Heap(producer, consumer)
                    }
                    (None, _, true) => {
                        let (producer, consumer) = stream::shm_pair();
                        Tx::Shm(producer, consumer)
                    }
                    (Some(daemon), _, false) => Tx::DaemonHeap(
                        daemon
                            .register(stream::runtime_config(), stream::knob_table())
                            .expect("register"),
                    ),
                    (Some(daemon), _, true) => {
                        let (producer, consumer) = stream::shm_pair();
                        let view = daemon
                            .register_shm(stream::runtime_config(), stream::knob_table(), consumer)
                            .expect("register_shm");
                        Tx::DaemonShm(producer, view)
                    }
                };
                LadderApp::new(seed, index, tx)
            })
            .collect();
        Rung {
            apps,
            daemon,
            scratch: Vec::with_capacity(RING_CAPACITY),
            lat_scratch: Vec::with_capacity(RING_CAPACITY),
            trace: DecisionTraceRing::with_capacity(stream::daemon_config(0, true).trace_capacity),
        }
    }

    /// One cycle: every app emits a quantum paced by the speedup its rung
    /// last produced, then the rung's share of the drain path runs.
    #[inline]
    fn cycle<const LEVEL: u8>(&mut self) {
        for (id, app) in self.apps.iter_mut().enumerate() {
            let speedup = match &app.tx {
                Tx::DaemonHeap(handle) => handle.achieved_speedup().unwrap_or(1.0),
                Tx::DaemonShm(_, view) => view.achieved_speedup().unwrap_or(1.0),
                _ => app.speedup,
            };
            app.stream.begin_quantum(speedup);
            app.emit(QUANTUM);
            if (1..=5).contains(&LEVEL) {
                app.process::<LEVEL>(
                    id as u64,
                    &mut self.scratch,
                    &mut self.lat_scratch,
                    &mut self.trace,
                );
            }
        }
        match (&mut self.daemon, LEVEL) {
            (Some(daemon), 6) => {
                daemon
                    .inline_shard_mut()
                    .expect("rung 6 runs an inline daemon")
                    .run_quantum();
            }
            (Some(daemon), _) => {
                daemon.tick();
            }
            (None, _) => {}
        }
    }

    /// Nanoseconds per beat over one slice of `duration`, after one untimed
    /// cycle to pull the rung's working set back into cache.
    fn time_slice<const LEVEL: u8>(&mut self, duration: Duration) -> f64 {
        let beats_per_cycle = (self.apps.len() * QUANTUM) as f64;
        self.cycle::<LEVEL>();
        let start = Instant::now();
        let mut cycles = 0u64;
        while cycles == 0 || start.elapsed() < duration {
            self.cycle::<LEVEL>();
            cycles += 1;
        }
        start.elapsed().as_nanos() as f64 / (cycles as f64 * beats_per_cycle)
    }

    fn time_slice_at(&mut self, level: usize, duration: Duration) -> f64 {
        match level {
            0 => self.time_slice::<0>(duration),
            1 => self.time_slice::<1>(duration),
            2 => self.time_slice::<2>(duration),
            3 => self.time_slice::<3>(duration),
            4 => self.time_slice::<4>(duration),
            5 => self.time_slice::<5>(duration),
            6 => self.time_slice::<6>(duration),
            _ => self.time_slice::<7>(duration),
        }
    }
}

/// The ladder of one workload.
pub struct Ladder {
    /// Cumulative nanoseconds per beat of each of [`RUNGS`].
    pub cumulative: [f64; 8],
    /// Rung 7 again with `telemetry: false`.
    pub tick_without_telemetry: f64,
}

impl Ladder {
    /// Climbs the ladder on `spec`'s fleet size and transport (a broker
    /// workload's daemon drains mapped segments, so its ladder does too),
    /// spending `budget` in all.
    ///
    /// A layer's self time is a *difference* of rungs, so the rungs must be
    /// timed under the same conditions, and on a shared box conditions
    /// change by the second. All rungs are therefore built up front and
    /// timed round-robin in [`PASSES`] short slices each, and a rung's cost
    /// is its quietest slice.
    pub fn climb(spec: Spec, seed: u64, budget: Duration) -> Ladder {
        // The eight rungs, and rung 7 again with telemetry off.
        let levels = [0, 1, 2, 3, 4, 5, 6, 7, 7];
        let mut rungs: Vec<Rung> = levels
            .iter()
            .enumerate()
            .map(|(index, level)| Rung::build(*level, spec, seed, index < 8))
            .collect();
        let slice = budget / (levels.len() * PASSES) as u32;
        let mut best = [f64::INFINITY; 9];
        for _ in 0..PASSES {
            for (index, rung) in rungs.iter_mut().enumerate() {
                best[index] = best[index].min(rung.time_slice_at(levels[index], slice));
            }
        }
        let mut cumulative = [0.0; 8];
        cumulative.copy_from_slice(&best[..8]);
        Ladder {
            cumulative,
            tick_without_telemetry: best[8],
        }
    }

    /// A rung's self time: its cost beyond the rung below.
    pub fn self_ns(&self, rung: usize) -> f64 {
        match rung {
            0 => self.cumulative[0],
            _ => self.cumulative[rung] - self.cumulative[rung - 1],
        }
    }

    /// `run_quantum` per beat, generator excluded: the sum of the self
    /// times of rungs 1–5 and the unattributed remainder.
    pub fn quantum_ns_per_beat(&self) -> f64 {
        self.cumulative[6] - self.cumulative[0]
    }

    pub fn tick_ns_per_beat(&self) -> f64 {
        self.cumulative[7] - self.cumulative[0]
    }

    /// What telemetry adds to a tick, as a share of the tick without it.
    pub fn telemetry_tax_pct(&self) -> f64 {
        let without = self.tick_without_telemetry - self.cumulative[0];
        (self.tick_ns_per_beat() - without) / without * 100.0
    }
}
