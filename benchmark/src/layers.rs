//! Per-layer timings taken from outside: each is a public function of one
//! of the repository's modules, called on the seeded stream and timed in
//! batches. They are diagnostics for the end-to-end metrics, never claims
//! of their own (README: "which layer metric moves which end-to-end metric
//! on which workload").

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use powerdial_client::{ClientConfig, PowerDialClient};
use powerdial_control::{
    ActuationPolicy, Actuator, AttachBroker, BrokerConfig, HeartRateController, PowerDialDaemon,
    PowerDialRuntime,
};
use powerdial_heartbeats::channel::beat_channel;
use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmDecision, ShmWarmState};
use powerdial_heartbeats::{
    BeatSample, DecisionTraceRecord, DecisionTraceRing, HeartbeatTag, LatencyHistogram,
    SlidingWindow, Timestamp, TimestampDelta,
};

use crate::fleet::{self, Spec, Transport};
use crate::forked::{ForkedDaemon, Loop, OUT_DIR};
use crate::measure::Metric;
use crate::stats;
use crate::stream::{self, AppStream, QUANTUM, RING_CAPACITY, TARGET_RATE_BPS};

/// Beats per timed push/drain batch: under the ring capacity, so nothing
/// is ever rejected.
const BATCH: usize = 60;

/// Calls `section` until `budget` is spent (at least five times). Each call
/// times one batch itself and returns `(elapsed, calls)`; the result is the
/// median nanoseconds per call over the batches.
fn median_ns(budget: Duration, mut section: impl FnMut() -> (Duration, u64)) -> (f64, u64) {
    let start = Instant::now();
    let mut per_call = Vec::new();
    let mut calls = 0;
    while per_call.len() < 5 || start.elapsed() < budget {
        let (elapsed, batch) = section();
        per_call.push(elapsed.as_nanos() as f64 / batch as f64);
        calls += batch;
    }
    (stats::median(&per_call), calls)
}

/// Times `batch` back-to-back calls of `op` per section.
fn median_ns_of(budget: Duration, batch: u64, mut op: impl FnMut()) -> (f64, u64) {
    median_ns(budget, || {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        (start.elapsed(), batch)
    })
}

/// The seeded sample source: beats of app 0's stream, paced as if the
/// controller held the speedup the capacity schedule asks for.
struct Samples {
    stream: AppStream,
    next_tag: HeartbeatTag,
    last: Timestamp,
    in_quantum: usize,
}

impl Samples {
    fn new(seed: u64) -> Self {
        Samples {
            stream: AppStream::new(seed, 0),
            next_tag: HeartbeatTag::default().next(),
            last: Timestamp::ZERO,
            in_quantum: 0,
        }
    }

    fn next(&mut self) -> BeatSample {
        if self.in_quantum == 0 {
            self.stream.begin_quantum(2.0);
        }
        self.in_quantum = (self.in_quantum + 1) % QUANTUM;
        let now = self.stream.next_beat();
        let sample = BeatSample {
            tag: self.next_tag,
            timestamp: now,
            latency: now - self.last,
        };
        self.next_tag = self.next_tag.next();
        self.last = now;
        sample
    }
}

/// Push and drain timings of one transport, from the same batches.
fn push_drain(
    budget: Duration,
    samples: &mut Samples,
    mut push: impl FnMut(BeatSample) -> bool,
    mut drain: impl FnMut(&mut Vec<BeatSample>) -> usize,
) -> ((f64, u64), (f64, u64)) {
    let mut scratch = Vec::with_capacity(RING_CAPACITY);
    let mut batch = Vec::with_capacity(BATCH);
    let mut drain_times = Vec::new();
    let pushed = median_ns(budget, || {
        batch.clear();
        batch.extend((0..BATCH).map(|_| samples.next()));
        let start = Instant::now();
        for sample in &batch {
            std::hint::black_box(push(*sample));
        }
        let push_time = start.elapsed();
        let start = Instant::now();
        let drained = std::hint::black_box(drain(&mut scratch));
        drain_times.push(start.elapsed().as_nanos() as f64 / drained.max(1) as f64);
        (push_time, BATCH as u64)
    });
    let drains = drain_times.len() as u64 * BATCH as u64;
    (pushed, (stats::median(&drain_times), drains))
}

/// Everything that does not depend on the workload's fleet.
pub fn transport_and_kernel(seed: u64, budget: Duration) -> Vec<Metric> {
    let each = budget / 22;
    let mut out = Vec::new();
    let mut add = |name: &'static str, (value, calls): (f64, u64)| out.push((name, value, calls));
    let mut samples = Samples::new(seed);

    // heartbeats.channel
    {
        let (mut producer, mut consumer) = beat_channel(RING_CAPACITY);
        let (push, drain) = push_drain(
            each * 2,
            &mut samples,
            |sample| producer.try_push(sample).is_ok(),
            |scratch| consumer.drain_into_capped(scratch, usize::MAX),
        );
        add("heartbeats.channel.push_ns", push);
        add("heartbeats.channel.drain_ns_per_beat", drain);
    }

    // heartbeats.shm
    {
        let (mut producer, mut consumer) = stream::shm_pair();
        let (push, drain) = push_drain(
            each * 2,
            &mut samples,
            |sample| producer.try_push(sample).is_ok(),
            |scratch| consumer.drain_into_capped(scratch, usize::MAX),
        );
        add("heartbeats.shm.push_ns", push);
        add("heartbeats.shm.drain_ns_per_beat", drain);

        let mut speedup = 1.0f64;
        add(
            "heartbeats.shm.publish_decision_ns",
            median_ns_of(each, 1000, || {
                speedup += 1e-9;
                consumer.publish_decision(ShmDecision {
                    point_idx: 3,
                    gain_bits: speedup.to_bits(),
                    achieved_speedup_bits: speedup.to_bits(),
                    qos_loss_bits: 0.01f64.to_bits(),
                });
            }),
        );
        add(
            "heartbeats.shm.publish_warm_ns",
            median_ns_of(each, 1000, || {
                speedup += 1e-9;
                consumer.publish_warm_state(ShmWarmState {
                    point_idx: 3,
                    speedup_bits: speedup.to_bits(),
                    observed_rate_bits: TARGET_RATE_BPS.to_bits(),
                    beat_in_quantum: 7,
                });
            }),
        );
        add(
            "heartbeats.shm.read_decision_ns",
            median_ns_of(each, 1000, || {
                std::hint::black_box(producer.read_decision());
            }),
        );
        let probe = consumer.probe();
        add(
            "heartbeats.shm.peer_probe_ns",
            median_ns_of(each, 100, || {
                std::hint::black_box(probe.producer_state());
            }),
        );
        let geometry = SegmentGeometry::for_beat_samples(RING_CAPACITY).expect("valid geometry");
        let (ns, calls) = median_ns_of(each, 8, || {
            std::hint::black_box(Segment::create(geometry).expect("create a segment"));
        });
        add("heartbeats.shm.segment_create_us", (ns / 1e3, calls));
    }

    // heartbeats.stats
    {
        let latencies: Vec<TimestampDelta> =
            (0..QUANTUM - 1).map(|_| samples.next().latency).collect();
        let mut window = SlidingWindow::new(QUANTUM);
        let (ns, calls) = median_ns_of(each, 100, || window.push_slice(&latencies));
        add(
            "heartbeats.stats.fold_ns_per_beat",
            (ns / latencies.len() as f64, calls * latencies.len() as u64),
        );
        let mut next = 0;
        add(
            "heartbeats.stats.push_ns",
            median_ns_of(each, 1000, || {
                window.push(latencies[next % latencies.len()]);
                next += 1;
            }),
        );
        add(
            "heartbeats.stats.rate_ns",
            median_ns_of(each, 1000, || {
                std::hint::black_box(std::hint::black_box(&window).rate().ok());
            }),
        );
    }

    // heartbeats.telemetry
    {
        let latencies: Vec<u64> = (0..QUANTUM - 1)
            .map(|_| samples.next().latency.as_nanos())
            .collect();
        let mut histogram = Box::new(LatencyHistogram::new());
        let (ns, calls) = median_ns_of(each, 100, || {
            histogram.record_all(std::hint::black_box(&latencies).iter().copied());
        });
        add(
            "heartbeats.telemetry.record_ns_per_sample",
            (ns / latencies.len() as f64, calls * latencies.len() as u64),
        );
        let mut ring =
            DecisionTraceRing::with_capacity(stream::daemon_config(0, true).trace_capacity);
        let record = DecisionTraceRecord {
            app: 1,
            point_idx: 3,
            gain: 2.2,
            achieved_speedup: 2.0,
            qos_loss: 0.03,
            ..DecisionTraceRecord::default()
        };
        add(
            "heartbeats.telemetry.trace_push_ns",
            median_ns_of(each, 1000, || ring.push(std::hint::black_box(record))),
        );
    }

    // control.controller / control.actuator / control.runtime
    {
        let table = stream::knob_table();
        let config = stream::runtime_config();
        let mut controller = HeartRateController::new(config.controller);
        let mut step = 0u64;
        add(
            "control.controller.update_ns",
            median_ns_of(each, 1000, || {
                step += 1;
                let observed = TARGET_RATE_BPS * if step.is_multiple_of(2) { 0.9 } else { 1.1 };
                std::hint::black_box(controller.update(observed));
            }),
        );
        let actuator = Actuator::new(ActuationPolicy::default());
        add(
            "control.actuator.plan_compact_ns",
            median_ns_of(each, 1000, || {
                step += 1;
                let requested = 1.0 + (step % 29) as f64 * 0.1;
                std::hint::black_box(actuator.plan_compact(&table, requested));
            }),
        );

        // A boundary beat and the nineteen-beat interior span alternate, as
        // they do in a drained quantum; each is timed on its own and the
        // clock's own cost (measured the same way) is taken off.
        let clock = median_ns_of(each / 2, 1000, || {
            std::hint::black_box(Instant::now());
        })
        .0;
        let mut runtime = PowerDialRuntime::new(config, table).expect("valid runtime");
        let mut advance_times = Vec::new();
        let (boundary, calls) = median_ns(each * 2, || {
            let mut boundary = Duration::ZERO;
            for _ in 0..50 {
                step += 1;
                let observed = TARGET_RATE_BPS * (0.6 + (step % 9) as f64 * 0.1);
                let start = Instant::now();
                std::hint::black_box(runtime.on_heartbeat_idx(Some(observed)));
                boundary += start.elapsed();
                let start = Instant::now();
                std::hint::black_box(runtime.advance_in_quantum(QUANTUM as u32 - 1));
                advance_times.push(start.elapsed().as_nanos() as f64);
            }
            (boundary, 50)
        });
        add(
            "control.runtime.boundary_ns",
            ((boundary - clock).max(0.0), calls),
        );
        add(
            "control.runtime.advance_ns_per_span",
            ((stats::median(&advance_times) - clock).max(0.0), calls),
        );
    }

    // client
    {
        let (segment, _, mut consumer) = {
            let geometry =
                SegmentGeometry::for_beat_samples(RING_CAPACITY).expect("valid geometry");
            let segment = Arc::new(Segment::create(geometry).expect("create a segment"));
            let consumer = ShmConsumer::attach(Arc::clone(&segment)).expect("attach consumer");
            (segment, (), consumer)
        };
        let mut client = PowerDialClient::attach_segment(segment, ClientConfig::default())
            .expect("attach a client to its own segment");
        consumer.publish_decision(ShmDecision {
            point_idx: 3,
            gain_bits: 2.2f64.to_bits(),
            achieved_speedup_bits: 2.0f64.to_bits(),
            qos_loss_bits: 0.03f64.to_bits(),
        });
        let mut scratch = Vec::with_capacity(RING_CAPACITY);
        let mut stream = AppStream::new(seed, 1);
        stream.begin_quantum(2.0);
        add(
            "client.beat_ns",
            median_ns(each, || {
                let start = Instant::now();
                for _ in 0..BATCH {
                    let _ = std::hint::black_box(client.beat(stream.next_beat()));
                }
                let elapsed = start.elapsed();
                consumer.drain_into_capped(&mut scratch, usize::MAX);
                (elapsed, BATCH as u64)
            }),
        );
        add(
            "client.current_decision_ns",
            median_ns_of(each, 1000, || {
                std::hint::black_box(client.current_decision());
            }),
        );
    }

    // control.broker (idle accept) and control.daemon's fleet-independent calls
    {
        std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
        let path = Path::new(OUT_DIR).join(format!("pd-{}-idle.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut broker = AttachBroker::bind(BrokerConfig::new(&path)).expect("bind a broker");
        add(
            "control.broker.poll_accept_idle_ns",
            median_ns_of(each, 100, || {
                let outcome = broker.poll_accept(0, |_| unreachable!("nobody connects"));
                std::hint::black_box(outcome.is_ok());
            }),
        );
        drop(broker); // unlinks the socket

        let mut threaded = PowerDialDaemon::new(stream::daemon_config(1, true)).expect("daemon");
        // Past the inline placements, so the app lands on the worker and
        // every tick pays the command/ack round trip with nothing to drain.
        let _handles: Vec<_> = (0..stream::daemon_config(1, true).inline_apps + 1)
            .map(|_| {
                threaded
                    .register(stream::runtime_config(), stream::knob_table())
                    .expect("register")
            })
            .collect();
        let (ns, calls) = median_ns_of(each, 100, || {
            std::hint::black_box(threaded.tick());
        });
        add("control.daemon.tick_roundtrip_us", (ns / 1e3, calls));
        add(
            "control.daemon.respawn_check_ns",
            median_ns_of(each, 1000, || {
                std::hint::black_box(threaded.respawn_dead());
            }),
        );
    }
    out
}

/// Timings on the workload's own fleet size and transport, in process.
pub fn fleet_calls(spec: Spec, budget: Duration) -> Vec<Metric> {
    let each = budget / 5;
    let mut out = Vec::new();
    let mut add = |name: &'static str, (value, calls): (f64, u64)| out.push((name, value, calls));
    let shm = spec.transport != Transport::Heap;
    let apps = spec.apps as f64;

    // Registration, timed call by call while the fleet is built.
    let mut daemon = PowerDialDaemon::new(stream::daemon_config(0, true)).expect("daemon");
    let mut heap_handles = Vec::new();
    let mut producers = Vec::new();
    let mut register_us = Vec::with_capacity(spec.apps);
    let mut register_shm_us = Vec::with_capacity(spec.apps);
    for _ in 0..spec.apps {
        // Both kinds are registered, whatever the workload's transport:
        // `register_us` and `register_shm_us` are each reported every run.
        let start = Instant::now();
        let handle = daemon
            .register(stream::runtime_config(), stream::knob_table())
            .expect("register");
        register_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        heap_handles.push(handle);
    }
    let mut shm_daemon = PowerDialDaemon::new(stream::daemon_config(0, true)).expect("daemon");
    for _ in 0..spec.apps {
        let (producer, consumer) = stream::shm_pair();
        let start = Instant::now();
        shm_daemon
            .register_shm(stream::runtime_config(), stream::knob_table(), consumer)
            .expect("register_shm");
        register_shm_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        producers.push(producer);
    }
    add(
        "control.daemon.register_us",
        (stats::median(&register_us), spec.apps as u64),
    );
    add(
        "control.daemon.register_shm_us",
        (stats::median(&register_shm_us), spec.apps as u64),
    );

    // A silent fleet: what one tick and one reap cost per app.
    let silent = if shm { &mut shm_daemon } else { &mut daemon };
    let (ns, calls) = median_ns_of(each, 1, || {
        std::hint::black_box(silent.tick());
    });
    add(
        "control.daemon.tick_empty_ns_per_app",
        (ns / apps, calls * spec.apps as u64),
    );
    let (ns, calls) = median_ns_of(each, 1, || {
        std::hint::black_box(shm_daemon.reap_dead().len());
    });
    add(
        "control.daemon.reap_ns_per_app",
        (ns / apps, calls * spec.apps as u64),
    );

    // The cold path: a telemetry snapshot of the fleet, after every app has
    // some history to export.
    let mut stream = AppStream::new(1, 0);
    for _ in 0..4 {
        stream.begin_quantum(2.0);
        for handle in &mut heap_handles {
            for _ in 0..QUANTUM {
                let _ = handle.beat(stream.next_beat());
            }
        }
        daemon.tick();
    }
    let mut bytes = 0;
    let (ns, calls) = median_ns_of(each, 1, || {
        bytes = daemon.telemetry_snapshot().to_json().len();
    });
    add("control.telemetry.snapshot_us", (ns / 1e3, calls));
    add("control.telemetry.snapshot_bytes", (bytes as f64, calls));
    out
}

/// What attaching through a forked daemon's broker costs: the time from
/// `Supervisor::start` to the first client attached, and the median
/// `PowerDialClient::register` round trip of the fifteen that follow.
pub fn broker_attach() -> Vec<Metric> {
    let config = fleet::client_config();
    let start = Instant::now();
    let daemon = ForkedDaemon::start(Loop::Product);
    let first = PowerDialClient::register(daemon.socket(), config.clone())
        .expect("register through the broker");
    let start_to_first_attach_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut clients = vec![first];
    let attach_us: Vec<f64> = (0..15)
        .map(|_| {
            let start = Instant::now();
            clients.push(
                PowerDialClient::register(daemon.socket(), config.clone())
                    .expect("register through the broker"),
            );
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    vec![
        (
            "control.supervisor.start_to_first_attach_ms",
            start_to_first_attach_ms,
            1,
        ),
        (
            "control.broker.attach_us",
            stats::median(&attach_us),
            attach_us.len() as u64,
        ),
    ]
}
