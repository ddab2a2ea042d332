//! The supervised daemon's serve loop and its listener: `accept` is asked
//! when a client is there, and nobody who connects is left waiting.
//!
//! The loop learns of connections from the readiness set its daemon
//! already polls once per iteration (`PowerDialDaemon::watch_listener`),
//! so the `accept` → `EAGAIN` that every iteration used to pay is gone.
//! Two things have to hold for that to be safe, and neither shows in a
//! timing: the loop must still ask when somebody *is* there — counted
//! here, on the very iteration function the forked child runs
//! (`ServeLoop::iterate`), as `AttachBroker::accept_calls` — and readiness
//! must be level-triggered, because an iteration accepts one connection
//! and a burst leaves a backlog behind it. Both suites hang rather than
//! fail fast when the loop stops accepting, so CI runs this target under
//! `timeout`.

#![cfg(target_os = "linux")]

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use powerdial_client::{ClientConfig, DecisionSource, PowerDialClient};
use powerdial_control::daemon::{DaemonConfig, PowerDialDaemon};
use powerdial_control::{
    AttachBroker, BrokerConfig, ControllerConfig, RuntimeConfig, ServeLoop, Supervisor,
    SupervisorConfig,
};
use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer};
use powerdial_heartbeats::{Timestamp, TimestampDelta};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

/// Apps attached before the clients under test arrive.
const FLEET: usize = 8;

fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pd-serve-{}-{name}.sock", std::process::id()))
}

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
            qos_loss: QosLoss::new((s - 1.0) * 0.01),
        })
        .collect();
    KnobTable::from_points(points, 0, QosLossBound::UNBOUNDED).unwrap()
}

fn supervisor_config(socket_path: PathBuf, workers: usize) -> SupervisorConfig {
    SupervisorConfig {
        socket_path,
        daemon: DaemonConfig {
            workers,
            channel_capacity: 64,
            ..DaemonConfig::default()
        },
        target_rate: 30.0,
        baseline_rate: 30.0,
        poll_interval: Duration::ZERO,
        restart_backoff: Duration::ZERO,
        restart_backoff_cap: Duration::ZERO,
    }
}

/// What one run of [`serve_three_clients`] counted.
struct Counts {
    iterations: u64,
    accept_calls: u64,
    granted: usize,
}

/// Runs `ServeLoop::iterate` at least 10 000 times over a fleet of
/// [`FLEET`] apps that beat every iteration (so the loop stays hot and
/// every tick has work), while three clients register through the broker
/// one after another along the way. With `watch_listener` the daemon's
/// readiness set is given the listener first, as `Supervisor`'s child
/// does; without, the loop is in the state a refusal at start-up leaves
/// it in.
fn serve_three_clients(name: &str, watch_listener: bool) -> Counts {
    /// The iteration at which each client starts to connect (once its
    /// predecessor has been granted).
    const CONNECT_AT: [u64; 3] = [2_000, 5_000, 8_000];

    let path = socket_path(name);
    let _ = std::fs::remove_file(&path);
    let table = test_table();
    let config = supervisor_config(path.clone(), 0);
    let broker = AttachBroker::bind(BrokerConfig::new(&path)).unwrap();
    let mut daemon = PowerDialDaemon::new(config.daemon).unwrap();
    let runtime = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap());
    let mut fleet: Vec<PowerDialClient> = (0..FLEET)
        .map(|_| {
            let geometry = SegmentGeometry::for_beat_samples(64).unwrap();
            let segment = Arc::new(Segment::create(geometry).unwrap());
            let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
            daemon
                .register_shm(runtime, table.clone(), consumer)
                .unwrap();
            PowerDialClient::attach_segment(segment, ClientConfig::default()).unwrap()
        })
        .collect();
    if watch_listener {
        assert!(daemon.watch_listener(&broker), "epoll took the listener");
    }
    let mut serve = ServeLoop::new(&config, &table, broker, daemon);

    let deadline = Instant::now() + Duration::from_secs(120);
    let mut now = Timestamp::ZERO;
    let mut connecting = Vec::new();
    let mut iterations = 0u64;
    while iterations < 10_000 || serve.broker().granted() < CONNECT_AT.len() {
        assert!(Instant::now() < deadline, "the loop stopped granting");
        if connecting.len() < CONNECT_AT.len()
            && serve.broker().granted() == connecting.len()
            && iterations >= CONNECT_AT[connecting.len()]
        {
            let path = path.clone();
            connecting.push(std::thread::spawn(move || {
                let config = ClientConfig {
                    attach_attempts: 1,
                    ..ClientConfig::default()
                };
                PowerDialClient::register(&path, config).expect("granted at the first attempt")
            }));
        }
        for client in &mut fleet {
            client.beat(now).expect("drained every iteration");
        }
        now += TimestampDelta::from_millis(50);
        serve.iterate().unwrap();
        iterations += 1;
    }

    // The fleet was served all along, and the newcomers are apps like any
    // other: a quantum of beats and they read a decision.
    let mut newcomers: Vec<PowerDialClient> = connecting
        .into_iter()
        .map(|thread| thread.join().unwrap())
        .collect();
    assert_eq!(serve.daemon().app_count(), FLEET + newcomers.len());
    for _ in 0..20 {
        for client in fleet.iter_mut().chain(&mut newcomers) {
            client.beat(now).unwrap();
        }
        now += TimestampDelta::from_millis(50);
        serve.iterate().unwrap();
    }
    for client in fleet.iter_mut().chain(&mut newcomers) {
        assert_eq!(client.beats_rejected(), 0);
        assert_eq!(client.beats_in_flight(), 0);
        assert_eq!(client.current_decision().source, DecisionSource::Published);
    }
    let counts = Counts {
        iterations: iterations + 20,
        accept_calls: serve.broker().accept_calls(),
        granted: serve.broker().granted(),
    };
    drop(serve);
    let _ = std::fs::remove_file(&path);
    counts
}

#[test]
fn a_watched_listener_is_asked_once_per_connection() {
    let counts = serve_three_clients("watched", true);
    assert!(counts.iterations >= 10_000);
    assert_eq!(counts.granted, 3);
    assert_eq!(
        counts.accept_calls,
        3 + 1,
        "one `accept` per connection, and the first iteration's"
    );
}

#[test]
fn an_unwatched_listener_is_asked_every_iteration() {
    let counts = serve_three_clients("polled", false);
    assert_eq!(counts.granted, 3);
    assert_eq!(counts.accept_calls, counts.iterations);
}

/// Beats (too slowly for the target, so the controller has something to
/// decide) until the client reads a published decision.
fn beat_until_published(client: &mut PowerDialClient) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut tag = 0u64;
    while client.current_decision().source != DecisionSource::Published {
        assert!(Instant::now() < deadline, "the daemon never published");
        let _ = client.beat(Timestamp::from_millis(tag * 50));
        tag += 1;
        std::thread::yield_now();
    }
}

/// 32 clients connect at the same moment to a forked daemon that has gone
/// quiet and naps a millisecond at a time. One iteration accepts one
/// connection, so 31 of them are backlog when the first is served: with
/// edge-triggered readiness they would never be reported again and would
/// sit out their hello timeout. All 32 must be granted at the first
/// attempt, and the fleet attached before must not notice.
fn burst_of_clients_is_served_to_the_last(name: &str, workers: usize) {
    const BURST: usize = 32;

    let path = socket_path(name);
    let _ = std::fs::remove_file(&path);
    let mut supervisor = Supervisor::new(supervisor_config(path.clone(), workers), test_table());
    supervisor.start().unwrap();
    let patient = ClientConfig {
        attach_attempts: 50,
        ..ClientConfig::default()
    };
    let mut fleet: Vec<PowerDialClient> = (0..FLEET)
        .map(|_| PowerDialClient::register(&path, patient.clone()).unwrap())
        .collect();
    for client in &mut fleet {
        beat_until_published(client);
    }
    // Silence: 64 spins, 64 yields, then naps doubling from 50 µs to the
    // 1 ms cap — a few milliseconds in all.
    std::thread::sleep(Duration::from_millis(100));

    let barrier = Arc::new(Barrier::new(BURST));
    let burst: Vec<_> = (0..BURST)
        .map(|_| {
            let (path, barrier) = (path.clone(), Arc::clone(&barrier));
            std::thread::spawn(move || {
                // One attempt: a connection the loop strands, or one the
                // broker drops on its 100 ms connection timeout, is an
                // error here, not a retry. The reply is waited for up to
                // the default 1 s hello timeout.
                let config = ClientConfig {
                    attach_attempts: 1,
                    ..ClientConfig::default()
                };
                barrier.wait();
                PowerDialClient::register(&path, config)
            })
        })
        .collect();
    while !burst.iter().all(|thread| thread.is_finished()) {
        for client in &mut fleet {
            assert_eq!(client.current_decision().source, DecisionSource::Published);
        }
        std::thread::yield_now();
    }
    let mut granted: Vec<PowerDialClient> = burst
        .into_iter()
        .enumerate()
        .map(|(index, thread)| {
            thread
                .join()
                .unwrap()
                .unwrap_or_else(|err| panic!("client {index} of the burst: {err}"))
        })
        .collect();
    assert_eq!(granted.len(), BURST);

    // Everybody is an app of the same live daemon now.
    for client in &mut granted {
        beat_until_published(client);
    }
    for client in &mut fleet {
        assert_eq!(client.current_decision().source, DecisionSource::Published);
    }
    assert!(supervisor.pid().is_some());
    supervisor.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_burst_after_silence_strands_nobody_inline() {
    burst_of_clients_is_served_to_the_last("burst-inline", 0);
}

#[test]
fn a_burst_after_silence_strands_nobody_with_worker_threads() {
    burst_of_clients_is_served_to_the_last("burst-workers", 2);
}
