//! Cross-process integration of the full attach path: a **forked client
//! process** that shares nothing with the daemon but a socket path
//! registers through the attach broker, receives the segment fd over
//! `SCM_RIGHTS`, beats through the mapped segment, and reads the
//! daemon's decisions back — then the crash path: a SIGKILLed client is
//! noticed by PID liveness and reaped by the daemon.

#![cfg(target_os = "linux")]

use std::path::PathBuf;
use std::time::Duration;

use powerdial_client::{ClientConfig, DecisionSource, PowerDialClient};
use powerdial_control::daemon::{DaemonConfig, DecisionView, PowerDialDaemon};
use powerdial_control::{
    AttachBroker, AttachOutcome, AttachRequest, BrokerConfig, ControllerConfig, RuntimeConfig,
};
use powerdial_heartbeats::shm::process::{fork_child, ChildExit};
use powerdial_heartbeats::{Timestamp, TimestampDelta};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pd-client-{}-{name}.sock", std::process::id()))
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

fn inline_daemon() -> PowerDialDaemon {
    PowerDialDaemon::new(DaemonConfig {
        workers: 0,
        inline_apps: 0,
        ..DaemonConfig::default()
    })
    .unwrap()
}

/// Routes a broker attach request to the daemon: fresh hellos register a
/// new app, reattach hellos adopt the client's existing segment.
fn attach(
    daemon: &mut PowerDialDaemon,
    request: AttachRequest,
) -> Result<DecisionView, powerdial_control::ControlError> {
    let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0)?);
    match request {
        AttachRequest::Fresh(consumer) => daemon.register_shm(config, test_table(), consumer),
        AttachRequest::Reattach(consumer) => {
            daemon.register_shm_adopted(config, test_table(), consumer)
        }
    }
}

/// Runs the daemon side — broker polling and actuation ticks — until the
/// granted app's stream has delivered `target_beats`, returning its view.
fn serve_until(
    broker: &mut AttachBroker,
    daemon: &mut PowerDialDaemon,
    target_beats: u64,
) -> DecisionView {
    let mut view: Option<DecisionView> = None;
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        assert!(
            std::time::Instant::now() < deadline,
            "stream stalled before {target_beats} beats"
        );
        if view.is_none() {
            let outcome = broker
                .poll_accept(daemon.app_count(), |request| attach(daemon, request))
                .unwrap();
            match outcome {
                None => {}
                Some(AttachOutcome::Granted(granted)) => view = Some(granted),
                Some(other) => panic!("unexpected outcome: {other:?}"),
            }
        }
        daemon.tick();
        if let Some(ref granted) = view {
            if granted.beats_processed() >= target_beats {
                return view.unwrap();
            }
        }
        std::hint::spin_loop();
    }
}

#[test]
fn forked_client_attaches_beats_and_reads_boost_through_shm() {
    const CHILD_BEATS: u64 = 200;
    let path = socket_path("roundtrip");
    let mut broker = AttachBroker::bind(BrokerConfig::new(&path)).unwrap();
    let mut daemon = inline_daemon();

    let child = fork_child({
        let path = path.clone();
        move || {
            let Ok(mut client) = PowerDialClient::register(&path, ClientConfig::default()) else {
                return 1;
            };
            let mut now = Timestamp::ZERO;
            let mut boosted = false;
            for tag in 0..CHILD_BEATS {
                // 50 ms simulated period: 20 beats/s against the
                // daemon's 30 beats/s target.
                now += TimestampDelta::from_millis(if tag == 0 { 0 } else { 50 });
                if client.beat(now).is_err() {
                    return 2;
                }
                if tag % 20 == 19 {
                    let mut retries: u64 = 10_000_000_000;
                    while client.beats_in_flight() > 0 {
                        retries -= 1;
                        if retries == 0 {
                            return 3;
                        }
                        std::hint::spin_loop();
                    }
                    let current = client.current_decision();
                    if current.source == DecisionSource::Published && current.decision.gain > 1.0 {
                        boosted = true;
                    }
                }
            }
            // Exit code 0 is the cross-process proof: the *child* read
            // its boost back through the segment.
            if boosted {
                0
            } else {
                4
            }
        }
    })
    .unwrap();

    let view = serve_until(&mut broker, &mut daemon, CHILD_BEATS);
    assert_eq!(child.wait().unwrap(), ChildExit::Exited(0));
    assert_eq!(view.beats_processed(), CHILD_BEATS, "lossless delivery");
    assert!(view.latest_gain().unwrap() > 1.0);
    assert_eq!(broker.granted(), 1);

    let mut reaped = daemon.reap_dead();
    if reaped.is_empty() {
        daemon.tick();
        reaped = daemon.reap_dead();
    }
    assert_eq!(reaped, vec![view.id()]);
    assert_eq!(daemon.app_count(), 0, "exited client was reaped");
}

#[test]
fn sigkilled_client_is_reaped_by_the_daemon() {
    let path = socket_path("clientkill");
    let mut broker = AttachBroker::bind(BrokerConfig::new(&path)).unwrap();
    let mut daemon = inline_daemon();

    let child = fork_child({
        let path = path.clone();
        move || {
            let Ok(mut client) = PowerDialClient::register(&path, ClientConfig::default()) else {
                return 1;
            };
            let mut tag = 0u64;
            loop {
                let _ = client.beat(Timestamp::from_millis(tag * 50));
                tag += 1;
                // Keep the ring from saturating so the stream looks
                // healthy right up to the kill.
                while client.beats_in_flight() > 32 {
                    std::hint::spin_loop();
                }
            }
        }
    })
    .unwrap();

    // Serve the attach and let the stream run.
    let mut view: Option<DecisionView> = None;
    while view.is_none() || view.as_ref().unwrap().beats_processed() < 100 {
        if view.is_none() {
            if let Some(outcome) = broker
                .poll_accept(daemon.app_count(), |request| attach(&mut daemon, request))
                .unwrap()
            {
                match outcome {
                    AttachOutcome::Granted(granted) => view = Some(granted),
                    other => panic!("unexpected outcome: {other:?}"),
                }
            }
        }
        daemon.tick();
        std::hint::spin_loop();
    }
    let view = view.unwrap();
    assert!(
        daemon.reap_dead().is_empty(),
        "a live client is never reaped"
    );

    child.kill().unwrap();
    assert!(matches!(child.wait().unwrap(), ChildExit::Signaled(_)));

    // Collect the published tail, then reap: the daemon converges within
    // one post-mortem tick of draining dry.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        daemon.tick();
        let reaped = daemon.reap_dead();
        if !reaped.is_empty() {
            assert_eq!(reaped, vec![view.id()]);
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "dead client never reaped"
        );
    }
    assert_eq!(daemon.app_count(), 0);
    assert!(view.beats_processed() >= 100);
}

/// The recovery loop end to end at the client API: a registered client
/// loses its daemon, offers its segment back through the broker from
/// inside `current_decision`, a *successor* daemon adopts it, and the
/// stream resumes draining — through the same ring, no beats handed to
/// anyone else.
#[test]
fn client_reattaches_to_restarted_daemon_and_stream_resumes() {
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    let path = socket_path("reattach");
    let mut broker = AttachBroker::bind(BrokerConfig::new(&path)).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let kill = Arc::new(AtomicBool::new(false));
    let restarted = Arc::new(AtomicBool::new(false));
    let adopted = Arc::new(AtomicU32::new(0));
    let server = std::thread::spawn({
        let stop = Arc::clone(&stop);
        let kill = Arc::clone(&kill);
        let restarted = Arc::clone(&restarted);
        let adopted = Arc::clone(&adopted);
        move || {
            let mut daemon = inline_daemon();
            while !stop.load(Ordering::Acquire) {
                if kill.swap(false, Ordering::AcqRel) {
                    // "Crash": the incumbent daemon is replaced wholesale.
                    // (The SIGKILL flavor — a sticky dead PID in the
                    // consumer slot — is covered by the adoption tests in
                    // powerdial-control; here the point is the client-side
                    // loop.)
                    daemon = inline_daemon();
                    restarted.store(true, Ordering::Release);
                }
                broker
                    .poll_accept(daemon.app_count(), |request| {
                        if matches!(request, AttachRequest::Reattach(_)) {
                            adopted.fetch_add(1, Ordering::AcqRel);
                        }
                        attach(&mut daemon, request)
                    })
                    .unwrap();
                daemon.tick();
                std::thread::yield_now();
            }
        }
    });

    let config = ClientConfig {
        grace: Duration::ZERO,
        ..ClientConfig::default()
    };
    let mut client = PowerDialClient::register(&path, config).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut now = Timestamp::ZERO;

    // Phase 1: beat until the first daemon's decisions flow.
    while client.current_decision().source != DecisionSource::Published {
        assert!(Instant::now() < deadline, "first daemon never published");
        let _ = client.beat(now);
        now += TimestampDelta::from_millis(50);
        std::thread::yield_now();
    }

    // Phase 2: crash the daemon and keep beating through the outage — the
    // ring buffers what the dead daemon missed.
    kill.store(true, Ordering::Release);
    while !restarted.load(Ordering::Acquire) {
        assert!(Instant::now() < deadline, "daemon never restarted");
        std::thread::yield_now();
    }

    // Phase 3: polling current_decision drives the reattach handshake;
    // the successor adopts this same segment and publishes again.
    while client.current_decision().source != DecisionSource::Published {
        assert!(Instant::now() < deadline, "client never reattached");
        let _ = client.beat(now);
        now += TimestampDelta::from_millis(50);
        std::thread::yield_now();
    }
    assert!(
        adopted.load(Ordering::Acquire) >= 1,
        "recovery must go through segment adoption, not a fresh register"
    );

    // The successor drains the ring the client has been filling all
    // along: in-flight converges to zero without a single new claim.
    while client.beats_in_flight() > 0 {
        assert!(
            Instant::now() < deadline,
            "successor never drained the ring"
        );
        std::thread::yield_now();
    }

    stop.store(true, Ordering::Release);
    server.join().unwrap();
    let _ = std::fs::remove_file(&path);
}
