//! The paper's deployment shape, end to end: an instrumented application
//! in **one OS process** registers with the PowerDial controller in
//! **another process** through the daemon's Unix-socket attach broker,
//! emits Application Heartbeats into the memfd-backed segment it received
//! over `SCM_RIGHTS`, and reads the controller's knob decisions back
//! through the same segment's seqlock-protected decision block.
//!
//! Concretely: the parent binds an `AttachBroker` and a `PowerDialDaemon`,
//! then forks. The child knows nothing but the socket path — it registers
//! via `powerdial_client::PowerDialClient::register` (bounded
//! retry/backoff), beats at ~20 beats/s against the controller's
//! 30 beats/s target, and **proves the loop is bidirectional** by exiting
//! successfully only once it has read a boosted gain (> 1.0x) back
//! through shared memory — not through any parent-side state. When the
//! child exits, the daemon's liveness check sees the stale PID and reaps
//! the abandoned segment.
//!
//! Run with `cargo run --example shm_external_controller`.

#[cfg(target_os = "linux")]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    use powerdial::control::daemon::{DaemonConfig, PowerDialDaemon};
    use powerdial::control::{AttachBroker, AttachOutcome, BrokerConfig};
    use powerdial::control::{ControllerConfig, RuntimeConfig};
    use powerdial::heartbeats::shm::process::{fork_child, ChildExit};
    use powerdial::heartbeats::{Timestamp, TimestampDelta};
    use powerdial::knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
    use powerdial::qos::{QosLoss, QosLossBound};
    use powerdial_client::{ClientConfig, DecisionSource, PowerDialClient};

    /// Beats the child application emits before exiting.
    const CHILD_BEATS: u64 = 400;
    /// The application's (simulated) uncontrolled heart rate: 50 ms/beat.
    const BEAT_PERIOD_MS: u64 = 50;

    // A synthetic calibrated knob table: five settings trading up to 4x
    // speedup for up to 6% QoS loss (what `PowerDialSystem::build` would
    // produce from a real calibration run).
    let speedups = [1.0, 1.5, 2.0, 3.0, 4.0];
    let values: Vec<f64> = (0..speedups.len()).map(|i| i as f64).collect();
    let space = ParameterSpace::builder()
        .parameter(ConfigParameter::new("sims", values, 0.0)?)
        .build()?;
    let points: Vec<CalibrationPoint> = speedups
        .iter()
        .enumerate()
        .map(|(i, &s)| CalibrationPoint {
            setting_index: i,
            setting: space.setting(i).unwrap(),
            speedup: s,
            qos_loss: QosLoss::new((s - 1.0) * 0.02),
        })
        .collect();
    let table = KnobTable::from_points(points, 0, QosLossBound::UNBOUNDED)?;

    // 1. Controller process: bind the attach broker on a well-known
    //    socket path (a real deployment would use
    //    /run/powerdial/broker.sock or $XDG_RUNTIME_DIR — see the
    //    deployment note in powerdial_heartbeats::shm).
    let socket_path =
        std::env::temp_dir().join(format!("powerdial-example-{}.sock", std::process::id()));
    let mut broker = AttachBroker::bind(BrokerConfig::new(&socket_path))?;
    let mut daemon = PowerDialDaemon::new(DaemonConfig {
        workers: 0,
        inline_apps: 0,
        ..DaemonConfig::default()
    })?;
    println!(
        "controller: broker listening on {} (target 30 beats/s)\n",
        socket_path.display()
    );

    // 2. Fork the application process. The child shares *nothing* with
    //    the controller but the socket path: it registers through the
    //    broker, receives the segment fd over SCM_RIGHTS, and talks
    //    shared memory from then on.
    let child_socket = socket_path.clone();
    let child = fork_child(move || {
        let Ok(mut client) = PowerDialClient::register(&child_socket, ClientConfig::default())
        else {
            return 1;
        };
        let mut now = Timestamp::ZERO;
        let mut boosted = false;
        for tag in 0..CHILD_BEATS {
            now += TimestampDelta::from_millis(if tag == 0 { 0 } else { BEAT_PERIOD_MS });
            // The quantum pacing below keeps in-flight beats far under
            // the ring capacity, so a rejected beat is a protocol bug.
            if client.beat(now).is_err() {
                return 2;
            }
            // Pace the (simulated-time) stream against the real
            // controller: after each 20-beat quantum, wait for the daemon
            // to drain, then read the decision it published back through
            // the segment.
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
        // The bidirectional proof: this process observed its own boost
        // through shared memory, with no help from the controller side.
        if boosted {
            0
        } else {
            4
        }
    })?;
    println!(
        "controller: forked application process (pid {})",
        child.pid()
    );

    // 3. The control loop: serve at most one broker connection and one
    //    actuation quantum per iteration. The reaper doubles as the
    //    loop's liveness escape: when the application exits (or dies
    //    early), its segment drains dry, `reap_dead` fires, and the
    //    controller stops waiting instead of spinning forever.
    let mut view: Option<powerdial::control::daemon::DecisionView> = None;
    let mut quantum = 0u64;
    let mut reaped = Vec::new();
    while view
        .as_ref()
        .is_none_or(|app| app.beats_processed() < CHILD_BEATS)
        && reaped.is_empty()
    {
        if let Some(outcome) = broker.poll_accept(daemon.app_count(), |request| {
            let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0)?);
            match request {
                powerdial::control::AttachRequest::Fresh(consumer) => {
                    daemon.register_shm(config, table.clone(), consumer)
                }
                powerdial::control::AttachRequest::Reattach(consumer) => {
                    daemon.register_shm_adopted(config, table.clone(), consumer)
                }
            }
        })? {
            match outcome {
                AttachOutcome::Granted(granted) => {
                    println!(
                        "controller: granted attach, registered shm app {:?}",
                        granted.id()
                    );
                    view = Some(granted);
                }
                other => return Err(format!("unexpected attach outcome: {other:?}").into()),
            }
        }
        let beats = daemon.tick();
        if beats > 0 {
            quantum += 1;
            if quantum % 5 == 1 {
                let app = view.as_ref().expect("beats imply a registered app");
                println!(
                    "quantum {:>3}: {:>3} beats drained  gain {:>5.2}x  achieved {:>5.2}x  qos loss {:>6.3}%",
                    quantum,
                    beats,
                    app.latest_gain().unwrap_or(1.0),
                    app.achieved_speedup().unwrap_or(1.0),
                    app.expected_qos_loss().unwrap_or(0.0) * 100.0,
                );
            }
        }
        reaped = daemon.reap_dead();
        std::hint::spin_loop();
    }

    // 4. The child's exit code is the verdict: 0 only if it read a
    //    boosted gain back through the segment.
    let status = child.wait()?;
    let app = view.ok_or("application exited without ever attaching")?;
    if app.beats_processed() < CHILD_BEATS {
        return Err(format!(
            "application died early ({status:?}) after {} of {CHILD_BEATS} beats",
            app.beats_processed()
        )
        .into());
    }
    assert_eq!(
        status,
        ChildExit::Exited(0),
        "application failed to observe its boost through shared memory"
    );
    println!(
        "\ncontroller: application exited having read its boosted gain via shm; \
         {} beats processed, final gain {:.2}x",
        app.beats_processed(),
        app.latest_gain().unwrap_or(1.0)
    );
    assert!(
        app.latest_gain().unwrap_or(1.0) > 1.0,
        "a 20 beats/s app under a 30 beats/s target must be boosted"
    );
    // 5. Reap: the application has exited, so the segment's producer
    //    claim is stale; once the ring is drained the daemon lets go of
    //    the mapping and resets the decision block for any future reuse.
    //    (The loop above may already have done it: an exit is seen when
    //    it happens, whether or not anybody has waited for the zombie.)
    if reaped.is_empty() {
        daemon.tick();
        reaped = daemon.reap_dead();
    }
    println!("controller: reaped abandoned segments: {reaped:?}");
    assert_eq!(reaped, vec![app.id()]);
    assert_eq!(daemon.app_count(), 0);
    Ok(())
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("shm_external_controller requires Linux (fork + mmap + SCM_RIGHTS broker)");
}
