//! The acceptance test of the client's stale-decision policy: a **real
//! forked daemon is SIGKILLed** under the application, and the client
//! degrades — last-known-good within the grace window, then the
//! configured safe state — without ever panicking or blocking.
//!
//! The daemon child owns the consumer side of the segment (its PID is in
//! the consumer slot), ticks a real `PowerDialDaemon`, and publishes
//! real decisions through the decision block; the parent is the
//! application, beating too slowly on purpose so the controller dials in
//! a boost the client can watch for.

#![cfg(unix)]

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use powerdial_client::{ClientConfig, CurrentDecision, Decision, DecisionSource, PowerDialClient};
use powerdial_control::daemon::{DaemonConfig, PowerDialDaemon};
use powerdial_control::{ControllerConfig, RuntimeConfig};
use powerdial_heartbeats::shm::process::{fork_child, ChildExit};
use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer};
use powerdial_heartbeats::Timestamp;
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

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

/// Forks a real daemon process that attaches the consumer side of
/// `segment`, registers it, and ticks until killed.
fn fork_daemon(segment: &Arc<Segment>) -> powerdial_heartbeats::shm::process::ForkedChild {
    fork_child({
        let segment = Arc::clone(segment);
        move || {
            let Ok(consumer) = ShmConsumer::attach(segment) else {
                return 1;
            };
            let Ok(mut daemon) = PowerDialDaemon::new(DaemonConfig {
                workers: 0,
                channel_capacity: 64,
                inline_apps: 0,
                ..DaemonConfig::default()
            }) else {
                return 2;
            };
            let Ok(config) = ControllerConfig::new(30.0, 30.0) else {
                return 3;
            };
            if daemon
                .register_shm(RuntimeConfig::new(config), test_table(), consumer)
                .is_err()
            {
                return 4;
            }
            loop {
                daemon.tick();
                std::hint::spin_loop();
            }
        }
    })
    .unwrap()
}

/// Beats (too slowly for the 30 beats/s target) until the client reads a
/// boosted decision back from the live daemon, returning that decision.
fn beat_until_boosted(client: &mut PowerDialClient) -> Decision {
    let mut tag = 0u64;
    loop {
        assert!(tag < 1_000_000, "daemon never published a boost");
        // 50 ms simulated period = 20 beats/s against a 30 beats/s
        // target; drops on a briefly full ring are harmless here.
        let _ = client.beat(Timestamp::from_millis(tag * 50));
        tag += 1;
        let current = client.current_decision();
        if current.source == DecisionSource::Published && current.decision.gain > 1.0 {
            return current.decision;
        }
        std::thread::yield_now();
    }
}

/// How long after a SIGKILLed daemon has been reaped a poll may still be
/// served `Published`. The client samples the daemon's liveness once per
/// 100 µs (see `current_decision`: "liveness is sampled"), so that is the
/// bound; the rest is slack. It is held against the moment a poll
/// *starts*, which a descheduled test thread cannot stretch: a poll that
/// starts this long after the reap and still reads `Published` is a
/// failure however long it then took. Reaping a small process takes a few
/// tens of microseconds here, less than one sample period, which is why
/// no test below may expect the *first* poll after `wait()` to have
/// noticed.
const DEATH_NOTICED_WITHIN: Duration = Duration::from_millis(5);

/// Polls without pause until the client stops serving `Published` and
/// returns that first degraded read; no poll started
/// [`DEATH_NOTICED_WITHIN`] or more after `reaped` may read `Published`.
fn poll_until_degraded(client: &mut PowerDialClient, reaped: Instant) -> CurrentDecision {
    loop {
        let started = Instant::now();
        let current = client.current_decision();
        if current.source != DecisionSource::Published {
            return current;
        }
        let late = started.saturating_duration_since(reaped);
        assert!(
            late < DEATH_NOTICED_WITHIN,
            "a poll started {late:?} after the daemon was reaped read Published"
        );
    }
}

/// The one behaviour sampling adds: a client that polls faster than the
/// sample period keeps polling straight through a real SIGKILL, and is off
/// `Published` within the bound — here with the kill issued from a second
/// thread, so the poll loop never pauses and its verdict is never stale by
/// accident.
#[test]
fn spin_polling_client_notices_a_sigkill_within_the_sampling_bound() {
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
    let daemon = fork_daemon(&segment);
    let config = ClientConfig {
        grace: Duration::ZERO,
        ..ClientConfig::default()
    };
    let mut client = PowerDialClient::attach_segment(Arc::clone(&segment), config).unwrap();
    beat_until_boosted(&mut client);

    let probes_before = client.ladder_telemetry().liveness_probes();
    let polls_before = client.ladder_telemetry().total_polls();
    let spinning_since = Instant::now();
    let killer = std::thread::spawn(move || {
        // Let the poll loop run hot for a while first.
        std::thread::sleep(Duration::from_millis(20));
        daemon.kill().unwrap();
        assert!(matches!(daemon.wait().unwrap(), ChildExit::Signaled(_)));
        Instant::now()
    });
    // Alive, then a zombie `kill` still answers for, then gone: the first
    // read that is not `Published` ends the loop.
    let mut last_published_poll = spinning_since;
    let (degraded, noticed) = loop {
        let started = Instant::now();
        let current = client.current_decision();
        if current.source != DecisionSource::Published {
            break (current, started);
        }
        last_published_poll = started;
        assert!(
            started.duration_since(spinning_since) < Duration::from_secs(30),
            "still Published long after the daemon was killed"
        );
    };
    assert_eq!(degraded.source, DecisionSource::SafeState, "zero grace");
    let reaped = killer.join().unwrap();
    let late = last_published_poll.saturating_duration_since(reaped);
    assert!(
        late < DEATH_NOTICED_WITHIN,
        "a poll started {late:?} after the daemon was reaped read Published"
    );

    // And it was sampling all the way there: at most one probe per sample
    // period (and the one that found the daemon gone), far fewer than polls.
    let ladder = client.ladder_telemetry();
    let probes = ladder.liveness_probes() - probes_before;
    let polls = ladder.total_polls() - polls_before;
    let periods = noticed.duration_since(spinning_since).as_micros() as u64 / 100;
    assert!(
        probes <= periods + 2,
        "{probes} probes in {periods} periods"
    );
    assert!(polls > 4 * probes, "{polls} polls made {probes} probes");
}

#[test]
fn sigkilled_daemon_degrades_to_last_known_good_within_grace() {
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
    let daemon = fork_daemon(&segment);

    let config = ClientConfig {
        grace: Duration::from_secs(3600),
        ..ClientConfig::default()
    };
    let mut client = PowerDialClient::attach_segment(Arc::clone(&segment), config).unwrap();
    beat_until_boosted(&mut client);

    // The daemon keeps deciding for as long as beats reach it, and it may
    // decide the boost away again; what has to survive it is the decision
    // it published *last*. So stop beating, let it drain the ring, and
    // wait for the decision block's sequence number to stand still.
    let sequence = || segment.header().decision.seq.load(Ordering::Acquire);
    let deadline = Instant::now() + Duration::from_secs(20);
    let settled = loop {
        assert!(Instant::now() < deadline, "the daemon never went quiet");
        let before = sequence();
        std::thread::sleep(Duration::from_millis(10));
        if client.beats_in_flight() == 0 && before % 2 == 0 && sequence() == before {
            break before;
        }
    };
    let last = client.current_decision();
    assert_eq!(last.source, DecisionSource::Published);

    // SIGKILL the daemon in its (now idle) tick loop. The wait() reaps
    // the zombie so the PID liveness check sees a truly dead process.
    daemon.kill().unwrap();
    assert!(matches!(daemon.wait().unwrap(), ChildExit::Signaled(_)));
    assert_eq!(sequence(), settled, "nothing was published after `last`");
    let degraded = poll_until_degraded(&mut client, Instant::now());
    assert_eq!(degraded.source, DecisionSource::LastKnownGood);

    // Within the grace window the client keeps the last-known-good
    // decision — repeatedly, deterministically, and without panicking.
    for _ in 0..100 {
        let current = client.current_decision();
        assert_eq!(current.source, DecisionSource::LastKnownGood);
        assert_eq!(
            current.decision, last.decision,
            "the last published decision survives the daemon"
        );
    }
    assert!(!client.daemon_state().is_alive());

    // Beats still do not fail catastrophically: the ring simply fills.
    // (The base timestamp sits beyond any beat_until_boosted emitted, so
    // the clock stays monotonic.)
    for tag in 0..200u64 {
        let _ = client.beat(Timestamp::from_millis(100_000_000 + tag * 50));
    }
}

#[test]
fn sigkilled_daemon_with_zero_grace_falls_back_to_configured_safe_state() {
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
    let daemon = fork_daemon(&segment);

    // A distinctive safe state proves the *configured* decision is
    // served, not a hardcoded identity.
    let safe = Decision {
        point_idx: 9,
        gain: 0.5,
        achieved_speedup: 0.5,
        expected_qos_loss: 0.25,
    };
    let config = ClientConfig {
        grace: Duration::ZERO,
        safe_decision: safe,
        ..ClientConfig::default()
    };
    let mut client = PowerDialClient::attach_segment(Arc::clone(&segment), config).unwrap();
    beat_until_boosted(&mut client);

    daemon.kill().unwrap();
    assert!(matches!(daemon.wait().unwrap(), ChildExit::Signaled(_)));

    // Zero grace: the very first observation of the death settles on the
    // safe state — no rung in between, no sleeps in the test.
    let current = poll_until_degraded(&mut client, Instant::now());
    assert_eq!(current.source, DecisionSource::SafeState);
    assert_eq!(current.decision, safe);

    // And it stays there.
    for _ in 0..100 {
        assert_eq!(client.current_decision().source, DecisionSource::SafeState);
    }
}
