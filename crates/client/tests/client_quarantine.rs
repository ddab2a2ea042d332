//! The client side of quarantine: when the daemon quarantines an app,
//! the client does **not** fall down its degradation ladder — it reads a
//! freshly *published* safe-state decision, because the quarantine path
//! publishes the configured safe point through the segment's decision
//! block exactly like a healthy quantum would.
//!
//! That is the contract that makes quarantine invisible to application
//! code: the ladder serves `Published`, the knob lands on the safe
//! point, and the app keeps running (slower) instead of panicking along
//! with the fault.

#![cfg(unix)]

use std::sync::Arc;

use powerdial_client::{ClientConfig, DecisionSource, PowerDialClient};
use powerdial_control::daemon::{DaemonConfig, PowerDialDaemon};
use powerdial_control::{ControllerConfig, QuarantineReason, RuntimeConfig};
use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer};
use powerdial_heartbeats::Timestamp;
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

/// Deliberately not 0: the safe state must be distinguishable from both
/// the identity decision and a reset block.
const SAFE_POINT: u32 = 2;
const SAFE_SPEEDUP: f64 = 2.0;

fn test_table() -> KnobTable {
    let speedups = [1.0, 1.5, SAFE_SPEEDUP, 3.0];
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

#[test]
fn quarantined_apps_client_reads_published_safe_state() {
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
    let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

    // In-process daemon: this process holds the consumer claim, so the
    // client's liveness probe keeps seeing a live daemon throughout —
    // quarantine is a *control* event, not a death.
    let mut daemon = PowerDialDaemon::new(DaemonConfig {
        workers: 0,
        channel_capacity: 64,
        window_size: 8,
        inline_apps: 0,
        safe_point: SAFE_POINT,
        ..DaemonConfig::default()
    })
    .unwrap();
    let view = daemon
        .register_shm(
            RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap()),
            test_table(),
            consumer,
        )
        .unwrap();

    let mut client =
        PowerDialClient::attach_segment(Arc::clone(&segment), ClientConfig::default()).unwrap();

    // Healthy steady state first: beats flow, a published decision comes
    // back. 50 ms period = 20 beats/s against the 30 beats/s target, so
    // the controller publishes a boost.
    let mut tag = 0u64;
    let published = loop {
        assert!(tag < 10_000, "daemon never published a decision");
        let _ = client.beat(Timestamp::from_millis(tag * 50));
        tag += 1;
        daemon.tick();
        let current = client.current_decision();
        if current.source == DecisionSource::Published && current.decision.gain > 1.0 {
            break current.decision;
        }
    };
    assert!(view.quarantine_reason().is_none());

    // The fault: the app's next guarded drain panics and the daemon
    // quarantines it, publishing the configured safe state.
    assert!(daemon.inject_app_panic(view.id()));
    let _ = client.beat(Timestamp::from_millis(tag * 50));
    daemon.tick();
    assert_eq!(view.quarantine_reason(), Some(QuarantineReason::Panic));

    // The very next poll serves the safe state as a *published* decision
    // — top rung of the ladder, no grace window consumed, because the
    // daemon is alive and wrote a consistent block.
    let current = client.current_decision();
    assert_eq!(current.source, DecisionSource::Published);
    assert_eq!(current.decision.point_idx, SAFE_POINT);
    assert_eq!(current.decision.gain.to_bits(), SAFE_SPEEDUP.to_bits());
    assert_eq!(
        current.decision.achieved_speedup.to_bits(),
        SAFE_SPEEDUP.to_bits()
    );
    assert_ne!(
        current.decision.point_idx, published.point_idx,
        "the safe state must be a fresh publication, not the pre-fault decision"
    );

    // And it is stable: further beats are parked (the channel is never
    // drained again) but every poll keeps serving the same safe state.
    for _ in 0..5 {
        let _ = client.beat(Timestamp::from_millis(tag * 50));
        tag += 1;
        daemon.tick();
        let again = client.current_decision();
        assert_eq!(again.source, DecisionSource::Published);
        assert_eq!(again.decision.point_idx, SAFE_POINT);
    }
}
