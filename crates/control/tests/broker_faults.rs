//! Fault injection against the attach broker: every hostile, broken, or
//! unlucky connection is contained to that one connection, and the
//! accept loop keeps serving.
//!
//! Each test connects an in-process `UnixStream` (no fork needed — the
//! broker cannot tell) and injects one failure mode from the broker's
//! robustness posture: truncated hellos, wrong magic, reserved flags,
//! ABI mismatches, silent peers (slow-loris), connection storms past the
//! app limit, registration failures, peers that vanish between hello and
//! fd delivery, stolen socket paths, stale socket files left by a
//! crashed daemon, and a daemon with no file descriptor left to accept
//! with. After each injected failure, a well-formed attach must still be
//! granted over the same listener.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use powerdial_control::daemon::{DaemonConfig, DecisionView, PowerDialDaemon};
use powerdial_control::{
    AttachBroker, AttachOutcome, AttachRequest, BrokerConfig, BrokerError, ControlError,
    ControllerConfig, RuntimeConfig,
};
use powerdial_heartbeats::channel::BeatSample;
use powerdial_heartbeats::shm::process::{fork_child, ChildExit};
use powerdial_heartbeats::shm::{
    recv_exact_with_fd, send_with_fd, HelloReply, HelloRequest, HelloStatus, Segment,
    SegmentGeometry, ShmConsumer, ShmProducer, HELLO_REPLY_LEN, SEGMENT_ABI_VERSION,
};
use powerdial_heartbeats::{HeartbeatTag, Timestamp, TimestampDelta};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

/// A unique socket path per test (the suite runs tests concurrently).
fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pd-broker-{}-{name}.sock", std::process::id()))
}

fn test_table() -> KnobTable {
    let speedups = [1.0, 2.0, 4.0];
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
        channel_capacity: 64,
        inline_apps: 0,
        ..DaemonConfig::default()
    })
    .unwrap()
}

fn register_with(
    daemon: &mut PowerDialDaemon,
) -> impl FnOnce(AttachRequest) -> Result<DecisionView, ControlError> + '_ {
    |request| {
        let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0)?);
        match request {
            AttachRequest::Fresh(consumer) => daemon.register_shm(config, test_table(), consumer),
            AttachRequest::Reattach(consumer) => {
                daemon.register_shm_adopted(config, test_table(), consumer)
            }
        }
    }
}

/// Polls until the queued connection is served (accept is nonblocking;
/// the connect may still be in flight when poll_accept first runs).
fn serve_one(
    broker: &mut AttachBroker,
    daemon: &mut PowerDialDaemon,
    current_apps: usize,
) -> AttachOutcome {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(outcome) = broker
            .poll_accept(current_apps, register_with(daemon))
            .unwrap()
        {
            return outcome;
        }
        assert!(Instant::now() < deadline, "queued connection never served");
        std::thread::yield_now();
    }
}

/// Reads the broker's reply from the client end.
fn read_reply(stream: &mut UnixStream) -> HelloReply {
    let mut reply = [0u8; HELLO_REPLY_LEN];
    stream.read_exact(&mut reply).unwrap();
    HelloReply::decode(&reply).unwrap()
}

/// Completes a full, valid attach over `broker`, proving the accept loop
/// survived whatever the test injected before.
fn assert_still_grants(broker: &mut AttachBroker, daemon: &mut PowerDialDaemon) {
    let mut stream = UnixStream::connect(broker.socket_path()).unwrap();
    stream.write_all(&HelloRequest::new(64).encode()).unwrap();
    let apps = daemon.app_count();
    let outcome = serve_one(broker, daemon, apps);
    let AttachOutcome::Granted(view) = outcome else {
        panic!("expected a grant after recovery, got {outcome:?}");
    };

    let mut reply = [0u8; HELLO_REPLY_LEN];
    let fd = recv_exact_with_fd(&stream, &mut reply).unwrap();
    assert_eq!(read_status(&reply), HelloStatus::Granted);
    let segment = Segment::attach_fd(std::fs::File::from(fd.unwrap())).unwrap();

    // The granted segment is live end to end: a beat pushed by the
    // client is drained and decided by the daemon.
    let mut producer = powerdial_heartbeats::shm::ShmProducer::attach(Arc::new(segment)).unwrap();
    producer
        .try_push(BeatSample {
            tag: HeartbeatTag(0),
            timestamp: Timestamp::ZERO,
            latency: TimestampDelta::ZERO,
        })
        .unwrap();
    daemon.tick();
    assert_eq!(view.beats_processed(), 1);
    daemon.unregister(view.id());
}

fn read_status(reply: &[u8; HELLO_REPLY_LEN]) -> HelloStatus {
    HelloReply::decode(reply).unwrap().status
}

#[test]
fn truncated_hello_is_contained_to_its_connection() {
    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("truncated"))).unwrap();
    let mut daemon = inline_daemon();

    let mut stream = UnixStream::connect(broker.socket_path()).unwrap();
    stream.write_all(&[0xAB; 10]).unwrap();
    drop(stream); // EOF mid-hello

    let outcome = serve_one(&mut broker, &mut daemon, 0);
    assert!(matches!(outcome, AttachOutcome::Disconnected));
    assert_eq!(broker.granted(), 0);
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn silent_client_is_bounded_by_the_connection_timeout() {
    let mut config = BrokerConfig::new(socket_path("silent"));
    config.connection_timeout = Duration::from_millis(50);
    let mut broker = AttachBroker::bind(config).unwrap();
    let mut daemon = inline_daemon();

    // Connect and say nothing: a slow-loris peer.
    let stream = UnixStream::connect(broker.socket_path()).unwrap();
    let started = Instant::now();
    let outcome = serve_one(&mut broker, &mut daemon, 0);
    assert!(matches!(outcome, AttachOutcome::Disconnected));
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the broker must not hang on a silent peer"
    );
    drop(stream);
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn wrong_magic_is_refused_malformed() {
    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("magic"))).unwrap();
    let mut daemon = inline_daemon();

    let mut stream = UnixStream::connect(broker.socket_path()).unwrap();
    let mut hello = HelloRequest::new(64).encode();
    hello[0..8].copy_from_slice(b"NOTMAGIC");
    stream.write_all(&hello).unwrap();

    let outcome = serve_one(&mut broker, &mut daemon, 0);
    assert!(matches!(
        outcome,
        AttachOutcome::Refused(HelloStatus::Malformed)
    ));
    let reply = read_reply(&mut stream);
    assert_eq!(reply.status, HelloStatus::Malformed);
    assert_eq!(reply.abi_version, SEGMENT_ABI_VERSION);
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn reserved_flags_and_zero_capacity_are_refused_malformed() {
    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("flags"))).unwrap();
    let mut daemon = inline_daemon();

    // An unknown flag bit (flags=1 is now HELLO_FLAG_REATTACH, a *known*
    // bit — an unknown one must still be refused for cross-version safety).
    let mut stream = UnixStream::connect(broker.socket_path()).unwrap();
    let mut hello = HelloRequest::new(64).encode();
    hello[12..16].copy_from_slice(&0x8000_0000u32.to_le_bytes()); // reserved flags
    stream.write_all(&hello).unwrap();
    let outcome = serve_one(&mut broker, &mut daemon, 0);
    assert!(matches!(
        outcome,
        AttachOutcome::Refused(HelloStatus::Malformed)
    ));
    assert_eq!(read_reply(&mut stream).status, HelloStatus::Malformed);

    let mut stream = UnixStream::connect(broker.socket_path()).unwrap();
    stream.write_all(&HelloRequest::new(0).encode()).unwrap();
    let outcome = serve_one(&mut broker, &mut daemon, 0);
    assert!(matches!(
        outcome,
        AttachOutcome::Refused(HelloStatus::Malformed)
    ));
    assert_eq!(read_reply(&mut stream).status, HelloStatus::Malformed);
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn abi_mismatch_is_refused_wrong_abi() {
    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("abi"))).unwrap();
    let mut daemon = inline_daemon();

    let mut stream = UnixStream::connect(broker.socket_path()).unwrap();
    let mut hello = HelloRequest::new(64).encode();
    hello[8..12].copy_from_slice(&(SEGMENT_ABI_VERSION + 1).to_le_bytes());
    stream.write_all(&hello).unwrap();

    let outcome = serve_one(&mut broker, &mut daemon, 0);
    assert!(matches!(
        outcome,
        AttachOutcome::Refused(HelloStatus::WrongAbi)
    ));
    // The reply names the broker's ABI so the client can log the skew.
    let reply = read_reply(&mut stream);
    assert_eq!(reply.status, HelloStatus::WrongAbi);
    assert_eq!(reply.abi_version, SEGMENT_ABI_VERSION);
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn connection_storm_past_max_apps_is_refused_busy() {
    let mut config = BrokerConfig::new(socket_path("storm"));
    config.max_apps = 3;
    let mut broker = AttachBroker::bind(config).unwrap();
    let mut daemon = inline_daemon();

    // A storm of clients against a full daemon: every one refused with a
    // fixed-cost Busy, none registered, the broker still standing.
    let mut streams = Vec::new();
    for _ in 0..8 {
        let mut stream = UnixStream::connect(broker.socket_path()).unwrap();
        stream.write_all(&HelloRequest::new(64).encode()).unwrap();
        streams.push(stream);
    }
    for _ in 0..8 {
        let outcome = serve_one(&mut broker, &mut daemon, 3);
        assert!(matches!(outcome, AttachOutcome::Refused(HelloStatus::Busy)));
    }
    for stream in &mut streams {
        assert_eq!(read_reply(stream).status, HelloStatus::Busy);
    }
    assert_eq!(broker.granted(), 0);
    assert_eq!(daemon.app_count(), 0);

    // Below the limit the same broker grants again.
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn registration_failure_is_refused_resources() {
    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("regfail"))).unwrap();

    let mut stream = UnixStream::connect(broker.socket_path()).unwrap();
    stream.write_all(&HelloRequest::new(64).encode()).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let outcome = loop {
        let polled = broker
            .poll_accept(0, |_request| Err(ControlError::ZeroQuantum))
            .unwrap();
        if let Some(outcome) = polled {
            break outcome;
        }
        assert!(Instant::now() < deadline);
        std::thread::yield_now();
    };
    assert!(matches!(
        outcome,
        AttachOutcome::Refused(HelloStatus::Resources)
    ));
    assert_eq!(read_reply(&mut stream).status, HelloStatus::Resources);

    let mut daemon = inline_daemon();
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn client_vanishing_before_fd_delivery_is_grant_abandoned() {
    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("vanish"))).unwrap();
    let mut daemon = inline_daemon();

    // The hello is buffered in the socket, then the client dies before
    // the broker even accepts: registration succeeds, fd delivery fails.
    let mut stream = UnixStream::connect(broker.socket_path()).unwrap();
    stream.write_all(&HelloRequest::new(64).encode()).unwrap();
    drop(stream);

    let outcome = serve_one(&mut broker, &mut daemon, 0);
    let AttachOutcome::GrantAbandoned(view) = outcome else {
        panic!("expected GrantAbandoned, got {outcome:?}");
    };
    // The orphan is registered but its producer slot will stay Absent
    // forever — the reaper must NOT collect it; the caller does.
    assert_eq!(daemon.app_count(), 1);
    assert!(daemon.reap_dead().is_empty());
    assert!(daemon.unregister(view.id()));
    assert_eq!(daemon.app_count(), 0);
    assert_eq!(broker.granted(), 0, "an abandoned grant is not a grant");

    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn live_socket_is_not_stolen_but_stale_debris_is_recovered() {
    let path = socket_path("stale");

    // A live broker owns the path: binding again is a configuration
    // error, not a theft.
    let broker = AttachBroker::bind(BrokerConfig::new(&path)).unwrap();
    match AttachBroker::bind(BrokerConfig::new(&path)) {
        Err(BrokerError::AlreadyRunning { path: contested }) => assert_eq!(contested, path),
        other => panic!("expected AlreadyRunning, got {other:?}"),
    }
    drop(broker); // orderly shutdown unlinks the socket

    // Debris from a crashed daemon: a socket file nobody listens on.
    // (Dropping a std UnixListener closes the fd but leaves the file.)
    let crashed = UnixListener::bind(&path).unwrap();
    drop(crashed);
    assert!(path.exists(), "the crash scenario needs leftover debris");

    // The probe-connect finds no listener, unlinks, and rebinds.
    let mut broker = AttachBroker::bind(BrokerConfig::new(&path)).unwrap();
    let mut daemon = inline_daemon();
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn socket_removed_mid_accept_is_detected() {
    let path = socket_path("removed");
    let mut broker = AttachBroker::bind(BrokerConfig::new(&path)).unwrap();
    let mut daemon = inline_daemon();
    assert!(!broker.socket_missing());

    // Already-queued connections still complete after the unlink (the
    // listener fd outlives the name)...
    let mut stream = UnixStream::connect(&path).unwrap();
    stream.write_all(&HelloRequest::new(64).encode()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let outcome = serve_one(&mut broker, &mut daemon, 0);
    assert!(matches!(outcome, AttachOutcome::Granted(_)));

    // ...but no new client can reach the broker, and the daemon can see
    // why and rebind.
    assert!(broker.socket_missing());
    assert!(UnixStream::connect(&path).is_err());
    drop(broker);
    let mut broker = AttachBroker::bind(BrokerConfig::new(&path)).unwrap();
    assert!(!broker.socket_missing());
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn idle_listener_polls_to_none() {
    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("idle"))).unwrap();
    let polled = broker
        .poll_accept(0, |_request| Err(ControlError::ZeroQuantum))
        .unwrap();
    assert!(polled.is_none(), "no pending connection must not block");
}

#[test]
fn reattach_hello_adopts_existing_segment_without_returning_fd() {
    use std::sync::atomic::Ordering;

    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("reattach"))).unwrap();
    let mut daemon = inline_daemon();

    // A segment from a previous daemon lifetime: producer (the client)
    // alive, consumer claim left stale by the dead daemon, beats pushed
    // across the outage waiting in the ring.
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
    let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
    segment
        .header()
        .consumer_pid
        .store(0x7FFF_FF00, Ordering::Release);
    for tag in 0..3u64 {
        producer
            .try_push(BeatSample {
                tag: HeartbeatTag(tag),
                timestamp: Timestamp::from_millis(tag * 40),
                latency: TimestampDelta::from_millis(40 * tag.min(1)),
            })
            .unwrap();
    }

    let stream = UnixStream::connect(broker.socket_path()).unwrap();
    send_with_fd(
        &stream,
        &HelloRequest::reattach(64).encode(),
        Some(segment.as_raw_fd()),
    )
    .unwrap();
    let outcome = serve_one(&mut broker, &mut daemon, 0);
    let AttachOutcome::Granted(view) = outcome else {
        panic!("expected a reattach grant, got {outcome:?}");
    };
    assert_eq!(daemon.app_count(), 1);

    // A granted reattach reply carries no fd — the client already holds
    // the mapping.
    let mut reply = [0u8; HELLO_REPLY_LEN];
    let fd = recv_exact_with_fd(&stream, &mut reply).unwrap();
    assert_eq!(read_status(&reply), HelloStatus::Granted);
    assert!(fd.is_none(), "reattach grant must not return an fd");

    // The outage beats drain on the first tick; the segment is live end
    // to end again.
    assert_eq!(daemon.tick(), 3);
    assert_eq!(view.beats_processed(), 3);
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn reattach_without_fd_is_malformed() {
    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("reattach-nofd"))).unwrap();
    let mut daemon = inline_daemon();

    let mut stream = UnixStream::connect(broker.socket_path()).unwrap();
    stream
        .write_all(&HelloRequest::reattach(64).encode())
        .unwrap();
    let outcome = serve_one(&mut broker, &mut daemon, 0);
    assert!(matches!(
        outcome,
        AttachOutcome::Refused(HelloStatus::Malformed)
    ));
    assert_eq!(read_reply(&mut stream).status, HelloStatus::Malformed);
    assert_eq!(daemon.app_count(), 0);
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn fresh_hello_with_smuggled_fd_is_malformed() {
    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("smuggled"))).unwrap();
    let mut daemon = inline_daemon();

    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap());
    let stream = UnixStream::connect(broker.socket_path()).unwrap();
    send_with_fd(
        &stream,
        &HelloRequest::new(64).encode(),
        Some(segment.as_raw_fd()),
    )
    .unwrap();
    let outcome = serve_one(&mut broker, &mut daemon, 0);
    assert!(matches!(
        outcome,
        AttachOutcome::Refused(HelloStatus::Malformed)
    ));
    assert_eq!(daemon.app_count(), 0);
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn reattach_with_garbage_fd_is_malformed() {
    use std::os::fd::AsRawFd;

    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("garbage-fd"))).unwrap();
    let mut daemon = inline_daemon();

    // /dev/null is a perfectly good fd and a perfectly bad segment.
    let junk = std::fs::File::open("/dev/null").unwrap();
    let stream = UnixStream::connect(broker.socket_path()).unwrap();
    send_with_fd(
        &stream,
        &HelloRequest::reattach(64).encode(),
        Some(junk.as_raw_fd()),
    )
    .unwrap();
    let outcome = serve_one(&mut broker, &mut daemon, 0);
    assert!(matches!(
        outcome,
        AttachOutcome::Refused(HelloStatus::Malformed)
    ));
    assert_eq!(daemon.app_count(), 0);
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn reattach_of_live_consumer_is_refused_busy() {
    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("live-consumer"))).unwrap();
    let mut daemon = inline_daemon();

    // The consumer role is held by a *live* process (this one): nothing
    // to step over — a retryable Busy, not an adoption.
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap());
    let _producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
    let _live_consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

    let stream = UnixStream::connect(broker.socket_path()).unwrap();
    send_with_fd(
        &stream,
        &HelloRequest::reattach(16).encode(),
        Some(segment.as_raw_fd()),
    )
    .unwrap();
    let outcome = serve_one(&mut broker, &mut daemon, 0);
    assert!(matches!(outcome, AttachOutcome::Refused(HelloStatus::Busy)));
    assert_eq!(daemon.app_count(), 0);
    assert_still_grants(&mut broker, &mut daemon);
}

#[test]
fn requested_capacity_is_clamped_to_the_configured_ceiling() {
    let mut broker = AttachBroker::bind(BrokerConfig::new(socket_path("clamp"))).unwrap();
    let mut daemon = inline_daemon();

    let mut stream = UnixStream::connect(broker.socket_path()).unwrap();
    stream
        .write_all(&HelloRequest::new(1_000_000).encode())
        .unwrap();
    let outcome = serve_one(&mut broker, &mut daemon, 0);
    assert!(matches!(outcome, AttachOutcome::Granted(_)));

    let mut reply = [0u8; HELLO_REPLY_LEN];
    let fd = recv_exact_with_fd(&stream, &mut reply).unwrap();
    assert_eq!(read_status(&reply), HelloStatus::Granted);
    let segment = Segment::attach_fd(std::fs::File::from(fd.unwrap())).unwrap();
    assert_eq!(
        segment.geometry().capacity(),
        4096,
        "a greedy request is clamped to BrokerConfig::max_capacity"
    );
}

mod rlimit {
    pub const RLIMIT_NOFILE: i32 = 7;
    pub const EMFILE: i32 = 24;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct RLimit {
        pub current: u64,
        pub maximum: u64,
    }

    extern "C" {
        pub fn getrlimit(resource: i32, limit: *mut RLimit) -> i32;
        pub fn setrlimit(resource: i32, limit: *const RLimit) -> i32;
    }

    /// Lowers this process's soft descriptor limit to zero — everything
    /// open stays open, nothing new can be — and returns the limit it
    /// replaced. `Err` is an exit code.
    pub fn exhaust_fds() -> Result<RLimit, i32> {
        let mut saved = RLimit {
            current: 0,
            maximum: 0,
        };
        // SAFETY: both are valid `struct rlimit`s for their calls.
        unsafe {
            if getrlimit(RLIMIT_NOFILE, &mut saved) != 0 {
                return Err(30);
            }
            let starved = RLimit {
                current: 0,
                ..saved
            };
            if setrlimit(RLIMIT_NOFILE, &starved) != 0 {
                return Err(31);
            }
        }
        match std::fs::File::open("/proc/self/stat") {
            Err(error) if error.raw_os_error() == Some(EMFILE) => Ok(saved),
            _ => Err(32),
        }
    }

    /// Puts back the limit [`exhaust_fds`] replaced.
    pub fn release_fds(saved: &RLimit) -> Result<(), i32> {
        // SAFETY: `saved` is a valid `struct rlimit`.
        if unsafe { setrlimit(RLIMIT_NOFILE, saved) } != 0 {
            return Err(33);
        }
        Ok(())
    }
}

/// The body of [`a_daemon_out_of_descriptors_keeps_its_apps_and_its_queue`],
/// in a process of its own. The return value is its exit code: 0, or the
/// step that went wrong.
fn serve_through_fd_exhaustion() -> Result<(), i32> {
    let path = socket_path("emfile");
    let mut broker = AttachBroker::bind(BrokerConfig::new(&path)).map_err(|_| 10)?;
    let mut daemon = inline_daemon();

    // One app attaches while there are descriptors…
    let mut early = UnixStream::connect(&path).map_err(|_| 11)?;
    early
        .write_all(&HelloRequest::new(64).encode())
        .map_err(|_| 12)?;
    let Ok(Some(AttachOutcome::Granted(view))) = broker.poll_accept(0, register_with(&mut daemon))
    else {
        return Err(13);
    };
    let mut reply = [0u8; HELLO_REPLY_LEN];
    let fd = recv_exact_with_fd(&early, &mut reply)
        .ok()
        .flatten()
        .ok_or(14)?;
    let segment = Segment::attach_fd(std::fs::File::from(fd)).map_err(|_| 15)?;
    let mut producer = ShmProducer::attach(Arc::new(segment)).map_err(|_| 16)?;

    // …and one connects and says hello just before they run out (its own
    // end of the connection needs one too), so it waits in the backlog.
    let mut late = UnixStream::connect(&path).map_err(|_| 17)?;
    late.write_all(&HelloRequest::new(64).encode())
        .map_err(|_| 18)?;
    let saved = rlimit::exhaust_fds()?;

    // `accept` now fails with EMFILE. That is nobody's fault and nothing
    // is wrong with the listener: no error, nobody served, again and again.
    let mut decisions = Vec::new();
    let mut tag = 0u64;
    for _quantum in 0..6 {
        match broker.poll_accept(daemon.app_count(), register_with(&mut daemon)) {
            Ok(None) => {}
            // What it did before the fix: `daemon_process` answers this
            // with `return 12`, and every attached app loses its daemon.
            Err(BrokerError::Listener(_)) => return Err(20),
            Ok(Some(_)) | Err(_) => return Err(21),
        }
        // The app attached before is still controlled: it beats too
        // slowly, and the decisions it reads back keep moving.
        for _ in 0..20 {
            producer
                .try_push(BeatSample {
                    tag: HeartbeatTag(tag),
                    timestamp: Timestamp::from_millis(tag * 50),
                    latency: TimestampDelta::from_millis(if tag == 0 { 0 } else { 50 }),
                })
                .map_err(|_| 22)?;
            tag += 1;
        }
        if daemon.tick() != 20 || !daemon.reap_dead().is_empty() {
            return Err(23);
        }
        let powerdial_heartbeats::shm::DecisionRead::Ready(decision) = producer.read_decision()
        else {
            return Err(24);
        };
        decisions.push(decision.gain_bits);
    }
    decisions.dedup();
    if decisions.len() < 3 || view.beats_processed() != tag {
        return Err(25);
    }

    // A descriptor comes free: the client that waited is served by the
    // next poll, with the hello it sent before the shortage.
    rlimit::release_fds(&saved)?;
    let Ok(Some(AttachOutcome::Granted(_))) =
        broker.poll_accept(daemon.app_count(), register_with(&mut daemon))
    else {
        return Err(26);
    };
    let granted = recv_exact_with_fd(&late, &mut reply).map_err(|_| 27)?;
    if read_status(&reply) != HelloStatus::Granted || granted.is_none() {
        return Err(28);
    }
    if daemon.app_count() != 2 || broker.granted() != 2 {
        return Err(29);
    }
    Ok(())
}

/// Regression: `accept` failing for want of a descriptor (`EMFILE`; the
/// same goes for `ENFILE`, `ENOBUFS`, `ENOMEM`) used to surface as
/// `BrokerError::Listener`, which the supervised daemon answers by
/// exiting — one newcomer at a daemon's descriptor limit took every
/// attached app's controller down. It is a transient state of the
/// process: the poll reports nobody, the connection stays queued, the
/// attached apps go on being controlled, and the newcomer is granted once
/// a descriptor is to be had. Forked, because the limit is per process.
#[test]
fn a_daemon_out_of_descriptors_keeps_its_apps_and_its_queue() {
    let child = fork_child(|| match serve_through_fd_exhaustion() {
        Ok(()) => 0,
        Err(code) => code,
    })
    .unwrap();
    assert_eq!(
        child.wait().unwrap(),
        ChildExit::Exited(0),
        "exit code = the failed step of serve_through_fd_exhaustion \
         (20: poll_accept returned Err(Listener), the bug)"
    );
}
