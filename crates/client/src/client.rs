//! The client proper: attach, beat, read decisions, degrade gracefully.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use powerdial_heartbeats::channel::BeatSample;
use powerdial_heartbeats::shm::{
    jittered_backoff, DecisionRead, PeerState, Segment, ShmDecision, ShmProducer,
};
use powerdial_heartbeats::{HeartbeatTag, Timestamp, TimestampDelta};

use crate::error::ClientError;
use crate::telemetry::LadderTelemetry;

/// Beats between daemon-liveness probes on the beat path. A probe is one
/// atomic load plus (while a daemon is claimed) one `kill(pid, 0)`, so
/// probing every beat would put a syscall on a path documented as
/// syscall-free; probing every 32nd beat bounds the cost at ~3% of beats
/// while still opening the grace window within a fraction of any
/// realistic [`ClientConfig::grace`] for a client that beats but rarely
/// polls.
const BEAT_LIVENESS_STRIDE: u32 = 32;

/// How long [`PowerDialClient::current_decision`] trusts an *alive* verdict
/// on the daemon before asking the kernel again. The probe is a
/// `kill(pid, 0)`, ~160 ns around a decision read of a few nanoseconds, so
/// a client spin-polling for its next decision spent its time asking about
/// a process that is almost never dead; sampled, it asks once per period
/// and a death is noticed at most this much later than it otherwise would
/// be. Fixed, not configurable: it only has to be long against the probe
/// (600 of them) and short against every delay the ladder deals in —
/// [`ClientConfig::grace`] is milliseconds at its smallest useful setting,
/// the reattach backoff starts at [`ClientConfig::retry_backoff`], and
/// reaping a killed daemon (until then a zombie, which `kill` calls alive)
/// takes tens of microseconds by itself.
const LIVENESS_SAMPLE_PERIOD: Duration = Duration::from_micros(100);

/// One control decision, decoded from the segment's decision block.
///
/// The float fields are `f64::from_bits` of the exact words the daemon
/// published, which are in turn the exact words its in-process
/// `DecisionView` serves — a decision read here is bit-identical to the
/// daemon-side view, NaNs and signed zeros included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Index into the application's knob table of the decided setting.
    pub point_idx: u32,
    /// The decided knob gain (instantaneous speedup).
    pub gain: f64,
    /// The achieved (time-averaged) speedup of the planned quantum.
    pub achieved_speedup: f64,
    /// The expected QoS loss of the planned quantum.
    pub expected_qos_loss: f64,
}

impl Decision {
    /// The identity decision: knob point 0, no speedup, no QoS loss —
    /// the conventional safe state (the paper's baseline configuration).
    pub const IDENTITY: Decision = Decision {
        point_idx: 0,
        gain: 1.0,
        achieved_speedup: 1.0,
        expected_qos_loss: 0.0,
    };

    /// Decodes a raw shm decision (bit-preserving).
    pub fn from_shm(shm: &ShmDecision) -> Self {
        Decision {
            point_idx: shm.point_idx,
            gain: shm.gain(),
            achieved_speedup: shm.achieved_speedup(),
            expected_qos_loss: shm.expected_qos_loss(),
        }
    }
}

/// Where a [`CurrentDecision`] came from — the client's degradation
/// ladder, rung by rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionSource {
    /// Read consistently from the decision block of a live daemon.
    Published,
    /// The freshest consistent decision the client holds, served because
    /// the current read was torn or the daemon is gone but still within
    /// the grace window.
    LastKnownGood,
    /// The safe state, served while the client is actively trying to hand
    /// its segment to a restarted daemon through the attach broker: the
    /// daemon is gone past the grace window, a reattach socket is
    /// configured, and rate-limited (jitter-backoff) reattach handshakes
    /// fire from [`PowerDialClient::current_decision`] polls.
    Reattaching,
    /// The configured safe state: no decision has ever been readable, or
    /// the daemon has been gone longer than the grace window with no
    /// reattach path left.
    SafeState,
}

/// A decision plus its provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentDecision {
    /// The knob setting to apply.
    pub decision: Decision,
    /// How trustworthy it is.
    pub source: DecisionSource,
}

/// Client configuration: attach persistence and the stale-decision
/// policy.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Ring capacity (in beat records) to request from the broker.
    pub capacity: u64,
    /// Attach/connect attempts before giving up (minimum 1).
    pub attach_attempts: u32,
    /// Backoff before the second attempt, doubling per further attempt.
    pub retry_backoff: Duration,
    /// Socket read/write timeout for the hello exchange.
    pub hello_timeout: Duration,
    /// After the daemon's death is observed, how long the last-known-good
    /// decision keeps being served before falling back to
    /// [`ClientConfig::safe_decision`]. `Duration::ZERO` falls back
    /// immediately (and deterministically — useful in tests).
    pub grace: Duration,
    /// The safe state: what the application runs when it has no
    /// trustworthy decision (never controlled yet, or daemon gone past
    /// the grace window).
    pub safe_decision: Decision,
}

impl Default for ClientConfig {
    /// 256-record ring, 5 attach attempts backing off from 10 ms, 1 s
    /// hello timeout, 500 ms grace, identity safe state.
    fn default() -> Self {
        ClientConfig {
            capacity: 256,
            attach_attempts: 5,
            retry_backoff: Duration::from_millis(10),
            hello_timeout: Duration::from_secs(1),
            grace: Duration::from_millis(500),
            safe_decision: Decision::IDENTITY,
        }
    }
}

/// The application's handle on the PowerDial control plane: emit beats,
/// read decisions, survive the daemon.
///
/// Obtained by [`PowerDialClient::register`] (connect to a daemon's
/// attach broker), [`PowerDialClient::attach_segment`] (a segment handed
/// over directly, e.g. inherited across `fork`), or
/// [`PowerDialClient::attach_path`] (a tmpfile segment shared by path).
#[derive(Debug)]
pub struct PowerDialClient {
    producer: ShmProducer,
    config: ClientConfig,
    next_tag: HeartbeatTag,
    last_timestamp: Option<Timestamp>,
    last_known_good: Option<Decision>,
    daemon_seen_alive: bool,
    daemon_lost_at: Option<Instant>,
    /// Broker socket to offer this segment back to after a daemon crash.
    /// `Some` enables the [`DecisionSource::Reattaching`] rung; cleared on
    /// a permanent refusal (e.g. a broker that predates the protocol).
    reattach_socket: Option<std::path::PathBuf>,
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    reattach_attempt: u32,
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    next_reattach_at: Option<Instant>,
    beats_until_liveness_probe: u32,
    /// The daemon PID the decision path last probed *alive*, and the poll
    /// that asked — good for [`LIVENESS_SAMPLE_PERIOD`] and for that PID
    /// only. `None` after a dead or absent verdict: those are never kept.
    alive_verdict: Option<(u32, Instant)>,
    ladder: LadderTelemetry,
}

impl PowerDialClient {
    /// Attaches to a segment this process already holds (inherited
    /// mapping, or one it created itself).
    ///
    /// # Errors
    ///
    /// [`ClientError::Shm`] when validation or the producer claim fails.
    pub fn attach_segment(
        segment: Arc<Segment>,
        config: ClientConfig,
    ) -> Result<Self, ClientError> {
        let producer = ShmProducer::attach(segment)?;
        Ok(PowerDialClient {
            producer,
            config,
            next_tag: HeartbeatTag::default(),
            last_timestamp: None,
            last_known_good: None,
            daemon_seen_alive: false,
            daemon_lost_at: None,
            reattach_socket: None,
            reattach_attempt: 0,
            next_reattach_at: None,
            beats_until_liveness_probe: 0,
            alive_verdict: None,
            ladder: LadderTelemetry::new(),
        })
    }

    /// Opens a tmpfile-backed segment by filesystem path and attaches,
    /// retrying with the configured backoff (the daemon may still be
    /// creating the segment).
    ///
    /// # Errors
    ///
    /// [`ClientError::AttemptsExhausted`] wrapping the final attempt's
    /// [`ClientError::Shm`].
    #[cfg(unix)]
    pub fn attach_path(
        path: impl AsRef<std::path::Path>,
        config: ClientConfig,
    ) -> Result<Self, ClientError> {
        let path = path.as_ref();
        retry(&config, |config| {
            let segment = Segment::open(path)?;
            PowerDialClient::attach_segment(Arc::new(segment), config.clone())
        })
    }

    /// Registers with a daemon through its Unix-socket attach broker:
    /// connect, speak the hello protocol, receive the segment fd over
    /// `SCM_RIGHTS`, map it, and claim the producer role. Transient
    /// failures (daemon starting up, [`HelloStatus::Busy`] load shedding)
    /// are retried with the configured backoff; permanent refusals (ABI
    /// mismatch, protocol violations) are returned immediately.
    ///
    /// The socket path is remembered: if the daemon later dies, the client
    /// offers its segment back through the same socket (the
    /// [`DecisionSource::Reattaching`] rung) so a restarted daemon can
    /// adopt the stream with the outage's beats still in the ring.
    ///
    /// # Errors
    ///
    /// [`ClientError::Refused`] / [`ClientError::Protocol`] for permanent
    /// refusals, [`ClientError::AttemptsExhausted`] when retries run out.
    ///
    /// [`HelloStatus::Busy`]: powerdial_heartbeats::shm::HelloStatus::Busy
    #[cfg(target_os = "linux")]
    pub fn register(
        socket_path: impl AsRef<std::path::Path>,
        config: ClientConfig,
    ) -> Result<Self, ClientError> {
        let socket_path = socket_path.as_ref();
        let mut client = retry(&config, |config| {
            PowerDialClient::register_once(socket_path, config)
        })?;
        client.reattach_socket = Some(socket_path.to_path_buf());
        Ok(client)
    }

    /// One broker handshake, no retries.
    #[cfg(target_os = "linux")]
    fn register_once(
        socket_path: &std::path::Path,
        config: &ClientConfig,
    ) -> Result<Self, ClientError> {
        use std::io::Write;

        use powerdial_heartbeats::shm::{
            recv_exact_with_fd, HelloReply, HelloRequest, HelloStatus, HELLO_REPLY_LEN,
        };

        let mut stream = std::os::unix::net::UnixStream::connect(socket_path)?;
        stream.set_read_timeout(Some(config.hello_timeout))?;
        stream.set_write_timeout(Some(config.hello_timeout))?;
        stream.write_all(&HelloRequest::new(config.capacity).encode())?;

        let mut reply = [0u8; HELLO_REPLY_LEN];
        let fd = recv_exact_with_fd(&stream, &mut reply)?;
        let reply =
            HelloReply::decode(&reply).ok_or(ClientError::Protocol("undecodable hello reply"))?;
        match reply.status {
            HelloStatus::Granted => {
                let fd = fd.ok_or(ClientError::Protocol("granted reply without segment fd"))?;
                let segment = Segment::attach_fd(std::fs::File::from(fd))?;
                PowerDialClient::attach_segment(Arc::new(segment), config.clone())
            }
            status => Err(ClientError::Refused(status)),
        }
    }

    /// Enables the [`DecisionSource::Reattaching`] rung for a client that
    /// did not come through [`PowerDialClient::register`] (a segment
    /// inherited across `fork`, or one attached by path): after the daemon
    /// dies, the client offers its segment back through this broker
    /// socket.
    #[cfg(target_os = "linux")]
    pub fn set_reattach_socket(&mut self, socket_path: impl Into<std::path::PathBuf>) {
        self.reattach_socket = Some(socket_path.into());
    }

    /// Fires one reattach handshake if one is due, returning whether a
    /// daemon adopted the segment. Rate-limited by doubling backoff with
    /// deterministic per-process jitter so a fleet of clients orphaned by
    /// the same crash does not stampede the restarted broker in lockstep.
    fn try_reattach(&mut self, now: Instant) -> bool {
        #[cfg(target_os = "linux")]
        {
            let Some(path) = self.reattach_socket.clone() else {
                return false;
            };
            if self.next_reattach_at.is_some_and(|at| now < at) {
                return false;
            }
            let attempt = self.reattach_attempt;
            self.reattach_attempt = self.reattach_attempt.saturating_add(1);
            // Doubling base capped at 1024x so a long outage keeps polling
            // (the daemon may restart at any time) instead of backing off
            // into effective permanence.
            let base = self
                .config
                .retry_backoff
                .saturating_mul(1u32 << attempt.min(10));
            self.next_reattach_at = Some(now + jittered_backoff(base, attempt));
            match self.reattach_once(&path) {
                Ok(()) => {
                    self.reattach_attempt = 0;
                    self.next_reattach_at = None;
                    true
                }
                Err(err) if err.is_retryable() => false,
                Err(_) => {
                    // Permanent refusal — most likely a broker that
                    // predates the reattach protocol (it reads the flag
                    // bit as malformed). Stop asking; the ladder degrades
                    // to the plain safe state.
                    self.reattach_socket = None;
                    false
                }
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = now;
            false
        }
    }

    /// One reattach handshake, no retries: connect, send a reattach hello
    /// carrying this segment's fd over `SCM_RIGHTS`, and expect a granted
    /// reply (which, unlike a fresh grant, carries no fd back — this side
    /// already holds the segment).
    #[cfg(target_os = "linux")]
    fn reattach_once(&mut self, socket_path: &std::path::Path) -> Result<(), ClientError> {
        use powerdial_heartbeats::shm::{
            recv_exact_with_fd, send_with_fd, HelloReply, HelloRequest, HelloStatus,
            HELLO_REPLY_LEN,
        };

        let fd = self.producer.segment().as_raw_fd();
        let stream = std::os::unix::net::UnixStream::connect(socket_path)?;
        stream.set_read_timeout(Some(self.config.hello_timeout))?;
        stream.set_write_timeout(Some(self.config.hello_timeout))?;
        let capacity = self.producer.segment().geometry().capacity();
        send_with_fd(
            &stream,
            &HelloRequest::reattach(capacity).encode(),
            Some(fd),
        )?;

        let mut reply = [0u8; HELLO_REPLY_LEN];
        // A granted reattach carries no fd; one a confused peer smuggles
        // anyway is harvested here and closed on drop.
        let _smuggled = recv_exact_with_fd(&stream, &mut reply)?;
        let reply =
            HelloReply::decode(&reply).ok_or(ClientError::Protocol("undecodable hello reply"))?;
        match reply.status {
            HelloStatus::Granted => Ok(()),
            status => Err(ClientError::Refused(status)),
        }
    }

    /// Emits one heartbeat at `now` (sequence tag and latency since the
    /// previous beat). Wait-free.
    ///
    /// Every `BEAT_LIVENESS_STRIDE`th beat (including the first) also
    /// probes the daemon's liveness, so a client that beats frequently
    /// but polls [`PowerDialClient::current_decision`] rarely still
    /// starts its grace window from roughly when the daemon died, not
    /// from whenever the next poll happens to look. The probe is skipped
    /// once a loss is already on record — nothing further to learn on
    /// this path; recovery is observed by the decision polls.
    ///
    /// # Errors
    ///
    /// Returns the rejected record when the ring is full (backpressure —
    /// also the steady state once the daemon stops draining). The beat
    /// still counts for latency bookkeeping, so drops degrade the rate
    /// estimate smoothly.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous beat.
    pub fn beat(&mut self, now: Timestamp) -> Result<(), BeatSample> {
        self.beat_at(now, Instant::now)
    }

    /// [`PowerDialClient::beat`] with an injected clock for the liveness
    /// observation (tests). The clock is only consulted when a daemon
    /// loss must be stamped.
    fn beat_at(
        &mut self,
        now: Timestamp,
        clock: impl FnOnce() -> Instant,
    ) -> Result<(), BeatSample> {
        let latency = match self.last_timestamp {
            Some(last) => now - last,
            None => TimestampDelta::ZERO,
        };
        let sample = BeatSample {
            tag: self.next_tag,
            timestamp: now,
            latency,
        };
        self.next_tag = self.next_tag.next();
        self.last_timestamp = Some(now);
        if self.daemon_lost_at.is_none() {
            if self.beats_until_liveness_probe == 0 {
                self.beats_until_liveness_probe = BEAT_LIVENESS_STRIDE - 1;
                let daemon_alive = self.producer.consumer_state().is_alive();
                self.note_liveness(daemon_alive, clock);
            } else {
                self.beats_until_liveness_probe -= 1;
            }
        }
        self.producer.try_push(sample)
    }

    /// Folds one liveness observation into the grace-window state: a live
    /// daemon arms (or re-arms) the window and closes any open loss; the
    /// first dead observation after life stamps [`Self::daemon_lost_at`],
    /// from which [`ClientConfig::grace`] is measured. Shared by the beat
    /// and decision-poll paths so the window opens from the *first*
    /// observation of the death, whichever path makes it.
    fn note_liveness(&mut self, daemon_alive: bool, clock: impl FnOnce() -> Instant) {
        if daemon_alive {
            self.daemon_seen_alive = true;
            self.daemon_lost_at = None;
        } else if self.daemon_seen_alive && self.daemon_lost_at.is_none() {
            self.daemon_lost_at = Some(clock());
        }
    }

    /// The decision the application should apply *right now*, with its
    /// provenance — this call never fails and never blocks:
    ///
    /// 1. a consistent read from a live daemon is
    ///    [`DecisionSource::Published`] (and becomes the new
    ///    last-known-good);
    /// 2. a torn read, or a dead/gone daemon still within
    ///    [`ClientConfig::grace`], serves
    ///    [`DecisionSource::LastKnownGood`];
    /// 3. past the grace window with a reattach socket configured, the
    ///    configured safe decision is served as
    ///    [`DecisionSource::Reattaching`] — recovery is being attempted,
    ///    not abandoned;
    /// 4. otherwise the safe decision is [`DecisionSource::SafeState`]:
    ///    no decision was ever read, or no reattach path remains.
    ///
    /// The grace window opens at the first *observation* of the daemon's
    /// death — by this call or by a liveness probe on the
    /// [`PowerDialClient::beat`] path (liveness is polled, not watched) —
    /// and closes again if a daemon returns. While the daemon is observed
    /// dead and a reattach
    /// socket is configured, each poll may additionally fire one
    /// rate-limited reattach handshake (doubling backoff with
    /// deterministic per-process jitter) offering this segment back to a
    /// restarted daemon — on success the very same call usually returns
    /// [`DecisionSource::Published`] again, because the adopting daemon
    /// seeds the decision block before the broker replies.
    ///
    /// **Liveness is sampled.** Every call reads the daemon's PID word in
    /// the segment; the kernel is asked about that PID (`kill(pid, 0)`) at
    /// most once per 100 µs. What is kept between calls is one *alive*
    /// verdict: the PID it was taken for and the clock reading of the call
    /// that took it. It answers later calls while the word still holds
    /// that PID and less than 100 µs have passed; a changed word (a
    /// successor daemon, a detach, a scribble) is probed at once, and
    /// *dead* and *absent* are never kept, so a client that has seen its
    /// daemon gone asks on every call until one is back. The one thing
    /// this costs: a client polling faster than every 100 µs can read
    /// [`DecisionSource::Published`] from a daemon killed up to 100 µs
    /// ago — the decision itself is the consistent, last published one
    /// either way. A client that polls more slowly than that never reuses
    /// a verdict. [`LadderTelemetry::liveness_probes`] counts the probes.
    pub fn current_decision(&mut self) -> CurrentDecision {
        self.current_decision_at(Instant::now())
    }

    /// [`PowerDialClient::current_decision`] with an injected clock
    /// reading (tests).
    fn current_decision_at(&mut self, now: Instant) -> CurrentDecision {
        let mut daemon_alive = self.daemon_alive_at(now);
        if !daemon_alive && self.try_reattach(now) {
            daemon_alive = self.daemon_alive_at(now);
        }
        self.note_liveness(daemon_alive, || now);
        if daemon_alive {
            self.reattach_attempt = 0;
            self.next_reattach_at = None;
        }

        let current = self.decide(daemon_alive, now);
        self.ladder.observe(current.source, now);
        current
    }

    /// This poll's liveness verdict: the kept one while it holds (see
    /// *Liveness is sampled* on [`PowerDialClient::current_decision`]),
    /// otherwise a probe, kept in turn if it says alive.
    fn daemon_alive_at(&mut self, now: Instant) -> bool {
        let claimed = self
            .producer
            .segment()
            .header()
            .consumer_pid
            .load(Ordering::Acquire);
        if let Some((pid, probed_at)) = self.alive_verdict {
            if pid == claimed && now.saturating_duration_since(probed_at) < LIVENESS_SAMPLE_PERIOD {
                return true;
            }
        }
        self.ladder.note_liveness_probe();
        let state = self.producer.consumer_state();
        // Keyed to the PID the probe itself read, which is the one it
        // asked about should the word have changed since the load above.
        self.alive_verdict = match state {
            PeerState::Alive(pid) => Some((pid, now)),
            PeerState::Absent | PeerState::Dead(_) => None,
        };
        state.is_alive()
    }

    /// The ladder walk proper, given this poll's liveness verdict.
    fn decide(&mut self, daemon_alive: bool, now: Instant) -> CurrentDecision {
        if let DecisionRead::Ready(shm) = self.producer.read_decision() {
            let decision = Decision::from_shm(&shm);
            self.last_known_good = Some(decision);
            if daemon_alive {
                return CurrentDecision {
                    decision,
                    source: DecisionSource::Published,
                };
            }
            // A consistent but orphaned decision: its author is gone, so
            // it is last-known-good, subject to the grace window below.
        }

        let grace_expired = match self.daemon_lost_at {
            Some(lost_at) => now.duration_since(lost_at) >= self.config.grace,
            None => false,
        };
        match self.last_known_good {
            Some(decision) if !grace_expired => CurrentDecision {
                decision,
                source: DecisionSource::LastKnownGood,
            },
            _ if !daemon_alive && self.reattach_socket.is_some() => CurrentDecision {
                decision: self.config.safe_decision,
                source: DecisionSource::Reattaching,
            },
            _ => CurrentDecision {
                decision: self.config.safe_decision,
                source: DecisionSource::SafeState,
            },
        }
    }

    /// Poll counters and rung-transition history for this client's
    /// degradation ladder, maintained by
    /// [`PowerDialClient::current_decision`]. Allocation-free to read;
    /// see [`crate::telemetry`].
    pub fn ladder_telemetry(&self) -> &LadderTelemetry {
        &self.ladder
    }

    /// Liveness of the daemon (consumer) side of the segment.
    pub fn daemon_state(&self) -> PeerState {
        self.producer.consumer_state()
    }

    /// Total beats pushed through this segment.
    pub fn beats_pushed(&self) -> u64 {
        self.producer.pushed()
    }

    /// Beats rejected because the ring was full.
    pub fn beats_rejected(&self) -> u64 {
        self.producer.rejected()
    }

    /// Beats pushed but not yet drained by the daemon.
    pub fn beats_in_flight(&self) -> u64 {
        self.producer.in_flight()
    }

    /// The client's configuration.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    /// The underlying segment.
    pub fn segment(&self) -> &Arc<Segment> {
        self.producer.segment()
    }

    /// Releases the producer role for an orderly hand-off (a dropped or
    /// crashed client deliberately leaves its claim behind as the death
    /// signal the daemon's reaper consumes).
    pub fn detach(self) {
        self.producer.detach();
    }
}

/// Runs `attempt` up to the configured number of times with doubling,
/// jittered backoff, stopping early on a non-retryable error.
fn retry<T>(
    config: &ClientConfig,
    mut attempt: impl FnMut(&ClientConfig) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let attempts = config.attach_attempts.max(1);
    let mut backoff = config.retry_backoff;
    let mut last = None;
    for index in 0..attempts {
        if index > 0 {
            std::thread::sleep(jittered_backoff(backoff, index));
            backoff = backoff.saturating_mul(2);
        }
        match attempt(config) {
            Ok(value) => return Ok(value),
            Err(err) if err.is_retryable() => last = Some(err),
            Err(err) => return Err(err),
        }
    }
    Err(ClientError::AttemptsExhausted {
        attempts,
        last: Box::new(last.expect("at least one attempt ran")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerdial_heartbeats::shm::{SegmentGeometry, ShmConsumer};
    use std::sync::atomic::Ordering;

    fn segment(capacity: usize) -> Arc<Segment> {
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(capacity).unwrap()).unwrap())
    }

    fn config_with_grace(grace: Duration) -> ClientConfig {
        ClientConfig {
            grace,
            ..ClientConfig::default()
        }
    }

    fn decision(point: u32, gain: f64) -> ShmDecision {
        ShmDecision {
            point_idx: point,
            gain_bits: gain.to_bits(),
            achieved_speedup_bits: gain.to_bits(),
            qos_loss_bits: 0.01f64.to_bits(),
        }
    }

    #[test]
    fn never_controlled_serves_safe_state() {
        let segment = segment(16);
        let mut client = PowerDialClient::attach_segment(segment, ClientConfig::default()).unwrap();
        let current = client.current_decision();
        assert_eq!(current.source, DecisionSource::SafeState);
        assert_eq!(current.decision, Decision::IDENTITY);
    }

    #[test]
    fn published_decisions_flow_while_daemon_lives() {
        let segment = segment(16);
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let mut client =
            PowerDialClient::attach_segment(Arc::clone(&segment), ClientConfig::default()).unwrap();
        consumer.publish_decision(decision(2, 1.5));
        let current = client.current_decision();
        assert_eq!(current.source, DecisionSource::Published);
        assert_eq!(current.decision.point_idx, 2);
        assert_eq!(current.decision.gain.to_bits(), 1.5f64.to_bits());

        // A torn read (writer mid-publish) falls back to last-known-good.
        let seq = segment.header().decision.seq.load(Ordering::Acquire);
        segment
            .header()
            .decision
            .seq
            .store(seq + 1, Ordering::Release);
        let current = client.current_decision();
        assert_eq!(current.source, DecisionSource::LastKnownGood);
        assert_eq!(current.decision.point_idx, 2);
        segment.header().decision.seq.store(seq, Ordering::Release);
    }

    #[test]
    fn daemon_death_degrades_last_known_good_then_safe() {
        let segment = segment(16);
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let grace = Duration::from_secs(3600);
        let mut client =
            PowerDialClient::attach_segment(Arc::clone(&segment), config_with_grace(grace))
                .unwrap();
        consumer.publish_decision(decision(3, 2.0));
        assert_eq!(client.current_decision().source, DecisionSource::Published);

        // Simulate the daemon being SIGKILLed: its PID slot holds a
        // process that no longer exists.
        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        let observed = Instant::now();
        let current = client.current_decision_at(observed);
        assert_eq!(current.source, DecisionSource::LastKnownGood);
        assert_eq!(current.decision.point_idx, 3);

        // Within the grace window: still last-known-good.
        let current = client.current_decision_at(observed + grace / 2);
        assert_eq!(current.source, DecisionSource::LastKnownGood);

        // Past the grace window: the configured safe state.
        let current = client.current_decision_at(observed + grace);
        assert_eq!(current.source, DecisionSource::SafeState);
        assert_eq!(current.decision, Decision::IDENTITY);
    }

    /// Regression: the grace window used to open only when
    /// `current_decision()` happened to observe the death, so a client
    /// that beat frequently but polled rarely served `LastKnownGood` far
    /// beyond `config.grace`. The beat path now probes liveness too, so
    /// the window is measured from the beat that saw the daemon dead.
    #[test]
    fn beat_only_grace_expiry() {
        let segment = segment(16);
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let grace = Duration::from_secs(3600);
        let mut client =
            PowerDialClient::attach_segment(Arc::clone(&segment), config_with_grace(grace))
                .unwrap();
        consumer.publish_decision(decision(5, 1.75));
        assert_eq!(client.current_decision().source, DecisionSource::Published);

        // The daemon is SIGKILLed; the application keeps beating but does
        // not poll for a long time.
        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        let outage_observed = Instant::now();
        client
            .beat_at(Timestamp::from_millis(40), || outage_observed)
            .unwrap();
        assert_eq!(
            client.daemon_lost_at,
            Some(outage_observed),
            "the beat's liveness probe must open the grace window"
        );

        // The first poll lands a full grace window after that beat: the
        // stale decision must NOT be served (pre-fix, this poll was the
        // first observation, so the window opened here and the client
        // served LastKnownGood for another `grace`).
        let late = client.current_decision_at(outage_observed + grace);
        assert_eq!(late.source, DecisionSource::SafeState);
        assert_eq!(late.decision, Decision::IDENTITY);

        // Within the window (clock injected earlier than the poll above,
        // which is fine — `daemon_lost_at` is already pinned) the stale
        // decision is still served, i.e. the window really started at the
        // beat, it did not slam shut.
        let mid = client.current_decision_at(outage_observed + grace / 2);
        assert_eq!(mid.source, DecisionSource::LastKnownGood);
        assert_eq!(mid.decision.point_idx, 5);
    }

    /// The beat-path probe runs on a stride: beats between probes must
    /// not touch liveness state (and must not pay the probe's syscall).
    #[test]
    fn beat_liveness_probe_is_strided() {
        let segment = segment(256);
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let grace = Duration::from_secs(3600);
        let mut client =
            PowerDialClient::attach_segment(Arc::clone(&segment), config_with_grace(grace))
                .unwrap();
        consumer.publish_decision(decision(1, 1.5));
        assert_eq!(client.current_decision().source, DecisionSource::Published);

        // Beat 0 probes (counter starts at 0) while the daemon lives.
        client.beat(Timestamp::from_millis(0)).unwrap();
        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        // Beats 1..BEAT_LIVENESS_STRIDE-1 are between probes: the death
        // goes unobserved.
        for beat in 1..u64::from(BEAT_LIVENESS_STRIDE) {
            client.beat(Timestamp::from_millis(beat * 10)).unwrap();
            assert_eq!(client.daemon_lost_at, None, "beat {beat} must not probe");
        }
        // The next beat is the stride boundary: the probe fires and the
        // grace window opens.
        client
            .beat(Timestamp::from_millis(u64::from(BEAT_LIVENESS_STRIDE) * 10))
            .unwrap();
        assert!(
            client.daemon_lost_at.is_some(),
            "stride-boundary beat must probe and observe the death"
        );
    }

    #[test]
    fn ladder_telemetry_records_poll_outcomes_and_transitions() {
        let segment = segment(16);
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let mut client = PowerDialClient::attach_segment(
            Arc::clone(&segment),
            config_with_grace(Duration::ZERO),
        )
        .unwrap();
        consumer.publish_decision(decision(2, 1.25));
        client.current_decision();
        client.current_decision();
        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        client.current_decision();

        let ladder = client.ladder_telemetry();
        assert_eq!(ladder.polls(DecisionSource::Published), 2);
        assert_eq!(ladder.polls(DecisionSource::SafeState), 1);
        assert_eq!(ladder.total_polls(), 3);
        assert_eq!(ladder.current_rung(), Some(DecisionSource::SafeState));
        let transitions: Vec<_> = ladder.transitions().collect();
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].from, DecisionSource::Published);
        assert_eq!(transitions[0].to, DecisionSource::SafeState);
    }

    #[test]
    fn zero_grace_falls_back_immediately_and_recovers() {
        let segment = segment(16);
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let mut client = PowerDialClient::attach_segment(
            Arc::clone(&segment),
            config_with_grace(Duration::ZERO),
        )
        .unwrap();
        consumer.publish_decision(decision(1, 1.25));
        assert_eq!(client.current_decision().source, DecisionSource::Published);

        let real_daemon_pid = segment.header().consumer_pid.load(Ordering::Acquire);
        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        assert_eq!(
            client.current_decision().source,
            DecisionSource::SafeState,
            "zero grace degrades on the first observation"
        );

        // A (re)started daemon closes the incident: published again.
        segment
            .header()
            .consumer_pid
            .store(real_daemon_pid, Ordering::Release);
        assert_eq!(client.current_decision().source, DecisionSource::Published);
    }

    /// Liveness is sampled: a spin-polling client asks the kernel once per
    /// sample period, not once per poll, and the count is exact under an
    /// injected clock.
    #[test]
    fn a_live_verdict_is_probed_once_per_sample_period() {
        let segment = segment(16);
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let mut client =
            PowerDialClient::attach_segment(Arc::clone(&segment), ClientConfig::default()).unwrap();
        consumer.publish_decision(decision(2, 1.5));
        assert_eq!(client.ladder_telemetry().liveness_probes(), 0);

        let start = Instant::now();
        let step = Duration::from_nanos(10);
        // 10 000 polls 10 ns apart stay inside the first period (one
        // probe); four times as many cross it three times, each time on
        // the poll that lands exactly one period after the last probe.
        for poll in 0..40_000u32 {
            let elapsed = step * poll;
            let current = client.current_decision_at(start + elapsed);
            assert_eq!(current.source, DecisionSource::Published);
            let periods = elapsed.as_nanos() / LIVENESS_SAMPLE_PERIOD.as_nanos();
            assert_eq!(
                u128::from(client.ladder_telemetry().liveness_probes()),
                1 + periods,
                "after poll {poll} at +{elapsed:?}"
            );
        }
        assert_eq!(client.ladder_telemetry().liveness_probes(), 4);
        assert_eq!(client.ladder_telemetry().total_polls(), 40_000);
    }

    /// A verdict answers for the PID it was taken for and no other: a PID
    /// word that changed between two polls is probed on the second even
    /// when no time at all has passed, and what it learns is served.
    #[test]
    fn a_changed_pid_word_is_probed_at_once_and_dead_is_never_kept() {
        let segment = segment(16);
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let mut client = PowerDialClient::attach_segment(
            Arc::clone(&segment),
            config_with_grace(Duration::ZERO),
        )
        .unwrap();
        consumer.publish_decision(decision(1, 1.25));
        let now = Instant::now();
        assert_eq!(
            client.current_decision_at(now).source,
            DecisionSource::Published
        );
        assert_eq!(
            client.current_decision_at(now).source,
            DecisionSource::Published
        );
        assert_eq!(client.ladder_telemetry().liveness_probes(), 1);

        let real_daemon_pid = segment.header().consumer_pid.load(Ordering::Acquire);
        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        assert_eq!(
            client.current_decision_at(now).source,
            DecisionSource::SafeState,
            "same instant, other PID: the kept verdict does not apply"
        );
        assert_eq!(client.ladder_telemetry().liveness_probes(), 2);
        // Dead is asked again every time, so the way back is seen at once.
        assert_eq!(
            client.current_decision_at(now).source,
            DecisionSource::SafeState
        );
        assert_eq!(client.ladder_telemetry().liveness_probes(), 3);
        segment
            .header()
            .consumer_pid
            .store(real_daemon_pid, Ordering::Release);
        assert_eq!(
            client.current_decision_at(now).source,
            DecisionSource::Published
        );
        assert_eq!(client.ladder_telemetry().liveness_probes(), 4);
        assert_eq!(
            client.current_decision_at(now).source,
            DecisionSource::Published
        );
        assert_eq!(client.ladder_telemetry().liveness_probes(), 4);
    }

    #[test]
    fn beats_flow_through_the_segment() {
        let segment = segment(16);
        let mut consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let mut client =
            PowerDialClient::attach_segment(Arc::clone(&segment), ClientConfig::default()).unwrap();
        for beat in 0..5u64 {
            client.beat(Timestamp::from_millis(beat * 40)).unwrap();
        }
        assert_eq!(client.beats_pushed(), 5);
        assert_eq!(client.beats_in_flight(), 5);
        let mut out = Vec::new();
        assert_eq!(consumer.drain_into(&mut out), 5);
        assert_eq!(out[3].latency, TimestampDelta::from_millis(40));
        assert_eq!(client.beats_in_flight(), 0);
        assert_eq!(client.beats_rejected(), 0);
    }

    #[test]
    fn retry_stops_early_on_permanent_errors() {
        let mut attempts = 0u32;
        let config = ClientConfig {
            attach_attempts: 5,
            retry_backoff: Duration::ZERO,
            ..ClientConfig::default()
        };
        let result: Result<(), _> = retry(&config, |_| {
            attempts += 1;
            Err(ClientError::Protocol("permanent"))
        });
        assert!(matches!(result, Err(ClientError::Protocol(_))));
        assert_eq!(attempts, 1, "permanent errors are not retried");

        let mut attempts = 0u32;
        let result: Result<(), _> = retry(&config, |_| {
            attempts += 1;
            Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "no daemon yet",
            )))
        });
        assert!(matches!(
            result,
            Err(ClientError::AttemptsExhausted { attempts: 5, .. })
        ));
        assert_eq!(attempts, 5, "transient errors use every attempt");

        let mut attempts = 0u32;
        let result = retry(&config, |_| {
            attempts += 1;
            if attempts < 3 {
                Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "still starting",
                )))
            } else {
                Ok(attempts)
            }
        });
        assert_eq!(result.unwrap(), 3, "success ends the retry loop");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reattaching_rung_serves_safe_decision_while_broker_is_unreachable() {
        let segment = segment(16);
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let mut client = PowerDialClient::attach_segment(
            Arc::clone(&segment),
            config_with_grace(Duration::ZERO),
        )
        .unwrap();
        // A socket path nothing listens on: every handshake fails with a
        // retryable connect error, so the rung persists.
        client.set_reattach_socket(
            std::env::temp_dir().join(format!("pd-no-broker-{}.sock", std::process::id())),
        );
        consumer.publish_decision(decision(2, 1.5));
        assert_eq!(client.current_decision().source, DecisionSource::Published);

        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        let observed = Instant::now();
        for _ in 0..3 {
            let current = client.current_decision_at(observed);
            assert_eq!(current.source, DecisionSource::Reattaching);
            assert_eq!(current.decision, Decision::IDENTITY, "safe value served");
        }
        assert_eq!(
            client.reattach_attempt, 1,
            "repeated polls inside the backoff window fire one handshake"
        );
        assert!(client.next_reattach_at.is_some());
        // Past the backoff deadline the next poll fires attempt two.
        let after = client.next_reattach_at.unwrap();
        assert_eq!(
            client.current_decision_at(after).source,
            DecisionSource::Reattaching
        );
        assert_eq!(client.reattach_attempt, 2);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn permanent_refusal_abandons_reattach_and_degrades_to_safe_state() {
        use powerdial_heartbeats::shm::{HelloReply, HelloStatus, HELLO_REQUEST_LEN};
        use std::io::{Read, Write};

        let path = std::env::temp_dir().join(format!("pd-old-broker-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        // An old broker that predates the reattach flag: it reads the
        // hello, sees an unknown flag bit, and refuses it as malformed.
        let old_broker = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut hello = [0u8; HELLO_REQUEST_LEN];
            stream.read_exact(&mut hello).unwrap();
            stream
                .write_all(&HelloReply::new(HelloStatus::Malformed).encode())
                .unwrap();
        });

        let segment = segment(16);
        let consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let mut client = PowerDialClient::attach_segment(
            Arc::clone(&segment),
            config_with_grace(Duration::ZERO),
        )
        .unwrap();
        client.set_reattach_socket(&path);
        consumer.publish_decision(decision(1, 1.25));
        assert_eq!(client.current_decision().source, DecisionSource::Published);

        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        // The refusal is permanent: the reattach path is dropped on the
        // spot and the ladder lands on the plain safe state, now and on
        // every later poll.
        assert_eq!(client.current_decision().source, DecisionSource::SafeState);
        assert!(client.reattach_socket.is_none());
        assert_eq!(client.current_decision().source, DecisionSource::SafeState);
        old_broker.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
