//! The Unix-socket attach broker: how *unrelated* processes join the
//! daemon.
//!
//! Forked children inherit a segment mapping and tmpfile attachers share
//! a path, but the deployment the paper assumes — arbitrary instrumented
//! applications joining one long-running controller — needs neither
//! ancestry nor a shared filesystem location per app. The broker closes
//! that gap: the daemon binds a well-known Unix socket, a connecting
//! application speaks the fixed-size hello protocol
//! ([`powerdial_heartbeats::shm::fdpass`]), and on success the broker
//! creates a fresh memfd-backed segment, registers its consumer side with
//! the daemon, and passes the file descriptor back over `SCM_RIGHTS` —
//! the application maps it and attaches its producer side, and from then
//! on the socket is out of the picture: beats and decisions flow through
//! shared memory alone.
//!
//! The same socket also serves **crash recovery**: a client that survived
//! a daemon crash sends a hello with
//! [`powerdial_heartbeats::shm::HELLO_FLAG_REATTACH`] set and its
//! *existing* segment fd riding in the hello's own `SCM_RIGHTS` ancillary
//! data. The broker maps and validates that segment, adopts the consumer
//! role the dead predecessor left stale, and hands the adopted consumer to
//! the registration callback as [`AttachRequest::Reattach`] — a granted
//! reattach reply carries no fd back, and no beat pushed across the outage
//! is lost beyond ring capacity.
//!
//! # Robustness posture
//!
//! Every failure is contained to the one connection that caused it:
//!
//! * a **malformed or truncated hello** (wrong magic, reserved flags,
//!   zero capacity, short read, peer gone) is answered with a typed
//!   refusal where possible and the connection dropped — the accept loop
//!   keeps serving;
//! * a **slow or silent client** is bounded by the per-connection
//!   read/write timeout, so one stalled peer cannot wedge the broker
//!   (slow-loris containment);
//! * a **connection storm** beyond [`BrokerConfig::max_apps`] is refused
//!   with [`HelloStatus::Busy`] — a cheap, fixed-cost reply — rather than
//!   queueing unbounded registrations;
//! * **fd exhaustion** (or any segment-creation failure) refuses that one
//!   attach with [`HelloStatus::Resources`]; the broker itself holds no
//!   per-refusal state and survives;
//! * exhaustion **at `accept` itself** — `EMFILE`, `ENFILE`, `ENOBUFS`,
//!   `ENOMEM`: the daemon is at its descriptor limit (one memfd per app
//!   plus one pidfd per producer process against `RLIMIT_NOFILE`), or the
//!   host is out of memory — serves nobody and breaks nothing:
//!   [`AttachBroker::poll_accept`] reports "no connection"
//!   (`Ok(None)`), the newcomer waits in the listen backlog, and every
//!   app already attached keeps its controller. The connection is served
//!   by the first poll after a descriptor comes free, or gives up on its
//!   own hello timeout;
//! * a client that vanishes **after** registration but before the fd
//!   reaches it is surfaced as [`AttachOutcome::GrantAbandoned`] so the
//!   caller can unregister the orphan instead of leaking it (the producer
//!   slot would read `Absent` forever — the reaper only fires on *dead*
//!   claimants).
//!
//! The `broker_faults` integration suite injects each of these.

use std::os::fd::{AsFd, BorrowedFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use powerdial_heartbeats::shm::{
    recv_exact_with_fd, send_with_fd, HelloReply, HelloRequest, HelloStatus, Segment,
    SegmentGeometry, ShmConsumer, ShmError, HELLO_FLAGS_KNOWN, HELLO_REQUEST_LEN,
};

use crate::daemon::DecisionView;
use crate::error::ControlError;

/// Errors of the broker itself (listener-level). Per-connection failures
/// are *outcomes* ([`AttachOutcome`]), not errors — they must not tear
/// down the accept loop.
#[derive(Debug)]
pub enum BrokerError {
    /// Binding the listening socket failed.
    Bind {
        /// The socket path that could not be bound.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The socket path is owned by a *live* broker; refusing to steal it.
    AlreadyRunning {
        /// The contested socket path.
        path: PathBuf,
    },
    /// The accept loop hit a non-transient listener error.
    Listener(std::io::Error),
}

impl std::fmt::Display for BrokerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BrokerError::Bind { path, source } => {
                write!(f, "binding broker socket {}: {source}", path.display())
            }
            BrokerError::AlreadyRunning { path } => {
                write!(
                    f,
                    "a live broker already serves {} (refusing to steal its socket)",
                    path.display()
                )
            }
            BrokerError::Listener(source) => write!(f, "broker accept loop: {source}"),
        }
    }
}

impl std::error::Error for BrokerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BrokerError::Bind { source, .. } | BrokerError::Listener(source) => Some(source),
            BrokerError::AlreadyRunning { .. } => None,
        }
    }
}

/// Configuration of an [`AttachBroker`].
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// The Unix socket path to serve. Conventions: root daemons use
    /// `/run/powerdial/broker.sock`, per-user daemons
    /// `$XDG_RUNTIME_DIR/powerdial/broker.sock` (see the deployment note
    /// in [`powerdial_heartbeats::shm`]).
    pub socket_path: PathBuf,
    /// Registrations beyond this are refused with [`HelloStatus::Busy`]
    /// (connection-storm backpressure).
    pub max_apps: usize,
    /// Per-connection read/write timeout: the longest one peer can hold
    /// the broker's attention.
    pub connection_timeout: Duration,
    /// Requested ring capacities are clamped to this before rounding up
    /// to a power of two.
    pub max_capacity: u64,
}

impl BrokerConfig {
    /// A configuration serving `socket_path` with defaults: 1024 apps,
    /// 100 ms per-connection timeout, 4096-record capacity ceiling.
    pub fn new(socket_path: impl Into<PathBuf>) -> Self {
        BrokerConfig {
            socket_path: socket_path.into(),
            max_apps: 1024,
            connection_timeout: Duration::from_millis(100),
            max_capacity: 4096,
        }
    }
}

/// One validated attach handed to the registration callback: either a
/// fresh registration (broker-created segment) or a crash-recovery
/// reattach (the client's surviving segment, already adopted over the
/// dead predecessor's consumer claim).
///
/// The callback decides what registration means — typically
/// `PowerDialDaemon::register_shm` for [`AttachRequest::Fresh`] and
/// `PowerDialDaemon::register_shm_adopted` (warm start, torn-decision
/// healing) for [`AttachRequest::Reattach`].
#[derive(Debug)]
pub enum AttachRequest {
    /// A newly created segment's consumer side.
    Fresh(ShmConsumer),
    /// A consumer adopted from a segment a crashed daemon left behind.
    Reattach(ShmConsumer),
}

impl AttachRequest {
    /// The consumer side, whichever way it arrived.
    pub fn into_consumer(self) -> ShmConsumer {
        match self {
            AttachRequest::Fresh(consumer) | AttachRequest::Reattach(consumer) => consumer,
        }
    }
}

/// What became of one accepted connection.
#[derive(Debug)]
pub enum AttachOutcome {
    /// Hello accepted, segment registered, fd delivered.
    Granted(DecisionView),
    /// Hello judged and refused with this status; connection closed.
    Refused(HelloStatus),
    /// The peer disappeared (EOF, timeout, reset) before a verdict.
    Disconnected,
    /// The app was registered but the peer vanished before the fd reached
    /// it. The caller should unregister the returned app: its producer
    /// slot will stay `Absent` forever, which the dead-peer reaper does
    /// not collect.
    GrantAbandoned(DecisionView),
}

/// The daemon-side attach broker: a non-blocking accept loop over a Unix
/// listening socket, polled from the daemon's control thread between
/// actuation quanta.
///
/// The broker does not own the daemon — segment *registration* is
/// delegated to the `register` callback of [`AttachBroker::poll_accept`],
/// so the caller decides each app's runtime configuration and knob table
/// (and so the broker is testable without a daemon).
pub struct AttachBroker {
    listener: UnixListener,
    config: BrokerConfig,
    /// Registrations granted through this broker (drives the Busy check
    /// together with the caller-reported count).
    granted: usize,
    /// Calls of [`AttachBroker::poll_accept`], each of which asks the
    /// kernel at least once.
    accept_calls: u64,
}

impl std::fmt::Debug for AttachBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttachBroker")
            .field("socket_path", &self.config.socket_path)
            .field("granted", &self.granted)
            .field("accept_calls", &self.accept_calls)
            .finish()
    }
}

impl AttachBroker {
    /// Binds the broker's listening socket.
    ///
    /// A pre-existing socket file is adopted only when it is *stale*: the
    /// broker probe-connects first, and a successful connect means a live
    /// broker owns the path ([`BrokerError::AlreadyRunning`] — a
    /// configuration error, not something to steal). A refused connect
    /// marks the file as debris from a crashed daemon; it is unlinked and
    /// the path rebound.
    ///
    /// # Errors
    ///
    /// [`BrokerError::AlreadyRunning`] or [`BrokerError::Bind`].
    pub fn bind(config: BrokerConfig) -> Result<Self, BrokerError> {
        let path = &config.socket_path;
        let listener = match UnixListener::bind(path) {
            Ok(listener) => listener,
            Err(err) if err.kind() == std::io::ErrorKind::AddrInUse => {
                if UnixStream::connect(path).is_ok() {
                    return Err(BrokerError::AlreadyRunning { path: path.clone() });
                }
                std::fs::remove_file(path).map_err(|source| BrokerError::Bind {
                    path: path.clone(),
                    source,
                })?;
                UnixListener::bind(path).map_err(|source| BrokerError::Bind {
                    path: path.clone(),
                    source,
                })?
            }
            Err(source) => {
                return Err(BrokerError::Bind {
                    path: path.clone(),
                    source,
                })
            }
        };
        listener
            .set_nonblocking(true)
            .map_err(BrokerError::Listener)?;
        Ok(AttachBroker {
            listener,
            config,
            granted: 0,
            accept_calls: 0,
        })
    }

    /// The socket path this broker serves.
    pub fn socket_path(&self) -> &Path {
        &self.config.socket_path
    }

    /// Attaches granted through this broker so far.
    pub fn granted(&self) -> usize {
        self.granted
    }

    /// How often [`AttachBroker::poll_accept`] has been called — how often
    /// the listener has been asked for a connection, pending or not. A
    /// serve loop that learns of connections from a readiness set calls it
    /// about once per connection; one that does not, once per iteration.
    pub fn accept_calls(&self) -> u64 {
        self.accept_calls
    }

    /// True when the socket file no longer exists (or is no longer a
    /// socket) — someone removed it out from under the accept loop. The
    /// listener fd keeps working for already-queued connections, but no
    /// new client can reach it; the daemon should rebind.
    pub fn socket_missing(&self) -> bool {
        !matches!(
            std::fs::metadata(&self.config.socket_path),
            Ok(metadata) if {
                use std::os::unix::fs::FileTypeExt;
                metadata.file_type().is_socket()
            }
        )
    }

    /// Serves at most one pending connection, without blocking when none
    /// is pending.
    ///
    /// `current_apps` is the daemon's live registration count (the Busy
    /// threshold compares it against [`BrokerConfig::max_apps`]);
    /// `register` turns a validated [`AttachRequest`] — fresh segment or
    /// crash-recovery reattach — into a daemon registration and is called
    /// only after the hello (and, for a reattach, the adopted segment)
    /// has been fully validated.
    ///
    /// Returns `Ok(None)` when no connection was pending — or one is, but
    /// this process cannot take another descriptor right now (see
    /// *Robustness posture*: it stays queued) — otherwise the connection's
    /// [`AttachOutcome`]. Per-connection failures never surface as `Err` —
    /// only listener-level breakage does.
    ///
    /// # Errors
    ///
    /// [`BrokerError::Listener`] for non-transient `accept` failures
    /// (`EINTR` is retried — a signal landing on the daemon's control
    /// thread must not read as listener breakage).
    pub fn poll_accept(
        &mut self,
        current_apps: usize,
        register: impl FnOnce(AttachRequest) -> Result<DecisionView, ControlError>,
    ) -> Result<Option<AttachOutcome>, BrokerError> {
        self.accept_calls += 1;
        let stream = loop {
            match self.listener.accept() {
                Ok((stream, _addr)) => break stream,
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                // Nothing is wrong with the listener and nothing was taken
                // off its backlog: nobody was served, try again later.
                Err(err) if out_of_resources(&err) => return Ok(None),
                // A peer that connected and reset before we accepted is
                // that peer's problem, not the listener's.
                Err(err) if err.kind() == std::io::ErrorKind::ConnectionAborted => {
                    return Ok(Some(AttachOutcome::Disconnected))
                }
                Err(err) => return Err(BrokerError::Listener(err)),
            }
        };
        Ok(Some(self.serve(stream, current_apps, register)))
    }

    /// Runs one connection through hello → verdict → (maybe) fd transfer.
    fn serve(
        &mut self,
        stream: UnixStream,
        current_apps: usize,
        register: impl FnOnce(AttachRequest) -> Result<DecisionView, ControlError>,
    ) -> AttachOutcome {
        // Bound this peer's hold on the broker. A failure to set the
        // timeout would unbound the reads below, so it is a refusal.
        if stream
            .set_read_timeout(Some(self.config.connection_timeout))
            .is_err()
            || stream
                .set_write_timeout(Some(self.config.connection_timeout))
                .is_err()
        {
            return AttachOutcome::Disconnected;
        }

        // The hello read harvests any `SCM_RIGHTS` fd riding along: a
        // reattach carries the client's surviving segment. (`OwnedFd`
        // drops — and so closes — the fd on every refusal path below.)
        let mut hello = [0u8; HELLO_REQUEST_LEN];
        let hello_fd = match recv_exact_with_fd(&stream, &mut hello) {
            Ok(fd) => fd,
            // Truncated hello (EOF) or slow-loris (timeout): the peer
            // never completed its opening move; nothing to reply to.
            Err(_) => return AttachOutcome::Disconnected,
        };

        let request = match HelloRequest::decode(&hello) {
            Some(request) => request,
            None => return self.refuse(stream, HelloStatus::Malformed),
        };
        if request.flags & !HELLO_FLAGS_KNOWN != 0 || request.capacity == 0 {
            return self.refuse(stream, HelloStatus::Malformed);
        }
        if request.abi_version != powerdial_heartbeats::shm::SEGMENT_ABI_VERSION {
            return self.refuse(stream, HelloStatus::WrongAbi);
        }
        if request.is_reattach() != hello_fd.is_some() {
            // A reattach must carry the segment; a fresh hello must not
            // smuggle one. Either mismatch is a protocol violation.
            return self.refuse(stream, HelloStatus::Malformed);
        }
        if current_apps >= self.config.max_apps {
            return self.refuse(stream, HelloStatus::Busy);
        }

        if let Some(fd) = hello_fd {
            return self.serve_reattach(stream, fd, register);
        }

        let capacity = request
            .capacity
            .min(self.config.max_capacity)
            .next_power_of_two() as usize;
        let segment = match SegmentGeometry::for_beat_samples(capacity).and_then(Segment::create) {
            Ok(segment) => Arc::new(segment),
            // fd exhaustion, memfd failure, absurd geometry: this attach
            // fails, the broker survives.
            Err(_) => return self.refuse(stream, HelloStatus::Resources),
        };
        let consumer = match ShmConsumer::attach(Arc::clone(&segment)) {
            Ok(consumer) => consumer,
            Err(_) => return self.refuse(stream, HelloStatus::Resources),
        };
        let view = match register(AttachRequest::Fresh(consumer)) {
            Ok(view) => view,
            Err(_) => return self.refuse(stream, HelloStatus::Resources),
        };

        // Reply and fd travel in one sendmsg: a client that read a
        // granted status is guaranteed the fd came with it.
        let reply = HelloReply::new(HelloStatus::Granted).encode();
        match send_with_fd(&stream, &reply, Some(segment.as_raw_fd())) {
            Ok(()) => {
                self.granted += 1;
                AttachOutcome::Granted(view)
            }
            Err(_) => AttachOutcome::GrantAbandoned(view),
        }
    }

    /// Serves a crash-recovery reattach: maps the client's segment fd,
    /// adopts the consumer role a dead predecessor daemon left stale, and
    /// registers the adopted consumer through the caller's callback.
    ///
    /// Refusals are typed by whose fault the failure is: an fd that is not
    /// a valid live segment is the client's ([`HelloStatus::Malformed`]);
    /// a segment whose consumer role is held by a *live* process — this
    /// daemon, or a racing successor that won the adoption CAS — is
    /// transient ([`HelloStatus::Busy`], retry later); a registration
    /// failure is the daemon's ([`HelloStatus::Resources`]).
    fn serve_reattach(
        &mut self,
        stream: UnixStream,
        fd: std::os::fd::OwnedFd,
        register: impl FnOnce(AttachRequest) -> Result<DecisionView, ControlError>,
    ) -> AttachOutcome {
        let segment = match Segment::attach_fd(std::fs::File::from(fd)) {
            Ok(segment) => Arc::new(segment),
            // Not a segment this build understands (bad magic, wrong ABI,
            // geometry/size mismatch): the client sent garbage.
            Err(_) => return self.refuse(stream, HelloStatus::Malformed),
        };
        let consumer = match ShmConsumer::adopt(segment) {
            Ok(consumer) => consumer,
            Err(ShmError::RoleClaimed { .. }) => {
                return self.refuse(stream, HelloStatus::Busy);
            }
            // Dead producer (nothing to resume — the reaper's business),
            // or validation failure: refuse as malformed.
            Err(_) => return self.refuse(stream, HelloStatus::Malformed),
        };
        let view = match register(AttachRequest::Reattach(consumer)) {
            Ok(view) => view,
            Err(_) => return self.refuse(stream, HelloStatus::Resources),
        };

        // A granted reattach reply carries no fd back — the client already
        // holds the mapping it sent us.
        let reply = HelloReply::new(HelloStatus::Granted).encode();
        match send_with_fd(&stream, &reply, None) {
            Ok(()) => {
                self.granted += 1;
                AttachOutcome::Granted(view)
            }
            Err(_) => AttachOutcome::GrantAbandoned(view),
        }
    }

    /// Sends a refusal (best-effort — the peer may already be gone;
    /// `MSG_NOSIGNAL` inside [`send_with_fd`] turns a vanished peer into
    /// `EPIPE`, never `SIGPIPE`) and closes the connection.
    fn refuse(&self, stream: UnixStream, status: HelloStatus) -> AttachOutcome {
        let _ = send_with_fd(&stream, &HelloReply::new(status).encode(), None);
        AttachOutcome::Refused(status)
    }
}

/// The listening socket, for a readiness set to watch
/// ([`PowerDialDaemon::watch_listener`](crate::daemon::PowerDialDaemon::watch_listener));
/// accepting stays [`AttachBroker::poll_accept`]'s business.
impl AsFd for AttachBroker {
    fn as_fd(&self) -> BorrowedFd<'_> {
        self.listener.as_fd()
    }
}

/// True for the `accept` failures that mean *this process or this host*
/// has run out of something (descriptors, socket buffers, memory) — states
/// that pass, and that say nothing about the listener.
fn out_of_resources(err: &std::io::Error) -> bool {
    const ENOMEM: i32 = 12;
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    #[cfg(target_os = "linux")]
    const ENOBUFS: i32 = 105;
    #[cfg(not(target_os = "linux"))]
    const ENOBUFS: i32 = 55;
    matches!(err.raw_os_error(), Some(ENOMEM | ENFILE | EMFILE | ENOBUFS))
}

impl Drop for AttachBroker {
    /// Removes the socket file so the next bind finds a clean path (a
    /// crashed broker skips this; `bind`'s stale-socket probe covers it).
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.config.socket_path);
    }
}
