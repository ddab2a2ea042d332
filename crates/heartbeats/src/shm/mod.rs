//! Cross-process shared-memory heartbeat transport.
//!
//! The Application Heartbeats interface is explicitly *cross-process*: an
//! instrumented application emits beats into a shared-memory region that an
//! external controller (the PowerDial daemon) attaches to and reads. The
//! in-heap SPSC rings of [`crate::channel`] run the crate's one wait-free
//! ring protocol within one process; this module family instantiates the
//! same protocol over an actual shared mapping so the producer and consumer
//! may be different OS processes:
//!
//! * [`layout`] — the stable, versioned `#[repr(C)]` segment ABI: a
//!   [`SegmentHeader`] (magic, ABI version, geometry, producer/consumer
//!   PIDs, cache-line-isolated head/tail atomics) followed by a
//!   fixed-stride slot array of [`ShmBeatSample`] records;
//! * [`seqlock`] — [`SeqBlock`], the one seqlock both daemon-owned blocks
//!   of the header (decision, warm-start) are instances of;
//! * [`segment`] — creating and mapping segments over two backings, chosen
//!   at run time: `memfd_create` + `mmap` on Linux, and a tmpfile mapping
//!   on any Unix (attachable by path from unrelated processes) when
//!   `memfd_create` refuses;
//! * [`transport`] — [`ShmProducer`] / [`ShmConsumer`]: the ring
//!   instantiated over the mapped atomics (wait-free `try_push`, batched
//!   `drain_into`), plus the attach-time handshake, peer liveness, and the
//!   decision read-back path;
//! * [`watch`] — [`ProcessWatch`]: producer-process death as an event
//!   (one pidfd per process in one epoll instance) instead of a per-segment
//!   poll of PIDs, and the attach listener's readiness from the same
//!   `epoll_wait`;
//! * [`fdpass`] — `SCM_RIGHTS` fd passing and the hello wire protocol the
//!   attach broker (`powerdial-control`) and `powerdial-client` speak;
//! * [`process`] — fork/wait helpers for the cross-process tests and the
//!   `shm_external_controller` example.
//!
//! # Segment layout (ABI version 2)
//!
//! ```text
//! offset 0    magic ("PDSHMBT1"), abi_version, ready,
//!             capacity, slot_stride, record_size,
//!             producer_pid, consumer_pid,
//!             producer_nonce                      ── control block
//! offset 128  head  (consumer-owned cache line)
//! offset 256  tail  (producer-owned cache line)
//! offset 384  decision: SeqBlock (consumer-owned cache line) —
//!             seq, then point, gain, achieved speedup, QoS loss
//! offset 424  warm: SeqBlock (reserved-region extension) —
//!             seq, then point, speedup, observed rate, beat in quantum
//! offset 512  slot[0], slot[1], …, slot[capacity-1]   (fixed stride)
//! ```
//!
//! # ABI v2 additions
//!
//! Version 2 (this build) grew the header from 384 to 512 bytes and the
//! ABI in three ways; v1 segments are refused at validation (`abi_version`
//! mismatch), never reinterpreted.
//!
//! **Producer start nonce.** `producer_nonce` records the claimant's
//! start time (Linux: the `starttime` field of `/proc/<pid>/stat`, in
//! clock ticks since boot) alongside its PID. Liveness probes compare the
//! live process's actual start time against the recorded nonce: a
//! mismatch means the PID was recycled and the original producer is dead
//! — closing the v1 false-liveness hole where a recycled PID deferred the
//! reap indefinitely. A zero nonce (pre-nonce attacher, `/proc`
//! unavailable, non-Linux) records nothing to disagree with: such a claim
//! is alive for as long as its PID names a running process. The claim protocol keeps the pair coherent
//! without widening the CAS: the nonce slot is zero whenever the PID slot
//! is claimable (`initialize` and [`ShmProducer::detach`] clear the nonce
//! *before* the PID; death clears neither), and a probe racing the
//! post-claim nonce store just sees the zero-nonce fallback.
//!
//! **Decision block.** Decisions flow controller → application through a
//! consumer-owned cache line published under a seqlock ([`SeqBlock`]):
//! `decision.seq` is a version counter (0 = never published, odd = write
//! in progress, even ≥ 2 = consistent), and the payload is the controller's
//! current
//! [`layout::ShmDecision`] — knob point index plus gain, achieved
//! speedup, and expected QoS loss as raw `f64` bit patterns, so a decision
//! read via shm is bit-identical to the in-process `DecisionView`. The
//! writer ([`ShmConsumer::publish_decision`]) bumps the counter to odd,
//! release-fences, stores the payload, then release-stores the even
//! successor; it also repairs the parity a predecessor that died
//! mid-publish left behind. The reader ([`ShmProducer::read_decision`])
//! is wait-free with [`DECISION_READ_RETRIES`] bounded retries
//! and returns a typed [`layout::DecisionRead`]: `Empty` (never
//! published), `Ready` (a consistent snapshot — both counter reads agree
//! around an acquire fence), or `Torn` (a writer died mid-publish or the
//! line is churning; the caller keeps its last-known-good decision). A
//! torn snapshot is *reported*, never returned as data.
//!
//! **Attach broker handshake.** Unrelated processes (no inherited
//! mapping, no shared tmpfile path) attach by connecting to the daemon's
//! Unix-socket broker and speaking the [`fdpass`] hello protocol; the
//! broker creates a memfd segment, registers the consumer side, and
//! passes the fd over `SCM_RIGHTS`. See `powerdial-control`'s broker
//! module and the `powerdial-client` crate for the two ends.
//!
//! # Running the daemon as a service (deployment note)
//!
//! The deployment shape the paper assumes — one controller process, many
//! instrumented applications — maps to: run one daemon process hosting
//! `PowerDialDaemon` plus its `AttachBroker`, bound to a well-known Unix
//! socket path. Conventions:
//!
//! * **Socket path**: a root daemon serves `/run/powerdial/broker.sock`;
//!   per-user daemons serve `$XDG_RUNTIME_DIR/powerdial/broker.sock`.
//!   Clients take the path from `$POWERDIAL_BROKER` when set. Keep paths
//!   under ~100 bytes — `sun_path` is 108 bytes on Linux.
//! * **Stale sockets**: the broker unlinks a pre-existing socket file at
//!   bind time only after a probe connect fails (a live listener is a
//!   configuration error, not something to steal). Crashed daemons leave
//!   the file behind; restart handles it.
//! * **Permissions**: the socket file's mode gates who can register apps
//!   (connect requires write). Create the parent directory `0755` root /
//!   `0700` per-user and let the socket inherit the umask.
//! * **Liveness**: applications outliving the daemon see its death
//!   through the consumer PID + decision staleness and degrade per their
//!   grace policy (`powerdial-client`'s ladder); a restarted daemon
//!   serves new attaches immediately **and** re-adopts existing segments:
//!   a surviving client sends its mapped fd back in a reattach hello
//!   ([`fdpass::HELLO_FLAG_REATTACH`]), the successor daemon validates it,
//!   claims the consumer role over the dead predecessor
//!   ([`ShmConsumer::adopt`]), and warm-starts its controller from the
//!   segment's warm-start block — no beat pushed across the outage is
//!   lost beyond ring capacity.
//!
//! # Ownership rules
//!
//! * Exactly one producer and one consumer per segment, claimed at attach
//!   time by compare-and-swap of the role's PID field (0 = unclaimed).
//! * `tail` is written only by the producer, `head` only by the consumer;
//!   both are monotone u64 positions masked into the power-of-two slot
//!   array. Publication is release/acquire on those two atomics — the same
//!   Lamport discipline as the in-heap ring, now spanning processes.
//! * Attach validates magic, ABI version, geometry, and mapping size
//!   before the first slot access; every failure is a typed [`ShmError`].
//! * Counters read back from the header are clamped to the validated
//!   geometry, so a scribbling peer can corrupt *values* (garbage beats)
//!   but never induce out-of-bounds access, unbounded allocation, or UB.
//!
//! # Reap protocol and producer liveness
//!
//! The producer PID is never cleared implicitly — a stale producer claim
//! is how abandonment is detected (dropping the handle, clean exit, and
//! SIGKILL all look identical to the controller, which is the point). When
//! the producing process is gone, the consumer drains whatever the
//! producer managed to publish (beats already in the ring survive the
//! producer's death — they live in the segment, not the process) and then
//! unregisters and unmaps the segment. `PowerDialDaemon::reap_dead` in
//! `powerdial-control` implements exactly this. An orderly producer
//! hand-off uses [`ShmProducer::detach`], which clears the claim instead of
//! leaving it stale; the consumer claim, which carries no liveness
//! protocol, is released automatically when the [`ShmConsumer`] drops.
//!
//! There are two ways to learn that a claimant is gone, and they give the
//! same answers:
//!
//! * **Ask about the PID** — [`ShmConsumer::producer_state`], or a
//!   detached [`ShmPeerProbe`]: `kill(pid, 0)`, then one read of
//!   `/proc/<pid>/stat`. Microseconds per call, per segment, every time.
//! * **Watch the process** — [`watch::ProcessWatch`]: one `pidfd_open` per
//!   distinct producer *process*, all of them in one epoll instance, and
//!   afterwards a single non-blocking `epoll_wait` per reap for the whole
//!   fleet. This is what the daemon does; it keeps the first way for
//!   claims the kernel will not watch (no `pidfd_open`, no descriptors
//!   left, not Linux), and the test suites keep it as the oracle.
//!
//! **PID recycling.** A PID is a number the kernel hands out again. Asked
//! about the number alone, a dead producer whose PID now belongs to an
//! unrelated process looks alive forever — the v1 false-liveness hole. The
//! PID probe closes it with the ABI v2 start nonce (a live PID whose start
//! time disagrees with the recorded one is somebody else; see "ABI v2
//! additions" above), and where no nonce was recorded it keeps the old
//! conservative *alive*. A pidfd names a process, not a number: once
//! opened it can never come to mean the PID's next owner, so on the watch
//! path the nonce is compared exactly once — when the watch is
//! established, because the recycling may already have happened by then.
//!
//! **Zombies.** A process that has exited but has not been waited for
//! keeps its PID and its `/proc` entry, and `kill(pid, 0)` succeeds on it:
//! by that test alone a crashed application whose parent never calls
//! `wait` would hold its slot and segment forever. It is dead for every
//! purpose here — it will never push again. The PID probe therefore takes
//! the state field out of the same `/proc/<pid>/stat` read that yields the
//! start time (`Z` or `X` is [`PeerState::Dead`]); a pidfd becomes
//! readable at exit, not at `wait`, so the watch needs no such care. The
//! *consumer* side is different on purpose: [`ShmProducer::consumer_state`]
//! is the client's check on its daemon, made on a beat stride, and stays a
//! single `kill`; a zombie daemon reads alive there until it is waited
//! for.
//!
//! # Example (single process; see `examples/shm_external_controller.rs`
//! for the forked two-process deployment)
//!
//! ```
//! use std::sync::Arc;
//! use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
//! use powerdial_heartbeats::channel::BeatSample;
//! use powerdial_heartbeats::{HeartbeatTag, Timestamp, TimestampDelta};
//!
//! # fn main() -> Result<(), powerdial_heartbeats::shm::ShmError> {
//! let segment = Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64)?)?);
//! let mut producer = ShmProducer::attach(Arc::clone(&segment))?;
//! let mut consumer = ShmConsumer::attach(Arc::clone(&segment))?;
//!
//! producer
//!     .try_push(BeatSample {
//!         tag: HeartbeatTag(0),
//!         timestamp: Timestamp::from_millis(0),
//!         latency: TimestampDelta::ZERO,
//!     })
//!     .unwrap();
//!
//! let mut scratch = Vec::new();
//! assert_eq!(consumer.drain_into(&mut scratch), 1);
//! assert_eq!(scratch[0].tag, HeartbeatTag(0));
//! # Ok(())
//! # }
//! ```

mod error;
pub mod fdpass;
pub mod layout;
pub mod process;
pub mod segment;
pub mod seqlock;
pub mod transport;
pub mod watch;

pub use error::{PeerRole, PeerState, ShmError};
pub use fdpass::{
    HelloReply, HelloRequest, HelloStatus, HELLO_FLAGS_KNOWN, HELLO_FLAG_REATTACH, HELLO_REPLY_LEN,
    HELLO_REPLY_MAGIC, HELLO_REQUEST_LEN, HELLO_REQUEST_MAGIC,
};
pub use layout::{
    DecisionRead, SegmentGeometry, SegmentHeader, ShmBeatSample, ShmDecision, ShmWarmState,
    WarmRead, DEFAULT_SLOT_STRIDE, SEGMENT_ABI_VERSION, SEGMENT_HEADER_LEN, SEGMENT_MAGIC,
};
pub use segment::{
    current_pid, jittered_backoff, pid_alive, process_start_nonce, BackingKind, Segment,
};
pub use seqlock::{SeqBlock, SeqRead, DECISION_READ_RETRIES};
pub use transport::{ShmConsumer, ShmPeerProbe, ShmProducer};
pub use watch::{ProcessWatch, WatchId, Watched};

#[cfg(target_os = "linux")]
pub use fdpass::{recv_exact_with_fd, send_with_fd};
