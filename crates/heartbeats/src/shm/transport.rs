//! The wait-free SPSC beat protocol over a mapped segment.
//!
//! [`ShmProducer`] and [`ShmConsumer`] are the crate's one SPSC ring — the
//! same position protocol as the in-heap [`crate::channel`], wait-free
//! `try_push` and batched `drain_into` — instantiated over a [`Segment`]:
//! the head/tail atomics and the slot array live in the shared mapping
//! instead of this process's heap, so the two halves may run in *different
//! processes*. This module adds only what is cross-process: the attach
//! handshake, peer liveness, and the decision/warm-state accessors.
//!
//! # Attach handshake
//!
//! Attaching validates magic, ABI version, geometry, and mapping size
//! ([`SegmentHeader::validate`]), refuses a header whose geometry no longer
//! is the one the mapping was made with (every slot address comes from
//! [`Segment::geometry`], so that is the only geometry a handle may index
//! with), then claims the role by compare-and-swap of the role's PID field
//! from 0 to the caller's PID:
//!
//! * claimed by a **live** process → [`ShmError::RoleClaimed`] (a segment
//!   carries exactly one producer and one consumer);
//! * claimed by a **dead** process → [`ShmError::DeadPeer`] (the segment
//!   is abandoned; reap it, do not adopt it);
//! * the consumer additionally refuses to attach when the *producer* slot
//!   is claimed by a dead process — the stream can never complete.
//!
//! One deliberate exception: [`ShmConsumer::adopt`] — the daemon-crash
//! recovery path — *does* adopt a consumer slot whose claimant is dead,
//! because a SIGKILLed daemon's `Drop` never ran and its stale consumer
//! PID would otherwise wedge the segment forever. Adoption still refuses
//! live claimants and dead producers.
//!
//! The **producer** PID is deliberately not cleared by `Drop`: an
//! application that drops its handle, exits, or crashes leaves its stale
//! PID behind, and that staleness *is* the death signal
//! [`ShmConsumer::producer_state`] and [`ShmPeerProbe::producer_state`]
//! report, which the daemon's reaper acts on; only an explicit
//! [`ShmProducer::detach`] hands the stream to a successor. Since ABI v2
//! the producer claim also records the process **start nonce**
//! (`/proc/<pid>/stat` starttime), so an unrelated process that inherits
//! the dead producer's recycled PID no longer masquerades as a live peer:
//! a live PID whose actual start time disagrees with the recorded nonce
//! reads as [`PeerState::Dead`] — and so does one whose process has exited
//! and merely awaits its parent's `wait` (a zombie passes `kill(pid, 0)`).
//! The **consumer** PID carries no liveness
//! protocol — it only enforces single-consumer access — so it *is*
//! released when the consumer drops (daemon unregister/reap), keeping
//! segments re-attachable without restarting the controller.
//!
//! # Decision read-back (ABI v2)
//!
//! Decisions flow the other way through the same segment: the consumer
//! (controller) publishes the current knob decision with
//! [`ShmConsumer::publish_decision`] and the producer (application) reads
//! it back with [`ShmProducer::read_decision`] — seqlock-protected, so
//! reads are wait-free and a torn snapshot is *reported*
//! ([`DecisionRead::Torn`]), never silently returned. See
//! [`crate::shm::seqlock`] for the protocol.
//!
//! # Safety argument
//!
//! All cross-process synchronization goes through the header atomics; a
//! slot is written only in `[head, head+capacity)` exclusively owned by
//! the producer and read only in `[head, tail)` after the acquiring load
//! of `tail`. Records are plain `u64` triples ([`ShmBeatSample`]), so even
//! a torn or scribbled slot decodes to a harmless garbage *value*, never
//! undefined behaviour. Counters read from the header are clamped before
//! use (`drain_into`, `pending`, `in_flight`) so a hostile peer cannot
//! induce out-of-bounds access or unbounded allocation. The `shm` test suite
//! (fork, fault-injection, property tests) exercises exactly these claims.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::channel::BeatSample;
use crate::shm::error::{PeerRole, PeerState, ShmError};
use crate::shm::layout::{
    DecisionRead, SegmentHeader, ShmBeatSample, ShmDecision, ShmWarmState, WarmRead,
};
use crate::shm::segment::{claimant_gone, current_pid, pid_alive, process_start_nonce, Segment};
use crate::spsc::{self, Storage};

/// The mapped storage of the ring: a segment that passed attach-time
/// validation. Positions live in the header, slots are accessed as
/// per-word relaxed atomics, and the capacity is the header's power-of-two
/// slot count — all addressed through the geometry the mapping was made
/// with ([`Segment::geometry`]), never a later re-read of the header.
/// Opaque; it only names the instantiation behind [`ShmProducer`] and
/// [`ShmConsumer`].
#[derive(Debug)]
pub struct MappedRing(Arc<Segment>);

impl MappedRing {
    /// Validates a segment for typed ring access: the generic header
    /// checks, then the two that make the fixed-size, geometry-cached slot
    /// accesses of the [`Storage`] impl sound. The recorded `record_size`
    /// must be exactly this build's sample size — a segment written with a
    /// different record revision (header says 16-byte records, we
    /// read/write 24) would otherwise let slot accesses overlap neighboring
    /// slots or run past the mapping. And the header must still describe
    /// the geometry the mapping was made with: one rewritten since to a
    /// different but self-consistent geometry would have a handle trust a
    /// geometry it does not address with.
    fn validated(segment: Arc<Segment>) -> Result<Self, ShmError> {
        let found = segment.validate()?;
        let mapped = segment.geometry();
        let record_size = std::mem::size_of::<ShmBeatSample>() as u64;
        for (field, found, expected) in [
            ("record_size", found.record_size(), record_size),
            ("capacity", found.capacity(), mapped.capacity()),
            ("slot_stride", found.slot_stride(), mapped.slot_stride()),
        ] {
            if found != expected {
                return Err(ShmError::GeometryMismatch {
                    field,
                    found,
                    expected,
                });
            }
        }
        Ok(MappedRing(segment))
    }
}

impl Storage<BeatSample> for MappedRing {
    #[inline]
    fn head(&self) -> &AtomicU64 {
        &self.0.header().head
    }

    #[inline]
    fn tail(&self) -> &AtomicU64 {
        &self.0.header().tail
    }

    #[inline]
    fn capacity(&self) -> u64 {
        self.0.geometry().capacity()
    }

    #[inline]
    unsafe fn write(&self, position: u64, sample: BeatSample) {
        let slot = self.0.slot_ptr(position & self.0.geometry().mask());
        // SAFETY: the slot pointer is in bounds for `record_size` (== 24)
        // bytes and 8-aligned by the mapping's geometry, which `validated`
        // checked. The store is atomic per word, so even a
        // protocol-violating peer racing on the slot is a torn *value*,
        // not UB.
        unsafe { ShmBeatSample::from_sample(sample).store_to(slot) };
    }

    #[inline]
    unsafe fn read(&self, position: u64) -> BeatSample {
        let slot = self.0.slot_ptr(position & self.0.geometry().mask());
        // SAFETY: as in `write`; per-word atomic loads keep a
        // protocol-violating peer a garbage value, not a data race.
        unsafe { ShmBeatSample::load_from(slot) }.to_sample()
    }
}

/// Claims `role`'s PID slot for this process by compare-and-swap from 0.
/// A contested slot refuses with [`ShmError::RoleClaimed`] while its
/// claimant is alive — producer claims are liveness-checked with the start
/// nonce (a recycled-PID claimant is a dead peer, not a live rival),
/// consumer claims carry no nonce — and with [`ShmError::DeadPeer`] once it
/// is dead, unless `adopt_dead`.
///
/// `adopt_dead` is the recovery path for a daemon that was SIGKILLed with
/// its `Drop` never running: the slot is compare-and-swapped from the
/// *observed* stale PID to ours, which makes racing successors safe —
/// exactly one wins, the losers see the winner's live PID. Adoption never
/// steals from a running claimant.
fn claim(header: &SegmentHeader, role: PeerRole, adopt_dead: bool) -> Result<u32, ShmError> {
    let pid = current_pid();
    let slot = match role {
        PeerRole::Producer => &header.producer_pid,
        PeerRole::Consumer => &header.consumer_pid,
    };
    let mut expected = 0;
    loop {
        match slot.compare_exchange(expected, pid, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return Ok(pid),
            // Released since we looked: claim it like a free slot.
            Err(0) => expected = 0,
            Err(existing) => {
                let alive = match role {
                    PeerRole::Producer => producer_state_of(header).is_alive(),
                    PeerRole::Consumer => pid_alive(existing),
                };
                if alive {
                    return Err(ShmError::RoleClaimed {
                        role,
                        pid: existing,
                    });
                }
                if !adopt_dead {
                    return Err(ShmError::DeadPeer {
                        role,
                        pid: existing,
                    });
                }
                expected = existing;
            }
        }
    }
}

/// Releases a claim: clears the PID slot if it still holds `pid`.
fn release(slot: &AtomicU32, pid: u32) {
    let _ = slot.compare_exchange(pid, 0, Ordering::AcqRel, Ordering::Relaxed);
}

/// Liveness of a claimed PID slot.
fn peer_state(slot: &AtomicU32) -> PeerState {
    match slot.load(Ordering::Acquire) {
        0 => PeerState::Absent,
        pid if pid_alive(pid) => PeerState::Alive(pid),
        pid => PeerState::Dead(pid),
    }
}

/// Liveness of the *producer* claim, which — unlike the consumer's — is
/// checked against `/proc/<pid>/stat` as well as `kill(pid, 0)`: a PID that
/// still resolves is nevertheless [`PeerState::Dead`] when the process
/// there has exited and is only waiting to be waited for (a zombie passes
/// `kill`), or when its start time disagrees with the recorded
/// [`SegmentHeader::producer_nonce`] (ABI v2: a recycled PID). A zero nonce
/// (not recorded, pre-nonce attacher) skips the second comparison, and
/// where `/proc` is unavailable the answer is plain `kill` liveness — a
/// conservative *alive*.
///
/// This is the syscall probe: the daemon's reaper learns of deaths from
/// [`crate::shm::watch::ProcessWatch`] instead and keeps this one for
/// claims it cannot watch, and it is the oracle the watch is tested
/// against.
fn producer_state_of(header: &SegmentHeader) -> PeerState {
    let state = peer_state(&header.producer_pid);
    if let PeerState::Alive(pid) = state {
        if claimant_gone(pid, header.producer_nonce.load(Ordering::Acquire)) {
            return PeerState::Dead(pid);
        }
    }
    state
}

/// The producer (application) half of a shared-memory beat segment: the
/// ring's [`spsc::Producer`] over the mapping (reached by deref —
/// `try_push`, `pushed`, `rejected`, `in_flight`, `capacity`) plus this
/// process's claim on the producer role.
#[derive(Debug)]
pub struct ShmProducer {
    ring: spsc::Producer<BeatSample, MappedRing>,
    pid: u32,
}

impl Deref for ShmProducer {
    type Target = spsc::Producer<BeatSample, MappedRing>;

    fn deref(&self) -> &Self::Target {
        &self.ring
    }
}

impl DerefMut for ShmProducer {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.ring
    }
}

impl ShmProducer {
    /// Validates the segment and claims the producer role.
    ///
    /// The producer resumes from the segment's current `tail`, so a
    /// segment that already carried beats (from a detached predecessor)
    /// continues seamlessly.
    ///
    /// # Errors
    ///
    /// Any [`SegmentHeader::validate`] error,
    /// [`ShmError::GeometryMismatch`] for a segment whose record size is
    /// not this build's [`ShmBeatSample`] or whose header no longer
    /// matches the mapping's geometry, [`ShmError::RoleClaimed`] when a
    /// live producer is attached, or [`ShmError::DeadPeer`] when a dead
    /// one left its stale PID behind.
    ///
    /// [`SegmentHeader::validate`]: crate::shm::layout::SegmentHeader::validate
    pub fn attach(segment: Arc<Segment>) -> Result<Self, ShmError> {
        let ring = MappedRing::validated(segment)?;
        let header = ring.0.header();
        let pid = claim(header, PeerRole::Producer, false)?;
        // Record this process's start nonce so a recycled PID can never
        // masquerade as us (ABI v2). The slot is guaranteed 0 here: both
        // `initialize` and `detach` zero it before the PID becomes
        // claimable, and death never clears the PID. A probe racing this
        // store sees nonce 0 and falls back to plain `kill` liveness — a
        // conservative *alive*, never a false *dead*.
        header
            .producer_nonce
            .store(process_start_nonce(pid).unwrap_or(0), Ordering::Release);
        Ok(ShmProducer {
            ring: spsc::Producer::new(ring),
            pid,
        })
    }

    /// Liveness of the consumer side.
    pub fn consumer_state(&self) -> PeerState {
        peer_state(&self.segment().header().consumer_pid)
    }

    /// The underlying segment.
    pub fn segment(&self) -> &Arc<Segment> {
        &self.ring.storage().0
    }

    /// Releases the producer role so another same-process (or
    /// fd-inheriting) producer may attach.
    ///
    /// This is deliberately **not** done by `Drop`: the producer PID is
    /// the application-liveness signal — an application that merely drops
    /// its handle (or exits, cleanly or not) must still read as *gone* to
    /// the controller's reaper, exactly like a crash. Only an explicit
    /// `detach` declares "the stream continues under a new producer".
    pub fn detach(self) {
        let header = self.segment().header();
        // Nonce first, then PID: the claim protocol relies on the nonce
        // slot being 0 whenever the PID slot is CAS-able.
        header.producer_nonce.store(0, Ordering::Release);
        release(&header.producer_pid, self.pid);
    }

    /// Reads the controller's current decision (ABI v2 decision block).
    ///
    /// Wait-free with bounded retries: a writer caught mid-publish yields
    /// a handful of spins, a writer that *died* mid-publish yields
    /// [`DecisionRead::Torn`] — never a half-written decision presented as
    /// whole.
    pub fn read_decision(&self) -> DecisionRead {
        self.segment().header().read_decision()
    }
}

/// The consumer (controller) half of a shared-memory beat segment: the
/// ring's [`spsc::Consumer`] over the mapping (reached by deref —
/// `drain_into`, `drain_into_capped`, `pending`, `is_empty`, `drained`,
/// `capacity`) plus this process's claim on the consumer role.
#[derive(Debug)]
pub struct ShmConsumer {
    ring: spsc::Consumer<BeatSample, MappedRing>,
    pid: u32,
}

impl Deref for ShmConsumer {
    type Target = spsc::Consumer<BeatSample, MappedRing>;

    fn deref(&self) -> &Self::Target {
        &self.ring
    }
}

impl DerefMut for ShmConsumer {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.ring
    }
}

impl ShmConsumer {
    /// Validates the segment, refuses abandoned streams, and claims the
    /// consumer role.
    ///
    /// # Errors
    ///
    /// Any [`SegmentHeader::validate`] error;
    /// [`ShmError::GeometryMismatch`] for a segment whose record size is
    /// not this build's [`ShmBeatSample`] or whose header no longer
    /// matches the mapping's geometry; [`ShmError::DeadPeer`] when the
    /// producer slot holds a stale PID (attaching to a stream that can
    /// never complete is always a mistake — reap the segment instead);
    /// [`ShmError::RoleClaimed`] / [`ShmError::DeadPeer`] for the consumer
    /// slot itself.
    ///
    /// [`SegmentHeader::validate`]: crate::shm::layout::SegmentHeader::validate
    pub fn attach(segment: Arc<Segment>) -> Result<Self, ShmError> {
        Self::attach_with(segment, false)
    }

    /// Validates a *foreign* segment (handed back by a surviving client)
    /// and claims the consumer role **over a dead predecessor**: the
    /// recovery path for a daemon that crashed without its `Drop` ever
    /// releasing the claim.
    ///
    /// Differs from [`ShmConsumer::attach`] in exactly one rule: a
    /// consumer slot held by a *dead* PID is adopted (CAS from the
    /// observed stale value to ours) instead of refused. Everything else
    /// is unchanged — a live consumer still refuses with
    /// [`ShmError::RoleClaimed`], a dead *producer* still refuses with
    /// [`ShmError::DeadPeer`] (a stream that can never complete is reaped,
    /// not adopted), and the head resumes from the header so every beat
    /// the client pushed across the outage — up to ring capacity — is
    /// drained by the successor.
    ///
    /// # Errors
    ///
    /// Any [`SegmentHeader::validate`] error,
    /// [`ShmError::GeometryMismatch`], [`ShmError::DeadPeer`] (producer),
    /// or [`ShmError::RoleClaimed`] when the consumer claimant is alive.
    ///
    /// [`SegmentHeader::validate`]: crate::shm::layout::SegmentHeader::validate
    pub fn adopt(segment: Arc<Segment>) -> Result<Self, ShmError> {
        Self::attach_with(segment, true)
    }

    /// The body of [`attach`](Self::attach) and [`adopt`](Self::adopt),
    /// which differ only in whether a dead consumer claim is taken over.
    fn attach_with(segment: Arc<Segment>, adopt_dead: bool) -> Result<Self, ShmError> {
        let ring = MappedRing::validated(segment)?;
        let header = ring.0.header();
        if let PeerState::Dead(pid) = producer_state_of(header) {
            return Err(ShmError::DeadPeer {
                role: PeerRole::Producer,
                pid,
            });
        }
        let pid = claim(header, PeerRole::Consumer, adopt_dead)?;
        Ok(ShmConsumer {
            ring: spsc::Consumer::new(ring),
            pid,
        })
    }

    /// Liveness of the producer side: the signal the reap protocol acts
    /// on. [`PeerState::Dead`] means the producing process exited (cleanly
    /// or not) without detaching — including the recycled-PID case, which
    /// the ABI v2 start nonce unmasks.
    pub fn producer_state(&self) -> PeerState {
        producer_state_of(self.segment().header())
    }

    /// Publishes a decision for the producer side to read back (ABI v2
    /// decision block, seqlock-protected).
    pub fn publish_decision(&self, decision: ShmDecision) {
        self.segment().header().publish_decision(decision);
    }

    /// Resets the decision block to the never-published state. Part of
    /// the reap protocol: a reaped app's stale decision must not leak to
    /// the segment's next tenant.
    pub fn reset_decision(&self) {
        self.segment().header().reset_decision();
    }

    /// Publishes the controller warm-start state (reserved-region seqlock
    /// block) for a successor daemon to resume from after a crash.
    pub fn publish_warm_state(&self, state: ShmWarmState) {
        self.segment().header().publish_warm_state(state);
    }

    /// Reads the warm-start state a dead predecessor left behind. Wait-free;
    /// [`WarmRead::Torn`] means the predecessor died mid-publish and the
    /// successor starts cold.
    pub fn read_warm_state(&self) -> WarmRead {
        self.segment().header().read_warm_state()
    }

    /// Resets the warm-start block to the never-published state. Part of
    /// the reap protocol, like [`ShmConsumer::reset_decision`]: a reused
    /// segment must not warm-start a fresh app's controller from a dead
    /// app's trajectory.
    pub fn reset_warm_state(&self) {
        self.segment().header().reset_warm_state();
    }

    /// The underlying segment.
    pub fn segment(&self) -> &Arc<Segment> {
        &self.ring.storage().0
    }

    /// A cheap handle for liveness/occupancy probes of this segment that
    /// can live apart from the consumer (e.g. in a daemon's registry while
    /// the consumer itself sits in a worker shard).
    pub fn probe(&self) -> ShmPeerProbe {
        ShmPeerProbe {
            segment: Arc::clone(self.segment()),
        }
    }

    /// Releases the consumer role eagerly (equivalent to dropping).
    pub fn detach(self) {}
}

impl Drop for ShmConsumer {
    /// Unlike the producer's, the consumer claim is released on drop: the
    /// consumer PID carries no liveness protocol (nothing reaps on a dead
    /// *consumer*), it only enforces single-consumer access — and the
    /// consumer side lives inside a long-running controller, where
    /// unregister/reap paths drop the handle and the segment must become
    /// re-attachable without restarting the daemon. A *crashed* consumer
    /// process still leaves its stale PID behind (drops never ran), which
    /// the next attacher observes as [`ShmError::DeadPeer`].
    fn drop(&mut self) {
        release(&self.segment().header().consumer_pid, self.pid);
    }
}

/// A read-only liveness/occupancy probe of a segment.
#[derive(Debug, Clone)]
pub struct ShmPeerProbe {
    segment: Arc<Segment>,
}

impl ShmPeerProbe {
    /// Liveness of the producer side (nonce- and zombie-checked, like
    /// [`ShmConsumer::producer_state`]).
    pub fn producer_state(&self) -> PeerState {
        producer_state_of(self.segment.header())
    }

    /// The producer claim as the header records it right now — `(pid,
    /// start nonce)`, two relaxed loads and no syscall. Equality with an
    /// earlier reading means no detach, re-claim or scribble has happened
    /// since; whether the claimant still *lives* is
    /// [`ShmPeerProbe::producer_state`]'s question (or a
    /// [`crate::shm::watch::ProcessWatch`]'s, asked once per process
    /// rather than once per segment).
    pub fn producer_claim(&self) -> (u32, u64) {
        let header = self.segment.header();
        (
            header.producer_pid.load(Ordering::Relaxed),
            header.producer_nonce.load(Ordering::Relaxed),
        )
    }

    /// Reads the currently published decision (ABI v2 decision block).
    pub fn read_decision(&self) -> DecisionRead {
        self.segment.header().read_decision()
    }

    /// Reads the currently published warm-start state.
    pub fn read_warm_state(&self) -> WarmRead {
        self.segment.header().read_warm_state()
    }

    /// Liveness of the consumer side.
    pub fn consumer_state(&self) -> PeerState {
        peer_state(&self.segment.header().consumer_pid)
    }

    /// Beats published but not yet drained (clamped to `[0, capacity]`).
    pub fn pending(&self) -> usize {
        let header = self.segment.header();
        let head = header.head.load(Ordering::Acquire);
        let tail = header.tail.load(Ordering::Acquire);
        spsc::clamped_distance(head, tail, self.segment.geometry().capacity()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HeartbeatTag;
    use crate::shm::layout::SegmentGeometry;
    use crate::time::{Timestamp, TimestampDelta};

    fn segment(capacity: usize) -> Arc<Segment> {
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(capacity).unwrap()).unwrap())
    }

    fn sample(tag: u64) -> BeatSample {
        BeatSample {
            tag: HeartbeatTag(tag),
            timestamp: Timestamp::from_millis(tag * 40),
            latency: TimestampDelta::from_millis(if tag == 0 { 0 } else { 40 }),
        }
    }

    #[test]
    fn consumer_claim_released_on_drop_producer_claim_is_not() {
        let segment = segment(8);
        {
            let _rx = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        }
        // Dropped consumer: role free again (daemon unregister/reap path).
        let rx = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        {
            let _tx = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        }
        // Dropped producer: stale PID stays — within this (live) process
        // that reads as a live claim; from another process it would read
        // as dead. Either way, no silent adoption.
        assert!(matches!(
            ShmProducer::attach(Arc::clone(&segment)),
            Err(ShmError::RoleClaimed {
                role: PeerRole::Producer,
                ..
            })
        ));
        assert!(rx.producer_state().is_alive());
    }

    #[test]
    fn roles_are_exclusive_until_detached() {
        let segment = segment(8);
        let tx = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        assert!(matches!(
            ShmProducer::attach(Arc::clone(&segment)),
            Err(ShmError::RoleClaimed {
                role: PeerRole::Producer,
                ..
            })
        ));
        tx.detach();
        let tx = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        assert_eq!(tx.pushed(), 0);

        let rx = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        assert!(matches!(
            ShmConsumer::attach(Arc::clone(&segment)),
            Err(ShmError::RoleClaimed {
                role: PeerRole::Consumer,
                ..
            })
        ));
        assert!(rx.producer_state().is_alive());
        assert!(tx.consumer_state().is_alive());
        rx.detach();
        assert!(tx.consumer_state() == PeerState::Absent);
    }

    #[test]
    fn reattached_producer_resumes_position() {
        let segment = segment(8);
        let mut tx = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let mut rx = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        tx.try_push(sample(0)).unwrap();
        tx.try_push(sample(1)).unwrap();
        tx.detach();
        let mut tx = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        assert_eq!(tx.pushed(), 2, "resumes from the segment tail");
        tx.try_push(sample(2)).unwrap();
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 3);
        assert_eq!(out.last().unwrap().tag, HeartbeatTag(2));
    }

    #[test]
    fn probe_reports_occupancy_and_liveness() {
        let segment = segment(8);
        let mut tx = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let rx = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        let probe = rx.probe();
        assert_eq!(probe.pending(), 0);
        tx.try_push(sample(0)).unwrap();
        assert_eq!(probe.pending(), 1);
        assert!(probe.producer_state().is_alive());
        assert!(probe.consumer_state().is_alive());
    }

    #[test]
    fn decisions_round_trip_consumer_to_producer() {
        let segment = segment(8);
        let tx = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let rx = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        assert_eq!(tx.read_decision(), DecisionRead::Empty);
        let decision = ShmDecision {
            point_idx: 3,
            gain_bits: 2.5f64.to_bits(),
            achieved_speedup_bits: 1.75f64.to_bits(),
            qos_loss_bits: 0.03f64.to_bits(),
        };
        rx.publish_decision(decision);
        assert_eq!(tx.read_decision(), DecisionRead::Ready(decision));
        assert_eq!(rx.probe().read_decision(), DecisionRead::Ready(decision));
        rx.reset_decision();
        assert_eq!(tx.read_decision(), DecisionRead::Empty);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn recycled_pid_reads_dead_through_nonce_mismatch() {
        let segment = segment(8);
        let _tx = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let header = segment.header();
        let recorded = header.producer_nonce.load(Ordering::Acquire);
        assert_ne!(recorded, 0, "attach must record our start nonce");

        // Simulate PID recycling: the claimed PID is alive (it is ours),
        // but the recorded start time belongs to a *different* incarnation.
        header
            .producer_nonce
            .store(recorded.wrapping_add(1), Ordering::Release);
        let probe = ShmPeerProbe {
            segment: Arc::clone(&segment),
        };
        assert!(matches!(probe.producer_state(), PeerState::Dead(_)));
        // A fresh producer claim sees a dead peer (reap it), not a rival.
        assert!(matches!(
            ShmProducer::attach(Arc::clone(&segment)),
            Err(ShmError::DeadPeer {
                role: PeerRole::Producer,
                ..
            })
        ));
        // And the consumer refuses the abandoned stream outright.
        assert!(matches!(
            ShmConsumer::attach(Arc::clone(&segment)),
            Err(ShmError::DeadPeer {
                role: PeerRole::Producer,
                ..
            })
        ));

        // Nonce 0 (pre-nonce attacher / no /proc): conservative fallback
        // to plain kill-liveness — alive, since the PID really is ours.
        header.producer_nonce.store(0, Ordering::Release);
        assert!(probe.producer_state().is_alive());
    }

    #[test]
    fn detach_clears_nonce_with_pid() {
        let segment = segment(8);
        let tx = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        tx.detach();
        let header = segment.header();
        assert_eq!(header.producer_nonce.load(Ordering::Acquire), 0);
        assert_eq!(header.producer_pid.load(Ordering::Acquire), 0);
    }

    #[test]
    fn adopt_takes_over_dead_consumer_and_resumes_head() {
        let segment = segment(8);
        let mut tx = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let mut rx = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        tx.try_push(sample(0)).unwrap();
        tx.try_push(sample(1)).unwrap();
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 2);
        // The daemon is SIGKILLed: its Drop never runs. Simulate by
        // forgetting the handle and injecting an impossible (dead) PID.
        std::mem::forget(rx);
        segment
            .header()
            .consumer_pid
            .store(0x7FFF_FF00, Ordering::Release);

        // Plain attach refuses the stale claim; adopt takes it over.
        assert!(matches!(
            ShmConsumer::attach(Arc::clone(&segment)),
            Err(ShmError::DeadPeer {
                role: PeerRole::Consumer,
                ..
            })
        ));
        tx.try_push(sample(2)).unwrap();
        let mut rx = ShmConsumer::adopt(Arc::clone(&segment)).unwrap();
        assert_eq!(rx.drained(), 2, "resumes from the segment head");
        assert_eq!(rx.drain_into(&mut out), 1, "no beat lost, none replayed");
        assert_eq!(out[0].tag, HeartbeatTag(2));
    }

    #[test]
    fn adopt_claims_free_slot_but_refuses_live_claimant_and_dead_producer() {
        let segment = segment(8);
        let _tx = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        // Free slot: adoption degenerates to a normal claim.
        let rx = ShmConsumer::adopt(Arc::clone(&segment)).unwrap();
        // Live claimant (ourselves): never stolen.
        assert!(matches!(
            ShmConsumer::adopt(Arc::clone(&segment)),
            Err(ShmError::RoleClaimed {
                role: PeerRole::Consumer,
                ..
            })
        ));
        drop(rx);
        // Dead producer: the stream can never complete — reap, not adopt.
        segment
            .header()
            .producer_pid
            .store(0x7FFF_FF00, Ordering::Release);
        assert!(matches!(
            ShmConsumer::adopt(Arc::clone(&segment)),
            Err(ShmError::DeadPeer {
                role: PeerRole::Producer,
                ..
            })
        ));
    }

    #[test]
    fn warm_state_round_trips_through_consumer_and_probe() {
        let segment = segment(8);
        let rx = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        assert_eq!(rx.read_warm_state(), WarmRead::Empty);
        let state = ShmWarmState {
            point_idx: 4,
            speedup_bits: 1.25f64.to_bits(),
            observed_rate_bits: 92.0f64.to_bits(),
            beat_in_quantum: 17,
        };
        rx.publish_warm_state(state);
        assert_eq!(rx.read_warm_state(), WarmRead::Ready(state));
        assert_eq!(rx.probe().read_warm_state(), WarmRead::Ready(state));
        rx.reset_warm_state();
        assert_eq!(rx.read_warm_state(), WarmRead::Empty);
    }

    #[test]
    fn hostile_tail_is_clamped_not_trusted() {
        let segment = segment(4);
        let mut rx = ShmConsumer::attach(Arc::clone(&segment)).unwrap();
        // A scribbling peer publishes an absurd tail: the consumer must
        // clamp to capacity — bounded drain of garbage values, no
        // unbounded allocation, no out-of-bounds access.
        segment.header().tail.store(u64::MAX - 3, Ordering::Release);
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 4);
        // And a tail *behind* head reads as empty, not as ~2^64 pending.
        segment.header().tail.store(0, Ordering::Release);
        assert_eq!(rx.pending(), 0);
        assert_eq!(rx.drain_into(&mut out), 0);
    }
}
