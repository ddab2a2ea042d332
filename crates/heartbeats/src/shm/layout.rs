//! The stable, versioned on-segment layout of the beat transport.
//!
//! Everything in this module is ABI: the header is `#[repr(C)]`, every
//! field has a fixed offset, and a segment written by one build must be
//! readable by any other build with the same [`SEGMENT_ABI_VERSION`]. The
//! layout is:
//!
//! ```text
//! offset 0    ┌────────────────────────────────────────────┐
//!             │ magic, abi_version, ready                  │
//!             │ capacity, slot_stride, record_size         │  control block
//!             │ producer_pid, consumer_pid, producer_nonce │  (cache line 0)
//! offset 128  ├────────────────────────────────────────────┤
//!             │ head (consumer-owned)                      │  cache line 1
//! offset 256  ├────────────────────────────────────────────┤
//!             │ tail (producer-owned)                      │  cache line 2
//! offset 384  ├────────────────────────────────────────────┤
//!             │ decision: SeqBlock (daemon-owned seqlock)  │  cache line 3
//! offset 424  │ warm:     SeqBlock (daemon-owned seqlock)  │
//! offset 512  ├────────────────────────────────────────────┤
//!             │ slot 0 │ slot 1 │ …  │ slot capacity-1     │  fixed stride
//!             └────────────────────────────────────────────┘
//! ```
//!
//! `head` and `tail` sit on their own 128-byte blocks so the producer and
//! consumer — in *different processes* — never false-share a cache line.
//! All header fields are atomics: the segment is plain shared memory, so a
//! misbehaving peer can scribble anywhere, and reading a scribbled-on field
//! must be a data-race-free load that yields a garbage *value* (rejected by
//! validation) rather than undefined behaviour.
//!
//! # ABI v2 additions
//!
//! Version 2 extends version 1 with the *bidirectional* control plane:
//!
//! * **`producer_nonce`** (control block) — the producing process's start
//!   nonce (its `/proc/<pid>/stat` start time on Linux), stored by the
//!   producer right after it claims its PID slot. Liveness probes compare
//!   the nonce against the live process's actual start time, so a recycled
//!   PID no longer masquerades as a live peer (`0` = nonce unavailable,
//!   probes fall back to plain `kill(pid, 0)` liveness).
//! * **Decision block** (cache line 3) — the daemon-owned back-channel: the
//!   latest control decision ([`ShmDecision`]: knob point index, gain,
//!   achieved speedup, expected QoS loss) published under a seqlock
//!   ([`SegmentHeader::publish_decision`]). Application-side reads
//!   ([`SegmentHeader::read_decision`]) are wait-free (bounded retries) and
//!   torn-read-free; the protocol is [`SeqBlock`]'s.
//!
//! # Reserved-region extension: the warm-start block
//!
//! The tail of cache line 3 (offset 424, formerly all padding) carries the
//! daemon's *warm-start block* ([`ShmWarmState`]): the controller state a
//! successor daemon needs to resume from the last actuation instead of
//! re-converging from cold after a crash — current knob point, integrator
//! (speedup) state, and a window summary. It is a second [`SeqBlock`],
//! written by the same single daemon writer as the decision block and read
//! only on the adoption path. Fields that were previously
//! zero padding stay zero until first publish, so the extension is
//! backward- and forward-compatible within ABI v2: old readers ignore the
//! bytes, new readers see [`WarmRead::Empty`] on old segments.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::channel::BeatSample;
use crate::record::HeartbeatTag;
use crate::shm::error::ShmError;
use crate::shm::seqlock::{SeqBlock, SeqRead};
use crate::time::{Timestamp, TimestampDelta};

/// First eight bytes of every beat segment: `b"PDSHMBT1"`, little-endian.
pub const SEGMENT_MAGIC: u64 = u64::from_le_bytes(*b"PDSHMBT1");

/// Version of the segment ABI this build reads and writes. Bump on any
/// change to [`SegmentHeader`] or [`ShmBeatSample`] layout. Version 2
/// added the producer start nonce and the daemon-owned decision block.
pub const SEGMENT_ABI_VERSION: u32 = 2;

/// Byte length of the segment header; slot 0 starts here. Four 128-byte
/// blocks: control fields, consumer-owned `head`, producer-owned `tail`,
/// and the daemon-owned decision block.
pub const SEGMENT_HEADER_LEN: usize = 512;

/// Default distance in bytes between consecutive slots. Must be at least
/// `size_of::<ShmBeatSample>()` (24); 32 keeps slots 8-aligned with room
/// for one more field before the stride (and hence the ABI) has to change.
pub const DEFAULT_SLOT_STRIDE: usize = 32;

/// Largest accepted slot count (2³⁰ slots ≈ 32 GiB at the default stride);
/// anything bigger is a corrupt header, not a real ring.
pub const MAX_SLOT_CAPACITY: u64 = 1 << 30;

/// Header `ready` value meaning the creator finished initialization.
pub const SEGMENT_READY: u32 = 1;

/// One beat record as stored in a segment slot: the `#[repr(C)]` wire form
/// of [`BeatSample`], all fields explicit `u64` nanosecond counts so the
/// layout is independent of this crate's internal newtypes.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmBeatSample {
    /// Sequence number of the heartbeat (0 for the first beat).
    pub tag: u64,
    /// Emission time, nanoseconds since the producer's epoch.
    pub timestamp_nanos: u64,
    /// Time since the previous heartbeat, nanoseconds.
    pub latency_nanos: u64,
}

impl ShmBeatSample {
    /// Encodes an in-memory beat sample into its wire form.
    pub fn from_sample(sample: BeatSample) -> Self {
        ShmBeatSample {
            tag: sample.tag.value(),
            timestamp_nanos: sample.timestamp.as_nanos(),
            latency_nanos: sample.latency.as_nanos(),
        }
    }

    /// Decodes the wire form back into an in-memory beat sample.
    pub fn to_sample(self) -> BeatSample {
        BeatSample {
            tag: HeartbeatTag(self.tag),
            timestamp: Timestamp::from_nanos(self.timestamp_nanos),
            latency: TimestampDelta::from_nanos(self.latency_nanos),
        }
    }

    /// Stores this record into a slot as three relaxed atomic words.
    ///
    /// Slot bytes live in memory another *process* can touch at any time;
    /// plain stores would make a protocol-violating peer a formal data
    /// race (UB). Relaxed atomics compile to the same plain moves on
    /// x86-64/AArch64 but make concurrent access yield garbage *values*
    /// instead — ordering against the peer comes from the release store
    /// of `tail`, not from these.
    ///
    /// # Safety
    ///
    /// `slot` must be valid for 24 bytes of writes and 8-byte aligned
    /// (guaranteed by a validated [`SegmentGeometry`]).
    #[inline]
    pub unsafe fn store_to(self, slot: *mut u8) {
        debug_assert_eq!(slot as usize % 8, 0);
        let words = slot as *mut AtomicU64;
        // SAFETY: caller guarantees 24 valid, aligned bytes; AtomicU64 is
        // layout-compatible with u64 and never uninhabited on zeroed or
        // garbage memory.
        unsafe {
            (*words).store(self.tag, Ordering::Relaxed);
            (*words.add(1)).store(self.timestamp_nanos, Ordering::Relaxed);
            (*words.add(2)).store(self.latency_nanos, Ordering::Relaxed);
        }
    }

    /// Loads a record from a slot as three relaxed atomic words (see
    /// [`ShmBeatSample::store_to`] for why not a plain read).
    ///
    /// # Safety
    ///
    /// `slot` must be valid for 24 bytes of reads and 8-byte aligned.
    #[inline]
    pub unsafe fn load_from(slot: *const u8) -> Self {
        debug_assert_eq!(slot as usize % 8, 0);
        let words = slot as *const AtomicU64;
        // SAFETY: as in `store_to`.
        unsafe {
            ShmBeatSample {
                tag: (*words).load(Ordering::Relaxed),
                timestamp_nanos: (*words.add(1)).load(Ordering::Relaxed),
                latency_nanos: (*words.add(2)).load(Ordering::Relaxed),
            }
        }
    }
}

const _: () = assert!(std::mem::size_of::<ShmBeatSample>() == 24);
const _: () = assert!(std::mem::align_of::<ShmBeatSample>() == 8);

/// One control decision as published in the segment's decision block: the
/// daemon→application half of the bidirectional control plane. All floats
/// travel as raw bit patterns so a decision read back through shared
/// memory is *bit-identical* to the daemon's in-process
/// `DecisionView` — the equivalence the `daemon_shm_equivalence` suite
/// pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmDecision {
    /// Dense index of the decided setting in the application's knob table.
    pub point_idx: u32,
    /// Bit pattern of the decided knob gain (instantaneous speedup, f64).
    pub gain_bits: u64,
    /// Bit pattern of the quantum's achieved (time-averaged) speedup (f64).
    pub achieved_speedup_bits: u64,
    /// Bit pattern of the quantum's expected QoS loss (f64).
    pub qos_loss_bits: u64,
}

impl ShmDecision {
    /// The decided knob gain.
    pub fn gain(&self) -> f64 {
        f64::from_bits(self.gain_bits)
    }

    /// The achieved (time-averaged) speedup of the planned quantum.
    pub fn achieved_speedup(&self) -> f64 {
        f64::from_bits(self.achieved_speedup_bits)
    }

    /// The expected QoS loss of the planned quantum.
    pub fn expected_qos_loss(&self) -> f64 {
        f64::from_bits(self.qos_loss_bits)
    }

    /// The decision as the four words of its [`SeqBlock`].
    fn to_words(self) -> [u64; 4] {
        [
            u64::from(self.point_idx),
            self.gain_bits,
            self.achieved_speedup_bits,
            self.qos_loss_bits,
        ]
    }

    /// Decodes [`ShmDecision::to_words`] (low 32 bits of the point word).
    fn from_words(words: [u64; 4]) -> Self {
        ShmDecision {
            point_idx: words[0] as u32,
            gain_bits: words[1],
            achieved_speedup_bits: words[2],
            qos_loss_bits: words[3],
        }
    }
}

/// The controller warm-start state as published in the segment's reserved
/// region (tail of cache line 3): everything a successor daemon needs to
/// resume control from the last actuation after its predecessor crashed.
/// Floats travel as raw bit patterns so a warm-started controller is
/// *bit-identical* to the dead one at the instant of the last publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmWarmState {
    /// Dense knob-table index of the last actuated setting.
    pub point_idx: u32,
    /// Bit pattern of the controller's integrator state — the commanded
    /// speedup carried across updates (f64).
    pub speedup_bits: u64,
    /// Bit pattern of the last observed window heart rate fed to the
    /// controller (f64); the successor's first update sees the same input
    /// its predecessor would have.
    pub observed_rate_bits: u64,
    /// Beat position within the current control quantum at publish time.
    pub beat_in_quantum: u64,
}

impl ShmWarmState {
    /// The controller's integrator (commanded speedup) state.
    pub fn speedup(&self) -> f64 {
        f64::from_bits(self.speedup_bits)
    }

    /// The last observed window heart rate.
    pub fn observed_rate(&self) -> f64 {
        f64::from_bits(self.observed_rate_bits)
    }

    /// The warm state as the four words of its [`SeqBlock`].
    fn to_words(self) -> [u64; 4] {
        [
            u64::from(self.point_idx),
            self.speedup_bits,
            self.observed_rate_bits,
            self.beat_in_quantum,
        ]
    }

    /// Decodes [`ShmWarmState::to_words`] (low 32 bits of the point word).
    fn from_words(words: [u64; 4]) -> Self {
        ShmWarmState {
            point_idx: words[0] as u32,
            speedup_bits: words[1],
            observed_rate_bits: words[2],
            beat_in_quantum: words[3],
        }
    }
}

/// Outcome of one wait-free warm-start-block read. `Empty` or `Torn` (the
/// predecessor died mid-publish) both mean the successor starts the
/// controller cold; the first publish repairs the parity.
pub type WarmRead = SeqRead<ShmWarmState>;

/// Outcome of one wait-free decision-block read. On `Torn`, callers keep
/// their last known-good decision.
pub type DecisionRead = SeqRead<ShmDecision>;

/// The geometry of a segment's slot array: how many slots, how far apart,
/// and how many bytes of each slot carry a record.
///
/// A geometry is only constructible in validated form; every invariant the
/// property tests check ([`SegmentGeometry::validate`]) holds for every
/// value accepted by [`SegmentGeometry::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentGeometry {
    capacity: u64,
    slot_stride: u64,
    record_size: u64,
}

impl SegmentGeometry {
    /// A validated geometry with `capacity` slots of `record_size` useful
    /// bytes each, `slot_stride` bytes apart.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::BadGeometry`] unless all invariants hold:
    /// power-of-two `capacity` within [`MAX_SLOT_CAPACITY`], nonzero
    /// `record_size`, 8-byte-multiple `slot_stride` that covers the record,
    /// and a total length that fits in `usize`.
    pub fn new(capacity: u64, slot_stride: u64, record_size: u64) -> Result<Self, ShmError> {
        let geometry = SegmentGeometry {
            capacity,
            slot_stride,
            record_size,
        };
        geometry.validate()?;
        Ok(geometry)
    }

    /// The geometry used for [`BeatSample`] transport: `capacity` rounded
    /// up to a power of two, the default stride, and this build's record
    /// size.
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::BadGeometry`] when `capacity` is zero or rounds
    /// beyond [`MAX_SLOT_CAPACITY`].
    pub fn for_beat_samples(capacity: usize) -> Result<Self, ShmError> {
        if capacity == 0 {
            return Err(ShmError::BadGeometry {
                field: "capacity",
                found: 0,
            });
        }
        SegmentGeometry::new(
            capacity.next_power_of_two() as u64,
            DEFAULT_SLOT_STRIDE as u64,
            std::mem::size_of::<ShmBeatSample>() as u64,
        )
    }

    /// Re-checks every geometry invariant (used when the fields come from
    /// an untrusted segment header rather than [`SegmentGeometry::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`ShmError::BadGeometry`] naming the first violated field.
    pub fn validate(&self) -> Result<(), ShmError> {
        if !self.capacity.is_power_of_two() || self.capacity > MAX_SLOT_CAPACITY {
            return Err(ShmError::BadGeometry {
                field: "capacity",
                found: self.capacity,
            });
        }
        if self.record_size == 0 {
            return Err(ShmError::BadGeometry {
                field: "record_size",
                found: 0,
            });
        }
        if self.slot_stride < self.record_size || !self.slot_stride.is_multiple_of(8) {
            return Err(ShmError::BadGeometry {
                field: "slot_stride",
                found: self.slot_stride,
            });
        }
        let slots_len = self.capacity.checked_mul(self.slot_stride);
        let total = slots_len.and_then(|len| len.checked_add(SEGMENT_HEADER_LEN as u64));
        match total {
            Some(total) if usize::try_from(total).is_ok() => Ok(()),
            _ => Err(ShmError::BadGeometry {
                field: "total_len",
                found: u64::MAX,
            }),
        }
    }

    /// Number of slots (always a power of two).
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Distance in bytes between consecutive slot starts.
    pub fn slot_stride(&self) -> u64 {
        self.slot_stride
    }

    /// Useful bytes at the start of each slot.
    pub fn record_size(&self) -> u64 {
        self.record_size
    }

    /// Bitmask turning a monotone position into a slot index.
    pub fn mask(&self) -> u64 {
        self.capacity - 1
    }

    /// Byte offset of slot `index` from the start of the segment.
    ///
    /// # Panics
    ///
    /// Panics (debug) when `index` is out of range; callers mask first.
    pub fn slot_offset(&self, index: u64) -> usize {
        debug_assert!(index < self.capacity, "slot index out of range");
        SEGMENT_HEADER_LEN + (index * self.slot_stride) as usize
    }

    /// Total byte length of a segment with this geometry.
    pub fn total_len(&self) -> usize {
        SEGMENT_HEADER_LEN + (self.capacity * self.slot_stride) as usize
    }
}

/// The raw header at offset 0 of every segment.
///
/// All fields are atomics because the header lives in memory shared with
/// another *process*: loads from fields a hostile or crashed peer scribbled
/// on must still be well-defined. The fields are public so tests (and
/// diagnostic tools) can inspect and fault-inject a mapped header directly;
/// everything outside the test suite goes through the validated
/// [`crate::shm::ShmProducer`] / [`crate::shm::ShmConsumer`] handshake
/// instead of touching these.
#[repr(C)]
#[derive(Debug)]
pub struct SegmentHeader {
    /// [`SEGMENT_MAGIC`], written last during initialization.
    pub magic: AtomicU64,
    /// [`SEGMENT_ABI_VERSION`] of the creator.
    pub abi_version: AtomicU32,
    /// [`SEGMENT_READY`] once the creator finished writing the header.
    pub ready: AtomicU32,
    /// Slot count (power of two).
    pub capacity: AtomicU64,
    /// Bytes between consecutive slots.
    pub slot_stride: AtomicU64,
    /// Useful bytes per slot (`size_of::<ShmBeatSample>()` for beat
    /// segments).
    pub record_size: AtomicU64,
    /// PID of the attached producer (0 = unclaimed). Claimed by
    /// compare-and-swap; never cleared by process death, which is exactly
    /// how a dead peer is detected.
    pub producer_pid: AtomicU32,
    /// PID of the attached consumer (0 = unclaimed).
    pub consumer_pid: AtomicU32,
    /// Start nonce of the producing process (ABI v2): its
    /// `/proc/<pid>/stat` start time, written by the producer right after
    /// its PID claim, cleared by [`crate::shm::ShmProducer::detach`].
    /// `0` = unavailable; liveness probes then fall back to plain
    /// `kill(pid, 0)`. A live process at `producer_pid` whose actual start
    /// time disagrees with this nonce is a *recycled* PID: the original
    /// producer is dead.
    pub producer_nonce: AtomicU64,
    _pad0: [u8; 72],
    /// Next position the consumer will read. Consumer-owned: written with
    /// `Release` after the freed slots were read, loaded by the producer
    /// with `Acquire` before overwriting them.
    pub head: AtomicU64,
    _pad1: [u8; 120],
    /// Next position the producer will write. Producer-owned: written with
    /// `Release` after the slot bytes are in place, loaded by the consumer
    /// with `Acquire` before reading them.
    pub tail: AtomicU64,
    _pad2: [u8; 120],
    /// The decision block (ABI v2): the latest [`ShmDecision`]. Written
    /// only by the daemon ([`SegmentHeader::publish_decision`]); read with
    /// bounded retries by the application
    /// ([`SegmentHeader::read_decision`]).
    pub decision: SeqBlock,
    /// The warm-start block (reserved-region extension): the latest
    /// [`ShmWarmState`]. Written only by the daemon
    /// ([`SegmentHeader::publish_warm_state`]); read by a successor daemon
    /// on the adoption path ([`SegmentHeader::read_warm_state`]).
    pub warm: SeqBlock,
    _pad3: [u8; 48],
}

const _: () = assert!(std::mem::size_of::<SegmentHeader>() == SEGMENT_HEADER_LEN);
const _: () = assert!(std::mem::align_of::<SegmentHeader>() == 8);
const _: () = assert!(std::mem::offset_of!(SegmentHeader, producer_nonce) == 48);
const _: () = assert!(std::mem::offset_of!(SegmentHeader, head) == 128);
const _: () = assert!(std::mem::offset_of!(SegmentHeader, tail) == 256);
const _: () = assert!(std::mem::offset_of!(SegmentHeader, decision) == 384);
const _: () = assert!(std::mem::offset_of!(SegmentHeader, warm) == 424);

impl SegmentHeader {
    /// Writes a fresh header for `geometry` into zeroed segment memory.
    /// The magic and ready flag are stored last (release), so a concurrent
    /// attacher either sees an unready header or a fully initialized one.
    pub(crate) fn initialize(&self, geometry: SegmentGeometry) {
        self.abi_version
            .store(SEGMENT_ABI_VERSION, Ordering::Relaxed);
        self.capacity.store(geometry.capacity(), Ordering::Relaxed);
        self.slot_stride
            .store(geometry.slot_stride(), Ordering::Relaxed);
        self.record_size
            .store(geometry.record_size(), Ordering::Relaxed);
        self.producer_pid.store(0, Ordering::Relaxed);
        self.consumer_pid.store(0, Ordering::Relaxed);
        self.producer_nonce.store(0, Ordering::Relaxed);
        self.head.store(0, Ordering::Relaxed);
        self.tail.store(0, Ordering::Relaxed);
        self.decision.reset();
        self.warm.reset();
        self.magic.store(SEGMENT_MAGIC, Ordering::Relaxed);
        self.ready.store(SEGMENT_READY, Ordering::Release);
    }

    /// Publishes one decision into the decision block
    /// ([`SeqBlock::publish`]; single-writer by protocol — the attached
    /// consumer/daemon).
    pub fn publish_decision(&self, decision: ShmDecision) {
        self.decision.publish(decision.to_words());
    }

    /// Clears the decision block back to the never-published state (the
    /// reap path: a reaped application's segment must not leak its last
    /// decision into a future reuse of the mapping). See
    /// [`SeqBlock::reset`] for the precondition.
    pub fn reset_decision(&self) {
        self.decision.reset();
    }

    /// Reads the decision block wait-free ([`SeqBlock::read`]): a snapshot
    /// whose bits are exactly what some single
    /// [`SegmentHeader::publish_decision`] wrote, `Empty`, or `Torn`.
    pub fn read_decision(&self) -> DecisionRead {
        self.decision.read().map(ShmDecision::from_words)
    }

    /// Publishes the controller warm-start state into the warm-start
    /// block; the writer is the attached daemon, once per actuation.
    pub fn publish_warm_state(&self, state: ShmWarmState) {
        self.warm.publish(state.to_words());
    }

    /// Clears the warm-start block back to the never-published state (the
    /// reap path: a reused segment must not warm-start a fresh app's
    /// controller from a dead app's trajectory).
    pub fn reset_warm_state(&self) {
        self.warm.reset();
    }

    /// Reads the warm-start block wait-free. A torn result means the
    /// predecessor died mid-publish; the successor starts cold.
    pub fn read_warm_state(&self) -> WarmRead {
        self.warm.read().map(ShmWarmState::from_words)
    }

    /// Validates magic, version, readiness, and geometry against a mapping
    /// of `mapped_len` bytes, returning the (validated) geometry.
    ///
    /// # Errors
    ///
    /// Returns the [`ShmError`] naming the first check that failed; a
    /// header that passes is safe to run the transport protocol against
    /// (every slot access derived from it stays inside the mapping).
    pub fn validate(&self, mapped_len: usize) -> Result<SegmentGeometry, ShmError> {
        if self.ready.load(Ordering::Acquire) != SEGMENT_READY {
            return Err(ShmError::NotInitialized);
        }
        let magic = self.magic.load(Ordering::Relaxed);
        if magic != SEGMENT_MAGIC {
            return Err(ShmError::BadMagic { found: magic });
        }
        let version = self.abi_version.load(Ordering::Relaxed);
        if version != SEGMENT_ABI_VERSION {
            return Err(ShmError::AbiVersionMismatch {
                found: version,
                expected: SEGMENT_ABI_VERSION,
            });
        }
        let geometry = SegmentGeometry {
            capacity: self.capacity.load(Ordering::Relaxed),
            slot_stride: self.slot_stride.load(Ordering::Relaxed),
            record_size: self.record_size.load(Ordering::Relaxed),
        };
        geometry.validate()?;
        let required = geometry.total_len() as u64;
        if required > mapped_len as u64 {
            return Err(ShmError::TruncatedSegment {
                expected: required,
                found: mapped_len as u64,
            });
        }
        Ok(geometry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beat_sample_round_trips_bit_identically() {
        let sample = BeatSample {
            tag: HeartbeatTag(7),
            timestamp: Timestamp::from_nanos(123_456_789),
            latency: TimestampDelta::from_nanos(33_000_001),
        };
        let wire = ShmBeatSample::from_sample(sample);
        assert_eq!(wire.tag, 7);
        assert_eq!(wire.timestamp_nanos, 123_456_789);
        assert_eq!(wire.latency_nanos, 33_000_001);
        assert_eq!(wire.to_sample(), sample);
    }

    #[test]
    fn geometry_accepts_only_pow2_capacities() {
        assert!(SegmentGeometry::new(8, 32, 24).is_ok());
        assert!(matches!(
            SegmentGeometry::new(0, 32, 24),
            Err(ShmError::BadGeometry {
                field: "capacity",
                ..
            })
        ));
        assert!(matches!(
            SegmentGeometry::new(3, 32, 24),
            Err(ShmError::BadGeometry {
                field: "capacity",
                ..
            })
        ));
        assert!(matches!(
            SegmentGeometry::new(MAX_SLOT_CAPACITY * 2, 32, 24),
            Err(ShmError::BadGeometry {
                field: "capacity",
                ..
            })
        ));
    }

    #[test]
    fn geometry_rejects_bad_strides() {
        // Stride smaller than the record.
        assert!(matches!(
            SegmentGeometry::new(8, 16, 24),
            Err(ShmError::BadGeometry {
                field: "slot_stride",
                ..
            })
        ));
        // Misaligned stride.
        assert!(matches!(
            SegmentGeometry::new(8, 30, 24),
            Err(ShmError::BadGeometry {
                field: "slot_stride",
                ..
            })
        ));
        // Zero record.
        assert!(matches!(
            SegmentGeometry::new(8, 32, 0),
            Err(ShmError::BadGeometry {
                field: "record_size",
                ..
            })
        ));
    }

    #[test]
    fn for_beat_samples_rounds_to_pow2() {
        let geometry = SegmentGeometry::for_beat_samples(5).unwrap();
        assert_eq!(geometry.capacity(), 8);
        assert_eq!(geometry.slot_stride(), DEFAULT_SLOT_STRIDE as u64);
        assert_eq!(
            geometry.record_size(),
            std::mem::size_of::<ShmBeatSample>() as u64
        );
        assert_eq!(geometry.total_len(), SEGMENT_HEADER_LEN + 8 * 32);
        assert!(SegmentGeometry::for_beat_samples(0).is_err());
    }

    #[test]
    fn slot_offsets_do_not_overlap_header() {
        let geometry = SegmentGeometry::for_beat_samples(16).unwrap();
        assert!(geometry.slot_offset(0) >= SEGMENT_HEADER_LEN);
        for index in 1..geometry.capacity() {
            let previous = geometry.slot_offset(index - 1);
            let current = geometry.slot_offset(index);
            assert!(current >= previous + geometry.record_size() as usize);
        }
        let last = geometry.slot_offset(geometry.capacity() - 1);
        assert!(last + geometry.record_size() as usize <= geometry.total_len());
    }

    #[test]
    fn embedded_blocks_round_trip_typed_payloads_independently() {
        let header: SegmentHeader = unsafe { std::mem::zeroed() };
        header.initialize(SegmentGeometry::for_beat_samples(8).unwrap());
        assert_eq!(header.read_decision(), DecisionRead::Empty);
        assert_eq!(header.read_warm_state(), WarmRead::Empty);

        // NaN payloads survive bit-exactly (bits, not float compare).
        let nan = ShmDecision {
            point_idx: u32::MAX,
            gain_bits: f64::NAN.to_bits(),
            achieved_speedup_bits: f64::INFINITY.to_bits(),
            qos_loss_bits: (-0.0f64).to_bits(),
        };
        header.publish_decision(nan);
        assert_eq!(header.read_decision(), DecisionRead::Ready(nan));
        assert_eq!(nan.gain().to_bits(), f64::NAN.to_bits());
        assert_eq!(nan.achieved_speedup(), f64::INFINITY);
        assert_eq!(nan.expected_qos_loss().to_bits(), (-0.0f64).to_bits());
        assert_eq!(header.decision.seq.load(Ordering::Relaxed), 2);
        // Warm and decision blocks are independent seqlocks.
        assert_eq!(header.read_warm_state(), WarmRead::Empty);

        let state = ShmWarmState {
            point_idx: 5,
            speedup_bits: 1.9f64.to_bits(),
            observed_rate_bits: 87.5f64.to_bits(),
            beat_in_quantum: 42,
        };
        header.publish_warm_state(state);
        header.publish_warm_state(state);
        assert_eq!(header.read_warm_state(), WarmRead::Ready(state));
        assert_eq!(header.warm.seq.load(Ordering::Relaxed), 4);
        assert_eq!(header.decision.seq.load(Ordering::Relaxed), 2);
        assert_eq!(state.speedup(), 1.9);
        assert_eq!(state.observed_rate(), 87.5);

        // A torn block does not taint its neighbour, and neither does a
        // reset.
        header.warm.seq.store(5, Ordering::Release);
        assert_eq!(header.read_warm_state(), WarmRead::Torn);
        assert_eq!(header.read_decision(), DecisionRead::Ready(nan));
        header.reset_warm_state();
        assert_eq!(header.read_warm_state(), WarmRead::Empty);
        assert_eq!(header.read_decision(), DecisionRead::Ready(nan));
        header.publish_warm_state(state);
        header.reset_decision();
        assert_eq!(header.read_decision(), DecisionRead::Empty);
        assert_eq!(header.read_warm_state(), WarmRead::Ready(state));
    }

    #[test]
    fn header_initialize_then_validate_round_trips() {
        let header: SegmentHeader = unsafe { std::mem::zeroed() };
        assert!(matches!(
            header.validate(1 << 20),
            Err(ShmError::NotInitialized)
        ));
        let geometry = SegmentGeometry::for_beat_samples(64).unwrap();
        header.initialize(geometry);
        assert_eq!(header.validate(geometry.total_len()).unwrap(), geometry);
        // A mapping one byte short is truncated.
        assert!(matches!(
            header.validate(geometry.total_len() - 1),
            Err(ShmError::TruncatedSegment { .. })
        ));
    }
}
