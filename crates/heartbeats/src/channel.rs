//! Lock-free single-producer/single-consumer heartbeat channels.
//!
//! The original Application Heartbeats implementation decouples instrumented
//! applications from the external controller through a shared channel: the
//! application writes beat records, the PowerDial daemon reads them. This
//! module provides that channel within one process: the heap instantiation
//! of the crate's one wait-free SPSC ring (the position protocol itself is
//! written once, in [`crate::spsc`], and shared with the cross-process
//! [`crate::shm`] transport):
//!
//! * the **producer** side ([`Producer::try_push`]) is wait-free; on a full
//!   ring the beat is rejected (backpressure) rather than blocking the
//!   application;
//! * the **consumer** side ([`Consumer::drain_into`]) drains every pending
//!   record in one batch into a caller-owned scratch buffer, so the daemon
//!   pays the cross-core synchronization cost once per actuation quantum
//!   rather than once per beat;
//! * head and tail indices live on separate cache lines
//!   ([`CACHE_LINE_BYTES`]-aligned) so producer and consumer never false-share;
//! * records are `Copy`, the ring is fixed-capacity, and a warmed drain
//!   buffer is never reallocated: the steady state performs **zero heap
//!   allocation** on either side, matching the `no_alloc` discipline of the
//!   beat hot path.
//!
//! The mutex-guarded baseline the benchmarks and equivalence tests compare
//! against is [`crate::naive::MutexChannel`].
//!
//! # Example
//!
//! ```
//! use powerdial_heartbeats::channel::{beat_channel, BeatSample};
//! use powerdial_heartbeats::{HeartbeatTag, Timestamp, TimestampDelta};
//!
//! let (mut tx, mut rx) = beat_channel(8);
//! tx.try_push(BeatSample {
//!     tag: HeartbeatTag(0),
//!     timestamp: Timestamp::from_millis(0),
//!     latency: TimestampDelta::ZERO,
//! })
//! .unwrap();
//!
//! let mut scratch = Vec::new();
//! assert_eq!(rx.drain_into(&mut scratch), 1);
//! assert_eq!(scratch[0].tag, HeartbeatTag(0));
//! ```

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use crate::record::{HeartbeatRecord, HeartbeatTag};
use crate::spsc::{self, Storage};
use crate::time::{Timestamp, TimestampDelta};

/// Alignment used to keep the producer and consumer indices on distinct
/// cache lines. 128 bytes covers both the 64-byte lines of x86-64 and the
/// 128-byte destructive-interference granularity of recent ARM cores.
pub const CACHE_LINE_BYTES: usize = 128;

/// A value padded out to its own cache line.
#[repr(align(128))]
struct CachePadded<T>(T);

/// One heartbeat as carried over a channel: the compact, `Copy` subset of a
/// [`HeartbeatRecord`] the controller needs — sequence tag, emission time,
/// and the latency since the previous beat. Rates are *not* carried; the
/// daemon derives windowed rates on its side of the channel, so the producer
/// stays as thin as possible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeatSample {
    /// Sequence number of this heartbeat (0 for the first beat).
    pub tag: HeartbeatTag,
    /// Time at which the heartbeat was emitted.
    pub timestamp: Timestamp,
    /// Time since the previous heartbeat (zero for the first beat).
    pub latency: TimestampDelta,
}

impl BeatSample {
    /// Extracts the channel-carried subset of a monitor-produced record.
    pub fn from_record(record: &HeartbeatRecord) -> Self {
        BeatSample {
            tag: record.tag,
            timestamp: record.timestamp,
            latency: record.latency,
        }
    }
}

/// The heap storage shared by one producer/consumer pair: plain
/// `MaybeUninit` slots and cache-padded position atomics. Opaque; it only
/// names the instantiation behind [`Producer`] and [`Consumer`].
pub struct HeapRing<T> {
    /// Power-of-two many, so a position masks into a slot index.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// The *requested* capacity: the slot array is rounded up to a power of
    /// two, but backpressure starts at exactly this many pending records.
    capacity: u64,
    head: CachePadded<AtomicU64>,
    tail: CachePadded<AtomicU64>,
}

// SAFETY: the producer and consumer halves coordinate all slot access
// through the acquire/release pairs on `head` and `tail`; a slot is written
// only while it is exclusively owned by the producer and read only while it
// is exclusively owned by the consumer. `T: Copy` rules out drop hazards.
unsafe impl<T: Copy + Send> Sync for HeapRing<T> {}
unsafe impl<T: Copy + Send> Send for HeapRing<T> {}

impl<T: Copy + Send> Storage<T> for Arc<HeapRing<T>> {
    fn head(&self) -> &AtomicU64 {
        &self.head.0
    }

    fn tail(&self) -> &AtomicU64 {
        &self.tail.0
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    unsafe fn write(&self, position: u64, value: T) {
        let slot = &self.slots[position as usize & (self.slots.len() - 1)];
        // SAFETY: the caller owns the slot exclusively.
        unsafe { (*slot.get()).write(value) };
    }

    unsafe fn read(&self, position: u64) -> T {
        let slot = &self.slots[position as usize & (self.slots.len() - 1)];
        // SAFETY: the caller owns the slot exclusively, and the producer
        // initialized it before publishing the position.
        unsafe { (*slot.get()).assume_init_read() }
    }
}

/// The producer half of an in-heap SPSC channel.
pub type Producer<T> = spsc::Producer<T, Arc<HeapRing<T>>>;
/// The consumer half of an in-heap SPSC channel.
pub type Consumer<T> = spsc::Consumer<T, Arc<HeapRing<T>>>;

/// Creates a lock-free SPSC channel holding at most `capacity` in-flight
/// records of any `Copy` type.
///
/// The backing slot array is rounded up to a power of two, but the channel
/// rejects pushes beyond exactly `capacity` pending records, so backpressure
/// semantics are independent of the rounding.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn spsc_channel<T: Copy + Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "channel capacity must be at least 1");
    let shared = Arc::new(HeapRing {
        slots: (0..capacity.next_power_of_two())
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        capacity: capacity as u64,
        head: CachePadded(AtomicU64::new(0)),
        tail: CachePadded(AtomicU64::new(0)),
    });
    (
        spsc::Producer::new(Arc::clone(&shared)),
        spsc::Consumer::new(shared),
    )
}

/// Creates a [`BeatSample`] channel (the concrete instantiation the
/// heartbeat framework uses).
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn beat_channel(capacity: usize) -> (BeatProducer, BeatConsumer) {
    spsc_channel(capacity)
}

/// The producer (application) half of a [`BeatSample`] channel.
pub type BeatProducer = Producer<BeatSample>;
/// The consumer (daemon) half of a [`BeatSample`] channel.
pub type BeatConsumer = Consumer<BeatSample>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_exact_even_when_rounded() {
        // Requested capacity 5 rounds the slot array to 8, but the sixth
        // in-flight record must still be rejected.
        let (mut tx, mut rx) = spsc_channel::<u32>(5);
        assert_eq!(tx.capacity(), 5);
        assert_eq!(rx.capacity(), 5);
        for i in 0..5 {
            tx.try_push(i).unwrap();
        }
        assert!(tx.try_push(5).is_err());
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_record_drains_interleave_with_batch_drains() {
        let (mut tx, mut rx) = spsc_channel::<u64>(8);
        for i in 0..6 {
            tx.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.drain_into_capped(&mut out, 1), 1);
        assert_eq!(out, vec![0]);
        assert_eq!(rx.drain_into_capped(&mut out, 1), 1);
        assert_eq!(out, vec![1]);
        assert_eq!(rx.pending(), 4);
        assert_eq!(rx.drain_into(&mut out), 4);
        assert_eq!(out, vec![2, 3, 4, 5]);
        assert_eq!(rx.drain_into_capped(&mut out, 1), 0);
        assert_eq!(rx.drained(), 6);
    }

    #[test]
    fn beat_sample_from_record_round_trips() {
        let record = HeartbeatRecord {
            tag: HeartbeatTag(7),
            timestamp: Timestamp::from_millis(70),
            latency: TimestampDelta::from_millis(10),
            instant_rate: None,
            window_rate: None,
            global_rate: None,
        };
        let sample = BeatSample::from_record(&record);
        assert_eq!(sample.tag, HeartbeatTag(7));
        assert_eq!(sample.timestamp, Timestamp::from_millis(70));
        assert_eq!(sample.latency, TimestampDelta::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = spsc_channel::<u8>(0);
    }
}
