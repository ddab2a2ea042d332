//! The one Lamport SPSC ring of this crate, generic over where its slots
//! live.
//!
//! `tail` is written only by the producer, `head` only by the consumer;
//! both are monotone u64 positions (at 10^9 beats/sec a u64 lasts ~585
//! years) that the storage masks into its power-of-two slot array.
//! Publication is release/acquire on those two atomics:
//!
//! * [`Producer::try_push`] is wait-free — a compare against a locally
//!   cached consumer position (refreshed with one acquire load only when
//!   the ring looks full), one slot write, one release store of `tail`; a
//!   full ring rejects the record (backpressure) rather than blocking;
//! * [`Consumer::drain_into_capped`] acquires `tail`, copies every pending
//!   record (up to a cap) into a caller-owned scratch buffer, and frees the
//!   slots with one release store of `head`.
//!
//! The position logic exists once, here. What differs between the two
//! instantiations — [`crate::channel`]'s heap slots and
//! [`crate::shm::transport`]'s mapped segment — lives behind a
//! crate-private storage trait: plain versus per-word-atomic slot access,
//! and the capacity rule. The core trusts neither counter it did not write:
//! every distance read back from the shared atomics is clamped to
//! `[0, capacity]`, so a
//! scribbling cross-process peer can deliver garbage *values* but never
//! drive a slot access or an allocation beyond the storage's capacity.
//! Implicit overflow semantics are banned in this module (clippy
//! `arithmetic_side_effects`); every position op is an explicit
//! `wrapping_*`.

#![deny(clippy::arithmetic_side_effects)]
// `Storage` is crate-private on purpose — its slot accessors are `unsafe`
// and only this crate's two storages may stand behind the public handles —
// so it bounds public items it is less visible than.
#![allow(private_bounds)]

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Where a ring's positions and slots live: a handle (both halves hold
/// one) onto state the two halves share.
///
/// An implementation must make [`write`](Storage::write) and
/// [`read`](Storage::read) memory-safe for *every* `position` (it masks
/// into its own slot array); the ring protocol only adds exclusivity.
pub(crate) trait Storage<T> {
    /// Next position the consumer will read. Written by the consumer with
    /// `Release` (after it has finished reading the freed slots), read by
    /// the producer with `Acquire` (before it overwrites them).
    fn head(&self) -> &AtomicU64;

    /// Next position the producer will write. Written by the producer with
    /// `Release` (after the slot contents are in place), read by the
    /// consumer with `Acquire` (before it reads them).
    fn tail(&self) -> &AtomicU64;

    /// Most records that may be in flight; at most the slot count. Fixed
    /// for the storage's lifetime.
    fn capacity(&self) -> u64;

    /// Writes `value` into the slot of `position`.
    ///
    /// # Safety
    ///
    /// The caller must own the slot: `position` in `[head, head+capacity)`
    /// and not yet published through `tail`.
    unsafe fn write(&self, position: u64, value: T);

    /// Reads the record in the slot of `position`.
    ///
    /// # Safety
    ///
    /// The caller must own the slot: `position` in `[head, tail)` as
    /// observed by an acquire load of `tail`, and not yet freed through
    /// `head`.
    unsafe fn read(&self, position: u64) -> T;
}

/// Records between two monotone ring positions, clamped to `[0, capacity]`.
///
/// Positions never legitimately run backwards or diverge by more than the
/// capacity, so anything outside that envelope is a corrupt or hostile
/// counter: a `to` behind `from` reads as empty, a `to` absurdly far ahead
/// reads as a full ring. Either way the result bounds every subsequent slot
/// access and allocation.
#[inline]
pub(crate) fn clamped_distance(from: u64, to: u64, capacity: u64) -> u64 {
    if to >= from {
        to.wrapping_sub(from).min(capacity)
    } else {
        0
    }
}

/// The producer half of a ring of `T` records in storage `S`. Not
/// cloneable: exactly one thread may push at a time (move the producer to
/// hand it off).
pub struct Producer<T, S> {
    storage: S,
    /// Local copy of the producer position (the producer is its only
    /// writer, so it never needs to load the atomic).
    tail: u64,
    /// Last observed consumer position; refreshed from the shared atomic
    /// only when the ring looks full, so steady-state pushes touch a single
    /// shared cache line (the slot) plus the producer-owned tail.
    cached_head: u64,
    rejected: u64,
    _item: PhantomData<fn(T)>,
}

impl<T: Copy, S: Storage<T>> Producer<T, S> {
    /// A producer resuming from the storage's current positions (zero for
    /// a fresh ring, the predecessor's for a re-attached segment).
    pub(crate) fn new(storage: S) -> Self {
        Producer {
            tail: storage.tail().load(Ordering::Acquire),
            cached_head: storage.head().load(Ordering::Acquire),
            rejected: 0,
            storage,
            _item: PhantomData,
        }
    }

    /// The storage behind this half.
    pub(crate) fn storage(&self) -> &S {
        &self.storage
    }

    /// Attempts to push one record. Wait-free: never blocks, never spins,
    /// never syscalls, never allocates.
    ///
    /// # Errors
    ///
    /// Returns the record back when the ring is full (the consumer has not
    /// drained recently enough); the rejected-push count is tracked and
    /// available via [`Producer::rejected`].
    #[inline]
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let capacity = self.storage.capacity();
        if self.tail.wrapping_sub(self.cached_head) >= capacity {
            self.cached_head = self.storage.head().load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.cached_head) >= capacity {
                self.rejected = self.rejected.saturating_add(1);
                return Err(value);
            }
        }
        // SAFETY: positions in [head, head+capacity) ∋ tail are owned by
        // the producer until the release store below publishes them.
        unsafe { self.storage.write(self.tail, value) };
        self.tail = self.tail.wrapping_add(1);
        self.storage.tail().store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Records currently in flight (pushed but not yet drained), clamped
    /// to `[0, capacity]` even if a corrupt consumer published a nonsense
    /// `head`.
    pub fn in_flight(&self) -> u64 {
        let head = self.storage.head().load(Ordering::Acquire);
        clamped_distance(head, self.tail, self.storage.capacity())
    }

    /// Pushes rejected by this handle because the ring was full.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Total records successfully pushed (the ring's monotone producer
    /// position).
    pub fn pushed(&self) -> u64 {
        self.tail
    }

    /// The ring's capacity in records.
    pub fn capacity(&self) -> usize {
        self.storage.capacity() as usize
    }
}

/// The consumer half of a ring of `T` records in storage `S`. Not
/// cloneable: exactly one thread may drain at a time.
pub struct Consumer<T, S> {
    storage: S,
    /// Local copy of the consumer position (the consumer is its only
    /// writer).
    head: u64,
    _item: PhantomData<fn() -> T>,
}

impl<T: Copy, S: Storage<T>> Consumer<T, S> {
    /// A consumer resuming from the storage's current `head`.
    pub(crate) fn new(storage: S) -> Self {
        Consumer {
            head: storage.head().load(Ordering::Acquire),
            storage,
            _item: PhantomData,
        }
    }

    /// The storage behind this half.
    pub(crate) fn storage(&self) -> &S {
        &self.storage
    }

    /// Drains every pending record into `out` (cleared first), oldest
    /// first, and returns how many were drained.
    ///
    /// `out` is a reusable scratch buffer: it grows to at most the ring
    /// capacity on early calls and is never reallocated after that, so the
    /// steady-state drain performs no heap allocation.
    pub fn drain_into(&mut self, out: &mut Vec<T>) -> usize {
        self.drain_into_capped(out, usize::MAX)
    }

    /// Drains at most `cap` pending records into `out` (cleared first),
    /// oldest first, and returns how many were drained. Records beyond the
    /// cap stay in the ring for the next drain — the daemon's fairness
    /// valve: one flooded ring cannot monopolize a shard's quantum.
    ///
    /// The published `tail` is clamped to `[head, head+capacity]` before
    /// use, so a corrupt or hostile producer can at worst deliver garbage
    /// records. Same allocation contract as
    /// [`drain_into`](Consumer::drain_into).
    pub fn drain_into_capped(&mut self, out: &mut Vec<T>, cap: usize) -> usize {
        out.clear();
        let take = self.pending().min(cap);
        if take == 0 {
            return 0;
        }
        out.reserve(take);
        for offset in 0..take as u64 {
            // SAFETY: positions in [head, tail) ⊇ [head, head+take) were
            // published by the producer's release store, which the acquire
            // load in `pending` synchronized with; the producer will not
            // overwrite them until the release store of `head` below frees
            // them.
            out.push(unsafe { self.storage.read(self.head.wrapping_add(offset)) });
        }
        self.head = self.head.wrapping_add(take as u64);
        self.storage.head().store(self.head, Ordering::Release);
        take
    }

    /// Records currently pending (clamped to `[0, capacity]`).
    pub fn pending(&self) -> usize {
        let tail = self.storage.tail().load(Ordering::Acquire);
        clamped_distance(self.head, tail, self.storage.capacity()) as usize
    }

    /// True when no records are pending.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// Total records drained so far (the ring's monotone consumer
    /// position).
    pub fn drained(&self) -> u64 {
        self.head
    }

    /// The ring's capacity in records.
    pub fn capacity(&self) -> usize {
        self.storage.capacity() as usize
    }
}

impl<T, S: Storage<T>> std::fmt::Debug for Producer<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Producer")
            .field("pushed", &self.tail)
            .field("rejected", &self.rejected)
            .field("capacity", &self.storage.capacity())
            .finish()
    }
}

impl<T, S: Storage<T>> std::fmt::Debug for Consumer<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Consumer")
            .field("drained", &self.head)
            .field("capacity", &self.storage.capacity())
            .finish()
    }
}

/// The ring's behaviour, checked once against both of its storages: the
/// heap ring of [`crate::channel`] and a shared-memory segment.
#[cfg(test)]
mod tests {
    use crate::channel::beat_channel;
    use crate::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
    use std::sync::Arc;

    fn shm_pair(capacity: usize) -> (ShmProducer, ShmConsumer) {
        let geometry = SegmentGeometry::for_beat_samples(capacity).unwrap();
        let segment = Arc::new(Segment::create(geometry).unwrap());
        (
            ShmProducer::attach(Arc::clone(&segment)).unwrap(),
            ShmConsumer::attach(segment).unwrap(),
        )
    }

    /// One `#[test]` per check, run against a heap ring and an shm segment
    /// of the same capacity.
    macro_rules! on_both_storages {
        ($($check:ident($capacity:expr);)*) => {$(
            #[test]
            fn $check() {
                let (mut tx, mut rx) = beat_channel($capacity);
                check::$check(&mut tx, &mut rx);
                let (mut tx, mut rx) = shm_pair($capacity);
                check::$check(&mut *tx, &mut *rx);
            }
        )*};
    }

    on_both_storages! {
        push_then_drain_preserves_order_and_bits(16);
        capped_drain_leaves_the_rest_queued(16);
        full_ring_rejects_and_counts(4);
        wraparound_keeps_fifo_order(4);
    }

    #[allow(clippy::arithmetic_side_effects)]
    mod check {
        use crate::channel::BeatSample;
        use crate::record::HeartbeatTag;
        use crate::spsc::{Consumer, Producer, Storage};
        use crate::time::{Timestamp, TimestampDelta};

        fn sample(tag: u64) -> BeatSample {
            BeatSample {
                tag: HeartbeatTag(tag),
                timestamp: Timestamp::from_millis(tag * 40),
                latency: TimestampDelta::from_millis(if tag == 0 { 0 } else { 40 }),
            }
        }

        fn tags(out: &[BeatSample]) -> Vec<u64> {
            out.iter().map(|sample| sample.tag.value()).collect()
        }

        pub fn push_then_drain_preserves_order_and_bits<S: Storage<BeatSample>>(
            tx: &mut Producer<BeatSample, S>,
            rx: &mut Consumer<BeatSample, S>,
        ) {
            for tag in 0..10 {
                tx.try_push(sample(tag)).unwrap();
            }
            let mut out = Vec::new();
            assert_eq!(rx.drain_into(&mut out), 10);
            assert_eq!(out, (0..10).map(sample).collect::<Vec<_>>());
            assert_eq!(rx.drain_into(&mut out), 0);
            assert!(rx.is_empty());
        }

        pub fn capped_drain_leaves_the_rest_queued<S: Storage<BeatSample>>(
            tx: &mut Producer<BeatSample, S>,
            rx: &mut Consumer<BeatSample, S>,
        ) {
            for tag in 0..10 {
                tx.try_push(sample(tag)).unwrap();
            }
            let mut out = Vec::new();
            assert_eq!(rx.drain_into_capped(&mut out, 4), 4);
            assert_eq!(tags(&out), vec![0, 1, 2, 3]);
            assert_eq!(rx.pending(), 6);
            // The freed slots are immediately reusable by the producer.
            for tag in 10..14 {
                tx.try_push(sample(tag)).unwrap();
            }
            assert_eq!(rx.drain_into_capped(&mut out, usize::MAX), 10);
            assert_eq!(tags(&out), (4..14).collect::<Vec<_>>());
            assert!(rx.is_empty());
            assert_eq!(rx.drain_into_capped(&mut out, 0), 0);
        }

        pub fn full_ring_rejects_and_counts<S: Storage<BeatSample>>(
            tx: &mut Producer<BeatSample, S>,
            rx: &mut Consumer<BeatSample, S>,
        ) {
            for tag in 0..4 {
                tx.try_push(sample(tag)).unwrap();
            }
            assert_eq!(tx.try_push(sample(99)), Err(sample(99)));
            assert_eq!(tx.try_push(sample(100)), Err(sample(100)));
            assert_eq!(tx.rejected(), 2);
            assert_eq!(tx.pushed(), 4);
            assert_eq!(tx.in_flight(), 4);

            // Draining frees the whole ring.
            let mut out = Vec::new();
            assert_eq!(rx.drain_into(&mut out), 4);
            assert_eq!(tags(&out), vec![0, 1, 2, 3]);
            tx.try_push(sample(4)).unwrap();
            assert_eq!(tx.in_flight(), 1);
            assert_eq!(rx.drain_into_capped(&mut out, 1), 1);
            assert_eq!(out[0].tag, HeartbeatTag(4));
        }

        pub fn wraparound_keeps_fifo_order<S: Storage<BeatSample>>(
            tx: &mut Producer<BeatSample, S>,
            rx: &mut Consumer<BeatSample, S>,
        ) {
            let mut out = Vec::new();
            let mut expected = 0u64;
            for round in 0..100u64 {
                for _ in 0..(1 + round % 4) {
                    tx.try_push(sample(tx.pushed())).unwrap();
                }
                rx.drain_into(&mut out);
                for record in &out {
                    assert_eq!(record.tag.value(), expected);
                    expected += 1;
                }
            }
            assert_eq!(tx.rejected(), 0);
            assert_eq!(rx.drained(), expected);
        }
    }
}
