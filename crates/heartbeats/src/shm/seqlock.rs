//! The one seqlock of the segment ABI: a version counter guarding four
//! payload words.
//!
//! A [`SeqBlock`] has a single writer by protocol (the attached
//! consumer/daemon) and any number of wait-free readers. The writer bumps
//! the counter to odd, stores the payload, and lands on the even successor;
//! a reader accepts a snapshot only when it saw the same even counter
//! before and after loading the payload. A reader therefore gets a
//! bit-consistent snapshot, an explicit [`SeqRead::Empty`], or an explicit
//! [`SeqRead::Torn`] — never a half-written mixture, even when the writer
//! is SIGKILLed between the two halves of a write.
//!
//! [`crate::shm::SegmentHeader`] embeds two of these — the decision block
//! and the warm-start block — so the parity repair, the fences and the
//! bounded-retry read exist once. Implicit overflow semantics are banned in
//! this module (clippy `arithmetic_side_effects`).

#![deny(clippy::arithmetic_side_effects)]

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Bounded seqlock read attempts in [`SeqBlock::read`]. The writer holds
/// the lock for a handful of relaxed stores, so under any live writer two
/// attempts suffice; the bound exists so a writer that died mid-publish
/// degrades to [`SeqRead::Torn`] instead of a spin.
pub const DECISION_READ_RETRIES: usize = 8;

/// Outcome of one wait-free [`SeqBlock`] read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqRead<T> {
    /// Nothing has ever been published (or the block was reset).
    Empty,
    /// A bit-consistent snapshot of the latest publication.
    Ready(T),
    /// Every bounded retry raced a write in progress. Either the writer is
    /// publishing right now (the next read will succeed) or it died between
    /// the two halves of a seqlock write (the block stays torn until the
    /// next publish or reset repairs the parity). A torn result is a
    /// *signal*, not data: callers keep their last known-good value, or
    /// start cold.
    Torn,
}

impl<T> SeqRead<T> {
    /// Decodes a ready snapshot, keeping `Empty` and `Torn` as they are.
    pub fn map<U>(self, decode: impl FnOnce(T) -> U) -> SeqRead<U> {
        match self {
            SeqRead::Empty => SeqRead::Empty,
            SeqRead::Ready(value) => SeqRead::Ready(decode(value)),
            SeqRead::Torn => SeqRead::Torn,
        }
    }
}

/// A seqlock-protected block of four `u64` words, 40 bytes of segment ABI.
///
/// The fields are public for the same reason [`crate::shm::SegmentHeader`]'s
/// are: tests and diagnostic tools inspect and fault-inject a mapped block
/// directly. They are atomics because the block lives in memory another
/// *process* can scribble on.
#[repr(C)]
#[derive(Debug)]
pub struct SeqBlock {
    /// Version counter. `0` = never published; odd = a write is in
    /// progress; even ≥ 2 = consistent.
    pub seq: AtomicU64,
    /// The payload, as raw words.
    pub words: [AtomicU64; 4],
}

const _: () = assert!(std::mem::size_of::<SeqBlock>() == 40);

impl SeqBlock {
    /// Publishes one payload. A writer that inherits an odd counter (its
    /// predecessor died mid-publish) transparently repairs it: the
    /// in-progress parity is kept odd for the duration of this write and
    /// lands on even.
    pub fn publish(&self, words: [u64; 4]) {
        self.write(words, |writing| writing.wrapping_add(1));
    }

    /// Clears the block back to the never-published state, under the same
    /// discipline as a publish, so a concurrent reader races into
    /// [`SeqRead::Empty`] or a retry — never a half-cleared snapshot.
    ///
    /// **Precondition.** Reset returns the version to 0, so the counter is
    /// not monotone across a reset: a reader stalled across *reset +
    /// republish* can see the same even version around words from two
    /// different publications and accept the mixture. Callers rule that
    /// out by resetting only when no reader of the old contents can still
    /// be mid-read: the daemon resets in `DaemonShard::remove`
    /// (unregister/reap — the application is gone or leaving), on the warm
    /// block at quarantine (its only reader is a *successor* daemon), and
    /// on a torn decision block at adoption (readers of a torn block get
    /// `Torn`, not data). Closing the hole in the protocol itself needs an
    /// `Empty` marker other than `seq == 0` — an ABI bump, left to the
    /// model-checking item.
    pub fn reset(&self) {
        self.write([0; 4], |_| 0);
    }

    /// One seqlock write: counter to the next odd value, payload, counter
    /// to `landing(odd)`.
    fn write(&self, words: [u64; 4], landing: impl FnOnce(u64) -> u64) {
        let seq = self.seq.load(Ordering::Relaxed);
        // Next odd value above `seq`: seq+1 when even, seq+2 when a dead
        // predecessor left it odd.
        let writing = seq.wrapping_add(1).wrapping_add(seq & 1);
        self.seq.store(writing, Ordering::Relaxed);
        // Readers that loaded `writing` (odd) discard their snapshot, so
        // the relaxed payload stores can never be *observed* torn; the
        // fence keeps them from sinking above the odd store.
        fence(Ordering::Release);
        for (slot, word) in self.words.iter().zip(words) {
            slot.store(word, Ordering::Relaxed);
        }
        self.seq.store(landing(writing), Ordering::Release);
    }

    /// Reads the block wait-free: at most [`DECISION_READ_RETRIES`]
    /// attempts, each one a pair of version loads around relaxed payload
    /// loads. A [`SeqRead::Ready`] snapshot is bit for bit what some single
    /// [`SeqBlock::publish`] wrote.
    ///
    /// Always inlined into its (typed) callers: returned through memory,
    /// the four words are reloaded pairwise by the decode and each reload
    /// straddles two stores — a store-forwarding stall that tripled the
    /// cost of a decision read (2.8 → 8 ns).
    #[inline(always)]
    pub fn read(&self) -> SeqRead<[u64; 4]> {
        for _ in 0..DECISION_READ_RETRIES {
            let before = self.seq.load(Ordering::Acquire);
            if before == 0 {
                return SeqRead::Empty;
            }
            if before & 1 == 1 {
                // Write in progress; try again.
                std::hint::spin_loop();
                continue;
            }
            let words = std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed));
            // Order the payload loads before the confirming version load.
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == before {
                return SeqRead::Ready(words);
            }
        }
        SeqRead::Torn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> SeqBlock {
        // SAFETY: all-zero bytes are a valid (never-published) block.
        unsafe { std::mem::zeroed() }
    }

    #[test]
    fn publish_read_reset_round_trips() {
        let block = block();
        assert_eq!(block.read(), SeqRead::Empty);

        let words = [3, 2.5f64.to_bits(), 1.75f64.to_bits(), 0.03f64.to_bits()];
        block.publish(words);
        assert_eq!(block.read(), SeqRead::Ready(words));
        assert_eq!(block.seq.load(Ordering::Relaxed), 2);

        // NaN payloads survive bit-exactly (bits, not float compare).
        let nan = [
            u64::from(u32::MAX),
            f64::NAN.to_bits(),
            f64::INFINITY.to_bits(),
            (-0.0f64).to_bits(),
        ];
        block.publish(nan);
        assert_eq!(block.read(), SeqRead::Ready(nan));
        assert_eq!(block.seq.load(Ordering::Relaxed), 4);

        block.reset();
        assert_eq!(block.read(), SeqRead::Empty);
    }

    #[test]
    fn read_reports_torn_when_writer_died_mid_publish() {
        // Died during the very first publish (odd from zero), and during a
        // later one (odd above a consistent version).
        for abandoned in [1u64, 3] {
            let block = block();
            if abandoned > 1 {
                block.publish([1, 1.5f64.to_bits(), 1.5f64.to_bits(), 0]);
            }
            // Simulate a writer SIGKILLed between the seqlock write halves:
            // version odd, payload half-scribbled.
            block.seq.store(abandoned, Ordering::Release);
            block.words[1].store(0xdead, Ordering::Relaxed);
            assert_eq!(block.read(), SeqRead::Torn);
            // A successor writer repairs the parity: the next publish lands
            // on an even version and reads go through again.
            let repaired = [2, 2.0f64.to_bits(), 2.0f64.to_bits(), 0.01f64.to_bits()];
            block.publish(repaired);
            assert_eq!(block.seq.load(Ordering::Relaxed) & 1, 0);
            assert_eq!(block.read(), SeqRead::Ready(repaired));
        }
    }
}
