//! Torn-read hardening of the segment's two seqlock blocks (ABI v2).
//!
//! The decision block is the daemon→application half of the control
//! plane: a seqlock-published record read wait-free by the application.
//! The warm-start block is the same seqlock, read by a successor daemon
//! that trusts it for bit-identical recovery. Every suite here runs over
//! both. The safety claim is that **no reader ever observes a mixed
//! payload** — every [`SeqRead::Ready`] snapshot is bit-for-bit some single
//! publication — under
//!
//! * same-process concurrency (a writer thread racing a reader loop),
//! * arbitrary payloads including NaN and all-ones bit patterns
//!   (property tests),
//! * a *forked* writer SIGKILLed mid-stream: whatever instant the kill
//!   lands, the reader gets `Empty`, `Torn`, or a consistent snapshot —
//!   never garbage — and a successor writer repairs an odd (abandoned
//!   mid-write) version counter transparently.

#![cfg(unix)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use powerdial_heartbeats::shm::process::{fork_child, ChildExit};
use powerdial_heartbeats::shm::{
    Segment, SegmentGeometry, SegmentHeader, SeqBlock, SeqRead, ShmConsumer, ShmDecision,
    ShmProducer, ShmWarmState,
};
use proptest::prelude::*;

fn segment() -> Arc<Segment> {
    Arc::new(Segment::create(SegmentGeometry::for_beat_samples(16).unwrap()).unwrap())
}

/// Which of the header's two seqlock blocks a suite runs against. Both go
/// through their *typed* publish/read — the path the daemon and the
/// application (decision) or a successor daemon (warm state) really take —
/// with the payload spelled as the block's four words: a `u32` point index
/// and three `u64`s.
#[derive(Debug, Clone, Copy)]
enum Block {
    Decision,
    Warm,
}

const BLOCKS: [Block; 2] = [Block::Decision, Block::Warm];

impl Block {
    fn raw(self, header: &SegmentHeader) -> &SeqBlock {
        match self {
            Block::Decision => &header.decision,
            Block::Warm => &header.warm,
        }
    }

    fn publish(self, header: &SegmentHeader, (point_idx, a, b, c): (u32, u64, u64, u64)) {
        match self {
            Block::Decision => header.publish_decision(ShmDecision {
                point_idx,
                gain_bits: a,
                achieved_speedup_bits: b,
                qos_loss_bits: c,
            }),
            Block::Warm => header.publish_warm_state(ShmWarmState {
                point_idx,
                speedup_bits: a,
                observed_rate_bits: b,
                beat_in_quantum: c,
            }),
        }
    }

    fn read(self, header: &SegmentHeader) -> SeqRead<(u32, u64, u64, u64)> {
        match self {
            Block::Decision => header.read_decision().map(|d| {
                (
                    d.point_idx,
                    d.gain_bits,
                    d.achieved_speedup_bits,
                    d.qos_loss_bits,
                )
            }),
            Block::Warm => header.read_warm_state().map(|w| {
                (
                    w.point_idx,
                    w.speedup_bits,
                    w.observed_rate_bits,
                    w.beat_in_quantum,
                )
            }),
        }
    }

    fn reset(self, header: &SegmentHeader) {
        match self {
            Block::Decision => header.reset_decision(),
            Block::Warm => header.reset_warm_state(),
        }
    }
}

/// A payload whose four words all encode the same counter — the invariant
/// every consistent snapshot must preserve.
fn tagged(counter: u64) -> (u32, u64, u64, u64) {
    (counter as u32, counter, counter, counter)
}

/// Asserts a snapshot is some single `tagged` payload, returning its
/// counter.
fn assert_untorn(payload: (u32, u64, u64, u64)) -> u64 {
    let counter = payload.1;
    assert_eq!(payload, tagged(counter), "mixed payload");
    counter
}

#[test]
fn concurrent_reader_never_observes_mixed_payloads() {
    const PUBLICATIONS: u64 = 200_000;
    for block in BLOCKS {
        let segment = segment();
        let done = Arc::new(AtomicBool::new(false));

        let writer_segment = Arc::clone(&segment);
        let writer_done = Arc::clone(&done);
        let writer = std::thread::spawn(move || {
            for counter in 1..=PUBLICATIONS {
                block.publish(writer_segment.header(), tagged(counter));
            }
            writer_done.store(true, Ordering::Release);
        });

        let mut ready_reads = 0u64;
        let mut torn_reads = 0u64;
        let mut last_counter = 0u64;
        while !done.load(Ordering::Acquire) || ready_reads == 0 {
            match block.read(segment.header()) {
                SeqRead::Empty => {}
                SeqRead::Torn => torn_reads += 1,
                SeqRead::Ready(payload) => {
                    let counter = assert_untorn(payload);
                    assert!(
                        counter >= last_counter,
                        "{block:?} regressed: {counter} after {last_counter}"
                    );
                    last_counter = counter;
                    ready_reads += 1;
                }
            }
        }
        writer.join().unwrap();

        // The stream has quiesced: the final read must be the final
        // publication.
        match block.read(segment.header()) {
            SeqRead::Ready(payload) => assert_eq!(assert_untorn(payload), PUBLICATIONS),
            other => panic!("quiesced {block:?} block must read Ready, got {other:?}"),
        }
        assert!(ready_reads > 0);
        // Torn is legal under contention but must be the exception, not the
        // rule, for a writer that spends most of its time between publishes.
        let _ = torn_reads;
    }
}

#[test]
fn forked_writer_sigkilled_mid_stream_never_leaves_garbage() {
    for block in BLOCKS {
        let segment = segment();
        // Claim the consumer role in the child, producer in the parent, so
        // the roles mirror the real daemon/application split.
        let child = fork_child({
            let segment = Arc::clone(&segment);
            move || {
                let Ok(consumer) = ShmConsumer::attach(segment) else {
                    return 1;
                };
                let mut counter = 1u64;
                loop {
                    block.publish(consumer.segment().header(), tagged(counter));
                    counter += 1;
                }
            }
        })
        .unwrap();

        let _producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
        let header = segment.header();

        // Read concurrently with the live writer until real publications
        // are observed, checking consistency throughout.
        let mut observed = 0u64;
        while observed < 10_000 {
            if let SeqRead::Ready(payload) = block.read(header) {
                assert_untorn(payload);
                observed += 1;
            }
        }

        // SIGKILL can land anywhere, including between the two halves of a
        // seqlock write.
        child.kill().unwrap();
        assert!(matches!(child.wait().unwrap(), ChildExit::Signaled(_)));

        // Post-mortem reads are stable (the writer is gone) and still sane:
        // either a consistent final snapshot or a permanently torn block —
        // never mixed bits.
        let post_mortem = block.read(header);
        match post_mortem {
            SeqRead::Ready(payload) => {
                assert_untorn(payload);
            }
            SeqRead::Torn => {}
            SeqRead::Empty => panic!("10k observed publications cannot vanish"),
        }
        assert_eq!(
            block.read(header),
            post_mortem,
            "a dead writer's {block:?} block must read deterministically"
        );

        // A successor writer (restarted daemon) repairs even a mid-write
        // abandonment: the very next publication is readable.
        block.publish(header, tagged(u64::MAX));
        match block.read(header) {
            SeqRead::Ready(payload) => assert_eq!(assert_untorn(payload), u64::MAX),
            other => panic!("successor publish must repair {block:?}, got {other:?}"),
        }
    }
}

fn payload() -> impl Strategy<Value = (u32, u64, u64, u64)> {
    (
        0u32..u32::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
        0u64..u64::MAX,
    )
}

proptest! {
    /// Any payload — NaN bits, all-ones, zeros — round-trips bit-exactly,
    /// and every read between publications returns exactly the latest
    /// publication.
    #[test]
    fn arbitrary_payloads_round_trip_bit_exactly(
        payloads in proptest::collection::vec(payload(), 1..32),
    ) {
        for block in BLOCKS {
            let segment = segment();
            let header = segment.header();
            prop_assert_eq!(block.read(header), SeqRead::Empty);
            for &payload in &payloads {
                block.publish(header, payload);
                prop_assert_eq!(block.read(header), SeqRead::Ready(payload));
            }
            block.reset(header);
            prop_assert_eq!(block.read(header), SeqRead::Empty);
        }
    }

    /// A version counter left odd (writer died mid-publish) reads Torn —
    /// a signal, not stale data — and any successor publication repairs
    /// it for good.
    #[test]
    fn abandoned_mid_write_counter_reads_torn_until_repaired(
        scribble in 1u64..1_000_000,
        repair in payload(),
    ) {
        for block in BLOCKS {
            let segment = segment();
            let header = segment.header();
            block.publish(header, tagged(7));
            block
                .raw(header)
                .seq
                .store(scribble * 2 + 1, std::sync::atomic::Ordering::Release);
            prop_assert_eq!(block.read(header), SeqRead::Torn);

            block.publish(header, repair);
            prop_assert_eq!(block.read(header), SeqRead::Ready(repair));
        }
    }
}
