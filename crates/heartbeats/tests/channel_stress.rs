//! Multi-thread stress tests for the lock-free SPSC heartbeat ring, over
//! every storage that ships: the in-heap channel and a shared-memory
//! segment on each backing (memfd, tmpfile), mapped once into this address
//! space.
//!
//! These are the tests that catch atomics-ordering bugs, so CI runs them
//! under `cargo test --release` as well as the default debug profile: the
//! optimizer is what turns a missing acquire/release edge into a visible
//! reorder.

use std::sync::Arc;
use std::thread;

use powerdial_heartbeats::channel::{beat_channel, BeatSample};
use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
use powerdial_heartbeats::{HeartbeatTag, Timestamp, TimestampDelta};

/// Beats per stress run: enough ring wraps (thousands, with capacity 64)
/// to expose index or ordering mistakes, small enough for debug CI.
const STRESS_ITEMS: u64 = 200_000;

/// One fresh segment per backing this target has. Two threads of one
/// process are the one deployment the fork suites do not cover.
fn segments(capacity: usize) -> Vec<Segment> {
    let geometry = SegmentGeometry::for_beat_samples(capacity).unwrap();
    let tmpfile = Segment::create_tmpfile_in(std::env::temp_dir(), geometry).unwrap();
    #[cfg(target_os = "linux")]
    return vec![Segment::create_memfd(geometry).unwrap(), tmpfile];
    #[cfg(not(target_os = "linux"))]
    vec![tmpfile]
}

fn shm_pair(segment: Segment) -> (ShmProducer, ShmConsumer) {
    let segment = Arc::new(segment);
    (
        ShmProducer::attach(Arc::clone(&segment)).unwrap(),
        ShmConsumer::attach(segment).unwrap(),
    )
}

/// Runs a suite body once per storage, `$tx`/`$rx` bound to a fresh pair
/// of the given capacity (a power of two, so every ring holds the same).
macro_rules! on_every_storage {
    ($capacity:expr, |$tx:ident, $rx:ident| $body:block) => {{
        {
            let (mut $tx, mut $rx) = beat_channel($capacity);
            $body
        }
        for segment in segments($capacity) {
            let (mut $tx, mut $rx) = shm_pair(segment);
            $body
        }
    }};
}

/// A beat whose tag is the stress value it stands for.
fn item(value: u64) -> BeatSample {
    BeatSample {
        tag: HeartbeatTag(value),
        timestamp: Timestamp::from_nanos(value),
        latency: TimestampDelta::ZERO,
    }
}

#[test]
fn concurrent_drain_sees_every_item_in_order() {
    on_every_storage!(64, |tx, rx| {
        let producer = thread::spawn(move || {
            let mut value = 0u64;
            while value < STRESS_ITEMS {
                match tx.try_push(item(value)) {
                    Ok(()) => value += 1,
                    Err(_) => thread::yield_now(), // full: wait for the drain
                }
            }
            (tx.pushed(), tx.rejected())
        });

        let mut scratch = Vec::new();
        let mut expected = 0u64;
        while expected < STRESS_ITEMS {
            if rx.drain_into(&mut scratch) == 0 {
                thread::yield_now();
                continue;
            }
            for received in &scratch {
                assert_eq!(*received, item(expected), "lost or reordered item");
                expected += 1;
            }
        }

        let (pushed, rejected) = producer.join().unwrap();
        assert_eq!(pushed, STRESS_ITEMS, "every item was eventually accepted");
        assert_eq!(expected, STRESS_ITEMS);
        assert!(rx.is_empty());
        // Rejections are backpressure, not loss: every rejected push was
        // retried until it landed.
        assert!(rejected < STRESS_ITEMS * 50, "pathological spin");
    });
}

#[test]
fn concurrent_pop_sees_every_item_in_order() {
    on_every_storage!(8, |tx, rx| {
        let producer = thread::spawn(move || {
            let mut value = 0u64;
            while value < STRESS_ITEMS / 4 {
                if tx.try_push(item(value)).is_ok() {
                    value += 1;
                } else {
                    thread::yield_now();
                }
            }
        });

        // Single-record consumption racing the producer.
        let mut one = Vec::new();
        let mut expected = 0u64;
        while expected < STRESS_ITEMS / 4 {
            if rx.drain_into_capped(&mut one, 1) == 1 {
                assert_eq!(one[0], item(expected), "lost or reordered item");
                expected += 1;
            } else {
                thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(rx.drained(), STRESS_ITEMS / 4);
    });
}

#[test]
fn concurrent_beat_stream_preserves_tags_and_timestamps() {
    let beats = STRESS_ITEMS / 4;
    on_every_storage!(32, |tx, rx| {
        let producer = thread::spawn(move || {
            let mut now = Timestamp::ZERO;
            for tag in 0..beats {
                let latency = TimestampDelta::from_millis(1 + tag % 7);
                if tag > 0 {
                    now += latency;
                }
                let sample = BeatSample {
                    tag: HeartbeatTag(tag),
                    timestamp: now,
                    latency: if tag == 0 {
                        TimestampDelta::ZERO
                    } else {
                        latency
                    },
                };
                let mut pending = sample;
                loop {
                    match tx.try_push(pending) {
                        Ok(()) => break,
                        Err(rejected) => {
                            pending = rejected;
                            thread::yield_now();
                        }
                    }
                }
            }
        });

        let mut scratch = Vec::new();
        let mut next_tag = 0u64;
        let mut last_timestamp = Timestamp::ZERO;
        while next_tag < beats {
            rx.drain_into(&mut scratch);
            for sample in &scratch {
                assert_eq!(sample.tag, HeartbeatTag(next_tag), "beat lost or reordered");
                assert!(
                    sample.timestamp >= last_timestamp,
                    "timestamps ran backwards across the channel"
                );
                if next_tag > 0 {
                    assert_eq!(sample.timestamp, last_timestamp + sample.latency);
                }
                last_timestamp = sample.timestamp;
                next_tag += 1;
            }
            if scratch.is_empty() {
                thread::yield_now();
            }
        }
        producer.join().unwrap();
    });
}

#[test]
fn full_ring_backpressure_never_overwrites() {
    // A deliberately tiny ring under concurrent pressure: accepted items
    // must come out exactly once, in order, regardless of how many pushes
    // bounce.
    let attempts = 50_000u64;
    on_every_storage!(2, |tx, rx| {
        let producer = thread::spawn(move || {
            let mut accepted = Vec::new();
            for value in 0..attempts {
                if tx.try_push(item(value)).is_ok() {
                    accepted.push(item(value));
                }
            }
            accepted
        });

        // Take one at a time (slow consumer) until the producer is done and
        // the ring is empty, so the ring is full for most of the run.
        let mut one = Vec::new();
        let mut received = Vec::new();
        loop {
            if rx.drain_into_capped(&mut one, 1) == 1 {
                received.push(one[0]);
            } else {
                if producer.is_finished() && rx.is_empty() {
                    break;
                }
                thread::yield_now();
            }
        }
        let accepted = producer.join().unwrap();

        assert_eq!(
            received, accepted,
            "received sequence must equal the accepted sequence exactly"
        );
        assert!(
            accepted.len() >= 2,
            "the ring accepts at least its capacity"
        );
        assert!(accepted.len() as u64 <= attempts);
    });
}
