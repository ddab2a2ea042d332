//! Proof that the steady-state heartbeat hot path is allocation-free.
//!
//! A counting global allocator wraps the system allocator; after warming the
//! sliding window past its growth phase, thousands of further heartbeats
//! and rate/statistics queries must not allocate at all. This is the
//! enforceable form of the O(1) rework's contract — a timing benchmark can
//! regress silently under noise, an allocation count cannot.
//!
//! The counter is thread-local, so other harness threads cannot pollute
//! the measurement; keep the measured loops on the test thread itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use powerdial_heartbeats::channel::BeatSample;
use powerdial_heartbeats::shm::{Segment, SegmentGeometry, ShmConsumer, ShmProducer};
use powerdial_heartbeats::telemetry::{
    DecisionTraceRecord, DecisionTraceRing, LatencyHistogram, TraceReason,
};
use powerdial_heartbeats::{
    HeartbeatMonitor, HeartbeatTag, MonitorConfig, SlidingWindow, Timestamp, TimestampDelta,
};

struct CountingAllocator;

// Per-thread counter: the libtest harness's other threads allocate
// concurrently with the measured region, so a process-global counter is
// flaky. `const`-initialized TLS is safe to touch from the allocator (no
// lazy initialization, hence no recursive allocation); `try_with` covers
// thread-teardown accesses.
thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations made by the *calling* thread so far.
fn allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_heartbeat_path_does_not_allocate() {
    // --- SlidingWindow alone: push / rate / statistics.
    let mut window = SlidingWindow::new(64);
    for i in 0..256u64 {
        window.push(TimestampDelta::from_nanos(
            20_000_000 + (i * 7_919) % 10_000_000,
        ));
    }

    let before = allocations();
    let mut sink = 0.0;
    for i in 0..10_000u64 {
        window.push(TimestampDelta::from_nanos(
            20_000_000 + (i * 104_729) % 10_000_000,
        ));
        sink += window
            .rate()
            .expect("no overflow")
            .expect("warm window")
            .beats_per_second();
        let stats = window.statistics().expect("warm window");
        sink += stats.mean_latency_secs + stats.latency_variance + stats.max_latency_secs;
    }
    std::hint::black_box(sink);
    assert_eq!(
        allocations() - before,
        0,
        "sliding window steady state must not allocate"
    );

    // --- Full monitor: heartbeat emission with a warmed window.
    let mut monitor = HeartbeatMonitor::new(MonitorConfig::new("no-alloc").with_window_size(64));
    let mut now = Timestamp::ZERO;
    for i in 0..512u64 {
        now += TimestampDelta::from_nanos(30_000_000 + (i * 6_271) % 5_000_000);
        monitor.heartbeat(now);
    }

    let before = allocations();
    let mut sink = 0.0;
    for i in 0..10_000u64 {
        now += TimestampDelta::from_nanos(30_000_000 + (i * 12_553) % 5_000_000);
        let record = monitor.heartbeat(now);
        sink += record.latency.as_secs_f64();
        if let Some(stats) = monitor.window_statistics() {
            sink += stats.mean_latency_secs;
        }
    }
    std::hint::black_box(sink);
    assert_eq!(
        allocations() - before,
        0,
        "monitor heartbeat steady state must not allocate"
    );
}

#[test]
fn telemetry_record_trace_and_summary_do_not_allocate() {
    // The telemetry plane rides the daemon's drain loop, so it inherits
    // the loop's allocation-freedom contract: histogram records are two
    // shifts and an array increment, trace pushes write into a
    // pre-allocated ring, and even the cold-path summary/quantile reads
    // only walk the inline bucket array.
    let mut latency = LatencyHistogram::new();
    let mut rollup = LatencyHistogram::new();
    let mut ring = DecisionTraceRing::with_capacity(256);

    let before = allocations();
    let mut sink = 0u64;
    for i in 0..10_000u64 {
        latency.record(20_000_000 + (i * 7_919) % 10_000_000);
        if i % 20 == 0 {
            ring.push(DecisionTraceRecord {
                seq: 0,
                timestamp: Timestamp::from_nanos(i),
                app: i,
                point_idx: (i % 3) as u32,
                reason: TraceReason::Boundary,
                gain: 1.5,
                achieved_speedup: 1.4,
                qos_loss: 0.01,
            });
        }
    }
    rollup.merge_from(&latency);
    let summary = rollup.summary();
    sink += summary.count + summary.max + rollup.value_at_quantile(0.99);
    sink += ring.iter().map(|record| record.seq).sum::<u64>();
    std::hint::black_box(sink);
    assert_eq!(
        allocations() - before,
        0,
        "telemetry record/trace/summary must not allocate"
    );
}

#[test]
fn steady_state_shm_push_drain_loop_does_not_allocate() {
    // The cross-process transport must honour the same allocation-freedom
    // contract as the in-heap ring: once the segment is mapped and the
    // drain scratch has grown to capacity, pushes and batched drains touch
    // only the mapping — no heap traffic on either side.
    let segment =
        Arc::new(Segment::create(SegmentGeometry::for_beat_samples(64).unwrap()).unwrap());
    let mut producer = ShmProducer::attach(Arc::clone(&segment)).unwrap();
    let mut consumer = ShmConsumer::attach(Arc::clone(&segment)).unwrap();

    let mut scratch = Vec::new();
    let mut tag = 0u64;
    let mut now = Timestamp::ZERO;
    let push_quantum = |producer: &mut ShmProducer, tag: &mut u64, now: &mut Timestamp| {
        for _ in 0..32 {
            let latency = TimestampDelta::from_nanos(20_000_000 + (*tag * 7_919) % 10_000_000);
            *now += latency;
            producer
                .try_push(BeatSample {
                    tag: HeartbeatTag(*tag),
                    timestamp: *now,
                    latency,
                })
                .expect("ring sized for a full quantum");
            *tag += 1;
        }
    };

    // Warm: grow the scratch buffer to ring capacity.
    for _ in 0..4 {
        push_quantum(&mut producer, &mut tag, &mut now);
        consumer.drain_into(&mut scratch);
    }

    let before = allocations();
    let mut sink = 0u64;
    for _ in 0..10_000 {
        push_quantum(&mut producer, &mut tag, &mut now);
        consumer.drain_into(&mut scratch);
        sink += scratch.len() as u64 + scratch.last().map_or(0, |s| s.tag.value());
        // The liveness probe the reaper runs each quantum is also
        // allocation-free (it is a syscall plus two atomic loads).
        sink += u64::from(consumer.producer_state().is_alive());
    }
    std::hint::black_box(sink);
    assert_eq!(tag, (4 + 10_000) * 32, "every beat was pushed");
    assert_eq!(
        allocations() - before,
        0,
        "steady-state shm push/drain loop must not allocate"
    );
}
