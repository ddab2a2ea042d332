//! Proof that steady-state runtime beat-stepping is allocation-free.
//!
//! A counting global allocator wraps the system allocator; after the first
//! quantum has been planned (filling the runtime's preallocated per-beat
//! buffer), thousands of further heartbeats — spanning many quantum
//! boundaries and therefore many full re-plans, across both actuation
//! policies — must not allocate at all.
//!
//! The counter is thread-local, so other harness threads cannot pollute
//! the measurement; keep the measured loops on the test thread itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use powerdial_control::{ActuationPolicy, ControllerConfig, PowerDialRuntime, RuntimeConfig};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

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

fn test_table() -> KnobTable {
    let speedups = [1.0, 1.4, 2.0, 2.8, 4.0];
    let values: Vec<f64> = (0..speedups.len()).map(|i| i as f64).collect();
    let space = ParameterSpace::builder()
        .parameter(ConfigParameter::new("k", values, 0.0).unwrap())
        .build()
        .unwrap();
    let points = speedups
        .iter()
        .enumerate()
        .map(|(i, &s)| CalibrationPoint {
            setting_index: i,
            setting: space.setting(i).unwrap(),
            speedup: s,
            qos_loss: QosLoss::new((s - 1.0) * 0.02),
        })
        .collect();
    KnobTable::from_points(points, 0, QosLossBound::UNBOUNDED).unwrap()
}

#[test]
fn steady_state_beat_stepping_does_not_allocate() {
    for policy in [ActuationPolicy::MinimalSpeedup, ActuationPolicy::RaceToIdle] {
        let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
            .with_policy(policy)
            .with_quantum_heartbeats(20)
            .unwrap();
        let mut runtime = PowerDialRuntime::new(config, test_table()).unwrap();

        // Which interleaves have been planned so far, as one bit per beat
        // (set where the beat's setting differs from the first beat's), in
        // a stack array so that keeping the list allocates nothing.
        let mut patterns = [0u64; 64];
        let mut known = 0usize;
        let mut note_pattern = |runtime: &PowerDialRuntime| {
            let planned = runtime.planned_beat_indices();
            let pattern = planned
                .iter()
                .enumerate()
                .filter(|(_, &idx)| idx != planned[0])
                .fold(0u64, |mask, (beat, _)| mask | 1 << beat);
            if patterns[..known].contains(&pattern) {
                return false;
            }
            patterns[known] = pattern;
            known += 1;
            true
        };

        // Warm: the first plan fills the preallocated per-beat buffer.
        for beat in 0..100u64 {
            let observed = 20.0 + (beat % 17) as f64;
            runtime.on_heartbeat_idx(Some(observed));
            note_pattern(&runtime);
        }

        let before = allocations();
        let mut sink = 0.0;
        let mut first_sightings = 0u32;
        for beat in 0..10_000u64 {
            // A wandering observed rate forces genuinely different plans
            // (different s_min picks, mixed segments, saturation) across
            // the 500 quantum boundaries this loop crosses.
            let observed = 12.0 + ((beat * 7) % 50) as f64;
            let decision = runtime.on_heartbeat_idx(Some(observed));
            sink += decision.gain + decision.requested_speedup;
            first_sightings += u32::from(note_pattern(&runtime));
        }
        // Splits planned for the first time are inside the counted window:
        // recording an interleave for later lookup must not allocate
        // either. (Race-to-idle runs one setting per quantum — there is
        // only the one pattern to see.)
        assert_eq!(
            first_sightings > 0,
            policy == ActuationPolicy::MinimalSpeedup,
            "{first_sightings} new interleaves in the window (policy {policy})"
        );
        std::hint::black_box(sink);
        assert_eq!(
            allocations() - before,
            0,
            "steady-state beat stepping must not allocate (policy {policy})"
        );
    }
}
