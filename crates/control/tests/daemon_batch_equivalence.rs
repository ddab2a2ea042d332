//! Equivalence: the batched decision kernel ([`DaemonShard::run_quantum`])
//! decides bit-for-bit what the per-beat reference walk
//! ([`DaemonShard::run_quantum_with`]) decides, for any beat stream.
//!
//! The batched kernel steps boundary beats individually and folds each
//! maximal interior span in one pass (`advance_in_quantum` +
//! `push_slice`). That is exact — interior beats never consume their rate
//! observation — but only a pinned relationship keeps it that way, so this
//! suite drives both paths with identical ragged streams, with the drain
//! cap engaged, and with idle-skip on, and demands bit-identical published
//! state after every quantum.

use powerdial_control::daemon::{DaemonConfig, PowerDialDaemon, SHRINK_EPOCH_QUANTA};
use powerdial_control::{ActuationPolicy, ControllerConfig, IdleLadder, LadderRung, RuntimeConfig};
use powerdial_heartbeats::{Timestamp, TimestampDelta};
use powerdial_knobs::{CalibrationPoint, ConfigParameter, KnobTable, ParameterSpace};
use powerdial_qos::{QosLoss, QosLossBound};

fn test_table() -> KnobTable {
    let speedups = [1.0, 1.5, 2.0, 3.0, 4.0];
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

/// An open-loop beat stream: latencies vary deterministically so plans mix
/// segments, saturate, and recover across many quanta.
fn latency_at(beat: u64) -> TimestampDelta {
    let millis = match (beat / 7) % 5 {
        0 => 33,
        1 => 66,
        2 => 25,
        3 => 100,
        _ => 40,
    };
    TimestampDelta::from_millis(millis + beat % 3)
}

/// A pair of inline daemons under identical configuration, one ticked
/// through the batched kernel and one through the per-beat reference walk,
/// fed identical beat streams.
struct KernelPair {
    batched: PowerDialDaemon,
    reference: PowerDialDaemon,
    batched_apps: Vec<powerdial_control::daemon::AppHandle>,
    reference_apps: Vec<powerdial_control::daemon::AppHandle>,
    now: Vec<Timestamp>,
    beat: Vec<u64>,
}

impl KernelPair {
    fn new(app_count: usize, config: DaemonConfig, runtime: RuntimeConfig) -> Self {
        let mut batched = PowerDialDaemon::new(config).unwrap();
        let mut reference = PowerDialDaemon::new(config).unwrap();
        let batched_apps = (0..app_count)
            .map(|_| batched.register(runtime, test_table()).unwrap())
            .collect();
        let reference_apps = (0..app_count)
            .map(|_| reference.register(runtime, test_table()).unwrap())
            .collect();
        KernelPair {
            batched,
            reference,
            batched_apps,
            reference_apps,
            now: vec![Timestamp::ZERO; app_count],
            beat: vec![0; app_count],
        }
    }

    /// Every app emits `count` beats into both daemons (app `index` gets a
    /// per-app latency offset so the apps genuinely differ).
    fn emit(&mut self, count: usize) {
        for index in 0..self.batched_apps.len() {
            for _ in 0..count {
                let latency =
                    latency_at(self.beat[index]) + TimestampDelta::from_millis(index as u64);
                if self.beat[index] > 0 {
                    self.now[index] += latency;
                }
                let now = self.now[index];
                self.batched_apps[index].beat(now).unwrap();
                self.reference_apps[index].beat(now).unwrap();
                self.beat[index] += 1;
            }
        }
    }

    /// Runs one quantum through each kernel and checks the processed-beat
    /// counts and every app's published decision state for bit equality.
    fn step_and_compare(&mut self, context: &str) -> u64 {
        let batched_beats = self
            .batched
            .inline_shard_mut()
            .expect("inline mode")
            .run_quantum();
        let reference_beats = self
            .reference
            .inline_shard_mut()
            .expect("inline mode")
            .run_quantum_with(&mut |_, _| {});
        assert_eq!(batched_beats, reference_beats, "{context}: drained counts");
        for (index, (fast, slow)) in self
            .batched_apps
            .iter()
            .zip(&self.reference_apps)
            .enumerate()
        {
            assert_eq!(
                fast.latest_point(),
                slow.latest_point(),
                "{context}: app {index} setting"
            );
            assert_eq!(
                fast.latest_gain().map(f64::to_bits),
                slow.latest_gain().map(f64::to_bits),
                "{context}: app {index} gain"
            );
            assert_eq!(
                fast.achieved_speedup().map(f64::to_bits),
                slow.achieved_speedup().map(f64::to_bits),
                "{context}: app {index} achieved speedup"
            );
            assert_eq!(
                fast.expected_qos_loss().map(f64::to_bits),
                slow.expected_qos_loss().map(f64::to_bits),
                "{context}: app {index} qos loss"
            );
            assert_eq!(
                fast.beats_processed(),
                slow.beats_processed(),
                "{context}: app {index} beats processed"
            );
        }
        // The planned quanta match, not just the published decisions.
        for index in 0..self.batched_apps.len() {
            let id = self.batched_apps[index].id();
            let ref_id = self.reference_apps[index].id();
            let planned: Vec<_> = self
                .batched
                .inline_shard_mut()
                .unwrap()
                .planned_beat_indices(id)
                .unwrap()
                .to_vec();
            let reference_planned: Vec<_> = self
                .reference
                .inline_shard_mut()
                .unwrap()
                .planned_beat_indices(ref_id)
                .unwrap()
                .to_vec();
            assert_eq!(planned, reference_planned, "{context}: app {index} plan");
        }
        batched_beats
    }
}

fn inline_config() -> DaemonConfig {
    DaemonConfig {
        workers: 0,
        inline_apps: 0,
        ..DaemonConfig::default()
    }
}

#[test]
fn batched_kernel_matches_per_beat_walk_on_ragged_batches() {
    for policy in [ActuationPolicy::MinimalSpeedup, ActuationPolicy::RaceToIdle] {
        let runtime = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
            .with_policy(policy)
            .with_quantum_heartbeats(20)
            .unwrap();
        let mut pair = KernelPair::new(3, inline_config(), runtime);
        // Ragged drains: empty quanta, single beats, boundary-straddling
        // batches, and multi-quantum floods all hit the kernel's span
        // arithmetic differently.
        let batch_sizes = [
            0usize, 1, 3, 20, 7, 41, 19, 21, 1, 0, 64, 2, 39, 20, 20, 5, 0, 0, 13, 60,
        ];
        for (quantum, &count) in batch_sizes.iter().cycle().take(60).enumerate() {
            pair.emit(count);
            pair.step_and_compare(&format!("policy {policy}, quantum {quantum}"));
        }
    }
}

#[test]
fn batched_kernel_matches_per_beat_walk_under_drain_cap() {
    // A cap that is neither a divisor nor a multiple of the 20-beat
    // quantum, so capped drains straddle planning boundaries.
    let config = DaemonConfig {
        drain_cap: 7,
        ..inline_config()
    };
    let runtime = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
        .with_quantum_heartbeats(20)
        .unwrap();
    let mut pair = KernelPair::new(2, config, runtime);
    let mut emitted = 0u64;
    let mut processed = 0u64;
    for round in 0..12 {
        // Flood more than the cap, then let several capped quanta work
        // through the backlog.
        pair.emit(30);
        emitted += 2 * 30;
        for quantum in 0..6 {
            let beats = pair.step_and_compare(&format!("round {round}, quantum {quantum}"));
            assert!(
                beats <= 2 * 7,
                "round {round}, quantum {quantum}: cap exceeded ({beats} beats)"
            );
            processed += beats;
        }
    }
    // The cap defers beats; it never drops them.
    while processed < emitted {
        processed += pair.step_and_compare("draining the tail");
    }
    assert_eq!(processed, emitted);
}

#[test]
fn batched_kernel_matches_per_beat_walk_with_idle_skip() {
    let config = DaemonConfig {
        idle_skip_limit: 2,
        ..inline_config()
    };
    let runtime = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
        .with_quantum_heartbeats(20)
        .unwrap();
    let mut pair = KernelPair::new(2, config, runtime);
    // Bursts separated by idle stretches long enough to build a silent
    // streak, so quanta run in every skip state: streak building, skipping,
    // and the periodic re-poll.
    for round in 0..10 {
        pair.emit(20);
        pair.step_and_compare(&format!("round {round}: burst"));
        for quantum in 0..9 {
            pair.step_and_compare(&format!("round {round}: idle quantum {quantum}"));
        }
    }
}

#[test]
fn idle_skip_defers_a_waking_app_by_at_most_the_limit() {
    let limit = 2u32;
    let config = DaemonConfig {
        idle_skip_limit: limit,
        ..inline_config()
    };
    let runtime = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
        .with_quantum_heartbeats(20)
        .unwrap();
    let mut daemon = PowerDialDaemon::new(config).unwrap();
    let mut app = daemon.register(runtime, test_table()).unwrap();

    // Build the silent streak past the limit (these quanta still poll).
    for _ in 0..=limit {
        assert_eq!(daemon.tick(), 0);
    }
    // The app wakes while its channel is being skipped.
    let mut now = Timestamp::ZERO;
    for beat in 0..5u64 {
        now += TimestampDelta::from_millis(40 * beat.max(1));
        app.beat(now).unwrap();
    }
    // The skipped quanta never touch the channel; within `limit` quanta
    // the periodic re-poll drains the backlog in full.
    let mut deferred = 0u32;
    loop {
        let beats = daemon.tick();
        if beats > 0 {
            assert_eq!(beats, 5, "the re-poll drains the whole backlog");
            break;
        }
        deferred += 1;
        assert!(
            deferred <= limit,
            "a waking app must be served within idle_skip_limit quanta"
        );
    }
    // Once active again, the streak is reset: the next quantum polls.
    now += TimestampDelta::from_millis(40);
    app.beat(now).unwrap();
    assert_eq!(daemon.tick(), 1);
}

#[test]
fn flood_grown_scratch_shrinks_after_the_flood_subsides() {
    let config = DaemonConfig {
        workers: 0,
        channel_capacity: 4096,
        inline_apps: 0,
        ..DaemonConfig::default()
    };
    let runtime = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
        .with_quantum_heartbeats(20)
        .unwrap();
    let mut daemon = PowerDialDaemon::new(config).unwrap();
    let mut app = daemon.register(runtime, test_table()).unwrap();

    // Flood: one quantum drains a whole channel's worth of backlog, growing
    // the shard's scratch to burst size.
    let mut now = Timestamp::ZERO;
    for _ in 0..4096u64 {
        now += TimestampDelta::from_millis(30);
        app.beat(now).unwrap();
    }
    assert_eq!(daemon.tick(), 4096);
    let flooded = daemon.inline_shard_mut().unwrap().scratch_capacity();
    assert!(flooded >= 4096, "flood grew the scratch ({flooded})");

    // Steady state afterwards: one beat per quantum. The flood's epoch
    // keeps the burst capacity (its peak *was* the burst); the next full
    // epoch of small drains reclaims it.
    for _ in 0..(2 * SHRINK_EPOCH_QUANTA) {
        now += TimestampDelta::from_millis(30);
        app.beat(now).unwrap();
        assert_eq!(daemon.tick(), 1);
    }
    let settled = daemon.inline_shard_mut().unwrap().scratch_capacity();
    assert!(
        settled < flooded && settled <= 256,
        "scratch shrank back to the working set ({flooded} -> {settled})"
    );
}

#[test]
fn idle_ladder_escalates_and_resets() {
    let mut ladder = IdleLadder::new();
    assert_eq!(ladder.rung(), LadderRung::Spin);
    for _ in 0..IdleLadder::SPIN_LIMIT {
        assert_eq!(ladder.idle(), LadderRung::Spin);
    }
    assert_eq!(ladder.rung(), LadderRung::Yield);
    for _ in 0..IdleLadder::YIELD_LIMIT {
        assert_eq!(ladder.idle(), LadderRung::Yield);
    }
    // Parked: naps grow but stay bounded, and the ladder stays parked.
    assert_eq!(ladder.rung(), LadderRung::Park);
    for _ in 0..4 {
        assert_eq!(ladder.idle(), LadderRung::Park);
    }
    // Work drops it straight back to spinning.
    ladder.reset();
    assert_eq!(ladder.rung(), LadderRung::Spin);
    assert_eq!(ladder.idle(), LadderRung::Spin);
}

#[test]
fn idle_ladder_naps_are_bounded() {
    let mut ladder = IdleLadder::new();
    // Drive the ladder deep into the park rung; each nap doubles but is
    // capped, so a long idle stretch must finish in bounded time. 16 naps
    // at the 1 ms cap is at most a few tens of milliseconds.
    for _ in 0..(IdleLadder::SPIN_LIMIT + IdleLadder::YIELD_LIMIT) {
        ladder.idle();
    }
    let start = std::time::Instant::now();
    for _ in 0..16 {
        assert_eq!(ladder.idle(), LadderRung::Park);
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(2),
        "park naps must stay near the {:?} cap",
        IdleLadder::MAX_PARK
    );
}
