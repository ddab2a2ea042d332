//! The actuator: converting a continuous speedup signal into a schedule of
//! discrete knob settings over a time quantum (Section 2.3.3).

use std::fmt;

use serde::{Deserialize, Serialize};

use powerdial_knobs::{CalibrationPoint, KnobTable, PointIdx};

/// The largest number of segments any actuation policy produces: the
/// minimal-speedup policy mixes at most `s_min` with the default setting;
/// race-to-idle uses a single segment. Compact schedules exploit this bound
/// to live entirely on the stack.
pub const MAX_PLAN_SEGMENTS: usize = 2;

/// How the actuator resolves the under-determined system of Equations 9–11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ActuationPolicy {
    /// Run at the fastest available knob setting for part of the quantum and
    /// idle for the rest (`t_min = t_default = 0`). Best for platforms with
    /// low idle power.
    RaceToIdle,
    /// Run at the slowest knob setting that still meets the heart-rate target
    /// for part of the quantum and at the default setting for the rest
    /// (`t_max = 0`, `t_min + t_default = 1`). Minimizes QoS loss; best for
    /// platforms with high idle power. This is the paper's default.
    #[default]
    MinimalSpeedup,
}

impl fmt::Display for ActuationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActuationPolicy::RaceToIdle => write!(f, "race-to-idle"),
            ActuationPolicy::MinimalSpeedup => write!(f, "minimal-speedup"),
        }
    }
}

/// One segment of a schedule: run with `point`'s knob setting for `fraction`
/// of the time quantum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSegment {
    /// The calibrated knob setting to apply.
    pub point: CalibrationPoint,
    /// The fraction of the quantum to spend at this setting, in `[0, 1]`.
    pub fraction: f64,
}

/// The actuator's plan for one time quantum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// The knob settings to run and for what fraction of the quantum.
    pub segments: Vec<ScheduleSegment>,
    /// Fraction of the quantum the application may idle (race-to-idle only).
    pub idle_fraction: f64,
    /// The average speedup the schedule achieves over the quantum.
    pub achieved_speedup: f64,
    /// The speedup the controller requested.
    pub requested_speedup: f64,
}

impl Schedule {
    /// The mean QoS loss over the quantum implied by the schedule (idle time
    /// produces no output and therefore contributes no loss).
    pub fn expected_qos_loss(&self) -> f64 {
        let busy: f64 = self.segments.iter().map(|s| s.fraction).sum();
        if busy <= 0.0 {
            return 0.0;
        }
        // Weight each segment's loss by the fraction of *output* it produces:
        // a segment running at speedup s for fraction t produces s·t units of
        // output relative to the baseline.
        let total_output: f64 = self
            .segments
            .iter()
            .map(|s| s.fraction * s.point.speedup)
            .sum();
        if total_output <= 0.0 {
            return 0.0;
        }
        self.segments
            .iter()
            .map(|s| s.fraction * s.point.speedup * s.point.qos_loss.value())
            .sum::<f64>()
            / total_output
    }

    /// True when the schedule meets or exceeds the requested speedup
    /// (within floating-point tolerance).
    pub fn meets_request(&self) -> bool {
        self.achieved_speedup + 1e-9 >= self.requested_speedup
    }

    /// Splits the quantum's `heartbeats` (work units) among the segments.
    ///
    /// The schedule's fractions are fractions of *time*; a segment running at
    /// speedup `s` for a fraction `t` of the quantum processes a share of the
    /// quantum's work units proportional to `s·t`. All heartbeats are
    /// allocated — under race-to-idle the application still processes every
    /// unit (at the fastest setting), it just finishes early and the machine
    /// idles for the remaining time.
    pub fn beats_per_segment(&self, heartbeats: u32) -> Vec<(&CalibrationPoint, u32)> {
        let weights: Vec<f64> = self
            .segments
            .iter()
            .map(|s| s.fraction * s.point.speedup)
            .collect();
        let total: f64 = weights.iter().sum();
        let mut allocation = Vec::with_capacity(self.segments.len());
        if total <= 0.0 {
            for (i, segment) in self.segments.iter().enumerate() {
                allocation.push((&segment.point, if i == 0 { heartbeats } else { 0 }));
            }
            return allocation;
        }
        let mut allocated = 0u32;
        for (i, segment) in self.segments.iter().enumerate() {
            let beats = if i + 1 == self.segments.len() {
                heartbeats.saturating_sub(allocated)
            } else {
                ((f64::from(heartbeats) * weights[i] / total).round() as u32)
                    .min(heartbeats.saturating_sub(allocated))
            };
            allocated += beats;
            allocation.push((&segment.point, beats));
        }
        allocation
    }
}

/// One segment of a [`CompactSchedule`]: run the knob setting at `idx` for
/// `fraction` of the time quantum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanSegment {
    /// Index of the calibrated knob setting in the planning [`KnobTable`].
    pub idx: PointIdx,
    /// The fraction of the quantum to spend at this setting, in `[0, 1]`.
    pub fraction: f64,
}

/// The actuator's plan for one time quantum, in index form.
///
/// Semantically identical to [`Schedule`] but `Copy` and allocation-free:
/// segments are `(PointIdx, fraction)` pairs in a fixed inline array instead
/// of cloned [`CalibrationPoint`]s in a `Vec`. This is what the hot path
/// ([`crate::PowerDialRuntime::on_heartbeat_idx`]) plans with; resolve
/// indices through the [`KnobTable`] the plan was made against.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompactSchedule {
    segments: [PlanSegment; MAX_PLAN_SEGMENTS],
    segment_count: u8,
    /// Fraction of the quantum the application may idle (race-to-idle only).
    pub idle_fraction: f64,
    /// The average speedup the schedule achieves over the quantum.
    pub achieved_speedup: f64,
    /// The speedup the controller requested.
    pub requested_speedup: f64,
}

impl CompactSchedule {
    fn new(requested_speedup: f64) -> Self {
        CompactSchedule {
            segments: [PlanSegment {
                idx: PointIdx::new(0),
                fraction: 0.0,
            }; MAX_PLAN_SEGMENTS],
            segment_count: 0,
            idle_fraction: 0.0,
            achieved_speedup: 0.0,
            requested_speedup,
        }
    }

    fn push_segment(&mut self, idx: PointIdx, fraction: f64) {
        let count = usize::from(self.segment_count);
        debug_assert!(count < MAX_PLAN_SEGMENTS, "compact schedule overflow");
        self.segments[count] = PlanSegment { idx, fraction };
        self.segment_count += 1;
    }

    /// The planned segments, in planning order.
    pub fn segments(&self) -> &[PlanSegment] {
        &self.segments[..usize::from(self.segment_count)]
    }

    /// True when the schedule meets or exceeds the requested speedup
    /// (within floating-point tolerance).
    pub fn meets_request(&self) -> bool {
        self.achieved_speedup + 1e-9 >= self.requested_speedup
    }

    /// The mean QoS loss over the quantum implied by the schedule, resolved
    /// against the table the plan was made from. Matches
    /// [`Schedule::expected_qos_loss`].
    pub fn expected_qos_loss(&self, table: &KnobTable) -> f64 {
        let busy: f64 = self.segments().iter().map(|s| s.fraction).sum();
        if busy <= 0.0 {
            return 0.0;
        }
        let total_output: f64 = self
            .segments()
            .iter()
            .map(|s| s.fraction * table.speedup_of(s.idx))
            .sum();
        if total_output <= 0.0 {
            return 0.0;
        }
        self.segments()
            .iter()
            .map(|s| {
                let point = table.point(s.idx);
                s.fraction * point.speedup * point.qos_loss.value()
            })
            .sum::<f64>()
            / total_output
    }

    /// Splits the quantum's `heartbeats` among the segments, writing
    /// `(index, beats)` pairs into `out` and returning the number of entries
    /// used. Allocation-free equivalent of [`Schedule::beats_per_segment`]
    /// (identical rounding, so the two produce beat-for-beat equal splits).
    pub fn beats_per_segment_into(
        &self,
        heartbeats: u32,
        table: &KnobTable,
        out: &mut [(PointIdx, u32); MAX_PLAN_SEGMENTS],
    ) -> usize {
        let segments = self.segments();
        let mut weights = [0.0f64; MAX_PLAN_SEGMENTS];
        let mut total = 0.0;
        for (i, segment) in segments.iter().enumerate() {
            weights[i] = segment.fraction * table.speedup_of(segment.idx);
            total += weights[i];
        }
        if total <= 0.0 {
            for (i, segment) in segments.iter().enumerate() {
                out[i] = (segment.idx, if i == 0 { heartbeats } else { 0 });
            }
            return segments.len();
        }
        let mut allocated = 0u32;
        for (i, segment) in segments.iter().enumerate() {
            let beats = if i + 1 == segments.len() {
                heartbeats.saturating_sub(allocated)
            } else {
                ((f64::from(heartbeats) * weights[i] / total).round() as u32)
                    .min(heartbeats.saturating_sub(allocated))
            };
            allocated += beats;
            out[i] = (segment.idx, beats);
        }
        segments.len()
    }

    /// Expands the compact plan into the clone-based [`Schedule`] form
    /// (identical field for field); for reporting paths, not the hot path.
    pub fn to_schedule(&self, table: &KnobTable) -> Schedule {
        Schedule {
            segments: self
                .segments()
                .iter()
                .map(|s| ScheduleSegment {
                    point: table.point(s.idx).clone(),
                    fraction: s.fraction,
                })
                .collect(),
            idle_fraction: self.idle_fraction,
            achieved_speedup: self.achieved_speedup,
            requested_speedup: self.requested_speedup,
        }
    }
}

/// Converts controller speedups into knob-setting schedules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Actuator {
    policy: ActuationPolicy,
}

impl Actuator {
    /// Creates an actuator with the given policy.
    pub fn new(policy: ActuationPolicy) -> Self {
        Actuator { policy }
    }

    /// The actuation policy in use.
    pub fn policy(&self) -> ActuationPolicy {
        self.policy
    }

    /// Plans the next quantum: find knob settings whose time-weighted average
    /// speedup equals `requested_speedup`.
    ///
    /// When even the fastest knob setting cannot deliver the requested
    /// speedup, the schedule saturates at the fastest setting for the whole
    /// quantum (and [`Schedule::meets_request`] reports `false`).
    ///
    /// This is the clone-based convenience form; the hot path uses
    /// [`Actuator::plan_compact`], of which this is an exact expansion.
    pub fn plan(&self, table: &KnobTable, requested_speedup: f64) -> Schedule {
        self.plan_compact(table, requested_speedup)
            .to_schedule(table)
    }

    /// Plans the next quantum in index form: O(log n) in the table size,
    /// no heap allocation, `Copy` result. Semantics are identical to
    /// [`Actuator::plan`].
    pub fn plan_compact(&self, table: &KnobTable, requested_speedup: f64) -> CompactSchedule {
        let requested = requested_speedup.max(0.0);
        match self.policy {
            ActuationPolicy::RaceToIdle => self.plan_race_to_idle(table, requested),
            ActuationPolicy::MinimalSpeedup => self.plan_minimal_speedup(table, requested),
        }
    }

    fn plan_race_to_idle(&self, table: &KnobTable, requested: f64) -> CompactSchedule {
        let fastest = table.fastest_idx();
        let s_max = table.speedup_of(fastest);
        // s_max · t_max = requested  =>  t_max = requested / s_max.
        let t_max = (requested / s_max).min(1.0);
        let achieved = s_max * t_max;
        let mut schedule = CompactSchedule::new(requested);
        schedule.push_segment(fastest, t_max);
        schedule.idle_fraction = 1.0 - t_max;
        schedule.achieved_speedup = if t_max < 1.0 { requested } else { achieved };
        schedule
    }

    fn plan_minimal_speedup(&self, table: &KnobTable, requested: f64) -> CompactSchedule {
        let baseline = table.baseline_idx();
        let baseline_speedup = table.speedup_of(baseline);
        let mut schedule = CompactSchedule::new(requested);
        if requested <= baseline_speedup {
            // The default setting already meets the target: run it all
            // quantum.
            schedule.push_segment(baseline, 1.0);
            schedule.achieved_speedup = 1.0;
            return schedule;
        }
        match table.idx_for_speedup(requested) {
            Some(point) => {
                let s_min = table.speedup_of(point);
                // s_min·t_min + 1·t_default = requested, t_min + t_default = 1
                //   =>  t_min = (requested − 1) / (s_min − 1).
                let t_min = if s_min > baseline_speedup {
                    ((requested - baseline_speedup) / (s_min - baseline_speedup)).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                let t_default = 1.0 - t_min;
                if t_min > 0.0 {
                    schedule.push_segment(point, t_min);
                }
                if t_default > 0.0 {
                    schedule.push_segment(baseline, t_default);
                }
                schedule.achieved_speedup = s_min * t_min + baseline_speedup * t_default;
                schedule
            }
            None => {
                // Saturate at the fastest setting.
                let fastest = table.fastest_idx();
                schedule.push_segment(fastest, 1.0);
                schedule.achieved_speedup = table.speedup_of(fastest);
                schedule
            }
        }
    }
}

impl Default for Actuator {
    fn default() -> Self {
        Actuator::new(ActuationPolicy::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerdial_knobs::{ConfigParameter, KnobTable, ParameterSpace};
    use powerdial_qos::{QosLoss, QosLossBound};

    /// Builds a knob table with speedups 1, 2, 4 and losses 0, 5 %, 10 %.
    fn test_table() -> KnobTable {
        let space = ParameterSpace::builder()
            .parameter(ConfigParameter::new("k", vec![0.0, 1.0, 2.0], 0.0).unwrap())
            .build()
            .unwrap();
        let specs = [(0usize, 1.0, 0.0), (1, 2.0, 0.05), (2, 4.0, 0.10)];
        let points = specs
            .iter()
            .map(|(i, speedup, loss)| CalibrationPoint {
                setting_index: *i,
                setting: space.setting(*i).unwrap(),
                speedup: *speedup,
                qos_loss: QosLoss::new(*loss),
            })
            .collect();
        KnobTable::from_points(points, 0, QosLossBound::UNBOUNDED).unwrap()
    }

    #[test]
    fn paper_example_speedup_1_5_with_smallest_knob_2() {
        // Section 2.3.3: controller wants 1.5, smallest available speedup is
        // 2 -> run half the quantum at 2 and half at the default.
        let table = test_table();
        let actuator = Actuator::new(ActuationPolicy::MinimalSpeedup);
        let schedule = actuator.plan(&table, 1.5);
        assert_eq!(schedule.segments.len(), 2);
        assert!((schedule.segments[0].fraction - 0.5).abs() < 1e-12);
        assert!((schedule.segments[0].point.speedup - 2.0).abs() < 1e-12);
        assert!((schedule.segments[1].fraction - 0.5).abs() < 1e-12);
        assert!((schedule.segments[1].point.speedup - 1.0).abs() < 1e-12);
        assert!((schedule.achieved_speedup - 1.5).abs() < 1e-12);
        assert_eq!(schedule.idle_fraction, 0.0);
        assert!(schedule.meets_request());
    }

    #[test]
    fn minimal_speedup_uses_default_when_no_speedup_needed() {
        let table = test_table();
        let actuator = Actuator::default();
        assert_eq!(actuator.policy(), ActuationPolicy::MinimalSpeedup);
        let schedule = actuator.plan(&table, 0.8);
        assert_eq!(schedule.segments.len(), 1);
        assert!((schedule.segments[0].point.speedup - 1.0).abs() < 1e-12);
        assert!((schedule.segments[0].fraction - 1.0).abs() < 1e-12);
        assert_eq!(schedule.expected_qos_loss(), 0.0);
    }

    #[test]
    fn minimal_speedup_exact_match_runs_single_setting() {
        let table = test_table();
        let actuator = Actuator::new(ActuationPolicy::MinimalSpeedup);
        let schedule = actuator.plan(&table, 2.0);
        assert_eq!(schedule.segments.len(), 1);
        assert!((schedule.segments[0].point.speedup - 2.0).abs() < 1e-12);
        assert!((schedule.achieved_speedup - 2.0).abs() < 1e-12);
    }

    #[test]
    fn race_to_idle_runs_fastest_and_idles() {
        let table = test_table();
        let actuator = Actuator::new(ActuationPolicy::RaceToIdle);
        let schedule = actuator.plan(&table, 2.0);
        assert_eq!(schedule.segments.len(), 1);
        assert!((schedule.segments[0].point.speedup - 4.0).abs() < 1e-12);
        assert!((schedule.segments[0].fraction - 0.5).abs() < 1e-12);
        assert!((schedule.idle_fraction - 0.5).abs() < 1e-12);
        assert!(schedule.meets_request());
    }

    #[test]
    fn unattainable_speedup_saturates() {
        let table = test_table();
        let actuator = Actuator::new(ActuationPolicy::MinimalSpeedup);
        let schedule = actuator.plan(&table, 8.0);
        assert!((schedule.achieved_speedup - 4.0).abs() < 1e-12);
        assert!(!schedule.meets_request());

        let race = Actuator::new(ActuationPolicy::RaceToIdle).plan(&table, 8.0);
        assert!((race.achieved_speedup - 4.0).abs() < 1e-12);
        assert_eq!(race.idle_fraction, 0.0);
    }

    #[test]
    fn expected_qos_loss_weights_by_output() {
        let table = test_table();
        let actuator = Actuator::new(ActuationPolicy::MinimalSpeedup);
        let schedule = actuator.plan(&table, 1.5);
        // Half the time at speedup 2 (loss 5 %), half at 1 (loss 0). Output
        // shares: 2·0.5 = 1 vs 1·0.5 = 0.5 -> weighted loss = 0.05·(1/1.5).
        let expected = 0.05 * (1.0 / 1.5);
        assert!((schedule.expected_qos_loss() - expected).abs() < 1e-12);
    }

    #[test]
    fn beats_per_segment_partitions_the_quantum() {
        let table = test_table();
        let actuator = Actuator::new(ActuationPolicy::MinimalSpeedup);
        let schedule = actuator.plan(&table, 1.5);
        let beats = schedule.beats_per_segment(20);
        let total: u32 = beats.iter().map(|(_, b)| *b).sum();
        assert_eq!(total, 20);
        // Half the *time* at speedup 2 and half at 1 means two thirds of the
        // *work units* run at speedup 2: 2·0.5 / 1.5 of 20 beats ≈ 13.
        assert_eq!(beats[0].1, 13);
        assert_eq!(beats[1].1, 7);

        // Under race-to-idle every unit runs at the fastest setting; the idle
        // portion is time, not beats.
        let race = Actuator::new(ActuationPolicy::RaceToIdle).plan(&table, 2.0);
        let race_beats = race.beats_per_segment(20);
        let busy: u32 = race_beats.iter().map(|(_, b)| *b).sum();
        assert_eq!(busy, 20);
        assert_eq!(race_beats[0].1, 20);

        // The per-quantum average heart rate implied by the allocation equals
        // the requested speedup: beats divided by the time they take.
        let time: f64 = beats
            .iter()
            .map(|(point, b)| f64::from(*b) / point.speedup)
            .sum();
        assert!(
            (20.0 / time - 1.5).abs() < 0.08,
            "implied speedup {}",
            20.0 / time
        );
    }

    #[test]
    fn policy_display() {
        assert_eq!(ActuationPolicy::RaceToIdle.to_string(), "race-to-idle");
        assert_eq!(
            ActuationPolicy::MinimalSpeedup.to_string(),
            "minimal-speedup"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use powerdial_knobs::{ConfigParameter, ParameterSpace};
    use powerdial_qos::{QosLoss, QosLossBound};
    use proptest::prelude::*;

    fn arbitrary_table(speedups: &[f64]) -> KnobTable {
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
                qos_loss: QosLoss::new((s - 1.0).max(0.0) * 0.01),
            })
            .collect();
        KnobTable::from_points(points, 0, QosLossBound::UNBOUNDED).unwrap()
    }

    proptest! {
        /// For any attainable request both policies achieve (at least) the
        /// requested average speedup, and their schedules' fractions are a
        /// valid partition of the quantum.
        #[test]
        fn schedules_achieve_attainable_requests(
            mut extra_speedups in proptest::collection::vec(1.1f64..50.0, 1..6),
            request_fraction in 0.0f64..1.0,
        ) {
            extra_speedups.sort_by(f64::total_cmp);
            let mut speedups = vec![1.0];
            speedups.extend(extra_speedups);
            let table = arbitrary_table(&speedups);
            let request = 1.0 + request_fraction * (table.max_speedup() - 1.0);

            for policy in [ActuationPolicy::MinimalSpeedup, ActuationPolicy::RaceToIdle] {
                let schedule = Actuator::new(policy).plan(&table, request);
                let busy: f64 = schedule.segments.iter().map(|s| s.fraction).sum();
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&busy));
                prop_assert!(schedule.idle_fraction >= -1e-9);
                prop_assert!((busy + schedule.idle_fraction - 1.0).abs() < 1e-6);
                prop_assert!(
                    schedule.achieved_speedup + 1e-6 >= request,
                    "policy {policy} achieved {} for request {request}",
                    schedule.achieved_speedup
                );
            }
        }

        /// The index-based planner produces exactly the schedule the
        /// original clone-based planner did (preserved verbatim in
        /// `crate::naive::plan`), for any table, request, and policy —
        /// including requests below baseline, exact matches, mixed
        /// segments, and saturation.
        #[test]
        fn compact_plan_matches_original_planner(
            mut extra_speedups in proptest::collection::vec(1.01f64..50.0, 0..6),
            request in 0.0f64..60.0,
        ) {
            extra_speedups.sort_by(f64::total_cmp);
            let mut speedups = vec![1.0];
            speedups.extend(extra_speedups);
            let table = arbitrary_table(&speedups);
            for policy in [ActuationPolicy::MinimalSpeedup, ActuationPolicy::RaceToIdle] {
                let new = Actuator::new(policy).plan(&table, request);
                let original = crate::naive::plan(policy, &table, request);
                prop_assert_eq!(&new, &original, "policy {} request {}", policy, request);
            }
        }

        /// The minimal-speedup policy never uses a setting faster than the
        /// cheapest sufficient one, so its expected QoS loss is no worse than
        /// race-to-idle's output-weighted loss.
        #[test]
        fn minimal_speedup_never_loses_more_qos(
            request in 1.0f64..4.0,
        ) {
            let table = arbitrary_table(&[1.0, 2.0, 4.0]);
            let minimal = Actuator::new(ActuationPolicy::MinimalSpeedup).plan(&table, request);
            let race = Actuator::new(ActuationPolicy::RaceToIdle).plan(&table, request);
            prop_assert!(minimal.expected_qos_loss() <= race.expected_qos_loss() + 1e-9);
        }
    }
}
