//! The PowerDial runtime: controller + actuator driven once per heartbeat.

use std::fmt;

use serde::{Deserialize, Serialize};

use powerdial_knobs::{CalibrationPoint, KnobTable, ParameterSetting, PointIdx};

use crate::actuator::{ActuationPolicy, Actuator, CompactSchedule, MAX_PLAN_SEGMENTS};
use crate::controller::{ControllerConfig, HeartRateController};
use crate::error::ControlError;

/// The number of heartbeats in one actuation time quantum (the paper's
/// heuristic).
pub const DEFAULT_QUANTUM_HEARTBEATS: u32 = 20;

/// The longest quantum whose interleave fits one mask word.
const MASK_BEATS: usize = u64::BITS as usize;

/// Configuration of the [`PowerDialRuntime`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Configuration of the feedback controller.
    pub controller: ControllerConfig,
    /// The actuation policy used to realize the controller's speedup.
    pub policy: ActuationPolicy,
    /// Number of heartbeats per actuation quantum.
    pub quantum_heartbeats: u32,
}

impl RuntimeConfig {
    /// Creates a runtime configuration with the default policy
    /// (minimal-speedup) and the default 20-heartbeat quantum.
    pub fn new(controller: ControllerConfig) -> Self {
        RuntimeConfig {
            controller,
            policy: ActuationPolicy::default(),
            quantum_heartbeats: DEFAULT_QUANTUM_HEARTBEATS,
        }
    }

    /// Sets the actuation policy.
    pub fn with_policy(mut self, policy: ActuationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the quantum length in heartbeats.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ZeroQuantum`] when `heartbeats` is zero.
    pub fn with_quantum_heartbeats(mut self, heartbeats: u32) -> Result<Self, ControlError> {
        if heartbeats == 0 {
            return Err(ControlError::ZeroQuantum);
        }
        self.quantum_heartbeats = heartbeats;
        Ok(self)
    }
}

/// The runtime's decision for the next unit of work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeDecision {
    /// The calibrated knob setting to apply before processing the next unit.
    pub point: CalibrationPoint,
    /// The instantaneous speedup of that setting — the "knob gain" plotted in
    /// the paper's power-cap figures.
    pub gain: f64,
    /// The fraction of the current quantum the platform may idle
    /// (race-to-idle only; zero otherwise).
    pub planned_idle_fraction: f64,
    /// The continuous speedup the controller requested for this quantum.
    pub requested_speedup: f64,
}

impl RuntimeDecision {
    /// The parameter setting to apply.
    pub fn setting(&self) -> &ParameterSetting {
        &self.point.setting
    }
}

impl fmt::Display for RuntimeDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "apply {} (gain {:.2}, requested {:.2})",
            self.point.setting, self.gain, self.requested_speedup
        )
    }
}

/// The runtime's decision for the next unit of work, in index form.
///
/// This is the allocation-free counterpart of [`RuntimeDecision`]: a `Copy`
/// value carrying the [`PointIdx`] of the knob setting to apply instead of a
/// cloned [`CalibrationPoint`]. Resolve the index against
/// [`PowerDialRuntime::table`] when the full setting is needed — typically
/// once per *applied change*, not once per heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IndexedDecision {
    /// Index (into the runtime's knob table) of the setting to apply.
    pub point_idx: PointIdx,
    /// The instantaneous speedup of that setting (the paper's "knob gain").
    pub gain: f64,
    /// The fraction of the current quantum the platform may idle
    /// (race-to-idle only; zero otherwise).
    pub planned_idle_fraction: f64,
    /// The continuous speedup the controller requested for this quantum.
    pub requested_speedup: f64,
}

/// The PowerDial runtime: call [`PowerDialRuntime::on_heartbeat`] once per
/// application heartbeat with the observed windowed heart rate, and apply the
/// returned knob setting before processing the next unit of work.
///
/// # Example
///
/// ```
/// use powerdial_control::{ControllerConfig, PowerDialRuntime, RuntimeConfig};
/// use powerdial_knobs::{Calibrator, ConfigParameter, Measurement, ParameterSpace};
/// use powerdial_qos::{OutputAbstraction, QosLossBound};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Calibrate a single knob whose smaller values run proportionally faster.
/// let space = ParameterSpace::builder()
///     .parameter(ConfigParameter::new("sims", vec![250.0, 500.0, 1000.0], 1000.0)?)
///     .build()?;
/// let mut calibrator = Calibrator::new(&space);
/// for (i, setting) in space.settings().enumerate() {
///     let sims = setting.value("sims").unwrap();
///     calibrator.record(Measurement {
///         setting_index: i,
///         input_index: 0,
///         work: sims,
///         output: OutputAbstraction::from_components([1.0 + (1000.0 - sims) * 1e-5]),
///     })?;
/// }
/// let table = calibrator.build()?.knob_table(QosLossBound::UNBOUNDED)?;
///
/// // Target 30 beats/s; the platform only delivers 20 beats/s at baseline.
/// let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0)?);
/// let mut runtime = PowerDialRuntime::new(config, table)?;
/// let decision = runtime.on_heartbeat(Some(20.0));
/// assert!(decision.requested_speedup > 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PowerDialRuntime {
    controller: HeartRateController,
    actuator: Actuator,
    table: KnobTable,
    quantum: u32,
    beat_in_quantum: u32,
    /// One knob-setting index per heartbeat of the current quantum. The
    /// buffer is allocated once (capacity = quantum) and refilled in place
    /// at every quantum boundary, so steady-state planning never allocates.
    per_beat_idx: Vec<PointIdx>,
    current_schedule: Option<CompactSchedule>,
    quanta_planned: u64,
    /// Every interleave the deficit loop has produced for this runtime's
    /// quantum so far: `interleaves[first]` is the pattern of a quantum
    /// whose first segment got `first` beats, bit `b` set when beat `b`
    /// runs the *second* segment. Zero means "not derived yet" — a pattern
    /// in which both segments run has a set bit. `quantum + 1` words,
    /// allocated at construction and filled as splits are first planned;
    /// empty when the quantum is longer than [`MASK_BEATS`].
    interleaves: Box<[u64]>,
}

impl PowerDialRuntime {
    /// Creates a runtime from its configuration and a calibrated knob table.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ZeroQuantum`] when the configured quantum is
    /// zero heartbeats.
    pub fn new(config: RuntimeConfig, table: KnobTable) -> Result<Self, ControlError> {
        if config.quantum_heartbeats == 0 {
            return Err(ControlError::ZeroQuantum);
        }
        let quantum = config.quantum_heartbeats as usize;
        Ok(PowerDialRuntime {
            controller: HeartRateController::new(config.controller),
            actuator: Actuator::new(config.policy),
            table,
            quantum: config.quantum_heartbeats,
            beat_in_quantum: 0,
            per_beat_idx: Vec::with_capacity(quantum),
            current_schedule: None,
            quanta_planned: 0,
            interleaves: if quantum <= MASK_BEATS {
                vec![0; quantum + 1].into_boxed_slice()
            } else {
                Box::default()
            },
        })
    }

    /// The feedback controller (read-only).
    pub fn controller(&self) -> &HeartRateController {
        &self.controller
    }

    /// The knob table the runtime actuates over.
    pub fn table(&self) -> &KnobTable {
        &self.table
    }

    /// The schedule planned for the current quantum, if one exists. Use
    /// [`CompactSchedule::to_schedule`] with [`PowerDialRuntime::table`] to
    /// expand it for reporting.
    pub fn current_schedule(&self) -> Option<&CompactSchedule> {
        self.current_schedule.as_ref()
    }

    /// The per-heartbeat knob-setting indices planned for the current
    /// quantum (empty before the first heartbeat). Exposed so equivalence
    /// tests and diagnostics can inspect the exact interleaving.
    pub fn planned_beat_indices(&self) -> &[PointIdx] {
        &self.per_beat_idx
    }

    /// Number of quanta planned so far.
    pub fn quanta_planned(&self) -> u64 {
        self.quanta_planned
    }

    /// The quantum length in heartbeats.
    pub fn quantum_heartbeats(&self) -> u32 {
        self.quantum
    }

    /// Feeds one heartbeat observation (the windowed heart rate in beats per
    /// second, or `None` before enough beats exist) and returns the knob
    /// setting to apply for the next unit of work.
    ///
    /// A new schedule is planned at the start of every quantum; within a
    /// quantum the runtime walks the planned per-heartbeat settings.
    ///
    /// This convenience form clones the decided [`CalibrationPoint`] into
    /// the returned [`RuntimeDecision`]; the steady-state hot path should
    /// use [`PowerDialRuntime::on_heartbeat_idx`], which is allocation-free.
    pub fn on_heartbeat(&mut self, observed_rate: Option<f64>) -> RuntimeDecision {
        let decision = self.on_heartbeat_idx(observed_rate);
        RuntimeDecision {
            point: self.table.point(decision.point_idx).clone(),
            gain: decision.gain,
            planned_idle_fraction: decision.planned_idle_fraction,
            requested_speedup: decision.requested_speedup,
        }
    }

    /// Feeds one heartbeat observation and returns the decision in index
    /// form. O(1) per beat (amortized over the quantum) and performs **no
    /// heap allocation** after the first quantum: planning refills the
    /// runtime's preallocated per-beat buffer in place.
    #[deny(clippy::arithmetic_side_effects)]
    pub fn on_heartbeat_idx(&mut self, observed_rate: Option<f64>) -> IndexedDecision {
        if self.beat_in_quantum == 0 {
            self.plan_quantum(observed_rate);
        }
        let index = self.beat_in_quantum as usize;
        let point_idx = self
            .per_beat_idx
            .get(index)
            .copied()
            .unwrap_or_else(|| self.table.baseline_idx());

        // `beat_in_quantum < quantum <= u32::MAX`: the increment is exact.
        self.beat_in_quantum = self.beat_in_quantum.wrapping_add(1);
        if self.beat_in_quantum >= self.quantum {
            self.beat_in_quantum = 0;
        }

        let schedule = self
            .current_schedule
            .as_ref()
            .expect("schedule exists after planning");
        IndexedDecision {
            point_idx,
            gain: self.table.speedup_of(point_idx),
            planned_idle_fraction: schedule.idle_fraction,
            requested_speedup: schedule.requested_speedup,
        }
    }

    /// Advances `span` heartbeats *inside* the current quantum in one step
    /// and returns the decision for the span's **last** beat — the batched
    /// counterpart of calling [`on_heartbeat_idx`](Self::on_heartbeat_idx)
    /// `span` times for beats that are not at a quantum boundary.
    ///
    /// Within a quantum the runtime only walks the already-planned
    /// `per_beat_idx` buffer: the observed rate is not consulted until the
    /// next boundary beat replans. That makes this skip exactly — bit for
    /// bit — what the per-beat walk would have computed and discarded, so
    /// callers batching whole drains (the daemon's batched kernel) remain
    /// decision-equivalent to the per-beat path. The intermediate beats'
    /// decisions are *not* materialized; callers that publish only the
    /// last decision of a drain (as the daemon does) lose nothing.
    ///
    /// # Panics
    ///
    /// Panics if `span` is zero, if no quantum is in progress
    /// (`beat_in_quantum() == 0` — the next beat must replan, so it has to
    /// go through `on_heartbeat_idx`), or if the span would cross the next
    /// quantum boundary (`beat_in_quantum() + span > quantum`): boundary
    /// beats consume an observation and must be stepped individually.
    #[deny(clippy::arithmetic_side_effects)]
    pub fn advance_in_quantum(&mut self, span: u32) -> IndexedDecision {
        assert!(span > 0, "span must be at least one beat");
        assert!(
            self.beat_in_quantum != 0,
            "advance_in_quantum requires a quantum in progress; \
             step the boundary beat through on_heartbeat_idx first"
        );
        // A span so long that the sum leaves `u32` crosses the boundary
        // like any other too-long span; it must not wrap its way past the
        // check.
        let end = match self.beat_in_quantum.checked_add(span) {
            Some(end) if end <= self.quantum => end,
            _ => panic!(
                "span of {span} from beat {} would cross the {}-beat quantum boundary",
                self.beat_in_quantum, self.quantum
            ),
        };
        // `end >= span >= 1`.
        let last = end.wrapping_sub(1) as usize;
        let point_idx = self
            .per_beat_idx
            .get(last)
            .copied()
            .unwrap_or_else(|| self.table.baseline_idx());

        self.beat_in_quantum = if end == self.quantum { 0 } else { end };

        let schedule = self
            .current_schedule
            .as_ref()
            .expect("schedule exists while a quantum is in progress");
        IndexedDecision {
            point_idx,
            gain: self.table.speedup_of(point_idx),
            planned_idle_fraction: schedule.idle_fraction,
            requested_speedup: schedule.requested_speedup,
        }
    }

    /// Plans the next quantum: one controller update, one actuator plan,
    /// and the plan expanded into one knob setting per heartbeat.
    ///
    /// Segments are interleaved (largest-deficit first) rather than run
    /// back to back so the windowed heart rate observed anywhere in the
    /// quantum reflects the quantum's average speedup. A plan has at most
    /// [`MAX_PLAN_SEGMENTS`] = 2 segments and
    /// [`CompactSchedule::beats_per_segment_into`] hands out exactly
    /// `quantum` beats between them, so the interleave is a pure function
    /// of the *split* — `(quantum, beats of the first segment)` — and not
    /// of the settings, the table or the requested speedup. A quantum all
    /// of whose beats went to one segment has nothing to interleave.
    /// Otherwise [`interleave_by_deficit`](Self::interleave_by_deficit) is
    /// the one generator of a pattern; what it produced for a split is
    /// remembered in `interleaves` as a bit per beat and expanded from
    /// there the next time this runtime plans that split — identical by
    /// construction, the loop's `f64` tie-breaks included. A mask is one
    /// `u64`, so a quantum longer than 64 beats (or a plan that does not
    /// cover exactly `quantum` beats) runs the loop every time.
    ///
    /// Stack arrays plus the `per_beat_idx` and `interleaves` buffers
    /// sized at construction: zero heap allocation per quantum, first
    /// sighting of a split included.
    #[deny(clippy::arithmetic_side_effects)]
    fn plan_quantum(&mut self, observed_rate: Option<f64>) {
        let observed = observed_rate.unwrap_or_else(|| self.controller.config().target_rate());
        let requested = self.controller.update(observed);
        let schedule = self.actuator.plan_compact(&self.table, requested);

        let mut seg_beats = [(PointIdx::new(0), 0u32); MAX_PLAN_SEGMENTS];
        let segment_count =
            schedule.beats_per_segment_into(self.quantum, &self.table, &mut seg_beats);

        self.per_beat_idx.clear();
        let [(first_idx, first), (second_idx, second)] = seg_beats;
        let beats = self.quantum as usize;
        if first.checked_add(second) != Some(self.quantum) {
            self.interleave_by_deficit(&mut seg_beats[..segment_count]);
        } else if second == 0 {
            self.per_beat_idx.resize(beats, first_idx);
        } else if first == 0 {
            self.per_beat_idx.resize(beats, second_idx);
        } else {
            match self.interleaves.get(first as usize) {
                Some(&mask) if mask != 0 => {
                    let settings = [first_idx, second_idx];
                    self.per_beat_idx.extend(
                        (0..self.quantum)
                            .map(|beat| settings[(mask.wrapping_shr(beat) & 1) as usize]),
                    );
                }
                _ => {
                    let mask = self.interleave_by_deficit(&mut seg_beats[..segment_count]);
                    if let Some(slot) = self.interleaves.get_mut(first as usize) {
                        *slot = mask;
                    }
                }
            }
        }

        self.current_schedule = Some(schedule);
        // Wraps after 2⁶⁴ quanta; a count for reports, nothing indexes by it.
        self.quanta_planned = self.quanta_planned.wrapping_add(1);
    }

    /// The largest-deficit interleave: appends one setting per heartbeat of
    /// the quantum to `per_beat_idx`, at every beat picking the segment
    /// whose assignment lags its target share most. Returns the pattern of
    /// the first 64 beats as a mask (bit `b` = beat `b` went to
    /// `remaining[1]`).
    ///
    /// Idle time (race-to-idle) does not change the setting; the
    /// application simply finishes its work early, so beats the segments
    /// do not cover reuse the first (fastest) segment's setting. The
    /// interleaving is beat-for-beat identical to the original clone-based
    /// expansion, which `crate::naive` preserves and the equivalence tests
    /// replay.
    #[deny(clippy::arithmetic_side_effects)]
    fn interleave_by_deficit(&mut self, remaining: &mut [(PointIdx, u32)]) -> u64 {
        let mut totals = [0.0f64; MAX_PLAN_SEGMENTS];
        let mut busy_beats = 0u32;
        for (i, (_, beats)) in remaining.iter().enumerate() {
            totals[i] = f64::from(*beats);
            // The split never hands out more than `quantum` beats in all.
            busy_beats = busy_beats.saturating_add(*beats);
        }

        let mut mask = 0u64;
        let mut assigned = [0.0f64; MAX_PLAN_SEGMENTS];
        for beat in 0..busy_beats {
            // Pick the segment whose assignment lags its target share most.
            // (`beat < busy_beats <= u32::MAX`: the increment is exact.)
            let progress = f64::from(beat.wrapping_add(1)) / f64::from(busy_beats.max(1));
            let mut best = None;
            let mut best_deficit = f64::NEG_INFINITY;
            for (index, (_, left)) in remaining.iter().enumerate() {
                if *left == 0 {
                    continue;
                }
                let deficit = totals[index] * progress - assigned[index];
                if deficit > best_deficit {
                    best_deficit = deficit;
                    best = Some(index);
                }
            }
            let index = best.expect("at least one segment has beats left");
            self.per_beat_idx.push(remaining[index].0);
            // Beats past the 64th fall off the mask; nobody stores it then.
            mask |= (index as u64).checked_shl(beat).unwrap_or(0);
            assigned[index] += 1.0;
            // `left != 0` for the segment picked.
            remaining[index].1 = remaining[index].1.wrapping_sub(1);
        }
        let filler = self
            .per_beat_idx
            .first()
            .copied()
            .unwrap_or_else(|| self.table.fastest_idx());
        self.per_beat_idx.resize(self.quantum as usize, filler);
        mask
    }

    /// Resets the controller and discards the current schedule, keeping the
    /// knob table (and the preallocated planning buffer; the remembered
    /// interleaves are a function of the quantum length alone and stay).
    pub fn reset(&mut self) {
        self.controller.reset();
        self.beat_in_quantum = 0;
        self.per_beat_idx.clear();
        self.current_schedule = None;
        self.quanta_planned = 0;
    }

    /// The beat position within the current quantum (0 at a quantum
    /// boundary). Exported alongside the controller speedup into the
    /// segment's warm-start block so a successor daemon can measure how
    /// far into a quantum its predecessor died.
    pub fn beat_in_quantum(&self) -> u32 {
        self.beat_in_quantum
    }

    /// Warm-starts this runtime from a dead predecessor's exported
    /// integrator state: the restored speedup (clamped to the controller's
    /// configured range) becomes the base the first post-recovery
    /// `update` integrates from, so the successor resumes from the last
    /// actuation instead of re-converging from a cold speedup of 1. The
    /// next heartbeat plans a fresh quantum.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidSpeedupRange`] when `speedup` is not
    /// finite (a scribbled warm-start block); the runtime is left cold.
    pub fn warm_start(&mut self, speedup: f64) -> Result<(), ControlError> {
        self.controller.restore_speedup(speedup)?;
        self.beat_in_quantum = 0;
        self.per_beat_idx.clear();
        self.current_schedule = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerdial_knobs::{ConfigParameter, ParameterSpace};
    use powerdial_qos::{QosLoss, QosLossBound};

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

    fn runtime(quantum: u32) -> PowerDialRuntime {
        let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
            .with_quantum_heartbeats(quantum)
            .unwrap();
        PowerDialRuntime::new(config, test_table()).unwrap()
    }

    #[test]
    fn zero_quantum_is_rejected() {
        let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap());
        assert!(config.with_quantum_heartbeats(0).is_err());
        let mut bad = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap());
        bad.quantum_heartbeats = 0;
        assert!(matches!(
            PowerDialRuntime::new(bad, test_table()),
            Err(ControlError::ZeroQuantum)
        ));
    }

    #[test]
    fn on_target_rate_keeps_baseline_setting() {
        let mut rt = runtime(4);
        for _ in 0..8 {
            let decision = rt.on_heartbeat(Some(30.0));
            assert!((decision.gain - 1.0).abs() < 1e-12);
            assert_eq!(decision.setting().values(), &[0.0]);
        }
        assert_eq!(rt.quanta_planned(), 2);
    }

    #[test]
    fn slow_rate_triggers_faster_settings() {
        let mut rt = runtime(4);
        // Observed rate is half the target: controller asks for ~1.33 then
        // more; the quantum should mix the speedup-2 setting with baseline.
        let mut gains = Vec::new();
        for _ in 0..8 {
            gains.push(rt.on_heartbeat(Some(15.0)).gain);
        }
        assert!(
            gains.iter().any(|&g| g > 1.0),
            "gains {gains:?} should include a boosted setting"
        );
        assert!(rt.current_schedule().is_some());
        assert!(rt.controller().speedup() > 1.0);
    }

    #[test]
    fn quantum_boundary_replans() {
        let mut rt = runtime(2);
        rt.on_heartbeat(Some(30.0));
        rt.on_heartbeat(Some(30.0));
        assert_eq!(rt.quanta_planned(), 1);
        rt.on_heartbeat(Some(10.0));
        assert_eq!(rt.quanta_planned(), 2);
        // The second plan reacts to the slow observation.
        assert!(rt.current_schedule().unwrap().requested_speedup > 1.0);
    }

    #[test]
    fn missing_observation_uses_target_rate() {
        let mut rt = runtime(4);
        let decision = rt.on_heartbeat(None);
        assert!((decision.requested_speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn race_to_idle_reports_idle_fraction() {
        let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
            .with_policy(ActuationPolicy::RaceToIdle)
            .with_quantum_heartbeats(4)
            .unwrap();
        let mut rt = PowerDialRuntime::new(config, test_table()).unwrap();
        // On-target: requested speedup 1, fastest is 4 -> idle 3/4.
        let decision = rt.on_heartbeat(Some(30.0));
        assert!((decision.planned_idle_fraction - 0.75).abs() < 1e-12);
        assert!((decision.gain - 4.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state() {
        let mut rt = runtime(4);
        rt.on_heartbeat(Some(10.0));
        rt.reset();
        assert_eq!(rt.quanta_planned(), 0);
        assert!(rt.current_schedule().is_none());
        assert_eq!(rt.controller().speedup(), 1.0);
        assert_eq!(rt.quantum_heartbeats(), 4);
        assert_eq!(rt.table().len(), 3);
    }

    #[test]
    fn closed_loop_with_capacity_drop_recovers_target() {
        // Simulate the power-cap scenario end to end: each work unit takes
        // 1 / (baseline · capacity · gain) seconds, and the controller sees
        // the windowed heart rate over the last 20 units — the same feedback
        // the real heartbeat monitor provides.
        let mut rt = runtime(5);
        let capacity = 0.5;
        let mut latencies: Vec<f64> = Vec::new();
        let mut rates = Vec::new();
        for _ in 0..200 {
            let window: Vec<f64> = latencies.iter().rev().take(20).copied().collect();
            let observed = if window.is_empty() {
                None
            } else {
                Some(window.len() as f64 / window.iter().sum::<f64>())
            };
            let decision = rt.on_heartbeat(observed);
            latencies.push(1.0 / (30.0 * capacity * decision.gain));
            if let Some(rate) = observed {
                rates.push(rate);
            }
        }
        let tail_mean: f64 = rates[rates.len() - 50..].iter().sum::<f64>() / 50.0;
        assert!(
            (tail_mean - 30.0).abs() < 3.0,
            "mean rate {tail_mean} should recover close to the 30 beats/s target"
        );
    }

    #[test]
    fn warm_started_runtime_matches_uninterrupted_run() {
        // An uninterrupted runtime converges somewhere; a successor that
        // warm-starts from its exported speedup at a quantum boundary makes
        // bit-identical decisions from the first post-recovery beat on.
        let mut uninterrupted = runtime(4);
        for _ in 0..12 {
            uninterrupted.on_heartbeat_idx(Some(15.0));
        }
        let exported = uninterrupted.controller().speedup();

        let mut successor = runtime(4);
        successor.warm_start(exported).unwrap();
        assert_eq!(
            successor.controller().speedup().to_bits(),
            exported.to_bits()
        );
        for _ in 0..12 {
            let a = uninterrupted.on_heartbeat_idx(Some(15.0));
            let b = successor.on_heartbeat_idx(Some(15.0));
            assert_eq!(a.point_idx, b.point_idx);
            assert_eq!(a.gain.to_bits(), b.gain.to_bits());
            assert_eq!(a.requested_speedup.to_bits(), b.requested_speedup.to_bits());
        }

        // A cold successor diverges on its first quantum — the glitch the
        // warm start exists to avoid.
        let mut cold = runtime(4);
        let warm_first = successor.current_schedule().unwrap().requested_speedup;
        let cold_first = cold.on_heartbeat_idx(Some(15.0)).requested_speedup;
        assert_ne!(warm_first.to_bits(), cold_first.to_bits());

        // Garbage warm state is refused and leaves the runtime cold.
        let mut refused = runtime(4);
        assert!(refused.warm_start(f64::NAN).is_err());
        assert_eq!(refused.controller().speedup(), 1.0);
    }

    #[test]
    fn advance_in_quantum_matches_per_beat_walk() {
        // Walk two identical runtimes through several quanta: one per-beat,
        // one stepping the boundary beat then batching the interior in
        // ragged spans. Every decision the batched walk *does* surface must
        // be bit-identical to the per-beat walk's decision for that beat.
        let mut per_beat = runtime(7);
        let mut batched = runtime(7);
        let rates = [10.0, 15.0, 30.0, 45.0, 5.0, 30.0];
        for (q, rate) in rates.iter().enumerate() {
            // Boundary beat: consumes the observation on both sides.
            let a = per_beat.on_heartbeat_idx(Some(*rate));
            let b = batched.on_heartbeat_idx(Some(*rate));
            assert_eq!(a.point_idx, b.point_idx, "boundary of quantum {q}");
            // Interior: 6 beats, split into ragged spans 2 + 1 + 3.
            let mut last_per_beat = None;
            for _ in 0..6 {
                last_per_beat = Some(per_beat.on_heartbeat_idx(Some(*rate)));
            }
            batched.advance_in_quantum(2);
            batched.advance_in_quantum(1);
            let last_batched = batched.advance_in_quantum(3);
            let last_per_beat = last_per_beat.unwrap();
            assert_eq!(last_per_beat.point_idx, last_batched.point_idx);
            assert_eq!(last_per_beat.gain.to_bits(), last_batched.gain.to_bits());
            assert_eq!(
                last_per_beat.requested_speedup.to_bits(),
                last_batched.requested_speedup.to_bits()
            );
            assert_eq!(per_beat.beat_in_quantum(), 0);
            assert_eq!(batched.beat_in_quantum(), 0);
            assert_eq!(per_beat.quanta_planned(), batched.quanta_planned());
        }
    }

    #[test]
    #[should_panic(expected = "quantum in progress")]
    fn advance_at_boundary_panics() {
        let mut rt = runtime(4);
        rt.advance_in_quantum(1);
    }

    #[test]
    #[should_panic(expected = "cross the")]
    fn advance_across_boundary_panics() {
        let mut rt = runtime(4);
        rt.on_heartbeat_idx(Some(30.0));
        rt.advance_in_quantum(4);
    }

    /// `beat_in_quantum + span` used to be summed in `u32`: in a release
    /// build `1 + u32::MAX` wrapped to 0, passed the boundary check, and
    /// the runtime silently served the baseline point. (A debug build
    /// trips the overflow check first, with a different message — this is
    /// a regression test where CI runs it under `--release`.)
    #[test]
    #[should_panic(expected = "would cross")]
    fn advance_by_a_span_that_overflows_u32_panics() {
        let mut rt = runtime(4);
        rt.on_heartbeat_idx(Some(30.0));
        assert_eq!(rt.beat_in_quantum(), 1);
        rt.advance_in_quantum(u32::MAX);
    }

    fn config_with(policy: ActuationPolicy, quantum: u32) -> RuntimeConfig {
        RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
            .with_policy(policy)
            .with_quantum_heartbeats(quantum)
            .unwrap()
    }

    fn runtime_with(policy: ActuationPolicy, quantum: u32) -> PowerDialRuntime {
        PowerDialRuntime::new(config_with(policy, quantum), test_table()).unwrap()
    }

    /// Plans one quantum at exactly `requested` (an on-target observation
    /// leaves the restored integrator where it is) and returns its beats.
    fn plan_at(rt: &mut PowerDialRuntime, requested: f64) -> Vec<PointIdx> {
        rt.warm_start(requested).unwrap();
        let decision = rt.on_heartbeat_idx(Some(30.0));
        assert_eq!(decision.requested_speedup.to_bits(), requested.to_bits());
        rt.planned_beat_indices().to_vec()
    }

    #[test]
    fn a_looked_up_interleave_is_the_derived_one() {
        use crate::naive::NaivePowerDialRuntime;
        use std::collections::BTreeSet;

        for quantum in [1u32, 2, 3, 5, 20, 63, 64, 65, 100] {
            for policy in [ActuationPolicy::MinimalSpeedup, ActuationPolicy::RaceToIdle] {
                // `veteran` has planned every split the sweep has reached so
                // far (and, quanta of 64 beats or fewer, looks one up when it
                // comes round again); a fresh runtime has to run the deficit
                // loop; `naive` derives every quantum with the original
                // clone-based loop and has never heard of a mask.
                let mut veteran = runtime_with(policy, quantum);
                let mut naive =
                    NaivePowerDialRuntime::new(config_with(policy, quantum), test_table()).unwrap();
                let mut splits = BTreeSet::new();
                // 1.0 ..= 4.5 in steps of 1/256: through the (1×, 2×) and
                // (1×, 4×) pairs and past the table's fastest point, finely
                // enough that no split of a 100-beat quantum is stepped over.
                for step in 256u32..=1152 {
                    let requested = f64::from(step) / 256.0;
                    let looked_up = plan_at(&mut veteran, requested);
                    assert_eq!(looked_up.len(), quantum as usize);

                    let fresh = plan_at(&mut runtime_with(policy, quantum), requested);
                    assert_eq!(looked_up, fresh, "quantum {quantum} at {requested}");

                    naive.warm_start(requested).unwrap();
                    naive.on_heartbeat(Some(30.0));
                    let looked_up_points: Vec<&CalibrationPoint> = looked_up
                        .iter()
                        .map(|&idx| veteran.table().point(idx))
                        .collect();
                    let derived: Vec<&CalibrationPoint> =
                        naive.planned_beat_points().iter().collect();
                    assert_eq!(
                        looked_up_points, derived,
                        "quantum {quantum} at {requested}"
                    );

                    // Same split again — a lookup now, where a mask fits —
                    // from a clone, and after the state changes that must
                    // neither lose nor corrupt what has been remembered
                    // (`plan_at` warm-starts every time it is called).
                    let mut cloned = veteran.clone();
                    assert_eq!(plan_at(&mut cloned, requested), looked_up);
                    if step % 64 == 0 {
                        veteran.reset();
                    }
                    assert_eq!(plan_at(&mut veteran, requested), looked_up);

                    if requested < 2.0 {
                        let baseline = veteran.table().baseline_idx();
                        splits.insert(looked_up.iter().filter(|&&idx| idx != baseline).count());
                    }
                }
                match policy {
                    // Every split of the (2×, 1×) pair, none stepped over.
                    ActuationPolicy::MinimalSpeedup => {
                        assert_eq!(splits, (0..=quantum as usize).collect::<BTreeSet<_>>());
                    }
                    // One segment at the fastest point: the only split there is.
                    ActuationPolicy::RaceToIdle => {
                        assert_eq!(splits, BTreeSet::from([quantum as usize]));
                    }
                }
            }
        }
    }

    #[test]
    fn decision_display_mentions_gain() {
        let mut rt = runtime(4);
        let decision = rt.on_heartbeat(Some(30.0));
        assert!(decision.to_string().contains("gain"));
    }

    #[test]
    fn indexed_and_cloned_decisions_agree() {
        let mut by_index = runtime(4);
        let mut by_clone = runtime(4);
        for rate in [10.0, 15.0, 30.0, 45.0, 30.0, 5.0, 30.0, 30.0] {
            let indexed = by_index.on_heartbeat_idx(Some(rate));
            let cloned = by_clone.on_heartbeat(Some(rate));
            assert_eq!(by_index.table().point(indexed.point_idx), &cloned.point);
            assert_eq!(indexed.gain.to_bits(), cloned.gain.to_bits());
            assert_eq!(
                indexed.requested_speedup.to_bits(),
                cloned.requested_speedup.to_bits()
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::naive::NaivePowerDialRuntime;
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
        /// The index-based runtime plans beat-for-beat identical schedules
        /// to the pre-optimization clone-based expansion, across arbitrary
        /// tables, quanta, policies, and observed-rate sequences — the
        /// equivalence guarantee for the allocation-free rework.
        #[test]
        fn indexed_runtime_matches_naive_expansion(
            mut extra_speedups in proptest::collection::vec(1.05f64..40.0, 1..5),
            observed in proptest::collection::vec(2.0f64..90.0, 8..60),
            quantum in 1u32..12,
            race_to_idle in 0usize..2,
        ) {
            extra_speedups.sort_by(f64::total_cmp);
            let mut speedups = vec![1.0];
            speedups.extend(extra_speedups);
            let table = arbitrary_table(&speedups);

            let policy = if race_to_idle == 1 {
                ActuationPolicy::RaceToIdle
            } else {
                ActuationPolicy::MinimalSpeedup
            };
            let config = RuntimeConfig::new(ControllerConfig::new(30.0, 30.0).unwrap())
                .with_policy(policy)
                .with_quantum_heartbeats(quantum)
                .unwrap();

            let mut indexed = PowerDialRuntime::new(config, table.clone()).unwrap();
            let mut naive = NaivePowerDialRuntime::new(config, table).unwrap();

            for (beat, rate) in observed.iter().enumerate() {
                let fast = indexed.on_heartbeat_idx(Some(*rate));
                let slow = naive.on_heartbeat(Some(*rate));
                prop_assert_eq!(
                    indexed.table().point(fast.point_idx),
                    &slow.point,
                    "decision diverged at beat {}",
                    beat
                );
                prop_assert_eq!(fast.gain.to_bits(), slow.gain.to_bits());
                prop_assert_eq!(
                    fast.planned_idle_fraction.to_bits(),
                    slow.planned_idle_fraction.to_bits()
                );
                prop_assert_eq!(
                    fast.requested_speedup.to_bits(),
                    slow.requested_speedup.to_bits()
                );

                // The full planned quantum is identical, not just the beat
                // that happened to be returned.
                let planned: Vec<&CalibrationPoint> = indexed
                    .planned_beat_indices()
                    .iter()
                    .map(|&idx| indexed.table().point(idx))
                    .collect();
                let reference: Vec<&CalibrationPoint> =
                    naive.planned_beat_points().iter().collect();
                prop_assert_eq!(planned, reference);
            }
            prop_assert_eq!(indexed.quanta_planned(), naive.quanta_planned());
        }
    }
}
