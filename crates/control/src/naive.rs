//! The pre-optimization runtime, kept as a reference baseline.
//!
//! [`NaivePowerDialRuntime`] is the clone-based implementation
//! [`crate::PowerDialRuntime`] replaced — **a verbatim copy, not a
//! delegation**: the planner below is the original `Actuator::plan` body
//! (clone-based `Schedule` construction), so the equivalence property
//! tests genuinely pin the new index-based planner *and* expansion against
//! the pre-optimization code, rather than comparing two views of the same
//! implementation. Every quantum it clones [`CalibrationPoint`]s (each
//! owning a heap-allocated parameter setting) into four fresh `Vec`s, and
//! every heartbeat clones the decided point into the returned
//! [`RuntimeDecision`]. It exists so the equivalence property tests can
//! assert the index-based runtime plans **beat-for-beat identical**
//! schedules to this one, and is compiled for this crate's tests only.
//! What the index-based runtime costs is `control.runtime.boundary_ns`,
//! `control.runtime.advance_ns_per_span` and
//! `control.actuator.plan_compact_ns` in `BENCHMARK.json`.

use powerdial_knobs::{CalibrationPoint, KnobTable};

use crate::actuator::{ActuationPolicy, Schedule, ScheduleSegment};
use crate::controller::HeartRateController;
use crate::error::ControlError;
use crate::runtime::{RuntimeConfig, RuntimeDecision};

/// The original clone-based planner, preserved verbatim from the
/// pre-optimization `Actuator` (minimal-speedup and race-to-idle policies).
/// The actuator's equivalence tests pin the index-based planner against
/// it directly.
pub fn plan(policy: ActuationPolicy, table: &KnobTable, requested_speedup: f64) -> Schedule {
    let requested = requested_speedup.max(0.0);
    match policy {
        ActuationPolicy::RaceToIdle => plan_race_to_idle(table, requested),
        ActuationPolicy::MinimalSpeedup => plan_minimal_speedup(table, requested),
    }
}

fn plan_race_to_idle(table: &KnobTable, requested: f64) -> Schedule {
    let fastest = table.fastest().clone();
    let s_max = fastest.speedup;
    // s_max · t_max = requested  =>  t_max = requested / s_max.
    let t_max = (requested / s_max).min(1.0);
    let achieved = s_max * t_max;
    Schedule {
        segments: vec![ScheduleSegment {
            point: fastest,
            fraction: t_max,
        }],
        idle_fraction: 1.0 - t_max,
        achieved_speedup: if t_max < 1.0 { requested } else { achieved },
        requested_speedup: requested,
    }
}

fn plan_minimal_speedup(table: &KnobTable, requested: f64) -> Schedule {
    let baseline = table.baseline().clone();
    if requested <= baseline.speedup {
        // The default setting already meets the target: run it all quantum.
        return Schedule {
            segments: vec![ScheduleSegment {
                point: baseline,
                fraction: 1.0,
            }],
            idle_fraction: 0.0,
            achieved_speedup: 1.0,
            requested_speedup: requested,
        };
    }
    match table.iter().find(|p| p.speedup >= requested) {
        Some(point) => {
            let s_min = point.speedup;
            // s_min·t_min + 1·t_default = requested, t_min + t_default = 1
            //   =>  t_min = (requested − 1) / (s_min − 1).
            let t_min = if s_min > baseline.speedup {
                ((requested - baseline.speedup) / (s_min - baseline.speedup)).clamp(0.0, 1.0)
            } else {
                1.0
            };
            let t_default = 1.0 - t_min;
            let achieved = s_min * t_min + baseline.speedup * t_default;
            let mut segments = Vec::with_capacity(2);
            if t_min > 0.0 {
                segments.push(ScheduleSegment {
                    point: point.clone(),
                    fraction: t_min,
                });
            }
            if t_default > 0.0 {
                segments.push(ScheduleSegment {
                    point: baseline,
                    fraction: t_default,
                });
            }
            Schedule {
                segments,
                idle_fraction: 0.0,
                achieved_speedup: achieved,
                requested_speedup: requested,
            }
        }
        None => {
            // Saturate at the fastest setting.
            let fastest = table.fastest().clone();
            let achieved = fastest.speedup;
            Schedule {
                segments: vec![ScheduleSegment {
                    point: fastest,
                    fraction: 1.0,
                }],
                idle_fraction: 0.0,
                achieved_speedup: achieved,
                requested_speedup: requested,
            }
        }
    }
}

/// The clone-per-beat, allocate-per-quantum runtime (reference baseline).
#[derive(Debug, Clone)]
pub struct NaivePowerDialRuntime {
    controller: HeartRateController,
    policy: ActuationPolicy,
    table: KnobTable,
    quantum: u32,
    beat_in_quantum: u32,
    per_beat_points: Vec<CalibrationPoint>,
    current_schedule: Option<Schedule>,
    quanta_planned: u64,
}

impl NaivePowerDialRuntime {
    /// Creates a naive runtime from the same inputs as the optimized one.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::ZeroQuantum`] when the configured quantum is
    /// zero heartbeats.
    pub fn new(config: RuntimeConfig, table: KnobTable) -> Result<Self, ControlError> {
        if config.quantum_heartbeats == 0 {
            return Err(ControlError::ZeroQuantum);
        }
        Ok(NaivePowerDialRuntime {
            controller: HeartRateController::new(config.controller),
            policy: config.policy,
            table,
            quantum: config.quantum_heartbeats,
            beat_in_quantum: 0,
            per_beat_points: Vec::new(),
            current_schedule: None,
            quanta_planned: 0,
        })
    }

    /// Number of quanta planned so far.
    pub fn quanta_planned(&self) -> u64 {
        self.quanta_planned
    }

    /// The per-heartbeat points planned for the current quantum (for the
    /// equivalence tests against the index-based runtime).
    pub fn planned_beat_points(&self) -> &[CalibrationPoint] {
        &self.per_beat_points
    }

    /// Restores the integrator and abandons the quantum in progress, as
    /// [`crate::PowerDialRuntime::warm_start`] does — so a test can put
    /// both runtimes at a chosen requested speedup.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidSpeedupRange`] when `speedup` is not
    /// finite.
    pub fn warm_start(&mut self, speedup: f64) -> Result<(), ControlError> {
        self.controller.restore_speedup(speedup)?;
        self.beat_in_quantum = 0;
        Ok(())
    }

    /// One heartbeat step, exactly as the pre-optimization runtime did it.
    pub fn on_heartbeat(&mut self, observed_rate: Option<f64>) -> RuntimeDecision {
        if self.beat_in_quantum == 0 {
            self.plan_quantum(observed_rate);
        }
        let index = self.beat_in_quantum as usize;
        let point = self
            .per_beat_points
            .get(index)
            .cloned()
            .unwrap_or_else(|| self.table.baseline().clone());

        self.beat_in_quantum += 1;
        if self.beat_in_quantum >= self.quantum {
            self.beat_in_quantum = 0;
        }

        let schedule = self
            .current_schedule
            .as_ref()
            .expect("schedule exists after planning");
        RuntimeDecision {
            gain: point.speedup,
            planned_idle_fraction: schedule.idle_fraction,
            requested_speedup: schedule.requested_speedup,
            point,
        }
    }

    fn plan_quantum(&mut self, observed_rate: Option<f64>) {
        let observed = observed_rate.unwrap_or_else(|| self.controller.config().target_rate());
        let requested = self.controller.update(observed);
        let schedule = plan(self.policy, &self.table, requested);

        let beats_per_segment = schedule.beats_per_segment(self.quantum);
        let mut remaining: Vec<(CalibrationPoint, u32)> = beats_per_segment
            .iter()
            .map(|(point, beats)| ((*point).clone(), *beats))
            .collect();
        let totals: Vec<f64> = remaining
            .iter()
            .map(|(_, beats)| f64::from(*beats))
            .collect();
        let busy_beats: u32 = remaining.iter().map(|(_, beats)| *beats).sum();

        let mut per_beat: Vec<CalibrationPoint> = Vec::with_capacity(self.quantum as usize);
        let mut assigned: Vec<f64> = vec![0.0; remaining.len()];
        for beat in 0..busy_beats {
            let progress = f64::from(beat + 1) / f64::from(busy_beats.max(1));
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
            per_beat.push(remaining[index].0.clone());
            assigned[index] += 1.0;
            remaining[index].1 -= 1;
        }
        let filler = per_beat
            .first()
            .cloned()
            .unwrap_or_else(|| self.table.fastest().clone());
        while per_beat.len() < self.quantum as usize {
            per_beat.push(filler.clone());
        }

        self.per_beat_points = per_beat;
        self.current_schedule = Some(schedule);
        self.quanta_planned += 1;
    }
}
