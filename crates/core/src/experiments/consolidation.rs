//! Server consolidation across utilization levels (Figure 8).
//!
//! Two drivers produce the study:
//!
//! * [`consolidation_study`] — the analytic sweep: at each utilization the
//!   actuator is planned directly for the required speedup (closed form,
//!   exact);
//! * [`consolidation_study_live`] — the same sweep run through the real
//!   multi-application machinery: every consolidated machine is an
//!   application registered in a [`powerdial_heartbeats::HeartbeatRegistry`],
//!   emitting heartbeats over a lock-free SPSC channel into a sharded
//!   [`PowerDialDaemon`], whose per-quantum batched controller converges on
//!   the required speedup. The equivalence test asserts the two agree.

use serde::{Deserialize, Serialize};

use powerdial_analytic::consolidation::{required_speedup, ConsolidationModel};
use powerdial_control::daemon::{DaemonConfig, PowerDialDaemon};
use powerdial_control::{ActuationPolicy, Actuator, ControllerConfig, RuntimeConfig};
use powerdial_heartbeats::channel::BeatSample;
use powerdial_heartbeats::{HeartbeatRegistry, MonitorConfig, Timestamp, TimestampDelta};
use powerdial_platform::{Cluster, FrequencyState, PowerModel};
use powerdial_qos::QosLossBound;

use crate::error::PowerDialError;
use crate::system::PowerDialSystem;

/// One utilization point of the Figure 8 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConsolidationPoint {
    /// System utilization relative to the original, fully provisioned system
    /// (1.0 = the peak load it was provisioned for).
    pub utilization: f64,
    /// Mean power of the original system at this utilization, in watts.
    pub original_power_watts: f64,
    /// Mean power of the consolidated system at this utilization, in watts.
    pub consolidated_power_watts: f64,
    /// Mean QoS loss the consolidated system incurs to keep up, as a
    /// percentage.
    pub qos_loss_percent: f64,
}

/// The complete Figure 8 study for one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsolidationStudy {
    /// The application's name.
    pub application: String,
    /// Machines in the original system.
    pub original_machines: usize,
    /// Machines in the consolidated system.
    pub consolidated_machines: usize,
    /// The QoS-loss bound used to provision the consolidated system.
    pub qos_bound_percent: f64,
    /// The speedup available within the bound (used for provisioning).
    pub provisioning_speedup: f64,
    /// The sweep over utilization.
    pub points: Vec<ConsolidationPoint>,
}

impl ConsolidationStudy {
    /// The largest QoS loss incurred anywhere in the sweep.
    pub fn max_qos_loss_percent(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.qos_loss_percent)
            .fold(0.0, f64::max)
    }

    /// The power saved at full utilization, as a fraction of the original
    /// system's power.
    pub fn peak_load_power_savings(&self) -> f64 {
        match self.points.last() {
            Some(point) if point.original_power_watts > 0.0 => {
                (point.original_power_watts - point.consolidated_power_watts)
                    / point.original_power_watts
            }
            _ => 0.0,
        }
    }

    /// The power saved at the given utilization (interpolating between sweep
    /// points is not needed: the sweep is dense).
    pub fn savings_at(&self, utilization: f64) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| {
                (a.utilization - utilization)
                    .abs()
                    .partial_cmp(&(b.utilization - utilization).abs())
                    .expect("utilizations are finite")
            })
            .map(|p| p.original_power_watts - p.consolidated_power_watts)
    }
}

/// Runs the Figure 8 experiment.
///
/// The original system has `original_machines` machines serving the peak load
/// with the baseline configuration. The consolidated system is provisioned
/// with Equation 21 using the largest speedup available within `qos_bound`,
/// then the offered load is swept from 0 to the original system's peak; at
/// each level the consolidated system uses the PowerDial actuator to pick the
/// cheapest knob setting that keeps up.
///
/// # Errors
///
/// Returns an error when no knob setting satisfies the QoS bound or the
/// cluster parameters are invalid.
pub fn consolidation_study(
    system: &PowerDialSystem,
    original_machines: usize,
    qos_bound: QosLossBound,
    utilization_steps: usize,
) -> Result<ConsolidationStudy, PowerDialError> {
    let Provisioning {
        bounded_table,
        provisioning_speedup,
        consolidated_machines,
        original,
        consolidated,
    } = provision(system, original_machines, qos_bound)?;
    let actuator = Actuator::new(ActuationPolicy::MinimalSpeedup);

    let steps = utilization_steps.max(2);
    let mut points = Vec::with_capacity(steps);
    for step in 0..steps {
        let utilization = step as f64 / (steps - 1) as f64;
        let offered_load = utilization * original_machines as f64;

        let original_power = original
            .power_at_load(offered_load, FrequencyState::highest())?
            .total_watts;

        // The consolidated system must absorb the same offered load with
        // fewer machines: the required speedup is the ratio of offered load
        // to available capacity (at least 1).
        let required = required_speedup(offered_load, consolidated_machines);
        let schedule = actuator.plan(&bounded_table, required);
        let achieved = schedule.achieved_speedup.max(1.0);
        let qos_loss_percent = schedule.expected_qos_loss() * 100.0;

        let consolidated_load = offered_load / achieved;
        let consolidated_power = consolidated
            .power_at_load(consolidated_load, FrequencyState::highest())?
            .total_watts;

        points.push(ConsolidationPoint {
            utilization,
            original_power_watts: original_power,
            consolidated_power_watts: consolidated_power,
            qos_loss_percent,
        });
    }

    Ok(ConsolidationStudy {
        application: system.application().to_string(),
        original_machines,
        consolidated_machines,
        qos_bound_percent: qos_bound.percent(),
        provisioning_speedup,
        points,
    })
}

/// Provisioning shared by the analytic and live sweeps: the QoS-bounded
/// knob table, the Equation 21 machine count, and both clusters. Keeping
/// this in one place is what makes [`consolidation_study`] and
/// [`consolidation_study_live`] comparable point for point.
struct Provisioning {
    bounded_table: powerdial_knobs::KnobTable,
    provisioning_speedup: f64,
    consolidated_machines: usize,
    original: Cluster,
    consolidated: Cluster,
}

fn provision(
    system: &PowerDialSystem,
    original_machines: usize,
    qos_bound: QosLossBound,
) -> Result<Provisioning, PowerDialError> {
    let bounded_table = system.calibration().knob_table(qos_bound)?;
    let provisioning_speedup = bounded_table.max_speedup();

    // Equation 21: machines needed after consolidation. The average
    // utilization parameter only affects the power bookkeeping of the
    // analytic model, not the provisioning, so the data-center typical 25 %
    // is used.
    let model = ConsolidationModel::new(
        original_machines,
        1.0,
        0.25,
        PowerModel::poweredge_r410().max_watts(),
        PowerModel::poweredge_r410().idle_watts(),
    )?;
    let consolidated_machines = model.machines_needed(provisioning_speedup)?;

    let original = Cluster::new("original", original_machines, PowerModel::poweredge_r410())?;
    let consolidated = Cluster::new(
        "consolidated",
        consolidated_machines,
        PowerModel::poweredge_r410(),
    )?;
    Ok(Provisioning {
        bounded_table,
        provisioning_speedup,
        consolidated_machines,
        original,
        consolidated,
    })
}

/// Options for the daemon-driven consolidation sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LiveConsolidationOptions {
    /// Worker threads the daemon shards machines across (0 = inline, fully
    /// deterministic).
    pub workers: usize,
    /// Actuation quanta simulated per utilization step; the integral
    /// controller is near-deadbeat, so a handful suffice for convergence.
    pub quanta_per_step: usize,
    /// Nominal heart-rate target each machine's application runs at, in
    /// beats per second. Only sets the simulation's time scale.
    pub target_rate_bps: f64,
}

impl Default for LiveConsolidationOptions {
    fn default() -> Self {
        LiveConsolidationOptions {
            workers: 0,
            quanta_per_step: 15,
            target_rate_bps: 30.0,
        }
    }
}

/// Runs the Figure 8 experiment through the live multi-application stack.
///
/// Provisioning is identical to [`consolidation_study`]. The sweep itself
/// is not analytic: every consolidated machine runs an instrumented
/// application — a [`powerdial_heartbeats::HeartbeatMonitor`] registered in
/// a [`HeartbeatRegistry`] — whose beat records flow over a lock-free SPSC
/// channel into a [`PowerDialDaemon`]. At each utilization step the
/// machines' effective capacity drops to `1 / required_speedup`; the
/// daemon's per-quantum batched controllers observe the slowdown through
/// the windowed heart rate and drive each machine's knobs until the target
/// rate is restored. Power and QoS are then read from the daemon's
/// converged decisions, exactly as an operator would read them off the
/// running system.
///
/// # Errors
///
/// Returns an error when no knob setting satisfies the QoS bound, the
/// cluster parameters are invalid, or a heartbeat stream overflows its
/// channel (the channel is sized for the quantum, so this indicates a bug).
pub fn consolidation_study_live(
    system: &PowerDialSystem,
    original_machines: usize,
    qos_bound: QosLossBound,
    utilization_steps: usize,
    options: LiveConsolidationOptions,
) -> Result<ConsolidationStudy, PowerDialError> {
    let Provisioning {
        bounded_table,
        provisioning_speedup,
        consolidated_machines,
        original,
        consolidated,
    } = provision(system, original_machines, qos_bound)?;

    // One application per consolidated machine: a monitor in the registry
    // (the paper's shared heartbeat namespace) plus a daemon registration.
    let target = options.target_rate_bps;
    let runtime_config = RuntimeConfig::new(ControllerConfig::new(target, target)?);
    let quantum = runtime_config.quantum_heartbeats as usize;
    let mut daemon = PowerDialDaemon::new(DaemonConfig {
        workers: options.workers,
        channel_capacity: (quantum * 2).max(DaemonConfig::DEFAULT_CHANNEL_CAPACITY),
        window_size: quantum,
        ..DaemonConfig::default()
    })?;
    let mut registry = HeartbeatRegistry::new();
    let mut machines = Vec::with_capacity(consolidated_machines);
    for machine in 0..consolidated_machines {
        let monitor_id = registry.register(
            MonitorConfig::new(format!("{}-machine-{machine}", system.application()))
                .with_target_rate_range(target, target)?,
        )?;
        let handle = daemon.register(runtime_config, bounded_table.clone())?;
        machines.push((monitor_id, handle, Timestamp::ZERO));
    }

    let steps = utilization_steps.max(2);
    let mut points = Vec::with_capacity(steps);
    for step in 0..steps {
        let utilization = step as f64 / (steps - 1) as f64;
        let offered_load = utilization * original_machines as f64;

        let original_power = original
            .power_at_load(offered_load, FrequencyState::highest())?
            .total_watts;

        // Consolidation slows each machine's application by the required
        // speedup; the daemon has to win it back through the knobs.
        let required = required_speedup(offered_load, consolidated_machines);
        let capacity = 1.0 / required;

        for _ in 0..options.quanta_per_step {
            for (monitor_id, handle, now) in &mut machines {
                // The application processes `quantum` units at the gain the
                // daemon last decided (1.0 before any decision).
                let gain = handle.achieved_speedup().unwrap_or(1.0).max(1.0);
                let latency_secs = 1.0 / (target * capacity * gain);
                for _ in 0..quantum {
                    *now += TimestampDelta::from_secs_f64(latency_secs);
                    let record = registry.monitor_mut(*monitor_id)?.heartbeat(*now);
                    handle
                        .push_sample(BeatSample::from_record(&record))
                        .map_err(|_| PowerDialError::HeartbeatChannelFull)?;
                }
            }
            daemon.tick();
        }

        // Read the converged state off the daemon, averaged over machines.
        let machine_count = machines.len() as f64;
        let mean_achieved = machines
            .iter()
            .map(|(_, handle, _)| handle.achieved_speedup().unwrap_or(1.0).max(1.0))
            .sum::<f64>()
            / machine_count;
        let qos_loss_percent = machines
            .iter()
            .map(|(_, handle, _)| handle.expected_qos_loss().unwrap_or(0.0))
            .sum::<f64>()
            / machine_count
            * 100.0;

        let consolidated_load = offered_load / mean_achieved;
        let consolidated_power = consolidated
            .power_at_load(consolidated_load, FrequencyState::highest())?
            .total_watts;

        points.push(ConsolidationPoint {
            utilization,
            original_power_watts: original_power,
            consolidated_power_watts: consolidated_power,
            qos_loss_percent,
        });
    }

    Ok(ConsolidationStudy {
        application: system.application().to_string(),
        original_machines,
        consolidated_machines,
        qos_bound_percent: qos_bound.percent(),
        provisioning_speedup,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{PowerDialConfig, PowerDialSystem};
    use powerdial_apps::{SearchApp, SwaptionsApp};

    #[test]
    fn parsec_style_consolidation_reproduces_figure_8() {
        let app = SwaptionsApp::test_scale(37);
        let system = PowerDialSystem::build(&app, PowerDialConfig::default()).unwrap();
        let study =
            consolidation_study(&system, 4, QosLossBound::from_percent(5.0).unwrap(), 21).unwrap();

        // The paper consolidates the PARSEC benchmarks from 4 machines to 1.
        assert_eq!(study.original_machines, 4);
        assert_eq!(study.consolidated_machines, 1);
        assert!(study.provisioning_speedup >= 4.0);

        // At 25 % utilization the consolidated system saves roughly 400 W
        // (about two thirds of the original power).
        let savings_at_quarter = study.savings_at(0.25).unwrap();
        assert!(
            savings_at_quarter > 250.0,
            "savings at 25% utilization {savings_at_quarter:.0} W"
        );

        // At peak load the consolidated system consumes ~75 % less power.
        let peak_savings = study.peak_load_power_savings();
        assert!(
            (peak_savings - 0.75).abs() < 0.05,
            "peak-load savings fraction {peak_savings}"
        );

        // QoS loss stays within the provisioning bound and is zero at low
        // utilization.
        assert!(study.points[0].qos_loss_percent < 1e-9);
        assert!(study.max_qos_loss_percent() <= 5.0 + 1e-6);

        // QoS loss rises monotonically with utilization.
        for pair in study.points.windows(2) {
            assert!(pair[1].qos_loss_percent + 1e-9 >= pair[0].qos_loss_percent);
        }
    }

    #[test]
    fn live_daemon_study_matches_analytic_study() {
        // The daemon-driven sweep must converge to the analytic sweep at
        // every utilization point: same provisioning, near-identical QoS
        // loss and power. The controller is near-deadbeat, so 15 quanta per
        // step leave only windowing wobble.
        let app = SwaptionsApp::test_scale(37);
        let system = PowerDialSystem::build(&app, PowerDialConfig::default()).unwrap();
        let bound = QosLossBound::from_percent(5.0).unwrap();
        let analytic = consolidation_study(&system, 4, bound, 11).unwrap();
        let live =
            consolidation_study_live(&system, 4, bound, 11, LiveConsolidationOptions::default())
                .unwrap();

        assert_eq!(live.original_machines, analytic.original_machines);
        assert_eq!(live.consolidated_machines, analytic.consolidated_machines);
        assert_eq!(live.provisioning_speedup, analytic.provisioning_speedup);
        assert_eq!(live.points.len(), analytic.points.len());

        for (live_point, analytic_point) in live.points.iter().zip(&analytic.points) {
            assert_eq!(live_point.utilization, analytic_point.utilization);
            assert_eq!(
                live_point.original_power_watts,
                analytic_point.original_power_watts
            );
            assert!(
                (live_point.qos_loss_percent - analytic_point.qos_loss_percent).abs() < 0.5,
                "qos diverged at utilization {}: live {} vs analytic {}",
                live_point.utilization,
                live_point.qos_loss_percent,
                analytic_point.qos_loss_percent
            );
            assert!(
                (live_point.consolidated_power_watts - analytic_point.consolidated_power_watts)
                    .abs()
                    < 0.02 * analytic_point.consolidated_power_watts.max(1.0),
                "power diverged at utilization {}: live {} vs analytic {}",
                live_point.utilization,
                live_point.consolidated_power_watts,
                analytic_point.consolidated_power_watts
            );
        }

        // The live study must stay within the provisioning bound too.
        assert!(live.max_qos_loss_percent() <= 5.0 + 0.5);
        assert!((live.peak_load_power_savings() - analytic.peak_load_power_savings()).abs() < 0.03);
    }

    #[test]
    fn live_study_through_threaded_daemon_stays_within_bound() {
        // Same experiment through real worker threads: convergence and the
        // QoS bound hold regardless of where the shards run.
        let app = SearchApp::test_scale(41);
        let system = PowerDialSystem::build(&app, PowerDialConfig::default()).unwrap();
        let bound = QosLossBound::from_percent(30.0).unwrap();
        let live = consolidation_study_live(
            &system,
            3,
            bound,
            7,
            LiveConsolidationOptions {
                workers: 2,
                ..LiveConsolidationOptions::default()
            },
        )
        .unwrap();
        assert_eq!(live.original_machines, 3);
        assert_eq!(live.consolidated_machines, 2);
        assert!(live.peak_load_power_savings() > 0.2);
        assert!(live.max_qos_loss_percent() <= 30.0 + 0.5);
    }

    #[test]
    fn search_consolidation_drops_one_of_three_machines() {
        let app = SearchApp::test_scale(41);
        let system = PowerDialSystem::build(&app, PowerDialConfig::default()).unwrap();
        let study =
            consolidation_study(&system, 3, QosLossBound::from_percent(30.0).unwrap(), 11).unwrap();
        // swish++'s ~1.5x speedup lets the paper drop one of three machines.
        assert_eq!(study.original_machines, 3);
        assert_eq!(study.consolidated_machines, 2);
        assert!(study.peak_load_power_savings() > 0.2);
        assert!(study.max_qos_loss_percent() <= 30.0 + 1e-6);
    }
}
