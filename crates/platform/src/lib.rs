//! A simulated execution platform for power-aware experiments.
//!
//! The PowerDial paper evaluates on a Dell PowerEdge R410 server: two
//! quad-core Xeon E5530 processors with seven DVFS states between 2.4 GHz
//! and 1.6 GHz, `cpufrequtils` for software frequency control, and a WattsUp
//! meter sampling full-system power at one-second intervals (idle ≈ 90 W,
//! full load ≈ 220 W). This crate provides a deterministic simulation of that
//! platform so the paper's experiments can run anywhere:
//!
//! * [`FrequencyTable`], [`FrequencyState`], and [`DvfsGovernor`] — discrete
//!   frequency ladders (the paper's seven states are one table among many),
//!   table-relative states, and the software control over them;
//! * [`backend`] — the pluggable DVFS actuation seam: [`DvfsBackend`] with a
//!   simulated implementation ([`SimBackend`]) and, on Linux, a real
//!   sysfs/cpufreq implementation (`SysfsCpufreqBackend`);
//! * [`PowerModel`], [`PowerSampler`], and [`EnergyAccount`] — full-system
//!   power as a function of frequency and utilization, 1 Hz sampling, and
//!   energy integration;
//! * [`SimMachine`] — a machine with a virtual clock that executes abstract
//!   work units at a rate proportional to its clock frequency and accounts
//!   for busy and idle energy;
//! * [`PowerCapSchedule`] — timed frequency caps (the paper's power-cap
//!   scenario drops the machine to its lowest state for the middle half of
//!   the run);
//! * [`LoadTrace`] and [`WorkloadGenerator`] — utilization traces with
//!   intermittent spikes for the provisioning experiments;
//! * [`Cluster`] — a group of machines behind a proportional load balancer,
//!   used by the server-consolidation experiments.
//!
//! # Example
//!
//! ```
//! use powerdial_platform::{FrequencyState, PowerModel, SimMachine};
//!
//! let mut machine = SimMachine::new("node0", PowerModel::poweredge_r410(), 1000.0);
//! machine.execute_work(500.0);               // half a second of work at 2.4 GHz
//! machine.set_frequency(FrequencyState::lowest());
//! machine.execute_work(500.0);               // the same work now takes longer
//! assert!(machine.now().as_secs_f64() > 1.0);
//! assert!(machine.energy().total_joules() > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod backend;
mod cluster;
mod error;
mod frequency;
mod machine;
pub mod naive;
mod power;
mod powercap;
mod workload;

#[cfg(target_os = "linux")]
pub use backend::SysfsCpufreqBackend;
pub use backend::{DvfsBackend, SimBackend};
pub use cluster::{Cluster, ClusterPowerBreakdown};
pub use error::PlatformError;
pub use frequency::{
    DvfsGovernor, FrequencyState, FrequencyTable, DVFS_FREQUENCIES_GHZ, DVFS_FREQUENCIES_KHZ,
};
pub use machine::SimMachine;
pub use power::{EnergyAccount, PowerModel, PowerSample, PowerSampler};
pub use powercap::{PowerCapEvent, PowerCapSchedule};
pub use workload::{LoadTrace, WorkloadGenerator};
