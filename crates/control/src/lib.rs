//! The PowerDial control system: feedback controller, Z-domain analysis,
//! actuator, and runtime.
//!
//! PowerDial keeps an application at its target heart rate by closing a
//! feedback loop around the Application Heartbeats signal:
//!
//! 1. the [`HeartRateController`] implements the integral control law of the
//!    paper (Equations 2–4): `e(t) = g − h(t)`, `s(t) = s(t−1) + e(t)/b`,
//!    where `g` is the target heart rate, `h(t)` the observed rate, and `b`
//!    the application's baseline speed;
//! 2. the [`ztransform`] module reproduces the paper's Z-domain analysis of
//!    the closed loop (unit steady-state gain, single pole at the origin,
//!    near-instant convergence);
//! 3. the [`Actuator`] converts the continuous speedup signal into a schedule
//!    of discrete knob settings over a time quantum (Equations 9–11), with
//!    either the race-to-idle or the minimal-speedup policy;
//! 4. the [`PowerDialRuntime`] ties the pieces together: feed it one call per
//!    heartbeat and apply the knob setting it returns;
//! 5. the [`daemon`] module scales the loop to many applications: a
//!    [`PowerDialDaemon`] drives one runtime per registered app from a pool
//!    of sharded worker threads.
//!
//! # Channels and the multi-app daemon
//!
//! A single control loop costs tens of nanoseconds per heartbeat; serving
//! thousands of applications from one daemon is therefore a *plumbing*
//! problem, not a compute problem. The architecture keeps the plumbing off
//! the hot path:
//!
//! * **Beat transport** — each application owns the producer half of a
//!   lock-free SPSC ring ([`powerdial_heartbeats::channel`]). Emitting a
//!   beat is one slot write plus one release store: wait-free, no locks, no
//!   allocation, no syscalls, so instrumentation cannot perturb the
//!   application being controlled (the framework's founding constraint).
//! * **Sharding** — registered apps are distributed round-robin over worker
//!   threads; each worker's apps live in one [`DaemonShard`] behind a lock
//!   that is never contended: the worker thread holds it only while it
//!   runs a quantum (`Tick` — with the `Crash` injection and `Shutdown`
//!   the only messages a worker is ever sent), and the daemon façade
//!   takes it between ticks for everything else (register, unregister,
//!   wake, telemetry), whether the worker is alive or dead. Workers share
//!   no mutable state and need no synchronization with each other.
//! * **Batched actuation** — once per actuation quantum
//!   ([`PowerDialDaemon::tick`]) each shard drains every channel in one
//!   batch into a reused scratch buffer and steps the O(1)
//!   [`PowerDialRuntime`] once per drained beat. The cross-core cost (one
//!   acquire/release pair per channel) is paid per quantum, not per beat,
//!   which is exactly the batching the paper's 20-heartbeat actuation
//!   quantum licenses.
//! * **Decision return** — the latest knob setting, gain, achieved speedup,
//!   and expected QoS loss are published through per-app atomics; the
//!   application reads them lock-free whenever it is ready to reconfigure.
//!
//! The per-quantum drain loop is steady-state allocation-free (enforced by
//! the `daemon_no_alloc` integration test), and the mutex-guarded serial
//! baseline in [`daemon::naive`] shares the control code, so a divergence
//! between the two is a transport bug; what the transport costs is
//! `beats_per_s` on `drain_heap` and `drain_shm` in `BENCHMARK.json`.
//!
//! # Example
//!
//! ```
//! use powerdial_control::{ControllerConfig, HeartRateController};
//!
//! # fn main() -> Result<(), powerdial_control::ControlError> {
//! // Target 30 beats/s on an application whose baseline speed is 30 beats/s.
//! let config = ControllerConfig::new(30.0, 30.0)?;
//! let mut controller = HeartRateController::new(config);
//!
//! // The platform slows down: observed rate drops to 20 beats/s. The
//! // controller asks for more speedup.
//! let s1 = controller.update(20.0);
//! assert!(s1 > 1.0);
//! // Once the application is back on target the speedup stabilizes.
//! let s2 = controller.update(30.0);
//! assert!((s2 - s1).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod actuator;
#[cfg(target_os = "linux")]
pub mod broker;
mod controller;
pub mod daemon;
mod dvfs;
mod error;
mod handoff;
#[cfg(test)]
mod naive;
mod runtime;
#[cfg(target_os = "linux")]
pub mod supervisor;
pub mod telemetry;
pub mod ztransform;

pub use actuator::{
    ActuationPolicy, Actuator, CompactSchedule, PlanSegment, Schedule, ScheduleSegment,
    MAX_PLAN_SEGMENTS,
};
#[cfg(target_os = "linux")]
pub use broker::{AttachBroker, AttachOutcome, AttachRequest, BrokerConfig, BrokerError};
pub use controller::{ControllerConfig, HeartRateController};
pub use daemon::{
    AppHandle, AppId, DaemonConfig, DaemonShard, DecisionView, IdleLadder, LadderRung,
    PowerDialDaemon, QuarantineReason,
};
pub use dvfs::DvfsActuator;
pub use error::ControlError;
pub use runtime::{
    IndexedDecision, PowerDialRuntime, RuntimeConfig, RuntimeDecision, DEFAULT_QUANTUM_HEARTBEATS,
};
#[cfg(target_os = "linux")]
pub use supervisor::{ServeLoop, Supervisor, SupervisorConfig};
pub use telemetry::{
    AppTelemetryReport, HandoffCounts, IncidentCounts, LivenessCounts, ShardTelemetry,
    TelemetrySnapshot,
};
