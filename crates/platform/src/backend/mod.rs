//! Pluggable DVFS backends: one trait, a simulated implementation, and a
//! Linux sysfs/cpufreq implementation.
//!
//! The paper's actuator ultimately moves real P-states: its power-cap
//! experiment imposes and lifts a hardware frequency cap while dynamic knobs
//! absorb the performance loss. Everything above this module — the power-cap
//! schedules, the closed-loop simulator, the control crate's DVFS actuator —
//! speaks to the platform through [`DvfsBackend`], so the same control code
//! drives the simulator and real hardware.
//!
//! # The contract
//!
//! A backend discovers its [`FrequencyTable`] once, at attach time, and then
//! exposes four operations: read the current state, set an exact state,
//! impose a frequency cap, and lift it. All failures are typed
//! [`PlatformError`] variants — a backend never panics on platform
//! misbehavior. Two backends attached to the same table must be
//! observationally identical under this contract; the
//! `backend_conformance` integration test runs one battery against both
//! implementations and asserts exactly that.
//!
//! * **State semantics** — [`DvfsBackend::current_state`] reports the
//!   *programmed* state: the last requested state clamped by the cap. For
//!   the sysfs backend that is what the control files say right now, so the
//!   read round-trips through the kernel's files and detects foreign writes
//!   ([`PlatformError::StateDrift`]). The instantaneous hardware frequency
//!   (`scaling_cur_freq`) bounces with load and is exposed separately by the
//!   sysfs backend as an observation, not a state.
//! * **Cap semantics** — a cap bounds the state from above without
//!   forgetting the requested state: cap to the lowest frequency, lift the
//!   cap, and the platform returns to whatever was requested before. A cap
//!   equal to the table's highest frequency is no cap at all.
//! * **Foreign states are rejected** — states carry the identity of the
//!   table that produced them; passing a state from another table returns
//!   [`PlatformError::StateNotInTable`] without touching the platform.
//!
//! # Testing story
//!
//! The sysfs backend takes its root directory as a parameter, so the test
//! suite points it at a fake `cpufreq` tree built in a temp directory (see
//! `crates/platform/tests/common/`) and exercises the full battery plus
//! fault injection — missing files, unwritable files, garbage tables,
//! per-CPU mismatches, states changed behind our back — without ever
//! needing root or real hardware. The simulated backend runs the same
//! battery, which is what licenses swapping one for the other under the
//! power-cap experiments.

use crate::error::PlatformError;
use crate::frequency::{DvfsGovernor, FrequencyState, FrequencyTable};

#[cfg(target_os = "linux")]
mod sysfs;

#[cfg(target_os = "linux")]
pub use sysfs::SysfsCpufreqBackend;

/// A cap at or above the table's highest frequency is no cap at all.
/// Single-sourced so every backend normalizes identically.
pub(crate) fn normalize_cap(table: &FrequencyTable, cap: FrequencyState) -> Option<FrequencyState> {
    if cap.khz() >= table.max_khz() {
        None
    } else {
        Some(cap)
    }
}

/// The programmed state the trait contract requires: the requested state
/// clamped by the cap. Single-sourced so every backend clamps identically.
pub(crate) fn effective_state(
    requested: FrequencyState,
    cap: Option<FrequencyState>,
) -> FrequencyState {
    match cap {
        Some(cap) if cap.khz() < requested.khz() => cap,
        _ => requested,
    }
}

/// A pluggable DVFS actuation backend.
///
/// See the [module docs](self) for the behavioral contract all
/// implementations share.
pub trait DvfsBackend {
    /// A short human-readable name for diagnostics ("sim", "sysfs-cpufreq").
    fn name(&self) -> &str;

    /// The frequency table discovered at attach time.
    fn table(&self) -> &FrequencyTable;

    /// The currently programmed state: the last requested state clamped by
    /// the cap.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::StateDrift`] when the platform reports a
    /// frequency outside the table, or an I/O variant when the platform
    /// cannot be read.
    fn current_state(&self) -> Result<FrequencyState, PlatformError>;

    /// Requests the exact state `state`.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::StateNotInTable`] for states from a foreign
    /// table, or an I/O variant when the platform cannot be written.
    fn set_state(&mut self, state: FrequencyState) -> Result<(), PlatformError>;

    /// Imposes a frequency cap: the platform runs at
    /// `min(requested state, cap)` until the cap is lifted. Capping at the
    /// table's highest frequency is equivalent to no cap.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::StateNotInTable`] for states from a foreign
    /// table, or an I/O variant when the platform cannot be written.
    fn set_cap(&mut self, cap: FrequencyState) -> Result<(), PlatformError>;

    /// Lifts the cap; the platform returns to the requested state.
    ///
    /// # Errors
    ///
    /// Returns an I/O variant when the platform cannot be written.
    fn lift_cap(&mut self) -> Result<(), PlatformError>;

    /// The cap currently in force, or `None` when uncapped.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::StateDrift`] when the platform reports a cap
    /// outside the table, or an I/O variant when it cannot be read.
    fn cap(&self) -> Result<Option<FrequencyState>, PlatformError>;

    /// Number of times the programmed state changed through this backend.
    fn transitions(&self) -> u64;
}

/// The simulated DVFS backend: the pre-existing [`DvfsGovernor`] behind the
/// [`DvfsBackend`] seam.
///
/// The governor holds the *effective* (programmed) state and keeps its
/// transition audit trail; the backend adds the requested-versus-cap
/// bookkeeping the trait contract requires. This is the default backend of
/// [`crate::SimMachine`] and the reference implementation the conformance
/// suite measures the sysfs backend against.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimBackend {
    table: FrequencyTable,
    governor: DvfsGovernor,
    requested: FrequencyState,
    cap: Option<FrequencyState>,
}

impl SimBackend {
    /// Creates a backend over the given table, starting uncapped at the
    /// highest frequency.
    pub fn new(table: FrequencyTable) -> Self {
        let requested = table.highest();
        SimBackend {
            governor: DvfsGovernor::starting_at(requested),
            requested,
            cap: None,
            table,
        }
    }

    /// Creates a backend over the paper platform's seven-state table.
    pub fn paper() -> Self {
        SimBackend::new(FrequencyTable::paper())
    }

    /// The effective state, infallibly (the simulator cannot drift).
    pub fn effective_state(&self) -> FrequencyState {
        self.governor.state()
    }

    /// The governor recording the effective state and its transitions.
    pub fn governor(&self) -> &DvfsGovernor {
        &self.governor
    }

    fn apply_effective(&mut self) {
        self.governor
            .set_state(effective_state(self.requested, self.cap));
    }
}

impl Default for SimBackend {
    fn default() -> Self {
        SimBackend::paper()
    }
}

impl DvfsBackend for SimBackend {
    fn name(&self) -> &str {
        "sim"
    }

    fn table(&self) -> &FrequencyTable {
        &self.table
    }

    fn current_state(&self) -> Result<FrequencyState, PlatformError> {
        Ok(self.effective_state())
    }

    fn set_state(&mut self, state: FrequencyState) -> Result<(), PlatformError> {
        self.table.ensure_contains(state)?;
        self.requested = state;
        self.apply_effective();
        Ok(())
    }

    fn set_cap(&mut self, cap: FrequencyState) -> Result<(), PlatformError> {
        self.table.ensure_contains(cap)?;
        self.cap = normalize_cap(&self.table, cap);
        self.apply_effective();
        Ok(())
    }

    fn lift_cap(&mut self) -> Result<(), PlatformError> {
        self.cap = None;
        self.apply_effective();
        Ok(())
    }

    fn cap(&self) -> Result<Option<FrequencyState>, PlatformError> {
        Ok(self.cap)
    }

    fn transitions(&self) -> u64 {
        self.governor.transitions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_backend_round_trips_every_state() {
        let mut backend = SimBackend::paper();
        assert_eq!(backend.name(), "sim");
        assert_eq!(backend.current_state().unwrap(), backend.table().highest());
        let states: Vec<FrequencyState> = backend.table().states().collect();
        for state in states {
            backend.set_state(state).unwrap();
            assert_eq!(backend.current_state().unwrap(), state);
        }
    }

    #[test]
    fn cap_clamps_and_lifting_restores_the_request() {
        let mut backend = SimBackend::paper();
        let table = backend.table().clone();
        backend.set_state(table.highest()).unwrap();
        backend.set_cap(table.lowest()).unwrap();
        assert_eq!(backend.current_state().unwrap(), table.lowest());
        assert_eq!(backend.cap().unwrap(), Some(table.lowest()));
        backend.lift_cap().unwrap();
        assert_eq!(backend.current_state().unwrap(), table.highest());
        assert_eq!(backend.cap().unwrap(), None);
        // A cap above the requested state leaves the state alone.
        backend.set_state(table.lowest()).unwrap();
        backend.set_cap(table.state(3).unwrap()).unwrap();
        assert_eq!(backend.current_state().unwrap(), table.lowest());
        // A cap at the table maximum is no cap.
        backend.set_cap(table.highest()).unwrap();
        assert_eq!(backend.cap().unwrap(), None);
    }

    #[test]
    fn foreign_states_are_rejected_without_effect() {
        let mut backend = SimBackend::paper();
        let foreign = FrequencyTable::new(vec![3_000_000, 1_500_000]).unwrap();
        let before = backend.current_state().unwrap();
        assert_eq!(
            backend.set_state(foreign.highest()),
            Err(PlatformError::StateNotInTable { khz: 3_000_000 })
        );
        assert_eq!(
            backend.set_cap(foreign.lowest()),
            Err(PlatformError::StateNotInTable { khz: 1_500_000 })
        );
        assert_eq!(backend.current_state().unwrap(), before);
        assert_eq!(backend.transitions(), 0);
    }

    #[test]
    fn transitions_count_effective_changes_only() {
        let mut backend = SimBackend::paper();
        let table = backend.table().clone();
        backend.set_state(table.highest()).unwrap(); // no change
        assert_eq!(backend.transitions(), 0);
        backend.set_state(table.lowest()).unwrap();
        backend.set_state(table.lowest()).unwrap(); // idempotent
        assert_eq!(backend.transitions(), 1);
        backend.set_cap(table.lowest()).unwrap(); // already there
        assert_eq!(backend.transitions(), 1);
        backend.set_state(table.highest()).unwrap(); // capped: no effect
        assert_eq!(backend.transitions(), 1);
        backend.lift_cap().unwrap();
        assert_eq!(backend.transitions(), 2);
        assert_eq!(backend.governor().transitions(), 2);
    }
}
