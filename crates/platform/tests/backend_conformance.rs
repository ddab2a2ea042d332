//! Backend-conformance suite: one parameterized battery run against every
//! `DvfsBackend` implementation, asserting identical observable behavior.
//!
//! The battery walks the full trait contract — enumerate the table, set
//! each state and read it back, re-set idempotently, cap then lift, reject
//! out-of-table states — and records every observation as a line in a log.
//! Two conforming backends over the same table must produce *equal logs*,
//! which is the property that licenses swapping `SimBackend` for
//! `SysfsCpufreqBackend` under the power-cap experiments.

use powerdial_platform::{DvfsBackend, FrequencyTable, PlatformError, SimBackend};

#[cfg(target_os = "linux")]
mod common;

/// Runs the conformance battery, asserting the contract and returning the
/// observation log for cross-backend comparison.
fn conformance_battery(backend: &mut dyn DvfsBackend) -> Vec<String> {
    let mut log = Vec::new();
    let table = backend.table().clone();
    assert!(table.len() >= 2, "battery needs at least two states");
    log.push(format!("table {}", table.format()));

    // Attach state: uncapped, at the highest frequency.
    let initial = backend.current_state().expect("fresh backend must read");
    assert_eq!(initial, table.highest());
    assert_eq!(backend.cap().expect("fresh backend cap must read"), None);
    log.push(format!(
        "initial {} transitions {}",
        initial.khz(),
        backend.transitions()
    ));

    // Enumerate → set each state → read back, then idempotent re-set.
    for state in table.states() {
        backend.set_state(state).expect("in-table set must succeed");
        let read = backend.current_state().expect("read-back must succeed");
        assert_eq!(read, state, "read-back must return the state just set");
        log.push(format!(
            "set {} read {} transitions {}",
            state.khz(),
            read.khz(),
            backend.transitions()
        ));

        let before = backend.transitions();
        backend.set_state(state).expect("re-set must succeed");
        assert_eq!(backend.current_state().unwrap(), state);
        assert_eq!(
            backend.transitions(),
            before,
            "idempotent re-set must not count a transition"
        );
        log.push(format!(
            "reset {} transitions {}",
            state.khz(),
            backend.transitions()
        ));
    }

    // Cap then lift: the cap clamps without forgetting the request.
    backend.set_state(table.highest()).expect("set highest");
    backend.set_cap(table.lowest()).expect("cap to lowest");
    assert_eq!(backend.current_state().unwrap(), table.lowest());
    assert_eq!(backend.cap().unwrap(), Some(table.lowest()));
    log.push(format!(
        "capped {} cap {} transitions {}",
        backend.current_state().unwrap().khz(),
        table.lowest().khz(),
        backend.transitions()
    ));

    // Requests made while capped take effect once the cap lifts.
    backend
        .set_state(table.highest())
        .expect("request under cap");
    assert_eq!(backend.current_state().unwrap(), table.lowest());
    backend.lift_cap().expect("lift cap");
    assert_eq!(backend.current_state().unwrap(), table.highest());
    assert_eq!(backend.cap().unwrap(), None);
    log.push(format!(
        "lifted {} transitions {}",
        backend.current_state().unwrap().khz(),
        backend.transitions()
    ));

    // A cap above the current request leaves the state alone; a cap at the
    // table maximum is no cap at all.
    backend.set_state(table.lowest()).expect("set lowest");
    backend
        .set_cap(table.state(1).unwrap())
        .expect("cap above request");
    assert_eq!(backend.current_state().unwrap(), table.lowest());
    backend.set_cap(table.highest()).expect("cap at max");
    assert_eq!(backend.cap().unwrap(), None);
    log.push(format!(
        "slack-cap {} transitions {}",
        backend.current_state().unwrap().khz(),
        backend.transitions()
    ));

    // Out-of-table states are rejected with a typed error and no effect —
    // same kHz as a table entry but from a foreign ladder also counts.
    let foreign = FrequencyTable::new(vec![table.max_khz() * 2, table.max_khz()]).unwrap();
    let before = backend.current_state().unwrap();
    let transitions_before = backend.transitions();
    for bad in [foreign.highest(), foreign.lowest()] {
        let err = backend
            .set_state(bad)
            .expect_err("foreign state must be rejected");
        assert_eq!(err, PlatformError::StateNotInTable { khz: bad.khz() });
        let err = backend
            .set_cap(bad)
            .expect_err("foreign cap must be rejected");
        assert_eq!(err, PlatformError::StateNotInTable { khz: bad.khz() });
        log.push(format!("rejected {}", bad.khz()));
    }
    assert_eq!(backend.current_state().unwrap(), before);
    assert_eq!(backend.transitions(), transitions_before);
    log.push(format!(
        "final {} transitions {}",
        before.khz(),
        backend.transitions()
    ));

    log
}

#[test]
fn sim_backend_passes_the_battery() {
    let mut backend = SimBackend::paper();
    let log = conformance_battery(&mut backend);
    assert!(log.len() > 7 * 2 + 4);
}

#[test]
fn sim_backend_passes_the_battery_on_a_custom_table() {
    let table = FrequencyTable::new(vec![3_000_000, 2_500_000, 1_200_000]).unwrap();
    let mut backend = SimBackend::new(table);
    conformance_battery(&mut backend);
}

#[cfg(target_os = "linux")]
mod sysfs {
    use super::*;
    use crate::common::FakeCpufreqTree;
    use powerdial_platform::SysfsCpufreqBackend;

    #[test]
    fn sysfs_backend_passes_the_battery() {
        let tree = FakeCpufreqTree::builder().build();
        let mut backend = SysfsCpufreqBackend::attach(tree.root()).unwrap();
        assert_eq!(backend.name(), "sysfs-cpufreq");
        assert_eq!(backend.cpu_count(), 2);
        assert_eq!(backend.governor_name(), "userspace");
        conformance_battery(&mut backend);
    }

    #[test]
    fn sysfs_and_sim_backends_behave_identically() {
        // The headline property: the same battery on the same table yields
        // the same observation log, state for state, transition count for
        // transition count.
        let tree = FakeCpufreqTree::builder().build();
        let mut sysfs = SysfsCpufreqBackend::attach(tree.root()).unwrap();
        let mut sim = SimBackend::paper();
        assert_eq!(sysfs.table(), sim.table());

        let sysfs_log = conformance_battery(&mut sysfs);
        let sim_log = conformance_battery(&mut sim);
        assert_eq!(sysfs_log, sim_log);
    }

    #[test]
    fn sysfs_and_sim_backends_agree_on_a_custom_table() {
        let khz = [3_600_000u64, 2_800_000, 2_000_000, 800_000];
        let tree = FakeCpufreqTree::builder()
            .cpus(4)
            .frequencies_khz(&khz)
            .build();
        let mut sysfs = SysfsCpufreqBackend::attach(tree.root()).unwrap();
        let mut sim = SimBackend::new(FrequencyTable::new(khz.to_vec()).unwrap());
        assert_eq!(sysfs.table(), sim.table());
        assert_eq!(
            conformance_battery(&mut sysfs),
            conformance_battery(&mut sim)
        );
    }

    #[test]
    fn cap_write_path_behaves_identically_too() {
        // Without the userspace governor the backend expresses states as
        // policy caps through scaling_max_freq, with the requested/cap
        // split tracked backend-side — same battery, same observation log
        // as the simulator.
        let tree = FakeCpufreqTree::builder()
            .governor("ondemand")
            .without_setspeed()
            .build();
        let mut sysfs = SysfsCpufreqBackend::attach(tree.root()).unwrap();
        assert_eq!(sysfs.governor_name(), "ondemand");
        let mut sim = SimBackend::paper();
        assert_eq!(sysfs.table(), sim.table());
        assert_eq!(
            conformance_battery(&mut sysfs),
            conformance_battery(&mut sim)
        );
    }

    #[test]
    fn battery_writes_fan_out_to_every_cpu() {
        let tree = FakeCpufreqTree::builder().cpus(3).build();
        let mut backend = SysfsCpufreqBackend::attach(tree.root()).unwrap();
        conformance_battery(&mut backend);
        for cpu in 0..3 {
            assert_eq!(
                tree.read(cpu, "scaling_setspeed"),
                tree.read(0, "scaling_setspeed")
            );
            assert_eq!(
                tree.read(cpu, "scaling_max_freq"),
                tree.read(0, "scaling_max_freq")
            );
        }
    }
}
