//! Fault injection for the sysfs/cpufreq backend: every way the platform
//! can misbehave maps to a typed `PlatformError`, never a panic.
//!
//! Each case corrupts the fake tree (see `common/`) in one specific way —
//! missing control files, unwritable files, garbage or empty frequency
//! tables, CPUs disagreeing about the table, values changed behind the
//! backend's back — and asserts the exact error variant that surfaces.

#![cfg(target_os = "linux")]

mod common;

use common::FakeCpufreqTree;
use powerdial_platform::{DvfsBackend, PlatformError, SysfsCpufreqBackend, DVFS_FREQUENCIES_KHZ};

#[test]
fn attach_requires_a_cpufreq_policy() {
    // A root with no cpu*/cpufreq at all (the distractor dirs the builder
    // creates are not policies).
    let tree = FakeCpufreqTree::builder().cpus(0).build();
    let err = SysfsCpufreqBackend::attach(tree.root()).unwrap_err();
    assert!(
        matches!(err, PlatformError::MissingSysfsEntry { ref path } if path.contains("cpufreq")),
        "{err:?}"
    );

    // A root that does not exist.
    let err = SysfsCpufreqBackend::attach("/nonexistent/powerdial-no-such-root").unwrap_err();
    assert!(
        matches!(err, PlatformError::MissingSysfsEntry { .. }),
        "{err:?}"
    );
}

#[test]
fn missing_setspeed_under_userspace_governor_is_typed() {
    let tree = FakeCpufreqTree::builder().build();
    tree.remove(1, "scaling_setspeed");
    let err = SysfsCpufreqBackend::attach(tree.root()).unwrap_err();
    assert!(
        matches!(err, PlatformError::MissingSysfsEntry { ref path }
            if path.contains("cpu1") && path.contains("scaling_setspeed")),
        "{err:?}"
    );
}

#[test]
fn kernels_without_userspace_governor_fall_back_to_max_freq_writes() {
    // No scaling_setspeed anywhere and an ondemand governor: the backend
    // attaches in cap-write mode and states go through scaling_max_freq.
    let tree = FakeCpufreqTree::builder()
        .governor("ondemand")
        .without_setspeed()
        .build();
    let mut backend = SysfsCpufreqBackend::attach(tree.root()).unwrap();
    assert_eq!(backend.governor_name(), "ondemand");
    let low = backend.table().lowest();
    backend.set_state(low).unwrap();
    assert_eq!(backend.current_state().unwrap(), low);
    assert_eq!(tree.read(0, "scaling_max_freq"), low.khz().to_string());
    assert_eq!(tree.read(1, "scaling_max_freq"), low.khz().to_string());
}

#[test]
fn per_cpu_governor_mismatch_is_typed() {
    // Governors are per-policy; one write path cannot serve a package
    // where cpu0 runs userspace and cpu1 runs ondemand (setspeed writes to
    // cpu1 would EINVAL mid-experiment), so attach refuses up front.
    let tree = FakeCpufreqTree::builder().build();
    tree.write(1, "scaling_governor", "ondemand\n");
    let err = SysfsCpufreqBackend::attach(tree.root()).unwrap_err();
    assert_eq!(err, PlatformError::GovernorMismatch { cpu: "cpu1".into() });
}

#[test]
fn missing_available_frequencies_is_typed() {
    let tree = FakeCpufreqTree::builder().build();
    tree.remove(0, "scaling_available_frequencies");
    let err = SysfsCpufreqBackend::attach(tree.root()).unwrap_err();
    assert!(
        matches!(err, PlatformError::MissingSysfsEntry { ref path }
            if path.contains("scaling_available_frequencies")),
        "{err:?}"
    );
}

#[test]
fn garbage_and_empty_frequency_tables_are_typed() {
    for contents in [
        "",
        "   \n",
        "2400000 garbage 1600000\n",
        "0 2400000\n",
        "1.6GHz 2.4GHz\n",
    ] {
        let tree = FakeCpufreqTree::builder().build();
        tree.write(0, "scaling_available_frequencies", contents);
        let err = SysfsCpufreqBackend::attach(tree.root()).unwrap_err();
        assert!(
            matches!(err, PlatformError::InvalidFrequencyTable { .. }),
            "contents {contents:?} gave {err:?}"
        );
    }
}

#[test]
fn per_cpu_table_mismatch_is_typed() {
    let tree = FakeCpufreqTree::builder().cpus(3).build();
    tree.write(2, "scaling_available_frequencies", "2400000 1600000\n");
    let err = SysfsCpufreqBackend::attach(tree.root()).unwrap_err();
    assert_eq!(
        err,
        PlatformError::FrequencyTableMismatch { cpu: "cpu2".into() }
    );
}

#[test]
fn state_changed_behind_our_back_is_typed_drift() {
    let tree = FakeCpufreqTree::builder().build();
    let backend = SysfsCpufreqBackend::attach(tree.root()).unwrap();

    // Another process programs a frequency the table does not list.
    tree.write(0, "scaling_setspeed", "1700000\n");
    assert_eq!(
        backend.current_state().unwrap_err(),
        PlatformError::StateDrift { khz: 1_700_000 }
    );

    // A drifted cap clamps the effective state to an out-of-table value too.
    tree.write(0, "scaling_setspeed", "2400000\n");
    tree.write(0, "scaling_max_freq", "1700000\n");
    assert_eq!(
        backend.current_state().unwrap_err(),
        PlatformError::StateDrift { khz: 1_700_000 }
    );
    assert_eq!(
        backend.cap().unwrap_err(),
        PlatformError::StateDrift { khz: 1_700_000 }
    );
}

#[test]
fn sibling_cpu_divergence_is_typed_drift() {
    // Writes fan out to the whole package, so a sibling CPU whose control
    // file no longer matches cpu0's was changed behind the backend's back —
    // even when its value is a perfectly valid table frequency.
    let tree = FakeCpufreqTree::builder().cpus(3).build();
    let backend = SysfsCpufreqBackend::attach(tree.root()).unwrap();
    assert_eq!(backend.current_state().unwrap(), backend.table().highest());

    tree.write(2, "scaling_setspeed", "1600000\n");
    assert_eq!(
        backend.current_state().unwrap_err(),
        PlatformError::StateDrift { khz: 1_600_000 }
    );

    tree.write(2, "scaling_setspeed", "2400000\n");
    tree.write(1, "scaling_max_freq", "1730000\n");
    assert_eq!(
        backend.current_state().unwrap_err(),
        PlatformError::StateDrift { khz: 1_730_000 }
    );
    assert_eq!(
        backend.cap().unwrap_err(),
        PlatformError::StateDrift { khz: 1_730_000 }
    );
}

#[test]
fn cap_path_drift_is_detected_on_cap_reads() {
    // On the cap write path the dial holds min(requested, cap); a dial
    // that no longer matches what the backend programmed is drift, even
    // when the foreign value is an in-table frequency.
    let tree = FakeCpufreqTree::builder()
        .governor("ondemand")
        .without_setspeed()
        .build();
    let backend = SysfsCpufreqBackend::attach(tree.root()).unwrap();
    assert_eq!(backend.cap().unwrap(), None);

    tree.write(0, "scaling_max_freq", "1700000\n");
    assert_eq!(
        backend.cap().unwrap_err(),
        PlatformError::StateDrift { khz: 1_700_000 }
    );

    // A coherent foreign cap (both CPUs moved to an in-table value): cap()
    // still reports drift because the dial no longer matches what the
    // backend programmed...
    tree.write(0, "scaling_max_freq", "1600000\n");
    tree.write(1, "scaling_max_freq", "1600000\n");
    assert_eq!(
        backend.cap().unwrap_err(),
        PlatformError::StateDrift { khz: 1_600_000 }
    );
    // ...while current_state keeps reporting the file truth, which IS an
    // in-table state here; only the cap attribution is unknowable.
    assert_eq!(backend.current_state().unwrap(), backend.table().lowest());
}

#[test]
fn non_numeric_control_values_are_typed() {
    // The kernel reports "<unsupported>" from scaling_setspeed when the
    // governor changes under us.
    let tree = FakeCpufreqTree::builder().build();
    let backend = SysfsCpufreqBackend::attach(tree.root()).unwrap();
    tree.write(0, "scaling_setspeed", "<unsupported>\n");
    let err = backend.current_state().unwrap_err();
    assert!(
        matches!(err, PlatformError::InvalidSysfsValue { ref value, .. }
            if value == "<unsupported>"),
        "{err:?}"
    );
}

#[test]
fn unwritable_control_file_is_a_typed_io_error() {
    // Deterministic variant: a directory where the file should be makes any
    // write fail with a real I/O error regardless of euid.
    let tree = FakeCpufreqTree::builder().build();
    let mut backend = SysfsCpufreqBackend::attach(tree.root()).unwrap();
    tree.replace_with_directory(1, "scaling_setspeed");
    let err = backend.set_state(backend.table().lowest()).unwrap_err();
    assert!(
        matches!(err, PlatformError::SysfsIo { op: "write", ref path, .. }
            if path.contains("cpu1")),
        "{err:?}"
    );
}

#[test]
fn eacces_on_write_is_a_typed_io_error() {
    // Permission-bit variant. Root bypasses permission checks, so the
    // fixture probes first; under root the strict assertion is skipped and
    // the call must simply succeed (never panic).
    let tree = FakeCpufreqTree::builder().build();
    let mut backend = SysfsCpufreqBackend::attach(tree.root()).unwrap();
    let enforced = tree.make_readonly(0, "scaling_setspeed");
    let result = backend.set_state(backend.table().lowest());
    if enforced {
        let err = result.unwrap_err();
        assert!(
            matches!(err, PlatformError::SysfsIo { op: "write", .. }),
            "{err:?}"
        );
    } else {
        result.unwrap();
    }
}

#[test]
fn failed_cap_path_writes_do_not_poison_bookkeeping() {
    // On the cap write path the requested/cap split lives backend-side; a
    // fan-out write that fails partway must not leave the backend believing
    // a state that was never fully programmed.
    let tree = FakeCpufreqTree::builder()
        .governor("ondemand")
        .without_setspeed()
        .build();
    let mut backend = SysfsCpufreqBackend::attach(tree.root()).unwrap();
    let low = backend.table().lowest();
    let mid = backend.table().state(3).unwrap();

    tree.replace_with_directory(1, "scaling_max_freq");
    assert!(matches!(
        backend.set_state(low).unwrap_err(),
        PlatformError::SysfsIo { op: "write", .. }
    ));

    // Repair cpu1 and impose a cap: the target must derive from the last
    // *successful* request (the attach-time highest state), not the failed
    // `low` request — min(highest, mid) = mid.
    std::fs::remove_dir(tree.file(1, "scaling_max_freq")).unwrap();
    tree.write(1, "scaling_max_freq", "2400000\n");
    backend.set_cap(mid).unwrap();
    assert_eq!(backend.current_state().unwrap(), mid);
    assert_eq!(backend.cap().unwrap(), Some(mid));
    assert_eq!(tree.read(1, "scaling_max_freq"), mid.khz().to_string());
}

#[test]
fn mid_run_faults_never_lose_the_attach_time_table() {
    // After any runtime fault the backend still reports the table it
    // discovered at attach; recovery (rewriting sane values) restores
    // normal operation.
    let tree = FakeCpufreqTree::builder().build();
    let mut backend = SysfsCpufreqBackend::attach(tree.root()).unwrap();
    tree.write(0, "scaling_setspeed", "1700000\n");
    assert!(backend.current_state().is_err());
    assert_eq!(backend.table().khz(), &DVFS_FREQUENCIES_KHZ);

    let low = backend.table().lowest();
    backend.set_state(low).unwrap();
    assert_eq!(backend.current_state().unwrap(), low);
    assert_eq!(backend.observed_khz().unwrap(), DVFS_FREQUENCIES_KHZ[0]);
}
