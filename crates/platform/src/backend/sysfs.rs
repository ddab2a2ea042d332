//! The Linux sysfs/cpufreq backend (compiled on Linux only).
//!
//! Drives the kernel's cpufreq interface the same way the paper drove
//! `cpufrequtils`: through the per-CPU files under
//! `/sys/devices/system/cpu/cpu*/cpufreq/`. The layout consumed:
//!
//! | file | role |
//! |---|---|
//! | `scaling_available_frequencies` | the [`FrequencyTable`], in kHz |
//! | `scaling_governor` | decides the write path (see below) |
//! | `scaling_setspeed` | exact-state writes under the `userspace` governor |
//! | `scaling_max_freq` | frequency caps (and state writes without `userspace`) |
//! | `scaling_cur_freq` | instantaneous hardware frequency (observation only) |
//!
//! **Why writes go through `scaling_max_freq` when the `userspace` governor
//! is unavailable:** only `userspace` accepts exact frequency requests via
//! `scaling_setspeed`; under `ondemand`/`schedutil`/`performance` the kernel
//! chooses the frequency itself and `scaling_setspeed` reads
//! `<unsupported>`. What those governors *do* honor is the policy limit, so
//! the backend expresses "run at state `s`" as "cap the policy at `s`"
//! (`scaling_max_freq = s`): under load the governor then runs exactly at
//! the cap, which is the semantics the power-cap experiment needs. The
//! trade-off — the platform may run *below* `s` when idle — is inherent to
//! capping and is why [`DvfsBackend::current_state`] reports the programmed
//! state from the control files rather than `scaling_cur_freq`. Because the
//! kernel then offers only that one dial, the requested-state/cap split the
//! trait contract requires (`min(requested, cap)`, lift restores the
//! request) is tracked backend-side on this path, and the dial always holds
//! the min — so both write paths pass the same conformance battery with
//! the same observable behavior as `SimBackend`.
//!
//! **The fake-tree testing story:** the sysfs root is a constructor
//! parameter, so tests build a realistic `cpufreq` tree in a temp directory
//! (`crates/platform/tests/common/`) and point the backend at it. Every
//! read and write then round-trips through real files — parsing, I/O errors
//! and all — which is what lets the conformance battery assert the sysfs
//! backend behaves identically to [`super::SimBackend`], and lets the fault
//! suite inject missing files, unwritable files, garbage tables, per-CPU
//! mismatches, and foreign writes, each mapping to a typed
//! [`PlatformError`].
//!
//! Writes fan out to **every** discovered CPU (the paper's platform has two
//! packages). Reads take `cpu0` as authoritative — attach-time validation
//! proves the immutable per-CPU configuration matches
//! ([`PlatformError::FrequencyTableMismatch`] / `GovernorMismatch`
//! otherwise) — and then verify every sibling still agrees, so a control
//! value changed on `cpuN` behind the backend's back surfaces as
//! [`PlatformError::StateDrift`] instead of leaving part of the package
//! silently misprogrammed.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

use super::DvfsBackend;
use crate::error::PlatformError;
use crate::frequency::{FrequencyState, FrequencyTable};

/// The live system's cpufreq root.
pub const SYSTEM_CPUFREQ_ROOT: &str = "/sys/devices/system/cpu";

/// How states are written to the tree (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WritePath {
    /// `scaling_governor` is `userspace`: exact states via
    /// `scaling_setspeed`.
    SetSpeed,
    /// Any other governor: states expressed as caps via `scaling_max_freq`.
    MaxFreqCap,
}

/// A [`DvfsBackend`] over a sysfs/cpufreq tree.
#[derive(Debug, Clone)]
pub struct SysfsCpufreqBackend {
    /// Per-CPU `cpufreq` policy directories, cpu0 first.
    cpufreq_dirs: Vec<PathBuf>,
    table: FrequencyTable,
    write_path: WritePath,
    governor: String,
    /// Cap-write-path bookkeeping: the kernel offers a single dial
    /// (`scaling_max_freq`) there, so the requested-state / cap split the
    /// trait contract requires lives backend-side. Unused under
    /// [`WritePath::SetSpeed`], where both values are read from the files.
    requested: Option<FrequencyState>,
    cap_state: Option<FrequencyState>,
    /// Last observed effective state, for the transition count.
    last_effective: Option<FrequencyState>,
    transitions: u64,
}

fn read_trimmed(path: &Path) -> Result<String, PlatformError> {
    match fs::read_to_string(path) {
        Ok(text) => Ok(text.trim().to_string()),
        Err(e) if e.kind() == ErrorKind::NotFound => Err(PlatformError::MissingSysfsEntry {
            path: path.display().to_string(),
        }),
        Err(e) => Err(PlatformError::SysfsIo {
            path: path.display().to_string(),
            op: "read",
            detail: e.to_string(),
        }),
    }
}

fn read_khz(path: &Path) -> Result<u64, PlatformError> {
    let text = read_trimmed(path)?;
    text.parse::<u64>()
        .map_err(|_| PlatformError::InvalidSysfsValue {
            path: path.display().to_string(),
            value: text,
        })
}

fn write_khz(path: &Path, khz: u64) -> Result<(), PlatformError> {
    match fs::write(path, format!("{khz}\n")) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::NotFound => Err(PlatformError::MissingSysfsEntry {
            path: path.display().to_string(),
        }),
        Err(e) => Err(PlatformError::SysfsIo {
            path: path.display().to_string(),
            op: "write",
            detail: e.to_string(),
        }),
    }
}

impl SysfsCpufreqBackend {
    /// Attaches to the cpufreq tree under `root` (the directory holding the
    /// `cpuN` directories), discovering the CPUs, the frequency table, and
    /// the write path.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::MissingSysfsEntry`] when no `cpu*/cpufreq`
    /// policy exists (or a required control file is absent),
    /// [`PlatformError::InvalidFrequencyTable`] when
    /// `scaling_available_frequencies` is empty or garbage,
    /// [`PlatformError::FrequencyTableMismatch`] when CPUs disagree about
    /// the table, and I/O variants for unreadable files.
    pub fn attach(root: impl AsRef<Path>) -> Result<Self, PlatformError> {
        let root = root.as_ref();
        let mut cpus: Vec<(u64, PathBuf)> = Vec::new();
        let entries = fs::read_dir(root).map_err(|e| {
            if e.kind() == ErrorKind::NotFound {
                PlatformError::MissingSysfsEntry {
                    path: root.display().to_string(),
                }
            } else {
                PlatformError::SysfsIo {
                    path: root.display().to_string(),
                    op: "read",
                    detail: e.to_string(),
                }
            }
        })?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(number) = name
                .to_str()
                .and_then(|n| n.strip_prefix("cpu"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            let cpufreq = entry.path().join("cpufreq");
            if cpufreq.is_dir() {
                cpus.push((number, cpufreq));
            }
        }
        if cpus.is_empty() {
            return Err(PlatformError::MissingSysfsEntry {
                path: root.join("cpu*/cpufreq").display().to_string(),
            });
        }
        cpus.sort_by_key(|(number, _)| *number);

        // cpu0's table is authoritative; every other CPU must agree, or
        // fan-out writes would program half the package.
        let table = FrequencyTable::parse(&read_trimmed(
            &cpus[0].1.join("scaling_available_frequencies"),
        )?)?;
        for (number, dir) in cpus.iter().skip(1) {
            let other =
                FrequencyTable::parse(&read_trimmed(&dir.join("scaling_available_frequencies"))?)?;
            if other != table {
                return Err(PlatformError::FrequencyTableMismatch {
                    cpu: format!("cpu{number}"),
                });
            }
        }

        // Governors are a per-policy setting; the write path is chosen once
        // for the whole package, so every CPU must run the same one (a
        // userspace cpu0 with an ondemand cpu1 would EINVAL half the
        // fan-out writes mid-experiment).
        let governor = read_trimmed(&cpus[0].1.join("scaling_governor"))?;
        for (number, dir) in cpus.iter().skip(1) {
            let other = read_trimmed(&dir.join("scaling_governor"))?;
            if other != governor {
                return Err(PlatformError::GovernorMismatch {
                    cpu: format!("cpu{number}"),
                });
            }
        }
        let write_path = if governor == "userspace" {
            WritePath::SetSpeed
        } else {
            WritePath::MaxFreqCap
        };

        // The control files the chosen write path needs must exist on every
        // CPU; failing at attach beats failing mid-experiment.
        let cpufreq_dirs: Vec<PathBuf> = cpus.into_iter().map(|(_, dir)| dir).collect();
        for dir in &cpufreq_dirs {
            for file in ["scaling_max_freq"]
                .into_iter()
                .chain((write_path == WritePath::SetSpeed).then_some("scaling_setspeed"))
            {
                let path = dir.join(file);
                if !path.is_file() {
                    return Err(PlatformError::MissingSysfsEntry {
                        path: path.display().to_string(),
                    });
                }
            }
        }

        let mut backend = SysfsCpufreqBackend {
            cpufreq_dirs,
            table,
            write_path,
            governor,
            requested: None,
            cap_state: None,
            last_effective: None,
            transitions: 0,
        };
        // Seed the trackers; an initially drifted tree just means the first
        // successful set counts as a transition. On the cap write path the
        // single dial's current value is taken as the requested state
        // (there is no way to tell a pre-existing cap apart).
        backend.last_effective = backend.current_state().ok();
        if backend.write_path == WritePath::MaxFreqCap {
            backend.requested = backend.last_effective;
        }
        Ok(backend)
    }

    /// Attaches to the live system at `/sys/devices/system/cpu`.
    ///
    /// # Errors
    ///
    /// As for [`SysfsCpufreqBackend::attach`].
    pub fn attach_system() -> Result<Self, PlatformError> {
        SysfsCpufreqBackend::attach(SYSTEM_CPUFREQ_ROOT)
    }

    /// The governor the tree was running at attach time.
    pub fn governor_name(&self) -> &str {
        &self.governor
    }

    /// Number of CPUs the backend fans writes out to.
    pub fn cpu_count(&self) -> usize {
        self.cpufreq_dirs.len()
    }

    /// The instantaneous hardware frequency from `scaling_cur_freq`, in kHz.
    /// An observation, not the programmed state: governors move it with
    /// load.
    ///
    /// # Errors
    ///
    /// I/O and parse variants as for any sysfs read.
    pub fn observed_khz(&self) -> Result<u64, PlatformError> {
        read_khz(&self.cpufreq_dirs[0].join("scaling_cur_freq"))
    }

    /// What `scaling_max_freq` must hold on the cap write path: the
    /// requested state clamped by the backend-side cap. Takes the
    /// prospective bookkeeping as arguments so callers can compute the
    /// target *before* writing and commit the bookkeeping only on success.
    fn cap_path_target(
        &self,
        requested: Option<FrequencyState>,
        cap: Option<FrequencyState>,
    ) -> u64 {
        let requested = requested.unwrap_or_else(|| self.table.highest());
        super::effective_state(requested, cap).khz()
    }

    fn write_all_cpus(&self, file: &str, khz: u64) -> Result<(), PlatformError> {
        for dir in &self.cpufreq_dirs {
            write_khz(&dir.join(file), khz)?;
        }
        Ok(())
    }

    /// Requires every CPU past cpu0 to hold `expected` in `file`: writes
    /// fan out to the whole package, so a sibling whose control value
    /// diverged from cpu0's after attach was changed behind the backend's
    /// back. Callers validate cpu0's own value first, so an out-of-table
    /// cpu0 is reported ahead of a divergent sibling.
    fn ensure_siblings_agree(&self, file: &str, expected: u64) -> Result<(), PlatformError> {
        for dir in self.cpufreq_dirs.iter().skip(1) {
            let other = read_khz(&dir.join(file))?;
            if other != expected {
                return Err(PlatformError::StateDrift { khz: other });
            }
        }
        Ok(())
    }

    fn note_effective(&mut self) -> Result<(), PlatformError> {
        let now = self.current_state()?;
        if self.last_effective != Some(now) {
            self.transitions += 1;
        }
        self.last_effective = Some(now);
        Ok(())
    }
}

impl DvfsBackend for SysfsCpufreqBackend {
    fn name(&self) -> &str {
        "sysfs-cpufreq"
    }

    fn table(&self) -> &FrequencyTable {
        &self.table
    }

    fn current_state(&self) -> Result<FrequencyState, PlatformError> {
        let state = match self.write_path {
            WritePath::SetSpeed => {
                let requested = read_khz(&self.cpufreq_dirs[0].join("scaling_setspeed"))?;
                let cap = read_khz(&self.cpufreq_dirs[0].join("scaling_max_freq"))?;
                let effective = requested.min(cap);
                let state = self
                    .table
                    .state_for_khz(effective)
                    .ok_or(PlatformError::StateDrift { khz: effective })?;
                self.ensure_siblings_agree("scaling_setspeed", requested)?;
                self.ensure_siblings_agree("scaling_max_freq", cap)?;
                state
            }
            WritePath::MaxFreqCap => {
                let effective = read_khz(&self.cpufreq_dirs[0].join("scaling_max_freq"))?;
                let state = self
                    .table
                    .state_for_khz(effective)
                    .ok_or(PlatformError::StateDrift { khz: effective })?;
                self.ensure_siblings_agree("scaling_max_freq", effective)?;
                state
            }
        };
        Ok(state)
    }

    fn set_state(&mut self, state: FrequencyState) -> Result<(), PlatformError> {
        self.table.ensure_contains(state)?;
        match self.write_path {
            WritePath::SetSpeed => {
                self.write_all_cpus("scaling_setspeed", state.khz())?;
            }
            WritePath::MaxFreqCap => {
                // Bookkeeping commits only after the fan-out write
                // succeeds; a failed write must not leave the backend
                // believing a state that was never programmed.
                let target = self.cap_path_target(Some(state), self.cap_state);
                self.write_all_cpus("scaling_max_freq", target)?;
                self.requested = Some(state);
            }
        }
        self.note_effective()
    }

    fn set_cap(&mut self, cap: FrequencyState) -> Result<(), PlatformError> {
        self.table.ensure_contains(cap)?;
        match self.write_path {
            WritePath::SetSpeed => {
                self.write_all_cpus("scaling_max_freq", cap.khz())?;
            }
            WritePath::MaxFreqCap => {
                let normalized = super::normalize_cap(&self.table, cap);
                let target = self.cap_path_target(self.requested, normalized);
                self.write_all_cpus("scaling_max_freq", target)?;
                self.cap_state = normalized;
            }
        }
        self.note_effective()
    }

    fn lift_cap(&mut self) -> Result<(), PlatformError> {
        match self.write_path {
            WritePath::SetSpeed => {
                self.write_all_cpus("scaling_max_freq", self.table.max_khz())?;
            }
            WritePath::MaxFreqCap => {
                let target = self.cap_path_target(self.requested, None);
                self.write_all_cpus("scaling_max_freq", target)?;
                self.cap_state = None;
            }
        }
        self.note_effective()
    }

    fn cap(&self) -> Result<Option<FrequencyState>, PlatformError> {
        match self.write_path {
            WritePath::SetSpeed => {
                let khz = read_khz(&self.cpufreq_dirs[0].join("scaling_max_freq"))?;
                let cap = if khz >= self.table.max_khz() {
                    None
                } else {
                    Some(
                        self.table
                            .state_for_khz(khz)
                            .ok_or(PlatformError::StateDrift { khz })?,
                    )
                };
                self.ensure_siblings_agree("scaling_max_freq", khz)?;
                Ok(cap)
            }
            WritePath::MaxFreqCap => {
                // The dial holds min(requested, cap), so the raw cap cannot
                // be read back; but the read still consults the platform —
                // a dial that no longer holds what the backend programmed
                // means something changed the state behind our back, and
                // the bookkeeping can no longer be trusted.
                let khz = read_khz(&self.cpufreq_dirs[0].join("scaling_max_freq"))?;
                if khz != self.cap_path_target(self.requested, self.cap_state) {
                    return Err(PlatformError::StateDrift { khz });
                }
                self.ensure_siblings_agree("scaling_max_freq", khz)?;
                Ok(self.cap_state)
            }
        }
    }

    fn transitions(&self) -> u64 {
        self.transitions
    }
}
