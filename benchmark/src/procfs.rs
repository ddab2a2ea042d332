//! What the benchmark reads about processes and the machine: CPU time and
//! peak RSS of the process hosting the daemon, and the runner fingerprint
//! every result document carries.

use std::process::Command;
use std::sync::OnceLock;

use crate::json::Json;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on, ascending (empty if the call fails).
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread — and every thread or process it creates
/// from now on — to `cpu`. Best effort: a refusal leaves placement to the
/// scheduler, which costs repeatability, not correctness.
pub fn pin_to(cpu: usize) {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a readable buffer of exactly the size passed.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// Where the two busy parties of a workload run: the generator on the
/// first CPU this process is allowed, whatever hosts the daemon's own
/// threads or process on the second. Left to itself the scheduler of a
/// 2-CPU box now and then keeps a forked daemon on its parent's CPU for the
/// better part of a second; the two then alternate in 4 ms slices and every
/// hand-off between them reads 8 ms instead of microseconds. With one CPU
/// there is nothing to choose.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    pub generator: usize,
    pub daemon: usize,
}

impl Placement {
    /// The placement for this process, decided from the CPUs it was allowed
    /// when first asked — before any pinning narrowed that set.
    pub fn get() -> Option<Placement> {
        static PLACEMENT: OnceLock<Option<Placement>> = OnceLock::new();
        *PLACEMENT.get_or_init(|| match allowed_cpus()[..] {
            [generator, daemon, ..] => Some(Placement { generator, daemon }),
            _ => None,
        })
    }
}

/// User+system CPU time process `pid` has consumed so far, in nanoseconds,
/// from the process's CPU-time clock — the nanosecond-resolution source of
/// the `utime + stime` that `/proc/<pid>/stat` only shows in 10 ms ticks,
/// far too coarse for a parked single-app daemon that burns ~10 ms/s.
/// Falls back to those ticks where the clock is refused.
pub fn process_cpu_ns(pid: u32) -> u64 {
    // The kernel's MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED), which is
    // what clock_getcpuclockid(3) returns.
    let clock_id = (!(pid as i32) << 3) | 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the 64-bit Linux
    // layout (two i64 words) for the duration of the call.
    if cfg!(all(target_os = "linux", target_pointer_width = "64"))
        && unsafe { clock_gettime(clock_id, &mut ts) } == 0
    {
        return ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
    }
    stat_cpu_ticks(pid).unwrap_or(0) * 10_000_000
}

/// `utime + stime` of `/proc/<pid>/stat`, in clock ticks (100 Hz).
fn stat_cpu_ticks(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised comm: state is the 1st, utime the
    // 12th, stime the 13th.
    let mut fields = stat[stat.rfind(')')? + 1..].split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// What a process weighs, from `/proc/<pid>/status`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Memory {
    /// `RssAnon + RssShmem`, MiB: the resident memory the process owns —
    /// heap, stacks and mapped segments — without its file-backed text.
    /// This is the `rss_mb` metric: of a forked single-app daemon's 1.3 MiB
    /// peak, 1.1 MiB are pages of the executable and libc that the kernel
    /// maps around each fault as the page cache allows, and they flutter
    /// ±10 % from run to run while the 220 KiB the daemon allocated do not
    /// move by a page.
    pub owned_mib: f64,
    /// `VmHWM`, MiB: the peak resident set, file-backed pages and all.
    pub peak_mib: f64,
}

impl Memory {
    pub fn of(pid: u32) -> Option<Memory> {
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let kib = |field: &str| -> Option<f64> {
            let line = status.lines().find(|line| line.starts_with(field))?;
            line.split_ascii_whitespace().nth(1)?.parse().ok()
        };
        Some(Memory {
            owned_mib: (kib("RssAnon:")? + kib("RssShmem:")?) / 1024.0,
            peak_mib: kib("VmHWM:")? / 1024.0,
        })
    }
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The runner fingerprint: enough to tell whether two result documents
/// were measured on comparable machines and code.
pub fn fingerprint(seed: u64, seconds: f64) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        });
    let text = |value: Option<String>| Json::str(value.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        (
            "nproc",
            Json::Num(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(0) as f64,
            ),
        ),
        ("cpu_model", text(cpu_model)),
        (
            "pinned_cpus",
            Placement::get().map_or(Json::Null, |placement| {
                Json::nums(&[placement.generator as f64, placement.daemon as f64])
            }),
        ),
        (
            "governor",
            text(read_trimmed(
                "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
            )),
        ),
        ("kernel", text(read_trimmed("/proc/sys/kernel/osrelease"))),
        ("rustc", text(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("window_seconds", Json::Num(seconds)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_cpu_clock_advances_and_rss_is_positive() {
        let pid = std::process::id();
        let before = process_cpu_ns(pid);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_ns(pid) > before);
        let memory = Memory::of(pid).unwrap();
        assert!(memory.owned_mib > 0.0 && memory.peak_mib >= memory.owned_mib);
        assert!(stat_cpu_ticks(pid).is_some());
    }
}
