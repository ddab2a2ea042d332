//! The forked daemon of the cross-process workloads.
//!
//! Untraced runs fork the product's own `control::supervisor::Supervisor`
//! serve loop — not a copy. Traced runs fork [`serve_traced`] instead: the
//! benchmark's loop making the *same public calls in the same order*
//! (`poll_accept` → `tick` → `reap_dead` → `respawn_dead` → `IdleLadder`)
//! with one clock read between calls, so every iteration's wall time is
//! attributed to a call. What that costs is reported as
//! `benchmark.trace_overhead_pct`.
//!
//! Either way the child is owned by a guard that SIGKILLs and reaps it and
//! unlinks its files when dropped, panic or early return included.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use powerdial_control::{
    AttachBroker, AttachRequest, BrokerConfig, ControllerConfig, IdleLadder, PowerDialDaemon,
    RuntimeConfig, Supervisor, SupervisorConfig,
};
use powerdial_heartbeats::shm::process::{fork_child, ForkedChild};
use powerdial_knobs::KnobTable;

use crate::spans::{Epoch, Span};
use crate::stream;

/// Everything the benchmark leaves on disk lives here (ignored by git).
pub const OUT_DIR: &str = "benchmark/out";

/// The calls of one serve-loop iteration, in order.
pub const CALLS: [&str; 5] = ["poll_accept", "tick", "reap_dead", "respawn_dead", "idle"];

/// Serve-loop iterations whose spans the traced loop keeps (the newest
/// ones); totals cover every iteration.
const RETAINED_ITERATIONS: usize = 1 << 14;

/// Which serve loop to fork.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// The product's `Supervisor`.
    Product,
    /// The benchmark's span-recording copy of the same call sequence.
    Traced(Epoch),
}

/// One retained serve-loop iteration: the six clock reads that bound its
/// five calls, and what the calls counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Iteration {
    pub id: u64,
    pub t: [u64; 6],
    pub served: u64,
    pub beats: u64,
    pub reaped: u64,
    pub respawned: u64,
}

impl Iteration {
    /// The iteration's five call spans.
    pub fn spans(&self) -> [Span; 5] {
        let counts = [self.served, self.beats, self.reaped, self.respawned, 0];
        std::array::from_fn(|call| Span {
            name: CALLS[call],
            start_ns: self.t[call],
            end_ns: self.t[call + 1],
            parent: self.id,
            count: counts[call],
        })
    }
}

/// What a traced daemon hands back when it is asked to stop.
#[derive(Debug, Default)]
pub struct DaemonTrace {
    /// Iterations run since the loop started.
    pub iterations: u64,
    /// Nanoseconds spent in each of [`CALLS`], over every iteration.
    pub totals_ns: [u64; 5],
    /// Wall time of the loop, first clock read to last.
    pub wall_ns: u64,
    /// The newest iterations, oldest first.
    pub retained: Vec<Iteration>,
}

static NEXT_SOCKET: AtomicU32 = AtomicU32::new(0);

fn supervisor_config(socket_path: PathBuf) -> SupervisorConfig {
    SupervisorConfig {
        socket_path,
        daemon: stream::daemon_config(0, true),
        target_rate: stream::TARGET_RATE_BPS,
        baseline_rate: stream::TARGET_RATE_BPS,
        poll_interval: Duration::ZERO,
        restart_backoff: Duration::ZERO,
        restart_backoff_cap: Duration::ZERO,
    }
}

enum Child {
    Product(Supervisor),
    Traced {
        child: Option<ForkedChild>,
        pid: u32,
        stop: PathBuf,
        out: PathBuf,
    },
}

/// A running forked daemon and the files it owns.
pub struct ForkedDaemon {
    socket: PathBuf,
    child: Child,
}

impl ForkedDaemon {
    /// Forks a daemon serving a socket path unique to this process and
    /// call. The path is relative (the benchmark runs from the repository
    /// root), which keeps it inside the checkout and well under the
    /// 108-byte `sun_path` limit wherever the checkout lives.
    pub fn start(which: Loop) -> ForkedDaemon {
        std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
        let unique = format!(
            "{}-{}",
            std::process::id(),
            NEXT_SOCKET.fetch_add(1, Ordering::Relaxed)
        );
        let socket = Path::new(OUT_DIR).join(format!("pd-{unique}.sock"));
        let _ = std::fs::remove_file(&socket);
        let config = supervisor_config(socket.clone());
        let child = match which {
            Loop::Product => {
                let mut supervisor = Supervisor::new(config, stream::knob_table());
                supervisor.start().expect("fork the supervisor's daemon");
                Child::Product(supervisor)
            }
            Loop::Traced(epoch) => {
                let stop = Path::new(OUT_DIR).join(format!("pd-{unique}.stop"));
                let out = Path::new(OUT_DIR).join(format!("pd-{unique}.spans"));
                let table = stream::knob_table();
                let (child_stop, child_out) = (stop.clone(), out.clone());
                let child = fork_child(move || {
                    serve_traced(&config, &table, epoch, &child_stop, &child_out)
                })
                .expect("fork the traced daemon");
                Child::Traced {
                    pid: child.pid(),
                    child: Some(child),
                    stop,
                    out,
                }
            }
        };
        ForkedDaemon { socket, child }
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    pub fn pid(&self) -> u32 {
        match &self.child {
            Child::Product(supervisor) => supervisor.pid().expect("daemon was started"),
            Child::Traced { pid, .. } => *pid,
        }
    }

    /// True while the daemon process runs (a zombie is not alive).
    pub fn alive(&self) -> bool {
        std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .ok()
            .and_then(|stat| {
                let state = stat[stat.rfind(')')? + 1..]
                    .split_ascii_whitespace()
                    .next()?;
                Some(state != "Z" && state != "X")
            })
            .unwrap_or(false)
    }

    /// Asks a traced daemon to stop, waits for it, and collects its spans.
    /// `None` for the product's supervisor, which records nothing.
    pub fn finish_traced(&mut self) -> Option<DaemonTrace> {
        let Child::Traced {
            child, stop, out, ..
        } = &mut self.child
        else {
            return None;
        };
        std::fs::write(&*stop, b"stop").expect("write the stop file");
        child
            .take()
            .expect("a traced daemon is finished once")
            .wait()
            .expect("reap the traced daemon");
        let text = std::fs::read_to_string(&*out).expect("the traced daemon wrote its spans");
        Some(parse_trace(&text))
    }
}

impl Drop for ForkedDaemon {
    fn drop(&mut self) {
        match &mut self.child {
            // Dropping the supervisor would do the same; explicit so the
            // socket is unlinked only after the child is gone.
            Child::Product(supervisor) => supervisor.shutdown(),
            Child::Traced {
                child, stop, out, ..
            } => {
                if let Some(child) = child.take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                let _ = std::fs::remove_file(&*stop);
                let _ = std::fs::remove_file(&*out);
            }
        }
        // A SIGKILLed broker never unlinks its socket.
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// The traced serve loop (runs in the forked child until the stop file
/// appears). Mirrors `control::supervisor`'s loop call for call; the only
/// additions are the clock reads between calls, the ring store, and a
/// stop-file check every 256 iterations or 5 ms, whichever comes first.
fn serve_traced(
    config: &SupervisorConfig,
    table: &KnobTable,
    epoch: Epoch,
    stop: &Path,
    out: &Path,
) -> i32 {
    let Ok(mut broker) = AttachBroker::bind(BrokerConfig::new(&config.socket_path)) else {
        return 10;
    };
    let Ok(mut daemon) = PowerDialDaemon::new(config.daemon) else {
        return 11;
    };
    let mut ladder = IdleLadder::new();
    let mut ring = vec![Iteration::default(); RETAINED_ITERATIONS];
    let mut totals = [0u64; 5];
    let mut iterations = 0u64;
    let first = epoch.ns();
    let mut last_stop_check = first;
    let mut t0 = first;
    loop {
        let served = broker.poll_accept(daemon.app_count(), |request| {
            let runtime = RuntimeConfig::new(ControllerConfig::new(
                config.target_rate,
                config.baseline_rate,
            )?);
            match request {
                AttachRequest::Fresh(consumer) => {
                    daemon.register_shm(runtime, table.clone(), consumer)
                }
                AttachRequest::Reattach(consumer) => {
                    daemon.register_shm_adopted(runtime, table.clone(), consumer)
                }
            }
        });
        let served = match served {
            Ok(outcome) => outcome.is_some(),
            Err(_) => return 12,
        };
        let t1 = epoch.ns();
        let beats = daemon.tick();
        let t2 = epoch.ns();
        let reaped = daemon.reap_dead().len();
        let t3 = epoch.ns();
        let respawned = daemon.respawn_dead();
        let t4 = epoch.ns();
        if served || beats > 0 {
            ladder.reset();
        } else {
            ladder.idle();
        }
        let t5 = epoch.ns();

        let t = [t0, t1, t2, t3, t4, t5];
        for call in 0..5 {
            totals[call] += t[call + 1] - t[call];
        }
        ring[iterations as usize % RETAINED_ITERATIONS] = Iteration {
            id: iterations,
            t,
            served: u64::from(served),
            beats,
            reaped: reaped as u64,
            respawned: respawned as u64,
        };
        iterations += 1;
        if iterations.is_multiple_of(256) || t5 - last_stop_check > 5_000_000 {
            last_stop_check = t5;
            if stop.exists() {
                return match write_trace(out, iterations, &totals, t5 - first, &ring) {
                    Ok(()) => 0,
                    Err(_) => 13,
                };
            }
        }
        // The bookkeeping above belongs to the next iteration's first span,
        // so the spans tile the loop's wall time with no gaps.
        t0 = t5;
    }
}

fn write_trace(
    out: &Path,
    iterations: u64,
    totals: &[u64; 5],
    wall_ns: u64,
    ring: &[Iteration],
) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(out)?);
    write!(file, "{iterations} {wall_ns}")?;
    for total in totals {
        write!(file, " {total}")?;
    }
    writeln!(file)?;
    let retained = (iterations as usize).min(ring.len());
    for offset in 0..retained {
        let id = iterations as usize - retained + offset;
        let it = &ring[id % ring.len()];
        write!(file, "{}", it.id)?;
        for value in
            it.t.iter()
                .chain([&it.served, &it.beats, &it.reaped, &it.respawned])
        {
            write!(file, " {value}")?;
        }
        writeln!(file)?;
    }
    file.flush()
}

fn parse_trace(text: &str) -> DaemonTrace {
    let numbers = |line: &str| -> Vec<u64> {
        line.split_ascii_whitespace()
            .map(|field| field.parse().expect("the span file holds integers"))
            .collect()
    };
    let mut lines = text.lines();
    let header = numbers(lines.next().expect("the span file has a header"));
    assert_eq!(header.len(), 7, "span file header");
    let mut trace = DaemonTrace {
        iterations: header[0],
        wall_ns: header[1],
        ..DaemonTrace::default()
    };
    trace.totals_ns.copy_from_slice(&header[2..7]);
    for line in lines {
        let row = numbers(line);
        assert_eq!(row.len(), 11, "span file row");
        let mut it = Iteration {
            id: row[0],
            served: row[7],
            beats: row[8],
            reaped: row[9],
            respawned: row[10],
            ..Iteration::default()
        };
        it.t.copy_from_slice(&row[1..7]);
        trace.retained.push(it);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_span_file_round_trips_and_keeps_the_newest_iterations_in_order() {
        // Tests run from the package root, not the repository root.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join(format!("pd-test-{}.spans", std::process::id()));
        let ring_len = 8;
        let mut ring = vec![Iteration::default(); ring_len];
        let iterations = 21u64;
        for id in 0..iterations {
            let base = id * 100;
            ring[id as usize % ring_len] = Iteration {
                id,
                t: [base, base + 10, base + 30, base + 60, base + 61, base + 100],
                served: id % 2,
                beats: id * 20,
                reaped: 0,
                respawned: 0,
            };
        }
        write_trace(&out, iterations, &[1, 2, 3, 4, 5], 2100, &ring).unwrap();
        let trace = parse_trace(&std::fs::read_to_string(&out).unwrap());
        std::fs::remove_file(&out).unwrap();
        assert_eq!(trace.iterations, 21);
        assert_eq!(trace.wall_ns, 2100);
        assert_eq!(trace.totals_ns, [1, 2, 3, 4, 5]);
        let ids: Vec<u64> = trace.retained.iter().map(|it| it.id).collect();
        assert_eq!(ids, (13..21).collect::<Vec<u64>>());
        let spans = trace.retained[0].spans();
        assert_eq!(spans[1].name, "tick");
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (1310, 1330));
        assert_eq!(spans[1].count, 260);
        // The five spans tile the iteration.
        let covered: u64 = spans.iter().map(Span::duration_ns).sum();
        assert_eq!(covered, 100);
    }
}
