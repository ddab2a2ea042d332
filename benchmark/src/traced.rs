//! The traced run: every per-layer metric of one workload.
//!
//! Four parts share the measured window: a short untraced run (the base
//! for the tracing overhead), the same phases again with spans recorded
//! around every call into a layer, the layer ladder on the workload's fleet
//! size and transport, and the per-call timings. Spans are buffered in
//! memory and written to `benchmark/out/trace-<workload>.json` at the end.

use std::collections::VecDeque;
use std::path::Path;
use std::time::Duration;

use crate::fleet::{ClientSpans, Fleet, Host, NoSpans, Ops, Spec, Transport};
use crate::forked::{DaemonTrace, Loop, CALLS, OUT_DIR};
use crate::json::Json;
use crate::ladder::{Ladder, RUNGS};
use crate::layers;
use crate::measure::{self, Checks, Reactions, Report, Series};
use crate::spans::{overlap_ns, self_time_ns, Epoch, Span};
use crate::stats;

/// How the measured window is divided.
const BASE_REACT: f64 = 0.08;
const BASE_DRAIN: f64 = 0.07;
const TRACED_REACT: f64 = 0.15;
const TRACED_DRAIN: f64 = 0.10;
const TRACED_IDLE: f64 = 0.05;
const LADDER: f64 = 0.30;
const KERNEL_CALLS: f64 = 0.20;
const FLEET_CALLS: f64 = 0.05;

/// Share of the window the wake probes' silences may take in all.
const WAKE_SILENCES: f64 = 0.1;
/// Slices of each react and drain phase.
const SLICES: usize = 8;
/// Client-side spans kept (the newest) of the react and drain phases.
const REACT_SPANS: usize = 1 << 16;
const DRAIN_SPANS: usize = 1 << 12;

/// What the spans of the react phase say about the serve loop.
struct LoopProfile {
    /// Median duration of each of [`CALLS`] per iteration, microseconds.
    call_us: [f64; 5],
    /// Share of iteration wall time covered by call spans.
    coverage_pct: f64,
    /// Share of the probes' reaction intervals spent inside each call.
    react_share_pct: [f64; 5],
    /// Iterations (in process: probes) the call medians are over.
    iterations: u64,
    /// Probes whose reaction interval could be joined with daemon spans.
    joined: u64,
}

/// Profiles a forked daemon's serve loop over the react phase: retained
/// iterations inside `[start, end)`, joined with the probes' reaction
/// intervals by clock overlap.
fn profile_forked(trace: &DaemonTrace, client: &[Span], (start, end): (u64, u64)) -> LoopProfile {
    let iterations: Vec<_> = trace
        .retained
        .iter()
        .filter(|it| it.t[0] >= start && it.t[5] <= end)
        .collect();
    let mut call_us = [0.0; 5];
    let mut covered = 0u64;
    let mut wall = 0u64;
    if !iterations.is_empty() {
        for (call, slot) in call_us.iter_mut().enumerate() {
            let durations: Vec<f64> = iterations
                .iter()
                .map(|it| (it.t[call + 1] - it.t[call]) as f64 / 1e3)
                .collect();
            *slot = stats::median(&durations);
        }
        for it in &iterations {
            let whole = Span {
                name: "iteration",
                start_ns: it.t[0],
                end_ns: it.t[5],
                parent: it.id,
                count: 0,
            };
            wall += whole.duration_ns();
            covered += whole.duration_ns() - self_time_ns(&whole, &it.spans());
        }
    }

    // A probe's reaction interval runs from the start of its `beat` span to
    // the end of its last poll.
    let mut inside = [0u64; 5];
    let mut total = 0u64;
    let mut joined = 0u64;
    let mut cursor = 0;
    let mut probe = None;
    let mut interval = (0, 0);
    let mut flush = |interval: (u64, u64), cursor: &mut usize| {
        if interval.1 <= interval.0 || iterations.is_empty() {
            return;
        }
        while *cursor < iterations.len() && iterations[*cursor].t[5] <= interval.0 {
            *cursor += 1;
        }
        if *cursor == iterations.len() || iterations[*cursor].t[0] > interval.0 {
            // Older than the retained iterations: nothing to join with.
            return;
        }
        total += interval.1 - interval.0;
        joined += 1;
        for it in &iterations[*cursor..] {
            if it.t[0] >= interval.1 {
                break;
            }
            for (call, slot) in inside.iter_mut().enumerate() {
                *slot += overlap_ns(interval, (it.t[call], it.t[call + 1]));
            }
        }
    };
    for span in client
        .iter()
        .filter(|span| span.start_ns >= start && span.end_ns <= end)
    {
        match span.name {
            "beat" => {
                flush(interval, &mut cursor);
                probe = Some(span.parent);
                interval = (span.start_ns, span.end_ns);
            }
            "current_decision" if probe == Some(span.parent) => interval.1 = span.end_ns,
            _ => {}
        }
    }
    flush(interval, &mut cursor);
    LoopProfile {
        call_us,
        coverage_pct: if wall == 0 {
            0.0
        } else {
            covered as f64 / wall as f64 * 100.0
        },
        react_share_pct: inside.map(|ns| {
            if total == 0 {
                0.0
            } else {
                ns as f64 / total as f64 * 100.0
            }
        }),
        iterations: iterations.len() as u64,
        joined,
    }
}

/// Profiles an in-process workload, where the "serve loop" is the
/// generator's own call sequence: the only daemon call inside a reaction
/// interval is `tick`, and coverage is the share of those intervals the
/// `beat` and `tick` spans account for.
fn profile_in_process(client: &[Span], (start, end): (u64, u64)) -> LoopProfile {
    let mut ticks = Vec::new();
    let mut covered = 0u64;
    let mut wall = 0u64;
    let mut beat: Option<Span> = None;
    for span in client
        .iter()
        .filter(|span| span.start_ns >= start && span.end_ns <= end)
    {
        match (span.name, beat) {
            ("beat", _) => beat = Some(*span),
            ("tick", Some(first)) if first.parent == span.parent => {
                ticks.push(span.duration_ns() as f64 / 1e3);
                let whole = Span {
                    name: "probe",
                    start_ns: first.start_ns,
                    end_ns: span.end_ns,
                    ..first
                };
                wall += whole.duration_ns();
                covered += whole.duration_ns() - self_time_ns(&whole, &[first, *span]);
                beat = None;
            }
            _ => {}
        }
    }
    let tick_us = if ticks.is_empty() {
        0.0
    } else {
        stats::median(&ticks)
    };
    let share = if wall == 0 {
        0.0
    } else {
        covered as f64 / wall as f64 * 100.0
    };
    LoopProfile {
        call_us: [0.0, tick_us, 0.0, 0.0, 0.0],
        coverage_pct: share,
        react_share_pct: [0.0, share, 0.0, 0.0, 0.0],
        iterations: ticks.len() as u64,
        joined: ticks.len() as u64,
    }
}

fn overhead_pct(traced: f64, base: f64, higher_is_better: bool) -> f64 {
    let worse = if higher_is_better {
        base - traced
    } else {
        traced - base
    };
    worse / base * 100.0
}

/// Builds a fleet on the traced loop, warms it up, and hands back the sink
/// its client-side spans go to.
fn traced_fleet(spec: Spec, seed: u64, warm: Duration, keep: usize) -> (Fleet, ClientSpans) {
    let mut fleet = Fleet::build(spec, seed, Loop::Traced(Epoch::now()));
    measure::warm_up(&mut fleet, warm);
    let sink = ClientSpans {
        spans: VecDeque::with_capacity(keep),
        limit: keep,
    };
    (fleet, sink)
}

/// Ends a traced fleet: final checks, the daemon's spans, the op counts.
fn finish(mut fleet: Fleet, checks: &mut Checks, ops: &mut Ops) -> Option<DaemonTrace> {
    checks.require(fleet.all_published_and_alive(), || {
        "after a traced phase an app lost its Published decision or the daemon died".into()
    });
    ops.absorb(fleet.ops);
    match &mut fleet.host {
        Host::Forked(daemon) => daemon.finish_traced(),
        Host::InProcess(_) => None,
    }
}

/// The traced run of one workload.
pub fn run(spec: Spec, seed: u64, seconds: f64) -> Report {
    let window = |share: f64| Duration::from_secs_f64(seconds * share);
    let warm = Duration::from_secs_f64((seconds * 0.03).min(0.3));
    let mut checks = Checks::default();
    // Over every fleet of the run.
    let mut ops = Ops::default();

    // The untraced base: the product's own loop, no spans.
    let (base_react, base_drain) = {
        let mut fleet = Fleet::build(spec, seed, Loop::Product);
        measure::warm_up(&mut fleet, warm);
        let mut reactions = Reactions::new();
        reactions.slices(&mut fleet, window(BASE_REACT), SLICES, &mut NoSpans);
        let mut drain = Vec::new();
        measure::drain_slices(
            &mut fleet,
            window(BASE_DRAIN),
            SLICES,
            &mut NoSpans,
            &mut drain,
        );
        ops.absorb(fleet.ops);
        (reactions, Series { samples: drain })
    };

    // Traced, first fleet: drain, then silence, then wake probes. The
    // traced loop keeps its newest iterations, so the phase whose spans are
    // wanted comes last: here the silence and the wakes …
    let (drain, wake_us, iterations_per_s, drain_spans, wake_probes) = {
        let (mut fleet, mut sink) = traced_fleet(spec, seed, warm, DRAIN_SPANS);
        let epoch = fleet.epoch;
        let mut drain = Vec::new();
        measure::drain_slices(
            &mut fleet,
            window(TRACED_DRAIN),
            SLICES,
            &mut sink,
            &mut drain,
        );
        let idle_start = epoch.ns();
        let idle_iterations = measure::idle_block(
            &mut fleet,
            window(TRACED_IDLE),
            1,
            base_react.iteration_estimate(),
            &mut Vec::new(),
        );
        let idle_end = epoch.ns();
        // Each wake probe follows a silence long enough for the serve loop
        // to have parked; as many as the budget for silences allows.
        let silence = measure::time_to_park(base_react.iteration_estimate());
        let wake_probes = ((seconds * WAKE_SILENCES / silence.as_secs_f64()) as usize).clamp(5, 20);
        let wake_us: Vec<f64> = (0..wake_probes)
            .filter_map(|_| fleet.wake_probe(silence, &mut NoSpans))
            .map(|result| result.latency.as_secs_f64() * 1e6)
            .collect();
        // In process the idle loop is the caller's and counted there; across
        // the fork its iterations are read off the daemon's spans. Either
        // way the climb to the parked rung is inside the window.
        let idle_iterations = match finish(fleet, &mut checks, &mut ops) {
            None => idle_iterations,
            Some(trace) => trace
                .retained
                .iter()
                .filter(|it| it.t[0] >= idle_start && it.t[5] <= idle_end)
                .count() as u64,
        };
        (
            Series { samples: drain },
            wake_us,
            idle_iterations as f64 / ((idle_end - idle_start) as f64 / 1e9),
            sink.spans,
            wake_probes,
        )
    };

    // … and on a second fleet, the reaction probes.
    let (react, polls_per_probe, profile, daemon_trace, client) = {
        let (mut fleet, mut sink) = traced_fleet(spec, seed, warm, REACT_SPANS);
        let epoch = fleet.epoch;
        let react_start = epoch.ns();
        let mut reactions = Reactions::new();
        reactions.slices(&mut fleet, window(TRACED_REACT), SLICES, &mut sink);
        let react_window = (react_start, epoch.ns());
        let daemon_trace = finish(fleet, &mut checks, &mut ops);
        let client: Vec<Span> = sink.spans.into_iter().collect();
        let profile = match &daemon_trace {
            Some(trace) => profile_forked(trace, &client, react_window),
            None => profile_in_process(&client, react_window),
        };
        let polls_per_probe = reactions.polls_per_probe();
        (reactions, polls_per_probe, profile, daemon_trace, client)
    };
    let rejected = ops.rejected;
    checks.require(
        !react.slice_medians.is_empty() && !base_react.slice_medians.is_empty(),
        || "no probe saw a reaction".into(),
    );
    checks.require(wake_us.len() == wake_probes, || {
        format!(
            "{} of {wake_probes} wake probes saw no reaction",
            wake_probes - wake_us.len()
        )
    });
    checks.require(rejected == 0, || format!("{rejected} beats rejected"));

    let ladder = Ladder::climb(spec, seed, window(LADDER));
    let mut timings = layers::transport_and_kernel(seed, window(KERNEL_CALLS));
    timings.extend(layers::fleet_calls(spec, window(FLEET_CALLS)));
    timings.extend(layers::broker_attach());

    let quietest = |reactions: &Reactions| {
        let slices = Series {
            samples: reactions.slice_medians.clone(),
        };
        if slices.samples.is_empty() {
            f64::NAN
        } else {
            slices.quietest(false)
        }
    };
    let (react_all, base_react_all) = (react.all(), base_react.all());
    let react_p99_us = stats::tail_percentile(&react_all.samples)
        .filter(|(percentile, _)| *percentile >= 99.0)
        .map_or_else(
            || react_all.samples.iter().copied().fold(0.0, f64::max),
            |(_, value)| value,
        );
    // Quietest slice against quietest slice, as the end-to-end metrics are.
    let overhead_react = overhead_pct(quietest(&react), quietest(&base_react), false);
    let overhead_drain = overhead_pct(drain.quietest(true), base_drain.quietest(true), true);
    let shm = spec.transport != Transport::Heap;

    let ladder_slices = crate::ladder::PASSES as u64;
    let probes = react_all.samples.len() as u64;
    let mut metrics = timings.clone();
    let wake_count = wake_us.len() as u64;
    metrics.extend([
        (
            "heartbeats.channel.rejected",
            if shm { 0.0 } else { rejected as f64 },
            1,
        ),
        (
            "heartbeats.shm.rejected",
            if shm { rejected as f64 } else { 0.0 },
            1,
        ),
        ("ladder.ring_ns_per_beat", ladder.self_ns(1), ladder_slices),
        (
            "ladder.window_ns_per_beat",
            ladder.self_ns(2),
            ladder_slices,
        ),
        (
            "ladder.runtime_ns_per_beat",
            ladder.self_ns(3),
            ladder_slices,
        ),
        (
            "ladder.publish_ns_per_beat",
            ladder.self_ns(4),
            ladder_slices,
        ),
        (
            "ladder.telemetry_ns_per_beat",
            ladder.self_ns(5),
            ladder_slices,
        ),
        (
            "control.daemon.unattributed_ns_per_beat",
            ladder.self_ns(6),
            ladder_slices,
        ),
        (
            "control.daemon.quantum_ns_per_beat",
            ladder.quantum_ns_per_beat(),
            ladder_slices,
        ),
        (
            "control.daemon.tick_ns_per_beat",
            ladder.tick_ns_per_beat(),
            ladder_slices,
        ),
        (
            "control.daemon.telemetry_tax_pct",
            ladder.telemetry_tax_pct(),
            ladder_slices,
        ),
        (
            "benchmark.generator_ns_per_beat",
            ladder.self_ns(0),
            ladder_slices,
        ),
        ("benchmark.trace_overhead_react_pct", overhead_react, probes),
        (
            "benchmark.trace_overhead_drain_pct",
            overhead_drain,
            drain.samples.len() as u64,
        ),
        (
            "benchmark.trace_overhead_pct",
            overhead_react.max(overhead_drain),
            probes,
        ),
        ("client.polls_per_probe", polls_per_probe, probes),
        ("client.react_p99_us", react_p99_us, probes),
        (
            "client.react_in_poll_accept_pct",
            profile.react_share_pct[0],
            profile.joined,
        ),
        (
            "client.react_in_tick_pct",
            profile.react_share_pct[1],
            profile.joined,
        ),
        (
            "client.react_in_reap_dead_pct",
            profile.react_share_pct[2],
            profile.joined,
        ),
        (
            "client.react_in_respawn_dead_pct",
            profile.react_share_pct[3],
            profile.joined,
        ),
        (
            "client.react_in_idle_pct",
            profile.react_share_pct[4],
            profile.joined,
        ),
        (
            "control.supervisor.poll_accept_us",
            profile.call_us[0],
            profile.iterations,
        ),
        (
            "control.supervisor.tick_us",
            profile.call_us[1],
            profile.iterations,
        ),
        (
            "control.supervisor.reap_dead_us",
            profile.call_us[2],
            profile.iterations,
        ),
        (
            "control.supervisor.respawn_dead_us",
            profile.call_us[3],
            profile.iterations,
        ),
        (
            "control.supervisor.idle_us",
            profile.call_us[4],
            profile.iterations,
        ),
        (
            "control.supervisor.span_coverage_pct",
            profile.coverage_pct,
            profile.iterations,
        ),
        ("control.supervisor.iterations_per_s", iterations_per_s, 1),
        (
            "control.supervisor.wake_p50_us",
            if wake_us.is_empty() {
                f64::NAN
            } else {
                stats::median(&wake_us)
            },
            wake_count,
        ),
    ]);

    let trace_path = Path::new(OUT_DIR).join(format!("trace-{}.json", spec.name));
    let drain_spans: Vec<Span> = drain_spans.into_iter().collect();
    write_trace_file(
        &trace_path,
        spec,
        seed,
        &client,
        &drain_spans,
        daemon_trace.as_ref(),
        &ladder,
    );

    let detail = Json::obj([
        ("react_us_traced", react_all.to_json(512)),
        ("react_us_untraced", base_react_all.to_json(512)),
        ("beats_per_s_traced", drain.to_json(usize::MAX)),
        ("beats_per_s_untraced", base_drain.to_json(usize::MAX)),
        ("wake_us", Series { samples: wake_us }.to_json(usize::MAX)),
        (
            "ladder_cumulative_ns_per_beat",
            Json::obj(
                RUNGS
                    .iter()
                    .zip(ladder.cumulative)
                    .map(|(rung, ns)| (*rung, Json::Num(ns))),
            ),
        ),
        (
            "ladder_tick_without_telemetry_ns_per_beat",
            Json::Num(ladder.tick_without_telemetry),
        ),
        (
            "calls",
            Json::obj(
                timings
                    .iter()
                    .map(|(name, _, calls)| (*name, Json::Num(*calls as f64))),
            ),
        ),
        ("trace_file", Json::str(trace_path.to_string_lossy())),
        ("ops", ops.to_json()),
        ("checks", checks.to_json()),
    ]);
    Report {
        metrics,
        attempted: ops.attempted,
        failed: ops.failed(),
        checks,
        detail,
    }
}

/// Writes the span file. From the react phase: the client-side spans
/// (parent = probe id), the daemon's newest iterations expanded to call
/// spans (parent = iteration id) and its totals over *every* iteration.
/// From the drain phase, which ran on a fleet of its own: the newest
/// client-side spans (parent = cycle id). And the ladder.
fn write_trace_file(
    path: &Path,
    spec: Spec,
    seed: u64,
    client: &[Span],
    drain: &[Span],
    daemon: Option<&DaemonTrace>,
    ladder: &Ladder,
) {
    let daemon_json = daemon.map_or(Json::Null, |trace| {
        Json::obj([
            ("iterations", Json::Num(trace.iterations as f64)),
            ("wall_ns", Json::Num(trace.wall_ns as f64)),
            (
                "total_ns_by_call",
                Json::obj(
                    CALLS
                        .iter()
                        .zip(trace.totals_ns)
                        .map(|(call, ns)| (*call, Json::Num(ns as f64))),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    trace
                        .retained
                        .iter()
                        .flat_map(|it| it.spans())
                        .map(Span::to_json)
                        .collect(),
                ),
            ),
        ])
    });
    let document = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(seed as f64)),
        (
            "clock",
            Json::str("ns since one CLOCK_MONOTONIC instant shared across the fork"),
        ),
        (
            "ladder_cumulative_ns_per_beat",
            Json::obj(
                RUNGS
                    .iter()
                    .zip(ladder.cumulative)
                    .map(|(rung, ns)| (*rung, Json::Num(ns))),
            ),
        ),
        ("daemon", daemon_json),
        (
            "client_spans",
            Json::Arr(client.iter().copied().map(Span::to_json).collect()),
        ),
        (
            "drain_phase_client_spans",
            Json::Arr(drain.iter().copied().map(Span::to_json).collect()),
        ),
    ]);
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    std::fs::write(path, document.render()).expect("write the span file");
}
