//! Daemon-side telemetry: per-application metric reports, fleet-wide
//! rollups, and the JSON snapshot document.
//!
//! The hot-path primitives live in [`powerdial_heartbeats::telemetry`]
//! (an allocation-free [`LatencyHistogram`] and a fixed-capacity
//! [`DecisionTraceRing`](powerdial_heartbeats::DecisionTraceRing)); this
//! module is everything *cold*: walking the shards, merging per-app
//! histograms into exact fleet rollups (bucket-wise add), and rendering
//! the whole thing as a JSON document. Rendering is hand-rolled — the
//! workspace's `serde` is a no-op API stub — and the output is pinned to
//! round-trip through the bench crate's strict JSON parser
//! (`powerdial_bench::json`, in `crates/bench/tests/telemetry_snapshot.rs`).
//!
//! # Snapshot schema
//!
//! [`TelemetrySnapshot::to_json`] renders the snapshot-document shape
//! (`version` / kind marker / report body) with per-app p50/p95/p99/max
//! and fleet-wide merged rollups:
//!
//! ```json
//! {
//!   "version": 1,
//!   "snapshot": "powerdial-telemetry",
//!   "ticks": 240,
//!   "total_beats": 4800,
//!   "apps_registered": 2,
//!   "apps": [
//!     {
//!       "app": 0,
//!       "beats": 2400,
//!       "beat_latency_ns": {
//!         "count": 2280, "min": 31000000, "max": 35651583,
//!         "mean": 33324561.4, "p50": 33554431, "p95": 35651583,
//!         "p99": 35651583
//!       },
//!       "qos_loss_ppm": {
//!         "count": 120, "min": 0, "max": 50175,
//!         "mean": 41812.5, "p50": 50175, "p95": 50175, "p99": 50175
//!       }
//!     }
//!   ],
//!   "fleet": {
//!     "beat_latency_ns": { "count": 4560, "...": "merged rollup" },
//!     "qos_loss_ppm": { "count": 240, "...": "merged rollup" }
//!   },
//!   "incidents": {
//!     "shard_deaths": 0, "shard_respawns": 0,
//!     "apps_migrated": 0, "quarantined_apps": 0
//!   },
//!   "liveness": {
//!     "watched_processes": 1, "polled_apps": 0, "death_events": 0
//!   },
//!   "handoff": {
//!     "hot_ticks": 230, "serial_ticks": 10, "rearms": 1, "collect_parks": 0
//!   },
//!   "decision_trace": [
//!     {
//!       "seq": 0, "timestamp_ns": 50000000, "app": 0, "point_idx": 1,
//!       "reason": "boundary", "gain": 2.0, "achieved_speedup": 2.0,
//!       "qos_loss": 0.05
//!     }
//!   ]
//! }
//! ```
//!
//! Latency histograms are in nanoseconds; QoS-loss histograms store the
//! controller's expected per-quantum QoS loss in **parts per million**
//! (a loss of 0.05 records as 50 000), so the integer-valued histogram
//! keeps four significant digits of a quantity that lives in `[0, 1]`.
//! Quantile fields are bucket upper bounds — within
//! [`LatencyHistogram::RELATIVE_ERROR`] (12.5%) of the true sample —
//! while `count`/`min`/`max` are exact, and fleet rollups are exact
//! bucket-wise merges of the per-app histograms (never averaged
//! percentiles).

use powerdial_heartbeats::telemetry::{DecisionTraceRecord, HistogramSummary, LatencyHistogram};

use crate::daemon::AppId;

/// Scale factor between a QoS-loss fraction and the integer ppm value
/// recorded in the QoS histograms.
pub const QOS_PPM_SCALE: f64 = 1_000_000.0;

/// Schema version of the JSON snapshot document.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Per-application telemetry as collected on a shard: the two hot-path
/// histograms plus the beat count. Owned copies — snapshotting clones
/// shard state off the drain path, so a snapshot never blocks or skews
/// the apps it describes.
#[derive(Debug, Clone)]
pub struct AppTelemetryReport {
    /// The application the report describes.
    pub app: AppId,
    /// Total beats the daemon has processed for this application.
    pub beats: u64,
    /// Per-beat latency distribution, nanoseconds.
    pub beat_latency_ns: LatencyHistogram,
    /// Per-quantum expected QoS loss, parts per million.
    pub qos_loss_ppm: LatencyHistogram,
}

/// Everything one shard hands back for a snapshot: its apps' reports
/// plus its slice of the decision trace.
#[derive(Debug, Clone, Default)]
pub struct ShardTelemetry {
    /// One report per application on the shard.
    pub apps: Vec<AppTelemetryReport>,
    /// The shard's decision-trace ring, oldest → newest.
    pub trace: Vec<DecisionTraceRecord>,
}

impl ShardTelemetry {
    /// True when the shard contributed nothing.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty() && self.trace.is_empty()
    }
}

/// Fault-containment incident counters, embedded in the snapshot's
/// `incidents` section. All lifetime counts except `quarantined_apps`,
/// which is the *current* number of parked-but-not-evicted apps (it
/// drops back as quarantined corpses are reaped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncidentCounts {
    /// Worker-thread deaths observed.
    pub shard_deaths: u64,
    /// Dead workers successfully resurrected.
    pub shard_respawns: u64,
    /// Apps migrated off dead shards.
    pub apps_migrated: u64,
    /// Apps currently quarantined.
    pub quarantined_apps: u64,
}

/// How the reaper is learning of producer deaths, embedded in the
/// snapshot's `liveness` section (see *The reap protocol* in
/// [`crate::daemon`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LivenessCounts {
    /// Distinct producer processes currently watched for exit — one per
    /// process, however many segments it feeds.
    pub watched_processes: u64,
    /// Shm apps whose claim the kernel would not watch, probed by syscall
    /// every reap instead. Non-zero means the daemon is paying the polled
    /// arm's cost for them (fd limit reached, `pidfd_open` filtered).
    pub polled_apps: u64,
    /// Watched-process exits reported so far (lifetime count).
    pub death_events: u64,
}

/// Which thread ran the worker shards' quanta, embedded in the snapshot's
/// `handoff` section (see *Threading model* in [`crate::daemon`]). One
/// count per worker shard per tick; all zero for a daemon without
/// workers. Lifetime counts, kept by the façade.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HandoffCounts {
    /// Quanta a worker thread took while spinning and ran in parallel
    /// with the inline shard: no syscall on either side.
    pub hot_ticks: u64,
    /// Quanta the ticking thread ran itself because the worker thread was
    /// asleep (or still waking): no syscall, no parallelism.
    pub serial_ticks: u64,
    /// Sleeping worker threads woken because beats were flowing: one
    /// futex wake each.
    pub rearms: u64,
    /// Times the ticking thread gave up spinning for a quantum a worker
    /// was still running and parked: one futex wait and wake each.
    pub collect_parks: u64,
}

/// A complete telemetry snapshot of a daemon: per-app reports, exact
/// fleet-wide rollups, and the merged decision trace.
#[derive(Debug, Clone)]
pub struct TelemetrySnapshot {
    /// Ticks (actuation quanta) the daemon has run.
    pub ticks: u64,
    /// Beats processed across all ticks and apps.
    pub total_beats: u64,
    /// Per-application reports, ordered by app id.
    pub apps: Vec<AppTelemetryReport>,
    /// Fleet-wide beat-latency rollup: the bucket-wise merge of every
    /// app's histogram (exact, not an average of percentiles).
    pub fleet_latency_ns: LatencyHistogram,
    /// Fleet-wide QoS-loss rollup (ppm), merged the same way.
    pub fleet_qos_loss_ppm: LatencyHistogram,
    /// Decision trace across all shards, ordered by beat timestamp.
    pub trace: Vec<DecisionTraceRecord>,
    /// Fault-containment incident counters.
    pub incidents: IncidentCounts,
    /// Producer-liveness counters (zeros as assembled by
    /// [`TelemetrySnapshot::from_shards`]; the daemon fills them in).
    pub liveness: LivenessCounts,
    /// Worker hand-off counters (zeros as assembled by
    /// [`TelemetrySnapshot::from_shards`]; the daemon fills them in).
    pub handoff: HandoffCounts,
}

impl TelemetrySnapshot {
    /// Assembles a snapshot from per-shard contributions: sorts apps by
    /// id, merges the fleet rollups, and orders the combined trace by
    /// beat timestamp (sequence numbers only order within one shard).
    pub fn from_shards(
        ticks: u64,
        total_beats: u64,
        shards: Vec<ShardTelemetry>,
        incidents: IncidentCounts,
    ) -> Self {
        let mut apps = Vec::new();
        let mut trace = Vec::new();
        for shard in shards {
            apps.extend(shard.apps);
            trace.extend(shard.trace);
        }
        apps.sort_by_key(|report| report.app);
        trace.sort_by_key(|record| (record.timestamp.as_nanos(), record.app, record.seq));
        let mut fleet_latency_ns = LatencyHistogram::new();
        let mut fleet_qos_loss_ppm = LatencyHistogram::new();
        for report in &apps {
            fleet_latency_ns.merge_from(&report.beat_latency_ns);
            fleet_qos_loss_ppm.merge_from(&report.qos_loss_ppm);
        }
        TelemetrySnapshot {
            ticks,
            total_beats,
            apps,
            fleet_latency_ns,
            fleet_qos_loss_ppm,
            trace,
            incidents,
            liveness: LivenessCounts::default(),
            handoff: HandoffCounts::default(),
        }
    }

    /// Renders the snapshot as the JSON document described in the
    /// [module docs](self). The output parses under a strict JSON
    /// grammar (pinned by the bench crate's parser round-trip test);
    /// non-finite floats — impossible in normal operation — render as
    /// `0` rather than producing invalid JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + self.apps.len() * 512 + self.trace.len() * 160);
        out.push_str("{\n");
        out.push_str(&format!("  \"version\": {SNAPSHOT_VERSION},\n"));
        out.push_str("  \"snapshot\": \"powerdial-telemetry\",\n");
        out.push_str(&format!("  \"ticks\": {},\n", self.ticks));
        out.push_str(&format!("  \"total_beats\": {},\n", self.total_beats));
        out.push_str(&format!("  \"apps_registered\": {},\n", self.apps.len()));
        out.push_str("  \"apps\": [");
        for (index, report) in self.apps.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str("\n    {\n");
            out.push_str(&format!("      \"app\": {},\n", report.app.value()));
            out.push_str(&format!("      \"beats\": {},\n", report.beats));
            write_histogram(
                &mut out,
                "      ",
                "beat_latency_ns",
                &report.beat_latency_ns,
            );
            out.push_str(",\n");
            write_histogram(&mut out, "      ", "qos_loss_ppm", &report.qos_loss_ppm);
            out.push_str("\n    }");
        }
        if self.apps.is_empty() {
            out.push_str("],\n");
        } else {
            out.push_str("\n  ],\n");
        }
        out.push_str("  \"fleet\": {\n");
        write_histogram(&mut out, "    ", "beat_latency_ns", &self.fleet_latency_ns);
        out.push_str(",\n");
        write_histogram(&mut out, "    ", "qos_loss_ppm", &self.fleet_qos_loss_ppm);
        out.push_str("\n  },\n");
        let IncidentCounts {
            shard_deaths,
            shard_respawns,
            apps_migrated,
            quarantined_apps,
        } = self.incidents;
        out.push_str(&format!(
            "  \"incidents\": {{ \"shard_deaths\": {shard_deaths}, \
             \"shard_respawns\": {shard_respawns}, \
             \"apps_migrated\": {apps_migrated}, \
             \"quarantined_apps\": {quarantined_apps} }},\n"
        ));
        let LivenessCounts {
            watched_processes,
            polled_apps,
            death_events,
        } = self.liveness;
        out.push_str(&format!(
            "  \"liveness\": {{ \"watched_processes\": {watched_processes}, \
             \"polled_apps\": {polled_apps}, \
             \"death_events\": {death_events} }},\n"
        ));
        let HandoffCounts {
            hot_ticks,
            serial_ticks,
            rearms,
            collect_parks,
        } = self.handoff;
        out.push_str(&format!(
            "  \"handoff\": {{ \"hot_ticks\": {hot_ticks}, \
             \"serial_ticks\": {serial_ticks}, \
             \"rearms\": {rearms}, \
             \"collect_parks\": {collect_parks} }},\n"
        ));
        out.push_str("  \"decision_trace\": [");
        for (index, record) in self.trace.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            write_trace_record(&mut out, record);
        }
        if self.trace.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n  ]\n");
        }
        out.push('}');
        out
    }
}

/// Writes one histogram summary as `"name": { ... }` (no trailing
/// comma/newline).
fn write_histogram(out: &mut String, indent: &str, name: &str, histogram: &LatencyHistogram) {
    let HistogramSummary {
        count,
        min,
        max,
        mean,
        p50,
        p95,
        p99,
    } = histogram.summary();
    out.push_str(&format!(
        "{indent}\"{name}\": {{ \"count\": {count}, \"min\": {min}, \"max\": {max}, \
         \"mean\": {}, \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99} }}",
        json_f64(mean)
    ));
}

fn write_trace_record(out: &mut String, record: &DecisionTraceRecord) {
    out.push_str(&format!(
        "{{ \"seq\": {}, \"timestamp_ns\": {}, \"app\": {}, \"point_idx\": {}, \
         \"reason\": \"{}\", \"gain\": {}, \"achieved_speedup\": {}, \"qos_loss\": {} }}",
        record.seq,
        record.timestamp.as_nanos(),
        record.app,
        record.point_idx,
        record.reason.as_str(),
        json_f64(record.gain),
        json_f64(record.achieved_speedup),
        json_f64(record.qos_loss),
    ));
}

/// Formats an `f64` as a strict-JSON number. Rust's `Display` for
/// finite floats never emits `inf`/`NaN`/exponents, so the only guard
/// needed is mapping non-finite values (which a snapshot should never
/// contain) to `0`.
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        let rendered = format!("{value}");
        // `Display` omits the fraction for integral floats ("2"), which
        // is still a valid JSON number; keep it.
        rendered
    } else {
        String::from("0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerdial_heartbeats::telemetry::TraceReason;
    use powerdial_heartbeats::Timestamp;

    fn report(app_value: u64, latencies: &[u64], qos_ppm: &[u64]) -> AppTelemetryReport {
        let mut beat_latency_ns = LatencyHistogram::new();
        for &v in latencies {
            beat_latency_ns.record(v);
        }
        let mut qos_loss_ppm = LatencyHistogram::new();
        for &v in qos_ppm {
            qos_loss_ppm.record(v);
        }
        AppTelemetryReport {
            app: AppId::from_raw(app_value),
            beats: latencies.len() as u64,
            beat_latency_ns,
            qos_loss_ppm,
        }
    }

    #[test]
    fn fleet_rollup_is_exact_merge() {
        let shards = vec![
            ShardTelemetry {
                apps: vec![report(1, &[100, 200], &[5])],
                trace: Vec::new(),
            },
            ShardTelemetry {
                apps: vec![report(0, &[300], &[7])],
                trace: Vec::new(),
            },
        ];
        let snapshot = TelemetrySnapshot::from_shards(3, 3, shards, IncidentCounts::default());
        // Sorted by app id.
        assert_eq!(snapshot.apps[0].app.value(), 0);
        assert_eq!(snapshot.apps[1].app.value(), 1);
        let mut expected = LatencyHistogram::new();
        for v in [100u64, 200, 300] {
            expected.record(v);
        }
        assert_eq!(snapshot.fleet_latency_ns, expected);
        assert_eq!(snapshot.fleet_qos_loss_ppm.count(), 2);
    }

    #[test]
    fn trace_is_ordered_by_timestamp_across_shards() {
        let rec = |ts: u64, app: u64| DecisionTraceRecord {
            timestamp: Timestamp::from_nanos(ts),
            app,
            reason: TraceReason::Boundary,
            ..DecisionTraceRecord::default()
        };
        let shards = vec![
            ShardTelemetry {
                apps: Vec::new(),
                trace: vec![rec(50, 1), rec(150, 1)],
            },
            ShardTelemetry {
                apps: Vec::new(),
                trace: vec![rec(100, 0)],
            },
        ];
        let snapshot = TelemetrySnapshot::from_shards(0, 0, shards, IncidentCounts::default());
        let order: Vec<u64> = snapshot
            .trace
            .iter()
            .map(|r| r.timestamp.as_nanos())
            .collect();
        assert_eq!(order, vec![50, 100, 150]);
    }

    #[test]
    fn json_f64_guards_non_finite() {
        assert_eq!(json_f64(2.0), "2");
        assert_eq!(json_f64(0.05), "0.05");
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
    }

    #[test]
    fn empty_snapshot_renders_empty_arrays() {
        let snapshot = TelemetrySnapshot::from_shards(0, 0, Vec::new(), IncidentCounts::default());
        let json = snapshot.to_json();
        assert!(json.contains("\"apps\": []"));
        assert!(json.contains("\"decision_trace\": []"));
        assert!(json.contains("\"version\": 1"));
    }
}
