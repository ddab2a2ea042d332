//! Metric definitions (read from the `BENCHMARK.json` compiled into the
//! binary, so names, units and bounds live in one place), the result line
//! and documents, and the comparison of two result documents.

use std::path::{Path, PathBuf};

use crate::forked::OUT_DIR;
use crate::json::{self, Json};
use crate::measure::Report;
use crate::procfs;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
pub struct Registry {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Registry {
    pub fn embedded() -> Registry {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let text = |value: &Json, key: &str| {
            value
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
                .to_string()
        };
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: missing {key}"))
        };
        let metrics = |key: &str| -> Vec<MetricDef> {
            list(key)
                .iter()
                .map(|metric| MetricDef {
                    name: text(metric, "name"),
                    unit: text(metric, "unit"),
                    higher_is_better: text(metric, "better") == "higher",
                    bound: metric.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Registry {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    pub fn metrics(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn direction(def: &MetricDef) -> &'static str {
    if def.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// Prints one run: a line per metric (name, value, unit, direction, sample
/// count), the checks, and — as
/// the last line of standard output — the result object of the driver
/// contract. Also writes the run's full document and returns its path.
///
/// # Panics
///
/// Panics when the run's metrics are not exactly the ones `BENCHMARK.json`
/// declares for this kind of run: the two would have drifted apart.
pub fn emit(
    registry: &Registry,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &Report,
) -> PathBuf {
    let defs = registry.metrics(trace);
    for (name, _, _) in &report.metrics {
        assert!(
            defs.iter().any(|def| def.name == *name),
            "metric {name} is not declared in BENCHMARK.json"
        );
    }
    let correct = report.checks.failures.is_empty();
    println!(
        "# {workload}  seed {seed}  window {seconds} s  {}",
        if trace {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        }
    );
    let mut metrics = Vec::new();
    let mut documented = Vec::new();
    for def in defs {
        let (_, value, samples) = *report
            .metrics
            .iter()
            .find(|(name, _, _)| *name == def.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
        println!(
            "{:<44} {:>16.4} {:<6} {:<7} n={samples}",
            def.name,
            value,
            def.unit,
            direction(def),
        );
        metrics.push((
            def.name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(&def.unit))]),
        ));
        documented.push((
            def.name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(&def.unit)),
                ("better", Json::str(direction(def))),
                ("bound", def.bound.map_or(Json::Null, Json::Num)),
            ]),
        ));
    }
    for sum in &report.checks.decision_checksums {
        println!("decision_checksum {sum:016x}");
    }
    for failure in &report.checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    println!(
        "ops_attempted {}  ops_failed {}  correct {correct}",
        report.attempted, report.failed
    );

    let path = Path::new(OUT_DIR).join(format!("detail-{workload}-trace{}.json", u8::from(trace)));
    let document = Json::obj([
        ("workload", Json::str(workload)),
        ("trace", Json::Bool(trace)),
        ("fingerprint", procfs::fingerprint(seed, seconds)),
        ("correct", Json::Bool(correct)),
        ("ops_attempted", Json::Num(report.attempted as f64)),
        ("ops_failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(documented)),
        ("detail", report.detail.clone()),
    ]);
    std::fs::create_dir_all(OUT_DIR).expect("create benchmark/out");
    std::fs::write(&path, document.render()).expect("write the run's document");

    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    path
}

/// One row of a comparison.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub first: f64,
    pub second: f64,
    pub bound: f64,
    /// By what share of `first` the second value is *worse* (negative when
    /// it is better).
    pub worse_by: f64,
}

fn worse_by(def: &MetricDef, first: f64, second: f64) -> f64 {
    if def.higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

/// Every (workload, end-to-end metric) pair of two set documents.
pub fn rows(registry: &Registry, first: &Json, second: &Json) -> Result<Vec<Row>, String> {
    let value = |set: &Json, workload: &str, metric: &str| -> Result<f64, String> {
        set.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("metrics"))
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{workload}/{metric} missing from a result document"))
    };
    let mut rows = Vec::new();
    for workload in &registry.workloads {
        for def in &registry.end_to_end {
            let (a, b) = (
                value(first, workload, &def.name)?,
                value(second, workload, &def.name)?,
            );
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.clone(),
                first: a,
                second: b,
                bound: def.bound.expect("end-to-end metrics carry a bound"),
                worse_by: worse_by(def, a, b),
            });
        }
    }
    Ok(rows)
}

/// Prints the rows; returns how many fail. With `symmetric` the two values
/// must agree within the bound whichever is called the baseline (the
/// repeatability self-test); otherwise only the second being worse than the
/// first counts (parent versus change).
pub fn print_rows(rows: &[Row], symmetric: bool) -> usize {
    println!(
        "{:<16} {:<20} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    let mut failures = 0;
    for row in rows {
        // The same gap seen from the other side: second as the baseline.
        let reverse = -row.worse_by * row.first / row.second;
        let fails = row.worse_by > row.bound || (symmetric && reverse > row.bound);
        failures += usize::from(fails);
        let verdict = if fails {
            if symmetric {
                "DISAGREE"
            } else {
                "REGRESSED"
            }
        } else if !symmetric && row.worse_by < -row.bound {
            "improved"
        } else {
            "ok"
        };
        println!(
            "{:<16} {:<20} {:>16.4} {:>16.4} {:>8.2}% {:>6.0}%  {verdict}",
            row.workload,
            row.metric,
            row.first,
            row.second,
            row.worse_by * 100.0,
            row.bound * 100.0,
        );
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::WORKLOADS;

    #[test]
    fn benchmark_json_and_the_code_name_the_same_workloads_and_metrics() {
        let registry = Registry::embedded();
        let coded: Vec<&str> = WORKLOADS.iter().map(|spec| spec.name).collect();
        assert_eq!(registry.workloads, coded);
        let names: Vec<&str> = registry
            .end_to_end
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "react_p50_us",
                "beats_per_s",
                "idle_cpu_ms_per_s",
                "rss_mb"
            ]
        );
        assert!(registry
            .end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(registry.per_layer.iter().all(|d| d.bound.is_none()));
        assert!(registry.per_layer.len() <= 128);
    }

    fn set(values: [f64; 2]) -> Json {
        let registry = Registry::embedded();
        Json::obj([(
            "workloads",
            Json::Obj(
                registry
                    .workloads
                    .iter()
                    .map(|workload| {
                        (
                            workload.clone(),
                            Json::obj([(
                                "metrics",
                                Json::Obj(
                                    registry
                                        .end_to_end
                                        .iter()
                                        .map(|def| {
                                            let value = if def.higher_is_better {
                                                values[1]
                                            } else {
                                                values[0]
                                            };
                                            (
                                                def.name.clone(),
                                                Json::obj([("value", Json::Num(value))]),
                                            )
                                        })
                                        .collect(),
                                ),
                            )]),
                        )
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn a_comparison_is_directional_and_the_self_test_symmetric() {
        let registry = Registry::embedded();
        // Second set: every lower-is-better metric halved, every
        // higher-is-better one doubled — better all round, and further
        // apart than any bound whichever set is called the baseline.
        let (first, second) = (set([100.0, 100.0]), set([50.0, 200.0]));
        let forward = rows(&registry, &first, &second).unwrap();
        assert_eq!(
            forward.len(),
            registry.workloads.len() * registry.end_to_end.len()
        );
        assert!(forward.iter().all(|row| row.worse_by < 0.0));
        assert_eq!(
            print_rows(&forward, false),
            0,
            "an improvement is no regression"
        );
        assert_eq!(
            print_rows(&forward, true),
            forward.len(),
            "but the runs disagree"
        );
        let backward = rows(&registry, &second, &first).unwrap();
        assert_eq!(print_rows(&backward, false), backward.len());
        assert!(rows(
            &registry,
            &first,
            &Json::obj([("workloads", Json::Obj(vec![]))])
        )
        .is_err());
    }
}
