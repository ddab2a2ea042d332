//! The repository's benchmark: the control loop's reaction time, drain
//! capacity and idle cost on six deployments, with a per-layer budget.
//! See `benchmark/README.md`.
//!
//! ```text
//! powerdial-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! powerdial-benchmark [run] [--seed <n>] [--seconds <s>] [--quick] [--trace] [--repeat <k>]
//! powerdial-benchmark compare <a.json> <b.json>
//! ```

mod fleet;
mod forked;
mod json;
mod ladder;
mod layers;
mod measure;
mod procfs;
mod report;
mod spans;
mod stats;
mod stream;
mod traced;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::fleet::WORKLOADS;
use crate::forked::OUT_DIR;
use crate::json::Json;
use crate::report::Registry;

const USAGE: &str = "usage:
  powerdial-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  powerdial-benchmark [run] [--seed <n>] [--seconds <s>] [--quick] [--trace] [--repeat <k>]
  powerdial-benchmark compare <a.json> <b.json>";

/// Window of `--quick`: a smoke run, not comparable with anything.
const QUICK_SECONDS: f64 = 1.0;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    repeat: usize,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        repeat: 1,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => options.workload = Some(value("a workload name")?.to_string()),
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(seconds.is_finite() && (0.2..=120.0).contains(&seconds)) {
                    return Err("--seconds must be between 0.2 and 120".into());
                }
                options.seconds = Some(seconds);
            }
            "--quick" => options.quick = true,
            "--repeat" => {
                options.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|k| (1..=5).contains(k))
                    .ok_or("--repeat needs a count from 1 to 5")?
            }
            // The driver passes `--trace 0|1`; by hand, a bare `--trace`
            // asks the set runner for the traced runs as well.
            "--trace" => match args.clone().next().map(String::as_str) {
                Some("0") => {
                    args.next();
                    options.trace = false;
                }
                Some("1") => {
                    args.next();
                    options.trace = true;
                }
                _ => options.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = Registry::embedded();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&registry, &args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("run") => parse_options(&args[1..]).and_then(|options| run_set(&registry, &options)),
        _ => parse_options(&args).and_then(|options| match &options.workload {
            Some(workload) => run_one(&registry, workload, &options),
            None => run_set(&registry, &options),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One workload, one result line. Exits 0 once the line is printed: the
/// verdict on the outputs travels in the line's `correct`, for the driver
/// to judge; the set runner is the one that fails on it.
fn run_one(registry: &Registry, workload: &str, options: &Options) -> Result<bool, String> {
    let spec = WORKLOADS
        .iter()
        .find(|spec| spec.name == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let seconds = options.seconds.unwrap_or(registry.run_seconds);
    // Only here, not in the set runner: its children must still see both
    // CPUs to place themselves.
    if let Some(placement) = procfs::Placement::get() {
        procfs::pin_to(placement.generator);
    }
    let report = if options.trace {
        traced::run(*spec, options.seed, seconds)
    } else {
        measure::run(*spec, options.seed, seconds)
    };
    report::emit(
        registry,
        workload,
        options.seed,
        seconds,
        options.trace,
        &report,
    );
    Ok(true)
}

/// Runs this binary again for one workload and returns the document it
/// wrote. A process per workload, because peak RSS is a per-process number
/// and a forked daemon should inherit as little as possible.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Everything but the machine-readable last line is the human report.
    let report = stdout.trim_end();
    let (human, _) = report.rsplit_once('\n').unwrap_or(("", report));
    println!("{human}\n");
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let path = Path::new(OUT_DIR).join(format!("detail-{workload}-trace{}.json", u8::from(trace)));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
}

/// Runs every workload `repeat` times over, writes one set document per
/// repetition, and — with two or more — checks that the sets agree within
/// the benchmark's own bounds. `Ok(false)` on any failed check, failed
/// operation, or disagreement.
fn run_set(registry: &Registry, options: &Options) -> Result<bool, String> {
    let seconds = match (options.quick, options.seconds) {
        (true, _) => QUICK_SECONDS,
        (false, Some(seconds)) => seconds,
        (false, None) => registry.run_seconds,
    };
    let comparable = !options.quick && seconds == registry.run_seconds;
    if !comparable {
        println!(
            "NOT COMPARABLE: {seconds} s windows instead of the benchmark's {} s; \
             smoke use only, cite none of these numbers\n",
            registry.run_seconds
        );
    }
    let mut sets: Vec<Json> = Vec::new();
    let mut clean = true;
    for repetition in 0..options.repeat {
        let mut workloads = Vec::new();
        for workload in &registry.workloads {
            let sound = |document: &Json| {
                document.get("correct").and_then(Json::as_bool) == Some(true)
                    && document.get("ops_failed").and_then(Json::as_f64) == Some(0.0)
            };
            let mut document = run_child(workload, options.seed, seconds, false)?;
            clean &= sound(&document);
            if options.trace {
                let traced = run_child(workload, options.seed, seconds, true)?;
                clean &= sound(&traced);
                if let Json::Obj(pairs) = &mut document {
                    pairs.push(("traced".to_string(), traced));
                }
            }
            workloads.push((workload.clone(), document));
        }
        let set = Json::obj([
            ("benchmark", Json::str("powerdial control loop")),
            ("comparable", Json::Bool(comparable)),
            ("fingerprint", procfs::fingerprint(options.seed, seconds)),
            ("workloads", Json::Obj(workloads)),
        ]);
        let path: PathBuf =
            Path::new(OUT_DIR).join(format!("result-seed{}-{repetition}.json", options.seed));
        std::fs::write(&path, set.render()).map_err(|e| e.to_string())?;
        println!("set {repetition} written to {}\n", path.display());
        sets.push(set);
    }
    for (index, later) in sets.iter().enumerate().skip(1) {
        println!("repeatability: set 0 against set {index}");
        let rows = report::rows(registry, &sets[0], later)?;
        clean &= report::print_rows(&rows, true) == 0;
    }
    if !clean {
        println!("FAILED: a check, an operation or the repeatability self-test failed (see above)");
    }
    Ok(clean)
}

/// `compare <parent.json> <change.json>`: one row per (workload, end-to-end
/// metric); fails when the second document is worse than the first by more
/// than the metric's bound anywhere.
fn compare(registry: &Registry, files: &[String]) -> Result<bool, String> {
    let [first, second] = files else {
        return Err("compare needs two result documents".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let document = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if document.get("comparable").and_then(Json::as_bool) != Some(true) {
            println!("warning: {path} was not measured with the benchmark's own window");
        }
        Ok(document)
    };
    let rows = report::rows(registry, &load(first)?, &load(second)?)?;
    Ok(report::print_rows(&rows, false) == 0)
}
