//! Shared harness for the experiment binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` that regenerates it on the simulated platform and prints the
//! corresponding rows or series. The binaries share this library: application
//! construction at either *paper* scale (used for the reported numbers; run
//! them in release mode) or *quick* scale (used in debug builds and CI), plus
//! small text-table helpers.
//!
//! Set the environment variable `POWERDIAL_SCALE=quick` (or pass `--quick`)
//! to force the scaled-down configuration; `POWERDIAL_SCALE=paper` forces the
//! full configuration.
//!
//! Beside the figure and table harness the crate holds the fault harnesses
//! (`chaos`: daemon SIGKILL recovery, also the `chaos` binary;
//! `adversarial`: hostile clients; both Linux-only), the synthetic [`fleet`]
//! they run on, and the strict [`json`] parser the snapshot tests use.
//! Performance is not measured here: that is `benchmark/` and
//! `BENCHMARK.json`.

use powerdial::apps::{BodytrackApp, KnobbedApplication, SearchApp, SwaptionsApp, VideoEncoderApp};
use powerdial::experiments::sim::SimulationOptions;
use powerdial::{PowerDialConfig, PowerDialSystem};
use powerdial_qos::QosLossBound;

#[cfg(target_os = "linux")]
pub mod adversarial;
#[cfg(target_os = "linux")]
pub mod chaos;
pub mod fleet;
pub mod json;

/// Which configuration scale the harness runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-like knob ranges and input counts (intended for release builds).
    Paper,
    /// Scaled-down knob ranges and input counts (fast enough for debug builds
    /// and CI).
    Quick,
}

impl Scale {
    /// Resolves the scale from the command line and the `POWERDIAL_SCALE`
    /// environment variable, defaulting to `Paper` in release builds and
    /// `Quick` in debug builds.
    pub fn from_environment() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            return Scale::Quick;
        }
        if args.iter().any(|a| a == "--paper") {
            return Scale::Paper;
        }
        match std::env::var("POWERDIAL_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("paper") => Scale::Paper,
            _ => {
                if cfg!(debug_assertions) {
                    Scale::Quick
                } else {
                    Scale::Paper
                }
            }
        }
    }
}

/// The seed every experiment binary uses, so printed numbers are reproducible
/// run to run.
pub const EXPERIMENT_SEED: u64 = 2011;

/// One benchmark application boxed behind the common trait, with its paper
/// provisioning parameters.
pub struct BenchmarkCase {
    /// The application.
    pub app: Box<dyn KnobbedApplication>,
    /// Machines the paper provisions for the original system.
    pub original_machines: usize,
    /// QoS-loss bound the paper uses when consolidating this benchmark.
    pub consolidation_bound_percent: f64,
}

impl BenchmarkCase {
    /// The application's name.
    pub fn name(&self) -> &str {
        self.app.name()
    }

    /// Builds the PowerDial system (identification, calibration, knob table)
    /// for this case.
    pub fn build_system(&self) -> PowerDialSystem {
        PowerDialSystem::build(self.app.as_ref(), PowerDialConfig::default())
            .expect("benchmark applications always calibrate")
    }

    /// The consolidation QoS bound as a [`QosLossBound`].
    pub fn consolidation_bound(&self) -> QosLossBound {
        QosLossBound::from_percent(self.consolidation_bound_percent)
            .expect("bounds are valid percentages")
    }
}

/// Builds all four benchmark applications at the given scale, in the paper's
/// order (swaptions, x264, bodytrack, swish++).
pub fn benchmark_suite(scale: Scale) -> Vec<BenchmarkCase> {
    let seed = EXPERIMENT_SEED;
    match scale {
        Scale::Paper => vec![
            BenchmarkCase {
                app: Box::new(SwaptionsApp::parsec_scale(seed)),
                original_machines: 4,
                consolidation_bound_percent: 5.0,
            },
            BenchmarkCase {
                app: Box::new(VideoEncoderApp::parsec_scale(seed)),
                original_machines: 4,
                consolidation_bound_percent: 5.0,
            },
            BenchmarkCase {
                app: Box::new(BodytrackApp::parsec_scale(seed)),
                original_machines: 4,
                consolidation_bound_percent: 5.0,
            },
            BenchmarkCase {
                app: Box::new(SearchApp::swish_scale(seed)),
                original_machines: 3,
                consolidation_bound_percent: 30.0,
            },
        ],
        Scale::Quick => vec![
            BenchmarkCase {
                app: Box::new(SwaptionsApp::test_scale(seed)),
                original_machines: 4,
                consolidation_bound_percent: 5.0,
            },
            BenchmarkCase {
                app: Box::new(VideoEncoderApp::test_scale(seed)),
                original_machines: 4,
                consolidation_bound_percent: 5.0,
            },
            BenchmarkCase {
                app: Box::new(BodytrackApp::test_scale(seed)),
                original_machines: 4,
                consolidation_bound_percent: 5.0,
            },
            BenchmarkCase {
                app: Box::new(SearchApp::test_scale(seed)),
                original_machines: 3,
                consolidation_bound_percent: 30.0,
            },
        ],
    }
}

/// Simulation length appropriate for the scale.
pub fn simulation_options(scale: Scale) -> SimulationOptions {
    match scale {
        Scale::Paper => SimulationOptions {
            work_units: 240,
            window_size: 20,
            use_dynamic_knobs: true,
        },
        Scale::Quick => SimulationOptions {
            work_units: 120,
            window_size: 10,
            use_dynamic_knobs: true,
        },
    }
}

/// Prints a text table: a header row followed by data rows, with columns
/// padded to the widest cell.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let format_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    println!("{}", format_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", format_row(row));
    }
}

/// Formats a float with the given number of decimal places.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_builds_all_four_benchmarks() {
        let suite = benchmark_suite(Scale::Quick);
        let names: Vec<&str> = suite.iter().map(BenchmarkCase::name).collect();
        assert_eq!(names, vec!["swaptions", "x264", "bodytrack", "swish++"]);
        for case in &suite {
            assert!(case.original_machines >= 3);
            assert!(case.consolidation_bound().percent() >= 5.0);
        }
    }

    #[test]
    fn quick_systems_calibrate() {
        let suite = benchmark_suite(Scale::Quick);
        let system = suite[0].build_system();
        assert!(system.knob_table().max_speedup() > 1.0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(std::f64::consts::PI, 2), "3.14");
        let options = simulation_options(Scale::Quick);
        assert!(options.work_units < simulation_options(Scale::Paper).work_units);
        // print_table only has observable side effects; just exercise it.
        print_table("test", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
