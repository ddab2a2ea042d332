//! Responding to a power cap: the paper's Figure 7 scenario on the body
//! tracker.
//!
//! A power cap drops the machine from 2.4 GHz to 1.6 GHz for the middle half
//! of the run. Without PowerDial, the tracker falls behind its frame rate;
//! with PowerDial, the knobs give back the lost throughput at a small
//! tracking-quality cost.
//!
//! Run with `cargo run --example power_cap_response`.

use powerdial::apps::BodytrackApp;
use powerdial::experiments::power_cap_response;
use powerdial::experiments::sim::SimulationOptions;
use powerdial::platform::FrequencyTable;
use powerdial::{PowerDialConfig, PowerDialSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = BodytrackApp::test_scale(7);
    let system = PowerDialSystem::build(&app, PowerDialConfig::default())?;

    // The cap actuates through the machine's DvfsBackend. The simulation
    // runs the paper's seven-state table; on hardware the same experiment
    // drives the sysfs/cpufreq backend (Linux), whose table is
    // discovered from scaling_available_frequencies instead.
    let table = FrequencyTable::paper();
    println!("DVFS backend table: {} [{} kHz]", table, table.format());

    let options = SimulationOptions {
        work_units: 120,
        window_size: 10,
        use_dynamic_knobs: true,
    };
    let series = power_cap_response(&app, &system, options)?;

    println!(
        "power cap on {}: imposed at {:.0}s, lifted at {:.0}s (target {:.2} beats/s)",
        series.application,
        series.cap_imposed_at_secs,
        series.cap_lifted_at_secs,
        series.target_rate
    );
    println!("\n  time   norm-perf(knobs)  gain   norm-perf(no knobs)  freq");
    for (i, (with, without)) in series
        .with_knobs
        .iter()
        .zip(&series.without_knobs)
        .enumerate()
    {
        if i % 6 != 0 {
            continue;
        }
        println!(
            "  {:>5.0}s  {:>16}  {:>4.1}x  {:>19}  {:>4.2} GHz",
            with.time_secs,
            with.normalized_performance
                .map(|p| format!("{p:.3}"))
                .unwrap_or_else(|| "-".into()),
            with.knob_gain,
            without
                .normalized_performance
                .map(|p| format!("{p:.3}"))
                .unwrap_or_else(|| "-".into()),
            with.frequency_ghz,
        );
    }

    println!(
        "\nduring the cap: {:.3} normalized performance with knobs vs {:.3} without (peak gain {:.1}x)",
        series.capped_performance_with_knobs().unwrap_or(0.0),
        series.capped_performance_without_knobs().unwrap_or(0.0),
        series.peak_knob_gain()
    );
    Ok(())
}
