//! Fault containment under a hostile fleet: the PR's acceptance suite.
//!
//! A 64-application fleet beats into an in-process sharded daemon while a
//! seeded campaign performs 50 hostile injections — app panics, poison
//! latency streams, beat floods past `drain_cap`, shared-memory header
//! scribbling, worker-thread kills, and register/vanish churn. A
//! fault-free twin daemon runs the same beat schedule in lockstep. The
//! harness (`powerdial_bench::adversarial`) enforces the containment
//! invariants inline and panics on violation:
//!
//! * the daemon never aborts (the campaign runs in this process);
//! * every quarantine blames an attacked app — panics within one
//!   quantum, poison streams within a typed-overflow deadline;
//! * every killed worker is resurrected at its index with survivors
//!   migrated;
//! * every unaffected app's decision observables stay **bit-identical**
//!   to the no-fault twin's.
//!
//! A failure names the seed, so the schedule can be replayed with
//! `POWERDIAL_CHAOS_SEED`. On top of the harness invariants, this test
//! pins the incident telemetry: the attacked daemon's JSON snapshot is
//! pushed through the strict JSON parser and its `incidents` section
//! must agree with what the campaign actually did.

#![cfg(target_os = "linux")]

use powerdial_bench::adversarial::{run_adversarial, seed_from_env, AdversarialConfig};
use powerdial_bench::json::Json;

/// Concurrent instrumented applications (acceptance floor: 64).
const APPS: usize = 64;

/// Hostile injections (acceptance floor: 50).
const INJECTIONS: usize = 50;

#[test]
fn fifty_hostile_injections_are_contained_and_neighbors_stay_bit_identical() {
    let mut config = AdversarialConfig::new(APPS, INJECTIONS);
    config.seed = seed_from_env(config.seed);

    // `run_adversarial` panics on any containment violation; what comes
    // back is a passing campaign's shape, pinned below.
    let report = run_adversarial(&config);

    assert!(
        report.quanta >= INJECTIONS as u64,
        "one quantum per injection minimum"
    );
    assert!(
        report.compared_apps >= APPS / 2,
        "the campaign must leave at least half the fleet untouched for comparison \
         ({} compared)",
        report.compared_apps
    );
    assert!(
        report.snapshots_compared > 0,
        "bit-equality must actually have been exercised"
    );
    println!(
        "adversarial: {} quanta, {} quarantined, {} worker kills, {} floods, \
         {} scribbles, {} churned, {} apps compared over {} snapshots (seed {:#x})",
        report.quanta,
        report.quarantined,
        report.worker_kills,
        report.floods,
        report.scribbles,
        report.churned,
        report.compared_apps,
        report.snapshots_compared,
        config.seed
    );

    // Satellite: incident counters flow end-to-end — struct → JSON →
    // strict parser — and agree with the campaign's own ledger.
    let snapshot = Json::parse(&report.telemetry_json).expect("telemetry snapshot parses");
    let incidents = snapshot
        .get("incidents")
        .expect("snapshot has an incidents section");
    let count = |key: &str| -> u64 {
        incidents
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("incidents.{key} is a number")) as u64
    };
    assert_eq!(count("shard_deaths"), report.worker_kills);
    assert_eq!(count("shard_respawns"), report.worker_kills);
    assert_eq!(
        count("quarantined_apps"),
        report.quarantined as u64,
        "current-quarantine gauge matches the report"
    );
    assert!(
        count("apps_migrated") >= report.worker_kills,
        "every kill migrated at least one surviving app"
    );
}
