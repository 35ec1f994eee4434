//! The unified Experiment API: discover experiments through the registry,
//! run one with custom parameters, and consume its structured report — the
//! same pipeline the `elsq-lab` CLI drives.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p elsq --example experiment_api [experiment-id]
//! ```

use elsq_sim::driver::{ExperimentParams, RunCtx};
use elsq_sim::experiments::{find, registry, run_experiment};

fn main() {
    // Every paper artifact is a registered experiment with a stable id.
    println!("registered experiments:");
    for e in registry() {
        println!("  {:<7} {}", e.id(), e.title());
    }

    let id = std::env::args().nth(1).unwrap_or_else(|| "tuning".into());
    let experiment = find(&id).unwrap_or_else(|| {
        eprintln!("unknown experiment `{id}`");
        std::process::exit(2);
    });

    // Reports carry the parameters, every table, and the wall time; table
    // cells keep the raw f64 next to the formatted string.
    let params = ExperimentParams::quick();
    let report = run_experiment(&RunCtx::from_env(), experiment, &params);
    println!("\n{report}");
    println!("completed in {:.1} ms", report.wall_time_ms);

    let first_numeric = report
        .tables
        .iter()
        .flat_map(|t| t.rows().iter().flatten())
        .find_map(|cell| cell.value.map(|v| (cell.text.clone(), v)));
    if let Some((text, value)) = first_numeric {
        println!("first numeric cell: text {text:?} carries raw value {value}");
    }
}
