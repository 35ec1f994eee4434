//! Serde round-trip regression tests: every configuration and report type
//! must survive `value -> JSON text -> value` without loss, so that
//! machine-readable figure diffing (`elsq-lab run --format json`) and
//! config files can rely on the serialization layer.

use elsq_cpu::config::CpuConfig;
use elsq_cpu::result::SimResult;
use elsq_sim::driver::{run_points, ExperimentParams, RunCtx};
use elsq_sim::experiments;
use elsq_stats::report::Report;
use elsq_workload::suite::WorkloadClass;

/// Every named `CpuConfig` constructor, as the smoke tests enumerate them.
fn named_configs() -> Vec<(&'static str, CpuConfig)> {
    vec![
        ("ooo64", CpuConfig::ooo64()),
        ("ooo64_svw", CpuConfig::ooo64_svw(10, true)),
        ("fmc_central_ideal", CpuConfig::fmc_central_ideal()),
        ("fmc_line", CpuConfig::fmc_line(true)),
        ("fmc_line_no_sqm", CpuConfig::fmc_line(false)),
        ("fmc_hash", CpuConfig::fmc_hash(true)),
        ("fmc_hash_no_sqm", CpuConfig::fmc_hash(false)),
        ("fmc_hash_rsac", CpuConfig::fmc_hash_rsac()),
        ("fmc_hash_svw", CpuConfig::fmc_hash_svw(8, false)),
    ]
}

#[test]
fn every_named_cpu_config_round_trips_through_json() {
    for (name, config) in named_configs() {
        let json = serde_json::to_string(&config).expect("serializes");
        let back: CpuConfig = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back, config, "{name} changed across the JSON round trip");
        // The externally tagged enums must be visible in the encoding.
        assert!(json.contains("\"lsq\""), "{name}: {json}");
    }
}

#[test]
fn experiment_params_round_trip_through_json() {
    for params in [
        ExperimentParams::quick(),
        ExperimentParams::standard(),
        ExperimentParams::sweep(),
        ExperimentParams {
            commits: 123_456,
            seed: u64::MAX,
            sample: None,
        },
    ] {
        let json = serde_json::to_string(&params).unwrap();
        let back: ExperimentParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, params);
    }
}

#[test]
fn reports_round_trip_through_json_with_cell_values_intact() {
    let params = ExperimentParams {
        commits: 1_000,
        seed: 3,
        sample: None,
    };
    let tuning = experiments::find("tuning").expect("registered");
    let report = experiments::run_experiment(&RunCtx::from_env(), tuning, &params);
    let json = serde_json::to_string_pretty(&report).unwrap();
    let back: Report = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
    // The raw per-cell values survive alongside the formatted strings.
    let cell = &back.tables[0].rows()[0][1];
    assert!(cell.value.is_some());
    assert_eq!(cell.text, elsq_stats::report::fmt_f(cell.value.unwrap()));
}

#[test]
fn sim_results_round_trip_through_json() {
    let params = ExperimentParams {
        commits: 800,
        seed: 5,
        sample: None,
    };
    let point = [("", CpuConfig::fmc_hash(true))];
    let results = run_points(&RunCtx::from_env(), &point, WorkloadClass::Int, &params)
        .remove(0)
        .unwrap();
    let json = serde_json::to_string(&results).unwrap();
    let back: Vec<SimResult> = serde_json::from_str(&json).unwrap();
    assert_eq!(back, results);
}
