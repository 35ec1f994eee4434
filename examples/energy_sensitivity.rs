//! Regenerates the sensitivity-sweep table in `docs/ENERGY_MODEL.md`: the
//! Section 6 energy comparison under perturbed model coefficients.
//!
//! The energy model has exactly three free coefficients (SRAM nJ/B/port,
//! the CAM search factor, cache nJ/B/port); this sweep scales each in turn
//! and reports the FMC-Hash : OoO-64 LSQ-energy ratio for both suites —
//! the paper-level conclusion the model exists to support. Run with:
//!
//! ```text
//! cargo run --release -p elsq --example energy_sensitivity
//! ```

use elsq_cpu::config::CpuConfig;
use elsq_cpu::result::SimResult;
use elsq_sim::driver::{run_points, ExperimentParams, RunCtx};
use elsq_stats::energy::{EnergyModel, LsqStructureSpecs, ERT_2KB_READ_NJ, L1_32KB_READ_NJ};
use elsq_workload::suite::WorkloadClass;

/// The calibration point coefficients (see `EnergyModel::default`).
fn base_coefficients() -> (f64, f64, f64) {
    (
        ERT_2KB_READ_NJ / (2048.0 * 2.0),
        6.0,
        L1_32KB_READ_NJ / (32768.0 * 2.0),
    )
}

fn main() {
    let params = ExperimentParams {
        commits: 20_000,
        seed: 7,
        sample: None,
    };
    let specs = LsqStructureSpecs::default();

    // Mean per-100M access counters, once per (config, class).
    let mut counters = Vec::new();
    let ctx = RunCtx::from_env();
    for (name, cfg) in [
        ("OoO-64", CpuConfig::ooo64()),
        ("FMC-Hash", CpuConfig::fmc_hash(true)),
    ] {
        for class in [WorkloadClass::Fp, WorkloadClass::Int] {
            let results = run_points(&ctx, &[(name, cfg)], class, &params).remove(0);
            let mean = SimResult::mean_lsq_per_100m(&results.unwrap());
            counters.push((name, class, mean));
        }
    }

    let (sram, cam, cache) = base_coefficients();
    println!("FMC-Hash : OoO-64 LSQ dynamic-energy ratio under coefficient scaling");
    println!(
        "(commits={}, seed={}; x1.0 is the calibrated model)",
        params.commits, params.seed
    );
    println!();
    println!("| coefficient | scale | SPEC FP ratio | SPEC INT ratio |");
    println!("|---|---:|---:|---:|");
    for (label, scales) in [
        ("SRAM nJ/B/port", [0.5, 1.0, 2.0]),
        ("CAM search factor", [0.5, 1.0, 2.0]),
        ("cache nJ/B/port", [0.5, 1.0, 2.0]),
    ] {
        for scale in scales {
            let model = match label {
                "SRAM nJ/B/port" => EnergyModel::with_coefficients(sram * scale, cam, cache),
                "CAM search factor" => EnergyModel::with_coefficients(sram, cam * scale, cache),
                _ => EnergyModel::with_coefficients(sram, cam, cache * scale),
            };
            let ratio = |class: WorkloadClass| {
                let energy = |config: &str| {
                    let (_, _, c) = counters
                        .iter()
                        .find(|(n, cl, _)| *n == config && *cl == class)
                        .expect("counters collected above");
                    model.lsq_energy_breakdown(c, &specs).total_nj
                };
                energy("FMC-Hash") / energy("OoO-64")
            };
            println!(
                "| {label} | x{scale:.1} | {:.2} | {:.2} |",
                ratio(WorkloadClass::Fp),
                ratio(WorkloadClass::Int)
            );
        }
    }
    println!();
    let model = EnergyModel::default();
    let ert = model.read_energy_nj(elsq_stats::energy::StructureSpec::sram(2048, 2));
    let l1 = model.read_energy_nj(elsq_stats::energy::StructureSpec::cache(32 * 1024, 2));
    println!(
        "calibration check: ERT read {ert:.5} nJ, L1 read {l1:.4} nJ, ratio {:.1}%",
        100.0 * ert / l1
    );
}
