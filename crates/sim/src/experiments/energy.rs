//! Section 6 — energy considerations.
//!
//! Combines the Table 2 access counts with the calibrated per-access energy
//! model: the ERT read energy is ~2 % of an L1 read, so the extra filter
//! lookups of the ELSQ cost little, and restricted SAC compares favourably
//! against SVW re-execution.

use elsq_cpu::config::CpuConfig;
use elsq_cpu::result::SimResult;
use elsq_stats::energy::{EnergyModel, LsqStructureSpecs};
use elsq_stats::report::{Cell, ExperimentParams, Report, Table};
use elsq_workload::suite::WorkloadClass;

use crate::driver::RunCtx;
use crate::experiments::Experiment;
use crate::scenario::{run_plan, SweepPlan};

/// The Section 6 energy comparison as a registered [`Experiment`]: one
/// table per workload class.
pub struct Energy;

impl Experiment for Energy {
    fn id(&self) -> &'static str {
        "energy"
    }

    fn title(&self) -> &'static str {
        "Section 6: LSQ dynamic energy per 100M instructions"
    }

    fn plan(&self) -> SweepPlan {
        let mut plan = SweepPlan::new("energy");
        for class in [WorkloadClass::Fp, WorkloadClass::Int] {
            plan.points.extend(class_plan(class).points);
        }
        plan
    }

    fn run(&self, ctx: &RunCtx, params: &ExperimentParams) -> Report {
        let mut report = Report::new(self.id(), self.title(), *params);
        for class in [WorkloadClass::Fp, WorkloadClass::Int] {
            report.push_table(run(ctx, class, params));
        }
        report
    }
}

/// The Section 6 grid for one suite: one point per compared configuration.
fn class_plan(class: WorkloadClass) -> SweepPlan {
    let mut plan = SweepPlan::new("energy");
    for (name, cfg) in configurations() {
        plan.push(name, cfg, class);
    }
    plan
}

/// Configurations compared in the Section 6 discussion.
pub fn configurations() -> Vec<(&'static str, CpuConfig)> {
    vec![
        ("OoO-64", CpuConfig::ooo64()),
        ("FMC-Hash", CpuConfig::fmc_hash(true)),
        ("FMC-Hash-RSAC", CpuConfig::fmc_hash_rsac()),
        ("FMC-Hash-SVW", CpuConfig::fmc_hash_svw(10, false)),
    ]
}

/// Renders the per-configuration LSQ dynamic-energy table (µJ per 100 M
/// instructions) for one workload class.
pub fn run(ctx: &RunCtx, class: WorkloadClass, params: &ExperimentParams) -> Table {
    let model = EnergyModel::default();
    let specs = LsqStructureSpecs::default();
    let mut table = Table::new(
        format!("Section 6 ({class}): LSQ dynamic energy per 100M instructions"),
        &[
            "configuration",
            "LSQ energy (uJ)",
            "of which ERT (uJ)",
            "cache (uJ)",
        ],
    );
    let plan_results = run_plan(ctx, &class_plan(class), params, |_| {});
    for (name, _) in configurations() {
        let results = plan_results.suite(name, class);
        let mean = SimResult::mean_lsq_per_100m(results);
        let breakdown = model.lsq_energy_breakdown(&mean, &specs);
        table.row_cells(vec![
            Cell::text(name),
            Cell::f(breakdown.total_nj / 1000.0),
            Cell::f(breakdown.of("ert") / 1000.0),
            Cell::f(breakdown.of("dcache") / 1000.0),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_params;

    #[test]
    fn table_has_one_row_per_configuration() {
        let t = run(&RunCtx::new(2), WorkloadClass::Fp, &tiny_params());
        assert_eq!(t.len(), configurations().len());
    }

    #[test]
    fn ert_energy_is_a_small_fraction_of_the_total() {
        let params = crate::driver::ExperimentParams {
            commits: 3_000,
            seed: 3,
            sample: None,
        };
        let t = run(&RunCtx::new(2), WorkloadClass::Fp, &params);
        let fmc = t
            .rows()
            .iter()
            .find(|r| r[0] == "FMC-Hash")
            .expect("FMC-Hash row");
        let total = fmc[1].value.unwrap();
        let ert = fmc[2].value.unwrap();
        assert!(total > 0.0);
        assert!(
            ert < 0.25 * total,
            "the ERT ({ert}) should be a small part of the total ({total})"
        );
    }
}
