//! Table 2 — number of accesses to the LSQ components (in millions per 100 M
//! committed instructions) for the evaluated configurations, plus speed-up.

use elsq_cpu::config::CpuConfig;
use elsq_cpu::result::SimResult;
use elsq_stats::report::{Cell, ExperimentParams, Report, Table};
use elsq_workload::suite::WorkloadClass;

use crate::driver::RunCtx;
use crate::experiments::Experiment;
use crate::scenario::{run_plan, SweepPlan};

/// Table 2 as a registered [`Experiment`]: one table per workload class.
pub struct Table2;

impl Experiment for Table2 {
    fn id(&self) -> &'static str {
        "table2"
    }

    fn title(&self) -> &'static str {
        "Table 2: accesses to the LSQ components"
    }

    fn plan(&self) -> SweepPlan {
        let mut plan = SweepPlan::new("table2");
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

/// The configurations listed in Table 2, in row order. The first row
/// (OoO-64) doubles as the speed-up baseline.
pub fn configurations() -> Vec<(&'static str, CpuConfig)> {
    vec![
        ("OoO-64", CpuConfig::ooo64()),
        ("OoO-64-SVW", CpuConfig::ooo64_svw(10, false)),
        ("FMC-Line", CpuConfig::fmc_line(true)),
        ("FMC-Hash", CpuConfig::fmc_hash(true)),
        ("FMC-Hash-SVW", CpuConfig::fmc_hash_svw(10, false)),
        ("FMC-Hash-RSAC", CpuConfig::fmc_hash_rsac()),
    ]
}

/// The Table 2 grid for one suite: one point per listed configuration.
fn class_plan(class: WorkloadClass) -> SweepPlan {
    let mut plan = SweepPlan::new("table2");
    for (name, cfg) in configurations() {
        plan.push(name, cfg, class);
    }
    plan
}

/// Renders Table 2 for one workload class.
pub fn run(ctx: &RunCtx, class: WorkloadClass, params: &ExperimentParams) -> Table {
    let mut table = Table::new(
        format!("Table 2 ({class}): accesses to LSQ components (millions per 100M insts)"),
        &[
            "configuration",
            "HL-LQ",
            "HL-SQ",
            "LL-LQ",
            "LL-SQ",
            "ERT",
            "SSBF",
            "RoundTrips",
            "Cache",
            "Speed-Up",
        ],
    );
    let plan_results = run_plan(ctx, &class_plan(class), params, |_| {});
    let baseline = plan_results.mean_ipc("OoO-64", class);
    for (name, _) in configurations() {
        let results = plan_results.suite(name, class);
        let ipc = SimResult::mean_ipc(results);
        let mean = SimResult::mean_lsq_per_100m(results);
        table.row_cells(vec![
            Cell::text(name),
            Cell::millions(mean.hl_lq_searches),
            Cell::millions(mean.hl_sq_searches),
            Cell::millions(mean.ll_lq_searches),
            Cell::millions(mean.ll_sq_searches),
            Cell::millions(mean.ert_lookups),
            Cell::millions(mean.ssbf_lookups),
            Cell::millions(mean.roundtrips),
            Cell::millions(mean.cache_accesses),
            Cell::f(ipc / baseline),
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
        let t = run(&RunCtx::new(2), WorkloadClass::Int, &tiny_params());
        assert_eq!(t.len(), configurations().len());
    }

    #[test]
    fn structural_properties_of_the_rows() {
        let params = crate::driver::ExperimentParams {
            commits: 3_000,
            seed: 3,
            sample: None,
        };
        let t = run(&RunCtx::new(2), WorkloadClass::Fp, &params);
        let find = |name: &str| -> Vec<Cell> {
            t.rows()
                .iter()
                .find(|r| r[0] == name)
                .expect("row present")
                .clone()
        };
        let num = |c: &Cell| -> f64 { c.value.unwrap() };
        // The conventional processor never touches LL queues, the ERT or the
        // network.
        let ooo = find("OoO-64");
        assert_eq!(num(&ooo[3]), 0.0);
        assert_eq!(num(&ooo[4]), 0.0);
        assert_eq!(num(&ooo[5]), 0.0);
        assert_eq!(num(&ooo[7]), 0.0);
        // SVW configurations have no associative load-queue searches but do
        // access the SSBF.
        let svw = find("OoO-64-SVW");
        assert_eq!(num(&svw[1]), 0.0);
        assert!(num(&svw[6]) > 0.0);
        // The FMC configurations exercise the ERT.
        let fmc = find("FMC-Hash");
        assert!(num(&fmc[5]) > 0.0);
    }
}
