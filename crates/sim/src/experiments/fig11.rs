//! Figure 11 — percentage of cycles the low-locality machinery is idle.
//!
//! With larger L2 caches fewer misses reach memory, the Memory Processor is
//! needed less often and the LL-LSQ (plus the ERT and SQM) can stay in its
//! low-power mode for a larger fraction of the execution: roughly a third of
//! the time at 1 MB rising towards half at 8 MB in the paper.

use elsq_cpu::config::CpuConfig;
use elsq_cpu::result::SimResult;
use elsq_stats::report::{Cell, ExperimentParams, Report, Table};
use elsq_workload::suite::WorkloadClass;

use crate::driver::RunCtx;
use crate::experiments::Experiment;
use crate::scenario::{run_plan, SweepPlan};

/// Figure 11 as a registered [`Experiment`].
pub struct Fig11;

impl Experiment for Fig11 {
    fn id(&self) -> &'static str {
        "fig11"
    }

    fn title(&self) -> &'static str {
        "Figure 11: LL-LSQ inactivity vs L2 size"
    }

    fn plan(&self) -> SweepPlan {
        plan()
    }

    fn run(&self, ctx: &RunCtx, params: &ExperimentParams) -> Report {
        Report::new(self.id(), self.title(), *params).with_table(run(ctx, params))
    }
}

/// L2 capacities swept (MB).
pub const L2_MB: [u64; 4] = [1, 2, 4, 8];

fn l2_config(l2_mb: u64) -> CpuConfig {
    let mut cfg = CpuConfig::fmc_hash(true);
    cfg.hierarchy = cfg.hierarchy.with_l2_mb(l2_mb);
    cfg
}

/// The Figure 11 grid: the FMC-Hash configuration at every L2 size, both
/// suites (INT first, matching the table's columns).
pub fn plan() -> SweepPlan {
    let mut plan = SweepPlan::new("fig11");
    for mb in L2_MB {
        for class in [WorkloadClass::Int, WorkloadClass::Fp] {
            plan.push(format!("{mb}MB"), l2_config(mb), class);
        }
    }
    plan
}

fn mean_idle_fraction(results: &[SimResult]) -> f64 {
    results
        .iter()
        .map(|r| r.sim.ll_idle_fraction())
        .sum::<f64>()
        / results.len() as f64
}

/// Renders the Figure 11 table.
pub fn run(ctx: &RunCtx, params: &ExperimentParams) -> Table {
    let mut table = Table::new(
        "Figure 11: LL-LSQ inactivity cycles (%) vs L2 size",
        &["L2 size", "SPEC INT", "SPEC FP"],
    );
    let results = run_plan(ctx, &plan(), params, |_| {});
    for mb in L2_MB {
        let label = format!("{mb}MB");
        table.row_cells(vec![
            Cell::text(label.clone()),
            Cell::f(100.0 * mean_idle_fraction(results.suite(&label, WorkloadClass::Int))),
            Cell::f(100.0 * mean_idle_fraction(results.suite(&label, WorkloadClass::Fp))),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_points;
    use crate::experiments::tiny_params;

    /// Mean LL-LSQ idle fraction for one class and L2 size.
    fn idle_fraction(class: WorkloadClass, l2_mb: u64, params: &ExperimentParams) -> f64 {
        let point = [("", l2_config(l2_mb))];
        let results = run_points(&RunCtx::new(2), &point, class, params)
            .remove(0)
            .unwrap();
        mean_idle_fraction(&results)
    }

    #[test]
    fn idle_fraction_is_a_fraction() {
        let f = idle_fraction(WorkloadClass::Int, 2, &tiny_params());
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn table_has_one_row_per_l2_size() {
        let t = run(&RunCtx::new(2), &tiny_params());
        assert_eq!(t.len(), L2_MB.len());
    }

    #[test]
    fn bigger_l2_does_not_reduce_idle_time() {
        let params = crate::driver::ExperimentParams {
            commits: 4_000,
            seed: 3,
            sample: None,
        };
        let small = idle_fraction(WorkloadClass::Fp, 1, &params);
        let big = idle_fraction(WorkloadClass::Fp, 8, &params);
        assert!(
            big + 0.05 >= small,
            "8MB idle fraction {big} should not fall below 1MB idle fraction {small}"
        );
    }
}
