//! Figure 9 — relative performance of the restricted disambiguation models.
//!
//! Full disambiguation is the baseline; Restricted SAC loses at most a
//! couple of percent, Restricted LAC loses more (low-locality load address
//! calculations are much more common than store ones), and Restricted
//! SAC+LAC tracks Restricted LAC.

use elsq_core::config::ElsqConfig;
use elsq_core::disambig::DisambiguationModel;
use elsq_cpu::config::CpuConfig;
use elsq_stats::report::{Cell, ExperimentParams, Report, Table};
use elsq_workload::suite::WorkloadClass;

use crate::driver::RunCtx;
use crate::experiments::Experiment;
use crate::scenario::{run_plan, SweepPlan};

/// Figure 9 as a registered [`Experiment`].
pub struct Fig9;

impl Experiment for Fig9 {
    fn id(&self) -> &'static str {
        "fig9"
    }

    fn title(&self) -> &'static str {
        "Figure 9: restricted disambiguation models"
    }

    fn plan(&self) -> SweepPlan {
        let mut plan = SweepPlan::new("fig9");
        for class in [WorkloadClass::Int, WorkloadClass::Fp] {
            plan.points.extend(class_plan(class).points);
        }
        plan
    }

    fn run(&self, ctx: &RunCtx, params: &ExperimentParams) -> Report {
        Report::new(self.id(), self.title(), *params).with_table(run(ctx, params))
    }
}

fn model_config(model: DisambiguationModel) -> CpuConfig {
    CpuConfig::fmc_elsq(ElsqConfig::default().with_disambiguation(model))
}

/// The figure's grid for one suite: one point per disambiguation model, in
/// Figure 9 order.
fn class_plan(class: WorkloadClass) -> SweepPlan {
    let mut plan = SweepPlan::new("fig9");
    for model in DisambiguationModel::ALL {
        plan.push(model.to_string(), model_config(model), class);
    }
    plan
}

/// Mean IPC of each disambiguation model for one class, in Figure 9 order.
pub fn model_ipcs(
    ctx: &RunCtx,
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Vec<(DisambiguationModel, f64)> {
    let results = run_plan(ctx, &class_plan(class), params, |_| {});
    DisambiguationModel::ALL
        .iter()
        .map(|&model| (model, results.mean_ipc(&model.to_string(), class)))
        .collect()
}

/// Renders Figure 9: performance relative to full disambiguation.
pub fn run(ctx: &RunCtx, params: &ExperimentParams) -> Table {
    let mut table = Table::new(
        "Figure 9: relative performance of restricted disambiguation models",
        &["model", "SPEC INT", "SPEC FP"],
    );
    let int = model_ipcs(ctx, WorkloadClass::Int, params);
    let fp = model_ipcs(ctx, WorkloadClass::Fp, params);
    let int_base = int[0].1;
    let fp_base = fp[0].1;
    for ((model, int_ipc), (_, fp_ipc)) in int.into_iter().zip(fp) {
        table.row_cells(vec![
            Cell::text(model.to_string()),
            Cell::f(int_ipc / int_base),
            Cell::f(fp_ipc / fp_base),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_params;

    #[test]
    fn table_covers_all_models_and_full_is_the_baseline() {
        let t = run(&RunCtx::new(2), &tiny_params());
        assert_eq!(t.len(), DisambiguationModel::ALL.len());
        let first = &t.rows()[0];
        assert_eq!(first[0], "full");
        assert_eq!(first[1], "1.000");
        assert_eq!(first[2], "1.000");
    }

    #[test]
    fn restricted_models_do_not_speed_things_up_dramatically() {
        let params = crate::driver::ExperimentParams {
            commits: 4_000,
            seed: 5,
            sample: None,
        };
        for (model, ipc) in model_ipcs(&RunCtx::new(2), WorkloadClass::Fp, &params) {
            let (_, full) = model_ipcs(&RunCtx::new(2), WorkloadClass::Fp, &params)[0];
            // Restricting disambiguation can only remove scheduling freedom;
            // small noise aside it should not beat full disambiguation by
            // more than a few percent.
            assert!(
                ipc <= full * 1.05,
                "{model} unexpectedly beat full disambiguation: {ipc} vs {full}"
            );
        }
    }
}
