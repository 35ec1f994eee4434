//! Section 5.2 — sizing the per-epoch load/store queues.
//!
//! The paper fixes 16 epochs of 128 instructions and then sizes the
//! per-epoch load and store queues, finding that 64 loads / 32 stores stays
//! within ~1 % of an unlimited LSQ (with a 7 % worst case) while being much
//! cheaper. This experiment sweeps the per-epoch queue sizes on SPEC FP (the
//! suite the paper uses for sizing because it is the more sensitive one at
//! large window sizes).

use elsq_core::config::ElsqConfig;
use elsq_cpu::config::CpuConfig;
use elsq_stats::report::{Cell, ExperimentParams, Report, Table};
use elsq_workload::suite::WorkloadClass;

use crate::driver::RunCtx;
use crate::experiments::Experiment;
use crate::scenario::{run_plan, SweepPlan};

/// The Section 5.2 sizing study as a registered [`Experiment`].
pub struct Tuning;

impl Experiment for Tuning {
    fn id(&self) -> &'static str {
        "tuning"
    }

    fn title(&self) -> &'static str {
        "Section 5.2: per-epoch LSQ sizing"
    }

    fn plan(&self) -> SweepPlan {
        plan()
    }

    fn run(&self, ctx: &RunCtx, params: &ExperimentParams) -> Report {
        Report::new(self.id(), self.title(), *params).with_table(run(ctx, params))
    }

    fn classes(&self) -> &'static [WorkloadClass] {
        // The sizing sweep runs SPEC FP only (see the module docs), so an
        // FP-only trace dump suffices to replay it.
        &[WorkloadClass::Fp]
    }
}

/// The (loads, stores) sizes swept. The last, generously sized entry
/// (128/64) doubles as the normalization reference.
pub const SIZES: [(usize, usize); 4] = [(16, 8), (32, 16), (64, 32), (128, 64)];

fn sized_config(loads: usize, stores: usize) -> CpuConfig {
    CpuConfig::fmc_elsq(ElsqConfig {
        epoch_max_loads: loads,
        epoch_max_stores: stores,
        ..ElsqConfig::default()
    })
}

/// The sizing grid: every swept size, SPEC FP only.
pub fn plan() -> SweepPlan {
    let mut plan = SweepPlan::new("tuning");
    for (loads, stores) in SIZES {
        plan.push(
            format!("{loads}/{stores}"),
            sized_config(loads, stores),
            WorkloadClass::Fp,
        );
    }
    plan
}

/// Renders the sizing table: IPC relative to generously sized epoch queues.
pub fn run(ctx: &RunCtx, params: &ExperimentParams) -> Table {
    let mut table = Table::new(
        "Section 5.2: per-epoch LSQ sizing (SPEC FP, relative to 128/64)",
        &["loads/stores per epoch", "relative IPC"],
    );
    let results = run_plan(ctx, &plan(), params, |_| {});
    let reference = results.mean_ipc("128/64", WorkloadClass::Fp);
    for (loads, stores) in SIZES {
        let label = format!("{loads}/{stores}");
        let ipc = results.mean_ipc(&label, WorkloadClass::Fp);
        table.row_cells(vec![Cell::text(label), Cell::f(ipc / reference)]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_params;

    #[test]
    fn table_covers_the_sweep() {
        let t = run(&RunCtx::new(2), &tiny_params());
        assert_eq!(t.len(), SIZES.len());
    }

    #[test]
    fn paper_sizing_stays_close_to_unlimited() {
        let params = crate::driver::ExperimentParams {
            commits: 4_000,
            seed: 3,
            sample: None,
        };
        let t = run(&RunCtx::new(2), &params);
        let row = t
            .rows()
            .iter()
            .find(|r| r[0] == "64/32")
            .expect("64/32 row present");
        let rel = row[1].value.unwrap();
        assert!(
            rel > 0.85,
            "64/32 epochs should be close to unlimited, got {rel}"
        );
    }
}
