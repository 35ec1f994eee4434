//! Figure 10 — load re-execution with Store Vulnerability Windows.
//!
//! For both the 64-entry-ROB processor and the FMC large-window processor,
//! the paper sweeps the SSBF index width (8/10/12 bits) with and without the
//! no-unresolved-store filter ("CheckStores" vs "Blind") and reports relative
//! IPC plus the number of re-executions per 100 M instructions. Large
//! windows re-execute far more often, which is the paper's argument that
//! re-execution scales poorly.

use elsq_cpu::config::CpuConfig;
use elsq_cpu::result::SimResult;
use elsq_stats::report::{Cell, ExperimentParams, Report, Table};
use elsq_workload::suite::WorkloadClass;

use crate::driver::RunCtx;
use crate::experiments::Experiment;
use crate::scenario::{run_plan, SweepPlan};

/// Figure 10 as a registered [`Experiment`].
pub struct Fig10;

impl Experiment for Fig10 {
    fn id(&self) -> &'static str {
        "fig10"
    }

    fn title(&self) -> &'static str {
        "Figure 10: SVW load re-execution vs SSBF size"
    }

    fn default_params(&self) -> ExperimentParams {
        ExperimentParams::sweep()
    }

    fn plan(&self) -> SweepPlan {
        plan()
    }

    fn run(&self, ctx: &RunCtx, params: &ExperimentParams) -> Report {
        Report::new(self.id(), self.title(), *params).with_table(run(ctx, params))
    }
}

/// SSBF widths swept by the figure.
pub const SSBF_BITS: [u32; 3] = [12, 10, 8];

/// One measured point of the figure.
#[derive(Debug, Clone)]
pub struct SvwPoint {
    /// Whether the FMC (large window) or the OoO-64 processor was used.
    pub large_window: bool,
    /// SSBF index bits.
    pub ssbf_bits: u32,
    /// CheckStores (true) or Blind (false).
    pub check_stores: bool,
    /// Workload class.
    pub class: WorkloadClass,
    /// IPC relative to the same processor with an associative load queue.
    pub relative_ipc: f64,
    /// Load re-executions per 100 M committed instructions.
    pub reexecutions_per_100m: u64,
}

fn processor_name(large_window: bool) -> &'static str {
    if large_window {
        "FMC"
    } else {
        "OoO-64"
    }
}

fn baseline_label(large_window: bool) -> String {
    format!("{} baseline", processor_name(large_window))
}

fn svw_label(large_window: bool, check_stores: bool, bits: u32) -> String {
    format!(
        "{} {} {bits}b",
        processor_name(large_window),
        if check_stores { "CheckStores" } else { "Blind" }
    )
}

/// The Figure 10 grid: for each processor (OoO-64 and FMC) and suite, the
/// associative-LQ baseline plus every `(variant, SSBF width)` combination.
pub fn plan() -> SweepPlan {
    let mut plan = SweepPlan::new("fig10");
    for large_window in [false, true] {
        for class in [WorkloadClass::Int, WorkloadClass::Fp] {
            let baseline_cfg = if large_window {
                CpuConfig::fmc_hash(true)
            } else {
                CpuConfig::ooo64()
            };
            plan.push(baseline_label(large_window), baseline_cfg, class);
            for check_stores in [true, false] {
                for bits in SSBF_BITS {
                    let cfg = if large_window {
                        CpuConfig::fmc_hash_svw(bits, check_stores)
                    } else {
                        CpuConfig::ooo64_svw(bits, check_stores)
                    };
                    plan.push(svw_label(large_window, check_stores, bits), cfg, class);
                }
            }
        }
    }
    plan
}

/// Measures every point of Figure 10.
pub fn measure(ctx: &RunCtx, params: &ExperimentParams) -> Vec<SvwPoint> {
    let results = run_plan(ctx, &plan(), params, |_| {});
    let mut points = Vec::new();
    for large_window in [false, true] {
        for class in [WorkloadClass::Int, WorkloadClass::Fp] {
            let baseline = results.mean_ipc(&baseline_label(large_window), class);
            for check_stores in [true, false] {
                for bits in SSBF_BITS {
                    let suite = results.suite(&svw_label(large_window, check_stores, bits), class);
                    let ipc = SimResult::mean_ipc(suite);
                    let mean = SimResult::mean_lsq_per_100m(suite);
                    points.push(SvwPoint {
                        large_window,
                        ssbf_bits: bits,
                        check_stores,
                        class,
                        relative_ipc: ipc / baseline,
                        reexecutions_per_100m: mean.load_reexecutions,
                    });
                }
            }
        }
    }
    points
}

/// Renders the Figure 10 table.
pub fn run(ctx: &RunCtx, params: &ExperimentParams) -> Table {
    let mut table = Table::new(
        "Figure 10: SVW re-execution vs SSBF size",
        &[
            "processor",
            "suite",
            "variant",
            "SSBF bits",
            "relative IPC",
            "re-execs / 100M",
        ],
    );
    for p in measure(ctx, params) {
        table.row_cells(vec![
            Cell::text(if p.large_window { "FMC" } else { "OoO-64" }),
            Cell::text(p.class.to_string()),
            Cell::text(if p.check_stores {
                "CheckStores"
            } else {
                "Blind"
            }),
            Cell::int(u64::from(p.ssbf_bits)),
            Cell::f(p.relative_ipc),
            Cell::millions(p.reexecutions_per_100m),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svw_points_are_structurally_sound() {
        let params = crate::driver::ExperimentParams {
            commits: 3_000,
            seed: 3,
            sample: None,
        };
        let points = measure(&RunCtx::new(2), &params);
        assert_eq!(points.len(), 2 * 2 * 2 * SSBF_BITS.len());
        // Removing the associative load queue never speeds the processor up
        // by more than measurement noise.
        for p in &points {
            assert!(
                p.relative_ipc <= 1.1,
                "SVW point {p:?} unexpectedly faster than the associative-LQ baseline"
            );
        }
        // The blind variant on the large window re-executes loads.
        let blind_fmc: u64 = points
            .iter()
            .filter(|p| p.large_window && !p.check_stores)
            .map(|p| p.reexecutions_per_100m)
            .sum();
        assert!(blind_fmc > 0, "expected some re-executions on the FMC");
    }
}
