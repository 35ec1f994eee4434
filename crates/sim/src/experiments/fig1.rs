//! Figure 1 — decode→address-calculation distance distributions.
//!
//! The paper plots, for SPEC FP and SPEC INT separately, how many loads and
//! stores calculate their address N cycles after decode (30-cycle bins) on a
//! large-window processor, and notes that ~91 % of loads and ~93 % of stores
//! do so within 30 cycles while a long tail stretches to beyond 1000 cycles
//! for miss-dependent address calculations.

use elsq_cpu::config::CpuConfig;
use elsq_cpu::result::Histogram;
use elsq_stats::report::{Cell, ExperimentParams, Report, Table};
use elsq_workload::suite::WorkloadClass;

use crate::driver::RunCtx;
use crate::experiments::Experiment;
use crate::scenario::{run_plan, SweepPlan};

/// Figure 1 as a registered [`Experiment`]: the summary table plus the raw
/// per-class histograms (the series a plot of the figure needs).
pub struct Fig1;

impl Experiment for Fig1 {
    fn id(&self) -> &'static str {
        "fig1"
    }

    fn title(&self) -> &'static str {
        "Figure 1: decode -> address calculation distance distributions"
    }

    fn plan(&self) -> SweepPlan {
        plan()
    }

    fn run(&self, ctx: &RunCtx, params: &ExperimentParams) -> Report {
        let dists = measure(ctx, params);
        let mut report =
            Report::new(self.id(), self.title(), *params).with_table(summary_table(&dists));
        for dist in dists {
            let mut t = Table::new(
                format!("{} histogram (30-cycle bins)", dist.class),
                &["bin_start", "loads", "stores"],
            );
            for (i, (l, s)) in dist
                .loads
                .bins()
                .iter()
                .zip(dist.stores.bins().iter())
                .enumerate()
            {
                t.row_cells(vec![
                    Cell::int(i as u64 * dist.loads.bin_width()),
                    Cell::int(*l),
                    Cell::int(*s),
                ]);
            }
            report.push_table(t);
        }
        report
    }
}

/// Summary of one class's distributions.
#[derive(Debug, Clone)]
pub struct LocalityDistribution {
    /// Workload class.
    pub class: WorkloadClass,
    /// Load distance histogram (merged over the suite).
    pub loads: Histogram,
    /// Store distance histogram (merged over the suite).
    pub stores: Histogram,
}

/// Label of the figure's single measured configuration.
const CONFIG_LABEL: &str = "FMC-Hash";

/// The Figure 1 grid: the large-window FMC processor over both suites.
pub fn plan() -> SweepPlan {
    let mut plan = SweepPlan::new("fig1");
    for class in [WorkloadClass::Fp, WorkloadClass::Int] {
        plan.push(CONFIG_LABEL, CpuConfig::fmc_hash(true), class);
    }
    plan
}

/// Runs the Figure 1 measurement on the large-window (FMC) processor.
pub fn measure(ctx: &RunCtx, params: &ExperimentParams) -> Vec<LocalityDistribution> {
    let results = run_plan(ctx, &plan(), params, |_| {});
    [WorkloadClass::Fp, WorkloadClass::Int]
        .into_iter()
        .map(|class| {
            let mut loads = Histogram::figure1();
            let mut stores = Histogram::figure1();
            for r in results.suite(CONFIG_LABEL, class) {
                loads.merge(&r.load_addr_hist);
                stores.merge(&r.store_addr_hist);
            }
            LocalityDistribution {
                class,
                loads,
                stores,
            }
        })
        .collect()
}

/// Renders the Figure 1 summary table (first-bin coverage and the 95 %/99 %
/// distances for loads and stores in each class).
pub fn run(ctx: &RunCtx, params: &ExperimentParams) -> Table {
    summary_table(&measure(ctx, params))
}

/// The summary table over already-measured distributions.
fn summary_table(dists: &[LocalityDistribution]) -> Table {
    let mut table = Table::new(
        "Figure 1: decode -> address calculation distance",
        &[
            "suite",
            "kind",
            "<=30 cycles",
            "95% within",
            "99% within",
            "samples",
        ],
    );
    for dist in dists {
        for (kind, hist) in [("loads", &dist.loads), ("stores", &dist.stores)] {
            table.row_cells(vec![
                Cell::text(dist.class.to_string()),
                Cell::text(kind),
                Cell::f(hist.first_bin_fraction()),
                Cell::int(hist.percentile(0.95)),
                Cell::int(hist.percentile(0.99)),
                Cell::int(hist.total()),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::tiny_params;

    #[test]
    fn distributions_show_execution_locality() {
        let dists = measure(&RunCtx::new(2), &tiny_params());
        assert_eq!(dists.len(), 2);
        for d in &dists {
            // The overwhelming majority of address calculations happen soon
            // after decode — the core observation behind execution locality.
            assert!(
                d.loads.first_bin_fraction() > 0.3,
                "{}: load first-bin fraction {}",
                d.class,
                d.loads.first_bin_fraction()
            );
            assert!(d.stores.first_bin_fraction() > 0.4);
            assert!(d.loads.total() > 0 && d.stores.total() > 0);
        }
    }

    #[test]
    fn table_has_four_rows() {
        let t = run(&RunCtx::new(2), &tiny_params());
        assert_eq!(t.len(), 4);
    }
}
