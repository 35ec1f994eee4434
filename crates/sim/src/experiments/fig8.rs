//! Figure 8 — global-disambiguation filter accuracy and L1 sensitivity.
//!
//! * (a) false-positive remote searches per 100 M instructions as a function
//!   of the hash-ERT index width (6–16 bits) and for the line-based ERT,
//!   together with the estimated hardware budget;
//! * (b, c) relative performance of the line-based and hash-based ERT as the
//!   L1 size (32 / 64 KB) and associativity (1–8 ways) change — the
//!   line-based filter needs enough associativity because it locks lines.

use elsq_core::config::{ElsqConfig, ErtKind};
use elsq_cpu::config::CpuConfig;
use elsq_stats::report::{Cell, ExperimentParams, Report, Table};
use elsq_workload::suite::WorkloadClass;

use crate::driver::RunCtx;
use crate::experiments::Experiment;
use crate::scenario::{run_plan, SweepPlan};

/// Figure 8a (filter accuracy vs hardware budget) as a registered
/// [`Experiment`].
pub struct Fig8a;

impl Experiment for Fig8a {
    fn id(&self) -> &'static str {
        "fig8a"
    }

    fn title(&self) -> &'static str {
        "Figure 8a: ERT false positives vs filter size"
    }

    fn default_params(&self) -> ExperimentParams {
        ExperimentParams::sweep()
    }

    fn plan(&self) -> SweepPlan {
        accuracy_plan()
    }

    fn run(&self, ctx: &RunCtx, params: &ExperimentParams) -> Report {
        Report::new(self.id(), self.title(), *params).with_table(run_accuracy(ctx, params))
    }
}

/// Figure 8b/8c (L1 geometry sensitivity of the two filters) as a
/// registered [`Experiment`].
pub struct Fig8bc;

impl Experiment for Fig8bc {
    fn id(&self) -> &'static str {
        "fig8bc"
    }

    fn title(&self) -> &'static str {
        "Figure 8b/8c: line vs hash ERT across L1 geometries"
    }

    fn default_params(&self) -> ExperimentParams {
        ExperimentParams::sweep()
    }

    fn plan(&self) -> SweepPlan {
        let mut plan = SweepPlan::new("fig8bc");
        for class in [WorkloadClass::Fp, WorkloadClass::Int] {
            plan.points.extend(sensitivity_plan(class).points);
        }
        plan
    }

    fn run(&self, ctx: &RunCtx, params: &ExperimentParams) -> Report {
        let mut report = Report::new(self.id(), self.title(), *params);
        for class in [WorkloadClass::Fp, WorkloadClass::Int] {
            report.push_table(run_cache_sensitivity(ctx, class, params));
        }
        report
    }
}

/// Hash widths swept in Figure 8a.
pub const HASH_BITS: [u32; 7] = [6, 8, 10, 11, 12, 14, 16];

/// The filters Figure 8a compares, with their table labels.
fn accuracy_filters() -> Vec<(String, ErtKind)> {
    HASH_BITS
        .iter()
        .map(|&bits| (format!("hash {bits} bits"), ErtKind::Hash { bits }))
        .chain(std::iter::once(("line-based".to_owned(), ErtKind::Line)))
        .collect()
}

fn filter_config(ert: ErtKind) -> CpuConfig {
    CpuConfig::fmc_elsq(ElsqConfig::default().with_ert(ert).with_sqm(false))
}

/// The Figure 8a grid: every filter over both suites (FP first, as the
/// figure's columns are ordered).
pub fn accuracy_plan() -> SweepPlan {
    let mut plan = SweepPlan::new("fig8a");
    for (label, ert) in accuracy_filters() {
        for class in [WorkloadClass::Fp, WorkloadClass::Int] {
            plan.push(label.clone(), filter_config(ert), class);
        }
    }
    plan
}

/// Renders Figure 8a: filter accuracy vs hardware budget.
pub fn run_accuracy(ctx: &RunCtx, params: &ExperimentParams) -> Table {
    let mut table = Table::new(
        "Figure 8a: ERT false positives per 100M instructions",
        &["filter", "budget (bytes)", "SPEC FP", "SPEC INT"],
    );
    let results = run_plan(ctx, &accuracy_plan(), params, |_| {});
    let fp_of = |label: &str, class| {
        let mean = elsq_cpu::result::SimResult::mean_lsq_per_100m(results.suite(label, class));
        mean.ert_false_positives
    };
    let l1_lines = 32 * 1024 / 32;
    for (label, kind) in accuracy_filters() {
        table.row_cells(vec![
            Cell::text(label.clone()),
            Cell::int(kind.storage_bytes(l1_lines)),
            Cell::millions(fp_of(&label, WorkloadClass::Fp)),
            Cell::millions(fp_of(&label, WorkloadClass::Int)),
        ]);
    }
    table
}

/// L1 configurations swept in Figure 8b/8c: (size KB, associativity).
pub fn l1_sweep() -> Vec<(u64, u32)> {
    let mut v = Vec::new();
    for size_kb in [32u64, 64] {
        for assoc in [1u32, 2, 4, 8] {
            v.push((size_kb, assoc));
        }
    }
    v
}

/// The two filter configurations compared at one L1 geometry: the
/// line-based ERT and the hash-based ERT sized for that L1.
fn geometry_configs(size_kb: u64, assoc: u32) -> (CpuConfig, CpuConfig) {
    let mut line_cfg = CpuConfig::fmc_line(true);
    line_cfg.hierarchy = line_cfg.hierarchy.with_l1(size_kb * 1024, assoc);
    let bits = if size_kb == 32 { 10 } else { 11 };
    let mut hash_cfg = CpuConfig::fmc_elsq(ElsqConfig::default().with_ert(ErtKind::Hash { bits }));
    hash_cfg.hierarchy = hash_cfg.hierarchy.with_l1(size_kb * 1024, assoc);
    (line_cfg, hash_cfg)
}

/// The Figure 8b/8c grid for one suite: line and hash filters at every L1
/// geometry.
fn sensitivity_plan(class: WorkloadClass) -> SweepPlan {
    let mut plan = SweepPlan::new("fig8bc");
    for (size_kb, assoc) in l1_sweep() {
        let (line_cfg, hash_cfg) = geometry_configs(size_kb, assoc);
        plan.push(format!("{size_kb}KB {assoc}-way line"), line_cfg, class);
        plan.push(format!("{size_kb}KB {assoc}-way hash"), hash_cfg, class);
    }
    plan
}

/// Renders Figure 8b (FP) or 8c (INT): relative performance of the two
/// filters as the L1 geometry changes, normalized to the best configuration.
pub fn run_cache_sensitivity(
    ctx: &RunCtx,
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Table {
    let title = match class {
        WorkloadClass::Fp => "Figure 8b: SPEC FP relative performance vs L1 geometry",
        WorkloadClass::Int => "Figure 8c: SPEC INT relative performance vs L1 geometry",
    };
    let results = run_plan(ctx, &sensitivity_plan(class), params, |_| {});
    let rows: Vec<(String, f64, f64)> = l1_sweep()
        .into_iter()
        .map(|(size_kb, assoc)| {
            (
                format!("{size_kb}KB {assoc}-way"),
                results.mean_ipc(&format!("{size_kb}KB {assoc}-way line"), class),
                results.mean_ipc(&format!("{size_kb}KB {assoc}-way hash"), class),
            )
        })
        .collect();
    let best = rows
        .iter()
        .flat_map(|(_, a, b)| [*a, *b])
        .fold(f64::MIN, f64::max);
    let mut table = Table::new(title, &["L1 config", "line-based ERT", "hash-based ERT"]);
    for (label, line, hash) in rows {
        table.row_cells(vec![
            Cell::text(label),
            Cell::f(line / best),
            Cell::f(hash / best),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_points;
    use crate::experiments::tiny_params;

    /// False positives per 100 M instructions for one filter configuration.
    fn false_positives(ert: ErtKind, class: WorkloadClass, params: &ExperimentParams) -> u64 {
        let point = [("", filter_config(ert))];
        let results = run_points(&RunCtx::new(2), &point, class, params)
            .remove(0)
            .unwrap();
        elsq_cpu::result::SimResult::mean_lsq_per_100m(&results).ert_false_positives
    }

    #[test]
    fn fewer_hash_bits_mean_more_false_positives() {
        let params = crate::driver::ExperimentParams {
            commits: 4_000,
            seed: 3,
            sample: None,
        };
        let narrow = false_positives(ErtKind::Hash { bits: 6 }, WorkloadClass::Int, &params);
        let wide = false_positives(ErtKind::Hash { bits: 16 }, WorkloadClass::Int, &params);
        assert!(
            narrow >= wide,
            "6-bit filter ({narrow}) should not beat 16-bit filter ({wide})"
        );
    }

    #[test]
    fn accuracy_table_covers_all_filters() {
        let t = run_accuracy(&RunCtx::new(2), &tiny_params());
        assert_eq!(t.len(), HASH_BITS.len() + 1);
    }

    #[test]
    fn cache_sensitivity_table_covers_the_sweep() {
        let t = run_cache_sensitivity(&RunCtx::new(2), WorkloadClass::Fp, &tiny_params());
        assert_eq!(t.len(), l1_sweep().len());
        // Values are normalized: none exceeds 1.0 by construction.
        for row in t.rows() {
            let line = row[1].value.unwrap();
            let hash = row[2].value.unwrap();
            assert!(line <= 1.0 + 1e-9 && hash <= 1.0 + 1e-9);
        }
    }
}
