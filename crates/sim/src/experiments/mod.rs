//! One module per figure/table of the paper's evaluation, unified behind
//! the [`Experiment`] trait and a static [`registry`].
//!
//! Every experiment is a unit struct implementing [`Experiment`]: a stable
//! id (`fig7`, `table2`, ...), a title, the parameter preset the paper-scale
//! run uses, and a `run` that produces a structured
//! [`Report`]. The `elsq-lab` CLI discovers
//! experiments exclusively through the registry, so adding a module +
//! registry entry is all it takes to expose a new scenario.

pub mod energy;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table2;
pub mod tuning;

use elsq_stats::report::{ExperimentParams, Report};
use elsq_workload::suite::WorkloadClass;

use crate::driver::RunCtx;
use crate::pool::parallel_map_with;
use crate::scenario::SweepPlan;

/// A named, runnable reproduction of one paper figure/table/study.
///
/// `Sync` so registry entries (`&'static dyn Experiment`) can be shared
/// across the worker threads of a multi-experiment fan-out.
pub trait Experiment: Sync {
    /// Stable identifier used on the `elsq-lab` command line (`fig7`, ...).
    fn id(&self) -> &'static str;

    /// Human-readable title (the paper artifact it reproduces).
    fn title(&self) -> &'static str;

    /// The parameter preset a paper-scale run of this experiment uses.
    /// Sweep-heavy experiments default to the reduced sweep preset.
    fn default_params(&self) -> ExperimentParams {
        ExperimentParams::standard()
    }

    /// The workload classes this experiment simulates. `elsq-lab run
    /// --trace` validates a recorded roster against exactly these classes
    /// before anything runs, so a single-suite dump works for experiments
    /// that only touch that suite. Defaults to both.
    fn classes(&self) -> &'static [WorkloadClass] {
        &[WorkloadClass::Int, WorkloadClass::Fp]
    }

    /// The experiment's configuration grid, declared as data: every
    /// `(configuration, workload class)` suite that [`Self::run`] simulates,
    /// in execution order.
    ///
    /// `elsq-lab show <id>` prints this plan so sweep authors can copy an
    /// experiment's grid into a scenario file, and `run` implementations
    /// drive it through [`crate::scenario::run_plan`] — which answers
    /// cached points from the context's
    /// [result store](crate::store::ResultStore) without simulating.
    fn plan(&self) -> SweepPlan;

    /// Runs the experiment under `ctx` and collects every table it
    /// produces.
    fn run(&self, ctx: &RunCtx, params: &ExperimentParams) -> Report;
}

/// Every registered experiment, in the paper's presentation order.
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 10] = [
        &fig1::Fig1,
        &tuning::Tuning,
        &fig7::Fig7,
        &fig8::Fig8a,
        &fig8::Fig8bc,
        &fig9::Fig9,
        &fig10::Fig10,
        &fig11::Fig11,
        &table2::Table2,
        &energy::Energy,
    ];
    &REGISTRY
}

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.id() == id)
}

/// Runs one experiment and stamps the wall-clock time into its report.
pub fn run_experiment(
    ctx: &RunCtx,
    experiment: &dyn Experiment,
    params: &ExperimentParams,
) -> Report {
    let start = std::time::Instant::now();
    let mut report = experiment.run(ctx, params);
    report.wall_time_ms = start.elapsed().as_secs_f64() * 1.0e3;
    report
}

/// Runs a batch of `(experiment, params)` jobs — in parallel on
/// `ctx.workers` threads when `parallel` is set — and returns the reports
/// in job order regardless of completion order.
pub fn run_experiments(
    ctx: &RunCtx,
    jobs: Vec<(&'static dyn Experiment, ExperimentParams)>,
    parallel: bool,
) -> Vec<Report> {
    let workers = if parallel { ctx.workers } else { 1 };
    parallel_map_with(
        jobs,
        |(experiment, params)| run_experiment(ctx, experiment, &params),
        workers,
    )
}

#[cfg(test)]
pub(crate) fn tiny_params() -> ExperimentParams {
    ExperimentParams {
        commits: 1_200,
        seed: 3,
        sample: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        let unique: HashSet<&str> = ids.iter().copied().collect();
        assert_eq!(ids.len(), unique.len(), "duplicate experiment ids");
        assert_eq!(ids.len(), 10);
        for id in ids {
            let e = find(id).expect("registered id resolves");
            assert_eq!(e.id(), id);
            assert!(!e.title().is_empty());
            assert!(e.default_params().commits > 0);
        }
        assert!(find("nonsense").is_none());
    }

    /// Every registered experiment declares a well-formed grid: non-empty,
    /// uniquely labelled, named after the experiment, and touching exactly
    /// the classes the experiment advertises (the set `--trace` validates).
    #[test]
    fn declared_plans_are_consistent_with_the_experiments() {
        for e in registry() {
            let plan = e.plan();
            assert!(!plan.is_empty(), "{} declares an empty plan", e.id());
            assert_eq!(plan.name, e.id());
            plan.assert_unique_labels();
            let planned: HashSet<WorkloadClass> = plan.points.iter().map(|p| p.class).collect();
            let advertised: HashSet<WorkloadClass> = e.classes().iter().copied().collect();
            assert_eq!(
                planned,
                advertised,
                "{}: plan classes disagree with classes()",
                e.id()
            );
        }
    }

    #[test]
    fn run_experiment_stamps_wall_time_and_metadata() {
        let params = tiny_params();
        let e = find("tuning").unwrap();
        let report = run_experiment(&RunCtx::new(2), e, &params);
        assert_eq!(report.id, "tuning");
        assert_eq!(report.params, params);
        assert!(report.wall_time_ms > 0.0);
        assert!(!report.tables.is_empty());
    }

    #[test]
    fn parallel_and_sequential_experiment_batches_match() {
        let params = ExperimentParams {
            commits: 800,
            seed: 3,
            sample: None,
        };
        let jobs = || {
            vec![
                (find("tuning").unwrap(), params),
                (find("fig9").unwrap(), params),
            ]
        };
        let ctx = RunCtx::new(2);
        let parallel: Vec<_> = run_experiments(&ctx, jobs(), true)
            .into_iter()
            .map(Report::without_wall_time)
            .collect();
        let sequential: Vec<_> = run_experiments(&ctx, jobs(), false)
            .into_iter()
            .map(Report::without_wall_time)
            .collect();
        assert_eq!(parallel, sequential);
    }
}
