//! Experiment harness reproducing every table and figure of the ELSQ paper.
//!
//! Each experiment module mirrors one piece of the evaluation (Section 5 and
//! 6 of the paper) and produces [`elsq_stats::Table`]s whose rows follow the
//! same layout as the corresponding figure or table:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`experiments::fig1`] | Figure 1 — decode→address-calculation distance distributions |
//! | [`experiments::tuning`] | Section 5.2 — epoch / LSQ sizing study |
//! | [`experiments::fig7`] | Figure 7 — speed-up of large-window LSQ schemes over OoO-64 |
//! | [`experiments::fig8`] | Figure 8 — ERT filter accuracy and L1 sensitivity |
//! | [`experiments::fig9`] | Figure 9 — restricted disambiguation models |
//! | [`experiments::fig10`] | Figure 10 — SVW re-execution vs SSBF size |
//! | [`experiments::fig11`] | Figure 11 — LL-LSQ inactivity vs L2 size |
//! | [`experiments::table2`] | Table 2 — structure access counts |
//! | [`experiments::energy`] | Section 6 — per-access energy comparison |
//!
//! Experiments implement the [`experiments::Experiment`] trait and register
//! in [`experiments::registry`]; the `elsq-lab` CLI (crate `elsq-bench`)
//! lists and runs them by id. The [`driver`] module runs processor
//! configurations over a full workload suite — fanning the independent
//! `(config, workload)` pairs out across cores through the work-stealing
//! scheduler in [`pool`] — and the experiments average the results with
//! the arithmetic mean, matching the paper's methodology. Every run takes
//! a [`RunCtx`]: the workload source, the result cache and the worker
//! budget, passed explicitly.
//!
//! # Example
//!
//! ```
//! use elsq_sim::driver::{run_points, ExperimentParams, RunCtx};
//! use elsq_cpu::config::CpuConfig;
//! use elsq_workload::suite::WorkloadClass;
//!
//! let ctx = RunCtx::new(2); // generators, no cache, two workers per level
//! let params = ExperimentParams::quick();
//! let outcomes = run_points(&ctx, &[("ooo64", CpuConfig::ooo64())], WorkloadClass::Int, &params);
//! assert_eq!(outcomes[0].results().unwrap().len(), 6);
//!
//! // Or run a registered experiment end to end:
//! let fig9 = elsq_sim::experiments::find("fig9").unwrap();
//! let report = elsq_sim::experiments::run_experiment(&ctx, fig9, &params);
//! assert_eq!(report.id, "fig9");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod experiments;
pub mod fault;
pub mod pool;
pub mod scenario;
pub mod store;
pub mod suite;

pub use driver::{capture_class_suite, run_points, ExperimentParams, RunCtx};
pub use experiments::{find, registry, run_experiment, run_experiments, Experiment};
pub use fault::{install_fault_plan, FaultAction, FaultPlan, FaultPlanGuard, FaultSpec};
pub use scenario::{
    run_plan, sweep_report, PlanPoint, PlanResults, PointKey, PointOutcome, ScenarioSpec, SweepPlan,
};
pub use store::ResultStore;
pub use suite::{evaluate, CheckOutcome, Status, Suite, SuiteOutcome, SuiteTarget};
