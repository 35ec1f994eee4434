//! Acceptance pins for the scenario-sweep cache (ISSUE 5):
//!
//! * a sweep interrupted after k of n points resumes computing only n−k,
//! * a repeated identical sweep performs zero simulations,
//! * and in both cases the merged report is byte-identical to an uncached
//!   run.
//!
//! The tests drive the driver-level API directly (a [`RunCtx`] with a
//! cache + `run_plan`); the `elsq-lab sweep` CLI pins the same properties at the
//! command level in `crates/bench/src/cli.rs`, and CI repeats them end to
//! end on a real process boundary.

use std::path::PathBuf;
use std::sync::Arc;

use elsq_cpu::result::SimResult;
use elsq_sim::driver::RunCtx;
use elsq_sim::scenario::{run_plan, ScenarioSpec, SweepPlan};
use elsq_sim::store::ResultStore;
use elsq_sim::ExperimentParams;
use elsq_stats::report::Report;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elsq-sweep-cache-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A small 2×2(×class) grid, expanded from a declarative spec exactly like
/// `elsq-lab sweep --axis rob=48,64 --axis sqm=on,off` would build it.
fn demo_spec() -> ScenarioSpec {
    let spec_json = r#"{
        "name": "pin",
        "base": "fmc-hash",
        "axes": [
            { "name": "rob", "values": ["48", "64"] },
            { "name": "sqm", "values": ["on", "off"] }
        ],
        "classes": ["fp"],
        "params": { "commits": 600, "seed": 7 }
    }"#;
    serde_json::from_str(spec_json).expect("inline scenario parses")
}

fn plan_and_params() -> (SweepPlan, ExperimentParams) {
    let spec = demo_spec();
    let plan = spec.expand().expect("demo spec expands");
    (plan, spec.params)
}

/// A two-worker context answering from `store` (`None`: no cache).
fn ctx(store: Option<&Arc<ResultStore>>) -> RunCtx {
    RunCtx {
        cache: store.cloned(),
        ..RunCtx::new(2)
    }
}

/// Runs the plan and returns per-point mean IPCs (a compact, fully
/// value-bearing digest of the results).
fn run_ipcs(ctx: &RunCtx, plan: &SweepPlan, params: &ExperimentParams) -> Vec<f64> {
    run_plan(ctx, plan, params, |_| {})
        .iter()
        .map(|(_, suite)| SimResult::mean_ipc(suite))
        .collect()
}

#[test]
fn repeated_identical_sweep_performs_zero_simulations() {
    let (plan, params) = plan_and_params();
    let dir = tmp_dir("repeat");

    let uncached = run_ipcs(&ctx(None), &plan, &params);

    let first_store = Arc::new(ResultStore::open(&dir, false).unwrap());
    let first = run_ipcs(&ctx(Some(&first_store)), &plan, &params);
    assert_eq!(first_store.hits(), 0);
    assert_eq!(
        first_store.misses(),
        plan.len() as u64,
        "fresh cache misses all"
    );
    // Release the store (and its advisory writer lock) before reopening.
    drop(first_store);

    // Second identical sweep: zero simulations — every point is a hit.
    let second_store = Arc::new(ResultStore::open(&dir, true).unwrap());
    let second = run_ipcs(&ctx(Some(&second_store)), &plan, &params);
    assert_eq!(
        second_store.misses(),
        0,
        "a repeated sweep must not simulate"
    );
    assert_eq!(second_store.hits(), plan.len() as u64);

    // Cached, resumed and uncached sweeps agree bit-for-bit.
    assert_eq!(first, uncached);
    assert_eq!(second, uncached);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn interrupted_sweep_resumes_computing_only_the_missing_points() {
    let (plan, params) = plan_and_params();
    let n = plan.len();
    let k = 2;
    assert!(k < n);
    let dir = tmp_dir("interrupt");

    // "Interrupt" after k points: run a truncated plan into the cache.
    let mut partial = SweepPlan::new(plan.name.clone());
    partial.axes = plan.axes.clone();
    partial.points = plan.points[..k].to_vec();
    let store = Arc::new(ResultStore::open(&dir, false).unwrap());
    run_plan(&ctx(Some(&store)), &partial, &params, |_| {});
    assert_eq!(
        store.len(),
        k,
        "k points were cached before the interruption"
    );
    // Release the store (and its advisory writer lock) before reopening.
    drop(store);

    // Resume the full sweep: exactly n−k points simulate.
    let resumed_store = Arc::new(ResultStore::open(&dir, true).unwrap());
    let resumed = run_ipcs(&ctx(Some(&resumed_store)), &plan, &params);
    assert_eq!(resumed_store.hits(), k as u64);
    assert_eq!(
        resumed_store.misses(),
        (n - k) as u64,
        "resume must only compute the missing points"
    );
    assert_eq!(resumed_store.len(), n);

    // The merged (cached + fresh) results equal an uncached run.
    assert_eq!(resumed, run_ipcs(&ctx(None), &plan, &params));
    std::fs::remove_dir_all(&dir).ok();
}

/// The refactored figure experiments run through the same cache: a cached
/// re-run of a registered experiment produces a byte-identical report and
/// performs zero simulations.
#[test]
fn cached_experiment_reports_are_byte_identical() {
    let params = ExperimentParams {
        commits: 600,
        seed: 7,
        sample: None,
    };
    let experiment = elsq_sim::find("fig7").expect("fig7 is registered");
    let dir = tmp_dir("experiment");

    let fresh: Report = experiment.run(&ctx(None), &params);
    let store = Arc::new(ResultStore::open(&dir, false).unwrap());
    let cached_ctx = ctx(Some(&store));
    let populated = experiment.run(&cached_ctx, &params);
    let cached = experiment.run(&cached_ctx, &params);
    assert_eq!(store.misses(), experiment.plan().len() as u64);
    assert_eq!(
        serde_json::to_string(&populated).unwrap(),
        serde_json::to_string(&fresh).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&cached).unwrap(),
        serde_json::to_string(&fresh).unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}
