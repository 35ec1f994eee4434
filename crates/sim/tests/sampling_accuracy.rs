//! Accuracy and determinism pins for SMARTS-style sampled simulation.
//!
//! Three claims carry the whole feature:
//!
//! 1. **Accuracy** — the sampled mean IPC lands inside the 95% confidence
//!    interval the run itself reports, measured against the full detailed
//!    run of the same stream.
//! 2. **Determinism** — a sampled sweep serializes byte-identically across
//!    repeats and across worker-thread counts (the report is cache- and
//!    CI-diffable exactly like a full sweep).
//! 3. **Isolation** — sampled and full runs of the same point never share
//!    a cache entry, in either direction.
//!
//! The structural-speedup pin runs a million-instruction stream with a 1%
//! detailed window and bounds the simulated cycles against what the full
//! detailed run would have to spend.

use elsq_cpu::config::CpuConfig;
use elsq_cpu::pipeline::Processor;
use elsq_sim::driver::RunCtx;
use elsq_sim::scenario::{run_plan, sweep_report, Axis, ScenarioSpec};
use elsq_sim::store::ResultStore;
use elsq_stats::report::ExperimentParams;
use elsq_stats::sampling::SamplingSpec;
use elsq_workload::pointer::PointerChaseInt;
use elsq_workload::streaming::StreamingFp;
use elsq_workload::suite::WorkloadClass;

/// The accuracy claim, per workload: run the full detailed reference, run
/// the sampled estimate, and require the reference IPC to fall inside the
/// sampled run's own reported 95% confidence interval.
fn assert_sampled_ipc_covers_full_run(
    label: &str,
    full: &mut dyn elsq_isa::TraceSource,
    sampled: &mut dyn elsq_isa::TraceSource,
) {
    const TOTAL: u64 = 60_000;
    // Pointer-chasing workloads need a long functional warm-up before each
    // window or the cold cache state after fast-forward biases IPC low.
    let spec = SamplingSpec::new(2_000, 200, 1_500).expect("valid spec");
    let reference = Processor::new(CpuConfig::ooo64()).run(full, TOTAL);
    let reference_ipc = reference.sim.committed as f64 / reference.sim.cycles as f64;
    let estimate = Processor::new(CpuConfig::ooo64()).run_sampled(sampled, TOTAL, spec);
    let stats = estimate
        .sampling
        .as_ref()
        .expect("sampled run records stats");
    assert_eq!(stats.window_count(), 30, "{label}: one window per period");
    let (mean, half_width) = (stats.mean_ipc(), stats.ci95_half_width());
    // Tiny slack (0.5% of the reference IPC) over the interval keeps the
    // pin from hinging on the reference's own cold-start transient, which
    // is not sampling error.
    let tolerance = half_width + reference_ipc * 0.005;
    assert!(
        (mean - reference_ipc).abs() <= tolerance,
        "{label}: sampled IPC {mean:.4} ±{half_width:.4} misses full-run IPC {reference_ipc:.4}"
    );
}

#[test]
fn sampled_mean_ipc_is_within_the_reported_ci_of_the_full_run() {
    assert_sampled_ipc_covers_full_run(
        "swim-like fp",
        &mut StreamingFp::swim_like(1),
        &mut StreamingFp::swim_like(1),
    );
    assert_sampled_ipc_covers_full_run(
        "mcf-like int",
        &mut PointerChaseInt::mcf_like(3),
        &mut PointerChaseInt::mcf_like(3),
    );
}

/// The speedup claim, pinned structurally rather than on wall-clock: a
/// million-instruction stream sampled at 1% detail covers (nearly) the
/// whole stream while simulating at most a tenth of the cycles the full
/// detailed run would need at the observed IPC.
#[test]
fn million_inst_sampled_run_covers_the_stream_at_a_tenth_of_the_cycles() {
    const TOTAL: u64 = 1_000_000;
    let spec = SamplingSpec::new(10_000, 100, 50).expect("valid spec");
    let result =
        Processor::new(CpuConfig::ooo64()).run_sampled(&mut StreamingFp::swim_like(9), TOTAL, spec);
    let stats = result.sampling.as_ref().expect("sampled run records stats");
    let covered = result.sim.committed + stats.skipped + stats.warmed;
    assert!(
        covered >= TOTAL - spec.period,
        "covered only {covered} of {TOTAL} instructions"
    );
    // A full detailed run commits TOTAL instructions at roughly the
    // sampled IPC, so it needs ~TOTAL/IPC cycles; the sampled run must
    // spend less than a tenth of that.
    let full_cycles_estimate = TOTAL as f64 / stats.mean_ipc();
    assert!(
        (result.sim.cycles as f64) * 10.0 < full_cycles_estimate,
        "sampled run spent {} cycles, full run would spend ~{:.0}",
        result.sim.cycles,
        full_cycles_estimate
    );
}

/// A two-point FP sweep under sampling, as the determinism and cache
/// tests run it.
fn sampled_scenario() -> ScenarioSpec {
    ScenarioSpec {
        name: "sampling-acc".to_owned(),
        base: "fmc-hash-sqm".to_owned(),
        axes: vec![Axis {
            name: "rob".to_owned(),
            values: vec!["48".to_owned(), "64".to_owned()],
        }],
        classes: vec![WorkloadClass::Fp],
        params: ExperimentParams {
            commits: 2_000,
            seed: 7,
            sample: Some(SamplingSpec::new(500, 100, 50).expect("valid spec")),
        },
    }
}

/// Renders the sweep of [`sampled_scenario`] on `workers` threads to its
/// canonical JSON bytes.
fn sampled_sweep_json(workers: usize) -> String {
    let spec = sampled_scenario();
    let plan = spec.expand().expect("scenario expands");
    let results = run_plan(&RunCtx::new(workers), &plan, &spec.params, |_| {});
    assert!(results.failed().is_empty(), "sweep points must not fail");
    serde_json::to_string_pretty(&sweep_report(&spec, &plan, &results)).expect("reports serialize")
}

#[test]
fn sampled_sweeps_are_byte_identical_across_repeats_and_thread_counts() {
    let sequential = sampled_sweep_json(1);
    let parallel = sampled_sweep_json(4);
    let repeated = sampled_sweep_json(4);
    assert_eq!(
        sequential, parallel,
        "thread count changed the sampled report bytes"
    );
    assert_eq!(
        parallel, repeated,
        "repeating changed the sampled report bytes"
    );
    // The sampled cells really are CI cells, not plain means.
    assert!(
        sequential.contains('\u{b1}'),
        "sampled report carries no ± interval: {sequential}"
    );
}

#[test]
fn sampled_and_full_runs_never_share_cache_entries() {
    let dir = std::env::temp_dir().join(format!(
        "elsq-sampling-cache-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = std::sync::Arc::new(ResultStore::open(&dir, false).expect("store opens"));
    let ctx = RunCtx {
        cache: Some(std::sync::Arc::clone(&store)),
        ..RunCtx::new(2)
    };
    let spec = sampled_scenario();
    let plan = spec.expand().expect("scenario expands");
    // Fresh sampled run: every point is a miss.
    run_plan(&ctx, &plan, &spec.params, |_| {});
    assert_eq!((store.hits(), store.misses()), (0, 2));
    // The *full* run of the identical grid must not alias a single sampled
    // entry — it misses and simulates from scratch.
    let full_params = ExperimentParams {
        sample: None,
        ..spec.params
    };
    run_plan(&ctx, &plan, &full_params, |_| {});
    assert_eq!((store.hits(), store.misses()), (0, 4));
    // Re-running the sampled sweep answers entirely from disk.
    run_plan(&ctx, &plan, &spec.params, |_| {});
    assert_eq!((store.hits(), store.misses()), (2, 4));
    assert_eq!(store.len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}
