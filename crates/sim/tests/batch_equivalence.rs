//! Property tests pinning the batched-simulation exactness claim.
//!
//! [`elsq_sim::driver::run_points`] captures each workload's correct-path
//! stream once per batch and fans it out read-only to every configuration
//! in the batch. The whole optimization rests on one invariant: **how
//! points are grouped into batches, and how many workers run them, must
//! never change a single byte of any result**. These tests partition random
//! grids into arbitrary batch shapes (singletons, pairs, fours — including
//! the degenerate all-singleton partition), run them at 1, 2, 4 or 6
//! workers, and require the assembled results to serialize identically to
//! a point-at-a-time reference loop that lives here, in the test: the
//! generators driven straight into `Processor::run` / `run_sampled`.

use elsq_cpu::config::CpuConfig;
use elsq_cpu::pipeline::Processor;
use elsq_cpu::result::SimResult;
use elsq_sim::driver::{run_points, ExperimentParams, RunCtx};
use elsq_sim::scenario::{apply_axis, named_config, run_plan, SweepPlan, BASE_CONFIGS};
use elsq_stats::sampling::SamplingSpec;
use elsq_workload::suite::{suite, WorkloadClass};
use proptest::prelude::*;

const WORKERS: [usize; 4] = [1, 2, 4, 6];

/// A randomized configuration: a named base with `rob` and `issue`
/// mutations, mirroring what an ad-hoc `--axis` grid produces.
fn random_config(base_pick: u64, rob: u64, issue: u64) -> CpuConfig {
    let base = BASE_CONFIGS[(base_pick % BASE_CONFIGS.len() as u64) as usize];
    let mut config = named_config(base).expect("named base resolves");
    apply_axis(&mut config, "rob", &rob.to_string()).expect("rob axis applies");
    apply_axis(&mut config, "issue", &issue.to_string()).expect("issue axis applies");
    config
}

/// Full or sampled run parameters.
fn params(commits: u64, seed: u64, sampled: bool) -> ExperimentParams {
    ExperimentParams {
        commits,
        seed,
        sample: sampled.then(|| SamplingSpec::parse("20:6:4").expect("valid spec")),
    }
}

/// The reference: one point, one workload at a time, on this thread.
fn reference(config: CpuConfig, class: WorkloadClass, params: &ExperimentParams) -> Vec<SimResult> {
    suite(class, params.seed)
        .into_iter()
        .map(|mut workload| {
            let mut cpu = Processor::new(config);
            match params.sample {
                Some(spec) => cpu.run_sampled(workload.as_mut(), params.commits, spec),
                None => cpu.run(workload.as_mut(), params.commits),
            }
        })
        .collect()
}

/// The byte-level identity used everywhere the claim matters: reports and
/// cache point files are serialized JSON, so "identical results" means
/// identical serialization, not just `PartialEq`.
fn bytes(results: &[Vec<SimResult>]) -> String {
    serde_json::to_string(&results.to_vec()).expect("results serialize")
}

proptest! {
    /// Any partition of a point list into batch groups — sizes drawn from
    /// {1, 2, 4}, in any order — at any worker count produces results
    /// byte-identical to the point-at-a-time reference.
    #[test]
    fn any_batch_partition_matches_point_at_a_time(
        shapes in proptest::collection::vec((0u64..64, 16u64..192, 1u64..5), 1..4),
        chunk_picks in proptest::collection::vec(0usize..3, 1..6),
        run in (40u64..90, 0u64..32, 0u64..2, 0u64..2),
        workers in 0usize..4,
    ) {
        let (commits, seed, class_pick, sampled) = run;
        let class = if class_pick == 0 { WorkloadClass::Fp } else { WorkloadClass::Int };
        let params = params(commits, seed, sampled == 1);
        let ctx = RunCtx::new(WORKERS[workers]);
        let points: Vec<(String, CpuConfig)> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(base, rob, issue))| (format!("p{i}"), random_config(base, rob, issue)))
            .collect();
        let expected: Vec<Vec<SimResult>> = points
            .iter()
            .map(|(_, config)| reference(*config, class, &params))
            .collect();
        let mut batched: Vec<Vec<SimResult>> = Vec::new();
        let mut start = 0usize;
        let mut pick = 0usize;
        while start < points.len() {
            let size = [1, 2, 4][chunk_picks[pick % chunk_picks.len()]];
            pick += 1;
            let end = (start + size).min(points.len());
            let chunk: Vec<(&str, CpuConfig)> = points[start..end]
                .iter()
                .map(|(label, config)| (label.as_str(), *config))
                .collect();
            batched.extend(run_points(&ctx, &chunk, class, &params).into_iter().map(|o| o.unwrap()));
            start = end;
        }
        prop_assert_eq!(
            bytes(&batched),
            bytes(&expected),
            "partition {:?} at {} workers changed results", chunk_picks, ctx.workers
        );
    }

    /// The plan-level wiring on top of the same invariant: [`run_plan`]
    /// (class-grouped batching) agrees byte-for-byte with the reference on
    /// mixed-class plans at any worker count.
    #[test]
    fn run_plan_matches_the_point_at_a_time_reference(
        shapes in proptest::collection::vec((0u64..64, 16u64..192, 1u64..5), 1..3),
        run in (40u64..90, 0u64..32, 0u64..2),
        workers in 0usize..4,
    ) {
        let (commits, seed, sampled) = run;
        let params = params(commits, seed, sampled == 1);
        let mut plan = SweepPlan::new("batch-prop");
        for (i, &(base, rob, issue)) in shapes.iter().enumerate() {
            let config = random_config(base, rob, issue);
            plan.push(format!("p{i}"), config, WorkloadClass::Fp);
            plan.push(format!("p{i}"), config, WorkloadClass::Int);
        }
        let results = run_plan(&RunCtx::new(WORKERS[workers]), &plan, &params, |_| {});
        for point in &plan.points {
            prop_assert_eq!(
                bytes(&[results.suite(&point.label, point.class).to_vec()]),
                bytes(&[reference(point.config, point.class, &params)]),
                "plan point {} ({}) diverged", point.label, point.class
            );
        }
    }
}
