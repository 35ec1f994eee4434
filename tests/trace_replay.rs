//! Record/replay determinism: a generator suite dumped to `.etrc` files and
//! replayed as a run context's workload source must reproduce the
//! generator-driven results byte-for-byte at any worker count, and
//! contexts with different sources and stores must not see each other.

use std::path::PathBuf;
use std::sync::Arc;

use elsq::elsq_cpu::config::CpuConfig;
use elsq::elsq_cpu::pipeline::Processor;
use elsq::elsq_cpu::result::SimResult;
use elsq::elsq_sim::driver::{run_points, ExperimentParams, RunCtx};
use elsq::elsq_sim::scenario::{run_plan, SweepPlan};
use elsq::elsq_sim::store::ResultStore;
use elsq::elsq_workload::suite::{suite, TraceRoster, WorkloadClass};

fn dump_suites(dir: &std::path::Path, seed: u64, insts: u64) {
    std::fs::create_dir_all(dir).unwrap();
    for class in [WorkloadClass::Fp, WorkloadClass::Int] {
        for (slot, mut workload) in suite(class, seed).into_iter().enumerate() {
            let name = format!("{}-{slot}-{}.etrc", class.key(), workload.name());
            let file = std::fs::File::create(dir.join(name)).unwrap();
            elsq::elsq_isa::etrc::record(
                workload.as_mut(),
                insts,
                seed,
                class.suite_tag(),
                Some(slot as u8),
                std::io::BufWriter::new(file),
            )
            .unwrap();
        }
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elsq-replay-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A context replaying `roster` on `workers` threads.
fn replay_ctx(roster: &Arc<TraceRoster>, workers: usize) -> RunCtx {
    RunCtx {
        source: Some(Arc::clone(roster)),
        ..RunCtx::new(workers)
    }
}

fn one(
    ctx: &RunCtx,
    config: CpuConfig,
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Vec<SimResult> {
    run_points(ctx, &[("", config)], class, params)
        .remove(0)
        .unwrap()
}

#[test]
fn recorded_replay_matches_generator_run_on_every_driver_path() {
    let params = ExperimentParams {
        commits: 900,
        seed: 13,
        sample: None,
    };
    let dir = tmp_dir("driver");
    dump_suites(&dir, params.seed, params.commits);
    let roster = Arc::new(TraceRoster::from_dir(&dir, 2).unwrap());

    for config in [CpuConfig::ooo64(), CpuConfig::fmc_hash(true)] {
        for class in [WorkloadClass::Fp, WorkloadClass::Int] {
            let generated: Vec<SimResult> = suite(class, params.seed)
                .into_iter()
                .map(|mut w| Processor::new(config).run(w.as_mut(), params.commits))
                .collect();
            for workers in [1, 3] {
                let replayed = one(&replay_ctx(&roster, workers), config, class, &params);
                assert_eq!(
                    replayed, generated,
                    "{class}: {workers}-worker replay diverged"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_is_stable_across_reopens_and_contexts() {
    let params = ExperimentParams {
        commits: 400,
        seed: 21,
        sample: None,
    };
    let dir = tmp_dir("stable");
    dump_suites(&dir, params.seed, params.commits);
    let config = CpuConfig::fmc_line(false);

    let first = one(
        &replay_ctx(&Arc::new(TraceRoster::from_dir(&dir, 2).unwrap()), 2),
        config,
        WorkloadClass::Int,
        &params,
    );
    let reopened = replay_ctx(&Arc::new(TraceRoster::from_dir(&dir, 1).unwrap()), 2);
    let second = one(&reopened, config, WorkloadClass::Int, &params);
    assert_eq!(first, second, "re-opened traces must replay identically");

    // A generator context built alongside replays the same recorded
    // streams, so results match — but under a different cache key.
    let generators = RunCtx::new(2);
    assert_eq!(one(&generators, config, WorkloadClass::Int, &params), first);
    assert!(reopened.trace_fingerprint().is_some());
    assert_eq!(generators.trace_fingerprint(), None);
    assert_ne!(
        reopened.point_key(config, WorkloadClass::Int, &params),
        generators.point_key(config, WorkloadClass::Int, &params)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Two contexts — one replaying a roster into one store, one running the
/// generators at another seed into another — run a plan on two threads at
/// once. Each matches its own serial run, and each store counts exactly
/// its own context's hits and misses.
#[test]
fn concurrent_contexts_keep_their_own_source_and_store() {
    let params = ExperimentParams {
        commits: 600,
        seed: 9,
        sample: None,
    };
    let dir = tmp_dir("concurrent");
    let traces = dir.join("traces");
    dump_suites(&traces, params.seed, params.commits);
    let roster = Arc::new(TraceRoster::from_dir(&traces, 2).unwrap());
    let mut plan = SweepPlan::new("concurrent");
    for (label, config) in [
        ("ooo64", CpuConfig::ooo64()),
        ("fmc", CpuConfig::fmc_hash(true)),
    ] {
        plan.push(label, config, WorkloadClass::Fp);
        plan.push(label, config, WorkloadClass::Int);
    }
    let other_seed = ExperimentParams { seed: 10, ..params };
    let suites = |ctx: &RunCtx, params: &ExperimentParams| -> Vec<Vec<SimResult>> {
        let results = run_plan(ctx, &plan, params, |_| {});
        results.iter().map(|(_, suite)| suite.to_vec()).collect()
    };
    let serial_replay = suites(&replay_ctx(&roster, 1), &params);
    let serial_generated = suites(&RunCtx::new(1), &other_seed);
    assert_ne!(serial_replay, serial_generated, "the two runs must differ");

    let replay_store = Arc::new(ResultStore::open(&dir.join("replay"), false).unwrap());
    let generator_store = Arc::new(ResultStore::open(&dir.join("generators"), false).unwrap());
    let replay = RunCtx {
        cache: Some(Arc::clone(&replay_store)),
        ..replay_ctx(&roster, 2)
    };
    let generators = RunCtx {
        cache: Some(Arc::clone(&generator_store)),
        ..RunCtx::new(2)
    };
    // Cumulative (hits, misses): a cold pass, then an all-hit pass.
    let n = plan.len() as u64;
    for (pass, expected) in [(0, n), (n, n)].into_iter().enumerate() {
        let (replayed, generated) = std::thread::scope(|scope| {
            let replayed = scope.spawn(|| suites(&replay, &params));
            let generated = scope.spawn(|| suites(&generators, &other_seed));
            (replayed.join().unwrap(), generated.join().unwrap())
        });
        assert_eq!(replayed, serial_replay, "pass {pass}: replay diverged");
        assert_eq!(
            generated, serial_generated,
            "pass {pass}: generators diverged"
        );
        for store in [&replay_store, &generator_store] {
            assert_eq!(
                (store.hits(), store.misses()),
                expected,
                "pass {pass}: {}",
                store.dir().display()
            );
        }
    }
    for point in &plan.points {
        let key = replay.point_key(point.config, point.class, &params);
        assert!(replay_store.contains(&key));
        assert!(!generator_store.contains(&key), "a replay key leaked");
    }
    std::fs::remove_dir_all(&dir).ok();
}
