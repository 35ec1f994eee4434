//! Determinism regression tests: the simulator must be a pure function of
//! (configuration, workload seed, commit budget). Any hidden global state —
//! an ambient RNG, iteration over a hash map, wall-clock coupling — shows up
//! here as a diff between two identically-seeded runs.

use elsq_cpu::config::CpuConfig;
use elsq_cpu::pipeline::Processor;
use elsq_cpu::result::SimResult;
use elsq_workload::suite::{suite, WorkloadClass};

const COMMITS: u64 = 3_000;
const SEED: u64 = 17;

/// Runs `cfg` over both workload suites and returns every result.
fn run_all(cfg: CpuConfig) -> Vec<SimResult> {
    [WorkloadClass::Fp, WorkloadClass::Int]
        .into_iter()
        .flat_map(|class| {
            suite(class, SEED)
                .into_iter()
                .map(|mut w| Processor::new(cfg).run(w.as_mut(), COMMITS))
        })
        .collect()
}

fn assert_identical(name: &str, cfg: CpuConfig) {
    let first = run_all(cfg);
    let second = run_all(cfg);
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(
            a, b,
            "{name}: workload {} diverged between identically-seeded runs",
            a.workload
        );
    }
}

#[test]
fn ooo64_is_deterministic() {
    assert_identical("ooo64", CpuConfig::ooo64());
}

#[test]
fn fmc_line_is_deterministic() {
    assert_identical("fmc_line", CpuConfig::fmc_line(true));
}

#[test]
fn fmc_hash_is_deterministic() {
    assert_identical("fmc_hash", CpuConfig::fmc_hash(true));
}

#[test]
fn svw_configs_are_deterministic() {
    assert_identical("ooo64_svw", CpuConfig::ooo64_svw(10, true));
    assert_identical("fmc_hash_svw", CpuConfig::fmc_hash_svw(10, false));
}

/// The suite driver must be observably identical — results *and* ordering
/// — to the sequential reference loop for both workload classes,
/// regardless of how many workers the work-stealing pool spins up. The
/// batch holds configurations that fetch different depths of wrong path,
/// so their jobs, spread over the workers, reach the capture's shared
/// wrong-path tape in different orders; each point must still match its
/// solo run, which draws its wrong path from the workload's own
/// synthesizer. The INT points fetch 12k–45k wrong-path positions each,
/// many chunks of the tape, so the order in which workers draw its chunks
/// varies too.
#[test]
fn parallel_driver_matches_sequential_driver() {
    use elsq_sim::driver::{run_points, ExperimentParams, RunCtx};

    let params = ExperimentParams {
        commits: COMMITS,
        seed: SEED,
        sample: None,
    };
    let points = [
        ("ooo64", CpuConfig::ooo64()),
        ("fmc_hash", CpuConfig::fmc_hash(true)),
        ("fmc_central_ideal", CpuConfig::fmc_central_ideal()),
    ];
    for class in [WorkloadClass::Fp, WorkloadClass::Int] {
        let solo: Vec<Vec<SimResult>> = points
            .iter()
            .map(|(_, cfg)| {
                suite(class, SEED)
                    .into_iter()
                    .map(|mut w| Processor::new(*cfg).run(w.as_mut(), COMMITS))
                    .collect()
            })
            .collect();
        for workers in [1, 2, 4, 6] {
            let batch = run_points(&RunCtx::new(workers), &points, class, &params);
            for ((label, _), (outcome, sequential)) in
                points.iter().zip(batch.into_iter().zip(&solo))
            {
                let parallel = outcome.unwrap();
                assert_eq!(
                    parallel.len(),
                    sequential.len(),
                    "{label}/{class}/{workers} workers: result count diverged"
                );
                for (p, s) in parallel.iter().zip(sequential) {
                    assert_eq!(
                        p.workload, s.workload,
                        "{label}/{class}/{workers} workers: ordering diverged"
                    );
                    assert_eq!(
                        p, s,
                        "{label}/{class}/{workers} workers: {} diverged",
                        s.workload
                    );
                }
            }
        }
    }
}
