//! Fast integration smoke test: every named `CpuConfig` variant must run
//! every workload class to completion without panicking. This is the cheap
//! tier-1 gate that catches config/pipeline wiring regressions before the
//! slower qualitative integration tests run.

use elsq_core::config::{ElsqConfig, ErtKind};
use elsq_core::disambig::DisambiguationModel;
use elsq_cpu::config::CpuConfig;
use elsq_sim::driver::{run_points, ExperimentParams, RunCtx};
use elsq_workload::suite::WorkloadClass;

/// Every named configuration constructor, plus a couple of explicit ELSQ
/// variants that exercise non-default knobs.
fn all_configs() -> Vec<(&'static str, CpuConfig)> {
    vec![
        ("ooo64", CpuConfig::ooo64()),
        ("ooo64_svw", CpuConfig::ooo64_svw(10, true)),
        ("fmc_central_ideal", CpuConfig::fmc_central_ideal()),
        ("fmc_line", CpuConfig::fmc_line(true)),
        ("fmc_line_no_sqm", CpuConfig::fmc_line(false)),
        ("fmc_hash", CpuConfig::fmc_hash(true)),
        ("fmc_hash_no_sqm", CpuConfig::fmc_hash(false)),
        ("fmc_hash_rsac", CpuConfig::fmc_hash_rsac()),
        ("fmc_hash_svw", CpuConfig::fmc_hash_svw(10, true)),
        (
            "fmc_narrow_ert_rlac",
            CpuConfig::fmc_elsq(
                ElsqConfig::default()
                    .with_ert(ErtKind::Hash { bits: 6 })
                    .with_disambiguation(DisambiguationModel::RestrictedLac),
            ),
        ),
    ]
}

#[test]
fn every_config_runs_every_workload_class() {
    // Quick parameters with a further-reduced commit budget: the point is
    // "does not panic and commits what it was asked to", not model quality.
    let params = ExperimentParams {
        commits: 1_000,
        ..ExperimentParams::quick()
    };
    let configs = all_configs();
    for class in [WorkloadClass::Fp, WorkloadClass::Int] {
        let outcomes = run_points(&RunCtx::from_env(), &configs, class, &params);
        for ((name, _), outcome) in configs.iter().zip(outcomes) {
            let results = outcome.unwrap();
            assert_eq!(results.len(), 6, "{name}/{class}: suite size changed");
            for r in &results {
                assert_eq!(
                    r.sim.committed, params.commits,
                    "{name}/{class}/{}: under-committed",
                    r.workload
                );
                assert!(
                    r.ipc() > 0.0 && r.ipc() <= 4.0,
                    "{name}/{class}/{}: IPC {} outside (0, 4]",
                    r.workload,
                    r.ipc()
                );
            }
        }
    }
}
