//! Cross-crate integration tests: workload generators feeding the processor
//! models with every LSQ organization, checking the paper's qualitative
//! claims end to end.

use elsq_core::config::{ElsqConfig, ErtKind};
use elsq_core::disambig::DisambiguationModel;
use elsq_cpu::config::CpuConfig;
use elsq_cpu::pipeline::Processor;
use elsq_cpu::result::SimResult;
use elsq_isa::TraceSource;
use elsq_sim::driver::{run_points, ExperimentParams, RunCtx};
use elsq_workload::pointer::PointerChaseInt;
use elsq_workload::streaming::StreamingFp;
use elsq_workload::suite::{fp_suite, int_suite, WorkloadClass};

const COMMITS: u64 = 8_000;

fn run_one(cfg: CpuConfig, workload: &mut dyn TraceSource) -> SimResult {
    Processor::new(cfg).run(workload, COMMITS)
}

fn run_suite(cfg: CpuConfig, class: WorkloadClass, params: &ExperimentParams) -> Vec<SimResult> {
    run_points(&RunCtx::from_env(), &[("", cfg)], class, params)
        .remove(0)
        .unwrap()
}

#[test]
fn every_configuration_runs_every_workload() {
    let configs = [
        CpuConfig::ooo64(),
        CpuConfig::ooo64_svw(10, true),
        CpuConfig::fmc_central_ideal(),
        CpuConfig::fmc_line(true),
        CpuConfig::fmc_hash(true),
        CpuConfig::fmc_hash_rsac(),
        CpuConfig::fmc_hash_svw(10, false),
    ];
    for cfg in configs {
        for mut workload in fp_suite(11).into_iter().chain(int_suite(11)) {
            let r = Processor::new(cfg).run(workload.as_mut(), 2_000);
            assert_eq!(r.sim.committed, 2_000, "{} under-committed", r.workload);
            assert!(
                r.ipc() > 0.0 && r.ipc() <= 4.0,
                "{}: IPC {}",
                r.workload,
                r.ipc()
            );
            assert!(
                r.sim.ll_idle_cycles + r.sim.ll_active_cycles == r.sim.cycles,
                "{}: activity accounting is inconsistent",
                r.workload
            );
        }
    }
}

#[test]
fn simulation_is_deterministic() {
    let mut a = PointerChaseInt::mcf_like(3);
    let mut b = PointerChaseInt::mcf_like(3);
    let ra = run_one(CpuConfig::fmc_hash(true), &mut a);
    let rb = run_one(CpuConfig::fmc_hash(true), &mut b);
    assert_eq!(ra.sim, rb.sim);
    assert_eq!(ra.lsq, rb.lsq);
}

#[test]
fn large_window_speedup_is_bigger_for_fp_than_int() {
    let params = ExperimentParams {
        commits: COMMITS,
        seed: 5,
        sample: None,
    };
    let speedup = |class: WorkloadClass| -> f64 {
        let base = SimResult::mean_ipc(&run_suite(CpuConfig::ooo64(), class, &params));
        let fmc = SimResult::mean_ipc(&run_suite(CpuConfig::fmc_hash(true), class, &params));
        fmc / base
    };
    let fp = speedup(WorkloadClass::Fp);
    let int = speedup(WorkloadClass::Int);
    assert!(fp > 1.2, "SPEC FP speed-up {fp} should be substantial");
    assert!(
        fp > int,
        "SPEC FP speed-up {fp} should exceed SPEC INT speed-up {int} (Figure 7 shape)"
    );
}

#[test]
fn elsq_with_sqm_is_competitive_with_idealized_central_lsq() {
    let params = ExperimentParams {
        commits: COMMITS,
        seed: 5,
        sample: None,
    };
    for class in [WorkloadClass::Fp, WorkloadClass::Int] {
        let central =
            SimResult::mean_ipc(&run_suite(CpuConfig::fmc_central_ideal(), class, &params));
        let elsq = SimResult::mean_ipc(&run_suite(CpuConfig::fmc_hash(true), class, &params));
        assert!(
            elsq > 0.85 * central,
            "{class}: ELSQ+SQM IPC {elsq} should be within ~15% of the idealized central LSQ {central}"
        );
    }
}

#[test]
fn sqm_helps_int_more_than_it_hurts() {
    let params = ExperimentParams {
        commits: COMMITS,
        seed: 5,
        sample: None,
    };
    let with_sqm = SimResult::mean_ipc(&run_suite(
        CpuConfig::fmc_hash(true),
        WorkloadClass::Int,
        &params,
    ));
    let without_sqm = SimResult::mean_ipc(&run_suite(
        CpuConfig::fmc_hash(false),
        WorkloadClass::Int,
        &params,
    ));
    assert!(
        with_sqm >= 0.97 * without_sqm,
        "the Store Queue Mirror should not hurt SPEC INT: {with_sqm} vs {without_sqm}"
    );
}

#[test]
fn restricted_sac_is_cheaper_than_restricted_lac() {
    // Figure 9's qualitative claim: restricting store address calculation
    // costs less than restricting load address calculation, because far more
    // loads than stores have miss-dependent addresses.
    let params = ExperimentParams {
        commits: COMMITS,
        seed: 9,
        sample: None,
    };
    let ipc_of = |model: DisambiguationModel| {
        SimResult::mean_ipc(&run_suite(
            CpuConfig::fmc_elsq(ElsqConfig::default().with_disambiguation(model)),
            WorkloadClass::Int,
            &params,
        ))
    };
    let full = ipc_of(DisambiguationModel::Full);
    let rsac = ipc_of(DisambiguationModel::RestrictedSac);
    let rlac = ipc_of(DisambiguationModel::RestrictedLac);
    assert!(rsac <= full * 1.15 && rlac <= full * 1.15);
    assert!(
        rsac >= rlac * 0.95,
        "restricted SAC ({rsac}) should not be slower than restricted LAC ({rlac})"
    );
}

#[test]
fn line_and_hash_erts_behave_similarly_at_default_geometry() {
    let params = ExperimentParams {
        commits: COMMITS,
        seed: 5,
        sample: None,
    };
    for class in [WorkloadClass::Fp, WorkloadClass::Int] {
        let hash = SimResult::mean_ipc(&run_suite(CpuConfig::fmc_hash(true), class, &params));
        let line = SimResult::mean_ipc(&run_suite(CpuConfig::fmc_line(true), class, &params));
        let ratio = line / hash;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "{class}: line/hash IPC ratio {ratio} diverges at the default 4-way 32KB L1"
        );
    }
}

#[test]
fn wider_ert_hash_reduces_false_positives_end_to_end() {
    let params = ExperimentParams {
        commits: COMMITS,
        seed: 5,
        sample: None,
    };
    let fp_of = |bits: u32| {
        let cfg = CpuConfig::fmc_elsq(
            ElsqConfig::default()
                .with_ert(ErtKind::Hash { bits })
                .with_sqm(false),
        );
        SimResult::mean_lsq_per_100m(&run_suite(cfg, WorkloadClass::Int, &params))
            .ert_false_positives
    };
    let narrow = fp_of(6);
    let wide = fp_of(14);
    assert!(
        wide <= narrow,
        "a 14-bit ERT ({wide}) should not produce more false positives than a 6-bit ERT ({narrow})"
    );
}

#[test]
fn table2_shape_holds_for_the_fmc() {
    // The two most-searched structures are the HL-SQ and the ERT, and the
    // low-locality queues see far fewer accesses (Section 6).
    let params = ExperimentParams {
        commits: COMMITS,
        seed: 5,
        sample: None,
    };
    let mean = SimResult::mean_lsq_per_100m(&run_suite(
        CpuConfig::fmc_hash(true),
        WorkloadClass::Fp,
        &params,
    ));
    assert!(mean.hl_sq_searches > 0);
    assert!(mean.ert_lookups > 0);
    assert!(
        mean.ll_lq_searches < mean.hl_sq_searches,
        "LL-LQ accesses ({}) should be far rarer than HL-SQ accesses ({})",
        mean.ll_lq_searches,
        mean.hl_sq_searches
    );
}

#[test]
fn streaming_fp_exposes_memory_level_parallelism() {
    // Sanity check of the substrate itself: the FMC hides most of the 400
    // cycle memory latency on independent-miss code.
    let mut w = StreamingFp::applu_like(2);
    let fmc = run_one(CpuConfig::fmc_hash(true), &mut w);
    let mut w = StreamingFp::applu_like(2);
    let ooo = run_one(CpuConfig::ooo64(), &mut w);
    assert!(
        fmc.ipc() / ooo.ipc() > 1.5,
        "{} vs {}",
        fmc.ipc(),
        ooo.ipc()
    );
}
