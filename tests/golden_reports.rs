//! Golden-output guard for the hot-path optimization work.
//!
//! Runs every registered experiment at a fixed seed and small commit budget
//! and asserts a stable FNV-1a hash of each serialized JSON [`Report`]. The
//! `fig7` and `table2` hashes were recorded on pre-optimization `main`, the
//! other eight before the timing loop's data structures were reworked, so
//! any change to simulation semantics — a different forwarding pick, a
//! shifted counter, a reordered search, a moved cache line — changes a cell
//! value and breaks a hash. Data-structure work in the core, memory and
//! pipeline crates must keep these bit-exact.
//!
//! `fig7` exercises the central LSQ plus every ELSQ variant (line/hash ERT,
//! with and without the SQM) over both workload suites. A further test pins
//! the raw `committed`/`cycles` totals of seven configuration/suite pairs,
//! one of them sampled.
//!
//! If a future PR changes simulation semantics *intentionally*, re-record
//! the constants with:
//!
//! ```text
//! cargo test --test golden_reports -- --nocapture
//! ```
//!
//! (each test prints the computed hash) and explain the change in the PR.

use elsq_cpu::config::CpuConfig;
use elsq_cpu::pipeline::Processor;
use elsq_sim::driver::RunCtx;
use elsq_sim::experiments::find;
use elsq_stats::report::ExperimentParams;
use elsq_stats::sampling::SamplingSpec;
use elsq_workload::suite::suite;
use elsq_workload::suite::WorkloadClass::{Fp, Int};

/// 64-bit FNV-1a over the serialized report.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs experiment `id` at the pinned quick parameters and hashes its JSON
/// report (wall time cleared first — it is the one non-deterministic field).
fn golden_hash(id: &str) -> u64 {
    let params = ExperimentParams {
        commits: 2_000,
        seed: 7,
        sample: None,
    };
    let experiment = find(id).expect("experiment is registered");
    let report = experiment
        .run(&RunCtx::from_env(), &params)
        .without_wall_time();
    let json = serde_json::to_string(&report).expect("reports always serialize");
    let hash = fnv1a64(json.as_bytes());
    println!("golden hash for {id}: {hash:#018x}");
    hash
}

/// One bit-stability test per registered experiment, each pinning the hash
/// of its report at the parameters of [`golden_hash`].
macro_rules! golden_reports {
    ($($test:ident: $id:literal => $hash:literal,)+) => {$(
        #[test]
        fn $test() {
            assert_eq!(
                golden_hash($id),
                $hash,
                "{} report changed: the optimizations must not alter \
                 simulation semantics (see tests/golden_reports.rs for how \
                 to re-record)",
                $id
            );
        }
    )+};
}

golden_reports! {
    fig1_quick_report_is_bit_stable: "fig1" => 0x37ee4a6eb4034a9a,
    tuning_quick_report_is_bit_stable: "tuning" => 0x926b26be33d770fd,
    fig7_quick_report_is_bit_stable: "fig7" => 0x89d552f95d395891,
    // fig8a's ERT false-positive counts see which cycles late probes of
    // the port schedules may take, so they moved when pruning switched
    // from instruction counts to commit cycles.
    fig8a_quick_report_is_bit_stable: "fig8a" => 0x3a4a9297980b6ee6,
    // fig8bc and fig11 sweep L1 and L2 geometry through the cache layout.
    fig8bc_quick_report_is_bit_stable: "fig8bc" => 0x6c9902f7dfebacc8,
    fig9_quick_report_is_bit_stable: "fig9" => 0x84c764a2bf973e20,
    fig10_quick_report_is_bit_stable: "fig10" => 0xec7697527f823191,
    fig11_quick_report_is_bit_stable: "fig11" => 0xf88131bb63b3f2c1,
    // table2 pins the access counters, the most sensitive observers of the
    // search paths: one extra or missing queue search changes a column.
    table2_quick_report_is_bit_stable: "table2" => 0xd71ba16e0c2d581c,
    energy_quick_report_is_bit_stable: "energy" => 0xf898cfd3f625d278,
}

/// Suite-summed `committed` and `cycles` of seven configuration/suite pairs
/// at 5k commits per workload, seed 7: the OoO-64 baseline and the Figure 7
/// large-window schemes, plus OoO-64 on FP sampled at `500:50:25`, whose
/// `committed` counts every covered instruction (detailed, skipped and
/// warmed). These are the simulated columns of the former throughput
/// roster; wall time is deliberately not part of the pin.
#[test]
fn roster_committed_and_cycles_are_pinned() {
    const COMMITS: u64 = 5_000;
    let sampled = Some(SamplingSpec::parse("500:50:25").expect("valid spec"));
    let (ooo, hash, line) = (
        CpuConfig::ooo64(),
        CpuConfig::fmc_hash(true),
        CpuConfig::fmc_line(true),
    );
    let ideal = CpuConfig::fmc_central_ideal();
    let cases = [
        ("ooo64/int", ooo, Int, None, 1_171_208),
        ("ooo64/fp", ooo, Fp, None, 508_335),
        ("fmc-hash-sqm/int", hash, Int, None, 1_204_623),
        ("fmc-hash-sqm/fp", hash, Fp, None, 469_885),
        ("fmc-line-sqm/fp", line, Fp, None, 117_167),
        ("central-ideal/fp", ideal, Fp, None, 469_381),
        ("ooo64/fp-sampled", ooo, Fp, sampled, 52_941),
    ];
    for (id, config, class, sample, cycles) in cases {
        let (mut got_committed, mut got_cycles) = (0u64, 0u64);
        for mut workload in suite(class, 7) {
            let result = match sample {
                Some(spec) => Processor::new(config).run_sampled(workload.as_mut(), COMMITS, spec),
                None => Processor::new(config).run(workload.as_mut(), COMMITS),
            };
            got_committed += result.sim.committed;
            if let Some(sampling) = &result.sampling {
                got_committed += sampling.skipped + sampling.warmed;
            }
            got_cycles += result.sim.cycles;
        }
        assert_eq!(
            (got_committed, got_cycles),
            (30_000, cycles),
            "{id}: simulated committed/cycles totals changed"
        );
    }
}
