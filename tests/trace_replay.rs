//! Record/replay determinism: a generator suite dumped to `.etrc` files and
//! replayed through the trace override must reproduce the generator-driven
//! results byte-for-byte, on both the sequential and the work-stealing
//! parallel paths.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

use elsq::elsq_cpu::config::CpuConfig;
use elsq::elsq_sim::driver::{
    install_trace_override, run_suite, run_suite_sequential, run_suite_with_threads,
    ExperimentParams,
};
use elsq::elsq_workload::suite::{suite, TraceRoster, WorkloadClass};

/// The trace override is process-global, so tests that install it must not
/// overlap with each other (libtest runs `#[test]`s of one binary in
/// parallel threads).
fn override_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

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
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn recorded_replay_matches_generator_run_on_every_driver_path() {
    let _serial = override_lock().lock().unwrap();
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
            let generated = run_suite_sequential(config, class, &params);

            let guard = install_trace_override(Arc::clone(&roster));
            let replay_seq = run_suite_sequential(config, class, &params);
            let replay_par = run_suite(config, class, &params);
            let replay_threads = run_suite_with_threads(config, class, &params, 3);
            drop(guard);

            assert_eq!(replay_seq, generated, "{class}: sequential replay diverged");
            assert_eq!(replay_par, generated, "{class}: parallel replay diverged");
            assert_eq!(
                replay_threads, generated,
                "{class}: 3-thread replay diverged"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_is_stable_across_reopens_and_override_restores() {
    let _serial = override_lock().lock().unwrap();
    let params = ExperimentParams {
        commits: 400,
        seed: 21,
        sample: None,
    };
    let dir = tmp_dir("stable");
    dump_suites(&dir, params.seed, params.commits);
    let roster = Arc::new(TraceRoster::from_dir(&dir, 2).unwrap());
    let config = CpuConfig::fmc_line(false);

    let guard = install_trace_override(Arc::clone(&roster));
    let first = run_suite(config, WorkloadClass::Int, &params);
    let second = run_suite(config, WorkloadClass::Int, &params);
    assert_eq!(first, second, "re-opened traces must replay identically");
    drop(guard);

    // With the guard dropped the generators are back; same streams were
    // recorded, so results still match — but via a different source.
    assert!(elsq::elsq_sim::driver::trace_override().is_none());
    let generated = run_suite(config, WorkloadClass::Int, &params);
    assert_eq!(generated, first);
    std::fs::remove_dir_all(&dir).ok();
}
