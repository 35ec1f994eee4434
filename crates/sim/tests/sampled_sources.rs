//! A sampled run must not care where its instructions come from: a sparse
//! capture (only the warm-up and window ranges of each period), a dense
//! capture and a direct `.etrc` replay (checkpoint jumps plus header-only
//! block skipping) all yield the same `SimResult`, whatever the sampling
//! spec, the budget, the trace length, the checkpoint spacing or the
//! block size. And because a sampled replay never decodes the blocks it
//! skips, a `--trace` roster still verifies every block up front.

use std::io::BufWriter;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use elsq_cpu::config::CpuConfig;
use elsq_cpu::pipeline::Processor;
use elsq_isa::etrc::{EtrcReader, EtrcWriter, TraceMeta, FORMAT_VERSION, FORMAT_VERSION_V2};
use elsq_isa::{FileTrace, SharedStream, TraceSource};
use elsq_stats::sampling::SamplingSpec;
use elsq_workload::suite::{suite, TraceRoster, WorkloadClass, SUITE_SIZE};
use proptest::prelude::*;

/// Records `len` instructions of suite member `pick` (FP members first)
/// into `path` with the given block size and checkpoints, tagged with its
/// suite slot.
fn record_to(
    path: &std::path::Path,
    pick: usize,
    len: u64,
    block_target: u32,
    checkpoint_every: Option<u64>,
) {
    let class = if pick < SUITE_SIZE {
        WorkloadClass::Fp
    } else {
        WorkloadClass::Int
    };
    let slot = pick % SUITE_SIZE;
    let mut source = suite(class, 3).swap_remove(slot);
    let meta = TraceMeta {
        version: if checkpoint_every.is_some() {
            FORMAT_VERSION_V2
        } else {
            FORMAT_VERSION
        },
        name: source.name().to_owned(),
        seed: 3,
        suite_tag: class.suite_tag(),
        suite_index: Some(slot as u8),
        wrong_path: source.wrong_path_spec(),
        block_target,
        checkpoint_every,
    };
    let file = std::fs::File::create(path).unwrap();
    let mut writer = EtrcWriter::new(BufWriter::new(file), &meta).unwrap();
    for _ in 0..len {
        writer.write_inst(&source.next_inst().unwrap()).unwrap();
    }
    writer.finish().unwrap();
}

/// [`record_to`] a fresh file in the temp directory.
fn record(pick: usize, len: u64, block_target: u32, checkpoint_every: Option<u64>) -> PathBuf {
    static FILES: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("elsq-sampled-sources-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("t{}.etrc", FILES.fetch_add(1, Ordering::Relaxed)));
    record_to(&path, pick, len, block_target, checkpoint_every);
    path
}

proptest! {
    #[test]
    fn sparse_dense_and_file_sources_sample_identically(
        shape in (1u64..3_000, 0u64..3_000, 0u64..3_000),
        lengths in (0u64..8_000, 0u64..8_000),
        trace in (0usize..12, 0u64..3, 100u64..3_000, 128u32..8_192),
        ooo in 0u64..2,
    ) {
        let (period, w, u) = shape;
        let window = 1 + w % period;
        let warmup = u % (period - window + 1);
        let spec = SamplingSpec::new(period, window, warmup).unwrap();
        let (total, trace_len) = lengths;
        let (pick, checkpointed, every, block_target) = trace;
        let path = record(pick, trace_len, block_target, (checkpointed > 0).then_some(every));
        let config = if ooo == 0 { CpuConfig::ooo64() } else { CpuConfig::fmc_hash(true) };
        let run = |source: &mut dyn TraceSource| {
            Processor::new(config).run_sampled(source, total, spec)
        };

        let file = run(&mut FileTrace::open(&path).unwrap());
        let dense = Arc::new(SharedStream::capture(&mut FileTrace::open(&path).unwrap(), total));
        let sparse = Arc::new(SharedStream::capture_ranges(
            &mut FileTrace::open(&path).unwrap(),
            total,
            spec.read_ranges(total),
        ));
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(path.parent().unwrap()).ok();
        prop_assert_eq!(sparse.len(), dense.len());
        prop_assert!(sparse.captured() <= dense.captured());
        prop_assert_eq!(&run(&mut dense.cursor()), &file, "dense capture diverged");
        prop_assert_eq!(&run(&mut sparse.cursor()), &file, "sparse capture diverged");
    }
}

/// Flips one payload byte of the first block lying wholly inside a
/// fast-forward stretch of `spec` over `total` instructions (a block a
/// sampled replay passes by its header alone).
fn corrupt_a_skipped_block(path: &std::path::Path, spec: SamplingSpec, total: u64) {
    let mut bytes = std::fs::read(path).unwrap();
    let reads: Vec<_> = spec.read_ranges(total).collect();
    let mut at = EtrcReader::new(&bytes[..]).unwrap().stats().file_bytes as usize;
    let mut first = 0u64;
    loop {
        let field = |i: usize| u32::from_le_bytes(bytes[at + i..at + i + 4].try_into().unwrap());
        let (n_records, comp_len) = (u64::from(field(0)), field(8) as usize);
        assert!(n_records > 0, "no block lies inside a fast-forward stretch");
        let last = first + n_records;
        if first > 0 && reads.iter().all(|r| last <= r.start || first >= r.end) {
            bytes[at + 17 + comp_len / 2] ^= 0x20;
            std::fs::write(path, bytes).unwrap();
            return;
        }
        first = last;
        at += 17 + comp_len;
    }
}

#[test]
fn roster_still_rejects_corruption_a_sampled_replay_would_skip() {
    const TOTAL: u64 = 12_000;
    let spec = SamplingSpec::new(3_000, 200, 100).unwrap();
    let dir = std::env::temp_dir().join(format!("elsq-roster-skip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<PathBuf> = (0..2 * SUITE_SIZE)
        .map(|pick| {
            let path = dir.join(format!("m{pick:02}.etrc"));
            record_to(&path, pick, TOTAL, 512, Some(1_000));
            path
        })
        .collect();
    TraceRoster::from_dir(&dir, 2).expect("the clean roster loads");

    // The corruption is invisible to the sparse capture a sampled sweep
    // makes, which only reads the warm-up and window ranges ...
    corrupt_a_skipped_block(&paths[7], spec, TOTAL);
    let mut replay = FileTrace::open(&paths[7]).unwrap();
    let sparse = SharedStream::capture_ranges(&mut replay, TOTAL, spec.read_ranges(TOTAL));
    assert_eq!(sparse.len() as u64, TOTAL);
    // ... but loading the roster decodes every block, on any thread count.
    let named = paths[7].display().to_string();
    for workers in [1, 2, 5, 16] {
        let err = TraceRoster::from_dir(&dir, workers).unwrap_err();
        assert!(err.starts_with(&named), "{workers} worker(s): {err}");
        assert!(err.contains("block"), "{workers} worker(s): {err}");
    }
    // With two bad files, the first in path order is named, every time.
    corrupt_a_skipped_block(&paths[2], spec, TOTAL);
    let first = paths[2].display().to_string();
    for workers in [1, 2, 5, 16] {
        let err = TraceRoster::from_dir(&dir, workers).unwrap_err();
        assert!(err.starts_with(&first), "{workers} worker(s): {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
