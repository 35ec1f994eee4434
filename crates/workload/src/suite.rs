//! Named workload suites mirroring the paper's SPEC FP / SPEC INT split.
//!
//! Every experiment in `elsq-sim` runs all members of a suite and averages
//! results with the arithmetic mean, exactly as the paper's methodology
//! section describes (Section 5.1).
//!
//! Suites come from two interchangeable sources: the synthetic generators
//! ([`suite`]) or recorded `.etrc` trace files on disk ([`TraceRoster`],
//! built by `elsq-lab trace dump`). A roster records which suite and slot
//! each trace was dumped from, so a replayed suite has the same members in
//! the same order — and, because the trace captures the exact correct-path
//! stream plus the wrong-path spec, identically-parameterized replays are
//! byte-identical to generator runs.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use elsq_isa::etrc::{self, EtrcError, FileTrace, TraceMeta, TraceStats};
use elsq_isa::TraceSource;

use crate::compress::CompressInt;
use crate::hashtab::HashTableInt;
use crate::matrix::MatrixBlockFp;
use crate::pointer::PointerChaseInt;
use crate::sortmerge::SortMergeInt;
use crate::stencil::{IrregularFp, StencilFp};
use crate::streaming::StreamingFp;

/// Which suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Floating-point-like workloads (streaming, stencil, blocked matrix).
    Fp,
    /// Integer-like workloads (pointer chasing, hashing, merging,
    /// compressing).
    Int,
}

// Scenario specs and cache-point keys serialize workload classes by their
// short command-line key (`"fp"` / `"int"`), which is also what scenario
// files use — hand-rolled impls rather than the derive so the JSON spelling
// matches the CLI spelling.
impl serde::Serialize for WorkloadClass {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.key().to_owned())
    }
}

impl serde::Deserialize for WorkloadClass {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Str(s) => Self::from_key(s)
                .ok_or_else(|| serde::Error::custom(format!("unknown workload class `{s}`"))),
            other => Err(serde::Error::expected("workload class string", other)),
        }
    }
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadClass::Fp => write!(f, "SPEC FP"),
            WorkloadClass::Int => write!(f, "SPEC INT"),
        }
    }
}

/// The floating-point-like suite (six workloads).
pub fn fp_suite(seed: u64) -> Vec<Box<dyn TraceSource>> {
    vec![
        Box::new(StreamingFp::swim_like(seed)),
        Box::new(StreamingFp::applu_like(seed.wrapping_add(1))),
        Box::new(StencilFp::mgrid_like(seed.wrapping_add(2))),
        Box::new(MatrixBlockFp::facerec_like(seed.wrapping_add(3))),
        Box::new(IrregularFp::equake_like(seed.wrapping_add(4))),
        Box::new(crate::mix::BlockTrace::new(
            StreamingFp::new("fp-stream-art", seed.wrapping_add(5), 2, 24 << 20),
            seed.wrapping_add(5),
        )),
    ]
}

/// The integer-like suite (six workloads).
pub fn int_suite(seed: u64) -> Vec<Box<dyn TraceSource>> {
    vec![
        Box::new(PointerChaseInt::mcf_like(seed)),
        Box::new(PointerChaseInt::parser_like(seed.wrapping_add(1))),
        Box::new(HashTableInt::vpr_like(seed.wrapping_add(2))),
        Box::new(HashTableInt::gcc_like(seed.wrapping_add(3))),
        Box::new(SortMergeInt::vortex_like(seed.wrapping_add(4))),
        Box::new(CompressInt::bzip2_like(seed.wrapping_add(5))),
    ]
}

/// A suite by class.
pub fn suite(class: WorkloadClass, seed: u64) -> Vec<Box<dyn TraceSource>> {
    match class {
        WorkloadClass::Fp => fp_suite(seed),
        WorkloadClass::Int => int_suite(seed),
    }
}

/// Number of workloads in each suite.
pub const SUITE_SIZE: usize = 6;

impl WorkloadClass {
    /// The `.etrc` header suite tag for this class.
    pub fn suite_tag(self) -> u8 {
        match self {
            WorkloadClass::Fp => etrc::SUITE_FP,
            WorkloadClass::Int => etrc::SUITE_INT,
        }
    }

    /// The class recorded by an `.etrc` suite tag, if any.
    pub fn from_suite_tag(tag: u8) -> Option<Self> {
        match tag {
            etrc::SUITE_FP => Some(WorkloadClass::Fp),
            etrc::SUITE_INT => Some(WorkloadClass::Int),
            _ => None,
        }
    }

    /// Short lowercase key used in file names and on the command line.
    pub fn key(self) -> &'static str {
        match self {
            WorkloadClass::Fp => "fp",
            WorkloadClass::Int => "int",
        }
    }

    /// The class named by a [`Self::key`] string (`"fp"` / `"int"`), if any.
    pub fn from_key(key: &str) -> Option<Self> {
        match key {
            "fp" => Some(WorkloadClass::Fp),
            "int" => Some(WorkloadClass::Int),
            _ => None,
        }
    }
}

/// One verified trace file of a [`TraceRoster`].
#[derive(Debug, Clone)]
pub struct RosterEntry {
    /// Path of the `.etrc` file.
    pub path: PathBuf,
    /// Its header metadata.
    pub meta: TraceMeta,
    /// Number of correct-path instructions it holds.
    pub insts: u64,
}

/// Fully decodes every file of `paths` (every CRC, every record and the
/// trailer count, as [`etrc::inspect`]) on up to `workers` threads, and
/// returns each file's header metadata and statistics, or its error, in
/// the order of `paths` whatever the thread timing.
///
/// This is the one verification loop: [`TraceRoster::from_dir`] and
/// `elsq-lab trace verify|info` all run it.
pub fn verify_traces(
    paths: &[PathBuf],
    workers: usize,
) -> Vec<Result<(TraceMeta, TraceStats), EtrcError>> {
    let verify = |path: &PathBuf| {
        let file = std::fs::File::open(path)?;
        etrc::inspect(std::io::BufReader::new(file))
    };
    let workers = workers.clamp(1, paths.len().max(1));
    let next = AtomicUsize::new(0);
    let mut verified: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(path) = paths.get(i) else {
                            return done;
                        };
                        done.push((i, verify(path)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("trace verification worker panicked"))
            .collect()
    });
    verified.sort_by_key(|&(i, _)| i);
    verified.into_iter().map(|(_, result)| result).collect()
}

/// A set of recorded suite traces that can stand in for the generator
/// roster.
///
/// Built by [`TraceRoster::from_dir`], which fully decodes every `.etrc`
/// file it finds (all CRCs and the trailer count are checked up front, on
/// the run's worker threads, so a roster that loads cannot fail
/// mid-simulation) and orders members by their recorded suite slot.
#[derive(Debug, Clone, Default)]
pub struct TraceRoster {
    fp: Vec<RosterEntry>,
    int: Vec<RosterEntry>,
}

impl TraceRoster {
    /// Loads and verifies every `*.etrc` file in `dir`, decoding files in
    /// parallel on up to `workers` threads ([`verify_traces`]).
    ///
    /// Files must carry a suite tag and a unique slot index per class
    /// (`elsq-lab trace dump` writes them); slots must be contiguous from
    /// zero so a replayed suite has no holes. Errors name the first bad
    /// file in sorted-path order, whatever the thread timing.
    pub fn from_dir(dir: &Path, workers: usize) -> Result<Self, String> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read trace directory {}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "etrc"))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(format!("no .etrc files in {}", dir.display()));
        }
        let verified = verify_traces(&paths, workers);
        let mut roster = Self::default();
        for (path, result) in paths.into_iter().zip(verified) {
            let (meta, stats) = result.map_err(|e| format!("{}: {e}", path.display()))?;
            let class = WorkloadClass::from_suite_tag(meta.suite_tag).ok_or_else(|| {
                format!(
                    "{}: trace carries no suite tag; re-dump it with `elsq-lab trace dump`",
                    path.display()
                )
            })?;
            let entry = RosterEntry {
                path,
                meta,
                insts: stats.insts,
            };
            match class {
                WorkloadClass::Fp => roster.fp.push(entry),
                WorkloadClass::Int => roster.int.push(entry),
            }
        }
        for (class, members) in [
            (WorkloadClass::Fp, &mut roster.fp),
            (WorkloadClass::Int, &mut roster.int),
        ] {
            members.sort_by_key(|e| e.meta.suite_index);
            for (slot, entry) in members.iter().enumerate() {
                match entry.meta.suite_index {
                    Some(i) if i as usize == slot => {}
                    Some(i) => {
                        return Err(format!(
                            "{}: {class} slot {i} is duplicated or leaves a hole at slot {slot}",
                            entry.path.display()
                        ));
                    }
                    None => {
                        return Err(format!(
                            "{}: suite member without a slot index",
                            entry.path.display()
                        ));
                    }
                }
            }
        }
        Ok(roster)
    }

    /// The verified members recorded for `class`, in suite order.
    pub fn members(&self, class: WorkloadClass) -> &[RosterEntry] {
        match class {
            WorkloadClass::Fp => &self.fp,
            WorkloadClass::Int => &self.int,
        }
    }

    /// Checks that this roster can stand in for `suite(class, seed)` over a
    /// run of `commits` committed instructions: a full complement of
    /// members, recorded at the same generator seed, each holding at least
    /// `commits` instructions (the pipeline consumes exactly one record per
    /// commit).
    pub fn validate(&self, class: WorkloadClass, seed: u64, commits: u64) -> Result<(), String> {
        let members = self.members(class);
        if members.len() != SUITE_SIZE {
            return Err(format!(
                "{class} roster has {} trace(s), expected {SUITE_SIZE}",
                members.len()
            ));
        }
        for entry in members {
            if entry.meta.seed != seed {
                return Err(format!(
                    "{}: recorded at seed {} but the run uses seed {seed}; \
                     re-dump or pass --seed {}",
                    entry.path.display(),
                    entry.meta.seed,
                    entry.meta.seed
                ));
            }
            if entry.insts < commits {
                return Err(format!(
                    "{}: holds {} instruction(s) but the run commits {commits}; \
                     re-dump with --commits {commits} or more",
                    entry.path.display(),
                    entry.insts
                ));
            }
        }
        Ok(())
    }

    /// Opens the recorded traces of `class` as a replay suite, in suite
    /// order — the drop-in replacement for [`suite`].
    pub fn suite(&self, class: WorkloadClass) -> Result<Vec<Box<dyn TraceSource>>, String> {
        let members = self.members(class);
        if members.is_empty() {
            return Err(format!("roster holds no {class} traces"));
        }
        members
            .iter()
            .map(|entry| {
                FileTrace::open(&entry.path)
                    .map(|t| Box::new(t) as Box<dyn TraceSource>)
                    .map_err(|e| format!("{}: {e}", entry.path.display()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_six_members_each() {
        assert_eq!(fp_suite(1).len(), 6);
        assert_eq!(int_suite(1).len(), 6);
    }

    #[test]
    fn suite_members_have_unique_names() {
        for class in [WorkloadClass::Fp, WorkloadClass::Int] {
            let names: std::collections::HashSet<String> = suite(class, 3)
                .iter()
                .map(|w| w.name().to_owned())
                .collect();
            assert_eq!(names.len(), 6, "duplicate names in {class}");
        }
    }

    #[test]
    fn all_members_produce_valid_instructions() {
        for mut w in fp_suite(2).into_iter().chain(int_suite(2)) {
            for _ in 0..500 {
                let inst = w.next_inst().expect("generators are infinite");
                inst.validate()
                    .expect("generated instruction must be valid");
            }
            let (alus, wp) = w.wrong_path_run(0x42, 1_000);
            let wp = wp.expect("a quarter of wrong-path instructions are loads");
            assert!(wp.wrong_path && wp.is_load());
            assert_eq!(wp.pc, 0x42 + 4 * alus);
            wp.validate().unwrap();
        }
    }

    #[test]
    fn class_display() {
        assert_eq!(WorkloadClass::Fp.to_string(), "SPEC FP");
        assert_eq!(WorkloadClass::Int.to_string(), "SPEC INT");
    }

    #[test]
    fn class_keys_and_serde_round_trip() {
        use serde::{Deserialize, Serialize};
        for class in [WorkloadClass::Fp, WorkloadClass::Int] {
            assert_eq!(WorkloadClass::from_key(class.key()), Some(class));
            let v = class.to_value();
            assert_eq!(v, serde::Value::Str(class.key().to_owned()));
            assert_eq!(WorkloadClass::from_value(&v).unwrap(), class);
        }
        assert_eq!(WorkloadClass::from_key("both"), None);
        assert!(WorkloadClass::from_value(&serde::Value::Str("x".into())).is_err());
        assert!(WorkloadClass::from_value(&serde::Value::U64(1)).is_err());
    }

    #[test]
    fn suite_tags_round_trip() {
        for class in [WorkloadClass::Fp, WorkloadClass::Int] {
            assert_eq!(
                WorkloadClass::from_suite_tag(class.suite_tag()),
                Some(class)
            );
        }
        assert_eq!(WorkloadClass::from_suite_tag(0), None);
        assert_eq!(WorkloadClass::from_suite_tag(9), None);
    }

    fn dump_suites(dir: &std::path::Path, seed: u64, commits: u64) {
        std::fs::create_dir_all(dir).unwrap();
        for class in [WorkloadClass::Fp, WorkloadClass::Int] {
            for (slot, mut workload) in suite(class, seed).into_iter().enumerate() {
                let path = dir.join(format!("{}-{slot}.etrc", class.key()));
                let file = std::fs::File::create(&path).unwrap();
                elsq_isa::etrc::record(
                    workload.as_mut(),
                    commits,
                    seed,
                    class.suite_tag(),
                    Some(slot as u8),
                    std::io::BufWriter::new(file),
                )
                .unwrap();
            }
        }
    }

    #[test]
    fn roster_loads_validates_and_replays_generator_streams() {
        let dir = std::env::temp_dir().join(format!("elsq-roster-{}", std::process::id()));
        dump_suites(&dir, 5, 300);
        let roster = TraceRoster::from_dir(&dir, 2).unwrap();
        for class in [WorkloadClass::Fp, WorkloadClass::Int] {
            assert_eq!(roster.members(class).len(), SUITE_SIZE);
            roster.validate(class, 5, 300).unwrap();
            assert!(
                roster.validate(class, 6, 300).is_err(),
                "seed mismatch accepted"
            );
            assert!(
                roster.validate(class, 5, 301).is_err(),
                "short trace accepted"
            );
            // Replayed members yield exactly the generator's stream, in
            // suite order, under the generator's names.
            let mut replayed = roster.suite(class).unwrap();
            let mut generated = suite(class, 5);
            for (r, g) in replayed.iter_mut().zip(generated.iter_mut()) {
                assert_eq!(r.name(), g.name());
                for _ in 0..300 {
                    assert_eq!(r.next_inst(), g.next_inst());
                }
                assert!(r.next_inst().is_none(), "trace longer than recorded");
                // Wrong-path streams replay identically too.
                for i in 0..50 {
                    assert_eq!(
                        r.wrong_path_run(i * 4, i % 9),
                        g.wrong_path_run(i * 4, i % 9)
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roster_rejects_holes_and_missing_tags() {
        let dir = std::env::temp_dir().join(format!("elsq-roster-bad-{}", std::process::id()));
        dump_suites(&dir, 3, 50);
        // Remove a middle slot: the hole must be reported.
        std::fs::remove_file(dir.join("fp-2.etrc")).unwrap();
        let err = TraceRoster::from_dir(&dir, 2).unwrap_err();
        assert!(err.contains("hole"), "unexpected error: {err}");
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            TraceRoster::from_dir(&dir, 2).is_err(),
            "missing dir accepted"
        );
    }
}
