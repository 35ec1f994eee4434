//! The `elsq-lab trace` subcommand family: dump, info and verify.
//!
//! * `trace dump` records suite workloads (or named members) to `.etrc`
//!   files via [`elsq_isa::etrc::record`], members in parallel,
//! * `trace info` prints one file's header provenance and block statistics,
//! * `trace verify` fully decodes files — every CRC, record and the trailer
//!   count — in parallel and exits non-zero listing every corrupt one,
//! * `run --trace DIR` (handled in [`crate::cli`]) loads a dumped directory
//!   as a [`TraceRoster`] and makes it the run context's workload source,
//!   so every experiment replays the recorded streams.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use elsq_isa::etrc;
use elsq_isa::TraceSource;
use elsq_sim::pool::{max_threads, parallel_map_with};
use elsq_stats::report::ExperimentParams;
use elsq_workload::suite::{suite, verify_traces, TraceRoster, WorkloadClass};

use crate::cli::CliError;

/// Parsed `elsq-lab trace dump` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDumpArgs {
    /// What to record: empty or `both` = both suites, `fp` / `int` = one
    /// suite, anything else = individually named workloads.
    pub workloads: Vec<String>,
    /// Use the quick parameter preset.
    pub quick: bool,
    /// Override the recorded instruction count per workload.
    pub commits: Option<u64>,
    /// Override the generator seed.
    pub seed: Option<u64>,
    /// Directory the `.etrc` files are written into.
    pub out: PathBuf,
    /// Record header-v2 files with an architectural checkpoint every this
    /// many instructions (`--checkpoint-every N`; `None` records v1).
    pub checkpoint_every: Option<u64>,
}

/// Parsed `elsq-lab trace info|verify` arguments: one or more files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFileArgs {
    /// The `.etrc` files to inspect.
    pub files: Vec<PathBuf>,
}

/// A parsed `elsq-lab trace` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceCmd {
    /// `trace dump`
    Dump(TraceDumpArgs),
    /// `trace info`
    Info(TraceFileArgs),
    /// `trace verify`
    Verify(TraceFileArgs),
}

/// The parameters a dump records with, after `--quick` / `--commits` /
/// `--seed` layering (same rules as `elsq-lab run`).
///
/// The default preset is `standard` (60 000 commits), which covers every
/// experiment's default budget: the pipeline consumes exactly one record
/// per committed instruction, so a trace of N records replays any run of
/// up to N commits.
pub fn dump_params(dump: &TraceDumpArgs) -> ExperimentParams {
    let mut params = if dump.quick {
        ExperimentParams::quick()
    } else {
        ExperimentParams::standard()
    };
    if let Some(commits) = dump.commits {
        params.commits = commits;
    }
    if let Some(seed) = dump.seed {
        params.seed = seed;
    }
    params
}

/// The file name a dumped suite member gets: `<class>-<slot>-<name>.etrc`.
pub fn member_file_name(class: WorkloadClass, slot: usize, name: &str) -> String {
    format!("{}-{slot}-{name}.etrc", class.key())
}

fn selected_classes(workloads: &[String]) -> Result<Option<Vec<WorkloadClass>>, CliError> {
    if workloads.is_empty() || workloads == ["both"] {
        return Ok(Some(vec![WorkloadClass::Fp, WorkloadClass::Int]));
    }
    if workloads == ["fp"] {
        return Ok(Some(vec![WorkloadClass::Fp]));
    }
    if workloads == ["int"] {
        return Ok(Some(vec![WorkloadClass::Int]));
    }
    if workloads
        .iter()
        .any(|w| matches!(w.as_str(), "both" | "fp" | "int"))
    {
        return Err(CliError::usage(
            "pass either suite names (`fp`, `int`, `both`) or individual workload names, not a mix",
        ));
    }
    Ok(None)
}

/// Executes a dump on up to `workers` threads and returns the per-file
/// summary for stdout.
///
/// Members are recorded in parallel, one file each; every file is a
/// function of its member alone, so the files and the summary (in
/// selection order) are the same at any worker count. On failure the
/// first failing member in selection order is reported.
pub fn execute_dump(dump: &TraceDumpArgs, workers: usize) -> Result<String, CliError> {
    let params = dump_params(dump);
    // Resolve the selection to (class, slot, workload) triples before
    // touching the filesystem (usage errors must not create directories).
    // Suite selections enumerate the roster; names pick individual members
    // out of freshly seeded suites.
    let mut jobs: Vec<(WorkloadClass, usize, Box<dyn TraceSource>)> = Vec::new();
    match selected_classes(&dump.workloads)? {
        Some(classes) => {
            for class in classes {
                for (slot, workload) in suite(class, params.seed).into_iter().enumerate() {
                    jobs.push((class, slot, workload));
                }
            }
        }
        None => {
            for (i, name) in dump.workloads.iter().enumerate() {
                if dump.workloads[..i].contains(name) {
                    return Err(CliError::usage(format!(
                        "workload `{name}` is named twice; each member is dumped once"
                    )));
                }
                let mut found = None;
                'search: for class in [WorkloadClass::Fp, WorkloadClass::Int] {
                    for (slot, workload) in suite(class, params.seed).into_iter().enumerate() {
                        if workload.name() == name {
                            found = Some((class, slot, workload));
                            break 'search;
                        }
                    }
                }
                let job = found.ok_or_else(|| {
                    let known: Vec<String> = [WorkloadClass::Fp, WorkloadClass::Int]
                        .into_iter()
                        .flat_map(|c| suite(c, params.seed))
                        .map(|w| w.name().to_owned())
                        .collect();
                    CliError::usage(format!(
                        "unknown workload `{name}`; known: fp, int, both, {}",
                        known.join(", ")
                    ))
                })?;
                jobs.push(job);
            }
        }
    }
    std::fs::create_dir_all(&dump.out)
        .map_err(|e| CliError::runtime(format!("cannot create {}: {e}", dump.out.display())))?;
    let record = |(class, slot, mut workload): (WorkloadClass, usize, Box<dyn TraceSource>)| {
        let path = dump
            .out
            .join(member_file_name(class, slot, workload.name()));
        let file = std::fs::File::create(&path)
            .map_err(|e| CliError::runtime(format!("cannot create {}: {e}", path.display())))?;
        let (meta, written) = etrc::record_with_checkpoints(
            workload.as_mut(),
            params.commits,
            params.seed,
            class.suite_tag(),
            Some(slot as u8),
            dump.checkpoint_every,
            std::io::BufWriter::new(file),
        )
        .map_err(|e| CliError::runtime(format!("cannot record {}: {e}", path.display())))?;
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let checkpoints = meta
            .checkpoint_every
            .map(|every| format!(", checkpoints every {every}"))
            .unwrap_or_default();
        Ok(format!(
            "wrote {}: {written} insts, {bytes} bytes ({:.2} B/inst), seed {}{checkpoints}\n",
            path.display(),
            bytes as f64 / written.max(1) as f64,
            params.seed,
        ))
    };
    parallel_map_with(jobs, record, workers)
        .into_iter()
        .collect()
}

/// Executes `trace info`: full per-file provenance and block statistics.
pub fn execute_info(args: &TraceFileArgs) -> Result<String, CliError> {
    let mut out = String::new();
    let verified = verify_traces(&args.files, max_threads());
    for (path, result) in args.files.iter().zip(verified) {
        let (meta, stats) =
            result.map_err(|e| CliError::runtime(format!("{}: {e}", path.display())))?;
        let suite = WorkloadClass::from_suite_tag(meta.suite_tag)
            .map(|c| {
                format!(
                    "{} slot {}",
                    c.key(),
                    meta.suite_index
                        .map_or_else(|| "?".into(), |i| i.to_string())
                )
            })
            .unwrap_or_else(|| "none".to_owned());
        let _ = writeln!(out, "{}", path.display());
        let _ = writeln!(out, "  name           {}", meta.name);
        let _ = writeln!(out, "  format version {}", meta.version);
        let _ = writeln!(out, "  seed           {}", meta.seed);
        let _ = writeln!(out, "  suite          {suite}");
        match meta.wrong_path {
            Some(wp) => {
                let _ = writeln!(
                    out,
                    "  wrong-path     seed {} region {:#x}+{} load-rate {}",
                    wp.seed, wp.region_base, wp.region_size, wp.load_rate
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  wrong-path     none (replay uses the default ALU fill)"
                );
            }
        }
        let _ = writeln!(
            out,
            "  instructions   {} ({} loads, {} stores, {} branches)",
            stats.insts, stats.loads, stats.stores, stats.branches
        );
        let ratio = stats.raw_bytes as f64 / stats.compressed_bytes.max(1) as f64;
        let _ = writeln!(
            out,
            "  blocks         {} ({} raw bytes -> {} compressed, {ratio:.2}:1)",
            stats.blocks, stats.raw_bytes, stats.compressed_bytes
        );
        match meta.checkpoint_every {
            Some(every) => {
                let _ = writeln!(
                    out,
                    "  checkpoints    {} (every {every} insts)",
                    stats.checkpoints
                );
            }
            None => {
                let _ = writeln!(out, "  checkpoints    none (v1 file)");
            }
        }
        let _ = writeln!(out, "  file bytes     {}", stats.file_bytes);
    }
    Ok(out)
}

/// Executes `trace verify`: fully decodes every file (all CRCs, every
/// record, the trailer count) on the worker pool's thread budget, through
/// the same [`verify_traces`] loop a `--trace` roster loads with. Returns
/// one `OK` line per file in argument order, or a runtime error listing
/// every failing file.
pub fn execute_verify(args: &TraceFileArgs) -> Result<String, CliError> {
    let mut out = String::new();
    let mut failures = Vec::new();
    let verified = verify_traces(&args.files, max_threads());
    for (path, result) in args.files.iter().zip(verified) {
        match result {
            Ok((meta, stats)) => {
                let ratio = stats.raw_bytes as f64 / stats.compressed_bytes.max(1) as f64;
                let _ = writeln!(
                    out,
                    "OK {}: {} ({} insts, {} blocks, {ratio:.2}:1 compression, all CRCs pass)",
                    path.display(),
                    meta.name,
                    stats.insts,
                    stats.blocks
                );
            }
            Err(e) => failures.push(format!("FAIL {}: {e}", path.display())),
        }
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(CliError::runtime(format!(
            "{out}{}\ntrace verification failed for {} of {} file(s)",
            failures.join("\n"),
            failures.len(),
            args.files.len()
        )))
    }
}

/// Loads `dir` as a roster and validates it against every `(experiment id,
/// classes, params)` job of a run, for the run's
/// [`elsq_sim::RunCtx::source`].
///
/// Each experiment declares which suites it simulates
/// ([`elsq_sim::experiments::Experiment::classes`]) and exactly those are
/// validated (full complement, seed match, commit-budget coverage), so a
/// single-suite dump (`trace dump fp`) replays FP-only experiments and is
/// rejected with a clean error — not a mid-run panic — when a selected
/// experiment needs the missing suite.
///
/// The roster's files are verified on `workers` threads.
pub fn load_roster(
    dir: &Path,
    jobs: &[(&str, &[WorkloadClass], ExperimentParams)],
    workers: usize,
) -> Result<TraceRoster, CliError> {
    let roster = TraceRoster::from_dir(dir, workers)
        .map_err(|e| CliError::runtime(format!("--trace {}: {e}", dir.display())))?;
    for (id, classes, params) in jobs {
        for class in *classes {
            roster
                .validate(*class, params.seed, params.commits)
                .map_err(|e| {
                    CliError::runtime(format!(
                        "--trace {}: experiment `{id}` cannot replay: {e}",
                        dir.display()
                    ))
                })?;
        }
    }
    Ok(roster)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{execute_run, parse, Command, OutputFormat, RunArgs};
    use elsq_stats::report::Report;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_owned()).collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("elsq-trace-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn dump_info_verify_round_trip() {
        let dir = tmp_dir("div");
        let dump = TraceDumpArgs {
            workloads: vec![],
            quick: false,
            commits: Some(400),
            seed: Some(5),
            out: dir.clone(),
            checkpoint_every: None,
        };
        let summary = execute_dump(&dump, 2).unwrap();
        assert_eq!(summary.lines().count(), 12, "both suites dumped");
        let files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 12);
        let info = execute_info(&TraceFileArgs {
            files: files.clone(),
        })
        .unwrap();
        assert!(info.contains("instructions   400"));
        assert!(info.contains("wrong-path     seed"));
        let verify = execute_verify(&TraceFileArgs { files }).unwrap();
        assert_eq!(verify.matches("OK ").count(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dump_single_workload_by_name() {
        let dir = tmp_dir("one");
        let dump = TraceDumpArgs {
            workloads: vec!["int-mcf".to_owned()],
            quick: true,
            commits: Some(100),
            seed: None,
            out: dir.clone(),
            checkpoint_every: None,
        };
        // Resolve the real name first: pick the first INT member's name.
        let name = suite(WorkloadClass::Int, 7)[0].name().to_owned();
        let dump = TraceDumpArgs {
            workloads: vec![name.clone()],
            ..dump
        };
        let summary = execute_dump(&dump, 2).unwrap();
        assert_eq!(summary.lines().count(), 1);
        assert!(summary.contains(&name));
        let bogus = TraceDumpArgs {
            workloads: vec!["no-such-workload".to_owned()],
            ..dump
        };
        let err = execute_dump(&bogus, 2).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("unknown workload"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_reports_corruption_with_exit_code_one() {
        let dir = tmp_dir("bad");
        let dump = TraceDumpArgs {
            workloads: vec!["fp".to_owned()],
            quick: true,
            commits: Some(120),
            seed: Some(3),
            out: dir.clone(),
            checkpoint_every: None,
        };
        execute_dump(&dump, 2).unwrap();
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        // Corrupt one file in the middle of its block payload.
        let victim = files[0].clone();
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&victim, bytes).unwrap();
        let err = execute_verify(&TraceFileArgs { files }).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("FAIL"), "{}", err.message);
        assert!(err.message.contains("OK "), "good files still listed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_rejects_bytes_after_the_trailer() {
        let dir = tmp_dir("tail");
        let dump = TraceDumpArgs {
            workloads: vec!["int".to_owned()],
            quick: true,
            commits: Some(150),
            seed: Some(3),
            out: dir.clone(),
            checkpoint_every: Some(50),
        };
        execute_dump(&dump, 2).unwrap();
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let victim = files[2].clone();
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes.extend_from_slice(b"GARBAGE-AFTER-TRAILER");
        std::fs::write(&victim, bytes).unwrap();
        let failure = format!(
            "FAIL {}: corrupt trace: 21 trailing bytes after the trailer",
            victim.display()
        );
        let err = execute_verify(&TraceFileArgs {
            files: files.clone(),
        })
        .unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains(&failure), "{}", err.message);
        assert!(err.message.contains("failed for 1 of 6"), "{}", err.message);
        let err = execute_info(&TraceFileArgs { files }).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(
            err.message.contains(&victim.display().to_string()),
            "{}",
            err.message
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_trace_subcommands() {
        let cmd = parse(&args(&[
            "trace",
            "dump",
            "fp",
            "--commits",
            "500",
            "--seed",
            "3",
            "--out",
            "traces/",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Trace(TraceCmd::Dump(TraceDumpArgs {
                workloads: vec!["fp".to_owned()],
                quick: false,
                commits: Some(500),
                seed: Some(3),
                out: PathBuf::from("traces/"),
                checkpoint_every: None,
            }))
        );
        let cmd = parse(&args(&["trace", "info", "a.etrc", "b.etrc"])).unwrap();
        assert_eq!(
            cmd,
            Command::Trace(TraceCmd::Info(TraceFileArgs {
                files: vec![PathBuf::from("a.etrc"), PathBuf::from("b.etrc")],
            }))
        );
        assert!(parse(&args(&["trace"])).is_err());
        assert!(
            parse(&args(&["trace", "dump"])).is_err(),
            "--out is required"
        );
        assert!(parse(&args(&["trace", "info"])).is_err(), "needs files");
        assert!(parse(&args(&["trace", "frobnicate"])).is_err());
    }

    #[test]
    fn dump_rejects_mixed_suite_and_name_selections() {
        let out = std::env::temp_dir().join(format!("elsq-trace-unreached-{}", std::process::id()));
        let dump = TraceDumpArgs {
            workloads: vec!["fp".to_owned(), "int-mcf".to_owned()],
            quick: true,
            commits: Some(10),
            seed: None,
            out: out.clone(),
            checkpoint_every: None,
        };
        let err = execute_dump(&dump, 2).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("not a mix"), "{}", err.message);
        // A member named twice would be written twice, by two workers at
        // once: refused before any directory is created.
        let fp = suite(WorkloadClass::Fp, 7);
        let (name, other) = (fp[1].name().to_owned(), fp[2].name().to_owned());
        let err = execute_dump(
            &TraceDumpArgs {
                workloads: vec![name.clone(), other, name.clone()],
                ..dump
            },
            2,
        )
        .unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(
            err.message.contains(&format!("`{name}` is named twice")),
            "{}",
            err.message
        );
        assert!(!out.exists(), "a usage error created {}", out.display());
    }

    /// The files and the summary of a dump are the same at any worker
    /// count, for v1 and checkpointed dumps alike.
    #[test]
    fn dump_is_byte_identical_at_any_worker_count() {
        for (tag, checkpoint_every) in [("v1", None), ("v2", Some(100))] {
            let dump = |workers: usize| {
                let dir = tmp_dir(&format!("det-{tag}-{workers}"));
                let summary = execute_dump(
                    &TraceDumpArgs {
                        workloads: vec![],
                        quick: true,
                        commits: Some(450),
                        seed: Some(11),
                        out: dir.clone(),
                        checkpoint_every,
                    },
                    workers,
                )
                .unwrap();
                let summary = summary.replace(&dir.display().to_string(), "DIR");
                (dir, summary)
            };
            let (serial, serial_summary) = dump(1);
            let (parallel, parallel_summary) = dump(4);
            assert_eq!(serial_summary, parallel_summary, "{tag}");
            let names: Vec<_> = std::fs::read_dir(&serial)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(names.len(), 12, "{tag}");
            assert_eq!(std::fs::read_dir(&parallel).unwrap().count(), 12, "{tag}");
            for name in names {
                let one = std::fs::read(serial.join(&name)).unwrap();
                let four = std::fs::read(parallel.join(&name)).unwrap();
                assert!(one == four, "{tag}: {name:?} differs");
            }
            std::fs::remove_dir_all(&serial).ok();
            std::fs::remove_dir_all(&parallel).ok();
        }
    }

    #[test]
    fn parse_run_trace_flag() {
        let Command::Run(run) = parse(&args(&["run", "fig7", "--trace", "traces/"])).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(run.trace, Some(PathBuf::from("traces/")));
        assert!(parse(&args(&["run", "fig7", "--trace"])).is_err());
    }

    /// A single-suite dump replays experiments that only run that suite
    /// (`tuning` declares FP-only) and cleanly rejects ones that need the
    /// missing suite — no mid-run panic.
    #[test]
    fn single_suite_dump_replays_single_suite_experiments() {
        let dir = tmp_dir("fponly");
        execute_dump(
            &TraceDumpArgs {
                workloads: vec!["fp".to_owned()],
                quick: false,
                commits: Some(800),
                seed: Some(7),
                out: dir.clone(),
                checkpoint_every: None,
            },
            2,
        )
        .unwrap();
        let run = RunArgs {
            ids: vec!["tuning".to_owned()],
            all: false,
            quick: false,
            commits: Some(800),
            seed: Some(7),
            format: OutputFormat::Json,
            out: None,
            jobs: None,
            sequential: false,
            trace: Some(dir.clone()),
            cache: None,
            resume: false,
            sample: None,
        };
        let replayed = execute_run(&run).unwrap();
        assert_eq!(replayed[0].id, "tuning");
        let err = execute_run(&RunArgs {
            ids: vec!["table2".to_owned()],
            ..run
        })
        .unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("cannot replay"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The acceptance pin: `trace dump` then `run fig7 --trace DIR` produces
    /// a report identical to the generator-driven run.
    #[test]
    fn run_with_trace_matches_generator_run() {
        let dir = tmp_dir("replay");
        execute_dump(
            &TraceDumpArgs {
                workloads: vec![],
                quick: false,
                commits: Some(1500),
                seed: Some(7),
                out: dir.clone(),
                checkpoint_every: None,
            },
            2,
        )
        .unwrap();
        let run = RunArgs {
            ids: vec!["fig7".to_owned()],
            all: false,
            quick: false,
            commits: Some(1500),
            seed: Some(7),
            format: OutputFormat::Json,
            out: None,
            jobs: None,
            sequential: false,
            trace: None,
            cache: None,
            resume: false,
            sample: None,
        };
        let generated: Vec<Report> = execute_run(&run)
            .unwrap()
            .into_iter()
            .map(Report::without_wall_time)
            .collect();
        let replayed: Vec<Report> = execute_run(&RunArgs {
            trace: Some(dir.clone()),
            ..run.clone()
        })
        .unwrap()
        .into_iter()
        .map(Report::without_wall_time)
        .collect();
        assert_eq!(
            replayed, generated,
            "replayed fig7 diverged from the generator run"
        );

        // Mismatched parameters are rejected up front with a clear error.
        let err = execute_run(&RunArgs {
            trace: Some(dir.clone()),
            seed: Some(8),
            ..run.clone()
        })
        .unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("seed"), "{}", err.message);
        let err = execute_run(&RunArgs {
            trace: Some(dir.clone()),
            commits: Some(2000),
            ..run
        })
        .unwrap_err();
        assert!(err.message.contains("re-dump"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }
}
