//! `sampled-replay`: set-up dumps both suites as checkpointed `.etrc`
//! traces (`trace dump`) and verifies every CRC (`trace verify`); the
//! measured phase repeats a `sweep --trace DIR --sample P:W:U` over a
//! four-point grid (two configurations per class). The batched capture
//! decodes every trace in full and the detailed loop runs about a tenth of
//! the stream, so `.etrc` decode and functional fast-forward and warming do
//! much of the work.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use elsq_cpu::{CpuConfig, Processor, SimResult};
use elsq_isa::etrc::record_with_checkpoints;
use elsq_isa::{FileTrace, SharedStream};
use elsq_sim::pool::parallel_map_with;
use elsq_sim::scenario::{PointKey, ScenarioSpec, SweepPlan};
use elsq_stats::SamplingSpec;
use elsq_workload::suite::{suite, WorkloadClass, SUITE_SIZE};

use crate::common::{
    argv, fnv64, lab, measure_window, record_canon_keys, record_render, record_reps, record_setup,
    record_sim_counters, record_trace, sweep_scenario, Ctx, Outcome,
};
use crate::host::Timed;
use crate::trace::Tracer;

/// Instructions recorded per workload.
const TRACE_INSTS: u64 = 500_000;
/// Checkpoint spacing of the dumped traces.
const CHECKPOINT_EVERY: u64 = 50_000;
/// `--sample PERIOD:WINDOW:WARMUP`: a 5k detailed window after 1k of
/// warming in every 50k instructions.
const SAMPLE: &str = "50000:5000:1000";
/// Set-up repetitions (dump and verify).
const SETUP_ROUNDS: usize = 3;
/// The swept grid: two configurations on each class.
const GRID: &[&str] = &[
    "--base",
    "fmc-hash-sqm",
    "--axis",
    "rob=64,128",
    "--classes",
    "both",
];

fn trace_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "etrc"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

/// Dumps both suites and verifies every trace; returns the trace files.
fn dump_and_verify(ctx: &Ctx, dir: &Path, out: &mut Outcome) -> Vec<PathBuf> {
    let _ = std::fs::remove_dir_all(dir);
    let dumped = lab(&argv(&[
        "trace",
        "dump",
        "both",
        "--out",
        &dir.display().to_string(),
        "--commits",
        &TRACE_INSTS.to_string(),
        "--seed",
        &ctx.seed.to_string(),
        "--checkpoint-every",
        &CHECKPOINT_EVERY.to_string(),
    ]));
    out.checks
        .check(dumped.is_ok(), || format!("trace dump: {:?}", dumped.err()));
    let files = trace_files(dir);
    out.checks.check(files.len() == 2 * SUITE_SIZE, || {
        format!("trace dump wrote {} traces", files.len())
    });
    let mut args = argv(&["trace", "verify"]);
    args.extend(files.iter().map(|f| f.display().to_string()));
    let verified = lab(&args);
    out.checks.check(verified.is_ok(), || {
        format!("trace verify (CRCs): {:?}", verified.err())
    });
    files
}

fn sweep_args(ctx: &Ctx, dir: &Path) -> Vec<String> {
    let mut args = vec!["sweep".to_owned()];
    args.extend(argv(GRID));
    args.extend(argv(&[
        "--commits",
        &TRACE_INSTS.to_string(),
        "--seed",
        &ctx.seed.to_string(),
        "--trace",
        &dir.display().to_string(),
        "--sample",
        SAMPLE,
        "--jobs",
        &ctx.jobs_arg(),
        "--format",
        "json",
    ]));
    args
}

/// The scenario the measured sweep runs.
fn scenario(ctx: &Ctx) -> ScenarioSpec {
    let mut flags = argv(GRID);
    flags.extend(argv(&[
        "--commits",
        &TRACE_INSTS.to_string(),
        "--seed",
        &ctx.seed.to_string(),
        "--sample",
        SAMPLE,
    ]));
    sweep_scenario(&flags)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let dir = ctx.work.join("traces");
    let mut setup = Vec::new();
    let mut files = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let (dumped, timed) = ctx.probe.time(|| dump_and_verify(ctx, &dir, &mut out));
        files = dumped;
        setup.push(timed);
    }
    record_setup(&mut out, &setup, true);
    let trace_bytes: u64 = files
        .iter()
        .map(|f| std::fs::metadata(f).map_or(0, |m| m.len()))
        .sum();
    out.counter("trace_files", files.len() as u64);
    out.counter("trace_bytes", trace_bytes);
    out.checks.note(format!(
        "ok {} trace(s), {trace_bytes} bytes, CRCs verified",
        files.len()
    ));

    let args = sweep_args(ctx, &dir);
    // Skipped, warmed and detailed instructions of every point: each
    // suite member's whole trace.
    let points = scenario(ctx).expand().map_or(0, |p| p.len() as u64);
    let covered = points * SUITE_SIZE as u64 * TRACE_INSTS;

    // Warm-up repetition, then the measured window.
    let warm = lab(&args);
    out.checks.check(warm.is_ok(), || {
        format!("warm-up sweep: {:?}", warm.as_ref().err())
    });
    let expected = warm.unwrap_or_default();
    let reps = measure_window(&mut out, !ctx.traced, |out| {
        let mut reps: Vec<Timed> = Vec::new();
        let window = Instant::now();
        while reps.is_empty() || (!ctx.traced && window.elapsed().as_secs_f64() < ctx.seconds) {
            let (report, timed) = ctx.probe.time(|| lab(&args));
            reps.push(timed);
            out.checks.check(report.as_ref() == Ok(&expected), || {
                format!(
                    "repetition {}: report differs from the warm-up's ({:?})",
                    reps.len(),
                    report.err()
                )
            });
        }
        reps
    });
    out.counter("report_digest", fnv64(expected.as_bytes()));
    record_report_counters(&mut out, &expected);
    out.checks.note(format!(
        "ok {} repetition(s) byte-identical to the warm-up",
        reps.len()
    ));
    record_reps(&mut out, &reps, covered as f64 / 1e6, 1.0);
    let job_ms: Vec<f64> = reps.iter().map(|r| r.normalised() * 1e3).collect();
    out.metric("job_p50_ms", crate::stats::median(&job_ms), "ms");
    out.latency("job", &job_ms);

    if ctx.traced {
        traced(ctx, &mut out, &files, reps[0].secs, &expected);
    }
    out
}

/// Counters read off the sweep report: its rows (points times classes)
/// and the detailed windows the sampled runs measured, from each row's
/// `mean ±half-width (n=W)` cell.
fn record_report_counters(out: &mut Outcome, report: &str) {
    let reports = elsq_bench::diff::parse_reports(report).unwrap_or_default();
    let (mut rows, mut windows) = (0u64, 0u64);
    for table in reports.iter().flat_map(|r| &r.tables) {
        for row in table.rows() {
            rows += 1;
            windows += row
                .iter()
                .filter_map(|c| {
                    c.text
                        .split_once("(n=")?
                        .1
                        .strip_suffix(')')?
                        .parse::<u64>()
                        .ok()
                })
                .sum::<u64>();
        }
    }
    out.counter("report_rows", rows);
    out.counter("report_windows", windows);
    out.checks.check(rows > 0 && windows > 0, || {
        format!("sweep report has {rows} row(s) and {windows} sampled window(s)")
    });
}

/// One repeat of the sweep's work through the layers' public functions:
/// per class, decode every trace in full (`FileTrace` into
/// `SharedStream::capture`), then `Processor::run_sampled` for each
/// configuration over each stream, on the program's worker pool. Returns
/// the results, the bytes of the trace files decoded and the wall time.
fn direct(
    ctx: &Ctx,
    tracer: &Tracer,
    files: &[PathBuf],
    plan: &SweepPlan,
) -> (Vec<SimResult>, u64, f64) {
    let spec = SamplingSpec::parse(SAMPLE).expect("the benchmark's sampling spec is valid");
    let workers = ctx.workers;
    let mut results: Vec<SimResult> = Vec::new();
    let mut decoded_bytes = 0u64;
    let t = Instant::now();
    tracer.span(0, "bench", "pass", 0, |root| {
        for (ci, class) in [WorkloadClass::Fp, WorkloadClass::Int]
            .into_iter()
            .enumerate()
        {
            let prefix = format!("{}-", class.key());
            let class_files: Vec<PathBuf> = files
                .iter()
                .filter(|f| {
                    f.file_name()
                        .is_some_and(|n| n.to_string_lossy().starts_with(&prefix))
                })
                .cloned()
                .collect();
            decoded_bytes += class_files
                .iter()
                .map(|f| std::fs::metadata(f).map_or(0, |m| m.len()))
                .sum::<u64>();
            let job = ci as u64;
            let streams = tracer.span(root, "sim", "pool.decode", job, |pool| {
                parallel_map_with(
                    class_files,
                    |path| {
                        tracer.span(pool, "isa", "decode", job, |_| {
                            let mut trace = FileTrace::open(&path)
                                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                            Arc::new(SharedStream::capture(&mut trace, TRACE_INSTS))
                        })
                    },
                    workers,
                )
            });
            let configs: Vec<CpuConfig> = plan
                .points
                .iter()
                .filter(|p| p.class == class)
                .map(|p| p.config)
                .collect();
            let jobs: Vec<(CpuConfig, Arc<SharedStream>)> = configs
                .iter()
                .flat_map(|c| streams.iter().map(move |s| (*c, Arc::clone(s))))
                .collect();
            let run = tracer.span(root, "sim", "pool.run", job, |pool| {
                parallel_map_with(
                    jobs,
                    |(config, stream)| {
                        tracer.span(pool, "cpu", "run_sampled", job, |_| {
                            Processor::new(config).run_sampled(
                                &mut stream.cursor(),
                                TRACE_INSTS,
                                spec,
                            )
                        })
                    },
                    workers,
                )
            });
            results.extend(run);
        }
    });
    (results, decoded_bytes, t.elapsed().as_secs_f64())
}

/// The traced run's per-layer metrics: the direct repeat once with
/// tracing off and once on (their difference is the tracing overhead).
/// Generation and `.etrc` encoding, which set-up pays inside `trace dump`,
/// are probed afterwards, one workload at a time.
fn traced(ctx: &Ctx, out: &mut Outcome, files: &[PathBuf], cli_s: f64, report: &str) {
    let scenario = scenario(ctx);
    let plan = scenario.expand().expect("the benchmark grid is valid");
    let keys: Vec<PointKey> = plan
        .points
        .iter()
        .map(|p| PointKey::current(p.config, p.class, &scenario.params))
        .collect();
    let (_, _, untraced_s) = direct(ctx, &Tracer::off(), files, &plan);
    let tracer = Tracer::new();
    let (results, decoded_bytes, traced_s) = direct(ctx, &tracer, files, &plan);
    let workers = ctx.workers;

    // Set-up's layers, probed one workload at a time to bound memory:
    // generation (`SharedStream::capture` of a generator) and `.etrc`
    // encoding with checkpoints (`record_with_checkpoints`).
    let mut encoded = (0u64, 0u64);
    let members: Vec<(WorkloadClass, u8)> = [WorkloadClass::Fp, WorkloadClass::Int]
        .into_iter()
        .flat_map(|c| (0..SUITE_SIZE as u8).map(move |i| (c, i)))
        .collect();
    let probes = parallel_map_with(
        members,
        |(class, index)| {
            let mut generator = suite(class, ctx.seed).swap_remove(usize::from(index));
            let stream = tracer.span(0, "workload", "capture", u64::from(index), |_| {
                Arc::new(SharedStream::capture(generator.as_mut(), TRACE_INSTS))
            });
            tracer.span(0, "isa", "encode", u64::from(index), |_| {
                let mut sink = Vec::new();
                let (_, insts) = record_with_checkpoints(
                    &mut stream.cursor(),
                    TRACE_INSTS,
                    ctx.seed,
                    class.suite_tag(),
                    Some(index),
                    Some(CHECKPOINT_EVERY),
                    &mut sink,
                )
                .expect("encoding to memory cannot fail");
                (sink.len() as u64, insts, stream.len() as u64)
            })
        },
        workers,
    );
    let mut generated = 0u64;
    for (bytes, insts, captured) in probes {
        encoded.0 += bytes;
        encoded.1 += insts;
        generated += captured;
    }

    let spans = record_trace(out, &tracer, untraced_s, traced_s, Some(cli_s));
    record_sim_counters(out, &results);
    let declared = plan.len() as u64 * SUITE_SIZE as u64 * TRACE_INSTS;
    out.checks.check(
        out.counters.get("sim.covered_insts") == Some(&declared),
        || {
            format!(
                "traced repeat covered {:?} instructions, the declared grid {declared}",
                out.counters.get("sim.covered_insts")
            )
        },
    );
    let busy = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs())
            .sum()
    };
    let covered = out.counters["sim.covered_insts"].max(1) as f64;
    out.metric(
        "isa.etrc_decode_mb_per_s",
        decoded_bytes as f64 / busy("decode").max(1e-9) / 1e6,
        "MB/s",
    );
    out.metric(
        "isa.etrc_encode_mb_per_s",
        encoded.0 as f64 / busy("encode").max(1e-9) / 1e6,
        "MB/s",
    );
    out.metric(
        "isa.etrc_bytes_per_inst",
        encoded.0 as f64 / encoded.1.max(1) as f64,
        "B/inst",
    );
    out.metric("workload.capture_s", busy("capture"), "s");
    out.metric(
        "workload.gen_minst_per_s",
        generated as f64 / busy("capture").max(1e-9) / 1e6,
        "Minst/s",
    );
    out.metric(
        "cpu.sampled_ns_per_covered_inst",
        busy("run_sampled") * 1e9 / covered,
        "ns",
    );
    let pools = busy("pool.decode") + busy("pool.run");
    out.metric(
        "sim.pool_utilization",
        (busy("decode") + busy("run_sampled")) / (pools * workers as f64).max(1e-9),
        "ratio",
    );
    if let Ok(reports) = elsq_bench::diff::parse_reports(report) {
        record_render(out, &reports);
    }
    record_canon_keys(out, &keys);
    crate::write_spans(ctx, "sampled-replay", &spans);
}
