//! `paper-cold`: `elsq-lab run --all --sequential --jobs <nproc>` at every
//! experiment's default preset, with no result cache — the
//! paper-reproduction command. Generation and the detailed timing loop
//! both run inside the measured window; the result store, the service and
//! `.etrc` are never touched.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use elsq_bench::diff::parse_reports;
use elsq_cpu::{CpuConfig, Processor, SimResult};
use elsq_isa::SharedStream;
use elsq_sim::experiments::{registry, Experiment};
use elsq_sim::pool::parallel_map_with;
use elsq_sim::scenario::PointKey;
use elsq_sim::suite::{evaluate, Status, Suite, SuiteTarget};
use elsq_stats::{ExperimentParams, Report};
use elsq_workload::suite::{suite, WorkloadClass, SUITE_SIZE};

use crate::common::{
    argv, fnv64, lab, measure_window, median_secs, record_canon_keys, record_render, record_reps,
    record_setup, record_sim_counters, record_trace, Ctx, Outcome,
};
use crate::host::Timed;
use crate::trace::Tracer;

/// The seed every experiment preset uses; the `suites/` assertions are
/// calibrated at it, so they are only evaluated when the run uses it.
const PRESET_SEED: u64 = 7;

/// Warm-up repetitions in set-up (each a `run --all --quick`).
const SETUP_ROUNDS: usize = 3;

/// The Table 2 columns that count LSQ and cache accesses (per 100M
/// committed instructions), recorded as counters of every repetition.
const TABLE2_COUNTS: &[&str] = &[
    "HL-LQ",
    "HL-SQ",
    "LL-LQ",
    "LL-SQ",
    "ERT",
    "SSBF",
    "RoundTrips",
    "Cache",
];

fn params_of(e: &dyn Experiment, seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        ..e.default_params()
    }
}

/// Instructions one repetition commits as the experiments declare it
/// (every point runs each suite member to the commit budget): the
/// numerator of `sim_minst_per_s`. Traced runs check it against what the
/// simulator reports.
fn declared_committed() -> u64 {
    registry()
        .iter()
        .map(|e| e.plan().len() as u64 * SUITE_SIZE as u64 * e.default_params().commits)
        .sum()
}

fn run_all(ctx: &Ctx, quick: bool) -> Result<Vec<Report>, String> {
    let seed = ctx.seed.to_string();
    let jobs = ctx.jobs_arg();
    let mut args = argv(&[
        "run",
        "--all",
        "--sequential",
        "--jobs",
        &jobs,
        "--seed",
        &seed,
        "--format",
        "json",
    ]);
    if quick {
        args.push("--quick".to_owned());
    }
    parse_reports(&lab(&args)?)
}

/// The reports with wall time stripped, as the bytes compared between
/// repetitions.
fn stripped_bytes(reports: &[Report]) -> String {
    let stripped: Vec<Report> = reports
        .iter()
        .cloned()
        .map(Report::without_wall_time)
        .collect();
    serde_json::to_string(&stripped).expect("reports always serialize")
}

/// Counters read off the reports a repetition produced: their shape, and
/// the LSQ and cache access counts of Table 2.
fn record_report_counters(out: &mut Outcome, reports: &[Report]) {
    let tables = reports.iter().flat_map(|r| &r.tables);
    let (mut n_tables, mut rows, mut numeric) = (0u64, 0u64, 0u64);
    for table in tables {
        n_tables += 1;
        rows += table.rows().len() as u64;
        numeric += table
            .rows()
            .iter()
            .flatten()
            .filter(|c| c.value.is_some())
            .count() as u64;
    }
    out.counter("reports", reports.len() as u64);
    out.counter("report_tables", n_tables);
    out.counter("report_rows", rows);
    out.counter("report_numeric_cells", numeric);
    let table2 = reports.iter().filter(|r| r.id == "table2");
    let mut sums = vec![0u64; TABLE2_COUNTS.len()];
    for table in table2.flat_map(|r| &r.tables) {
        for (k, name) in TABLE2_COUNTS.iter().enumerate() {
            let Some(col) = table.headers().iter().position(|h| h == name) else {
                continue;
            };
            for row in table.rows() {
                // Cells hold count / 1e6; the count itself is an integer.
                sums[k] += row[col].value.map_or(0, |v| (v * 1e6).round() as u64);
            }
        }
    }
    for (name, sum) in TABLE2_COUNTS.iter().zip(sums) {
        out.counter(
            &format!("table2.{}_per_100m", name.to_lowercase().replace('-', "_")),
            sum,
        );
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let experiments = registry().len() as u64;
    let committed = declared_committed();

    // Set-up: warm-up repetitions at the quick preset.
    let mut setup = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let (warm, timed) = ctx.probe.time(|| run_all(ctx, true));
        setup.push(timed);
        out.checks.check(
            matches!(&warm, Ok(r) if r.len() as u64 == experiments),
            || format!("warm-up run --all --quick: {:?}", warm.as_ref().err()),
        );
    }
    record_setup(&mut out, &setup, true);

    // Measured window: whole repetitions until `--seconds` have passed
    // (one repetition in a traced run).
    let mut first: Option<(String, Vec<Report>)> = None;
    let (reps, job_ms) = measure_window(&mut out, !ctx.traced, |out| {
        let mut reps: Vec<Timed> = Vec::new();
        let mut job_ms = Vec::new();
        let window = Instant::now();
        while reps.is_empty() || (!ctx.traced && window.elapsed().as_secs_f64() < ctx.seconds) {
            let (reports, timed) = ctx.probe.time(|| run_all(ctx, false));
            reps.push(timed);
            let reports = match reports {
                Ok(r) => r,
                Err(e) => {
                    out.checks.check(false, || e);
                    continue;
                }
            };
            out.checks.check(reports.len() as u64 == experiments, || {
                format!("repetition produced {} reports", reports.len())
            });
            job_ms.extend(reports.iter().map(|r| r.wall_time_ms / timed.factor));
            let bytes = stripped_bytes(&reports);
            match &first {
                None => first = Some((bytes, reports)),
                Some((expected, _)) => out.checks.check(&bytes == expected, || {
                    format!(
                        "repetition {} reports differ from the first repetition's",
                        reps.len()
                    )
                }),
            }
        }
        (reps, job_ms)
    });
    record_reps(&mut out, &reps, committed as f64 / 1e6, experiments as f64);
    out.metric("job_p50_ms", crate::stats::median(&job_ms), "ms");
    out.latency("job", &job_ms);

    let Some((bytes, reports)) = first else {
        return out;
    };
    out.counter("report_digest", fnv64(bytes.as_bytes()));
    out.counter("report_bytes", bytes.len() as u64);
    record_report_counters(&mut out, &reports);
    out.checks.note(format!(
        "ok {} repetition(s) byte-identical with wall time stripped",
        reps.len()
    ));

    let suites = load_suites(Path::new("suites"), &mut out);
    if ctx.seed == PRESET_SEED {
        check_suites(&suites, &reports, &mut out);
    } else {
        out.checks.note(format!(
            "skip suites/ assertions: calibrated at seed {PRESET_SEED}, run at seed {}",
            ctx.seed
        ));
    }

    if ctx.traced {
        traced(ctx, &mut out, reps[0].secs, &reports, &suites);
    }
    out
}

fn load_suites(dir: &Path, out: &mut Outcome) -> Vec<Suite> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    out.checks.check(!files.is_empty(), || {
        format!("no suite files under {}", dir.display())
    });
    files
        .iter()
        .filter_map(|path| {
            let suite = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| Suite::from_json(&text));
            out.checks.check(suite.is_ok(), || {
                format!("{}: {:?}", path.display(), suite.as_ref().err())
            });
            suite.ok()
        })
        .collect()
}

/// Evaluates every `suites/` assertion against the reports the measured
/// repetition produced.
fn check_suites(suites: &[Suite], reports: &[Report], out: &mut Outcome) {
    let (mut passed, mut total) = (0usize, 0usize);
    for suite in suites {
        let report = match &suite.target {
            SuiteTarget::Experiment(id) => reports.iter().find(|r| &r.id == id),
            SuiteTarget::Scenario(_) => None,
        };
        let Some(report) = report else {
            out.checks.check(false, || {
                format!(
                    "suite {}: no report for {}",
                    suite.name,
                    suite.target.describe()
                )
            });
            continue;
        };
        out.checks
            .check(suite.effective_params().ok() == Some(report.params), || {
                format!("suite {}: parameters differ from the run's", suite.name)
            });
        let outcome = evaluate(suite, report, Path::new("suites"));
        for check in &outcome.checks {
            total += 1;
            let ok = check.status == Status::Pass;
            passed += usize::from(ok);
            out.checks.check(ok, || {
                format!("suite {} / {}: {}", suite.name, check.name, check.detail)
            });
        }
        out.checks.check(outcome.degraded.is_empty(), || {
            format!(
                "suite {}: degraded cells {:?}",
                suite.name, outcome.degraded
            )
        });
    }
    out.counter("suite_assertions", total as u64);
    out.checks.note(format!(
        "ok {passed}/{total} suites/ assertions pass against the measured reports"
    ));
}

/// What one direct repeat produced.
struct Direct {
    results: Vec<SimResult>,
    keys: Vec<PointKey>,
    captured: u64,
    secs: f64,
}

/// One repeat of the repetition's work through the layers' public
/// functions: every experiment's declared grid, class by class, as
/// generation (`SharedStream::capture`) and the detailed loop
/// (`Processor::run`) fanned out over the program's worker pool.
fn direct(ctx: &Ctx, tracer: &Tracer) -> Direct {
    let workers = ctx.workers;
    let mut results: Vec<SimResult> = Vec::new();
    let mut keys = Vec::new();
    let mut captured = 0u64;
    let t = Instant::now();
    tracer.span(0, "bench", "pass", 0, |root| {
        for (ei, e) in registry().iter().enumerate() {
            let params = params_of(*e, ctx.seed);
            let job = ei as u64;
            tracer.span(root, "bench", "experiment", job, |exp| {
                let plan = e.plan();
                let mut classes: Vec<WorkloadClass> = Vec::new();
                for p in &plan.points {
                    if !classes.contains(&p.class) {
                        classes.push(p.class);
                    }
                    keys.push(PointKey::current(p.config, p.class, &params));
                }
                for class in classes {
                    let configs: Vec<CpuConfig> = plan
                        .points
                        .iter()
                        .filter(|p| p.class == class)
                        .map(|p| p.config)
                        .collect();
                    let streams = tracer.span(exp, "sim", "pool.capture", job, |pool| {
                        parallel_map_with(
                            suite(class, params.seed),
                            |mut w| {
                                tracer.span(pool, "workload", "capture", job, |_| {
                                    Arc::new(SharedStream::capture(w.as_mut(), params.commits))
                                })
                            },
                            workers,
                        )
                    });
                    captured += streams.iter().map(|s| s.len() as u64).sum::<u64>();
                    let jobs: Vec<(CpuConfig, Arc<SharedStream>)> = configs
                        .iter()
                        .flat_map(|c| streams.iter().map(move |s| (*c, Arc::clone(s))))
                        .collect();
                    let run = tracer.span(exp, "sim", "pool.run", job, |pool| {
                        parallel_map_with(
                            jobs,
                            |(config, stream)| {
                                tracer.span(pool, "cpu", "run", job, |_| {
                                    Processor::new(config).run(&mut stream.cursor(), params.commits)
                                })
                            },
                            workers,
                        )
                    });
                    results.extend(run);
                }
            });
        }
    });
    Direct {
        results,
        keys,
        captured,
        secs: t.elapsed().as_secs_f64(),
    }
}

/// The traced run's per-layer metrics: the direct repeat once with
/// tracing off and once on (their difference is the tracing overhead),
/// then probes of suite evaluation, rendering and key hashing.
fn traced(ctx: &Ctx, out: &mut Outcome, cli_s: f64, reports: &[Report], suites: &[Suite]) {
    let untraced = direct(ctx, &Tracer::off());
    drop(untraced.results);
    let tracer = Tracer::new();
    let run = direct(ctx, &tracer);
    let spans = record_trace(out, &tracer, untraced.secs, run.secs, Some(cli_s));
    record_sim_counters(out, &run.results);
    let committed = declared_committed();
    out.checks.check(
        out.counters.get("sim.committed") == Some(&committed),
        || {
            format!(
                "traced repeat committed {:?} instructions, the declared grids {committed}",
                out.counters.get("sim.committed")
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
    let workers = ctx.workers;
    let (capture_s, run_s) = (busy("capture"), busy("run"));
    out.counter("captured_insts", run.captured);
    out.metric("workload.capture_s", capture_s, "s");
    out.metric(
        "workload.gen_minst_per_s",
        run.captured as f64 / capture_s.max(1e-9) / 1e6,
        "Minst/s",
    );
    out.metric(
        "cpu.run_ns_per_inst",
        run_s * 1e9 / out.counters["sim.committed"].max(1) as f64,
        "ns",
    );
    out.metric(
        "sim.pool_utilization",
        (capture_s + run_s)
            / ((busy("pool.capture") + busy("pool.run")) * workers as f64).max(1e-9),
        "ratio",
    );

    let eval_s = median_secs(3, || {
        for suite in suites {
            if let SuiteTarget::Experiment(id) = &suite.target {
                if let Some(report) = reports.iter().find(|r| &r.id == id) {
                    std::hint::black_box(evaluate(suite, report, Path::new("suites")));
                }
            }
        }
    });
    out.metric(
        "sim.suite_eval_ms",
        eval_s * 1e3 / suites.len().max(1) as f64,
        "ms",
    );
    record_render(out, reports);
    record_canon_keys(out, &run.keys);
    crate::write_spans(ctx, "paper-cold", &spans);
}
