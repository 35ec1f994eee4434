//! The repository benchmark. See README.md in this directory.
//!
//! ```text
//! perfbench --workload paper-cold|serve-mixed|sampled-replay \
//!           --seed N --seconds S --trace 0|1
//! perfbench compare DIR_A DIR_B
//! ```
//!
//! Run from the root of a repository checkout (it reads `BENCHMARK.json`
//! and `suites/` and writes only under `.bench_runs/`). Human-readable lines go first; the
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the per-layer
//! metrics traced).

mod common;
mod compare;
mod host;
mod paper_cold;
mod sampled_replay;
mod serve_mixed;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::Value;

use common::{fnv64, Ctx, Outcome};
use spec::Spec;

/// The benchmark's declaration, at the root of the checkout.
pub const SPEC_FILE: &str = "BENCHMARK.json";

const USAGE: &str = "usage: perfbench --workload paper-cold|serve-mixed|sampled-replay \
--seed N --seconds S --trace 0|1\n       perfbench compare DIR_A DIR_B";

/// Everything the benchmark writes lives under this directory of the
/// checkout: run records, counter ledgers, spans and per-run scratch.
pub const RUNS_DIR: &str = ".bench_runs";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_owned()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                traced = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (expected 0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["paper-cold", "serve-mixed", "sampled-replay"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

/// Writes a run's spans as NDJSON under `.bench_runs/spans/`.
pub fn write_spans(ctx: &Ctx, workload: &str, spans: &[trace::Span]) {
    let path = Path::new(RUNS_DIR)
        .join("spans")
        .join(format!("{workload}-seed{}.ndjson", ctx.seed));
    if let Err(e) = trace::write_spans(&path, spans) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// `{name: {"value": …, "unit": …}}` for the given metrics.
fn metrics_value<'a>(entries: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Value {
    Value::Map(
        entries
            .map(|(name, value, unit)| {
                (
                    name.to_owned(),
                    Value::Map(vec![
                        ("value".to_owned(), Value::F64(value)),
                        ("unit".to_owned(), Value::Str(unit.to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

fn counters_value(counters: &BTreeMap<String, u64>) -> Value {
    Value::Map(
        counters
            .iter()
            .map(|(k, v)| (k.clone(), Value::U64(*v)))
            .collect(),
    )
}

/// Compares this run's deterministic counters with the last run of the
/// same binary at the same workload, seed and mode, then stores them.
fn check_counters(args: &Args, fingerprint: &str, out: &mut Outcome) {
    let path = Path::new(RUNS_DIR).join("counters").join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.traced)
    ));
    let previous = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::parse_value(&text).ok());
    if let Some(prev) = previous {
        if prev.get("fingerprint") == Some(&Value::Str(fingerprint.to_owned())) {
            let mut differ = Vec::new();
            for (name, value) in &out.counters {
                let before = prev.get("counters").and_then(|c| c.get(name));
                if before != Some(&Value::U64(*value)) {
                    differ.push(format!("{name}: {before:?} -> {value}"));
                }
            }
            let ok = differ.is_empty();
            out.checks.check(ok, || {
                format!(
                    "deterministic counters differ from an earlier run of this binary: {}",
                    differ.join(", ")
                )
            });
            if ok {
                out.checks.note(format!(
                    "ok {} deterministic counters repeat an earlier run of this binary",
                    out.counters.len()
                ));
            }
        }
    }
    let record = Value::Map(vec![
        ("fingerprint".to_owned(), Value::Str(fingerprint.to_owned())),
        ("counters".to_owned(), counters_value(&out.counters)),
    ]);
    let written = std::fs::create_dir_all(path.parent().expect("ledger path has a parent"))
        .and_then(|()| {
            std::fs::write(
                &path,
                serde_json::to_string(&record).expect("values always serialize"),
            )
        });
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

fn run(args: &Args) -> i32 {
    if !Path::new("suites").is_dir() || !Path::new("crates").is_dir() {
        eprintln!(
            "perfbench: run from the root of a repository checkout (no suites/ or crates/ here)"
        );
        return 2;
    }
    let spec = match Spec::load(Path::new(SPEC_FILE)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The program's worker pools read ELSQ_THREADS at every fan-out; set it
    // before any thread starts so the daemon's pools see it too.
    std::env::set_var("ELSQ_THREADS", workers.to_string());
    let work: PathBuf =
        Path::new(RUNS_DIR)
            .join("work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return 1;
    }
    let ctx = Ctx {
        probe: host::HostProbe::start(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        workers,
        work: work.clone(),
    };
    let mut out = match args.workload.as_str() {
        "paper-cold" => paper_cold::run(&ctx),
        "serve-mixed" => serve_mixed::run(&ctx),
        _ => sampled_replay::run(&ctx),
    };
    drop(ctx);
    let _ = std::fs::remove_dir_all(&work);
    out.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
    out.metric(
        "error_rate",
        out.checks.failed as f64 / out.checks.attempted.max(1) as f64,
        "ratio",
    );
    let exe = std::env::current_exe().and_then(std::fs::read);
    let fingerprint = format!("{:016x}", fnv64(&exe.unwrap_or_default()));
    check_counters(args, &fingerprint, &mut out);

    let reported = if args.traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let names: Vec<(&str, &str)> = reported
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    let correct = out.checks.failed == 0;
    println!(
        "perfbench {} seed {} ({}, {} worker(s), {}s window)",
        args.workload,
        args.seed,
        if args.traced { "traced" } else { "untraced" },
        workers,
        args.seconds
    );
    for (name, (value, unit)) in &out.metrics {
        let reported = names.iter().any(|(n, _)| n == name);
        let direction = match spec.find(name).map(|m| m.higher_is_better) {
            Some(true) => " (higher is better)",
            Some(false) => " (lower is better)",
            None => "",
        };
        println!(
            "  {} {name} = {value:.6} {unit}{direction}",
            if reported { "*" } else { " " }
        );
    }
    for (name, value) in &out.counters {
        println!("  # {name} = {value}");
    }
    for line in &out.checks.verdicts {
        println!("  {line}");
    }
    println!(
        "  checks: {} attempted, {} failed (error_rate {})",
        out.checks.attempted,
        out.checks.failed,
        out.checks.failed as f64 / out.checks.attempted.max(1) as f64
    );

    let all_metrics = metrics_value(
        out.metrics
            .iter()
            .map(|(name, (value, unit))| (name.as_str(), *value, *unit)),
    );
    let record = Value::Map(vec![
        ("workload".to_owned(), Value::Str(args.workload.clone())),
        ("seed".to_owned(), Value::U64(args.seed)),
        ("trace".to_owned(), Value::Bool(args.traced)),
        ("fingerprint".to_owned(), Value::Str(fingerprint)),
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::U64(out.checks.attempted)),
        ("failed".to_owned(), Value::U64(out.checks.failed)),
        ("metrics".to_owned(), all_metrics),
        ("counters".to_owned(), counters_value(&out.counters)),
    ]);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = Path::new(RUNS_DIR).join("records").join(format!(
        "{}-{stamp}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.traced)
    ));
    let written = std::fs::create_dir_all(path.parent().expect("record path has a parent"))
        .and_then(|()| {
            std::fs::write(
                &path,
                serde_json::to_string(&record).expect("values always serialize"),
            )
        });
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
    }

    let result = Value::Map(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        (
            "attempted".to_owned(),
            Value::U64(out.checks.attempted.max(1)),
        ),
        ("failed".to_owned(), Value::U64(out.checks.failed)),
        (
            "metrics".to_owned(),
            metrics_value(names.iter().map(|(name, unit)| {
                let value = out.metrics.get(*name).map_or(0.0, |m| m.0);
                (*name, value, *unit)
            })),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("values always serialize")
    );
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        match Spec::load(Path::new(SPEC_FILE)) {
            Ok(spec) => compare::main(&spec, &args[1..]),
            Err(e) => {
                eprintln!("perfbench compare: {e} (run from the repository root)");
                2
            }
        }
    } else {
        match parse_args(&args) {
            Ok(parsed) => run(&parsed),
            Err(e) => {
                eprintln!("perfbench: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}
