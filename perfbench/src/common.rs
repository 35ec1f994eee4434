//! What every workload shares: the run context, the outcome a workload
//! returns, output checks, window timing and the simulator counters read
//! off `SimResult`s.

use std::collections::BTreeMap;
use std::path::PathBuf;

use elsq_bench::cli::run_cli;
use elsq_cpu::SimResult;

use crate::host::{HostProbe, Timed};

/// One benchmark run's settings.
pub struct Ctx {
    /// Host-speed probe, running for the whole run.
    pub probe: HostProbe,
    /// Workload seed (`--seed`): every input is derived from it.
    pub seed: u64,
    /// Length of the measured window (`--seconds`).
    pub seconds: f64,
    /// Traced run (`--trace 1`): per-layer metrics instead of end-to-end.
    pub traced: bool,
    /// Worker threads handed to the program (`--jobs`, `ELSQ_THREADS`).
    pub workers: usize,
    /// Scratch directory of this run inside the checkout; removed at exit.
    pub work: PathBuf,
}

impl Ctx {
    pub fn jobs_arg(&self) -> String {
        self.workers.to_string()
    }
}

/// Output checks and operation counts; every failure counts in
/// `error_rate` and makes the run incorrect.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per check group, printed with its verdict.
    pub verdicts: Vec<String>,
}

impl Checks {
    /// Counts one attempted operation or output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.verdicts.push(format!("FAIL {}", what()));
        }
    }

    /// Records a passing summary line for a group of checks.
    pub fn note(&mut self, line: impl Into<String>) {
        self.verdicts.push(line.into());
    }
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Every measured metric: end-to-end ones (untraced runs) or per-layer
    /// ones (traced runs), plus extras that are printed and recorded.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Deterministic work counters: identical for the same binary at the
    /// same seed, whatever the host.
    pub counters: BTreeMap<String, u64>,
    pub checks: Checks,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_owned(), value);
    }

    /// Records a latency distribution as `<prefix>_p50_ms` and
    /// `<prefix>_tail_ms`, with the tail's percentile and the number of
    /// samples beyond it.
    pub fn latency(&mut self, prefix: &str, samples_ms: &[f64]) {
        self.metric(
            &format!("{prefix}_p50_ms"),
            crate::stats::median(samples_ms),
            "ms",
        );
        self.metric(
            &format!("{prefix}_samples"),
            samples_ms.len() as f64,
            "count",
        );
        if let Some((p, value, beyond)) = crate::stats::tail(samples_ms) {
            self.metric(&format!("{prefix}_tail_ms"), value, "ms");
            self.metric(&format!("{prefix}_tail_percentile"), p, "%");
            self.metric(&format!("{prefix}_tail_beyond"), beyond as f64, "count");
        }
    }
}

/// Steal share above which a measured window is taken again: the share of
/// the machine's CPU time the hypervisor gave to other guests while the
/// window ran. On a shared host, episodes of heavy steal slowed
/// serve-mixed 2.5-fold for minutes at a time.
const MAX_STEAL_SHARE: f64 = 0.05;

/// A window is re-measured only while all attempts so far, plus one more
/// of the same length, fit in this many seconds, so a run ends well inside
/// its three-minute limit even through a steal episode.
const RETRY_BUDGET_S: f64 = 100.0;

/// Steal and total CPU time of the machine so far, in clock ticks (the
/// aggregate `cpu` line of `/proc/stat`); `None` where it is unavailable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Runs the measured window, and runs it again while the hypervisor
/// withheld more than [`MAX_STEAL_SHARE`] of the CPU time during it and
/// [`RETRY_BUDGET_S`] allows (only if `retry`); returns the attempt with
/// the lowest steal share. Every attempt's output checks count.
pub fn measure_window<R>(
    out: &mut Outcome,
    retry: bool,
    mut measure: impl FnMut(&mut Outcome) -> R,
) -> R {
    let mut attempts: Vec<(f64, R)> = Vec::new();
    let started = std::time::Instant::now();
    loop {
        let before = cpu_ticks();
        let t = std::time::Instant::now();
        let result = measure(out);
        let took = t.elapsed().as_secs_f64();
        let share = match (before, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        attempts.push((share, result));
        let fits = started.elapsed().as_secs_f64() + took <= RETRY_BUDGET_S;
        if !retry || share <= MAX_STEAL_SHARE || !fits {
            break;
        }
    }
    out.metric("window_attempts", attempts.len() as f64, "count");
    let (share, result) = attempts
        .into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one attempt ran");
    out.metric("host_steal_share", share, "ratio");
    result
}

/// Records the metrics of a CPU-bound window of `reps` repetitions that
/// each simulated `minst_per_rep` million instructions and ran
/// `jobs_per_rep` jobs: `sim_minst_per_s`, `jobs_per_s` and the raw
/// (not host-normalised) rate beside them.
pub fn record_reps(out: &mut Outcome, reps: &[Timed], minst_per_rep: f64, jobs_per_rep: f64) {
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| minst_per_rep / r.normalised())
        .collect();
    let raw: Vec<f64> = reps.iter().map(|r| minst_per_rep / r.secs).collect();
    let total: f64 = reps.iter().map(Timed::normalised).sum();
    out.metric("sim_minst_per_s", crate::stats::median(&rates), "Minst/s");
    out.metric("raw_sim_minst_per_s", crate::stats::median(&raw), "Minst/s");
    out.metric(
        "jobs_per_s",
        jobs_per_rep * reps.len() as f64 / total,
        "1/s",
    );
    out.metric(
        "host_factor",
        crate::stats::median(&reps.iter().map(|r| r.factor).collect::<Vec<_>>()),
        "ratio",
    );
    out.metric("repetitions", reps.len() as f64, "count");
}

/// Records `setup_s` as the median of the set-up rounds at nominal host
/// speed, and its raw median beside it.
pub fn record_setup(out: &mut Outcome, rounds: &[Timed], normalise: bool) {
    let secs: Vec<f64> = rounds
        .iter()
        .map(|r| if normalise { r.normalised() } else { r.secs })
        .collect();
    let raw: Vec<f64> = rounds.iter().map(|r| r.secs).collect();
    out.metric("setup_s", crate::stats::median(&secs), "s");
    out.metric("raw_setup_s", crate::stats::median(&raw), "s");
}

/// Runs one `elsq-lab` command line in-process and returns its stdout,
/// failing on an error or a non-zero exit code.
pub fn lab(args: &[String]) -> Result<String, String> {
    match run_cli(args) {
        Ok(run) if run.exit_code == 0 => Ok(run.output),
        Ok(run) => Err(format!(
            "`elsq-lab {}` exited {}:\n{}",
            args.join(" "),
            run.exit_code,
            run.output
        )),
        Err(e) => Err(format!(
            "`elsq-lab {}` failed: {}",
            args.join(" "),
            e.message
        )),
    }
}

/// The scenario `elsq-lab sweep FLAGS` runs, built exactly as the CLI
/// builds it, so in-process runs and CLI runs share one spec.
pub fn sweep_scenario(flags: &[String]) -> elsq_sim::scenario::ScenarioSpec {
    use elsq_bench::cli::{parse, sweep_spec, Command};
    let mut args = vec!["sweep".to_owned()];
    args.extend_from_slice(flags);
    match parse(&args) {
        Ok(Command::Sweep(sweep)) => sweep_spec(&sweep).expect("benchmark grids are valid"),
        other => panic!("benchmark grid {flags:?} does not parse as a sweep: {other:?}"),
    }
}

/// Builds an argument vector from string-likes.
pub fn argv<S: AsRef<str>>(parts: &[S]) -> Vec<String> {
    parts.iter().map(|s| s.as_ref().to_owned()).collect()
}

/// FNV-1a 64-bit: the digest recorded for report bytes and binaries.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// SplitMix64: the seeded generator behind every input choice.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident memory of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sums the simulator's work counters over `results` and records them as
/// deterministic counters and as the `cpu`/`core`/`mem` per-layer metrics.
pub fn record_sim_counters(out: &mut Outcome, results: &[SimResult]) {
    let mut sim = elsq_stats::SimCounters::default();
    let mut lsq = elsq_stats::LsqAccessCounters::default();
    let (mut windows_committed, mut covered) = (0u64, 0u64);
    for r in results {
        sim += r.sim;
        lsq += r.lsq;
        match &r.sampling {
            Some(s) => {
                let detailed: u64 = s.windows.iter().map(|w| w.committed).sum();
                windows_committed += detailed;
                covered += s.skipped + s.warmed + detailed;
            }
            None => {
                windows_committed += r.sim.committed;
                covered += r.sim.committed;
            }
        }
    }
    let commits = sim.committed.max(1) as f64;
    let per = |v: u64| v as f64 / commits;
    for (name, value) in [
        ("sim.cycles", sim.cycles),
        ("sim.committed", sim.committed),
        ("sim.fetched", sim.fetched),
        ("sim.wrong_path_fetched", sim.wrong_path_fetched),
        ("sim.squashed", sim.squashed),
        ("sim.epochs_allocated", sim.epochs_allocated),
        ("sim.covered_insts", covered),
        ("sim.detailed_insts", windows_committed),
        ("lsq.searches", lsq.total_lsq_searches()),
        ("lsq.ert_lookups", lsq.ert_lookups),
        ("lsq.sqm_lookups", lsq.sqm_lookups),
        ("lsq.roundtrips", lsq.roundtrips),
        ("lsq.order_violations", lsq.order_violations),
        ("lsq.ert_true_positives", lsq.ert_true_positives),
        ("lsq.ert_false_positives", lsq.ert_false_positives),
        ("lsq.cache_accesses", lsq.cache_accesses),
    ] {
        out.counter(name, value);
    }
    out.metric("cpu.sim_cycles", sim.cycles as f64, "count");
    out.metric("cpu.ipc", sim.ipc(), "inst/cycle");
    out.metric("cpu.fetched_per_commit", per(sim.fetched), "count/inst");
    out.metric(
        "cpu.wrong_path_per_commit",
        per(sim.wrong_path_fetched),
        "count/inst",
    );
    out.metric("cpu.squashed_per_commit", per(sim.squashed), "count/inst");
    out.metric(
        "cpu.detailed_fraction",
        windows_committed as f64 / covered.max(1) as f64,
        "ratio",
    );
    out.metric(
        "core.lsq_searches_per_commit",
        per(lsq.total_lsq_searches()),
        "count/inst",
    );
    out.metric(
        "core.ert_lookups_per_commit",
        per(lsq.ert_lookups),
        "count/inst",
    );
    out.metric(
        "core.sqm_lookups_per_commit",
        per(lsq.sqm_lookups),
        "count/inst",
    );
    out.metric(
        "core.roundtrips_per_commit",
        per(lsq.roundtrips),
        "count/inst",
    );
    out.metric(
        "core.order_violations_per_commit",
        per(lsq.order_violations),
        "count/inst",
    );
    out.metric(
        "core.epochs_allocated",
        sim.epochs_allocated as f64,
        "count",
    );
    let attempts = lsq.ert_true_positives + lsq.ert_false_positives;
    out.metric(
        "core.ert_true_positive_rate",
        lsq.ert_true_positives as f64 / attempts.max(1) as f64,
        "ratio",
    );
    out.metric(
        "mem.cache_accesses_per_commit",
        per(lsq.cache_accesses),
        "count/inst",
    );
}

/// Records the per-layer self times, the span count and the tracing
/// overhead: the same code run with tracing on (`traced_s`) against
/// tracing off (`untraced_s`). Where the untraced end-to-end run reaches
/// the same work through `run_cli` in `cli_s`, the gap between that path
/// and the direct calls is recorded too.
pub fn record_trace(
    out: &mut Outcome,
    tracer: &crate::trace::Tracer,
    untraced_s: f64,
    traced_s: f64,
    cli_s: Option<f64>,
) -> Vec<crate::trace::Span> {
    let spans = tracer.spans();
    for (layer, secs) in crate::trace::self_time_by_layer(&spans) {
        out.metric(&format!("{layer}.self_s"), secs, "s");
    }
    out.metric("trace.spans", spans.len() as f64, "count");
    out.metric("trace.untraced_s", untraced_s, "s");
    out.metric("trace.traced_s", traced_s, "s");
    out.metric(
        "trace.overhead_ratio",
        traced_s / untraced_s.max(1e-9) - 1.0,
        "ratio",
    );
    if let Some(cli_s) = cli_s {
        out.metric("trace.cli_s", cli_s, "s");
        out.metric(
            "trace.cli_over_direct_ratio",
            cli_s / untraced_s.max(1e-9) - 1.0,
            "ratio",
        );
    }
    spans
}

/// Times `f` over `rounds` repetitions and returns the median seconds.
pub fn median_secs(rounds: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// Records the `stats.render_*` probes: rendering `reports` as JSON and
/// as text, in ms per report (median of five rounds).
pub fn record_render(out: &mut Outcome, reports: &[elsq_stats::Report]) {
    use elsq_bench::cli::{render_reports, OutputFormat};
    let n = reports.len().max(1) as f64;
    let json = median_secs(5, || {
        std::hint::black_box(render_reports(reports, OutputFormat::Json));
    });
    let text = median_secs(5, || {
        std::hint::black_box(render_reports(reports, OutputFormat::Text));
    });
    out.metric("stats.render_json_ms", json * 1e3 / n, "ms");
    out.metric("stats.render_text_ms", text * 1e3 / n, "ms");
}

/// Records the `stats.canon_key_us` probe: the canonical hash of every
/// point key, in µs per key (median of five rounds).
pub fn record_canon_keys(out: &mut Outcome, keys: &[elsq_sim::scenario::PointKey]) {
    let per_round = median_secs(5, || {
        for key in keys {
            std::hint::black_box(key.hash());
        }
    });
    out.metric(
        "stats.canon_key_us",
        per_round * 1e6 / keys.len().max(1) as f64,
        "us",
    );
}
