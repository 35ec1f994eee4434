//! The `elsq-lab` command line: list and run registered experiments.
//!
//! The CLI discovers experiments exclusively through
//! [`elsq_sim::experiments::registry`], so every subcommand works unchanged
//! when a new experiment module registers itself. Parsing and execution are
//! plain functions over argument slices so the unit tests can drive them
//! without a subprocess; the `elsq-lab` binary is a thin wrapper.
//!
//! ```text
//! elsq-lab list
//! elsq-lab run fig7 fig10 --commits 60000 --seed 7 --format json --out results/
//! elsq-lab run --all --quick
//! ```

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use elsq_serve::client::{self, ClientConfig};
use elsq_serve::protocol::Event;
use elsq_serve::{ServeConfig, Server};
use elsq_sim::driver::RunCtx;
use elsq_sim::experiments::{registry, run_experiments, Experiment};
use elsq_sim::fault::FaultPlan;
use elsq_sim::install_fault_plan;
use elsq_sim::scenario::{run_plan, sweep_report, Axis, ScenarioSpec, SweepPlan};
use elsq_sim::store::ResultStore;
use elsq_sim::suite::{evaluate, Status, Suite, SuiteOutcome};
use elsq_stats::report::{ExperimentParams, Report};
use elsq_stats::sampling::SamplingSpec;
use elsq_workload::suite::WorkloadClass;
use serde::Serialize;

use crate::diff::{degraded_cells, diff_reports, parse_reports};
use crate::trace::{TraceCmd, TraceDumpArgs, TraceFileArgs};

/// Usage text printed by `elsq-lab help` and on parse errors.
pub const USAGE: &str = "\
elsq-lab — registry-driven experiment runner for the ELSQ reproduction

USAGE:
    elsq-lab list                 list registered experiments
    elsq-lab show ID              print an experiment's parameters and
                                  config grid as JSON
    elsq-lab run [IDS...] [OPTS]  run experiments by id
    elsq-lab sweep [OPTS]         run an ad-hoc or scenario-file config grid
    elsq-lab diff A.json B.json [--tol REL]
                                  compare two report files cell-by-cell
    elsq-lab test DIR|FILE... [OPTS]
                                  run suite files of paper-trend assertions
                                  (format: docs/SUITES.md)
    elsq-lab trace dump [WORKLOADS...] --out DIR [OPTS]
                                  record workloads to .etrc trace files
    elsq-lab trace info FILE...   print trace provenance and block stats
    elsq-lab trace verify FILE... fully decode traces, checking every CRC
    elsq-lab serve --store DIR [OPTS]
                                  run the simulation service daemon
    elsq-lab submit [GRID OPTS]   submit a sweep to a running daemon and
                                  stream its progress
    elsq-lab jobs [--connect A]   list a running daemon's job table
    elsq-lab shutdown [--connect A]
                                  stop a daemon gracefully
    elsq-lab help                 show this help

RUN OPTIONS:
    --all              run every registered experiment
    --quick            use the quick parameter preset (5k commits)
    --commits N        override committed instructions per workload
    --seed N           override the workload generator seed
    --format FORMAT    text | csv | json (default: text)
    --out DIR          write one file per experiment into DIR
    --jobs N           cap worker threads per fan-out level (default:
                       ELSQ_THREADS, else every core; nested suite
                       fan-outs budget separately, so total live threads
                       can exceed N — --jobs 1 is exactly sequential)
    --sequential       run experiments one after another (suites still
                       parallel); with --jobs 1, fully sequential
    --trace DIR        replay recorded .etrc traces from DIR (written by
                       `trace dump`) instead of running the generators;
                       the dump's seed must match and its per-workload
                       instruction count must cover the commit budget
    --cache DIR        consult an on-disk result cache before simulating
                       and write fresh points back (see docs/SCENARIOS.md)
    --resume           required to reuse a --cache directory that already
                       holds cached points
    --sample P:W[:U]   SMARTS-style systematic sampling: per PERIOD
                       instructions, fast-forward functionally, warm for U
                       (default 0), then simulate a W-instruction detailed
                       window; mean-IPC cells gain a 95% confidence
                       interval (see docs/SAMPLING.md); sampled runs cache
                       under distinct keys from full runs

SWEEP OPTIONS:
    --scenario FILE    run the grid described by a scenario JSON file
                       (format: docs/SCENARIOS.md); conflicts with
                       --axis/--base/--classes/--name
    --axis NAME=V,V    add a swept axis (repeatable, applied in order;
                       `elsq-lab sweep --axis rob=64,128,256 --axis
                       lsq=central,elsq`)
    --base NAME        named base config for ad-hoc grids (default:
                       fmc-hash-sqm; ooo64, fmc-line-sqm, ... — any name
                       from docs/SCENARIOS.md)
    --classes SEL      fp | int | both (default: both)
    --name NAME        scenario name for ad-hoc grids (default: adhoc)
    --quick            quick preset (5k commits) instead of the sweep
                       preset (30k)
    --fault-plan FILE  install a fault-injection plan for the run (see
                       docs/ROBUSTNESS.md; overrides the FAULT_PLAN env
                       var); a sweep whose points fail completes with a
                       degraded report and exit code 3
    --commits/--seed, --cache DIR/--resume, --format, --out DIR, --jobs,
    --trace DIR, --sample P:W[:U]
                       as for `run` (--out writes DIR/sweep-<name>.<ext>)

SERVE OPTIONS:
    --store DIR        shared result-store directory (required); holds the
                       cached points and the `jobs/` journal, and is
                       protected by an advisory writer lock
    --addr A           listen address (default: 127.0.0.1:46170); port 0
                       picks a free port, printed on startup
    --resume           required to reopen a store that already holds
                       cached points — i.e. on every daemon restart
    --jobs N           worker-thread cap per fan-out level, as for `run`
    --watchdog SECS    per-job progress watchdog (off by default): a job
                       that completes no point for SECS seconds is marked
                       Failed and its worker abandoned
    --fault-plan FILE  install a fault-injection plan for the daemon's
                       lifetime (docs/ROBUSTNESS.md; overrides FAULT_PLAN)

SUBMIT OPTIONS:
    --connect A        daemon address (default: 127.0.0.1:46170)
    --job ID           idempotency key (1-64 chars of [A-Za-z0-9_-]):
                       resubmitting the same id with the same spec attaches
                       to / replays that job; resubmitting a *degraded* job
                       re-runs only its failed/missing points; a different
                       spec under a known id is an error. Without --job the
                       server assigns an id.
    --timeout SECS     connect/first-response timeout (default: 30; 0
                       disables); expiry exits with code 2. A job whose
                       points failed completes with a degraded report and
                       exit code 3.
    --scenario/--axis/--base/--classes/--name/--quick/--commits/--seed,
    --sample P:W[:U], --format, --out DIR
                       as for `sweep` (--out writes DIR/sweep-<name>.<ext>,
                       byte-identical to the offline sweep's file); the
                       cache flags belong to the server, not to submit

JOBS / SHUTDOWN OPTIONS:
    --connect A        daemon address (default: 127.0.0.1:46170)
    --timeout SECS     connect/response timeout (default: 30; 0 disables);
                       expiry exits with code 2
    --now              (shutdown only) cancel the running job at its next
                       class-group boundary instead of draining it; the
                       job is re-queued and resumes on the next start

TRACE DUMP OPTIONS:
    WORKLOADS          `both` (default), `fp`, `int`, or workload names
    --quick            record the quick preset (5k insts per workload)
    --commits N        instructions to record per workload (default 60k)
    --seed N           generator seed to record at (default 7)
    --out DIR          directory to write `.etrc` files into (required)
    --checkpoint-every N
                       write a header-v2 trace with an architectural
                       checkpoint directory every N instructions, enabling
                       O(1) fast-forward seeks in sampled replays

DIFF OPTIONS:
    --tol REL          relative tolerance for numeric cells (default: 0,
                       i.e. exact); text cells always compare exactly

TEST OPTIONS:
    DIR|FILE...        suite JSON files, or directories scanned for *.json
                       (sorted by name; see docs/SUITES.md for the format)
    --cache DIR        consult an on-disk result cache before simulating,
                       exactly as for `run`/`sweep`; a repeated invocation
                       answers every point from disk (100% cache hits)
    --resume           required to reuse a --cache directory that already
                       holds cached points
    --jobs N           worker-thread cap per fan-out level, as for `run`
    --format FORMAT    text | json (default: text); json prints the
                       machine-readable outcome report to stdout
    --out FILE         also write the JSON outcome report to FILE (for CI
                       artifacts), independent of --format
                       exit codes: 0 all assertions pass, 1 assertion
                       failure(s), 2 usage error, 3 degraded report(s)

Experiment ids map to paper artifacts; see docs/EXPERIMENTS.md.";

/// Output format of `elsq-lab run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Aligned plain-text tables.
    #[default]
    Text,
    /// RFC-4180 CSV, one `# title` comment per table.
    Csv,
    /// A JSON array of structured reports.
    Json,
}

impl OutputFormat {
    fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "text" => Ok(Self::Text),
            "csv" => Ok(Self::Csv),
            "json" => Ok(Self::Json),
            other => Err(CliError::usage(format!(
                "unknown format `{other}` (expected text, csv or json)"
            ))),
        }
    }

    fn extension(self) -> &'static str {
        match self {
            Self::Text => "txt",
            Self::Csv => "csv",
            Self::Json => "json",
        }
    }
}

/// Parsed `elsq-lab run` arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunArgs {
    /// Experiment ids to run (empty only with `--all`).
    pub ids: Vec<String>,
    /// Run every registered experiment.
    pub all: bool,
    /// Use the quick preset instead of each experiment's default.
    pub quick: bool,
    /// Override the commit budget.
    pub commits: Option<u64>,
    /// Override the workload seed.
    pub seed: Option<u64>,
    /// Output format.
    pub format: OutputFormat,
    /// Output directory (one file per experiment) instead of stdout.
    pub out: Option<PathBuf>,
    /// Worker-thread cap per fan-out level (default: `ELSQ_THREADS`).
    pub jobs: Option<usize>,
    /// Disable the experiment-level fan-out.
    pub sequential: bool,
    /// Replay recorded `.etrc` traces from this directory instead of
    /// running the generators.
    pub trace: Option<PathBuf>,
    /// On-disk result cache to consult/populate.
    pub cache: Option<PathBuf>,
    /// Allow reusing a cache directory that already holds points.
    pub resume: bool,
    /// SMARTS-style sampling specification (`--sample P:W[:U]`).
    pub sample: Option<SamplingSpec>,
}

/// Parsed `elsq-lab sweep` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Scenario file to run (`--scenario`); conflicts with the ad-hoc
    /// grid flags.
    pub scenario: Option<PathBuf>,
    /// Ad-hoc axes, parsed from `--axis NAME=V1,V2,...` in order.
    pub axes: Vec<Axis>,
    /// Named base configuration for ad-hoc grids.
    pub base: Option<String>,
    /// Workload class selection (`fp`, `int` or `both`).
    pub classes: Option<String>,
    /// Scenario name for ad-hoc grids.
    pub name: Option<String>,
    /// Use the quick preset instead of the sweep preset.
    pub quick: bool,
    /// Override the commit budget.
    pub commits: Option<u64>,
    /// Override the workload seed.
    pub seed: Option<u64>,
    /// On-disk result cache to consult/populate.
    pub cache: Option<PathBuf>,
    /// Allow reusing a cache directory that already holds points.
    pub resume: bool,
    /// Output format.
    pub format: OutputFormat,
    /// Output directory (the report is written as one file) instead of
    /// stdout.
    pub out: Option<PathBuf>,
    /// Worker-thread cap per fan-out level (default: `ELSQ_THREADS`).
    pub jobs: Option<usize>,
    /// Replay recorded `.etrc` traces from this directory.
    pub trace: Option<PathBuf>,
    /// Fault plan file to install for the run (`--fault-plan`; overrides
    /// the `FAULT_PLAN` environment variable).
    pub fault_plan: Option<PathBuf>,
    /// SMARTS-style sampling specification (`--sample P:W[:U]`).
    pub sample: Option<SamplingSpec>,
}

/// Parsed `elsq-lab diff` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffArgs {
    /// First report file.
    pub a: PathBuf,
    /// Second report file.
    pub b: PathBuf,
    /// Relative tolerance for numeric cells.
    pub tol: f64,
}

/// Parsed `elsq-lab test` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct TestArgs {
    /// Suite files and/or directories to scan for `*.json` suite files.
    pub paths: Vec<PathBuf>,
    /// On-disk result cache to consult/populate.
    pub cache: Option<PathBuf>,
    /// Allow reusing a cache directory that already holds points.
    pub resume: bool,
    /// Worker-thread cap per fan-out level (default: `ELSQ_THREADS`).
    pub jobs: Option<usize>,
    /// Output format (text or json; csv is rejected at parse time).
    pub format: OutputFormat,
    /// Also write the JSON outcome report to this file.
    pub out: Option<PathBuf>,
}

/// Parsed `elsq-lab serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Listen address (`--addr`; default [`elsq_serve::protocol::DEFAULT_ADDR`]).
    pub addr: String,
    /// The shared result-store directory (required `--store`).
    pub store: PathBuf,
    /// Allow reopening a store that already holds cached points.
    pub resume: bool,
    /// Worker-thread cap per fan-out level for the daemon's lifetime
    /// (default: `ELSQ_THREADS`).
    pub jobs: Option<usize>,
    /// Per-job progress watchdog in seconds (`--watchdog`; off by
    /// default): a job that completes no point for this long is marked
    /// Failed and its worker abandoned.
    pub watchdog: Option<u64>,
    /// Fault plan file to install for the daemon's lifetime
    /// (`--fault-plan`; overrides the `FAULT_PLAN` environment variable).
    pub fault_plan: Option<PathBuf>,
}

/// Parsed `elsq-lab submit` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Daemon address (`--connect`).
    pub connect: String,
    /// Client-chosen job id (`--job`), validated at parse time.
    pub job: Option<String>,
    /// The grid + output flags, exactly as for `sweep` (the cache, jobs
    /// and trace fields stay unset — they belong to the server).
    pub grid: SweepArgs,
    /// Connect/first-response timeout in seconds (`--timeout`; default
    /// 30; 0 disables).
    pub timeout: u64,
}

/// Parsed `elsq-lab jobs` / `elsq-lab shutdown` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectArgs {
    /// Daemon address (`--connect`).
    pub connect: String,
    /// Connect/response timeout in seconds (`--timeout`; default 30; 0
    /// disables).
    pub timeout: u64,
    /// `shutdown --now`: cancel the running job at its next class-group
    /// boundary instead of draining it (always false for `jobs`).
    pub now: bool,
}

/// Default `--timeout` for the client verbs, in seconds.
pub const DEFAULT_CLIENT_TIMEOUT_SECS: u64 = 30;

/// The [`ClientConfig`] a `--timeout SECS` value selects (0 = no timeout).
fn client_config(timeout_secs: u64) -> ClientConfig {
    ClientConfig {
        timeout: (timeout_secs > 0).then(|| std::time::Duration::from_secs(timeout_secs)),
        ..ClientConfig::default()
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `elsq-lab list`
    List,
    /// `elsq-lab show <id>`
    Show(String),
    /// `elsq-lab run ...`
    Run(RunArgs),
    /// `elsq-lab sweep ...`
    Sweep(SweepArgs),
    /// `elsq-lab diff a.json b.json`
    Diff(DiffArgs),
    /// `elsq-lab test suites/ ...`
    Test(TestArgs),
    /// `elsq-lab trace dump|info|verify ...`
    Trace(TraceCmd),
    /// `elsq-lab serve ...`
    Serve(ServeArgs),
    /// `elsq-lab submit ...`
    Submit(SubmitArgs),
    /// `elsq-lab jobs`
    Jobs(ConnectArgs),
    /// `elsq-lab shutdown`
    Shutdown(ConnectArgs),
    /// `elsq-lab help` / `--help`
    Help,
}

/// CLI error: a message plus the process exit code to use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description.
    pub message: String,
    /// Process exit code (2 = usage error or timeout, 1 = runtime error).
    pub exit_code: i32,
    /// Whether the binary should print the usage text after the message
    /// (true for argument mistakes; false for timeouts, which share exit
    /// code 2 but are not helped by a usage dump).
    pub show_usage: bool,
}

impl CliError {
    pub(crate) fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            exit_code: 2,
            show_usage: true,
        }
    }

    pub(crate) fn runtime(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            exit_code: 1,
            show_usage: false,
        }
    }

    pub(crate) fn timeout(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            exit_code: 2,
            show_usage: false,
        }
    }
}

/// Maps a client-helper error: timeouts get the loud exit-2 treatment
/// (without a usage dump), everything else is an ordinary runtime error.
fn client_error(message: String) -> CliError {
    if client::is_timeout(&message) {
        CliError::timeout(message)
    } else {
        CliError::runtime(message)
    }
}

/// A successful CLI invocation: what to print, and the exit code (0;
/// [`EXIT_DEGRADED`] when a sweep/submit finished with failed points or a
/// `test` report is degraded; 1 when `test` assertions failed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliRun {
    /// What to print to stdout.
    pub output: String,
    /// Process exit code (0, 1 for `test` assertion failures, or
    /// [`EXIT_DEGRADED`]).
    pub exit_code: i32,
}

impl CliRun {
    fn ok(output: String) -> Self {
        Self {
            output,
            exit_code: 0,
        }
    }
}

/// Exit code of a sweep/submit that completed but with failed points: the
/// report is real (every failed point is named in it), yet the run is
/// *degraded*, and scripts must be able to tell.
pub const EXIT_DEGRADED: i32 = 3;

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Parses the arguments following the binary name.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((verb, mut rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let name = match verb.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "trace" => {
            let Some((sub, tail)) = rest.split_first() else {
                return Err(CliError::usage(
                    "`trace` needs a subcommand: dump, info or verify",
                ));
            };
            rest = tail;
            format!("trace {sub}")
        }
        other => other.to_owned(),
    };
    let verb = VERBS.iter().find(|v| v.name == name).ok_or_else(|| {
        CliError::usage(match name.strip_prefix("trace ") {
            Some(sub) => {
                format!("unknown trace subcommand `{sub}`; expected dump, info or verify")
            }
            None => format!("unknown subcommand `{name}`; try `elsq-lab help`"),
        })
    })?;
    (verb.build)(verb.parse_flags(rest)?)
}

/// A verb's command-line contract: the flags it accepts, whether it takes
/// operands (ids, files, workloads), and how its arguments are assembled
/// from the parsed [`Flags`]. Every flag is parsed and validated once, by
/// [`Flags`]; a verb only chooses which flags it accepts.
struct Verb {
    /// The verb as typed (`trace dump` for the two-word verbs).
    name: &'static str,
    /// Accepted flags, as space-separated groups.
    flags: &'static [&'static str],
    /// Whether the verb takes operands besides its flags.
    operands: bool,
    /// Builds the command from the parsed flags, checking the verb's own
    /// constraints (operand counts, required and conflicting flags).
    build: fn(Flags) -> Result<Command, CliError>,
}

/// The flags that describe a sweep grid, shared by `sweep` and `submit`.
const GRID_FLAGS: &str =
    "--scenario --axis --base --classes --name --quick --commits --seed --sample --format --out";

/// `(verb, flag, hint)`: a pointer appended to the unknown-option error of
/// a flag users carry over from a neighbouring verb.
const HINTS: &[(&str, &str, &str)] = &[
    (
        "serve",
        "--cache",
        "the daemon's result cache is its `--store DIR`",
    ),
    ("submit", "--cache", DAEMON_OWNS_STORE),
    ("submit", "--resume", DAEMON_OWNS_STORE),
];

const DAEMON_OWNS_STORE: &str = "the daemon owns the result store (`elsq-lab serve --store DIR`)";

/// Every verb of the CLI.
const VERBS: &[Verb] = &[
    Verb {
        name: "list",
        flags: &[],
        operands: false,
        build: |_| Ok(Command::List),
    },
    Verb {
        name: "show",
        flags: &[],
        operands: true,
        build: build_show,
    },
    Verb {
        name: "run",
        flags: &[
            "--all --quick --sequential --commits --seed --sample --format --out",
            "--jobs --trace --cache --resume",
        ],
        operands: true,
        build: build_run,
    },
    Verb {
        name: "sweep",
        flags: &[GRID_FLAGS, "--jobs --trace --cache --resume --fault-plan"],
        operands: false,
        build: |f| sweep_args(f).map(Command::Sweep),
    },
    Verb {
        name: "diff",
        flags: &["--tol"],
        operands: true,
        build: build_diff,
    },
    Verb {
        name: "test",
        flags: &["--format --out --jobs --cache --resume"],
        operands: true,
        build: build_test,
    },
    Verb {
        name: "trace dump",
        flags: &["--quick --commits --seed --out --checkpoint-every"],
        operands: true,
        build: build_trace_dump,
    },
    Verb {
        name: "trace info",
        flags: &[],
        operands: true,
        build: |f| trace_files("trace info", f).map(|f| Command::Trace(TraceCmd::Info(f))),
    },
    Verb {
        name: "trace verify",
        flags: &[],
        operands: true,
        build: |f| trace_files("trace verify", f).map(|f| Command::Trace(TraceCmd::Verify(f))),
    },
    Verb {
        name: "serve",
        flags: &["--store --addr --resume --jobs --watchdog --fault-plan"],
        operands: false,
        build: build_serve,
    },
    Verb {
        name: "submit",
        flags: &[GRID_FLAGS, "--connect --timeout --job"],
        operands: false,
        build: |mut f| {
            Ok(Command::Submit(SubmitArgs {
                connect: f.connect.take().unwrap_or_else(default_addr),
                job: f.job.take(),
                timeout: f.timeout.unwrap_or(DEFAULT_CLIENT_TIMEOUT_SECS),
                grid: sweep_args(f)?,
            }))
        },
    },
    Verb {
        name: "jobs",
        flags: &["--connect --timeout"],
        operands: false,
        build: |f| Ok(Command::Jobs(connect_args(f))),
    },
    Verb {
        name: "shutdown",
        flags: &["--connect --timeout --now"],
        operands: false,
        build: |f| Ok(Command::Shutdown(connect_args(f))),
    },
];

impl Verb {
    fn accepts(&self, flag: &str) -> bool {
        self.flags
            .iter()
            .any(|group| group.split_whitespace().any(|f| f == flag))
    }

    /// The one flag loop: every argument is an accepted flag (with its
    /// value, when it takes one) or, on verbs that take them, an operand.
    fn parse_flags(&self, args: &[String]) -> Result<Flags, CliError> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                if !self.operands {
                    return Err(CliError::usage(format!(
                        "unexpected argument `{arg}` for `{}`",
                        self.name
                    )));
                }
                flags.operands.push(arg.clone());
            } else if !self.accepts(arg) {
                let hint = HINTS
                    .iter()
                    .find(|(verb, flag, _)| *verb == self.name && flag == arg)
                    .map(|(_, _, hint)| format!(": {hint}"))
                    .unwrap_or_default();
                return Err(CliError::usage(format!(
                    "unknown option `{arg}` for `{}`{hint}",
                    self.name
                )));
            } else if !flags.switch(arg) {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::usage(format!("`{arg}` requires a value")))?;
                flags.set(arg, value)?;
            }
        }
        if flags.resume && flags.cache.is_none() && self.accepts("--cache") {
            return Err(CliError::usage("`--resume` requires `--cache DIR`"));
        }
        Ok(flags)
    }
}

/// Every flag of the CLI, parsed and validated; a verb reads the ones it
/// accepts. Unset flags keep their defaults (`None`, `false`, text).
#[derive(Default)]
struct Flags {
    operands: Vec<String>,
    all: bool,
    quick: bool,
    sequential: bool,
    resume: bool,
    now: bool,
    commits: Option<u64>,
    seed: Option<u64>,
    sample: Option<SamplingSpec>,
    jobs: Option<usize>,
    format: OutputFormat,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    cache: Option<PathBuf>,
    fault_plan: Option<PathBuf>,
    scenario: Option<PathBuf>,
    axes: Vec<Axis>,
    base: Option<String>,
    classes: Option<String>,
    name: Option<String>,
    store: Option<PathBuf>,
    addr: Option<String>,
    watchdog: Option<u64>,
    connect: Option<String>,
    job: Option<String>,
    timeout: Option<u64>,
    tol: Option<f64>,
    checkpoint_every: Option<u64>,
}

impl Flags {
    /// Sets `flag` if it is a switch (a flag without a value).
    fn switch(&mut self, flag: &str) -> bool {
        let slot = match flag {
            "--all" => &mut self.all,
            "--quick" => &mut self.quick,
            "--sequential" => &mut self.sequential,
            "--resume" => &mut self.resume,
            "--now" => &mut self.now,
            _ => return false,
        };
        *slot = true;
        true
    }

    /// Parses and validates the value of `flag`.
    fn set(&mut self, flag: &str, value: &str) -> Result<(), CliError> {
        let path = || Some(PathBuf::from(value));
        let text = || Some(value.to_owned());
        match flag {
            "--commits" => self.commits = Some(parse_num(value, flag)?),
            "--seed" => self.seed = Some(parse_num(value, flag)?),
            "--sample" => self.sample = Some(parse_sample(value)?),
            "--jobs" => {
                let n = parse_num(value, flag)?;
                if n == 0 {
                    return Err(CliError::usage("`--jobs` must be at least 1"));
                }
                self.jobs = Some(n as usize);
            }
            "--format" => self.format = OutputFormat::parse(value)?,
            "--out" => self.out = path(),
            "--trace" => self.trace = path(),
            "--cache" => self.cache = path(),
            "--fault-plan" => self.fault_plan = path(),
            "--scenario" => self.scenario = path(),
            "--axis" => self.axes.push(parse_axis_spec(value)?),
            "--base" => self.base = text(),
            "--classes" => self.classes = text(),
            "--name" => self.name = text(),
            "--store" => self.store = path(),
            "--addr" => self.addr = text(),
            "--watchdog" => {
                let secs = parse_num(value, flag)?;
                if secs == 0 {
                    return Err(CliError::usage(
                        "`--watchdog` must be at least 1 second (omit the flag \
                         to disable the watchdog)",
                    ));
                }
                self.watchdog = Some(secs);
            }
            "--connect" => self.connect = text(),
            "--job" => {
                elsq_serve::job::validate_job_id(value).map_err(CliError::usage)?;
                self.job = text();
            }
            "--timeout" => self.timeout = Some(parse_num(value, flag)?),
            "--tol" => {
                let tol = value
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| {
                        CliError::usage(format!("invalid tolerance `{value}` for `--tol`"))
                    })?;
                self.tol = Some(tol);
            }
            "--checkpoint-every" => {
                let every = parse_num(value, flag)?;
                if every == 0 {
                    return Err(CliError::usage(
                        "`--checkpoint-every` must be at least 1 instruction \
                         (omit the flag to record a plain v1 trace)",
                    ));
                }
                self.checkpoint_every = Some(every);
            }
            other => unreachable!("`{other}` is accepted by a verb but has no parser"),
        }
        Ok(())
    }
}

fn default_addr() -> String {
    elsq_serve::protocol::DEFAULT_ADDR.to_owned()
}

fn build_show(f: Flags) -> Result<Command, CliError> {
    match f.operands.as_slice() {
        [id] => Ok(Command::Show(id.clone())),
        [] => Err(CliError::usage("`show` takes an experiment id")),
        [id, extra, ..] => Err(CliError::usage(format!(
            "unexpected argument `{extra}` after `show {id}`"
        ))),
    }
}

fn build_run(f: Flags) -> Result<Command, CliError> {
    if f.all && !f.operands.is_empty() {
        return Err(CliError::usage(
            "pass either experiment ids or `--all`, not both",
        ));
    }
    if !f.all && f.operands.is_empty() {
        return Err(CliError::usage(
            "no experiments selected; pass ids or `--all` (see `elsq-lab list`)",
        ));
    }
    Ok(Command::Run(RunArgs {
        ids: f.operands,
        all: f.all,
        quick: f.quick,
        commits: f.commits,
        seed: f.seed,
        format: f.format,
        out: f.out,
        jobs: f.jobs,
        sequential: f.sequential,
        trace: f.trace,
        cache: f.cache,
        resume: f.resume,
        sample: f.sample,
    }))
}

/// The grid and run flags of `sweep` (and, without the local-run flags,
/// of `submit`): a scenario file or ad-hoc axes, never both.
fn sweep_args(f: Flags) -> Result<SweepArgs, CliError> {
    if f.scenario.is_some() {
        if !f.axes.is_empty() || f.base.is_some() || f.classes.is_some() || f.name.is_some() {
            return Err(CliError::usage(
                "`--scenario FILE` conflicts with the ad-hoc grid flags \
                 (--axis/--base/--classes/--name); the file specifies them",
            ));
        }
    } else if f.axes.is_empty() {
        return Err(CliError::usage(
            "no grid selected; pass `--axis NAME=V1,V2,...` flags or `--scenario FILE`",
        ));
    }
    Ok(SweepArgs {
        scenario: f.scenario,
        axes: f.axes,
        base: f.base,
        classes: f.classes,
        name: f.name,
        quick: f.quick,
        commits: f.commits,
        seed: f.seed,
        cache: f.cache,
        resume: f.resume,
        format: f.format,
        out: f.out,
        jobs: f.jobs,
        trace: f.trace,
        fault_plan: f.fault_plan,
        sample: f.sample,
    })
}

fn build_diff(f: Flags) -> Result<Command, CliError> {
    let [a, b] = f.operands.as_slice() else {
        return Err(CliError::usage(
            "`diff` takes exactly two report files: elsq-lab diff a.json b.json",
        ));
    };
    Ok(Command::Diff(DiffArgs {
        a: PathBuf::from(a),
        b: PathBuf::from(b),
        tol: f.tol.unwrap_or(0.0),
    }))
}

fn build_test(f: Flags) -> Result<Command, CliError> {
    if f.operands.is_empty() {
        return Err(CliError::usage(
            "`test` takes one or more suite files or directories: \
             elsq-lab test suites/",
        ));
    }
    if f.format == OutputFormat::Csv {
        return Err(CliError::usage("`test` supports text or json, not csv"));
    }
    Ok(Command::Test(TestArgs {
        paths: f.operands.into_iter().map(PathBuf::from).collect(),
        cache: f.cache,
        resume: f.resume,
        jobs: f.jobs,
        format: f.format,
        out: f.out,
    }))
}

fn build_trace_dump(f: Flags) -> Result<Command, CliError> {
    let out = f
        .out
        .ok_or_else(|| CliError::usage("`trace dump` requires `--out DIR` for the .etrc files"))?;
    // Selection semantics (suites vs individual names, no mixing) are
    // validated by `trace::execute_dump`, which owns them.
    Ok(Command::Trace(TraceCmd::Dump(TraceDumpArgs {
        workloads: f.operands,
        quick: f.quick,
        commits: f.commits,
        seed: f.seed,
        out,
        checkpoint_every: f.checkpoint_every,
    })))
}

fn trace_files(verb: &str, f: Flags) -> Result<TraceFileArgs, CliError> {
    if f.operands.is_empty() {
        return Err(CliError::usage(format!(
            "`{verb}` takes one or more .etrc files"
        )));
    }
    Ok(TraceFileArgs {
        files: f.operands.into_iter().map(PathBuf::from).collect(),
    })
}

fn build_serve(f: Flags) -> Result<Command, CliError> {
    let Some(store) = f.store else {
        return Err(CliError::usage(
            "`serve` requires `--store DIR` — the shared result-store (and \
             job journal) directory clients will be answered from",
        ));
    };
    Ok(Command::Serve(ServeArgs {
        addr: f.addr.unwrap_or_else(default_addr),
        store,
        resume: f.resume,
        jobs: f.jobs,
        watchdog: f.watchdog,
        fault_plan: f.fault_plan,
    }))
}

fn connect_args(f: Flags) -> ConnectArgs {
    ConnectArgs {
        connect: f.connect.unwrap_or_else(default_addr),
        timeout: f.timeout.unwrap_or(DEFAULT_CLIENT_TIMEOUT_SECS),
        now: f.now,
    }
}

/// Parses one `--axis NAME=V1,V2,...` specification.
fn parse_axis_spec(spec: &str) -> Result<Axis, CliError> {
    let Some((name, values)) = spec.split_once('=') else {
        return Err(CliError::usage(format!(
            "malformed `--axis {spec}`: expected NAME=VALUE[,VALUE...]"
        )));
    };
    if name.is_empty() {
        return Err(CliError::usage(format!(
            "malformed `--axis {spec}`: the axis has no name"
        )));
    }
    let values: Vec<String> = values.split(',').map(str::to_owned).collect();
    if values.iter().any(String::is_empty) {
        return Err(CliError::usage(format!(
            "malformed `--axis {spec}`: empty value in the list"
        )));
    }
    Ok(Axis {
        name: name.to_owned(),
        values,
    })
}

fn parse_num(s: &str, flag: &str) -> Result<u64, CliError> {
    s.parse()
        .map_err(|_| CliError::usage(format!("invalid value `{s}` for `{flag}`")))
}

/// Parses a `--sample PERIOD:WINDOW[:WARMUP]` specification; malformed
/// specs are loud usage errors (exit 2) carrying the validator's reason.
fn parse_sample(s: &str) -> Result<SamplingSpec, CliError> {
    SamplingSpec::parse(s).map_err(|e| CliError::usage(format!("invalid `--sample {s}`: {e}")))
}

/// Resolves the experiments a run selects, in registry order for `--all`
/// and in command-line order otherwise.
pub fn select_experiments(run: &RunArgs) -> Result<Vec<&'static dyn Experiment>, CliError> {
    if run.all {
        return Ok(registry().to_vec());
    }
    run.ids
        .iter()
        .map(|id| {
            elsq_sim::experiments::find(id).ok_or_else(|| {
                let known: Vec<&str> = registry().iter().map(|e| e.id()).collect();
                CliError::usage(format!(
                    "unknown experiment `{id}`; known ids: {}",
                    known.join(", ")
                ))
            })
        })
        .collect()
}

/// The parameters one experiment runs with, after `--quick`, `--commits`
/// and `--seed` are applied on top of its default preset.
pub fn effective_params(experiment: &dyn Experiment, run: &RunArgs) -> ExperimentParams {
    let mut params = if run.quick {
        ExperimentParams::quick()
    } else {
        experiment.default_params()
    };
    if let Some(commits) = run.commits {
        params.commits = commits;
    }
    if let Some(seed) = run.seed {
        params.seed = seed;
    }
    if let Some(sample) = run.sample {
        params.sample = Some(sample);
    }
    params
}

/// Renders one report in the requested format.
pub fn render_report(report: &Report, format: OutputFormat) -> String {
    match format {
        OutputFormat::Text => report.render(),
        OutputFormat::Csv => report.to_csv(),
        OutputFormat::Json => {
            serde_json::to_string_pretty(report).expect("reports always serialize")
        }
    }
}

/// Renders a whole run (every report) for stdout in the requested format.
pub fn render_reports(reports: &[Report], format: OutputFormat) -> String {
    match format {
        OutputFormat::Json => {
            serde_json::to_string_pretty(&reports.to_vec()).expect("reports always serialize")
        }
        _ => {
            let mut out = String::new();
            for (i, report) in reports.iter().enumerate() {
                if i > 0 {
                    out.push('\n');
                }
                out.push_str(&render_report(report, format));
            }
            out
        }
    }
}

/// The `elsq-lab list` output: one line per experiment — id, default
/// preset, title — in registry order.
pub fn list_output() -> String {
    let mut out = String::new();
    let id_width = registry().iter().map(|e| e.id().len()).max().unwrap_or(0);
    for e in registry() {
        let p = e.default_params();
        out.push_str(&format!(
            "{:<id_width$}  commits={:<6} seed={}  {}\n",
            e.id(),
            p.commits,
            p.seed,
            e.title()
        ));
    }
    out
}

/// Builds an invocation's [`RunCtx`]: `--jobs` workers per fan-out level
/// (default `ELSQ_THREADS`, else every core), the `--trace` roster loaded
/// and validated against every `(id, classes, params)` job that will
/// replay it, and the `--cache` store (honouring `--resume`).
fn run_ctx(
    jobs: Option<usize>,
    trace: Option<&std::path::Path>,
    replays: &[(&str, &[WorkloadClass], ExperimentParams)],
    cache: Option<&std::path::Path>,
    resume: bool,
) -> Result<RunCtx, CliError> {
    let mut ctx = jobs.map_or_else(RunCtx::from_env, RunCtx::new);
    if let Some(dir) = trace {
        ctx.source = Some(Arc::new(crate::trace::load_roster(
            dir,
            replays,
            ctx.workers,
        )?));
    }
    if let Some(dir) = cache {
        ctx.cache = Some(Arc::new(ResultStore::open(dir, resume).map_err(|e| {
            CliError::runtime(format!("--cache {}: {e}", dir.display()))
        })?));
    }
    Ok(ctx)
}

/// The `cache: H hit(s), M miss(es)` summary line printed after cached
/// runs.
fn cache_summary(store: &ResultStore) -> String {
    format!(
        "cache {}: {} hit(s), {} miss(es), {} point(s) on disk\n",
        store.dir().display(),
        store.hits(),
        store.misses(),
        store.len()
    )
}

/// Executes a run and returns the produced reports (in selection order).
pub fn execute_run(run: &RunArgs) -> Result<Vec<Report>, CliError> {
    let experiments = select_experiments(run)?;
    let jobs: Vec<(&'static dyn Experiment, ExperimentParams)> = experiments
        .into_iter()
        .map(|e| (e, effective_params(e, run)))
        .collect();
    // `--trace DIR` is loaded, verified and validated against every
    // experiment before anything runs.
    let replays: Vec<_> = jobs
        .iter()
        .map(|(e, p)| (e.id(), e.classes(), *p))
        .collect();
    let ctx = run_ctx(
        run.jobs,
        run.trace.as_deref(),
        &replays,
        run.cache.as_deref(),
        run.resume,
    )?;
    Ok(run_experiments(&ctx, jobs, !run.sequential))
}

/// Resolves a `--classes` selection.
fn parse_classes(sel: &str) -> Result<Vec<WorkloadClass>, CliError> {
    match sel {
        "both" => Ok(vec![WorkloadClass::Fp, WorkloadClass::Int]),
        "fp" => Ok(vec![WorkloadClass::Fp]),
        "int" => Ok(vec![WorkloadClass::Int]),
        other => Err(CliError::usage(format!(
            "unknown class selection `{other}` (expected fp, int or both)"
        ))),
    }
}

/// Builds the effective [`ScenarioSpec`] of a sweep invocation: the
/// scenario file or the ad-hoc flags, with `--quick`/`--commits`/`--seed`
/// layered on top.
pub fn sweep_spec(sweep: &SweepArgs) -> Result<ScenarioSpec, CliError> {
    let mut spec = match &sweep.scenario {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", path.display())))?;
            let spec: ScenarioSpec = serde_json::from_str(&text).map_err(|e| {
                CliError::runtime(format!("{} is not a scenario file: {e}", path.display()))
            })?;
            spec
        }
        None => ScenarioSpec {
            name: sweep.name.clone().unwrap_or_else(|| "adhoc".to_owned()),
            base: sweep
                .base
                .clone()
                .unwrap_or_else(|| "fmc-hash-sqm".to_owned()),
            axes: sweep.axes.clone(),
            classes: parse_classes(sweep.classes.as_deref().unwrap_or("both"))?,
            params: ExperimentParams::sweep(),
        },
    };
    // `--quick` is a commit-budget preset; it must not clobber a scenario
    // file's seed (the seed feeds every cache key).
    if sweep.quick {
        spec.params.commits = ExperimentParams::quick().commits;
    }
    if let Some(commits) = sweep.commits {
        spec.params.commits = commits;
    }
    if let Some(seed) = sweep.seed {
        spec.params.seed = seed;
    }
    if let Some(sample) = sweep.sample {
        spec.params.sample = Some(sample);
    }
    Ok(spec)
}

/// The outcome of a sweep: the merged report plus, when a cache was in
/// play, its hit/miss statistics.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The merged report (one table, one row per grid point and class).
    pub report: Report,
    /// `(hits, misses)` of the cache, if one was installed.
    pub cache: Option<(u64, u64)>,
    /// The `cache ...` summary line, if a cache was installed.
    pub cache_line: Option<String>,
    /// One line per failed point (empty when the sweep is healthy); a
    /// non-empty list makes the run exit [`EXIT_DEGRADED`].
    pub failed: Vec<String>,
}

/// Executes a sweep: expands the grid, runs it (consulting the cache when
/// one is configured) and assembles the merged report.
pub fn execute_sweep(sweep: &SweepArgs) -> Result<SweepOutcome, CliError> {
    let spec = sweep_spec(sweep)?;
    let plan = spec.expand().map_err(CliError::usage)?;
    let ctx = run_ctx(
        sweep.jobs,
        sweep.trace.as_deref(),
        &[("sweep", spec.classes.as_slice(), spec.params)],
        sweep.cache.as_deref(),
        sweep.resume,
    )?;
    let results = run_plan(&ctx, &plan, &spec.params, |_| {});
    let report = sweep_report(&spec, &plan, &results);
    let failed = results
        .failed()
        .iter()
        .map(|(point, site, msg)| {
            format!(
                "FAILED point `{}` ({}) at {site}: {msg}\n",
                point.label, point.class
            )
        })
        .collect();
    let (cache_stats, cache_line) = match &ctx.cache {
        Some(store) => (
            Some((store.hits(), store.misses())),
            Some(cache_summary(store)),
        ),
        None => (None, None),
    };
    Ok(SweepOutcome {
        report,
        cache: cache_stats,
        cache_line,
        failed,
    })
}

/// Executes `serve`: starts the daemon, prints the bound address (flushed
/// eagerly, so wrappers can wait for readiness before connecting), and
/// blocks until a client requests shutdown.
pub fn execute_serve(serve: &ServeArgs) -> Result<String, CliError> {
    // SIGTERM behaves like `shutdown --now`: stop accepting, cancel the
    // running job at its next group boundary, journal, exit cleanly.
    elsq_serve::signal::install_sigterm().map_err(CliError::runtime)?;
    let config = ServeConfig {
        addr: serve.addr.clone(),
        store_dir: serve.store.clone(),
        resume: serve.resume,
        watchdog: serve.watchdog.map(std::time::Duration::from_secs),
    };
    // The worker budget is fixed before the daemon starts, so a job
    // re-enqueued from the journal at boot runs under it too.
    let workers = serve.jobs.unwrap_or_else(elsq_sim::pool::max_threads);
    let handle = Server::start_with_workers(config, workers).map_err(CliError::runtime)?;
    {
        use std::io::Write as _;
        let mut out = std::io::stdout();
        let _ = writeln!(
            out,
            "elsq-serve listening on {} (store {})",
            handle.local_addr(),
            serve.store.display()
        );
        let _ = out.flush();
    }
    handle.join();
    Ok("server stopped; queued jobs stay journaled in the store\n".to_owned())
}

/// Executes `submit`: builds the spec exactly like `sweep`, streams the
/// job's progress, and renders the final report — byte-identical to the
/// offline sweep of the same spec. A job that finished with failed points
/// returns the (degraded) report with exit code [`EXIT_DEGRADED`].
pub fn execute_submit(submit: &SubmitArgs) -> Result<CliRun, CliError> {
    let spec = sweep_spec(&submit.grid)?;
    // The daemon expands the spec too; expanding here first makes a grid
    // that cannot be planned the same usage error `sweep` reports.
    spec.expand().map_err(CliError::usage)?;
    // JSON-to-stdout stays pure JSON (`| jq` works); in every other mode
    // progress streams to stdout as the daemon reports it.
    let stream_progress = submit.grid.format != OutputFormat::Json || submit.grid.out.is_some();
    // Collected across the stream so the degraded summary can *name* every
    // failed point even in JSON mode (where nothing streams to stdout).
    let failed_lines = std::cell::RefCell::new(Vec::<String>::new());
    let progress = |event: &Event| {
        if let Event::PointFailed {
            label,
            class,
            site,
            error,
            ..
        } = event
        {
            failed_lines.borrow_mut().push(format!(
                "FAILED point `{label}` ({class}) at {site}: {error}\n"
            ));
        }
        if !stream_progress {
            return;
        }
        use std::io::Write as _;
        let mut out = std::io::stdout();
        match event {
            Event::Accepted {
                job,
                points,
                attached,
            } => {
                let how = if *attached {
                    "attached to"
                } else {
                    "accepted as"
                };
                let _ = writeln!(out, "{how} job {job}: {points} point(s)");
            }
            Event::Point {
                done,
                total,
                label,
                class,
                cached,
                ..
            } => {
                let src = if *cached { "cache" } else { "simulated" };
                let _ = writeln!(out, "[{done}/{total}] {label} {class} ({src})");
            }
            Event::PointFailed {
                done,
                total,
                label,
                class,
                site,
                error,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "[{done}/{total}] {label} {class} FAILED at {site}: {error}"
                );
            }
            _ => {}
        }
        let _ = out.flush();
    };
    let outcome = client::submit_with(
        &submit.connect,
        submit.job.as_deref(),
        &spec,
        &client_config(submit.timeout),
        progress,
    )
    .map_err(client_error)?;
    let mut summary = submit_summary(&outcome);
    if outcome.failed > 0 {
        for line in failed_lines.borrow().iter() {
            summary.push_str(line);
        }
        summary.push_str(&format!(
            "degraded: {} point(s) failed; resubmit job {} to re-run them\n",
            outcome.failed, outcome.job
        ));
    }
    let exit_code = if outcome.failed > 0 { EXIT_DEGRADED } else { 0 };
    let reports = [outcome.report];
    let output = match &submit.grid.out {
        Some(dir) => {
            let mut output = write_reports(&reports, dir, submit.grid.format)?;
            output.push_str(&summary);
            output
        }
        None => {
            let mut output = render_reports(&reports, submit.grid.format);
            if submit.grid.format != OutputFormat::Json {
                output.push('\n');
                output.push_str(&summary);
            }
            output
        }
    };
    Ok(CliRun { output, exit_code })
}

/// The `job ...` summary line printed after a submit (the `100% cache
/// hits` tag is what the CI smoke greps for). A degraded job's line counts
/// its failed points; a healthy job's line is byte-identical to what
/// earlier releases printed.
fn submit_summary(outcome: &client::SubmitOutcome) -> String {
    let all_cached = if outcome.misses == 0 && outcome.hits > 0 && outcome.failed == 0 {
        " (100% cache hits)"
    } else {
        ""
    };
    let failed = if outcome.failed > 0 {
        format!(", {} failed", outcome.failed)
    } else {
        String::new()
    };
    format!(
        "job {}: {} hit(s), {} miss(es){failed}{all_cached}; server store has {} point(s)\n",
        outcome.job, outcome.hits, outcome.misses, outcome.store_points
    )
}

/// Executes `jobs`: the daemon's job table, one aligned line per job.
pub fn execute_jobs(connect: &ConnectArgs) -> Result<String, CliError> {
    let jobs = client::jobs_with(&connect.connect, &client_config(connect.timeout))
        .map_err(client_error)?;
    if jobs.is_empty() {
        return Ok("no jobs\n".to_owned());
    }
    let id_width = jobs.iter().map(|j| j.id.len()).max().unwrap_or(0).max(2);
    let name_width = jobs.iter().map(|j| j.name.len()).max().unwrap_or(0).max(4);
    let mut out = format!(
        "{:<id_width$}  {:<name_width$}  {:<7}  {:>9}  {:>5}  {:>6}  {:>6}\n",
        "ID", "NAME", "STATE", "POINTS", "HITS", "MISSES", "FAILED"
    );
    for j in jobs {
        out.push_str(&format!(
            "{:<id_width$}  {:<name_width$}  {:<7}  {:>4}/{:<4}  {:>5}  {:>6}  {:>6}{}\n",
            j.id,
            j.name,
            format!("{:?}", j.state),
            j.completed,
            j.total,
            j.hits,
            j.misses,
            j.failed,
            j.error
                .as_deref()
                .map(|e| format!("  {e}"))
                .unwrap_or_default()
        ));
    }
    Ok(out)
}

/// Executes `shutdown`: asks the daemon to stop — draining by default,
/// cancelling the running job at its next group boundary with `--now`.
pub fn execute_shutdown(connect: &ConnectArgs) -> Result<String, CliError> {
    client::shutdown_with(
        &connect.connect,
        !connect.now,
        &client_config(connect.timeout),
    )
    .map_err(client_error)?;
    let how = if connect.now {
        "the running job is cancelled at its next group boundary and re-queued"
    } else {
        "the running job finishes first"
    };
    Ok(format!(
        "server at {} is stopping ({how}; queued jobs stay journaled)\n",
        connect.connect
    ))
}

/// The `elsq-lab show <id>` payload: identification, the default
/// parameters, the advertised classes and the declared config grid.
#[derive(Serialize)]
struct ShowOutput {
    id: String,
    title: String,
    default_params: ExperimentParams,
    classes: Vec<WorkloadClass>,
    plan: SweepPlan,
}

/// Executes `show <id>`: the experiment's parameters and grid as JSON.
pub fn execute_show(id: &str) -> Result<String, CliError> {
    let experiment = elsq_sim::experiments::find(id).ok_or_else(|| {
        let known: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        CliError::usage(format!(
            "unknown experiment `{id}`; known ids: {}",
            known.join(", ")
        ))
    })?;
    let output = ShowOutput {
        id: experiment.id().to_owned(),
        title: experiment.title().to_owned(),
        default_params: experiment.default_params(),
        classes: experiment.classes().to_vec(),
        plan: experiment.plan(),
    };
    let mut json = serde_json::to_string_pretty(&output).expect("show output always serializes");
    json.push('\n');
    Ok(json)
}

/// Writes per-experiment files into `--out DIR` and returns the summary
/// lines printed to stdout.
pub fn write_reports(
    reports: &[Report],
    dir: &std::path::Path,
    format: OutputFormat,
) -> Result<String, CliError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::runtime(format!("cannot create {}: {e}", dir.display())))?;
    let mut summary = String::new();
    for report in reports {
        let path = dir.join(format!("{}.{}", report.id, format.extension()));
        std::fs::write(&path, render_report(report, format))
            .map_err(|e| CliError::runtime(format!("cannot write {}: {e}", path.display())))?;
        summary.push_str(&format!(
            "{}: {} table(s), {:.1} ms -> {}\n",
            report.id,
            report.tables.len(),
            report.wall_time_ms,
            path.display()
        ));
    }
    Ok(summary)
}

/// Executes a diff invocation; a mismatch is a runtime error (exit code 1)
/// whose message lists every differing cell. A file containing degraded
/// `FAILED (<site>)` cells is refused with [`EXIT_DEGRADED`] before any
/// comparison — two failure markers matching byte-for-byte says nothing
/// about the figures they replaced.
pub fn execute_diff(diff: &DiffArgs) -> Result<String, CliError> {
    let load = |path: &std::path::Path| -> Result<Vec<Report>, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", path.display())))?;
        let reports = parse_reports(&text)
            .map_err(|e| CliError::runtime(format!("cannot parse {}: {e}", path.display())))?;
        let degraded: Vec<String> = reports
            .iter()
            .flat_map(|r| {
                let id = r.id.clone();
                degraded_cells(r)
                    .into_iter()
                    .map(move |loc| format!("  {id}: {loc}"))
            })
            .collect();
        if !degraded.is_empty() {
            return Err(CliError {
                message: format!(
                    "{} contains {} degraded cell(s) — refusing to compare a \
                     degraded report:\n{}\nre-run the experiment to replace the \
                     failed points first",
                    path.display(),
                    degraded.len(),
                    degraded.join("\n")
                ),
                exit_code: EXIT_DEGRADED,
                show_usage: false,
            });
        }
        Ok(reports)
    };
    let a = load(&diff.a)?;
    let b = load(&diff.b)?;
    let outcome = diff_reports(&a, &b, diff.tol);
    if outcome.is_match() {
        Ok(format!(
            "reports match: {} report(s), {} cell(s) compared, tol {}\n",
            a.len(),
            outcome.cells,
            diff.tol
        ))
    } else {
        Err(CliError::runtime(format!(
            "{}\nreports differ: {} mismatch(es) across {} compared cell(s)",
            outcome.mismatches.join("\n"),
            outcome.mismatches.len(),
            outcome.cells
        )))
    }
}

/// Expands the `test` operands into concrete suite files: a directory
/// contributes its `*.json` entries sorted by name, a file contributes
/// itself. A missing path or an empty directory is a loud error — a CI
/// job pointed at the wrong directory must not pass vacuously.
fn discover_suite_files(paths: &[PathBuf]) -> Result<Vec<PathBuf>, CliError> {
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", path.display())))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.is_file() && p.extension().is_some_and(|ext| ext == "json"))
                .collect();
            entries.sort();
            if entries.is_empty() {
                return Err(CliError::runtime(format!(
                    "{} contains no .json suite files",
                    path.display()
                )));
            }
            files.extend(entries);
        } else if path.is_file() {
            files.push(path.clone());
        } else {
            return Err(CliError::runtime(format!(
                "no such suite file or directory: {}",
                path.display()
            )));
        }
    }
    Ok(files)
}

/// The outcome of a `test` invocation: every suite's evaluated outcome
/// plus, when a cache was in play, its summary line.
#[derive(Debug)]
pub struct TestOutcome {
    /// One evaluated outcome per suite file, in discovery order.
    pub suites: Vec<SuiteOutcome>,
    /// The `cache ...` summary line, if a cache was installed.
    pub cache_line: Option<String>,
}

impl TestOutcome {
    /// The process exit code: degraded ([`EXIT_DEGRADED`]) dominates
    /// assertion failures (1) dominates all-pass (0).
    pub fn exit_code(&self) -> i32 {
        if self.suites.iter().any(|s| s.status() == Status::Degraded) {
            EXIT_DEGRADED
        } else if self.suites.iter().any(|s| s.status() == Status::Fail) {
            1
        } else {
            0
        }
    }
}

/// Executes `test`: discovers the suite files, runs each target (through
/// the `--cache` store when one is configured) and evaluates its
/// assertions.
pub fn execute_test(test: &TestArgs) -> Result<TestOutcome, CliError> {
    let files = discover_suite_files(&test.paths)?;
    // Parse every file up front: a malformed suite aborts the invocation
    // before any simulation runs, not after minutes of grid time.
    let suites: Vec<(PathBuf, Suite)> = files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::runtime(format!("cannot read {}: {e}", path.display())))?;
            let suite = Suite::from_json(&text).map_err(|e| {
                CliError::runtime(format!("{} is not a suite file: {e}", path.display()))
            })?;
            Ok((path.clone(), suite))
        })
        .collect::<Result<_, CliError>>()?;
    let ctx = run_ctx(test.jobs, None, &[], test.cache.as_deref(), test.resume)?;
    let outcomes = suites
        .iter()
        .map(|(path, suite)| {
            // A target that cannot be planned (an unknown experiment, a
            // scenario that does not expand) is a mistake in the suite file.
            let report = suite
                .run(&ctx)
                .map_err(|e| CliError::usage(format!("suite {}: {e}", path.display())))?;
            // Relative `tolerance` golden paths resolve against the suite
            // file's own directory.
            let golden_dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
            let mut outcome = evaluate(suite, &report, golden_dir);
            // File *name* only: the JSON outcome report must stay
            // byte-identical across checkouts and working directories.
            outcome.source = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            Ok(outcome)
        })
        .collect::<Result<Vec<_>, CliError>>()?;
    let cache_line = ctx.cache.as_ref().map(|store| {
        let mut line = cache_summary(store);
        if store.misses() == 0 && store.hits() > 0 {
            line.pop();
            line.push_str(" (100% cache hits)\n");
        }
        line
    });
    Ok(TestOutcome {
        suites: outcomes,
        cache_line,
    })
}

/// Renders a `test` outcome as a test-runner style text listing.
fn render_test_text(outcome: &TestOutcome) -> String {
    let mut out = String::new();
    for suite in &outcome.suites {
        out.push_str(&format!(
            "suite {} ({}): target {}, commits={} seed={}\n",
            suite.suite, suite.source, suite.target, suite.params.commits, suite.params.seed
        ));
        for check in &suite.checks {
            let tag = match check.status {
                Status::Pass => "PASS",
                Status::Fail => "FAIL",
                Status::Degraded => "DEGRADED",
            };
            out.push_str(&format!("  {tag} {}: {}\n", check.name, check.detail));
        }
        for loc in &suite.degraded {
            out.push_str(&format!("  DEGRADED report cell: {loc}\n"));
        }
    }
    if let Some(line) = &outcome.cache_line {
        out.push_str(line);
    }
    let (mut passed, mut failed, mut degraded) = (0usize, 0usize, 0usize);
    for suite in &outcome.suites {
        passed += suite.passed();
        failed += suite.failed();
        degraded += suite
            .checks
            .iter()
            .filter(|c| c.status == Status::Degraded)
            .count();
    }
    let degraded_suites = outcome
        .suites
        .iter()
        .filter(|s| s.status() == Status::Degraded)
        .count();
    out.push_str(&format!(
        "{} suite(s): {passed} passed, {failed} failed assertion(s)",
        outcome.suites.len()
    ));
    if degraded > 0 || degraded_suites > 0 {
        out.push_str(&format!(
            ", {degraded_suites} degraded suite(s) ({degraded} degraded assertion(s))"
        ));
    }
    out.push('\n');
    out
}

/// Renders a `test` outcome as its machine-readable JSON report: the suite
/// outcomes only — no wall times, no absolute paths — so the bytes are
/// stable across runs and checkouts (the golden fixture test pins them).
fn render_test_json(outcome: &TestOutcome) -> String {
    let mut json =
        serde_json::to_string_pretty(&outcome.suites).expect("suite outcomes always serialize");
    json.push('\n');
    json
}

/// Resolves and installs the fault plan of an invocation: the verb's
/// `--fault-plan FILE` when given, the `FAULT_PLAN` environment variable
/// otherwise. Returns the keep-alive guard (`None` when no plan applies).
fn install_faults(flag: Option<&PathBuf>) -> Result<Option<elsq_sim::FaultPlanGuard>, CliError> {
    let plan = match flag {
        Some(path) => Some(FaultPlan::load(path).map_err(CliError::usage)?),
        None => FaultPlan::from_env().map_err(CliError::usage)?,
    };
    plan.map(|plan| install_fault_plan(plan).map_err(CliError::usage))
        .transpose()
}

/// Full CLI entry point: parses `args` (without the binary name), executes,
/// and returns what should be printed to stdout plus the exit code
/// (0, or [`EXIT_DEGRADED`] for a sweep/submit with failed points).
pub fn run_cli(args: &[String]) -> Result<CliRun, CliError> {
    let command = parse(args)?;
    // The fault plan lives for the whole invocation: `--fault-plan` on the
    // verbs that run simulations locally, the environment everywhere.
    let flag = match &command {
        Command::Sweep(sweep) => sweep.fault_plan.as_ref(),
        Command::Serve(serve) => serve.fault_plan.as_ref(),
        _ => None,
    };
    let _faults = install_faults(flag)?;
    match command {
        Command::Help => Ok(CliRun::ok(format!("{USAGE}\n"))),
        Command::List => Ok(CliRun::ok(list_output())),
        Command::Show(id) => execute_show(&id).map(CliRun::ok),
        Command::Run(run) => {
            let reports = execute_run(&run)?;
            match &run.out {
                Some(dir) => write_reports(&reports, dir, run.format),
                None => Ok(render_reports(&reports, run.format)),
            }
            .map(CliRun::ok)
        }
        Command::Sweep(sweep) => {
            let outcome = execute_sweep(&sweep)?;
            let degraded = !outcome.failed.is_empty();
            let reports = [outcome.report];
            let mut output = match &sweep.out {
                Some(dir) => {
                    let mut summary = write_reports(&reports, dir, sweep.format)?;
                    if let Some(line) = &outcome.cache_line {
                        summary.push_str(line);
                    }
                    summary
                }
                None => {
                    let mut output = render_reports(&reports, sweep.format);
                    // JSON stdout stays pure JSON (`| jq` keeps working);
                    // the cache statistics are a text-mode affordance.
                    if sweep.format != OutputFormat::Json {
                        if let Some(line) = &outcome.cache_line {
                            output.push('\n');
                            output.push_str(line);
                        }
                    }
                    output
                }
            };
            if degraded {
                for line in &outcome.failed {
                    output.push_str(line);
                }
                output.push_str(&format!(
                    "degraded: {} point(s) failed; re-run to retry them\n",
                    outcome.failed.len()
                ));
            }
            Ok(CliRun {
                output,
                exit_code: if degraded { EXIT_DEGRADED } else { 0 },
            })
        }
        Command::Diff(diff) => execute_diff(&diff).map(CliRun::ok),
        Command::Test(test) => {
            let outcome = execute_test(&test)?;
            if let Some(path) = &test.out {
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(dir).map_err(|e| {
                        CliError::runtime(format!("cannot create {}: {e}", dir.display()))
                    })?;
                }
                std::fs::write(path, render_test_json(&outcome)).map_err(|e| {
                    CliError::runtime(format!("cannot write {}: {e}", path.display()))
                })?;
            }
            let output = match test.format {
                // JSON stdout stays pure JSON (`| jq` keeps working); the
                // cache statistics are a text-mode affordance.
                OutputFormat::Json => render_test_json(&outcome),
                _ => render_test_text(&outcome),
            };
            Ok(CliRun {
                output,
                exit_code: outcome.exit_code(),
            })
        }
        Command::Trace(TraceCmd::Dump(dump)) => {
            crate::trace::execute_dump(&dump, elsq_sim::pool::max_threads()).map(CliRun::ok)
        }
        Command::Trace(TraceCmd::Info(files)) => crate::trace::execute_info(&files).map(CliRun::ok),
        Command::Trace(TraceCmd::Verify(files)) => {
            crate::trace::execute_verify(&files).map(CliRun::ok)
        }
        Command::Serve(serve) => execute_serve(&serve).map(CliRun::ok),
        Command::Submit(submit) => execute_submit(&submit),
        Command::Jobs(connect) => execute_jobs(&connect).map(CliRun::ok),
        Command::Shutdown(connect) => execute_shutdown(&connect).map(CliRun::ok),
    }
}

/// [`run_cli`] reduced to its stdout payload — kept for callers (and
/// tests) that do not care about the degraded exit code.
pub fn main_with_args(args: &[String]) -> Result<String, CliError> {
    run_cli(args).map(|run| run.output)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_owned()).collect()
    }

    /// [`parse`] of `run ARGS`, unwrapped to the run's arguments.
    fn parse_run(rest: &[String]) -> Result<RunArgs, CliError> {
        match parse(&[args(&["run"]), rest.to_vec()].concat())? {
            Command::Run(run) => Ok(run),
            other => panic!("expected run, got {other:?}"),
        }
    }

    /// [`parse`] of `test ARGS`, unwrapped to the test verb's arguments.
    fn parse_test(rest: &[String]) -> Result<TestArgs, CliError> {
        match parse(&[args(&["test"]), rest.to_vec()].concat())? {
            Command::Test(test) => Ok(test),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn parse_subcommands() {
        assert_eq!(parse(&args(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["list"])).unwrap(), Command::List);
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["list", "extra"])).is_err());
    }

    #[test]
    fn parse_run_flags() {
        let cmd = parse(&args(&[
            "run",
            "fig7",
            "fig10",
            "--commits",
            "1234",
            "--seed",
            "9",
            "--format",
            "json",
            "--out",
            "results",
            "--jobs",
            "3",
            "--sequential",
        ]))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run");
        };
        assert_eq!(run.ids, vec!["fig7", "fig10"]);
        assert!(!run.all && !run.quick && run.sequential);
        assert_eq!(run.commits, Some(1234));
        assert_eq!(run.seed, Some(9));
        assert_eq!(run.format, OutputFormat::Json);
        assert_eq!(run.out, Some(PathBuf::from("results")));
        assert_eq!(run.jobs, Some(3));
    }

    #[test]
    fn parse_run_rejects_bad_usage() {
        assert!(parse(&args(&["run"])).is_err());
        assert!(parse(&args(&["run", "--all", "fig7"])).is_err());
        assert!(parse(&args(&["run", "--commits"])).is_err());
        assert!(parse(&args(&["run", "fig7", "--commits", "abc"])).is_err());
        assert!(parse(&args(&["run", "fig7", "--format", "xml"])).is_err());
        assert!(parse(&args(&["run", "fig7", "--jobs", "0"])).is_err());
        assert!(parse(&args(&["run", "fig7", "--bogus"])).is_err());
    }

    #[test]
    fn select_resolves_ids_and_rejects_unknown() {
        let mut run = parse_run(&args(&["fig7", "table2"])).unwrap();
        let selected = select_experiments(&run).unwrap();
        assert_eq!(selected.len(), 2);
        assert_eq!(selected[0].id(), "fig7");
        assert_eq!(selected[1].id(), "table2");
        run.ids.push("bogus".to_owned());
        let err = select_experiments(&run).err().expect("unknown id rejected");
        assert!(err.message.contains("unknown experiment `bogus`"));
        assert!(err.message.contains("fig7"));

        let all = parse_run(&args(&["--all"])).unwrap();
        assert_eq!(select_experiments(&all).unwrap().len(), registry().len());
    }

    #[test]
    fn effective_params_layering() {
        let fig8a = elsq_sim::experiments::find("fig8a").unwrap();
        let mut run = parse_run(&args(&["fig8a"])).unwrap();
        assert_eq!(effective_params(fig8a, &run), ExperimentParams::sweep());
        run.quick = true;
        assert_eq!(effective_params(fig8a, &run), ExperimentParams::quick());
        run.commits = Some(777);
        run.seed = Some(5);
        let p = effective_params(fig8a, &run);
        assert_eq!((p.commits, p.seed), (777, 5));
    }

    #[test]
    fn list_covers_every_registered_experiment() {
        let listing = list_output();
        for e in registry() {
            assert!(
                listing.lines().any(|l| l.starts_with(e.id())),
                "{} missing from list output",
                e.id()
            );
        }
        assert_eq!(listing.lines().count(), registry().len());
    }

    #[test]
    fn parse_sample_flag_on_every_verb() {
        let Command::Run(run) = parse(&args(&["run", "fig7", "--sample", "1000:100:50"])).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(run.sample, Some(SamplingSpec::new(1000, 100, 50).unwrap()));
        let Command::Sweep(s) = parse(&args(&[
            "sweep", "--axis", "rob=64", "--sample", "2000:200",
        ]))
        .unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(s.sample, Some(SamplingSpec::new(2000, 200, 0).unwrap()));
        let Command::Submit(sub) = parse(&args(&[
            "submit", "--axis", "rob=48", "--sample", "1000:100",
        ]))
        .unwrap() else {
            panic!("expected submit");
        };
        assert!(sub.grid.sample.is_some());
        // The spec reaches the effective run/sweep parameters.
        let fig7 = elsq_sim::experiments::find("fig7").unwrap();
        assert_eq!(effective_params(fig7, &run).sample, run.sample);
        assert_eq!(sweep_spec(&s).unwrap().params.sample, s.sample);
    }

    /// A minimal valid command line for `verb` (a [`VERBS`] name).
    fn minimal(verb: &str) -> Vec<String> {
        let rest: &[&str] = match verb {
            "show" | "run" => &["fig7"],
            "sweep" | "submit" => &["--axis", "rob=64"],
            "diff" => &["a.json", "b.json"],
            "test" => &["suites/"],
            "trace dump" => &["--out", "t/"],
            "trace info" | "trace verify" => &["a.etrc"],
            "serve" => &["--store", "s/"],
            _ => &[],
        };
        verb.split(' ')
            .chain(rest.iter().copied())
            .map(str::to_owned)
            .collect()
    }

    /// The value of `flag` in a parsed command, in `Debug` form so every
    /// type compares alike (`None` when the command has no such field).
    fn flag_value(cmd: &Command, flag: &str) -> Option<String> {
        let d = |v: &dyn std::fmt::Debug| Some(format!("{v:?}"));
        let grid = |s: &SweepArgs| match flag {
            "--scenario" => d(&s.scenario),
            "--axis" => d(&s.axes),
            "--base" => d(&s.base),
            "--classes" => d(&s.classes),
            "--name" => d(&s.name),
            "--quick" => d(&s.quick),
            "--commits" => d(&s.commits),
            "--seed" => d(&s.seed),
            "--sample" => d(&s.sample),
            "--format" => d(&s.format),
            "--out" => d(&s.out),
            "--jobs" => d(&s.jobs),
            "--trace" => d(&s.trace),
            "--cache" => d(&s.cache),
            "--resume" => d(&s.resume),
            "--fault-plan" => d(&s.fault_plan),
            _ => None,
        };
        match cmd {
            Command::Run(r) => match flag {
                "--quick" => d(&r.quick),
                "--commits" => d(&r.commits),
                "--seed" => d(&r.seed),
                "--sample" => d(&r.sample),
                "--format" => d(&r.format),
                "--out" => d(&r.out),
                "--jobs" => d(&r.jobs),
                "--trace" => d(&r.trace),
                "--cache" => d(&r.cache),
                "--resume" => d(&r.resume),
                _ => None,
            },
            Command::Sweep(s) => grid(s),
            Command::Submit(s) => match flag {
                "--connect" => d(&s.connect),
                "--timeout" => d(&s.timeout),
                _ => grid(&s.grid),
            },
            Command::Test(t) => match flag {
                "--format" => d(&t.format),
                "--out" => d(&t.out),
                "--jobs" => d(&t.jobs),
                "--cache" => d(&t.cache),
                "--resume" => d(&t.resume),
                _ => None,
            },
            Command::Trace(TraceCmd::Dump(t)) => match flag {
                "--quick" => d(&t.quick),
                "--commits" => d(&t.commits),
                "--seed" => d(&t.seed),
                // Required here, optional elsewhere: compare the path.
                "--out" => d(&Some(&t.out)),
                _ => None,
            },
            Command::Serve(s) => match flag {
                "--resume" => d(&s.resume),
                "--jobs" => d(&s.jobs),
                "--fault-plan" => d(&s.fault_plan),
                _ => None,
            },
            Command::Jobs(c) | Command::Shutdown(c) => match flag {
                "--connect" => d(&c.connect),
                "--timeout" => d(&c.timeout),
                _ => None,
            },
            _ => None,
        }
    }

    #[test]
    fn shared_flags_parse_alike_on_every_verb_and_unknown_ones_name_it() {
        // 1. A flag accepted by two or more verbs parses to the same value
        //    on each of them, and that value differs from the default.
        let sample_value = |flag: &str| match flag {
            "--scenario" => "s.json",
            "--axis" => "rob=48",
            "--base" => "fmc-hash",
            "--classes" => "fp",
            "--name" => "x",
            "--commits" => "123",
            "--seed" => "9",
            "--sample" => "1000:100:50",
            "--jobs" => "3",
            "--format" => "json",
            "--out" => "o/",
            "--trace" => "t/",
            "--cache" => "c/",
            "--fault-plan" => "f.json",
            "--connect" => "127.0.0.1:7",
            "--timeout" => "5",
            other => panic!("shared flag `{other}` needs a sample value here"),
        };
        let mut all_flags: Vec<&str> = VERBS
            .iter()
            .flat_map(|v| v.flags.iter())
            .flat_map(|g| g.split_whitespace())
            .collect();
        all_flags.sort_unstable();
        all_flags.dedup();
        let mut shared = 0;
        for flag in all_flags {
            // Every accepted flag has a parser (this panics otherwise).
            let mut flags = Flags::default();
            if !flags.switch(flag) {
                let _ = flags.set(flag, "1");
            }
            let verbs: Vec<&Verb> = VERBS.iter().filter(|v| v.accepts(flag)).collect();
            if verbs.len() < 2 {
                continue;
            }
            shared += 1;
            let mut seen: Option<(String, &str)> = None;
            for verb in verbs {
                let base = minimal(verb.name);
                // A scenario file replaces the minimal line's ad-hoc axis.
                let mut line = if flag == "--scenario" {
                    vec![verb.name.to_owned()]
                } else {
                    base.clone()
                };
                line.push(flag.to_owned());
                if !Flags::default().switch(flag) {
                    line.push(sample_value(flag).to_owned());
                } else if flag == "--resume" && verb.accepts("--cache") {
                    line.extend(args(&["--cache", "c/"]));
                }
                let before = flag_value(&parse(&base).unwrap(), flag);
                let after = flag_value(&parse(&line).unwrap(), flag)
                    .unwrap_or_else(|| panic!("`{}` drops `{flag}`", verb.name));
                assert_ne!(
                    before.as_ref(),
                    Some(&after),
                    "{line:?} left `{flag}` unset"
                );
                match &seen {
                    Some((value, first)) => assert_eq!(
                        &after, value,
                        "`{flag}` parses differently on `{}` and `{first}`",
                        verb.name
                    ),
                    None => seen = Some((after, verb.name)),
                }
            }
        }
        assert!(shared >= 10, "only {shared} shared flags found");
        // 2. Every verb rejects an unknown flag with exit 2, naming itself.
        for verb in VERBS {
            let mut line = minimal(verb.name);
            line.push("--bogus".to_owned());
            let err = parse(&line).unwrap_err();
            assert_eq!((err.exit_code, err.show_usage), (2, true), "{line:?}");
            assert_eq!(
                err.message,
                format!("unknown option `--bogus` for `{}`", verb.name)
            );
        }
        // 3. The retired throughput verb is an unknown subcommand.
        for line in [&["bench"][..], &["bench", "--quick"]] {
            let err = parse(&args(line)).unwrap_err();
            assert_eq!(err.exit_code, 2);
            assert!(
                err.message.contains("unknown subcommand `bench`"),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn parse_sample_rejects_malformed_specs_loudly() {
        // Malformed specs exit 2 with a usage dump before anything runs.
        for bad in ["1000", "0:100", "100:0", "1000:900:200", "a:b", "1:2:3:4"] {
            let err = parse(&args(&["run", "fig7", "--sample", bad])).unwrap_err();
            assert_eq!(err.exit_code, 2, "`{bad}` accepted");
            assert!(err.show_usage, "`{bad}` skipped the usage dump");
            assert!(err.message.contains("--sample"), "`{bad}`: {}", err.message);
        }
        assert!(parse(&args(&["run", "fig7", "--sample"])).is_err());
        assert!(parse(&args(&["sweep", "--axis", "rob=64", "--sample", "10:20"])).is_err());
    }

    #[test]
    fn parse_trace_dump_checkpoint_every() {
        let Command::Trace(TraceCmd::Dump(dump)) = parse(&args(&[
            "trace",
            "dump",
            "fp",
            "--out",
            "t/",
            "--checkpoint-every",
            "512",
        ]))
        .unwrap() else {
            panic!("expected trace dump");
        };
        assert_eq!(dump.checkpoint_every, Some(512));
        let err = parse(&args(&[
            "trace",
            "dump",
            "fp",
            "--out",
            "t/",
            "--checkpoint-every",
            "0",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(
            err.message.contains("--checkpoint-every"),
            "{}",
            err.message
        );
        assert!(parse(&args(&["trace", "dump", "--checkpoint-every"])).is_err());
    }

    #[test]
    fn parse_diff_flags_and_arity() {
        let Command::Diff(d) =
            parse(&args(&["diff", "a.json", "b.json", "--tol", "0.01"])).unwrap()
        else {
            panic!("expected diff");
        };
        assert_eq!(d.a, PathBuf::from("a.json"));
        assert_eq!(d.b, PathBuf::from("b.json"));
        assert!((d.tol - 0.01).abs() < 1e-12);
        assert!(parse(&args(&["diff", "a.json"])).is_err());
        assert!(parse(&args(&["diff", "a", "b", "c"])).is_err());
        assert!(parse(&args(&["diff", "a", "b", "--tol", "-1"])).is_err());
        assert!(parse(&args(&["diff", "a", "b", "--bogus"])).is_err());
    }

    #[test]
    fn diff_end_to_end_matches_and_mismatches() {
        let dir = std::env::temp_dir().join(format!("elsq-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run = parse_run(&args(&["tuning", "--quick", "--commits", "500"])).unwrap();
        let reports = execute_run(&run).unwrap();
        let json = render_reports(&reports, OutputFormat::Json);
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        std::fs::write(&a, &json).unwrap();
        std::fs::write(&b, &json).unwrap();
        let same = execute_diff(&DiffArgs {
            a: a.clone(),
            b: b.clone(),
            tol: 0.0,
        })
        .unwrap();
        assert!(same.contains("reports match"));
        // Different params -> mismatch with exit code 1.
        let run2 = parse_run(&args(&["tuning", "--quick", "--commits", "700"])).unwrap();
        let reports2 = execute_run(&run2).unwrap();
        std::fs::write(&b, render_reports(&reports2, OutputFormat::Json)).unwrap();
        let err = execute_diff(&DiffArgs { a, b, tol: 0.0 }).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("reports differ"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_refuses_degraded_reports_with_exit_3() {
        let dir = tmp_dir("diff-degraded");
        // A sweep-style report whose one point failed: the diff must refuse
        // it loudly instead of matching the two FAILED markers.
        let degraded = r#"{
            "id": "sweep-x", "title": "x",
            "params": {"commits": 100, "seed": 1},
            "tables": [{
                "title": "grid",
                "headers": ["point", "suite", "mean IPC"],
                "rows": [[
                    {"text": "rob=48", "value": null},
                    {"text": "fp", "value": null},
                    {"text": "FAILED (lsq-alloc)", "value": null}
                ]]
            }],
            "wall_time_ms": 0.0
        }"#;
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        std::fs::write(&a, degraded).unwrap();
        std::fs::write(&b, degraded).unwrap();
        let err = execute_diff(&DiffArgs {
            a: a.clone(),
            b,
            tol: 0.0,
        })
        .unwrap_err();
        assert_eq!(err.exit_code, EXIT_DEGRADED);
        assert!(!err.show_usage);
        assert!(
            err.message.contains("refusing to compare"),
            "{}",
            err.message
        );
        assert!(
            err.message.contains("FAILED (lsq-alloc)"),
            "{}",
            err.message
        );
        assert!(
            err.message.contains(&a.display().to_string()),
            "{}",
            err.message
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_test_flags_and_usage_errors() {
        let Command::Test(t) = parse(&args(&[
            "test",
            "suites/",
            "extra.json",
            "--cache",
            "c/",
            "--resume",
            "--jobs",
            "2",
            "--format",
            "json",
            "--out",
            "report.json",
        ]))
        .unwrap() else {
            panic!("expected test");
        };
        assert_eq!(
            t.paths,
            vec![PathBuf::from("suites/"), PathBuf::from("extra.json")]
        );
        assert_eq!(t.cache, Some(PathBuf::from("c/")));
        assert!(t.resume);
        assert_eq!(t.jobs, Some(2));
        assert_eq!(t.format, OutputFormat::Json);
        assert_eq!(t.out, Some(PathBuf::from("report.json")));
        // Usage errors exit 2 before anything runs.
        assert!(parse(&args(&["test"])).is_err());
        assert!(parse(&args(&["test", "suites/", "--format", "csv"])).is_err());
        assert!(parse(&args(&["test", "suites/", "--resume"])).is_err());
        assert!(parse(&args(&["test", "suites/", "--jobs", "0"])).is_err());
        assert!(parse(&args(&["test", "suites/", "--bogus"])).is_err());
    }

    /// A tiny scenario-target suite (two grid points, 300 commits) whose
    /// bound holds; `violated` flips the bound to a knowingly false trend.
    fn tiny_suite_json(violated: bool) -> String {
        let bound = if violated {
            r#""column": "mean IPC", "max": 0.000001"#
        } else {
            r#""column": "mean IPC", "min": 0.000001"#
        };
        format!(
            r#"{{
                "name": "cli-tiny",
                "scenario": {{
                    "name": "cli-tiny",
                    "base": "fmc-hash",
                    "axes": [{{"name": "rob", "values": ["48", "64"]}}],
                    "classes": ["fp"],
                    "params": {{"commits": 300, "seed": 5}}
                }},
                "assertions": [
                    {{"name": "ipc-sane", "kind": "bound", {bound}}}
                ]
            }}"#
        )
    }

    #[test]
    fn test_verb_end_to_end_with_cache_round_trip() {
        let dir = tmp_dir("test-verb");
        std::fs::write(dir.join("tiny.json"), tiny_suite_json(false)).unwrap();
        let cache = dir.join("cache");
        let invoke = |resume: bool| {
            let mut test = parse_test(&args(&[
                dir.to_str().unwrap(),
                "--cache",
                cache.to_str().unwrap(),
            ]))
            .unwrap();
            test.resume = resume;
            execute_test(&test).unwrap()
        };
        let first = invoke(false);
        assert_eq!(first.exit_code(), 0);
        assert_eq!(first.suites.len(), 1);
        assert_eq!(first.suites[0].status(), Status::Pass);
        assert_eq!(first.suites[0].source, "tiny.json");
        let line = first.cache_line.as_deref().unwrap();
        assert!(line.contains("0 hit(s), 2 miss(es)"), "{line}");
        // Second run against the same cache: zero simulations, and the
        // summary line says so (what the CI job greps for).
        let second = invoke(true);
        assert_eq!(second.exit_code(), 0);
        let line = second.cache_line.as_deref().unwrap();
        assert!(line.contains("2 hit(s), 0 miss(es)"), "{line}");
        assert!(line.contains("100% cache hits"), "{line}");
        let text = render_test_text(&second);
        assert!(text.contains("PASS ipc-sane"), "{text}");
        assert!(text.contains("suite cli-tiny (tiny.json)"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn test_verb_violated_bound_exits_1_naming_the_assertion() {
        let dir = tmp_dir("test-verb-fail");
        let file = dir.join("false-trend.json");
        std::fs::write(&file, tiny_suite_json(true)).unwrap();
        let out_file = dir.join("report.json");
        let run = run_cli(&args(&[
            "test",
            file.to_str().unwrap(),
            "--out",
            out_file.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(run.exit_code, 1);
        assert!(run.output.contains("FAIL ipc-sane"), "{}", run.output);
        assert!(
            run.output.contains("1 failed assertion(s)"),
            "{}",
            run.output
        );
        // The --out JSON artifact carries the same verdicts.
        let json = std::fs::read_to_string(&out_file).unwrap();
        assert!(
            json.contains("\"status\": \"fail\"") || json.contains("\"status\":\"fail\""),
            "{json}"
        );
        assert!(json.contains("ipc-sane"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn test_verb_rejects_malformed_suites_and_empty_dirs() {
        let dir = tmp_dir("test-verb-bad");
        // Empty directory: vacuous passes are forbidden.
        let err = execute_test(&parse_test(&args(&[dir.to_str().unwrap()])).unwrap()).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(
            err.message.contains("no .json suite files"),
            "{}",
            err.message
        );
        // Missing path.
        let missing = dir.join("absent.json");
        let err =
            execute_test(&parse_test(&args(&[missing.to_str().unwrap()])).unwrap()).unwrap_err();
        assert!(err.message.contains("no such suite"), "{}", err.message);
        // Malformed suite file: named, with the parse error, before any
        // simulation runs.
        let bad = dir.join("bad.json");
        std::fs::write(
            &bad,
            r#"{"name": "x", "experiment": "fig7", "asertions": []}"#,
        )
        .unwrap();
        let err = execute_test(&parse_test(&args(&[bad.to_str().unwrap()])).unwrap()).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(
            err.message.contains("is not a suite file"),
            "{}",
            err.message
        );
        assert!(
            err.message.contains("unknown key `asertions`"),
            "{}",
            err.message
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "elsq-cli-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_show() {
        assert_eq!(
            parse(&args(&["show", "fig7"])).unwrap(),
            Command::Show("fig7".to_owned())
        );
        assert!(parse(&args(&["show"])).is_err());
        assert!(parse(&args(&["show", "a", "b"])).is_err());
    }

    #[test]
    fn show_prints_params_and_grid_and_rejects_unknown_ids() {
        let json = execute_show("fig7").unwrap();
        let value = serde_json::parse_value(&json).unwrap();
        assert_eq!(value.get("id"), Some(&serde::Value::Str("fig7".into())));
        let plan = value.get("plan").expect("plan present");
        let points = match plan.get("points") {
            Some(serde::Value::Seq(points)) => points,
            other => panic!("points missing: {other:?}"),
        };
        // Baseline + 5 schemes, both classes.
        assert_eq!(points.len(), 12);
        // The grid carries full configs a scenario author can copy.
        assert!(json.contains("rob_size"));
        let err = execute_show("bogus").unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("unknown experiment"));
    }

    #[test]
    fn parse_sweep_flags() {
        let cmd = parse(&args(&[
            "sweep",
            "--axis",
            "rob=64,128",
            "--axis",
            "sqm=on,off",
            "--base",
            "fmc-hash",
            "--classes",
            "fp",
            "--name",
            "demo",
            "--commits",
            "2000",
            "--seed",
            "9",
            "--cache",
            "cachedir",
            "--resume",
            "--format",
            "json",
            "--out",
            "outdir",
            "--jobs",
            "2",
        ]))
        .unwrap();
        let Command::Sweep(s) = cmd else {
            panic!("expected sweep");
        };
        assert_eq!(s.axes.len(), 2);
        assert_eq!(s.axes[0].name, "rob");
        assert_eq!(s.axes[0].values, vec!["64", "128"]);
        assert_eq!(s.base.as_deref(), Some("fmc-hash"));
        assert_eq!(s.classes.as_deref(), Some("fp"));
        assert_eq!(s.name.as_deref(), Some("demo"));
        assert_eq!((s.commits, s.seed), (Some(2000), Some(9)));
        assert_eq!(s.cache, Some(PathBuf::from("cachedir")));
        assert!(s.resume);
        assert_eq!(s.format, OutputFormat::Json);
        assert_eq!(s.out, Some(PathBuf::from("outdir")));
        assert_eq!(s.jobs, Some(2));
    }

    #[test]
    fn parse_sweep_rejects_malformed_axis_specs_and_conflicts() {
        // Malformed --axis specs fail loudly at parse time (exit 2).
        for bad in ["rob", "rob=", "=64", "rob=64,,128", "rob=64,"] {
            let err = parse(&args(&["sweep", "--axis", bad])).unwrap_err();
            assert_eq!(err.exit_code, 2, "`{bad}` accepted");
            assert!(
                err.message.contains("malformed"),
                "`{bad}`: {}",
                err.message
            );
        }
        // No grid at all.
        assert!(parse(&args(&["sweep"])).is_err());
        // --scenario conflicts with the ad-hoc flags.
        let err = parse(&args(&[
            "sweep",
            "--scenario",
            "s.json",
            "--axis",
            "rob=64",
        ]))
        .unwrap_err();
        assert!(err.message.contains("conflicts"), "{}", err.message);
        // --resume needs --cache.
        let err = parse(&args(&["sweep", "--axis", "rob=64", "--resume"])).unwrap_err();
        assert!(err.message.contains("--cache"), "{}", err.message);
        // Unknown class selection is rejected when the spec is built.
        let Command::Sweep(s) = parse(&args(&[
            "sweep",
            "--axis",
            "rob=64",
            "--classes",
            "spec2006",
        ]))
        .unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(sweep_spec(&s).unwrap_err().exit_code, 2);
        // An unknown axis *name* is rejected at expansion.
        let Command::Sweep(s) = parse(&args(&["sweep", "--axis", "bogus=1"])).unwrap() else {
            panic!("expected sweep");
        };
        let err = execute_sweep(&s).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("unknown axis"), "{}", err.message);
        // So is the same axis passed twice — never a silent last-one-wins.
        let Command::Sweep(s) =
            parse(&args(&["sweep", "--axis", "rob=48", "--axis", "rob=64"])).unwrap()
        else {
            panic!("expected sweep");
        };
        let err = execute_sweep(&s).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("declared twice"), "{}", err.message);
    }

    #[test]
    fn impossible_grid_points_are_usage_errors() {
        // Each of these expands to a configuration no simulation can run; a
        // retry cannot help, so the sweep fails at plan time with exit 2,
        // naming the point and the reason, before simulating anything.
        for (axis, reason) in [
            ("ports=0", "cache port count 0 must be between 1 and 255"),
            ("issue=0", "issue width 0 must be between 1 and 255"),
            ("rob=0", "the ROB must hold at least one entry"),
            ("l1assoc=0", "L1 cache: associativity must be at least 1"),
            ("l2mb=0", "L2 cache: number of sets 0 is not a power of two"),
            (
                "l1kb=3",
                "L1 cache: number of sets 24 is not a power of two",
            ),
            ("epochs=0", "ELSQ: epoch count 0 must be between 1 and 32"),
        ] {
            let Command::Sweep(s) =
                parse(&args(&["sweep", "--axis", axis, "--commits", "1000"])).unwrap()
            else {
                panic!("expected sweep");
            };
            let err = execute_sweep(&s).unwrap_err();
            assert_eq!(err.exit_code, 2, "{axis}: {}", err.message);
            assert!(
                err.message.contains(&format!("point `{axis}`")) && err.message.contains(reason),
                "{axis}: {}",
                err.message
            );
        }
        // `submit` refuses the same grid before connecting anywhere.
        let Command::Submit(s) = parse(&args(&[
            "submit",
            "--connect",
            "127.0.0.1:9",
            "--axis",
            "l1kb=3",
        ]))
        .unwrap() else {
            panic!("expected submit");
        };
        let err = execute_submit(&s).unwrap_err();
        assert_eq!(err.exit_code, 2, "{}", err.message);
        assert!(err.message.contains("point `l1kb=3`"), "{}", err.message);
        // So does `test` for a suite whose inline scenario has such a point.
        let dir = tmp_dir("impossible-point");
        let suite = dir.join("bad.json");
        std::fs::write(
            &suite,
            r#"{"name": "bad", "scenario": {"name": "bad", "base": "fmc-hash",
                "axes": [{"name": "l1kb", "values": ["32", "3"]}], "classes": ["fp"],
                "params": {"commits": 300, "seed": 5}},
               "assertions": [{"name": "ipc", "kind": "bound", "column": "mean IPC", "min": 0}]}"#,
        )
        .unwrap();
        let test = parse_test(&[suite.display().to_string()]).unwrap();
        let err = execute_test(&test).unwrap_err();
        assert_eq!(err.exit_code, 2, "{}", err.message);
        assert!(err.message.contains("point `l1kb=3`"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_serve_flags_and_loud_usage_errors() {
        let Command::Serve(s) = parse(&args(&[
            "serve",
            "--store",
            "storedir",
            "--addr",
            "127.0.0.1:0",
            "--resume",
            "--jobs",
            "2",
        ]))
        .unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(s.store, PathBuf::from("storedir"));
        assert_eq!(s.addr, "127.0.0.1:0");
        assert!(s.resume);
        assert_eq!(s.jobs, Some(2));
        // Missing --store is a loud usage error (exit 2), not a default.
        let err = parse(&args(&["serve"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("--store"), "{}", err.message);
        let err = parse(&args(&["serve", "--resume"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("--store"), "{}", err.message);
        // `serve --cache` points at the right flag.
        let err = parse(&args(&["serve", "--cache", "dir"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("--store"), "{}", err.message);
        assert!(parse(&args(&["serve", "--store"])).is_err());
        assert!(parse(&args(&["serve", "--store", "d", "--jobs", "0"])).is_err());
        assert!(parse(&args(&["serve", "--store", "d", "stray"])).is_err());
    }

    #[test]
    fn parse_submit_flags_and_loud_usage_errors() {
        let Command::Submit(s) = parse(&args(&[
            "submit",
            "--connect",
            "127.0.0.1:9",
            "--job",
            "night-1",
            "--axis",
            "rob=48,64",
            "--base",
            "fmc-hash",
            "--classes",
            "fp",
            "--name",
            "demo",
            "--commits",
            "400",
            "--seed",
            "5",
            "--format",
            "json",
        ]))
        .unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(s.connect, "127.0.0.1:9");
        assert_eq!(s.job.as_deref(), Some("night-1"));
        assert_eq!(s.grid.axes.len(), 1);
        assert_eq!(s.grid.base.as_deref(), Some("fmc-hash"));
        assert_eq!((s.grid.commits, s.grid.seed), (Some(400), Some(5)));
        // The default address is the daemon default.
        let Command::Submit(s) = parse(&args(&["submit", "--axis", "rob=48"])).unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(s.connect, elsq_serve::protocol::DEFAULT_ADDR);
        // No grid at all.
        let err = parse(&args(&["submit"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("no grid selected"), "{}", err.message);
        // The cache flags belong to the server.
        for flag in ["--cache", "--resume"] {
            let cmd = if flag == "--cache" {
                args(&["submit", "--axis", "rob=48", flag, "dir"])
            } else {
                args(&["submit", "--axis", "rob=48", flag])
            };
            let err = parse(&cmd).unwrap_err();
            assert_eq!(err.exit_code, 2, "{flag}");
            assert!(err.message.contains("daemon owns"), "{}", err.message);
        }
        // A bad job id fails at parse time, before connecting anywhere.
        let err = parse(&args(&["submit", "--axis", "rob=48", "--job", "a.b"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("a.b"), "{}", err.message);
        // --scenario conflicts with ad-hoc grid flags, exactly like sweep.
        let err = parse(&args(&[
            "submit",
            "--scenario",
            "s.json",
            "--axis",
            "rob=48",
        ]))
        .unwrap_err();
        assert!(err.message.contains("conflicts"), "{}", err.message);
    }

    #[test]
    fn parse_jobs_and_shutdown() {
        assert_eq!(
            parse(&args(&["jobs"])).unwrap(),
            Command::Jobs(ConnectArgs {
                connect: elsq_serve::protocol::DEFAULT_ADDR.to_owned(),
                timeout: DEFAULT_CLIENT_TIMEOUT_SECS,
                now: false,
            })
        );
        assert_eq!(
            parse(&args(&["shutdown", "--connect", "127.0.0.1:7", "--now"])).unwrap(),
            Command::Shutdown(ConnectArgs {
                connect: "127.0.0.1:7".to_owned(),
                timeout: DEFAULT_CLIENT_TIMEOUT_SECS,
                now: true,
            })
        );
        // --timeout is parsed (0 = disabled); --now belongs to shutdown only.
        let Command::Jobs(j) = parse(&args(&["jobs", "--timeout", "5"])).unwrap() else {
            panic!("expected jobs");
        };
        assert_eq!(j.timeout, 5);
        assert!(parse(&args(&["jobs", "--now"])).is_err());
        assert!(parse(&args(&["jobs", "stray"])).is_err());
        assert!(parse(&args(&["shutdown", "--connect"])).is_err());
        assert!(parse(&args(&["shutdown", "--timeout", "abc"])).is_err());
    }

    #[test]
    fn submit_against_no_server_is_a_runtime_error() {
        // Port 9 on localhost is reserved/discard and not listening here.
        let err = main_with_args(&args(&[
            "submit",
            "--connect",
            "127.0.0.1:9",
            "--axis",
            "rob=48",
            "--quick",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("cannot connect"), "{}", err.message);
    }

    #[test]
    fn run_rejects_unknown_experiment_id_with_usage_error() {
        let err = main_with_args(&args(&["run", "frobnicate", "--quick"])).unwrap_err();
        assert_eq!(err.exit_code, 2);
        assert!(err.message.contains("unknown experiment `frobnicate`"));
        assert!(err.message.contains("fig7"), "lists known ids");
    }

    #[test]
    fn run_trace_on_missing_directory_fails_loudly() {
        let err = main_with_args(&args(&[
            "run",
            "tuning",
            "--quick",
            "--trace",
            "/nonexistent/elsq-traces",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("--trace"), "{}", err.message);
    }

    #[test]
    fn sweep_resume_with_corrupted_manifest_fails_loudly() {
        let dir = tmp_dir("sweep-corrupt");
        let cache = dir.join("cache");
        std::fs::create_dir_all(&cache).unwrap();
        std::fs::write(cache.join("manifest.json"), "{definitely not json").unwrap();
        let sweep = SweepArgs {
            scenario: None,
            axes: vec![Axis {
                name: "rob".into(),
                values: vec!["48".into(), "64".into()],
            }],
            base: None,
            classes: Some("fp".into()),
            name: None,
            quick: false,
            commits: Some(300),
            seed: Some(7),
            cache: Some(cache.clone()),
            resume: true,
            format: OutputFormat::Json,
            out: None,
            jobs: None,
            trace: None,
            fault_plan: None,
            sample: None,
        };
        let err = execute_sweep(&sweep).unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(err.message.contains("corrupt"), "{}", err.message);
        // Nothing was recomputed or overwritten behind the error.
        assert_eq!(
            std::fs::read_to_string(cache.join("manifest.json")).unwrap(),
            "{definitely not json"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_cache_round_trip_is_all_hits_and_byte_identical() {
        let dir = tmp_dir("sweep-cache");
        let sweep = SweepArgs {
            scenario: None,
            axes: vec![Axis {
                name: "rob".into(),
                values: vec!["48".into(), "64".into()],
            }],
            base: Some("fmc-hash".into()),
            classes: Some("fp".into()),
            name: Some("demo".into()),
            quick: false,
            commits: Some(400),
            seed: Some(5),
            cache: Some(dir.join("cache")),
            resume: false,
            format: OutputFormat::Json,
            out: None,
            jobs: None,
            trace: None,
            fault_plan: None,
            sample: None,
        };
        let first = execute_sweep(&sweep).unwrap();
        assert_eq!(first.cache, Some((0, 2)), "fresh cache misses everything");
        // Re-running without --resume refuses the populated cache.
        let err = execute_sweep(&sweep).unwrap_err();
        assert!(err.message.contains("--resume"), "{}", err.message);
        let second = execute_sweep(&SweepArgs {
            resume: true,
            ..sweep.clone()
        })
        .unwrap();
        assert_eq!(second.cache, Some((2, 0)), "second run is 100% cache hits");
        assert_eq!(
            render_report(&second.report, OutputFormat::Json),
            render_report(&first.report, OutputFormat::Json),
            "cached report must be byte-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Batching is invisible: the grid run as one-point sweeps into a cache
    /// (every class group a batch of one) answers the full-grid sweep
    /// entirely from the cache, byte-identical to a cacheless full-grid run.
    #[test]
    fn sweep_of_single_points_is_byte_identical_to_the_full_grid() {
        let dir = tmp_dir("sweep-points");
        let axis = |name: &str, values: &[&str]| Axis {
            name: name.into(),
            values: values.iter().map(|v| (*v).to_owned()).collect(),
        };
        let sweep = SweepArgs {
            scenario: None,
            axes: vec![axis("rob", &["48", "64"]), axis("issue", &["2", "4"])],
            base: Some("fmc-hash".into()),
            classes: Some("both".into()),
            name: Some("batchparity".into()),
            quick: false,
            commits: Some(400),
            seed: Some(5),
            cache: None,
            resume: false,
            format: OutputFormat::Json,
            out: None,
            jobs: None,
            trace: None,
            fault_plan: None,
            sample: None,
        };
        for rob in ["48", "64"] {
            for issue in ["2", "4"] {
                execute_sweep(&SweepArgs {
                    axes: vec![axis("rob", &[rob]), axis("issue", &[issue])],
                    cache: Some(dir.join("cache")),
                    resume: true,
                    ..sweep.clone()
                })
                .unwrap();
            }
        }
        let resumed = execute_sweep(&SweepArgs {
            cache: Some(dir.join("cache")),
            resume: true,
            ..sweep.clone()
        })
        .unwrap();
        assert_eq!(
            resumed.cache,
            Some((8, 0)),
            "every point came from the cache"
        );
        let fresh = execute_sweep(&sweep).unwrap();
        assert_eq!(
            render_report(&resumed.report, OutputFormat::Json),
            render_report(&fresh.report, OutputFormat::Json),
            "batching must not change a single byte of the report"
        );
        let err = parse(&args(&["sweep", "--axis", "rob=48", "--no-batch"])).unwrap_err();
        assert_eq!(err.exit_code, 2, "`--no-batch` is not a sweep flag");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_from_scenario_file_matches_adhoc_flags() {
        let dir = tmp_dir("sweep-file");
        let spec = ScenarioSpec {
            name: "filecase".into(),
            base: "fmc-hash-sqm".into(),
            axes: vec![Axis {
                name: "l2mb".into(),
                values: vec!["1".into(), "4".into()],
            }],
            classes: vec![WorkloadClass::Fp],
            params: ExperimentParams {
                commits: 400,
                seed: 5,
                sample: None,
            },
        };
        let path = dir.join("scenario.json");
        std::fs::write(&path, serde_json::to_string_pretty(&spec).unwrap()).unwrap();
        let from_file = execute_sweep(&SweepArgs {
            scenario: Some(path.clone()),
            axes: vec![],
            base: None,
            classes: None,
            name: None,
            quick: false,
            commits: None,
            seed: None,
            cache: None,
            resume: false,
            format: OutputFormat::Json,
            out: None,
            jobs: None,
            trace: None,
            fault_plan: None,
            sample: None,
        })
        .unwrap();
        assert_eq!(from_file.report.id, "sweep-filecase");
        assert_eq!(from_file.report.params.commits, 400);
        let table = &from_file.report.tables[0];
        assert_eq!(table.len(), 2);
        assert_eq!(table.headers(), ["l2mb", "suite", "mean IPC"]);
        // A file that is not a scenario is a loud runtime error.
        std::fs::write(&path, "[1, 2, 3]").unwrap();
        let err = execute_sweep(&SweepArgs {
            scenario: Some(path),
            axes: vec![],
            base: None,
            classes: None,
            name: None,
            quick: false,
            commits: None,
            seed: None,
            cache: None,
            resume: false,
            format: OutputFormat::Json,
            out: None,
            jobs: None,
            trace: None,
            fault_plan: None,
            sample: None,
        })
        .unwrap_err();
        assert_eq!(err.exit_code, 1);
        assert!(
            err.message.contains("not a scenario file"),
            "{}",
            err.message
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_renders_in_every_format() {
        let run = parse_run(&args(&["tuning", "--quick", "--commits", "600"])).unwrap();
        let reports = execute_run(&run).unwrap();
        assert_eq!(reports.len(), 1);
        let text = render_reports(&reports, OutputFormat::Text);
        assert!(text.contains("== Section 5.2"));
        let csv = render_reports(&reports, OutputFormat::Csv);
        assert!(csv.starts_with("# Section 5.2"));
        let json = render_reports(&reports, OutputFormat::Json);
        let back: Vec<elsq_stats::report::Report> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].id, "tuning");
        assert_eq!(back[0].params.commits, 600);
    }
}
