//! Declarative scenario sweeps: config grids as data, cache-addressable
//! simulation points.
//!
//! The paper's evaluation is a family of parameter sweeps over one machine
//! model. This module turns such a sweep into *data* instead of a
//! hand-rolled loop:
//!
//! * a [`ScenarioSpec`] names a base configuration, a set of axes (each a
//!   named list of values), the workload classes to run and the run
//!   parameters — it serializes to the scenario-file format documented in
//!   `docs/SCENARIOS.md`;
//! * [`ScenarioSpec::expand`] expands the cartesian grid into a
//!   [`SweepPlan`]: a deterministic, ordered list of [`PlanPoint`]s, one
//!   per `(configuration, workload class)` pair;
//! * every point has a [`PointKey`] — a canonical content hash over
//!   `(config, class, commits, seed, trace fingerprint)` — which is the
//!   key the on-disk [`crate::store::ResultStore`] caches suite results
//!   under;
//! * [`run_plan`] runs a plan under a [`RunCtx`] through
//!   [`crate::driver::run_points`] (which consults the context's result
//!   cache first, so only cache misses reach the simulator and the
//!   parallel pool) and returns a [`PlanResults`] the caller assembles
//!   tables from.
//!
//! Registered experiments declare their figure grids as plans too
//! ([`crate::experiments::Experiment::plan`]), so `elsq-lab show <id>`
//! prints a grid a scenario author can copy from, and every experiment
//! resumes for free from a partially-populated cache.

use serde::{Deserialize, Serialize};

use elsq_core::central::CentralLsqConfig;
use elsq_core::config::{ElsqConfig, ErtKind};
use elsq_cpu::config::{CpuConfig, LsqKind};
use elsq_cpu::result::SimResult;
use elsq_stats::canon::{canonical_hash_of, hash_hex};
use elsq_stats::report::{Cell, ExperimentParams, Report, Table};
use elsq_stats::sampling::{combine_ci, SamplingSpec};
use elsq_workload::suite::WorkloadClass;

use crate::driver::{run_points, RunCtx};
use crate::fault;

/// One axis of a scenario grid: a name and the values it sweeps, both kept
/// as strings so scenario files stay readable and diffable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Axis {
    /// Axis name (see [`apply_axis`] for the supported set).
    pub name: String,
    /// The swept values, in sweep order.
    pub values: Vec<String>,
}

/// A declarative scenario: base configuration, axes, workload selection and
/// run parameters. Serializes to/from the scenario-file format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (used in report titles and output file names).
    pub name: String,
    /// Named base configuration every grid point starts from (see
    /// [`named_config`]).
    pub base: String,
    /// The swept axes; the cartesian product of their values is the grid.
    /// Axes apply in declaration order, so an axis that replaces a whole
    /// substructure (`lsq`) comes before axes that refine it (`sqm`).
    pub axes: Vec<Axis>,
    /// Workload classes each grid point simulates.
    pub classes: Vec<WorkloadClass>,
    /// Commit budget and generator seed.
    pub params: ExperimentParams,
}

/// One axis-name/value binding of a grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisBinding {
    /// Axis name.
    pub axis: String,
    /// The value this point takes on that axis.
    pub value: String,
}

/// One runnable point of a [`SweepPlan`]: a labelled `(config, class)`
/// pair, plus the axis bindings that produced it (empty for experiment
/// grids declared in code).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanPoint {
    /// Human-readable label, unique per `(label, class)` within a plan.
    pub label: String,
    /// The axis bindings this point was expanded from.
    pub axes: Vec<AxisBinding>,
    /// The full processor configuration simulated at this point.
    pub config: CpuConfig,
    /// The workload suite simulated at this point.
    pub class: WorkloadClass,
}

/// An ordered list of [`PlanPoint`]s — the expanded, deterministic form of
/// a scenario grid (or of an experiment's declared figure grid).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPlan {
    /// Plan name (the scenario name or experiment id).
    pub name: String,
    /// Axis names in declaration order (empty for code-declared grids).
    pub axes: Vec<String>,
    /// The points, in execution/presentation order.
    pub points: Vec<PlanPoint>,
}

impl SweepPlan {
    /// Creates an empty plan.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            axes: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Appends a point with no axis bindings (code-declared grids).
    pub fn push(&mut self, label: impl Into<String>, config: CpuConfig, class: WorkloadClass) {
        self.points.push(PlanPoint {
            label: label.into(),
            axes: Vec::new(),
            config,
            class,
        });
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the plan has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Asserts the plan invariant callers rely on for result lookup: no two
    /// points share a `(label, class)` pair.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate, naming it.
    pub fn assert_unique_labels(&self) {
        let mut seen = std::collections::HashSet::new();
        for p in &self.points {
            assert!(
                seen.insert((p.label.as_str(), p.class)),
                "plan `{}` declares point `{}` ({}) twice",
                self.name,
                p.label,
                p.class
            );
        }
    }
}

/// The cache-key identity of one simulation point: everything that
/// determines its [`SimResult`]s, and nothing that does not.
///
/// The canonical content hash of this struct ([`PointKey::hash`]) addresses
/// the on-disk result cache, so it must stay invariant under serialization
/// round trips and field reordering — pinned by the scenario proptests.
#[derive(Debug, Clone, PartialEq)]
pub struct PointKey {
    /// The full processor configuration.
    pub config: CpuConfig,
    /// The workload suite.
    pub class: WorkloadClass,
    /// Committed instructions per workload — the *total* instruction budget
    /// when a sampling spec is set.
    pub commits: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Fingerprint of the run's trace roster, if it replays recorded
    /// traces instead of generators (`None` for generator runs, so a
    /// replayed point can never alias a generated one).
    pub trace: Option<u64>,
    /// The sampling spec of a sampled run (`None` for full detailed runs,
    /// so a sampled point can never alias — or be answered from — a full
    /// run of the same configuration, and vice versa).
    pub sample: Option<SamplingSpec>,
}

// Hand-written so an absent `sample` is *omitted* rather than null (the
// canonical hash keeps explicit nulls): every full-run cache key hashes
// exactly as it did before sampling existed, so populated result stores
// stay valid. `trace` keeps its historical always-present/null encoding
// for the same reason.
impl Serialize for PointKey {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("config".to_owned(), self.config.to_value()),
            ("class".to_owned(), self.class.to_value()),
            ("commits".to_owned(), self.commits.to_value()),
            ("seed".to_owned(), self.seed.to_value()),
            ("trace".to_owned(), self.trace.to_value()),
        ];
        if let Some(sample) = &self.sample {
            fields.push(("sample".to_owned(), sample.to_value()));
        }
        serde::Value::Map(fields)
    }
}

impl Deserialize for PointKey {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let sample = match value {
            serde::Value::Map(_) => match value.get("sample") {
                Some(v) => Option::<SamplingSpec>::from_value(v)?,
                None => None,
            },
            other => return Err(serde::Error::expected("map", other)),
        };
        Ok(Self {
            config: CpuConfig::from_value(serde::map_field(value, "config")?)?,
            class: WorkloadClass::from_value(serde::map_field(value, "class")?)?,
            commits: u64::from_value(serde::map_field(value, "commits")?)?,
            seed: u64::from_value(serde::map_field(value, "seed")?)?,
            trace: Option::<u64>::from_value(serde::map_field(value, "trace")?)?,
            sample,
        })
    }
}

impl PointKey {
    /// The key of `(config, class)` under `params` with the generators as
    /// the workload source; [`RunCtx::point_key`] keys a replayed point.
    pub fn current(config: CpuConfig, class: WorkloadClass, params: &ExperimentParams) -> Self {
        Self {
            config,
            class,
            commits: params.commits,
            seed: params.seed,
            trace: None,
            sample: params.sample,
        }
    }

    /// Canonical content hash — the cache key.
    pub fn hash(&self) -> u64 {
        canonical_hash_of(self)
    }

    /// Fixed-width hex spelling of [`Self::hash`], used in file names.
    pub fn hex(&self) -> String {
        hash_hex(self.hash())
    }
}

/// The named base configurations a scenario can start from, mirroring the
/// named constructors of [`CpuConfig`].
pub const BASE_CONFIGS: [&str; 9] = [
    "ooo64",
    "ooo64-svw",
    "fmc-central-ideal",
    "fmc-line",
    "fmc-line-sqm",
    "fmc-hash",
    "fmc-hash-sqm",
    "fmc-hash-rsac",
    "fmc-hash-svw",
];

/// Resolves a named base configuration.
pub fn named_config(name: &str) -> Result<CpuConfig, String> {
    Ok(match name {
        "ooo64" => CpuConfig::ooo64(),
        "ooo64-svw" => CpuConfig::ooo64_svw(10, false),
        "fmc-central-ideal" => CpuConfig::fmc_central_ideal(),
        "fmc-line" => CpuConfig::fmc_line(false),
        "fmc-line-sqm" => CpuConfig::fmc_line(true),
        "fmc-hash" => CpuConfig::fmc_hash(false),
        "fmc-hash-sqm" => CpuConfig::fmc_hash(true),
        "fmc-hash-rsac" => CpuConfig::fmc_hash_rsac(),
        "fmc-hash-svw" => CpuConfig::fmc_hash_svw(10, false),
        other => {
            return Err(format!(
                "unknown base config `{other}`; known: {}",
                BASE_CONFIGS.join(", ")
            ));
        }
    })
}

/// The axis names [`apply_axis`] understands, with the value syntax each
/// expects (kept in sync with `docs/SCENARIOS.md`).
pub const AXES_HELP: &str = "\
rob=N            reorder buffer entries
issue=N          cache-processor issue width
ports=N          data-cache ports
l1kb=N           L1 size in KB (associativity unchanged)
l1assoc=N        L1 associativity
l2mb=N           L2 size in MB
lsq=KIND         central | central-ideal | elsq
ert=KIND         line | hash (ELSQ only)
hash-bits=N      hash-ERT index bits (ELSQ with hash ERT only)
sqm=on|off       Store Queue Mirror (ELSQ only)
epochs=N         epochs / memory engines (FMC only)
epoch-insts=N    max instructions per epoch (FMC + ELSQ)
epoch-loads=N    max loads per epoch (ELSQ only)
epoch-stores=N   max stores per epoch (ELSQ only)";

fn parse_axis_num<T: std::str::FromStr>(axis: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("axis `{axis}`: invalid numeric value `{value}`"))
}

fn elsq_of<'c>(axis: &str, config: &'c mut CpuConfig) -> Result<&'c mut ElsqConfig, String> {
    match &mut config.lsq {
        LsqKind::Elsq(e) => Ok(e),
        LsqKind::Central(_) => Err(format!(
            "axis `{axis}` requires an ELSQ; use an ELSQ base or put `lsq=elsq` \
             on an earlier axis"
        )),
    }
}

/// Applies one axis binding to a configuration.
///
/// Axes compose in application order: `lsq` replaces the whole LSQ model,
/// so refinements of it (`ert`, `sqm`, ...) must come later. Unknown axis
/// names and malformed values are errors, never silently ignored — a typo
/// must not expand into a grid of identical points.
pub fn apply_axis(config: &mut CpuConfig, axis: &str, value: &str) -> Result<(), String> {
    match axis {
        "rob" => config.rob_size = parse_axis_num(axis, value)?,
        "issue" => config.issue_width = parse_axis_num(axis, value)?,
        "ports" => config.cache_ports = parse_axis_num(axis, value)?,
        "l1kb" => {
            let kb: u64 = parse_axis_num(axis, value)?;
            config.hierarchy.l1.size_bytes = kb * 1024;
        }
        "l1assoc" => config.hierarchy.l1.assoc = parse_axis_num(axis, value)?,
        "l2mb" => {
            let mb: u64 = parse_axis_num(axis, value)?;
            config.hierarchy = config.hierarchy.with_l2_mb(mb);
        }
        "lsq" => {
            config.lsq = match value {
                "central" => LsqKind::Central(CentralLsqConfig::conventional()),
                "central-ideal" => LsqKind::Central(CentralLsqConfig::unlimited()),
                "elsq" => LsqKind::Elsq(ElsqConfig::default()),
                other => {
                    return Err(format!(
                        "axis `lsq`: unknown kind `{other}` (expected central, \
                         central-ideal or elsq)"
                    ));
                }
            };
        }
        "ert" => {
            let e = elsq_of(axis, config)?;
            e.ert = match value {
                "line" => ErtKind::Line,
                "hash" => ErtKind::default(),
                other => {
                    return Err(format!(
                        "axis `ert`: unknown kind `{other}` (expected line or hash)"
                    ));
                }
            };
        }
        "hash-bits" => {
            let bits: u32 = parse_axis_num(axis, value)?;
            let e = elsq_of(axis, config)?;
            match e.ert {
                ErtKind::Hash { .. } => e.ert = ErtKind::Hash { bits },
                ErtKind::Line => {
                    return Err(
                        "axis `hash-bits` requires a hash ERT; put `ert=hash` on an \
                         earlier axis"
                            .to_owned(),
                    );
                }
            }
        }
        "sqm" => {
            let sqm = match value {
                "on" => true,
                "off" => false,
                other => {
                    return Err(format!("axis `sqm`: expected on or off, found `{other}`"));
                }
            };
            elsq_of(axis, config)?.sqm = sqm;
        }
        "epochs" => {
            let n: usize = parse_axis_num(axis, value)?;
            let fmc = config
                .fmc
                .as_mut()
                .ok_or_else(|| "axis `epochs` requires an FMC base".to_owned())?;
            fmc.num_engines = n;
            if let LsqKind::Elsq(e) = &mut config.lsq {
                e.num_epochs = n;
            }
        }
        "epoch-insts" => {
            let n: usize = parse_axis_num(axis, value)?;
            let fmc = config
                .fmc
                .as_mut()
                .ok_or_else(|| "axis `epoch-insts` requires an FMC base".to_owned())?;
            fmc.me_max_insts = n;
            if let LsqKind::Elsq(e) = &mut config.lsq {
                e.epoch_max_insts = n;
            }
        }
        "epoch-loads" => {
            let n: usize = parse_axis_num(axis, value)?;
            elsq_of(axis, config)?.epoch_max_loads = n;
        }
        "epoch-stores" => {
            let n: usize = parse_axis_num(axis, value)?;
            elsq_of(axis, config)?.epoch_max_stores = n;
        }
        other => {
            return Err(format!(
                "unknown axis `{other}`; supported axes:\n{AXES_HELP}"
            ));
        }
    }
    Ok(())
}

impl ScenarioSpec {
    /// Validates the spec and expands the cartesian grid into a
    /// [`SweepPlan`].
    ///
    /// Expansion order is deterministic: the first axis varies slowest, the
    /// last fastest, and each grid point emits its classes in declaration
    /// order. Point labels join the bindings as `axis=value,...` (or the
    /// base name when the spec has no axes). Every point's configuration
    /// must pass [`CpuConfig::validate`]; the first that does not fails the
    /// expansion, naming the point and the reason.
    pub fn expand(&self) -> Result<SweepPlan, String> {
        if self.name.is_empty() {
            return Err("scenario has no name".to_owned());
        }
        if self.classes.is_empty() {
            return Err(format!(
                "scenario `{}` selects no workload classes",
                self.name
            ));
        }
        let mut unique_classes = self.classes.clone();
        unique_classes.dedup();
        if unique_classes.len() != self.classes.len() {
            return Err(format!("scenario `{}` lists a class twice", self.name));
        }
        if self.params.commits == 0 {
            return Err(format!("scenario `{}` has a zero commit budget", self.name));
        }
        let mut seen_axes = std::collections::HashSet::new();
        for axis in &self.axes {
            if axis.name.is_empty() {
                return Err(format!("scenario `{}` has an unnamed axis", self.name));
            }
            if axis.values.is_empty() {
                return Err(format!("axis `{}` has no values", axis.name));
            }
            if !seen_axes.insert(axis.name.as_str()) {
                return Err(format!("axis `{}` is declared twice", axis.name));
            }
        }
        let base = named_config(&self.base)?;

        let mut plan = SweepPlan::new(self.name.clone());
        plan.axes = self.axes.iter().map(|a| a.name.clone()).collect();
        // Odometer over the axis value indices, first axis slowest.
        let mut idx = vec![0usize; self.axes.len()];
        loop {
            let bindings: Vec<AxisBinding> = self
                .axes
                .iter()
                .zip(&idx)
                .map(|(axis, &i)| AxisBinding {
                    axis: axis.name.clone(),
                    value: axis.values[i].clone(),
                })
                .collect();
            let mut config = base;
            for b in &bindings {
                apply_axis(&mut config, &b.axis, &b.value)?;
            }
            let label = if bindings.is_empty() {
                self.base.clone()
            } else {
                bindings
                    .iter()
                    .map(|b| format!("{}={}", b.axis, b.value))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            // A configuration that cannot be simulated never succeeds on a
            // retry, so it is a usage error at plan time.
            config
                .validate()
                .map_err(|e| format!("point `{label}` cannot be simulated: {e}"))?;
            for &class in &self.classes {
                plan.points.push(PlanPoint {
                    label: label.clone(),
                    axes: bindings.clone(),
                    config,
                    class,
                });
            }
            // Advance the odometer (last axis fastest); empty grid = 1 point.
            let mut pos = self.axes.len();
            loop {
                if pos == 0 {
                    plan.assert_unique_labels();
                    return Ok(plan);
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < self.axes[pos].values.len() {
                    break;
                }
                idx[pos] = 0;
            }
        }
    }
}

/// What happened to one plan point: its suite results, or a first-class
/// failure (a simulation panic contained by the pool, or a failed cache
/// write-back) that degrades the sweep instead of aborting it.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome {
    /// The point ran (or was answered from the cache): per-workload
    /// results, in suite order.
    Ok(Vec<SimResult>),
    /// The point failed; the rest of the plan still ran.
    Failed {
        /// Where it failed: a fault-injection site name for injected
        /// failures, `"sim"` for ordinary simulation panics,
        /// `"store.write"` for failed write-backs.
        site: String,
        /// Why it failed.
        msg: String,
    },
}

impl PointOutcome {
    /// Classifies a caught panic message: injected faults carry their site
    /// in the payload (see [`fault::panic_payload`]); anything else is an
    /// ordinary simulation panic.
    pub(crate) fn from_panic(payload: &str) -> Self {
        let (site, msg) = fault::split_panic_site(payload).unwrap_or(("sim", payload));
        PointOutcome::Failed {
            site: site.to_owned(),
            msg: msg.to_owned(),
        }
    }

    /// The suite results.
    ///
    /// # Panics
    ///
    /// Panics on a failed point, naming the site.
    pub fn unwrap(self) -> Vec<SimResult> {
        match self {
            PointOutcome::Ok(results) => results,
            PointOutcome::Failed { site, msg } => panic!("point failed at {site}: {msg}"),
        }
    }

    /// The suite results, `None` for a failed point.
    pub fn results(&self) -> Option<&[SimResult]> {
        match self {
            PointOutcome::Ok(results) => Some(results),
            PointOutcome::Failed { .. } => None,
        }
    }

    /// Whether the point failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, PointOutcome::Failed { .. })
    }
}

/// The results of running a [`SweepPlan`], addressable by point label and
/// class. Holds one [`PointOutcome`] per plan point; a run where every
/// point succeeded behaves exactly as before, while a *degraded* run (some
/// points [`PointOutcome::Failed`]) still exposes every successful result.
pub struct PlanResults {
    points: Vec<PlanPoint>,
    outcomes: Vec<PointOutcome>,
    cancelled: Option<String>,
}

impl PlanResults {
    /// Why the plan stopped early, if the context's cancel flag stopped it;
    /// the results then hold only the points that ran.
    pub fn cancelled(&self) -> Option<&str> {
        self.cancelled.as_deref()
    }

    /// The per-workload suite results of one point.
    ///
    /// # Panics
    ///
    /// Panics if the plan declared no such point — a label/assembly
    /// mismatch is a programming error in the experiment, not a runtime
    /// condition — and on a failed point, naming the site (experiments
    /// never run under fault injection; degraded-aware callers use
    /// [`PlanResults::outcome`]).
    pub fn suite(&self, label: &str, class: WorkloadClass) -> &[SimResult] {
        match self.outcome(label, class) {
            PointOutcome::Ok(results) => results,
            PointOutcome::Failed { site, msg } => {
                panic!("plan point `{label}` ({class}) failed at {site}: {msg}")
            }
        }
    }

    /// The outcome of one point.
    ///
    /// # Panics
    ///
    /// Panics if the plan declared no such point.
    pub fn outcome(&self, label: &str, class: WorkloadClass) -> &PointOutcome {
        self.points
            .iter()
            .position(|p| p.label == label && p.class == class)
            .map(|i| &self.outcomes[i])
            .unwrap_or_else(|| panic!("plan has no point `{label}` ({class})"))
    }

    /// Arithmetic-mean IPC of one point's suite.
    pub fn mean_ipc(&self, label: &str, class: WorkloadClass) -> f64 {
        SimResult::mean_ipc(self.suite(label, class))
    }

    /// The plan points, in order, paired with their results.
    ///
    /// # Panics
    ///
    /// Panics when iteration reaches a failed point; degraded-aware
    /// callers use [`PlanResults::iter_outcomes`].
    pub fn iter(&self) -> impl Iterator<Item = (&PlanPoint, &[SimResult])> {
        self.iter_outcomes().map(|(p, o)| match o {
            PointOutcome::Ok(results) => (p, results.as_slice()),
            PointOutcome::Failed { site, msg } => panic!(
                "plan point `{}` ({}) failed at {site}: {msg}",
                p.label, p.class
            ),
        })
    }

    /// The plan points, in order, paired with their outcomes.
    pub fn iter_outcomes(&self) -> impl Iterator<Item = (&PlanPoint, &PointOutcome)> {
        self.points.iter().zip(self.outcomes.iter())
    }

    /// The failed points, in plan order, as `(point, site, msg)`.
    pub fn failed(&self) -> Vec<(&PlanPoint, &str, &str)> {
        self.iter_outcomes()
            .filter_map(|(p, o)| match o {
                PointOutcome::Failed { site, msg } => Some((p, site.as_str(), msg.as_str())),
                PointOutcome::Ok(_) => None,
            })
            .collect()
    }

    /// Whether any point failed.
    pub fn is_degraded(&self) -> bool {
        self.outcomes.iter().any(PointOutcome::is_failed)
    }
}

/// Runs every point of a plan under `ctx` and returns the results,
/// batching points that share a workload class.
///
/// A plan's points all share `(commits, seed)` and the context's trace
/// roster, so the batch grouping key degenerates to the class: every
/// same-class point reuses one captured instruction stream through
/// [`run_points`]. Each point's [`PointKey`] is still consulted and
/// written back individually, so hit/miss accounting is per point.
///
/// `observe` is called once per class group, as soon as the group
/// completes, with the group's `(point, outcome)` pairs in plan order. A
/// class group completes at once, so this is the earliest any of its
/// outcomes exists; groups arrive in order of their class's first
/// appearance. The `elsq-lab serve` job runner journals each group once
/// and then streams its per-point progress events from this hook.
///
/// When the context carries a cancel flag, it is polled at every
/// class-group boundary (before any of the group's points run); a raised
/// flag stops the plan there and the returned results hold only the
/// points that ran, with [`PlanResults::cancelled`] naming the group it
/// skipped. A group in flight always runs to completion, which keeps
/// every cache write a whole-point write.
///
/// # Panics
///
/// Panics if two points share a `(label, class)` pair.
pub fn run_plan(
    ctx: &RunCtx,
    plan: &SweepPlan,
    params: &ExperimentParams,
    mut observe: impl FnMut(&[(&PlanPoint, &PointOutcome)]),
) -> PlanResults {
    plan.assert_unique_labels();
    let mut outcomes: Vec<Option<PointOutcome>> = vec![None; plan.points.len()];
    let mut cancelled = None;
    // Group same-class points in order of first appearance.
    let mut classes_in_order: Vec<WorkloadClass> = Vec::new();
    for p in &plan.points {
        if !classes_in_order.contains(&p.class) {
            classes_in_order.push(p.class);
        }
    }
    for class in classes_in_order {
        if ctx.is_cancelled() {
            cancelled = Some(format!("cancelled before the {class} group"));
            break;
        }
        let members: Vec<usize> = plan
            .points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.class == class)
            .map(|(i, _)| i)
            .collect();
        let labeled: Vec<(&str, CpuConfig)> = members
            .iter()
            .map(|&i| (plan.points[i].label.as_str(), plan.points[i].config))
            .collect();
        let finished: Vec<(usize, PointOutcome)> = members
            .into_iter()
            .zip(run_points(ctx, &labeled, class, params))
            .collect();
        let group: Vec<(&PlanPoint, &PointOutcome)> = finished
            .iter()
            .map(|(i, o)| (&plan.points[*i], o))
            .collect();
        observe(&group);
        for (i, outcome) in finished {
            outcomes[i] = Some(outcome);
        }
    }
    let (points, outcomes) = plan
        .points
        .iter()
        .zip(outcomes)
        .filter_map(|(p, o)| Some((p.clone(), o?)))
        .unzip();
    PlanResults {
        points,
        outcomes,
        cancelled,
    }
}

/// The `mean ±hw (n=W)` cell of a sampled suite, or `None` when the results
/// carry no sampling records (a full detailed run).
fn sampled_suite_ci(suite: &[SimResult]) -> Option<Cell> {
    let members: Vec<(f64, f64)> = suite
        .iter()
        .filter_map(|r| r.sampling.as_ref())
        .map(|s| (s.mean_ipc(), s.ci95_half_width()))
        .collect();
    if members.is_empty() {
        return None;
    }
    let windows: usize = suite
        .iter()
        .filter_map(|r| r.sampling.as_ref())
        .map(|s| s.window_count())
        .sum();
    let (mean, half) = combine_ci(&members);
    Some(Cell::ci(mean, half, windows))
}

/// Assembles the merged sweep report: one row per `(grid point, class)`,
/// with one column per axis plus the suite and its mean IPC.
///
/// Wall time is left at zero so a repeated (fully cached) sweep produces a
/// byte-identical report — the CI smoke step diffs exactly that. Shared by
/// `elsq-lab sweep` and the `elsq-lab serve` job runner, which is what
/// makes a server-produced report byte-identical to the offline sweep of
/// the same spec.
///
/// A *degraded* run renders its failed points as `FAILED (<site>)` in the
/// mean-IPC column instead of a number; runs where every point succeeded
/// produce byte-identical reports to before failure-awareness existed.
///
/// Under a sampling spec the mean-IPC column renders as `mean ±hw (n=W)`:
/// the suite's per-workload window means combined with a root-sum-square
/// half-width ([`combine_ci`]) and the total detailed-window count. Full
/// (unsampled) sweeps render exactly as before.
pub fn sweep_report(spec: &ScenarioSpec, plan: &SweepPlan, results: &PlanResults) -> Report {
    let mut headers: Vec<&str> = plan.axes.iter().map(String::as_str).collect();
    if headers.is_empty() {
        headers.push("base");
    }
    headers.push("suite");
    headers.push("mean IPC");
    let mut table = Table::new(
        format!("Scenario sweep: {} (base {})", spec.name, spec.base),
        &headers,
    );
    for (point, outcome) in results.iter_outcomes() {
        let mut cells: Vec<Cell> = if point.axes.is_empty() {
            vec![Cell::text(spec.base.clone())]
        } else {
            point
                .axes
                .iter()
                .map(|b| Cell::text(b.value.clone()))
                .collect()
        };
        cells.push(Cell::text(point.class.to_string()));
        cells.push(match outcome {
            PointOutcome::Ok(suite) => match sampled_suite_ci(suite) {
                Some(cell) => cell,
                None => Cell::f(SimResult::mean_ipc(suite)),
            },
            PointOutcome::Failed { site, .. } => Cell::text(format!("FAILED ({site})")),
        });
        table.row_cells(cells);
    }
    Report::new(
        format!("sweep-{}", spec.name),
        format!("Scenario sweep: {}", spec.name),
        spec.params,
    )
    .with_table(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(axes: Vec<Axis>) -> ScenarioSpec {
        ScenarioSpec {
            name: "demo".into(),
            base: "fmc-hash-sqm".into(),
            axes,
            classes: vec![WorkloadClass::Fp, WorkloadClass::Int],
            params: ExperimentParams {
                commits: 1_000,
                seed: 7,
                sample: None,
            },
        }
    }

    fn axis(name: &str, values: &[&str]) -> Axis {
        Axis {
            name: name.into(),
            values: values.iter().map(|v| (*v).to_owned()).collect(),
        }
    }

    #[test]
    fn named_configs_resolve_and_unknown_is_listed() {
        for name in BASE_CONFIGS {
            named_config(name).unwrap();
        }
        let err = named_config("bogus").unwrap_err();
        assert!(err.contains("fmc-hash-sqm"), "{err}");
    }

    #[test]
    fn expansion_is_odometer_ordered_with_classes_fastest() {
        let s = spec(vec![
            axis("rob", &["48", "64"]),
            axis("sqm", &["on", "off"]),
        ]);
        let plan = s.expand().unwrap();
        assert_eq!(plan.axes, vec!["rob", "sqm"]);
        assert_eq!(plan.len(), 2 * 2 * 2);
        let labels: Vec<(&str, WorkloadClass)> = plan
            .points
            .iter()
            .map(|p| (p.label.as_str(), p.class))
            .collect();
        assert_eq!(
            labels,
            vec![
                ("rob=48,sqm=on", WorkloadClass::Fp),
                ("rob=48,sqm=on", WorkloadClass::Int),
                ("rob=48,sqm=off", WorkloadClass::Fp),
                ("rob=48,sqm=off", WorkloadClass::Int),
                ("rob=64,sqm=on", WorkloadClass::Fp),
                ("rob=64,sqm=on", WorkloadClass::Int),
                ("rob=64,sqm=off", WorkloadClass::Fp),
                ("rob=64,sqm=off", WorkloadClass::Int),
            ]
        );
        let first = &plan.points[0];
        assert_eq!(first.config.rob_size, 48);
        assert!(matches!(first.config.lsq, LsqKind::Elsq(e) if e.sqm));
        let last = &plan.points[7];
        assert_eq!(last.config.rob_size, 64);
        assert!(matches!(last.config.lsq, LsqKind::Elsq(e) if !e.sqm));
    }

    #[test]
    fn axisless_spec_expands_to_the_base_alone() {
        let plan = spec(vec![]).expand().unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.points[0].label, "fmc-hash-sqm");
        assert!(plan.points[0].axes.is_empty());
    }

    #[test]
    fn expansion_rejects_malformed_specs() {
        assert!(spec(vec![axis("rob", &[])]).expand().is_err(), "empty axis");
        assert!(
            spec(vec![axis("", &["1"])]).expand().is_err(),
            "unnamed axis"
        );
        assert!(
            spec(vec![axis("rob", &["64"]), axis("rob", &["128"])])
                .expand()
                .is_err(),
            "duplicate axis"
        );
        assert!(
            spec(vec![axis("bogus", &["1"])]).expand().is_err(),
            "unknown axis"
        );
        assert!(
            spec(vec![axis("rob", &["abc"])]).expand().is_err(),
            "bad numeric value"
        );
        let mut no_classes = spec(vec![]);
        no_classes.classes.clear();
        assert!(no_classes.expand().is_err(), "no classes");
        let mut dup_classes = spec(vec![]);
        dup_classes.classes = vec![WorkloadClass::Fp, WorkloadClass::Fp];
        assert!(dup_classes.expand().is_err(), "duplicate class");
        let mut bad_base = spec(vec![]);
        bad_base.base = "bogus".into();
        assert!(bad_base.expand().is_err(), "unknown base");
        let mut zero = spec(vec![]);
        zero.params.commits = 0;
        assert!(zero.expand().is_err(), "zero commits");
    }

    #[test]
    fn axes_refining_the_lsq_demand_one() {
        let mut central = named_config("ooo64").unwrap();
        assert!(apply_axis(&mut central, "sqm", "on").is_err());
        assert!(apply_axis(&mut central, "ert", "line").is_err());
        assert!(apply_axis(&mut central, "epochs", "8").is_err());
        // ... and composing lsq=elsq first makes the ELSQ refinements valid.
        apply_axis(&mut central, "lsq", "elsq").unwrap();
        apply_axis(&mut central, "sqm", "on").unwrap();
        assert!(
            apply_axis(&mut central, "epochs", "8").is_err(),
            "epochs still needs an FMC"
        );
        let mut fmc = named_config("fmc-hash").unwrap();
        apply_axis(&mut fmc, "sqm", "on").unwrap();
        apply_axis(&mut fmc, "hash-bits", "12").unwrap();
        apply_axis(&mut fmc, "epochs", "8").unwrap();
        assert!(matches!(
            fmc.lsq,
            LsqKind::Elsq(e) if e.sqm && e.ert == ErtKind::Hash { bits: 12 } && e.num_epochs == 8
        ));
        assert_eq!(fmc.fmc.unwrap().num_engines, 8);
        // hash-bits on a line ERT is rejected.
        let mut line = named_config("fmc-line").unwrap();
        assert!(apply_axis(&mut line, "hash-bits", "12").is_err());
    }

    #[test]
    fn geometry_axes_change_the_hierarchy() {
        let mut cfg = named_config("fmc-hash-sqm").unwrap();
        apply_axis(&mut cfg, "l1kb", "64").unwrap();
        apply_axis(&mut cfg, "l1assoc", "8").unwrap();
        apply_axis(&mut cfg, "l2mb", "4").unwrap();
        assert_eq!(cfg.hierarchy.l1.size_bytes, 64 * 1024);
        assert_eq!(cfg.hierarchy.l1.assoc, 8);
        assert_eq!(cfg.hierarchy.l2.size_bytes, 4 * 1024 * 1024);
    }

    #[test]
    fn point_keys_separate_what_must_not_alias() {
        let params = ExperimentParams {
            commits: 1_000,
            seed: 7,
            sample: None,
        };
        let a = PointKey::current(CpuConfig::ooo64(), WorkloadClass::Fp, &params);
        assert_eq!(a.trace, None, "generator-source key");
        assert_eq!(
            RunCtx::new(1).point_key(CpuConfig::ooo64(), WorkloadClass::Fp, &params),
            a
        );
        let same = PointKey::current(CpuConfig::ooo64(), WorkloadClass::Fp, &params);
        assert_eq!(a.hash(), same.hash());
        let mut distinct = vec![a.clone()];
        distinct.push(PointKey {
            class: WorkloadClass::Int,
            ..a.clone()
        });
        distinct.push(PointKey {
            commits: 2_000,
            ..a.clone()
        });
        distinct.push(PointKey {
            seed: 8,
            ..a.clone()
        });
        distinct.push(PointKey {
            trace: Some(1),
            ..a.clone()
        });
        distinct.push(PointKey {
            config: CpuConfig::fmc_hash(true),
            ..a.clone()
        });
        distinct.push(PointKey {
            sample: Some(SamplingSpec::parse("1000:100:50").unwrap()),
            ..a.clone()
        });
        distinct.push(PointKey {
            sample: Some(SamplingSpec::parse("1000:100").unwrap()),
            ..a.clone()
        });
        let mut hashes: Vec<u64> = distinct.iter().map(PointKey::hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), distinct.len(), "cache keys aliased");
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn point_key_serde_omits_an_absent_sample() {
        let params = ExperimentParams {
            commits: 1_000,
            seed: 7,
            sample: None,
        };
        let full = PointKey::current(CpuConfig::ooo64(), WorkloadClass::Fp, &params);
        let value = full.to_value();
        match &value {
            serde::Value::Map(fields) => {
                assert!(
                    fields.iter().all(|(k, _)| k != "sample"),
                    "full-run keys must hash exactly as before sampling existed"
                );
                // `trace` keeps its historical always-present encoding.
                assert!(fields.iter().any(|(k, _)| k == "trace"));
            }
            other => panic!("expected a map, got {}", other.kind()),
        }
        // A legacy value (no sample key) decodes to sample: None ...
        assert_eq!(PointKey::from_value(&value).unwrap(), full);
        // ... and a sampled key round-trips with the key present.
        let sampled = PointKey {
            sample: Some(SamplingSpec::parse("2000:300:150").unwrap()),
            ..full
        };
        assert_eq!(PointKey::from_value(&sampled.to_value()).unwrap(), sampled);
    }

    #[test]
    fn scenario_spec_round_trips_through_json() {
        let s = spec(vec![axis("rob", &["48", "64"])]);
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.expand().unwrap(), s.expand().unwrap());
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn duplicate_plan_labels_panic() {
        let mut plan = SweepPlan::new("dup");
        plan.push("p", CpuConfig::ooo64(), WorkloadClass::Fp);
        plan.push("p", CpuConfig::ooo64(), WorkloadClass::Fp);
        plan.assert_unique_labels();
    }

    #[test]
    fn run_plan_returns_results_addressable_by_label() {
        let params = ExperimentParams {
            commits: 400,
            seed: 3,
            sample: None,
        };
        let mut plan = SweepPlan::new("mini");
        plan.push("base", CpuConfig::ooo64(), WorkloadClass::Fp);
        plan.push("fmc", CpuConfig::fmc_hash(true), WorkloadClass::Fp);
        let results = run_plan(&RunCtx::new(2), &plan, &params, |_| {});
        assert_eq!(results.suite("base", WorkloadClass::Fp).len(), 6);
        assert!(results.mean_ipc("fmc", WorkloadClass::Fp) > 0.0);
        assert_eq!(results.iter().count(), 2);
        assert_eq!(results.cancelled(), None);
    }

    #[test]
    fn the_observer_sees_each_class_group_once_in_plan_order() {
        let params = ExperimentParams {
            commits: 300,
            seed: 3,
            sample: None,
        };
        let mut plan = SweepPlan::new("groups");
        plan.push("a", CpuConfig::ooo64(), WorkloadClass::Fp);
        plan.push("a", CpuConfig::ooo64(), WorkloadClass::Int);
        plan.push("b", CpuConfig::ooo64(), WorkloadClass::Fp);
        let mut groups = Vec::new();
        run_plan(&RunCtx::new(2), &plan, &params, |group| {
            groups.push(
                group
                    .iter()
                    .map(|(p, o)| {
                        assert!(!o.is_failed());
                        format!("{}/{}", p.label, p.class)
                    })
                    .collect::<Vec<_>>(),
            );
        });
        let fp = WorkloadClass::Fp;
        let int = WorkloadClass::Int;
        assert_eq!(
            groups,
            [
                vec![format!("a/{fp}"), format!("b/{fp}")],
                vec![format!("a/{int}")]
            ]
        );
    }

    #[test]
    fn a_raised_cancel_flag_stops_the_plan_at_the_next_class_group() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let params = ExperimentParams {
            commits: 300,
            seed: 3,
            sample: None,
        };
        let mut plan = SweepPlan::new("cancel");
        plan.push("a", CpuConfig::ooo64(), WorkloadClass::Fp);
        plan.push("b", CpuConfig::ooo64(), WorkloadClass::Fp);
        plan.push("a", CpuConfig::ooo64(), WorkloadClass::Int);
        let flag = Arc::new(AtomicBool::new(false));
        let ctx = RunCtx {
            cancel: Some(Arc::clone(&flag)),
            ..RunCtx::new(2)
        };
        // Raised while the FP group runs: the group finishes, INT never starts.
        let results = run_plan(&ctx, &plan, &params, |_| flag.store(true, Ordering::SeqCst));
        let why = results.cancelled().expect("the plan was cancelled");
        assert!(why.contains(&WorkloadClass::Int.to_string()), "{why}");
        let ran: Vec<&str> = results.iter().map(|(p, _)| p.label.as_str()).collect();
        assert_eq!(ran, ["a", "b"]);
        // Raised before the plan starts: nothing runs.
        assert!(run_plan(&ctx, &plan, &params, |_| {})
            .iter()
            .next()
            .is_none());
    }
}
