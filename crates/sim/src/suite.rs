//! Scenario suites: declarative paper-trend assertions over [`Report`]s.
//!
//! A **suite file** (`suites/*.json`) names a target — a registered
//! experiment id or an inline [`ScenarioSpec`] — plus a list of typed
//! assertions over the report the target produces:
//!
//! * `monotone` — a column is non-increasing/non-decreasing along the
//!   selected rows (an axis of the figure),
//! * `ordering` — one row's cell relates (`ge`/`le`/`gt`/`lt`) to another
//!   row's cell in the same column ("SQM ≥ non-SQM on INT"),
//! * `tolerance` — the whole report matches a committed golden report under
//!   a relative tolerance,
//! * `bound` — every selected cell of a column lies within `[min, max]`
//!   ("FP speed-up ≤ 4x").
//!
//! Suites run through the same [`run_plan`] /
//! result-store path as sweeps and experiments, so repeated runs against a
//! cache are answered entirely from disk. Degraded `FAILED (<site>)` cells
//! are **loud**: an assertion touching one — or a report containing any —
//! marks the suite degraded, never a silent pass.
//!
//! The `elsq-lab test` verb discovers suite files, runs them, and renders
//! pass/fail per assertion like a test runner; `docs/SUITES.md` specifies
//! the file format at full detail. This module owns the data model, the
//! strict parser (unknown keys are errors — a typo must not weaken a
//! contract silently) and the four evaluators.

use std::path::Path;

use serde::{Deserialize, Serialize, Value};

use elsq_stats::diff::{degraded_cells, diff_reports};
use elsq_stats::report::{Cell, ExperimentParams, Report, Table};

use crate::driver::RunCtx;
use crate::experiments::{find, run_experiment};
use crate::scenario::{run_plan, sweep_report, ScenarioSpec};

/// What a suite runs to obtain its report.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteTarget {
    /// A registered experiment, by id (`fig7`, `table2`, ...).
    Experiment(String),
    /// An inline scenario, expanded and run exactly like `elsq-lab sweep
    /// --scenario`.
    Scenario(ScenarioSpec),
}

impl SuiteTarget {
    /// A short human-readable description (`fig7` / `scenario:<name>`).
    pub fn describe(&self) -> String {
        match self {
            Self::Experiment(id) => id.clone(),
            Self::Scenario(spec) => format!("scenario:{}", spec.name),
        }
    }
}

/// Monotonicity direction along the selected rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Each value is ≤ its predecessor (+ slack).
    NonIncreasing,
    /// Each value is ≥ its predecessor (− slack).
    NonDecreasing,
}

/// Ordering relation between two cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a ≥ b − slack`
    Ge,
    /// `a ≤ b + slack`
    Le,
    /// `a > b − slack`
    Gt,
    /// `a < b + slack`
    Lt,
}

impl Relation {
    fn symbol(self) -> &'static str {
        match self {
            Self::Ge => ">=",
            Self::Le => "<=",
            Self::Gt => ">",
            Self::Lt => "<",
        }
    }

    fn holds(self, a: f64, b: f64, slack: f64) -> bool {
        match self {
            Self::Ge => a >= b - slack,
            Self::Le => a <= b + slack,
            Self::Gt => a > b - slack,
            Self::Lt => a < b + slack,
        }
    }
}

/// Selects table rows by their leading cells: a row matches when its first
/// `prefix.len()` cells' texts equal the prefix. A one-element selector is
/// the common "row label" case (the first column of every report table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSel {
    /// The leading cell texts a row must start with.
    pub prefix: Vec<String>,
}

impl RowSel {
    fn matches(&self, row: &[Cell]) -> bool {
        self.prefix.len() <= row.len()
            && self
                .prefix
                .iter()
                .zip(row)
                .all(|(want, cell)| cell.text == *want)
    }

    fn describe(&self) -> String {
        self.prefix.join(" / ")
    }
}

/// One typed assertion over the target's report.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// `column` is monotone along the selected rows (table order, or the
    /// order the `rows` selectors are listed in).
    Monotone {
        /// Table selector (exact or unique-substring title match; `None`
        /// requires a single-table report).
        table: Option<String>,
        /// Column header, matched exactly.
        column: String,
        /// Required direction.
        direction: Direction,
        /// Row selection, in checked order; `None` = every row, top down.
        rows: Option<Vec<RowSel>>,
        /// Tolerated counter-movement between neighbours (cell units).
        slack: f64,
    },
    /// Row `a`'s cell relates to row `b`'s cell in `column`.
    Ordering {
        /// Table selector, as for `Monotone`.
        table: Option<String>,
        /// Column header, matched exactly.
        column: String,
        /// The left-hand row (must match exactly one row).
        a: RowSel,
        /// The right-hand row (must match exactly one row).
        b: RowSel,
        /// Required relation of `a` to `b`.
        relation: Relation,
        /// Slack loosening the relation (cell units).
        slack: f64,
    },
    /// The whole report matches a committed golden report under `tol`.
    Tolerance {
        /// Golden report path, resolved relative to the suite file.
        golden: String,
        /// Relative tolerance for numeric cells (0 = exact).
        tol: f64,
    },
    /// Every selected cell of `column` lies within `[min, max]`.
    Bound {
        /// Table selector, as for `Monotone`.
        table: Option<String>,
        /// Column header, matched exactly.
        column: String,
        /// Row selection; `None` = every row.
        rows: Option<Vec<RowSel>>,
        /// Inclusive lower bound, if any.
        min: Option<f64>,
        /// Inclusive upper bound, if any.
        max: Option<f64>,
    },
}

/// A named assertion of a suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteAssertion {
    /// The assertion's name, shown in the runner output and CI smoke greps.
    pub name: String,
    /// What it checks.
    pub check: Check,
}

/// A parsed suite file.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// Suite name (report headers, runner output).
    pub name: String,
    /// What to run.
    pub target: SuiteTarget,
    /// Parameter override; defaults to the experiment's preset (or the
    /// scenario's own `params`).
    pub params: Option<ExperimentParams>,
    /// The assertions, evaluated in order.
    pub assertions: Vec<SuiteAssertion>,
}

// ---------------------------------------------------------------------------
// Parsing (strict: unknown keys are errors)
// ---------------------------------------------------------------------------

fn entries<'a>(v: &'a Value, what: &str) -> Result<&'a [(String, Value)], String> {
    match v {
        Value::Map(entries) => Ok(entries),
        other => Err(format!(
            "{what} must be a JSON object, found {}",
            other.kind()
        )),
    }
}

fn check_keys(entries: &[(String, Value)], allowed: &[&str], what: &str) -> Result<(), String> {
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown key `{key}` in {what} (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn str_field(entries: &[(String, Value)], key: &str, what: &str) -> Result<String, String> {
    match entries.iter().find(|(k, _)| k == key) {
        Some((_, Value::Str(s))) => Ok(s.clone()),
        Some((_, other)) => Err(format!(
            "{what}.{key} must be a string, found {}",
            other.kind()
        )),
        None => Err(format!("{what} is missing required key `{key}`")),
    }
}

fn opt_str_field(
    entries: &[(String, Value)],
    key: &str,
    what: &str,
) -> Result<Option<String>, String> {
    match entries.iter().find(|(k, _)| k == key) {
        Some((_, Value::Str(s))) => Ok(Some(s.clone())),
        Some((_, other)) => Err(format!(
            "{what}.{key} must be a string, found {}",
            other.kind()
        )),
        None => Ok(None),
    }
}

fn num_field(entries: &[(String, Value)], key: &str, what: &str) -> Result<Option<f64>, String> {
    match entries.iter().find(|(k, _)| k == key) {
        Some((_, Value::F64(x))) => Ok(Some(*x)),
        Some((_, Value::U64(n))) => Ok(Some(*n as f64)),
        Some((_, Value::I64(n))) => Ok(Some(*n as f64)),
        Some((_, other)) => Err(format!(
            "{what}.{key} must be a number, found {}",
            other.kind()
        )),
        None => Ok(None),
    }
}

/// A row selector: `"label"` or `["cell", "cell", ...]` (leading cells).
fn row_sel(v: &Value, what: &str) -> Result<RowSel, String> {
    let prefix = match v {
        Value::Str(s) => vec![s.clone()],
        Value::Seq(items) => {
            let mut prefix = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Value::Str(s) => prefix.push(s.clone()),
                    other => {
                        return Err(format!(
                            "{what}: row selector entries must be strings, found {}",
                            other.kind()
                        ))
                    }
                }
            }
            prefix
        }
        other => {
            return Err(format!(
                "{what} must be a row selector (a string or a list of leading \
                 cell texts), found {}",
                other.kind()
            ))
        }
    };
    if prefix.is_empty() {
        return Err(format!("{what}: a row selector cannot be empty"));
    }
    Ok(RowSel { prefix })
}

fn opt_rows(
    entries: &[(String, Value)],
    key: &str,
    what: &str,
) -> Result<Option<Vec<RowSel>>, String> {
    let Some((_, v)) = entries.iter().find(|(k, _)| k == key) else {
        return Ok(None);
    };
    let Value::Seq(items) = v else {
        return Err(format!(
            "{what}.{key} must be a list of row selectors, found {}",
            v.kind()
        ));
    };
    if items.is_empty() {
        return Err(format!("{what}.{key} must not be an empty list"));
    }
    let sels = items
        .iter()
        .map(|item| row_sel(item, &format!("{what}.{key}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Some(sels))
}

fn parse_assertion(v: &Value, index: usize) -> Result<SuiteAssertion, String> {
    let what = format!("assertions[{index}]");
    let entries = entries(v, &what)?;
    let name = str_field(entries, "name", &what)?;
    let what = format!("assertion `{name}`");
    let kind = str_field(entries, "kind", &what)?;
    let check = match kind.as_str() {
        "monotone" => {
            check_keys(
                entries,
                &[
                    "name",
                    "kind",
                    "table",
                    "column",
                    "direction",
                    "rows",
                    "slack",
                ],
                &what,
            )?;
            let direction = match str_field(entries, "direction", &what)?.as_str() {
                "non-increasing" => Direction::NonIncreasing,
                "non-decreasing" => Direction::NonDecreasing,
                other => {
                    return Err(format!(
                        "{what}: unknown direction `{other}` (expected \
                         non-increasing or non-decreasing)"
                    ))
                }
            };
            Check::Monotone {
                table: opt_str_field(entries, "table", &what)?,
                column: str_field(entries, "column", &what)?,
                direction,
                rows: opt_rows(entries, "rows", &what)?,
                slack: num_field(entries, "slack", &what)?.unwrap_or(0.0),
            }
        }
        "ordering" => {
            check_keys(
                entries,
                &[
                    "name", "kind", "table", "column", "a", "b", "relation", "slack",
                ],
                &what,
            )?;
            let relation = match str_field(entries, "relation", &what)?.as_str() {
                "ge" => Relation::Ge,
                "le" => Relation::Le,
                "gt" => Relation::Gt,
                "lt" => Relation::Lt,
                other => {
                    return Err(format!(
                        "{what}: unknown relation `{other}` (expected ge, le, gt or lt)"
                    ))
                }
            };
            let sel = |key: &str| -> Result<RowSel, String> {
                let Some((_, v)) = entries.iter().find(|(k, _)| k == key) else {
                    return Err(format!("{what} is missing required key `{key}`"));
                };
                row_sel(v, &format!("{what}.{key}"))
            };
            Check::Ordering {
                table: opt_str_field(entries, "table", &what)?,
                column: str_field(entries, "column", &what)?,
                a: sel("a")?,
                b: sel("b")?,
                relation,
                slack: num_field(entries, "slack", &what)?.unwrap_or(0.0),
            }
        }
        "tolerance" => {
            check_keys(entries, &["name", "kind", "golden", "tol"], &what)?;
            let tol = num_field(entries, "tol", &what)?.unwrap_or(0.0);
            if !(tol.is_finite() && tol >= 0.0) {
                return Err(format!("{what}: tol must be a finite number >= 0"));
            }
            Check::Tolerance {
                golden: str_field(entries, "golden", &what)?,
                tol,
            }
        }
        "bound" => {
            check_keys(
                entries,
                &["name", "kind", "table", "column", "rows", "min", "max"],
                &what,
            )?;
            let min = num_field(entries, "min", &what)?;
            let max = num_field(entries, "max", &what)?;
            if min.is_none() && max.is_none() {
                return Err(format!("{what}: a bound needs `min`, `max` or both"));
            }
            Check::Bound {
                table: opt_str_field(entries, "table", &what)?,
                column: str_field(entries, "column", &what)?,
                rows: opt_rows(entries, "rows", &what)?,
                min,
                max,
            }
        }
        other => {
            return Err(format!(
                "{what}: unknown kind `{other}` (expected monotone, ordering, \
                 tolerance or bound)"
            ))
        }
    };
    Ok(SuiteAssertion { name, check })
}

impl Suite {
    /// Parses a suite from its JSON text. Every structural mistake — an
    /// unknown key, a missing field, both or neither of
    /// `experiment`/`scenario` — is a loud error: a typo in a suite file
    /// must weaken no contract silently.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        Self::from_value(&value)
    }

    /// Parses a suite from an already-decoded [`Value`] tree.
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let entries = entries(value, "a suite file")?;
        check_keys(
            entries,
            &["name", "experiment", "scenario", "params", "assertions"],
            "a suite file",
        )?;
        let name = str_field(entries, "name", "a suite file")?;
        let experiment = opt_str_field(entries, "experiment", "a suite file")?;
        let scenario = entries.iter().find(|(k, _)| k == "scenario");
        let target = match (experiment, scenario) {
            (Some(id), None) => SuiteTarget::Experiment(id),
            (None, Some((_, v))) => SuiteTarget::Scenario(
                ScenarioSpec::from_value(v).map_err(|e| format!("scenario: {e}"))?,
            ),
            (Some(_), Some(_)) => {
                return Err("a suite names either `experiment` or `scenario`, not both".into())
            }
            (None, None) => {
                return Err("a suite must name an `experiment` id or an inline `scenario`".into())
            }
        };
        let params = match entries.iter().find(|(k, _)| k == "params") {
            Some((_, v)) => Some(
                ExperimentParams::from_value(v)
                    .map_err(|e| format!("params: {e} (expected {{commits, seed}})"))?,
            ),
            None => None,
        };
        let Some((_, assertions_value)) = entries.iter().find(|(k, _)| k == "assertions") else {
            return Err("a suite file is missing required key `assertions`".into());
        };
        let Value::Seq(items) = assertions_value else {
            return Err(format!(
                "assertions must be a list, found {}",
                assertions_value.kind()
            ));
        };
        if items.is_empty() {
            return Err("a suite must declare at least one assertion".into());
        }
        let assertions = items
            .iter()
            .enumerate()
            .map(|(i, v)| parse_assertion(v, i))
            .collect::<Result<Vec<_>, _>>()?;
        let mut seen = std::collections::HashSet::new();
        for a in &assertions {
            if !seen.insert(a.name.as_str()) {
                return Err(format!("assertion name `{}` is declared twice", a.name));
            }
        }
        Ok(Self {
            name,
            target,
            params,
            assertions,
        })
    }

    /// The parameters this suite runs with: its override, or the target's
    /// own default (experiment preset / scenario `params`).
    pub fn effective_params(&self) -> Result<ExperimentParams, String> {
        if let Some(params) = self.params {
            return Ok(params);
        }
        match &self.target {
            SuiteTarget::Experiment(id) => find(id)
                .map(|e| e.default_params())
                .ok_or_else(|| format!("unknown experiment `{id}`")),
            SuiteTarget::Scenario(spec) => Ok(spec.params),
        }
    }

    /// Runs the suite's target under `ctx` — through the context's result
    /// cache, when it has one — and returns its report.
    pub fn run(&self, ctx: &RunCtx) -> Result<Report, String> {
        match &self.target {
            SuiteTarget::Experiment(id) => {
                let experiment = find(id).ok_or_else(|| {
                    format!(
                        "unknown experiment `{id}` (known: {})",
                        crate::experiments::registry()
                            .iter()
                            .map(|e| e.id())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?;
                let params = self.params.unwrap_or_else(|| experiment.default_params());
                Ok(run_experiment(ctx, experiment, &params))
            }
            SuiteTarget::Scenario(spec) => {
                let mut spec = spec.clone();
                if let Some(params) = self.params {
                    spec.params = params;
                }
                let plan = spec.expand()?;
                let results = run_plan(ctx, &plan, &spec.params, |_| {});
                Ok(sweep_report(&spec, &plan, &results))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// The verdict of one assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The assertion holds.
    Pass,
    /// The assertion was evaluated and does not hold (or could not be
    /// evaluated: missing table/column/row, a non-numeric or NaN cell).
    Fail,
    /// The assertion touched a degraded `FAILED (<site>)` cell; nothing
    /// about the trend can be concluded.
    Degraded,
}

impl Serialize for Status {
    fn to_value(&self) -> Value {
        Value::Str(
            match self {
                Self::Pass => "pass",
                Self::Fail => "fail",
                Self::Degraded => "degraded",
            }
            .to_owned(),
        )
    }
}

/// One evaluated assertion: its name, verdict and a human-readable detail
/// line (the witnessing values on success, the violation on failure).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CheckOutcome {
    /// The assertion's name.
    pub name: String,
    /// The verdict.
    pub status: Status,
    /// What happened, with the concrete cell values.
    pub detail: String,
}

/// The evaluated suite: every assertion's outcome plus the report-level
/// degraded-cell scan.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SuiteOutcome {
    /// Suite name (from the file).
    pub suite: String,
    /// Source file name, set by the runner (empty when evaluated directly).
    pub source: String,
    /// The target that produced the report (`fig7` / `scenario:<name>`).
    pub target: String,
    /// The parameters the report ran with.
    pub params: ExperimentParams,
    /// Degraded `FAILED (<site>)` cell locations anywhere in the report; a
    /// non-empty list marks the whole suite degraded even if no assertion
    /// touches those cells.
    pub degraded: Vec<String>,
    /// Per-assertion outcomes, in declaration order.
    pub checks: Vec<CheckOutcome>,
}

impl SuiteOutcome {
    /// The suite's aggregate verdict: degraded dominates fail dominates
    /// pass (matching the `elsq-lab test` exit codes 3 > 1 > 0).
    pub fn status(&self) -> Status {
        if !self.degraded.is_empty() || self.checks.iter().any(|c| c.status == Status::Degraded) {
            Status::Degraded
        } else if self.checks.iter().any(|c| c.status == Status::Fail) {
            Status::Fail
        } else {
            Status::Pass
        }
    }

    /// Number of passing assertions.
    pub fn passed(&self) -> usize {
        self.checks
            .iter()
            .filter(|c| c.status == Status::Pass)
            .count()
    }

    /// Number of failing assertions.
    pub fn failed(&self) -> usize {
        self.checks
            .iter()
            .filter(|c| c.status == Status::Fail)
            .count()
    }
}

/// Resolves a table selector: `None` requires a single-table report; a
/// name matches by exact title first, then by unique substring.
fn resolve_table<'a>(report: &'a Report, table: &Option<String>) -> Result<&'a Table, String> {
    let titles = || {
        report
            .tables
            .iter()
            .map(|t| format!("`{}`", t.title()))
            .collect::<Vec<_>>()
            .join(", ")
    };
    match table {
        None => match report.tables.as_slice() {
            [one] => Ok(one),
            [] => Err("the report has no tables".into()),
            _ => Err(format!(
                "the report has {} tables — name one with `table` (titles: {})",
                report.tables.len(),
                titles()
            )),
        },
        Some(name) => {
            if let Some(t) = report.tables.iter().find(|t| t.title() == name) {
                return Ok(t);
            }
            let matches: Vec<&Table> = report
                .tables
                .iter()
                .filter(|t| t.title().contains(name.as_str()))
                .collect();
            match matches.as_slice() {
                [one] => Ok(one),
                [] => Err(format!(
                    "no table titled (or containing) `{name}` (titles: {})",
                    titles()
                )),
                _ => Err(format!(
                    "table selector `{name}` is ambiguous (titles: {})",
                    titles()
                )),
            }
        }
    }
}

/// Resolves a column header to its index, exactly.
fn resolve_column(table: &Table, column: &str) -> Result<usize, String> {
    table
        .headers()
        .iter()
        .position(|h| h == column)
        .ok_or_else(|| {
            format!(
                "table `{}` has no column `{column}` (headers: {})",
                table.title(),
                table.headers().join(", ")
            )
        })
}

/// A row's display label: its leading text cells (up to the first numeric
/// cell), or its index when the row leads with numbers.
fn row_label(row: &[Cell], index: usize) -> String {
    let leading: Vec<&str> = row
        .iter()
        .take_while(|c| c.value.is_none() && !c.is_failed())
        .map(|c| c.text.as_str())
        .collect();
    if leading.is_empty() {
        format!("row {index}")
    } else {
        leading.join(" / ")
    }
}

/// Resolves a row selector to exactly one row index.
fn resolve_row(table: &Table, sel: &RowSel) -> Result<usize, String> {
    let matches: Vec<usize> = table
        .rows()
        .iter()
        .enumerate()
        .filter(|(_, row)| sel.matches(row))
        .map(|(i, _)| i)
        .collect();
    match matches.as_slice() {
        [one] => Ok(*one),
        [] => Err(format!(
            "no row of table `{}` matches `{}`",
            table.title(),
            sel.describe()
        )),
        many => Err(format!(
            "row selector `{}` matches {} rows of table `{}` — add more \
             leading cells to disambiguate",
            sel.describe(),
            many.len(),
            table.title()
        )),
    }
}

/// The selected `(label, cell)` pairs of a monotone/bound assertion, in
/// checked order.
fn selected_cells<'a>(
    table: &'a Table,
    col: usize,
    rows: &Option<Vec<RowSel>>,
) -> Result<Vec<(String, &'a Cell)>, String> {
    match rows {
        None => Ok(table
            .rows()
            .iter()
            .enumerate()
            .map(|(i, row)| (row_label(row, i), &row[col]))
            .collect()),
        Some(sels) => sels
            .iter()
            .map(|sel| {
                let i = resolve_row(table, sel)?;
                let row = &table.rows()[i];
                Ok((row_label(row, i), &row[col]))
            })
            .collect(),
    }
}

/// A cell's numeric value, or the reason it has none: degraded marker
/// (`Err(Status::Degraded)`-shaped) vs plain non-numeric/NaN.
fn cell_value(label: &str, column: &str, cell: &Cell) -> Result<f64, CheckOutcome> {
    let fail = |status: Status, detail: String| CheckOutcome {
        name: String::new(), // filled by the caller
        status,
        detail,
    };
    if cell.is_failed() {
        return Err(fail(
            Status::Degraded,
            format!("cell [{label}, {column}] is degraded: {}", cell.text),
        ));
    }
    match cell.num() {
        Some(v) if v.is_nan() => Err(fail(
            Status::Fail,
            format!("cell [{label}, {column}] is NaN — not comparable"),
        )),
        Some(v) => Ok(v),
        None => Err(fail(
            Status::Fail,
            format!("cell [{label}, {column}] is not numeric (`{}`)", cell.text),
        )),
    }
}

fn evaluate_check(check: &Check, report: &Report, golden_dir: &Path) -> CheckOutcome {
    let outcome = |status: Status, detail: String| CheckOutcome {
        name: String::new(),
        status,
        detail,
    };
    let fail = |detail: String| outcome(Status::Fail, detail);
    match check {
        Check::Monotone {
            table,
            column,
            direction,
            rows,
            slack,
        } => {
            let table = match resolve_table(report, table) {
                Ok(t) => t,
                Err(e) => return fail(e),
            };
            let col = match resolve_column(table, column) {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            let cells = match selected_cells(table, col, rows) {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            if cells.is_empty() {
                return fail(format!("table `{}` has no rows to check", table.title()));
            }
            let mut values = Vec::with_capacity(cells.len());
            for (label, cell) in &cells {
                match cell_value(label, column, cell) {
                    Ok(v) => values.push((label.clone(), v)),
                    Err(outcome) => return outcome,
                }
            }
            let word = match direction {
                Direction::NonIncreasing => "non-increasing",
                Direction::NonDecreasing => "non-decreasing",
            };
            let ok = |prev: f64, next: f64| match direction {
                Direction::NonIncreasing => next <= prev + slack,
                Direction::NonDecreasing => next >= prev - slack,
            };
            for pair in values.windows(2) {
                let (prev_label, prev) = &pair[0];
                let (next_label, next) = &pair[1];
                if !ok(*prev, *next) {
                    return fail(format!(
                        "`{column}` is not {word}: {prev_label} = {prev} then \
                         {next_label} = {next} (slack {slack})"
                    ));
                }
            }
            outcome(
                Status::Pass,
                format!(
                    "`{column}` is {word} over {} rows ({} .. {})",
                    values.len(),
                    values.first().map(|(_, v)| *v).unwrap_or(f64::NAN),
                    values.last().map(|(_, v)| *v).unwrap_or(f64::NAN),
                ),
            )
        }
        Check::Ordering {
            table,
            column,
            a,
            b,
            relation,
            slack,
        } => {
            let table = match resolve_table(report, table) {
                Ok(t) => t,
                Err(e) => return fail(e),
            };
            let col = match resolve_column(table, column) {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            let resolve = |sel: &RowSel| -> Result<(String, f64), CheckOutcome> {
                let i = resolve_row(table, sel).map_err(&fail)?;
                let row = &table.rows()[i];
                let label = row_label(row, i);
                let v = cell_value(&label, column, &row[col])?;
                Ok((label, v))
            };
            let (label_a, va) = match resolve(a) {
                Ok(v) => v,
                Err(outcome) => return outcome,
            };
            let (label_b, vb) = match resolve(b) {
                Ok(v) => v,
                Err(outcome) => return outcome,
            };
            let verdict = relation.holds(va, vb, *slack);
            let detail = format!(
                "`{column}`: {label_a} = {va} {} {label_b} = {vb}{}",
                relation.symbol(),
                if *slack > 0.0 {
                    format!(" (slack {slack})")
                } else {
                    String::new()
                }
            );
            if verdict {
                outcome(Status::Pass, detail)
            } else {
                fail(format!("{detail} does not hold"))
            }
        }
        Check::Tolerance { golden, tol } => {
            let path = golden_dir.join(golden);
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => return fail(format!("cannot read golden {}: {e}", path.display())),
            };
            let value: Value = match serde_json::from_str(&text) {
                Ok(v) => v,
                Err(e) => return fail(format!("cannot parse golden {}: {e}", path.display())),
            };
            let golden_report = match Report::from_value(&value) {
                Ok(r) => r,
                Err(e) => return fail(format!("golden {} is not a report: {e}", path.display())),
            };
            let golden_degraded = degraded_cells(&golden_report);
            if !golden_degraded.is_empty() {
                return outcome(
                    Status::Degraded,
                    format!(
                        "golden {} is itself degraded ({}); re-record it",
                        path.display(),
                        golden_degraded.join("; ")
                    ),
                );
            }
            let diff = diff_reports(
                std::slice::from_ref(report),
                std::slice::from_ref(&golden_report),
                *tol,
            );
            if diff.is_match() {
                outcome(
                    Status::Pass,
                    format!(
                        "matches {} ({} cells, tol {tol})",
                        path.display(),
                        diff.cells
                    ),
                )
            } else {
                fail(format!(
                    "differs from {} ({} mismatch(es)): {}",
                    path.display(),
                    diff.mismatches.len(),
                    diff.mismatches.join("; ")
                ))
            }
        }
        Check::Bound {
            table,
            column,
            rows,
            min,
            max,
        } => {
            let table = match resolve_table(report, table) {
                Ok(t) => t,
                Err(e) => return fail(e),
            };
            let col = match resolve_column(table, column) {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            let cells = match selected_cells(table, col, rows) {
                Ok(c) => c,
                Err(e) => return fail(e),
            };
            if cells.is_empty() {
                return fail(format!("table `{}` has no rows to check", table.title()));
            }
            let range = match (min, max) {
                (Some(lo), Some(hi)) => format!("[{lo}, {hi}]"),
                (Some(lo), None) => format!(">= {lo}"),
                (None, Some(hi)) => format!("<= {hi}"),
                (None, None) => unreachable!("parser requires min or max"),
            };
            for (label, cell) in &cells {
                let v = match cell_value(label, column, cell) {
                    Ok(v) => v,
                    Err(outcome) => return outcome,
                };
                if min.is_some_and(|lo| v < lo) || max.is_some_and(|hi| v > hi) {
                    return fail(format!("`{column}`: {label} = {v} is outside {range}"));
                }
            }
            outcome(
                Status::Pass,
                format!("`{column}` within {range} over {} rows", cells.len()),
            )
        }
    }
}

/// Evaluates every assertion of `suite` against `report`.
///
/// `golden_dir` resolves relative `tolerance` golden paths (the suite
/// file's directory). Degraded `FAILED (<site>)` cells anywhere in the
/// report mark the outcome degraded even when no assertion touches them —
/// a suite over a degraded report proves nothing.
pub fn evaluate(suite: &Suite, report: &Report, golden_dir: &Path) -> SuiteOutcome {
    let checks = suite
        .assertions
        .iter()
        .map(|a| {
            let mut outcome = evaluate_check(&a.check, report, golden_dir);
            outcome.name = a.name.clone();
            outcome
        })
        .collect();
    SuiteOutcome {
        suite: suite.name.clone(),
        source: String::new(),
        target: suite.target.describe(),
        params: report.params,
        degraded: degraded_cells(report),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsq_stats::report::ExperimentParams;

    fn table(values: &[(&str, f64)]) -> Table {
        let mut t = Table::new("demo", &["label", "x"]);
        for (label, v) in values {
            t.row_cells(vec![Cell::text(*label), Cell::f(*v)]);
        }
        t
    }

    fn report(values: &[(&str, f64)]) -> Report {
        Report::new("demo", "demo", ExperimentParams::quick()).with_table(table(values))
    }

    fn eval(check: Check, report: &Report) -> CheckOutcome {
        evaluate_check(&check, report, Path::new("."))
    }

    #[test]
    fn parses_a_minimal_experiment_suite() {
        let suite = Suite::from_json(
            r#"{
                "name": "fig7-trends",
                "experiment": "fig7",
                "params": {"commits": 4000, "seed": 3},
                "assertions": [
                    {"name": "sqm-helps-int", "kind": "ordering",
                     "column": "SPEC INT",
                     "a": "ELSQ hash ERT + SQM", "b": "ELSQ hash ERT",
                     "relation": "ge", "slack": 1e-6}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(suite.name, "fig7-trends");
        assert_eq!(suite.target, SuiteTarget::Experiment("fig7".into()));
        assert_eq!(
            suite.params,
            Some(ExperimentParams {
                commits: 4000,
                seed: 3,
                sample: None,
            })
        );
        assert_eq!(suite.assertions.len(), 1);
        assert_eq!(suite.effective_params().unwrap().commits, 4000);
    }

    #[test]
    fn parser_rejects_structural_mistakes_loudly() {
        let err = |json: &str| Suite::from_json(json).unwrap_err();
        // Unknown top-level key (typo'd `assertions`).
        assert!(
            err(r#"{"name": "x", "experiment": "fig7", "asertions": []}"#)
                .contains("unknown key `asertions`")
        );
        // Neither / both targets.
        assert!(err(r#"{"name": "x", "assertions": [1]}"#).contains("must name"));
        assert!(err(r#"{"name": "x", "experiment": "fig7",
                "scenario": {"name": "s", "base": "fmc-hash", "axes": [],
                             "classes": ["fp"], "params": {"commits": 1, "seed": 1}},
                "assertions": [1]}"#)
        .contains("not both"));
        // Empty assertion list.
        assert!(
            err(r#"{"name": "x", "experiment": "fig7", "assertions": []}"#)
                .contains("at least one assertion")
        );
        // Unknown assertion kind / direction / relation.
        let wrap = |inner: &str| {
            format!(r#"{{"name": "x", "experiment": "fig7", "assertions": [{inner}]}}"#)
        };
        assert!(Suite::from_json(&wrap(r#"{"name": "a", "kind": "bogus"}"#))
            .unwrap_err()
            .contains("unknown kind `bogus`"));
        assert!(Suite::from_json(&wrap(
            r#"{"name": "a", "kind": "monotone", "column": "x", "direction": "up"}"#
        ))
        .unwrap_err()
        .contains("unknown direction"));
        assert!(Suite::from_json(&wrap(
            r#"{"name": "a", "kind": "ordering", "column": "x", "a": "p", "b": "q",
                "relation": "=="}"#
        ))
        .unwrap_err()
        .contains("unknown relation"));
        // A bound without min or max asserts nothing.
        assert!(
            Suite::from_json(&wrap(r#"{"name": "a", "kind": "bound", "column": "x"}"#))
                .unwrap_err()
                .contains("needs `min`, `max` or both")
        );
        // Unknown key inside an assertion (typo'd `slack`).
        assert!(Suite::from_json(&wrap(
            r#"{"name": "a", "kind": "ordering", "column": "x", "a": "p", "b": "q",
                "relation": "ge", "slak": 0.1}"#
        ))
        .unwrap_err()
        .contains("unknown key `slak`"));
        // Duplicate assertion names would make runner output ambiguous.
        assert!(err(r#"{"name": "x", "experiment": "fig7", "assertions": [
                {"name": "a", "kind": "bound", "column": "x", "min": 0},
                {"name": "a", "kind": "bound", "column": "x", "max": 1}
            ]}"#)
        .contains("declared twice"));
    }

    #[test]
    fn monotone_holds_and_violations_name_the_pair() {
        let r = report(&[("a", 3.0), ("b", 2.0), ("c", 2.0), ("d", 1.0)]);
        let check = |direction| Check::Monotone {
            table: None,
            column: "x".into(),
            direction,
            rows: None,
            slack: 0.0,
        };
        assert_eq!(
            eval(check(Direction::NonIncreasing), &r).status,
            Status::Pass
        );
        let out = eval(check(Direction::NonDecreasing), &r);
        assert_eq!(out.status, Status::Fail);
        assert!(out.detail.contains("a = 3 then b = 2"), "{}", out.detail);
    }

    #[test]
    fn monotone_row_selection_controls_order() {
        let r = report(&[("a", 1.0), ("b", 2.0), ("c", 3.0)]);
        let rows = |labels: &[&str]| {
            Some(
                labels
                    .iter()
                    .map(|l| RowSel {
                        prefix: vec![(*l).to_owned()],
                    })
                    .collect(),
            )
        };
        // Reversed row order flips the passing direction.
        let reversed = Check::Monotone {
            table: None,
            column: "x".into(),
            direction: Direction::NonIncreasing,
            rows: rows(&["c", "b", "a"]),
            slack: 0.0,
        };
        assert_eq!(eval(reversed, &r).status, Status::Pass);
        let forward = Check::Monotone {
            table: None,
            column: "x".into(),
            direction: Direction::NonIncreasing,
            rows: rows(&["a", "b", "c"]),
            slack: 0.0,
        };
        assert_eq!(eval(forward, &r).status, Status::Fail);
        // A single selected row is trivially monotone both ways.
        for direction in [Direction::NonIncreasing, Direction::NonDecreasing] {
            let single = Check::Monotone {
                table: None,
                column: "x".into(),
                direction,
                rows: rows(&["b"]),
                slack: 0.0,
            };
            assert_eq!(eval(single, &r).status, Status::Pass);
        }
    }

    #[test]
    fn monotone_slack_absorbs_small_counter_movement() {
        let r = report(&[("a", 1.0), ("b", 0.96)]);
        let with_slack = |slack| Check::Monotone {
            table: None,
            column: "x".into(),
            direction: Direction::NonDecreasing,
            rows: None,
            slack,
        };
        assert_eq!(eval(with_slack(0.05), &r).status, Status::Pass);
        assert_eq!(eval(with_slack(0.01), &r).status, Status::Fail);
    }

    #[test]
    fn ordering_relations_and_boundary_slack() {
        let r = report(&[("p", 1.0), ("q", 1.0)]);
        let check = |relation, slack| Check::Ordering {
            table: None,
            column: "x".into(),
            a: RowSel {
                prefix: vec!["p".into()],
            },
            b: RowSel {
                prefix: vec!["q".into()],
            },
            relation,
            slack,
        };
        // Equal values: ge/le hold exactly, gt/lt do not...
        assert_eq!(eval(check(Relation::Ge, 0.0), &r).status, Status::Pass);
        assert_eq!(eval(check(Relation::Le, 0.0), &r).status, Status::Pass);
        assert_eq!(eval(check(Relation::Gt, 0.0), &r).status, Status::Fail);
        assert_eq!(eval(check(Relation::Lt, 0.0), &r).status, Status::Fail);
        // ...unless a strictly positive slack opens the boundary.
        assert_eq!(eval(check(Relation::Gt, 1e-9), &r).status, Status::Pass);
    }

    #[test]
    fn bound_is_inclusive_at_both_edges() {
        let r = report(&[("a", 1.0), ("b", 2.0)]);
        let bound = |min, max| Check::Bound {
            table: None,
            column: "x".into(),
            rows: None,
            min,
            max,
        };
        assert_eq!(eval(bound(Some(1.0), Some(2.0)), &r).status, Status::Pass);
        let out = eval(bound(Some(1.5), None), &r);
        assert_eq!(out.status, Status::Fail);
        assert!(out.detail.contains("a = 1"), "{}", out.detail);
        let out = eval(bound(None, Some(1.5)), &r);
        assert_eq!(out.status, Status::Fail);
        assert!(out.detail.contains("b = 2"), "{}", out.detail);
    }

    #[test]
    fn nan_and_non_numeric_cells_fail_loudly() {
        let mut t = Table::new("demo", &["label", "x"]);
        t.row_cells(vec![Cell::text("a"), Cell::new("nan", f64::NAN)]);
        let r = Report::new("demo", "demo", ExperimentParams::quick()).with_table(t);
        let out = eval(
            Check::Bound {
                table: None,
                column: "x".into(),
                rows: None,
                min: Some(0.0),
                max: None,
            },
            &r,
        );
        assert_eq!(out.status, Status::Fail);
        assert!(out.detail.contains("NaN"), "{}", out.detail);
        // A text cell in a numeric column is a loud failure, not a skip.
        let r = Report::new("demo", "demo", ExperimentParams::quick()).with_table({
            let mut t = Table::new("demo", &["label", "x"]);
            t.row_cells(vec![Cell::text("a"), Cell::text("n/a")]);
            t
        });
        let out = eval(
            Check::Monotone {
                table: None,
                column: "x".into(),
                direction: Direction::NonDecreasing,
                rows: None,
                slack: 0.0,
            },
            &r,
        );
        assert_eq!(out.status, Status::Fail);
        assert!(out.detail.contains("not numeric"), "{}", out.detail);
    }

    #[test]
    fn degraded_cells_degrade_touching_assertions_and_the_suite() {
        let mut t = Table::new("demo", &["label", "x"]);
        t.row_cells(vec![Cell::text("a"), Cell::text("FAILED (lsq)")]);
        t.row_cells(vec![Cell::text("b"), Cell::f(1.0)]);
        let r = Report::new("demo", "demo", ExperimentParams::quick()).with_table(t);
        let out = eval(
            Check::Bound {
                table: None,
                column: "x".into(),
                rows: None,
                min: Some(0.0),
                max: None,
            },
            &r,
        );
        assert_eq!(out.status, Status::Degraded);
        assert!(out.detail.contains("FAILED (lsq)"), "{}", out.detail);
        // Even an assertion that avoids the failed cell leaves the suite
        // degraded through the report-level scan.
        let suite = Suite::from_json(
            r#"{"name": "x", "experiment": "fig7", "assertions": [
                {"name": "b-only", "kind": "bound", "column": "x",
                 "rows": ["b"], "min": 0}
            ]}"#,
        )
        .unwrap();
        let outcome = evaluate(&suite, &r, Path::new("."));
        assert_eq!(outcome.checks[0].status, Status::Pass);
        assert!(!outcome.degraded.is_empty());
        assert_eq!(outcome.status(), Status::Degraded);
    }

    #[test]
    fn selector_errors_are_loud_and_name_candidates() {
        let r = report(&[("a", 1.0)]);
        let out = eval(
            Check::Bound {
                table: Some("nonexistent".into()),
                column: "x".into(),
                rows: None,
                min: Some(0.0),
                max: None,
            },
            &r,
        );
        assert_eq!(out.status, Status::Fail);
        assert!(out.detail.contains("no table"), "{}", out.detail);
        let out = eval(
            Check::Bound {
                table: None,
                column: "bogus".into(),
                rows: None,
                min: Some(0.0),
                max: None,
            },
            &r,
        );
        assert_eq!(out.status, Status::Fail);
        assert!(out.detail.contains("no column `bogus`"), "{}", out.detail);
        let out = eval(
            Check::Ordering {
                table: None,
                column: "x".into(),
                a: RowSel {
                    prefix: vec!["missing".into()],
                },
                b: RowSel {
                    prefix: vec!["a".into()],
                },
                relation: Relation::Ge,
                slack: 0.0,
            },
            &r,
        );
        assert_eq!(out.status, Status::Fail);
        assert!(out.detail.contains("no row"), "{}", out.detail);
        // An ambiguous selector (two rows share the label) is an error,
        // never a silent first-match.
        let dup = report(&[("a", 1.0), ("a", 2.0)]);
        let out = eval(
            Check::Ordering {
                table: None,
                column: "x".into(),
                a: RowSel {
                    prefix: vec!["a".into()],
                },
                b: RowSel {
                    prefix: vec!["a".into()],
                },
                relation: Relation::Ge,
                slack: 0.0,
            },
            &dup,
        );
        assert_eq!(out.status, Status::Fail);
        assert!(out.detail.contains("matches 2 rows"), "{}", out.detail);
    }

    #[test]
    fn tolerance_matches_and_boundary_is_inclusive() {
        let dir = std::env::temp_dir().join(format!(
            "elsq-suite-tol-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let golden = report(&[("a", 1.0)]);
        std::fs::write(
            dir.join("golden.json"),
            serde_json::to_string_pretty(&golden).unwrap(),
        )
        .unwrap();
        let check = |tol| Check::Tolerance {
            golden: "golden.json".into(),
            tol,
        };
        // Identical report matches at tol 0.
        let out = evaluate_check(&check(0.0), &golden, &dir);
        assert_eq!(out.status, Status::Pass, "{}", out.detail);
        // 1.0 vs 2.0 differs by exactly rel 0.5; the boundary tolerance
        // equal to the relative difference is inclusive.
        let moved = report(&[("a", 2.0)]);
        assert_eq!(
            evaluate_check(&check(0.5), &moved, &dir).status,
            Status::Pass
        );
        let out = evaluate_check(&check(0.49), &moved, &dir);
        assert_eq!(out.status, Status::Fail);
        assert!(out.detail.contains("mismatch"), "{}", out.detail);
        // A missing golden is a loud failure.
        let out = evaluate_check(
            &Check::Tolerance {
                golden: "absent.json".into(),
                tol: 0.0,
            },
            &golden,
            &dir,
        );
        assert_eq!(out.status, Status::Fail);
        assert!(out.detail.contains("cannot read"), "{}", out.detail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suite_outcome_aggregates_and_serializes() {
        let r = report(&[("a", 1.0), ("b", 2.0)]);
        let suite = Suite::from_json(
            r#"{"name": "agg", "experiment": "fig7", "assertions": [
                {"name": "ok", "kind": "bound", "column": "x", "min": 0},
                {"name": "bad", "kind": "bound", "column": "x", "max": 1.5}
            ]}"#,
        )
        .unwrap();
        let outcome = evaluate(&suite, &r, Path::new("."));
        assert_eq!(outcome.status(), Status::Fail);
        assert_eq!((outcome.passed(), outcome.failed()), (1, 1));
        let json = serde_json::to_string(&outcome).unwrap();
        assert!(json.contains("\"status\":\"fail\""), "{json}");
        assert!(json.contains("\"suite\":\"agg\""), "{json}");
    }

    #[test]
    fn scenario_suites_run_through_the_sweep_path() {
        let suite = Suite::from_json(
            r#"{
                "name": "rob-tiny",
                "scenario": {
                    "name": "rob-tiny",
                    "base": "fmc-hash",
                    "axes": [{"name": "rob", "values": ["48", "64"]}],
                    "classes": ["fp"],
                    "params": {"commits": 300, "seed": 5}
                },
                "assertions": [
                    {"name": "ipc-positive", "kind": "bound",
                     "column": "mean IPC", "min": 0.01}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(suite.effective_params().unwrap().commits, 300);
        let report = suite.run(&RunCtx::new(2)).unwrap();
        assert_eq!(report.id, "sweep-rob-tiny");
        let outcome = evaluate(&suite, &report, Path::new("."));
        assert_eq!(outcome.status(), Status::Pass, "{:?}", outcome.checks);
        assert_eq!(outcome.target, "scenario:rob-tiny");
    }

    #[test]
    fn unknown_experiment_target_fails_at_run_time() {
        let suite = Suite::from_json(
            r#"{"name": "x", "experiment": "bogus", "assertions": [
                {"name": "a", "kind": "bound", "column": "x", "min": 0}
            ]}"#,
        )
        .unwrap();
        let err = suite.run(&RunCtx::new(2)).unwrap_err();
        assert!(err.contains("unknown experiment `bogus`"), "{err}");
        assert!(err.contains("fig7"), "{err}");
    }
}
