//! Structured experiment reports: tables, cells and run parameters.
//!
//! Every experiment produces a [`Report`] — a titled collection of
//! [`Table`]s plus the [`ExperimentParams`] it ran with — which renders as
//! aligned plain text, RFC-4180 CSV, or (via `serde`) JSON. Table cells are
//! [`Cell`]s that keep the raw `f64` value alongside the formatted string,
//! so machine consumers can diff figures at full precision while the text
//! output stays aligned with the numbers recorded in `docs/EXPERIMENTS.md`.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::sampling::SamplingSpec;

/// Parameters shared by every experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentParams {
    /// Committed instructions simulated per workload. Under a sampling
    /// spec this is the *total* instruction budget per workload
    /// (fast-forward + warm-up + detailed windows).
    pub commits: u64,
    /// Seed for the workload generators.
    pub seed: u64,
    /// Systematic-sampling specification; `None` runs the full detailed
    /// cycle loop over every instruction.
    pub sample: Option<SamplingSpec>,
}

// Hand-written (not derived) so the `sample` key is *omitted* when absent:
// the canonical hash does not drop explicit nulls, and every pre-sampling
// report/cache hash must stay byte-identical for full (unsampled) runs.
impl Serialize for ExperimentParams {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("commits".to_owned(), self.commits.to_value()),
            ("seed".to_owned(), self.seed.to_value()),
        ];
        if let Some(sample) = &self.sample {
            fields.push(("sample".to_owned(), sample.to_value()));
        }
        serde::Value::Map(fields)
    }
}

impl Deserialize for ExperimentParams {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let commits = u64::from_value(serde::map_field(value, "commits")?)?;
        let seed = u64::from_value(serde::map_field(value, "seed")?)?;
        let sample = match value {
            serde::Value::Map(_) => match value.get("sample") {
                Some(v) => Option::<SamplingSpec>::from_value(v)?,
                None => None,
            },
            other => return Err(serde::Error::expected("map", other)),
        };
        Ok(Self {
            commits,
            seed,
            sample,
        })
    }
}

impl ExperimentParams {
    /// A quick configuration for unit tests, doc examples and `--quick` CLI
    /// runs.
    pub fn quick() -> Self {
        Self {
            commits: 5_000,
            seed: 7,
            sample: None,
        }
    }

    /// The default configuration used by the figure-regeneration
    /// experiments: large enough for stable averages, small enough to finish
    /// in seconds per configuration.
    pub fn standard() -> Self {
        Self {
            commits: 60_000,
            seed: 7,
            sample: None,
        }
    }

    /// A reduced configuration for the wider parameter sweeps.
    pub fn sweep() -> Self {
        Self {
            commits: 30_000,
            seed: 7,
            sample: None,
        }
    }
}

impl Default for ExperimentParams {
    fn default() -> Self {
        Self::standard()
    }
}

/// One table cell: a formatted string plus, for numeric cells, the raw
/// value it was formatted from.
///
/// # Example
///
/// ```
/// use elsq_stats::report::Cell;
///
/// let c = Cell::f(1.2345);
/// assert_eq!(c.text, "1.234");
/// assert_eq!(c.value, Some(1.2345));
/// assert_eq!(Cell::text("scheme").value, None);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// The formatted string shown in text/CSV output.
    pub text: String,
    /// The raw value for numeric cells, preserved at full precision.
    pub value: Option<f64>,
}

impl Cell {
    /// A plain text cell (labels, configuration names).
    pub fn text(text: impl Into<String>) -> Self {
        Self {
            text: text.into(),
            value: None,
        }
    }

    /// A float cell formatted with [`fmt_f`] (3 decimals, the paper's figure
    /// precision).
    pub fn f(value: f64) -> Self {
        Self {
            text: fmt_f(value),
            value: Some(value),
        }
    }

    /// A count cell formatted in millions with [`fmt_millions`] (Table 2
    /// unit). The raw value keeps the same millions scale as the text.
    pub fn millions(count: u64) -> Self {
        Self {
            text: fmt_millions(count),
            value: Some(count as f64 / 1.0e6),
        }
    }

    /// An integer cell.
    pub fn int(value: u64) -> Self {
        Self {
            text: value.to_string(),
            value: Some(value as f64),
        }
    }

    /// A cell with an explicit text/value pair (custom formatting).
    pub fn new(text: impl Into<String>, value: f64) -> Self {
        Self {
            text: text.into(),
            value: Some(value),
        }
    }

    /// A sampled-estimate cell: mean ± 95% confidence half-width with the
    /// window count, e.g. `1.234 ±0.012 (n=24)`. The raw value is the mean
    /// so figure diffing and suite bounds keep working on sampled columns.
    pub fn ci(mean: f64, half_width: f64, windows: usize) -> Self {
        Self {
            text: format!("{} ±{} (n={windows})", fmt_f(mean), fmt_f(half_width)),
            value: Some(mean),
        }
    }

    /// The raw value of a numeric cell, falling back to parsing the text.
    pub fn num(&self) -> Option<f64> {
        self.value.or_else(|| self.text.parse().ok())
    }

    /// Whether this cell is a degraded `FAILED (<site>)` marker — the text
    /// a sweep report renders for a grid point whose simulation failed.
    /// Such a cell carries no number and must never silently satisfy (or
    /// match) an assertion on the column's data.
    pub fn is_failed(&self) -> bool {
        self.value.is_none() && self.text.starts_with("FAILED (")
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl PartialEq<str> for Cell {
    fn eq(&self, other: &str) -> bool {
        self.text == other
    }
}

impl PartialEq<&str> for Cell {
    fn eq(&self, other: &&str) -> bool {
        self.text == *other
    }
}

/// A simple column-aligned table.
///
/// # Example
///
/// ```
/// use elsq_stats::report::{Cell, Table};
///
/// let mut t = Table::new("Speed-up over OoO-64", &["scheme", "SPEC INT", "SPEC FP"]);
/// t.row_cells(vec![Cell::text("Central LSQ"), Cell::f(1.19), Cell::f(2.08)]);
/// t.row(&["ELSQ hash + SQM", "1.19", "2.10"]);
/// let text = t.render();
/// assert!(text.contains("Central LSQ"));
/// let csv = t.to_csv();
/// assert!(csv.starts_with("scheme,SPEC INT,SPEC FP"));
/// assert_eq!(t.rows()[0][1].value, Some(1.19));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of plain text cells.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the number of headers.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        self.row_cells(cells.iter().map(|s| Cell::text(*s)).collect())
    }

    /// Appends a row of already-owned text cells (e.g. formatted numbers
    /// without raw values).
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the number of headers.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        self.row_cells(cells.into_iter().map(Cell::text).collect())
    }

    /// Appends a row of [`Cell`]s, the value-preserving form experiments use.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the number of headers.
    pub fn row_cells(&mut self, cells: Vec<Cell>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells but table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Access to the raw rows (for assertions in tests and figure diffing).
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.text.len() > widths[i] {
                    widths[i] = cell.text.len();
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[&str], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line.push('\n');
            line
        };
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        out.push_str(&fmt_row(&headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<&str> = row.iter().map(|c| c.text.as_str()).collect();
            out.push_str(&fmt_row(&cells, &widths));
        }
        out
    }

    /// Renders the table as RFC-4180 CSV: headers first, comma separated;
    /// cells containing commas, quotes or line breaks are quoted and inner
    /// quotes doubled.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let encode_row = |cells: &[&str]| -> String {
            cells
                .iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(",")
        };
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        out.push_str(&encode_row(&headers));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<&str> = row.iter().map(|c| c.text.as_str()).collect();
            out.push_str(&encode_row(&cells));
            out.push('\n');
        }
        out
    }
}

/// Quotes a CSV cell per RFC 4180 when it contains a comma, a double quote
/// or a line break; passes it through unchanged otherwise.
fn csv_escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_owned()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The structured result of running one experiment: identification, the
/// parameters used, every table produced, and the wall-clock time spent.
///
/// Serializes via `serde` to JSON for machine-readable figure diffing; the
/// per-cell raw values survive the round trip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Stable experiment identifier (`fig7`, `table2`, ...).
    pub id: String,
    /// Human-readable experiment title.
    pub title: String,
    /// The parameters the experiment ran with.
    pub params: ExperimentParams,
    /// Every table the experiment produced, in presentation order.
    pub tables: Vec<Table>,
    /// Wall-clock time of the run in milliseconds (not deterministic; 0.0
    /// when reports are compared for figure diffing).
    pub wall_time_ms: f64,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>, params: ExperimentParams) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            params,
            tables: Vec::new(),
            wall_time_ms: 0.0,
        }
    }

    /// Appends a table.
    pub fn push_table(&mut self, table: Table) -> &mut Self {
        self.tables.push(table);
        self
    }

    /// Builder-style: appends a table.
    pub fn with_table(mut self, table: Table) -> Self {
        self.tables.push(table);
        self
    }

    /// Renders the report header plus every table as plain text.
    pub fn render(&self) -> String {
        let sample = match &self.params.sample {
            Some(spec) => format!(", sample={spec}"),
            None => String::new(),
        };
        let mut out = format!(
            "# {} — {} (commits={}, seed={}{sample})\n",
            self.id, self.title, self.params.commits, self.params.seed
        );
        for table in &self.tables {
            out.push('\n');
            out.push_str(&table.render());
        }
        out
    }

    /// Renders every table as CSV, each preceded by a `# title` comment line
    /// and separated by blank lines.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for (i, table) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&format!("# {}\n", table.title()));
            out.push_str(&table.to_csv());
        }
        out
    }

    /// Clears the wall-clock measurement (for byte-exact report diffing).
    pub fn without_wall_time(mut self) -> Self {
        self.wall_time_ms = 0.0;
        self
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Formats a float with 3 significant decimals, the precision used in the
/// paper's figures.
pub fn fmt_f(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a count in millions with 3 decimals (Table 2 unit).
pub fn fmt_millions(x: u64) -> String {
    format!("{:.3}", x as f64 / 1.0e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns_and_includes_all_cells() {
        let mut t = Table::new("demo", &["a", "long header", "c"]);
        t.row(&["1", "2", "3"]);
        t.row(&["wide cell", "x", "y"]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("wide cell"));
        assert!(s.contains("long header"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_output() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(&["1", "2"]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    fn csv_quotes_special_cells_per_rfc_4180() {
        let mut t = Table::new("demo", &["name", "note"]);
        t.row(&["a,b", "he said \"hi\""]);
        t.row(&["line\nbreak", "plain"]);
        assert_eq!(
            t.to_csv(),
            "name,note\n\"a,b\",\"he said \"\"hi\"\"\"\n\"line\nbreak\",plain\n"
        );
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_panics() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(&["only one"]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_f(1.2345), "1.234");
        assert_eq!(fmt_millions(27_006_000), "27.006");
    }

    #[test]
    fn display_matches_render() {
        let mut t = Table::new("d", &["h"]);
        t.row(&["v"]);
        assert_eq!(format!("{t}"), t.render());
    }

    #[test]
    fn cells_preserve_raw_values() {
        let mut t = Table::new("d", &["a", "b", "c"]);
        t.row_cells(vec![Cell::f(2.0), Cell::millions(1_000_000), Cell::int(7)]);
        let row = &t.rows()[0];
        assert_eq!(row[0], "2.000");
        assert_eq!(row[0].value, Some(2.0));
        assert_eq!(row[1].text, "1.000");
        assert_eq!(row[1].value, Some(1.0));
        assert_eq!(row[2].num(), Some(7.0));
        // Text-only cells fall back to parsing.
        assert_eq!(Cell::text("1.5").num(), Some(1.5));
        assert_eq!(Cell::text("n/a").num(), None);
    }

    #[test]
    fn failed_markers_are_detected_and_numbers_are_not() {
        assert!(Cell::text("FAILED (lsq-alloc)").is_failed());
        assert!(!Cell::text("scheme").is_failed());
        assert!(!Cell::f(1.0).is_failed());
        // A numeric cell whose *text* happens to start with the marker is
        // still a number (it carries a raw value), not a failure.
        assert!(!Cell::new("FAILED (never-rendered-like-this)", 1.0).is_failed());
    }

    #[test]
    fn row_owned_accepts_formatted_cells() {
        let mut t = Table::new("d", &["a", "b"]);
        t.row_owned(vec![fmt_f(2.0), fmt_millions(1_000_000)]);
        assert_eq!(t.rows()[0][0], "2.000");
        assert_eq!(t.rows()[0][1], "1.000");
        // Ownership conversion loses the raw value by construction.
        assert_eq!(t.rows()[0][0].value, None);
    }

    #[test]
    fn experiment_params_presets_are_ordered_by_cost() {
        assert!(ExperimentParams::quick().commits <= ExperimentParams::sweep().commits);
        assert!(ExperimentParams::sweep().commits <= ExperimentParams::standard().commits);
        assert_eq!(ExperimentParams::default(), ExperimentParams::standard());
    }

    #[test]
    fn report_renders_header_tables_and_csv() {
        let mut table = Table::new("t1", &["x"]);
        table.row_cells(vec![Cell::f(0.5)]);
        let report = Report::new("fig0", "demo figure", ExperimentParams::quick())
            .with_table(table.clone())
            .with_table(table);
        let text = report.render();
        assert!(text.starts_with("# fig0 — demo figure (commits=5000, seed=7)"));
        assert_eq!(text.matches("== t1 ==").count(), 2);
        let csv = report.to_csv();
        assert_eq!(csv.matches("# t1\n").count(), 2);
        assert!(csv.contains("x\n0.500\n"));
    }

    #[test]
    fn ci_cells_render_mean_half_width_and_count() {
        let c = Cell::ci(1.2345, 0.0123, 24);
        assert_eq!(c.text, "1.234 ±0.012 (n=24)");
        assert_eq!(c.value, Some(1.2345));
        assert!(!c.is_failed());
    }

    #[test]
    fn params_serde_omits_an_absent_sample() {
        use crate::sampling::SamplingSpec;
        let full = ExperimentParams::quick();
        let json = serde_json::to_string(&full).unwrap();
        assert!(!json.contains("sample"), "{json}");
        let back: ExperimentParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, full);
        // ... so pre-sampling JSON (no `sample` key) still decodes ...
        let legacy: ExperimentParams =
            serde_json::from_str("{\"commits\": 5000, \"seed\": 7}").unwrap();
        assert_eq!(legacy, full);
        // ... while sampled params round-trip with the key present.
        let sampled = ExperimentParams {
            sample: Some(SamplingSpec::parse("1000:100:50").unwrap()),
            ..full
        };
        let json = serde_json::to_string(&sampled).unwrap();
        assert!(json.contains("sample"), "{json}");
        let back: ExperimentParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sampled);
    }

    #[test]
    fn sampled_report_headers_name_the_spec() {
        use crate::sampling::SamplingSpec;
        let params = ExperimentParams {
            sample: Some(SamplingSpec::parse("1000:100").unwrap()),
            ..ExperimentParams::quick()
        };
        let r = Report::new("s", "sampled", params);
        assert!(r.render().contains("sample=1000:100:0"), "{}", r.render());
        let full = Report::new("f", "full", ExperimentParams::quick());
        assert!(!full.render().contains("sample"));
    }

    #[test]
    fn report_wall_time_can_be_cleared() {
        let mut r = Report::new("a", "b", ExperimentParams::quick());
        r.wall_time_ms = 12.5;
        assert_eq!(r.without_wall_time().wall_time_ms, 0.0);
    }
}
