//! The `elsq-lab diff` subcommand: cell-by-cell report comparison.
//!
//! Loads two JSON files produced by `elsq-lab run --format json` (either a
//! single [`Report`] from `--out DIR` or the JSON array stdout emits) and
//! compares them with [`elsq_stats::diff`]: report ids and parameters,
//! table titles, headers, row counts, and every cell. Numeric cells compare
//! by their raw values under a `--tol` *relative* tolerance (default `0`,
//! i.e. exact); text cells compare byte-for-byte. Wall-clock time is
//! ignored — it is the one non-deterministic field.
//!
//! A report containing degraded `FAILED (<site>)` cells is refused loudly
//! (exit code 3) before any comparison: two failure markers matching
//! byte-for-byte says nothing about the figures they replaced.
//!
//! A mismatch produces a non-zero exit with one line per differing cell, so
//! figure accuracy is regression-trackable from CI:
//!
//! ```text
//! elsq-lab run fig7 --quick --format json --out a/
//! elsq-lab diff a/fig7.json b/fig7.json --tol 0.01
//! ```

use serde::Deserialize;

use elsq_stats::report::Report;

pub use elsq_stats::diff::{cells_match, degraded_cells, diff_reports, rel_diff, DiffOutcome};

/// Parses report JSON that is either a single report or an array of them.
pub fn parse_reports(json: &str) -> Result<Vec<Report>, String> {
    let value: serde::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    let parsed = match &value {
        serde::Value::Seq(items) => items
            .iter()
            .map(Report::from_value)
            .collect::<Result<Vec<_>, _>>(),
        _ => Report::from_value(&value).map(|r| vec![r]),
    };
    parsed.map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsq_stats::report::{Cell, ExperimentParams, Table};

    fn report(id: &str, v: f64) -> Report {
        let mut t = Table::new("t", &["name", "x"]);
        t.row_cells(vec![Cell::text("row"), Cell::f(v)]);
        Report::new(id, "title", ExperimentParams::quick()).with_table(t)
    }

    #[test]
    fn parse_accepts_single_and_array_forms() {
        let single = serde_json::to_string(&report("fig7", 1.0)).unwrap();
        assert_eq!(parse_reports(&single).unwrap().len(), 1);
        let array = serde_json::to_string(&vec![report("a", 1.0), report("b", 2.0)]).unwrap();
        assert_eq!(parse_reports(&array).unwrap().len(), 2);
        assert!(parse_reports("not json").is_err());
    }

    #[test]
    fn reexported_comparison_round_trips_through_json() {
        // The comparison core lives in elsq_stats::diff; pin that the
        // re-export composes with this crate's JSON loading.
        let a = parse_reports(&serde_json::to_string(&report("fig7", 1.25)).unwrap()).unwrap();
        let b = parse_reports(&serde_json::to_string(&report("fig7", 1.5)).unwrap()).unwrap();
        assert!(diff_reports(&a, &a, 0.0).is_match());
        assert!(!diff_reports(&a, &b, 0.1).is_match());
        assert!(diff_reports(&a, &b, 0.25).is_match());
    }
}
