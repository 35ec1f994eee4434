//! The metric table: names, units, directions and bounds, read from
//! `BENCHMARK.json` at the repository root, its one source.

use std::path::Path;

use serde::Value;

pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

pub struct Spec {
    /// Reported by every workload's untraced run.
    pub end_to_end: Vec<Metric>,
    /// Reported by every workload's traced run (0 where the workload does
    /// not exercise the layer).
    pub per_layer: Vec<Metric>,
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<Metric>, String> {
    let Some(Value::Seq(entries)) = doc.get(key) else {
        return Err(format!("no `{key}` list"));
    };
    entries
        .iter()
        .map(|m| {
            let text = |k: &str| match m.get(k) {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("a `{key}` entry has no `{k}`")),
            };
            let bound = match m.get("bound") {
                Some(Value::F64(x)) => Some(*x),
                Some(Value::U64(x)) => Some(*x as f64),
                _ => None,
            };
            Ok(Metric {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound,
            })
        })
        .collect()
}

impl Spec {
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = serde_json::parse_value(&text)
            .map_err(|e| format!("{} does not parse: {e}", path.display()))?;
        Ok(Self {
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// A metric of either list.
    pub fn find(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}
