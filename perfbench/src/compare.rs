//! `perfbench compare DIR_A DIR_B`: compares two sets of untraced runs
//! (A/A, or parent/change run in alternating order) workload by workload.
//!
//! For every metric it prints each side's median and quartiles, B's win
//! share over the pairs (runs paired by seed, else by order) and a
//! verdict:
//!
//! * `unresolved` when either side's spread (interquartile range over
//!   median) exceeds the metric's bound, unless every B run beats (or
//!   loses to) every A run, which makes it `better` (or `worse`);
//! * `better` when B wins at least nine tenths of the pairs and the
//!   medians differ by more than A's interquartile range;
//! * `worse` when B's median is worse than A's by more than the bound;
//! * `unchanged` otherwise.
//!
//! Deterministic counters of runs at the same seed are compared exactly.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::spec::Spec;
use crate::stats::{median, quartiles, relative_spread};

/// Bound for metrics that `BENCHMARK.json` does not gate (the hit/miss
/// split, tails, raw rates, error rate).
const DEFAULT_BOUND: f64 = 0.1;

struct Run {
    workload: String,
    seed: u64,
    metrics: BTreeMap<String, f64>,
    counters: BTreeMap<String, u64>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v = serde_json::parse_value(&text)
            .map_err(|e| format!("{} is not a run record: {e}", path.display()))?;
        if v.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| format!("{}: no `{k}`", path.display()))
        };
        let workload = match field("workload")? {
            Value::Str(s) => s.clone(),
            _ => return Err(format!("{}: bad workload", path.display())),
        };
        let seed = number(field("seed")?).unwrap_or(0.0) as u64;
        let mut metrics = BTreeMap::new();
        if let Value::Map(entries) = field("metrics")? {
            for (name, m) in entries {
                if let Some(x) = m.get("value").and_then(number) {
                    metrics.insert(name.clone(), x);
                }
            }
        }
        let mut counters = BTreeMap::new();
        if let Value::Map(entries) = field("counters")? {
            for (name, c) in entries {
                if let Value::U64(x) = c {
                    counters.insert(name.clone(), *x);
                }
            }
        }
        runs.push(Run {
            workload,
            seed,
            metrics,
            counters,
        });
    }
    Ok(runs)
}

/// Direction and bound of a metric: from `BENCHMARK.json`, else by name.
fn direction(spec: &Spec, name: &str) -> (bool, f64) {
    let metric = spec.find(name);
    let bound = metric.and_then(|m| m.bound).unwrap_or(DEFAULT_BOUND);
    let higher = metric.map_or_else(
        || name.ends_with("_per_s") || name == "repetitions",
        |m| m.higher_is_better,
    );
    (higher, bound)
}

/// Pairs A and B values: by seed where both sides ran it, else by order.
fn pairs(a: &[(u64, f64)], b: &[(u64, f64)]) -> Vec<(f64, f64)> {
    let by_seed: Vec<(f64, f64)> = a
        .iter()
        .filter_map(|(s, x)| b.iter().find(|(t, _)| t == s).map(|(_, y)| (*x, *y)))
        .collect();
    if by_seed.len() == a.len().min(b.len()) {
        by_seed
    } else {
        a.iter().zip(b).map(|((_, x), (_, y))| (*x, *y)).collect()
    }
}

pub fn verdict(
    a: &[f64],
    b: &[f64],
    paired: &[(f64, f64)],
    higher: bool,
    bound: f64,
) -> &'static str {
    let better = |x: f64, y: f64| if higher { y > x } else { y < x };
    let (ma, mb) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let wins = paired.iter().filter(|(x, y)| better(*x, *y)).count();
    let all_better = a.iter().all(|x| b.iter().all(|y| better(*x, *y)));
    let all_worse = a.iter().all(|x| b.iter().all(|y| better(*y, *x)));
    let worse_by = if ma == 0.0 {
        0.0
    } else if higher {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    if relative_spread(a).max(relative_spread(b)) > bound {
        return if all_better {
            "better"
        } else if all_worse {
            "worse"
        } else {
            "unresolved"
        };
    }
    let n = paired.len().max(1) as f64;
    if wins as f64 >= 0.9 * n && (mb - ma).abs() > q3 - q1 {
        "better"
    } else if worse_by > bound {
        "worse"
    } else {
        "unchanged"
    }
}

pub fn main(spec: &Spec, args: &[String]) -> i32 {
    let [dir_a, dir_b] = args else {
        eprintln!("usage: perfbench compare DIR_A DIR_B (directories of run records)");
        return 2;
    };
    let (a, b) = match (load(Path::new(dir_a)), load(Path::new(dir_b))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut counter_mismatch = false;
    for workload in workloads {
        let ra: Vec<&Run> = a.iter().filter(|r| r.workload == workload).collect();
        let rb: Vec<&Run> = b.iter().filter(|r| r.workload == workload).collect();
        if rb.is_empty() {
            continue;
        }
        println!("{workload}: {} run(s) in A, {} in B", ra.len(), rb.len());
        println!(
            "  {:<28} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}   {:>5}  verdict",
            "metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "B win"
        );
        let mut names: Vec<&String> = ra[0].metrics.keys().collect();
        names.sort_by_key(|n| {
            (
                spec.end_to_end
                    .iter()
                    .position(|m| &m.name == *n)
                    .unwrap_or(usize::MAX),
                (*n).clone(),
            )
        });
        for name in names {
            let side = |runs: &[&Run]| -> Vec<(u64, f64)> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(name).map(|x| (r.seed, *x)))
                    .collect()
            };
            let (sa, sb) = (side(&ra), side(&rb));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let va: Vec<f64> = sa.iter().map(|p| p.1).collect();
            let vb: Vec<f64> = sb.iter().map(|p| p.1).collect();
            let paired = pairs(&sa, &sb);
            let (higher, bound) = direction(spec, name);
            let wins = paired
                .iter()
                .filter(|(x, y)| if higher { y > x } else { y < x })
                .count();
            let (a1, a3) = quartiles(&va);
            let (b1, b3) = quartiles(&vb);
            println!(
                "  {:<28} {:>12.4} {:>12.4} {:>12.4}   {:>12.4} {:>12.4} {:>12.4}   {:>4.0}%  {}",
                name,
                a1,
                median(&va),
                a3,
                b1,
                median(&vb),
                b3,
                100.0 * wins as f64 / paired.len().max(1) as f64,
                verdict(&va, &vb, &paired, higher, bound)
            );
        }
        for run_a in &ra {
            for run_b in rb.iter().filter(|r| r.seed == run_a.seed) {
                let differ: Vec<&String> = run_a
                    .counters
                    .keys()
                    .chain(run_b.counters.keys())
                    .filter(|k| run_a.counters.get(*k) != run_b.counters.get(*k))
                    .collect();
                if differ.is_empty() {
                    continue;
                }
                counter_mismatch = true;
                println!(
                    "  counters differ at seed {}: {}",
                    run_a.seed,
                    differ
                        .iter()
                        .map(|s| s.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                );
            }
        }
    }
    if counter_mismatch {
        println!(
            "deterministic counters differ between A and B (expected only when the code differs)"
        );
    } else {
        println!("deterministic counters: identical at every shared seed");
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let faster: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let paired: Vec<(f64, f64)> = a.iter().copied().zip(faster.iter().copied()).collect();
        assert_eq!(verdict(&a, &faster, &paired, true, 0.1), "better");
        let slower: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let paired: Vec<(f64, f64)> = a.iter().copied().zip(slower.iter().copied()).collect();
        assert_eq!(verdict(&a, &slower, &paired, true, 0.1), "worse");
        let paired: Vec<(f64, f64)> = a.iter().copied().zip(a.iter().copied()).collect();
        assert_eq!(verdict(&a, &a, &paired, true, 0.1), "unchanged");
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        let paired: Vec<(f64, f64)> = a.iter().copied().zip(noisy.iter().copied()).collect();
        assert_eq!(verdict(&a, &noisy, &paired, true, 0.1), "unresolved");
    }
}
