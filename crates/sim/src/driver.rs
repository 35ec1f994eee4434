//! Runs processor configurations over workload suites, under an explicit
//! [`RunCtx`].
//!
//! A [`RunCtx`] says where a run's workloads come from (the generators, or
//! a recorded [`TraceRoster`] of `.etrc` files), which
//! [`crate::store::ResultStore`] answers points before they are simulated,
//! and how many worker threads each fan-out level may use. The CLI builds
//! one per invocation and the `elsq-lab serve` daemon one per process; it
//! is passed down explicitly, so two contexts can run side by side in one
//! process.
//!
//! [`run_points`] is the one way a point reaches the simulator. It takes a
//! batch of configurations over one workload class: every point's
//! [`PointKey`] is looked up in the context's cache first (hits skip
//! simulation), then the class's correct-path streams are captured once
//! into [`SharedStream`]s and every missing point's pipelines read them
//! through private cursors. Workload generation (or `.etrc` decoding) is
//! paid once per batch instead of once per point, and a single point is
//! simply a batch of one. Results come back in input order and are
//! byte-identical to running each point alone, at any worker count — see
//! `docs/PERFORMANCE.md` for the batching model.
//!
//! The key includes the fingerprint of the context's trace roster, so
//! generator runs and replays never alias in a shared store.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use elsq_cpu::config::CpuConfig;
use elsq_cpu::pipeline::Processor;
use elsq_cpu::result::SimResult;
use elsq_isa::{SharedStream, TraceSource};
use elsq_stats::canon::canonical_hash;
use elsq_workload::suite::{suite, TraceRoster, WorkloadClass};

pub use elsq_stats::report::ExperimentParams;

use crate::fault;
use crate::pool::{max_threads, parallel_map_with, try_parallel_map_with};
use crate::scenario::{PointKey, PointOutcome};
use crate::store::ResultStore;

/// Fault site name of the "panic at point N" / "stall at point N" hook:
/// fired once per *fresh* (cache-miss) point, in plan order.
const POINT_SIM_SITE: &str = "point.sim";

/// Everything a run needs besides its points and parameters: the workload
/// source, the result cache and the worker budget.
#[derive(Clone)]
pub struct RunCtx {
    /// Recorded traces to replay instead of the generators (`None` runs
    /// the generators).
    pub source: Option<Arc<TraceRoster>>,
    /// Result store consulted before simulating and written back after
    /// (`None` simulates every point).
    pub cache: Option<Arc<ResultStore>>,
    /// Worker threads per fan-out level (experiments, suite capture and
    /// simulation jobs each get this many); 1 is exactly sequential.
    pub workers: usize,
    /// Cooperative cancel flag, polled by [`crate::scenario::run_plan`]
    /// at every class-group boundary (the serve drain path).
    pub cancel: Option<Arc<AtomicBool>>,
}

impl RunCtx {
    /// Generators, no cache, no cancel flag, `workers` threads per level.
    pub fn new(workers: usize) -> Self {
        Self {
            source: None,
            cache: None,
            workers: workers.max(1),
            cancel: None,
        }
    }

    /// [`RunCtx::new`] with the default worker count: `ELSQ_THREADS` if
    /// set, otherwise the machine's available parallelism.
    pub fn from_env() -> Self {
        Self::new(max_threads())
    }

    /// Canonical fingerprint of the context's trace roster — the `trace`
    /// component of every [`PointKey`] it mints (`None` for generators).
    ///
    /// The fingerprint hashes what determines the replayed streams
    /// (per-member name, format version, seed, suite slot, instruction
    /// count and wrong-path spec) and deliberately excludes file paths, so
    /// the same dump cached from two directories shares results while a
    /// different dump never aliases a generator run.
    pub fn trace_fingerprint(&self) -> Option<u64> {
        self.source.as_deref().map(roster_fingerprint)
    }

    /// The cache key of `(config, class)` under `params` and this
    /// context's workload source.
    pub fn point_key(
        &self,
        config: CpuConfig,
        class: WorkloadClass,
        params: &ExperimentParams,
    ) -> PointKey {
        PointKey {
            trace: self.trace_fingerprint(),
            ..PointKey::current(config, class, params)
        }
    }

    /// Whether the cancel flag is raised.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }
}

fn roster_fingerprint(roster: &TraceRoster) -> u64 {
    use serde::Value;
    let mut members = Vec::new();
    for class in CLASSES {
        for entry in roster.members(class) {
            let meta = &entry.meta;
            let wrong_path = match &meta.wrong_path {
                Some(wp) => Value::Map(vec![
                    ("seed".to_owned(), Value::U64(wp.seed)),
                    ("region_base".to_owned(), Value::U64(wp.region_base)),
                    ("region_size".to_owned(), Value::U64(wp.region_size)),
                    ("load_rate".to_owned(), Value::F64(wp.load_rate)),
                ]),
                None => Value::Null,
            };
            members.push(Value::Map(vec![
                ("class".to_owned(), Value::Str(class.key().to_owned())),
                ("name".to_owned(), Value::Str(meta.name.clone())),
                ("version".to_owned(), Value::U64(u64::from(meta.version))),
                ("seed".to_owned(), Value::U64(meta.seed)),
                (
                    "slot".to_owned(),
                    meta.suite_index
                        .map_or(Value::Null, |i| Value::U64(u64::from(i))),
                ),
                ("insts".to_owned(), Value::U64(entry.insts)),
                ("wrong_path".to_owned(), wrong_path),
            ]));
        }
    }
    canonical_hash(&Value::Seq(members))
}

/// Performs the armed `point.sim` fault inside a pool worker, so the
/// pool's `catch_unwind` isolation is what contains it.
fn trigger_point_fault(injected: &Option<fault::Injected>) {
    if let Some(injected) = injected {
        match &injected.action {
            fault::FaultAction::Panic { msg } => {
                panic!("{}", fault::panic_payload(POINT_SIM_SITE, msg))
            }
            fault::FaultAction::Stall { ms } => {
                std::thread::sleep(std::time::Duration::from_millis(*ms))
            }
            // Validation restricts point.sim to Panic/Stall.
            _ => {}
        }
    }
}

/// Runs one pipeline instance over one workload under `params` — the single
/// seam where a sampling spec switches the detailed cycle loop
/// ([`Processor::run`]) for SMARTS-style systematic sampling
/// ([`Processor::run_sampled`]).
fn simulate(
    config: CpuConfig,
    workload: &mut dyn TraceSource,
    params: &ExperimentParams,
) -> SimResult {
    match params.sample {
        Some(spec) => Processor::new(config).run_sampled(workload, params.commits, spec),
        None => Processor::new(config).run(workload, params.commits),
    }
}

/// The suite a run simulates: the context's recorded streams, or the
/// generators.
///
/// # Panics
///
/// Panics if the roster cannot stand in for `suite(class, params.seed)`
/// over `params.commits` commits (wrong seed, short or missing traces).
/// `elsq-lab` validates rosters up front and reports the same message as
/// a clean CLI error instead.
fn build_suite(
    ctx: &RunCtx,
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Vec<Box<dyn TraceSource>> {
    match &ctx.source {
        Some(roster) => roster
            .validate(class, params.seed, params.commits)
            .and_then(|()| roster.suite(class))
            .unwrap_or_else(|e| panic!("trace roster cannot replace the {class} suite: {e}")),
        None => suite(class, params.seed),
    }
}

/// Captures the `class` suite — from the context's source, exactly as
/// [`run_points`] would — into read-only [`SharedStream`]s of up to
/// `params.commits` correct-path instructions each, in suite order.
///
/// A sampled run (`params.sample`) reads only the warm-up and window
/// positions of each period, so its capture is sparse: it holds exactly
/// the spec's `read_ranges` and skips the source over the rest (for a
/// checkpointed `.etrc` replay, without decoding the skipped blocks).
/// Cursors over it must only be driven by [`Processor::run_sampled`] under
/// the same spec and budget.
///
/// This is the setup half of [`run_points`], exposed so callers that time
/// simulation can capture outside the measured window and drive pipelines
/// off cursors alone. The repository's own speed measurement is the
/// end-to-end benchmark described in `perfbench/README.md`.
///
/// # Panics
///
/// Panics if the context's roster cannot stand in for the suite.
pub fn capture_class_suite(
    ctx: &RunCtx,
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Vec<Arc<SharedStream>> {
    parallel_map_with(
        build_suite(ctx, class, params),
        |mut workload| {
            let source = workload.as_mut();
            Arc::new(match params.sample {
                Some(spec) => SharedStream::capture_ranges(
                    source,
                    params.commits,
                    spec.read_ranges(params.commits),
                ),
                None => SharedStream::capture(source, params.commits),
            })
        },
        ctx.workers,
    )
}

/// Runs a batch of labelled configurations over one workload class and
/// returns one [`PointOutcome`] per point, in input order.
///
/// With a cache in the context, every point's [`PointKey`] is looked up
/// first: hits return the stored results without simulating (byte-identical
/// to a fresh run — `SimResult` JSON round trips losslessly), and fresh
/// points are written back under their label (recorded in the store's
/// manifest so a cache directory stays auditable; it plays no part in the
/// key). Only misses reach the capture and the worker pool, where every
/// `(point, workload)` pair is its own job so wide batches keep all workers
/// busy.
///
/// A point whose simulation jobs panic (contained per job by the pool) or
/// whose write-back fails comes back [`PointOutcome::Failed`], naming the
/// site; every other point of the batch still completes and caches.
///
/// # Panics
///
/// Panics on a corrupt cache *lookup* — that is store-wide damage, not a
/// per-point failure, and degrading it would mask it — and when the
/// context's roster cannot stand in for the suite.
pub fn run_points(
    ctx: &RunCtx,
    points: &[(&str, CpuConfig)],
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Vec<PointOutcome> {
    let keys: Vec<Option<PointKey>> = points
        .iter()
        .map(|(_, config)| {
            ctx.cache
                .as_ref()
                .map(|_| ctx.point_key(*config, class, params))
        })
        .collect();
    let mut out: Vec<Option<PointOutcome>> = vec![None; points.len()];
    let mut misses: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        match (&ctx.cache, key) {
            (Some(store), Some(key)) => match store.lookup(key) {
                Ok(Some(results)) => out[i] = Some(PointOutcome::Ok(results)),
                Ok(None) => misses.push(i),
                Err(e) => panic!("result cache lookup failed: {e}"),
            },
            _ => misses.push(i),
        }
    }
    if !misses.is_empty() {
        let streams = capture_class_suite(ctx, class, params);
        // The point.sim fault site counts fresh points here, on the
        // calling thread in input order — deterministic regardless of how
        // the jobs interleave across workers.
        let dooms: Vec<Option<fault::Injected>> =
            misses.iter().map(|_| fault::fire(POINT_SIM_SITE)).collect();
        let dooms = &dooms;
        let jobs: Vec<(usize, usize, CpuConfig, Arc<SharedStream>)> = misses
            .iter()
            .enumerate()
            .flat_map(|(mi, &i)| {
                let config = points[i].1;
                streams
                    .iter()
                    .enumerate()
                    .map(move |(si, s)| (mi, si, config, Arc::clone(s)))
            })
            .collect();
        let attempts = try_parallel_map_with(
            jobs,
            |(mi, si, config, stream)| {
                if si == 0 {
                    trigger_point_fault(&dooms[mi]);
                }
                simulate(config, &mut stream.cursor(), params)
            },
            ctx.workers,
        );
        for (&i, attempts) in misses.iter().zip(attempts.chunks(streams.len())) {
            let outcome = match attempts.iter().cloned().collect::<Result<Vec<_>, _>>() {
                Err(msg) => PointOutcome::from_panic(&msg),
                Ok(results) => match (&ctx.cache, &keys[i]) {
                    (Some(store), Some(key)) => match store.insert(key, points[i].0, &results) {
                        Ok(_) => PointOutcome::Ok(results),
                        Err(e) => PointOutcome::Failed {
                            site: "store.write".to_owned(),
                            msg: format!("result cache write-back failed: {e}"),
                        },
                    },
                    _ => PointOutcome::Ok(results),
                },
            };
            out[i] = Some(outcome);
        }
    }
    out.into_iter()
        .map(|r| r.expect("every point resolved"))
        .collect()
}

/// Both suites in the order the paper's figures plot them (INT first in some
/// figures, FP first in others; the experiments pick what they need).
pub const CLASSES: [WorkloadClass; 2] = [WorkloadClass::Int, WorkloadClass::Fp];

#[cfg(test)]
mod tests {
    use super::*;

    fn one(
        ctx: &RunCtx,
        config: CpuConfig,
        class: WorkloadClass,
        params: &ExperimentParams,
    ) -> Vec<SimResult> {
        run_points(ctx, &[("", config)], class, params)
            .remove(0)
            .unwrap()
    }

    #[test]
    fn run_suite_produces_one_result_per_workload() {
        let results = one(
            &RunCtx::new(2),
            CpuConfig::ooo64(),
            WorkloadClass::Fp,
            &ExperimentParams::quick(),
        );
        assert_eq!(results.len(), 6);
        for r in &results {
            assert!(r.sim.committed > 0);
            assert!(r.ipc() > 0.0);
        }
    }

    #[test]
    fn mean_ipc_is_positive_and_bounded() {
        let ipc = SimResult::mean_ipc(&one(
            &RunCtx::new(2),
            CpuConfig::ooo64(),
            WorkloadClass::Int,
            &ExperimentParams::quick(),
        ));
        assert!(ipc > 0.0 && ipc <= 4.0);
    }

    #[test]
    fn batched_suite_matches_per_point_runs() {
        // Shared-stream fan-out must be invisible in the results, for both
        // classes and across different configs in one batch.
        let params = ExperimentParams {
            commits: 1_500,
            seed: 7,
            sample: None,
        };
        let ctx = RunCtx::new(2);
        let points = [
            ("a", CpuConfig::ooo64()),
            ("b", CpuConfig::fmc_hash(true)),
            ("c", CpuConfig::fmc_central_ideal()),
        ];
        for class in CLASSES {
            let batched = run_points(&ctx, &points, class, &params);
            assert_eq!(batched.len(), points.len());
            for ((_, config), batch) in points.iter().zip(batched) {
                assert_eq!(
                    batch.unwrap(),
                    one(&ctx, *config, class, &params),
                    "{class}"
                );
            }
        }
    }

    #[test]
    fn parallel_suite_matches_sequential_suite() {
        let params = ExperimentParams {
            commits: 2_000,
            seed: 11,
            sample: None,
        };
        let config = CpuConfig::fmc_hash(true);
        for class in CLASSES {
            let sequential: Vec<SimResult> = suite(class, params.seed)
                .into_iter()
                .map(|mut w| Processor::new(config).run(w.as_mut(), params.commits))
                .collect();
            let parallel = one(&RunCtx::new(4), config, class, &params);
            assert_eq!(parallel, sequential, "{class} diverged");
        }
    }
}
