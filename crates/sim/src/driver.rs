//! Runs processor configurations over workload suites.
//!
//! The six `(config, workload)` pairs of a suite are independent, so
//! [`run_suite`] fans them out across cores through the work-stealing
//! scheduler in [`crate::pool`]. Results come back in workload order, making
//! the parallel path byte-identical to [`run_suite_sequential`] for the same
//! seed — a property the determinism test suite asserts for both workload
//! classes.
//!
//! Sweeps that run *many configurations* over the *same* suite go through
//! [`run_suite_batched`]: the correct-path streams are captured once into
//! [`SharedStream`]s and every pipeline instance reads them through its own
//! cursor, so workload generation (or `.etrc` decoding) is paid once per
//! batch group instead of once per grid point. Results, cache keys and
//! cache hit/miss behavior are identical to running the points one at a
//! time — see `docs/PERFORMANCE.md` for the batching model.
//!
//! Suites normally come from the synthetic generators, but a recorded
//! [`TraceRoster`] of `.etrc` files can be installed process-wide with
//! [`install_trace_override`]; every `run_suite*` call (and therefore every
//! registered experiment) then replays the recorded streams instead. This
//! is how `elsq-lab run --trace DIR` works without threading a workload
//! source through each experiment's signature.
//!
//! A [`crate::store::ResultStore`] installs the same way
//! ([`install_result_cache`]): while the guard lives, [`run_suite`] computes
//! the [`crate::scenario::PointKey`] of every `(config, class, params)`
//! suite it is asked for and consults the cache first. Hits are answered
//! from disk without simulating (the worker pool only ever receives cache
//! misses); misses simulate and write back, so interrupted sweeps resume
//! and repeated sweeps are free. The key includes the fingerprint of any
//! installed trace roster, so generator runs and replays never alias.

use std::sync::{Arc, OnceLock, RwLock};

use elsq_cpu::config::CpuConfig;
use elsq_cpu::pipeline::Processor;
use elsq_cpu::result::SimResult;
use elsq_isa::{SharedStream, TraceSource};
use elsq_stats::canon::canonical_hash;
use elsq_workload::suite::{suite, TraceRoster, WorkloadClass};

pub use elsq_stats::report::ExperimentParams;

use crate::fault;
use crate::pool::{parallel_map, parallel_map_with, try_parallel_map};
use crate::scenario::PointKey;
use crate::store::ResultStore;

/// Fault site name of the "panic at point N" / "stall at point N" hook:
/// fired once per *fresh* (cache-miss) point, in plan order.
const POINT_SIM_SITE: &str = "point.sim";

/// A point-level failure: where it failed and why. Produced by the
/// fallible `try_run_suite*` entry points when a simulation job panics or
/// a cache write-back fails; [`crate::scenario::run_plan`] turns it into a
/// [`crate::scenario::PointOutcome::Failed`] so one bad point degrades the
/// sweep instead of aborting it.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteFailure {
    /// The failure site: a fault-injection site name for injected
    /// failures (recovered from the panic payload), `"sim"` for ordinary
    /// simulation panics, `"store.write"` for failed write-backs.
    pub site: String,
    /// The failure message.
    pub msg: String,
}

impl SiteFailure {
    /// Classifies a caught panic message: injected faults carry their site
    /// in the payload (see [`fault::panic_payload`]); anything else is an
    /// ordinary simulation panic.
    fn from_panic(payload: &str) -> Self {
        match fault::split_panic_site(payload) {
            Some((site, msg)) => SiteFailure {
                site: site.to_owned(),
                msg: msg.to_owned(),
            },
            None => SiteFailure {
                site: "sim".to_owned(),
                msg: payload.to_owned(),
            },
        }
    }
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

fn override_slot() -> &'static RwLock<Option<Arc<TraceRoster>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<TraceRoster>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Restores the previously installed trace override when dropped; returned
/// by [`install_trace_override`].
#[must_use = "dropping the guard immediately restores the previous override"]
pub struct TraceOverrideGuard {
    previous: Option<Arc<TraceRoster>>,
}

impl Drop for TraceOverrideGuard {
    fn drop(&mut self) {
        *override_slot()
            .write()
            .expect("trace override lock poisoned") = self.previous.take();
    }
}

/// Installs `roster` as the process-global workload source: until the
/// returned guard drops, every [`run_suite`]-family call replays the
/// roster's recorded traces instead of constructing generators.
///
/// The override is process-wide (worker threads of the pool read it), so
/// callers running concurrent *differently-sourced* suites in one process
/// must serialize around it; the `elsq-lab` CLI installs it once per
/// invocation.
pub fn install_trace_override(roster: Arc<TraceRoster>) -> TraceOverrideGuard {
    let mut slot = override_slot()
        .write()
        .expect("trace override lock poisoned");
    TraceOverrideGuard {
        previous: slot.replace(roster),
    }
}

/// The currently installed trace roster, if any.
pub fn trace_override() -> Option<Arc<TraceRoster>> {
    override_slot()
        .read()
        .expect("trace override lock poisoned")
        .clone()
}

/// Canonical fingerprint of the installed trace roster, if any — the
/// `trace` component of every [`PointKey`] minted while a replay override
/// is active.
///
/// The fingerprint hashes what determines the replayed streams (per-member
/// name, format version, seed, suite slot, instruction count and wrong-path
/// spec) and deliberately excludes file paths, so the same dump cached from
/// two directories shares results while a different dump never aliases a
/// generator run.
pub fn trace_fingerprint() -> Option<u64> {
    let roster = trace_override()?;
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
    Some(canonical_hash(&Value::Seq(members)))
}

fn cache_slot() -> &'static RwLock<Option<Arc<ResultStore>>> {
    static SLOT: OnceLock<RwLock<Option<Arc<ResultStore>>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(None))
}

/// Restores the previously installed result cache when dropped; returned by
/// [`install_result_cache`].
#[must_use = "dropping the guard immediately restores the previous cache"]
pub struct ResultCacheGuard {
    previous: Option<Arc<ResultStore>>,
}

impl Drop for ResultCacheGuard {
    fn drop(&mut self) {
        *cache_slot().write().expect("result cache lock poisoned") = self.previous.take();
    }
}

/// Installs `store` as the process-global result cache: until the returned
/// guard drops, every [`run_suite`] call consults it before simulating and
/// writes fresh results back.
///
/// Like the trace override, the cache is process-wide, so concurrent runs
/// that must *not* share a cache have to serialize around it; the `elsq-lab`
/// CLI installs it once per invocation.
pub fn install_result_cache(store: Arc<ResultStore>) -> ResultCacheGuard {
    let mut slot = cache_slot().write().expect("result cache lock poisoned");
    ResultCacheGuard {
        previous: slot.replace(store),
    }
}

/// The currently installed result cache, if any.
pub fn result_cache() -> Option<Arc<ResultStore>> {
    cache_slot()
        .read()
        .expect("result cache lock poisoned")
        .clone()
}

/// Runs one pipeline instance over one workload under `params` — the single
/// seam where a sampling spec switches the detailed cycle loop
/// ([`Processor::run`]) for SMARTS-style systematic sampling
/// ([`Processor::run_sampled`]). Every `run_suite*` entry point funnels
/// through here, so sampled and full runs stay behaviorally identical
/// everywhere except the run mode itself.
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

/// The suite every `run_suite*` call simulates: the installed trace
/// override's recorded streams, or the generators.
///
/// # Panics
///
/// Panics if an installed roster cannot stand in for `suite(class,
/// params.seed)` over `params.commits` commits (wrong seed, short or
/// missing traces). `elsq-lab` validates rosters up front and reports the
/// same message as a clean CLI error instead.
fn build_suite(class: WorkloadClass, params: &ExperimentParams) -> Vec<Box<dyn TraceSource>> {
    match trace_override() {
        Some(roster) => {
            let check = |r: Result<(), String>| match r {
                Ok(()) => {}
                Err(e) => panic!("trace override cannot replace the {class} suite: {e}"),
            };
            check(roster.validate(class, params.seed, params.commits));
            match roster.suite(class) {
                Ok(suite) => suite,
                Err(e) => panic!("trace override cannot replace the {class} suite: {e}"),
            }
        }
        None => suite(class, params.seed),
    }
}

/// Captures the `class` suite — from the generators or an installed trace
/// override, exactly as [`run_suite`] would source it — into read-only
/// [`SharedStream`]s of up to `params.commits` correct-path instructions
/// each, in suite order.
///
/// A sampled run (`params.sample`) reads only the warm-up and window
/// positions of each period, so its capture is sparse: it holds exactly
/// the spec's `read_ranges` and skips the source over the rest (for a
/// checkpointed `.etrc` replay, without decoding the skipped blocks).
/// Cursors over it must only be driven by [`Processor::run_sampled`] under
/// the same spec and budget.
///
/// This is the setup half of a batched run, exposed so callers that time
/// simulation (the `elsq-lab bench` subcommand) can capture outside the
/// measured window and drive pipelines off cursors alone.
///
/// # Panics
///
/// Panics if an installed trace override cannot stand in for the suite
/// (see [`install_trace_override`]).
pub fn capture_class_suite(
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Vec<Arc<SharedStream>> {
    parallel_map(build_suite(class, params), |mut workload| {
        let source = workload.as_mut();
        Arc::new(match params.sample {
            Some(spec) => SharedStream::capture_ranges(
                source,
                params.commits,
                spec.read_ranges(params.commits),
            ),
            None => SharedStream::capture(source, params.commits),
        })
    })
}

/// Runs `config` over every workload of `class` in parallel and returns the
/// per-workload results in suite order.
///
/// When a result cache is installed ([`install_result_cache`]), the point's
/// canonical key is looked up first: a hit returns the stored results
/// without simulating (byte-identical to a fresh run — `SimResult` JSON
/// round trips losslessly), a miss simulates and writes back.
///
/// # Panics
///
/// Panics if the installed cache turns out corrupt mid-run (a listed point
/// file whose contents fail to decode or hash back to its key, or a failed
/// write-back). `elsq-lab` validates the manifest and the presence of every
/// listed point file when it opens the cache, reporting those as clean CLI
/// errors, so the panic path is reserved for tampering that only decoding
/// can detect.
pub fn run_suite(
    config: CpuConfig,
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Vec<SimResult> {
    run_suite_labeled("", config, class, params)
}

/// [`run_suite`] with a human-readable label recorded into the result
/// cache's manifest when the point is freshly computed — plan-driven runs
/// ([`crate::scenario::run_plan`]) pass their point labels through here so
/// a cache directory stays auditable. The label plays no part in the cache
/// key.
pub fn run_suite_labeled(
    label: &str,
    config: CpuConfig,
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Vec<SimResult> {
    match try_run_suite_labeled(label, config, class, params) {
        Ok(results) => results,
        Err(f) => panic!("point {label:?} failed at {}: {}", f.site, f.msg),
    }
}

/// Fallible [`run_suite_labeled`]: a panicking simulation job (contained
/// by the pool's `catch_unwind`) or a failed cache write-back becomes an
/// `Err(SiteFailure)` naming the site, instead of unwinding the caller.
/// A corrupt cache *lookup* still panics — that is global store damage,
/// not a per-point failure, and degrading it would mask it.
pub fn try_run_suite_labeled(
    label: &str,
    config: CpuConfig,
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Result<Vec<SimResult>, SiteFailure> {
    let cache = result_cache();
    let key = cache
        .as_ref()
        .map(|_| PointKey::current(config, class, params));
    if let (Some(store), Some(key)) = (&cache, &key) {
        match store.lookup(key) {
            Ok(Some(results)) => return Ok(results),
            Ok(None) => {}
            Err(e) => panic!("result cache lookup failed: {e}"),
        }
    }
    let doomed = fault::fire(POINT_SIM_SITE);
    let doomed = &doomed;
    let jobs: Vec<(usize, Box<dyn TraceSource>)> =
        build_suite(class, params).into_iter().enumerate().collect();
    let attempts = try_parallel_map(jobs, move |(i, mut workload)| {
        if i == 0 {
            trigger_point_fault(doomed);
        }
        simulate(config, workload.as_mut(), params)
    });
    let mut results = Vec::with_capacity(attempts.len());
    for attempt in attempts {
        match attempt {
            Ok(r) => results.push(r),
            Err(msg) => return Err(SiteFailure::from_panic(&msg)),
        }
    }
    if let (Some(store), Some(key)) = (&cache, &key) {
        if let Err(e) = store.insert(key, label, &results) {
            return Err(SiteFailure {
                site: "store.write".to_owned(),
                msg: format!("result cache write-back failed: {e}"),
            });
        }
    }
    Ok(results)
}

/// Runs many configurations over one workload class as a *batch*: the
/// suite's correct-path streams are generated (or `.etrc`-decoded) once and
/// fanned out read-only to every configuration's pipeline instances through
/// [`SharedStream`] cursors, instead of being regenerated per point.
///
/// Per-point results are byte-identical to [`run_suite_labeled`] called
/// once per `(label, config)` pair, because a captured stream replays
/// exactly what the lazy source would have produced and each pipeline
/// instance synthesizes its own wrong path from the captured spec — the
/// same purity `.etrc` replay rests on. Cache interaction is also
/// per-point and unchanged: every point's [`PointKey`] is looked up first
/// (hits skip simulation; hit/miss counts match the point-at-a-time path)
/// and fresh points write back under their own label, so batched and
/// unbatched sweeps share one store.
///
/// Returns one suite-result vector per input point, in input order.
///
/// # Panics
///
/// As [`run_suite`]: an unusable trace override or a corrupt result cache
/// panics rather than silently recomputing.
pub fn run_suite_batched(
    points: &[(&str, CpuConfig)],
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Vec<Vec<SimResult>> {
    try_run_suite_batched(points, class, params)
        .into_iter()
        .zip(points)
        .map(|(outcome, (label, _))| match outcome {
            Ok(results) => results,
            Err(f) => panic!("point {label:?} failed at {}: {}", f.site, f.msg),
        })
        .collect()
}

/// Fallible [`run_suite_batched`]: returns one outcome per input point, in
/// input order. A point whose simulation jobs panic (contained per-job by
/// the pool) or whose write-back fails yields `Err(SiteFailure)` in its
/// slot; every other point of the batch still completes and caches. A
/// corrupt cache lookup panics, as in [`try_run_suite_labeled`].
pub fn try_run_suite_batched(
    points: &[(&str, CpuConfig)],
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Vec<Result<Vec<SimResult>, SiteFailure>> {
    let cache = result_cache();
    let keys: Vec<Option<PointKey>> = points
        .iter()
        .map(|(_, config)| {
            cache
                .as_ref()
                .map(|_| PointKey::current(*config, class, params))
        })
        .collect();
    let mut out: Vec<Option<Result<Vec<SimResult>, SiteFailure>>> = vec![None; points.len()];
    let mut misses: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        match (&cache, key) {
            (Some(store), Some(key)) => match store.lookup(key) {
                Ok(Some(results)) => out[i] = Some(Ok(results)),
                Ok(None) => misses.push(i),
                Err(e) => panic!("result cache lookup failed: {e}"),
            },
            _ => misses.push(i),
        }
    }
    if !misses.is_empty() {
        // Capture the shared streams in parallel (each member generates
        // independently), then fan every (miss, workload) pair out as its
        // own job so wide grids keep all workers busy.
        let streams = capture_class_suite(class, params);
        // The point.sim fault site counts fresh points here, on the
        // calling thread in plan order — deterministic regardless of how
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
        let run_params = *params;
        let results = try_parallel_map(jobs, move |(mi, si, config, stream)| {
            if si == 0 {
                trigger_point_fault(&dooms[mi]);
            }
            simulate(config, &mut stream.cursor(), &run_params)
        });
        for (&i, attempts) in misses.iter().zip(results.chunks(streams.len())) {
            let mut suite_results = Vec::with_capacity(attempts.len());
            let mut failure: Option<SiteFailure> = None;
            for attempt in attempts {
                match attempt {
                    Ok(r) => suite_results.push(r.clone()),
                    Err(msg) => {
                        failure = Some(SiteFailure::from_panic(msg));
                        break;
                    }
                }
            }
            if failure.is_none() {
                if let (Some(store), Some(key)) = (&cache, &keys[i]) {
                    if let Err(e) = store.insert(key, points[i].0, &suite_results) {
                        failure = Some(SiteFailure {
                            site: "store.write".to_owned(),
                            msg: format!("result cache write-back failed: {e}"),
                        });
                    }
                }
            }
            out[i] = Some(match failure {
                Some(f) => Err(f),
                None => Ok(suite_results),
            });
        }
    }
    out.into_iter()
        .map(|r| r.expect("every batched point resolved"))
        .collect()
}

/// [`run_suite`] with an explicit worker count — used by the determinism
/// tests to pin the work-stealing path regardless of host core count.
pub fn run_suite_with_threads(
    config: CpuConfig,
    class: WorkloadClass,
    params: &ExperimentParams,
    workers: usize,
) -> Vec<SimResult> {
    parallel_map_with(
        build_suite(class, params),
        |mut workload| simulate(config, workload.as_mut(), params),
        workers,
    )
}

/// Runs `config` over every workload of `class` on the calling thread — the
/// reference implementation the parallel path must match byte-for-byte.
pub fn run_suite_sequential(
    config: CpuConfig,
    class: WorkloadClass,
    params: &ExperimentParams,
) -> Vec<SimResult> {
    build_suite(class, params)
        .into_iter()
        .map(|mut workload| simulate(config, workload.as_mut(), params))
        .collect()
}

/// Mean IPC of `config` over the given suite.
pub fn mean_ipc(config: CpuConfig, class: WorkloadClass, params: &ExperimentParams) -> f64 {
    SimResult::mean_ipc(&run_suite(config, class, params))
}

/// Both suites in the order the paper's figures plot them (INT first in some
/// figures, FP first in others; the experiments pick what they need).
pub const CLASSES: [WorkloadClass; 2] = [WorkloadClass::Int, WorkloadClass::Fp];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_suite_produces_one_result_per_workload() {
        let results = run_suite(
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
        let ipc = mean_ipc(
            CpuConfig::ooo64(),
            WorkloadClass::Int,
            &ExperimentParams::quick(),
        );
        assert!(ipc > 0.0 && ipc <= 4.0);
    }

    #[test]
    fn batched_suite_matches_per_point_runs() {
        // The tentpole equivalence: shared-stream fan-out must be invisible
        // in the results, for both classes and across different configs in
        // one batch.
        let params = ExperimentParams {
            commits: 1_500,
            seed: 7,
            sample: None,
        };
        let points = [
            ("a", CpuConfig::ooo64()),
            ("b", CpuConfig::fmc_hash(true)),
            ("c", CpuConfig::fmc_central_ideal()),
        ];
        for class in CLASSES {
            let batched = run_suite_batched(&points, class, &params);
            assert_eq!(batched.len(), points.len());
            for ((_, config), batch) in points.iter().zip(&batched) {
                assert_eq!(batch, &run_suite(*config, class, &params), "{class}");
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
        for class in CLASSES {
            let parallel = run_suite_with_threads(CpuConfig::fmc_hash(true), class, &params, 4);
            let sequential = run_suite_sequential(CpuConfig::fmc_hash(true), class, &params);
            assert_eq!(parallel, sequential, "{class} diverged");
        }
    }
}
