//! Fault-injection acceptance tests (ISSUE 8): scripted failures at the
//! store/driver sites must degrade loudly — never silently recompute,
//! never poison the cache — and a re-run after the fault clears must
//! recover byte-identically.
//!
//! These tests live in their own integration binary (not the sim unit
//! tests) because an installed fault plan arms *process-global* sites:
//! a store fault armed here must never be consumable by an unrelated unit
//! test running in the same process. Within this binary every test
//! serializes on one lock, since the fault slot is global.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use elsq_cpu::result::SimResult;
use elsq_sim::driver::{run_points, RunCtx};
use elsq_sim::scenario::{run_plan, sweep_report, PointKey, PointOutcome, ScenarioSpec, SweepPlan};
use elsq_sim::store::ResultStore;
use elsq_sim::{install_fault_plan, ExperimentParams, FaultAction, FaultPlan, FaultSpec};

/// The fault plan is process-global; every test in this binary arms it or
/// runs points it could fire on, so they all serialize here.
fn slots_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elsq-fault-inj-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// One armed fault under the fixed test seed.
fn plan_of(site: &str, at: u64, action: FaultAction) -> FaultPlan {
    FaultPlan {
        seed: 1234,
        faults: vec![FaultSpec {
            site: site.into(),
            at,
            action,
        }],
    }
}

/// The same 2×2 fp grid the sweep-cache pins use.
fn demo_spec() -> ScenarioSpec {
    let spec_json = r#"{
        "name": "chaos",
        "base": "fmc-hash",
        "axes": [
            { "name": "rob", "values": ["48", "64"] },
            { "name": "sqm", "values": ["on", "off"] }
        ],
        "classes": ["fp"],
        "params": { "commits": 600, "seed": 7 }
    }"#;
    serde_json::from_str(spec_json).expect("inline scenario parses")
}

fn plan_and_params() -> (SweepPlan, ExperimentParams) {
    let spec = demo_spec();
    let plan = spec.expand().expect("demo spec expands");
    (plan, spec.params)
}

/// A two-worker context answering from `store` (`None`: no cache).
fn ctx(store: Option<&Arc<ResultStore>>) -> RunCtx {
    RunCtx {
        cache: store.cloned(),
        ..RunCtx::new(2)
    }
}

/// Per-point mean IPCs of a healthy run — the value-bearing digest the
/// recovery assertions compare.
fn run_ipcs(ctx: &RunCtx, plan: &SweepPlan, params: &ExperimentParams) -> Vec<f64> {
    run_plan(ctx, plan, params, |_| {})
        .iter()
        .map(|(_, suite)| SimResult::mean_ipc(suite))
        .collect()
}

/// Tentpole: a panicking point degrades the sweep instead of aborting it
/// — the outcome names the site, the report renders a `FAILED` cell, the
/// healthy points still cache — and a clean re-run computes *only* the
/// failed point, converging byte-identically with a never-faulted run.
#[test]
fn panicked_point_degrades_the_sweep_and_a_rerun_recovers() {
    let _serial = slots_lock();
    let (plan, params) = plan_and_params();
    let n = plan.len();
    let dir = tmp_dir("panic");
    let baseline = run_ipcs(&ctx(None), &plan, &params);

    let store = Arc::new(ResultStore::open(&dir, false).unwrap());
    let results = {
        let _faults = install_fault_plan(plan_of(
            "point.sim",
            1,
            FaultAction::Panic {
                msg: "injected chaos".into(),
            },
        ))
        .unwrap();
        run_plan(&ctx(Some(&store)), &plan, &params, |_| {})
    };

    assert!(results.is_degraded());
    let failed = results.failed();
    assert_eq!(failed.len(), 1, "exactly the armed point fails");
    let (point, site, msg) = failed[0];
    assert_eq!(
        point.label, plan.points[0].label,
        "point.sim counts fresh points in plan order"
    );
    assert_eq!(site, "point.sim");
    assert!(msg.contains("injected chaos"), "{msg}");
    // The degraded report names the failure instead of inventing a number.
    let report = serde_json::to_string(&sweep_report(&demo_spec(), &plan, &results)).unwrap();
    assert!(report.contains("FAILED (point.sim)"), "{report}");
    // Every healthy point still landed in the store.
    assert_eq!(store.len(), n - 1);
    drop(store);

    // Fault cleared: resubmission computes only the failed point.
    let store = Arc::new(ResultStore::open(&dir, true).unwrap());
    let recovered = run_ipcs(&ctx(Some(&store)), &plan, &params);
    assert_eq!(store.hits(), (n - 1) as u64);
    assert_eq!(store.misses(), 1, "recovery re-runs only the failed point");
    assert_eq!(recovered, baseline, "recovered sweep is byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite (a): the classic point-written / manifest-lost crash window.
/// A lost manifest write leaves a durable point file the manifest does not
/// list; reopening with `--resume` adopts it after verification, and the
/// next sweep answers every point from the cache.
#[test]
fn lost_manifest_write_is_healed_by_orphan_adoption() {
    let _serial = slots_lock();
    let (plan, params) = plan_and_params();
    let n = plan.len();
    let dir = tmp_dir("lost-manifest");

    let store = Arc::new(ResultStore::open(&dir, false).unwrap());
    let first = {
        // The n-th insert's manifest rewrite vanishes: its point file is
        // durable but the on-disk manifest still lists only n−1 points.
        let _faults =
            install_fault_plan(plan_of("store.manifest.write", n as u64, FaultAction::Lost))
                .unwrap();
        run_ipcs(&ctx(Some(&store)), &plan, &params)
    };
    assert_eq!(store.misses(), n as u64);
    drop(store);

    // Reopen: the orphan is verified (decode + checksum + key matches its
    // file name) and adopted, so the repeated sweep simulates nothing.
    let store = Arc::new(ResultStore::open(&dir, true).unwrap());
    assert_eq!(store.len(), n, "adoption restored the lost point");
    let second = run_ipcs(&ctx(Some(&store)), &plan, &params);
    assert_eq!(store.misses(), 0, "an adopted point must not recompute");
    assert_eq!(store.hits(), n as u64);
    assert_eq!(second, first);
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn point write fails the insert loudly (degrading the sweep at
/// `store.write`), and the torn on-disk file is *refused* at reopen —
/// adopting it would poison reports, recomputing over it would silently
/// discard evidence of the corruption.
#[test]
fn torn_point_write_degrades_and_reopen_refuses_the_fragment() {
    let _serial = slots_lock();
    let (full, params) = plan_and_params();
    let mut plan = SweepPlan::new(full.name.clone());
    plan.axes = full.axes.clone();
    plan.points = full.points[..1].to_vec();
    let dir = tmp_dir("torn-point");

    let store = Arc::new(ResultStore::open(&dir, false).unwrap());
    let results = {
        let _faults =
            install_fault_plan(plan_of("store.point.write", 1, FaultAction::Torn)).unwrap();
        run_plan(&ctx(Some(&store)), &plan, &params, |_| {})
    };
    let failed = results.failed();
    assert_eq!(failed.len(), 1);
    let (_, site, msg) = failed[0];
    assert_eq!(
        site, "store.write",
        "write-back failures degrade, not abort"
    );
    assert!(msg.contains("result cache write-back failed"), "{msg}");
    assert!(msg.contains("injected torn write"), "{msg}");
    drop(store);

    // The strict-prefix fragment sits at the final path, unlisted. Reopen
    // must fail loudly on it, naming the file.
    let err = ResultStore::open(&dir, true).unwrap_err();
    assert!(
        err.contains("is not listed in the manifest and fails verification"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An ENOSPC-style write-back failure surfaces as a failed outcome from the
/// driver — site `store.write`, nothing on disk — and the same point
/// computes cleanly once the fault clears.
#[test]
fn enospc_write_back_is_a_site_failure_not_a_panic() {
    let _serial = slots_lock();
    let (plan, params) = plan_and_params();
    let point = &plan.points[0];
    let dir = tmp_dir("enospc");

    let store = Arc::new(ResultStore::open(&dir, false).unwrap());
    let ctx = ctx(Some(&store));
    let run = || run_points(&ctx, &[(&point.label, point.config)], point.class, &params).remove(0);
    let outcome = {
        let _faults =
            install_fault_plan(plan_of("store.point.write", 1, FaultAction::Enospc)).unwrap();
        run()
    };
    let PointOutcome::Failed { site, msg } = outcome else {
        panic!("the write-back must fail");
    };
    assert_eq!(site, "store.write");
    assert!(msg.contains("injected ENOSPC"), "{msg}");
    assert_eq!(store.len(), 0, "a failed write-back leaves no trace");

    // Fault gone: the identical call succeeds and caches.
    assert!(!run().is_failed(), "clean retry succeeds");
    assert_eq!(store.len(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Read-side corruption is caught by the whole-file checksum and reported
/// loudly — a lookup never silently falls back to recomputing over a
/// damaged cache.
#[test]
fn corrupted_point_reads_fail_loudly_instead_of_recomputing() {
    let _serial = slots_lock();
    let (plan, params) = plan_and_params();
    let point = &plan.points[0];
    let dir = tmp_dir("read-corrupt");

    let store = Arc::new(ResultStore::open(&dir, false).unwrap());
    let populated = run_points(
        &ctx(Some(&store)),
        &[(&point.label, point.config)],
        point.class,
        &params,
    );
    assert!(!populated[0].is_failed(), "populating run succeeds");

    let key = PointKey::current(point.config, point.class, &params);
    let _faults = install_fault_plan(FaultPlan {
        seed: 1234,
        faults: vec![
            FaultSpec {
                site: "store.point.read".into(),
                at: 1,
                action: FaultAction::BitFlip,
            },
            FaultSpec {
                site: "store.point.read".into(),
                at: 2,
                action: FaultAction::ShortRead,
            },
        ],
    })
    .unwrap();

    // Hit 1: one flipped bit — caught at decode or by the checksum
    // (which layer trips depends on which bit the seed picks), always
    // naming the point file.
    let err = store.lookup(&key).unwrap_err();
    assert!(
        err.contains("is corrupt") || err.contains("fails its checksum"),
        "{err}"
    );
    assert!(err.contains("point-"), "{err}");
    // Hit 2: a short read — caught at decode, naming the file.
    let err = store.lookup(&key).unwrap_err();
    assert!(err.contains("is corrupt"), "{err}");
    // Hit 3: no fault armed — the same file reads back fine (the
    // corruption was injected in memory, never written).
    let results = store.lookup(&key).unwrap().expect("point is cached");
    assert!(!results.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
