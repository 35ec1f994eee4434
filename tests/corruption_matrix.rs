//! The corruption matrix (ISSUE 8, satellite c): flip one bit of *every*
//! byte of each durable file — `point-<hash>.json`, `manifest.json`,
//! `job-<id>.json` — and require every single flip to surface as a loud,
//! named error. No flip may ever be absorbed silently, and a corrupt cache
//! must never fall back to recomputing (which would discard the evidence
//! and quietly bless a damaged store).
//!
//! Why exhaustiveness is achievable: the decoders require every field
//! (the vendored serde has no unknown-field fallback for *required* keys
//! and no implicit `Option` default), whitespace admits no single-bit flip
//! to another JSON whitespace byte, and the files carry whole-content
//! checksums — so a flip either breaks UTF-8 (read error), breaks the
//! syntax (decode error), renames a key (missing-field error), or changes
//! a value (checksum/version/identity error).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use elsq_serve::job::{
    load_records, record_path, write_record, JobRecord, PointEvent, JOB_RECORD_VERSION,
};
use elsq_serve::JobState;
use elsq_sim::driver::RunCtx;
use elsq_sim::scenario::{run_plan, PointKey, ScenarioSpec};
use elsq_sim::store::ResultStore;
use elsq_workload::suite::WorkloadClass;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elsq-corrupt-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A one-point spec, kept tiny — the matrix cost is flips × decode, so the
/// file should be representative, not large.
fn one_point_spec() -> ScenarioSpec {
    serde_json::from_str(
        r#"{
            "name": "matrix",
            "base": "fmc-hash",
            "axes": [ { "name": "rob", "values": ["48"] } ],
            "classes": ["fp"],
            "params": { "commits": 300, "seed": 7 }
        }"#,
    )
    .expect("inline scenario parses")
}

/// Populates a fresh store with the one demo point and returns its key.
fn populate(dir: &Path) -> PointKey {
    let spec = one_point_spec();
    let plan = spec.expand().expect("spec expands");
    let store = Arc::new(ResultStore::open(dir, false).unwrap());
    let ctx = RunCtx {
        cache: Some(Arc::clone(&store)),
        ..RunCtx::new(2)
    };
    run_plan(&ctx, &plan, &spec.params, |_| {});
    assert_eq!(store.len(), 1);
    let p = &plan.points[0];
    PointKey::current(p.config, p.class, &spec.params)
}

/// Applies `check` to every single-bit-per-byte corruption of `path`:
/// for each byte position the bit `index % 8` is flipped, the check runs,
/// and the pristine bytes are restored. `check` returns the error the
/// corrupted file produced; the matrix asserts it names `expect_in_err`.
fn flip_matrix(path: &Path, expect_in_err: &str, mut check: impl FnMut() -> Option<String>) {
    let pristine = std::fs::read(path).expect("target file exists");
    assert!(!pristine.is_empty());
    for i in 0..pristine.len() {
        let mut tampered = pristine.clone();
        tampered[i] ^= 1 << (i % 8);
        std::fs::write(path, &tampered).unwrap();
        let outcome = check();
        std::fs::write(path, &pristine).unwrap();
        match outcome {
            None => panic!(
                "byte {i} of {} (0x{:02x} -> 0x{:02x}) was absorbed silently",
                path.display(),
                pristine[i],
                tampered[i],
            ),
            Some(err) => assert!(
                err.contains(expect_in_err),
                "byte {i} of {} (0x{:02x} -> 0x{:02x}): error does not name \
                 {expect_in_err:?}: {err}",
                path.display(),
                pristine[i],
                tampered[i],
            ),
        }
    }
}

#[test]
fn every_point_file_bit_flip_fails_the_lookup_loudly() {
    let dir = tmp_dir("point");
    let key = populate(&dir);
    let point_path = dir.join(format!("point-{}.json", key.hex()));
    assert!(point_path.exists(), "{}", point_path.display());

    let store = ResultStore::open(&dir, true).unwrap();
    flip_matrix(&point_path, "point-", || store.lookup(&key).err());
    // Pristine again: the lookup answers.
    assert!(store.lookup(&key).unwrap().is_some());
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_manifest_bit_flip_fails_the_reopen_loudly() {
    let dir = tmp_dir("manifest");
    populate(&dir);
    let manifest_path = dir.join("manifest.json");

    flip_matrix(&manifest_path, "manifest", || {
        ResultStore::open(&dir, true).err()
    });
    // Pristine again: the store opens and still holds the point.
    let store = ResultStore::open(&dir, true).unwrap();
    assert_eq!(store.len(), 1);
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_job_record_bit_flip_fails_the_journal_load_loudly() {
    let dir = tmp_dir("job");
    std::fs::create_dir_all(&dir).unwrap();
    let record = JobRecord {
        version: JOB_RECORD_VERSION,
        seq: 1,
        id: "night-1".into(),
        state: JobState::Done,
        spec: one_point_spec(),
        total: 2,
        completed: 2,
        hits: 1,
        misses: 1,
        failed: 1,
        events: vec![
            PointEvent {
                seq: 1,
                done: 1,
                label: "rob=48".into(),
                class: WorkloadClass::Fp,
                cached: true,
                site: None,
                error: None,
            },
            PointEvent {
                seq: 2,
                done: 2,
                label: "rob=64".into(),
                class: WorkloadClass::Fp,
                cached: false,
                site: Some("point.sim".into()),
                error: Some("injected chaos".into()),
            },
        ],
        error: None,
        checksum: 0,
    };
    write_record(&dir, &record, 0).unwrap();
    let path = record_path(&dir, "night-1");

    flip_matrix(&path, "job", || load_records(&dir).err());
    // Pristine again: the journal loads and the checksum verifies.
    let records = load_records(&dir).unwrap();
    assert_eq!(records.len(), 1);
    records[0].verify_checksum().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
