//! Golden-output guard for the hot-path optimization work.
//!
//! Runs two quick experiments at a fixed seed and asserts a stable FNV-1a
//! hash of the serialized JSON [`Report`]. The expected hashes were recorded
//! on pre-optimization `main` (PR 2), so any change to simulation semantics
//! — a different forwarding pick, a shifted counter, a reordered search —
//! changes a cell value and breaks the hash. The data-structure work in the
//! core crates (seq-indexed slab queues, address-bucketed search indices,
//! unknown-address sets) must keep these bit-exact.
//!
//! `fig7` exercises the central LSQ plus every ELSQ variant (line/hash ERT,
//! with and without the SQM) over both workload suites; `table2` pins the
//! access *counters*, which are the most sensitive observers of the search
//! paths (one extra or missing queue search changes a column).
//!
//! If a future PR changes simulation semantics *intentionally*, re-record
//! the constants with:
//!
//! ```text
//! cargo test --test golden_reports -- --nocapture
//! ```
//!
//! (each test prints the computed hash) and explain the change in the PR.

use elsq_sim::driver::RunCtx;
use elsq_sim::experiments::find;
use elsq_stats::report::ExperimentParams;

/// 64-bit FNV-1a over the serialized report.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Runs experiment `id` at the pinned quick parameters and hashes its JSON
/// report (wall time cleared first — it is the one non-deterministic field).
fn golden_hash(id: &str) -> u64 {
    let params = ExperimentParams {
        commits: 2_000,
        seed: 7,
        sample: None,
    };
    let experiment = find(id).expect("experiment is registered");
    let report = experiment
        .run(&RunCtx::from_env(), &params)
        .without_wall_time();
    let json = serde_json::to_string(&report).expect("reports always serialize");
    let hash = fnv1a64(json.as_bytes());
    println!("golden hash for {id}: {hash:#018x}");
    hash
}

#[test]
fn fig7_quick_report_is_bit_stable() {
    assert_eq!(
        golden_hash("fig7"),
        0x89d552f95d395891,
        "fig7 report changed: the optimizations must not alter simulation \
         semantics (see tests/golden_reports.rs for how to re-record)"
    );
}

#[test]
fn table2_quick_report_is_bit_stable() {
    assert_eq!(
        golden_hash("table2"),
        0xd71ba16e0c2d581c,
        "table2 access counters changed: a queue search was added, dropped \
         or reordered (see tests/golden_reports.rs for how to re-record)"
    );
}
