//! End-to-end smoke test of the daemon over a real TCP socket: ping,
//! submissions (fresh, cached, replayed, rejected), the job table, and a
//! graceful shutdown — all against one shared store.
//!
//! Everything runs inside a single sequential test: each step builds on
//! the store state the previous ones left.

use elsq_serve::client;
use elsq_serve::{Event, JobState, ServeConfig, Server};
use elsq_sim::scenario::Axis;
use elsq_sim::ScenarioSpec;
use elsq_stats::report::ExperimentParams;
use elsq_workload::suite::WorkloadClass;

fn spec(name: &str) -> ScenarioSpec {
    ScenarioSpec {
        name: name.into(),
        base: "fmc-hash".into(),
        axes: vec![Axis {
            name: "rob".into(),
            values: vec!["48".into()],
        }],
        classes: vec![WorkloadClass::Fp],
        params: ExperimentParams {
            commits: 400,
            seed: 7,
            sample: None,
        },
    }
}

#[test]
fn daemon_answers_clients_over_tcp() {
    let store_dir = std::env::temp_dir().join(format!("elsq-serve-smoke-{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    let handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_dir: store_dir.clone(),
        resume: false,
        watchdog: None,
    })
    .unwrap();
    let addr = handle.local_addr().to_string();

    // Liveness + empty job table.
    assert_eq!(client::ping(&addr).unwrap(), elsq_serve::PROTOCOL_VERSION);
    assert!(client::jobs(&addr).unwrap().is_empty());

    // A spec that does not expand is rejected before it becomes a job.
    let mut bad = spec("bad");
    bad.base = "no-such-config".into();
    let err = client::submit(&addr, None, &bad, |_| {}).unwrap_err();
    assert!(err.contains("does not expand"), "{err}");
    let err = client::submit(&addr, Some("has.dots"), &spec("demo"), |_| {}).unwrap_err();
    assert!(err.contains("has.dots"), "{err}");

    // Fresh submission: one point, simulated fresh, streamed to us.
    let mut events = Vec::new();
    let first = client::submit(&addr, Some("night-1"), &spec("demo"), |e| {
        events.push(e.clone());
    })
    .unwrap();
    assert_eq!(first.job, "night-1");
    assert!(!first.attached);
    assert_eq!((first.hits, first.misses), (0, 1));
    assert_eq!(first.store_points, 1);
    assert!(matches!(
        events.first(),
        Some(Event::Accepted {
            points: 1,
            attached: false,
            ..
        })
    ));
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Point {
            cached: false,
            done: 1,
            total: 1,
            ..
        }
    )));

    // Same spec under a new id: every point answered from the shared store.
    let second = client::submit(&addr, Some("night-2"), &spec("demo"), |_| {}).unwrap();
    assert_eq!((second.hits, second.misses), (1, 0));
    assert_eq!(second.report, first.report, "cached report must match");

    // Same id + same spec after completion: replayed from the journal.
    let replay = client::submit(&addr, Some("night-1"), &spec("demo"), |_| {}).unwrap();
    assert!(replay.attached);
    assert_eq!(replay.report, first.report);

    // Same id + different spec: a loud conflict, not a silent overwrite.
    let err = client::submit(&addr, Some("night-1"), &spec("other"), |_| {}).unwrap_err();
    assert!(err.contains("different spec"), "{err}");

    // The job table and the report fetch agree with what we watched.
    let jobs = client::jobs(&addr).unwrap();
    assert_eq!(jobs.len(), 2);
    assert!(jobs.iter().all(|j| j.state == JobState::Done));
    let fetched = client::fetch_report(&addr, "night-2").unwrap();
    assert_eq!(fetched, first.report);
    let err = client::fetch_report(&addr, "nope").unwrap_err();
    assert!(err.contains("unknown job"), "{err}");

    // Graceful stop; afterwards the port no longer answers.
    client::shutdown(&addr).unwrap();
    handle.join();
    assert!(client::ping(&addr).is_err());
    std::fs::remove_dir_all(&store_dir).ok();
}
