//! Chaos tests of the serve stack under scripted fault plans (ISSUE 8):
//! a panicking point degrades the job (exit 3, the point named) and a
//! resubmission recovers byte-identically; a dropped connection mid-stream
//! is healed by the client's `Resume` reconnect; the per-job watchdog
//! fails a wedged job; SIGTERM drains gracefully; and a client against a
//! silent server times out with exit code 2.
//!
//! The daemon always runs as a real `elsq-lab serve` subprocess, so the
//! fault plan is installed in *its* process and the tests observe exactly
//! what an operator would.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use elsq_serve::client;
use elsq_serve::Event;
use elsq_sim::scenario::Axis;
use elsq_sim::ScenarioSpec;
use elsq_sim::{FaultAction, FaultPlan, FaultSpec};
use elsq_stats::report::ExperimentParams;
use elsq_workload::suite::WorkloadClass;

fn elsq_lab() -> Command {
    Command::new(env!("CARGO_BIN_EXE_elsq-lab"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elsq-serve-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `plan` as a `--fault-plan` file inside `dir`.
fn plan_file(dir: &Path, plan: &FaultPlan) -> PathBuf {
    let path = dir.join("fault-plan.json");
    std::fs::write(&path, serde_json::to_string(plan).unwrap()).unwrap();
    path
}

fn one_fault(site: &str, at: u64, action: FaultAction) -> FaultPlan {
    FaultPlan {
        seed: 7,
        faults: vec![FaultSpec {
            site: site.into(),
            at,
            action,
        }],
    }
}

/// Starts `elsq-lab serve` with optional extra flags and returns the
/// child, the bound address, and the still-open stdout reader.
fn spawn_server(
    store: &Path,
    extra: &[&str],
) -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut cmd = elsq_lab();
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--store"])
        .arg(store)
        .args(extra)
        .stdout(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn elsq-lab serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let addr = line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in readiness line {line:?}"))
        .to_owned();
    (child, addr, reader)
}

/// The 2-point chaos grid: rob {48, 64} × fp.
fn chaos_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "chaosgrid".into(),
        base: "fmc-hash".into(),
        axes: vec![Axis {
            name: "rob".into(),
            values: vec!["48".into(), "64".into()],
        }],
        classes: vec![WorkloadClass::Fp],
        params: ExperimentParams {
            commits: 400,
            seed: 5,
            sample: None,
        },
    }
}

/// The offline `elsq-lab sweep` report bytes of [`chaos_spec`] — the
/// byte-identity reference for every recovery assertion.
fn offline_reference(dir: &Path) -> Vec<u8> {
    let out = dir.join("ref");
    let status = elsq_lab()
        .args([
            "sweep",
            "--axis",
            "rob=48,64",
            "--base",
            "fmc-hash",
            "--classes",
            "fp",
            "--name",
            "chaosgrid",
            "--commits",
            "400",
            "--seed",
            "5",
            "--format",
            "json",
            "--out",
        ])
        .arg(&out)
        .status()
        .expect("run offline sweep");
    assert!(status.success(), "offline sweep failed");
    std::fs::read(out.join("sweep-chaosgrid.json")).unwrap()
}

/// A `submit` CLI invocation of [`chaos_spec`] against `addr`, writing its
/// report into `out`.
fn cli_submit(addr: &str, job: &str, out: &Path) -> std::process::Output {
    elsq_lab()
        .args([
            "submit",
            "--connect",
            addr,
            "--job",
            job,
            "--axis",
            "rob=48,64",
            "--base",
            "fmc-hash",
            "--classes",
            "fp",
            "--name",
            "chaosgrid",
            "--commits",
            "400",
            "--seed",
            "5",
            "--format",
            "json",
            "--out",
        ])
        .arg(out)
        .output()
        .expect("run elsq-lab submit")
}

/// The tentpole acceptance path, end to end over the CLI: a sweep with an
/// induced panic completes *degraded* (exit 3, the failed point named),
/// resubmitting the same job re-runs only the failed point and recovers a
/// report byte-identical to the offline sweep, and a fresh job id is then
/// answered entirely from the cache.
#[test]
fn degraded_submit_exits_3_and_resubmission_recovers_byte_identically() {
    let dir = tmp_dir("degraded");
    let reference = offline_reference(&dir);
    let store = dir.join("store");
    let plan = plan_file(
        &dir,
        &one_fault(
            "point.sim",
            1,
            FaultAction::Panic {
                msg: "injected chaos".into(),
            },
        ),
    );
    let (mut server, addr, _out) = spawn_server(&store, &["--fault-plan", plan.to_str().unwrap()]);

    // Chaos 1: the armed point panics; the submit completes degraded.
    let out1 = dir.join("out1");
    let chaos = cli_submit(&addr, "chaos-1", &out1);
    assert_eq!(chaos.status.code(), Some(3), "{chaos:?}");
    let stdout = String::from_utf8_lossy(&chaos.stdout);
    assert_eq!(
        stdout.matches("FAILED at point.sim").count(),
        1,
        "exactly one failed point, named: {stdout}"
    );
    assert!(stdout.contains("injected chaos"), "{stdout}");
    assert!(
        stdout.contains("degraded: 1 point(s) failed; resubmit job chaos-1 to re-run them"),
        "{stdout}"
    );
    let degraded_report = std::fs::read_to_string(out1.join("sweep-chaosgrid.json")).unwrap();
    assert!(
        degraded_report.contains("FAILED (point.sim)"),
        "{degraded_report}"
    );

    // Chaos 2: resubmit the same id — only the failed point re-runs (the
    // healthy one is a hit), and the report now matches the offline sweep.
    let out2 = dir.join("out2");
    let recover = cli_submit(&addr, "chaos-1", &out2);
    assert_eq!(recover.status.code(), Some(0), "{recover:?}");
    let stdout = String::from_utf8_lossy(&recover.stdout);
    assert!(stdout.contains("1 hit(s), 1 miss(es)"), "{stdout}");
    assert_eq!(
        std::fs::read(out2.join("sweep-chaosgrid.json")).unwrap(),
        reference,
        "recovered report is byte-identical to the offline sweep"
    );

    // Chaos 3: a fresh job id is answered 100% from the shared store.
    let out3 = dir.join("out3");
    let cached = cli_submit(&addr, "chaos-2", &out3);
    assert_eq!(cached.status.code(), Some(0), "{cached:?}");
    let stdout = String::from_utf8_lossy(&cached.stdout);
    assert!(stdout.contains("2 hit(s), 0 miss(es)"), "{stdout}");
    assert!(stdout.contains("100% cache hits"), "{stdout}");
    assert_eq!(
        std::fs::read(out3.join("sweep-chaosgrid.json")).unwrap(),
        reference
    );

    let down = elsq_lab()
        .args(["shutdown", "--connect", &addr])
        .status()
        .unwrap();
    assert!(down.success());
    assert!(server.wait().unwrap().success(), "clean server exit");
    std::fs::remove_dir_all(&dir).ok();
}

/// A connection dropped mid-stream (`serve.event` Drop) is healed by the
/// client's seq-numbered `Resume` reconnect: the submit still returns the
/// full outcome, and no progress event is observed twice.
#[test]
fn dropped_connection_mid_stream_recovers_via_resume() {
    let dir = tmp_dir("drop");
    let store = dir.join("store");
    // Event sends on the submit connection: 1 = Accepted, 2 = first
    // Point, 3 = second Point (dropped), then Done. The client re-attaches
    // with `Resume { after_seq: 1 }` and replays the rest from the journal.
    let plan = plan_file(&dir, &one_fault("serve.event", 3, FaultAction::Drop));
    let (mut server, addr, _out) = spawn_server(&store, &["--fault-plan", plan.to_str().unwrap()]);

    let spec = chaos_spec();
    let mut seqs = Vec::new();
    let outcome = client::submit(&addr, Some("drop-1"), &spec, |event| {
        if let Event::Point { seq, .. } = event {
            seqs.push(*seq);
        }
    })
    .expect("the drop must be survived, not surfaced");
    assert_eq!((outcome.hits, outcome.misses), (0, 2));
    assert_eq!(outcome.failed, 0);
    assert_eq!(
        seqs,
        vec![1, 2],
        "every point observed exactly once across the reconnect"
    );

    client::shutdown(&addr).unwrap();
    assert!(server.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A job's journal writes come in a fixed order: Queued, Running, one per
/// class group, then the terminal record. The two points of the one-group
/// chaos grid share one write, so a fault at the 4th `job.record.write`
/// lands on the Done record: both points were journaled and streamed, and
/// the job fails naming its completion (a per-point journal would fail on
/// the second point's write instead).
#[test]
fn a_class_group_costs_one_journal_write() {
    let dir = tmp_dir("journal-writes");
    let store = dir.join("store");
    let plan = plan_file(&dir, &one_fault("job.record.write", 4, FaultAction::Enospc));
    let (mut server, addr, _out) = spawn_server(&store, &["--fault-plan", plan.to_str().unwrap()]);

    let mut seqs = Vec::new();
    let err = client::submit(&addr, Some("writes-1"), &chaos_spec(), |event| {
        if let Event::Point { seq, .. } = event {
            seqs.push(*seq);
        }
    })
    .unwrap_err();
    assert!(err.contains("cannot journal job completion"), "{err}");
    assert_eq!(seqs, vec![1, 2], "both points streamed before Done");
    let jobs = client::jobs(&addr).unwrap();
    let job = jobs.iter().find(|j| j.id == "writes-1").expect("listed");
    assert_eq!(job.state, elsq_serve::JobState::Failed);

    client::shutdown(&addr).unwrap();
    assert!(server.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A job whose worker stalls past the `--watchdog` window is marked
/// Failed, naming the watchdog — and the daemon stays healthy for the
/// next job.
#[test]
fn watchdog_fails_a_wedged_job_and_the_daemon_survives() {
    let dir = tmp_dir("watchdog");
    let store = dir.join("store");
    // The first fresh point stalls 20s; the watchdog window is 1s.
    let plan = plan_file(
        &dir,
        &one_fault("point.sim", 1, FaultAction::Stall { ms: 20_000 }),
    );
    let (mut server, addr, _out) = spawn_server(
        &store,
        &["--watchdog", "1", "--fault-plan", plan.to_str().unwrap()],
    );

    let spec = chaos_spec();
    let err = client::submit(&addr, Some("wedged-1"), &spec, |_| {}).unwrap_err();
    assert!(err.contains("watchdog"), "{err}");
    assert!(err.contains("wedged"), "{err}");

    // The daemon moved on: the job table lists the failure and a fresh
    // job under a new id completes normally.
    let jobs = client::jobs(&addr).unwrap();
    let wedged = jobs.iter().find(|j| j.id == "wedged-1").expect("listed");
    assert_eq!(wedged.state, elsq_serve::JobState::Failed);
    assert!(
        wedged.error.as_deref().unwrap_or("").contains("watchdog"),
        "{wedged:?}"
    );
    let outcome = client::submit(&addr, Some("fresh-1"), &spec, |_| {}).unwrap();
    assert_eq!(outcome.failed, 0);

    client::shutdown(&addr).unwrap();
    assert!(server.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGTERM mid-job: the daemon cancels the running job at its next group
/// boundary, journals it back to Queued, and exits *cleanly*; a `--resume`
/// boot picks the job up again and finishes it.
#[cfg(unix)]
#[test]
fn sigterm_drains_journals_and_a_resume_boot_finishes_the_job() {
    use std::sync::mpsc;

    let dir = tmp_dir("sigterm");
    let store = dir.join("store");
    // Cancellation is only polled at class-group boundaries, so the test
    // must guarantee the SIGTERM lands before the *last* group starts.
    // Stalling the send of the second fp progress event (event sends: 1 =
    // Accepted, 2 = first Point, 3 = second Point) holds the worker inside
    // the fp group for 3s after the first Point reached the client — ample
    // time for the kill below plus the signal thread's ~15ms poll.
    let plan = plan_file(
        &dir,
        &one_fault("serve.event", 3, FaultAction::Stall { ms: 3_000 }),
    );
    let (mut server, addr, _out) = spawn_server(&store, &["--fault-plan", plan.to_str().unwrap()]);

    // A wider grid (8 points per class, two classes) so SIGTERM lands
    // while the job is still running.
    let spec = ScenarioSpec {
        name: "siggrid".into(),
        base: "fmc-hash".into(),
        axes: vec![
            Axis {
                name: "rob".into(),
                values: vec!["48".into(), "64".into(), "96".into(), "128".into()],
            },
            Axis {
                name: "issue".into(),
                values: vec!["2".into(), "4".into()],
            },
        ],
        classes: vec![WorkloadClass::Fp, WorkloadClass::Int],
        params: ExperimentParams {
            commits: 400,
            seed: 5,
            sample: None,
        },
    };
    let (first_point_tx, first_point) = mpsc::channel();
    let submit_spec = spec.clone();
    let submit_addr = addr.clone();
    let submitter = std::thread::spawn(move || {
        client::submit(&submit_addr, Some("sig-1"), &submit_spec, |event| {
            if matches!(event, Event::Point { .. }) {
                let _ = first_point_tx.send(());
            }
        })
    });
    first_point
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("job produced progress before the timeout");

    let term = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let status = server.wait().unwrap();
    assert!(status.success(), "SIGTERM must exit cleanly, got {status}");
    // The client sees the stop, not a hang.
    assert!(submitter.join().unwrap().is_err());

    // A resume boot re-enqueues the journaled job; attaching to it
    // completes the remaining points from where the store left off.
    let (mut server, addr, _out2) = spawn_server(&store, &["--resume"]);
    let outcome = client::submit(&addr, Some("sig-1"), &spec, |_| {}).unwrap();
    assert!(outcome.attached, "resumed job, not a new one");
    assert_eq!(outcome.hits + outcome.misses, 16);
    assert_eq!(outcome.failed, 0);

    client::shutdown(&addr).unwrap();
    assert!(server.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite (b): a client pointed at a server that accepts but never
/// answers gives up after `--timeout` seconds with exit code 2 and a
/// recognizable message — and no usage dump (it is not a usage error).
#[test]
fn silent_server_times_out_with_exit_code_2() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    // Keep the listener alive but never accept/answer.
    let output = elsq_lab()
        .args(["jobs", "--connect", &addr, "--timeout", "1"])
        .output()
        .expect("run elsq-lab jobs");
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("timed out"), "{stderr}");
    assert!(
        !stderr.contains("USAGE:"),
        "a timeout is not a usage error: {stderr}"
    );
    drop(listener);
}
