//! `serve-mixed`: an in-process daemon (`Server::start` on `127.0.0.1:0`)
//! over a result store populated during set-up, and one client
//! (`client::submit`) in a closed loop with one job outstanding. Most jobs
//! are hit jobs (multi-point grids already in the store); every sixth job
//! is a miss job (one fresh point that is simulated, inserted and
//! journaled). Hit and miss jobs are reported separately.
//!
//! The mix is not taken from observed traffic: the repository holds no
//! usage or hit-ratio figures. The grids are the sweeps its documentation
//! and CI submit, at the CI serve smoke step's commit budget; "mostly
//! hits" is the only thing known about the ratio, and one miss in six is
//! a free choice. Each run records the share of window time that hit jobs
//! take, so what the gated job metrics weigh is visible.

use std::path::{Path, PathBuf};
use std::time::Instant;

use elsq_bench::cli::{render_reports, OutputFormat};
use elsq_serve::client;
use elsq_serve::protocol::{encode_line, Event};
use elsq_serve::{ServeConfig, Server, ServerHandle};
use elsq_sim::scenario::PointKey;
use elsq_sim::store::ResultStore;
use elsq_workload::suite::SUITE_SIZE;

use crate::common::{
    argv, lab, measure_window, record_canon_keys, record_render, record_setup, record_trace,
    splitmix64, sweep_scenario, Ctx, Outcome,
};
use crate::trace::Tracer;

/// Commit budget of every job's points: the budget of the CI serve smoke
/// step (`.github/workflows/ci.yml`).
const COMMITS: u64 = 2_000;
/// Every `MISS_EVERY`-th job is a miss job; the seed picks each job's
/// grid, base configuration and class.
const MISS_EVERY: u64 = 6;
/// Set-up repetitions (populate a fresh store, start the daemon). A round
/// takes under 0.1 s, too short for the host probe to time it, so its
/// raw median over many rounds is reported.
const SETUP_ROUNDS: usize = 9;
/// Deterministic counters cover the first this-many jobs, which every run
/// completes whatever the host speed.
const COUNTED_JOBS: u64 = 48;
/// Jobs per pass of a traced run (one untraced pass, one traced pass).
const TRACED_JOBS: u64 = 240;

/// The hit grids: `sweep` flags without the commit budget and seed, each
/// a grid the repository's documentation or CI submits.
const HIT_GRIDS: &[&[&str]] = &[
    // The CI sweep-cache and serve smoke steps.
    &[
        "--base",
        "fmc-hash",
        "--axis",
        "rob=48,64",
        "--axis",
        "sqm=on,off",
        "--classes",
        "fp",
    ],
    // The `submit` example of docs/SERVE.md and README.md.
    &["--axis", "rob=64,128", "--classes", "fp"],
    // The cached `sweep` example of docs/SCENARIOS.md and README.md.
    &["--base", "fmc-hash", "--axis", "sqm=on,off"],
    // The first `sweep` example of docs/SCENARIOS.md and README.md.
    &[
        "--axis",
        "rob=64,128,256",
        "--axis",
        "lsq=central,elsq",
        "--classes",
        "fp",
    ],
];
/// A miss job's base configuration: one of the hit grids' bases.
const MISS_BASES: &[&str] = &["fmc-hash", "fmc-hash-sqm"];
const CLASSES: &[&str] = &["fp", "int"];

/// What one job of the seeded sequence submits.
enum Job {
    Hit(usize),
    /// A single fresh point: the flags of its sweep.
    Miss(Vec<String>),
}

/// The seeded job sequence: job `i` of the run; `miss` numbers the miss
/// jobs so far, which makes every miss point's seed fresh.
fn job_at(seed: u64, i: u64, miss: u64) -> Job {
    let r = splitmix64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i);
    if i % MISS_EVERY == MISS_EVERY - 1 {
        let base = MISS_BASES[((r >> 8) % MISS_BASES.len() as u64) as usize];
        let class = CLASSES[((r >> 16) % CLASSES.len() as u64) as usize];
        // Fresh seeds live far above any workload seed.
        let point_seed = (1u64 << 40) + (seed << 20) + miss;
        Job::Miss(argv(&[
            "--base",
            base,
            "--axis",
            "rob=64",
            "--classes",
            class,
            "--commits",
            &COMMITS.to_string(),
            "--seed",
            &point_seed.to_string(),
        ]))
    } else {
        Job::Hit(((r >> 8) % HIT_GRIDS.len() as u64) as usize)
    }
}

fn hit_flags(ctx: &Ctx, grid: usize) -> Vec<String> {
    let mut flags = argv(HIT_GRIDS[grid]);
    flags.extend(argv(&[
        "--commits",
        &COMMITS.to_string(),
        "--seed",
        &ctx.seed.to_string(),
    ]));
    flags
}

/// The offline `sweep` of `flags` (JSON report), optionally through a
/// result store.
fn offline_sweep(ctx: &Ctx, flags: &[String], store: Option<&Path>) -> Result<String, String> {
    let mut args = vec!["sweep".to_owned()];
    args.extend_from_slice(flags);
    args.extend(argv(&["--jobs", &ctx.jobs_arg(), "--format", "json"]));
    if let Some(dir) = store {
        args.extend(argv(&["--cache", &dir.display().to_string(), "--resume"]));
    }
    lab(&args)
}

struct Daemon {
    handle: ServerHandle,
    addr: String,
    /// Offline report of each hit grid, computed while populating.
    expected: Vec<String>,
    /// Points per hit grid.
    points: Vec<u64>,
}

/// Populates a fresh store at `dir` with every hit grid (offline
/// `sweep --cache`) and starts the daemon over it.
fn start(ctx: &Ctx, dir: &Path, out: &mut Outcome) -> Option<Daemon> {
    let mut expected = Vec::new();
    let mut points = Vec::new();
    for grid in 0..HIT_GRIDS.len() {
        let flags = hit_flags(ctx, grid);
        let report = offline_sweep(ctx, &flags, Some(dir));
        out.checks.check(report.is_ok(), || {
            format!("populate grid {grid}: {:?}", report.as_ref().err())
        });
        expected.push(report.ok()?);
        points.push(
            sweep_scenario(&flags)
                .expand()
                .map_or(0, |p| p.len() as u64),
        );
    }
    let handle = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        store_dir: dir.to_path_buf(),
        resume: true,
        watchdog: None,
    });
    out.checks.check(handle.is_ok(), || {
        format!("start daemon: {:?}", handle.as_ref().err())
    });
    let handle = handle.ok()?;
    let addr = handle.local_addr().to_string();
    let ping = client::ping(&addr);
    out.checks
        .check(ping.is_ok(), || format!("ping daemon: {:?}", ping.err()));
    Some(Daemon {
        handle,
        addr,
        expected,
        points,
    })
}

fn stop(daemon: Daemon) {
    daemon.handle.shutdown();
    daemon.handle.join();
}

/// One completed job as the client saw it.
struct Done {
    hit: bool,
    /// Submit sent → Done received.
    ms: f64,
    /// Submit sent → Accepted received, and Accepted → Done.
    accept_ms: f64,
    stream_ms: f64,
    events: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    report_bytes: u64,
    store_points: u64,
}

/// Runs the closed loop over the job sequence until `until` says stop;
/// miss jobs number their fresh points from `miss_base`, and the next free
/// number is returned with the completed jobs. Miss jobs' flags and served
/// reports are kept for the offline check after the daemon stops.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    ctx: &Ctx,
    daemon: &Daemon,
    miss_base: u64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
    misses_served: &mut Vec<(Vec<String>, String)>,
    mut until: impl FnMut(u64) -> bool,
) -> (Vec<Done>, u64) {
    let mut done = Vec::new();
    let mut miss = miss_base;
    let mut i = 0u64;
    while !until(i) {
        let job = job_at(ctx.seed, i, miss);
        let (flags, hit) = match &job {
            Job::Hit(grid) => (hit_flags(ctx, *grid), Some(*grid)),
            Job::Miss(flags) => {
                miss += 1;
                (flags.clone(), None)
            }
        };
        let spec = sweep_scenario(&flags);
        let (mut events, mut bytes) = (0u64, 0u64);
        let mut accepted = None;
        let t0 = Instant::now();
        let outcome = client::submit(&daemon.addr, None, &spec, |event| {
            if accepted.is_none() {
                accepted = Some(Instant::now());
            }
            events += 1;
            if tracer.is_some() {
                bytes += encode_line(event).len() as u64;
            }
        });
        let t1 = Instant::now();
        i += 1;
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                out.checks.check(false, || format!("job {}: {e}", i - 1));
                continue;
            }
        };
        let accepted = accepted.unwrap_or(t1);
        if let Some(tracer) = tracer {
            bytes += encode_line(&Event::Done {
                job: outcome.job.clone(),
                report: outcome.report.clone(),
                hits: outcome.hits,
                misses: outcome.misses,
                failed: outcome.failed,
                store_points: outcome.store_points,
            })
            .len() as u64;
            let job = i - 1;
            tracer.span(0, "bench", "job", job, |root| {
                tracer.record(
                    root,
                    "serve",
                    "accept",
                    job,
                    tracer.ns_of(t0),
                    tracer.ns_of(accepted),
                );
                tracer.record(
                    root,
                    "serve",
                    "stream",
                    job,
                    tracer.ns_of(accepted),
                    tracer.ns_of(t1),
                );
            });
        }
        let report = render_reports(&[outcome.report], OutputFormat::Json);
        let (want_hits, want_misses) = match hit {
            Some(grid) => (daemon.points[grid], 0),
            None => (0, 1),
        };
        out.checks.check(
            (outcome.hits, outcome.misses, outcome.failed) == (want_hits, want_misses, 0),
            || {
                format!(
                    "job {}: {} hit(s) {} miss(es) {} failed, planned {want_hits}/{want_misses}/0",
                    i - 1,
                    outcome.hits,
                    outcome.misses,
                    outcome.failed
                )
            },
        );
        match hit {
            Some(grid) => out.checks.check(report == daemon.expected[grid], || {
                format!(
                    "job {}: served report differs from the offline sweep",
                    i - 1
                )
            }),
            None => misses_served.push((flags, report.clone())),
        }
        done.push(Done {
            hit: hit.is_some(),
            ms: (t1 - t0).as_secs_f64() * 1e3,
            accept_ms: (accepted - t0).as_secs_f64() * 1e3,
            stream_ms: (t1 - accepted).as_secs_f64() * 1e3,
            events: events + 1,
            bytes,
            hits: outcome.hits,
            misses: outcome.misses,
            report_bytes: report.len() as u64,
            store_points: outcome.store_points,
        });
    }
    (done, miss)
}

/// Checks every miss job's served report against the offline sweep of the
/// same spec (no store: the point is simulated afresh).
fn check_misses(ctx: &Ctx, served: &[(Vec<String>, String)], out: &mut Outcome) {
    for (flags, report) in served {
        let offline = offline_sweep(ctx, flags, None);
        out.checks.check(offline.as_ref() == Ok(report), || {
            format!("miss job {flags:?}: served report differs from the offline sweep")
        });
    }
    out.checks.note(format!(
        "ok {} miss job report(s) checked against offline sweeps",
        served.len()
    ));
}

fn record_jobs(out: &mut Outcome, prefix: &str, done: &[Done]) {
    let hit: Vec<f64> = done.iter().filter(|d| d.hit).map(|d| d.ms).collect();
    let miss: Vec<f64> = done.iter().filter(|d| !d.hit).map(|d| d.ms).collect();
    out.latency(&format!("{prefix}hit_job"), &hit);
    out.latency(&format!("{prefix}miss_job"), &miss);
    let (hit_ms, miss_ms) = (hit.iter().sum::<f64>(), miss.iter().sum::<f64>());
    out.metric(
        &format!("{prefix}hit_time_share"),
        hit_ms / (hit_ms + miss_ms).max(1e-9),
        "ratio",
    );
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    // The stores outlive the run: deleting their thousands of journal
    // files on a filesystem mounted with online discard slows the fsyncs
    // of the next run by a fifth, so every set-up round gets a store of
    // its own under `.bench_runs/stores/`, and the daemon keeps the last.
    let stores: PathBuf = Path::new(crate::RUNS_DIR)
        .join("stores")
        .join(ctx.work.file_name().expect("the work directory is named"));
    let mut setup = Vec::new();
    let mut daemon = None;
    let mut dir = PathBuf::new();
    for round in 0..SETUP_ROUNDS {
        dir = stores.join(format!("round-{round}"));
        let (started, timed) = ctx.probe.time(|| start(ctx, &dir, &mut out));
        setup.push(timed);
        match started {
            Some(d) if round + 1 == SETUP_ROUNDS => daemon = Some(d),
            Some(d) => stop(d),
            None => {}
        }
    }
    record_setup(&mut out, &setup, false);
    let Some(daemon) = daemon else {
        return out;
    };
    let manifest = |dir: &Path| std::fs::metadata(dir.join("manifest.json")).map_or(0, |m| m.len());
    out.counter("setup_manifest_bytes", manifest(&dir));
    out.counter("hit_grid_points", daemon.points.iter().sum::<u64>());

    let mut served = Vec::new();
    if !ctx.traced {
        // Every attempt starts the job sequence over (fresh miss points);
        // the counters always come from the first attempt.
        let mut next_miss = 0;
        let mut first_attempt = true;
        let (done, window_s) = measure_window(&mut out, true, |out| {
            let window = Instant::now();
            let (done, next) = closed_loop(ctx, &daemon, next_miss, None, out, &mut served, |i| {
                i >= COUNTED_JOBS && window.elapsed().as_secs_f64() >= ctx.seconds
            });
            let window_s = window.elapsed().as_secs_f64();
            if first_attempt {
                count(out, &done);
                first_attempt = false;
            }
            next_miss = next;
            (done, window_s)
        });
        stop(daemon);
        check_misses(ctx, &served, &mut out);
        let misses = done.iter().filter(|d| !d.hit).count() as f64;
        let all: Vec<f64> = done.iter().map(|d| d.ms).collect();
        out.metric("jobs_per_s", done.len() as f64 / window_s, "1/s");
        out.metric("job_p50_ms", crate::stats::median(&all), "ms");
        out.metric(
            "sim_minst_per_s",
            misses * (SUITE_SIZE as u64 * COMMITS) as f64 / window_s / 1e6,
            "Minst/s",
        );
        out.latency("job", &all);
        record_jobs(&mut out, "", &done);
        return out;
    }

    // Traced run: an untraced pass and a traced pass over the same mix
    // (the same job kinds, with fresh seeds for the second pass's misses).
    let t = Instant::now();
    let (plain, next_miss) = closed_loop(ctx, &daemon, 0, None, &mut out, &mut served, |i| {
        i >= TRACED_JOBS
    });
    let untraced_s = t.elapsed().as_secs_f64();
    count(&mut out, &plain);
    let tracer = Tracer::new();
    let t = Instant::now();
    let (done, _) = closed_loop(
        ctx,
        &daemon,
        next_miss,
        Some(&tracer),
        &mut out,
        &mut served,
        |i| i >= TRACED_JOBS,
    );
    let traced_s = t.elapsed().as_secs_f64();
    let manifest_bytes = manifest(&dir);
    let served_report = daemon.expected[0].clone();
    stop(daemon);
    check_misses(ctx, &served, &mut out);

    let spans = record_trace(&mut out, &tracer, untraced_s, traced_s, None);
    let n = done.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Done) -> f64| done.iter().map(f).sum::<f64>() / n;
    out.metric("serve.accept_ms", mean(&|d| d.accept_ms), "ms");
    out.metric("serve.stream_ms", mean(&|d| d.stream_ms), "ms");
    out.metric("serve.bytes_per_job", mean(&|d| d.bytes as f64), "B");
    out.metric("serve.events_per_job", mean(&|d| d.events as f64), "count");
    record_jobs(&mut out, "serve.", &done);
    let (hits, misses) = done
        .iter()
        .fold((0, 0), |(h, m), d| (h + d.hits, m + d.misses));
    out.metric(
        "sim.store_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.metric("sim.manifest_bytes", manifest_bytes as f64, "B");
    store_probes(ctx, &dir, &mut out);
    if let Ok(reports) = elsq_bench::diff::parse_reports(&served_report) {
        record_render(&mut out, &reports);
    }
    crate::write_spans(ctx, "serve-mixed", &spans);
    out
}

/// Deterministic counters over the first [`COUNTED_JOBS`] jobs.
fn count(out: &mut Outcome, done: &[Done]) {
    let head = &done[..done.len().min(COUNTED_JOBS as usize)];
    out.counter("counted_jobs", head.len() as u64);
    out.counter("hit_jobs", head.iter().filter(|d| d.hit).count() as u64);
    out.counter("miss_jobs", head.iter().filter(|d| !d.hit).count() as u64);
    out.counter("store_hits", head.iter().map(|d| d.hits).sum());
    out.counter("store_misses", head.iter().map(|d| d.misses).sum());
    out.counter(
        "served_report_bytes",
        head.iter().map(|d| d.report_bytes).sum(),
    );
    out.counter("events", head.iter().map(|d| d.events).sum());
    out.counter("store_points", head.last().map_or(0, |d| d.store_points));
}

/// Direct probes of the store layer once the daemon has released it:
/// `ResultStore::lookup` of every hit-grid point, `PointKey::hash`, and
/// `ResultStore::insert` of fresh keys (point file plus manifest rewrite).
fn store_probes(ctx: &Ctx, dir: &Path, out: &mut Outcome) {
    let store = match ResultStore::open(dir, true) {
        Ok(s) => s,
        Err(e) => {
            out.checks.check(false, || format!("reopen store: {e}"));
            return;
        }
    };
    let keys: Vec<PointKey> = (0..HIT_GRIDS.len())
        .flat_map(|grid| {
            let spec = sweep_scenario(&hit_flags(ctx, grid));
            let plan = spec.expand().expect("benchmark grids are valid");
            plan.points
                .into_iter()
                .map(move |p| PointKey::current(p.config, p.class, &spec.params))
        })
        .collect();
    let mut lookup_us = Vec::new();
    let mut sample = None;
    for _ in 0..20 {
        for key in &keys {
            let t = Instant::now();
            let found = store.lookup(key);
            lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
            match found {
                Ok(Some(results)) => sample = Some((key.clone(), results)),
                other => out
                    .checks
                    .check(false, || format!("lookup of a hit-grid point: {other:?}")),
            }
        }
    }
    out.metric(
        "sim.store_lookup_us",
        crate::stats::median(&lookup_us),
        "us",
    );
    out.metric(
        "sim.store_lookup_tail_us",
        crate::stats::tail(&lookup_us).map_or(0.0, |t| t.1),
        "us",
    );
    record_canon_keys(out, &keys);
    let Some((key, results)) = sample else {
        return;
    };
    let mut insert_ms = Vec::new();
    for k in 0..40u64 {
        let fresh = PointKey {
            seed: (1u64 << 50) + k,
            ..key.clone()
        };
        let t = Instant::now();
        let inserted = store.insert(&fresh, "probe", &results);
        insert_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.checks.check(inserted.is_ok(), || {
            format!("probe insert: {:?}", inserted.err())
        });
    }
    out.metric(
        "sim.store_insert_ms",
        crate::stats::median(&insert_ms),
        "ms",
    );
    out.metric(
        "sim.store_insert_tail_ms",
        crate::stats::tail(&insert_ms).map_or(0.0, |t| t.1),
        "ms",
    );
}
