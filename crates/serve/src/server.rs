//! The daemon: a TCP accept loop, a job table, and one runner thread over
//! the shared result store.
//!
//! Architecture (one paragraph): [`Server::start`] opens the store (taking
//! its advisory writer lock), replays the job journal — `Queued`/`Running`
//! records from a previous process are reset and re-enqueued in submission
//! order — binds the listener, and spawns three threads. The **accept
//! thread** blocks in `accept` and hands each connection to a short-lived
//! handler thread that parses the single request line and answers it. The
//! **signal thread** polls the SIGTERM flag ([`crate::signal`]) every
//! 15 ms, off the request path. The **runner thread**
//! executes jobs strictly one at a time under the daemon's one
//! [`RunCtx`] (built at start, with the store as its cache and the
//! worker budget fixed before any job runs), which is what makes the shared
//! store's hit/miss accounting per job exact and guarantees two clients
//! submitting overlapping grids never simulate a shared point twice: the
//! second job's overlapping points are answered from the store the first
//! job populated. (Within one job, the plan's points still fan out across
//! the persistent worker pool — serialization is per job, not per point.)
//! Each class group of a plan is journaled with one record write and only
//! then streamed: progress events fan out to per-job subscriber channels,
//! and a connection is a subscriber from `Accepted` until the terminal
//! event.
//!
//! Shutdown is graceful: a *drain* shutdown lets the running job finish, a
//! plain one cancels it at its next class-group boundary (finished points
//! are in the store, so a resubmission resumes from them); queued jobs stay
//! journaled either way (the next boot re-enqueues them), and waiting
//! connections get [`Event::Stopping`]. SIGTERM (when the CLI installed the
//! trap) behaves like a plain shutdown. A shutdown request wakes the
//! blocked `accept` by connecting once to the listener itself.
//!
//! **Robustness**: the plan runs on a dedicated worker thread whose points
//! are panic-isolated — a point that panics (or whose cache write-back
//! fails) becomes an [`Event::PointFailed`] and the job finishes *degraded*
//! (`Done` with `failed > 0`); resubmitting a degraded job re-runs only the
//! failed/missing points. A configurable watchdog
//! ([`ServeConfig::watchdog`]) marks a wedged job `Failed` when no point
//! completes within the window, and the abandoned worker is poisoned so it
//! cannot journal stale progress if it ever revives.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use elsq_sim::driver::RunCtx;
use elsq_sim::pool::{max_threads, panic_message};
use elsq_sim::scenario::{run_plan, sweep_report, PointOutcome, SweepPlan};
use elsq_sim::store::{write_json_atomic, ResultStore};
use elsq_sim::ScenarioSpec;
use elsq_stats::report::Report;

use crate::job::{self, validate_job_id, JobRecord, PointEvent, JOB_RECORD_VERSION};
use crate::protocol::{self, Event, JobState, Request, PROTOCOL_VERSION};

/// How the daemon is configured (the `elsq-lab serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to listen on; port 0 picks a free port (the bound address
    /// is reported by [`ServerHandle::local_addr`]).
    pub addr: String,
    /// The shared result-store directory (also holds the `jobs/` journal).
    pub store_dir: PathBuf,
    /// Reuse a store directory that already holds cached points — required
    /// on every restart, exactly like `sweep --resume`.
    pub resume: bool,
    /// Per-job progress watchdog: when set, a job that completes no point
    /// for this long is marked `Failed` (naming the watchdog) and the
    /// runner moves on. `None` disables the watchdog.
    pub watchdog: Option<Duration>,
}

/// The daemon entry point; see [`Server::start`].
pub struct Server;

/// A running daemon: the bound address plus the accept, runner and signal
/// threads.
pub struct ServerHandle {
    local_addr: SocketAddr,
    inner: Arc<Inner>,
    accept: std::thread::JoinHandle<()>,
    runner: std::thread::JoinHandle<()>,
    signal: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The actually-bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests a graceful *drain* stop, exactly like a
    /// [`Request::Shutdown`] with `drain: true` from a client: the running
    /// job finishes, queued jobs stay journaled.
    pub fn shutdown(&self) {
        self.inner.request_shutdown(true);
    }

    /// Requests a fast stop, like [`Request::Shutdown`] with
    /// `drain: false`: the running job is cancelled at its next class-group
    /// boundary and re-queued; its finished points are in the store.
    pub fn shutdown_now(&self) {
        self.inner.request_shutdown(false);
    }

    /// Waits for the accept, runner and signal threads to exit (after a
    /// shutdown request). The store lock is released when the last thread
    /// drops its handle on the store.
    pub fn join(self) {
        let _ = self.accept.join();
        let _ = self.runner.join();
        let _ = self.signal.join();
    }
}

struct ServeState {
    records: BTreeMap<String, JobRecord>,
    queue: VecDeque<String>,
    subscribers: HashMap<String, Vec<mpsc::Sender<Event>>>,
}

struct Inner {
    store: Arc<ResultStore>,
    /// Every job runs under this context: `store` as its cache and
    /// `cancel` as its cancel flag.
    ctx: RunCtx,
    store_dir: PathBuf,
    /// Where a shutdown connects to wake the blocked `accept`: the bound
    /// address, with an unspecified IP replaced by loopback.
    wake_addr: SocketAddr,
    state: Mutex<ServeState>,
    work: Condvar,
    shutdown: AtomicBool,
    /// Set by a non-drain shutdown: the running plan stops at its next
    /// class-group boundary.
    cancel: Arc<AtomicBool>,
    watchdog: Option<Duration>,
    next_seq: AtomicU64,
    unique: AtomicU64,
}

impl Inner {
    fn lock_state(&self) -> MutexGuard<'_, ServeState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn journal(&self, record: &JobRecord) -> Result<(), String> {
        job::write_record(
            &self.store_dir,
            record,
            self.unique.fetch_add(1, Ordering::Relaxed),
        )
    }

    /// Sets the shutdown flag and wakes the runner; a non-drain shutdown
    /// additionally asks the running plan to stop at its next class-group
    /// boundary. The notify happens under the state mutex so a runner
    /// between its flag check and its condvar wait cannot miss the wakeup.
    /// The first request also connects once to the listener: the accept
    /// thread wakes, sees the flag (set before the connect) and exits.
    fn request_shutdown(&self, drain: bool) {
        let first = !self.shutdown.swap(true, Ordering::SeqCst);
        if !drain {
            self.cancel.store(true, Ordering::SeqCst);
        }
        {
            let _state = self.lock_state();
            self.work.notify_all();
        }
        if first {
            // A failed connect means the listener is already gone.
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }

    /// Mutates the job's record under the lock and journals the result.
    /// Returns the journal outcome (`Ok` for an unknown job: it can only
    /// mean the record was pruned, never a half-journaled state).
    fn update_record(&self, id: &str, mutate: impl FnOnce(&mut JobRecord)) -> Result<(), String> {
        let record = {
            let mut state = self.lock_state();
            state.records.get_mut(id).map(|record| {
                mutate(record);
                record.clone()
            })
        };
        match record {
            Some(record) => self.journal(&record),
            None => Ok(()),
        }
    }

    /// Streams a non-terminal event to the job's subscribers, dropping
    /// subscribers whose connection has gone away.
    fn emit(&self, job: &str, event: &Event) {
        let mut state = self.lock_state();
        if let Some(subs) = state.subscribers.get_mut(job) {
            subs.retain(|sub| sub.send(event.clone()).is_ok());
        }
    }

    /// Streams the terminal event and deregisters the job's subscribers.
    fn finish(&self, job: &str, event: &Event) {
        let mut state = self.lock_state();
        if let Some(subs) = state.subscribers.remove(job) {
            for sub in subs {
                let _ = sub.send(event.clone());
            }
        }
    }
}

impl Server {
    /// [`Server::start_with_workers`] with the default worker count:
    /// `ELSQ_THREADS` if set, otherwise the machine's available
    /// parallelism.
    pub fn start(config: ServeConfig) -> Result<ServerHandle, String> {
        Self::start_with_workers(config, max_threads())
    }

    /// Opens the store, replays the journal, binds the listener and spawns
    /// the accept and runner threads; every job runs with `workers` threads
    /// per fan-out level. Fails loudly (returning the message) on a locked
    /// or corrupt store, a corrupt journal, or an unbindable address.
    pub fn start_with_workers(config: ServeConfig, workers: usize) -> Result<ServerHandle, String> {
        let store = Arc::new(ResultStore::open(&config.store_dir, config.resume)?);
        let records = job::load_records(&config.store_dir)?;
        let mut table = BTreeMap::new();
        let mut queue = VecDeque::new();
        let mut max_seq = 0;
        for mut record in records {
            max_seq = max_seq.max(record.seq);
            if matches!(record.state, JobState::Queued | JobState::Running) {
                // A `Running` record means the previous process died
                // mid-job; its finished points are already in the store, so
                // the re-run only simulates the missing ones. Counters
                // restart with the run.
                record.state = JobState::Queued;
                record.completed = 0;
                record.hits = 0;
                record.misses = 0;
                record.failed = 0;
                record.events.clear();
                record.error = None;
                job::write_record(&config.store_dir, &record, 0)?;
                queue.push_back(record.id.clone());
            }
            table.insert(record.id.clone(), record);
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot listen on {}: {e}", config.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let mut wake_addr = local_addr;
        if local_addr.ip().is_unspecified() {
            wake_addr.set_ip(match local_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let cancel = Arc::new(AtomicBool::new(false));
        let ctx = RunCtx {
            cache: Some(Arc::clone(&store)),
            cancel: Some(Arc::clone(&cancel)),
            ..RunCtx::new(workers)
        };
        let inner = Arc::new(Inner {
            store,
            ctx,
            store_dir: config.store_dir,
            wake_addr,
            state: Mutex::new(ServeState {
                records: table,
                queue,
                subscribers: HashMap::new(),
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cancel,
            watchdog: config.watchdog,
            next_seq: AtomicU64::new(max_seq + 1),
            unique: AtomicU64::new(1),
        });
        let runner = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("elsq-serve-runner".into())
                .spawn(move || runner_loop(inner))
                .map_err(|e| format!("cannot spawn runner thread: {e}"))?
        };
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("elsq-serve-accept".into())
                .spawn(move || accept_loop(inner, listener))
                .map_err(|e| format!("cannot spawn accept thread: {e}"))?
        };
        let signal = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("elsq-serve-signal".into())
                .spawn(move || signal_loop(&inner))
                .map_err(|e| format!("cannot spawn signal thread: {e}"))?
        };
        Ok(ServerHandle {
            local_addr,
            inner,
            accept,
            runner,
            signal,
        })
    }
}

// ---------------------------------------------------------------------------
// Runner thread: jobs, one at a time, over the shared store.

fn runner_loop(inner: Arc<Inner>) {
    loop {
        let job_id = {
            let mut state = inner.lock_state();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(id) = state.queue.pop_front() {
                    break Some(id);
                }
                state = inner
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job_id) = job_id else { break };
        run_job(&inner, &job_id);
    }
    // No more events are coming: release every connection still waiting on
    // a job. Queued jobs stay journaled for the next boot.
    let mut state = inner.lock_state();
    for (_, subs) in state.subscribers.drain() {
        for sub in subs {
            let _ = sub.send(Event::Stopping);
        }
    }
}

/// How a job's worker thread ended.
enum WorkerEnd {
    /// Every point resolved (some possibly [`PointOutcome::Failed`]).
    Finished(elsq_sim::scenario::PlanResults),
    /// The plan was cancelled at a group boundary (non-drain shutdown).
    Cancelled(String),
    /// The plan run itself panicked (e.g. a corrupt cache lookup or a
    /// failed journal write) — a whole-job failure, not a point failure.
    Panicked(String),
}

/// What the worker sends the runner: a heartbeat per emitted point event
/// (the watchdog food) or the terminal outcome.
enum WorkerMsg {
    Progress,
    End(WorkerEnd),
}

fn run_job(inner: &Arc<Inner>, id: &str) {
    let spec = {
        let state = inner.lock_state();
        match state.records.get(id) {
            Some(record) => record.spec.clone(),
            None => return,
        }
    };
    if let Err(e) = inner.update_record(id, |r| r.state = JobState::Running) {
        return fail_job(inner, id, format!("cannot journal job start: {e}"));
    }
    // Submission already validated expansion, but the journal may hold a
    // job from an older binary whose spec no longer expands.
    let plan = match spec.expand() {
        Ok(plan) => Arc::new(plan),
        Err(e) => return fail_job(inner, id, format!("scenario does not expand: {e}")),
    };
    let total = plan.len() as u64;
    // Per-job hit/miss counts are deltas of the store's counters — exact
    // because jobs are serialized on this thread.
    let hits_before = inner.store.hits();
    let misses_before = inner.store.misses();
    // Pre-classify the points so progress events can say "cached" without
    // touching the counters the deltas are computed from.
    let cached: Arc<Vec<bool>> = Arc::new(
        plan.points
            .iter()
            .map(|p| {
                inner
                    .store
                    .contains(&inner.ctx.point_key(p.config, p.class, &spec.params))
            })
            .collect(),
    );
    // The plan runs on a dedicated worker thread so the runner can watchdog
    // it; a wedged worker is *abandoned* (not joined — threads cannot be
    // killed) and the flag below makes it panic out at its next progress
    // point instead of journaling stale state.
    let abandoned = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<WorkerMsg>();
    let spawned = {
        let inner = Arc::clone(inner);
        let id = id.to_owned();
        let plan = Arc::clone(&plan);
        let cached = Arc::clone(&cached);
        let abandoned = Arc::clone(&abandoned);
        let spec = spec.clone();
        let tx_end = tx.clone();
        std::thread::Builder::new()
            .name(format!("elsq-serve-job-{id}"))
            .spawn(move || {
                let end = job_worker(&inner, &id, &spec, &plan, &cached, total, &abandoned, &tx);
                let _ = tx_end.send(WorkerMsg::End(end));
            })
    };
    if let Err(e) = spawned {
        return fail_job(inner, id, format!("cannot spawn job worker: {e}"));
    }
    let end = loop {
        let msg = match inner.watchdog {
            Some(window) => match rx.recv_timeout(window) {
                Ok(msg) => msg,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    abandoned.store(true, Ordering::SeqCst);
                    return fail_job(
                        inner,
                        id,
                        format!(
                            "watchdog: no point completed in {}s; the job is wedged",
                            window.as_secs()
                        ),
                    );
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    break WorkerEnd::Panicked("job worker died without reporting".to_owned())
                }
            },
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => {
                    break WorkerEnd::Panicked("job worker died without reporting".to_owned())
                }
            },
        };
        match msg {
            WorkerMsg::Progress => continue,
            WorkerMsg::End(end) => break end,
        }
    };
    match end {
        WorkerEnd::Finished(results) => {
            let failed = results.failed();
            let failed_count = failed.len() as u64;
            let report = sweep_report(&spec, &plan, &results);
            let unique = inner.unique.fetch_add(1, Ordering::Relaxed);
            // Report before record: a record that says Done guarantees the
            // report file exists (mirroring point-before-manifest in the
            // store).
            if let Err(e) =
                write_json_atomic(&job::report_path(&inner.store_dir, id), &report, unique)
            {
                return fail_job(inner, id, format!("cannot write job report: {e}"));
            }
            let hits = inner.store.hits() - hits_before;
            let misses = inner.store.misses() - misses_before;
            if let Err(e) = inner.update_record(id, |r| {
                r.state = JobState::Done;
                r.completed = total;
                r.hits = hits;
                r.misses = misses;
                r.failed = failed_count;
            }) {
                return fail_job(inner, id, format!("cannot journal job completion: {e}"));
            }
            inner.finish(
                id,
                &Event::Done {
                    job: id.to_owned(),
                    report,
                    hits,
                    misses,
                    failed: failed_count,
                    store_points: inner.store.len() as u64,
                },
            );
        }
        WorkerEnd::Cancelled(_why) => {
            // Put the job back in line for the next boot (the shutdown flag
            // is already set, so this runner will not pick it up again);
            // its finished points are in the store.
            let _ = inner.update_record(id, |r| {
                r.state = JobState::Queued;
                r.completed = 0;
                r.hits = 0;
                r.misses = 0;
                r.failed = 0;
                r.events.clear();
                r.error = None;
            });
            inner.finish(id, &Event::Stopping);
        }
        WorkerEnd::Panicked(message) => fail_job(inner, id, message),
    }
}

/// The body of one job's worker thread: runs the plan under panic
/// isolation, journaling each class group once and then emitting its
/// per-point events.
#[allow(clippy::too_many_arguments)]
fn job_worker(
    inner: &Arc<Inner>,
    id: &str,
    spec: &ScenarioSpec,
    plan: &SweepPlan,
    cached: &[bool],
    total: u64,
    abandoned: &AtomicBool,
    heartbeat: &mpsc::Sender<WorkerMsg>,
) -> WorkerEnd {
    let hits_base = inner.store.hits();
    let misses_base = inner.store.misses();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut done = 0u64;
        let mut failed_so_far = 0u64;
        run_plan(&inner.ctx, plan, &spec.params, |group| {
            if abandoned.load(Ordering::SeqCst) {
                // The watchdog already declared this job dead; a stale
                // journal write here would corrupt the successor run.
                panic!("job `{id}` was abandoned by the watchdog");
            }
            let mut entries = Vec::with_capacity(group.len());
            for (point, outcome) in group {
                done += 1;
                if outcome.is_failed() {
                    failed_so_far += 1;
                }
                let index = plan
                    .points
                    .iter()
                    .position(|p| p.label == point.label && p.class == point.class)
                    .expect("observed point is in the plan");
                let (site, error) = match outcome {
                    PointOutcome::Ok(_) => (None, None),
                    PointOutcome::Failed { site, msg } => (Some(site.clone()), Some(msg.clone())),
                };
                entries.push(PointEvent {
                    seq: done,
                    done,
                    label: point.label.clone(),
                    class: point.class,
                    cached: cached[index],
                    site,
                    error,
                });
            }
            let hits = inner.store.hits() - hits_base;
            let misses = inner.store.misses() - misses_base;
            // Journal before emit: a Resume replay from the record is
            // then guaranteed to cover everything ever emitted.
            inner
                .update_record(id, |r| {
                    r.completed = done;
                    r.hits = hits;
                    r.misses = misses;
                    r.failed = failed_so_far;
                    r.events.extend_from_slice(&entries);
                })
                .unwrap_or_else(|e| panic!("job journal write failed: {e}"));
            for entry in &entries {
                inner.emit(id, &entry.to_event(id, total));
                let _ = heartbeat.send(WorkerMsg::Progress);
            }
        })
    }));
    match outcome {
        Ok(results) => match results.cancelled() {
            Some(why) => WorkerEnd::Cancelled(why.to_owned()),
            None => WorkerEnd::Finished(results),
        },
        Err(panic) => WorkerEnd::Panicked(panic_message(panic.as_ref())),
    }
}

fn fail_job(inner: &Arc<Inner>, id: &str, error: String) {
    // Best-effort journal: the failure must reach subscribers even if the
    // disk is the thing that is broken.
    let _ = inner.update_record(id, |r| {
        r.state = JobState::Failed;
        r.error = Some(error.clone());
    });
    inner.finish(
        id,
        &Event::Failed {
            job: id.to_owned(),
            error,
        },
    );
}

// ---------------------------------------------------------------------------
// Accept thread and per-connection handlers.

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        // A shutdown sets the flag and then connects to wake this accept;
        // whatever arrives once the flag is set is dropped unanswered.
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let inner = Arc::clone(&inner);
                // One short-lived thread per connection: a connection is
                // one request, answered by at most one job's event stream.
                let _ = std::thread::Builder::new()
                    .name("elsq-serve-conn".into())
                    .spawn(move || handle_connection(inner, stream));
            }
            // A failed accept (e.g. out of file descriptors) backs off
            // instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(15)),
        }
    }
}

/// SIGTERM (when the CLI installed the trap) is a fast shutdown: cancel the
/// running job at its next group boundary and exit; the journal and store
/// make the next boot resume cleanly. The flag is polled here, every
/// 15 ms, so no request ever waits on the poll.
fn signal_loop(inner: &Inner) {
    while !inner.shutdown.load(Ordering::SeqCst) {
        if crate::signal::sigterm_pending() {
            inner.request_shutdown(false);
            break;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
}

/// The fault-injection site name of per-connection event sends.
const SERVE_EVENT_SITE: &str = "serve.event";

fn send(writer: &mut TcpStream, event: &Event) -> std::io::Result<()> {
    if let Some(injected) = elsq_sim::fault::fire(SERVE_EVENT_SITE) {
        match injected.action {
            elsq_sim::FaultAction::Drop => {
                // Simulate the connection dying mid-stream: the caller
                // sees a send error and closes, exactly like a real peer
                // reset. The client's Resume path recovers from here.
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "injected connection drop",
                ));
            }
            elsq_sim::FaultAction::Stall { ms } => {
                std::thread::sleep(Duration::from_millis(ms));
            }
            _ => {}
        }
    }
    writer.write_all(protocol::encode_line(event).as_bytes())?;
    writer.flush()
}

fn handle_connection(inner: Arc<Inner>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut line = String::new();
    if BufReader::new(read_half).read_line(&mut line).is_err() || line.trim().is_empty() {
        return;
    }
    let request: Request = match protocol::decode_line(&line) {
        Ok(request) => request,
        Err(message) => {
            let _ = send(&mut writer, &Event::Error { message });
            return;
        }
    };
    match request {
        Request::Ping => {
            let _ = send(
                &mut writer,
                &Event::Pong {
                    version: PROTOCOL_VERSION,
                },
            );
        }
        Request::Jobs => {
            let jobs = {
                let state = inner.lock_state();
                let mut records: Vec<&JobRecord> = state.records.values().collect();
                records.sort_by_key(|r| r.seq);
                records.iter().map(|r| r.summary()).collect()
            };
            let _ = send(&mut writer, &Event::Jobs { jobs });
        }
        Request::Report { job } => {
            let state_of_job = {
                let state = inner.lock_state();
                state.records.get(&job).map(|r| r.state)
            };
            let event = match state_of_job {
                None => Event::Error {
                    message: format!("unknown job `{job}`"),
                },
                Some(JobState::Done) => match load_report(&inner.store_dir, &job) {
                    Ok(report) => Event::Report { job, report },
                    Err(message) => Event::Error { message },
                },
                Some(state) => Event::Error {
                    message: format!("job `{job}` is {state:?}, not Done"),
                },
            };
            let _ = send(&mut writer, &event);
        }
        Request::Shutdown { drain } => {
            inner.request_shutdown(drain);
            let _ = send(&mut writer, &Event::Stopping);
        }
        Request::Submit { version, id, spec } => {
            if let Some(error) = version_mismatch(version) {
                let _ = send(&mut writer, &error);
                return;
            }
            handle_submit(&inner, &mut writer, id, spec);
        }
        Request::Resume {
            version,
            job,
            after_seq,
        } => {
            if let Some(error) = version_mismatch(version) {
                let _ = send(&mut writer, &error);
                return;
            }
            handle_resume(&inner, &mut writer, &job, after_seq);
        }
    }
}

/// The rejection for a client speaking a different protocol version.
fn version_mismatch(client: u32) -> Option<Event> {
    (client != PROTOCOL_VERSION).then(|| Event::Error {
        message: format!(
            "client speaks protocol v{client} but this server speaks \
             v{PROTOCOL_VERSION}; upgrade the older side"
        ),
    })
}

/// Handles a [`Request::Resume`]: re-attach to `job`'s stream, replaying
/// the journaled events with `seq > after_seq` first. Subscribing and
/// snapshotting the record happen under one lock, and the worker journals
/// every event *before* emitting it — so the snapshot plus the live stream
/// (filtered to `seq >` what the replay covered) is exactly the full
/// sequence, no gaps and no duplicates.
fn handle_resume(inner: &Arc<Inner>, writer: &mut TcpStream, job: &str, after_seq: u64) {
    let (record, rx) = {
        let mut state = inner.lock_state();
        let Some(record) = state.records.get(job).cloned() else {
            let _ = send(
                writer,
                &Event::Error {
                    message: format!("unknown job `{job}`"),
                },
            );
            return;
        };
        let rx = match record.state {
            JobState::Queued | JobState::Running => {
                let (tx, rx) = mpsc::channel();
                state
                    .subscribers
                    .entry(job.to_owned())
                    .or_default()
                    .push(tx);
                Some(rx)
            }
            JobState::Done | JobState::Failed => None,
        };
        (record, rx)
    };
    let accepted = Event::Accepted {
        job: record.id.clone(),
        points: record.total,
        attached: true,
    };
    if send(writer, &accepted).is_err() {
        return;
    }
    let mut replayed_to = after_seq;
    for entry in &record.events {
        if entry.seq <= after_seq {
            continue;
        }
        replayed_to = replayed_to.max(entry.seq);
        if send(writer, &entry.to_event(&record.id, record.total)).is_err() {
            return;
        }
    }
    match rx {
        // Terminal job: replay its terminal event and close.
        None => {
            let terminal = terminal_event(inner, &record);
            let _ = send(writer, &terminal);
        }
        Some(rx) => stream_events(writer, replayed_to, rx),
    }
}

/// The terminal event a finished job replays: `Failed` with its journaled
/// error, or `Done` with the report read back from disk.
fn terminal_event(inner: &Arc<Inner>, record: &JobRecord) -> Event {
    match record.state {
        JobState::Failed => Event::Failed {
            job: record.id.clone(),
            error: record.error.clone().unwrap_or_default(),
        },
        _ => match load_report(&inner.store_dir, &record.id) {
            Ok(report) => Event::Done {
                job: record.id.clone(),
                report,
                hits: record.hits,
                misses: record.misses,
                failed: record.failed,
                store_points: inner.store.len() as u64,
            },
            Err(message) => Event::Error { message },
        },
    }
}

fn load_report(store_dir: &std::path::Path, id: &str) -> Result<Report, String> {
    let path = job::report_path(store_dir, id);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read job report {}: {e}", path.display()))?;
    serde_json::from_str(&text)
        .map_err(|e| format!("job report {} is corrupt: {e}", path.display()))
}

/// How a submit request resolved under the state lock.
enum Admission {
    /// Stream the job's events: either a fresh job was journaled and
    /// enqueued, or the request attached to an in-flight job with the same
    /// id and spec.
    Stream {
        /// The (possibly server-assigned) job id.
        id: String,
        /// The subscriber end.
        rx: mpsc::Receiver<Event>,
        /// `true` when attached to an existing job rather than creating it.
        attached: bool,
    },
    /// Same id + same spec, job already terminal: replay the outcome from
    /// the journal.
    Replay(Box<JobRecord>),
    /// The request was rejected.
    Rejected(String),
}

fn handle_submit(
    inner: &Arc<Inner>,
    writer: &mut TcpStream,
    id: Option<String>,
    spec: ScenarioSpec,
) {
    // Expand up front: a spec that does not expand is a usage error the
    // client should hear immediately, not a Failed job.
    let plan = match spec.expand() {
        Ok(plan) => plan,
        Err(e) => {
            let _ = send(
                writer,
                &Event::Error {
                    message: format!("scenario does not expand: {e}"),
                },
            );
            return;
        }
    };
    if let Some(id) = &id {
        if let Err(message) = validate_job_id(id) {
            let _ = send(writer, &Event::Error { message });
            return;
        }
    }
    let total = plan.len() as u64;

    let admission = {
        let mut state = inner.lock_state();
        if inner.shutdown.load(Ordering::SeqCst) {
            Admission::Rejected("server is stopping; resubmit after restart".to_owned())
        } else if let Some(existing) = id.as_ref().and_then(|id| state.records.get(id)) {
            if existing.spec != spec {
                Admission::Rejected(format!(
                    "job `{}` already exists with a different spec; pick a new id",
                    existing.id
                ))
            } else {
                match existing.state {
                    // A degraded job (Done with failures) re-enqueues on
                    // resubmit: its successful points are in the store and
                    // replay as hits; only the failed/missing points run.
                    JobState::Done if existing.failed > 0 => {
                        let id = existing.id.clone();
                        let mut record = existing.clone();
                        record.state = JobState::Queued;
                        record.completed = 0;
                        record.hits = 0;
                        record.misses = 0;
                        record.failed = 0;
                        record.events.clear();
                        record.error = None;
                        match inner.journal(&record) {
                            Err(e) => Admission::Rejected(format!(
                                "cannot re-journal degraded job `{id}`: {e}"
                            )),
                            Ok(()) => {
                                state.records.insert(id.clone(), record);
                                state.queue.push_back(id.clone());
                                let (tx, rx) = mpsc::channel();
                                state.subscribers.entry(id.clone()).or_default().push(tx);
                                inner.work.notify_all();
                                Admission::Stream {
                                    id,
                                    rx,
                                    attached: true,
                                }
                            }
                        }
                    }
                    JobState::Done | JobState::Failed => {
                        Admission::Replay(Box::new(existing.clone()))
                    }
                    JobState::Queued | JobState::Running => {
                        let id = existing.id.clone();
                        let (tx, rx) = mpsc::channel();
                        state.subscribers.entry(id.clone()).or_default().push(tx);
                        Admission::Stream {
                            id,
                            rx,
                            attached: true,
                        }
                    }
                }
            }
        } else {
            // Fresh job. A server-assigned id is `j<seq>`; seqs only grow,
            // so the loop terminates even if a client squatted on one.
            let mut seq = inner.next_seq.fetch_add(1, Ordering::SeqCst);
            let id = match id {
                Some(id) => id,
                None => loop {
                    let candidate = format!("j{seq}");
                    if !state.records.contains_key(&candidate) {
                        break candidate;
                    }
                    seq = inner.next_seq.fetch_add(1, Ordering::SeqCst);
                },
            };
            let record = JobRecord {
                version: JOB_RECORD_VERSION,
                seq,
                id: id.clone(),
                state: JobState::Queued,
                spec,
                total,
                completed: 0,
                hits: 0,
                misses: 0,
                failed: 0,
                events: Vec::new(),
                error: None,
                checksum: 0,
            };
            // Journal before admitting: an accepted job must survive a
            // crash, or "resumes journaled incomplete jobs" is a lie.
            match inner.journal(&record) {
                Err(e) => Admission::Rejected(format!("cannot journal job `{id}`: {e}")),
                Ok(()) => {
                    state.records.insert(id.clone(), record);
                    state.queue.push_back(id.clone());
                    let (tx, rx) = mpsc::channel();
                    state.subscribers.entry(id.clone()).or_default().push(tx);
                    inner.work.notify_all();
                    Admission::Stream {
                        id,
                        rx,
                        attached: false,
                    }
                }
            }
        }
    };

    match admission {
        Admission::Rejected(message) => {
            let _ = send(writer, &Event::Error { message });
        }
        Admission::Replay(record) => {
            let accepted = Event::Accepted {
                job: record.id.clone(),
                points: record.total,
                attached: true,
            };
            if send(writer, &accepted).is_err() {
                return;
            }
            let terminal = terminal_event(inner, &record);
            let _ = send(writer, &terminal);
        }
        Admission::Stream { id, rx, attached } => {
            let accepted = Event::Accepted {
                job: id.clone(),
                points: total,
                attached,
            };
            if send(writer, &accepted).is_err() {
                return;
            }
            stream_events(writer, 0, rx);
        }
    }
}

/// The per-point sequence number of an event, for resume-cursor filtering.
fn event_seq(event: &Event) -> Option<u64> {
    match event {
        Event::Point { seq, .. } | Event::PointFailed { seq, .. } => Some(*seq),
        _ => None,
    }
}

/// Streams live events to the client, skipping per-point events with
/// `seq <= already_seen` (a Resume replay may race the live stream; the
/// filter makes the overlap harmless).
fn stream_events(writer: &mut TcpStream, already_seen: u64, rx: mpsc::Receiver<Event>) {
    for event in rx {
        if event_seq(&event).is_some_and(|seq| seq <= already_seen) {
            continue;
        }
        let terminal = matches!(
            event,
            Event::Done { .. } | Event::Failed { .. } | Event::Stopping
        );
        // On a send error the client went away: dropping `rx` kills our
        // sender, and the dead sender is pruned on the next emit.
        if send(writer, &event).is_err() || terminal {
            return;
        }
    }
}
