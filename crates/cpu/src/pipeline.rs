//! The cycle-accounting pipeline shared by the OoO-64 baseline and the FMC
//! large-window processor.
//!
//! The model processes the dynamic instruction stream in program order and
//! computes, for every instruction, the cycle at which each pipeline event
//! happens — fetch, dispatch, issue (address calculation for memory
//! operations), memory access, completion and commit — under explicit
//! structural constraints:
//!
//! * fetch, issue, commit and cache-port bandwidth (port schedules; commit
//!   grants never go backwards, so commit counts on an in-order port),
//! * CP reorder-buffer occupancy (an instruction cannot be fetched until the
//!   instruction `ROB_SIZE` positions earlier has left the CP),
//! * LSQ occupancy (HL-LSQ or central queue entries),
//! * Memory-Processor window and epoch/Memory-Engine capacity (FMC only),
//! * in-order, 2-wide issue inside each Memory Engine,
//! * CP↔MP network latencies for migration, remote cache access and
//!   remote LSQ searches,
//! * branch mispredictions with wrong-path fetch until the branch resolves,
//! * store-load ordering violations, line-locking conflicts and SVW
//!   re-executions.
//!
//! Data values are never computed: workload generators provide addresses and
//! branch outcomes, and register dependences only influence *timing* through
//! each architectural register's ready cycle.
//!
//! `process_inst` runs one instruction through the stage functions
//! `fetch_dispatch`, `migrates` (the migration decision), `execute_cp` or
//! `execute_me` (Memory Engine, with epoch management), `commit` and
//! `retire`. Every correct-path load and store reaches the LSQ and the
//! cache through one function, `execute_mem`; a load's cache side is
//! `access_load`, which wrong-path loads share. A wrong-path load takes no
//! LSQ entry: only stores search load queues and a wrong path has none, so
//! it makes only the search half of a load issue, and the load queue's
//! free entries at the start of the burst bound how many loads issue. The
//! only site-dependent rules of the memory path are:
//!
//! * a Memory Engine load that does not forward reserves its cache port at
//!   issue + `network_one_way`, completes `network_one_way` later, and
//!   `2 × network_one_way` later still under a central LSQ;
//! * a forwarded load makes no cache access in a Memory Engine; in the
//!   Cache Processor it still takes a port and accesses the hierarchy;
//! * a load squashes at issue on a lock conflict, a store at completion on
//!   a lock conflict or a violation (only Memory Engines see lock
//!   conflicts), and a store completes at `max(issue, ready) + 1 + extra`.

use std::collections::VecDeque;

use elsq_core::queue::{LoadOutcome, MemOpKind};
use elsq_core::svw::{LoadVulnerability, SvwReexecutor};
use elsq_isa::{DynInst, MemAccess, OpClass, TraceSource};
use elsq_mem::hierarchy::MemoryHierarchy;
use elsq_mem::ports::{InOrderPort, PortSchedule};
use elsq_stats::sampling::{SamplingSpec, SamplingStats, WindowSample};

use crate::config::{CpuConfig, FmcConfig, LsqKind};
use crate::lsq_driver::{ExecSite, LsqDriver};
use crate::result::SimResult;

/// Number of architectural registers tracked (32 int + 32 fp).
const NUM_REGS: usize = 64;

/// How many recent store commits are remembered for SVW safe-SSN lookups.
const STORE_COMMIT_LOG: usize = 8192;

/// Fixed penalty charged when a load only partially overlaps the store it
/// would forward from (it must wait for the store to reach the cache).
const PARTIAL_OVERLAP_PENALTY: u64 = 30;

/// The port schedules are pruned each time the last commit cycle has
/// advanced this many cycles since the previous prune.
const PRUNE_EVERY_CYCLES: u64 = 4096;

/// How far behind the last commit cycle the pruning horizon trails.
const PRUNE_TRAIL_CYCLES: u64 = 2 + 10_000;

/// The processor model.
#[derive(Debug, Clone)]
pub struct Processor {
    config: CpuConfig,
}

/// Book-keeping for the epoch / Memory Engine currently being filled.
#[derive(Debug, Clone, Copy)]
struct OpenEpoch {
    bank: usize,
    inst_count: usize,
    /// Commit cycle of the youngest instruction placed in the epoch so far —
    /// the epoch can be retired after this cycle.
    release: u64,
}

/// Release cycles of the occupants of the ROB, the Memory-Processor window,
/// the LQ or the SQ, oldest first: once `cap` are in flight a newcomer waits
/// for the oldest to leave. An unbounded structure (`None`) records nothing.
#[derive(Debug)]
struct Occupancy {
    cap: Option<usize>,
    release: VecDeque<u64>,
}

impl Occupancy {
    fn new(cap: Option<usize>) -> Self {
        let release = VecDeque::with_capacity(cap.map_or(0, |c| c + 1));
        Self { cap, release }
    }

    /// The earliest cycle, not before `cycle`, at which a new occupant can
    /// enter.
    fn entry(&self, cycle: u64) -> u64 {
        match (self.cap, self.release.front()) {
            (Some(cap), Some(&oldest)) if self.release.len() >= cap => cycle.max(oldest),
            _ => cycle,
        }
    }

    /// Records `n` occupants that leave at `release`.
    fn push(&mut self, release: u64, n: u64) {
        let Some(cap) = self.cap else { return };
        for _ in 0..n.min(cap as u64) {
            self.release.push_back(release);
            if self.release.len() > cap {
                self.release.pop_front();
            }
        }
    }
}

struct RunState {
    hierarchy: MemoryHierarchy,
    lsq: LsqDriver,
    svw: Option<SvwReexecutor>,
    /// Ready cycle of each register. The zero register is never written, so
    /// it is always ready.
    reg_ready: [u64; NUM_REGS],
    fetch_ports: PortSchedule,
    issue_ports: PortSchedule,
    commit_port: InOrderPort,
    cache_ports: PortSchedule,
    /// In-order issue of each Memory Engine.
    me_issue: Vec<InOrderPort>,
    rob: Occupancy,
    mp_window: Occupancy,
    lq: Occupancy,
    sq: Occupancy,
    store_commit_log: VecDeque<(u64, u64)>,
    fetch_blocked_until: u64,
    last_commit_cycle: u64,
    /// `last_commit_cycle` at the last prune of the port schedules.
    pruned_at: u64,
    cp_leave_prev: u64,
    migration_blocked_until: u64,
    open_epoch: Option<OpenEpoch>,
    /// Release cycles of the closed epochs still live, oldest first.
    closed_epochs: VecDeque<u64>,
    mp_busy_start: u64,
    mp_busy_until: u64,
    mp_busy_total: u64,
    seq: u64,
    result: SimResult,
}

impl RunState {
    /// The LQ or the SQ, for an entry of `kind`.
    fn lsq_queue(&mut self, kind: MemOpKind) -> &mut Occupancy {
        match kind {
            MemOpKind::Load => &mut self.lq,
            MemOpKind::Store => &mut self.sq,
        }
    }

    /// Ready cycle of the instruction's source operands.
    fn operand_ready(&self, inst: &DynInst) -> u64 {
        inst.sources()
            .map(|r| self.reg_ready[r.flat_index()])
            .max()
            .unwrap_or(0)
    }

    /// Retires the oldest closed epoch, if any, and returns the cycle it
    /// could retire at.
    fn retire_closed_epoch(&mut self) -> Option<u64> {
        let release = self.closed_epochs.pop_front()?;
        self.lsq.retire_oldest_epoch(Some(self.hierarchy.l1_mut()));
        Some(release)
    }
}

/// The LSQ entry a load or store needs; `None` for any other instruction.
fn mem_kind(inst: &DynInst) -> Option<MemOpKind> {
    match inst.op.class() {
        OpClass::Load => Some(MemOpKind::Load),
        OpClass::Store => Some(MemOpKind::Store),
        _ => None,
    }
}

/// One instruction as fetch and dispatch leave it.
#[derive(Debug, Clone, Copy)]
struct Dispatched {
    inst: DynInst,
    seq: u64,
    kind: Option<MemOpKind>,
    /// `kind` if its LSQ entry was allocated.
    tracked: Option<MemOpKind>,
    dispatch: u64,
    /// Ready cycle of every source operand, not before `dispatch`.
    ready: u64,
    /// Ready cycle of a load's or store's address operand (the first
    /// source), not before `dispatch`; `ready` for other instructions.
    addr_ready: u64,
    /// Cycle the instruction reaches the head of the Cache Processor ROB.
    head_arrival: u64,
}

/// What one load or store did in the LSQ and the cache.
#[derive(Debug, Clone, Copy)]
struct MemExec {
    /// Issue (address-calculation) cycle.
    issue: u64,
    complete: u64,
    /// The store a load forwarded from.
    forwarded_from: Option<u64>,
    /// An older store had an unknown address when the load issued.
    older_unknown_store: bool,
    /// Violation or lock conflict: the front end redirects after this cycle.
    squash_at: Option<u64>,
}

/// One instruction after its execute stage.
#[derive(Debug, Clone, Copy)]
struct Executed {
    complete: u64,
    /// Cycle it leaves the Cache Processor (frees its ROB entry).
    cp_leave: u64,
    /// Whether it executed in a Memory Engine.
    migrated: bool,
    mem: Option<MemExec>,
}

impl Processor {
    /// Creates a processor with the given configuration.
    pub fn new(config: CpuConfig) -> Self {
        Self { config }
    }

    /// Runs `workload` until `max_commits` correct-path instructions have
    /// committed (or the trace ends) and returns the collected statistics.
    pub fn run(&mut self, workload: &mut dyn TraceSource, max_commits: u64) -> SimResult {
        let mut st = self.init_state(workload.name());
        self.run_window(&mut st, workload, max_commits);
        self.finalize_run(st)
    }

    /// Runs `workload` for up to `total_insts` instructions under
    /// SMARTS-style systematic sampling: each period of `spec.period`
    /// instructions fast-forwards `spec.skip()` of them (architectural
    /// position only), functionally warms caches and store filters for
    /// `spec.warmup`, then simulates a detailed window of `spec.window`
    /// through the full cycle loop. Every completed window contributes one
    /// IPC observation to the result's [`SimResult::sampling`] record.
    ///
    /// The periods are those of [`SamplingSpec::schedule`], so the run
    /// reads exactly the positions of [`SamplingSpec::read_ranges`] and
    /// passes over the rest with [`TraceSource::skip_insts`].
    ///
    /// Deterministic for a given workload/spec: identical invocations
    /// produce byte-identical results.
    pub fn run_sampled(
        &mut self,
        workload: &mut dyn TraceSource,
        total_insts: u64,
        spec: SamplingSpec,
    ) -> SimResult {
        let mut st = self.init_state(workload.name());
        let mut sampling = SamplingStats {
            spec,
            skipped: 0,
            warmed: 0,
            windows: Vec::new(),
        };
        for period in spec.schedule(total_insts) {
            if period.skip > 0 {
                let skipped = workload.skip_insts(period.skip);
                sampling.skipped += skipped;
                if skipped < period.skip {
                    break;
                }
            }
            if period.warm > 0 {
                let warmed = self.warm(&mut st, workload, period.warm);
                sampling.warmed += warmed;
                if warmed < period.warm {
                    break;
                }
            }
            if period.window == 0 {
                break;
            }
            let cycles_before = st.last_commit_cycle;
            let committed = self.run_window(&mut st, workload, period.window);
            if committed > 0 {
                sampling.windows.push(WindowSample {
                    committed,
                    cycles: st.last_commit_cycle.saturating_sub(cycles_before),
                });
            }
            if committed < period.window {
                break;
            }
        }
        let mut result = self.finalize_run(st);
        result.sampling = Some(sampling);
        result
    }

    /// Functional warming: consumes up to `n` instructions, touching the
    /// cache hierarchy and training the SVW store filter so the next
    /// detailed window starts warm, without engaging the cycle loop.
    /// Returns how many instructions the trace actually yielded.
    fn warm(&mut self, st: &mut RunState, workload: &mut dyn TraceSource, n: u64) -> u64 {
        let mut warmed = 0;
        while warmed < n {
            let Some(inst) = workload.next_inst() else {
                break;
            };
            warmed += 1;
            let seq = st.seq;
            st.seq += 1;
            if let Some(mem) = inst.mem {
                st.hierarchy.access(mem.addr, inst.is_store());
                if inst.is_store() {
                    if let Some(svw) = st.svw.as_mut() {
                        svw.on_store_commit(seq, mem.addr);
                    }
                }
            }
        }
        warmed
    }

    /// Drives the cycle loop until `commits` further instructions commit
    /// (or the trace ends) and returns how many actually committed.
    fn run_window(
        &mut self,
        st: &mut RunState,
        workload: &mut dyn TraceSource,
        commits: u64,
    ) -> u64 {
        let start = st.result.sim.committed;
        let target = start.saturating_add(commits);
        while st.result.sim.committed < target {
            let Some(inst) = workload.next_inst() else {
                break;
            };
            let complete = self.process_inst(st, inst);
            // Mispredicted branch: fetch down the wrong path until the branch
            // resolves, then squash and redirect.
            if inst.is_mispredicted_branch() {
                self.run_wrong_path(st, workload, complete);
            }
            // Prune on commit cycles: at a low IPC a few thousand
            // instructions span hundreds of thousands of cycles. A cycle
            // trigger cannot be stepped over, so each ring spans only the
            // trailing window plus what is reserved past the last commit.
            if st.last_commit_cycle - st.pruned_at >= PRUNE_EVERY_CYCLES {
                st.pruned_at = st.last_commit_cycle;
                let horizon = st.last_commit_cycle.saturating_sub(PRUNE_TRAIL_CYCLES);
                st.fetch_ports.retire_before(horizon);
                st.issue_ports.retire_before(horizon);
                st.cache_ports.retire_before(horizon);
            }
        }
        st.result.sim.committed - start
    }

    fn init_state(&self, workload_name: &str) -> RunState {
        let cfg = &self.config;
        let (me_count, me_width) = cfg
            .fmc
            .map_or((0, 1), |f| (f.num_engines, f.me_issue_width));
        let (lq_cap, sq_cap) = match &cfg.lsq {
            LsqKind::Central(c) => (c.lq_entries, c.sq_entries),
            LsqKind::Elsq(e) => (Some(e.hl_lq_entries), Some(e.hl_sq_entries)),
        };
        RunState {
            hierarchy: MemoryHierarchy::new(cfg.hierarchy),
            lsq: LsqDriver::new(&cfg.lsq),
            svw: cfg
                .svw
                .map(|p| SvwReexecutor::new(p.ssbf_bits, p.check_stores)),
            reg_ready: [0; NUM_REGS],
            fetch_ports: PortSchedule::new(cfg.fetch_width),
            issue_ports: PortSchedule::new(cfg.issue_width),
            commit_port: InOrderPort::new(cfg.commit_width),
            cache_ports: PortSchedule::new(cfg.cache_ports),
            me_issue: vec![InOrderPort::new(me_width); me_count.max(1)],
            rob: Occupancy::new(Some(cfg.rob_size)),
            mp_window: Occupancy::new(cfg.fmc.map(|f| f.total_window())),
            lq: Occupancy::new(lq_cap),
            sq: Occupancy::new(sq_cap),
            store_commit_log: VecDeque::with_capacity(STORE_COMMIT_LOG),
            fetch_blocked_until: 0,
            last_commit_cycle: 0,
            pruned_at: 0,
            cp_leave_prev: 0,
            migration_blocked_until: 0,
            open_epoch: None,
            closed_epochs: VecDeque::new(),
            mp_busy_start: 0,
            mp_busy_until: 0,
            mp_busy_total: 0,
            seq: 0,
            result: SimResult::new(workload_name),
        }
    }

    fn finalize_run(&self, mut st: RunState) -> SimResult {
        // Flush the Memory-Processor busy interval and finalize counters.
        if st.mp_busy_until > st.mp_busy_start {
            st.mp_busy_total += st.mp_busy_until - st.mp_busy_start;
        }
        st.result.sim.cycles = st.last_commit_cycle.max(1);
        let busy = st.mp_busy_total.min(st.result.sim.cycles);
        st.result.sim.ll_active_cycles = busy;
        st.result.sim.ll_idle_cycles = st.result.sim.cycles - busy;
        st.result.sim.epochs_allocated = st.lsq.epochs_allocated();
        let mut lsq_counters = st.lsq.counters();
        if let Some(svw) = &st.svw {
            lsq_counters.ssbf_lookups = svw.ssbf_lookups();
            lsq_counters.load_reexecutions = svw.stats().reexecutions;
        }
        lsq_counters.cache_accesses = st.hierarchy.total_accesses();
        st.result.lsq = lsq_counters;
        st.result
    }

    /// Fetches and processes wrong-path instructions until `resolve`.
    fn run_wrong_path(&mut self, st: &mut RunState, workload: &mut dyn TraceSource, resolve: u64) {
        st.result.sim.branch_mispredicts += 1;
        let wp_start_seq = st.seq;
        let probe = st.fetch_blocked_until;
        // Bound the wrong-path burst by the machine width times the branch
        // resolution delay — the front end cannot fetch more than that.
        let max_wp = (self.config.fetch_width as u64) * 256;
        // Every wrong-path instruction takes the next fetch slot from
        // `probe`, and the burst's own grants are the only writes to the
        // fetch schedule until it ends, so the schedule alone fixes how many
        // slots land before resolution.
        let burst = st.fetch_ports.free_before(probe, resolve, max_wp);
        // Nothing in a burst frees an LQ entry, so the entries free at its
        // start bound how many wrong-path loads issue; each load fetched
        // uses one, though it takes none (`None`: an unlimited queue).
        let mut lq_free = st.lsq.free_load_entries();
        // Every slot of the burst is a probe of `probe`, so the slots of
        // the instructions that only take a fetch slot are owed and
        // reserved in bulk just before a load takes its own.
        let mut owed = 0u64;
        let mut fetched = 0u64;
        while fetched < burst {
            let (alus, load) = workload.wrong_path_run(0x4000_0000 + fetched * 4, burst - fetched);
            debug_assert!(load.is_some() || alus == burst - fetched);
            // ALU ops only take fetch slots (and ROB entries, below).
            owed += alus;
            fetched += alus;
            let Some(inst) = load else { break };
            debug_assert!(inst.is_load(), "wrong paths draw only loads");
            let seq = wp_start_seq + fetched;
            fetched += 1;
            if lq_free == Some(0) {
                // No later load finds a free entry either: draw the tail
                // without building it.
                workload.wrong_path_skip(burst - fetched);
                owed += 1 + burst - fetched;
                fetched = burst;
                break;
            }
            lq_free = lq_free.map(|free| free - 1);
            st.fetch_ports.reserve_n(probe, owed);
            owed = 0;
            let fetch = st.fetch_ports.reserve(probe);
            self.process_wrong_path_load(st, &inst, seq, fetch, resolve);
        }
        st.fetch_ports.reserve_n(probe, owed);
        if burst < max_wp {
            // The first slot at or past resolution belongs to the redirected
            // correct path; it stays reserved, which models the fetch bubble
            // on redirect.
            st.fetch_ports.reserve(probe);
        }
        // Every wrong-path instruction took a sequence number and a ROB
        // entry that frees at `resolve`. Nothing reads the ROB mid-burst,
        // and only its youngest `rob_size` entries matter afterwards.
        st.seq += fetched;
        st.result.sim.fetched += fetched;
        st.rob.push(resolve, fetched);
        st.result.sim.wrong_path_fetched += fetched;
        st.result.sim.squashed += fetched;
        st.fetch_blocked_until = st
            .fetch_blocked_until
            .max(resolve + self.config.redirect_penalty as u64);
    }

    /// Processes wrong-path load `seq`, fetched at `fetch` with a free LQ
    /// entry counted for it: it takes an issue slot and, when it issues
    /// before `resolve`, the LSQ search, cache port and cache access of any
    /// Cache Processor load. It holds no LSQ entry, never commits or updates
    /// the register file, and its result is never used.
    fn process_wrong_path_load(
        &self,
        st: &mut RunState,
        inst: &DynInst,
        seq: u64,
        fetch: u64,
        resolve: u64,
    ) {
        let dispatch = fetch + self.config.frontend_depth as u64;
        let ready = st.operand_ready(inst).max(dispatch);
        let issue = st.issue_ports.reserve(ready);
        if issue < resolve {
            let mem = inst.mem_access();
            let out = st.lsq.search_wrong_path_load(seq, mem);
            self.access_load(st, mem, issue, ExecSite::CacheProcessor, &out);
        }
    }

    /// Processes one correct-path instruction and returns its completion
    /// cycle (a mispredicted branch resolves then).
    fn process_inst(&self, st: &mut RunState, inst: DynInst) -> u64 {
        let d = self.fetch_dispatch(st, inst);
        let executed = match self.config.fmc {
            Some(f) if self.migrates(st, f, &d) => self.execute_me(st, f, &d),
            _ => self.execute_cp(st, &d),
        };
        let commit = self.commit(st, &d, &executed);
        self.retire(st, &d, &executed, commit);
        executed.complete
    }

    /// Fetch and dispatch: fetch bandwidth, redirect bubbles, ROB and LSQ
    /// occupancy, the LSQ entry, and when the operands are ready.
    fn fetch_dispatch(&self, st: &mut RunState, inst: DynInst) -> Dispatched {
        let seq = st.seq;
        st.seq += 1;
        st.result.sim.fetched += 1;
        let kind = mem_kind(&inst);
        let mut earliest = st.rob.entry(st.fetch_blocked_until);
        if let Some(kind) = kind {
            earliest = st.lsq_queue(kind).entry(earliest);
        }
        let fetch = st.fetch_ports.reserve(earliest);
        let dispatch = fetch + self.config.frontend_depth as u64;
        let tracked = kind.filter(|&k| st.lsq.allocate(k, seq));
        let ready = st.operand_ready(&inst).max(dispatch);
        // For memory operations the *address* operand (first source) may be
        // ready long before the data operand; Figure 1, the migration
        // heuristics and restricted SAC all care about address calculation,
        // not data availability.
        let addr_ready = match kind {
            Some(_) => inst.srcs[0]
                .map_or(0, |r| st.reg_ready[r.flat_index()])
                .max(dispatch),
            None => ready,
        };
        Dispatched {
            inst,
            seq,
            kind,
            tracked,
            dispatch,
            ready,
            addr_ready,
            head_arrival: st.cp_leave_prev.max(dispatch),
        }
    }

    /// The migration policy (Section 3.2): an instruction moves to the
    /// Memory Processor when it reaches the head of the CP ROB still waiting
    /// on a long-latency event, and memory instructions additionally
    /// migrate in program order "whenever the low-locality queues are
    /// active", so that the small HL-LSQ only ever tracks the youngest
    /// references.
    fn migrates(&self, st: &RunState, f: FmcConfig, d: &Dispatched) -> bool {
        if d.inst.wrong_path {
            return false;
        }
        // The program-order rule decides most memory instructions of an FMC
        // run, so it goes before the cache probe (which changes nothing).
        if d.kind.is_some() && st.lsq.ll_active() {
            return true;
        }
        // Estimate the completion cycle if the instruction executed in the CP.
        let est_mem_latency = d.inst.mem.map_or(0, |m| st.hierarchy.probe_latency(m.addr));
        let est_complete = d.ready + d.inst.op.latency() as u64 + est_mem_latency as u64;
        est_complete > d.head_arrival + f.migrate_threshold as u64
    }

    /// High-locality execution in the out-of-order Cache Processor.
    fn execute_cp(&self, st: &mut RunState, d: &Dispatched) -> Executed {
        let issue = st.issue_ports.reserve(d.addr_ready);
        let mem = d.kind.map(|_| {
            self.execute_mem(st, &d.inst, d.seq, issue, d.ready, ExecSite::CacheProcessor)
        });
        let complete = match mem {
            Some(m) => m.complete,
            None => issue.max(d.ready) + d.inst.op.latency() as u64,
        };
        Executed {
            complete,
            cp_leave: complete.max(d.head_arrival),
            migrated: false,
            mem,
        }
    }

    /// Low-locality execution: the instruction migrates into the open epoch
    /// and its Memory Engine.
    fn execute_me(&self, st: &mut RunState, f: FmcConfig, d: &Dispatched) -> Executed {
        let mut earliest = d.head_arrival;
        if d.kind.is_some() {
            // Restricted disambiguation may be stalling memory migration.
            earliest = earliest.max(st.migration_blocked_until);
        }
        let earliest = st.mp_window.entry(earliest);
        let (bank, mut migrate_cycle) = self.enter_epoch(st, f, d, earliest);

        // Execution locality: a memory instruction whose address operands
        // are ready before migration performs its address calculation and
        // cache access in the Cache Processor *first* ("loads that obtain
        // their address in the HL-LSQ but miss in the cache are also
        // migrated"). This is what preserves memory-level parallelism —
        // the miss is already in flight when the instruction moves to the
        // in-order Memory Engine to wait for its data.
        let early = (d.kind.is_some() && d.addr_ready <= migrate_cycle).then(|| {
            let issue = st.issue_ports.reserve(d.addr_ready);
            self.execute_mem(st, &d.inst, d.seq, issue, d.ready, ExecSite::CacheProcessor)
        });

        // Move the LSQ entry (ELSQ) — central queues keep it in place.
        if let Some(kind) = d.tracked {
            migrate_cycle = self.move_lsq_entry(st, kind, d.seq, migrate_cycle);
        }

        let (complete, mem) = match early {
            Some(m) => (m.complete, Some(m)),
            None => self.issue_in_engine(st, f, d, bank, migrate_cycle),
        };

        // Track Memory-Processor busy time (Figure 11).
        if migrate_cycle > st.mp_busy_until {
            st.mp_busy_total += st.mp_busy_until.saturating_sub(st.mp_busy_start);
            st.mp_busy_start = migrate_cycle;
            st.mp_busy_until = complete;
        } else {
            st.mp_busy_until = st.mp_busy_until.max(complete);
        }
        Executed {
            complete,
            cp_leave: migrate_cycle,
            migrated: true,
            mem,
        }
    }

    /// Epoch management (one epoch per Memory Engine): places the
    /// instruction in the open epoch, first closing it and opening a new
    /// one when it is full or the LSQ asks for one. Returns the epoch's bank
    /// and the migration cycle, which waits while every bank is live.
    fn enter_epoch(
        &self,
        st: &mut RunState,
        f: FmcConfig,
        d: &Dispatched,
        mut migrate_cycle: u64,
    ) -> (usize, u64) {
        let needs_new_epoch = match st.open_epoch {
            None => true,
            Some(e) => {
                e.inst_count >= f.me_max_insts || d.kind.is_some_and(|k| st.lsq.needs_new_epoch(k))
            }
        };
        if needs_new_epoch {
            if let Some(e) = st.open_epoch.take() {
                st.closed_epochs.push_back(e.release);
            }
            let bank = loop {
                if let Some(bank) = st.lsq.open_epoch() {
                    break bank;
                }
                // Every bank is live: wait for the oldest epoch to retire.
                match st.retire_closed_epoch() {
                    Some(release) => migrate_cycle = migrate_cycle.max(release),
                    // Only the open epoch remains (it is full); for
                    // central-LSQ FMC runs epochs are virtual, so just
                    // reuse bank 0.
                    None => break 0,
                }
            };
            st.open_epoch = Some(OpenEpoch {
                bank,
                inst_count: 0,
                release: migrate_cycle,
            });
        }
        let epoch = st.open_epoch.as_mut().expect("an epoch is open");
        epoch.inst_count += 1;
        (epoch.bank, migrate_cycle)
    }

    /// Moves a migrating instruction's LSQ entry into the open epoch and
    /// returns the migration cycle, which a failed first attempt delays.
    fn move_lsq_entry(
        &self,
        st: &mut RunState,
        kind: MemOpKind,
        seq: u64,
        mut migrate_cycle: u64,
    ) -> u64 {
        if st
            .lsq
            .migrate(kind, seq, Some(st.hierarchy.l1_mut()))
            .is_ok()
        {
            return migrate_cycle;
        }
        // Lock stall, capacity race or restricted-model stall: insertion
        // waits one L2 round-trip while the oldest epoch (if any) retires and
        // frees its locked lines, then tries once more.
        migrate_cycle += self.config.hierarchy.l2.latency as u64;
        st.result.sim.squashed += 1;
        if let Some(release) = st.retire_closed_epoch() {
            migrate_cycle = migrate_cycle.max(release);
        }
        if st
            .lsq
            .migrate(kind, seq, Some(st.hierarchy.l1_mut()))
            .is_err()
        {
            // No forward progress is possible this cycle; release the
            // high-locality entry so the queues stay consistent (the
            // instruction is accounted for by the timing model alone).
            st.lsq.commit_mem(kind, seq);
        }
        migrate_cycle
    }

    /// In-order, `me_issue_width`-wide issue inside the Memory Engine of
    /// `bank`, once the instruction has crossed the network. Returns the
    /// completion cycle and, for a load or store, its access.
    fn issue_in_engine(
        &self,
        st: &mut RunState,
        f: FmcConfig,
        d: &Dispatched,
        bank: usize,
        migrate_cycle: u64,
    ) -> (u64, Option<MemExec>) {
        let arrival = migrate_cycle + f.network_one_way as u64;
        let me_slot = bank.min(st.me_issue.len() - 1);
        let issue = st.me_issue[me_slot].reserve(d.ready.max(arrival));
        let Some(kind) = d.kind else {
            return (issue + d.inst.op.latency() as u64, None);
        };
        let site = ExecSite::MemoryEngine { bank };
        let m = self.execute_mem(st, &d.inst, d.seq, issue, d.ready, site);
        // Restricted disambiguation: while this reference's address was
        // unknown no younger memory reference may migrate.
        if let LsqKind::Elsq(e) = &self.config.lsq {
            let blocks = match kind {
                MemOpKind::Load => e.disambiguation.load_blocks_migration(),
                MemOpKind::Store => e.disambiguation.store_blocks_migration(),
            };
            if blocks && issue > migrate_cycle {
                st.migration_blocked_until = st.migration_blocked_until.max(issue);
            }
        }
        (m.complete, Some(m))
    }

    /// The one memory access path of the correct path: load or store `seq`
    /// issues at `issue` (its operands ready at `ready`) from `site`,
    /// searches the LSQ and, for a load, accesses the cache. The module doc
    /// lists the rules that depend on `site`.
    // Inlined into its three callers: out of line, 2k-commit sweeps measured
    // about 4% slower on a 2-core host.
    #[inline(always)]
    fn execute_mem(
        &self,
        st: &mut RunState,
        inst: &DynInst,
        seq: u64,
        issue: u64,
        ready: u64,
        site: ExecSite,
    ) -> MemExec {
        let mem = inst.mem_access();
        if inst.is_store() {
            let out = st
                .lsq
                .resolve_store(seq, mem, issue, site, Some(st.hierarchy.l1_mut()));
            let complete = issue.max(ready) + 1 + out.extra_latency as u64;
            let squash = out.lock_conflict || out.violation_load_seq.is_some();
            return MemExec {
                issue,
                complete,
                forwarded_from: None,
                older_unknown_store: false,
                squash_at: squash.then_some(complete),
            };
        }
        let out = st
            .lsq
            .issue_load(seq, mem, issue, site, Some(st.hierarchy.l1_mut()));
        MemExec {
            issue,
            complete: self.access_load(st, mem, issue, site, &out),
            forwarded_from: out.forward.map(|f| f.store_seq),
            older_unknown_store: out.older_unknown_store,
            squash_at: out.lock_conflict.then_some(issue),
        }
    }

    /// The cache side of load `mem`, issued at `issue` from `site`, once its
    /// LSQ search has answered `out`: its cache port and cache access.
    /// Returns its completion cycle.
    #[inline(always)]
    fn access_load(
        &self,
        st: &mut RunState,
        mem: MemAccess,
        issue: u64,
        site: ExecSite,
        out: &LoadOutcome,
    ) -> u64 {
        let remote = match site {
            ExecSite::CacheProcessor => 0,
            ExecSite::MemoryEngine { .. } => {
                self.config.fmc.map_or(0, |f| f.network_one_way as u64)
            }
        };
        let extra = out.extra_latency as u64;
        if let Some(forward) = out.forward {
            if site == ExecSite::CacheProcessor {
                // The Cache Processor accesses the cache alongside its
                // store-queue search.
                st.cache_ports.reserve(issue);
                st.hierarchy.access(mem.addr, false);
            }
            let penalty = if forward.full_cover {
                0
            } else {
                PARTIAL_OVERLAP_PENALTY
            };
            forward.data_ready_at.max(issue) + 1 + extra + penalty
        } else {
            // From a Memory Engine the access crosses the network both ways;
            // with a central LSQ the search itself also pays the round trip
            // (Figure 7).
            let central_round_trip = match st.lsq {
                LsqDriver::Central(_) => 2 * remote,
                LsqDriver::Elsq(_) => 0,
            };
            let port = st.cache_ports.reserve(issue + remote);
            let access = st.hierarchy.access(mem.addr, false);
            port + access.latency as u64 + extra + remote + central_round_trip
        }
    }

    /// Commit, in order and commit-width per cycle. A load may re-execute
    /// under SVW and a store writes the cache; an ordering violation or a
    /// lock conflict then redirects the front end. Returns the commit cycle.
    fn commit(&self, st: &mut RunState, d: &Dispatched, x: &Executed) -> u64 {
        let mut commit = st.commit_port.reserve(x.complete.max(st.last_commit_cycle));
        if let (Some(kind), Some(m)) = (d.kind, x.mem) {
            let addr = d.inst.mem_access().addr;
            match kind {
                MemOpKind::Load => {
                    // SVW re-execution check at commit.
                    if let Some(svw) = st.svw.as_mut() {
                        let (safe_ssn, unknown_store_between) = match m.forwarded_from {
                            Some(store) => (store, st.lsq.has_unknown_store_between(store, d.seq)),
                            None => {
                                // Youngest store that had committed when the
                                // load issued. The log's commit cycles are
                                // non-decreasing (commit is in order), so a
                                // binary search finds it.
                                let idx = st
                                    .store_commit_log
                                    .partition_point(|(cycle, _)| *cycle <= m.issue);
                                let ssn =
                                    idx.checked_sub(1).map_or(0, |i| st.store_commit_log[i].1);
                                (ssn, m.older_unknown_store)
                            }
                        };
                        let vuln = LoadVulnerability {
                            addr,
                            safe_ssn,
                            forwarded: m.forwarded_from.is_some(),
                            unknown_store_between,
                        };
                        if svw.on_load_commit(vuln) {
                            // Re-execute: another cache access at commit
                            // delays this load and everything younger.
                            let port = st.cache_ports.reserve(commit);
                            let access = st.hierarchy.access(addr, false);
                            commit = port + access.latency as u64;
                        }
                    }
                }
                MemOpKind::Store => {
                    // Stores write the data cache at commit.
                    let port = st.cache_ports.reserve(commit);
                    st.hierarchy.access(addr, true);
                    commit = commit.max(port);
                    if let Some(svw) = st.svw.as_mut() {
                        svw.on_store_commit(d.seq, addr);
                    }
                    st.store_commit_log.push_back((commit, d.seq));
                    if st.store_commit_log.len() > STORE_COMMIT_LOG {
                        st.store_commit_log.pop_front();
                    }
                }
            }
            if !x.migrated {
                st.lsq.commit_mem(kind, d.seq);
            }
        }
        st.last_commit_cycle = st.last_commit_cycle.max(commit);

        // Ordering violations / lock conflicts: recovery redirects the front
        // end (the squashed work is approximated as a fetch bubble).
        if let Some(at) = x.mem.and_then(|m| m.squash_at) {
            st.result.sim.squashed += (self.config.rob_size / 2) as u64;
            st.fetch_blocked_until = st
                .fetch_blocked_until
                .max(at + self.config.redirect_penalty as u64);
        }
        commit
    }

    /// Retirement bookkeeping and statistics.
    fn retire(&self, st: &mut RunState, d: &Dispatched, x: &Executed, commit: u64) {
        if let Some(dst) = d.inst.dst {
            if !dst.is_zero() {
                st.reg_ready[dst.flat_index()] = x.complete;
            }
        }
        st.rob.push(x.cp_leave, 1);
        if x.migrated {
            st.mp_window.push(commit, 1);
            if let Some(e) = st.open_epoch.as_mut() {
                e.release = e.release.max(commit);
            }
        }
        if let Some(kind) = d.kind {
            let release = if x.migrated { x.cp_leave } else { commit };
            st.lsq_queue(kind).push(release, 1);
            match kind {
                MemOpKind::Load => st.result.sim.committed_loads += 1,
                MemOpKind::Store => st.result.sim.committed_stores += 1,
            }
        }
        if let Some(m) = x.mem {
            let distance = m.issue.saturating_sub(d.dispatch);
            st.result.sim.addr_calc_distance_sum += distance;
            if d.inst.is_load() {
                st.result.load_addr_hist.record(distance);
            } else {
                st.result.store_addr_hist.record(distance);
            }
        }
        st.result.sim.committed += 1;
        st.cp_leave_prev = st.cp_leave_prev.max(x.cp_leave);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CpuConfig, LsqKind};
    use elsq_core::central::CentralLsqConfig;
    use elsq_isa::trace::{LoopTrace, VecTrace};
    use elsq_isa::wrongpath::{WrongPathSpec, WrongPathSynth};
    use elsq_isa::{ArchReg, InstBuilder, OpClass};
    use elsq_workload::pointer::PointerChaseInt;
    use elsq_workload::stencil::IrregularFp;
    use elsq_workload::streaming::StreamingFp;

    fn run(config: CpuConfig, workload: &mut dyn TraceSource, commits: u64) -> SimResult {
        Processor::new(config).run(workload, commits)
    }

    /// A tiny cache-friendly kernel: independent ALU ops plus a load that
    /// always hits after warm-up.
    fn alu_kernel() -> LoopTrace {
        let mut insts = Vec::new();
        for i in 0..8u64 {
            insts.push(
                InstBuilder::alu(i * 4, OpClass::IntAlu)
                    .dst(ArchReg::int((1 + i % 4) as u8))
                    .src(ArchReg::int(0))
                    .build(),
            );
        }
        insts.push(
            InstBuilder::load(0x40, 0x100, 8)
                .dst(ArchReg::int(9))
                .src(ArchReg::int(0))
                .build(),
        );
        LoopTrace::new(insts).named("alu-kernel")
    }

    #[test]
    fn cache_friendly_kernel_reaches_high_ipc() {
        let mut t = alu_kernel();
        let r = run(CpuConfig::ooo64(), &mut t, 20_000);
        assert!(r.ipc() > 1.5, "IPC {} too low for an ALU kernel", r.ipc());
        assert!(r.ipc() <= 4.0, "IPC {} exceeds machine width", r.ipc());
        assert_eq!(r.sim.committed, 20_000);
    }

    #[test]
    fn memory_bound_workload_is_slow_on_small_rob() {
        let mut t = StreamingFp::swim_like(1);
        let r = run(CpuConfig::ooo64(), &mut t, 30_000);
        assert!(
            r.ipc() < 1.5,
            "IPC {} too high for a streaming workload",
            r.ipc()
        );
        assert!(r.sim.committed_loads > 0);
        assert!(r.sim.committed_stores > 0);
    }

    #[test]
    fn fmc_outperforms_ooo64_on_streaming_fp() {
        let mut t1 = StreamingFp::swim_like(1);
        let base = run(CpuConfig::ooo64(), &mut t1, 30_000);
        let mut t2 = StreamingFp::swim_like(1);
        let fmc = run(CpuConfig::fmc_hash(true), &mut t2, 30_000);
        assert!(
            fmc.ipc() > 1.3 * base.ipc(),
            "FMC {} vs OoO {}: the large window should help a lot",
            fmc.ipc(),
            base.ipc()
        );
        // The Memory Processor was actually used.
        assert!(fmc.sim.epochs_allocated > 0);
        assert!(fmc.lsq.ert_lookups > 0);
    }

    #[test]
    fn fmc_gain_is_smaller_on_pointer_chasing_int() {
        let mut t1 = PointerChaseInt::mcf_like(1);
        let base = run(CpuConfig::ooo64(), &mut t1, 30_000);
        let mut t2 = PointerChaseInt::mcf_like(1);
        let fmc = run(CpuConfig::fmc_hash(true), &mut t2, 30_000);
        let speedup = fmc.ipc() / base.ipc();
        let mut t3 = StreamingFp::swim_like(1);
        let fp_base = run(CpuConfig::ooo64(), &mut t3, 30_000);
        let mut t4 = StreamingFp::swim_like(1);
        let fp_fmc = run(CpuConfig::fmc_hash(true), &mut t4, 30_000);
        let fp_speedup = fp_fmc.ipc() / fp_base.ipc();
        assert!(
            fp_speedup > speedup,
            "FP speed-up {fp_speedup} should exceed INT speed-up {speedup}"
        );
    }

    #[test]
    fn wrong_path_activity_is_counted() {
        let mut t = PointerChaseInt::parser_like(5);
        let r = run(CpuConfig::ooo64(), &mut t, 20_000);
        assert!(r.sim.branch_mispredicts > 0);
        assert!(r.sim.wrong_path_fetched > 0);
        assert!(r.sim.squashed >= r.sim.wrong_path_fetched);
    }

    /// A correct path of `insts` whose wrong path is all loads (at
    /// `load_rate` 1) of one line of a region of its own, or all ALU ops.
    struct SpecTrace(VecTrace, WrongPathSynth);

    impl SpecTrace {
        fn new(insts: Vec<DynInst>, load_rate: f64) -> Self {
            let spec = WrongPathSpec {
                seed: 1,
                region_base: 0x7000_0000,
                region_size: 64,
                load_rate,
            };
            Self(VecTrace::new(insts), WrongPathSynth::from_spec(spec))
        }
    }

    impl TraceSource for SpecTrace {
        fn next_inst(&mut self) -> Option<DynInst> {
            self.0.next_inst()
        }

        fn wrong_path_run(&mut self, pc: u64, max: u64) -> (u64, Option<DynInst>) {
            self.1.run(pc, max)
        }

        fn wrong_path_skip(&mut self, n: u64) {
            self.1.skip(n);
        }

        fn wrong_path_spec(&self) -> Option<WrongPathSpec> {
            Some(self.1.spec())
        }
    }

    #[test]
    fn wrong_path_loads_hold_cache_ports_past_the_redirect() {
        // The wrong-path loads' address register r8 is ready 16 cycles
        // before the mispredicted branch resolves, and a 64-entry LQ takes
        // the first 64 wrong-path loads. Four of them issue in each of
        // those cycles, all before `resolve`, but one cache port grants one
        // access a cycle, so the last grants fall about 48 cycles past
        // `resolve`, while the load after the redirect issues
        // `redirect_penalty + frontend_depth` = 8 cycles past it and must
        // wait for them. Without the port reservations nothing of the
        // wrong path would reach past `resolve`.
        let insts = vec![
            InstBuilder::alu(0x0, OpClass::IntAlu)
                .dst(ArchReg::int(8))
                .src(ArchReg::int(0))
                .latency(20)
                .build(),
            InstBuilder::alu(0x4, OpClass::IntAlu)
                .dst(ArchReg::int(3))
                .src(ArchReg::int(0))
                .latency(36)
                .build(),
            InstBuilder::branch(0x8, true, true, 0x100)
                .src(ArchReg::int(3))
                .build(),
            InstBuilder::load(0x100, 0x1000, 8)
                .dst(ArchReg::int(9))
                .src(ArchReg::int(0))
                .build(),
        ];
        let config = CpuConfig {
            cache_ports: 1,
            lsq: LsqKind::Central(CentralLsqConfig {
                lq_entries: Some(64),
                ..CentralLsqConfig::conventional()
            }),
            ..CpuConfig::ooo64()
        };
        let run_at = |load_rate| run(config, &mut SpecTrace::new(insts.clone(), load_rate), 4);
        let (loads, alus) = (run_at(1.0), run_at(0.0));
        assert_eq!((loads.sim.committed, alus.sim.committed), (4, 4));
        assert_eq!(loads.sim.wrong_path_fetched, alus.sim.wrong_path_fetched);
        assert!(
            loads.sim.cycles >= alus.sim.cycles + 30,
            "{} cycles after wrong-path loads, {} after ALU ops",
            loads.sim.cycles,
            alus.sim.cycles
        );
    }

    #[test]
    fn wrong_path_loads_use_the_lq_entries_free_at_burst_start() {
        // The mispredicted branch waits 200 cycles for r3, so its wrong
        // path runs to hundreds of instructions, every one a load at
        // `load_rate` 1 whose address register is ready within a few
        // cycles. The load queue (OoO-64's LQ, FMC's HL-LQ) has 32 free
        // entries when the burst starts, so exactly 32 loads search the LSQ
        // and access the cache, and the rest of the burst only fetches.
        let insts = vec![
            InstBuilder::alu(0x0, OpClass::IntAlu)
                .dst(ArchReg::int(8))
                .src(ArchReg::int(0))
                .build(),
            InstBuilder::alu(0x4, OpClass::IntAlu)
                .dst(ArchReg::int(3))
                .src(ArchReg::int(0))
                .latency(200)
                .build(),
            InstBuilder::branch(0x8, true, true, 0x100)
                .src(ArchReg::int(3))
                .build(),
            InstBuilder::load(0x100, 0x1000, 8)
                .dst(ArchReg::int(9))
                .src(ArchReg::int(0))
                .build(),
        ];
        for (name, config) in [
            ("OoO-64", CpuConfig::ooo64()),
            ("FMC-Hash", CpuConfig::fmc_hash(true)),
        ] {
            let run_at = |load_rate| run(config, &mut SpecTrace::new(insts.clone(), load_rate), 4);
            let (loads, alus) = (run_at(1.0), run_at(0.0));
            assert_eq!((loads.sim.committed, alus.sim.committed), (4, 4), "{name}");
            assert_eq!(
                loads.sim.wrong_path_fetched, alus.sim.wrong_path_fetched,
                "{name}"
            );
            assert!(loads.sim.wrong_path_fetched > 200, "{name}");
            assert_eq!(
                loads.lsq.hl_sq_searches - alus.lsq.hl_sq_searches,
                32,
                "{name}: wrong-path LSQ searches"
            );
            assert_eq!(
                loads.lsq.cache_accesses - alus.lsq.cache_accesses,
                32,
                "{name}: wrong-path cache accesses"
            );
        }
    }

    #[test]
    fn svw_counts_reexecutions() {
        let mut t = PointerChaseInt::parser_like(3);
        let r = run(CpuConfig::ooo64_svw(8, false), &mut t, 20_000);
        assert!(r.lsq.ssbf_lookups > 0);
        // With an 8-bit blind filter some loads re-execute.
        assert!(r.lsq.load_reexecutions > 0);
        // The associative load queue is gone.
        assert_eq!(r.lsq.hl_lq_searches, 0);
    }

    #[test]
    fn figure1_histogram_is_populated() {
        let mut t = StreamingFp::swim_like(2);
        let r = run(CpuConfig::fmc_hash(true), &mut t, 20_000);
        assert!(r.load_addr_hist.total() > 0);
        assert!(r.store_addr_hist.total() > 0);
        // Most address calculations happen shortly after decode.
        assert!(r.load_addr_hist.first_bin_fraction() > 0.5);
        assert!(r.store_addr_hist.first_bin_fraction() > 0.5);
    }

    #[test]
    fn ll_idle_fraction_increases_with_larger_l2() {
        let mut small_cfg = CpuConfig::fmc_hash(true);
        small_cfg.hierarchy = small_cfg.hierarchy.with_l2_mb(1);
        let mut big_cfg = CpuConfig::fmc_hash(true);
        big_cfg.hierarchy = big_cfg.hierarchy.with_l2_mb(8);
        let mut t1 = elsq_workload::matrix::MatrixBlockFp::facerec_like(1);
        let small = run(small_cfg, &mut t1, 30_000);
        let mut t2 = elsq_workload::matrix::MatrixBlockFp::facerec_like(1);
        let big = run(big_cfg, &mut t2, 30_000);
        assert!(
            big.sim.ll_idle_fraction() >= small.sim.ll_idle_fraction(),
            "bigger L2 ({}) should not reduce idle fraction ({})",
            big.sim.ll_idle_fraction(),
            small.sim.ll_idle_fraction()
        );
    }

    #[test]
    fn unlimited_central_lsq_never_blocks_fetch_on_lsq() {
        let mut t = StreamingFp::swim_like(4);
        let cfg = CpuConfig {
            lsq: LsqKind::Central(CentralLsqConfig::unlimited()),
            ..CpuConfig::fmc_central_ideal()
        };
        let r = run(cfg, &mut t, 20_000);
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn port_schedule_rings_stay_bounded_at_low_ipc() {
        // At an IPC near 0.01 one 4096-instruction stretch spans hundreds
        // of thousands of cycles; pruning on commit cycles still keeps
        // every ring near the trailing window.
        let workloads: [Box<dyn TraceSource>; 2] = [
            Box::new(PointerChaseInt::mcf_like(7)),
            Box::new(IrregularFp::equake_like(7)),
        ];
        for mut workload in workloads {
            let mut processor = Processor::new(CpuConfig::fmc_hash(true));
            let mut st = processor.init_state(workload.name());
            processor.run_window(&mut st, &mut *workload, 60_000);
            for (name, ports) in [
                ("fetch", &st.fetch_ports),
                ("issue", &st.issue_ports),
                ("cache", &st.cache_ports),
            ] {
                assert!(
                    ports.ring_len() <= 1 << 15,
                    "{}: {name} ring grew to {} slots",
                    workload.name(),
                    ports.ring_len()
                );
            }
        }
    }

    #[test]
    fn commit_is_monotonic_and_cycles_positive() {
        let mut t = alu_kernel();
        let r = run(CpuConfig::fmc_hash(true), &mut t, 5_000);
        assert!(r.sim.cycles > 0);
        assert_eq!(r.sim.committed, 5_000);
        assert!(r.sim.ll_idle_cycles + r.sim.ll_active_cycles == r.sim.cycles);
    }

    /// `reps` rounds of: a load that misses in every cache level, an 8-byte
    /// store whose address waits for that miss, and a `load_size`-byte load
    /// at the store's address plus `offset`, with its address in
    /// `load_addr`. Each round's miss waits for the previous round's last
    /// load, so every forwarding latency lies on one dependence chain.
    fn store_then_load_chain(offset: u64, load_size: u8, load_addr: ArchReg) -> VecTrace {
        let mut insts = Vec::new();
        for i in 0..40 {
            let (pc, store_at) = (i * 16, 0x1_0000 + i * 64);
            insts.push(
                InstBuilder::load(pc, 0x4000_0000 + i * 4096, 8)
                    .dst(ArchReg::int(2))
                    .src(ArchReg::int(1))
                    .build(),
            );
            insts.push(
                InstBuilder::store(pc + 4, store_at, 8)
                    .src(ArchReg::int(2))
                    .build(),
            );
            insts.push(
                InstBuilder::load(pc + 8, store_at + offset, load_size)
                    .dst(ArchReg::int(1))
                    .src(load_addr)
                    .build(),
            );
        }
        VecTrace::new(insts)
    }

    #[test]
    fn partial_overlap_forwarding_pays_its_penalty_at_both_sites() {
        // Every store waits on a miss, migrates and resolves in a Memory
        // Engine. A load whose address waits on the miss as well issues in
        // the same engine and forwards from the epoch's own store queue. A
        // load whose address is ready issues early in the Cache Processor
        // and forwards through the ERT and the SQM; the ERT must be
        // line-based for a load at `store + 4` to find the store. (OoO-64
        // cannot reach the penalty: a Cache Processor store leaves the
        // central queue as it is processed, before any younger load issues.)
        for (site, cfg, load_addr, local_and_global_forwards) in [
            (
                "Memory Engine",
                CpuConfig::fmc_hash(true),
                ArchReg::int(2),
                (40, 0),
            ),
            (
                "Cache Processor",
                CpuConfig::fmc_line(true),
                ArchReg::int(0),
                (0, 40),
            ),
        ] {
            let covered = run(cfg, &mut store_then_load_chain(0, 8, load_addr), 120);
            let partial = run(cfg, &mut store_then_load_chain(4, 8, load_addr), 120);
            assert_eq!(partial.sim.committed, 120);
            let forwards = (partial.lsq.local_forwards, partial.lsq.global_forwards);
            assert_eq!(forwards, local_and_global_forwards, "{site}");
            // Each of the 40 partial forwards lies on the chain and should
            // pay the 30-cycle penalty; at least 35 of them must show.
            assert!(
                partial.sim.cycles >= covered.sim.cycles + 35 * 30,
                "{site}: {} cycles with partly overlapping loads, {} fully covered",
                partial.sim.cycles,
                covered.sim.cycles
            );
        }
    }

    #[test]
    fn sampled_run_collects_one_window_per_period() {
        let spec = SamplingSpec::new(1_000, 200, 100).unwrap();
        let mut t = StreamingFp::swim_like(1);
        let r = Processor::new(CpuConfig::ooo64()).run_sampled(&mut t, 20_000, spec);
        let s = r.sampling.as_ref().expect("sampled run records sampling");
        assert_eq!(s.window_count(), 20);
        assert_eq!(s.skipped, 20 * 700);
        assert_eq!(s.warmed, 20 * 100);
        for w in &s.windows {
            assert_eq!(w.committed, 200);
            assert!(w.cycles > 0);
        }
        assert_eq!(r.sim.committed, 20 * 200);
        assert!(s.mean_ipc() > 0.0);
        assert!(s.ci95_half_width() >= 0.0);
    }

    #[test]
    fn all_detailed_spec_matches_the_plain_run() {
        // window == period means nothing is skipped or warmed: the sampled
        // run must walk exactly the plain run's path.
        let spec = SamplingSpec::new(500, 500, 0).unwrap();
        let mut t1 = PointerChaseInt::mcf_like(3);
        let sampled = Processor::new(CpuConfig::fmc_hash(true)).run_sampled(&mut t1, 10_000, spec);
        let mut t2 = PointerChaseInt::mcf_like(3);
        let plain = run(CpuConfig::fmc_hash(true), &mut t2, 10_000);
        assert_eq!(sampled.sim, plain.sim);
        assert_eq!(sampled.lsq, plain.lsq);
        let s = sampled.sampling.unwrap();
        assert_eq!(s.window_count(), 20);
        assert_eq!(s.skipped + s.warmed, 0);
    }

    #[test]
    fn sampled_runs_are_deterministic() {
        let spec = SamplingSpec::new(2_000, 300, 150).unwrap();
        let run_once = || {
            let mut t = StreamingFp::swim_like(9);
            Processor::new(CpuConfig::fmc_hash(true)).run_sampled(&mut t, 30_000, spec)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn sampled_run_stops_cleanly_at_trace_end() {
        let mut insts = Vec::new();
        for i in 0..1_500u64 {
            insts.push(
                InstBuilder::alu(i * 4, OpClass::IntAlu)
                    .dst(ArchReg::int(1))
                    .src(ArchReg::int(0))
                    .build(),
            );
        }
        let spec = SamplingSpec::new(1_000, 100, 50).unwrap();
        let mut t = VecTrace::new(insts);
        let r = Processor::new(CpuConfig::ooo64()).run_sampled(&mut t, 50_000, spec);
        let s = r.sampling.unwrap();
        // Period 1: skip 850 + warm 50 + window 100 = 1000. Period 2: the
        // trace ends 500 instructions in, mid-skip.
        assert_eq!(s.window_count(), 1);
        assert_eq!(s.skipped, 850 + 500);
        assert_eq!(s.warmed, 50);
        assert_eq!(r.sim.committed, 100);
    }
}
