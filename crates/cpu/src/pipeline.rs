//! The cycle-accounting pipeline shared by the OoO-64 baseline and the FMC
//! large-window processor.
//!
//! The model processes the dynamic instruction stream in program order and
//! computes, for every instruction, the cycle at which each pipeline event
//! happens — fetch, dispatch, issue (address calculation for memory
//! operations), memory access, completion and commit — under explicit
//! structural constraints:
//!
//! * fetch, issue, commit and cache-port bandwidth (port schedules),
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

use std::collections::VecDeque;

use elsq_core::queue::MemOpKind;
use elsq_core::svw::{LoadVulnerability, SvwReexecutor};
use elsq_isa::{DynInst, TraceSource};
use elsq_mem::hierarchy::MemoryHierarchy;
use elsq_mem::ports::PortSchedule;
use elsq_stats::sampling::{SamplingSpec, SamplingStats, WindowSample};

use crate::config::CpuConfig;
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

struct RunState {
    hierarchy: MemoryHierarchy,
    lsq: LsqDriver,
    svw: Option<SvwReexecutor>,
    reg_ready: [u64; NUM_REGS],
    fetch_ports: PortSchedule,
    issue_ports: PortSchedule,
    commit_ports: PortSchedule,
    cache_ports: PortSchedule,
    me_issue: Vec<(u64, u32)>,
    rob_release: VecDeque<u64>,
    mp_release: VecDeque<u64>,
    lq_release: VecDeque<u64>,
    sq_release: VecDeque<u64>,
    store_commit_log: VecDeque<(u64, u64)>,
    fetch_blocked_until: u64,
    last_commit_cycle: u64,
    /// `last_commit_cycle` at the last prune of the port schedules.
    pruned_at: u64,
    cp_leave_prev: u64,
    migration_blocked_until: u64,
    open_epoch: Option<OpenEpoch>,
    closed_epochs: VecDeque<(usize, u64)>,
    mp_busy_start: u64,
    mp_busy_until: u64,
    mp_busy_total: u64,
    seq: u64,
    result: SimResult,
}

/// Timing of one processed instruction, as needed by the fetch loop (the
/// branch-resolution cycle drives wrong-path fetch).
#[derive(Debug, Clone, Copy)]
struct InstTiming {
    complete: u64,
}

impl Processor {
    /// Creates a processor with the given configuration.
    pub fn new(config: CpuConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
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
            let timing = self.process_inst(st, inst);
            // Mispredicted branch: fetch down the wrong path until the branch
            // resolves, then squash and redirect.
            if inst.is_mispredicted_branch() {
                self.run_wrong_path(st, workload, timing.complete);
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
                st.commit_ports.retire_before(horizon);
                st.cache_ports.retire_before(horizon);
            }
        }
        st.result.sim.committed - start
    }

    fn init_state(&self, workload_name: &str) -> RunState {
        let cfg = &self.config;
        let me_count = cfg.fmc.map(|f| f.num_engines).unwrap_or(0);
        let (lq_cap, sq_cap) = self.lsq_caps();
        RunState {
            hierarchy: MemoryHierarchy::new(cfg.hierarchy),
            lsq: LsqDriver::new(&cfg.lsq),
            svw: cfg
                .svw
                .map(|p| SvwReexecutor::new(p.ssbf_bits, p.check_stores)),
            reg_ready: [0; NUM_REGS],
            fetch_ports: PortSchedule::new(cfg.fetch_width),
            issue_ports: PortSchedule::new(cfg.issue_width),
            commit_ports: PortSchedule::new(cfg.commit_width),
            cache_ports: PortSchedule::new(cfg.cache_ports),
            me_issue: vec![(0, 0); me_count.max(1)],
            rob_release: VecDeque::with_capacity(cfg.rob_size + 1),
            mp_release: VecDeque::new(),
            lq_release: VecDeque::with_capacity(lq_cap.unwrap_or(0) + 1),
            sq_release: VecDeque::with_capacity(sq_cap.unwrap_or(0) + 1),
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

    fn lsq_caps(&self) -> (Option<usize>, Option<usize>) {
        match &self.config.lsq {
            crate::config::LsqKind::Central(c) => (c.lq_entries, c.sq_entries),
            crate::config::LsqKind::Elsq(e) => (Some(e.hl_lq_entries), Some(e.hl_sq_entries)),
        }
    }

    /// Fetches and processes wrong-path instructions until `resolve`, then
    /// squashes them.
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
        // Every slot of the burst is a probe of `probe`, so the slots of
        // the instructions that only take a fetch slot are owed and
        // reserved in bulk just before a load takes its own.
        let mut owed = 0u64;
        let mut fetched = 0u64;
        while fetched < burst {
            let (alus, mem) = workload.wrong_path_run(0x4000_0000 + fetched * 4, burst - fetched);
            debug_assert!(mem.is_some() || alus == burst - fetched);
            // ALU ops only take fetch slots (and ROB entries, below).
            owed += alus;
            fetched += alus;
            let Some(inst) = mem else { break };
            let seq = wp_start_seq + fetched;
            fetched += 1;
            if inst.is_load() && !st.lsq.has_room(MemOpKind::Load) {
                // Nothing in a burst frees an LQ entry, so no later load
                // finds room either: draw the tail without building it.
                workload.wrong_path_skip(burst - fetched);
                owed += 1 + burst - fetched;
                fetched = burst;
                break;
            }
            st.fetch_ports.reserve_n(probe, owed);
            owed = 0;
            let fetch = st.fetch_ports.reserve(probe);
            self.process_wrong_path_inst(st, inst, seq, fetch, resolve);
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
        let rob_size = self.config.rob_size;
        let pushed = fetched.min(rob_size as u64) as usize;
        let excess = (st.rob_release.len() + pushed).saturating_sub(rob_size);
        st.rob_release.drain(..excess);
        st.rob_release
            .extend(std::iter::repeat(resolve).take(pushed));
        st.result.sim.wrong_path_fetched += fetched;
        st.result.sim.squashed += fetched;
        st.lsq.squash_from(wp_start_seq);
        st.fetch_blocked_until = st
            .fetch_blocked_until
            .max(resolve + self.config.redirect_penalty as u64);
    }

    /// Processes wrong-path memory instruction `seq`, fetched at `fetch`:
    /// it consumes LSQ entries, issue slots and cache bandwidth, but never
    /// commits or updates the register file, and its resources free at
    /// `resolve`.
    fn process_wrong_path_inst(
        &mut self,
        st: &mut RunState,
        inst: DynInst,
        seq: u64,
        fetch: u64,
        resolve: u64,
    ) {
        let dispatch = fetch + self.config.frontend_depth as u64;
        let kind = if inst.is_load() {
            MemOpKind::Load
        } else {
            MemOpKind::Store
        };
        if st.lsq.has_room(kind) {
            st.lsq.allocate(kind, seq);
            if inst.is_load() {
                let addr = inst.mem_access();
                let ready = self.operand_ready(st, &inst).max(dispatch);
                let issue = st.issue_ports.reserve(ready);
                if issue < resolve {
                    let _ = st
                        .lsq
                        .issue_load(seq, addr, issue, ExecSite::CacheProcessor, None);
                    st.cache_ports.reserve(issue);
                    st.hierarchy.access(addr.addr, false);
                }
            }
        }
    }

    /// Ready cycle of the instruction's source operands.
    fn operand_ready(&self, st: &RunState, inst: &DynInst) -> u64 {
        inst.sources()
            .map(|r| {
                if r.is_zero() {
                    0
                } else {
                    st.reg_ready[r.flat_index()]
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// Processes one correct-path instruction and returns its timing.
    fn process_inst(&mut self, st: &mut RunState, inst: DynInst) -> InstTiming {
        let cfg = self.config;
        let seq = st.seq;
        st.seq += 1;
        st.result.sim.fetched += 1;

        // ------------------------------------------------------------------
        // Fetch: bandwidth, redirect bubbles, ROB and LSQ occupancy.
        // ------------------------------------------------------------------
        let mut earliest = st.fetch_blocked_until;
        if st.rob_release.len() >= cfg.rob_size {
            earliest = earliest.max(*st.rob_release.front().expect("rob_release non-empty"));
        }
        let kind = if inst.is_load() {
            Some(MemOpKind::Load)
        } else if inst.is_store() {
            Some(MemOpKind::Store)
        } else {
            None
        };
        let (lq_cap, sq_cap) = self.lsq_caps();
        if kind == Some(MemOpKind::Load) {
            if let Some(cap) = lq_cap {
                if st.lq_release.len() >= cap {
                    earliest = earliest.max(*st.lq_release.front().expect("lq_release non-empty"));
                }
            }
        }
        if kind == Some(MemOpKind::Store) {
            if let Some(cap) = sq_cap {
                if st.sq_release.len() >= cap {
                    earliest = earliest.max(*st.sq_release.front().expect("sq_release non-empty"));
                }
            }
        }
        let fetch = st.fetch_ports.reserve(earliest);
        let dispatch = fetch + cfg.frontend_depth as u64;

        let mut lsq_tracked = false;
        if let Some(kind) = kind {
            lsq_tracked = st.lsq.allocate(kind, seq);
        }

        // ------------------------------------------------------------------
        // Operand readiness and the migration decision.
        // ------------------------------------------------------------------
        let ready = self.operand_ready(st, &inst).max(dispatch);
        // For memory operations the *address* operand (first source) may be
        // ready long before the data operand; Figure 1, the migration
        // heuristics and restricted SAC all care about address calculation,
        // not data availability.
        let addr_ready = if inst.is_mem() {
            inst.srcs[0]
                .map(|r| {
                    if r.is_zero() {
                        0
                    } else {
                        st.reg_ready[r.flat_index()]
                    }
                })
                .unwrap_or(0)
                .max(dispatch)
        } else {
            ready
        };
        let head_arrival = st.cp_leave_prev.max(dispatch);
        // Estimate the completion cycle if the instruction executed in the CP.
        let est_mem_latency = inst
            .mem
            .map(|m| st.hierarchy.probe_latency(m.addr))
            .unwrap_or(0);
        let est_complete = ready + inst.op.latency() as u64 + est_mem_latency as u64;
        let fmc = cfg.fmc;
        // Migration policy (Section 3.2): an instruction moves to the Memory
        // Processor when it reaches the head of the CP ROB still waiting on a
        // long-latency event, and memory instructions additionally migrate in
        // program order "whenever the low-locality queues are active" so that
        // the small HL-LSQ only ever tracks the youngest references.
        let migrate = match fmc {
            Some(f) if !inst.wrong_path => {
                est_complete > head_arrival + f.migrate_threshold as u64
                    || (inst.is_mem() && st.lsq.ll_active())
            }
            _ => false,
        };

        // ------------------------------------------------------------------
        // Execute: either in the Cache Processor or in a Memory Engine.
        // ------------------------------------------------------------------
        let mut complete;
        let cp_leave;
        let mut migrated = false;
        let mut addr_calc_cycle = None;
        let mut forwarded = false;
        let mut forwarded_from = None;
        let mut older_unknown_store = false;
        let mut penalty_squash_at: Option<u64> = None;

        if !migrate {
            // High-locality execution in the out-of-order Cache Processor.
            let issue = st
                .issue_ports
                .reserve(if inst.is_mem() { addr_ready } else { ready });
            complete = issue.max(ready) + inst.op.latency() as u64;
            if let Some(mem) = inst.mem {
                addr_calc_cycle = Some(issue);
                if inst.is_load() {
                    let out = st
                        .lsq
                        .issue_load(seq, mem, issue, ExecSite::CacheProcessor, None);
                    forwarded = out.forwarded;
                    forwarded_from = out.forwarded_from;
                    older_unknown_store = out.older_unknown_store;
                    let port = st.cache_ports.reserve(issue);
                    let access = st.hierarchy.access(mem.addr, false);
                    if out.forwarded {
                        let data_at = out.forward_ready_at.unwrap_or(issue).max(issue);
                        complete = data_at + 1 + out.extra_latency as u64;
                        if out.partial_overlap {
                            complete += PARTIAL_OVERLAP_PENALTY;
                        }
                    } else {
                        complete = port + access.latency as u64 + out.extra_latency as u64;
                    }
                } else {
                    // Store: the address resolves as soon as its operand is
                    // ready; completion additionally waits for the data; the
                    // cache write happens at commit.
                    let out = st
                        .lsq
                        .resolve_store(seq, mem, issue, ExecSite::CacheProcessor, None);
                    complete = issue.max(ready) + 1 + out.extra_latency as u64;
                    if out.violation_load_seq.is_some() {
                        penalty_squash_at = Some(complete);
                    }
                }
            }
            cp_leave = complete.max(head_arrival);
        } else {
            // Low-locality execution: migrate to the current Memory Engine.
            migrated = true;
            let f = fmc.expect("migration only happens with the Memory Processor enabled");
            let mut migrate_cycle = head_arrival;
            if kind.is_some() {
                // Restricted disambiguation may be stalling memory migration.
                migrate_cycle = migrate_cycle.max(st.migration_blocked_until);
            }
            if st.mp_release.len() >= f.total_window() {
                migrate_cycle = migrate_cycle.max(*st.mp_release.front().expect("mp window"));
            }
            // Epoch management (one epoch per Memory Engine).
            let needs_new_epoch = match st.open_epoch {
                None => true,
                Some(e) => {
                    e.inst_count >= f.me_max_insts
                        || kind.map(|k| st.lsq.needs_new_epoch(k)).unwrap_or(false)
                }
            };
            if needs_new_epoch {
                if let Some(e) = st.open_epoch.take() {
                    st.closed_epochs.push_back((e.bank, e.release));
                }
                loop {
                    if let Some(bank) = st.lsq.open_epoch(seq) {
                        st.open_epoch = Some(OpenEpoch {
                            bank,
                            inst_count: 0,
                            release: migrate_cycle,
                        });
                        break;
                    }
                    // Every bank is live: wait for the oldest epoch to retire.
                    match st.closed_epochs.pop_front() {
                        Some((_bank, release)) => {
                            migrate_cycle = migrate_cycle.max(release);
                            st.lsq.commit_oldest_epoch(Some(st.hierarchy.l1_mut()));
                        }
                        None => {
                            // Only the open epoch remains (it is full); for
                            // central-LSQ FMC runs epochs are virtual, so
                            // just reuse bank 0.
                            st.open_epoch = Some(OpenEpoch {
                                bank: 0,
                                inst_count: 0,
                                release: migrate_cycle,
                            });
                            break;
                        }
                    }
                }
            }
            let epoch = st.open_epoch.as_mut().expect("an epoch is open");
            epoch.inst_count += 1;
            let bank = epoch.bank;
            complete = ready + inst.op.latency() as u64;

            // Execution locality: a memory instruction whose address operands
            // are ready before migration performs its address calculation and
            // cache access in the Cache Processor *first* ("loads that obtain
            // their address in the HL-LSQ but miss in the cache are also
            // migrated"). This is what preserves memory-level parallelism —
            // the miss is already in flight when the instruction moves to the
            // in-order Memory Engine to wait for its data.
            let early_issue = inst.is_mem() && addr_ready <= migrate_cycle;
            if early_issue {
                let mem = inst.mem_access();
                let issue = st.issue_ports.reserve(addr_ready);
                addr_calc_cycle = Some(issue);
                if inst.is_load() {
                    let out = st
                        .lsq
                        .issue_load(seq, mem, issue, ExecSite::CacheProcessor, None);
                    forwarded = out.forwarded;
                    forwarded_from = out.forwarded_from;
                    older_unknown_store = out.older_unknown_store;
                    let port = st.cache_ports.reserve(issue);
                    let access = st.hierarchy.access(mem.addr, false);
                    if out.forwarded {
                        let data_at = out.forward_ready_at.unwrap_or(issue).max(issue);
                        complete = data_at + 1 + out.extra_latency as u64;
                        if out.partial_overlap {
                            complete += PARTIAL_OVERLAP_PENALTY;
                        }
                    } else {
                        complete = port + access.latency as u64 + out.extra_latency as u64;
                    }
                } else {
                    let out = st
                        .lsq
                        .resolve_store(seq, mem, issue, ExecSite::CacheProcessor, None);
                    complete = issue.max(ready) + 1 + out.extra_latency as u64;
                    if out.violation_load_seq.is_some() {
                        penalty_squash_at = Some(complete);
                    }
                }
            }

            // Move the LSQ entry (ELSQ) — central queues keep it in place.
            if let Some(kind) = kind {
                if lsq_tracked {
                    match st.lsq.migrate(kind, seq, Some(st.hierarchy.l1_mut())) {
                        Ok(_) => {}
                        Err(_) => {
                            // Lock stall, capacity race or restricted-model
                            // stall: insertion waits one L2 round-trip while
                            // the oldest epoch (if any) retires and frees its
                            // locked lines, then tries once more.
                            migrate_cycle += cfg.hierarchy.l2.latency as u64;
                            st.result.sim.squashed += 1;
                            if let Some((_bank, release)) = st.closed_epochs.pop_front() {
                                migrate_cycle = migrate_cycle.max(release);
                                st.lsq.commit_oldest_epoch(Some(st.hierarchy.l1_mut()));
                            }
                            if st
                                .lsq
                                .migrate(kind, seq, Some(st.hierarchy.l1_mut()))
                                .is_err()
                            {
                                // No forward progress is possible this cycle;
                                // release the high-locality entry so the
                                // queues stay consistent (the instruction is
                                // accounted for by the timing model alone).
                                st.lsq.commit_mem(kind, seq);
                            }
                        }
                    }
                } else {
                    // The entry was never allocated (queue pressure from
                    // wrong-path bursts); nothing to move.
                }
            }

            if !early_issue {
                // In-order, 2-wide issue inside the Memory Engine.
                let arrival = migrate_cycle + f.network_one_way as u64;
                let me_slot = bank.min(st.me_issue.len() - 1);
                let me = &mut st.me_issue[me_slot];
                let mut issue = ready.max(arrival).max(me.0);
                if issue == me.0 && me.1 >= f.me_issue_width {
                    issue += 1;
                }
                if issue == me.0 {
                    me.1 += 1;
                } else {
                    *me = (issue, 1);
                }
                complete = issue + inst.op.latency() as u64;

                if let Some(mem) = inst.mem {
                    addr_calc_cycle = Some(issue);
                    let site = ExecSite::MemoryEngine { bank };
                    if inst.is_load() {
                        let out =
                            st.lsq
                                .issue_load(seq, mem, issue, site, Some(st.hierarchy.l1_mut()));
                        forwarded = out.forwarded;
                        forwarded_from = out.forwarded_from;
                        older_unknown_store = out.older_unknown_store;
                        if out.needs_squash {
                            penalty_squash_at = Some(issue);
                        }
                        if out.forwarded {
                            let data_at = out.forward_ready_at.unwrap_or(issue).max(issue);
                            complete = data_at + 1 + out.extra_latency as u64;
                            if out.partial_overlap {
                                complete += PARTIAL_OVERLAP_PENALTY;
                            }
                        } else {
                            // Cache access from the Memory Engine crosses the
                            // network both ways; with a central LSQ the search
                            // itself also pays the round-trip (Figure 7).
                            let remote = f.network_one_way as u64;
                            let port = st.cache_ports.reserve(issue + f.network_one_way as u64);
                            let access = st.hierarchy.access(mem.addr, false);
                            let central_penalty = match &st.lsq {
                                LsqDriver::Central(_) => 2 * f.network_one_way as u64,
                                LsqDriver::Elsq(_) => 0,
                            };
                            complete = port
                                + access.latency as u64
                                + out.extra_latency as u64
                                + remote
                                + central_penalty;
                        }
                    } else {
                        let out = st.lsq.resolve_store(
                            seq,
                            mem,
                            issue,
                            site,
                            Some(st.hierarchy.l1_mut()),
                        );
                        complete = issue + 1 + out.extra_latency as u64;
                        if out.needs_squash || out.violation_load_seq.is_some() {
                            penalty_squash_at = Some(complete);
                        }
                        // Restricted disambiguation: while this store's
                        // address was unknown no younger memory reference may
                        // migrate.
                        if let crate::config::LsqKind::Elsq(ecfg) = &cfg.lsq {
                            if ecfg.disambiguation.store_blocks_migration() && issue > migrate_cycle
                            {
                                st.migration_blocked_until = st.migration_blocked_until.max(issue);
                            }
                        }
                    }
                    if inst.is_load() {
                        if let crate::config::LsqKind::Elsq(ecfg) = &cfg.lsq {
                            if ecfg.disambiguation.load_blocks_migration() && issue > migrate_cycle
                            {
                                st.migration_blocked_until = st.migration_blocked_until.max(issue);
                            }
                        }
                    }
                }
            }

            // Track Memory-Processor busy time (Figure 11).
            if migrate_cycle > st.mp_busy_until {
                st.mp_busy_total += st.mp_busy_until.saturating_sub(st.mp_busy_start);
                st.mp_busy_start = migrate_cycle;
                st.mp_busy_until = complete;
            } else {
                st.mp_busy_until = st.mp_busy_until.max(complete);
            }

            cp_leave = migrate_cycle;
        }

        // ------------------------------------------------------------------
        // Commit (in order, commit-width per cycle).
        // ------------------------------------------------------------------
        let mut commit = st.commit_ports.reserve(complete.max(st.last_commit_cycle));
        if let Some(mem) = inst.mem {
            if inst.is_load() {
                // SVW re-execution check at commit.
                if let Some(svw) = st.svw.as_mut() {
                    let issue = addr_calc_cycle.unwrap_or(commit);
                    let safe_ssn = if forwarded {
                        forwarded_from.unwrap_or(0)
                    } else {
                        // Youngest store that had committed when the load
                        // issued. The log's commit cycles are non-decreasing
                        // (commit is in order), so binary search replaces the
                        // former backwards scan over up to 8192 entries.
                        let idx = st
                            .store_commit_log
                            .partition_point(|(cycle, _)| *cycle <= issue);
                        idx.checked_sub(1)
                            .map(|i| st.store_commit_log[i].1)
                            .unwrap_or(0)
                    };
                    let unknown_between = forwarded
                        && st
                            .lsq
                            .has_unknown_store_between(forwarded_from.unwrap_or(0), seq);
                    let vuln = LoadVulnerability {
                        addr: mem.addr,
                        safe_ssn,
                        forwarded,
                        unknown_store_between: unknown_between || older_unknown_store && !forwarded,
                    };
                    if svw.on_load_commit(vuln) {
                        // Re-execute: another cache access at commit delays
                        // this load and everything younger.
                        let port = st.cache_ports.reserve(commit);
                        let access = st.hierarchy.access(mem.addr, false);
                        commit = port + access.latency as u64;
                    }
                }
                if !migrated {
                    st.lsq.commit_mem(MemOpKind::Load, seq);
                }
            } else {
                // Stores write the data cache at commit.
                let port = st.cache_ports.reserve(commit);
                st.hierarchy.access(mem.addr, true);
                commit = commit.max(port);
                if let Some(svw) = st.svw.as_mut() {
                    svw.on_store_commit(seq, mem.addr);
                }
                st.store_commit_log.push_back((commit, seq));
                if st.store_commit_log.len() > STORE_COMMIT_LOG {
                    st.store_commit_log.pop_front();
                }
                if !migrated {
                    st.lsq.commit_mem(MemOpKind::Store, seq);
                }
            }
        }
        st.last_commit_cycle = st.last_commit_cycle.max(commit);

        // Ordering violations / lock conflicts: recovery redirects the front
        // end (the squashed work is approximated as a fetch bubble).
        if let Some(at) = penalty_squash_at {
            st.result.sim.squashed += (cfg.rob_size / 2) as u64;
            st.fetch_blocked_until = st.fetch_blocked_until.max(at + cfg.redirect_penalty as u64);
        }

        // ------------------------------------------------------------------
        // Retirement bookkeeping and statistics.
        // ------------------------------------------------------------------
        if let Some(dst) = inst.dst {
            if !dst.is_zero() {
                st.reg_ready[dst.flat_index()] = complete;
            }
        }
        st.rob_release.push_back(cp_leave);
        if st.rob_release.len() > cfg.rob_size {
            st.rob_release.pop_front();
        }
        if migrated {
            st.mp_release.push_back(commit);
            if let Some(f) = cfg.fmc {
                if st.mp_release.len() > f.total_window() {
                    st.mp_release.pop_front();
                }
            }
            if let Some(e) = st.open_epoch.as_mut() {
                e.release = e.release.max(commit);
            }
        }
        match kind {
            Some(MemOpKind::Load) => {
                let release = if migrated { cp_leave } else { commit };
                st.lq_release.push_back(release);
                if let Some(cap) = lq_cap {
                    if st.lq_release.len() > cap {
                        st.lq_release.pop_front();
                    }
                }
                st.result.sim.committed_loads += 1;
            }
            Some(MemOpKind::Store) => {
                let release = if migrated { cp_leave } else { commit };
                st.sq_release.push_back(release);
                if let Some(cap) = sq_cap {
                    if st.sq_release.len() > cap {
                        st.sq_release.pop_front();
                    }
                }
                st.result.sim.committed_stores += 1;
            }
            None => {}
        }
        if let Some(calc) = addr_calc_cycle {
            let distance = calc.saturating_sub(dispatch);
            st.result.sim.addr_calc_distance_sum += distance;
            if inst.is_load() {
                st.result.load_addr_hist.record(distance);
            } else {
                st.result.store_addr_hist.record(distance);
            }
        }
        st.result.sim.committed += 1;
        st.cp_leave_prev = st.cp_leave_prev.max(cp_leave);

        InstTiming { complete }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CpuConfig, LsqKind};
    use elsq_core::central::CentralLsqConfig;
    use elsq_isa::trace::LoopTrace;
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
                ("commit", &st.commit_ports),
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
        use elsq_isa::trace::VecTrace;
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
