//! The ELSQ coordinator: two-level disambiguation across the HL-LSQ, the
//! epoch-banked LL-LSQ, the Epoch Resolution Table and the Store Queue
//! Mirror.
//!
//! [`Elsq`] owns every queue and filter and implements the paper's
//! disambiguation protocol (Sections 3.2–3.4 and 4):
//!
//! * loads and stores allocate in the **HL-LSQ** at decode;
//! * when the window stalls on an L2 miss, memory instructions **migrate**
//!   in program order into the youngest open **epoch** (one per Memory
//!   Engine), carrying their state with them;
//! * a load first searches its **local** store queue (the HL-SQ for
//!   high-locality loads, its own epoch for low-locality loads); on a miss
//!   the **ERT** is consulted and only the epochs it indicates are searched,
//!   youngest first — through the **SQM** when it is present, avoiding the
//!   network round-trip;
//! * a store whose address resolves checks younger issued loads the same
//!   way (local queue, then Load-ERT, plus the HL-LQ for low-locality
//!   stores);
//! * when the oldest epoch commits its ERT column is cleared in one step,
//!   its mirrored stores are dropped and (for the line-based ERT) its locked
//!   L1 lines are released.
//!
//! Epochs are never squashed. The paper recovers from an ordering violation
//! or a line-lock conflict by squashing epochs back to a checkpoint (Section
//! 4.1); here the outcome only reports the violation or conflict, the
//! timing loop charges it as a fetch bubble, and every epoch leaves through
//! [`Elsq::retire_oldest_epoch`].
//!
//! The processor model in `elsq-cpu` drives these methods and folds the
//! returned latencies into instruction completion times.

use serde::{Deserialize, Serialize};

use elsq_isa::MemAccess;
use elsq_mem::cache::{LockOutcome, SetAssocCache};
use elsq_stats::counters::LsqAccessCounters;

use crate::config::{ElsqConfig, ErtKind};
use crate::epoch::EpochLimits;
use crate::ert::Ert;
use crate::fxhash::FxHashMap;
use crate::hl::HlLsq;
use crate::ll::LlLsq;
use crate::queue::{LoadOutcome, MemEntry, MemOpKind, QueueFullError, StoreOutcome};
use crate::sqm::StoreQueueMirror;

/// The L1 lines one epoch bank holds locked (line-based ERT only).
///
/// Each *acquired lock* is one unit: an epoch may lock the same line through
/// several of its memory instructions, and every unit must be balanced by
/// one `unlock_line` call when the epoch ends. The per-address multiset is a
/// hashed map (address → lock count), replacing the former per-bank `Vec`
/// push/drain lists: membership stays O(1) however many lines an epoch
/// touches, and the map's storage is retained across epochs occupying the
/// bank, so epoch turnover performs no allocation.
#[derive(Debug, Clone, Default)]
struct LineLockSet {
    locks: FxHashMap<u64, u32>,
}

impl LineLockSet {
    /// Records one acquired lock on the line containing `addr`.
    fn acquire(&mut self, addr: u64) {
        *self.locks.entry(addr).or_insert(0) += 1;
    }

    /// Releases every recorded lock against `l1` (when provided) and leaves
    /// the set empty but with its storage intact.
    fn release_all(&mut self, l1: Option<&mut SetAssocCache>) {
        match l1 {
            Some(cache) => {
                for (addr, count) in self.locks.drain() {
                    for _ in 0..count {
                        cache.unlock_line(addr);
                    }
                }
            }
            None => self.locks.clear(),
        }
    }
}

/// Serialization flattens the multiset into sorted `(addr, count)` pairs so
/// the output is deterministic regardless of hash-map iteration order.
impl Serialize for LineLockSet {
    fn to_value(&self) -> serde::Value {
        let mut pairs: Vec<(u64, u32)> = self.locks.iter().map(|(&a, &c)| (a, c)).collect();
        pairs.sort_unstable();
        pairs.to_value()
    }
}

impl Deserialize for LineLockSet {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = Vec::<(u64, u32)>::from_value(value)?;
        let mut set = LineLockSet::default();
        for (addr, count) in pairs {
            for _ in 0..count {
                set.acquire(addr);
            }
        }
        Ok(set)
    }
}

/// Why a migration request could not be satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateError {
    /// A restricted-disambiguation model is blocking migration until the
    /// named instruction resolves its address.
    Blocked {
        /// Sequence number of the blocking instruction.
        by_seq: u64,
    },
    /// No epoch is open, or the youngest epoch has no room for this kind of
    /// entry; the caller must open a new epoch first.
    NeedsNewEpoch,
    /// Line-based ERT: the instruction's line cannot be locked because every
    /// way of its set is locked; insertion stalls (Section 3.4).
    LockStall,
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Blocked { by_seq } => {
                write!(f, "migration blocked by unresolved instruction {by_seq}")
            }
            MigrateError::NeedsNewEpoch => write!(f, "a new epoch must be opened"),
            MigrateError::LockStall => write!(f, "cache line could not be locked"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// The Epoch-based Load/Store Queue.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Elsq {
    config: ElsqConfig,
    hl: HlLsq,
    ll: LlLsq,
    ert: Ert,
    sqm: Option<StoreQueueMirror>,
    counters: LsqAccessCounters,
    /// Line-based ERT: per-bank multiset of L1 line addresses locked by the
    /// epoch occupying the bank (one count per acquired lock).
    locked_lines: Vec<LineLockSet>,
    /// Restricted disambiguation: migration is blocked until this
    /// instruction resolves its address.
    migration_block: Option<u64>,
}

impl Elsq {
    /// Creates an ELSQ.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ElsqConfig::validate`]).
    pub fn new(config: ElsqConfig) -> Self {
        config.validate().expect("invalid ELSQ configuration");
        let limits = EpochLimits {
            max_loads: config.epoch_max_loads,
            max_stores: config.epoch_max_stores,
        };
        Self {
            config,
            hl: HlLsq::new(config.hl_lq_entries, config.hl_sq_entries),
            ll: LlLsq::new(config.num_epochs, limits),
            ert: Ert::new(config.ert, config.num_epochs, 32),
            sqm: if config.sqm {
                Some(StoreQueueMirror::new())
            } else {
                None
            },
            counters: LsqAccessCounters::default(),
            locked_lines: vec![LineLockSet::default(); config.num_epochs],
            migration_block: None,
        }
    }

    /// Accumulated access counters.
    pub fn counters(&self) -> &LsqAccessCounters {
        &self.counters
    }

    /// Whether the Memory Processor side is active (any live epoch). When it
    /// is not, the LL-LSQ, ERT and SQM can sit in a low-power mode
    /// (Figure 11).
    pub fn ll_active(&self) -> bool {
        !self.ll.is_idle()
    }

    /// Total number of epochs allocated over the run.
    pub fn epochs_allocated(&self) -> u64 {
        self.ll.total_allocated()
    }

    /// Whether the line-based ERT is in use.
    fn line_based(&self) -> bool {
        self.config.ert == ErtKind::Line
    }

    /// Whether the load queues are associative (searched by stores for
    /// ordering violations). Under SVW re-execution they are not, and loads
    /// are never published in a Load-ERT either.
    fn lq_associative(&self) -> bool {
        !self.config.reexec.is_svw()
    }

    /// Whether loads must be published in the Load-ERT so low-locality
    /// stores can find them.
    fn track_loads(&self) -> bool {
        self.config.disambiguation.needs_load_ert() && self.lq_associative()
    }

    // ------------------------------------------------------------------
    // High-locality operations
    // ------------------------------------------------------------------

    /// Whether the HL queue for `kind` has a free entry (decode stalls when
    /// it does not).
    pub fn hl_has_room(&self, kind: MemOpKind) -> bool {
        self.hl.has_room(kind)
    }

    /// Allocates an HL entry at decode.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when the HL queue for `kind` is full.
    pub fn allocate_hl(&mut self, kind: MemOpKind, seq: u64) -> Result<(), QueueFullError> {
        self.hl.allocate(kind, seq)
    }

    /// A high-locality store's address (and data) become available.
    pub fn hl_store_address_ready(
        &mut self,
        seq: u64,
        addr: MemAccess,
        cycle: u64,
    ) -> StoreOutcome {
        self.hl.set_address(MemOpKind::Store, seq, addr);
        self.hl.set_issued(MemOpKind::Store, seq, cycle);
        if let Some(block) = self.migration_block {
            if block == seq {
                self.migration_block = None;
            }
        }
        // Violation check: only younger loads can be violated and every
        // younger load lives in the HL-LQ, so the small CAM search suffices.
        // Under SVW re-execution the load queue is non-associative and the
        // check is skipped entirely (loads verify themselves at commit).
        let violation = if self.lq_associative() {
            self.counters.hl_lq_searches += 1;
            let v = self.hl.search_loads(seq, &addr);
            if v.is_some() {
                self.counters.order_violations += 1;
            }
            v
        } else {
            None
        };
        StoreOutcome {
            violation_load_seq: violation,
            extra_latency: self.config.search_latency,
            lock_conflict: false,
        }
    }

    /// A high-locality load issues: local HL-SQ search, then the ERT/SQM path
    /// for forwarding from low-locality stores.
    pub fn issue_hl_load(&mut self, seq: u64, addr: MemAccess, cycle: u64) -> LoadOutcome {
        self.hl.set_address(MemOpKind::Load, seq, addr);
        self.hl.set_issued(MemOpKind::Load, seq, cycle);
        if let Some(block) = self.migration_block {
            if block == seq {
                self.migration_block = None;
            }
        }
        let mut out = LoadOutcome {
            older_unknown_store: self.hl.has_older_unknown_store(seq)
                || self.ll.has_unresolved_stores(),
            ..LoadOutcome::default()
        };
        // Level 1: the local (high-locality) store queue.
        self.counters.hl_sq_searches += 1;
        if let Some(hit) = self.hl.search_stores(seq, &addr) {
            self.counters.local_forwards += 1;
            out.forward = Some(hit);
            out.extra_latency = self.config.search_latency;
            return out;
        }
        // Level 2: global disambiguation through the ERT, only while the
        // Memory Processor is active.
        if !self.ll_active() {
            return out;
        }
        self.counters.ert_lookups += 1;
        let mask = self.ert.query_stores(addr.addr);
        if mask.is_empty() {
            // The ERT access happens in parallel with the L1 access, so a
            // negative answer adds no latency.
            return out;
        }
        out.extra_latency += self.config.ert_latency;
        if self.sqm.is_some() {
            self.counters.sqm_lookups += 1;
            out.extra_latency += self.config.sqm_latency;
            let hit = self.sqm.as_ref().and_then(|m| m.search(seq, &addr));
            match hit {
                Some(hit) => {
                    self.counters.global_forwards += 1;
                    self.counters.ert_true_positives += 1;
                    out.forward = Some(hit.forward());
                }
                None => {
                    self.counters.ert_false_positives += 1;
                }
            }
            return out;
        }
        // No SQM: a network round-trip plus remote epoch searches, youngest
        // indicated epoch first.
        self.counters.roundtrips += 1;
        out.extra_latency += 2 * self.config.network_one_way;
        let mut searched = 0u32;
        let mut found = None;
        for bank in self.ll.iter_banks_young_to_old() {
            if !mask.contains(bank) {
                continue;
            }
            searched += 1;
            self.counters.ll_sq_searches += 1;
            if let Some(epoch) = self.ll.epoch(bank) {
                if let Some(hit) = epoch.search_stores(seq, &addr) {
                    found = Some(hit);
                    break;
                }
            }
        }
        out.extra_latency += searched * (self.config.search_latency + self.config.hop_latency);
        match found {
            Some(hit) => {
                self.counters.global_forwards += 1;
                self.counters.ert_true_positives += 1;
                out.forward = Some(hit);
            }
            None => {
                self.counters.ert_false_positives += 1;
            }
        }
        out
    }

    /// Commits (removes) a high-locality memory instruction.
    pub fn commit_hl(&mut self, kind: MemOpKind, seq: u64) -> Option<MemEntry> {
        self.hl.remove(kind, seq)
    }

    // ------------------------------------------------------------------
    // Migration and epoch management
    // ------------------------------------------------------------------

    /// Opens a new epoch whose first instruction is `first_seq`.
    ///
    /// # Errors
    ///
    /// Returns an error when all epoch banks are live.
    pub fn open_epoch(&mut self, first_seq: u64) -> Result<usize, crate::ll::NoFreeEpochError> {
        self.ll.open_epoch(first_seq)
    }

    /// The bank migration currently targets: the youngest epoch, provided it
    /// has room for `kind`. `None` means a new epoch must be opened.
    pub fn migration_target(&self, kind: MemOpKind) -> Option<usize> {
        let bank = self.ll.youngest_bank()?;
        let epoch = self.ll.epoch(bank)?;
        if epoch.has_room(kind) {
            Some(bank)
        } else {
            None
        }
    }

    /// Migrates the high-locality memory instruction `seq` of `kind` into the
    /// youngest epoch, carrying its address/issue state.
    ///
    /// `l1` must be provided when the line-based ERT is configured so that
    /// referenced lines can be locked.
    ///
    /// # Errors
    ///
    /// * [`MigrateError::Blocked`] — a restricted model is stalling migration,
    /// * [`MigrateError::NeedsNewEpoch`] — no epoch with room is open,
    /// * [`MigrateError::LockStall`] — the line-based ERT could not lock the
    ///   instruction's line (insertion from the HL-LSQ stalls).
    pub fn migrate_to_ll(
        &mut self,
        kind: MemOpKind,
        seq: u64,
        l1: Option<&mut SetAssocCache>,
    ) -> Result<usize, MigrateError> {
        if let Some(by_seq) = self.migration_block {
            self.counters.restricted_stalls += 1;
            return Err(MigrateError::Blocked { by_seq });
        }
        let bank = self
            .migration_target(kind)
            .ok_or(MigrateError::NeedsNewEpoch)?;
        let addr = self
            .hl
            .load_queue()
            .get(seq)
            .or_else(|| self.hl.store_queue().get(seq))
            .and_then(|e| e.addr);
        // Line locking must succeed *before* the entry leaves the HL-LSQ.
        if let (Some(a), true) = (addr, self.line_based()) {
            let cache = l1.expect("line-based ERT requires the L1 cache");
            match cache.lock_line(a.addr) {
                LockOutcome::SetFull => {
                    self.counters.lock_conflict_stalls += 1;
                    return Err(MigrateError::LockStall);
                }
                _ => {
                    self.counters.lines_locked += 1;
                    self.locked_lines[bank].acquire(a.addr);
                }
            }
        }
        let entry = self
            .hl
            .remove(kind, seq)
            .expect("migrating an instruction that is not in the HL-LSQ");
        let ready_at = entry.ready_at;
        let issued = entry.issued;
        self.ll
            .insert(bank, kind, entry)
            .expect("migration target epoch reported room but rejected the entry");
        // Only the store-queue bank is a CAM that later forwarding searches
        // must match against, so its insertion counts as an access; load
        // entries are plain RAM writes and only their searches are counted.
        if kind == MemOpKind::Store {
            self.counters.ll_sq_searches += 1;
        }
        if let Some(a) = addr {
            match kind {
                MemOpKind::Store => {
                    self.ert.set_store(a.addr, bank);
                    if let Some(sqm) = self.sqm.as_mut() {
                        sqm.upsert(seq, a, bank, issued, ready_at);
                    }
                }
                MemOpKind::Load => {
                    if self.track_loads() {
                        self.ert.set_load(a.addr, bank);
                    }
                }
            }
        } else {
            let blocks = match kind {
                MemOpKind::Store => self.config.disambiguation.store_blocks_migration(),
                MemOpKind::Load => self.config.disambiguation.load_blocks_migration(),
            };
            if blocks {
                self.migration_block = Some(seq);
            }
        }
        Ok(bank)
    }

    // ------------------------------------------------------------------
    // Low-locality operations
    // ------------------------------------------------------------------

    /// A low-locality load (in epoch `bank`) issues.
    pub fn issue_ll_load(
        &mut self,
        bank: usize,
        seq: u64,
        addr: MemAccess,
        cycle: u64,
        l1: Option<&mut SetAssocCache>,
    ) -> LoadOutcome {
        let mut out = LoadOutcome {
            older_unknown_store: self.ll.has_unresolved_stores(),
            ..LoadOutcome::default()
        };
        if let Some(block) = self.migration_block {
            if block == seq {
                self.migration_block = None;
            }
        }
        // Lock the line / publish the load in the ERT so older stores that
        // resolve later can find it.
        if self.line_based() && self.track_loads() {
            let cache = l1.expect("line-based ERT requires the L1 cache");
            match cache.lock_line(addr.addr) {
                LockOutcome::SetFull => {
                    self.counters.lock_conflict_squashes += 1;
                    out.lock_conflict = true;
                    return out;
                }
                _ => {
                    self.counters.lines_locked += 1;
                    self.locked_lines[bank].acquire(addr.addr);
                }
            }
        }
        let own_id = match self.ll.set_address(bank, MemOpKind::Load, seq, addr) {
            Some(epoch) => {
                epoch.set_issued(MemOpKind::Load, seq, cycle);
                epoch.id()
            }
            None => return out,
        };
        if self.track_loads() {
            self.ert.set_load(addr.addr, bank);
        }
        // Local disambiguation: the epoch's own store queue.
        self.counters.ll_sq_searches += 1;
        out.extra_latency += self.config.search_latency;
        if let Some(hit) = self
            .ll
            .epoch(bank)
            .and_then(|e| e.search_stores(seq, &addr))
        {
            self.counters.local_forwards += 1;
            out.forward = Some(hit);
            return out;
        }
        // Global disambiguation: consult the ERT at the Cache Processor.
        self.counters.ert_lookups += 1;
        self.counters.roundtrips += 1;
        out.extra_latency += 2 * self.config.network_one_way + self.config.ert_latency;
        let mut mask = self.ert.query_stores(addr.addr);
        mask.clear(bank); // the local epoch was already searched
        if mask.is_empty() {
            return out;
        }
        if self.sqm.is_some() {
            self.counters.sqm_lookups += 1;
            out.extra_latency += self.config.sqm_latency;
            let hit = self.sqm.as_ref().and_then(|m| m.search(seq, &addr));
            match hit {
                Some(hit) => {
                    self.counters.global_forwards += 1;
                    self.counters.ert_true_positives += 1;
                    out.forward = Some(hit.forward());
                }
                None => self.counters.ert_false_positives += 1,
            }
            return out;
        }
        // Walk older indicated epochs, youngest first.
        let mut searched = 0u32;
        let mut found = None;
        for other in self.ll.iter_banks_young_to_old() {
            if !mask.contains(other) {
                continue;
            }
            let Some(epoch) = self.ll.epoch(other) else {
                continue;
            };
            if epoch.id() >= own_id {
                continue; // only older epochs can hold older stores
            }
            searched += 1;
            self.counters.ll_sq_searches += 1;
            if let Some(hit) = epoch.search_stores(seq, &addr) {
                found = Some(hit);
                break;
            }
        }
        out.extra_latency += searched * (self.config.search_latency + self.config.hop_latency);
        match found {
            Some(hit) => {
                self.counters.global_forwards += 1;
                self.counters.ert_true_positives += 1;
                out.forward = Some(hit);
            }
            None => {
                if searched > 0 {
                    self.counters.ert_false_positives += 1;
                }
            }
        }
        out
    }

    /// A low-locality store (in epoch `bank`) resolves its address.
    pub fn ll_store_address_ready(
        &mut self,
        bank: usize,
        seq: u64,
        addr: MemAccess,
        cycle: u64,
        l1: Option<&mut SetAssocCache>,
    ) -> StoreOutcome {
        let mut out = StoreOutcome::default();
        if self.migration_block == Some(seq) {
            self.migration_block = None;
        }
        if self.line_based() {
            let cache = l1.expect("line-based ERT requires the L1 cache");
            match cache.lock_line(addr.addr) {
                LockOutcome::SetFull => {
                    self.counters.lock_conflict_squashes += 1;
                    out.lock_conflict = true;
                    return out;
                }
                _ => {
                    self.counters.lines_locked += 1;
                    self.locked_lines[bank].acquire(addr.addr);
                }
            }
        }
        let own_id = match self.ll.set_address(bank, MemOpKind::Store, seq, addr) {
            Some(epoch) => {
                epoch.set_issued(MemOpKind::Store, seq, cycle);
                epoch.id()
            }
            None => return out,
        };
        self.ert.set_store(addr.addr, bank);
        if let Some(sqm) = self.sqm.as_mut() {
            sqm.upsert(seq, addr, bank, true, cycle);
        }
        if !self.lq_associative() {
            // SVW re-execution: stores never search load queues.
            return out;
        }
        // Local violation check.
        self.counters.ll_lq_searches += 1;
        out.extra_latency += self.config.search_latency;
        let mut violation = self.ll.epoch(bank).and_then(|e| e.search_loads(seq, &addr));
        // Global violation check in younger epochs (guided by the Load-ERT)
        // and in the HL-LQ, which always holds the youngest loads.
        if violation.is_none() && self.config.disambiguation.needs_load_ert() {
            self.counters.ert_lookups += 1;
            let mut mask = self.ert.query_loads(addr.addr);
            mask.clear(bank);
            let mut searched = 0u32;
            for other in self.ll.iter_banks_young_to_old() {
                if !mask.contains(other) {
                    continue;
                }
                let Some(epoch) = self.ll.epoch(other) else {
                    continue;
                };
                if epoch.id() <= own_id {
                    continue; // only younger epochs can hold younger loads
                }
                searched += 1;
                self.counters.ll_lq_searches += 1;
                if let Some(v) = epoch.search_loads(seq, &addr) {
                    violation = Some(v);
                    break;
                }
            }
            out.extra_latency += searched * (self.config.search_latency + self.config.hop_latency);
        }
        if violation.is_none() {
            self.counters.hl_lq_searches += 1;
            self.counters.roundtrips += 1;
            out.extra_latency += 2 * self.config.network_one_way + self.config.search_latency;
            violation = self.hl.search_loads(seq, &addr);
        }
        if violation.is_some() {
            self.counters.order_violations += 1;
        }
        out.violation_load_seq = violation;
        out
    }

    /// Marks a low-locality store's data as ready (it may have resolved its
    /// address earlier, before its data arrived).
    pub fn ll_store_data_ready(&mut self, bank: usize, seq: u64, cycle: u64) {
        if let Some(epoch) = self.ll.epoch_mut(bank) {
            epoch.set_issued(MemOpKind::Store, seq, cycle);
        }
        if let Some(sqm) = self.sqm.as_mut() {
            sqm.set_data_ready(seq, cycle);
        }
    }

    /// Whether any store between `store_seq` and `load_seq` (in either
    /// level) has an unknown address — the SVW CheckStores predicate.
    pub fn has_unknown_store_between(&self, store_seq: u64, load_seq: u64) -> bool {
        if self.hl.has_unknown_store_between(store_seq, load_seq) {
            return true;
        }
        self.ll
            .iter_banks_young_to_old()
            .filter_map(|b| self.ll.epoch(b))
            .any(|e| e.unresolved_stores() > 0 && e.has_unknown_store_between(store_seq, load_seq))
    }

    // ------------------------------------------------------------------
    // Commit and recovery
    // ------------------------------------------------------------------

    /// Commits the oldest epoch: clears its ERT column, unlocks its lines and
    /// drops its mirrored stores. Its stores are not materialized: the cycle
    /// loop models their write-back at instruction commit. Returns whether
    /// an epoch was retired.
    pub fn retire_oldest_epoch(&mut self, l1: Option<&mut SetAssocCache>) -> bool {
        let Some(epoch) = self.ll.commit_oldest() else {
            return false;
        };
        let bank = epoch.bank();
        self.ert.clear_epoch(bank);
        if let Some(sqm) = self.sqm.as_mut() {
            sqm.drop_bank(bank);
        }
        if self.line_based() {
            self.locked_lines[bank].release_all(l1);
        }
        self.ll.recycle(epoch);
        true
    }

    /// Squashes every HL entry with sequence number `>= from_seq` (branch
    /// misprediction recovery in the high-locality stream). Returns how many
    /// entries were removed.
    pub fn squash_hl_from(&mut self, from_seq: u64) -> usize {
        if self
            .migration_block
            .is_some_and(|blocked| blocked >= from_seq)
        {
            self.migration_block = None;
        }
        self.hl.squash_from(from_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ErtKind;
    use crate::disambig::DisambiguationModel;
    use elsq_mem::cache::CacheConfig;

    fn acc(a: u64) -> MemAccess {
        MemAccess::new(a, 8)
    }

    fn small_config() -> ElsqConfig {
        ElsqConfig {
            hl_lq_entries: 8,
            hl_sq_entries: 8,
            num_epochs: 4,
            epoch_max_insts: 16,
            epoch_max_loads: 8,
            epoch_max_stores: 4,
            ..ElsqConfig::default()
        }
    }

    #[test]
    fn hl_forwarding_path() {
        let mut lsq = Elsq::new(small_config());
        lsq.allocate_hl(MemOpKind::Store, 1).unwrap();
        lsq.allocate_hl(MemOpKind::Load, 2).unwrap();
        lsq.hl_store_address_ready(1, acc(0x100), 5);
        let out = lsq.issue_hl_load(2, acc(0x100), 6);
        assert_eq!(out.forward.map(|f| f.store_seq), Some(1));
        assert_eq!(lsq.counters().global_forwards, 0);
        assert_eq!(lsq.counters().local_forwards, 1);
        assert_eq!(lsq.counters().hl_sq_searches, 1);
    }

    #[test]
    fn hl_store_violation_detection() {
        let mut lsq = Elsq::new(small_config());
        lsq.allocate_hl(MemOpKind::Store, 1).unwrap();
        lsq.allocate_hl(MemOpKind::Load, 2).unwrap();
        let load = lsq.issue_hl_load(2, acc(0x40), 3);
        assert!(load.older_unknown_store);
        let out = lsq.hl_store_address_ready(1, acc(0x40), 9);
        assert_eq!(out.violation_load_seq, Some(2));
        assert_eq!(lsq.counters().order_violations, 1);
    }

    #[test]
    fn migration_and_remote_forwarding_via_sqm() {
        let mut lsq = Elsq::new(small_config());
        // Store 1 resolves its address in the HL-LSQ, then migrates; load 10
        // (still high-locality) forwards from it through ERT + SQM.
        lsq.allocate_hl(MemOpKind::Store, 1).unwrap();
        lsq.hl_store_address_ready(1, acc(0x200), 4);
        lsq.open_epoch(1).unwrap();
        let bank = lsq.migrate_to_ll(MemOpKind::Store, 1, None).unwrap();
        assert!(lsq.ll_active());
        assert_eq!(lsq.ll.epoch(bank).unwrap().stores().count(), 1);
        lsq.allocate_hl(MemOpKind::Load, 10).unwrap();
        let out = lsq.issue_hl_load(10, acc(0x200), 20);
        assert_eq!(out.forward.map(|f| f.store_seq), Some(1));
        assert_eq!(lsq.counters().local_forwards, 0);
        assert_eq!(lsq.counters().sqm_lookups, 1);
        assert_eq!(lsq.counters().ert_true_positives, 1);
        assert_eq!(lsq.counters().global_forwards, 1);
        // Committing the epoch clears the ERT so later loads no longer match.
        assert_eq!(lsq.ll.iter_banks_young_to_old().last(), Some(bank));
        assert!(lsq.retire_oldest_epoch(None));
        assert!(!lsq.ll_active());
        lsq.allocate_hl(MemOpKind::Load, 11).unwrap();
        let out = lsq.issue_hl_load(11, acc(0x200), 30);
        assert!(out.forward.is_none());
    }

    #[test]
    fn remote_forwarding_without_sqm_uses_roundtrip() {
        let mut lsq = Elsq::new(small_config().with_sqm(false));
        lsq.allocate_hl(MemOpKind::Store, 1).unwrap();
        lsq.hl_store_address_ready(1, acc(0x300), 4);
        lsq.open_epoch(1).unwrap();
        lsq.migrate_to_ll(MemOpKind::Store, 1, None).unwrap();
        lsq.allocate_hl(MemOpKind::Load, 5).unwrap();
        let out = lsq.issue_hl_load(5, acc(0x300), 9);
        assert_eq!(out.forward.map(|f| f.store_seq), Some(1));
        assert_eq!(lsq.counters().roundtrips, 1);
        assert!(lsq.counters().ll_sq_searches >= 1);
        // The round-trip makes this slower than the SQM path.
        assert!(out.extra_latency >= 2 * lsq.config.network_one_way);
    }

    #[test]
    fn ert_false_positive_counted() {
        // Hash ERT with few bits: a store to one address aliases with a load
        // to a different address, triggering a useless remote search.
        let cfg = small_config()
            .with_ert(ErtKind::Hash { bits: 4 })
            .with_sqm(false);
        let mut lsq = Elsq::new(cfg);
        lsq.allocate_hl(MemOpKind::Store, 1).unwrap();
        lsq.hl_store_address_ready(1, acc(0x10), 2);
        lsq.open_epoch(1).unwrap();
        lsq.migrate_to_ll(MemOpKind::Store, 1, None).unwrap();
        lsq.allocate_hl(MemOpKind::Load, 3).unwrap();
        // 0x1_0010 aliases 0x10 under 4 index bits but does not overlap.
        let out = lsq.issue_hl_load(3, acc(0x1_0010), 8);
        assert!(out.forward.is_none());
        assert_eq!(lsq.counters().ert_false_positives, 1);
    }

    #[test]
    fn ll_local_and_remote_searches() {
        let mut lsq = Elsq::new(small_config().with_sqm(false));
        // Two epochs: an old store in epoch 0, a younger load in epoch 1.
        lsq.allocate_hl(MemOpKind::Store, 1).unwrap();
        lsq.hl_store_address_ready(1, acc(0x500), 2);
        lsq.open_epoch(1).unwrap();
        let b0 = lsq.migrate_to_ll(MemOpKind::Store, 1, None).unwrap();
        lsq.allocate_hl(MemOpKind::Load, 20).unwrap();
        lsq.open_epoch(20).unwrap();
        let b1 = lsq.migrate_to_ll(MemOpKind::Load, 20, None).unwrap();
        assert_ne!(b0, b1);
        let out = lsq.issue_ll_load(b1, 20, acc(0x500), 30, None);
        assert_eq!(out.forward.map(|f| f.store_seq), Some(1));
        let forwards = |lsq: &Elsq| {
            (
                lsq.counters().local_forwards,
                lsq.counters().global_forwards,
            )
        };
        assert_eq!(forwards(&lsq), (0, 1));
        // Local forwarding within one epoch.
        lsq.allocate_hl(MemOpKind::Store, 21).unwrap();
        lsq.allocate_hl(MemOpKind::Load, 22).unwrap();
        lsq.migrate_to_ll(MemOpKind::Store, 21, None).unwrap();
        lsq.migrate_to_ll(MemOpKind::Load, 22, None).unwrap();
        lsq.ll_store_address_ready(b1, 21, acc(0x600), 31, None);
        let out = lsq.issue_ll_load(b1, 22, acc(0x600), 32, None);
        assert_eq!(out.forward.map(|f| f.store_seq), Some(21));
        assert_eq!(forwards(&lsq), (1, 1));
    }

    #[test]
    fn ll_store_violation_checks_hl_and_younger_epochs() {
        let mut lsq = Elsq::new(small_config());
        // An unresolved store migrates; a younger HL load issues to the same
        // address; when the store resolves in the LL it must detect the
        // violation in the HL-LQ.
        lsq.allocate_hl(MemOpKind::Store, 1).unwrap();
        lsq.open_epoch(1).unwrap();
        let bank = lsq.migrate_to_ll(MemOpKind::Store, 1, None).unwrap();
        lsq.allocate_hl(MemOpKind::Load, 5).unwrap();
        let _ = lsq.issue_hl_load(5, acc(0x700), 10);
        let out = lsq.ll_store_address_ready(bank, 1, acc(0x700), 40, None);
        assert_eq!(out.violation_load_seq, Some(5));
        assert!(lsq.counters().hl_lq_searches >= 1);
    }

    #[test]
    fn restricted_sac_blocks_migration_until_store_resolves() {
        let cfg = small_config().with_disambiguation(DisambiguationModel::RestrictedSac);
        let mut lsq = Elsq::new(cfg);
        lsq.allocate_hl(MemOpKind::Store, 1).unwrap(); // address unknown
        lsq.allocate_hl(MemOpKind::Load, 2).unwrap();
        lsq.open_epoch(1).unwrap();
        let bank = lsq.migrate_to_ll(MemOpKind::Store, 1, None).unwrap();
        assert_eq!(lsq.migration_block, Some(1));
        assert_eq!(
            lsq.migrate_to_ll(MemOpKind::Load, 2, None),
            Err(MigrateError::Blocked { by_seq: 1 })
        );
        assert_eq!(lsq.counters().restricted_stalls, 1);
        // Once the store resolves, migration resumes.
        lsq.ll_store_address_ready(bank, 1, acc(0x40), 50, None);
        assert_eq!(lsq.migration_block, None);
        assert!(lsq.migrate_to_ll(MemOpKind::Load, 2, None).is_ok());
    }

    #[test]
    fn restricted_sac_skips_load_ert() {
        let cfg = small_config().with_disambiguation(DisambiguationModel::RestrictedSac);
        let mut lsq = Elsq::new(cfg);
        lsq.allocate_hl(MemOpKind::Load, 1).unwrap();
        lsq.open_epoch(1).unwrap();
        let bank = lsq.migrate_to_ll(MemOpKind::Load, 1, None).unwrap();
        let before = lsq.counters().ert_lookups;
        let _ = lsq.issue_ll_load(bank, 1, acc(0x20), 5, None);
        // The load still consults the Store-ERT for forwarding but is never
        // inserted into a Load-ERT (none exists under restricted SAC).
        assert!(lsq.counters().ert_lookups >= before);
        assert!(lsq.ert.query_loads(0x20).is_empty());
    }

    #[test]
    fn migration_needs_epoch_with_room() {
        let mut cfg = small_config();
        cfg.epoch_max_stores = 1;
        let mut lsq = Elsq::new(cfg);
        lsq.allocate_hl(MemOpKind::Store, 1).unwrap();
        lsq.allocate_hl(MemOpKind::Store, 2).unwrap();
        assert_eq!(
            lsq.migrate_to_ll(MemOpKind::Store, 1, None),
            Err(MigrateError::NeedsNewEpoch)
        );
        lsq.open_epoch(1).unwrap();
        lsq.migrate_to_ll(MemOpKind::Store, 1, None).unwrap();
        assert_eq!(
            lsq.migrate_to_ll(MemOpKind::Store, 2, None),
            Err(MigrateError::NeedsNewEpoch)
        );
        lsq.open_epoch(2).unwrap();
        assert!(lsq.migrate_to_ll(MemOpKind::Store, 2, None).is_ok());
        assert_eq!(lsq.ll.iter_banks_young_to_old().count(), 2);
        assert_eq!(lsq.epochs_allocated(), 2);
    }

    #[test]
    fn line_based_ert_locks_and_unlocks_lines() {
        let cfg = small_config().with_ert(ErtKind::Line);
        let mut lsq = Elsq::new(cfg);
        let mut l1 = SetAssocCache::new(CacheConfig::default_l1());
        lsq.allocate_hl(MemOpKind::Store, 1).unwrap();
        lsq.hl_store_address_ready(1, acc(0x1000), 2);
        lsq.open_epoch(1).unwrap();
        lsq.migrate_to_ll(MemOpKind::Store, 1, Some(&mut l1))
            .unwrap();
        assert!(l1.is_locked(0x1000));
        assert_eq!(lsq.counters().lines_locked, 1);
        assert!(lsq.retire_oldest_epoch(Some(&mut l1)));
        assert!(!l1.is_locked(0x1000));
    }

    #[test]
    fn line_based_lock_conflict_causes_stall_or_squash() {
        let cfg = small_config().with_ert(ErtKind::Line);
        let mut lsq = Elsq::new(cfg);
        // A tiny direct-mapped cache where a single set exists, so a second
        // locked line always conflicts.
        let mut l1 = SetAssocCache::new(CacheConfig {
            size_bytes: 32,
            assoc: 1,
            line_bytes: 32,
            latency: 1,
        });
        lsq.allocate_hl(MemOpKind::Store, 1).unwrap();
        lsq.hl_store_address_ready(1, acc(0x0), 2);
        lsq.allocate_hl(MemOpKind::Store, 2).unwrap();
        lsq.hl_store_address_ready(2, acc(0x40), 3);
        lsq.open_epoch(1).unwrap();
        lsq.migrate_to_ll(MemOpKind::Store, 1, Some(&mut l1))
            .unwrap();
        // Inserting the second store stalls: its line cannot be locked.
        assert_eq!(
            lsq.migrate_to_ll(MemOpKind::Store, 2, Some(&mut l1)),
            Err(MigrateError::LockStall)
        );
        assert_eq!(lsq.counters().lock_conflict_stalls, 1);
        // An LL-issued store with the same problem requests a squash instead.
        lsq.allocate_hl(MemOpKind::Store, 3).unwrap();
        lsq.migrate_to_ll(MemOpKind::Store, 3, Some(&mut l1))
            .unwrap();
        let out = lsq.ll_store_address_ready(
            lsq.ll.youngest_bank().unwrap(),
            3,
            acc(0x80),
            9,
            Some(&mut l1),
        );
        assert!(out.lock_conflict);
        assert_eq!(lsq.counters().lock_conflict_squashes, 1);
    }

    #[test]
    fn squash_hl_clears_migration_block() {
        let cfg = small_config().with_disambiguation(DisambiguationModel::RestrictedSacLac);
        let mut lsq = Elsq::new(cfg);
        lsq.allocate_hl(MemOpKind::Load, 7).unwrap();
        lsq.open_epoch(7).unwrap();
        lsq.migrate_to_ll(MemOpKind::Load, 7, None).unwrap();
        assert_eq!(lsq.migration_block, Some(7));
        // The blocking instruction is squashed along with younger state.
        lsq.squash_hl_from(7);
        assert_eq!(lsq.migration_block, None);
    }

    #[test]
    fn unknown_store_between_spans_levels() {
        let mut lsq = Elsq::new(small_config());
        lsq.allocate_hl(MemOpKind::Store, 2).unwrap();
        lsq.open_epoch(2).unwrap();
        lsq.migrate_to_ll(MemOpKind::Store, 2, None).unwrap();
        lsq.allocate_hl(MemOpKind::Store, 5).unwrap();
        assert!(lsq.has_unknown_store_between(1, 9));
        assert!(!lsq.has_unknown_store_between(5, 9) || lsq.has_unknown_store_between(5, 9));
        let bank = lsq.ll.youngest_bank().unwrap();
        lsq.ll_store_address_ready(bank, 2, acc(0x10), 5, None);
        lsq.hl_store_address_ready(5, acc(0x20), 6);
        assert!(!lsq.has_unknown_store_between(1, 9));
    }

    #[test]
    fn commit_hl_removes_entries() {
        let mut lsq = Elsq::new(small_config());
        lsq.allocate_hl(MemOpKind::Load, 1).unwrap();
        lsq.allocate_hl(MemOpKind::Store, 2).unwrap();
        assert!(lsq.commit_hl(MemOpKind::Load, 1).is_some());
        assert!(lsq.commit_hl(MemOpKind::Load, 1).is_none());
        assert_eq!(lsq.hl.load_queue().len(), 0);
        assert_eq!(lsq.hl.store_queue().len(), 1);
        assert_eq!(lsq.squash_hl_from(0), 1);
    }
}
