//! A uniform driver over the LSQ models so the pipeline can swap between the
//! conventional central LSQ and the Epoch-based LSQ without changing its
//! control flow.

use elsq_core::central::CentralLsq;
use elsq_core::elsq::{Elsq, MigrateError};
use elsq_core::queue::{LoadOutcome, MemOpKind, StoreOutcome};
use elsq_isa::MemAccess;
use elsq_mem::cache::SetAssocCache;
use elsq_stats::counters::LsqAccessCounters;

use crate::config::LsqKind;

/// Where a memory operation executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecSite {
    /// In the Cache Processor (high-locality stream).
    CacheProcessor,
    /// In a Memory Engine / epoch bank (low-locality stream).
    MemoryEngine {
        /// The epoch bank.
        bank: usize,
    },
}

/// The LSQ backend driven by the pipeline.
// One driver lives per run and is never moved inside the loop, so the size
// gap costs nothing. Boxing `Central` measured slower: traced paper-cold
// `cpu.run_ns_per_inst` had a median of 429 ns boxed against 399 ns inline
// over six alternating pairs (2-core host).
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum LsqDriver {
    /// A conventional or idealized central LSQ.
    Central(CentralLsq),
    /// The Epoch-based LSQ.
    Elsq(Box<Elsq>),
}

impl LsqDriver {
    /// Builds the driver from a configuration.
    pub fn new(kind: &LsqKind) -> Self {
        match kind {
            LsqKind::Central(cfg) => LsqDriver::Central(CentralLsq::new(*cfg)),
            LsqKind::Elsq(cfg) => LsqDriver::Elsq(Box::new(Elsq::new(*cfg))),
        }
    }

    /// Whether the queue that would hold a new `kind` entry has room.
    pub fn has_room(&self, kind: MemOpKind) -> bool {
        match self {
            LsqDriver::Central(l) => l.has_room(kind),
            LsqDriver::Elsq(l) => l.hl_has_room(kind),
        }
    }

    /// Allocates an entry at decode. Returns `false` when the queue is full
    /// (the caller must have checked [`LsqDriver::has_room`]).
    pub fn allocate(&mut self, kind: MemOpKind, seq: u64) -> bool {
        match self {
            LsqDriver::Central(l) => l.allocate(kind, seq).is_ok(),
            LsqDriver::Elsq(l) => l.allocate_hl(kind, seq).is_ok(),
        }
    }

    /// Issues a load at `cycle` from `site`.
    pub fn issue_load(
        &mut self,
        seq: u64,
        addr: MemAccess,
        cycle: u64,
        site: ExecSite,
        l1: Option<&mut SetAssocCache>,
    ) -> LoadOutcome {
        match self {
            LsqDriver::Central(l) => l.issue_load(seq, addr, cycle),
            LsqDriver::Elsq(l) => match site {
                ExecSite::CacheProcessor => l.issue_hl_load(seq, addr, cycle),
                ExecSite::MemoryEngine { bank } => l.issue_ll_load(bank, seq, addr, cycle, l1),
            },
        }
    }

    /// Resolves a store's address (and data) at `cycle` from `site`.
    pub fn resolve_store(
        &mut self,
        seq: u64,
        addr: MemAccess,
        cycle: u64,
        site: ExecSite,
        l1: Option<&mut SetAssocCache>,
    ) -> StoreOutcome {
        match self {
            LsqDriver::Central(l) => l.store_address_ready(seq, addr, cycle),
            LsqDriver::Elsq(l) => match site {
                ExecSite::CacheProcessor => l.hl_store_address_ready(seq, addr, cycle),
                ExecSite::MemoryEngine { bank } => {
                    l.ll_store_address_ready(bank, seq, addr, cycle, l1)
                }
            },
        }
    }

    /// Whether a new epoch must be opened before `kind` can migrate
    /// (ELSQ only; always `false` for central queues).
    pub fn needs_new_epoch(&self, kind: MemOpKind) -> bool {
        match self {
            LsqDriver::Central(_) => false,
            LsqDriver::Elsq(l) => l.migration_target(kind).is_none(),
        }
    }

    /// Opens a new epoch starting at `first_seq`. Returns the bank, or `None`
    /// when every bank is live (the caller must retire the oldest epoch
    /// first). Central queues report bank 0 unconditionally.
    pub fn open_epoch(&mut self, first_seq: u64) -> Option<usize> {
        match self {
            LsqDriver::Central(_) => Some(0),
            LsqDriver::Elsq(l) => l.open_epoch(first_seq).ok(),
        }
    }

    /// Migrates a memory instruction into the youngest epoch. Central queues
    /// treat migration as a no-op (the queue is shared), reporting bank 0.
    pub fn migrate(
        &mut self,
        kind: MemOpKind,
        seq: u64,
        l1: Option<&mut SetAssocCache>,
    ) -> Result<usize, MigrateError> {
        match self {
            LsqDriver::Central(_) => Ok(0),
            LsqDriver::Elsq(l) => l.migrate_to_ll(kind, seq, l1),
        }
    }

    /// Retires the oldest epoch (ELSQ only). The cycle loop never inspects
    /// the retired stores (their write-back is accounted at instruction
    /// commit), so nothing is materialized.
    pub fn retire_oldest_epoch(&mut self, l1: Option<&mut SetAssocCache>) {
        if let LsqDriver::Elsq(l) = self {
            l.retire_oldest_epoch(l1);
        }
    }

    /// Total epochs allocated over the run (0 for central queues).
    pub fn epochs_allocated(&self) -> u64 {
        match self {
            LsqDriver::Central(_) => 0,
            LsqDriver::Elsq(l) => l.epochs_allocated(),
        }
    }

    /// Commits (removes) a non-migrated memory instruction.
    pub fn commit_mem(&mut self, kind: MemOpKind, seq: u64) {
        match self {
            LsqDriver::Central(l) => {
                l.commit(kind, seq);
            }
            LsqDriver::Elsq(l) => {
                l.commit_hl(kind, seq);
            }
        }
    }

    /// Squashes every entry with sequence number `>= from_seq` in the
    /// youngest (high-locality / central) portion of the queue — used for
    /// wrong-path recovery.
    pub fn squash_from(&mut self, from_seq: u64) {
        match self {
            LsqDriver::Central(l) => {
                l.squash_from(from_seq);
            }
            LsqDriver::Elsq(l) => {
                l.squash_hl_from(from_seq);
            }
        }
    }

    /// Whether any store between `store_seq` and `load_seq` has an unknown
    /// address (SVW CheckStores predicate).
    pub fn has_unknown_store_between(&self, store_seq: u64, load_seq: u64) -> bool {
        match self {
            LsqDriver::Central(l) => l.has_unknown_store_between(store_seq, load_seq),
            LsqDriver::Elsq(l) => l.has_unknown_store_between(store_seq, load_seq),
        }
    }

    /// Whether the Memory Processor side of the queue is active.
    pub fn ll_active(&self) -> bool {
        match self {
            LsqDriver::Central(_) => false,
            LsqDriver::Elsq(l) => l.ll_active(),
        }
    }

    /// Snapshot of the access counters.
    pub fn counters(&self) -> LsqAccessCounters {
        match self {
            LsqDriver::Central(l) => *l.counters(),
            LsqDriver::Elsq(l) => *l.counters(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsq_core::central::CentralLsqConfig;
    use elsq_core::config::ElsqConfig;

    fn acc(a: u64) -> MemAccess {
        MemAccess::new(a, 8)
    }

    #[test]
    fn central_driver_forwards_and_detects_violations() {
        let mut d = LsqDriver::new(&LsqKind::Central(CentralLsqConfig::conventional()));
        assert!(d.has_room(MemOpKind::Store));
        assert!(d.allocate(MemOpKind::Store, 1));
        assert!(d.allocate(MemOpKind::Load, 2));
        let st = d.resolve_store(1, acc(0x80), 5, ExecSite::CacheProcessor, None);
        assert!(st.violation_load_seq.is_none());
        let ld = d.issue_load(2, acc(0x80), 6, ExecSite::CacheProcessor, None);
        assert_eq!(ld.forward.map(|f| f.store_seq), Some(1));
        d.commit_mem(MemOpKind::Store, 1);
        d.commit_mem(MemOpKind::Load, 2);
        assert!(!d.ll_active());
        assert!(d.open_epoch(0).is_some());
        assert!(d.migrate(MemOpKind::Load, 99, None).is_ok());
    }

    #[test]
    fn elsq_driver_round_trips_through_epochs() {
        let mut d = LsqDriver::new(&LsqKind::Elsq(ElsqConfig::default()));
        assert!(d.allocate(MemOpKind::Store, 1));
        let st = d.resolve_store(1, acc(0x100), 3, ExecSite::CacheProcessor, None);
        assert_eq!(st.violation_load_seq, None);
        assert!(!d.needs_new_epoch(MemOpKind::Store) || !d.ll_active());
        d.open_epoch(1).unwrap();
        let bank = d.migrate(MemOpKind::Store, 1, None).unwrap();
        assert!(d.ll_active());
        assert_eq!(d.epochs_allocated(), 1);
        assert!(d.allocate(MemOpKind::Load, 5));
        let ld = d.issue_load(5, acc(0x100), 9, ExecSite::CacheProcessor, None);
        assert!(ld.forward.is_some());
        // A low-locality load in the same bank sees the store locally.
        assert!(d.allocate(MemOpKind::Load, 6));
        d.migrate(MemOpKind::Load, 6, None).unwrap();
        let ld = d.issue_load(6, acc(0x100), 12, ExecSite::MemoryEngine { bank }, None);
        assert!(ld.forward.is_some());
        d.retire_oldest_epoch(None);
        assert!(!d.ll_active());
        let counters = d.counters();
        assert!(counters.hl_sq_searches >= 1);
        assert!(counters.local_forwards + counters.global_forwards >= 2);
    }

    #[test]
    fn unknown_store_between_is_visible_through_driver() {
        let mut d = LsqDriver::new(&LsqKind::Elsq(ElsqConfig::default()));
        d.allocate(MemOpKind::Store, 3);
        assert!(d.has_unknown_store_between(1, 9));
        d.squash_from(0);
        assert!(!d.has_unknown_store_between(1, 9));
    }
}
