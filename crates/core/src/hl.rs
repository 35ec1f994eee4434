//! The high-locality Load/Store Queue (HL-LSQ).
//!
//! The HL-LSQ is a conventionally sized, fully associative LSQ attached to
//! the Cache Processor. It holds every memory instruction from decode until
//! the instruction either completes and commits in the high-locality stream
//! or is migrated to a low-locality epoch because it (or an older
//! instruction) depends on an L2 miss.

use serde::{Deserialize, Serialize};

use elsq_isa::MemAccess;

use crate::queue::{AgeQueue, ForwardHit, MemEntry, MemOpKind, QueueFullError};

/// The high-locality LSQ: a small load queue plus a small store queue.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HlLsq {
    lq: AgeQueue,
    sq: AgeQueue,
}

impl HlLsq {
    /// Creates an HL-LSQ with the given capacities.
    pub fn new(lq_entries: usize, sq_entries: usize) -> Self {
        Self {
            lq: AgeQueue::bounded(lq_entries),
            sq: AgeQueue::bounded(sq_entries),
        }
    }

    /// Allocates an entry at decode.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when the corresponding queue is full, which
    /// stalls decode in the processor models.
    pub fn allocate(&mut self, kind: MemOpKind, seq: u64) -> Result<(), QueueFullError> {
        match kind {
            MemOpKind::Load => self.lq.allocate(seq),
            MemOpKind::Store => self.sq.allocate(seq),
        }
    }

    /// Records the address of a load or store.
    pub fn set_address(&mut self, kind: MemOpKind, seq: u64, addr: MemAccess) -> bool {
        match kind {
            MemOpKind::Load => self.lq.set_address(seq, addr),
            MemOpKind::Store => self.sq.set_address(seq, addr),
        }
    }

    /// Marks a load as issued or a store's data as ready.
    pub fn set_issued(&mut self, kind: MemOpKind, seq: u64, cycle: u64) -> bool {
        match kind {
            MemOpKind::Load => self.lq.set_issued(seq, cycle),
            MemOpKind::Store => self.sq.set_issued(seq, cycle),
        }
    }

    /// Store-to-load forwarding search: youngest older store overlapping the
    /// load's access.
    pub fn search_stores(&self, load_seq: u64, access: &MemAccess) -> Option<ForwardHit> {
        self.sq.find_forwarding_store(load_seq, access)
    }

    /// Store-load ordering check: any younger, already-issued load that
    /// overlaps the store's access.
    pub fn search_loads(&self, store_seq: u64, access: &MemAccess) -> Option<u64> {
        self.lq.find_violating_load(store_seq, access)
    }

    /// Whether any older store still has an unknown address (conservative
    /// forwarding / SVW CheckStores support).
    pub fn has_older_unknown_store(&self, load_seq: u64) -> bool {
        self.sq.has_older_unknown_address(load_seq)
    }

    /// Whether any store between `store_seq` and `load_seq` has an unknown
    /// address.
    pub fn has_unknown_store_between(&self, store_seq: u64, load_seq: u64) -> bool {
        self.sq.has_unknown_address_between(store_seq, load_seq)
    }

    /// Removes the entry `seq` of the given kind (commit or migration),
    /// returning its state.
    pub fn remove(&mut self, kind: MemOpKind, seq: u64) -> Option<MemEntry> {
        match kind {
            MemOpKind::Load => self.lq.remove(seq),
            MemOpKind::Store => self.sq.remove(seq),
        }
    }

    /// Shared access to the store queue (used by the coordinator for the
    /// cross-level checks).
    pub fn store_queue(&self) -> &AgeQueue {
        &self.sq
    }

    /// Shared access to the load queue.
    pub fn load_queue(&self) -> &AgeQueue {
        &self.lq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(addr: u64) -> MemAccess {
        MemAccess::new(addr, 8)
    }

    #[test]
    fn allocate_respects_separate_capacities() {
        let mut hl = HlLsq::new(2, 1);
        hl.allocate(MemOpKind::Load, 1).unwrap();
        hl.allocate(MemOpKind::Store, 2).unwrap();
        hl.allocate(MemOpKind::Load, 3).unwrap();
        assert_eq!(hl.load_queue().free_entries(), Some(0));
        assert_eq!(hl.store_queue().free_entries(), Some(0));
        assert!(hl.allocate(MemOpKind::Load, 4).is_err());
        assert!(hl.allocate(MemOpKind::Store, 4).is_err());
        assert_eq!(hl.load_queue().len(), 2);
        assert_eq!(hl.store_queue().len(), 1);
    }

    #[test]
    fn forwarding_and_violation_searches() {
        let mut hl = HlLsq::new(8, 8);
        hl.allocate(MemOpKind::Store, 1).unwrap();
        hl.allocate(MemOpKind::Load, 2).unwrap();
        hl.allocate(MemOpKind::Load, 3).unwrap();
        hl.set_address(MemOpKind::Store, 1, acc(0x100));
        hl.set_issued(MemOpKind::Store, 1, 5);
        // Load 2 forwards from store 1.
        let hit = hl.search_stores(2, &acc(0x100)).unwrap();
        assert_eq!(hit.store_seq, 1);
        assert_eq!(hit.data_ready_at, 5);
        // Load 3 issues to a different address, then an older store to that
        // address appears: violation.
        hl.set_address(MemOpKind::Load, 3, acc(0x200));
        hl.set_issued(MemOpKind::Load, 3, 6);
        assert_eq!(hl.search_loads(2, &acc(0x200)), Some(3));
        assert_eq!(hl.search_loads(2, &acc(0x300)), None);
    }

    #[test]
    fn unknown_store_tracking() {
        let mut hl = HlLsq::new(4, 4);
        hl.allocate(MemOpKind::Store, 1).unwrap();
        hl.allocate(MemOpKind::Store, 3).unwrap();
        hl.set_address(MemOpKind::Store, 1, acc(0x0));
        assert!(hl.has_older_unknown_store(5));
        assert!(hl.has_unknown_store_between(1, 5));
        hl.set_address(MemOpKind::Store, 3, acc(0x8));
        assert!(!hl.has_older_unknown_store(5));
    }

    #[test]
    fn remove_takes_the_entry_from_its_kinds_queue() {
        let mut hl = HlLsq::new(4, 4);
        hl.allocate(MemOpKind::Load, 1).unwrap();
        hl.allocate(MemOpKind::Store, 2).unwrap();
        hl.allocate(MemOpKind::Load, 3).unwrap();
        let e = hl.remove(MemOpKind::Load, 1).unwrap();
        assert_eq!(e.seq, 1);
        assert!(hl.remove(MemOpKind::Store, 3).is_none());
        assert_eq!(hl.remove(MemOpKind::Load, 3).map(|e| e.seq), Some(3));
        assert!(hl.load_queue().is_empty());
        assert_eq!(hl.store_queue().len(), 1);
    }
}
