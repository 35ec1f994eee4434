//! A single low-locality epoch.
//!
//! An epoch is a *sequential* slice of the low-locality instruction window:
//! the loads and stores of one checkpoint interval, mapped one-to-one onto an
//! FMC Memory Engine. Instructions never move between epochs; an epoch is
//! created when migration needs a new one, fills up to its capacity, and is
//! deallocated wholesale when it commits
//! ([`Elsq::retire_oldest_epoch`](crate::elsq::Elsq::retire_oldest_epoch)).
//!
//! The paper also squashes epochs to recover from an ordering violation or
//! a line-lock conflict (checkpoint recovery, Section 4.1). This model does
//! not: the timing loop charges such a recovery as a fetch bubble and leaves
//! the epochs in place, so retirement is the only way an epoch ends.

use serde::{Deserialize, Serialize};

use elsq_isa::MemAccess;

use crate::queue::{AgeQueue, ForwardHit, MemEntry, MemOpKind, QueueFullError};

/// Capacity limits of one epoch (Section 5.2 defaults: 64 loads, 32 stores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochLimits {
    /// Maximum loads.
    pub max_loads: usize,
    /// Maximum stores.
    pub max_stores: usize,
}

/// One epoch of the low-locality LSQ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Epoch {
    /// Bank index this epoch occupies (0..num_epochs).
    bank: usize,
    /// Monotonically increasing epoch identifier, used to order epochs by
    /// age even though bank indices recycle.
    id: u64,
    /// Sequence number of the first instruction in the epoch (the
    /// checkpoint's restart point).
    first_seq: u64,
    lq: AgeQueue,
    sq: AgeQueue,
    /// Number of stores whose address is still unknown (tracked for the SVW
    /// CheckStores filter and for restricted-SAC stalls).
    unresolved_stores: usize,
}

impl Epoch {
    /// Creates an empty epoch in `bank` with identity `id`, starting at
    /// program-order position `first_seq`.
    pub fn new(bank: usize, id: u64, first_seq: u64, limits: EpochLimits) -> Self {
        Self {
            bank,
            id,
            first_seq,
            lq: AgeQueue::bounded(limits.max_loads),
            sq: AgeQueue::bounded(limits.max_stores),
            unresolved_stores: 0,
        }
    }

    /// Re-initializes a recycled epoch shell in place, keeping the queue
    /// storage (slab slots, index tables) of the previous occupant so epoch
    /// turnover performs no allocation.
    pub(crate) fn reset(&mut self, bank: usize, id: u64, first_seq: u64) {
        self.bank = bank;
        self.id = id;
        self.first_seq = first_seq;
        self.lq.clear();
        self.sq.clear();
        self.unresolved_stores = 0;
    }

    /// The bank this epoch occupies.
    pub(crate) fn bank(&self) -> usize {
        self.bank
    }

    /// The epoch's age-ordered identity.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Sequence number of the first instruction of the epoch (the recovery
    /// point of its checkpoint).
    #[cfg(test)]
    pub(crate) fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Whether the epoch can accept another entry of `kind`.
    pub fn has_room(&self, kind: MemOpKind) -> bool {
        match kind {
            MemOpKind::Load => !self.lq.is_full(),
            MemOpKind::Store => !self.sq.is_full(),
        }
    }

    /// Number of stores with still-unknown addresses.
    pub fn unresolved_stores(&self) -> usize {
        self.unresolved_stores
    }

    /// Inserts an entry migrated from the HL-LSQ (possibly with its address
    /// already known). Reached through [`crate::ll::LlLsq::insert`], which
    /// keeps its count of unresolved stores with this epoch's.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when the epoch's queue for `kind` is full;
    /// the caller must open a new epoch.
    pub fn insert(&mut self, kind: MemOpKind, entry: MemEntry) -> Result<(), QueueFullError> {
        match kind {
            MemOpKind::Load => self.lq.push_entry(entry),
            MemOpKind::Store => {
                let unresolved = entry.addr.is_none();
                let result = self.sq.push_entry(entry);
                if result.is_ok() && unresolved {
                    self.unresolved_stores += 1;
                }
                result
            }
        }
    }

    /// Records the address of a load or store already in the epoch.
    /// Reached through [`crate::ll::LlLsq::set_address`], for the same
    /// reason as [`Epoch::insert`].
    pub fn set_address(&mut self, kind: MemOpKind, seq: u64, addr: MemAccess) -> bool {
        match kind {
            MemOpKind::Load => self.lq.set_address(seq, addr),
            MemOpKind::Store => {
                let had_addr = self.sq.get(seq).map(|e| e.addr.is_some()).unwrap_or(true);
                let ok = self.sq.set_address(seq, addr);
                if ok && !had_addr {
                    self.unresolved_stores = self.unresolved_stores.saturating_sub(1);
                }
                ok
            }
        }
    }

    /// Marks a load as issued / a store's data as ready.
    pub fn set_issued(&mut self, kind: MemOpKind, seq: u64, cycle: u64) -> bool {
        match kind {
            MemOpKind::Load => self.lq.set_issued(seq, cycle),
            MemOpKind::Store => self.sq.set_issued(seq, cycle),
        }
    }

    /// Local forwarding search: youngest older store in *this* epoch.
    pub(crate) fn search_stores(&self, load_seq: u64, access: &MemAccess) -> Option<ForwardHit> {
        self.sq.find_forwarding_store(load_seq, access)
    }

    /// Local violation search: younger issued load in *this* epoch.
    pub(crate) fn search_loads(&self, store_seq: u64, access: &MemAccess) -> Option<u64> {
        self.lq.find_violating_load(store_seq, access)
    }

    /// Whether any store in this epoch with sequence number strictly between
    /// `after_seq` and `before_seq` still has an unknown address (answered
    /// from the store queue's ordered unknown-address set, not a scan).
    pub fn has_unknown_store_between(&self, after_seq: u64, before_seq: u64) -> bool {
        self.sq.has_unknown_address_between(after_seq, before_seq)
    }

    /// Iterates over the stores of the epoch (used when committing the epoch:
    /// stores drain to the cache in program order).
    pub fn stores(&self) -> impl Iterator<Item = &MemEntry> {
        self.sq.iter()
    }

    /// Iterates over the loads of the epoch.
    pub fn loads(&self) -> impl Iterator<Item = &MemEntry> {
        self.lq.iter()
    }

    /// Whether the epoch holds no memory operations at all.
    pub fn is_empty(&self) -> bool {
        self.lq.is_empty() && self.sq.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> EpochLimits {
        EpochLimits {
            max_loads: 4,
            max_stores: 2,
        }
    }

    fn entry(seq: u64, addr: Option<u64>) -> MemEntry {
        let mut e = MemEntry::pending(seq);
        e.addr = addr.map(|a| MemAccess::new(a, 8));
        e
    }

    #[test]
    fn capacity_per_kind() {
        let mut ep = Epoch::new(0, 7, 100, limits());
        assert_eq!(ep.bank(), 0);
        assert_eq!(ep.id(), 7);
        assert_eq!(ep.first_seq(), 100);
        ep.insert(MemOpKind::Store, entry(101, None)).unwrap();
        ep.insert(MemOpKind::Store, entry(102, Some(0x10))).unwrap();
        assert!(!ep.has_room(MemOpKind::Store));
        assert!(ep.has_room(MemOpKind::Load));
        assert!(ep.insert(MemOpKind::Store, entry(103, None)).is_err());
        assert_eq!(ep.stores().count(), 2);
        assert_eq!(ep.unresolved_stores(), 1);
    }

    #[test]
    fn unresolved_store_tracking() {
        let mut ep = Epoch::new(1, 1, 0, limits());
        ep.insert(MemOpKind::Store, entry(5, None)).unwrap();
        assert_eq!(ep.unresolved_stores(), 1);
        ep.set_address(MemOpKind::Store, 5, MemAccess::new(0x40, 8));
        assert_eq!(ep.unresolved_stores(), 0);
        // Setting it again does not underflow.
        ep.set_address(MemOpKind::Store, 5, MemAccess::new(0x48, 8));
        assert_eq!(ep.unresolved_stores(), 0);
    }

    #[test]
    fn local_searches() {
        let mut ep = Epoch::new(2, 3, 0, limits());
        ep.insert(MemOpKind::Store, entry(10, Some(0x100))).unwrap();
        ep.insert(MemOpKind::Load, entry(12, None)).unwrap();
        ep.set_issued(MemOpKind::Store, 10, 50);
        let hit = ep.search_stores(12, &MemAccess::new(0x100, 8)).unwrap();
        assert_eq!(hit.store_seq, 10);
        assert_eq!(hit.data_ready_at, 50);
        // Load 12 issues to 0x200; an older store to 0x200 then violates it.
        ep.set_address(MemOpKind::Load, 12, MemAccess::new(0x200, 8));
        ep.set_issued(MemOpKind::Load, 12, 55);
        assert_eq!(ep.search_loads(11, &MemAccess::new(0x200, 4)), Some(12));
    }

    #[test]
    fn known_addresses_and_iterators() {
        let mut ep = Epoch::new(0, 0, 0, limits());
        assert!(ep.is_empty());
        ep.insert(MemOpKind::Load, entry(1, Some(0x20))).unwrap();
        ep.insert(MemOpKind::Store, entry(2, None)).unwrap();
        assert!(!ep.is_empty());
        let known = ep.loads().chain(ep.stores()).filter(|e| e.addr.is_some());
        assert_eq!(known.count(), 1);
        assert_eq!(ep.loads().count(), 1);
        assert_eq!(ep.stores().count(), 1);
    }
}
