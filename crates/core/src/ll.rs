//! The low-locality LSQ: an age-ordered collection of epochs.
//!
//! [`LlLsq`] owns the epoch banks, allocates new epochs in program order and
//! retires the oldest epoch when it commits. Retirement is the only way an
//! epoch leaves: recovery is not modelled as an epoch squash (see
//! [`crate::epoch`]). Bank indices recycle; age ordering is maintained
//! through monotonically increasing epoch identifiers.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use elsq_isa::MemAccess;

use crate::epoch::{Epoch, EpochLimits};
use crate::queue::{MemEntry, MemOpKind, QueueFullError};

/// Error returned when a new epoch is needed but every bank is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoFreeEpochError;

impl std::fmt::Display for NoFreeEpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "all epoch banks are in use")
    }
}

impl std::error::Error for NoFreeEpochError {}

/// The banked low-locality LSQ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LlLsq {
    banks: Vec<Option<Epoch>>,
    /// Bank indices of live epochs in age order (front = oldest).
    order: VecDeque<usize>,
    limits: EpochLimits,
    next_id: u64,
    /// Total number of epochs ever allocated (reported as
    /// `epochs_allocated`).
    allocated: u64,
    /// Retired epoch shells kept for reuse: [`LlLsq::open_epoch`] resets one
    /// of these instead of allocating fresh queues, so steady-state epoch
    /// turnover performs no allocation.
    spare: Vec<Epoch>,
    /// Stores with an unknown address across the live epochs: the sum of
    /// their [`Epoch::unresolved_stores`]. Only the methods that insert,
    /// resolve or drop stores change an epoch's count, and each of them
    /// updates this one with it.
    unresolved_stores: usize,
}

impl LlLsq {
    /// Creates an LL-LSQ with `num_banks` banks and per-epoch `limits`.
    pub fn new(num_banks: usize, limits: EpochLimits) -> Self {
        Self {
            banks: (0..num_banks).map(|_| None).collect(),
            order: VecDeque::with_capacity(num_banks),
            limits,
            next_id: 0,
            allocated: 0,
            spare: Vec::with_capacity(num_banks),
            unresolved_stores: 0,
        }
    }

    /// Total number of epochs allocated over the lifetime of the queue.
    pub(crate) fn total_allocated(&self) -> u64 {
        self.allocated
    }

    /// Whether no epoch is live (the Memory Processor is idle and the
    /// LL-LSQ can sit in its low-power mode — Figure 11).
    pub(crate) fn is_idle(&self) -> bool {
        self.order.is_empty()
    }

    /// Opens a new epoch whose first instruction is `first_seq` and returns
    /// its bank index.
    ///
    /// # Errors
    ///
    /// Returns [`NoFreeEpochError`] when every bank holds a live epoch.
    pub fn open_epoch(&mut self, first_seq: u64) -> Result<usize, NoFreeEpochError> {
        let bank = self
            .banks
            .iter()
            .position(|b| b.is_none())
            .ok_or(NoFreeEpochError)?;
        let id = self.next_id;
        self.next_id += 1;
        self.allocated += 1;
        let epoch = match self.spare.pop() {
            Some(mut shell) => {
                shell.reset(bank, id, first_seq);
                shell
            }
            None => Epoch::new(bank, id, first_seq, self.limits),
        };
        self.banks[bank] = Some(epoch);
        self.order.push_back(bank);
        Ok(bank)
    }

    /// Returns a retired epoch to the shell pool so its queue storage is
    /// reused by the next [`LlLsq::open_epoch`].
    pub fn recycle(&mut self, epoch: Epoch) {
        if self.spare.len() < self.banks.len() {
            self.spare.push(epoch);
        }
    }

    /// The bank of the youngest (currently filling) epoch, if any.
    pub(crate) fn youngest_bank(&self) -> Option<usize> {
        self.order.back().copied()
    }

    /// Shared access to the epoch in `bank`.
    pub fn epoch(&self, bank: usize) -> Option<&Epoch> {
        self.banks.get(bank).and_then(|b| b.as_ref())
    }

    /// Mutable access to the epoch in `bank`. Inserting or resolving a
    /// store through it would leave [`LlLsq::has_unresolved_stores`]
    /// behind, so those go through [`LlLsq::insert`] and
    /// [`LlLsq::set_address`].
    pub(crate) fn epoch_mut(&mut self, bank: usize) -> Option<&mut Epoch> {
        self.banks.get_mut(bank).and_then(|b| b.as_mut())
    }

    /// Inserts `entry`, migrated from the HL-LSQ with its address known or
    /// not, into the epoch in `bank`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when that epoch's queue for `kind` is
    /// full.
    ///
    /// # Panics
    ///
    /// Panics if no epoch is live in `bank`.
    pub fn insert(
        &mut self,
        bank: usize,
        kind: MemOpKind,
        entry: MemEntry,
    ) -> Result<(), QueueFullError> {
        let epoch = self.epoch_mut(bank).expect("no live epoch in that bank");
        let before = epoch.unresolved_stores();
        let result = epoch.insert(kind, entry);
        let after = epoch.unresolved_stores();
        self.unresolved_stores += after - before;
        result
    }

    /// Records the address of load or store `seq` in the epoch in `bank`
    /// and returns that epoch, or `None` when no epoch is live there.
    pub fn set_address(
        &mut self,
        bank: usize,
        kind: MemOpKind,
        seq: u64,
        addr: MemAccess,
    ) -> Option<&mut Epoch> {
        let epoch = self.banks.get_mut(bank).and_then(|b| b.as_mut())?;
        let before = epoch.unresolved_stores();
        epoch.set_address(kind, seq, addr);
        self.unresolved_stores -= before - epoch.unresolved_stores();
        Some(epoch)
    }

    /// Banks of live epochs ordered from youngest to oldest — the order in
    /// which a global search walks remote epochs ("starting from the most
    /// recent one", Section 3.4).
    pub fn iter_banks_young_to_old(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().rev().copied()
    }

    /// Retires the oldest epoch (it committed) and returns it.
    pub fn commit_oldest(&mut self) -> Option<Epoch> {
        let bank = self.order.pop_front()?;
        let epoch = self.banks[bank].take()?;
        self.unresolved_stores -= epoch.unresolved_stores();
        Some(epoch)
    }

    /// Whether any live epoch holds a store with an unknown address.
    pub fn has_unresolved_stores(&self) -> bool {
        self.unresolved_stores > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ll(banks: usize) -> LlLsq {
        LlLsq::new(
            banks,
            EpochLimits {
                max_loads: 4,
                max_stores: 2,
            },
        )
    }

    #[test]
    fn open_and_exhaust_banks() {
        let mut q = ll(2);
        assert!(q.is_idle());
        let b0 = q.open_epoch(10).unwrap();
        let b1 = q.open_epoch(20).unwrap();
        assert_ne!(b0, b1);
        assert_eq!(q.open_epoch(30), Err(NoFreeEpochError));
        assert_eq!(q.iter_banks_young_to_old().collect::<Vec<_>>(), [b1, b0]);
        assert_eq!(q.total_allocated(), 2);
        assert!(!q.is_idle());
        assert_eq!(q.youngest_bank(), Some(b1));
    }

    #[test]
    fn commit_frees_bank_for_reuse() {
        let mut q = ll(2);
        let b0 = q.open_epoch(0).unwrap();
        let _b1 = q.open_epoch(100).unwrap();
        let committed = q.commit_oldest().unwrap();
        assert_eq!(committed.bank(), b0);
        assert_eq!(q.iter_banks_young_to_old().count(), 1);
        // The freed bank can be reused, and age order is preserved by ids.
        let b2 = q.open_epoch(200).unwrap();
        assert_eq!(b2, b0);
        let ids: Vec<u64> = q
            .iter_banks_young_to_old()
            .map(|b| q.epoch(b).unwrap().id())
            .collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn recycled_shells_are_reused_and_reset() {
        let mut q = ll(2);
        let b0 = q.open_epoch(0).unwrap();
        q.insert(b0, MemOpKind::Load, MemEntry::pending(1)).unwrap();
        let epoch = q.commit_oldest().unwrap();
        q.recycle(epoch);
        let b1 = q.open_epoch(50).unwrap();
        let reopened = q.epoch(b1).unwrap();
        assert_eq!(reopened.first_seq(), 50);
        assert!(reopened.is_empty(), "recycled shell must be empty");
        assert_eq!(q.total_allocated(), 2);
        // Age ids keep increasing across recycling.
        assert_eq!(reopened.id(), 1);
    }

    #[test]
    fn room_and_occupancy_tracking() {
        let mut q = ll(2);
        let b = q.open_epoch(0).unwrap();
        assert!(q.epoch(b).unwrap().has_room(MemOpKind::Load));
        q.insert(b, MemOpKind::Store, MemEntry::pending(1)).unwrap();
        q.insert(b, MemOpKind::Store, MemEntry::pending(2)).unwrap();
        let epoch = q.epoch(b).unwrap();
        assert!(!epoch.has_room(MemOpKind::Store));
        assert_eq!(epoch.stores().count(), 2);
        assert_eq!(epoch.loads().count(), 0);
        assert!(q.has_unresolved_stores());
    }
}
