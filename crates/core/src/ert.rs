//! Epoch Resolution Table (ERT) — the global disambiguation filter.
//!
//! The ERT tells an issuing load (or store) *which epochs may contain a
//! matching store (or load)* so that only those epoch banks are searched.
//! Two variants are modeled (Section 3.4):
//!
//! * **Line-based** — a pair of bit-vectors (loads / stores) per L1 cache
//!   line, one bit per epoch. Requires the referenced lines to be resident
//!   and locked in the L1; the locking itself is handled by the ELSQ
//!   coordinator through `elsq_mem::SetAssocCache::lock_line`, this module
//!   only keeps the vectors.
//! * **Hash-based** — the same vectors, but indexed by the low bits of the
//!   address (a Bloom filter). Decoupled from the cache, at the cost of
//!   aliasing-induced false positives (Figure 8a).
//!
//! When an epoch commits or is squashed its column is cleared in one step —
//! the property the paper contrasts with the Hierarchical Store Queue's
//! per-store counter decrements. The model keeps, per bank, the list of
//! indices at which the bank holds a bit, so a clear costs the epoch's own
//! entries rather than the whole table.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::config::ErtKind;

/// A set of epoch banks, one bit per bank (at most 32 banks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EpochMask(u32);

impl EpochMask {
    /// The empty mask.
    pub fn empty() -> Self {
        EpochMask(0)
    }

    /// Sets `bank`.
    ///
    /// # Panics
    ///
    /// Panics if `bank >= 32`.
    pub fn set(&mut self, bank: usize) {
        assert!(bank < 32, "epoch bank {bank} out of range");
        self.0 |= 1 << bank;
    }

    /// Clears `bank`.
    pub fn clear(&mut self, bank: usize) {
        assert!(bank < 32, "epoch bank {bank} out of range");
        self.0 &= !(1 << bank);
    }

    /// Whether `bank` is present.
    pub fn contains(&self, bank: usize) -> bool {
        bank < 32 && (self.0 >> bank) & 1 == 1
    }

    /// Whether no bank is present.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over the banks present, in increasing bank order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..32usize).filter(move |b| self.contains(*b))
    }

    /// Raw bit representation.
    pub fn bits(&self) -> u32 {
        self.0
    }
}

/// Key space of the ERT: either L1 line addresses or a hash of the address.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Table {
    Hash {
        bits: u32,
        loads: Vec<EpochMask>,
        stores: Vec<EpochMask>,
    },
    Line {
        line_bytes: u64,
        entries: HashMap<u64, (EpochMask, EpochMask)>,
    },
}

/// Statistics of ERT activity (lookups are counted by the coordinator; this
/// tracks only insertions, to bound the table sizes in reports).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErtStats {
    /// Number of `set_load` operations.
    pub load_inserts: u64,
    /// Number of `set_store` operations.
    pub store_inserts: u64,
    /// Number of epoch-column clears.
    pub epoch_clears: u64,
}

/// The Epoch Resolution Table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ert {
    table: Table,
    num_banks: usize,
    /// Per bank, every index (hash index or line key) at which the bank's
    /// load or store bit is set, each once.
    touched: Vec<Vec<u64>>,
    stats: ErtStats,
}

impl Ert {
    /// Creates an ERT of the given kind for `num_banks` epoch banks.
    ///
    /// `l1_line_bytes` is only used by the line-based variant.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks > 32` or if a hash table of more than 2^24
    /// entries is requested.
    pub fn new(kind: ErtKind, num_banks: usize, l1_line_bytes: u64) -> Self {
        assert!(num_banks <= 32, "at most 32 epoch banks are supported");
        let table = match kind {
            ErtKind::Hash { bits } => {
                assert!(bits <= 24, "hash ERT of 2^{bits} entries is unreasonable");
                let n = 1usize << bits;
                Table::Hash {
                    bits,
                    loads: vec![EpochMask::empty(); n],
                    stores: vec![EpochMask::empty(); n],
                }
            }
            ErtKind::Line => Table::Line {
                line_bytes: l1_line_bytes,
                entries: HashMap::new(),
            },
        };
        Self {
            table,
            num_banks,
            touched: vec![Vec::new(); num_banks],
            stats: ErtStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ErtStats {
        &self.stats
    }

    fn index_of(&self, addr: u64) -> u64 {
        match &self.table {
            Table::Hash { bits, .. } => addr & ((1u64 << bits) - 1),
            Table::Line { line_bytes, .. } => addr & !(line_bytes - 1),
        }
    }

    /// Records that epoch `bank` holds a *store* with address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is outside the configured number of banks.
    pub fn set_store(&mut self, addr: u64, bank: usize) {
        assert!(bank < self.num_banks);
        self.stats.store_inserts += 1;
        self.set(addr, bank, true);
    }

    /// Records that epoch `bank` holds a *load* with address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is outside the configured number of banks.
    pub fn set_load(&mut self, addr: u64, bank: usize) {
        assert!(bank < self.num_banks);
        self.stats.load_inserts += 1;
        self.set(addr, bank, false);
    }

    /// Sets `bank` in the store or load mask at `addr`'s index, recording
    /// the index on the bank's `touched` list the first time either mask
    /// there gains the bank.
    fn set(&mut self, addr: u64, bank: usize, store: bool) {
        let idx = self.index_of(addr);
        let (loads, stores) = match &mut self.table {
            Table::Hash { loads, stores, .. } => {
                (&mut loads[idx as usize], &mut stores[idx as usize])
            }
            Table::Line { entries, .. } => {
                let (loads, stores) = entries.entry(idx).or_default();
                (loads, stores)
            }
        };
        if !loads.contains(bank) && !stores.contains(bank) {
            self.touched[bank].push(idx);
        }
        if store {
            stores.set(bank);
        } else {
            loads.set(bank);
        }
    }

    /// Which epochs may hold a store matching `addr`.
    pub fn query_stores(&self, addr: u64) -> EpochMask {
        let idx = self.index_of(addr);
        match &self.table {
            Table::Hash { stores, .. } => stores[idx as usize],
            Table::Line { entries, .. } => entries.get(&idx).map(|(_, s)| *s).unwrap_or_default(),
        }
    }

    /// Which epochs may hold a load matching `addr`.
    pub fn query_loads(&self, addr: u64) -> EpochMask {
        let idx = self.index_of(addr);
        match &self.table {
            Table::Hash { loads, .. } => loads[idx as usize],
            Table::Line { entries, .. } => entries.get(&idx).map(|(l, _)| *l).unwrap_or_default(),
        }
    }

    /// Clears every bit belonging to epoch `bank` — called when the epoch
    /// commits or is squashed. Line-based entries whose vectors become empty
    /// are dropped (their L1 lines are implicitly unlockable; the coordinator
    /// performs the actual unlocking).
    ///
    /// Only the indices on the bank's `touched` list are visited: every bit
    /// of `bank` was set by [`Ert::set_load`] or [`Ert::set_store`], which
    /// recorded its index there, so the result is that of a scan of the
    /// whole column.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is outside the configured number of banks.
    pub fn clear_epoch(&mut self, bank: usize) {
        self.stats.epoch_clears += 1;
        let touched = &mut self.touched[bank];
        match &mut self.table {
            Table::Hash { loads, stores, .. } => {
                for idx in touched.drain(..) {
                    loads[idx as usize].clear(bank);
                    stores[idx as usize].clear(bank);
                }
            }
            Table::Line { entries, .. } => {
                for key in touched.drain(..) {
                    if let Some((l, s)) = entries.get_mut(&key) {
                        l.clear(bank);
                        s.clear(bank);
                        if l.is_empty() && s.is_empty() {
                            entries.remove(&key);
                        }
                    }
                }
            }
        }
    }

    /// Number of entries currently holding at least one bit (line-based) or
    /// total entries (hash-based); useful for occupancy reports.
    pub fn occupied_entries(&self) -> usize {
        match &self.table {
            Table::Hash { loads, stores, .. } => loads
                .iter()
                .zip(stores.iter())
                .filter(|(l, s)| !l.is_empty() || !s.is_empty())
                .count(),
            Table::Line { entries, .. } => entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_mask_basics() {
        let mut m = EpochMask::empty();
        assert!(m.is_empty());
        m.set(3);
        m.set(15);
        assert!(m.contains(3));
        assert!(m.contains(15));
        assert!(!m.contains(4));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![3, 15]);
        m.clear(3);
        assert!(!m.contains(3));
        m.set(5);
        assert_eq!(m.bits(), 1 << 5 | 1 << 15);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_bank_out_of_range_panics() {
        let mut m = EpochMask::empty();
        m.set(32);
    }

    #[test]
    fn hash_ert_set_query_clear() {
        let mut ert = Ert::new(ErtKind::Hash { bits: 8 }, 16, 32);
        ert.set_store(0x1234, 2);
        ert.set_store(0x1234, 5);
        ert.set_load(0x1234, 7);
        let stores = ert.query_stores(0x1234);
        assert!(stores.contains(2) && stores.contains(5) && !stores.contains(7));
        assert!(ert.query_loads(0x1234).contains(7));
        ert.clear_epoch(2);
        assert!(!ert.query_stores(0x1234).contains(2));
        assert!(ert.query_stores(0x1234).contains(5));
        assert_eq!(ert.stats().store_inserts, 2);
        assert_eq!(ert.stats().epoch_clears, 1);
    }

    #[test]
    fn hash_ert_aliases_distant_addresses() {
        // With 8 index bits, addresses 0x100 apart alias to the same entry.
        let mut ert = Ert::new(ErtKind::Hash { bits: 8 }, 16, 32);
        ert.set_store(0x0042, 1);
        assert!(ert.query_stores(0x1042).contains(1), "aliasing expected");
        // A wider index removes the alias (0x0042 vs 0x1042 differ in bit 12).
        let mut wide = Ert::new(ErtKind::Hash { bits: 16 }, 16, 32);
        wide.set_store(0x0042, 1);
        assert!(wide.query_stores(0x1042).is_empty());
    }

    #[test]
    fn line_ert_is_exact_per_line() {
        let mut ert = Ert::new(ErtKind::Line, 16, 32);
        ert.set_store(0x1000, 3);
        // Same 32-byte line.
        assert!(ert.query_stores(0x101f).contains(3));
        // Different line: no false positive.
        assert!(ert.query_stores(0x1020).is_empty());
        assert_eq!(ert.occupied_entries(), 1);
        ert.clear_epoch(3);
        assert_eq!(ert.occupied_entries(), 0);
    }

    #[test]
    fn clearing_one_epoch_leaves_lines_of_others() {
        let mut ert = Ert::new(ErtKind::Line, 16, 32);
        ert.set_store(0x40, 0);
        ert.set_load(0x40, 1);
        ert.clear_epoch(0);
        assert_eq!(ert.occupied_entries(), 1);
        assert!(ert.query_loads(0x40).contains(1));
        assert!(ert.query_stores(0x40).is_empty());
    }

    #[test]
    #[should_panic]
    fn setting_out_of_range_bank_panics() {
        let mut ert = Ert::new(ErtKind::Hash { bits: 4 }, 4, 32);
        ert.set_store(0, 4);
    }

    #[test]
    fn occupied_entries_counts_hash_buckets() {
        let mut ert = Ert::new(ErtKind::Hash { bits: 4 }, 8, 32);
        assert_eq!(ert.occupied_entries(), 0);
        ert.set_load(0x1, 0);
        ert.set_store(0x2, 1);
        assert_eq!(ert.occupied_entries(), 2);
    }
}
