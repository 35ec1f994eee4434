//! Store Queue Mirror (SQM).
//!
//! High-locality loads frequently forward from low-locality stores. Without
//! extra support every such forwarding pays a CP→MP→CP network round-trip
//! (≥ 8 cycles). The SQM (Section 4) is a replica of the low-locality store
//! queues placed next to the ERT in the Cache Processor: it is updated
//! whenever a store address appears in the Memory Processor and can be
//! searched one cycle after the ERT, removing the round-trip. It also acts
//! as the buffer from which committing epochs drain their stores.

use serde::{Deserialize, Serialize};

use elsq_isa::MemAccess;

use crate::queue::{Chains, ForwardHit};

/// One mirrored store entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MirrorEntry {
    /// Program-order sequence number of the store.
    pub seq: u64,
    /// Store address.
    pub addr: MemAccess,
    /// Epoch bank holding the original store.
    pub bank: usize,
    /// Whether the store's data is available for forwarding.
    pub data_ready: bool,
    /// Cycle at which the data became ready.
    pub ready_at: u64,
}

/// Result of a successful SQM search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MirrorHit {
    /// The matching (youngest older) store.
    pub entry: MirrorEntry,
    /// Whether the store fully covers the load.
    pub full_cover: bool,
}

impl MirrorHit {
    /// The hit as the forward a load's outcome carries.
    pub(crate) fn forward(&self) -> ForwardHit {
        ForwardHit {
            store_seq: self.entry.seq,
            full_cover: self.full_cover,
            data_ready_at: self.entry.ready_at,
        }
    }
}

/// The Store Queue Mirror: a replica of every low-locality store whose
/// address is known.
///
/// Entries live in a slab (slots with live flags and a free list) indexed
/// by the same intrusive `Chains` as [`AgeQueue`](crate::queue::AgeQueue):
/// `upsert` and `set_data_ready` find a store through its sequence chain,
/// and the forwarding search walks the chains of the access's 64-byte
/// lines instead of scanning the mirror. Nothing keeps the slab in program
/// order: the search takes a maximum over unique sequence numbers, and
/// [`StoreQueueMirror::iter`] sorts.
#[derive(Debug, Clone)]
pub struct StoreQueueMirror {
    /// Entry payloads, indexed by slot (parallel to `live`).
    entries: Vec<MirrorEntry>,
    /// Whether each slot holds a mirrored store.
    live: Vec<bool>,
    free: Vec<u32>,
    len: usize,
    /// Sequence and address-line chains over the live slots.
    chains: Chains,
}

impl Default for StoreQueueMirror {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            len: 0,
            chains: Chains::for_capacity(None),
        }
    }
}

impl StoreQueueMirror {
    /// Creates an empty mirror.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mirrored stores.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mirror is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The slot holding store `seq`, if it is mirrored.
    #[inline]
    fn slot_of(&self, seq: u64) -> Option<u32> {
        self.chains
            .find_seq(seq, |slot| self.entries[slot as usize].seq)
    }

    /// Inserts (or updates) the mirrored copy of a store whose address just
    /// became known in the Memory Processor.
    pub fn upsert(
        &mut self,
        seq: u64,
        addr: MemAccess,
        bank: usize,
        data_ready: bool,
        ready_at: u64,
    ) {
        let entry = MirrorEntry {
            seq,
            addr,
            bank,
            data_ready,
            ready_at,
        };
        if let Some(slot) = self.slot_of(seq) {
            let old_addr = self.entries[slot as usize].addr;
            self.entries[slot as usize] = entry;
            if old_addr != addr {
                self.chains.unlink_lines(slot, &old_addr);
                self.chains.link_lines(slot, &addr);
            }
            return;
        }
        if self.chains.needs_rethread(self.len) {
            self.rethread();
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                self.live[slot as usize] = true;
                slot
            }
            None => {
                self.entries.push(entry);
                self.live.push(true);
                self.chains.cover_slots(self.entries.len());
                (self.entries.len() - 1) as u32
            }
        };
        self.chains.link_seq(slot, seq);
        self.chains.link_lines(slot, &addr);
        self.len += 1;
    }

    /// Re-threads every mirrored store into an index with four times as
    /// many heads.
    fn rethread(&mut self) {
        self.chains.grow();
        for (slot, entry) in self.entries.iter().enumerate() {
            if self.live[slot] {
                self.chains.link_seq(slot as u32, entry.seq);
                self.chains.link_lines(slot as u32, &entry.addr);
            }
        }
    }

    /// Marks the mirrored store `seq` as having its data ready.
    pub fn set_data_ready(&mut self, seq: u64, cycle: u64) -> bool {
        match self.slot_of(seq) {
            Some(slot) => {
                let entry = &mut self.entries[slot as usize];
                entry.data_ready = true;
                entry.ready_at = cycle;
                true
            }
            None => false,
        }
    }

    /// Forwarding search: youngest mirrored store older than `load_seq` whose
    /// address overlaps `access`.
    pub fn search(&self, load_seq: u64, access: &MemAccess) -> Option<MirrorHit> {
        let mut best: Option<&MirrorEntry> = None;
        self.chains.for_each_candidate(access, |slot| {
            let entry = &self.entries[slot as usize];
            if entry.seq < load_seq
                && best.map(|b| entry.seq > b.seq).unwrap_or(true)
                && entry.addr.overlaps(access)
            {
                best = Some(entry);
            }
        });
        best.map(|&entry| MirrorHit {
            entry,
            full_cover: access.covered_by(&entry.addr),
        })
    }

    /// Drops every mirrored store belonging to `bank` (its epoch committed or
    /// was squashed). Returns how many entries were dropped.
    pub fn drop_bank(&mut self, bank: usize) -> usize {
        self.remove_where(|e| e.bank == bank)
    }

    /// Drops every mirrored store with `seq >= from_seq` (partial squash
    /// inside the youngest epoch).
    pub fn squash_from(&mut self, from_seq: u64) -> usize {
        self.remove_where(|e| e.seq >= from_seq)
    }

    /// Removes every entry matching `predicate` in one pass over the slab,
    /// unlinking each from its chains. Returns how many entries were
    /// dropped.
    fn remove_where(&mut self, predicate: impl Fn(&MirrorEntry) -> bool) -> usize {
        if self.len == 0 {
            return 0;
        }
        let mut removed = 0;
        for slot in 0..self.entries.len() {
            let entry = self.entries[slot];
            if self.live[slot] && predicate(&entry) {
                let slot = slot as u32;
                self.chains.unlink_seq(slot, entry.seq);
                self.chains.unlink_lines(slot, &entry.addr);
                self.live[slot as usize] = false;
                self.free.push(slot);
                removed += 1;
            }
        }
        self.len -= removed;
        removed
    }

    /// Iterates over mirrored entries in program order. Sorts the live
    /// entries on every call; only tests and serialization use it.
    pub fn iter(&self) -> impl Iterator<Item = &MirrorEntry> {
        let mut live: Vec<&MirrorEntry> = self
            .entries
            .iter()
            .zip(&self.live)
            .filter_map(|(entry, &live)| live.then_some(entry))
            .collect();
        live.sort_unstable_by_key(|e| e.seq);
        live.into_iter()
    }
}

/// Serialization carries only the entries, in program order; the slab and
/// chains are rebuilt on deserialization.
impl Serialize for StoreQueueMirror {
    fn to_value(&self) -> serde::Value {
        self.iter().copied().collect::<Vec<_>>().to_value()
    }
}

impl Deserialize for StoreQueueMirror {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = Vec::<MirrorEntry>::from_value(value)?;
        let mut mirror = StoreQueueMirror::new();
        for e in entries {
            mirror.upsert(e.seq, e.addr, e.bank, e.data_ready, e.ready_at);
        }
        Ok(mirror)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(a: u64) -> MemAccess {
        MemAccess::new(a, 8)
    }

    #[test]
    fn upsert_insert_and_update() {
        let mut m = StoreQueueMirror::new();
        m.upsert(5, acc(0x100), 1, false, 0);
        m.upsert(3, acc(0x200), 0, true, 7);
        assert_eq!(m.len(), 2);
        // Entries stay seq-ordered regardless of insertion order.
        let seqs: Vec<u64> = m.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 5]);
        // Updating an existing seq does not duplicate.
        m.upsert(5, acc(0x108), 1, true, 12);
        assert_eq!(m.len(), 2);
        assert!(m.iter().any(|e| e.seq == 5 && e.data_ready));
    }

    #[test]
    fn search_returns_youngest_older_match() {
        let mut m = StoreQueueMirror::new();
        m.upsert(2, acc(0x100), 0, true, 1);
        m.upsert(6, acc(0x100), 1, false, 0);
        let hit = m.search(8, &acc(0x100)).unwrap();
        assert_eq!(hit.entry.seq, 6);
        assert!(hit.full_cover);
        let hit = m.search(5, &acc(0x100)).unwrap();
        assert_eq!(hit.entry.seq, 2);
        assert!(m.search(1, &acc(0x100)).is_none());
        assert!(m.search(8, &acc(0x900)).is_none());
    }

    #[test]
    fn partial_cover_detection() {
        let mut m = StoreQueueMirror::new();
        m.upsert(1, MemAccess::new(0x100, 4), 0, true, 0);
        let hit = m.search(2, &MemAccess::new(0x102, 4)).unwrap();
        assert!(!hit.full_cover);
    }

    #[test]
    fn data_ready_updates() {
        let mut m = StoreQueueMirror::new();
        m.upsert(4, acc(0x40), 2, false, 0);
        assert!(m.set_data_ready(4, 99));
        assert!(!m.set_data_ready(5, 99));
        assert!(m.search(10, &acc(0x40)).unwrap().entry.data_ready);
    }

    #[test]
    fn upsert_with_new_address_moves_buckets() {
        let mut m = StoreQueueMirror::new();
        m.upsert(5, acc(0x100), 1, false, 0);
        m.upsert(5, acc(0x4000), 1, true, 3);
        assert!(m.search(9, &acc(0x100)).is_none());
        assert_eq!(m.search(9, &acc(0x4000)).unwrap().entry.seq, 5);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn serde_round_trip_rebuilds_index() {
        use serde::{Deserialize, Serialize};
        let mut m = StoreQueueMirror::new();
        m.upsert(2, acc(0x100), 0, true, 1);
        m.upsert(6, acc(0x200), 1, false, 0);
        let back = StoreQueueMirror::from_value(&m.to_value()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.search(9, &acc(0x100)).unwrap().entry.seq, 2);
        assert_eq!(back.search(9, &acc(0x200)).unwrap().entry.seq, 6);
    }

    #[test]
    fn drop_bank_and_squash() {
        let mut m = StoreQueueMirror::new();
        m.upsert(1, acc(0x10), 0, true, 0);
        m.upsert(2, acc(0x20), 1, true, 0);
        m.upsert(3, acc(0x30), 0, true, 0);
        m.upsert(9, acc(0x90), 1, true, 0);
        assert_eq!(m.drop_bank(0), 2);
        assert_eq!(m.len(), 2);
        assert_eq!(m.squash_from(9), 1);
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }
}
