//! Age-ordered associative memory-operation queues.
//!
//! [`AgeQueue`] is the building block shared by every queue in the design:
//! the high-locality LQ/SQ, each epoch's LQ/SQ, the Store Queue Mirror and
//! the conventional central LSQ baselines. Entries are kept in program order
//! (by sequence number); the two searches a load/store queue must support —
//! *youngest older matching store* for forwarding and *any younger issued
//! matching load* for violation detection — are provided as methods so every
//! model counts and behaves identically.
//!
//! # Representation
//!
//! The queue is a slab of entry slots threaded into a doubly-linked list in
//! program order. The slab is stored structure-of-arrays: entry payloads
//! and list links live in parallel vectors indexed by slot, so the search
//! loops scan densely packed [`MemEntry`] values while squash — the
//! wrong-path hot path, which detaches a run of tail slots — rewrites only
//! the compact link records. Three auxiliary indices turn the former linear
//! scans into near-constant-time lookups (the searches themselves are the
//! simulator's hottest operations — see `docs/PERFORMANCE.md`):
//!
//! * a **sequence index** (`seq -> slot`) making [`AgeQueue::get`],
//!   [`AgeQueue::set_address`], [`AgeQueue::set_issued`] and
//!   [`AgeQueue::remove`] O(1);
//! * **address buckets** keyed by 64-byte line mapping each line to the
//!   slots whose known address touches it, so the forwarding and violation
//!   searches only examine same-line entries instead of the whole queue;
//! * an **unknown-address deque** of the sequence numbers whose address is
//!   still pending, kept ascending (entries arrive in program order, so it
//!   grows only at the back; commit and squash pop its ends): the
//!   `has_older_unknown_address` predicate reads its front and
//!   `has_unknown_address_between` is one binary search.
//!
//! Freed slots (commit, remove, squash, clear) return to a free list and
//! emptied bucket vectors return to a pool, so a steady-state simulation
//! performs no queue allocation at all. Every query returns exactly what the
//! original linear scans returned; `crates/core/tests/proptests.rs` pins the
//! equivalence against a naive reference model over random op sequences.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

use elsq_isa::MemAccess;

use crate::fxhash::FxHashMap;

/// Whether a memory operation is a load or a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemOpKind {
    /// A load (allocates a Load Queue entry).
    Load,
    /// A store (allocates a Store Queue entry).
    Store,
}

impl fmt::Display for MemOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemOpKind::Load => write!(f, "load"),
            MemOpKind::Store => write!(f, "store"),
        }
    }
}

/// Error returned when a bounded queue has no free entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFullError {
    /// Capacity of the queue that rejected the allocation.
    pub capacity: usize,
}

impl fmt::Display for QueueFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "queue full ({} entries)", self.capacity)
    }
}

impl std::error::Error for QueueFullError {}

/// One load or store tracked by a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemEntry {
    /// Global program-order sequence number (assigned at decode).
    pub seq: u64,
    /// The effective address, once computed.
    pub addr: Option<MemAccess>,
    /// For loads: whether the load has issued (obtained a value). For
    /// stores: whether the store's data is available for forwarding.
    pub issued: bool,
    /// Cycle at which the entry issued / its data became ready.
    pub ready_at: u64,
}

impl MemEntry {
    /// Creates an entry for a newly decoded memory instruction with an
    /// unknown address.
    pub fn pending(seq: u64) -> Self {
        Self {
            seq,
            addr: None,
            issued: false,
            ready_at: 0,
        }
    }

    /// Whether the address is known and overlaps `access`.
    pub fn overlaps(&self, access: &MemAccess) -> bool {
        self.addr.map(|a| a.overlaps(access)).unwrap_or(false)
    }
}

/// Result of a forwarding search in a store queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardHit {
    /// Sequence number of the matching store.
    pub store_seq: u64,
    /// Whether the store fully covers the load (a partial overlap requires
    /// waiting for the store to commit, per Section 2.1).
    pub full_cover: bool,
    /// Whether the store's data was ready at search time.
    pub data_ready: bool,
    /// Cycle at which the store's data becomes/became ready.
    pub data_ready_at: u64,
}

/// Granularity of the address buckets. One 64-byte line covers any 1–8 byte
/// access with at most two buckets (when the access straddles a boundary).
const INDEX_LINE_SHIFT: u32 = 6;

/// The two index lines an access can touch: `(first, last)`; equal when the
/// access sits inside one line. Shared with the Store Queue Mirror's index.
#[inline]
pub(crate) fn index_lines(access: &MemAccess) -> (u64, u64) {
    let first = access.start() >> INDEX_LINE_SHIFT;
    let last = (access.end() - 1) >> INDEX_LINE_SHIFT;
    (first, last)
}

/// Address buckets keyed by 64-byte index line: each line maps to the
/// items (slot indices, sequence numbers, ...) whose access touches it.
/// Shared by [`AgeQueue`] and the Store Queue Mirror so the line-walk,
/// duplicate-free removal and vector-recycling logic exist once.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineBuckets<T> {
    buckets: FxHashMap<u64, Vec<T>>,
    /// Recycled bucket vectors (so steady state never reallocates).
    pool: Vec<Vec<T>>,
}

impl<T: Copy + Eq> LineBuckets<T> {
    /// Registers `item` under every index line `access` touches.
    pub(crate) fn insert(&mut self, access: &MemAccess, item: T) {
        let (first, last) = index_lines(access);
        let mut line = first;
        loop {
            self.buckets
                .entry(line)
                .or_insert_with(|| self.pool.pop().unwrap_or_default())
                .push(item);
            if line == last {
                break;
            }
            line += 1;
        }
    }

    /// Removes `item` from the buckets of every line `access` touches,
    /// recycling any bucket that empties.
    pub(crate) fn remove(&mut self, access: &MemAccess, item: T) {
        let (first, last) = index_lines(access);
        let mut line = first;
        loop {
            if let Some(bucket) = self.buckets.get_mut(&line) {
                if let Some(pos) = bucket.iter().position(|&s| s == item) {
                    bucket.swap_remove(pos);
                }
                if bucket.is_empty() {
                    let recycled = self.buckets.remove(&line).expect("bucket exists");
                    self.pool.push(recycled);
                }
            }
            if line == last {
                break;
            }
            line += 1;
        }
    }

    /// The items registered under `line`, if any.
    pub(crate) fn get(&self, line: u64) -> Option<&[T]> {
        self.buckets.get(&line).map(Vec::as_slice)
    }
}

/// Sentinel slot index for the linked-list endpoints.
const NIL: u32 = u32::MAX;

/// Program-order list links for one slab slot. Kept in an array parallel to
/// the entry payloads: the forwarding/violation searches walk only entries
/// (densely packed, no link bytes between them), while squash and detach
/// walk only these 8-byte records plus the one entry they remove.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

/// An age-ordered queue of memory operations with optional bounded capacity.
///
/// Entries must be inserted in increasing sequence-number order (program
/// order), which is how both the HL and the epoch queues are filled.
#[derive(Debug, Clone)]
pub struct AgeQueue {
    /// Entry payloads, indexed by slot (parallel to `links`).
    entries: Vec<MemEntry>,
    /// Program-order list links, indexed by slot (parallel to `entries`).
    links: Vec<Link>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
    capacity: Option<usize>,
    /// `seq -> slot` for O(1) point operations.
    index: FxHashMap<u64, u32>,
    /// `index line -> slots with a known address touching the line`.
    buckets: LineBuckets<u32>,
    /// Sequence numbers whose address is still unknown, ascending. Entries
    /// arrive in program order, so it only grows at the back.
    unknown: VecDeque<u64>,
}

impl AgeQueue {
    /// Creates a queue bounded to `capacity` entries.
    pub fn bounded(capacity: usize) -> Self {
        let prealloc = capacity.min(1024);
        Self {
            entries: Vec::with_capacity(prealloc),
            links: Vec::with_capacity(prealloc),
            free: Vec::with_capacity(prealloc),
            head: NIL,
            tail: NIL,
            len: 0,
            capacity: Some(capacity),
            index: FxHashMap::default(),
            buckets: LineBuckets::default(),
            unknown: VecDeque::new(),
        }
    }

    /// Creates an unbounded queue (the idealized central LSQ of Figure 7).
    pub fn unbounded() -> Self {
        Self {
            entries: Vec::new(),
            links: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            capacity: None,
            index: FxHashMap::default(),
            buckets: LineBuckets::default(),
            unknown: VecDeque::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the queue cannot accept another entry.
    pub fn is_full(&self) -> bool {
        self.capacity.is_some_and(|c| self.len >= c)
    }

    /// The configured capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of entries whose address is still unknown.
    pub fn unknown_address_count(&self) -> usize {
        self.unknown.len()
    }

    // ------------------------------------------------------------------
    // Slab and index plumbing
    // ------------------------------------------------------------------

    /// Takes a slot from the free list (or grows the slab) and links it at
    /// the tail.
    fn link_tail(&mut self, entry: MemEntry) -> u32 {
        let link = Link {
            prev: self.tail,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                self.links[slot as usize] = link;
                slot
            }
            None => {
                let slot = self.entries.len() as u32;
                self.entries.push(entry);
                self.links.push(link);
                slot
            }
        };
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.links[self.tail as usize].next = slot;
        }
        self.tail = slot;
        self.len += 1;
        slot
    }

    /// Unlinks `slot` from the program-order list and returns it to the free
    /// list, maintaining every index. Returns the entry.
    fn detach(&mut self, slot: u32) -> MemEntry {
        let entry = self.entries[slot as usize];
        let Link { prev, next } = self.links[slot as usize];
        if prev == NIL {
            self.head = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.links[next as usize].prev = prev;
        }
        self.index.remove(&entry.seq);
        match entry.addr {
            Some(access) => self.buckets.remove(&access, slot),
            None => self.forget_unknown(entry.seq),
        }
        self.free.push(slot);
        self.len -= 1;
        entry
    }

    /// Drops `seq` from the unknown-address set. Commit removes the oldest
    /// entry and squash the youngest, so the ends are checked first.
    fn forget_unknown(&mut self, seq: u64) {
        if self.unknown.front() == Some(&seq) {
            self.unknown.pop_front();
        } else if self.unknown.back() == Some(&seq) {
            self.unknown.pop_back();
        } else if let Ok(at) = self.unknown.binary_search(&seq) {
            self.unknown.remove(at);
        }
    }

    // ------------------------------------------------------------------
    // Queue operations
    // ------------------------------------------------------------------

    /// Allocates an entry at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] if the queue is bounded and full.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not greater than the current tail's sequence
    /// number (entries must arrive in program order).
    pub fn allocate(&mut self, seq: u64) -> Result<(), QueueFullError> {
        self.push_entry(MemEntry::pending(seq))
    }

    /// Inserts a fully formed entry at the tail (used when migrating an entry
    /// from the high-locality queue into an epoch, address and all).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] if the queue is bounded and full.
    pub fn push_entry(&mut self, entry: MemEntry) -> Result<(), QueueFullError> {
        if self.is_full() {
            return Err(QueueFullError {
                capacity: self.capacity.unwrap_or(0),
            });
        }
        if self.tail != NIL {
            let last_seq = self.entries[self.tail as usize].seq;
            assert!(
                entry.seq > last_seq,
                "queue entries must be allocated in program order ({} after {})",
                entry.seq,
                last_seq
            );
        }
        let slot = self.link_tail(entry);
        self.index.insert(entry.seq, slot);
        match entry.addr {
            Some(access) => self.buckets.insert(&access, slot),
            None => self.unknown.push_back(entry.seq),
        }
        Ok(())
    }

    /// Looks up an entry by sequence number.
    pub fn get(&self, seq: u64) -> Option<&MemEntry> {
        self.index
            .get(&seq)
            .map(|&slot| &self.entries[slot as usize])
    }

    /// Records the effective address of entry `seq`. Returns `false` if the
    /// entry is not present (e.g. already squashed).
    pub fn set_address(&mut self, seq: u64, addr: MemAccess) -> bool {
        let Some(&slot) = self.index.get(&seq) else {
            return false;
        };
        let previous = self.entries[slot as usize].addr;
        match previous {
            Some(old) => self.buckets.remove(&old, slot),
            None => self.forget_unknown(seq),
        }
        self.entries[slot as usize].addr = Some(addr);
        self.buckets.insert(&addr, slot);
        true
    }

    /// Marks entry `seq` as issued / data-ready at `cycle`.
    pub fn set_issued(&mut self, seq: u64, cycle: u64) -> bool {
        match self.index.get(&seq) {
            Some(&slot) => {
                let entry = &mut self.entries[slot as usize];
                entry.issued = true;
                entry.ready_at = cycle;
                true
            }
            None => false,
        }
    }

    /// Removes and returns the oldest entry if its sequence number is `seq`
    /// (commit always proceeds in program order). The freed slot returns to
    /// the slab free list.
    pub fn commit_head(&mut self, seq: u64) -> Option<MemEntry> {
        if self.head != NIL && self.entries[self.head as usize].seq == seq {
            Some(self.detach(self.head))
        } else {
            None
        }
    }

    /// Removes the entry with sequence number `seq` regardless of position
    /// (used by the Store Queue Mirror when an epoch commits out of lockstep
    /// with the mirror's own ordering).
    pub fn remove(&mut self, seq: u64) -> Option<MemEntry> {
        self.index.get(&seq).copied().map(|slot| self.detach(slot))
    }

    /// Removes every entry with `seq >= from_seq` (squash) and returns how
    /// many were removed. Freed slots return to the slab free list.
    pub fn squash_from(&mut self, from_seq: u64) -> usize {
        let mut removed = 0;
        while self.tail != NIL && self.entries[self.tail as usize].seq >= from_seq {
            self.detach(self.tail);
            removed += 1;
        }
        removed
    }

    /// Clears the queue and returns the number of entries dropped. Slots and
    /// bucket storage are retained for reuse.
    pub fn clear(&mut self) -> usize {
        let n = self.len;
        while self.tail != NIL {
            self.detach(self.tail);
        }
        n
    }

    /// Iterates over entries in program order.
    pub fn iter(&self) -> AgeQueueIter<'_> {
        AgeQueueIter {
            queue: self,
            next: self.head,
        }
    }

    /// Finds the **youngest store older than the load** whose address
    /// overlaps the load's access — the store-to-load forwarding search.
    ///
    /// This treats the queue as a Store Queue; `load_seq` is the searching
    /// load's sequence number.
    pub fn find_forwarding_store(&self, load_seq: u64, access: &MemAccess) -> Option<ForwardHit> {
        let mut best: Option<&MemEntry> = None;
        let (first, last) = index_lines(access);
        let mut line = first;
        loop {
            if let Some(bucket) = self.buckets.get(line) {
                for &slot in bucket {
                    let entry = &self.entries[slot as usize];
                    if entry.seq < load_seq
                        && entry.overlaps(access)
                        && best.map(|b| entry.seq > b.seq).unwrap_or(true)
                    {
                        best = Some(entry);
                    }
                }
            }
            if line == last {
                break;
            }
            line += 1;
        }
        best.map(|e| ForwardHit {
            store_seq: e.seq,
            full_cover: e.addr.map(|a| access.covered_by(&a)).unwrap_or(false),
            data_ready: e.issued,
            data_ready_at: e.ready_at,
        })
    }

    /// Whether any store **older than `load_seq`** still has an unknown
    /// address (used by the conservative forwarding policies and the SVW
    /// "CheckStores" filter).
    pub fn has_older_unknown_address(&self, load_seq: u64) -> bool {
        self.unknown
            .front()
            .is_some_and(|&oldest| oldest < load_seq)
    }

    /// Whether any store with sequence number in `(after_seq, before_seq)`
    /// has an unknown address — i.e. between a forwarding store and the load
    /// that forwarded from it.
    pub fn has_unknown_address_between(&self, after_seq: u64, before_seq: u64) -> bool {
        if after_seq >= before_seq {
            return false;
        }
        let first_after = self.unknown.partition_point(|&seq| seq <= after_seq);
        self.unknown
            .get(first_after)
            .is_some_and(|&seq| seq < before_seq)
    }

    /// Finds the **oldest load younger than the store** that has already
    /// issued with an overlapping address — the store-load ordering violation
    /// check. Returns the violating load's sequence number.
    ///
    /// This treats the queue as a Load Queue; `store_seq` is the issuing
    /// store's sequence number.
    pub fn find_violating_load(&self, store_seq: u64, access: &MemAccess) -> Option<u64> {
        let mut best: Option<u64> = None;
        let (first, last) = index_lines(access);
        let mut line = first;
        loop {
            if let Some(bucket) = self.buckets.get(line) {
                for &slot in bucket {
                    let entry = &self.entries[slot as usize];
                    if entry.seq > store_seq
                        && entry.issued
                        && entry.overlaps(access)
                        && best.map(|b| entry.seq < b).unwrap_or(true)
                    {
                        best = Some(entry.seq);
                    }
                }
            }
            if line == last {
                break;
            }
            line += 1;
        }
        best
    }

    /// Sequence number of the oldest entry, if any.
    pub fn head_seq(&self) -> Option<u64> {
        if self.head == NIL {
            None
        } else {
            Some(self.entries[self.head as usize].seq)
        }
    }

    /// Sequence number of the youngest entry, if any.
    pub fn tail_seq(&self) -> Option<u64> {
        if self.tail == NIL {
            None
        } else {
            Some(self.entries[self.tail as usize].seq)
        }
    }
}

/// Program-order iterator over an [`AgeQueue`].
#[derive(Debug, Clone)]
pub struct AgeQueueIter<'a> {
    queue: &'a AgeQueue,
    next: u32,
}

impl<'a> Iterator for AgeQueueIter<'a> {
    type Item = &'a MemEntry;

    fn next(&mut self) -> Option<&'a MemEntry> {
        if self.next == NIL {
            return None;
        }
        let slot = self.next as usize;
        self.next = self.queue.links[slot].next;
        Some(&self.queue.entries[slot])
    }
}

impl PartialEq for AgeQueue {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for AgeQueue {}

/// The serialized face of an [`AgeQueue`]: the program-ordered entries plus
/// the capacity. The slab layout and indices are rebuilt on deserialization.
#[derive(Serialize, Deserialize)]
struct AgeQueueRepr {
    entries: Vec<MemEntry>,
    capacity: Option<usize>,
}

impl Serialize for AgeQueue {
    fn to_value(&self) -> serde::Value {
        AgeQueueRepr {
            entries: self.iter().copied().collect(),
            capacity: self.capacity,
        }
        .to_value()
    }
}

impl Deserialize for AgeQueue {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let repr = AgeQueueRepr::from_value(value)?;
        let mut queue = match repr.capacity {
            Some(capacity) => AgeQueue::bounded(capacity),
            None => AgeQueue::unbounded(),
        };
        for entry in repr.entries {
            // Validate ahead of push_entry: its program-order assert must
            // stay a logic-error panic for live queues, but malformed
            // serialized input is a data error, not a bug.
            if queue.tail_seq().is_some_and(|tail| entry.seq <= tail) {
                return Err(serde::Error::custom(format!(
                    "age queue entries out of order: {} after {:?}",
                    entry.seq,
                    queue.tail_seq()
                )));
            }
            queue
                .push_entry(entry)
                .map_err(|e| serde::Error::custom(format!("age queue overflow: {e}")))?;
        }
        Ok(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(addr: u64, size: u8) -> MemAccess {
        MemAccess::new(addr, size)
    }

    #[test]
    fn allocate_and_capacity() {
        let mut q = AgeQueue::bounded(2);
        assert!(q.allocate(1).is_ok());
        assert!(q.allocate(2).is_ok());
        assert!(q.is_full());
        assert_eq!(q.allocate(3), Err(QueueFullError { capacity: 2 }));
        assert_eq!(q.len(), 2);
        assert_eq!(q.capacity(), Some(2));
    }

    #[test]
    #[should_panic(expected = "program order")]
    fn out_of_order_allocation_panics() {
        let mut q = AgeQueue::bounded(4);
        q.allocate(5).unwrap();
        let _ = q.allocate(4);
    }

    #[test]
    fn unbounded_queue_never_fills() {
        let mut q = AgeQueue::unbounded();
        for i in 0..10_000 {
            q.allocate(i).unwrap();
        }
        assert!(!q.is_full());
        assert_eq!(q.capacity(), None);
    }

    #[test]
    fn forwarding_finds_youngest_older_store() {
        let mut sq = AgeQueue::bounded(8);
        for seq in [1, 3, 5] {
            sq.allocate(seq).unwrap();
        }
        sq.set_address(1, acc(0x100, 8));
        sq.set_address(3, acc(0x100, 8));
        sq.set_address(5, acc(0x100, 8));
        sq.set_issued(3, 20);
        // Load at seq 4 should forward from store 3 (youngest older), not 1.
        let hit = sq.find_forwarding_store(4, &acc(0x100, 8)).unwrap();
        assert_eq!(hit.store_seq, 3);
        assert!(hit.full_cover);
        assert!(hit.data_ready);
        assert_eq!(hit.data_ready_at, 20);
        // Load at seq 6 forwards from store 5, whose data is not ready.
        let hit = sq.find_forwarding_store(6, &acc(0x104, 4)).unwrap();
        assert_eq!(hit.store_seq, 5);
        assert!(!hit.data_ready);
        // Load older than every store finds nothing.
        assert!(sq.find_forwarding_store(0, &acc(0x100, 8)).is_none());
    }

    #[test]
    fn partial_overlap_is_not_full_cover() {
        let mut sq = AgeQueue::bounded(4);
        sq.allocate(1).unwrap();
        sq.set_address(1, acc(0x100, 4));
        let hit = sq.find_forwarding_store(2, &acc(0x102, 4)).unwrap();
        assert_eq!(hit.store_seq, 1);
        assert!(!hit.full_cover);
    }

    #[test]
    fn searches_cross_index_line_boundaries() {
        // A store whose 8-byte access straddles the 64-byte index line at
        // 0x40 must be found by loads probing either side.
        let mut sq = AgeQueue::bounded(4);
        sq.allocate(1).unwrap();
        sq.set_address(1, acc(0x3c, 8));
        assert_eq!(
            sq.find_forwarding_store(2, &acc(0x38, 8))
                .unwrap()
                .store_seq,
            1
        );
        assert_eq!(
            sq.find_forwarding_store(2, &acc(0x40, 4))
                .unwrap()
                .store_seq,
            1
        );
        // And a straddling *load probe* must see stores on both sides.
        let mut sq2 = AgeQueue::bounded(4);
        sq2.allocate(1).unwrap();
        sq2.set_address(1, acc(0x40, 2));
        assert_eq!(
            sq2.find_forwarding_store(2, &acc(0x3c, 8))
                .unwrap()
                .store_seq,
            1
        );
    }

    #[test]
    fn set_address_twice_moves_buckets() {
        let mut sq = AgeQueue::bounded(4);
        sq.allocate(1).unwrap();
        sq.set_address(1, acc(0x100, 8));
        sq.set_address(1, acc(0x4000, 8));
        assert!(sq.find_forwarding_store(2, &acc(0x100, 8)).is_none());
        assert_eq!(
            sq.find_forwarding_store(2, &acc(0x4000, 8))
                .unwrap()
                .store_seq,
            1
        );
        assert_eq!(sq.unknown_address_count(), 0);
    }

    #[test]
    fn unknown_address_checks() {
        let mut sq = AgeQueue::bounded(8);
        sq.allocate(1).unwrap();
        sq.allocate(4).unwrap();
        sq.allocate(7).unwrap();
        sq.set_address(1, acc(0x0, 8));
        sq.set_address(7, acc(0x8, 8));
        assert!(sq.has_older_unknown_address(6)); // store 4 unknown
        assert!(!sq.has_older_unknown_address(3));
        assert!(sq.has_unknown_address_between(1, 6));
        assert!(!sq.has_unknown_address_between(4, 6));
        assert!(!sq.has_unknown_address_between(6, 4));
        assert!(!sq.has_unknown_address_between(4, 4));
        assert_eq!(sq.unknown_address_count(), 1);
    }

    #[test]
    fn violation_finds_issued_younger_load() {
        let mut lq = AgeQueue::bounded(8);
        for seq in [2, 4, 6] {
            lq.allocate(seq).unwrap();
        }
        lq.set_address(4, acc(0x200, 8));
        lq.set_issued(4, 11);
        lq.set_address(6, acc(0x300, 8));
        lq.set_issued(6, 12);
        // Store at seq 3 to 0x200 violates load 4 (issued, younger, overlap).
        assert_eq!(lq.find_violating_load(3, &acc(0x200, 4)), Some(4));
        // Store to an untouched address finds nothing.
        assert_eq!(lq.find_violating_load(3, &acc(0x400, 4)), None);
        // A store younger than every load cannot be violated.
        assert_eq!(lq.find_violating_load(7, &acc(0x200, 4)), None);
        // Non-issued loads are not violations.
        lq.allocate(8).unwrap();
        lq.set_address(8, acc(0x500, 8));
        assert_eq!(lq.find_violating_load(7, &acc(0x500, 4)), None);
    }

    #[test]
    fn commit_and_squash() {
        let mut q = AgeQueue::bounded(8);
        for seq in 1..=5 {
            q.allocate(seq).unwrap();
        }
        assert!(q.commit_head(2).is_none()); // not the head
        assert_eq!(q.commit_head(1).unwrap().seq, 1);
        assert_eq!(q.squash_from(4), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.tail_seq(), Some(3));
        assert_eq!(q.head_seq(), Some(2));
        assert_eq!(q.clear(), 2);
        assert!(q.is_empty());
        assert_eq!(q.unknown_address_count(), 0);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut q = AgeQueue::bounded(4);
        for seq in 1..=4 {
            q.allocate(seq).unwrap();
        }
        let slab_size = q.entries.len();
        q.squash_from(3); // frees two slots
        q.commit_head(1); // frees one more
        for seq in 10..=12 {
            q.allocate(seq).unwrap();
        }
        assert_eq!(q.entries.len(), slab_size, "slab must not grow after frees");
        assert_eq!(q.len(), 4);
        q.clear();
        for seq in 20..=23 {
            q.allocate(seq).unwrap();
        }
        assert_eq!(q.entries.len(), slab_size, "clear must recycle all slots");
    }

    #[test]
    fn remove_by_seq() {
        let mut q = AgeQueue::bounded(8);
        for seq in [1, 2, 3] {
            q.allocate(seq).unwrap();
        }
        assert_eq!(q.remove(2).unwrap().seq, 2);
        assert!(q.remove(2).is_none());
        assert_eq!(q.len(), 2);
        assert!(q.get(1).is_some());
        assert!(q.get(2).is_none());
        let order: Vec<u64> = q.iter().map(|e| e.seq).collect();
        assert_eq!(order, vec![1, 3]);
    }

    #[test]
    fn set_address_on_missing_entry_returns_false() {
        let mut q = AgeQueue::bounded(2);
        q.allocate(1).unwrap();
        assert!(!q.set_address(9, acc(0, 8)));
        assert!(!q.set_issued(9, 1));
    }

    #[test]
    fn push_entry_preserves_order_and_capacity() {
        let mut q = AgeQueue::bounded(1);
        let mut e = MemEntry::pending(5);
        e.addr = Some(acc(0x40, 8));
        e.issued = true;
        q.push_entry(e).unwrap();
        assert!(q.push_entry(MemEntry::pending(6)).is_err());
        assert!(q.get(5).unwrap().issued);
    }

    #[test]
    fn equality_and_serde_round_trip() {
        let mut q = AgeQueue::bounded(8);
        for seq in [1, 3, 5] {
            q.allocate(seq).unwrap();
        }
        q.set_address(3, acc(0x40, 8));
        q.set_issued(3, 9);
        let back = AgeQueue::from_value(&q.to_value()).unwrap();
        assert_eq!(q, back);
        assert_eq!(back.capacity(), Some(8));
        assert_eq!(back.unknown_address_count(), 2);
        assert_eq!(
            back.find_forwarding_store(4, &acc(0x40, 8))
                .unwrap()
                .store_seq,
            3
        );
        // Equality ignores slab layout: remove + re-add changes slot order.
        let mut q2 = back.clone();
        assert_eq!(q, q2);
        q2.remove(5);
        assert_ne!(q, q2);
    }
}
