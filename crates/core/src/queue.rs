//! Age-ordered associative memory-operation queues.
//!
//! [`AgeQueue`] is the building block shared by every queue in the design:
//! the high-locality LQ/SQ, each epoch's LQ/SQ and the conventional central
//! LSQ baselines (the Store Queue Mirror shares its index, `Chains`).
//! Entries are kept in program order (by sequence number); the two searches
//! a load/store queue must support — *youngest older matching store* for
//! forwarding and *any younger issued matching load* for violation
//! detection — are provided as methods so every model counts and behaves
//! identically.
//!
//! # Representation
//!
//! The queue is a slab of entry slots threaded into a doubly-linked list in
//! program order. The slab is stored structure-of-arrays: entry payloads
//! and list links live in parallel vectors indexed by slot, so the search
//! loops scan densely packed [`MemEntry`] values while squash — the
//! wrong-path hot path, which detaches a run of tail slots — rewrites only
//! the compact link records. Two indices turn the former linear scans into
//! near-constant-time lookups (see `docs/PERFORMANCE.md`):
//!
//! * **intrusive hash chains** (`Chains`) threaded through the slots: a
//!   sequence chain per `seq & mask` makes [`AgeQueue::get`],
//!   [`AgeQueue::set_address`], [`AgeQueue::set_issued`] and
//!   [`AgeQueue::remove`] O(1), and a chain per hashed 64-byte line holds
//!   every slot whose known address touches a line of that chain, so the
//!   forwarding and violation searches examine a few candidates instead of
//!   the whole queue. A bounded queue sizes its heads for twice its
//!   capacity; an unbounded one (the ideal central LSQ) starts at 64 heads
//!   and re-threads into four times as many whenever it passes one entry
//!   per two heads;
//! * an **unknown-address deque** of the sequence numbers whose address is
//!   still pending, kept ascending (entries arrive in program order, so it
//!   grows only at the back; commit and squash pop its ends): the
//!   `has_older_unknown_address` predicate reads its front and
//!   `has_unknown_address_between` is one binary search.
//!
//! Freed slots (commit, remove, squash, clear) return to a free list, and
//! linking or unlinking a slot writes a few `u32`s, so a steady-state
//! simulation performs no queue allocation or hashing through a map. Every
//! query returns exactly what the original linear scans returned;
//! `crates/core/tests/proptests.rs` pins the equivalence against a naive
//! reference model over random op sequences.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

use elsq_isa::MemAccess;

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

/// The older store a load forwards from: the result of a forwarding search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForwardHit {
    /// Sequence number of the matching store.
    pub store_seq: u64,
    /// Whether the store fully covers the load (a partial overlap requires
    /// waiting for the store to commit, per Section 2.1).
    pub full_cover: bool,
    /// Cycle at which the store's data becomes/became ready; the load
    /// cannot complete earlier.
    pub data_ready_at: u64,
}

/// What a load learns when it searches the LSQ. Every queue model answers
/// with this: the central LSQs and both levels of the ELSQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadOutcome {
    /// The older in-flight store the load forwards from, if any.
    pub forward: Option<ForwardHit>,
    /// Latency beyond the L1 access: queue searches, filter lookups and
    /// network trips.
    pub extra_latency: u32,
    /// Line-based ERT only: the load's line could not be locked because the
    /// whole set is locked by younger instructions, so the window must be
    /// squashed from this load (Section 3.4).
    pub lock_conflict: bool,
    /// Whether any older store (in any level) still had an unknown address
    /// when the load issued; the SVW CheckStores filter needs it.
    pub older_unknown_store: bool,
}

/// What a store learns when its address resolves and it searches the LSQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreOutcome {
    /// Oldest younger load that already issued with an overlapping address:
    /// a store-load ordering violation, so the window must be squashed from
    /// it.
    pub violation_load_seq: Option<u64>,
    /// Latency of the violation checks: queue searches and network trips.
    pub extra_latency: u32,
    /// Line-based ERT only: the store's line could not be locked while it
    /// issued from the LL-LSQ, so the window must be squashed.
    pub lock_conflict: bool,
}

/// Granularity of the line index. Any 1–8 byte access touches at most two
/// 64-byte lines (two when it straddles a boundary).
const INDEX_LINE_SHIFT: u32 = 6;

/// The two index lines an access can touch: `(first, last)`; equal when the
/// access sits inside one line.
#[inline]
fn index_lines(access: &MemAccess) -> (u64, u64) {
    let first = access.start() >> INDEX_LINE_SHIFT;
    let last = (access.end() - 1) >> INDEX_LINE_SHIFT;
    (first, last)
}

/// Sentinel slot index for list endpoints, empty chain heads and chain ends.
const NIL: u32 = u32::MAX;

/// Multiplier of the Fibonacci hash that spreads index lines over the line
/// chain heads.
const LINE_HASH: u64 = 0x9e37_79b9_7f4a_7c15;

/// Fewest chain heads an index starts with.
const MIN_HEADS: usize = 16;

/// Heads an unbounded index starts with before it re-threads.
const UNBOUNDED_HEADS: usize = 64;

/// Most heads a bounded index is sized for up front; a larger capacity
/// starts here and re-threads like an unbounded one as it fills.
const MAX_INITIAL_HEADS: usize = 1 << 16;

/// Intrusive hash chains threaded through slab slots: the sequence index
/// and the 64-byte-line address index shared by [`AgeQueue`] and the Store
/// Queue Mirror. Linking or unlinking an entry writes a few `u32`s; only a
/// re-thread allocates.
///
/// * **Sequence chains.** `seq_heads[seq & mask]` heads a chain of slots
///   continued by `seq_next[slot]`.
/// * **Line chains.** `line_heads[(line * LINE_HASH) >> shift]` heads a
///   chain of nodes continued by `line_next[node]`. Node `2 * slot` stands
///   for the first index line of the slot's access, and node `2 * slot + 1`
///   for its second line when the access straddles a line boundary.
///
/// A chain may mix sequence numbers or lines that share a head, so every
/// walk filters what it finds: a point lookup compares the sequence number,
/// and a search applies its exact overlap test. Any entry that overlaps an
/// access touches one of the access's lines and so sits on that line's
/// chain. The owner keeps the load at most one entry per two heads (see
/// [`Chains::needs_rethread`]), which keeps chains short.
#[derive(Debug, Clone)]
pub(crate) struct Chains {
    seq_heads: Vec<u32>,
    seq_next: Vec<u32>,
    line_heads: Vec<u32>,
    line_next: Vec<u32>,
    /// `64 - log2(line_heads.len())`.
    shift: u32,
}

impl Chains {
    /// An index for a queue of at most `capacity` entries, or for an
    /// unbounded one that starts small and re-threads as it grows.
    pub(crate) fn for_capacity(capacity: Option<usize>) -> Self {
        let heads = match capacity {
            Some(capacity) => capacity
                .saturating_mul(2)
                .min(MAX_INITIAL_HEADS)
                .next_power_of_two()
                .max(MIN_HEADS),
            None => UNBOUNDED_HEADS,
        };
        let mut chains = Self {
            seq_heads: Vec::new(),
            seq_next: Vec::new(),
            line_heads: Vec::new(),
            line_next: Vec::new(),
            shift: 0,
        };
        chains.reset(heads);
        chains
    }

    /// Empties every chain and resizes the heads to `heads` (a power of
    /// two). The owner then re-links its live entries.
    fn reset(&mut self, heads: usize) {
        debug_assert!(heads.is_power_of_two());
        self.seq_heads.clear();
        self.seq_heads.resize(heads, NIL);
        self.line_heads.clear();
        self.line_heads.resize(heads, NIL);
        self.shift = 64 - heads.trailing_zeros();
    }

    /// Whether an index holding `len` entries must re-thread before it
    /// takes one more: the load would pass one entry per two heads.
    #[inline]
    pub(crate) fn needs_rethread(&self, len: usize) -> bool {
        2 * (len + 1) > self.seq_heads.len()
    }

    /// Empties the index into four times as many heads; the owner then
    /// re-links every live entry with [`Chains::link_seq`] and
    /// [`Chains::link_lines`].
    pub(crate) fn grow(&mut self) {
        self.reset(self.seq_heads.len() * 4);
    }

    /// Extends the per-slot links to cover a slab of `slots` slots.
    #[inline]
    pub(crate) fn cover_slots(&mut self, slots: usize) {
        if self.seq_next.len() < slots {
            self.seq_next.resize(slots, NIL);
            self.line_next.resize(2 * slots, NIL);
        }
    }

    #[inline]
    fn seq_bucket(&self, seq: u64) -> usize {
        seq as usize & (self.seq_heads.len() - 1)
    }

    #[inline]
    fn line_bucket(&self, line: u64) -> usize {
        (line.wrapping_mul(LINE_HASH) >> self.shift) as usize
    }

    /// Links `slot`, holding `seq`, at the head of its sequence chain.
    #[inline]
    pub(crate) fn link_seq(&mut self, slot: u32, seq: u64) {
        let bucket = self.seq_bucket(seq);
        self.seq_next[slot as usize] = self.seq_heads[bucket];
        self.seq_heads[bucket] = slot;
    }

    /// Unlinks `slot`, holding `seq`, from its sequence chain.
    #[inline]
    pub(crate) fn unlink_seq(&mut self, slot: u32, seq: u64) {
        let bucket = self.seq_bucket(seq);
        unlink(&mut self.seq_heads, &mut self.seq_next, bucket, slot);
    }

    /// The slot holding `seq`, where `seq_of` reads a slot's sequence
    /// number.
    #[inline]
    pub(crate) fn find_seq(&self, seq: u64, seq_of: impl Fn(u32) -> u64) -> Option<u32> {
        let mut slot = self.seq_heads[self.seq_bucket(seq)];
        while slot != NIL {
            if seq_of(slot) == seq {
                return Some(slot);
            }
            slot = self.seq_next[slot as usize];
        }
        None
    }

    /// Links `slot` onto the chain of every index line `access` touches.
    #[inline]
    pub(crate) fn link_lines(&mut self, slot: u32, access: &MemAccess) {
        let (first, last) = index_lines(access);
        self.link_node(2 * slot, first);
        if last != first {
            self.link_node(2 * slot + 1, last);
        }
    }

    /// Unlinks `slot` from the chain of every index line `access` touches.
    #[inline]
    pub(crate) fn unlink_lines(&mut self, slot: u32, access: &MemAccess) {
        let (first, last) = index_lines(access);
        let bucket = self.line_bucket(first);
        unlink(&mut self.line_heads, &mut self.line_next, bucket, 2 * slot);
        if last != first {
            let bucket = self.line_bucket(last);
            unlink(
                &mut self.line_heads,
                &mut self.line_next,
                bucket,
                2 * slot + 1,
            );
        }
    }

    #[inline]
    fn link_node(&mut self, node: u32, line: u64) {
        let bucket = self.line_bucket(line);
        self.line_next[node as usize] = self.line_heads[bucket];
        self.line_heads[bucket] = node;
    }

    /// Calls `visit` with every slot on the chain of each index line
    /// `access` touches: a superset of the entries that overlap it, in no
    /// particular order and possibly with repeats.
    #[inline]
    pub(crate) fn for_each_candidate(&self, access: &MemAccess, mut visit: impl FnMut(u32)) {
        let (first, last) = index_lines(access);
        let mut line = first;
        loop {
            let mut node = self.line_heads[self.line_bucket(line)];
            while node != NIL {
                visit(node >> 1);
                node = self.line_next[node as usize];
            }
            if line == last {
                break;
            }
            line += 1;
        }
    }
}

/// Removes `node` from the singly linked chain headed at `heads[bucket]`,
/// walking from the head.
#[inline]
fn unlink(heads: &mut [u32], next: &mut [u32], bucket: usize, node: u32) {
    let mut at = heads[bucket];
    if at == node {
        heads[bucket] = next[node as usize];
        return;
    }
    while at != NIL {
        let after = next[at as usize];
        if after == node {
            next[at as usize] = next[node as usize];
            return;
        }
        at = after;
    }
    debug_assert!(false, "node {node} is not on chain {bucket}");
}

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
    /// Sequence and address-line chains over the slots.
    chains: Chains,
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
            chains: Chains::for_capacity(Some(capacity)),
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
            chains: Chains::for_capacity(None),
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
    pub(crate) fn is_full(&self) -> bool {
        self.capacity.is_some_and(|c| self.len >= c)
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
                self.chains.cover_slots(self.entries.len());
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
        self.chains.unlink_seq(slot, entry.seq);
        match entry.addr {
            Some(access) => self.chains.unlink_lines(slot, &access),
            None => self.forget_unknown(entry.seq),
        }
        self.free.push(slot);
        self.len -= 1;
        entry
    }

    /// The slot holding `seq`, if it is live.
    #[inline]
    fn slot_of(&self, seq: u64) -> Option<u32> {
        self.chains
            .find_seq(seq, |slot| self.entries[slot as usize].seq)
    }

    /// Re-threads every live entry, unknown addresses included, into an
    /// index with four times as many heads.
    fn rethread(&mut self) {
        self.chains.grow();
        let mut slot = self.head;
        while slot != NIL {
            let entry = self.entries[slot as usize];
            self.chains.link_seq(slot, entry.seq);
            if let Some(access) = entry.addr {
                self.chains.link_lines(slot, &access);
            }
            slot = self.links[slot as usize].next;
        }
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
    pub(crate) fn push_entry(&mut self, entry: MemEntry) -> Result<(), QueueFullError> {
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
        if self.chains.needs_rethread(self.len) {
            self.rethread();
        }
        let slot = self.link_tail(entry);
        self.chains.link_seq(slot, entry.seq);
        match entry.addr {
            Some(access) => self.chains.link_lines(slot, &access),
            None => self.unknown.push_back(entry.seq),
        }
        Ok(())
    }

    /// Looks up an entry by sequence number.
    pub fn get(&self, seq: u64) -> Option<&MemEntry> {
        self.slot_of(seq).map(|slot| &self.entries[slot as usize])
    }

    /// Records the effective address of entry `seq`. Returns `false` if the
    /// entry is not present (e.g. already squashed).
    pub fn set_address(&mut self, seq: u64, addr: MemAccess) -> bool {
        let Some(slot) = self.slot_of(seq) else {
            return false;
        };
        let previous = self.entries[slot as usize].addr;
        match previous {
            Some(old) => self.chains.unlink_lines(slot, &old),
            None => self.forget_unknown(seq),
        }
        self.entries[slot as usize].addr = Some(addr);
        self.chains.link_lines(slot, &addr);
        true
    }

    /// Marks entry `seq` as issued / data-ready at `cycle`.
    pub fn set_issued(&mut self, seq: u64, cycle: u64) -> bool {
        match self.slot_of(seq) {
            Some(slot) => {
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
        self.slot_of(seq).map(|slot| self.detach(slot))
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
        self.chains.for_each_candidate(access, |slot| {
            let entry = &self.entries[slot as usize];
            if entry.seq < load_seq
                && entry.overlaps(access)
                && best.map(|b| entry.seq > b.seq).unwrap_or(true)
            {
                best = Some(entry);
            }
        });
        best.map(|e| ForwardHit {
            store_seq: e.seq,
            full_cover: e.addr.map(|a| access.covered_by(&a)).unwrap_or(false),
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
        self.chains.for_each_candidate(access, |slot| {
            let entry = &self.entries[slot as usize];
            if entry.seq > store_seq
                && entry.issued
                && entry.overlaps(access)
                && best.map(|b| entry.seq < b).unwrap_or(true)
            {
                best = Some(entry.seq);
            }
        });
        best
    }

    /// Sequence number of the youngest entry, if any.
    pub(crate) fn tail_seq(&self) -> Option<u64> {
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

    impl AgeQueue {
        /// The configured capacity, if bounded.
        fn capacity(&self) -> Option<usize> {
            self.capacity
        }
    }

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
        assert_eq!(hit.data_ready_at, 20);
        // Load at seq 6 forwards from store 5.
        let hit = sq.find_forwarding_store(6, &acc(0x104, 4)).unwrap();
        assert_eq!(hit.store_seq, 5);
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
        assert_eq!(q.iter().next().map(|e| e.seq), Some(2));
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
