//! Property-based tests of the ELSQ core data structures.

use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::OnceLock;

use elsq_core::config::ErtKind;
use elsq_core::epoch::EpochLimits;
use elsq_core::ert::{EpochMask, Ert};
use elsq_core::ll::LlLsq;
use elsq_core::queue::{AgeQueue, MemEntry, MemOpKind};
use elsq_core::sqm::{MirrorEntry, MirrorHit, StoreQueueMirror};
use elsq_core::ssbf::StoreSequenceBloomFilter;
use elsq_isa::MemAccess;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Multiplier of the Fibonacci hash that picks a 64-byte line's chain head
/// in the queue index (`crates/core/src/queue.rs`).
const LINE_HASH: u64 = 0x9e37_79b9_7f4a_7c15;

/// Bases of four address regions far apart whose lines share chain heads:
/// the hash of each base line is below 2^48, so line `k` of every region
/// meets line `k` of region 0 on one chain at every head count up to 2^16,
/// and every chain a search walks mixes lines.
fn regions() -> &'static [u64; 4] {
    static REGIONS: OnceLock<[u64; 4]> = OnceLock::new();
    REGIONS.get_or_init(|| {
        let mut bases = [0u64; 4];
        let mut line = 0u64;
        for base in bases.iter_mut().skip(1) {
            line += 1 << 20;
            while line.wrapping_mul(LINE_HASH) >> 48 != 0 {
                line += 1;
            }
            *base = line << 6;
        }
        bases
    })
}

/// Access sizes the generators draw from.
const SIZES: [u8; 4] = [1, 2, 4, 8];

/// An access drawn from `raw` in `0..640`: one of [`regions`], plus an
/// offset in `0..160` that spans three 64-byte lines, so unaligned sizes
/// straddle the boundaries at 64 and 128.
fn region_access(raw: u64, size_idx: u8) -> MemAccess {
    MemAccess::new(
        regions()[(raw / 160) as usize % 4] + raw % 160,
        SIZES[size_idx as usize % SIZES.len()],
    )
}

/// The pre-optimization `AgeQueue`: a plain seq-sorted vector with linear
/// scans, kept verbatim as the reference model the indexed implementation
/// must match query-for-query.
#[derive(Debug, Default)]
struct LinearRefQueue {
    entries: Vec<MemEntry>,
    capacity: Option<usize>,
}

impl LinearRefQueue {
    /// Allocates `seq` unless the queue is at capacity; returns whether it
    /// did.
    fn allocate(&mut self, seq: u64) -> bool {
        if self.capacity.is_some_and(|c| self.entries.len() >= c) {
            return false;
        }
        self.entries.push(MemEntry::pending(seq));
        true
    }

    fn get(&self, seq: u64) -> Option<&MemEntry> {
        let at = self.entries.binary_search_by_key(&seq, |e| e.seq).ok()?;
        Some(&self.entries[at])
    }

    fn set_address(&mut self, seq: u64, addr: MemAccess) -> bool {
        match self.entries.iter_mut().find(|e| e.seq == seq) {
            Some(e) => {
                e.addr = Some(addr);
                true
            }
            None => false,
        }
    }

    fn set_issued(&mut self, seq: u64, cycle: u64) -> bool {
        match self.entries.iter_mut().find(|e| e.seq == seq) {
            Some(e) => {
                e.issued = true;
                e.ready_at = cycle;
                true
            }
            None => false,
        }
    }

    fn commit_head(&mut self, seq: u64) -> Option<MemEntry> {
        if self.entries.first().map(|e| e.seq) == Some(seq) {
            Some(self.entries.remove(0))
        } else {
            None
        }
    }

    fn remove(&mut self, seq: u64) -> Option<MemEntry> {
        let pos = self.entries.iter().position(|e| e.seq == seq)?;
        Some(self.entries.remove(pos))
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    fn find_forwarding_store(&self, load_seq: u64, access: &MemAccess) -> Option<u64> {
        self.entries
            .iter()
            .rev()
            .filter(|e| e.seq < load_seq)
            .find(|e| e.overlaps(access))
            .map(|e| e.seq)
    }

    fn find_violating_load(&self, store_seq: u64, access: &MemAccess) -> Option<u64> {
        self.entries
            .iter()
            .filter(|e| e.seq > store_seq && e.issued)
            .find(|e| e.overlaps(access))
            .map(|e| e.seq)
    }

    fn has_older_unknown_address(&self, load_seq: u64) -> bool {
        self.entries
            .iter()
            .any(|e| e.seq < load_seq && e.addr.is_none())
    }

    fn has_unknown_address_between(&self, after_seq: u64, before_seq: u64) -> bool {
        self.entries
            .iter()
            .any(|e| e.seq > after_seq && e.seq < before_seq && e.addr.is_none())
    }
}

/// Checks the indexed queue against the reference: payloads in program
/// order, the unknown-address count, a point lookup of every live seq and
/// of every seq in `lookups` (a removed entry left on its sequence chain
/// would still be found), and both searches and both unknown-address
/// predicates for `probe` from seqs below, inside and above the live range.
fn check_queue(
    indexed: &AgeQueue,
    reference: &LinearRefQueue,
    lookups: RangeInclusive<u64>,
    next_seq: u64,
    probe: &MemAccess,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(indexed.len(), reference.entries.len());
    prop_assert!(indexed.iter().eq(reference.entries.iter()));
    prop_assert_eq!(
        indexed.unknown_address_count(),
        reference
            .entries
            .iter()
            .filter(|e| e.addr.is_none())
            .count()
    );
    for entry in &reference.entries {
        prop_assert_eq!(indexed.get(entry.seq), Some(entry));
    }
    for seq in lookups {
        prop_assert_eq!(indexed.get(seq), reference.get(seq));
    }
    for probe_seq in [0, next_seq / 2, next_seq + 1] {
        prop_assert_eq!(
            indexed
                .find_forwarding_store(probe_seq, probe)
                .map(|h| h.store_seq),
            reference.find_forwarding_store(probe_seq, probe)
        );
        prop_assert_eq!(
            indexed.find_violating_load(probe_seq, probe),
            reference.find_violating_load(probe_seq, probe)
        );
        prop_assert_eq!(
            indexed.has_older_unknown_address(probe_seq),
            reference.has_older_unknown_address(probe_seq)
        );
        for probe_hi in [probe_seq, next_seq] {
            prop_assert_eq!(
                indexed.has_unknown_address_between(probe_seq / 2, probe_hi),
                reference.has_unknown_address_between(probe_seq / 2, probe_hi)
            );
        }
    }
    Ok(())
}

/// The Store Queue Mirror as a seq-sorted vector searched linearly.
#[derive(Debug, Default)]
struct LinearRefMirror {
    entries: Vec<MirrorEntry>,
}

impl LinearRefMirror {
    fn upsert(&mut self, entry: MirrorEntry) {
        match self.entries.binary_search_by_key(&entry.seq, |e| e.seq) {
            Ok(at) => self.entries[at] = entry,
            Err(at) => self.entries.insert(at, entry),
        }
    }

    fn set_data_ready(&mut self, seq: u64, cycle: u64) -> bool {
        match self.entries.iter_mut().find(|e| e.seq == seq) {
            Some(e) => {
                e.data_ready = true;
                e.ready_at = cycle;
                true
            }
            None => false,
        }
    }

    fn remove_where(&mut self, predicate: impl Fn(&MirrorEntry) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !predicate(e));
        before - self.entries.len()
    }

    fn search(&self, load_seq: u64, access: &MemAccess) -> Option<MirrorHit> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.seq < load_seq && e.addr.overlaps(access))
            .map(|&entry| MirrorHit {
                entry,
                full_cover: access.covered_by(&entry.addr),
            })
    }
}

/// The ERT with the column clear it had before per-bank `touched` lists:
/// the same masks, and a clear that scans every entry.
enum FullScanErt {
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

impl FullScanErt {
    fn new(kind: ErtKind, line_bytes: u64) -> Self {
        match kind {
            ErtKind::Hash { bits } => FullScanErt::Hash {
                bits,
                loads: vec![EpochMask::empty(); 1 << bits],
                stores: vec![EpochMask::empty(); 1 << bits],
            },
            ErtKind::Line => FullScanErt::Line {
                line_bytes,
                entries: HashMap::new(),
            },
        }
    }

    /// The load and store masks at `addr`'s entry.
    fn masks(&mut self, addr: u64) -> (&mut EpochMask, &mut EpochMask) {
        match self {
            FullScanErt::Hash {
                bits,
                loads,
                stores,
            } => {
                let idx = (addr & ((1 << *bits) - 1)) as usize;
                (&mut loads[idx], &mut stores[idx])
            }
            FullScanErt::Line {
                line_bytes,
                entries,
            } => {
                let (loads, stores) = entries.entry(addr & !(*line_bytes - 1)).or_default();
                (loads, stores)
            }
        }
    }

    fn query(&self, addr: u64) -> (EpochMask, EpochMask) {
        match self {
            FullScanErt::Hash {
                bits,
                loads,
                stores,
            } => {
                let idx = (addr & ((1 << *bits) - 1)) as usize;
                (loads[idx], stores[idx])
            }
            FullScanErt::Line {
                line_bytes,
                entries,
            } => entries
                .get(&(addr & !(*line_bytes - 1)))
                .copied()
                .unwrap_or_default(),
        }
    }

    fn clear_epoch(&mut self, bank: usize) {
        match self {
            FullScanErt::Hash { loads, stores, .. } => {
                for m in loads.iter_mut().chain(stores.iter_mut()) {
                    m.clear(bank);
                }
            }
            FullScanErt::Line { entries, .. } => {
                entries.retain(|_, (l, s)| {
                    l.clear(bank);
                    s.clear(bank);
                    !(l.is_empty() && s.is_empty())
                });
            }
        }
    }

    fn occupied_entries(&self) -> usize {
        match self {
            FullScanErt::Hash { loads, stores, .. } => loads
                .iter()
                .zip(stores)
                .filter(|(l, s)| !l.is_empty() || !s.is_empty())
                .count(),
            FullScanErt::Line { entries, .. } => entries.len(),
        }
    }
}

proptest! {
    /// Forwarding always returns the *youngest* store that is older than the
    /// load and overlaps it, regardless of how addresses are laid out.
    #[test]
    fn forwarding_returns_youngest_older_store(
        addrs in prop::collection::vec(0u64..256, 1..40),
        load_pos in 1usize..40,
        load_addr in 0u64..256,
    ) {
        let mut sq = AgeQueue::unbounded();
        for (i, addr) in addrs.iter().enumerate() {
            let seq = i as u64 + 1;
            sq.allocate(seq).unwrap();
            sq.set_address(seq, MemAccess::new(*addr * 8, 8));
        }
        let load_seq = (load_pos.min(addrs.len()) as u64) + 1;
        let access = MemAccess::new(load_addr * 8, 8);
        let hit = sq.find_forwarding_store(load_seq, &access);
        // Reference model: scan backwards.
        let expected = (0..addrs.len())
            .map(|i| (i as u64 + 1, addrs[i] * 8))
            .filter(|(seq, a)| *seq < load_seq && *a == load_addr * 8)
            .map(|(seq, _)| seq)
            .max();
        prop_assert_eq!(hit.map(|h| h.store_seq), expected);
    }

    /// The ERT never produces false negatives: any (address, bank) that was
    /// inserted and not cleared is always reported.
    #[test]
    fn ert_has_no_false_negatives(
        bits in 4u32..12,
        inserts in prop::collection::vec((0u64..4096, 0usize..16), 1..50),
        cleared_bank in 0usize..16,
    ) {
        for kind in [ErtKind::Hash { bits }, ErtKind::Line] {
            let mut ert = Ert::new(kind, 16, 32);
            for (addr, bank) in &inserts {
                ert.set_store(*addr, *bank);
            }
            ert.clear_epoch(cleared_bank);
            for (addr, bank) in &inserts {
                if *bank != cleared_bank {
                    prop_assert!(
                        ert.query_stores(*addr).contains(*bank),
                        "false negative for addr {addr:#x} bank {bank} with {kind:?}"
                    );
                }
            }
        }
    }

    /// The SSBF is conservative: after recording a store, any load to the
    /// same address with an older safe SSN must re-execute.
    #[test]
    fn ssbf_is_conservative(
        bits in 4u32..14,
        stores in prop::collection::vec((0u64..100_000, 1u64..1_000_000), 1..50),
    ) {
        let mut f = StoreSequenceBloomFilter::new(bits);
        for (addr, ssn) in &stores {
            f.record_store_commit(*addr, *ssn);
        }
        for (addr, ssn) in &stores {
            prop_assert!(f.must_reexecute(*addr, ssn.saturating_sub(1)));
        }
    }

    /// The indexed `AgeQueue` (slab + sequence and line chains +
    /// unknown-address deque) answers every query identically to the naive
    /// linear-scan reference model over random interleavings of allocate /
    /// set_address / set_issued / remove / commit_head / clear, on a
    /// bounded queue of drawn capacity and on an unbounded one. Addresses
    /// come from regions far apart, so chains mix lines; unaligned accesses
    /// straddle the 64-byte index-line boundary; and the up-front fill can
    /// take the unbounded queue past 128 live entries, which re-threads its
    /// index twice (at 32 and at 128), unknown addresses included, so a
    /// clear can follow a re-thread. A clear empties the chains by their
    /// heads: an entry left on a line chain would turn up in a later search
    /// once its slot is freed or reused.
    #[test]
    fn indexed_age_queue_matches_linear_reference(
        fill in prop::collection::vec((0u64..640, 0u8..4), 0..160),
        ops in prop::collection::vec((0u8..8, 0u64..64, 0u64..640, 0u8..4), 1..160),
        capacity in 1usize..48,
        probe in (0u64..640, 0u8..4),
    ) {
        let probe = region_access(probe.0, probe.1);
        for bounded in [true, false] {
            let (mut indexed, capacity) = if bounded {
                (AgeQueue::bounded(capacity), Some(capacity))
            } else {
                (AgeQueue::unbounded(), None)
            };
            let mut reference = LinearRefQueue { entries: Vec::new(), capacity };
            let mut next_seq = 1u64;
            for (raw, size_idx) in &fill {
                let seq = next_seq;
                let allocated = reference.allocate(seq);
                prop_assert_eq!(indexed.allocate(seq).is_ok(), allocated);
                if allocated && raw % 4 != 0 {
                    let access = region_access(*raw, *size_idx);
                    prop_assert!(indexed.set_address(seq, access));
                    reference.set_address(seq, access);
                }
                next_seq += 1 + raw % 3; // leave seq gaps
                check_queue(&indexed, &reference, seq..=seq, next_seq, &probe)?;
            }
            for (op, pick_raw, addr, size_idx) in &ops {
                let access = region_access(*addr, *size_idx);
                // Mostly pick a live seq; sometimes probe a missing one.
                let pick = if reference.entries.is_empty() || pick_raw % 5 == 0 {
                    *pick_raw
                } else {
                    reference.entries[(*pick_raw as usize) % reference.entries.len()].seq
                };
                match op % 8 {
                    0..=2 => {
                        let allocated = reference.allocate(next_seq);
                        prop_assert_eq!(indexed.allocate(next_seq).is_ok(), allocated);
                        next_seq += 1 + pick_raw % 3;
                    }
                    3 => {
                        prop_assert_eq!(
                            indexed.set_address(pick, access),
                            reference.set_address(pick, access)
                        );
                    }
                    4 => {
                        prop_assert_eq!(
                            indexed.set_issued(pick, *addr),
                            reference.set_issued(pick, *addr)
                        );
                    }
                    5 => {
                        prop_assert_eq!(indexed.remove(pick), reference.remove(pick));
                    }
                    6 => {
                        prop_assert_eq!(indexed.commit_head(pick), reference.commit_head(pick));
                    }
                    _ => {
                        indexed.clear();
                        reference.clear();
                    }
                }
                // Look up every seq this op could have removed.
                let removed = if op % 8 == 7 { 0..=next_seq } else { pick..=pick };
                check_queue(&indexed, &reference, removed, next_seq, &access)?;
                check_queue(&indexed, &reference, 0..=0, next_seq, &probe)?;
            }
        }
    }

    /// The Store Queue Mirror matches a seq-sorted linear reference over
    /// random interleavings of upsert (new stores in random seq order, and
    /// re-upserts that move a store to another line, straddling ones among
    /// them), set_data_ready, drop_bank and squash_from: `iter()` in
    /// program order after every op, and the forwarding search from
    /// several seqs. The fill mirrors at least 40 stores at once, past the
    /// 32 at which the index re-threads.
    #[test]
    fn sqm_matches_reference_store_queue(
        fill in prop::collection::vec((0u64..1000, 0u64..640, 0u8..32), 40..90),
        ops in prop::collection::vec((0u8..8, 0u64..400, 0u64..640, 0u8..32), 1..120),
        probe in (0u64..420, 0u64..640, 0u8..4),
    ) {
        let mut sqm = StoreQueueMirror::new();
        let mut reference = LinearRefMirror::default();
        let probe_access = region_access(probe.1, probe.2);
        // Distinct seqs `1 + 3 * i`, upserted in the order of the drawn keys.
        let mut order: Vec<(u64, usize)> = fill.iter().enumerate().map(|(i, f)| (f.0, i)).collect();
        order.sort_unstable();
        for (_, i) in order {
            let (_, raw, size_bank) = fill[i];
            let entry = MirrorEntry {
                seq: 1 + 3 * i as u64,
                addr: region_access(raw, size_bank % 4),
                bank: usize::from(size_bank / 4),
                data_ready: raw % 3 == 0,
                ready_at: raw,
            };
            sqm.upsert(entry.seq, entry.addr, entry.bank, entry.data_ready, entry.ready_at);
            reference.upsert(entry);
            prop_assert!(sqm.iter().eq(reference.entries.iter()));
        }
        prop_assert!(sqm.len() >= 40);
        for (op, raw_seq, raw, size_bank) in &ops {
            // Mostly pick a live seq; sometimes a missing one.
            let pick = if reference.entries.is_empty() || raw_seq % 4 == 0 {
                *raw_seq
            } else {
                reference.entries[*raw_seq as usize % reference.entries.len()].seq
            };
            let bank = usize::from(size_bank / 4);
            let mut access = region_access(*raw, size_bank % 4);
            match op % 8 {
                0..=2 => {
                    if op % 8 == 2 {
                        // Move (or insert) the store onto a straddling access.
                        access = MemAccess::new(
                            regions()[(*raw % 4) as usize] + 64 * (1 + raw % 2) - 4 + raw % 3,
                            8,
                        );
                    }
                    let entry = MirrorEntry {
                        seq: pick,
                        addr: access,
                        bank,
                        data_ready: raw % 3 == 0,
                        ready_at: *raw,
                    };
                    sqm.upsert(entry.seq, entry.addr, entry.bank, entry.data_ready, entry.ready_at);
                    reference.upsert(entry);
                }
                3 | 4 => {
                    prop_assert_eq!(
                        sqm.set_data_ready(pick, *raw),
                        reference.set_data_ready(pick, *raw)
                    );
                }
                5 | 6 => {
                    prop_assert_eq!(
                        sqm.drop_bank(bank),
                        reference.remove_where(|e| e.bank == bank)
                    );
                }
                _ => {
                    prop_assert_eq!(
                        sqm.squash_from(pick),
                        reference.remove_where(|e| e.seq >= pick)
                    );
                }
            }
            prop_assert_eq!(sqm.len(), reference.entries.len());
            prop_assert_eq!(sqm.is_empty(), reference.entries.is_empty());
            prop_assert!(sqm.iter().eq(reference.entries.iter()));
            for load_seq in [0, pick, pick + 1, probe.0, 1000] {
                for a in [&access, &probe_access] {
                    prop_assert_eq!(sqm.search(load_seq, a), reference.search(load_seq, a));
                }
            }
        }
    }

    /// Clearing an epoch through the ERT's `touched` lists leaves the same
    /// table as scanning the whole column, on both kinds, over random
    /// interleavings of set_load, set_store and clear_epoch: every query of
    /// every address used and of random probes agrees after every op, and
    /// so does `occupied_entries()`.
    #[test]
    fn ert_clear_matches_a_full_column_clear(
        bits in 4u32..12,
        ops in prop::collection::vec((0u8..5, 0u64..4096, 0usize..8), 1..200),
        probes in prop::collection::vec(0u64..65_536, 1..16),
    ) {
        for kind in [ErtKind::Hash { bits }, ErtKind::Line] {
            let mut ert = Ert::new(kind, 8, 32);
            let mut reference = FullScanErt::new(kind, 32);
            let mut used = probes.clone();
            for (op, addr, bank) in &ops {
                match op {
                    0 | 1 => {
                        ert.set_load(*addr, *bank);
                        reference.masks(*addr).0.set(*bank);
                    }
                    2 | 3 => {
                        ert.set_store(*addr, *bank);
                        reference.masks(*addr).1.set(*bank);
                    }
                    _ => {
                        ert.clear_epoch(*bank);
                        reference.clear_epoch(*bank);
                    }
                }
                used.push(*addr);
                for &a in &used {
                    prop_assert_eq!(
                        (ert.query_loads(a), ert.query_stores(a)),
                        reference.query(a),
                        "{:?} at {:#x}",
                        kind,
                        a
                    );
                }
                prop_assert_eq!(ert.occupied_entries(), reference.occupied_entries());
            }
        }
    }
}

/// Whether any live epoch of `ll` holds a store with an unknown address,
/// by walking the epochs: how `LlLsq::has_unresolved_stores` answered
/// before it kept a count.
fn any_epoch_has_unresolved_stores(ll: &LlLsq) -> bool {
    ll.iter_banks_young_to_old()
        .filter_map(|b| ll.epoch(b))
        .any(|e| e.unresolved_stores() > 0)
}

proptest! {
    /// `LlLsq::has_unresolved_stores` reads a count that every insert,
    /// resolution and retirement keeps; it must answer as the epoch walk
    /// does after any sequence of them, including inserts into
    /// full epochs, stores inserted with their address already known,
    /// resolutions of loads, of resolved stores and of absent entries.
    #[test]
    fn ll_unresolved_store_count_matches_an_epoch_walk(
        banks in 1usize..6,
        ops in prop::collection::vec((0u8..5, 0u64..1_000, 0u8..4), 1..120),
    ) {
        let mut ll = LlLsq::new(
            banks,
            EpochLimits {
                max_loads: 3,
                max_stores: 3,
            },
        );
        let mut seq = 0u64;
        for (op, pick, how) in ops {
            let live: Vec<usize> = ll.iter_banks_young_to_old().collect();
            let bank = (!live.is_empty()).then(|| live[pick as usize % live.len()]);
            match (op, bank) {
                (0, _) => {
                    let _ = ll.open_epoch();
                }
                (1 | 2, Some(bank)) => {
                    seq += 1;
                    let kind = if how < 3 { MemOpKind::Store } else { MemOpKind::Load };
                    let mut entry = MemEntry::pending(seq);
                    if how == 2 {
                        entry.addr = Some(MemAccess::new(pick * 8, 8));
                    }
                    let _ = ll.insert(bank, kind, entry);
                }
                (3, Some(bank)) => {
                    let epoch = ll.epoch(bank).unwrap();
                    let (kind, entries): (MemOpKind, Vec<u64>) = if how < 3 {
                        (MemOpKind::Store, epoch.stores().map(|e| e.seq).collect())
                    } else {
                        (MemOpKind::Load, epoch.loads().map(|e| e.seq).collect())
                    };
                    // One pick in four names a sequence number the epoch
                    // does not hold.
                    let target = match entries.len() {
                        0 => seq + 1,
                        n if pick % 4 == 0 => entries[n - 1] + 1_000,
                        n => entries[pick as usize % n],
                    };
                    let resolved = ll.set_address(bank, kind, target, MemAccess::new(pick * 8, 8));
                    prop_assert!(resolved.is_some());
                }
                (4, _) => {
                    if let Some(epoch) = ll.commit_oldest() {
                        ll.recycle(epoch);
                    }
                }
                _ => {}
            }
            prop_assert_eq!(
                ll.has_unresolved_stores(),
                any_epoch_has_unresolved_stores(&ll),
                "after op {} on bank {:?}",
                op,
                bank
            );
        }
    }
}

#[test]
fn mem_op_kind_display_is_stable() {
    assert_eq!(MemOpKind::Load.to_string(), "load");
    assert_eq!(MemOpKind::Store.to_string(), "store");
}
