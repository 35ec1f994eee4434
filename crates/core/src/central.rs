//! Conventional central Load/Store Queues.
//!
//! Two baselines from the paper's evaluation live here:
//!
//! * the **finite CAM-based LSQ** of the conventional OoO-64 processor
//!   (Figure 7's 1.0× baseline and the left half of Figure 10), and
//! * the **idealized unlimited single-cycle central LSQ** that Figure 7
//!   compares the ELSQ against (placed in the Cache Processor; loads that
//!   execute in the Memory Processor pay the network round-trip, which the
//!   CPU model adds).
//!
//! The structure is a single pair of age-ordered associative queues; every
//! search is counted so the Table 2 access columns can be produced.

use serde::{Deserialize, Serialize};

use elsq_isa::MemAccess;
use elsq_stats::counters::LsqAccessCounters;

use crate::queue::{AgeQueue, LoadOutcome, MemOpKind, QueueFullError, StoreOutcome};

/// Configuration of a central LSQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CentralLsqConfig {
    /// Load queue entries; `None` = unlimited (idealized).
    pub lq_entries: Option<usize>,
    /// Store queue entries; `None` = unlimited (idealized).
    pub sq_entries: Option<usize>,
    /// Whether the load queue is associative (searched by stores). With SVW
    /// re-execution the load queue is non-associative and never searched.
    pub associative_lq: bool,
}

impl CentralLsqConfig {
    /// The conventional OoO-64 LSQ: 32 loads, 24 stores, associative.
    pub fn conventional() -> Self {
        Self {
            lq_entries: Some(32),
            sq_entries: Some(24),
            associative_lq: true,
        }
    }

    /// The idealized unlimited single-cycle central LSQ of Figure 7.
    pub fn unlimited() -> Self {
        Self {
            lq_entries: None,
            sq_entries: None,
            associative_lq: true,
        }
    }

    /// Conventional queue sizes but with a non-associative load queue (the
    /// OoO-64-SVW configuration).
    pub fn conventional_svw() -> Self {
        Self {
            associative_lq: false,
            ..Self::conventional()
        }
    }
}

/// Cycles one search of a central queue takes: both baselines search in a
/// single cycle.
const SEARCH_LATENCY: u32 = 1;

/// A conventional central load/store queue.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CentralLsq {
    config: CentralLsqConfig,
    lq: AgeQueue,
    sq: AgeQueue,
    counters: LsqAccessCounters,
}

impl CentralLsq {
    /// Creates a central LSQ.
    pub fn new(config: CentralLsqConfig) -> Self {
        let mk = |cap: Option<usize>| match cap {
            Some(c) => AgeQueue::bounded(c),
            None => AgeQueue::unbounded(),
        };
        Self {
            config,
            lq: mk(config.lq_entries),
            sq: mk(config.sq_entries),
            counters: LsqAccessCounters::default(),
        }
    }

    /// Access counters (searches of each queue).
    pub fn counters(&self) -> &LsqAccessCounters {
        &self.counters
    }

    /// Whether the queue for `kind` has room for another entry.
    pub fn has_room(&self, kind: MemOpKind) -> bool {
        match kind {
            MemOpKind::Load => !self.lq.is_full(),
            MemOpKind::Store => !self.sq.is_full(),
        }
    }

    /// Allocates an entry at decode.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] if the relevant queue is full.
    pub fn allocate(&mut self, kind: MemOpKind, seq: u64) -> Result<(), QueueFullError> {
        match kind {
            MemOpKind::Load => self.lq.allocate(seq),
            MemOpKind::Store => self.sq.allocate(seq),
        }
    }

    /// A load issues: record its address, search the store queue for
    /// forwarding, and report whether older unknown-address stores exist.
    /// The search takes one cycle.
    ///
    /// Counts one HL-SQ search (the central queues are reported in the HL
    /// columns of Table 2, matching the paper's OoO-64 rows).
    pub fn issue_load(&mut self, seq: u64, addr: MemAccess, cycle: u64) -> LoadOutcome {
        self.lq.set_address(seq, addr);
        self.lq.set_issued(seq, cycle);
        self.counters.hl_sq_searches += 1;
        let forward = self.sq.find_forwarding_store(seq, &addr);
        if forward.is_some() {
            self.counters.local_forwards += 1;
        }
        LoadOutcome {
            forward,
            extra_latency: SEARCH_LATENCY,
            lock_conflict: false,
            older_unknown_store: self.sq.has_older_unknown_address(seq),
        }
    }

    /// A store's address becomes known: record it and (if the load queue is
    /// associative) search for younger issued loads that violated ordering.
    /// The store pays the one-cycle search latency either way.
    pub fn store_address_ready(&mut self, seq: u64, addr: MemAccess, cycle: u64) -> StoreOutcome {
        self.sq.set_address(seq, addr);
        self.sq.set_issued(seq, cycle);
        let mut out = StoreOutcome {
            extra_latency: SEARCH_LATENCY,
            ..StoreOutcome::default()
        };
        if !self.config.associative_lq {
            return out;
        }
        self.counters.hl_lq_searches += 1;
        out.violation_load_seq = self.lq.find_violating_load(seq, &addr);
        if out.violation_load_seq.is_some() {
            self.counters.order_violations += 1;
        }
        out
    }

    /// Whether any store between `store_seq` and `load_seq` has an unknown
    /// address (SVW CheckStores support).
    pub fn has_unknown_store_between(&self, store_seq: u64, load_seq: u64) -> bool {
        self.sq.has_unknown_address_between(store_seq, load_seq)
    }

    /// Commits the oldest entry of `kind` if it is `seq`.
    pub fn commit(&mut self, kind: MemOpKind, seq: u64) -> bool {
        match kind {
            MemOpKind::Load => self.lq.commit_head(seq).is_some(),
            MemOpKind::Store => self.sq.commit_head(seq).is_some(),
        }
    }

    /// Squashes every entry with sequence number `>= from_seq`.
    pub fn squash_from(&mut self, from_seq: u64) -> usize {
        self.lq.squash_from(from_seq) + self.sq.squash_from(from_seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ForwardHit;

    impl CentralLsq {
        /// Current load/store occupancy.
        fn occupancy(&self) -> (usize, usize) {
            (self.lq.len(), self.sq.len())
        }
    }

    fn acc(a: u64) -> MemAccess {
        MemAccess::new(a, 8)
    }

    #[test]
    fn conventional_capacity_limits() {
        let mut lsq = CentralLsq::new(CentralLsqConfig::conventional());
        for i in 0..32 {
            lsq.allocate(MemOpKind::Load, i).unwrap();
        }
        assert!(!lsq.has_room(MemOpKind::Load));
        assert!(lsq.allocate(MemOpKind::Load, 99).is_err());
        assert!(lsq.has_room(MemOpKind::Store));
        assert_eq!(lsq.occupancy(), (32, 0));
    }

    #[test]
    fn unlimited_never_fills() {
        let mut lsq = CentralLsq::new(CentralLsqConfig::unlimited());
        for i in 0..10_000 {
            lsq.allocate(
                if i % 3 == 0 {
                    MemOpKind::Store
                } else {
                    MemOpKind::Load
                },
                i,
            )
            .unwrap();
        }
        assert!(lsq.has_room(MemOpKind::Load));
        assert!(lsq.has_room(MemOpKind::Store));
    }

    #[test]
    fn forwarding_and_counters() {
        let mut lsq = CentralLsq::new(CentralLsqConfig::conventional());
        lsq.allocate(MemOpKind::Store, 1).unwrap();
        lsq.allocate(MemOpKind::Load, 2).unwrap();
        assert!(lsq
            .store_address_ready(1, acc(0x80), 5)
            .violation_load_seq
            .is_none());
        let out = lsq.issue_load(2, acc(0x80), 6);
        assert_eq!(out.forward.unwrap().store_seq, 1);
        assert!(!out.older_unknown_store);
        assert_eq!(lsq.counters().hl_sq_searches, 1);
        assert_eq!(lsq.counters().hl_lq_searches, 1);
        assert_eq!(lsq.counters().local_forwards, 1);
    }

    #[test]
    fn forwards_flag_a_partial_cover_and_every_search_takes_one_cycle() {
        for config in [
            CentralLsqConfig::conventional(),
            CentralLsqConfig::unlimited(),
        ] {
            let mut lsq = CentralLsq::new(config);
            for (kind, seq) in [
                (MemOpKind::Store, 1),
                (MemOpKind::Load, 2),
                (MemOpKind::Load, 3),
            ] {
                lsq.allocate(kind, seq).unwrap();
            }
            let store = lsq.store_address_ready(1, acc(0x100), 5);
            assert_eq!(
                store,
                StoreOutcome {
                    violation_load_seq: None,
                    extra_latency: 1,
                    lock_conflict: false,
                }
            );
            // An 8-byte load at the store's address + 4 overlaps only half of
            // the store.
            let forward = ForwardHit {
                store_seq: 1,
                full_cover: false,
                data_ready_at: 5,
            };
            assert_eq!(
                lsq.issue_load(2, acc(0x104), 6),
                LoadOutcome {
                    forward: Some(forward),
                    extra_latency: 1,
                    lock_conflict: false,
                    older_unknown_store: false,
                }
            );
            let covered = lsq.issue_load(3, acc(0x100), 7);
            assert_eq!(
                covered.forward,
                Some(ForwardHit {
                    full_cover: true,
                    ..forward
                })
            );
            assert_eq!(covered.extra_latency, 1);
        }
    }

    #[test]
    fn violation_detection() {
        let mut lsq = CentralLsq::new(CentralLsqConfig::conventional());
        lsq.allocate(MemOpKind::Store, 1).unwrap();
        lsq.allocate(MemOpKind::Load, 2).unwrap();
        // Load issues first (store address unknown), then the store resolves
        // to the same address: ordering violation.
        let out = lsq.issue_load(2, acc(0x100), 3);
        assert!(out.forward.is_none());
        assert!(out.older_unknown_store);
        assert_eq!(
            lsq.store_address_ready(1, acc(0x100), 9).violation_load_seq,
            Some(2)
        );
        assert_eq!(lsq.counters().order_violations, 1);
    }

    #[test]
    fn non_associative_lq_skips_violation_search() {
        let mut lsq = CentralLsq::new(CentralLsqConfig::conventional_svw());
        lsq.allocate(MemOpKind::Store, 1).unwrap();
        lsq.allocate(MemOpKind::Load, 2).unwrap();
        lsq.issue_load(2, acc(0x100), 3);
        assert_eq!(
            lsq.store_address_ready(1, acc(0x100), 9).violation_load_seq,
            None
        );
        assert_eq!(lsq.counters().hl_lq_searches, 0);
    }

    #[test]
    fn commit_and_squash() {
        let mut lsq = CentralLsq::new(CentralLsqConfig::conventional());
        lsq.allocate(MemOpKind::Load, 1).unwrap();
        lsq.allocate(MemOpKind::Store, 2).unwrap();
        lsq.allocate(MemOpKind::Load, 3).unwrap();
        assert!(lsq.commit(MemOpKind::Load, 1));
        assert!(!lsq.commit(MemOpKind::Load, 1));
        assert_eq!(lsq.squash_from(2), 2);
        assert_eq!(lsq.occupancy(), (0, 0));
    }

    #[test]
    fn unknown_store_between_query() {
        let mut lsq = CentralLsq::new(CentralLsqConfig::conventional());
        lsq.allocate(MemOpKind::Store, 1).unwrap();
        lsq.allocate(MemOpKind::Store, 3).unwrap();
        lsq.allocate(MemOpKind::Load, 5).unwrap();
        lsq.store_address_ready(1, acc(0x10), 2);
        assert!(lsq.has_unknown_store_between(1, 5));
        lsq.store_address_ready(3, acc(0x20), 4);
        assert!(!lsq.has_unknown_store_between(1, 5));
    }
}
