//! Event counters shared between LSQ and processor models.
//!
//! Two counter groups exist:
//!
//! * [`LsqAccessCounters`] — the per-structure access counts that make up
//!   Table 2 of the paper (HL-LQ, HL-SQ, LL-LQ, LL-SQ, ERT, SSBF, network
//!   round-trips, cache accesses) plus auxiliary events used by other
//!   figures (false-positive remote searches for Figure 8a, load
//!   re-executions for Figure 10, line-locking activity for Section 6).
//! * [`SimCounters`] — whole-simulation counters (cycles, commits, squashes,
//!   low-locality activity) that IPC, Figure 1 and Figure 11 are derived
//!   from.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Scale factor applied when reporting counts "per 100 million committed
/// instructions", the unit used throughout the paper.
pub const PER_100M: u64 = 100_000_000;

/// Access counts for every LSQ-related structure (Table 2 columns).
///
/// All fields are raw event counts for the simulated interval; use
/// [`LsqAccessCounters::scaled_per_100m`] to convert them to the paper's
/// normalization.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LsqAccessCounters {
    /// Associative searches of the high-locality Load Queue (by stores
    /// checking for ordering violations).
    pub hl_lq_searches: u64,
    /// Associative searches of the high-locality Store Queue (by loads
    /// looking for forwarding).
    pub hl_sq_searches: u64,
    /// Associative searches of low-locality (epoch) Load Queues.
    pub ll_lq_searches: u64,
    /// Associative searches of low-locality (epoch) Store Queues.
    pub ll_sq_searches: u64,
    /// Epoch Resolution Table lookups (either line-based or hash-based).
    pub ert_lookups: u64,
    /// Store Sequence Bloom Filter lookups (SVW re-execution models only).
    pub ssbf_lookups: u64,
    /// Store Queue Mirror lookups (when the SQM is implemented).
    pub sqm_lookups: u64,
    /// CP <-> MP network round-trips caused by remote searches or remote
    /// forwarding.
    pub roundtrips: u64,
    /// Data-cache accesses (loads, store commits and re-executions).
    pub cache_accesses: u64,
    /// Remote epoch searches triggered by the ERT that found no matching
    /// store/load (false positives, Figure 8a).
    pub ert_false_positives: u64,
    /// Remote epoch searches triggered by the ERT that did find a match.
    pub ert_true_positives: u64,
    /// Store-to-load forwardings satisfied within the local epoch (local
    /// disambiguation hit).
    pub local_forwards: u64,
    /// Store-to-load forwardings satisfied from a remote epoch or from the
    /// HL-SQ across levels (global disambiguation).
    pub global_forwards: u64,
    /// Store-load ordering violations detected (each squashes the window
    /// from the violating load).
    pub order_violations: u64,
    /// Loads re-executed at commit (SVW models, Figure 10).
    pub load_reexecutions: u64,
    /// L1 lines locked on behalf of the line-based ERT (Section 6).
    pub lines_locked: u64,
    /// Squashes caused by failure to lock a cache line (line-based ERT,
    /// Section 3.4).
    pub lock_conflict_squashes: u64,
    /// Insertions stalled because a line could not be locked (line-based ERT).
    pub lock_conflict_stalls: u64,
    /// Migration stalls caused by restricted SAC/LAC disambiguation.
    pub restricted_stalls: u64,
}

impl LsqAccessCounters {
    /// Returns a copy of the counters linearly rescaled as if `committed`
    /// instructions were 100 million, i.e. the paper's "per 100M" unit.
    ///
    /// # Panics
    ///
    /// Panics if `committed` is zero.
    pub fn scaled_per_100m(&self, committed: u64) -> LsqAccessCounters {
        assert!(
            committed > 0,
            "cannot scale counters for zero committed instructions"
        );
        let scale = |v: u64| -> u64 { ((v as u128 * PER_100M as u128) / committed as u128) as u64 };
        LsqAccessCounters {
            hl_lq_searches: scale(self.hl_lq_searches),
            hl_sq_searches: scale(self.hl_sq_searches),
            ll_lq_searches: scale(self.ll_lq_searches),
            ll_sq_searches: scale(self.ll_sq_searches),
            ert_lookups: scale(self.ert_lookups),
            ssbf_lookups: scale(self.ssbf_lookups),
            sqm_lookups: scale(self.sqm_lookups),
            roundtrips: scale(self.roundtrips),
            cache_accesses: scale(self.cache_accesses),
            ert_false_positives: scale(self.ert_false_positives),
            ert_true_positives: scale(self.ert_true_positives),
            local_forwards: scale(self.local_forwards),
            global_forwards: scale(self.global_forwards),
            order_violations: scale(self.order_violations),
            load_reexecutions: scale(self.load_reexecutions),
            lines_locked: scale(self.lines_locked),
            lock_conflict_squashes: scale(self.lock_conflict_squashes),
            lock_conflict_stalls: scale(self.lock_conflict_stalls),
            restricted_stalls: scale(self.restricted_stalls),
        }
    }

    /// Total number of associative LSQ searches across both levels.
    pub fn total_lsq_searches(&self) -> u64 {
        self.hl_lq_searches + self.hl_sq_searches + self.ll_lq_searches + self.ll_sq_searches
    }
}

impl Add for LsqAccessCounters {
    type Output = LsqAccessCounters;
    fn add(mut self, rhs: LsqAccessCounters) -> LsqAccessCounters {
        self += rhs;
        self
    }
}

impl AddAssign for LsqAccessCounters {
    fn add_assign(&mut self, rhs: LsqAccessCounters) {
        self.hl_lq_searches += rhs.hl_lq_searches;
        self.hl_sq_searches += rhs.hl_sq_searches;
        self.ll_lq_searches += rhs.ll_lq_searches;
        self.ll_sq_searches += rhs.ll_sq_searches;
        self.ert_lookups += rhs.ert_lookups;
        self.ssbf_lookups += rhs.ssbf_lookups;
        self.sqm_lookups += rhs.sqm_lookups;
        self.roundtrips += rhs.roundtrips;
        self.cache_accesses += rhs.cache_accesses;
        self.ert_false_positives += rhs.ert_false_positives;
        self.ert_true_positives += rhs.ert_true_positives;
        self.local_forwards += rhs.local_forwards;
        self.global_forwards += rhs.global_forwards;
        self.order_violations += rhs.order_violations;
        self.load_reexecutions += rhs.load_reexecutions;
        self.lines_locked += rhs.lines_locked;
        self.lock_conflict_squashes += rhs.lock_conflict_squashes;
        self.lock_conflict_stalls += rhs.lock_conflict_stalls;
        self.restricted_stalls += rhs.restricted_stalls;
    }
}

/// Whole-simulation counters collected by the processor models.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimCounters {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Committed (correct-path) instructions.
    pub committed: u64,
    /// Committed loads.
    pub committed_loads: u64,
    /// Committed stores.
    pub committed_stores: u64,
    /// Fetched instructions including wrong-path.
    pub fetched: u64,
    /// Wrong-path instructions fetched and later squashed.
    pub wrong_path_fetched: u64,
    /// Instructions squashed for any reason (mispredict, violation, lock
    /// conflict, exception recovery).
    pub squashed: u64,
    /// Branch mispredictions resolved.
    pub branch_mispredicts: u64,
    /// Cycles in which the Memory Processor (LL-LSQ and ERT) was completely
    /// idle and could be power gated (Figure 11).
    pub ll_idle_cycles: u64,
    /// Cycles in which at least one epoch / memory engine was active.
    pub ll_active_cycles: u64,
    /// Sum over committed memory instructions of the decode-to-address
    /// calculation distance in cycles (Figure 1 average).
    pub addr_calc_distance_sum: u64,
    /// Number of epochs allocated over the run (for average epoch occupancy).
    pub epochs_allocated: u64,
}

impl SimCounters {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles in which the low-locality machinery was idle
    /// (Figure 11's "LL-LSQ inactivity cycles").
    pub fn ll_idle_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ll_idle_cycles as f64 / self.cycles as f64
        }
    }
}

impl AddAssign for SimCounters {
    fn add_assign(&mut self, rhs: SimCounters) {
        self.cycles += rhs.cycles;
        self.committed += rhs.committed;
        self.committed_loads += rhs.committed_loads;
        self.committed_stores += rhs.committed_stores;
        self.fetched += rhs.fetched;
        self.wrong_path_fetched += rhs.wrong_path_fetched;
        self.squashed += rhs.squashed;
        self.branch_mispredicts += rhs.branch_mispredicts;
        self.ll_idle_cycles += rhs.ll_idle_cycles;
        self.ll_active_cycles += rhs.ll_active_cycles;
        self.addr_calc_distance_sum += rhs.addr_calc_distance_sum;
        self.epochs_allocated += rhs.epochs_allocated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_to_100m_is_linear() {
        let c = LsqAccessCounters {
            hl_sq_searches: 500,
            ert_lookups: 250,
            ..LsqAccessCounters::default()
        };
        let s = c.scaled_per_100m(1_000_000);
        assert_eq!(s.hl_sq_searches, 50_000);
        assert_eq!(s.ert_lookups, 25_000);
    }

    #[test]
    #[should_panic(expected = "zero committed")]
    fn scaling_zero_commits_panics() {
        LsqAccessCounters::default().scaled_per_100m(0);
    }

    #[test]
    fn counters_add() {
        let a = LsqAccessCounters {
            roundtrips: 3,
            local_forwards: 2,
            ..LsqAccessCounters::default()
        };
        let b = LsqAccessCounters {
            roundtrips: 4,
            global_forwards: 1,
            ..LsqAccessCounters::default()
        };
        let c = a + b;
        assert_eq!(c.roundtrips, 7);
        assert_eq!(c.local_forwards, 2);
        assert_eq!(c.global_forwards, 1);
    }

    #[test]
    fn ipc_and_idle_fraction() {
        let mut s = SimCounters::default();
        assert_eq!(s.ipc(), 0.0);
        s.cycles = 1000;
        s.committed = 1500;
        s.ll_idle_cycles = 400;
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        assert!((s.ll_idle_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn sim_counters_accumulate() {
        let mut a = SimCounters {
            cycles: 10,
            committed: 20,
            ..SimCounters::default()
        };
        let b = SimCounters {
            cycles: 5,
            squashed: 7,
            ..SimCounters::default()
        };
        a += b;
        assert_eq!(a.cycles, 15);
        assert_eq!(a.committed, 20);
        assert_eq!(a.squashed, 7);
    }

    #[test]
    fn total_lsq_searches_sums_all_queues() {
        let c = LsqAccessCounters {
            hl_lq_searches: 1,
            hl_sq_searches: 2,
            ll_lq_searches: 3,
            ll_sq_searches: 4,
            ..Default::default()
        };
        assert_eq!(c.total_lsq_searches(), 10);
    }
}
