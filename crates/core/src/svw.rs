//! Load re-execution with Store Vulnerability Windows (SVW).
//!
//! This is the competing load-queue-removal technique the paper evaluates
//! (Sections 3.5 and 5.6). Stores never search a load queue; instead a load
//! re-executes at commit when it may have read a stale value. The SVW filter
//! keeps re-execution rare: each committed store records its sequence number
//! in the [`crate::ssbf::StoreSequenceBloomFilter`]; a committing load
//! compares the filter entry for its address against the store sequence
//! number it is *not vulnerable* to (the store it forwarded from, or the
//! youngest store already committed when the load issued).
//!
//! The optional **CheckStores** filter (the "no-unresolved-store filter" of
//! Cain & Lipasti) additionally skips re-execution of forwarded loads when no
//! store between the forwarding store and the load had an unknown address at
//! issue time.

use serde::{Deserialize, Serialize};

use crate::ssbf::StoreSequenceBloomFilter;

/// Everything the SVW needs to know about a load at commit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadVulnerability {
    /// Address the load read.
    pub addr: u64,
    /// The store sequence number the load is **not** vulnerable to: stores
    /// with this sequence number or older cannot invalidate the load.
    pub safe_ssn: u64,
    /// Whether the load obtained its value by forwarding from a store queue.
    pub forwarded: bool,
    /// Whether, at issue time, any store between the forwarding store and
    /// the load still had an unknown address.
    pub unknown_store_between: bool,
}

/// Statistics of the re-execution machinery.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SvwStats {
    /// Loads that consulted the filter at commit.
    pub loads_checked: u64,
    /// Loads that re-executed (accessed the cache again at commit).
    pub reexecutions: u64,
    /// Loads skipped by the CheckStores (no-unresolved-store) filter.
    pub checkstores_skips: u64,
}

/// The SVW re-execution policy: an SSBF plus the CheckStores option.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SvwReexecutor {
    ssbf: StoreSequenceBloomFilter,
    check_stores: bool,
    /// Sequence number of the youngest committed store.
    last_committed_store: u64,
    stats: SvwStats,
}

impl SvwReexecutor {
    /// Creates an SVW re-executor with an SSBF of `ssbf_bits` index bits.
    pub fn new(ssbf_bits: u32, check_stores: bool) -> Self {
        Self {
            ssbf: StoreSequenceBloomFilter::new(ssbf_bits),
            check_stores,
            last_committed_store: 0,
            stats: SvwStats::default(),
        }
    }

    /// Statistics.
    pub fn stats(&self) -> &SvwStats {
        &self.stats
    }

    /// Number of SSBF lookups performed so far.
    pub fn ssbf_lookups(&self) -> u64 {
        self.ssbf.lookups()
    }

    /// The store sequence number a load issuing *now* is safe against when it
    /// reads from the cache (i.e. the youngest already-committed store).
    pub fn current_safe_ssn(&self) -> u64 {
        self.last_committed_store
    }

    /// Records that store `seq` to `addr` committed and wrote the cache.
    pub fn on_store_commit(&mut self, seq: u64, addr: u64) {
        self.last_committed_store = self.last_committed_store.max(seq);
        self.ssbf.record_store_commit(addr, seq);
    }

    /// Decides whether a committing load must re-execute, updating the
    /// statistics.
    pub fn on_load_commit(&mut self, load: LoadVulnerability) -> bool {
        self.stats.loads_checked += 1;
        if self.check_stores && load.forwarded && !load.unknown_store_between {
            self.stats.checkstores_skips += 1;
            return false;
        }
        let reexec = self.ssbf.must_reexecute(load.addr, load.safe_ssn);
        if reexec {
            self.stats.reexecutions += 1;
        }
        reexec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vuln(addr: u64, safe: u64) -> LoadVulnerability {
        LoadVulnerability {
            addr,
            safe_ssn: safe,
            forwarded: false,
            unknown_store_between: false,
        }
    }

    #[test]
    fn load_safe_when_no_newer_store_committed() {
        let mut svw = SvwReexecutor::new(10, false);
        svw.on_store_commit(5, 0x100);
        assert_eq!(svw.current_safe_ssn(), 5);
        // Load issued after store 5 committed: safe_ssn = 5, no re-exec.
        assert!(!svw.on_load_commit(vuln(0x100, 5)));
        // Load that issued before store 5 committed is vulnerable.
        assert!(svw.on_load_commit(vuln(0x100, 2)));
        assert_eq!(svw.stats().reexecutions, 1);
        assert_eq!(svw.stats().loads_checked, 2);
    }

    #[test]
    fn aliasing_causes_false_reexecutions() {
        let mut svw = SvwReexecutor::new(4, false);
        svw.on_store_commit(9, 0x0_10);
        // A load to a *different* address that aliases in the 4-bit filter
        // still re-executes (false positive), which is safe but wasteful.
        assert!(svw.on_load_commit(vuln(0x1_10, 0)));
    }

    #[test]
    fn checkstores_skips_safe_forwarded_loads() {
        let mut with_filter = SvwReexecutor::new(10, true);
        let mut blind = SvwReexecutor::new(10, false);
        for f in [&mut with_filter, &mut blind] {
            f.on_store_commit(8, 0x40);
        }
        let forwarded = LoadVulnerability {
            addr: 0x40,
            safe_ssn: 3,
            forwarded: true,
            unknown_store_between: false,
        };
        assert!(!with_filter.on_load_commit(forwarded));
        assert_eq!(with_filter.stats().checkstores_skips, 1);
        // The blind variant re-executes the same load.
        assert!(blind.on_load_commit(forwarded));
    }

    #[test]
    fn checkstores_does_not_skip_when_unknown_store_in_between() {
        let mut svw = SvwReexecutor::new(10, true);
        svw.on_store_commit(8, 0x40);
        let risky = LoadVulnerability {
            addr: 0x40,
            safe_ssn: 3,
            forwarded: true,
            unknown_store_between: true,
        };
        assert!(svw.on_load_commit(risky));
        assert_eq!(svw.stats().checkstores_skips, 0);
    }

    #[test]
    fn lookup_counter_tracks_filter_accesses() {
        let mut svw = SvwReexecutor::new(8, true);
        svw.on_store_commit(1, 0x1);
        let _ = svw.on_load_commit(vuln(0x1, 0));
        // The CheckStores skip below does not touch the SSBF.
        let _ = svw.on_load_commit(LoadVulnerability {
            addr: 0x1,
            safe_ssn: 0,
            forwarded: true,
            unknown_store_between: false,
        });
        assert_eq!(svw.ssbf_lookups(), 1);
        assert!(svw.check_stores);
    }
}
