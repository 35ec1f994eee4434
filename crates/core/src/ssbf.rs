//! Store Sequence Bloom Filter (SSBF) for Store Vulnerability Windows.
//!
//! The SSBF (Roth, ISCA 2005 — reference \[10\] of the paper) is a small RAM
//! indexed by a hash of the address. Each entry holds the *store sequence
//! number* (SSN) of the youngest committed store that wrote an address
//! mapping to that entry. A committing load compares the entry against the
//! SSN it is vulnerable to; if the filter value is newer, the load may have
//! read stale data and must re-execute. Aliasing only causes *extra*
//! re-executions (false positives), never missed ones, so correctness is
//! preserved by construction.

use serde::{Deserialize, Serialize};

/// The Store Sequence Bloom Filter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreSequenceBloomFilter {
    bits: u32,
    table: Vec<u64>,
    lookups: u64,
    updates: u64,
}

impl StoreSequenceBloomFilter {
    /// Creates an SSBF indexed by the low `bits` bits of the address.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 24.
    pub fn new(bits: u32) -> Self {
        assert!(
            bits > 0 && bits <= 24,
            "SSBF index width {bits} out of range"
        );
        Self {
            bits,
            table: vec![0; 1 << bits],
            lookups: 0,
            updates: 0,
        }
    }

    /// Number of index bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Storage in bytes, assuming 2-byte entries as in the paper's budget
    /// discussion (the stored SSN is truncated in hardware).
    pub fn storage_bytes(&self) -> usize {
        self.table.len() * 2
    }

    fn index(&self, addr: u64) -> usize {
        (addr & ((1u64 << self.bits) - 1)) as usize
    }

    /// Records that the store with sequence number `ssn` to `addr` committed.
    pub fn record_store_commit(&mut self, addr: u64, ssn: u64) {
        self.updates += 1;
        let idx = self.index(addr);
        if ssn > self.table[idx] {
            self.table[idx] = ssn;
        }
    }

    /// Returns the SSN stored for `addr` (0 when no store committed there).
    pub(crate) fn query(&mut self, addr: u64) -> u64 {
        self.lookups += 1;
        self.table[self.index(addr)]
    }

    /// Whether a load vulnerable to stores younger than `vulnerable_ssn`
    /// must re-execute: true when some store with a newer SSN committed to a
    /// (possibly aliasing) address.
    pub fn must_reexecute(&mut self, addr: u64, vulnerable_ssn: u64) -> bool {
        self.query(addr) > vulnerable_ssn
    }

    /// Number of lookups performed (for Table 2's SSBF column).
    pub(crate) fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Clears the filter (used between warm-up and measurement).
    pub fn clear(&mut self) {
        self.table.iter_mut().for_each(|e| *e = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_record_and_query() {
        let mut f = StoreSequenceBloomFilter::new(10);
        assert_eq!(f.table.len(), 1024);
        assert_eq!(f.storage_bytes(), 2048);
        assert_eq!(f.query(0x40), 0);
        f.record_store_commit(0x40, 17);
        assert_eq!(f.query(0x40), 17);
        // An older SSN never overwrites a newer one.
        f.record_store_commit(0x40, 5);
        assert_eq!(f.query(0x40), 17);
        assert_eq!(f.updates, 2);
        assert_eq!(f.lookups(), 3);
    }

    #[test]
    fn vulnerability_check() {
        let mut f = StoreSequenceBloomFilter::new(8);
        f.record_store_commit(0x123, 50);
        assert!(f.must_reexecute(0x123, 40));
        assert!(!f.must_reexecute(0x123, 50));
        assert!(!f.must_reexecute(0x123, 60));
        // Untouched address is never vulnerable.
        assert!(!f.must_reexecute(0x77, 0));
    }

    #[test]
    fn fewer_bits_cause_aliasing() {
        let mut narrow = StoreSequenceBloomFilter::new(4);
        let mut wide = StoreSequenceBloomFilter::new(16);
        narrow.record_store_commit(0x13, 9);
        wide.record_store_commit(0x13, 9);
        // 0x13 and 0x23 alias with 4 index bits but not with 16.
        assert!(narrow.must_reexecute(0x23, 0));
        assert!(!wide.must_reexecute(0x23, 0));
    }

    #[test]
    fn clear_resets_contents_but_not_counters() {
        let mut f = StoreSequenceBloomFilter::new(6);
        f.record_store_commit(0x3, 3);
        f.clear();
        assert_eq!(f.query(0x3), 0);
        assert_eq!(f.updates, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_bits_panics() {
        let _ = StoreSequenceBloomFilter::new(0);
    }
}
