//! Two-level cache hierarchy plus main memory latency model.
//!
//! The hierarchy answers the two questions the processor models ask about
//! every memory access:
//!
//! 1. *How long does it take?* — used for load completion times and for the
//!    store-commit path,
//! 2. *Which level serviced it?* — an access serviced by main memory (an L2
//!    miss) marks the consuming instruction chain as **low locality** and, in
//!    the FMC model, triggers migration to a Memory Engine.

use serde::{Deserialize, Serialize};

use crate::cache::{CacheConfig, SetAssocCache};

/// Which level of the hierarchy serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServiceLevel {
    /// Hit in the L1 data cache.
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed both caches; serviced by main memory.
    Memory,
}

/// Result of a hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessOutcome {
    /// Total latency in cycles, including every level traversed.
    pub latency: u32,
    /// Level that provided the data.
    pub level: ServiceLevel,
}

/// Configuration for the full hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 data cache geometry/latency.
    pub l1: CacheConfig,
    /// L2 cache geometry/latency.
    pub l2: CacheConfig,
    /// Main memory access time in cycles (Table 1: 400).
    pub memory_latency: u32,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            l1: CacheConfig::default_l1(),
            l2: CacheConfig::default_l2(),
            memory_latency: 400,
        }
    }
}

impl HierarchyConfig {
    /// Variant with a different L2 capacity in megabytes (Figure 11 sweep).
    pub fn with_l2_mb(mut self, mb: u64) -> Self {
        self.l2.size_bytes = mb * 1024 * 1024;
        self
    }

    /// Variant with a different L1 size (bytes) and associativity
    /// (Figure 8b/8c sweep).
    pub fn with_l1(mut self, size_bytes: u64, assoc: u32) -> Self {
        self.l1.size_bytes = size_bytes;
        self.l1.assoc = assoc;
        self
    }
}

/// A two-level data cache hierarchy backed by main memory.
///
/// Accesses are modeled as blocking lookups that fill lines on the way back
/// (write-allocate, LRU). MSHR-style miss merging is approximated by the
/// fill: once a line has been brought in, subsequent accesses hit.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    accesses: u64,
}

impl MemoryHierarchy {
    /// Creates a hierarchy with cold caches.
    ///
    /// # Panics
    ///
    /// Panics if either cache configuration is invalid.
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            config,
            l1: SetAssocCache::new(config.l1),
            l2: SetAssocCache::new(config.l2),
            accesses: 0,
        }
    }

    /// Performs an access, updating both cache levels, and returns the
    /// latency and servicing level.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.accesses += 1;
        let l1_latency = self.config.l1.latency;
        if self.l1.access(addr, is_write) {
            return AccessOutcome {
                latency: l1_latency,
                level: ServiceLevel::L1,
            };
        }
        let l2_latency = l1_latency + self.config.l2.latency;
        if self.l2.access(addr, is_write) {
            return AccessOutcome {
                latency: l2_latency,
                level: ServiceLevel::L2,
            };
        }
        AccessOutcome {
            latency: l2_latency + self.config.memory_latency,
            level: ServiceLevel::Memory,
        }
    }

    /// Non-destructive probe: would `addr` hit in L1 / L2 / memory?
    pub(crate) fn probe_level(&self, addr: u64) -> ServiceLevel {
        if self.l1.probe(addr) {
            ServiceLevel::L1
        } else if self.l2.probe(addr) {
            ServiceLevel::L2
        } else {
            ServiceLevel::Memory
        }
    }

    /// Latency an access to `addr` *would* have, without changing state.
    pub fn probe_latency(&self, addr: u64) -> u32 {
        match self.probe_level(addr) {
            ServiceLevel::L1 => self.config.l1.latency,
            ServiceLevel::L2 => self.config.l1.latency + self.config.l2.latency,
            ServiceLevel::Memory => {
                self.config.l1.latency + self.config.l2.latency + self.config.memory_latency
            }
        }
    }

    /// Mutable access to the L1 cache (the line-based ERT locks L1 lines).
    pub fn l1_mut(&mut self) -> &mut SetAssocCache {
        &mut self.l1
    }

    /// Total number of accesses made through the hierarchy.
    pub fn total_accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latencies_match_table1() {
        let cfg = HierarchyConfig::default();
        assert_eq!(cfg.l1.latency, 1);
        assert_eq!(cfg.l2.latency, 10);
        assert_eq!(cfg.memory_latency, 400);
    }

    #[test]
    fn cold_miss_then_l1_hit() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        let a = m.access(0x4000, false);
        assert_eq!(a.level, ServiceLevel::Memory);
        assert_eq!(a.latency, 1 + 10 + 400);
        let b = m.access(0x4000, false);
        assert_eq!(b.level, ServiceLevel::L1);
        assert_eq!(b.latency, 1);
        assert_eq!(m.total_accesses(), 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        // Tiny L1 (1 set x 1 way) forces immediate eviction; normal L2 keeps
        // both lines, so re-access is an L2 hit.
        let cfg = HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 32,
                assoc: 1,
                line_bytes: 32,
                latency: 1,
            },
            ..HierarchyConfig::default()
        };
        let mut m = MemoryHierarchy::new(cfg);
        m.access(0x0, false);
        m.access(0x1000, false); // evicts 0x0 from L1
        let again = m.access(0x0, false);
        assert_eq!(again.level, ServiceLevel::L2);
        assert_eq!(again.latency, 11);
    }

    #[test]
    fn probe_does_not_change_state() {
        let m = MemoryHierarchy::new(HierarchyConfig::default());
        assert_eq!(m.probe_level(0x1234), ServiceLevel::Memory);
        assert_eq!(m.probe_latency(0x1234), 411);
        assert_eq!(m.total_accesses(), 0);
    }

    #[test]
    fn config_sweep_helpers() {
        let cfg = HierarchyConfig::default()
            .with_l2_mb(8)
            .with_l1(64 * 1024, 8);
        assert_eq!(cfg.l2.size_bytes, 8 * 1024 * 1024);
        assert_eq!(cfg.l1.size_bytes, 64 * 1024);
        assert_eq!(cfg.l1.assoc, 8);
        // The resulting configs must stay valid.
        assert!(cfg.l1.validate().is_ok());
        assert!(cfg.l2.validate().is_ok());
    }
}
