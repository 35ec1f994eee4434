//! Analytical per-access energy model.
//!
//! Section 6 of the paper estimates dynamic power by multiplying structure
//! access counts by CACTI-4.2 per-read energies at 70 nm. The two absolute
//! numbers the paper quotes are:
//!
//! * 2 KB ERT SRAM read: **0.00195 nJ**
//! * 32 KB 4-way L1 data cache read: **0.0958 nJ**
//!
//! We reproduce the *relative* energy comparison with a small analytical
//! model: energy per access grows roughly linearly with capacity for SRAM
//! arrays and is further multiplied by a CAM penalty for fully-associative
//! searches (every entry's tag comparator fires) and by the port count. The
//! model is calibrated so the two quoted data points are matched exactly.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::counters::LsqAccessCounters;

/// ERT read energy quoted by the paper (nJ) for a 2 KB SRAM.
pub const ERT_2KB_READ_NJ: f64 = 0.001_95;
/// L1 cache read energy quoted by the paper (nJ) for a 32 KB 4-way cache.
pub const L1_32KB_READ_NJ: f64 = 0.095_8;

/// The kind of hardware structure, which determines how access energy scales
/// with capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StructureKind {
    /// Plain SRAM array indexed by address bits (ERT, SSBF, register files).
    Sram,
    /// Content-addressable memory searched associatively (LSQ banks, IQs).
    Cam,
    /// Set-associative cache (tag + data arrays).
    Cache,
}

/// Physical description of a structure for the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StructureSpec {
    /// Kind of array.
    pub kind: StructureKind,
    /// Total capacity in bytes (entries × entry width).
    pub capacity_bytes: u64,
    /// Number of read/write ports.
    pub ports: u32,
}

impl StructureSpec {
    /// Convenience constructor for an SRAM of `capacity_bytes`.
    pub fn sram(capacity_bytes: u64, ports: u32) -> Self {
        Self {
            kind: StructureKind::Sram,
            capacity_bytes,
            ports,
        }
    }

    /// Convenience constructor for a CAM with `entries` of `entry_bytes` each.
    pub fn cam(entries: u64, entry_bytes: u64, ports: u32) -> Self {
        Self {
            kind: StructureKind::Cam,
            capacity_bytes: entries * entry_bytes,
            ports,
        }
    }

    /// Convenience constructor for a cache of `capacity_bytes`.
    pub fn cache(capacity_bytes: u64, ports: u32) -> Self {
        Self {
            kind: StructureKind::Cache,
            capacity_bytes,
            ports,
        }
    }
}

/// Analytical energy model calibrated against the paper's CACTI numbers.
///
/// # Example
///
/// ```
/// use elsq_stats::energy::{EnergyModel, StructureSpec};
///
/// let model = EnergyModel::default();
/// let ert = model.read_energy_nj(StructureSpec::sram(2048, 2));
/// // Matches the paper's quoted 0.00195 nJ for the dual-ported 2 KB ERT.
/// assert!((ert - 0.00195).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// nJ per byte of SRAM capacity per port (linear capacity term).
    sram_nj_per_byte_per_port: f64,
    /// Extra multiplicative cost of a CAM search relative to an SRAM read of
    /// the same capacity (every entry's comparators switch).
    cam_search_factor: f64,
    /// nJ per byte for set-associative caches (includes tag array and sense
    /// amps, hence the larger constant).
    cache_nj_per_byte_per_port: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // Calibration:
        //   ERT: 2 KB SRAM, 2 ports -> 0.00195 nJ  => sram term = 0.00195/(2048*2)
        //   L1:  32 KB cache, 2 ports -> 0.0958 nJ => cache term = 0.0958/(32768*2)
        Self {
            sram_nj_per_byte_per_port: ERT_2KB_READ_NJ / (2048.0 * 2.0),
            cam_search_factor: 6.0,
            cache_nj_per_byte_per_port: L1_32KB_READ_NJ / (32768.0 * 2.0),
        }
    }
}

impl EnergyModel {
    /// Creates a model with explicit coefficients (mainly for sensitivity
    /// studies / ablations).
    pub fn with_coefficients(
        sram_nj_per_byte_per_port: f64,
        cam_search_factor: f64,
        cache_nj_per_byte_per_port: f64,
    ) -> Self {
        Self {
            sram_nj_per_byte_per_port,
            cam_search_factor,
            cache_nj_per_byte_per_port,
        }
    }

    /// Energy in nanojoules of one read/search of the given structure.
    pub fn read_energy_nj(&self, spec: StructureSpec) -> f64 {
        let bytes = spec.capacity_bytes as f64;
        let ports = spec.ports as f64;
        match spec.kind {
            StructureKind::Sram => self.sram_nj_per_byte_per_port * bytes * ports,
            StructureKind::Cam => {
                self.sram_nj_per_byte_per_port * bytes * ports * self.cam_search_factor
            }
            StructureKind::Cache => self.cache_nj_per_byte_per_port * bytes * ports,
        }
    }

    /// Computes the total LSQ-related dynamic energy (in nJ) of a run from
    /// its access counters and a description of each structure.
    ///
    /// Returns a per-structure breakdown keyed by a stable label, plus the
    /// total, so the experiment harness can print the Section 6 comparison.
    pub fn lsq_energy_breakdown(
        &self,
        counters: &LsqAccessCounters,
        specs: &LsqStructureSpecs,
    ) -> EnergyBreakdown {
        let mut by_structure = BTreeMap::new();
        let mut add = |name: &str, count: u64, spec: StructureSpec| {
            let nj = count as f64 * self.read_energy_nj(spec);
            by_structure.insert(name.to_owned(), nj);
        };
        add("hl_lq", counters.hl_lq_searches, specs.hl_lq);
        add("hl_sq", counters.hl_sq_searches, specs.hl_sq);
        add("ll_lq", counters.ll_lq_searches, specs.ll_lq_bank);
        add("ll_sq", counters.ll_sq_searches, specs.ll_sq_bank);
        add("ert", counters.ert_lookups, specs.ert);
        add("ssbf", counters.ssbf_lookups, specs.ssbf);
        add("sqm", counters.sqm_lookups, specs.sqm);
        add("dcache", counters.cache_accesses, specs.l1_cache);
        let total_nj = by_structure.values().sum();
        EnergyBreakdown {
            by_structure,
            total_nj,
        }
    }
}

/// Specifications for every LSQ-related structure, used by
/// [`EnergyModel::lsq_energy_breakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LsqStructureSpecs {
    /// High-locality load queue (CAM).
    pub hl_lq: StructureSpec,
    /// High-locality store queue (CAM).
    pub hl_sq: StructureSpec,
    /// One low-locality load-queue bank (CAM); searches touch one bank.
    pub ll_lq_bank: StructureSpec,
    /// One low-locality store-queue bank (CAM).
    pub ll_sq_bank: StructureSpec,
    /// Epoch Resolution Table (SRAM).
    pub ert: StructureSpec,
    /// Store Sequence Bloom Filter (SRAM).
    pub ssbf: StructureSpec,
    /// Store Queue Mirror (CAM replica of the LL-SQs near the CP).
    pub sqm: StructureSpec,
    /// L1 data cache.
    pub l1_cache: StructureSpec,
}

impl Default for LsqStructureSpecs {
    fn default() -> Self {
        // Entry widths: an LSQ entry carries a 40-bit address + size + data
        // (8 B) + control; we round to 16 bytes. ERT = 2 KB per table as in
        // the paper (load + store tables accounted separately by the
        // harness), SSBF = 1024 x 16-bit entries = 2 KB.
        Self {
            hl_lq: StructureSpec::cam(32, 16, 1),
            hl_sq: StructureSpec::cam(24, 16, 2),
            ll_lq_bank: StructureSpec::cam(64, 16, 1),
            ll_sq_bank: StructureSpec::cam(32, 16, 1),
            ert: StructureSpec::sram(2048, 2),
            ssbf: StructureSpec::sram(2048, 2),
            sqm: StructureSpec::cam(32 * 16, 16, 1),
            l1_cache: StructureSpec::cache(32 * 1024, 2),
        }
    }
}

/// Per-structure energy totals produced by
/// [`EnergyModel::lsq_energy_breakdown`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Energy per structure, in nanojoules, keyed by structure label.
    pub by_structure: BTreeMap<String, f64>,
    /// Sum of all structures, in nanojoules.
    pub total_nj: f64,
}

impl EnergyBreakdown {
    /// Energy of a single structure by label, or 0.0 if absent.
    pub fn of(&self, name: &str) -> f64 {
        self.by_structure.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_matches_paper_numbers() {
        let m = EnergyModel::default();
        let ert = m.read_energy_nj(StructureSpec::sram(2048, 2));
        let l1 = m.read_energy_nj(StructureSpec::cache(32 * 1024, 2));
        assert!((ert - ERT_2KB_READ_NJ).abs() < 1e-9);
        assert!((l1 - L1_32KB_READ_NJ).abs() < 1e-9);
        // Paper: "the read energy consumption of the ERT is only 2% that of
        // the L1 Cache".
        let ratio = ert / l1;
        assert!(ratio > 0.015 && ratio < 0.025, "ratio = {ratio}");
    }

    #[test]
    fn cam_costs_more_than_sram_of_same_size() {
        let m = EnergyModel::default();
        let sram = m.read_energy_nj(StructureSpec::sram(512, 1));
        let cam = m.read_energy_nj(StructureSpec::cam(32, 16, 1));
        assert!(cam > sram);
    }

    #[test]
    fn energy_scales_with_ports_and_capacity() {
        let m = EnergyModel::default();
        let one = m.read_energy_nj(StructureSpec::sram(1024, 1));
        let two_ports = m.read_energy_nj(StructureSpec::sram(1024, 2));
        let double_cap = m.read_energy_nj(StructureSpec::sram(2048, 1));
        assert!((two_ports - 2.0 * one).abs() < 1e-12);
        assert!((double_cap - 2.0 * one).abs() < 1e-12);
    }

    #[test]
    fn breakdown_sums_structures() {
        let m = EnergyModel::default();
        let specs = LsqStructureSpecs::default();
        let c = LsqAccessCounters {
            hl_sq_searches: 100,
            ert_lookups: 100,
            cache_accesses: 10,
            ..LsqAccessCounters::default()
        };
        let b = m.lsq_energy_breakdown(&c, &specs);
        assert!(b.of("hl_sq") > 0.0);
        assert!(b.of("ert") > 0.0);
        assert!(b.of("ll_lq") == 0.0);
        let sum: f64 = b.by_structure.values().sum();
        assert!((b.total_nj - sum).abs() < 1e-9);
        // The cache dominates: 10 cache accesses cost more than 100 ERT reads.
        assert!(b.of("dcache") > b.of("ert"));
    }

    #[test]
    fn custom_coefficients_are_used() {
        let m = EnergyModel::with_coefficients(1.0, 2.0, 3.0);
        assert!((m.read_energy_nj(StructureSpec::sram(1, 1)) - 1.0).abs() < 1e-12);
        assert!((m.read_energy_nj(StructureSpec::cam(1, 1, 1)) - 2.0).abs() < 1e-12);
        assert!((m.read_energy_nj(StructureSpec::cache(1, 1)) - 3.0).abs() < 1e-12);
    }
}
