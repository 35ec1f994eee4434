//! Configuration of the ELSQ and of the competing LSQ models.
//!
//! Defaults follow Table 1 of the paper and the sizing study of Section 5.2:
//! 16 epochs of at most 128 instructions, 64 loads and 32 stores each; a
//! high-locality LSQ of 32 loads and 24 stores; a 10-bit hash-based ERT
//! (2 KB per table); the Store Queue Mirror enabled; full disambiguation.

use serde::{Deserialize, Serialize};

use crate::disambig::DisambiguationModel;

/// Which global-disambiguation filter (Epoch Resolution Table) to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErtKind {
    /// Line-based ERT: bit-vectors attached to L1 cache lines; requires the
    /// referenced lines to be allocated and locked in the L1 (Section 3.4).
    Line,
    /// Hash-based ERT: a Bloom-filter table indexed by the low `bits` bits of
    /// the address, decoupled from the L1 cache.
    Hash {
        /// Number of address bits used to index the table (paper sweeps
        /// 6–16; 10 bits ≈ 2 KB per table).
        bits: u32,
    },
}

impl ErtKind {
    /// Number of entries of the resulting table (per load/store table).
    pub fn entries(&self, l1_lines: u64) -> u64 {
        match self {
            ErtKind::Line => l1_lines,
            ErtKind::Hash { bits } => 1u64 << bits,
        }
    }

    /// Estimated storage in bytes for *both* tables (load + store), with
    /// 16-bit epoch vectors per entry, matching the paper's budget estimate.
    pub fn storage_bytes(&self, l1_lines: u64) -> u64 {
        2 * self.entries(l1_lines) * 2
    }
}

impl Default for ErtKind {
    fn default() -> Self {
        ErtKind::Hash { bits: 10 }
    }
}

/// Load-queue removal / re-execution mode (Section 3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ReexecMode {
    /// No re-execution: the load queues are associative and stores search
    /// them for ordering violations (the baseline ELSQ design).
    #[default]
    None,
    /// Store Vulnerability Window re-execution: the load queue is
    /// non-associative; loads re-execute at commit when the SSBF says they
    /// may be vulnerable.
    Svw {
        /// Number of address bits indexing the Store Sequence Bloom Filter.
        ssbf_bits: u32,
        /// Whether the *no-unresolved-store filter* (the paper's
        /// "CheckStores" variant) is implemented: forwarded loads that have
        /// no younger unknown-address store in flight skip re-execution.
        check_stores: bool,
    },
}

impl ReexecMode {
    /// Whether re-execution is enabled at all.
    pub fn is_svw(&self) -> bool {
        matches!(self, ReexecMode::Svw { .. })
    }
}

/// Configuration of the Epoch-based Load/Store Queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElsqConfig {
    /// High-locality Load Queue entries (Section 6: 32).
    pub hl_lq_entries: usize,
    /// High-locality Store Queue entries (Section 6: 24).
    pub hl_sq_entries: usize,
    /// Number of epochs / LL-LSQ banks / Memory Engines (Section 5.2: 16).
    pub num_epochs: usize,
    /// Maximum instructions of any kind per epoch (Section 5.2: 128).
    pub epoch_max_insts: usize,
    /// Maximum loads per epoch (Section 5.2: 64).
    pub epoch_max_loads: usize,
    /// Maximum stores per epoch (Section 5.2: 32).
    pub epoch_max_stores: usize,
    /// Global-disambiguation filter.
    pub ert: ErtKind,
    /// Whether the Store Queue Mirror is implemented next to the ERT
    /// (Section 4).
    pub sqm: bool,
    /// Restricted disambiguation model (Section 3.3).
    pub disambiguation: DisambiguationModel,
    /// Load re-execution mode (Section 3.5).
    pub reexec: ReexecMode,
    /// One-way CP <-> MP network latency in cycles (Section 4: 4).
    pub network_one_way: u32,
    /// Latency of one hop between memory engines (Section 4: 1).
    pub hop_latency: u32,
    /// Latency of searching one LSQ bank or the HL queues (cycles).
    pub search_latency: u32,
    /// Latency of an ERT lookup (cycles); constrained to be no longer than a
    /// local SQ search / L1 access.
    pub ert_latency: u32,
    /// Extra latency to access the Store Queue Mirror after the ERT hit
    /// (Section 4: 1).
    pub sqm_latency: u32,
}

impl Default for ElsqConfig {
    fn default() -> Self {
        Self {
            hl_lq_entries: 32,
            hl_sq_entries: 24,
            num_epochs: 16,
            epoch_max_insts: 128,
            epoch_max_loads: 64,
            epoch_max_stores: 32,
            ert: ErtKind::default(),
            sqm: true,
            disambiguation: DisambiguationModel::Full,
            reexec: ReexecMode::None,
            network_one_way: 4,
            hop_latency: 1,
            search_latency: 1,
            ert_latency: 1,
            sqm_latency: 1,
        }
    }
}

impl ElsqConfig {
    /// Total low-locality load capacity across all epochs.
    pub fn total_ll_loads(&self) -> usize {
        self.num_epochs * self.epoch_max_loads
    }

    /// Total low-locality store capacity across all epochs.
    pub fn total_ll_stores(&self) -> usize {
        self.num_epochs * self.epoch_max_stores
    }

    /// Builder-style: sets the ERT kind.
    pub fn with_ert(mut self, ert: ErtKind) -> Self {
        self.ert = ert;
        self
    }

    /// Builder-style: enables or disables the Store Queue Mirror.
    pub fn with_sqm(mut self, sqm: bool) -> Self {
        self.sqm = sqm;
        self
    }

    /// Builder-style: sets the disambiguation model.
    pub fn with_disambiguation(mut self, model: DisambiguationModel) -> Self {
        self.disambiguation = model;
        self
    }

    /// Builder-style: sets the re-execution mode.
    pub fn with_reexec(mut self, reexec: ReexecMode) -> Self {
        self.reexec = reexec;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ElsqConfigError> {
        if self.num_epochs == 0 || self.num_epochs > 32 {
            return Err(ElsqConfigError::EpochCountOutOfRange(self.num_epochs));
        }
        if self.hl_lq_entries == 0 || self.hl_sq_entries == 0 {
            return Err(ElsqConfigError::EmptyHighLocalityQueue);
        }
        if self.epoch_max_loads == 0 || self.epoch_max_stores == 0 || self.epoch_max_insts == 0 {
            return Err(ElsqConfigError::EmptyEpoch);
        }
        if let ErtKind::Hash { bits } = self.ert {
            if bits == 0 || bits > 24 {
                return Err(ElsqConfigError::HashBitsOutOfRange(bits));
            }
        }
        Ok(())
    }
}

/// Errors produced by [`ElsqConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElsqConfigError {
    /// The epoch count must be between 1 and 32 (epoch masks are 32-bit).
    EpochCountOutOfRange(usize),
    /// High-locality queues must hold at least one entry.
    EmptyHighLocalityQueue,
    /// Epoch capacities must be at least one.
    EmptyEpoch,
    /// Hash ERT index width must be between 1 and 24 bits.
    HashBitsOutOfRange(u32),
}

impl std::fmt::Display for ElsqConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElsqConfigError::EpochCountOutOfRange(n) => {
                write!(f, "epoch count {n} must be between 1 and 32")
            }
            ElsqConfigError::EmptyHighLocalityQueue => {
                write!(f, "high-locality queues must hold at least one entry")
            }
            ElsqConfigError::EmptyEpoch => write!(f, "epoch capacities must be at least one"),
            ElsqConfigError::HashBitsOutOfRange(b) => {
                write!(f, "hash ERT index width {b} must be between 1 and 24 bits")
            }
        }
    }
}

impl std::error::Error for ElsqConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table1_and_section52() {
        let c = ElsqConfig::default();
        assert_eq!(c.num_epochs, 16);
        assert_eq!(c.epoch_max_insts, 128);
        assert_eq!(c.epoch_max_loads, 64);
        assert_eq!(c.epoch_max_stores, 32);
        assert_eq!(c.hl_lq_entries, 32);
        assert_eq!(c.hl_sq_entries, 24);
        assert_eq!(c.network_one_way, 4);
        assert_eq!(c.hop_latency, 1);
        assert!(c.sqm);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ll_capacity_totals() {
        let c = ElsqConfig::default();
        assert_eq!(c.total_ll_loads(), 1024);
        assert_eq!(c.total_ll_stores(), 512);
    }

    #[test]
    fn ert_storage_estimates_match_paper() {
        // 10-bit hash: 1024 entries x 2 bytes x 2 tables = 4 KB (paper: 4 KB).
        assert_eq!(ErtKind::Hash { bits: 10 }.storage_bytes(1024), 4096);
        // Line-based with a 32KB/32B-line L1 (1024 lines): same 4 KB of
        // vectors, but the paper credits it as ~half the *dedicated* budget
        // since the tags are shared with the cache; we only expose raw bytes.
        assert_eq!(ErtKind::Line.storage_bytes(1024), 4096);
        assert_eq!(ErtKind::Hash { bits: 12 }.entries(0), 4096);
    }

    #[test]
    fn builders_compose() {
        let c = ElsqConfig::default()
            .with_ert(ErtKind::Line)
            .with_sqm(false)
            .with_disambiguation(DisambiguationModel::RestrictedSac)
            .with_reexec(ReexecMode::Svw {
                ssbf_bits: 10,
                check_stores: true,
            });
        assert_eq!(c.ert, ErtKind::Line);
        assert!(!c.sqm);
        assert_eq!(c.disambiguation, DisambiguationModel::RestrictedSac);
        assert!(c.reexec.is_svw());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = ElsqConfig {
            num_epochs: 0,
            ..ElsqConfig::default()
        };
        assert_eq!(c.validate(), Err(ElsqConfigError::EpochCountOutOfRange(0)));
        let c = ElsqConfig {
            num_epochs: 33,
            ..ElsqConfig::default()
        };
        assert!(c.validate().is_err());
        let c = ElsqConfig {
            hl_sq_entries: 0,
            ..ElsqConfig::default()
        };
        assert_eq!(c.validate(), Err(ElsqConfigError::EmptyHighLocalityQueue));
        let c = ElsqConfig {
            epoch_max_stores: 0,
            ..ElsqConfig::default()
        };
        assert_eq!(c.validate(), Err(ElsqConfigError::EmptyEpoch));
        let c = ElsqConfig::default().with_ert(ErtKind::Hash { bits: 0 });
        assert_eq!(c.validate(), Err(ElsqConfigError::HashBitsOutOfRange(0)));
    }

    #[test]
    fn reexec_default_is_none() {
        assert_eq!(ReexecMode::default(), ReexecMode::None);
        assert!(!ReexecMode::None.is_svw());
    }
}
