//! Processor configuration (Table 1 defaults) and the named configurations
//! used throughout the evaluation.

use serde::{Deserialize, Serialize};

use elsq_core::central::CentralLsqConfig;
use elsq_core::config::{ElsqConfig, ErtKind, ReexecMode};
use elsq_core::disambig::DisambiguationModel;
use elsq_mem::hierarchy::HierarchyConfig;

/// Store Vulnerability Window (re-execution) parameters applied on top of a
/// processor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SvwParams {
    /// SSBF index bits (Figure 10 sweeps 8/10/12).
    pub ssbf_bits: u32,
    /// Whether the no-unresolved-store ("CheckStores") filter is implemented.
    pub check_stores: bool,
}

/// Which LSQ the processor uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LsqKind {
    /// A central LSQ (finite CAM for the OoO baseline or unlimited idealized
    /// queue for the Figure 7 comparison). On the FMC, the central queue
    /// lives in the Cache Processor and loads executing in the Memory
    /// Processor pay the network round-trip.
    Central(CentralLsqConfig),
    /// The Epoch-based LSQ.
    Elsq(ElsqConfig),
}

/// Memory-Processor (FMC) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FmcConfig {
    /// Number of Memory Engines (= number of epochs): 16.
    pub num_engines: usize,
    /// Maximum instructions of any kind per engine: 128.
    pub me_max_insts: usize,
    /// Per-engine issue width (in-order): 2.
    pub me_issue_width: u32,
    /// One-way CP <-> MP network latency: 4 cycles.
    pub network_one_way: u32,
    /// An instruction at the head of the CP ROB migrates instead of blocking
    /// when its completion is at least this many cycles away (roughly the L2
    /// latency plus scheduling slack).
    pub migrate_threshold: u32,
}

impl Default for FmcConfig {
    fn default() -> Self {
        Self {
            num_engines: 16,
            me_max_insts: 128,
            me_issue_width: 2,
            network_one_way: 4,
            migrate_threshold: 16,
        }
    }
}

impl FmcConfig {
    /// Total Memory Processor window (instructions across all engines).
    pub fn total_window(&self) -> usize {
        self.num_engines * self.me_max_insts
    }
}

/// Full processor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Fetch/decode bandwidth (instructions per cycle): 4.
    pub fetch_width: u32,
    /// Commit bandwidth (instructions per cycle): 4.
    pub commit_width: u32,
    /// Cache Processor issue width (out-of-order): 4.
    pub issue_width: u32,
    /// Cache Processor reorder buffer size: 64.
    pub rob_size: usize,
    /// Front-end depth from fetch to dispatch, in cycles.
    pub frontend_depth: u32,
    /// Cycles to redirect fetch after a resolved misprediction or squash.
    pub redirect_penalty: u32,
    /// Number of data-cache ports: 2.
    pub cache_ports: u32,
    /// Memory hierarchy (L1 / L2 / main memory).
    pub hierarchy: HierarchyConfig,
    /// The Memory Processor; `None` disables it (conventional OoO).
    pub fmc: Option<FmcConfig>,
    /// LSQ model.
    pub lsq: LsqKind,
    /// Load re-execution (SVW) instead of an associative load queue.
    pub svw: Option<SvwParams>,
}

impl CpuConfig {
    /// The conventional OoO-64 baseline of Figure 7 / Table 2.
    pub fn ooo64() -> Self {
        Self {
            fetch_width: 4,
            commit_width: 4,
            issue_width: 4,
            rob_size: 64,
            frontend_depth: 3,
            redirect_penalty: 5,
            cache_ports: 2,
            hierarchy: HierarchyConfig::default(),
            fmc: None,
            lsq: LsqKind::Central(CentralLsqConfig::conventional()),
            svw: None,
        }
    }

    /// OoO-64 with SVW re-execution (non-associative load queue).
    pub fn ooo64_svw(ssbf_bits: u32, check_stores: bool) -> Self {
        Self {
            lsq: LsqKind::Central(CentralLsqConfig::conventional_svw()),
            svw: Some(SvwParams {
                ssbf_bits,
                check_stores,
            }),
            ..Self::ooo64()
        }
    }

    /// FMC with the idealized unlimited central LSQ (Figure 7's
    /// "Central LSQ" bar).
    pub fn fmc_central_ideal() -> Self {
        Self {
            fmc: Some(FmcConfig::default()),
            lsq: LsqKind::Central(CentralLsqConfig::unlimited()),
            ..Self::ooo64()
        }
    }

    /// FMC with the ELSQ in a given configuration.
    pub fn fmc_elsq(elsq: ElsqConfig) -> Self {
        Self {
            fmc: Some(FmcConfig::default()),
            lsq: LsqKind::Elsq(elsq),
            ..Self::ooo64()
        }
    }

    /// FMC + ELSQ with the hash-based ERT (optionally with the SQM).
    pub fn fmc_hash(sqm: bool) -> Self {
        Self::fmc_elsq(ElsqConfig::default().with_sqm(sqm))
    }

    /// FMC + ELSQ with the line-based ERT (optionally with the SQM).
    pub fn fmc_line(sqm: bool) -> Self {
        Self::fmc_elsq(ElsqConfig::default().with_ert(ErtKind::Line).with_sqm(sqm))
    }

    /// FMC + ELSQ (hash ERT, SQM) with restricted store address calculation.
    pub fn fmc_hash_rsac() -> Self {
        Self::fmc_elsq(
            ElsqConfig::default().with_disambiguation(DisambiguationModel::RestrictedSac),
        )
    }

    /// FMC + ELSQ (hash ERT, SQM) with SVW load re-execution.
    pub fn fmc_hash_svw(ssbf_bits: u32, check_stores: bool) -> Self {
        let mut cfg = Self::fmc_elsq(ElsqConfig::default().with_reexec(ReexecMode::Svw {
            ssbf_bits,
            check_stores,
        }));
        cfg.svw = Some(SvwParams {
            ssbf_bits,
            check_stores,
        });
        cfg
    }

    /// Checks that the configuration can be simulated: widths and port
    /// counts in `1..=255` (port schedules count each cycle's use in a
    /// `u8`), a ROB of at least one entry, valid L1 and L2 geometry and,
    /// for an ELSQ, a valid ELSQ configuration.
    pub fn validate(&self) -> Result<(), String> {
        for (name, value) in [
            ("fetch width", self.fetch_width),
            ("commit width", self.commit_width),
            ("issue width", self.issue_width),
            ("cache port count", self.cache_ports),
        ] {
            if !(1..=255).contains(&value) {
                return Err(format!("{name} {value} must be between 1 and 255"));
            }
        }
        if self.rob_size == 0 {
            return Err("the ROB must hold at least one entry".to_owned());
        }
        let h = &self.hierarchy;
        h.l1.validate().map_err(|e| format!("L1 cache: {e}"))?;
        h.l2.validate().map_err(|e| format!("L2 cache: {e}"))?;
        if let LsqKind::Elsq(e) = &self.lsq {
            e.validate().map_err(|e| format!("ELSQ: {e}"))?;
        }
        Ok(())
    }

    /// Effective window size: ROB plus the Memory Processor window.
    pub fn window_size(&self) -> usize {
        self.rob_size + self.fmc.map(|f| f.total_window()).unwrap_or(0)
    }

    /// Whether the Memory Processor is enabled.
    pub fn is_fmc(&self) -> bool {
        self.fmc.is_some()
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self::ooo64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = CpuConfig::ooo64();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.rob_size, 64);
        assert_eq!(c.cache_ports, 2);
        assert_eq!(c.hierarchy.memory_latency, 400);
        assert!(!c.is_fmc());
        assert_eq!(c.window_size(), 64);
        let f = FmcConfig::default();
        assert_eq!(f.num_engines, 16);
        assert_eq!(f.me_max_insts, 128);
        assert_eq!(f.me_issue_width, 2);
        assert_eq!(f.network_one_way, 4);
        assert_eq!(f.total_window(), 2048);
    }

    #[test]
    fn named_configs_validate_and_impossible_ones_do_not() {
        for c in [
            CpuConfig::ooo64(),
            CpuConfig::ooo64_svw(8, true),
            CpuConfig::fmc_central_ideal(),
            CpuConfig::fmc_hash(true),
            CpuConfig::fmc_line(false),
            CpuConfig::fmc_hash_rsac(),
            CpuConfig::fmc_hash_svw(10, false),
        ] {
            assert_eq!(c.validate(), Ok(()));
        }
        let mut wide = CpuConfig::ooo64();
        wide.fetch_width = 256;
        assert!(wide.validate().unwrap_err().contains("fetch width 256"));
        let mut bad_l2 = CpuConfig::ooo64();
        bad_l2.hierarchy.l2.assoc = 0;
        assert!(bad_l2.validate().unwrap_err().starts_with("L2 cache"));
    }

    #[test]
    fn named_configs_select_the_right_lsq() {
        assert!(matches!(CpuConfig::ooo64().lsq, LsqKind::Central(c) if c.lq_entries.is_some()));
        assert!(matches!(
            CpuConfig::fmc_central_ideal().lsq,
            LsqKind::Central(c) if c.lq_entries.is_none()
        ));
        assert!(matches!(CpuConfig::fmc_hash(true).lsq, LsqKind::Elsq(_)));
        let line = CpuConfig::fmc_line(false);
        if let LsqKind::Elsq(e) = line.lsq {
            assert_eq!(e.ert, ErtKind::Line);
            assert!(!e.sqm);
        } else {
            panic!("expected ELSQ");
        }
        let rsac = CpuConfig::fmc_hash_rsac();
        if let LsqKind::Elsq(e) = rsac.lsq {
            assert_eq!(e.disambiguation, DisambiguationModel::RestrictedSac);
        } else {
            panic!("expected ELSQ");
        }
    }

    #[test]
    fn svw_configs_carry_parameters() {
        let c = CpuConfig::ooo64_svw(10, true);
        assert_eq!(
            c.svw,
            Some(SvwParams {
                ssbf_bits: 10,
                check_stores: true
            })
        );
        if let LsqKind::Central(cc) = c.lsq {
            assert!(!cc.associative_lq);
        } else {
            panic!("expected central LSQ");
        }
        let f = CpuConfig::fmc_hash_svw(8, false);
        assert!(f.is_fmc());
        assert_eq!(f.window_size(), 64 + 2048);
        if let LsqKind::Elsq(e) = f.lsq {
            assert!(e.reexec.is_svw());
        } else {
            panic!("expected ELSQ");
        }
    }
}
