//! Restricted disambiguation models (Section 3.3).
//!
//! Full disambiguation lets both loads and stores compute their addresses in
//! either locality level, which requires associative load *and* store queues
//! in both levels plus both ERT tables. Restricting where address
//! calculations may complete simplifies the hardware:
//!
//! * **Restricted SAC** — store address calculation is (mostly) confined to
//!   the high-locality level. A store whose address depends on a
//!   long-latency register may still migrate, but no younger memory
//!   reference may migrate until that store's address resolves. This removes
//!   the need to search LL load queues for violations and therefore the
//!   Load-ERT.
//! * **Restricted LAC** — load address calculation is confined to the
//!   high-locality level; miss-dependent loads stall migration instead.
//! * **Restricted SAC+LAC** — both restrictions at once.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which restricted disambiguation model the ELSQ runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DisambiguationModel {
    /// Loads and stores may disambiguate in both locality levels.
    #[default]
    Full,
    /// Store address calculation restricted to the high-locality level.
    RestrictedSac,
    /// Load address calculation restricted to the high-locality level.
    RestrictedLac,
    /// Both restrictions applied.
    RestrictedSacLac,
}

impl DisambiguationModel {
    /// All models, in the order Figure 9 plots them.
    pub const ALL: [DisambiguationModel; 4] = [
        DisambiguationModel::Full,
        DisambiguationModel::RestrictedSac,
        DisambiguationModel::RestrictedLac,
        DisambiguationModel::RestrictedSacLac,
    ];

    /// Whether a *store* with an unresolved (miss-dependent) address blocks
    /// migration of younger memory references into the low-locality queues.
    pub fn store_blocks_migration(&self) -> bool {
        matches!(
            self,
            DisambiguationModel::RestrictedSac | DisambiguationModel::RestrictedSacLac
        )
    }

    /// Whether a *load* with an unresolved (miss-dependent) address blocks
    /// migration of younger memory references into the low-locality queues.
    pub fn load_blocks_migration(&self) -> bool {
        matches!(
            self,
            DisambiguationModel::RestrictedLac | DisambiguationModel::RestrictedSacLac
        )
    }

    /// Whether a Load-ERT (global violation search across epochs) is needed.
    /// Under restricted SAC, stores only compute addresses in the
    /// high-locality level, so only the HL-LQ can hold violated loads and no
    /// global load search is necessary (Section 5.5).
    pub(crate) fn needs_load_ert(&self) -> bool {
        !self.store_blocks_migration()
    }
}

impl fmt::Display for DisambiguationModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DisambiguationModel::Full => "full",
            DisambiguationModel::RestrictedSac => "restricted-sac",
            DisambiguationModel::RestrictedLac => "restricted-lac",
            DisambiguationModel::RestrictedSacLac => "restricted-sac-lac",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full() {
        assert_eq!(DisambiguationModel::default(), DisambiguationModel::Full);
    }

    #[test]
    fn migration_blocking_matrix() {
        use DisambiguationModel::*;
        assert!(!Full.store_blocks_migration());
        assert!(!Full.load_blocks_migration());
        assert!(RestrictedSac.store_blocks_migration());
        assert!(!RestrictedSac.load_blocks_migration());
        assert!(!RestrictedLac.store_blocks_migration());
        assert!(RestrictedLac.load_blocks_migration());
        assert!(RestrictedSacLac.store_blocks_migration());
        assert!(RestrictedSacLac.load_blocks_migration());
    }

    #[test]
    fn load_ert_needed_only_without_sac_restriction() {
        use DisambiguationModel::*;
        assert!(Full.needs_load_ert());
        assert!(RestrictedLac.needs_load_ert());
        assert!(!RestrictedSac.needs_load_ert());
        assert!(!RestrictedSacLac.needs_load_ert());
    }

    #[test]
    fn display_names_are_unique() {
        let names: std::collections::HashSet<String> = DisambiguationModel::ALL
            .iter()
            .map(|m| m.to_string())
            .collect();
        assert_eq!(names.len(), DisambiguationModel::ALL.len());
    }
}
