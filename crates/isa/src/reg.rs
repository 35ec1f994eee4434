//! Architectural registers.
//!
//! The synthetic ISA exposes two register classes, integer and floating
//! point, each with [`NUM_ARCH_REGS_PER_CLASS`] architectural names. Register
//! 0 of the integer class is the constant-zero register (as in MIPS/Alpha)
//! and is never renamed; workload generators may still name it as a source.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of architectural registers in each class.
pub const NUM_ARCH_REGS_PER_CLASS: u8 = 32;

/// Register class: integer or floating point.
///
/// The class determines which issue queue and which physical register file a
/// renamed instruction uses in the processor models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RegClass {
    /// Integer / address registers.
    Int,
    /// Floating-point registers.
    Fp,
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Fp => write!(f, "fp"),
        }
    }
}

/// An architectural register: a class plus an index within that class.
///
/// # Example
///
/// ```
/// use elsq_isa::{ArchReg, RegClass};
///
/// let r = ArchReg::int(5);
/// assert_eq!(r.class(), RegClass::Int);
/// assert_eq!(r.index(), 5);
/// assert!(!r.is_zero());
/// assert!(ArchReg::int(0).is_zero());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArchReg {
    class: RegClass,
    index: u8,
}

impl ArchReg {
    /// Creates a register of the given class.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_ARCH_REGS_PER_CLASS`.
    pub fn new(class: RegClass, index: u8) -> Self {
        assert!(
            index < NUM_ARCH_REGS_PER_CLASS,
            "architectural register index {index} out of range"
        );
        Self { class, index }
    }

    /// Creates an integer register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_ARCH_REGS_PER_CLASS`.
    pub fn int(index: u8) -> Self {
        Self::new(RegClass::Int, index)
    }

    /// Creates a floating-point register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_ARCH_REGS_PER_CLASS`.
    pub fn fp(index: u8) -> Self {
        Self::new(RegClass::Fp, index)
    }

    /// The register class.
    pub fn class(&self) -> RegClass {
        self.class
    }

    /// The index within the class.
    pub fn index(&self) -> u8 {
        self.index
    }

    /// Whether this is the hard-wired integer zero register, which is never
    /// renamed and is always ready.
    pub fn is_zero(&self) -> bool {
        self.class == RegClass::Int && self.index == 0
    }

    /// A dense index over both classes, useful for flat rename tables.
    /// Integer registers occupy `0..32`, floating point `32..64`.
    pub fn flat_index(&self) -> usize {
        match self.class {
            RegClass::Int => self.index as usize,
            RegClass::Fp => NUM_ARCH_REGS_PER_CLASS as usize + self.index as usize,
        }
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            RegClass::Int => write!(f, "r{}", self.index),
            RegClass::Fp => write!(f, "f{}", self.index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_and_fp_constructors() {
        let r = ArchReg::int(3);
        assert_eq!(r.class(), RegClass::Int);
        assert_eq!(r.index(), 3);
        let f = ArchReg::fp(7);
        assert_eq!(f.class(), RegClass::Fp);
        assert_eq!(f.index(), 7);
    }

    #[test]
    fn zero_register_detection() {
        assert!(ArchReg::int(0).is_zero());
        assert!(!ArchReg::int(1).is_zero());
        assert!(!ArchReg::fp(0).is_zero());
    }

    #[test]
    fn flat_index_is_dense_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..NUM_ARCH_REGS_PER_CLASS {
            assert!(seen.insert(ArchReg::int(i).flat_index()));
            assert!(seen.insert(ArchReg::fp(i).flat_index()));
        }
        let total = 2 * NUM_ARCH_REGS_PER_CLASS as usize;
        assert_eq!(seen.len(), total);
        assert_eq!(seen.iter().max().copied().unwrap(), total - 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let _ = ArchReg::int(NUM_ARCH_REGS_PER_CLASS);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ArchReg::int(4).to_string(), "r4");
        assert_eq!(ArchReg::fp(9).to_string(), "f9");
        assert_eq!(RegClass::Int.to_string(), "int");
        assert_eq!(RegClass::Fp.to_string(), "fp");
    }

    #[test]
    fn ordering_is_by_class_then_index() {
        assert!(ArchReg::int(31) < ArchReg::fp(0));
        assert!(ArchReg::int(1) < ArchReg::int(2));
    }
}
