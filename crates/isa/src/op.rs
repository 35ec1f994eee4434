//! Operation kinds and execution latencies.
//!
//! The timing model only needs to know the *class* of each operation (which
//! functional unit / issue queue it uses) and its execution latency. The
//! latencies follow the classic Alpha 21264 / MIPS R10000 style pipelines used
//! by the paper's simulation infrastructure.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Coarse operation class.
///
/// Determines the issue queue (integer vs floating point), whether the
/// instruction allocates a Load Queue or Store Queue entry and whether it is
/// a control-flow instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Simple integer ALU operation (add, logic, shift, compare).
    IntAlu,
    /// Integer multiply / divide (long latency, integer queue).
    IntMul,
    /// Floating-point add/sub/convert.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide / square root (long latency).
    FpDiv,
    /// Memory load (allocates a Load Queue entry).
    Load,
    /// Memory store (allocates a Store Queue entry).
    Store,
    /// Conditional or unconditional branch / jump.
    Branch,
    /// No-operation (consumes fetch/decode bandwidth only).
    Nop,
}

impl OpClass {
    /// All operation classes, useful for exhaustive tests and mix tables.
    pub const ALL: [OpClass; 9] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Nop,
    ];

    /// Default execution latency in cycles (not counting memory access time
    /// for loads/stores, which is determined by the cache hierarchy).
    pub(crate) fn default_latency(&self) -> u32 {
        match self {
            OpClass::IntAlu => 1,
            OpClass::IntMul => 7,
            OpClass::FpAlu => 4,
            OpClass::FpMul => 4,
            OpClass::FpDiv => 16,
            // Address generation latency; the cache access is added on top.
            OpClass::Load => 1,
            OpClass::Store => 1,
            OpClass::Branch => 1,
            OpClass::Nop => 1,
        }
    }

    /// Whether the operation is a memory reference.
    pub(crate) fn is_mem(&self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "int_alu",
            OpClass::IntMul => "int_mul",
            OpClass::FpAlu => "fp_alu",
            OpClass::FpMul => "fp_mul",
            OpClass::FpDiv => "fp_div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// A concrete operation: a class plus an execution latency.
///
/// Most call sites construct this through [`Op::of`] which uses the default
/// latency for the class; workload generators may override the latency to
/// model, for example, variable-latency divides.
///
/// # Example
///
/// ```
/// use elsq_isa::{Op, OpClass};
///
/// let op = Op::of(OpClass::FpMul);
/// assert_eq!(op.latency(), 4);
/// let slow_div = Op::with_latency(OpClass::FpDiv, 30);
/// assert_eq!(slow_div.latency(), 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Op {
    class: OpClass,
    latency: u32,
}

impl Op {
    /// Creates an operation with the default latency for its class.
    pub fn of(class: OpClass) -> Self {
        Self {
            class,
            latency: class.default_latency(),
        }
    }

    /// Creates an operation with an explicit execution latency.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero; every operation takes at least one cycle.
    pub fn with_latency(class: OpClass, latency: u32) -> Self {
        assert!(latency > 0, "operation latency must be at least 1 cycle");
        Self { class, latency }
    }

    /// The operation class.
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// The execution latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        self.class == OpClass::Load
    }

    /// Whether this is a store.
    pub fn is_store(&self) -> bool {
        self.class == OpClass::Store
    }

    /// Whether this is a memory operation (load or store).
    pub(crate) fn is_mem(&self) -> bool {
        self.class.is_mem()
    }

    /// Whether this is a branch.
    pub fn is_branch(&self) -> bool {
        self.class == OpClass::Branch
    }
}

impl Default for Op {
    fn default() -> Self {
        Op::of(OpClass::Nop)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latencies_are_positive() {
        for class in OpClass::ALL {
            assert!(class.default_latency() >= 1, "{class} latency must be >= 1");
        }
    }

    #[test]
    fn mem_predicates() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::Branch.is_mem());
        assert!(Op::of(OpClass::Load).is_load());
        assert!(!Op::of(OpClass::Load).is_store());
        assert!(Op::of(OpClass::Store).is_store());
        assert!(Op::of(OpClass::Branch).is_branch());
    }

    #[test]
    fn with_latency_overrides_default() {
        let op = Op::with_latency(OpClass::IntMul, 12);
        assert_eq!(op.latency(), 12);
        assert_eq!(op.class(), OpClass::IntMul);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_latency_panics() {
        let _ = Op::with_latency(OpClass::IntAlu, 0);
    }

    #[test]
    fn default_op_is_nop() {
        assert_eq!(Op::default().class(), OpClass::Nop);
    }

    #[test]
    fn display_is_class_name() {
        assert_eq!(Op::of(OpClass::Load).to_string(), "load");
        assert_eq!(OpClass::FpDiv.to_string(), "fp_div");
    }
}
