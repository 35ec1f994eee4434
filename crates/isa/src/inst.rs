//! Dynamic instructions.
//!
//! A [`DynInst`] is one element of the dynamic instruction stream produced by
//! a workload generator. It carries everything the timing model needs:
//! operation class and latency, destination and source architectural
//! registers, the effective memory address (for loads/stores) and the branch
//! outcome (for branches). Data values are never represented — the simulator
//! is a timing model, not a functional one.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::op::{Op, OpClass};
use crate::reg::ArchReg;

/// Maximum number of register sources an instruction may name.
pub const MAX_SRCS: usize = 2;

/// A memory access payload attached to loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemAccess {
    /// Effective virtual address of the access.
    pub addr: u64,
    /// Access size in bytes (1, 2, 4 or 8).
    pub size: u8,
}

impl MemAccess {
    /// Creates a memory access descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not one of 1, 2, 4 or 8.
    pub fn new(addr: u64, size: u8) -> Self {
        assert!(
            matches!(size, 1 | 2 | 4 | 8),
            "unsupported access size {size}"
        );
        Self { addr, size }
    }

    /// First byte address covered by the access.
    pub fn start(&self) -> u64 {
        self.addr
    }

    /// One past the last byte address covered by the access.
    pub fn end(&self) -> u64 {
        self.addr + self.size as u64
    }

    /// Whether this access overlaps `other` (any common byte).
    pub fn overlaps(&self, other: &MemAccess) -> bool {
        self.start() < other.end() && other.start() < self.end()
    }

    /// Whether `other` covers every byte of `self` (full forwarding possible).
    pub fn covered_by(&self, other: &MemAccess) -> bool {
        other.start() <= self.start() && self.end() <= other.end()
    }
}

/// Branch payload: the resolved outcome as known by the trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Whether the branch is taken.
    pub taken: bool,
    /// Whether the front-end branch predictor mispredicts this branch. The
    /// workload generator decides this statistically; the processor model
    /// reacts by fetching wrong-path instructions until the branch resolves.
    pub mispredicted: bool,
    /// Branch target program counter (used only for bookkeeping).
    pub target: u64,
}

/// A single dynamic instruction.
///
/// Constructed via [`InstBuilder`]; consumed by the processor models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynInst {
    /// Program counter of the instruction.
    pub pc: u64,
    /// Operation class and latency.
    pub op: Op,
    /// Destination register, if any.
    pub dst: Option<ArchReg>,
    /// Source registers (up to [`MAX_SRCS`]).
    pub srcs: [Option<ArchReg>; MAX_SRCS],
    /// Memory access, present iff the op is a load or store.
    pub mem: Option<MemAccess>,
    /// Branch outcome, present iff the op is a branch.
    pub branch: Option<BranchInfo>,
    /// Whether this instruction was synthesized on the wrong path after a
    /// mispredicted branch. Wrong-path instructions never commit but do
    /// consume LSQ and cache bandwidth until squashed.
    pub wrong_path: bool,
}

impl DynInst {
    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        self.op.is_load()
    }

    /// Whether this is a store.
    pub fn is_store(&self) -> bool {
        self.op.is_store()
    }

    /// Whether this is a memory operation.
    pub(crate) fn is_mem(&self) -> bool {
        self.op.is_mem()
    }

    /// Whether this is a branch.
    pub fn is_branch(&self) -> bool {
        self.op.is_branch()
    }

    /// The memory payload of a load or store.
    ///
    /// Callers must only reach for this on memory operations — builders
    /// guarantee ([`DynInst::validate`] enforces) that loads and stores
    /// carry a payload and nothing else does, so on a validated instruction
    /// this can only panic when the caller's classification logic is wrong.
    ///
    /// # Panics
    ///
    /// Panics (with a debug assertion naming the op class first) if the
    /// instruction is not a memory operation.
    pub fn mem_access(&self) -> MemAccess {
        debug_assert!(
            self.is_mem(),
            "mem_access() on a non-memory instruction ({:?})",
            self.op.class()
        );
        self.mem
            .expect("memory instruction without a MemAccess payload")
    }

    /// Whether this branch is marked mispredicted.
    pub fn is_mispredicted_branch(&self) -> bool {
        self.is_branch() && self.branch.map(|b| b.mispredicted).unwrap_or(false)
    }

    /// Iterator over the sources that are actually present.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// Validates internal consistency: memory payload present exactly for
    /// memory ops and branch payload exactly for branches.
    pub fn validate(&self) -> Result<(), InvalidInstError> {
        if self.is_mem() != self.mem.is_some() {
            return Err(InvalidInstError::MemPayloadMismatch {
                class: self.op.class(),
                has_mem: self.mem.is_some(),
            });
        }
        if self.is_branch() != self.branch.is_some() {
            return Err(InvalidInstError::BranchPayloadMismatch {
                class: self.op.class(),
                has_branch: self.branch.is_some(),
            });
        }
        if self.is_store() && self.dst.is_some() {
            return Err(InvalidInstError::StoreWithDestination);
        }
        Ok(())
    }
}

/// Error returned by [`DynInst::validate`] when an instruction is
/// self-inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidInstError {
    /// Memory payload presence does not match the operation class.
    MemPayloadMismatch {
        /// The op class of the offending instruction.
        class: OpClass,
        /// Whether a memory payload was attached.
        has_mem: bool,
    },
    /// Branch payload presence does not match the operation class.
    BranchPayloadMismatch {
        /// The op class of the offending instruction.
        class: OpClass,
        /// Whether a branch payload was attached.
        has_branch: bool,
    },
    /// A store instruction names a destination register.
    StoreWithDestination,
}

impl fmt::Display for InvalidInstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidInstError::MemPayloadMismatch { class, has_mem } => write!(
                f,
                "memory payload mismatch: class {class} with mem payload = {has_mem}"
            ),
            InvalidInstError::BranchPayloadMismatch { class, has_branch } => write!(
                f,
                "branch payload mismatch: class {class} with branch payload = {has_branch}"
            ),
            InvalidInstError::StoreWithDestination => {
                write!(f, "store instruction names a destination register")
            }
        }
    }
}

impl std::error::Error for InvalidInstError {}

impl fmt::Display for DynInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}: {}", self.pc, self.op)?;
        if let Some(d) = self.dst {
            write!(f, " {d} <-")?;
        }
        for s in self.sources() {
            write!(f, " {s}")?;
        }
        if let Some(m) = self.mem {
            write!(f, " [{:#x}+{}]", m.addr, m.size)?;
        }
        if let Some(b) = self.branch {
            write!(
                f,
                " ({}taken{})",
                if b.taken { "" } else { "not-" },
                if b.mispredicted { ", mispredicted" } else { "" }
            )?;
        }
        if self.wrong_path {
            write!(f, " [wrong-path]")?;
        }
        Ok(())
    }
}

/// Builder for [`DynInst`].
///
/// # Example
///
/// ```
/// use elsq_isa::{InstBuilder, ArchReg, OpClass};
///
/// let add = InstBuilder::alu(0x400, OpClass::IntAlu)
///     .dst(ArchReg::int(3))
///     .src(ArchReg::int(1))
///     .src(ArchReg::int(2))
///     .build();
/// assert_eq!(add.sources().count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct InstBuilder {
    inst: DynInst,
}

impl InstBuilder {
    /// Starts building a non-memory, non-branch instruction of the given class.
    pub fn alu(pc: u64, class: OpClass) -> Self {
        Self {
            inst: DynInst {
                pc,
                op: Op::of(class),
                dst: None,
                srcs: [None; MAX_SRCS],
                mem: None,
                branch: None,
                wrong_path: false,
            },
        }
    }

    /// Starts building a load from `addr` of `size` bytes.
    pub fn load(pc: u64, addr: u64, size: u8) -> Self {
        let mut b = Self::alu(pc, OpClass::Load);
        b.inst.op = Op::of(OpClass::Load);
        b.inst.mem = Some(MemAccess::new(addr, size));
        b
    }

    /// Starts building a store to `addr` of `size` bytes.
    pub fn store(pc: u64, addr: u64, size: u8) -> Self {
        let mut b = Self::alu(pc, OpClass::Store);
        b.inst.op = Op::of(OpClass::Store);
        b.inst.mem = Some(MemAccess::new(addr, size));
        b
    }

    /// Starts building a branch with the given outcome.
    pub fn branch(pc: u64, taken: bool, mispredicted: bool, target: u64) -> Self {
        let mut b = Self::alu(pc, OpClass::Branch);
        b.inst.branch = Some(BranchInfo {
            taken,
            mispredicted,
            target,
        });
        b
    }

    /// Sets the destination register.
    pub fn dst(mut self, reg: ArchReg) -> Self {
        self.inst.dst = Some(reg);
        self
    }

    /// Adds a source register.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_SRCS`] sources are added.
    pub fn src(mut self, reg: ArchReg) -> Self {
        let slot = self
            .inst
            .srcs
            .iter_mut()
            .find(|s| s.is_none())
            .expect("instruction already has the maximum number of sources");
        *slot = Some(reg);
        self
    }

    /// Overrides the operation latency.
    pub fn latency(mut self, latency: u32) -> Self {
        self.inst.op = Op::with_latency(self.inst.op.class(), latency);
        self
    }

    /// Marks the instruction as wrong-path.
    pub fn wrong_path(mut self, wp: bool) -> Self {
        self.inst.wrong_path = wp;
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is self-inconsistent (see
    /// [`DynInst::validate`]); builders constructed through the typed entry
    /// points cannot trigger this.
    pub fn build(self) -> DynInst {
        self.inst
            .validate()
            .expect("InstBuilder produced an inconsistent instruction");
        self.inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::ArchReg;

    #[test]
    fn mem_access_overlap_and_cover() {
        let a = MemAccess::new(0x100, 8);
        let b = MemAccess::new(0x104, 4);
        let c = MemAccess::new(0x108, 4);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.covered_by(&a));
        assert!(!a.covered_by(&b));
    }

    #[test]
    #[should_panic(expected = "unsupported access size")]
    fn bad_access_size_panics() {
        let _ = MemAccess::new(0, 3);
    }

    #[test]
    fn builder_constructs_valid_load() {
        let inst = InstBuilder::load(0x1000, 0xdead_beef, 4)
            .dst(ArchReg::int(5))
            .src(ArchReg::int(6))
            .build();
        assert!(inst.is_load());
        assert!(inst.validate().is_ok());
        assert_eq!(inst.mem.unwrap().size, 4);
        assert_eq!(inst.sources().count(), 1);
    }

    #[test]
    fn builder_constructs_valid_store_and_branch() {
        let st = InstBuilder::store(0x1004, 0x2000, 8)
            .src(ArchReg::int(1))
            .src(ArchReg::int(2))
            .build();
        assert!(st.is_store());
        assert!(st.dst.is_none());

        let br = InstBuilder::branch(0x1008, true, true, 0x1100).build();
        assert!(br.is_branch());
        assert!(br.is_mispredicted_branch());
    }

    #[test]
    fn validate_catches_mismatches() {
        let mut inst = InstBuilder::alu(0, OpClass::IntAlu).build();
        inst.mem = Some(MemAccess::new(0, 4));
        assert!(matches!(
            inst.validate(),
            Err(InvalidInstError::MemPayloadMismatch { .. })
        ));

        let mut ld = InstBuilder::load(0, 0x10, 4).build();
        ld.mem = None;
        assert!(ld.validate().is_err());

        let mut st = InstBuilder::store(0, 0x10, 4).build();
        st.dst = Some(ArchReg::int(1));
        assert_eq!(st.validate(), Err(InvalidInstError::StoreWithDestination));

        let mut br = InstBuilder::branch(0, false, false, 0).build();
        br.branch = None;
        assert!(matches!(
            br.validate(),
            Err(InvalidInstError::BranchPayloadMismatch { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "maximum number of sources")]
    fn too_many_sources_panics() {
        let _ = InstBuilder::alu(0, OpClass::IntAlu)
            .src(ArchReg::int(1))
            .src(ArchReg::int(2))
            .src(ArchReg::int(3));
    }

    #[test]
    fn display_includes_key_fields() {
        let inst = InstBuilder::load(0x1000, 0x2000, 8)
            .dst(ArchReg::int(1))
            .src(ArchReg::int(2))
            .wrong_path(true)
            .build();
        let s = inst.to_string();
        assert!(s.contains("load"));
        assert!(s.contains("0x2000"));
        assert!(s.contains("wrong-path"));
    }

    #[test]
    fn latency_override() {
        let inst = InstBuilder::alu(0, OpClass::FpDiv).latency(25).build();
        assert_eq!(inst.op.latency(), 25);
    }
}
