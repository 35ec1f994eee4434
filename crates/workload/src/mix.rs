//! Shared plumbing for workload generators: instruction emission, basic-block
//! buffering and wrong-path synthesis.
//!
//! Every workload produces instructions a basic block at a time through the
//! [`BlockSource`] trait; [`BlockTrace`] adapts a block source into the
//! [`TraceSource`] interface the processor models consume and synthesizes
//! wrong-path instructions after mispredicted branches.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::Rng;

use elsq_isa::{ArchReg, DynInst, InstBuilder, OpClass, TraceSource, WrongPathSpec};

// Wrong-path synthesis moved to `elsq_isa::wrongpath` so `.etrc` trace
// replay (`elsq_isa::etrc::FileTrace`) can rebuild identical streams from
// the spec recorded in a trace header; re-exported here for compatibility.
pub use elsq_isa::wrongpath::WrongPathSynth;

/// Default instruction footprint of one "program counter" step.
pub const PC_STEP: u64 = 4;

/// Tunable knobs shared by several generators.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixParams {
    /// Probability that a conditional branch is mispredicted.
    pub mispredict_rate: f64,
    /// Probability that a conditional branch is taken.
    pub taken_rate: f64,
    /// Probability of emitting a register-spill store + later reload pair
    /// around a block (drives close store→load forwarding).
    pub spill_rate: f64,
}

impl Default for MixParams {
    fn default() -> Self {
        Self {
            mispredict_rate: 0.02,
            taken_rate: 0.6,
            spill_rate: 0.05,
        }
    }
}

/// Emits instructions with monotonically increasing program counters.
#[derive(Debug, Clone)]
pub struct Emitter {
    pc: u64,
}

impl Emitter {
    /// Creates an emitter starting at `start_pc`.
    pub fn new(start_pc: u64) -> Self {
        Self { pc: start_pc }
    }

    fn step(&mut self) -> u64 {
        let pc = self.pc;
        self.pc += PC_STEP;
        pc
    }

    /// Current program counter (the next instruction's PC).
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Emits an ALU instruction of `class` writing `dst` from `srcs`.
    pub fn alu(&mut self, class: OpClass, dst: ArchReg, srcs: &[ArchReg]) -> DynInst {
        let mut b = InstBuilder::alu(self.step(), class).dst(dst);
        for &s in srcs.iter().take(2) {
            b = b.src(s);
        }
        b.build()
    }

    /// Emits a load of `size` bytes from `addr` into `dst`, whose address is
    /// computed from `addr_src`.
    pub fn load(&mut self, addr: u64, size: u8, dst: ArchReg, addr_src: ArchReg) -> DynInst {
        InstBuilder::load(self.step(), addr, size)
            .dst(dst)
            .src(addr_src)
            .build()
    }

    /// Emits a store of `size` bytes to `addr`, whose address comes from
    /// `addr_src` and whose data comes from `data_src`.
    pub fn store(&mut self, addr: u64, size: u8, addr_src: ArchReg, data_src: ArchReg) -> DynInst {
        InstBuilder::store(self.step(), addr, size)
            .src(addr_src)
            .src(data_src)
            .build()
    }

    /// Emits a conditional branch whose condition depends on `cond_src`,
    /// drawing the outcome and the misprediction from `rng` according to
    /// `params`.
    pub fn branch(&mut self, rng: &mut SmallRng, params: &MixParams, cond_src: ArchReg) -> DynInst {
        let pc = self.step();
        let taken = rng.gen_bool(params.taken_rate);
        let mispredicted = rng.gen_bool(params.mispredict_rate);
        InstBuilder::branch(pc, taken, mispredicted, pc.wrapping_add(64))
            .src(cond_src)
            .build()
    }
}

/// A source of basic blocks of dynamic instructions.
///
/// `Send` so any [`BlockTrace`] built from it satisfies the `TraceSource`
/// bound and can run on a suite-driver worker thread.
pub trait BlockSource: Send {
    /// Appends the next basic block to `sink`.
    fn fill(&mut self, sink: &mut Vec<DynInst>);
    /// Short name used in reports.
    fn label(&self) -> &str;
    /// Base and size of the region wrong-path loads should probe.
    fn wrong_path_region(&self) -> (u64, u64);
}

/// Adapts a [`BlockSource`] into an infinite [`TraceSource`], buffering one
/// block at a time and synthesizing wrong-path instructions on demand.
#[derive(Debug, Clone)]
pub struct BlockTrace<B> {
    source: B,
    buffer: VecDeque<DynInst>,
    scratch: Vec<DynInst>,
    wrong_path: WrongPathSynth,
}

/// Probability that a synthesized wrong-path instruction is a load; shared
/// by every [`BlockTrace`] so all generators' wrong-path mixes match.
const WRONG_PATH_LOAD_RATE: f64 = 0.25;

impl<B: BlockSource> BlockTrace<B> {
    /// Wraps `source`.
    pub fn new(source: B, seed: u64) -> Self {
        let (base, size) = source.wrong_path_region();
        Self {
            source,
            buffer: VecDeque::new(),
            scratch: Vec::new(),
            wrong_path: WrongPathSynth::new(seed, base, size, WRONG_PATH_LOAD_RATE),
        }
    }

    /// Access to the wrapped block source.
    pub fn source(&self) -> &B {
        &self.source
    }
}

impl<B: BlockSource> TraceSource for BlockTrace<B> {
    fn next_inst(&mut self) -> Option<DynInst> {
        while self.buffer.is_empty() {
            self.scratch.clear();
            self.source.fill(&mut self.scratch);
            assert!(
                !self.scratch.is_empty(),
                "block source {} produced an empty block",
                self.source.label()
            );
            self.buffer.extend(self.scratch.drain(..));
        }
        self.buffer.pop_front()
    }

    fn wrong_path_run(&mut self, pc: u64, max: u64) -> (u64, Option<DynInst>) {
        self.wrong_path.run(pc, max)
    }

    fn wrong_path_skip(&mut self, n: u64) {
        self.wrong_path.skip(n);
    }

    fn name(&self) -> &str {
        self.source.label()
    }

    fn wrong_path_spec(&self) -> Option<WrongPathSpec> {
        Some(self.wrong_path.spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    struct TwoInstBlock {
        emitter: Emitter,
    }

    impl BlockSource for TwoInstBlock {
        fn fill(&mut self, sink: &mut Vec<DynInst>) {
            sink.push(
                self.emitter
                    .alu(OpClass::IntAlu, ArchReg::int(1), &[ArchReg::int(1)]),
            );
            sink.push(
                self.emitter
                    .load(0x1000, 8, ArchReg::int(2), ArchReg::int(1)),
            );
        }
        fn label(&self) -> &str {
            "two-inst"
        }
        fn wrong_path_region(&self) -> (u64, u64) {
            (0x1000, 4096)
        }
    }

    #[test]
    fn emitter_advances_pc_and_builds_valid_insts() {
        let mut e = Emitter::new(0x400000);
        let mut rng = SmallRng::seed_from_u64(1);
        let params = MixParams::default();
        let a = e.alu(
            OpClass::FpMul,
            ArchReg::fp(1),
            &[ArchReg::fp(2), ArchReg::fp(3)],
        );
        let l = e.load(0x1234, 8, ArchReg::int(1), ArchReg::int(2));
        let s = e.store(0x1240, 8, ArchReg::int(2), ArchReg::fp(1));
        let b = e.branch(&mut rng, &params, ArchReg::int(1));
        assert!(a.pc < l.pc && l.pc < s.pc && s.pc < b.pc);
        assert!(a.validate().is_ok() && l.validate().is_ok());
        assert!(s.validate().is_ok() && b.validate().is_ok());
        assert_eq!(e.pc(), 0x400000 + 4 * PC_STEP);
    }

    #[test]
    fn block_trace_is_infinite_and_named() {
        let mut t = BlockTrace::new(
            TwoInstBlock {
                emitter: Emitter::new(0x1000),
            },
            9,
        );
        assert_eq!(t.name(), "two-inst");
        for _ in 0..100 {
            assert!(t.next_inst().is_some());
        }
        assert_eq!(t.source().label(), "two-inst");
    }

    #[test]
    fn wrong_path_instructions_are_marked_and_valid() {
        let mut wp = WrongPathSynth::new(3, 0x8000, 4096, 0.5);
        let mut saw_load = false;
        for i in 0..200 {
            let inst = wp.inst(0x100 + i * 4);
            assert!(inst.wrong_path);
            assert!(inst.validate().is_ok());
            if inst.is_load() {
                saw_load = true;
                let a = inst.mem_access().addr;
                assert!((0x8000..0x8000 + 4096).contains(&a));
            }
        }
        assert!(saw_load);
    }

    #[test]
    fn branch_rates_follow_params() {
        let mut e = Emitter::new(0);
        let mut rng = SmallRng::seed_from_u64(11);
        let params = MixParams {
            mispredict_rate: 0.5,
            taken_rate: 1.0,
            spill_rate: 0.0,
        };
        let n = 2000;
        let mut mispredicts = 0;
        for _ in 0..n {
            let b = e.branch(&mut rng, &params, ArchReg::int(1));
            let info = b.branch.unwrap();
            assert!(info.taken);
            if info.mispredicted {
                mispredicts += 1;
            }
        }
        let rate = mispredicts as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "observed mispredict rate {rate}");
    }
}
