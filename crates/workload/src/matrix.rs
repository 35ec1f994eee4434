//! Blocked dense-matrix floating-point workload (facerec / fma3d style).
//!
//! The inner loop re-uses a cache-resident block many times, then advances to
//! the next block with a burst of L2 misses. This produces phased behaviour:
//! long high-locality stretches punctuated by short low-locality episodes,
//! which is what makes the Memory Processor idle a large fraction of the time
//! (Figure 11).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use elsq_isa::{ArchReg, DynInst, OpClass};

use crate::mix::{BlockSource, BlockTrace, Emitter, MixParams};
use crate::regions::{RegionAllocator, StreamRegion};

/// Block source for the blocked matrix workload.
#[derive(Debug, Clone)]
pub struct MatrixBlockFp {
    emitter: Emitter,
    rng: SmallRng,
    params: MixParams,
    matrix: StreamRegion,
    block_base: u64,
    block_bytes: u64,
    reuse_per_block: u32,
    reuse_left: u32,
    out: StreamRegion,
    blocks: u32,
}

impl MatrixBlockFp {
    /// Creates a blocked sweep over `matrix_bytes` with cache-resident blocks
    /// of `block_bytes`, each reused `reuse_per_block` times before moving on.
    pub fn new(seed: u64, matrix_bytes: u64, block_bytes: u64, reuse_per_block: u32) -> Self {
        let mut alloc = RegionAllocator::new();
        let matrix = StreamRegion::new(alloc.alloc(matrix_bytes), matrix_bytes, block_bytes);
        Self {
            emitter: Emitter::new(0x0100_0000),
            rng: SmallRng::seed_from_u64(seed),
            params: MixParams {
                mispredict_rate: 0.01,
                taken_rate: 0.9,
                spill_rate: 0.0,
            },
            block_base: matrix.peek(),
            matrix,
            block_bytes,
            reuse_per_block,
            reuse_left: reuse_per_block,
            out: StreamRegion::new(alloc.alloc(matrix_bytes / 4), matrix_bytes / 4, 8),
            blocks: 0,
        }
    }

    /// A facerec-like configuration: a 32 MB matrix in 4 KB blocks reused
    /// 256 times each.
    pub fn facerec_like(seed: u64) -> BlockTrace<Self> {
        BlockTrace::new(Self::new(seed, 32 << 20, 4 << 10, 256), seed)
    }
}

impl BlockSource for MatrixBlockFp {
    fn fill(&mut self, sink: &mut Vec<DynInst>) {
        if self.reuse_left == 0 {
            self.block_base = self.matrix.next_addr();
            self.reuse_left = self.reuse_per_block;
        }
        self.reuse_left -= 1;
        let idx = ArchReg::int(1);
        sink.push(self.emitter.alu(OpClass::IntAlu, idx, &[idx]));
        // Two loads inside the current (cache-resident after first touch)
        // block, one multiply-accumulate, occasional store of the accumulator.
        for k in 0..2 {
            let off = self.rng.gen_range(0..self.block_bytes / 8) * 8;
            sink.push(
                self.emitter
                    .load(self.block_base + off, 8, ArchReg::fp(1 + k), idx),
            );
        }
        sink.push(self.emitter.alu(
            OpClass::FpMul,
            ArchReg::fp(3),
            &[ArchReg::fp(1), ArchReg::fp(2)],
        ));
        sink.push(self.emitter.alu(
            OpClass::FpAlu,
            ArchReg::fp(0),
            &[ArchReg::fp(0), ArchReg::fp(3)],
        ));
        self.blocks += 1;
        if self.blocks % 4 == 0 {
            sink.push(
                self.emitter
                    .store(self.out.next_addr(), 8, idx, ArchReg::fp(0)),
            );
        }
        if self.blocks % 8 == 0 {
            sink.push(self.emitter.branch(&mut self.rng, &self.params, idx));
        }
    }

    fn label(&self) -> &str {
        "fp-matrix-facerec"
    }

    fn wrong_path_region(&self) -> (u64, u64) {
        (self.block_base, self.block_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsq_isa::TraceSource;
    use std::collections::HashSet;

    #[test]
    fn loads_reuse_blocks_before_moving_on() {
        let mut t = MatrixBlockFp::facerec_like(4);
        let mut lines = HashSet::new();
        let mut loads = 0usize;
        for _ in 0..30_000 {
            let i = t.next_inst().unwrap();
            if i.is_load() {
                loads += 1;
                lines.insert(i.mem_access().addr / 64);
            }
        }
        // Far fewer distinct lines than loads: the block is being reused.
        assert!(
            lines.len() * 4 < loads,
            "{} lines for {loads} loads",
            lines.len()
        );
    }

    #[test]
    fn determinism() {
        let mut a = MatrixBlockFp::facerec_like(11);
        let mut b = MatrixBlockFp::facerec_like(11);
        for _ in 0..2000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    #[test]
    fn store_fraction_is_modest() {
        let mut t = MatrixBlockFp::facerec_like(8);
        let n = 20_000;
        let stores = (0..n).filter(|_| t.next_inst().unwrap().is_store()).count();
        let frac = stores as f64 / n as f64;
        assert!(frac > 0.01 && frac < 0.1, "store fraction {frac}");
    }
}
