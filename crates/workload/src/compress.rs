//! Compression-style integer workload (gzip / bzip2 style).
//!
//! Sequential input bytes are read, looked up in a model table that mostly
//! fits in the L2, branched on (moderately mispredicted) and written to a
//! sequential output stream. Misses are rarer than in the pointer-chase and
//! hash workloads, so this benchmark leans on the high-locality machinery.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use elsq_isa::{ArchReg, DynInst, OpClass};

use crate::mix::{BlockSource, BlockTrace, Emitter, MixParams};
use crate::regions::{RandomRegion, RegionAllocator, StreamRegion};

/// Block source for the compression-style integer workload.
#[derive(Debug, Clone)]
pub struct CompressInt {
    emitter: Emitter,
    rng: SmallRng,
    params: MixParams,
    input: StreamRegion,
    model: RandomRegion,
    output: StreamRegion,
    stack: StreamRegion,
    blocks: u32,
}

impl CompressInt {
    /// Creates a compressor reading `input_bytes` with a `model_bytes` model
    /// table.
    pub fn new(seed: u64, input_bytes: u64, model_bytes: u64) -> Self {
        let mut alloc = RegionAllocator::new();
        Self {
            emitter: Emitter::new(0x0200_0000),
            rng: SmallRng::seed_from_u64(seed),
            params: MixParams {
                mispredict_rate: 0.08,
                taken_rate: 0.65,
                spill_rate: 0.2,
            },
            input: StreamRegion::new(alloc.alloc(input_bytes), input_bytes, 8),
            model: RandomRegion::new(alloc.alloc(model_bytes), model_bytes, 8),
            output: StreamRegion::new(alloc.alloc(input_bytes), input_bytes, 8),
            stack: StreamRegion::new(alloc.alloc(64 << 10), 8 << 10, 8),
            blocks: 0,
        }
    }

    /// A bzip2-like configuration: 16 MB of input, a 1 MB model.
    pub fn bzip2_like(seed: u64) -> BlockTrace<Self> {
        BlockTrace::new(Self::new(seed, 16 << 20, 1 << 20), seed)
    }
}

impl BlockSource for CompressInt {
    fn fill(&mut self, sink: &mut Vec<DynInst>) {
        let ii = ArchReg::int(20);
        let sym = ArchReg::int(21);
        let code = ArchReg::int(22);
        let io = ArchReg::int(23);
        let sp = ArchReg::int(30);
        sink.push(self.emitter.alu(OpClass::IntAlu, ii, &[ii]));
        sink.push(self.emitter.load(self.input.next_addr(), 8, sym, ii));
        // Model lookup indexed by (a hash of) the symbol: the lookup address
        // depends on the loaded symbol, but the model mostly hits in L2.
        sink.push(self.emitter.alu(OpClass::IntAlu, sym, &[sym]));
        let slot = self.model.next(&mut self.rng);
        sink.push(self.emitter.load(slot, 8, code, sym));
        sink.push(self.emitter.branch(&mut self.rng, &self.params, code));
        sink.push(self.emitter.alu(OpClass::IntAlu, io, &[io]));
        sink.push(self.emitter.store(self.output.next_addr(), 8, io, code));
        if self.rng.gen_bool(self.params.spill_rate) {
            let s = self.stack.next_addr();
            sink.push(self.emitter.store(s, 8, sp, code));
            sink.push(self.emitter.load(s, 8, ArchReg::int(24), sp));
        }
        self.blocks += 1;
    }

    fn label(&self) -> &str {
        "int-compress-bzip2"
    }

    fn wrong_path_region(&self) -> (u64, u64) {
        (self.stack.peek() & !0xfff, 64 << 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsq_isa::TraceSource;

    #[test]
    fn model_lookups_depend_on_input_loads() {
        let mut t = CompressInt::bzip2_like(1);
        let sym = ArchReg::int(21);
        let mut dependent = 0usize;
        for _ in 0..5_000 {
            let i = t.next_inst().unwrap();
            if i.is_load() && i.sources().any(|s| s == sym) {
                dependent += 1;
            }
        }
        assert!(dependent > 200);
    }

    #[test]
    fn mix_is_store_heavy_relative_to_fp() {
        let mut t = CompressInt::bzip2_like(5);
        let n = 20_000;
        let stores = (0..n).filter(|_| t.next_inst().unwrap().is_store()).count();
        let frac = stores as f64 / n as f64;
        assert!(frac > 0.1, "store fraction {frac}");
    }

    #[test]
    fn determinism() {
        let mut a = CompressInt::bzip2_like(3);
        let mut b = CompressInt::bzip2_like(3);
        for _ in 0..2000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }
}
