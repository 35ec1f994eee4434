//! Merge/sort integer workload (vortex / twolf style).
//!
//! Two sequential input streams are read, compared (a data-dependent branch
//! with a high misprediction rate — the comparison outcome is essentially
//! random) and one element is written to a sequential output stream.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use elsq_isa::{ArchReg, DynInst, OpClass};

use crate::mix::{BlockSource, BlockTrace, Emitter, MixParams};
use crate::regions::{RegionAllocator, StreamRegion};

/// Block source for the merge-sort integer workload.
#[derive(Debug, Clone)]
pub struct SortMergeInt {
    emitter: Emitter,
    rng: SmallRng,
    params: MixParams,
    left: StreamRegion,
    right: StreamRegion,
    out: StreamRegion,
    blocks: u32,
}

impl SortMergeInt {
    /// Creates a merge over two input streams of `stream_bytes` each.
    pub fn new(seed: u64, stream_bytes: u64) -> Self {
        let mut alloc = RegionAllocator::new();
        Self {
            emitter: Emitter::new(0x01c0_0000),
            rng: SmallRng::seed_from_u64(seed),
            params: MixParams {
                mispredict_rate: 0.15,
                taken_rate: 0.5,
                spill_rate: 0.1,
            },
            left: StreamRegion::new(alloc.alloc(stream_bytes), stream_bytes, 8),
            right: StreamRegion::new(alloc.alloc(stream_bytes), stream_bytes, 8),
            out: StreamRegion::new(alloc.alloc(2 * stream_bytes), 2 * stream_bytes, 8),
            blocks: 0,
        }
    }

    /// A vortex-like configuration: two 8 MB input streams.
    pub fn vortex_like(seed: u64) -> BlockTrace<Self> {
        BlockTrace::new(Self::new(seed, 8 << 20), seed)
    }
}

impl BlockSource for SortMergeInt {
    fn fill(&mut self, sink: &mut Vec<DynInst>) {
        let il = ArchReg::int(14);
        let ir = ArchReg::int(15);
        let io = ArchReg::int(16);
        let vl = ArchReg::int(17);
        let vr = ArchReg::int(18);
        sink.push(self.emitter.alu(OpClass::IntAlu, il, &[il]));
        sink.push(self.emitter.alu(OpClass::IntAlu, ir, &[ir]));
        sink.push(self.emitter.load(self.left.next_addr(), 8, vl, il));
        sink.push(self.emitter.load(self.right.next_addr(), 8, vr, ir));
        // The comparison outcome depends on both loaded values.
        sink.push(self.emitter.alu(OpClass::IntAlu, vl, &[vl, vr]));
        sink.push(self.emitter.branch(&mut self.rng, &self.params, vl));
        sink.push(self.emitter.alu(OpClass::IntAlu, io, &[io]));
        // Write whichever element "won" the comparison.
        let winner = if self.rng.gen_bool(0.5) { vl } else { vr };
        sink.push(self.emitter.store(self.out.next_addr(), 8, io, winner));
        self.blocks += 1;
    }

    fn label(&self) -> &str {
        "int-merge-vortex"
    }

    fn wrong_path_region(&self) -> (u64, u64) {
        (self.out.peek() & !0xfff, 1 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsq_isa::TraceSource;

    #[test]
    fn mix_has_loads_stores_and_frequent_branches() {
        let mut t = SortMergeInt::vortex_like(1);
        let n = 16_000;
        let (mut l, mut s, mut b) = (0usize, 0usize, 0usize);
        for _ in 0..n {
            let i = t.next_inst().unwrap();
            if i.is_load() {
                l += 1;
            } else if i.is_store() {
                s += 1;
            } else if i.is_branch() {
                b += 1;
            }
        }
        assert!(l as f64 / n as f64 > 0.2);
        assert!(s as f64 / n as f64 > 0.08);
        assert!(b as f64 / n as f64 > 0.1);
    }

    #[test]
    fn output_addresses_are_sequential() {
        let mut t = SortMergeInt::vortex_like(2);
        let mut prev: Option<u64> = None;
        let mut monotone = 0usize;
        let mut stores = 0usize;
        for _ in 0..10_000 {
            let i = t.next_inst().unwrap();
            if i.is_store() {
                let a = i.mem_access().addr;
                if let Some(p) = prev {
                    if a > p {
                        monotone += 1;
                    }
                }
                prev = Some(a);
                stores += 1;
            }
        }
        assert!(monotone as f64 / stores as f64 > 0.95);
    }
}
