//! Streaming floating-point workloads (swim / applu style).
//!
//! Several independent input arrays far larger than the L2 are walked
//! sequentially; floating-point arithmetic combines the loaded values and the
//! result streams to an output array. Address calculations depend only on
//! index registers (high locality) while the *data* misses the L2 constantly,
//! giving the abundant memory-level parallelism that lets a large window
//! roughly double performance over a 64-entry ROB (Figure 7, SPEC FP).

use rand::rngs::SmallRng;
use rand::SeedableRng;

use elsq_isa::{ArchReg, DynInst, OpClass};

use crate::mix::{BlockSource, BlockTrace, Emitter, MixParams};
use crate::regions::{RegionAllocator, StreamRegion};

/// Block source for the streaming FP workload family.
#[derive(Debug, Clone)]
pub struct StreamingFp {
    label: String,
    emitter: Emitter,
    rng: SmallRng,
    params: MixParams,
    inputs: Vec<StreamRegion>,
    output: StreamRegion,
    /// Emit a branch every `branch_period` blocks.
    branch_period: u32,
    blocks: u32,
}

impl StreamingFp {
    /// Creates a streaming workload with `num_streams` input arrays of
    /// `stream_bytes` each.
    pub fn new(label: &str, seed: u64, num_streams: usize, stream_bytes: u64) -> Self {
        let mut alloc = RegionAllocator::new();
        let inputs = (0..num_streams)
            .map(|_| StreamRegion::new(alloc.alloc(stream_bytes), stream_bytes, 8))
            .collect();
        let output = StreamRegion::new(alloc.alloc(stream_bytes), stream_bytes, 8);
        Self {
            label: label.to_owned(),
            emitter: Emitter::new(0x0040_0000),
            rng: SmallRng::seed_from_u64(seed),
            params: MixParams {
                mispredict_rate: 0.01,
                taken_rate: 0.95,
                spill_rate: 0.0,
            },
            inputs,
            output,
            branch_period: 4,
            blocks: 0,
        }
    }

    /// A swim-like configuration: three 16 MB streams.
    pub fn swim_like(seed: u64) -> BlockTrace<Self> {
        BlockTrace::new(Self::new("fp-stream-swim", seed, 3, 16 << 20), seed)
    }

    /// An applu-like configuration: five 8 MB streams.
    pub fn applu_like(seed: u64) -> BlockTrace<Self> {
        BlockTrace::new(Self::new("fp-stream-applu", seed, 5, 8 << 20), seed)
    }
}

impl BlockSource for StreamingFp {
    fn fill(&mut self, sink: &mut Vec<DynInst>) {
        // One loop iteration: bump each index, load each stream, combine with
        // FP arithmetic, store the result, occasionally branch on the loop
        // index (well predicted).
        let idx_out = ArchReg::int(1);
        for (i, stream) in self.inputs.iter_mut().enumerate() {
            let idx = ArchReg::int(2 + i as u8);
            let data = ArchReg::fp(1 + i as u8);
            sink.push(self.emitter.alu(OpClass::IntAlu, idx, &[idx]));
            sink.push(self.emitter.load(stream.next_addr(), 8, data, idx));
        }
        // Reduce the loaded values pairwise into f0.
        let acc = ArchReg::fp(0);
        sink.push(
            self.emitter
                .alu(OpClass::FpMul, acc, &[ArchReg::fp(1), ArchReg::fp(2)]),
        );
        for i in 2..self.inputs.len() {
            sink.push(
                self.emitter
                    .alu(OpClass::FpAlu, acc, &[acc, ArchReg::fp(1 + i as u8)]),
            );
        }
        sink.push(self.emitter.alu(OpClass::IntAlu, idx_out, &[idx_out]));
        sink.push(self.emitter.store(self.output.next_addr(), 8, idx_out, acc));
        self.blocks += 1;
        if self.blocks % self.branch_period == 0 {
            sink.push(self.emitter.branch(&mut self.rng, &self.params, idx_out));
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn wrong_path_region(&self) -> (u64, u64) {
        (self.output.peek() & !0xfff, 1 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsq_isa::TraceSource;

    #[test]
    fn instruction_mix_is_fp_like() {
        let mut t = StreamingFp::swim_like(1);
        let n = 20_000;
        let mut loads = 0usize;
        let mut stores = 0usize;
        let mut branches = 0usize;
        let mut mispredicts = 0usize;
        for _ in 0..n {
            let i = t.next_inst().unwrap();
            if i.is_load() {
                loads += 1;
            } else if i.is_store() {
                stores += 1;
            } else if i.is_branch() {
                branches += 1;
                if i.is_mispredicted_branch() {
                    mispredicts += 1;
                }
            }
        }
        let lf = loads as f64 / n as f64;
        let sf = stores as f64 / n as f64;
        let bf = branches as f64 / n as f64;
        assert!(lf > 0.2 && lf < 0.45, "load fraction {lf}");
        assert!(sf > 0.05 && sf < 0.2, "store fraction {sf}");
        assert!(bf < 0.1, "branch fraction {bf}");
        // FP code is well predicted.
        assert!(mispredicts as f64 <= 0.1 * branches as f64 + 5.0);
    }

    #[test]
    fn loads_walk_large_disjoint_regions() {
        let mut t = StreamingFp::applu_like(3);
        let mut min = u64::MAX;
        let mut max = 0u64;
        for _ in 0..50_000 {
            let i = t.next_inst().unwrap();
            if let Some(m) = i.mem {
                min = min.min(m.addr);
                max = max.max(m.addr);
            }
        }
        // The footprint spans far more than the 2 MB L2.
        assert!(max - min > 8 << 20, "footprint {} bytes", max - min);
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = StreamingFp::swim_like(7);
        let mut b = StreamingFp::swim_like(7);
        for _ in 0..1000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }
}
