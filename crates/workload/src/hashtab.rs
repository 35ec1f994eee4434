//! Hash-table probing integer workloads (vpr / gcc style).
//!
//! Each block computes a hash from an index register (fast, high-locality
//! address calculation), probes a table that may or may not fit in the L2,
//! branches on the loaded value (mispredicted fairly often, and resolving
//! only after the probe returns) and occasionally updates the bucket.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use elsq_isa::{ArchReg, DynInst, OpClass};

use crate::mix::{BlockSource, BlockTrace, Emitter, MixParams};
use crate::regions::{RandomRegion, RegionAllocator, StreamRegion};

/// Block source for the hash-table integer workload family.
#[derive(Debug, Clone)]
pub struct HashTableInt {
    label: String,
    emitter: Emitter,
    rng: SmallRng,
    params: MixParams,
    table: RandomRegion,
    stack: StreamRegion,
    store_rate: f64,
    blocks: u32,
}

impl HashTableInt {
    /// Creates a hash-table prober over `table_bytes`.
    pub fn new(
        label: &str,
        seed: u64,
        table_bytes: u64,
        params: MixParams,
        store_rate: f64,
    ) -> Self {
        let mut alloc = RegionAllocator::new();
        Self {
            label: label.to_owned(),
            emitter: Emitter::new(0x0180_0000),
            rng: SmallRng::seed_from_u64(seed),
            params,
            table: RandomRegion::new(alloc.alloc(table_bytes), table_bytes, 8),
            stack: StreamRegion::new(alloc.alloc(64 << 10), 8 << 10, 8),
            store_rate,
            blocks: 0,
        }
    }

    /// A vpr-like configuration: a 16 MB table, 7 % mispredicts.
    pub fn vpr_like(seed: u64) -> BlockTrace<Self> {
        BlockTrace::new(
            Self::new(
                "int-hash-vpr",
                seed,
                16 << 20,
                MixParams {
                    mispredict_rate: 0.07,
                    taken_rate: 0.55,
                    spill_rate: 0.15,
                },
                0.2,
            ),
            seed,
        )
    }

    /// A gcc-like configuration: a 4 MB table, very branchy code.
    pub fn gcc_like(seed: u64) -> BlockTrace<Self> {
        BlockTrace::new(
            Self::new(
                "int-hash-gcc",
                seed,
                4 << 20,
                MixParams {
                    mispredict_rate: 0.1,
                    taken_rate: 0.6,
                    spill_rate: 0.3,
                },
                0.15,
            ),
            seed,
        )
    }
}

impl BlockSource for HashTableInt {
    fn fill(&mut self, sink: &mut Vec<DynInst>) {
        let idx = ArchReg::int(10);
        let hash = ArchReg::int(11);
        let val = ArchReg::int(12);
        let sp = ArchReg::int(30);
        // Hash computation: a couple of ALU ops on the index register.
        sink.push(self.emitter.alu(OpClass::IntAlu, idx, &[idx]));
        sink.push(self.emitter.alu(OpClass::IntAlu, hash, &[idx]));
        sink.push(self.emitter.alu(OpClass::IntAlu, hash, &[hash, idx]));
        // Probe.
        let slot = self.table.next(&mut self.rng);
        sink.push(self.emitter.load(slot, 8, val, hash));
        // Compare-and-branch on the probed value.
        sink.push(self.emitter.alu(OpClass::IntAlu, val, &[val, idx]));
        sink.push(self.emitter.branch(&mut self.rng, &self.params, val));
        // Occasionally update the bucket.
        if self.rng.gen_bool(self.store_rate) {
            sink.push(self.emitter.store(slot, 8, hash, val));
        }
        // Spill/reload traffic.
        if self.rng.gen_bool(self.params.spill_rate) {
            let s = self.stack.next_addr();
            sink.push(self.emitter.store(s, 8, sp, val));
            sink.push(self.emitter.load(s, 8, ArchReg::int(13), sp));
        }
        self.blocks += 1;
    }

    fn label(&self) -> &str {
        &self.label
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
    fn probes_are_spread_over_the_table() {
        let mut t = HashTableInt::vpr_like(1);
        let mut lines = std::collections::HashSet::new();
        for _ in 0..50_000 {
            let i = t.next_inst().unwrap();
            if i.is_load() {
                lines.insert(i.mem_access().addr / 64);
            }
        }
        assert!(
            lines.len() > 1000,
            "only {} distinct lines probed",
            lines.len()
        );
    }

    #[test]
    fn branch_rate_and_mispredicts_are_int_like() {
        let mut t = HashTableInt::gcc_like(2);
        let n = 30_000;
        let mut branches = 0usize;
        let mut mispredicted = 0usize;
        for _ in 0..n {
            let i = t.next_inst().unwrap();
            if i.is_branch() {
                branches += 1;
                if i.is_mispredicted_branch() {
                    mispredicted += 1;
                }
            }
        }
        let bf = branches as f64 / n as f64;
        assert!(bf > 0.08, "branch fraction {bf}");
        let mr = mispredicted as f64 / branches as f64;
        assert!(mr > 0.05 && mr < 0.2, "mispredict rate {mr}");
    }

    #[test]
    fn load_addresses_come_from_alu_results() {
        let mut t = HashTableInt::vpr_like(7);
        let hash = ArchReg::int(11);
        let mut probe_loads = 0usize;
        for _ in 0..5_000 {
            let i = t.next_inst().unwrap();
            if i.is_load() && i.sources().any(|s| s == hash) {
                probe_loads += 1;
            }
        }
        assert!(probe_loads > 100);
    }
}
