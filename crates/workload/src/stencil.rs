//! Stencil and irregular-gather floating-point workloads.
//!
//! * [`StencilFp`] (mgrid-like): sweeps a grid reading a few neighbouring
//!   points per output element. Spatial locality keeps most accesses in the
//!   caches; periodic new lines miss the L2.
//! * [`IrregularFp`] (equake `smvp()`-like): a sparse-matrix style gather in
//!   which the *address* of the value load comes from an index previously
//!   loaded from memory. When the index load misses the L2, the data load's
//!   address calculation — and occasionally a store's — becomes
//!   miss-dependent, which is exactly the behaviour that punishes the
//!   restricted LAC/SAC models in Figure 9.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use elsq_isa::{ArchReg, DynInst, OpClass};

use crate::mix::{BlockSource, BlockTrace, Emitter, MixParams};
use crate::regions::{ChaseRegion, RegionAllocator, StreamRegion};

/// Block source for the stencil (mgrid-like) workload.
#[derive(Debug, Clone)]
pub struct StencilFp {
    emitter: Emitter,
    rng: SmallRng,
    params: MixParams,
    grid: StreamRegion,
    out: StreamRegion,
    row_bytes: u64,
    blocks: u32,
}

impl StencilFp {
    /// Creates a stencil sweep over a grid of `grid_bytes` with rows of
    /// `row_bytes`.
    pub fn new(seed: u64, grid_bytes: u64, row_bytes: u64) -> Self {
        let mut alloc = RegionAllocator::new();
        Self {
            emitter: Emitter::new(0x0080_0000),
            rng: SmallRng::seed_from_u64(seed),
            params: MixParams {
                mispredict_rate: 0.01,
                taken_rate: 0.9,
                spill_rate: 0.0,
            },
            grid: StreamRegion::new(alloc.alloc(grid_bytes), grid_bytes, 8),
            out: StreamRegion::new(alloc.alloc(grid_bytes), grid_bytes, 8),
            row_bytes,
            blocks: 0,
        }
    }

    /// An mgrid-like configuration: an 8 MB grid with 4 KB rows.
    pub fn mgrid_like(seed: u64) -> BlockTrace<Self> {
        BlockTrace::new(Self::new(seed, 8 << 20, 4096), seed)
    }
}

impl BlockSource for StencilFp {
    fn fill(&mut self, sink: &mut Vec<DynInst>) {
        let idx = ArchReg::int(1);
        let center = self.grid.next_addr();
        sink.push(self.emitter.alu(OpClass::IntAlu, idx, &[idx]));
        // Three-point stencil: centre, previous row, next row.
        let points = [
            center,
            center.wrapping_sub(self.row_bytes),
            center + self.row_bytes,
        ];
        for (i, &addr) in points.iter().enumerate() {
            let addr = addr.max(self.grid.peek() & !0xffff);
            sink.push(self.emitter.load(addr, 8, ArchReg::fp(1 + i as u8), idx));
        }
        let acc = ArchReg::fp(0);
        sink.push(
            self.emitter
                .alu(OpClass::FpAlu, acc, &[ArchReg::fp(1), ArchReg::fp(2)]),
        );
        sink.push(
            self.emitter
                .alu(OpClass::FpMul, acc, &[acc, ArchReg::fp(3)]),
        );
        sink.push(self.emitter.store(self.out.next_addr(), 8, idx, acc));
        self.blocks += 1;
        if self.blocks % 8 == 0 {
            sink.push(self.emitter.branch(&mut self.rng, &self.params, idx));
        }
    }

    fn label(&self) -> &str {
        "fp-stencil-mgrid"
    }

    fn wrong_path_region(&self) -> (u64, u64) {
        (self.grid.peek() & !0xfff, 1 << 20)
    }
}

/// Block source for the irregular indexed-gather FP workload (equake-like).
#[derive(Debug, Clone)]
pub struct IrregularFp {
    emitter: Emitter,
    rng: SmallRng,
    params: MixParams,
    index_chase: ChaseRegion,
    values: StreamRegion,
    out: StreamRegion,
    blocks: u32,
}

impl IrregularFp {
    /// Creates an irregular gather over `value_bytes` of data driven by an
    /// index structure of `index_bytes`.
    pub fn new(seed: u64, index_bytes: u64, value_bytes: u64) -> Self {
        let mut alloc = RegionAllocator::new();
        let index_base = alloc.alloc(index_bytes);
        Self {
            emitter: Emitter::new(0x00c0_0000),
            rng: SmallRng::seed_from_u64(seed),
            params: MixParams {
                mispredict_rate: 0.02,
                taken_rate: 0.85,
                spill_rate: 0.0,
            },
            index_chase: ChaseRegion::new(index_base, index_bytes / 64, 64, seed | 1),
            values: StreamRegion::new(alloc.alloc(value_bytes), value_bytes, 8),
            out: StreamRegion::new(alloc.alloc(value_bytes), value_bytes, 8),
            blocks: 0,
        }
    }

    /// An equake-like configuration: 16 MB of indices driving 16 MB of values.
    pub fn equake_like(seed: u64) -> BlockTrace<Self> {
        BlockTrace::new(Self::new(seed, 16 << 20, 16 << 20), seed)
    }
}

impl BlockSource for IrregularFp {
    fn fill(&mut self, sink: &mut Vec<DynInst>) {
        let ptr = ArchReg::int(4);
        let idx_out = ArchReg::int(5);
        // Pointer-style index load: the next index address depends on the
        // previously loaded index (multilevel dereferencing as in smvp()).
        let index_addr = self.index_chase.next_addr();
        sink.push(self.emitter.load(index_addr, 8, ptr, ptr));
        // The value load's *address* depends on the just-loaded index.
        let value_addr = self.values.next_addr();
        sink.push(self.emitter.load(value_addr, 8, ArchReg::fp(1), ptr));
        sink.push(self.emitter.alu(
            OpClass::FpMul,
            ArchReg::fp(0),
            &[ArchReg::fp(0), ArchReg::fp(1)],
        ));
        sink.push(self.emitter.alu(OpClass::IntAlu, idx_out, &[idx_out]));
        // Half the stores are scatter stores whose address also depends on
        // the loaded index; the rest stream to the output array.
        self.blocks += 1;
        if self.blocks % 2 == 0 {
            sink.push(
                self.emitter
                    .store(value_addr ^ 0x40, 8, ptr, ArchReg::fp(0)),
            );
        } else {
            sink.push(
                self.emitter
                    .store(self.out.next_addr(), 8, idx_out, ArchReg::fp(0)),
            );
        }
        if self.blocks % 6 == 0 {
            sink.push(self.emitter.branch(&mut self.rng, &self.params, idx_out));
        }
    }

    fn label(&self) -> &str {
        "fp-irregular-equake"
    }

    fn wrong_path_region(&self) -> (u64, u64) {
        (self.values.peek() & !0xfff, 1 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elsq_isa::TraceSource;

    #[test]
    fn stencil_has_spatial_locality() {
        let mut t = StencilFp::mgrid_like(2);
        let mut line_reuse = 0usize;
        let mut loads = 0usize;
        let mut last_lines: Vec<u64> = Vec::new();
        for _ in 0..20_000 {
            let i = t.next_inst().unwrap();
            if let Some(m) = i.mem {
                if i.is_load() {
                    loads += 1;
                    let line = m.addr / 64;
                    if last_lines.contains(&line) {
                        line_reuse += 1;
                    }
                    last_lines.push(line);
                    if last_lines.len() > 32 {
                        last_lines.remove(0);
                    }
                }
            }
        }
        // A meaningful fraction of loads re-touch recently used lines.
        assert!(line_reuse as f64 / loads as f64 > 0.2);
    }

    #[test]
    fn irregular_value_loads_depend_on_index_loads() {
        let mut t = IrregularFp::equake_like(5);
        let ptr = ArchReg::int(4);
        let mut dependent_loads = 0usize;
        let mut loads = 0usize;
        for _ in 0..10_000 {
            let i = t.next_inst().unwrap();
            if i.is_load() {
                loads += 1;
                if i.sources().any(|s| s == ptr) {
                    dependent_loads += 1;
                }
            }
        }
        // Both the index load and the value load name the pointer register.
        assert!(dependent_loads as f64 / loads as f64 > 0.9);
    }

    #[test]
    fn irregular_has_dependent_store_addresses() {
        let mut t = IrregularFp::equake_like(6);
        let ptr = ArchReg::int(4);
        let mut dep_stores = 0usize;
        let mut stores = 0usize;
        for _ in 0..10_000 {
            let i = t.next_inst().unwrap();
            if i.is_store() {
                stores += 1;
                if i.sources().any(|s| s == ptr) {
                    dep_stores += 1;
                }
            }
        }
        let frac = dep_stores as f64 / stores as f64;
        assert!(frac > 0.3 && frac < 0.7, "dependent store fraction {frac}");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(StencilFp::mgrid_like(0).name(), "fp-stencil-mgrid");
        assert_eq!(IrregularFp::equake_like(0).name(), "fp-irregular-equake");
    }
}
