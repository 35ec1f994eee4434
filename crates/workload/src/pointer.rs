//! Pointer-chasing integer workloads (mcf / parser style).
//!
//! A linked structure far larger than the L2 is traversed; each chase load's
//! address register is the destination of the previous chase load, so when a
//! node misses the L2 the *next* address calculation is miss-dependent. This
//! is the behaviour that produces the long tail of the decode→address
//! calculation distribution for loads in Figure 1 and the serial (low-MLP)
//! misses that cap the large-window speed-up for SPEC INT.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use elsq_isa::{ArchReg, DynInst, OpClass};

use crate::mix::{BlockSource, BlockTrace, Emitter, MixParams};
use crate::regions::{ChaseRegion, RegionAllocator, StreamRegion};

/// Block source for the pointer-chasing integer workload family.
#[derive(Debug, Clone)]
pub struct PointerChaseInt {
    label: String,
    emitter: Emitter,
    rng: SmallRng,
    params: MixParams,
    chase: ChaseRegion,
    stack: StreamRegion,
    /// Probability of storing to the visited node (address depends on the
    /// chased pointer, i.e. a low-locality store address calculation).
    node_store_rate: f64,
    blocks: u32,
}

impl PointerChaseInt {
    /// Creates a pointer chase over `heap_bytes` of 64-byte nodes.
    pub fn new(
        label: &str,
        seed: u64,
        heap_bytes: u64,
        params: MixParams,
        node_store_rate: f64,
    ) -> Self {
        let mut alloc = RegionAllocator::new();
        let heap = alloc.alloc(heap_bytes);
        Self {
            label: label.to_owned(),
            emitter: Emitter::new(0x0140_0000),
            rng: SmallRng::seed_from_u64(seed),
            params,
            chase: ChaseRegion::new(heap, heap_bytes / 64, 64, seed | 3),
            stack: StreamRegion::new(alloc.alloc(64 << 10), 8 << 10, 8),
            node_store_rate,
            blocks: 0,
        }
    }

    /// An mcf-like configuration: a 32 MB working set, moderate branches.
    pub fn mcf_like(seed: u64) -> BlockTrace<Self> {
        BlockTrace::new(
            Self::new(
                "int-chase-mcf",
                seed,
                32 << 20,
                MixParams {
                    mispredict_rate: 0.06,
                    taken_rate: 0.7,
                    spill_rate: 0.1,
                },
                0.15,
            ),
            seed,
        )
    }

    /// A parser-like configuration: an 8 MB working set, branchier code and
    /// more spill/reload traffic.
    pub fn parser_like(seed: u64) -> BlockTrace<Self> {
        BlockTrace::new(
            Self::new(
                "int-chase-parser",
                seed,
                8 << 20,
                MixParams {
                    mispredict_rate: 0.09,
                    taken_rate: 0.6,
                    spill_rate: 0.25,
                },
                0.1,
            ),
            seed,
        )
    }
}

impl BlockSource for PointerChaseInt {
    fn fill(&mut self, sink: &mut Vec<DynInst>) {
        let ptr = ArchReg::int(6);
        let val = ArchReg::int(7);
        let sp = ArchReg::int(30);
        // Chase: the next pointer load depends on the previous one.
        let node = self.chase.next_addr();
        sink.push(self.emitter.load(node, 8, ptr, ptr));
        // Work on the node's payload.
        sink.push(self.emitter.load(node + 8, 8, val, ptr));
        sink.push(self.emitter.alu(OpClass::IntAlu, val, &[val, ptr]));
        // Occasionally update the node in place: a store whose address
        // depends on the (possibly missing) pointer.
        if self.rng.gen_bool(self.node_store_rate) {
            sink.push(self.emitter.store(node + 16, 8, ptr, val));
        }
        // Register spill/reload: a store closely followed by a reload of the
        // same stack slot — the close store→load forwarding pairs that local
        // (single-epoch) disambiguation captures.
        if self.rng.gen_bool(self.params.spill_rate) {
            let slot = self.stack.next_addr();
            sink.push(self.emitter.store(slot, 8, sp, val));
            sink.push(self.emitter.alu(OpClass::IntAlu, sp, &[sp]));
            sink.push(self.emitter.load(slot, 8, ArchReg::int(8), sp));
        }
        // The loop branch depends on the loaded value: it resolves only once
        // the (frequently missing) load returns.
        self.blocks += 1;
        if self.blocks % 2 == 0 {
            sink.push(self.emitter.branch(&mut self.rng, &self.params, val));
        }
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
    fn chase_loads_are_self_dependent() {
        let mut t = PointerChaseInt::mcf_like(1);
        let ptr = ArchReg::int(6);
        let mut chase_loads = 0usize;
        let mut loads = 0usize;
        for _ in 0..20_000 {
            let i = t.next_inst().unwrap();
            if i.is_load() {
                loads += 1;
                if i.dst == Some(ptr) && i.sources().any(|s| s == ptr) {
                    chase_loads += 1;
                }
            }
        }
        let frac = chase_loads as f64 / loads as f64;
        assert!(frac > 0.3, "chase load fraction {frac}");
    }

    #[test]
    fn spill_reload_pairs_hit_same_address() {
        let mut t = PointerChaseInt::parser_like(2);
        let mut pending_store: Option<u64> = None;
        let mut reload_hits = 0usize;
        let mut spills = 0usize;
        for _ in 0..50_000 {
            let i = t.next_inst().unwrap();
            if i.is_store() && i.mem_access().addr < 0x1200_0000 + (64 << 20) {
                // Stack stores live in the second allocated region; track the
                // most recent one.
                pending_store = Some(i.mem_access().addr);
                spills += 1;
            } else if i.is_load() {
                if let Some(a) = pending_store {
                    if i.mem_access().addr == a {
                        reload_hits += 1;
                        pending_store = None;
                    }
                }
            }
        }
        assert!(spills > 0);
        assert!(reload_hits > 0, "expected some store→load reload pairs");
    }

    #[test]
    fn int_mix_is_branchier_than_fp() {
        let mut t = PointerChaseInt::mcf_like(9);
        let n = 20_000;
        let mut branches = 0usize;
        let mut mispredicts = 0usize;
        for _ in 0..n {
            let i = t.next_inst().unwrap();
            if i.is_branch() {
                branches += 1;
                if i.is_mispredicted_branch() {
                    mispredicts += 1;
                }
            }
        }
        assert!(branches as f64 / n as f64 > 0.05);
        assert!(mispredicts > 0);
    }

    #[test]
    fn working_set_exceeds_l2() {
        let mut t = PointerChaseInt::mcf_like(3);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        let mut lines = std::collections::HashSet::new();
        for _ in 0..100_000 {
            let i = t.next_inst().unwrap();
            if let Some(m) = i.mem {
                lines.insert(m.addr / 64);
                lo = lo.min(m.addr);
                hi = hi.max(m.addr);
            }
        }
        // The chase nodes are spread over a region far larger than the 2 MB
        // L2, and the walk touches many distinct lines.
        assert!(hi - lo > 16 << 20, "address span too small: {}", hi - lo);
        assert!(lines.len() > 10_000, "only {} distinct lines", lines.len());
    }
}
