//! Address-pattern building blocks shared by every workload generator.
//!
//! Each workload owns a handful of *regions* — disjoint chunks of the
//! virtual address space — and walks them with a pattern appropriate to the
//! code it mimics: sequential/strided streams, uniformly random probes or
//! pointer-chase chains whose next address is only known once the previous
//! element has been "loaded".

use rand::rngs::SmallRng;
use rand::Rng;

/// Base of the heap-like address range workloads allocate regions from.
pub const REGION_SPACE_BASE: u64 = 0x1000_0000;

/// Alignment/granularity of region placement.
pub const REGION_ALIGN: u64 = 0x100_0000;

/// Allocates disjoint region base addresses.
#[derive(Debug, Clone)]
pub struct RegionAllocator {
    next: u64,
}

impl RegionAllocator {
    /// Creates an allocator starting at [`REGION_SPACE_BASE`].
    pub fn new() -> Self {
        Self {
            next: REGION_SPACE_BASE,
        }
    }

    /// Reserves `bytes` of address space (rounded up to the region
    /// alignment) and returns its base address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        let span = bytes.div_ceil(REGION_ALIGN).max(1) * REGION_ALIGN;
        self.next += span;
        base
    }
}

impl Default for RegionAllocator {
    fn default() -> Self {
        Self::new()
    }
}

/// A sequential / strided stream over a region, wrapping at the end.
///
/// Models array traversals: the next address is always computable from an
/// index register, so address calculations have high locality even when the
/// data itself misses the caches.
#[derive(Debug, Clone)]
pub struct StreamRegion {
    base: u64,
    size: u64,
    stride: u64,
    offset: u64,
}

impl StreamRegion {
    /// Creates a stream over `size` bytes starting at `base`, advancing by
    /// `stride` bytes per access.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or `size < stride`.
    pub fn new(base: u64, size: u64, stride: u64) -> Self {
        assert!(stride > 0 && size >= stride, "invalid stream region");
        Self {
            base,
            size,
            stride,
            offset: 0,
        }
    }

    /// The next address in the stream.
    pub fn next_addr(&mut self) -> u64 {
        let addr = self.base + self.offset;
        self.offset = (self.offset + self.stride) % self.size;
        addr
    }

    /// Current address without advancing.
    pub fn peek(&self) -> u64 {
        self.base + self.offset
    }

    /// The working-set size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// Uniformly random probes into a region (hash tables, sparse matrices).
#[derive(Debug, Clone)]
pub struct RandomRegion {
    base: u64,
    size: u64,
    align: u64,
}

impl RandomRegion {
    /// Creates a random-probe region of `size` bytes with accesses aligned to
    /// `align` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two, or if `size < align`.
    pub fn new(base: u64, size: u64, align: u64) -> Self {
        assert!(
            align.is_power_of_two() && size >= align,
            "invalid random region"
        );
        Self { base, size, align }
    }

    /// Draws a random address in the region.
    pub fn next(&self, rng: &mut SmallRng) -> u64 {
        let slots = self.size / self.align;
        self.base + rng.gen_range(0..slots) * self.align
    }

    /// The working-set size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// A pointer-chase chain: each element's address is a pseudo-random function
/// of the previous element, mimicking a linked list whose next pointer is
/// only available after the previous load completes.
///
/// The chain is deterministic for a given seed, so the address sequence does
/// not depend on simulated data values (the simulator is timing-only); what
/// matters is that the *dependence structure* the workload generator emits
/// makes each chase load's address register the destination of the previous
/// chase load.
#[derive(Debug, Clone)]
pub struct ChaseRegion {
    base: u64,
    node_count: u64,
    node_bytes: u64,
    state: u64,
}

impl ChaseRegion {
    /// Creates a chain of `node_count` nodes of `node_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero or `node_bytes` is not a power of two.
    pub fn new(base: u64, node_count: u64, node_bytes: u64, seed: u64) -> Self {
        assert!(
            node_count > 0 && node_bytes.is_power_of_two(),
            "invalid chase region"
        );
        Self {
            base,
            node_count,
            node_bytes,
            state: seed | 1,
        }
    }

    /// Follows the chain one step and returns the next node's address.
    pub fn next_addr(&mut self) -> u64 {
        // xorshift64* walk over the node index space: uncorrelated with any
        // cache indexing yet fully deterministic.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let idx = (x.wrapping_mul(0x2545_F491_4F6C_DD1D)) % self.node_count;
        self.base + idx * self.node_bytes
    }

    /// The working-set size in bytes.
    pub fn size(&self) -> u64 {
        self.node_count * self.node_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn allocator_hands_out_disjoint_regions() {
        let mut a = RegionAllocator::new();
        let r1 = a.alloc(1024);
        let r2 = a.alloc(64 * 1024 * 1024);
        let r3 = a.alloc(1);
        assert!(r2 >= r1 + REGION_ALIGN);
        assert!(r3 >= r2 + 64 * 1024 * 1024);
    }

    #[test]
    fn stream_wraps_at_region_end() {
        let mut s = StreamRegion::new(0x1000, 64, 16);
        let addrs: Vec<u64> = (0..6).map(|_| s.next_addr()).collect();
        assert_eq!(addrs, vec![0x1000, 0x1010, 0x1020, 0x1030, 0x1000, 0x1010]);
        assert_eq!(s.peek(), 0x1020);
        assert_eq!(s.size(), 64);
    }

    #[test]
    fn random_region_stays_in_bounds_and_aligned() {
        let r = RandomRegion::new(0x2000, 4096, 8);
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let a = r.next(&mut rng);
            assert!((0x2000..0x2000 + 4096).contains(&a));
            assert_eq!(a % 8, 0);
        }
        assert_eq!(r.size(), 4096);
    }

    #[test]
    fn chase_region_is_deterministic_and_in_bounds() {
        let mut c1 = ChaseRegion::new(0x4000, 128, 64, 99);
        let mut c2 = ChaseRegion::new(0x4000, 128, 64, 99);
        for _ in 0..500 {
            let a = c1.next_addr();
            assert_eq!(a, c2.next_addr());
            assert!((0x4000..0x4000 + 128 * 64).contains(&a));
            assert_eq!(a % 64, 0);
        }
        assert_eq!(c1.size(), 128 * 64);
    }

    #[test]
    fn chase_visits_many_distinct_nodes() {
        let mut c = ChaseRegion::new(0, 1024, 64, 3);
        let distinct: std::collections::HashSet<u64> = (0..2000).map(|_| c.next_addr()).collect();
        assert!(
            distinct.len() > 500,
            "walk should cover a large fraction of nodes"
        );
    }

    #[test]
    #[should_panic(expected = "invalid stream region")]
    fn zero_stride_panics() {
        let _ = StreamRegion::new(0, 64, 0);
    }
}
