//! Cache port arbitration.
//!
//! Table 1 gives the data cache 2 read/write ports. The processor models use
//! [`PortSchedule`] to find the earliest cycle at which a memory operation
//! can actually access the cache, which naturally serializes bursts of loads
//! and the commit-time store traffic as well as SVW re-executions (whose
//! extra cache pressure is one of the paper's arguments against re-execution
//! in large windows, Section 5.6).
//!
//! The per-cycle usage counts live in a power-of-two ring of `u8`: cycle `c`
//! is slot `c & mask`, and the schedule tracks the window `base..base +
//! span`. The ring keeps one invariant: every slot outside that window is
//! zero. [`PortSchedule::retire_before`] restores it by zeroing the retired
//! slots with slice fills, so extending the window over a later cycle writes
//! nothing — the slots it claims already read "free". Growth doubles the
//! ring and re-places the live slots. Reservation scans, which walk cycle by
//! cycle from `earliest` until a free slot appears, are sequential array
//! reads. The reservation policy (first cycle `>= max(earliest, base)` with
//! a free port) is that of the original map-based scheduler, kept in the
//! tests as the reference, so granted cycles are byte-identical to it.
//!
//! On top of the ring, the schedule memoizes the most recent run of cycles
//! it has *observed fully used*. Usage counts only ever grow (reservations
//! add, [`PortSchedule::retire_before`] merely forgets the past), so a cycle
//! once seen full stays full, and a probe landing inside the memoized run
//! can jump straight past it. This turns the wrong-path fetch pattern —
//! up to a thousand probes of the *same* blocked cycle per mispredicted
//! branch, each of which would otherwise rescan the ever-longer saturated
//! prefix — from quadratic in the burst length into amortized O(1), without
//! changing a single granted cycle.
//!
//! Two bulk operations serve those bursts: [`PortSchedule::free_before`]
//! counts, without reserving, how many probes of one cycle would be granted
//! before a deadline, and [`PortSchedule::reserve_n`] makes `n` such
//! reservations in one forward pass. The common probe, one that lands on a
//! free slot inside the window and leaves it free, is answered inline
//! without the memo.
//!
//! Commit and the in-order Memory Engines need none of this: their grants
//! never go backwards, so an [`InOrderPort`] (the cycle of the latest grant
//! and how many grants it holds) is the whole schedule.

/// Ring size of a fresh schedule; growth doubles it.
const INITIAL_RING: usize = 64;

/// Tracks per-cycle usage of a structure with a fixed number of ports and
/// hands out reservations at the earliest available cycle.
#[derive(Debug, Clone)]
pub struct PortSchedule {
    ports: u8,
    /// Usage count of cycle `c` at slot `c & mask` for `c` in `base..base +
    /// span`; every other slot is zero.
    used: Vec<u8>,
    /// `used.len() - 1`; the length is a power of two.
    mask: u64,
    /// First tracked cycle. Cycles below it are pruned and reservations are
    /// never granted there.
    base: u64,
    /// Number of tracked cycles (at most `used.len()`): cycles at or past
    /// `base + span` are free.
    span: u64,
    /// Start of the most recently observed run of fully used cycles.
    full_from: u64,
    /// One past the end of that run: every cycle in `full_from..full_until`
    /// had all ports taken when last scanned, and counts never decrease.
    full_until: u64,
}

impl PortSchedule {
    /// Creates a schedule with `ports` available slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero or above 255 (usage counts are `u8`).
    pub fn new(ports: u32) -> Self {
        assert!(ports > 0, "a port schedule needs at least one port");
        let ports = u8::try_from(ports).expect("a port schedule has at most 255 ports");
        Self {
            ports,
            used: vec![0; INITIAL_RING],
            mask: INITIAL_RING as u64 - 1,
            base: 0,
            span: 0,
            full_from: 0,
            full_until: 0,
        }
    }

    /// Reserves a port at the earliest cycle `>= earliest` and returns that
    /// cycle.
    #[inline]
    pub fn reserve(&mut self, earliest: u64) -> u64 {
        // A free slot inside the window that this grant does not fill: the
        // scan would stop at once and leave the memo as it is. A cycle of
        // the memoized run is full, so it never passes this test.
        let cycle = earliest.max(self.base);
        if cycle - self.base < self.span {
            let slot = self.slot(cycle);
            if self.used[slot] < self.ports - 1 {
                self.used[slot] += 1;
                return cycle;
            }
        }
        self.reserve_by_scan(earliest)
    }

    /// [`PortSchedule::reserve`] by the scan from the first probe, which
    /// maintains the full-run memo.
    fn reserve_by_scan(&mut self, earliest: u64) -> u64 {
        let mut cycle = self.first_probe(earliest);
        let scan_start = cycle;
        let granted_fills = loop {
            let slot = self.claim(cycle);
            if self.used[slot] < self.ports {
                self.used[slot] += 1;
                break self.used[slot] == self.ports;
            }
            cycle += 1;
        };
        // Cycles `scan_start..cycle` were observed full, and the grant may
        // have filled `cycle` itself; fold that run into the memo.
        self.note_full(scan_start, if granted_fills { cycle + 1 } else { cycle });
        cycle
    }

    /// Makes `n` reservations at `earliest`: the same grants, in the same
    /// order, as `n` calls of [`PortSchedule::reserve`], filling forward
    /// cycle by cycle.
    pub fn reserve_n(&mut self, earliest: u64, n: u64) {
        if n == 0 {
            return;
        }
        let mut cycle = self.first_probe(earliest);
        let scan_start = cycle;
        let mut left = n;
        let last_fills = loop {
            let slot = self.claim(cycle);
            let take = u64::from(self.ports - self.used[slot]).min(left);
            // `take` is at most the free port count, which fits a `u8`.
            self.used[slot] += take as u8;
            left -= take;
            if left == 0 {
                break self.used[slot] == self.ports;
            }
            cycle += 1;
        };
        self.note_full(scan_start, if last_fills { cycle + 1 } else { cycle });
    }

    /// How many reservations at `earliest` would be granted before cycle
    /// `before`, counting at most `cap`. Reads the schedule without
    /// changing it: `free_before(e, b, cap)` calls of `reserve(e)` would
    /// all land below `b`, and (when the count is under `cap`) the next
    /// would not.
    pub fn free_before(&self, earliest: u64, before: u64, cap: u64) -> u64 {
        let ports = u64::from(self.ports);
        let mut cycle = self.first_probe(earliest);
        let mut free = 0u64;
        while cycle < before && free < cap {
            if cycle - self.base >= self.span {
                // Past the window every cycle is wholly free.
                free = free.saturating_add((before - cycle).saturating_mul(ports));
                break;
            }
            free += ports - u64::from(self.used[self.slot(cycle)]);
            cycle += 1;
        }
        free.min(cap)
    }

    /// Advances the pruning horizon: bookkeeping for cycles before `cycle`
    /// is discarded and no reservation will ever be granted before it.
    pub fn retire_before(&mut self, cycle: u64) {
        if cycle <= self.base {
            return;
        }
        let retired = (cycle - self.base).min(self.span);
        // Zero the retired slots — at most two contiguous runs of the ring —
        // so every slot outside the window reads free again.
        let start = self.slot(self.base);
        let retired = retired as usize;
        let head = retired.min(self.used.len() - start);
        self.used[start..start + head].fill(0);
        self.used[..retired - head].fill(0);
        self.span -= retired as u64;
        self.base = cycle;
    }

    /// Number of slots in the ring: a power of two at least as large as
    /// the tracked window, which `retire_before` keeps from growing.
    pub fn ring_len(&self) -> usize {
        self.used.len()
    }

    /// First cycle a probe at `earliest` examines: never below `base`, and
    /// past the memoized full run when it lands inside it.
    fn first_probe(&self, earliest: u64) -> u64 {
        let cycle = earliest.max(self.base);
        if cycle >= self.full_from && cycle < self.full_until {
            self.full_until
        } else {
            cycle
        }
    }

    #[inline]
    fn slot(&self, cycle: u64) -> usize {
        (cycle & self.mask) as usize
    }

    /// The slot of `cycle`, extending the window to cover it. The slots the
    /// window gains are zero by the ring invariant, so nothing is written
    /// unless the ring has to grow.
    #[inline]
    fn claim(&mut self, cycle: u64) -> usize {
        let offset = cycle - self.base;
        if offset >= self.span {
            if offset >= self.used.len() as u64 {
                self.grow(offset + 1);
            }
            self.span = offset + 1;
        }
        self.slot(cycle)
    }

    /// Re-places the window into a ring of at least `min_len` slots, at
    /// least twice the current size.
    fn grow(&mut self, min_len: u64) {
        let min_len = usize::try_from(min_len).expect("port schedule window fits in memory");
        let len = min_len.next_power_of_two().max(2 * self.used.len());
        let mask = len as u64 - 1;
        let mut ring = vec![0; len];
        // Copy the window in runs that wrap in neither ring (at most three).
        let (mut cycle, end) = (self.base, self.base + self.span);
        while cycle < end {
            let (from, to) = (self.slot(cycle), (cycle & mask) as usize);
            let n = ((end - cycle) as usize)
                .min(self.used.len() - from)
                .min(len - to);
            ring[to..to + n].copy_from_slice(&self.used[from..from + n]);
            cycle += n as u64;
        }
        self.used = ring;
        self.mask = mask;
    }

    /// Folds the observed-full run `from..until` into the memo.
    fn note_full(&mut self, from: u64, until: u64) {
        if until <= from {
            return;
        }
        if from <= self.full_until && until >= self.full_from {
            self.full_from = self.full_from.min(from);
            self.full_until = self.full_until.max(until);
        } else {
            self.full_from = from;
            self.full_until = until;
        }
    }
}

/// A port whose grants never go backwards: each reservation lands at or
/// after the previous grant, so the schedule is the cycle of the latest
/// grant and how many grants that cycle holds. Commit (each probe is at or
/// after the last commit cycle, itself at or after every earlier grant) and
/// the in-order Memory Engines use it in place of a [`PortSchedule`]. For
/// probes that never decrease it grants what a [`PortSchedule`] would.
#[derive(Debug, Clone, Copy)]
pub struct InOrderPort {
    width: u32,
    /// Cycle of the latest grant.
    cycle: u64,
    /// Grants made at `cycle`.
    count: u32,
}

impl InOrderPort {
    /// A port granting up to `width` reservations per cycle, none made yet.
    pub fn new(width: u32) -> Self {
        Self {
            width,
            cycle: 0,
            count: 0,
        }
    }

    /// Reserves the port at the first cycle at or after both `earliest`
    /// and the latest grant that has a free slot, and returns that cycle.
    #[inline]
    pub fn reserve(&mut self, earliest: u64) -> u64 {
        if earliest > self.cycle {
            self.cycle = earliest;
            self.count = 1;
        } else if self.count < self.width {
            self.count += 1;
        } else {
            self.cycle += 1;
            self.count = 1;
        }
        self.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PortSchedule {
        /// Returns how many ports are free at `cycle` (0 if fully used).
        fn free_at(&self, cycle: u64) -> u32 {
            if cycle < self.base {
                return 0;
            }
            let used = if cycle - self.base < self.span {
                self.used[self.slot(cycle)]
            } else {
                0
            };
            u32::from(self.ports - used)
        }
    }

    #[test]
    fn reservations_fill_cycles_in_order() {
        let mut p = PortSchedule::new(2);
        assert_eq!(p.reserve(10), 10);
        assert_eq!(p.reserve(10), 10);
        assert_eq!(p.reserve(10), 11);
        assert_eq!(p.free_at(10), 0);
        assert_eq!(p.free_at(11), 1);
        assert_eq!(p.free_at(12), 2);
    }

    #[test]
    fn reserve_respects_earliest() {
        let mut p = PortSchedule::new(1);
        assert_eq!(p.reserve(5), 5);
        assert_eq!(p.reserve(3), 3);
        assert_eq!(p.reserve(3), 4);
        assert_eq!(p.reserve(3), 6);
    }

    #[test]
    fn retire_prunes_and_prevents_past_reservations() {
        let mut p = PortSchedule::new(1);
        p.reserve(1);
        p.reserve(2);
        p.retire_before(100);
        assert_eq!(p.reserve(5), 100);
        // The window restarts at the horizon, so cycle 100 fits the
        // initial ring instead of growing it past cycle 0.
        assert_eq!(p.ring_len(), INITIAL_RING);
    }

    #[test]
    fn retire_keeps_future_reservations() {
        let mut p = PortSchedule::new(1);
        p.reserve(5);
        p.reserve(50);
        p.retire_before(10);
        assert_eq!(p.free_at(50), 0);
        assert_eq!(p.free_at(5), 0, "pruned cycles are never grantable");
        assert_eq!(p.reserve(50), 51);
        // A lower horizon is a no-op.
        p.retire_before(3);
        assert_eq!(p.reserve(0), 10);
        // Without the retirement, cycle `INITIAL_RING + 9` would lie past
        // the initial ring; from base 10 it still fits.
        p.reserve(INITIAL_RING as u64 + 9);
        assert_eq!(p.ring_len(), INITIAL_RING);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_panics() {
        let _ = PortSchedule::new(0);
    }

    /// The original map-based scheduler, kept as the behavioral reference:
    /// no full-run memo, no ring, just the linear scan.
    #[derive(Clone)]
    struct NaiveSchedule {
        ports: u32,
        used: std::collections::BTreeMap<u64, u32>,
        horizon: u64,
    }

    impl NaiveSchedule {
        fn new(ports: u32) -> Self {
            Self {
                ports,
                used: std::collections::BTreeMap::new(),
                horizon: 0,
            }
        }

        fn reserve(&mut self, earliest: u64) -> u64 {
            let mut cycle = earliest.max(self.horizon);
            loop {
                let count = self.used.entry(cycle).or_insert(0);
                if *count < self.ports {
                    *count += 1;
                    return cycle;
                }
                cycle += 1;
            }
        }

        fn free_at(&self, cycle: u64) -> u32 {
            if cycle < self.horizon {
                return 0;
            }
            self.ports - self.used.get(&cycle).copied().unwrap_or(0)
        }

        /// How many grants at `earliest` land below `before`, by making
        /// them on a copy.
        fn grants_before(&self, earliest: u64, before: u64, cap: u64) -> u64 {
            let mut copy = self.clone();
            let mut count = 0;
            while count < cap && copy.reserve(earliest) < before {
                count += 1;
            }
            count
        }

        fn retire_before(&mut self, cycle: u64) {
            if cycle <= self.horizon {
                return;
            }
            self.horizon = cycle;
            self.used = self.used.split_off(&cycle);
        }
    }

    #[test]
    fn memoized_grants_match_the_naive_reference() {
        // A deterministic mixed op sequence, heavy on the wrong-path burst
        // pattern (many probes of one earliest cycle) that the memo exists
        // for, interleaved with jumps, probes back into the window (most of
        // which take the inline fast path: a free slot the grant leaves
        // free), bulk reservations, read-only grant counts and horizon
        // advances. Deep jumps outrun the ring and force it to grow; the
        // horizon advancing past ring-sized spans makes later cycles wrap
        // onto slots that earlier ones retired.
        let mut fast_path_grants = 0;
        for ports in [1u32, 2, 4] {
            let mut fast = PortSchedule::new(ports);
            let mut naive = NaiveSchedule::new(ports);
            let mut state = 0x1234_5678_9abc_def0u64 ^ u64::from(ports);
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut earliest = 0u64;
            for op in 0..20_000 {
                let mut probe = earliest;
                match rng() % 18 {
                    // Burst probe: same earliest, the saturating pattern.
                    0..=7 => {}
                    // A probe up to 40 cycles back, as the issue and cache
                    // ports see from operands that were ready early.
                    16 | 17 => {
                        probe = earliest.saturating_sub(rng() % 40);
                        let at = probe.max(fast.base);
                        if at - fast.base < fast.span && fast.free_at(at) >= 2 {
                            fast_path_grants += 1;
                        }
                    }
                    // Jump forward up to 200 cycles.
                    8 | 9 => earliest += rng() % 200,
                    // Jump past the ring's current size.
                    10 => earliest += 1_000 + rng() % 5_000,
                    // Advance the horizon like the periodic prune does.
                    11 | 12 => {
                        let h = earliest.saturating_sub(rng() % 50);
                        fast.retire_before(h);
                        naive.retire_before(h);
                        continue;
                    }
                    // A bulk reservation equals that many single ones.
                    13 => {
                        let n = rng() % 40;
                        fast.reserve_n(earliest, n);
                        for _ in 0..n {
                            naive.reserve(earliest);
                        }
                    }
                    // The read-only count matches the grants it predicts.
                    _ => {
                        let before = earliest + rng() % 300;
                        let cap = rng() % 600;
                        assert_eq!(
                            fast.free_before(earliest, before, cap),
                            naive.grants_before(earliest, before, cap),
                            "free_before diverged at op {op} (ports={ports})"
                        );
                        continue;
                    }
                }
                assert_eq!(
                    fast.reserve(probe),
                    naive.reserve(probe),
                    "grant diverged at op {op} (ports={ports})"
                );
                for cycle in earliest.saturating_sub(4)..earliest + 12 {
                    assert_eq!(
                        fast.free_at(cycle),
                        naive.free_at(cycle),
                        "free_at({cycle}) diverged at op {op} (ports={ports})"
                    );
                }
            }
        }
        assert!(
            fast_path_grants > 200,
            "only {fast_path_grants} probes took the fast path"
        );
    }

    /// The Memory Engine's issue port before [`InOrderPort`]: the cycle of
    /// the latest grant and its grant count, updated inline.
    fn tuple_port_reserve(port: &mut (u64, u32), width: u32, earliest: u64) -> u64 {
        let mut issue = earliest.max(port.0);
        if issue == port.0 && port.1 >= width {
            issue += 1;
        }
        if issue == port.0 {
            port.1 += 1;
        } else {
            *port = (issue, 1);
        }
        issue
    }

    #[test]
    fn in_order_port_matches_the_tuple_logic_and_the_naive_schedule() {
        for width in [1u32, 2, 4] {
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ u64::from(width);
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // Random probes, backwards ones included: the tuple logic.
            let mut port = InOrderPort::new(width);
            let mut tuple = (0u64, 0u32);
            let mut earliest = 0u64;
            for op in 0..20_000 {
                earliest = match rng() % 4 {
                    0 => earliest.saturating_sub(rng() % 30),
                    1 => earliest + rng() % 30,
                    _ => earliest,
                };
                assert_eq!(
                    port.reserve(earliest),
                    tuple_port_reserve(&mut tuple, width, earliest),
                    "tuple logic diverged at op {op} (width={width})"
                );
            }
            // Non-decreasing probes: every grant a schedule would make.
            let mut port = InOrderPort::new(width);
            let mut naive = NaiveSchedule::new(width);
            let mut earliest = 0u64;
            for op in 0..20_000 {
                if rng() % 3 == 0 {
                    earliest += rng() % 8;
                }
                assert_eq!(
                    port.reserve(earliest),
                    naive.reserve(earliest),
                    "naive schedule diverged at op {op} (width={width})"
                );
            }
        }
    }

    #[test]
    fn growth_keeps_a_window_that_wraps_the_ring() {
        // Put the live window across the initial ring's wrap point, then
        // force growth: every re-placed count must survive the move.
        let mut p = PortSchedule::new(2);
        let start = INITIAL_RING as u64 - 4;
        p.retire_before(start);
        for _ in 0..16 {
            p.reserve(start);
        }
        p.reserve(start + 10 * INITIAL_RING as u64);
        for cycle in start..start + 8 {
            assert_eq!(p.free_at(cycle), 0, "cycle {cycle} lost its grants");
        }
        assert_eq!(p.free_at(start + 8), 2);
        assert_eq!(p.reserve(start), start + 8);
    }

    #[test]
    fn saturating_burst_is_not_quadratic() {
        // 4096 probes of the same cycle must complete without rescanning
        // the saturated prefix: every grant lands exactly one slot after
        // the previous, which the memo answers in O(1).
        let mut p = PortSchedule::new(2);
        for i in 0..4096u64 {
            assert_eq!(p.reserve(100), 100 + i / 2);
        }
    }

    #[test]
    fn single_port_serializes() {
        let mut p = PortSchedule::new(1);
        let cycles: Vec<u64> = (0..5).map(|_| p.reserve(0)).collect();
        assert_eq!(cycles, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn burst_from_same_cycle_spreads_forward() {
        // The wrong-path fetch pattern: many reservations probing the same
        // earliest cycle must fill consecutive cycles at `ports` per cycle.
        let mut p = PortSchedule::new(4);
        let mut granted = Vec::new();
        for _ in 0..64 {
            granted.push(p.reserve(1000));
        }
        for (i, cycle) in granted.iter().enumerate() {
            assert_eq!(*cycle, 1000 + (i as u64) / 4);
        }
    }
}
