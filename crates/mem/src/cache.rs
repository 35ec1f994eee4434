//! Set-associative cache with LRU replacement and line locking.
//!
//! Line locking exists to support the line-based Epoch Resolution Table
//! (Section 3.4 of the paper): any L1 line referenced by an address-known
//! low-locality memory instruction must remain resident until the owning
//! epoch commits, because the ERT bit-vectors are attached to cache lines.
//! The replacement policy therefore never evicts a locked line; if every way
//! of a set is locked the requester must either stall (HL→LL insertion) or
//! squash (LL issue), which the ELSQ model decides.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Static configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Access latency in cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// The paper's default L1: 32 KB, 4-way, 32-byte lines, 1 cycle.
    pub fn default_l1() -> Self {
        Self {
            size_bytes: 32 * 1024,
            assoc: 4,
            line_bytes: 32,
            latency: 1,
        }
    }

    /// The paper's default L2: 2 MB, 4-way, 10 cycles.
    pub fn default_l2() -> Self {
        Self {
            size_bytes: 2 * 1024 * 1024,
            assoc: 4,
            line_bytes: 64,
            latency: 10,
        }
    }

    /// Number of sets implied by the configuration.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.assoc as u64)
    }

    /// Validates that the configuration is internally consistent.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes == 0 {
            return Err(CacheConfigError::LineSizeNotPowerOfTwo(self.line_bytes));
        }
        if self.assoc == 0 {
            return Err(CacheConfigError::ZeroAssociativity);
        }
        if self.size_bytes % (self.line_bytes * self.assoc as u64) != 0 {
            return Err(CacheConfigError::SizeNotDivisible {
                size: self.size_bytes,
                line: self.line_bytes,
                assoc: self.assoc,
            });
        }
        let sets = self.num_sets();
        if sets == 0 || !sets.is_power_of_two() {
            return Err(CacheConfigError::SetsNotPowerOfTwo(sets));
        }
        Ok(())
    }
}

/// Error for inconsistent [`CacheConfig`] values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheConfigError {
    /// The line size is not a power of two.
    LineSizeNotPowerOfTwo(u64),
    /// Associativity of zero.
    ZeroAssociativity,
    /// Capacity is not a multiple of `line_bytes * assoc`.
    SizeNotDivisible {
        /// Capacity in bytes.
        size: u64,
        /// Line size in bytes.
        line: u64,
        /// Associativity.
        assoc: u32,
    },
    /// The resulting number of sets is not a power of two.
    SetsNotPowerOfTwo(u64),
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::LineSizeNotPowerOfTwo(l) => {
                write!(f, "line size {l} is not a power of two")
            }
            CacheConfigError::ZeroAssociativity => write!(f, "associativity must be at least 1"),
            CacheConfigError::SizeNotDivisible { size, line, assoc } => write!(
                f,
                "cache size {size} is not divisible by line size {line} x associativity {assoc}"
            ),
            CacheConfigError::SetsNotPowerOfTwo(s) => {
                write!(f, "number of sets {s} is not a power of two")
            }
        }
    }
}

impl std::error::Error for CacheConfigError {}

/// Outcome of a [`SetAssocCache::lock_line`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The line is resident (was already present or was allocated) and is now
    /// locked.
    Locked,
    /// The line was already locked (lock count incremented).
    AlreadyLocked,
    /// Every way of the set is locked by other lines; the line cannot be
    /// brought in without breaking the ERT invariant.
    SetFull,
}

/// Per-cache hit/miss statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Lines evicted by replacement.
    pub evictions: u64,
    /// Lock requests that failed because the whole set was locked.
    pub lock_set_full: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    /// LRU timestamp: larger is more recently used.
    lru: u64,
    /// Number of outstanding locks (an epoch may lock the same line for
    /// several of its memory instructions).
    locks: u32,
    dirty: bool,
}

/// A set-associative, write-allocate cache with LRU replacement that skips
/// locked lines.
///
/// The cache tracks only tags and metadata (no data), which is all a timing
/// model needs. All ways live in one set-major vector — set `s` is
/// `lines[s * assoc..(s + 1) * assoc]` — and set and tag come from shifts
/// and masks, which [`CacheConfig::validate`]'s power-of-two checks allow.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    lines: Vec<Option<Line>>,
    line_shift: u32,
    set_shift: u32,
    set_mask: u64,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid cache configuration");
        let sets = config.num_sets();
        Self {
            config,
            lines: vec![None; config.assoc as usize * sets as usize],
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets - 1,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (used between warm-up and measurement phases).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The ways of the set `addr` maps to, and its tag.
    fn set_and_tag(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line_addr = addr >> self.line_shift;
        let ways = self.config.assoc as usize;
        let start = (line_addr & self.set_mask) as usize * ways;
        (start..start + ways, line_addr >> self.set_shift)
    }

    /// Looks up `addr` without modifying the cache state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.lines[set].iter().flatten().any(|line| line.tag == tag)
    }

    /// Whether the line containing `addr` is currently locked.
    pub fn is_locked(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.lines[set]
            .iter()
            .flatten()
            .any(|line| line.tag == tag && line.locks > 0)
    }

    /// Accesses `addr`, allocating the line on a miss (write-allocate for
    /// both loads and stores). Returns `true` on a hit.
    ///
    /// On a miss, the LRU unlocked line of the set is replaced; if every way
    /// is locked the line is *not* allocated (the access still completes from
    /// the next level, it just cannot be cached) and the miss is counted.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set_and_tag(addr);
        let ways = &mut self.lines[set];
        if let Some(line) = ways.iter_mut().flatten().find(|l| l.tag == tag) {
            line.lru = tick;
            line.dirty |= is_write;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        // Allocate: empty way first, else LRU among unlocked ways.
        if let Some(slot) = ways.iter_mut().find(|w| w.is_none()) {
            *slot = Some(Line {
                tag,
                lru: tick,
                locks: 0,
                dirty: is_write,
            });
            return false;
        }
        let victim = ways
            .iter_mut()
            .filter(|w| w.as_ref().is_some_and(|l| l.locks == 0))
            .min_by_key(|w| w.as_ref().map(|l| l.lru).unwrap_or(u64::MAX));
        if let Some(slot) = victim {
            self.stats.evictions += 1;
            *slot = Some(Line {
                tag,
                lru: tick,
                locks: 0,
                dirty: is_write,
            });
        }
        false
    }

    /// Brings the line containing `addr` into the cache (if possible) and
    /// locks it so it cannot be replaced until unlocked.
    ///
    /// Used by the line-based ERT when a low-locality memory instruction's
    /// address becomes known. Locks nest: each successful call must be
    /// balanced by one [`SetAssocCache::unlock_line`].
    pub fn lock_line(&mut self, addr: u64) -> LockOutcome {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.set_and_tag(addr);
        let ways = &mut self.lines[set];
        if let Some(line) = ways.iter_mut().flatten().find(|l| l.tag == tag) {
            line.lru = tick;
            let outcome = if line.locks > 0 {
                LockOutcome::AlreadyLocked
            } else {
                LockOutcome::Locked
            };
            line.locks += 1;
            return outcome;
        }
        // Need to allocate the line first.
        if let Some(slot) = ways.iter_mut().find(|w| w.is_none()) {
            *slot = Some(Line {
                tag,
                lru: tick,
                locks: 1,
                dirty: false,
            });
            return LockOutcome::Locked;
        }
        let victim = ways
            .iter_mut()
            .filter(|w| w.as_ref().is_some_and(|l| l.locks == 0))
            .min_by_key(|w| w.as_ref().map(|l| l.lru).unwrap_or(u64::MAX));
        match victim {
            Some(slot) => {
                self.stats.evictions += 1;
                *slot = Some(Line {
                    tag,
                    lru: tick,
                    locks: 1,
                    dirty: false,
                });
                LockOutcome::Locked
            }
            None => {
                self.stats.lock_set_full += 1;
                LockOutcome::SetFull
            }
        }
    }

    /// Releases one lock on the line containing `addr`.
    ///
    /// Unlocking an address whose line is not resident or not locked is a
    /// no-op: an epoch squash may unlock lines that were already evicted by a
    /// competing squash path, and treating that as fatal would make recovery
    /// order-dependent.
    pub fn unlock_line(&mut self, addr: u64) {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(line) = self.lines[set]
            .iter_mut()
            .flatten()
            .find(|l| l.tag == tag && l.locks > 0)
        {
            line.locks -= 1;
        }
    }

    /// Number of currently locked lines (across all sets).
    pub fn locked_lines(&self) -> usize {
        self.lines.iter().flatten().filter(|l| l.locks > 0).count()
    }

    /// Invalidates the whole cache contents but keeps statistics.
    pub fn flush(&mut self) {
        self.lines.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(assoc: u32) -> SetAssocCache {
        // 4 sets x `assoc` ways x 32-byte lines.
        SetAssocCache::new(CacheConfig {
            size_bytes: 4 * assoc as u64 * 32,
            assoc,
            line_bytes: 32,
            latency: 1,
        })
    }

    #[test]
    fn default_configs_are_valid() {
        assert!(CacheConfig::default_l1().validate().is_ok());
        assert!(CacheConfig::default_l2().validate().is_ok());
        assert_eq!(CacheConfig::default_l1().num_sets(), 256);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad_line = CacheConfig {
            line_bytes: 48,
            ..CacheConfig::default_l1()
        };
        assert!(matches!(
            bad_line.validate(),
            Err(CacheConfigError::LineSizeNotPowerOfTwo(48))
        ));
        let zero_assoc = CacheConfig {
            assoc: 0,
            ..CacheConfig::default_l1()
        };
        assert_eq!(
            zero_assoc.validate(),
            Err(CacheConfigError::ZeroAssociativity)
        );
        let bad_size = CacheConfig {
            size_bytes: 1000,
            ..CacheConfig::default_l1()
        };
        assert!(bad_size.validate().is_err());
    }

    #[test]
    fn hit_after_miss() {
        let mut c = small_cache(2);
        assert!(!c.access(0x100, false));
        assert!(c.access(0x100, false));
        assert!(c.access(0x11f, false)); // same 32-byte line
        assert!(!c.access(0x120, false)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_replacement_evicts_oldest() {
        let mut c = small_cache(2);
        // All map to set 0: line address multiples of num_sets(=4) * 32 = 128.
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // touch A so B becomes LRU
        c.access(0x100, false); // evicts B
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn locked_lines_are_never_evicted() {
        let mut c = small_cache(2);
        assert_eq!(c.lock_line(0x000), LockOutcome::Locked);
        c.access(0x080, false);
        c.access(0x100, false); // must evict 0x080, not the locked 0x000
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert_eq!(c.locked_lines(), 1);
    }

    #[test]
    fn set_full_when_all_ways_locked() {
        let mut c = small_cache(2);
        assert_eq!(c.lock_line(0x000), LockOutcome::Locked);
        assert_eq!(c.lock_line(0x080), LockOutcome::Locked);
        assert_eq!(c.lock_line(0x100), LockOutcome::SetFull);
        assert_eq!(c.stats().lock_set_full, 1);
        // Unlocking one way makes room again.
        c.unlock_line(0x000);
        assert_eq!(c.lock_line(0x100), LockOutcome::Locked);
    }

    #[test]
    fn nested_locks_require_matching_unlocks() {
        let mut c = small_cache(2);
        assert_eq!(c.lock_line(0x000), LockOutcome::Locked);
        assert_eq!(c.lock_line(0x000), LockOutcome::AlreadyLocked);
        c.unlock_line(0x000);
        assert!(c.is_locked(0x000));
        c.unlock_line(0x000);
        assert!(!c.is_locked(0x000));
        // Unlocking an unlocked / absent line is a no-op.
        c.unlock_line(0x000);
        c.unlock_line(0xdead_0000);
    }

    #[test]
    fn flush_clears_contents_but_not_stats() {
        let mut c = small_cache(2);
        c.access(0x40, true);
        c.flush();
        assert!(!c.probe(0x40));
        assert_eq!(c.stats().misses, 1);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn miss_ratio() {
        let mut c = small_cache(4);
        for i in 0..8u64 {
            c.access(i * 32, false);
        }
        for i in 0..8u64 {
            c.access(i * 32, false);
        }
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    /// The nested-`Vec` layout the flat one replaced, kept as the
    /// reference: one `Vec` of ways per set, set and tag by division.
    struct NestedCache {
        config: CacheConfig,
        sets: Vec<Vec<Option<Line>>>,
        tick: u64,
        stats: CacheStats,
    }

    impl NestedCache {
        fn new(config: CacheConfig) -> Self {
            Self {
                config,
                sets: vec![vec![None; config.assoc as usize]; config.num_sets() as usize],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn set_and_tag(&self, addr: u64) -> (usize, u64) {
            let line_addr = addr / self.config.line_bytes;
            let set = (line_addr % self.config.num_sets()) as usize;
            (set, line_addr / self.config.num_sets())
        }

        fn probe(&self, addr: u64) -> bool {
            let (set, tag) = self.set_and_tag(addr);
            self.sets[set].iter().flatten().any(|line| line.tag == tag)
        }

        fn is_locked(&self, addr: u64) -> bool {
            let (set, tag) = self.set_and_tag(addr);
            self.sets[set]
                .iter()
                .flatten()
                .any(|line| line.tag == tag && line.locks > 0)
        }

        /// Allocates `tag` in `set` (empty way first, else the LRU unlocked
        /// way); `false` when every way is locked.
        fn allocate(&mut self, set: usize, line: Line) -> bool {
            let ways = &mut self.sets[set];
            if let Some(slot) = ways.iter_mut().find(|w| w.is_none()) {
                *slot = Some(line);
                return true;
            }
            let victim = ways
                .iter_mut()
                .filter(|w| w.as_ref().is_some_and(|l| l.locks == 0))
                .min_by_key(|w| w.as_ref().map(|l| l.lru).unwrap_or(u64::MAX));
            match victim {
                Some(slot) => {
                    self.stats.evictions += 1;
                    *slot = Some(line);
                    true
                }
                None => false,
            }
        }

        fn access(&mut self, addr: u64, is_write: bool) -> bool {
            self.tick += 1;
            let tick = self.tick;
            let (set, tag) = self.set_and_tag(addr);
            if let Some(line) = self.sets[set].iter_mut().flatten().find(|l| l.tag == tag) {
                line.lru = tick;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            let line = Line {
                tag,
                lru: tick,
                locks: 0,
                dirty: is_write,
            };
            self.allocate(set, line);
            false
        }

        fn lock_line(&mut self, addr: u64) -> LockOutcome {
            self.tick += 1;
            let tick = self.tick;
            let (set, tag) = self.set_and_tag(addr);
            if let Some(line) = self.sets[set].iter_mut().flatten().find(|l| l.tag == tag) {
                line.lru = tick;
                line.locks += 1;
                return if line.locks > 1 {
                    LockOutcome::AlreadyLocked
                } else {
                    LockOutcome::Locked
                };
            }
            let line = Line {
                tag,
                lru: tick,
                locks: 1,
                dirty: false,
            };
            if self.allocate(set, line) {
                LockOutcome::Locked
            } else {
                self.stats.lock_set_full += 1;
                LockOutcome::SetFull
            }
        }

        fn unlock_line(&mut self, addr: u64) {
            let (set, tag) = self.set_and_tag(addr);
            if let Some(line) = self.sets[set]
                .iter_mut()
                .flatten()
                .find(|l| l.tag == tag && l.locks > 0)
            {
                line.locks -= 1;
            }
        }
    }

    proptest::proptest! {
        /// Random access/lock/unlock/probe sequences give the same answers,
        /// statistics and locked-line counts in the flat layout as in the
        /// nested reference, at associativities 1, 2, 4 and 8.
        #[test]
        fn flat_sets_match_the_nested_reference(
            assoc_log in 0u32..4,
            ops in proptest::collection::vec((0u8..4, 0u64..4096, 0u8..2), 1..400),
        ) {
            let assoc = 1u32 << assoc_log;
            let config = CacheConfig {
                size_bytes: 8 * u64::from(assoc) * 32,
                assoc,
                line_bytes: 32,
                latency: 1,
            };
            let mut flat = SetAssocCache::new(config);
            let mut nested = NestedCache::new(config);
            for (i, &(op, addr, write)) in ops.iter().enumerate() {
                match op {
                    0 => proptest::prop_assert_eq!(
                        flat.access(addr, write == 1),
                        nested.access(addr, write == 1),
                        "access #{} diverged", i
                    ),
                    1 => proptest::prop_assert_eq!(
                        flat.lock_line(addr),
                        nested.lock_line(addr),
                        "lock #{} diverged", i
                    ),
                    2 => {
                        flat.unlock_line(addr);
                        nested.unlock_line(addr);
                    }
                    _ => proptest::prop_assert_eq!(
                        (flat.probe(addr), flat.is_locked(addr)),
                        (nested.probe(addr), nested.is_locked(addr)),
                        "probe #{} diverged", i
                    ),
                }
            }
            proptest::prop_assert_eq!(*flat.stats(), nested.stats);
            let nested_locked = nested
                .sets
                .iter()
                .flat_map(|s| s.iter().flatten())
                .filter(|l| l.locks > 0)
                .count();
            proptest::prop_assert_eq!(flat.locked_lines(), nested_locked);
            for addr in (0..4096).step_by(32) {
                proptest::prop_assert_eq!(flat.probe(addr), nested.probe(addr));
            }
        }
    }

    #[test]
    fn direct_mapped_cache_works() {
        let mut c = small_cache(1);
        c.access(0x000, false);
        assert!(!c.access(0x080, false)); // conflict, same set
        assert!(!c.probe(0x000));
    }
}
