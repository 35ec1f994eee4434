//! A tiny deterministic hasher for the hot-path indices.
//!
//! The standard library's default `RandomState` seeds SipHash per process,
//! which is both slower than needed for the integer keys the LSQ indices use
//! and non-deterministic in iteration order across runs. The simulator pins
//! byte-identical results between sequential and parallel runs, so every
//! hashed index in the core crates uses this fixed-seed multiply-rotate
//! hasher (the `rustc-hash`/FxHash construction) instead: fast on `u64`
//! keys, stable across processes, and dependency-free.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// The FxHash multiplication constant (golden-ratio derived).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fixed-seed FxHash hasher.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// A [`BuildHasher`] producing [`FxHasher`]s (no per-process randomness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

/// A `HashMap` keyed with the deterministic FxHash.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hashing_is_deterministic_and_spreads() {
        let one = |x: u64| {
            let mut h = FxBuildHasher.build_hasher();
            h.write_u64(x);
            h.finish()
        };
        assert_eq!(one(42), one(42));
        assert_ne!(one(1), one(2));
        // Sequential cache-line addresses should not collide trivially.
        let hashes: HashSet<u64> = (0..1024u64).map(|i| one(i * 64)).collect();
        assert_eq!(hashes.len(), 1024);
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        m.insert(7, 1);
        *m.entry(7).or_insert(0) += 1;
        assert_eq!(m[&7], 2);
    }
}
