//! Wrong-path instruction synthesis.
//!
//! After a mispredicted branch the front end fetches *wrong-path*
//! instructions until the branch resolves. Those instructions never commit
//! but they occupy LSQ entries and access caches, so their statistical mix
//! matters for the paper's Table 2. Every workload generator synthesizes
//! its wrong-path stream with a [`WrongPathSynth`] seeded independently of
//! the correct-path randomness, which makes the stream a pure function of a
//! small [`WrongPathSpec`].
//!
//! That purity is what makes on-disk traces replayable: the `.etrc` format
//! (see [`crate::etrc`]) stores the spec in its header instead of recording
//! wrong-path instructions, and a replaying [`crate::etrc::FileTrace`]
//! reconstructs a synthesizer that produces the exact same stream the
//! generator would have — wrong-path demand depends on simulated timing, so
//! it cannot be captured as a flat record sequence. The same purity lets a
//! [`crate::SharedStream`] draw its source's stream once, as a tape that
//! every cursor over the capture reads as far as its own demand goes.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::inst::{DynInst, InstBuilder};
use crate::op::OpClass;
use crate::reg::ArchReg;

/// Constant mixed into wrong-path RNG seeds so wrong-path streams are
/// decorrelated from correct-path randomness ("WRONG_PT" in ASCII).
const WRONG_PATH_SEED_MIX: u64 = 0x5752_4f4e_475f_5054;

/// The complete parameterization of a [`WrongPathSynth`].
///
/// Two synthesizers constructed from equal specs produce identical
/// instruction streams, so recording a spec is equivalent to recording the
/// stream. The spec is stored verbatim in `.etrc` trace headers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WrongPathSpec {
    /// Seed of the wrong-path RNG (before the internal decorrelation mix).
    pub seed: u64,
    /// First byte of the region wrong-path loads probe.
    pub region_base: u64,
    /// Size in bytes of the probed region (clamped to at least 64).
    pub region_size: u64,
    /// Probability that a wrong-path instruction is a load.
    pub load_rate: f64,
}

/// Synthesizes wrong-path instructions fetched after a mispredicted branch.
///
/// Wrong-path code looks statistically like nearby correct-path code: mostly
/// ALU operations with some loads into the same regions, so it exercises the
/// LSQ and the caches until the branch resolves and the window is squashed.
#[derive(Debug, Clone)]
pub struct WrongPathSynth {
    rng: SmallRng,
    spec: WrongPathSpec,
    /// `⌈load_rate · 2^53⌉`: a position is a load when the top 53 bits of
    /// its draw fall below it (see [`load_threshold`]).
    load_below: u64,
}

/// The integer form of `gen_bool(p)`: `gen_bool` compares the top 53 bits
/// `m` of a draw as `m · 2^-53 < p`, which is exact in `f64`, so it holds
/// exactly when `m < ⌈p · 2^53⌉` (also exact: scaling by a power of two
/// and `ceil` lose nothing, and `p ≤ 1` keeps the result within 2^53).
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`, as `gen_bool` would.
fn load_threshold(p: f64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "wrong-path load_rate = {p} out of range"
    );
    (p * (1u64 << 53) as f64).ceil() as u64
}

impl WrongPathSynth {
    /// Creates a wrong-path synthesizer probing `region_size` bytes starting
    /// at `region_base` for its loads.
    pub fn new(seed: u64, region_base: u64, region_size: u64, load_rate: f64) -> Self {
        Self::from_spec(WrongPathSpec {
            seed,
            region_base,
            region_size,
            load_rate,
        })
    }

    /// Creates a synthesizer from its spec. Equal specs yield identical
    /// instruction streams.
    pub fn from_spec(spec: WrongPathSpec) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(spec.seed ^ WRONG_PATH_SEED_MIX),
            spec: WrongPathSpec {
                region_size: spec.region_size.max(64),
                ..spec
            },
            load_below: load_threshold(spec.load_rate),
        }
    }

    /// The spec this synthesizer was built from (with the region size
    /// clamp applied).
    pub fn spec(&self) -> WrongPathSpec {
        self.spec
    }

    /// Produces one wrong-path instruction at `pc`.
    ///
    /// This is the per-instruction definition of the stream:
    /// [`WrongPathSynth::run`] draws the same instructions in bulk.
    pub fn inst(&mut self, pc: u64) -> DynInst {
        match self.draw() {
            Some(offset) => wrong_path_load(pc, self.spec.region_base + offset),
            None => InstBuilder::alu(pc, OpClass::IntAlu)
                .dst(ArchReg::int(9))
                .src(ArchReg::int(9))
                .wrong_path(true)
                .build(),
        }
    }

    /// Draws up to `max` wrong-path instructions fetched 4 bytes apart from
    /// `pc`, stopping after the first load. Returns how many ALU operations
    /// came before it and the load itself (at `pc + 4 * count`), or `(max,
    /// None)` when no load was drawn.
    ///
    /// The RNG draws are exactly those of the same number of
    /// [`WrongPathSynth::inst`] calls — one Bernoulli draw per instruction
    /// plus a `gen_range` per load — but only the load is built.
    pub fn run(&mut self, pc: u64, max: u64) -> (u64, Option<DynInst>) {
        for count in 0..max {
            if let Some(offset) = self.draw() {
                let load = wrong_path_load(pc + 4 * count, self.spec.region_base + offset);
                return (count, Some(load));
            }
        }
        (max, None)
    }

    /// Draws `n` wrong-path instructions and builds none of them: the RNG
    /// draws are exactly those of `n` [`WrongPathSynth::inst`] calls (one
    /// Bernoulli draw per instruction plus a `gen_range` per load).
    pub fn skip(&mut self, n: u64) {
        for _ in 0..n {
            self.draw();
        }
    }

    /// Draws the next position of the stream: the byte offset into the
    /// probed region when it is a load, `None` when it is an ALU op. The
    /// Bernoulli draw is `gen_bool(load_rate)` as one integer compare.
    pub(crate) fn draw(&mut self) -> Option<u64> {
        if self.rng.next_u64() >> 11 < self.load_below {
            Some(self.rng.gen_range(0..self.spec.region_size / 8) * 8)
        } else {
            None
        }
    }
}

/// The wrong-path load at `pc` reading 8 bytes at `addr`.
pub(crate) fn wrong_path_load(pc: u64, addr: u64) -> DynInst {
    InstBuilder::load(pc, addr, 8)
        .dst(ArchReg::int(9))
        .src(ArchReg::int(8))
        .wrong_path(true)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{TapeCursor, WrongPathTape, CHUNK_LEN};
    use std::sync::Arc;

    #[test]
    fn equal_specs_produce_identical_streams() {
        let spec = WrongPathSpec {
            seed: 42,
            region_base: 0x8000,
            region_size: 4096,
            load_rate: 0.25,
        };
        let mut a = WrongPathSynth::from_spec(spec);
        let mut b = WrongPathSynth::from_spec(spec);
        for i in 0..500 {
            assert_eq!(a.inst(i * 4), b.inst(i * 4));
        }
    }

    #[test]
    fn new_matches_from_spec() {
        let mut a = WrongPathSynth::new(7, 0x1000, 1 << 20, 0.25);
        let mut b = WrongPathSynth::from_spec(WrongPathSpec {
            seed: 7,
            region_base: 0x1000,
            region_size: 1 << 20,
            load_rate: 0.25,
        });
        for i in 0..100 {
            assert_eq!(a.inst(i * 4), b.inst(i * 4));
        }
    }

    #[test]
    fn wrong_path_instructions_are_marked_and_valid() {
        let mut wp = WrongPathSynth::new(3, 0x8000, 4096, 0.5);
        let mut saw_load = false;
        for i in 0..200 {
            let inst = wp.inst(0x100 + i * 4);
            assert!(inst.wrong_path);
            assert!(inst.validate().is_ok());
            if inst.is_load() {
                saw_load = true;
                let a = inst.mem_access().addr;
                assert!((0x8000..0x8000 + 4096).contains(&a));
            }
        }
        assert!(saw_load);
    }

    #[test]
    fn tiny_region_is_clamped() {
        let mut wp = WrongPathSynth::new(1, 0x100, 8, 1.0);
        let inst = wp.inst(0);
        let addr = inst.mem_access().addr;
        assert!((0x100..0x100 + 64).contains(&addr));
        assert_eq!(wp.spec().region_size, 64);
    }

    #[test]
    fn zero_region_is_clamped_and_never_divides_by_zero() {
        // region_size 0 would make the load-offset divisor zero without the
        // clamp; forcing every instruction to be a load exercises it.
        let mut wp = WrongPathSynth::from_spec(WrongPathSpec {
            seed: 5,
            region_base: 0x2000,
            region_size: 0,
            load_rate: 1.0,
        });
        assert_eq!(wp.spec().region_size, 64);
        for i in 0..100 {
            let inst = wp.inst(i * 4);
            assert!(inst.is_load());
            assert!(inst.validate().is_ok());
            let addr = inst.mem_access().addr;
            assert!((0x2000..0x2000 + 64).contains(&addr));
        }
    }

    proptest::proptest! {
        /// Interleaved `run`, `skip` and `inst` calls with arbitrary bounds
        /// yield the loads a reference loop of `inst` calls yields, at the
        /// same PCs, and leave the RNG in the same state — also at load
        /// rates 0 and 1, where every draw goes one way. A cursor on a
        /// wrong-path tape of the same spec makes the same runs and skips
        /// (an `inst` is a run of one), through skips that park it just
        /// before a chunk boundary so that runs cross it.
        #[test]
        fn runs_match_a_reference_loop_of_inst_calls(
            seed in 0u64..1_000,
            rate in 0.0f64..1.0,
            rate_pick in 0u8..4,
            ops in proptest::collection::vec((0u8..4, 0u64..64), 1..40),
        ) {
            let load_rate = match rate_pick {
                0 => 0.0,
                1 => 1.0,
                _ => rate,
            };
            let spec = WrongPathSpec {
                seed,
                region_base: 0x8000,
                region_size: 4096,
                load_rate,
            };
            let mut bulk = WrongPathSynth::from_spec(spec);
            let mut reference = bulk.clone();
            let mut tape = TapeCursor::new(Arc::new(WrongPathTape::new(spec)));
            let mut pos = 0u64;
            let mut pc = 0x4000_0000u64;
            for (op, n) in ops {
                match op {
                    0 => {
                        let (count, load) = bulk.run(pc, n);
                        let mut want = (n, None);
                        for i in 0..n {
                            let inst = reference.inst(pc + 4 * i);
                            if inst.is_mem() {
                                want = (i, Some(inst));
                                break;
                            }
                        }
                        proptest::prop_assert_eq!((count, load), want);
                        proptest::prop_assert_eq!(tape.run(pc, n), want);
                        let taken = count + u64::from(load.is_some());
                        pc += 4 * taken;
                        pos += taken;
                    }
                    1 | 3 => {
                        // Op 3 parks the position `n` short of the next
                        // chunk boundary, far enough away to cross one.
                        let n = if op == 1 {
                            n
                        } else {
                            (CHUNK_LEN - pos % CHUNK_LEN + CHUNK_LEN - n) % CHUNK_LEN
                        };
                        bulk.skip(n);
                        tape.skip(n);
                        for i in 0..n {
                            reference.inst(pc + 4 * i);
                        }
                        pc += 4 * n;
                        pos += n;
                    }
                    _ => {
                        let inst = bulk.inst(pc);
                        proptest::prop_assert_eq!(inst, reference.inst(pc));
                        let want = if inst.is_mem() { (0, Some(inst)) } else { (1, None) };
                        proptest::prop_assert_eq!(tape.run(pc, 1), want);
                        pc += 4;
                        pos += 1;
                    }
                }
                proptest::prop_assert_eq!(&bulk.rng, &reference.rng);
            }
            // The tape and the synthesizer end at one position: the next
            // long run agrees.
            proptest::prop_assert_eq!(tape.run(pc, 10_000), bulk.run(pc, 10_000));
        }

        /// The integer Bernoulli draw equals `gen_bool` for any draw `x`
        /// and rate `p`: random rates, rates where `p · 2^53` is an integer
        /// (the threshold is then not rounded up), dyadic rates, and 0,
        /// 0.25 and 1, with draws at and next to the threshold.
        #[test]
        fn integer_threshold_matches_gen_bool(
            x in 0u64..u64::MAX,
            random in 0.0f64..1.0,
            k in 0u64..(1u64 << 53),
            j in 1u32..53,
            pick in 0u8..6,
            near in 0u8..4,
        ) {
            let p = match pick {
                0 => 0.0,
                1 => 1.0,
                2 => 0.25,
                3 => random,
                4 => k as f64 / (1u64 << 53) as f64,
                _ => (k >> (53 - j)) as f64 / (1u64 << j) as f64,
            };
            let t = load_threshold(p);
            let low = x & 0x7ff;
            let x = match near {
                0 => x,
                1 => (t.saturating_sub(1) << 11) | low,
                2 => (t.min((1 << 53) - 1) << 11) | low,
                _ => ((t + 1).min((1 << 53) - 1) << 11) | low,
            };
            proptest::prop_assert_eq!(x >> 11 < t, Fixed(x).gen_bool(p), "p = {}", p);
        }
    }

    /// An RNG that always draws the same word.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn zero_load_rate_produces_only_alu_instructions() {
        // With no loads there is no memory payload anywhere in the stream;
        // mem_access() must be unreachable by construction.
        let mut wp = WrongPathSynth::new(9, 0x100, 0, 0.0);
        for i in 0..200 {
            let inst = wp.inst(i * 4);
            assert!(inst.wrong_path);
            assert!(!inst.is_mem());
            assert!(inst.mem.is_none());
            assert!(inst.validate().is_ok());
        }
    }
}
