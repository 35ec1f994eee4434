//! Shared read-only instruction streams: one captured correct path fanned
//! out to many pipeline instances.
//!
//! A config-axis sweep runs the *same* workload suite under N processor
//! configurations, and until now every point regenerated (or re-decoded)
//! its instruction stream from scratch. A [`SharedStream`] captures the
//! correct-path stream of any [`TraceSource`] once; each pipeline instance
//! then reads through its own [`SharedCursor`], which is itself a
//! `TraceSource`, so the processor models need no changes.
//!
//! # Why this is exact
//!
//! Byte-identical fan-out rests on two properties the rest of the codebase
//! already depends on:
//!
//! * **The correct path is position-only.** A `TraceSource`'s `next_inst`
//!   stream is a pure function of its construction parameters; capturing it
//!   eagerly instead of lazily cannot change it.
//! * **The wrong path is spec-pure and independent.** Every generator
//!   synthesizes its wrong path from a [`WrongPathSpec`]-seeded
//!   [`crate::WrongPathSynth`] decorrelated from the correct-path
//!   randomness — the same purity `.etrc` replay relies on — so the stream
//!   is one sequence per capture, whatever reads it. Only the demand
//!   differs: it depends on each configuration's simulated timing (a wider
//!   window fetches deeper past a mispredicted branch). So the capture
//!   holds one wrong-path tape (`tape.rs`), drawn from the captured spec
//!   as far as the deepest cursor has read, and each cursor keeps only its
//!   own position on it; every cursor reads exactly the stream the original
//!   source would have produced.
//!
//! A processor run consumes one `next_inst` per committed instruction, so
//! capturing `max_commits` instructions suffices for any configuration
//! simulated to `max_commits` commits.
//!
//! # Sparse captures
//!
//! A sampled run ([`crate::TraceSource::skip_insts`] between detailed
//! windows) reads only the warm-up and window positions of each sampling
//! period. [`SharedStream::capture_ranges`] holds just those ranges and
//! skips the source over the rest, so the capture costs about
//! `(warmup + window) / period` of a dense one in both decode time and
//! memory. A cursor that reads a position the capture did not hold panics
//! rather than hand back the wrong instruction.

use std::ops::Range;
use std::sync::Arc;

use crate::inst::DynInst;
use crate::tape::{TapeCursor, WrongPathTape};
use crate::trace::TraceSource;
use crate::wrongpath::WrongPathSpec;

/// An immutable captured instruction stream, shareable across threads.
///
/// Construction eagerly drains the source's correct path (bounded by
/// `max_insts`) into one or more captured segments; the memory cost is
/// `size_of::<DynInst>()` per captured instruction, paid once per batch
/// group instead of once per point. A dense capture
/// ([`SharedStream::capture`]) is a single segment covering the whole
/// stream. The wrong-path tape grows as its cursors read it, by a bit per
/// position plus 8 bytes per load.
#[derive(Debug, Clone)]
pub struct SharedStream {
    name: String,
    /// Positions a cursor can pass: the source's length, capped at the
    /// capture's `max_insts`.
    len: u64,
    /// Every captured instruction, segment after segment.
    insts: Vec<DynInst>,
    /// The captured ranges, in stream order, disjoint and non-adjacent.
    segments: Vec<Segment>,
    /// The source's wrong-path stream, if it had a spec.
    wrong_path: Option<Arc<WrongPathTape>>,
}

/// One captured range: `len` instructions from stream position `start`,
/// stored at `insts[offset..offset + len]`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start: u64,
    offset: usize,
    len: usize,
}

impl SharedStream {
    /// Captures up to `max_insts` correct-path instructions from `source`,
    /// together with its name and wrong-path spec.
    ///
    /// A finite source may end earlier; cursors then report the same early
    /// exhaustion the source would have. A source holding *more* than
    /// `max_insts` instructions is truncated, so callers must size the
    /// capture to the maximum number of `next_inst` calls any consumer will
    /// make (one per committed instruction for the processor models).
    pub fn capture(source: &mut dyn TraceSource, max_insts: u64) -> Self {
        Self::capture_ranges(source, max_insts, std::iter::once(0..max_insts))
    }

    /// Captures only the positions in `ranges` (sorted, disjoint) of the
    /// first `max_insts` of `source`, skipping the source over everything
    /// else with [`TraceSource::skip_insts`].
    ///
    /// Cursors see a stream of the same length as [`SharedStream::capture`]
    /// would, so skips report the same counts, but reading a position
    /// outside `ranges` panics. Sampled runs capture
    /// `SamplingSpec::read_ranges` from `elsq-stats`, the positions the
    /// sampled cycle loop reads.
    ///
    /// # Panics
    ///
    /// Panics if `ranges` are out of order or overlap.
    pub fn capture_ranges(
        source: &mut dyn TraceSource,
        max_insts: u64,
        ranges: impl IntoIterator<Item = Range<u64>>,
    ) -> Self {
        let ranges: Vec<Range<u64>> = ranges
            .into_iter()
            .map(|r| r.start.min(max_insts)..r.end.min(max_insts))
            .filter(|r| !r.is_empty())
            .collect();
        let held: u64 = ranges.iter().map(|r| r.end - r.start).sum();
        let mut insts = Vec::with_capacity(usize::try_from(held).unwrap_or(0));
        let mut segments: Vec<Segment> = Vec::new();
        let mut pos = 0u64;
        let mut ended = false;
        for range in ranges {
            assert!(
                range.start >= pos,
                "capture ranges must be sorted and disjoint ({range:?} after position {pos})"
            );
            let gap = range.start - pos;
            let skipped = source.skip_insts(gap);
            pos += skipped;
            if skipped < gap {
                ended = true;
                break;
            }
            let offset = insts.len();
            while pos < range.end {
                match source.next_inst() {
                    Some(inst) => insts.push(inst),
                    None => {
                        ended = true;
                        break;
                    }
                }
                pos += 1;
            }
            let len = insts.len() - offset;
            match segments.last_mut() {
                // Abutting ranges (a period with no fast-forward) merge.
                Some(last) if last.start + last.len as u64 == range.start => last.len += len,
                _ if len > 0 => segments.push(Segment {
                    start: range.start,
                    offset,
                    len,
                }),
                _ => {}
            }
            if ended {
                break;
            }
        }
        if !ended && pos < max_insts {
            // Learn the true stream length past the last range, so skips
            // there report what the source would have.
            pos += source.skip_insts(max_insts - pos);
        }
        Self {
            name: source.name().to_owned(),
            len: pos,
            insts,
            segments,
            wrong_path: source
                .wrong_path_spec()
                .map(|spec| Arc::new(WrongPathTape::new(spec))),
        }
    }

    /// The captured source's report name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Length of the stream: the positions a cursor can pass, whether
    /// captured or skipped over.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the stream holds no positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of instructions the capture holds in memory (equal to
    /// [`SharedStream::len`] for a dense capture).
    pub fn captured(&self) -> usize {
        self.insts.len()
    }

    /// The captured wrong-path spec, if the source had one.
    pub(crate) fn wrong_path_spec(&self) -> Option<WrongPathSpec> {
        self.wrong_path.as_ref().map(|tape| tape.spec())
    }

    /// A fresh cursor over `stream`, positioned at the beginning of both
    /// the correct path and the wrong-path tape.
    pub fn cursor(self: &Arc<Self>) -> SharedCursor {
        SharedCursor {
            wrong_path: self.wrong_path.clone().map(TapeCursor::new),
            stream: Arc::clone(self),
            next: 0,
            end: 0,
            origin: 0,
        }
    }
}

/// One pipeline instance's independent read position over a
/// [`SharedStream`].
///
/// Each cursor keeps its own position on the capture's wrong-path tape
/// (when the source had a spec), because wrong-path demand differs per
/// configuration; the tape is drawn once for all of them. Sources without
/// a spec fall back to the ALU-only wrong path of the
/// [`TraceSource::wrong_path_run`] default.
///
/// # Panics
///
/// [`TraceSource::next_inst`] panics at a position a sparse capture
/// ([`SharedStream::capture_ranges`]) did not hold.
#[derive(Debug, Clone)]
pub struct SharedCursor {
    stream: Arc<SharedStream>,
    /// Index into the captured instructions of the next read; the reads
    /// up to `end` are served without a segment lookup.
    next: usize,
    /// End of the run of captured instructions `next` is walking.
    end: usize,
    /// Stream position of captured index 0 for that run (wrapping), so the
    /// stream position of the next read is `origin + next`.
    origin: u64,
    wrong_path: Option<TapeCursor>,
}

impl SharedCursor {
    /// Stream position of the next read.
    fn pos(&self) -> u64 {
        self.origin.wrapping_add(self.next as u64)
    }

    /// Detaches from the current run: the next read looks `pos` up.
    fn jump_to(&mut self, pos: u64) {
        self.origin = pos;
        self.next = 0;
        self.end = 0;
    }

    /// Points the cursor at the segment holding its position; false at the
    /// end of the stream.
    fn enter_segment(&mut self) -> bool {
        let stream = &*self.stream;
        let pos = self.pos();
        if pos >= stream.len {
            return false;
        }
        let at = stream.segments.partition_point(|s| s.start <= pos);
        let seg = at
            .checked_sub(1)
            .map(|i| stream.segments[i])
            .filter(|s| pos - s.start < s.len as u64)
            .unwrap_or_else(|| {
                panic!(
                    "{}: stream position {pos} was not captured (a sparse capture holds only \
                     the ranges it was built for)",
                    stream.name
                )
            });
        self.next = seg.offset + (pos - seg.start) as usize;
        self.end = seg.offset + seg.len;
        self.origin = seg.start.wrapping_sub(seg.offset as u64);
        true
    }
}

impl TraceSource for SharedCursor {
    fn next_inst(&mut self) -> Option<DynInst> {
        if self.next == self.end && !self.enter_segment() {
            return None;
        }
        let inst = self.stream.insts[self.next];
        self.next += 1;
        Some(inst)
    }

    fn skip_insts(&mut self, n: u64) -> u64 {
        // The capture is random-access: a skip is a bounded position jump.
        let pos = self.pos();
        let skipped = n.min(self.stream.len - pos);
        match usize::try_from(skipped) {
            Ok(s) if s <= self.end - self.next => self.next += s,
            _ => self.jump_to(pos + skipped),
        }
        skipped
    }

    fn wrong_path_run(&mut self, pc: u64, max: u64) -> (u64, Option<DynInst>) {
        match &mut self.wrong_path {
            Some(tape) => tape.run(pc, max),
            None => (max, None),
        }
    }

    fn wrong_path_skip(&mut self, n: u64) {
        if let Some(tape) = &mut self.wrong_path {
            tape.skip(n);
        }
    }

    fn name(&self) -> &str {
        self.stream.name()
    }

    fn wrong_path_spec(&self) -> Option<WrongPathSpec> {
        self.stream.wrong_path_spec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstBuilder;
    use crate::op::OpClass;
    use crate::trace::VecTrace;
    use crate::wrongpath::WrongPathSynth;

    fn mk(n: usize) -> Vec<DynInst> {
        (0..n)
            .map(|i| InstBuilder::alu(i as u64 * 4, OpClass::IntAlu).build())
            .collect()
    }

    #[test]
    fn capture_preserves_stream_name_and_spec() {
        let mut src = VecTrace::with_name(mk(5), "w0");
        let stream = Arc::new(SharedStream::capture(&mut src, 10));
        assert_eq!(stream.name(), "w0");
        assert_eq!(stream.len(), 5);
        assert!(stream.wrong_path_spec().is_none());
    }

    #[test]
    fn capture_truncates_at_max_insts() {
        let mut src = VecTrace::new(mk(10));
        let stream = SharedStream::capture(&mut src, 3);
        assert_eq!(stream.len(), 3);
        assert_eq!(src.remaining(), 7);
    }

    #[test]
    fn cursors_are_independent_and_replay_the_capture() {
        let insts = mk(4);
        let mut src = VecTrace::new(insts.clone());
        let stream = Arc::new(SharedStream::capture(&mut src, 4));
        let mut a = stream.cursor();
        let mut b = stream.cursor();
        assert_eq!(a.next_inst().unwrap(), insts[0]);
        assert_eq!(a.next_inst().unwrap(), insts[1]);
        // b's position is untouched by a's reads.
        assert_eq!(b.next_inst().unwrap(), insts[0]);
        assert_eq!(a.next_inst().unwrap(), insts[2]);
        assert_eq!(a.next_inst().unwrap(), insts[3]);
        assert!(a.next_inst().is_none());
        assert_eq!(b.next_inst().unwrap(), insts[1]);
    }

    #[test]
    fn skip_jumps_the_cursor_and_clamps_at_the_end() {
        let insts = mk(6);
        let mut src = VecTrace::new(insts.clone());
        let stream = Arc::new(SharedStream::capture(&mut src, 6));
        let mut c = stream.cursor();
        assert_eq!(c.skip_insts(4), 4);
        assert_eq!(c.next_inst().unwrap(), insts[4]);
        assert_eq!(c.skip_insts(10), 1, "only one instruction was left");
        assert!(c.next_inst().is_none());
    }

    #[test]
    fn specless_cursor_uses_the_default_wrong_path() {
        let mut src = VecTrace::new(mk(1));
        let stream = Arc::new(SharedStream::capture(&mut src, 1));
        let mut cursor = stream.cursor();
        assert_eq!(
            cursor.wrong_path_run(0x40, 9),
            src.wrong_path_run(0x40, 9),
            "a spec-less cursor keeps the trait's ALU-only default"
        );
    }

    #[test]
    fn spec_cursors_rebuild_identical_private_synthesizers() {
        struct SpecSource(VecTrace, WrongPathSynth);
        impl TraceSource for SpecSource {
            fn next_inst(&mut self) -> Option<DynInst> {
                self.0.next_inst()
            }
            fn wrong_path_run(&mut self, pc: u64, max: u64) -> (u64, Option<DynInst>) {
                self.1.run(pc, max)
            }
            fn wrong_path_skip(&mut self, n: u64) {
                self.1.skip(n);
            }
            fn name(&self) -> &str {
                "spec-source"
            }
            fn wrong_path_spec(&self) -> Option<WrongPathSpec> {
                Some(self.1.spec())
            }
        }
        let spec = WrongPathSpec {
            seed: 17,
            region_base: 0x8000,
            region_size: 4096,
            load_rate: 0.25,
        };
        let mut src = SpecSource(VecTrace::new(mk(2)), WrongPathSynth::from_spec(spec));
        let stream = Arc::new(SharedStream::capture(&mut src, 2));
        assert_eq!(stream.wrong_path_spec(), Some(spec));
        // Two cursors each replay the same wrong-path stream the original
        // source would have produced, regardless of interleaving.
        let mut a = stream.cursor();
        let mut b = stream.cursor();
        let mut reference = WrongPathSynth::from_spec(spec);
        for i in 0..100 {
            let (pc, max) = (0x4000_0000 + i * 4, i % 7);
            let want = reference.run(pc, max);
            assert_eq!(a.wrong_path_run(pc, max), want);
            assert_eq!(b.wrong_path_run(pc, max), want);
        }
    }

    #[test]
    fn spec_cursor_stays_in_lockstep_across_a_skip() {
        let spec = WrongPathSpec {
            seed: 23,
            region_base: 0x1_0000,
            region_size: 1 << 16,
            load_rate: 0.3,
        };
        let stream = Arc::new(SharedStream {
            wrong_path: Some(Arc::new(WrongPathTape::new(spec))),
            ..SharedStream::capture(&mut VecTrace::new(mk(1)), 1)
        });
        let mut cursor = stream.cursor();
        let mut reference = WrongPathSynth::from_spec(spec);
        for i in 0..50 {
            let (pc, max) = (0x4000_0000 + i * 64, i % 11);
            assert_eq!(cursor.wrong_path_run(pc, max), reference.run(pc, max));
            cursor.wrong_path_skip(i % 13);
            reference.skip(i % 13);
        }
        // Lockstep means every later draw agrees too.
        for i in 0..20 {
            assert_eq!(
                cursor.wrong_path_run(i * 4, 1_000),
                reference.run(i * 4, 1_000)
            );
        }
    }
    /// Draws wrong-path runs through `run` until `demand` positions are
    /// read, returning every load drawn with its position.
    fn read_wrong_path(
        mut run: impl FnMut(u64, u64) -> (u64, Option<DynInst>),
        demand: u64,
    ) -> Vec<(u64, DynInst)> {
        let mut loads = Vec::new();
        let mut pos = 0;
        while pos < demand {
            let (count, load) = run(0x4000_0000 + 4 * pos, demand - pos);
            pos += count;
            if let Some(load) = load {
                loads.push((pos, load));
                pos += 1;
            }
        }
        loads
    }

    /// A one-instruction stream over a fresh tape of `spec`.
    fn stream_of(spec: WrongPathSpec) -> Arc<SharedStream> {
        Arc::new(SharedStream {
            wrong_path: Some(Arc::new(WrongPathTape::new(spec))),
            ..SharedStream::capture(&mut VecTrace::new(mk(1)), 1)
        })
    }

    #[test]
    fn the_tape_is_drawn_once_to_the_deepest_demand() {
        use crate::tape::CHUNK_LEN;
        let spec = WrongPathSpec {
            seed: 29,
            region_base: 0x2_0000,
            region_size: 1 << 20,
            load_rate: 0.25,
        };
        // The deepest demand ends inside a chunk, then on a chunk boundary.
        for deepest in [3 * CHUNK_LEN + 1, 3 * CHUNK_LEN] {
            let demands = [1_000, CHUNK_LEN + 70, deepest];
            let mut synth = WrongPathSynth::from_spec(spec);
            let want = read_wrong_path(|pc, max| synth.run(pc, max), deepest);
            let check = |demand: u64, loads: Vec<(u64, DynInst)>| {
                let prefix: Vec<_> = want
                    .iter()
                    .filter(|(at, _)| *at < demand)
                    .copied()
                    .collect();
                assert_eq!(loads, prefix, "a cursor read {demand} positions");
            };
            let chunks = deepest.div_ceil(CHUNK_LEN) as usize;
            let drawn = |stream: &SharedStream| stream.wrong_path.as_ref().unwrap().chunks_drawn();

            // On one thread, the shallowest cursor draws first, then the
            // deepest.
            for order in [demands, [deepest, CHUNK_LEN + 70, 1_000]] {
                let one_thread = stream_of(spec);
                for demand in order {
                    let mut cursor = one_thread.cursor();
                    check(
                        demand,
                        read_wrong_path(|pc, max| cursor.wrong_path_run(pc, max), demand),
                    );
                }
                assert_eq!(drawn(&one_thread), chunks, "{order:?}, one thread");
            }

            let threads = stream_of(spec);
            let start = std::sync::Barrier::new(demands.len());
            std::thread::scope(|scope| {
                let reads: Vec<_> = demands
                    .iter()
                    .map(|&demand| {
                        let mut cursor = threads.cursor();
                        let start = &start;
                        scope.spawn(move || {
                            start.wait();
                            let loads =
                                read_wrong_path(|pc, max| cursor.wrong_path_run(pc, max), demand);
                            (demand, loads)
                        })
                    })
                    .collect();
                for read in reads {
                    let (demand, loads) = read.join().unwrap();
                    check(demand, loads);
                }
            });
            assert_eq!(drawn(&threads), chunks, "three threads, deepest {deepest}");
        }
    }

    #[test]
    fn sparse_capture_holds_only_its_ranges() {
        let insts = mk(100);
        let mut src = VecTrace::new(insts.clone());
        let stream = Arc::new(SharedStream::capture_ranges(
            &mut src,
            90,
            [10..20, 20..25, 50..60],
        ));
        assert_eq!(stream.len(), 90, "the stream keeps its full length");
        assert_eq!(stream.captured(), 25);
        assert_eq!(stream.segments.len(), 2, "abutting ranges merge");
        assert_eq!(src.remaining(), 10, "the source was skipped to max_insts");
        let mut c = stream.cursor();
        assert_eq!(c.skip_insts(10), 10);
        for inst in &insts[10..25] {
            assert_eq!(c.next_inst().as_ref(), Some(inst));
        }
        assert_eq!(c.skip_insts(27), 27);
        assert_eq!(c.next_inst(), Some(insts[52]));
        assert_eq!(c.skip_insts(3), 3);
        assert_eq!(c.next_inst(), Some(insts[56]));
        assert_eq!(c.skip_insts(1_000), 33, "skips clamp at the stream length");
        assert!(c.next_inst().is_none());
    }

    #[test]
    fn sparse_capture_of_a_short_source_keeps_its_true_length() {
        let insts = mk(30);
        for (ranges, held) in [(vec![5..10, 20..40], 15), (vec![5..10, 40..50], 5)] {
            let mut src = VecTrace::new(insts.clone());
            let stream = Arc::new(SharedStream::capture_ranges(&mut src, 100, ranges));
            assert_eq!(stream.len(), 30);
            assert_eq!(stream.captured(), held);
            let mut c = stream.cursor();
            assert_eq!(c.skip_insts(5), 5);
            assert_eq!(c.next_inst(), Some(insts[5]));
            assert_eq!(c.skip_insts(100), 24, "only the source's own positions");
        }
    }

    #[test]
    fn dense_capture_is_one_segment() {
        let mut src = VecTrace::new(mk(40));
        let stream = SharedStream::capture(&mut src, 40);
        assert_eq!(stream.segments.len(), 1);
        assert_eq!((stream.len(), stream.captured()), (40, 40));
    }

    #[test]
    #[should_panic(expected = "stream position 7 was not captured")]
    fn reading_an_uncaptured_position_panics() {
        let mut src = VecTrace::with_name(mk(20), "sparse");
        let stream = Arc::new(SharedStream::capture_ranges(&mut src, 20, [2..5, 10..12]));
        let mut c = stream.cursor();
        c.skip_insts(2);
        for _ in 0..3 {
            c.next_inst().unwrap();
        }
        c.skip_insts(2);
        c.next_inst();
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn overlapping_ranges_are_refused() {
        let mut src = VecTrace::new(mk(20));
        SharedStream::capture_ranges(&mut src, 20, [2..8, 5..10]);
    }
}
