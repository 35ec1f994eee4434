//! One capture's wrong-path stream, drawn once and read by every cursor.
//!
//! A wrong-path stream is a pure function of its [`WrongPathSpec`], and
//! every [`crate::SharedCursor`] over a capture reads the same one; only
//! how far each reads depends on its configuration's timing. So the
//! capture holds a [`WrongPathTape`]: the stream drawn in chunks of
//! [`CHUNK_LEN`] positions, each chunk drawn once, in order, by one
//! [`WrongPathSynth`] the first time any cursor reaches it. A chunk records
//! which positions are loads (one bit each, with the loads counted per
//! 64-bit word) and the loads' byte offsets, so a [`TapeCursor`] skips by
//! moving its position and finds the next load with a trailing-zeros scan
//! and a popcount.
//!
//! The synthesizer sits behind a mutex that is held only while chunks are
//! drawn; drawn chunks are handed out as `Arc`s and read without it. Chunk
//! `k` is drawn from the synthesizer state chunk `k − 1` left, whichever
//! thread draws it, so the tape, and every report read from it, does not
//! depend on how cursors interleave.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::inst::DynInst;
use crate::wrongpath::{wrong_path_load, WrongPathSpec, WrongPathSynth};

/// log2 of [`CHUNK_LEN`].
const CHUNK_BITS: u32 = 12;

/// Positions per tape chunk.
pub(crate) const CHUNK_LEN: u64 = 1 << CHUNK_BITS;

/// 64-bit words in a chunk's load bitmap.
const WORDS: usize = (CHUNK_LEN / 64) as usize;

/// [`CHUNK_LEN`] consecutive positions of a wrong-path stream.
struct Chunk {
    /// Bit `i % 64` of word `i / 64` is set when position `i` is a load.
    loads: Vec<u64>,
    /// Loads in the words before each word.
    before: Vec<u32>,
    /// Byte offset of each load into the probed region, in stream order.
    offsets: Vec<u64>,
}

impl Chunk {
    /// Draws the next [`CHUNK_LEN`] positions of `synth`'s stream.
    fn draw(synth: &mut WrongPathSynth) -> Self {
        let mut loads = vec![0u64; WORDS];
        let mut before = Vec::with_capacity(WORDS);
        let mut offsets = Vec::new();
        for word in &mut loads {
            before.push(offsets.len() as u32);
            for bit in 0..64 {
                if let Some(offset) = synth.draw() {
                    *word |= 1 << bit;
                    offsets.push(offset);
                }
            }
        }
        Self {
            loads,
            before,
            offsets,
        }
    }

    /// The first load at a position in `from..to` (with `from < to ≤
    /// CHUNK_LEN`), and its offset.
    fn next_load(&self, from: usize, to: usize) -> Option<(usize, u64)> {
        let mut w = from / 64;
        let mut bits = self.loads[w] & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                let at = w * 64 + bits.trailing_zeros() as usize;
                if at >= to {
                    return None;
                }
                let below = self.loads[w] & ((1u64 << (at % 64)) - 1);
                let rank = self.before[w] as usize + below.count_ones() as usize;
                return Some((at, self.offsets[rank]));
            }
            w += 1;
            if w * 64 >= to {
                return None;
            }
            bits = self.loads[w];
        }
    }
}

impl fmt::Debug for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chunk")
            .field("loads", &self.offsets.len())
            .finish_non_exhaustive()
    }
}

/// The wrong-path stream of one capture, drawn as cursors reach it.
#[derive(Debug)]
pub(crate) struct WrongPathTape {
    /// The spec as the captured source reported it.
    spec: WrongPathSpec,
    drawn: Mutex<Drawn>,
}

/// The synthesizer and every chunk it has drawn, in stream order.
#[derive(Debug)]
struct Drawn {
    synth: WrongPathSynth,
    chunks: Vec<Arc<Chunk>>,
}

impl WrongPathTape {
    /// An empty tape over `spec`'s stream: nothing is drawn until a cursor
    /// reads a position.
    pub fn new(spec: WrongPathSpec) -> Self {
        Self {
            spec,
            drawn: Mutex::new(Drawn {
                synth: WrongPathSynth::from_spec(spec),
                chunks: Vec::new(),
            }),
        }
    }

    /// The spec the stream is drawn from.
    pub fn spec(&self) -> WrongPathSpec {
        self.spec
    }

    /// Chunk `k`, drawing it (and every chunk before it not yet drawn).
    fn chunk(&self, k: usize) -> Arc<Chunk> {
        let mut drawn = self.drawn.lock().expect("a wrong-path tape draw panicked");
        while drawn.chunks.len() <= k {
            let chunk = Chunk::draw(&mut drawn.synth);
            drawn.chunks.push(Arc::new(chunk));
        }
        Arc::clone(&drawn.chunks[k])
    }

    /// How many chunks have been drawn so far.
    #[cfg(test)]
    pub(crate) fn chunks_drawn(&self) -> usize {
        self.drawn.lock().unwrap().chunks.len()
    }
}

/// One reader's position on a [`WrongPathTape`]: the same runs and skips
/// a private [`WrongPathSynth`] would give.
#[derive(Debug, Clone)]
pub(crate) struct TapeCursor {
    tape: Arc<WrongPathTape>,
    /// Stream position of the next draw.
    pos: u64,
    /// The chunk last read, and its index.
    chunk: Option<(u64, Arc<Chunk>)>,
}

impl TapeCursor {
    /// A cursor at the start of `tape`.
    pub fn new(tape: Arc<WrongPathTape>) -> Self {
        Self {
            tape,
            pos: 0,
            chunk: None,
        }
    }

    /// [`WrongPathSynth::run`] over the tape.
    pub fn run(&mut self, pc: u64, max: u64) -> (u64, Option<DynInst>) {
        let start = self.pos;
        let end = start + max;
        while self.pos < end {
            let k = self.pos >> CHUNK_BITS;
            let chunk = match &self.chunk {
                Some((at, chunk)) if *at == k => chunk,
                _ => &self.chunk.insert((k, self.tape.chunk(k as usize))).1,
            };
            let base = k << CHUNK_BITS;
            let from = (self.pos - base) as usize;
            let to = (end - base).min(CHUNK_LEN) as usize;
            if let Some((at, offset)) = chunk.next_load(from, to) {
                let count = base + at as u64 - start;
                self.pos = start + count + 1;
                let addr = self.tape.spec.region_base + offset;
                return (count, Some(wrong_path_load(pc + 4 * count, addr)));
            }
            self.pos = base + to as u64;
        }
        (max, None)
    }

    /// [`WrongPathSynth::skip`] over the tape: only the position moves.
    pub fn skip(&mut self, n: u64) {
        self.pos += n;
    }
}
