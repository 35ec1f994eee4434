//! The `.etrc` on-disk trace format: versioned, block-compressed,
//! CRC-checked dynamic-instruction traces.
//!
//! An `.etrc` file stores a correct-path [`DynInst`] stream plus the
//! provenance needed to replay it bit-for-bit: the generator name and seed,
//! and the [`WrongPathSpec`] that parameterizes wrong-path synthesis (the
//! wrong-path stream is demand-driven by simulated timing, so it is recorded
//! as its generating spec, not as flat records). Records are delta-encoded
//! (program counters and memory addresses as zig-zag varint deltas) and
//! packed into independently decodable blocks, each optionally LZSS
//! compressed and guarded by a CRC-32 of its uncompressed payload.
//!
//! The full byte-level specification lives in `docs/TRACE_FORMAT.md`; this
//! module is the reference implementation. File layout at a glance:
//!
//! ```text
//! header  | magic "ELSQETRC", version, flags, provenance, name,
//!         | [v2: checkpoint directory], CRC-32
//! block*  | n_records, raw_len, comp_len, encoding, CRC-32, payload
//! end     | an all-zero block header (17 zero bytes)
//! trailer | magic "ETRCEND\0", instruction count, CRC-32
//! ```
//!
//! Version-2 headers additionally carry a *checkpoint directory*: periodic
//! architectural checkpoints (instruction count, block byte offset, last
//! program counter and memory address) taken at block boundaries, so a
//! seekable reader ([`EtrcReader::seek_to_checkpoint`]) can jump near any
//! sample window without decoding the prefix. The directory sits between
//! the name and the header CRC and is covered by it.
//!
//! # Example
//!
//! ```
//! use elsq_isa::etrc::{read_trace, write_trace, TraceMeta};
//! use elsq_isa::{InstBuilder, OpClass};
//!
//! let insts = vec![
//!     InstBuilder::load(0x1000, 0x8000, 8).dst(elsq_isa::ArchReg::int(1)).build(),
//!     InstBuilder::alu(0x1004, OpClass::IntAlu).dst(elsq_isa::ArchReg::int(2)).build(),
//! ];
//! let bytes = write_trace(&insts, &TraceMeta::named("example", 7)).unwrap();
//! let (meta, decoded) = read_trace(&bytes).unwrap();
//! assert_eq!(meta.name, "example");
//! assert_eq!(decoded, insts);
//! ```

use std::fmt;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::inst::{BranchInfo, DynInst, InvalidInstError, MemAccess, MAX_SRCS};
use crate::op::{Op, OpClass};
use crate::reg::{ArchReg, RegClass, NUM_ARCH_REGS_PER_CLASS};
use crate::trace::TraceSource;
use crate::wrongpath::{WrongPathSpec, WrongPathSynth};

/// File magic, first 8 bytes of every `.etrc` file.
pub const MAGIC: [u8; 8] = *b"ELSQETRC";
/// Trailer magic, written after the end-of-blocks marker.
pub const END_MAGIC: [u8; 8] = *b"ETRCEND\0";
/// Original format version: no checkpoint directory.
pub const FORMAT_VERSION: u16 = 1;
/// Format version 2: the header carries a checkpoint directory between the
/// name and the header CRC, so a seekable reader can jump to any sample
/// window without decoding the prefix.
pub const FORMAT_VERSION_V2: u16 = 2;
/// Default uncompressed block payload target in bytes.
pub const DEFAULT_BLOCK_TARGET: u32 = 64 * 1024;
/// Header flag bit: a wrong-path spec is present.
pub const FLAG_WRONG_PATH: u16 = 1 << 0;

/// Suite tag: the trace is not part of a recorded suite.
pub const SUITE_NONE: u8 = 0;
/// Suite tag: member of the FP-like suite roster.
pub const SUITE_FP: u8 = 1;
/// Suite tag: member of the INT-like suite roster.
pub const SUITE_INT: u8 = 2;

/// Block encoding: payload stored uncompressed.
pub const ENC_RAW: u8 = 0;
/// Block encoding: payload LZSS compressed (see `docs/TRACE_FORMAT.md`).
pub const ENC_LZSS: u8 = 1;

const HEADER_FIXED_LEN: usize = 60;
const BLOCK_HEADER_LEN: usize = 17;
const TRAILER_LEN: usize = 20;
/// Fixed on-disk size of one checkpoint directory entry.
pub const CHECKPOINT_ENTRY_LEN: usize = 32;
/// Upper bound on directory entries a reader will accept. A million entries
/// is already a 32 MiB header; anything larger is treated as corruption.
pub const MAX_CHECKPOINTS: u32 = 1 << 20;
/// Minimum LZSS match length; shorter repeats are emitted as literals.
const LZSS_MIN_MATCH: usize = 4;
/// Maximum LZSS match length (`LZSS_MIN_MATCH + 255`).
const LZSS_MAX_MATCH: usize = LZSS_MIN_MATCH + 255;

/// Errors produced by the `.etrc` codec.
#[derive(Debug)]
pub enum EtrcError {
    /// An underlying I/O error.
    Io(std::io::Error),
    /// The file does not start with the `.etrc` magic.
    BadMagic,
    /// The file's format version is newer than this reader supports.
    UnsupportedVersion(u16),
    /// The file ended in the middle of the named structure.
    Truncated(&'static str),
    /// A CRC-32 check failed over the named structure.
    Crc {
        /// Which structure failed ("header", "block", "trailer").
        what: &'static str,
        /// Index of the failing block (0 for header/trailer).
        block: u64,
    },
    /// The file is structurally invalid.
    Corrupt(String),
    /// An instruction failed [`DynInst::validate`] during encode or decode.
    InvalidInst(InvalidInstError),
}

impl fmt::Display for EtrcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtrcError::Io(e) => write!(f, "i/o error: {e}"),
            EtrcError::BadMagic => write!(f, "not an .etrc file (bad magic)"),
            EtrcError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .etrc version {v} (reader supports up to {FORMAT_VERSION_V2})"
                )
            }
            EtrcError::Truncated(what) => write!(f, "truncated file: unexpected end inside {what}"),
            EtrcError::Crc { what, block } => write!(f, "CRC mismatch in {what} {block}"),
            EtrcError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
            EtrcError::InvalidInst(e) => write!(f, "invalid instruction: {e}"),
        }
    }
}

impl std::error::Error for EtrcError {}

impl From<std::io::Error> for EtrcError {
    fn from(e: std::io::Error) -> Self {
        EtrcError::Io(e)
    }
}

impl From<InvalidInstError> for EtrcError {
    fn from(e: InvalidInstError) -> Self {
        EtrcError::InvalidInst(e)
    }
}

/// Provenance metadata stored in an `.etrc` header.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Format version of the file. Readers fill in the version actually
    /// decoded from the header; writers can only produce the current
    /// [`FORMAT_VERSION`] and reject anything else.
    pub version: u16,
    /// Workload name, reported verbatim by [`FileTrace::name`] so replayed
    /// reports label rows exactly like generator-driven ones.
    pub name: String,
    /// Seed the generator that produced the trace was constructed with.
    pub seed: u64,
    /// Which suite roster the trace belongs to ([`SUITE_NONE`],
    /// [`SUITE_FP`] or [`SUITE_INT`]).
    pub suite_tag: u8,
    /// Position within the suite roster, if any.
    pub suite_index: Option<u8>,
    /// Wrong-path synthesis parameters, if the source exposed them.
    pub wrong_path: Option<WrongPathSpec>,
    /// Uncompressed block payload target in bytes.
    pub block_target: u32,
    /// Checkpoint spacing in instructions, if the header carries a
    /// checkpoint directory (version-2 files only).
    pub checkpoint_every: Option<u64>,
}

impl TraceMeta {
    /// A minimal meta: just a name and a seed (no suite membership, no
    /// wrong-path spec, default block size).
    pub fn named(name: impl Into<String>, seed: u64) -> Self {
        Self {
            version: FORMAT_VERSION,
            name: name.into(),
            seed,
            suite_tag: SUITE_NONE,
            suite_index: None,
            wrong_path: None,
            block_target: DEFAULT_BLOCK_TARGET,
            checkpoint_every: None,
        }
    }

    /// Upgrades the meta to a version-2 file whose header carries a
    /// checkpoint directory with one entry every `every` instructions.
    pub fn with_checkpoints(mut self, every: u64) -> Self {
        self.version = FORMAT_VERSION_V2;
        self.checkpoint_every = Some(every);
        self
    }
}

/// One entry of a version-2 checkpoint directory: the architectural state
/// needed to resume decoding at a block boundary without reading the
/// prefix. Entry 0 is always the trace start (all fields zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Correct-path instructions decoded before this point.
    pub insts: u64,
    /// Byte offset of the next block header, measured from the end of the
    /// file header (so it stays valid whatever the name length is).
    pub offset: u64,
    /// Program counter of the last instruction before the checkpoint.
    pub pc: u64,
    /// Last data-memory address touched before the checkpoint.
    pub mem_addr: u64,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, as used by gzip/zlib/PNG)
// ---------------------------------------------------------------------------

/// Slicing-by-8 lookup tables: `CRC_TABLES[0]` is the classic bytewise
/// table, and `CRC_TABLES[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes, so eight input bytes fold in with eight
/// independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE) of `data`, the checksum every `.etrc` structure uses.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Varint + zig-zag primitives
// ---------------------------------------------------------------------------

/// Zig-zag maps a signed delta to an unsigned varint-friendly value.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as an LEB128 varint (7 data bits per byte, MSB = continue).
fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn read_varint(buf: &[u8], cursor: &mut usize) -> Result<u64, EtrcError> {
    let mut v = 0u64;
    for shift in 0..10 {
        let byte = *buf.get(*cursor).ok_or(EtrcError::Truncated("varint"))?;
        *cursor += 1;
        v |= u64::from(byte & 0x7F) << (shift * 7);
        if byte & 0x80 == 0 {
            if shift == 9 && byte > 1 {
                return Err(EtrcError::Corrupt("varint overflows u64".into()));
            }
            return Ok(v);
        }
    }
    Err(EtrcError::Corrupt("varint longer than 10 bytes".into()))
}

// ---------------------------------------------------------------------------
// LZSS block compression
// ---------------------------------------------------------------------------

const LZSS_HASH_BITS: u32 = 15;

fn lzss_hash(window: &[u8]) -> usize {
    let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
    (v.wrapping_mul(2_654_435_761) >> (32 - LZSS_HASH_BITS)) as usize
}

/// The length of the common prefix of two equally long slices, compared
/// eight bytes at a time.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut len = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("an 8-byte chunk"))
            ^ u64::from_le_bytes(y.try_into().expect("an 8-byte chunk"));
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + a[len..]
        .iter()
        .zip(&b[len..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// LZSS-compresses `raw` into `out`, using `table` (`1 << LZSS_HASH_BITS`
/// entries) as the match table. Returns `false` when the compressed form
/// would not be smaller (the block is then stored raw).
///
/// Both buffers are the caller's, kept across blocks; they are reset here
/// because every block compresses (and decodes) on its own.
fn lzss_compress(raw: &[u8], table: &mut [u32], out: &mut Vec<u8>) -> bool {
    out.clear();
    // Single-slot hash table of the most recent position of each 4-byte
    // prefix hash; position + 1 so 0 means empty.
    table.fill(0);
    let mut pos = 0usize;
    let mut control_at = usize::MAX;
    let mut control_bits = 8u8;
    let mut push_token = |out: &mut Vec<u8>, is_match: bool| {
        if control_bits == 8 {
            control_at = out.len();
            out.push(0);
            control_bits = 0;
        }
        if is_match {
            out[control_at] |= 1 << control_bits;
        }
        control_bits += 1;
    };
    while pos < raw.len() {
        let mut matched = 0usize;
        let mut offset = 0usize;
        if pos + LZSS_MIN_MATCH <= raw.len() {
            let h = lzss_hash(&raw[pos..]);
            let cand = table[h] as usize;
            table[h] = (pos + 1) as u32;
            if cand > 0 {
                let cand = cand - 1;
                let dist = pos - cand;
                if dist > 0 && dist <= u16::MAX as usize {
                    let limit = (raw.len() - pos).min(LZSS_MAX_MATCH);
                    let len = common_prefix(&raw[cand..cand + limit], &raw[pos..pos + limit]);
                    if len >= LZSS_MIN_MATCH {
                        matched = len;
                        offset = dist;
                    }
                }
            }
        }
        if matched > 0 {
            push_token(out, true);
            out.extend_from_slice(&(offset as u16).to_le_bytes());
            out.push((matched - LZSS_MIN_MATCH) as u8);
            // Index the interior of the match so later data can refer to it.
            let stop = (pos + matched).min(raw.len().saturating_sub(LZSS_MIN_MATCH - 1));
            for p in (pos + 1)..stop {
                table[lzss_hash(&raw[p..])] = (p + 1) as u32;
            }
            pos += matched;
        } else {
            push_token(out, false);
            out.push(raw[pos]);
            pos += 1;
        }
    }
    out.len() < raw.len()
}

/// Decompresses an LZSS payload into `out`, which ends up holding exactly
/// `raw_len` bytes (the caller's buffer, kept across blocks). `raw_len`
/// is read from the file, so nothing is reserved for it: `out` grows only
/// with the bytes the stream produces.
fn lzss_decompress(
    comp: &[u8],
    raw_len: usize,
    block: u64,
    out: &mut Vec<u8>,
) -> Result<(), EtrcError> {
    out.clear();
    let mut cursor = 0usize;
    let mut control = 0u8;
    let mut control_bits = 0u8;
    while out.len() < raw_len {
        if control_bits == 0 {
            control = *comp
                .get(cursor)
                .ok_or(EtrcError::Truncated("LZSS control byte"))?;
            cursor += 1;
            control_bits = 8;
        }
        let is_match = control & 1 != 0;
        control >>= 1;
        control_bits -= 1;
        if is_match {
            let bytes = comp
                .get(cursor..cursor + 3)
                .ok_or(EtrcError::Truncated("LZSS match token"))?;
            cursor += 3;
            let offset = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
            let len = bytes[2] as usize + LZSS_MIN_MATCH;
            if offset == 0 || offset > out.len() {
                return Err(EtrcError::Corrupt(format!(
                    "block {block}: LZSS offset {offset} outside the {} bytes produced",
                    out.len()
                )));
            }
            if out.len() + len > raw_len {
                return Err(EtrcError::Corrupt(format!(
                    "block {block}: LZSS match overruns the declared raw length"
                )));
            }
            // Copy front to back in chunks that read only bytes already
            // produced: one chunk for a match that does not overlap its
            // output, doubling chunks for one that does (offset < length,
            // run-length style), whose output repeats with period `offset`.
            let start = out.len() - offset;
            let end = out.len() + len;
            while out.len() < end {
                let n = (end - out.len()).min(out.len() - start);
                out.extend_from_within(start..start + n);
            }
        } else {
            let b = *comp
                .get(cursor)
                .ok_or(EtrcError::Truncated("LZSS literal"))?;
            cursor += 1;
            out.push(b);
        }
    }
    if cursor != comp.len() {
        return Err(EtrcError::Corrupt(format!(
            "block {block}: {} trailing bytes after the LZSS stream",
            comp.len() - cursor
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Record codec (delta encoding of DynInst)
// ---------------------------------------------------------------------------

fn class_code(class: OpClass) -> u8 {
    match class {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::FpAlu => 2,
        OpClass::FpMul => 3,
        OpClass::FpDiv => 4,
        OpClass::Load => 5,
        OpClass::Store => 6,
        OpClass::Branch => 7,
        OpClass::Nop => 8,
    }
}

fn code_class(code: u8) -> Result<OpClass, EtrcError> {
    Ok(match code {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::FpAlu,
        3 => OpClass::FpMul,
        4 => OpClass::FpDiv,
        5 => OpClass::Load,
        6 => OpClass::Store,
        7 => OpClass::Branch,
        8 => OpClass::Nop,
        other => return Err(EtrcError::Corrupt(format!("unknown op-class code {other}"))),
    })
}

fn reg_code(reg: Option<ArchReg>) -> u8 {
    reg.map(|r| r.flat_index() as u8).unwrap_or(0xFF)
}

fn code_reg(code: u8) -> Result<Option<ArchReg>, EtrcError> {
    match code {
        0xFF => Ok(None),
        i if i < NUM_ARCH_REGS_PER_CLASS => Ok(Some(ArchReg::new(RegClass::Int, i))),
        i if i < 2 * NUM_ARCH_REGS_PER_CLASS => Ok(Some(ArchReg::new(
            RegClass::Fp,
            i - NUM_ARCH_REGS_PER_CLASS,
        ))),
        other => Err(EtrcError::Corrupt(format!(
            "register code {other} out of range"
        ))),
    }
}

/// Per-stream delta state; reset at every block boundary so each block
/// decodes independently.
#[derive(Debug, Default, Clone, Copy)]
struct DeltaState {
    prev_pc: u64,
    prev_mem_addr: u64,
}

fn encode_record(buf: &mut Vec<u8>, inst: &DynInst, st: &mut DeltaState) -> Result<(), EtrcError> {
    inst.validate()?;
    let class = inst.op.class();
    let explicit_latency = inst.op.latency() != class.default_latency();
    let mut flags = class_code(class);
    debug_assert!(flags < 16);
    if inst.dst.is_some() {
        flags |= 1 << 4;
    }
    if explicit_latency {
        flags |= 1 << 5;
    }
    if inst.wrong_path {
        flags |= 1 << 6;
    }
    buf.push(flags);
    write_varint(buf, zigzag(inst.pc.wrapping_sub(st.prev_pc) as i64));
    st.prev_pc = inst.pc;
    if explicit_latency {
        write_varint(buf, inst.op.latency() as u64);
    }
    if let Some(dst) = inst.dst {
        buf.push(reg_code(Some(dst)));
    }
    buf.push(reg_code(inst.srcs[0]));
    buf.push(reg_code(inst.srcs[1]));
    if let Some(mem) = inst.mem {
        write_varint(buf, zigzag(mem.addr.wrapping_sub(st.prev_mem_addr) as i64));
        st.prev_mem_addr = mem.addr;
        buf.push(mem.size.trailing_zeros() as u8);
    }
    if let Some(branch) = inst.branch {
        buf.push(u8::from(branch.taken) | (u8::from(branch.mispredicted) << 1));
        write_varint(buf, zigzag(branch.target.wrapping_sub(inst.pc) as i64));
    }
    Ok(())
}

fn decode_record(
    buf: &[u8],
    cursor: &mut usize,
    st: &mut DeltaState,
) -> Result<DynInst, EtrcError> {
    let flags = *buf
        .get(*cursor)
        .ok_or(EtrcError::Truncated("record flags"))?;
    *cursor += 1;
    if flags & 0x80 != 0 {
        return Err(EtrcError::Corrupt("reserved record flag bit set".into()));
    }
    let class = code_class(flags & 0x0F)?;
    let has_dst = flags & (1 << 4) != 0;
    let explicit_latency = flags & (1 << 5) != 0;
    let wrong_path = flags & (1 << 6) != 0;
    let pc = st
        .prev_pc
        .wrapping_add(unzigzag(read_varint(buf, cursor)?) as u64);
    st.prev_pc = pc;
    let op = if explicit_latency {
        let latency = read_varint(buf, cursor)?;
        let latency = u32::try_from(latency)
            .ok()
            .filter(|&l| l > 0)
            .ok_or_else(|| EtrcError::Corrupt(format!("latency {latency} out of range")))?;
        Op::with_latency(class, latency)
    } else {
        Op::of(class)
    };
    let dst = if has_dst {
        let code = *buf
            .get(*cursor)
            .ok_or(EtrcError::Truncated("dst register"))?;
        *cursor += 1;
        let reg = code_reg(code)?;
        if reg.is_none() {
            return Err(EtrcError::Corrupt(
                "dst flagged present but encoded as none".into(),
            ));
        }
        reg
    } else {
        None
    };
    let mut srcs = [None; MAX_SRCS];
    for src in srcs.iter_mut() {
        let code = *buf
            .get(*cursor)
            .ok_or(EtrcError::Truncated("src register"))?;
        *cursor += 1;
        *src = code_reg(code)?;
    }
    let mem = if class.is_mem() {
        let addr = st
            .prev_mem_addr
            .wrapping_add(unzigzag(read_varint(buf, cursor)?) as u64);
        st.prev_mem_addr = addr;
        let size_log2 = *buf
            .get(*cursor)
            .ok_or(EtrcError::Truncated("access size"))?;
        *cursor += 1;
        if size_log2 > 3 {
            return Err(EtrcError::Corrupt(format!(
                "access size log2 {size_log2} out of range"
            )));
        }
        Some(MemAccess::new(addr, 1 << size_log2))
    } else {
        None
    };
    let branch = if class == OpClass::Branch {
        let bits = *buf
            .get(*cursor)
            .ok_or(EtrcError::Truncated("branch outcome"))?;
        *cursor += 1;
        if bits & !0x03 != 0 {
            return Err(EtrcError::Corrupt("reserved branch outcome bit set".into()));
        }
        let target = pc.wrapping_add(unzigzag(read_varint(buf, cursor)?) as u64);
        Some(BranchInfo {
            taken: bits & 1 != 0,
            mispredicted: bits & 2 != 0,
            target,
        })
    } else {
        None
    };
    let inst = DynInst {
        pc,
        op,
        dst,
        srcs,
        mem,
        branch,
        wrong_path,
    };
    inst.validate()?;
    Ok(inst)
}

// ---------------------------------------------------------------------------
// Header / trailer codec
// ---------------------------------------------------------------------------

/// Structural checks shared by the encoder and the decoder: a directory
/// must start at the trace start and advance strictly in both instruction
/// count and byte offset, or seeking through it would misposition reads.
fn validate_directory(every: u64, entries: &[Checkpoint]) -> Result<(), EtrcError> {
    if every == 0 {
        return Err(EtrcError::Corrupt(
            "checkpoint interval of zero instructions".into(),
        ));
    }
    if entries.len() > MAX_CHECKPOINTS as usize {
        return Err(EtrcError::Corrupt(format!(
            "checkpoint directory of {} entries exceeds the {MAX_CHECKPOINTS} cap",
            entries.len()
        )));
    }
    match entries.first() {
        None => {
            return Err(EtrcError::Corrupt("empty checkpoint directory".into()));
        }
        Some(first) if *first != Checkpoint::default() => {
            return Err(EtrcError::Corrupt(
                "checkpoint directory entry 0 is not the trace start".into(),
            ));
        }
        Some(_) => {}
    }
    for pair in entries.windows(2) {
        if pair[1].insts <= pair[0].insts || pair[1].offset <= pair[0].offset {
            return Err(EtrcError::Corrupt(
                "checkpoint directory entries are not strictly increasing".into(),
            ));
        }
    }
    Ok(())
}

// Encoding enforces every constraint decoding checks, so a writer can
// never produce a file its own reader refuses to open.
fn encode_header(meta: &TraceMeta, checkpoints: &[Checkpoint]) -> Result<Vec<u8>, EtrcError> {
    match meta.checkpoint_every {
        Some(every) => {
            if meta.version != FORMAT_VERSION_V2 {
                return Err(EtrcError::Corrupt(format!(
                    "checkpoint directories require format version {FORMAT_VERSION_V2}, not {}",
                    meta.version
                )));
            }
            validate_directory(every, checkpoints)?;
        }
        None => {
            if meta.version != FORMAT_VERSION {
                return Err(EtrcError::Corrupt(format!(
                    "writer can only produce format version {FORMAT_VERSION} without a \
                     checkpoint directory, not {}",
                    meta.version
                )));
            }
            debug_assert!(checkpoints.is_empty());
        }
    }
    let name = meta.name.as_bytes();
    if name.len() > u16::MAX as usize {
        return Err(EtrcError::Corrupt(
            "workload name longer than 65535 bytes".into(),
        ));
    }
    if meta.block_target == 0 {
        return Err(EtrcError::Corrupt("block target of zero bytes".into()));
    }
    if let Some(wp) = meta.wrong_path {
        if !(0.0..=1.0).contains(&wp.load_rate) {
            return Err(EtrcError::Corrupt(format!(
                "wrong-path load rate {} outside [0, 1]",
                wp.load_rate
            )));
        }
    }
    let mut buf = Vec::with_capacity(
        HEADER_FIXED_LEN + name.len() + checkpoints.len() * CHECKPOINT_ENTRY_LEN + 16,
    );
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&meta.version.to_le_bytes());
    let flags = if meta.wrong_path.is_some() {
        FLAG_WRONG_PATH
    } else {
        0
    };
    buf.extend_from_slice(&flags.to_le_bytes());
    buf.push(meta.suite_tag);
    if meta.suite_index == Some(0xFF) {
        // 0xFF is the on-disk "no slot" sentinel; writing it as a real slot
        // would decode back as None and silently break round-tripping.
        return Err(EtrcError::Corrupt(
            "suite index 255 is reserved for \"no slot\"".into(),
        ));
    }
    buf.push(meta.suite_index.unwrap_or(0xFF));
    buf.extend_from_slice(&(name.len() as u16).to_le_bytes());
    buf.extend_from_slice(&meta.seed.to_le_bytes());
    let wp = meta.wrong_path.unwrap_or(WrongPathSpec {
        seed: 0,
        region_base: 0,
        region_size: 0,
        load_rate: 0.0,
    });
    buf.extend_from_slice(&wp.seed.to_le_bytes());
    buf.extend_from_slice(&wp.region_base.to_le_bytes());
    buf.extend_from_slice(&wp.region_size.to_le_bytes());
    buf.extend_from_slice(&wp.load_rate.to_bits().to_le_bytes());
    buf.extend_from_slice(&meta.block_target.to_le_bytes());
    debug_assert_eq!(buf.len(), HEADER_FIXED_LEN);
    buf.extend_from_slice(name);
    if let Some(every) = meta.checkpoint_every {
        buf.extend_from_slice(&every.to_le_bytes());
        buf.extend_from_slice(&(checkpoints.len() as u32).to_le_bytes());
        for c in checkpoints {
            buf.extend_from_slice(&c.insts.to_le_bytes());
            buf.extend_from_slice(&c.offset.to_le_bytes());
            buf.extend_from_slice(&c.pc.to_le_bytes());
            buf.extend_from_slice(&c.mem_addr.to_le_bytes());
        }
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

fn read_exact_or(src: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), EtrcError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            EtrcError::Truncated(what)
        } else {
            EtrcError::Io(e)
        }
    })
}

fn decode_header(src: &mut impl Read) -> Result<(TraceMeta, u64, Vec<Checkpoint>), EtrcError> {
    let mut fixed = [0u8; HEADER_FIXED_LEN];
    read_exact_or(src, &mut fixed, "header")?;
    if fixed[0..8] != MAGIC {
        return Err(EtrcError::BadMagic);
    }
    let u16_at = |i: usize| u16::from_le_bytes([fixed[i], fixed[i + 1]]);
    let u32_at = |i: usize| u32::from_le_bytes(fixed[i..i + 4].try_into().unwrap());
    let u64_at = |i: usize| u64::from_le_bytes(fixed[i..i + 8].try_into().unwrap());
    let version = u16_at(8);
    if version == 0 || version > FORMAT_VERSION_V2 {
        return Err(EtrcError::UnsupportedVersion(version));
    }
    let flags = u16_at(10);
    if flags & !FLAG_WRONG_PATH != 0 {
        // Reserved bits are the forward-compat escape hatch (see the
        // versioning rules in docs/TRACE_FORMAT.md): tolerating them here
        // would let a future minor extension silently misdecode.
        return Err(EtrcError::Corrupt(format!(
            "reserved header flag bits set ({flags:#06x})"
        )));
    }
    let suite_tag = fixed[12];
    let suite_index = if fixed[13] == 0xFF {
        None
    } else {
        Some(fixed[13])
    };
    let name_len = u16_at(14) as usize;
    let seed = u64_at(16);
    let wrong_path = (flags & FLAG_WRONG_PATH != 0).then(|| WrongPathSpec {
        seed: u64_at(24),
        region_base: u64_at(32),
        region_size: u64_at(40),
        load_rate: f64::from_bits(u64_at(48)),
    });
    if let Some(wp) = wrong_path {
        if !(0.0..=1.0).contains(&wp.load_rate) {
            return Err(EtrcError::Corrupt(format!(
                "wrong-path load rate {} outside [0, 1]",
                wp.load_rate
            )));
        }
    }
    let block_target = u32_at(56);
    if block_target == 0 {
        return Err(EtrcError::Corrupt("block target of zero bytes".into()));
    }
    let mut name = vec![0u8; name_len];
    read_exact_or(src, &mut name, "header name")?;
    let mut directory = Vec::new();
    if version >= FORMAT_VERSION_V2 {
        let mut dir_fixed = [0u8; 12];
        read_exact_or(src, &mut dir_fixed, "checkpoint directory")?;
        let count = u32::from_le_bytes(dir_fixed[8..12].try_into().unwrap());
        if count == 0 {
            return Err(EtrcError::Corrupt("empty checkpoint directory".into()));
        }
        if count > MAX_CHECKPOINTS {
            return Err(EtrcError::Corrupt(format!(
                "checkpoint directory of {count} entries exceeds the {MAX_CHECKPOINTS} cap"
            )));
        }
        let mut entries = vec![0u8; count as usize * CHECKPOINT_ENTRY_LEN];
        read_exact_or(src, &mut entries, "checkpoint directory entries")?;
        directory.extend_from_slice(&dir_fixed);
        directory.extend_from_slice(&entries);
    }
    let mut crc_bytes = [0u8; 4];
    read_exact_or(src, &mut crc_bytes, "header CRC")?;
    let mut crc_input = fixed.to_vec();
    crc_input.extend_from_slice(&name);
    crc_input.extend_from_slice(&directory);
    if crc32(&crc_input) != u32::from_le_bytes(crc_bytes) {
        return Err(EtrcError::Crc {
            what: "header",
            block: 0,
        });
    }
    let name = String::from_utf8(name)
        .map_err(|_| EtrcError::Corrupt("workload name is not UTF-8".into()))?;
    let mut checkpoint_every = None;
    let mut checkpoints = Vec::new();
    if version >= FORMAT_VERSION_V2 {
        let d64 = |i: usize| u64::from_le_bytes(directory[i..i + 8].try_into().unwrap());
        let every = d64(0);
        let count = u32::from_le_bytes(directory[8..12].try_into().unwrap()) as usize;
        checkpoints.reserve(count);
        for e in 0..count {
            let at = 12 + e * CHECKPOINT_ENTRY_LEN;
            checkpoints.push(Checkpoint {
                insts: d64(at),
                offset: d64(at + 8),
                pc: d64(at + 16),
                mem_addr: d64(at + 24),
            });
        }
        validate_directory(every, &checkpoints)?;
        checkpoint_every = Some(every);
    }
    let consumed = (HEADER_FIXED_LEN + name_len + directory.len() + 4) as u64;
    Ok((
        TraceMeta {
            version,
            name,
            seed,
            suite_tag,
            suite_index,
            wrong_path,
            block_target,
            checkpoint_every,
        },
        consumed,
        checkpoints,
    ))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Streaming `.etrc` encoder over any [`Write`] sink.
///
/// Instructions are buffered into blocks of roughly the header's block
/// target and flushed as they fill. [`EtrcWriter::finish`] writes the
/// end-of-blocks marker and the counting trailer; a file abandoned without
/// `finish` is detectably truncated (readers error rather than silently
/// yielding a short stream).
///
/// When the meta carries a [`TraceMeta::checkpoint_every`] interval, a
/// block is additionally flushed every `every` instructions and its offset
/// recorded in the header's checkpoint directory. The directory is only
/// complete once the stream ends, so checkpointed bodies are buffered in
/// memory and written — header first — by `finish`.
pub struct EtrcWriter<W: Write> {
    sink: W,
    meta: TraceMeta,
    raw: Vec<u8>,
    /// The LZSS match table and compressed payload of the block being
    /// flushed, kept across blocks so a flush allocates nothing.
    lzss_table: Vec<u32>,
    comp: Vec<u8>,
    n_records: u32,
    delta: DeltaState,
    block_target: usize,
    inst_count: u64,
    /// Flushed block bytes, held back until `finish` (checkpointing only).
    body: Vec<u8>,
    checkpoints: Vec<Checkpoint>,
    /// Instruction count at which the next checkpoint fires (`u64::MAX`
    /// when the meta asks for none).
    next_checkpoint: u64,
    last_pc: u64,
    last_mem_addr: u64,
}

impl<W: Write> EtrcWriter<W> {
    /// Creates a writer and immediately writes the header for `meta` (for
    /// checkpointed traces the header is validated now but written by
    /// [`EtrcWriter::finish`], once the directory is known).
    pub fn new(mut sink: W, meta: &TraceMeta) -> Result<Self, EtrcError> {
        if meta.checkpoint_every.is_some() {
            // Fail on a bad meta before any instruction is buffered; the
            // directory itself grows as blocks flush.
            encode_header(meta, &[Checkpoint::default()])?;
        } else {
            sink.write_all(&encode_header(meta, &[])?)?;
        }
        Ok(Self {
            sink,
            raw: Vec::with_capacity(meta.block_target as usize + 64),
            lzss_table: vec![0; 1 << LZSS_HASH_BITS],
            comp: Vec::new(),
            n_records: 0,
            delta: DeltaState::default(),
            block_target: meta.block_target as usize,
            inst_count: 0,
            body: Vec::new(),
            checkpoints: if meta.checkpoint_every.is_some() {
                vec![Checkpoint::default()]
            } else {
                Vec::new()
            },
            next_checkpoint: meta.checkpoint_every.unwrap_or(u64::MAX),
            last_pc: 0,
            last_mem_addr: 0,
            meta: meta.clone(),
        })
    }

    /// Appends one instruction record.
    ///
    /// Returns an error if `inst` fails [`DynInst::validate`] (only valid
    /// instructions are representable) or on I/O failure.
    pub fn write_inst(&mut self, inst: &DynInst) -> Result<(), EtrcError> {
        encode_record(&mut self.raw, inst, &mut self.delta)?;
        self.n_records += 1;
        self.inst_count += 1;
        self.last_pc = inst.pc;
        if let Some(mem) = inst.mem {
            self.last_mem_addr = mem.addr;
        }
        // Flush after completing a record so records never straddle
        // blocks; a due checkpoint forces the flush so its directory entry
        // lands exactly on a block boundary.
        if self.inst_count == self.next_checkpoint {
            self.flush_block()?;
            self.checkpoints.push(Checkpoint {
                insts: self.inst_count,
                offset: self.body.len() as u64,
                pc: self.last_pc,
                mem_addr: self.last_mem_addr,
            });
            let every = self.meta.checkpoint_every.unwrap_or(u64::MAX);
            self.next_checkpoint = self.next_checkpoint.saturating_add(every);
        } else if self.raw.len() >= self.block_target {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), EtrcError> {
        if self.n_records == 0 {
            return Ok(());
        }
        let crc = crc32(&self.raw);
        let (encoding, payload): (u8, &[u8]) =
            if lzss_compress(&self.raw, &mut self.lzss_table, &mut self.comp) {
                (ENC_LZSS, &self.comp)
            } else {
                (ENC_RAW, &self.raw)
            };
        let mut header = [0u8; BLOCK_HEADER_LEN];
        header[0..4].copy_from_slice(&self.n_records.to_le_bytes());
        header[4..8].copy_from_slice(&(self.raw.len() as u32).to_le_bytes());
        header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[12] = encoding;
        header[13..17].copy_from_slice(&crc.to_le_bytes());
        if self.meta.checkpoint_every.is_some() {
            self.body.extend_from_slice(&header);
            self.body.extend_from_slice(payload);
        } else {
            self.sink.write_all(&header)?;
            self.sink.write_all(payload)?;
        }
        self.raw.clear();
        self.n_records = 0;
        // Each block decodes independently: deltas restart from zero.
        self.delta = DeltaState::default();
        Ok(())
    }

    /// Flushes the final block, writes the end marker and trailer, and
    /// returns the total number of instruction records written.
    pub fn finish(mut self) -> Result<u64, EtrcError> {
        self.flush_block()?;
        if self.meta.checkpoint_every.is_some() {
            self.sink
                .write_all(&encode_header(&self.meta, &self.checkpoints)?)?;
            self.sink.write_all(&self.body)?;
        }
        self.sink.write_all(&[0u8; BLOCK_HEADER_LEN])?;
        let mut trailer = [0u8; TRAILER_LEN];
        trailer[0..8].copy_from_slice(&END_MAGIC);
        trailer[8..16].copy_from_slice(&self.inst_count.to_le_bytes());
        let crc = crc32(&trailer[0..16]);
        trailer[16..20].copy_from_slice(&crc.to_le_bytes());
        self.sink.write_all(&trailer)?;
        self.sink.flush()?;
        Ok(self.inst_count)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Aggregate statistics collected while reading a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Instruction records decoded so far.
    pub insts: u64,
    /// Data blocks decoded so far (excluding the end marker).
    pub blocks: u64,
    /// Sum of uncompressed block payload bytes.
    pub raw_bytes: u64,
    /// Sum of on-disk block payload bytes (after compression).
    pub compressed_bytes: u64,
    /// Total bytes consumed from the source, including framing.
    pub file_bytes: u64,
    /// Loads decoded.
    pub loads: u64,
    /// Stores decoded.
    pub stores: u64,
    /// Branches decoded.
    pub branches: u64,
    /// Checkpoint directory entries in the header (0 for version-1 files).
    pub checkpoints: u64,
}

/// Streaming `.etrc` decoder over any [`Read`] source.
///
/// Decodes one block at a time: block framing is read lazily, payloads are
/// CRC-checked before any record is decoded, and the trailer count is
/// verified against the number of records the reader passed (decoded, or
/// skipped with [`EtrcReader::skip_insts`]).
pub struct EtrcReader<R: Read> {
    src: R,
    meta: TraceMeta,
    /// The current block's decoded records.
    block: Vec<u8>,
    /// The on-disk payload of the block being loaded. Both buffers are
    /// kept across blocks (a raw block swaps them), so loading a block
    /// allocates nothing once they have grown to the block size.
    payload: Vec<u8>,
    cursor: usize,
    records_left: u32,
    delta: DeltaState,
    stats: TraceStats,
    done: bool,
    checkpoints: Vec<Checkpoint>,
    header_len: u64,
    /// A block header already read from `src` but not yet acted on: a
    /// skip that reaches the end-of-blocks marker leaves it here, so the
    /// next decode still verifies the trailer.
    peeked: Option<[u8; BLOCK_HEADER_LEN]>,
}

impl<R: Read> EtrcReader<R> {
    /// Opens a trace, parsing and CRC-checking the header.
    pub fn new(mut src: R) -> Result<Self, EtrcError> {
        let (meta, header_bytes, checkpoints) = decode_header(&mut src)?;
        Ok(Self {
            src,
            meta,
            block: Vec::new(),
            payload: Vec::new(),
            cursor: 0,
            records_left: 0,
            delta: DeltaState::default(),
            stats: TraceStats {
                file_bytes: header_bytes,
                checkpoints: checkpoints.len() as u64,
                ..TraceStats::default()
            },
            done: false,
            checkpoints,
            header_len: header_bytes,
            peeked: None,
        })
    }

    /// The header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// The header's checkpoint directory (empty for version-1 files).
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// Statistics over everything decoded so far (complete once
    /// [`EtrcReader::next_inst`] has returned `Ok(None)`).
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// The next block header: the one a skip left peeked, or a fresh read.
    fn next_block_header(&mut self) -> Result<[u8; BLOCK_HEADER_LEN], EtrcError> {
        if let Some(header) = self.peeked.take() {
            return Ok(header);
        }
        let mut header = [0u8; BLOCK_HEADER_LEN];
        read_exact_or(&mut self.src, &mut header, "block header")?;
        self.stats.file_bytes += BLOCK_HEADER_LEN as u64;
        Ok(header)
    }

    fn load_next_block(&mut self) -> Result<bool, EtrcError> {
        let header = self.next_block_header()?;
        let n_records = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let raw_len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        let comp_len = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
        let encoding = header[12];
        let crc = u32::from_le_bytes(header[13..17].try_into().unwrap());
        if n_records == 0 {
            // End-of-blocks marker: every field must be zero, then the
            // trailer follows.
            if header != [0u8; BLOCK_HEADER_LEN] {
                return Err(EtrcError::Corrupt("non-zero end-of-blocks marker".into()));
            }
            let mut trailer = [0u8; TRAILER_LEN];
            read_exact_or(&mut self.src, &mut trailer, "trailer")?;
            self.stats.file_bytes += TRAILER_LEN as u64;
            if trailer[0..8] != END_MAGIC {
                return Err(EtrcError::Corrupt("bad trailer magic".into()));
            }
            if crc32(&trailer[0..16]) != u32::from_le_bytes(trailer[16..20].try_into().unwrap()) {
                return Err(EtrcError::Crc {
                    what: "trailer",
                    block: 0,
                });
            }
            let declared = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
            if declared != self.stats.insts {
                return Err(EtrcError::Corrupt(format!(
                    "trailer declares {declared} records but {} were decoded",
                    self.stats.insts
                )));
            }
            let extra = std::io::copy(&mut self.src, &mut std::io::sink())?;
            if extra > 0 {
                return Err(EtrcError::Corrupt(format!(
                    "{extra} trailing bytes after the trailer"
                )));
            }
            self.done = true;
            return Ok(false);
        }
        // `comp_len` is read from the file: the buffer grows only with the
        // bytes that actually arrive, so a corrupt length cannot claim
        // more memory than the file holds.
        self.payload.clear();
        (&mut self.src)
            .take(comp_len as u64)
            .read_to_end(&mut self.payload)?;
        if self.payload.len() != comp_len {
            return Err(EtrcError::Truncated("block payload"));
        }
        self.stats.file_bytes += comp_len as u64;
        let block_index = self.stats.blocks;
        match encoding {
            ENC_RAW => {
                if comp_len != raw_len {
                    return Err(EtrcError::Corrupt(format!(
                        "block {block_index}: raw block with comp_len {comp_len} != raw_len {raw_len}"
                    )));
                }
                std::mem::swap(&mut self.block, &mut self.payload);
            }
            ENC_LZSS => lzss_decompress(&self.payload, raw_len, block_index, &mut self.block)?,
            other => {
                return Err(EtrcError::Corrupt(format!(
                    "block {block_index}: unknown encoding {other}"
                )));
            }
        }
        if crc32(&self.block) != crc {
            return Err(EtrcError::Crc {
                what: "block",
                block: block_index,
            });
        }
        self.stats.blocks += 1;
        self.stats.raw_bytes += raw_len as u64;
        self.stats.compressed_bytes += comp_len as u64;
        self.cursor = 0;
        self.records_left = n_records;
        self.delta = DeltaState::default();
        Ok(true)
    }

    /// Decodes the next instruction, or returns `Ok(None)` at a clean end of
    /// trace (end marker + verified trailer).
    pub fn next_inst(&mut self) -> Result<Option<DynInst>, EtrcError> {
        while self.records_left == 0 {
            if self.done {
                return Ok(None);
            }
            if !self.load_next_block()? {
                return Ok(None);
            }
        }
        let inst = decode_record(&self.block, &mut self.cursor, &mut self.delta)?;
        self.records_left -= 1;
        if self.records_left == 0 && self.cursor != self.block.len() {
            return Err(EtrcError::Corrupt(format!(
                "block {}: {} payload bytes left after the last record",
                self.stats.blocks.saturating_sub(1),
                self.block.len() - self.cursor
            )));
        }
        self.stats.insts += 1;
        if inst.is_load() {
            self.stats.loads += 1;
        } else if inst.is_store() {
            self.stats.stores += 1;
        } else if inst.is_branch() {
            self.stats.branches += 1;
        }
        Ok(Some(inst))
    }
}

impl<R: Read + Seek> EtrcReader<R> {
    /// Repositions the reader at the greatest checkpoint at or before
    /// `target_insts` and returns that checkpoint's instruction count (the
    /// caller decode-discards the remaining `target - returned` records).
    ///
    /// Errors on version-1 files, which carry no directory. After a seek,
    /// [`TraceStats::insts`] restarts from the checkpoint's count, so the
    /// trailer verification still requires the suffix to decode completely;
    /// block/byte statistics only cover what this reader actually decoded.
    pub fn seek_to_checkpoint(&mut self, target_insts: u64) -> Result<u64, EtrcError> {
        let entry = match self
            .checkpoints
            .iter()
            .rev()
            .find(|c| c.insts <= target_insts)
        {
            Some(c) => *c,
            None => {
                return Err(EtrcError::Corrupt(
                    "trace has no checkpoint directory to seek in".into(),
                ));
            }
        };
        self.src
            .seek(SeekFrom::Start(self.header_len + entry.offset))?;
        self.block.clear();
        self.cursor = 0;
        self.records_left = 0;
        self.delta = DeltaState::default();
        self.done = false;
        self.peeked = None;
        self.stats.insts = entry.insts;
        Ok(entry.insts)
    }

    /// Skips up to `n` records and returns how many were skipped (fewer
    /// only when the trace ends first).
    ///
    /// The skip jumps to the last checkpoint at or before the target when
    /// one lies ahead, then passes whole blocks by reading only their
    /// 17-byte headers and seeking over the payload; at most one block is
    /// decoded, the one the target falls inside. Skipped blocks are not
    /// CRC-checked (`trace verify` and [`inspect`] check every block).
    /// [`TraceStats::insts`] counts skipped records too, so the trailer
    /// count is still verified, and a skip never consumes the end-of-blocks
    /// marker: the decode after it reaches the trailer check as usual.
    pub fn skip_insts(&mut self, n: u64) -> Result<u64, EtrcError> {
        let start = self.stats.insts;
        let target = start.saturating_add(n);
        let ahead = self
            .checkpoints
            .iter()
            .rev()
            .find(|c| c.insts <= target)
            .is_some_and(|c| c.insts > start);
        if ahead {
            self.seek_to_checkpoint(target)?;
        }
        // The rest of the current block is already decoded and checked:
        // pass over it in memory when the target lies beyond it.
        let left = u64::from(self.records_left);
        if left > 0 && target - self.stats.insts >= left {
            self.stats.insts += left;
            self.records_left = 0;
            self.block.clear();
            self.cursor = 0;
        }
        while self.records_left == 0 && !self.done && self.stats.insts < target {
            let header = self.next_block_header()?;
            let n_records = u32::from_le_bytes(header[0..4].try_into().unwrap());
            let comp_len = u32::from_le_bytes(header[8..12].try_into().unwrap());
            if n_records == 0 || u64::from(n_records) > target - self.stats.insts {
                // The end marker, or the block the target falls inside:
                // leave it for the decode below (or the caller's next read).
                self.peeked = Some(header);
                break;
            }
            self.src.seek(SeekFrom::Current(i64::from(comp_len)))?;
            self.stats.file_bytes += u64::from(comp_len);
            self.stats.insts += u64::from(n_records);
        }
        if self.peeked.is_some_and(|h| h[0..4] != [0; 4]) {
            self.load_next_block()?;
        }
        while self.stats.insts < target && self.records_left > 0 {
            self.next_inst()?;
        }
        Ok(self.stats.insts - start)
    }
}

// ---------------------------------------------------------------------------
// FileTrace: the TraceSource adapter
// ---------------------------------------------------------------------------

/// A [`TraceSource`] replaying an `.etrc` file.
///
/// Correct-path instructions stream from the file; wrong-path instructions
/// are re-synthesized from the recorded [`WrongPathSpec`], which reproduces
/// the generator's wrong-path stream exactly (see [`crate::wrongpath`]).
///
/// [`TraceSource::skip_insts`] is exact and cheap: it jumps through the
/// version-2 checkpoint directory when a checkpoint lies ahead, passes
/// whole blocks by their headers alone, and decodes at most the one block
/// the skip ends inside ([`EtrcReader::skip_insts`]).
///
/// # Panics
///
/// [`TraceSource::next_inst`] and [`TraceSource::skip_insts`] panic if the
/// file turns out to be corrupt mid-stream (CRC mismatch, truncation):
/// silently ending the trace early would skew simulation results, and
/// `elsq-lab trace verify` exists to check files up front. A clean end of
/// trace returns `None` as usual.
pub struct FileTrace {
    reader: EtrcReader<BufReader<File>>,
    wrong_path: Option<WrongPathSynth>,
    path: PathBuf,
}

impl FileTrace {
    /// Opens `path`, parsing and CRC-checking the header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, EtrcError> {
        let path = path.as_ref().to_path_buf();
        let reader = EtrcReader::new(BufReader::new(File::open(&path)?))?;
        let wrong_path = reader.meta().wrong_path.map(WrongPathSynth::from_spec);
        Ok(Self {
            reader,
            wrong_path,
            path,
        })
    }

    /// The header metadata.
    pub fn meta(&self) -> &TraceMeta {
        self.reader.meta()
    }

    /// The path the trace was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl TraceSource for FileTrace {
    fn next_inst(&mut self) -> Option<DynInst> {
        self.reader
            .next_inst()
            .unwrap_or_else(|e| panic!("corrupt trace {}: {e}", self.path.display()))
    }

    fn skip_insts(&mut self, n: u64) -> u64 {
        // Checkpoint jump plus header-only block skipping: at most one
        // block is decoded per skip (see `EtrcReader::skip_insts`).
        self.reader
            .skip_insts(n)
            .unwrap_or_else(|e| panic!("corrupt trace {}: {e}", self.path.display()))
    }

    fn wrong_path_run(&mut self, pc: u64, max: u64) -> (u64, Option<DynInst>) {
        match &mut self.wrong_path {
            Some(synth) => synth.run(pc, max),
            None => (max, None),
        }
    }

    fn wrong_path_skip(&mut self, n: u64) {
        if let Some(synth) = &mut self.wrong_path {
            synth.skip(n);
        }
    }

    fn name(&self) -> &str {
        &self.reader.meta().name
    }

    fn wrong_path_spec(&self) -> Option<WrongPathSpec> {
        self.reader.meta().wrong_path
    }
}

// ---------------------------------------------------------------------------
// Record / inspect / convenience
// ---------------------------------------------------------------------------

/// Records up to `insts` correct-path instructions from `source` into
/// `sink`, capturing the source's name and wrong-path spec in the header.
///
/// Stops early if a finite source is exhausted. Returns the written
/// [`TraceMeta`] and the number of instructions recorded.
pub fn record<W: Write>(
    source: &mut dyn TraceSource,
    insts: u64,
    seed: u64,
    suite_tag: u8,
    suite_index: Option<u8>,
    sink: W,
) -> Result<(TraceMeta, u64), EtrcError> {
    record_with_checkpoints(source, insts, seed, suite_tag, suite_index, None, sink)
}

/// [`record`], with an optional checkpoint interval: `Some(every)` emits a
/// version-2 file whose header directory holds a checkpoint every `every`
/// instructions (the whole body is buffered in memory until the directory
/// is complete — fine for the trace sizes sampled simulation uses).
pub fn record_with_checkpoints<W: Write>(
    source: &mut dyn TraceSource,
    insts: u64,
    seed: u64,
    suite_tag: u8,
    suite_index: Option<u8>,
    checkpoint_every: Option<u64>,
    sink: W,
) -> Result<(TraceMeta, u64), EtrcError> {
    let meta = TraceMeta {
        version: if checkpoint_every.is_some() {
            FORMAT_VERSION_V2
        } else {
            FORMAT_VERSION
        },
        name: source.name().to_owned(),
        seed,
        suite_tag,
        suite_index,
        wrong_path: source.wrong_path_spec(),
        block_target: DEFAULT_BLOCK_TARGET,
        checkpoint_every,
    };
    let mut writer = EtrcWriter::new(sink, &meta)?;
    for _ in 0..insts {
        match source.next_inst() {
            Some(inst) => writer.write_inst(&inst)?,
            None => break,
        }
    }
    let written = writer.finish()?;
    Ok((meta, written))
}

/// Fully decodes a trace from `src`, checking every CRC, record and the
/// trailer count, and returns the header metadata plus aggregate stats.
///
/// This is the engine behind `elsq-lab trace info` and `trace verify`.
pub fn inspect<R: Read>(src: R) -> Result<(TraceMeta, TraceStats), EtrcError> {
    let mut reader = EtrcReader::new(src)?;
    while reader.next_inst()?.is_some() {}
    Ok((reader.meta().clone(), reader.stats()))
}

/// Encodes `insts` into an in-memory `.etrc` image.
pub fn write_trace(insts: &[DynInst], meta: &TraceMeta) -> Result<Vec<u8>, EtrcError> {
    let mut bytes = Vec::new();
    let mut writer = EtrcWriter::new(&mut bytes, meta)?;
    for inst in insts {
        writer.write_inst(inst)?;
    }
    writer.finish()?;
    Ok(bytes)
}

/// Decodes a complete in-memory `.etrc` image.
pub fn read_trace(bytes: &[u8]) -> Result<(TraceMeta, Vec<DynInst>), EtrcError> {
    let mut reader = EtrcReader::new(bytes)?;
    let mut insts = Vec::new();
    while let Some(inst) = reader.next_inst()? {
        insts.push(inst);
    }
    Ok((reader.meta().clone(), insts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstBuilder;
    use crate::trace::VecTrace;

    fn sample_stream(n: usize) -> Vec<DynInst> {
        let mut insts = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let pc = 0x40_0000 + i * 4;
            let inst = match i % 5 {
                0 => InstBuilder::load(pc, 0x1000_0000 + i * 8, 8)
                    .dst(ArchReg::int(1))
                    .src(ArchReg::int(2))
                    .build(),
                1 => InstBuilder::store(pc, 0x1000_0000 + i * 8, 4)
                    .src(ArchReg::int(1))
                    .src(ArchReg::int(3))
                    .build(),
                2 => InstBuilder::branch(pc, i % 2 == 0, i % 10 == 2, pc + 64)
                    .src(ArchReg::int(4))
                    .build(),
                3 => InstBuilder::alu(pc, OpClass::FpMul)
                    .dst(ArchReg::fp(5))
                    .src(ArchReg::fp(6))
                    .src(ArchReg::fp(7))
                    .build(),
                _ => InstBuilder::alu(pc, OpClass::IntAlu)
                    .dst(ArchReg::int(8))
                    .src(ArchReg::int(8))
                    .latency(3)
                    .build(),
            };
            insts.push(inst);
        }
        insts
    }

    #[test]
    fn round_trip_preserves_stream_and_meta() {
        let insts = sample_stream(500);
        let mut meta = TraceMeta::named("rt", 42);
        meta.suite_tag = SUITE_INT;
        meta.suite_index = Some(3);
        meta.wrong_path = Some(WrongPathSpec {
            seed: 42,
            region_base: 0x8000,
            region_size: 1 << 20,
            load_rate: 0.25,
        });
        let bytes = write_trace(&insts, &meta).unwrap();
        let (back_meta, back) = read_trace(&bytes).unwrap();
        assert_eq!(back_meta, meta);
        assert_eq!(back, insts);
    }

    #[test]
    fn multi_block_traces_round_trip() {
        let insts = sample_stream(4000);
        let mut meta = TraceMeta::named("blocks", 1);
        meta.block_target = 512; // force many blocks
        let bytes = write_trace(&insts, &meta).unwrap();
        let mut reader = EtrcReader::new(&bytes[..]).unwrap();
        let mut back = Vec::new();
        while let Some(i) = reader.next_inst().unwrap() {
            back.push(i);
        }
        assert_eq!(back, insts);
        let stats = reader.stats();
        assert!(
            stats.blocks > 3,
            "expected several blocks, got {}",
            stats.blocks
        );
        assert_eq!(stats.insts, 4000);
        assert_eq!(stats.loads, 800);
        assert_eq!(stats.stores, 800);
        assert_eq!(stats.branches, 800);
        assert_eq!(stats.file_bytes as usize, bytes.len());
        // Delta-encoded instruction streams compress well.
        assert!(stats.compressed_bytes < stats.raw_bytes);
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = write_trace(&[], &TraceMeta::named("empty", 0)).unwrap();
        let (_, back) = read_trace(&bytes).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncated_file_is_detected() {
        let bytes = write_trace(&sample_stream(100), &TraceMeta::named("t", 0)).unwrap();
        for cut in [bytes.len() - 1, bytes.len() - TRAILER_LEN, 40, 9] {
            let err = read_trace(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, EtrcError::Truncated(_) | EtrcError::Crc { .. }),
                "cut at {cut} gave {err}"
            );
        }
    }

    #[test]
    fn corrupt_block_fails_crc() {
        let insts = sample_stream(200);
        let bytes = write_trace(&insts, &TraceMeta::named("c", 0)).unwrap();
        // Flip a byte inside the first block payload (safely past the
        // header and block framing).
        let header_len = HEADER_FIXED_LEN + 1 + 4; // name "c" = 1 byte
        let mut bad = bytes.clone();
        bad[header_len + BLOCK_HEADER_LEN + 10] ^= 0x40;
        let err = read_trace(&bad).unwrap_err();
        assert!(
            matches!(
                err,
                EtrcError::Crc { .. } | EtrcError::Corrupt(_) | EtrcError::Truncated(_)
            ),
            "got {err}"
        );
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let bytes = write_trace(&[], &TraceMeta::named("v", 0)).unwrap();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(read_trace(&bad).unwrap_err(), EtrcError::BadMagic));
        let mut future = bytes.clone();
        future[8] = 99; // version 99
                        // (CRC also breaks, but the version check runs first.)
        assert!(matches!(
            read_trace(&future).unwrap_err(),
            EtrcError::UnsupportedVersion(99)
        ));
        let mut crc_broken = bytes;
        crc_broken[16] ^= 1; // seed byte: header CRC must catch it
        assert!(matches!(
            read_trace(&crc_broken).unwrap_err(),
            EtrcError::Crc { what: "header", .. }
        ));
    }

    #[test]
    fn reserved_header_flags_are_rejected() {
        let mut bytes = write_trace(&[], &TraceMeta::named("f", 0)).unwrap();
        // Set a reserved flag bit and re-sign the header CRC so only the
        // flag check can reject the file.
        bytes[10] |= 0x02;
        let crc_at = HEADER_FIXED_LEN + 1; // name "f" = 1 byte
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        let err = read_trace(&bytes).unwrap_err();
        assert!(
            matches!(&err, EtrcError::Corrupt(msg) if msg.contains("reserved header flag")),
            "got {err}"
        );
    }

    #[test]
    fn writer_rejects_what_the_reader_would_refuse() {
        let mut meta = TraceMeta::named("w", 0);
        meta.block_target = 0;
        assert!(write_trace(&[], &meta).is_err(), "zero block target");
        let mut meta = TraceMeta::named("w", 0);
        meta.wrong_path = Some(WrongPathSpec {
            seed: 0,
            region_base: 0,
            region_size: 64,
            load_rate: 1.5,
        });
        assert!(write_trace(&[], &meta).is_err(), "load rate out of range");
        let mut meta = TraceMeta::named("w", 0);
        meta.version = 2;
        assert!(write_trace(&[], &meta).is_err(), "foreign version");
    }

    #[test]
    fn reserved_suite_index_is_rejected_at_write_time() {
        let mut meta = TraceMeta::named("slot", 0);
        meta.suite_index = Some(0xFF);
        let err = write_trace(&[], &meta).unwrap_err();
        assert!(matches!(err, EtrcError::Corrupt(_)), "got {err}");
        meta.suite_index = Some(0xFE);
        let bytes = write_trace(&[], &meta).unwrap();
        assert_eq!(read_trace(&bytes).unwrap().0.suite_index, Some(0xFE));
    }

    #[test]
    fn trailer_count_mismatch_is_detected() {
        let bytes = write_trace(&sample_stream(10), &TraceMeta::named("n", 0)).unwrap();
        let mut bad = bytes.clone();
        // Rewrite the trailer count and fix its CRC so only the count lies.
        let t = bad.len() - TRAILER_LEN;
        bad[t + 8..t + 16].copy_from_slice(&11u64.to_le_bytes());
        let crc = crc32(&bad[t..t + 16]);
        bad[t + 16..t + 20].copy_from_slice(&crc.to_le_bytes());
        let err = read_trace(&bad).unwrap_err();
        assert!(matches!(err, EtrcError::Corrupt(_)), "got {err}");
    }

    #[test]
    fn record_captures_name_and_wrong_path_spec() {
        struct SpeccedVec(VecTrace);
        impl TraceSource for SpeccedVec {
            fn next_inst(&mut self) -> Option<DynInst> {
                self.0.next_inst()
            }
            fn name(&self) -> &str {
                "specced"
            }
            fn wrong_path_spec(&self) -> Option<WrongPathSpec> {
                Some(WrongPathSpec {
                    seed: 9,
                    region_base: 0x100,
                    region_size: 4096,
                    load_rate: 0.5,
                })
            }
        }
        let mut src = SpeccedVec(VecTrace::new(sample_stream(64)));
        let mut bytes = Vec::new();
        let (meta, written) = record(&mut src, 1000, 7, SUITE_FP, Some(2), &mut bytes).unwrap();
        assert_eq!(written, 64, "finite source stops early");
        assert_eq!(meta.name, "specced");
        assert_eq!(meta.seed, 7);
        assert_eq!(meta.suite_tag, SUITE_FP);
        assert_eq!(meta.suite_index, Some(2));
        assert!(meta.wrong_path.is_some());
        let (read_meta, insts) = read_trace(&bytes).unwrap();
        assert_eq!(read_meta, meta);
        assert_eq!(insts.len(), 64);
    }

    #[test]
    fn file_trace_replays_and_synthesizes_wrong_path() {
        let dir = std::env::temp_dir().join(format!("etrc-ft-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.etrc");
        let insts = sample_stream(128);
        let spec = WrongPathSpec {
            seed: 11,
            region_base: 0x2000,
            region_size: 1 << 16,
            load_rate: 0.25,
        };
        let mut meta = TraceMeta::named("file-trace", 11);
        meta.wrong_path = Some(spec);
        std::fs::write(&path, write_trace(&insts, &meta).unwrap()).unwrap();

        let mut ft = FileTrace::open(&path).unwrap();
        assert_eq!(ft.name(), "file-trace");
        assert_eq!(ft.wrong_path_spec(), Some(spec));
        let mut replayed = Vec::new();
        while let Some(i) = ft.next_inst() {
            replayed.push(i);
        }
        assert_eq!(replayed, insts);
        // Wrong path matches a synth built from the same spec.
        let mut reference = WrongPathSynth::from_spec(spec);
        let mut ft2 = FileTrace::open(&path).unwrap();
        for i in 0..64 {
            assert_eq!(
                ft2.wrong_path_run(i * 4, i % 5),
                reference.run(i * 4, i % 5)
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_reports_counts_and_compression() {
        let insts = sample_stream(1000);
        let bytes = write_trace(&insts, &TraceMeta::named("i", 0)).unwrap();
        let (meta, stats) = inspect(&bytes[..]).unwrap();
        assert_eq!(meta.name, "i");
        assert_eq!(stats.insts, 1000);
        assert_eq!(stats.loads + stats.stores + stats.branches, 600);
        assert!(stats.raw_bytes > 0);
    }

    /// The byte-at-a-time decompressor [`lzss_decompress`] replaced: every
    /// match, overlapping or not, copies one byte at a time. The reference
    /// the bulk-copying decoder must agree with, output and errors alike.
    fn reference_lzss_decompress(
        comp: &[u8],
        raw_len: usize,
        block: u64,
    ) -> Result<Vec<u8>, EtrcError> {
        let mut out = Vec::with_capacity(raw_len);
        let mut cursor = 0usize;
        let mut control = 0u8;
        let mut control_bits = 0u8;
        while out.len() < raw_len {
            if control_bits == 0 {
                control = *comp
                    .get(cursor)
                    .ok_or(EtrcError::Truncated("LZSS control byte"))?;
                cursor += 1;
                control_bits = 8;
            }
            let is_match = control & 1 != 0;
            control >>= 1;
            control_bits -= 1;
            if is_match {
                let bytes = comp
                    .get(cursor..cursor + 3)
                    .ok_or(EtrcError::Truncated("LZSS match token"))?;
                cursor += 3;
                let offset = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
                let len = bytes[2] as usize + LZSS_MIN_MATCH;
                if offset == 0 || offset > out.len() {
                    return Err(EtrcError::Corrupt(format!(
                        "block {block}: LZSS offset {offset} outside the {} bytes produced",
                        out.len()
                    )));
                }
                if out.len() + len > raw_len {
                    return Err(EtrcError::Corrupt(format!(
                        "block {block}: LZSS match overruns the declared raw length"
                    )));
                }
                let start = out.len() - offset;
                for i in 0..len {
                    let b = out[start + i];
                    out.push(b);
                }
            } else {
                let b = *comp
                    .get(cursor)
                    .ok_or(EtrcError::Truncated("LZSS literal"))?;
                cursor += 1;
                out.push(b);
            }
        }
        if cursor != comp.len() {
            return Err(EtrcError::Corrupt(format!(
                "block {block}: {} trailing bytes after the LZSS stream",
                comp.len() - cursor
            )));
        }
        Ok(out)
    }

    /// [`lzss_compress`] into buffers holding stale contents, as a
    /// writer's reused ones do: the compressed bytes, or `None` for a
    /// block stored raw.
    fn compress(raw: &[u8]) -> Option<Vec<u8>> {
        let mut table = vec![u32::MAX; 1 << LZSS_HASH_BITS];
        let mut out = vec![0xAA; 7];
        lzss_compress(raw, &mut table, &mut out).then_some(out)
    }

    /// Both decoders over one stream, errors as their `Display` strings.
    /// The bulk decoder writes into a buffer holding stale bytes, as a
    /// reader's reused buffer does.
    fn both_decoders(
        comp: &[u8],
        raw_len: usize,
    ) -> (Result<Vec<u8>, String>, Result<Vec<u8>, String>) {
        let mut out = vec![0x5A; 100];
        let bulk = lzss_decompress(comp, raw_len, 3, &mut out)
            .map(|()| out)
            .map_err(|e| e.to_string());
        let reference = reference_lzss_decompress(comp, raw_len, 3).map_err(|e| e.to_string());
        (bulk, reference)
    }

    /// A payload built from `(kind, len, byte)` segments: runs of one byte
    /// (overlapping matches at offset 1), short periodic patterns
    /// (overlapping matches at offsets 2–9), repeats of earlier output
    /// (non-overlapping matches) and pseudo-random bytes (literals, and a
    /// raw block when they dominate).
    fn lzss_payload(segments: &[(u8, u16, u8)]) -> Vec<u8> {
        let mut raw: Vec<u8> = Vec::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for &(kind, len, byte) in segments {
            let len = usize::from(len);
            match kind % 4 {
                0 => raw.extend(std::iter::repeat(byte).take(len)),
                1 => {
                    let period = usize::from(byte % 8) + 2;
                    let pattern: Vec<u8> =
                        (0..period).map(|i| byte.wrapping_add(i as u8)).collect();
                    raw.extend(pattern.iter().cycle().take(len));
                }
                2 if raw.len() >= len => {
                    let from = raw.len() - len - (usize::from(byte) % (raw.len() - len + 1));
                    raw.extend_from_within(from..from + len);
                }
                _ => raw.extend((0..len).map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 32) as u8
                })),
            }
        }
        raw
    }

    #[test]
    fn common_prefix_matches_a_byte_loop() {
        let a: Vec<u8> = (0..40u8).collect();
        for len in 0..a.len() {
            for differ_at in 0..=len {
                let mut b = a[..len].to_vec();
                if let Some(byte) = b.get_mut(differ_at) {
                    *byte ^= 0x80;
                }
                assert_eq!(common_prefix(&a[..len], &b), differ_at, "len {len}");
            }
        }
    }

    #[test]
    fn lzss_round_trips_pathological_inputs() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0x55],
            vec![7; 10_000],
            (0..=255u8).cycle().take(5000).collect(),
            b"abcabcabcabcabcabcabcabcabcd".to_vec(),
            (0..4096u32).flat_map(|i| (i % 7).to_le_bytes()).collect(),
        ];
        for raw in cases {
            match compress(&raw) {
                Some(comp) => {
                    assert!(comp.len() < raw.len());
                    let (bulk, reference) = both_decoders(&comp, raw.len());
                    assert_eq!(bulk.as_ref(), Ok(&raw));
                    assert_eq!(reference, Ok(raw));
                }
                None => { /* incompressible: stored raw, nothing to check */ }
            }
        }
    }

    proptest::proptest! {
        /// The bulk-copying decoder agrees with the byte-at-a-time
        /// reference on every stream: the compressor's own output, which
        /// both must turn back into the payload, and truncated, mutated or
        /// mis-sized streams, which both must decode to the same bytes or
        /// refuse with the same message. Incompressible payloads (stored
        /// raw by the writer) are fed to both as arbitrary streams.
        #[test]
        fn bulk_lzss_decode_matches_the_byte_at_a_time_reference(
            segments in proptest::collection::vec((0u8..4, 0u16..600, 0u8..255), 1..24),
            cut in 0usize..4096,
            flip in (0usize..4096, 1u8..255),
            len_delta in 0usize..64,
        ) {
            let raw = lzss_payload(&segments);
            let comp = match compress(&raw) {
                Some(comp) => {
                    let (bulk, reference) = both_decoders(&comp, raw.len());
                    proptest::prop_assert_eq!(bulk.as_ref(), Ok(&raw));
                    proptest::prop_assert_eq!(reference, Ok(raw.clone()));
                    comp
                }
                None => raw.clone(),
            };
            let cut = cut % (comp.len() + 1);
            let (bulk, reference) = both_decoders(&comp[..cut], raw.len());
            proptest::prop_assert_eq!(bulk, reference, "truncated at {}", cut);
            if !comp.is_empty() {
                let mut mutated = comp.clone();
                mutated[flip.0 % comp.len()] ^= flip.1;
                let (bulk, reference) = both_decoders(&mutated, raw.len());
                proptest::prop_assert_eq!(bulk, reference, "byte {} ^ {:#x}", flip.0, flip.1);
            }
            for raw_len in [raw.len() + len_delta, raw.len().saturating_sub(len_delta)] {
                let (bulk, reference) = both_decoders(&comp, raw_len);
                proptest::prop_assert_eq!(bulk, reference, "declared raw length {}", raw_len);
            }
        }
    }

    /// A stream whose blocks alternate between compressible runs of
    /// [`sample_stream`] and pseudo-random loads whose varint deltas do
    /// not compress, so a small block target yields both encodings.
    fn mixed_stream(n: usize) -> Vec<DynInst> {
        let regular = sample_stream(n);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        regular
            .into_iter()
            .enumerate()
            .map(|(i, inst)| {
                if (i / 48) % 2 == 0 {
                    inst
                } else {
                    InstBuilder::load(next() & !3, next(), 8)
                        .dst(ArchReg::int((next() % 32) as u8))
                        .build()
                }
            })
            .collect()
    }

    #[test]
    fn mixed_raw_and_lzss_blocks_decode_and_skip_like_decode_discard() {
        let insts = mixed_stream(1200);
        let mut v1 = TraceMeta::named("mixed-v1", 0);
        v1.block_target = 256;
        let mut v2 = TraceMeta::named("mixed-v2", 0).with_checkpoints(300);
        v2.block_target = 256;
        for meta in [v1, v2] {
            let label = meta.name.clone();
            let bytes = write_trace(&insts, &meta).unwrap();
            let headers = block_headers(&bytes);
            assert!(
                headers.iter().any(|h| h.1 == ENC_RAW),
                "{label}: no raw block"
            );
            assert!(
                headers.iter().any(|h| h.1 == ENC_LZSS),
                "{label}: no LZSS block"
            );
            assert_eq!(read_trace(&bytes).unwrap().1, insts, "{label}");

            let ends = block_ends(&bytes);
            let mut targets = vec![0, 1, insts.len() as u64];
            for &end in &ends {
                targets.extend([end - 1, end, end + 1]);
            }
            for (i, &target) in targets.iter().enumerate() {
                // Decode a short prefix (0–4 records, varying with `i`),
                // then skip the rest of the way to `target`.
                let decoded = (i % 5).min(target as usize);
                let mut reader = EtrcReader::new(std::io::Cursor::new(&bytes)).unwrap();
                for inst in &insts[..decoded] {
                    assert_eq!(reader.next_inst().unwrap().as_ref(), Some(inst), "{label}");
                }
                let skipped = reader.skip_insts(target - decoded as u64).unwrap();
                let landed = (target as usize).min(insts.len());
                assert_eq!(
                    skipped as usize,
                    landed - decoded,
                    "{label}: skip to {target}"
                );
                let mut suffix = Vec::new();
                while let Some(inst) = reader.next_inst().unwrap() {
                    suffix.push(inst);
                }
                assert_eq!(suffix, insts[landed..], "{label}: skip to {target}");
            }
        }
    }

    #[test]
    fn corrupt_block_lengths_claim_no_more_memory_than_the_file_holds() {
        let bytes = write_trace(&sample_stream(300), &TraceMeta::named("len", 0)).unwrap();
        let at = EtrcReader::new(&bytes[..]).unwrap().header_len as usize;
        for field in [4..8, 8..12] {
            let mut bad = bytes.clone();
            bad[at + field.start..at + field.end].copy_from_slice(&u32::MAX.to_le_bytes());
            let mut reader = EtrcReader::new(&bad[..]).unwrap();
            let err = reader.next_inst().unwrap_err();
            assert!(
                matches!(err, EtrcError::Truncated(_) | EtrcError::Corrupt(_)),
                "got {err}"
            );
            // The field claims 4 GiB; the buffers hold what the file made.
            assert!(reader.payload.capacity() <= 2 * bad.len());
            assert!(reader.block.capacity() < 1 << 20);
        }
    }

    #[test]
    fn bytes_after_the_trailer_are_rejected() {
        let insts = sample_stream(300);
        let mut meta = TraceMeta::named("tail", 0);
        meta.block_target = 512;
        let mut bytes = write_trace(&insts, &meta).unwrap();
        bytes.extend_from_slice(b"GARBAGE-AFTER-TRAILER");
        let expect = "corrupt trace: 21 trailing bytes after the trailer";
        let err = read_trace(&bytes).unwrap_err();
        assert!(matches!(err, EtrcError::Corrupt(_)), "got {err}");
        assert_eq!(err.to_string(), expect);
        assert_eq!(inspect(&bytes[..]).unwrap_err().to_string(), expect);
        // A skip to the end leaves the trailer to the next decode, which
        // refuses the extra bytes as well.
        let mut reader = EtrcReader::new(std::io::Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.skip_insts(u64::MAX).unwrap(), 300);
        assert_eq!(reader.next_inst().unwrap_err().to_string(), expect);
        // One stray byte is enough.
        let mut one = write_trace(&insts, &meta).unwrap();
        one.push(0);
        assert_eq!(
            read_trace(&one).unwrap_err().to_string(),
            "corrupt trace: 1 trailing bytes after the trailer"
        );
    }

    #[test]
    fn varint_zigzag_round_trip() {
        for v in [
            0i64,
            1,
            -1,
            2,
            -2,
            63,
            -64,
            1 << 20,
            -(1 << 40),
            i64::MAX,
            i64::MIN,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, zigzag(v));
            let mut cursor = 0;
            assert_eq!(unzigzag(read_varint(&buf, &mut cursor).unwrap()), v);
            assert_eq!(cursor, buf.len());
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_crc_matches_the_bytewise_definition() {
        let bytewise = |data: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        let data: Vec<u8> = (0..200u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every length and every alignment of the 8-byte main loop.
        for start in 0..8 {
            for end in start..data.len() {
                let slice = &data[start..end];
                assert_eq!(crc32(slice), bytewise(slice), "bytes {start}..{end}");
            }
        }
    }

    // -- version-2 checkpoint directory ------------------------------------

    fn checkpointed_bytes(n: usize, every: u64) -> (Vec<DynInst>, Vec<u8>) {
        let insts = sample_stream(n);
        let mut meta = TraceMeta::named("ckpt", 5).with_checkpoints(every);
        meta.block_target = 512; // several organic flushes between checkpoints
        let bytes = write_trace(&insts, &meta).unwrap();
        (insts, bytes)
    }

    #[test]
    fn checkpointed_trace_round_trips_with_directory() {
        let (insts, bytes) = checkpointed_bytes(1000, 250);
        let mut reader = EtrcReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.meta().version, FORMAT_VERSION_V2);
        assert_eq!(reader.meta().checkpoint_every, Some(250));
        // Entry 0 plus one per full interval.
        let checkpoints = reader.checkpoints().to_vec();
        assert_eq!(checkpoints.len(), 5);
        assert_eq!(checkpoints[0], Checkpoint::default());
        for (i, c) in checkpoints.iter().enumerate() {
            assert_eq!(c.insts, i as u64 * 250);
        }
        let mut back = Vec::new();
        while let Some(i) = reader.next_inst().unwrap() {
            back.push(i);
        }
        assert_eq!(back, insts);
        assert_eq!(reader.stats().checkpoints, 5);
        assert_eq!(reader.stats().file_bytes as usize, bytes.len());
    }

    #[test]
    fn seek_decodes_the_same_suffix_the_prefix_decode_reaches() {
        let (insts, bytes) = checkpointed_bytes(1000, 200);
        for target in [0u64, 199, 200, 450, 999, 5000] {
            let mut reader = EtrcReader::new(std::io::Cursor::new(&bytes)).unwrap();
            let resumed = reader.seek_to_checkpoint(target).unwrap();
            assert_eq!(resumed, (target / 200 * 200).min(1000));
            let mut suffix = Vec::new();
            while let Some(i) = reader.next_inst().unwrap() {
                suffix.push(i);
            }
            assert_eq!(
                suffix,
                insts[resumed as usize..],
                "suffix from checkpoint {resumed} diverged"
            );
        }
    }

    #[test]
    fn v1_files_have_no_directory_and_refuse_to_seek() {
        let bytes = write_trace(&sample_stream(100), &TraceMeta::named("v1", 0)).unwrap();
        let mut reader = EtrcReader::new(std::io::Cursor::new(&bytes)).unwrap();
        assert!(reader.checkpoints().is_empty());
        assert_eq!(reader.stats().checkpoints, 0);
        assert!(reader.meta().checkpoint_every.is_none());
        let err = reader.seek_to_checkpoint(50).unwrap_err();
        assert!(
            matches!(&err, EtrcError::Corrupt(msg) if msg.contains("no checkpoint directory")),
            "got {err}"
        );
    }

    #[test]
    fn corrupt_directory_entries_fail_the_header_crc() {
        let (_, bytes) = checkpointed_bytes(600, 200);
        // Flip a byte inside the directory (fixed header + name "ckpt" +
        // every/count + first entry lands well inside it).
        let mut bad = bytes.clone();
        bad[HEADER_FIXED_LEN + 4 + 12 + CHECKPOINT_ENTRY_LEN + 3] ^= 0x10;
        let err = read_trace(&bad).unwrap_err();
        assert!(
            matches!(err, EtrcError::Crc { what: "header", .. }),
            "got {err}"
        );
    }

    #[test]
    fn non_monotonic_directory_is_rejected_even_with_a_valid_crc() {
        let (_, bytes) = checkpointed_bytes(600, 200);
        let mut bad = bytes.clone();
        // Swap entries 1 and 2 (each CHECKPOINT_ENTRY_LEN bytes), then
        // re-sign the header CRC so only the monotonicity check can object.
        let dir_at = HEADER_FIXED_LEN + 4 + 12;
        let e1 = dir_at + CHECKPOINT_ENTRY_LEN;
        let e2 = e1 + CHECKPOINT_ENTRY_LEN;
        let tmp: Vec<u8> = bad[e1..e1 + CHECKPOINT_ENTRY_LEN].to_vec();
        bad.copy_within(e2..e2 + CHECKPOINT_ENTRY_LEN, e1);
        bad[e2..e2 + CHECKPOINT_ENTRY_LEN].copy_from_slice(&tmp);
        let crc_at = dir_at + 4 * CHECKPOINT_ENTRY_LEN;
        let crc = crc32(&bad[..crc_at]);
        bad[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        let err = read_trace(&bad).unwrap_err();
        assert!(
            matches!(&err, EtrcError::Corrupt(msg) if msg.contains("strictly increasing")),
            "got {err}"
        );
    }

    #[test]
    fn writer_rejects_malformed_checkpoint_requests() {
        let meta = TraceMeta::named("z", 0).with_checkpoints(0);
        let err = write_trace(&[], &meta).unwrap_err();
        assert!(
            matches!(&err, EtrcError::Corrupt(msg) if msg.contains("zero instructions")),
            "got {err}"
        );
        // checkpoint_every without the version bump is a meta bug.
        let mut meta = TraceMeta::named("z", 0);
        meta.checkpoint_every = Some(100);
        assert!(write_trace(&[], &meta).is_err(), "v1 with a directory");
    }

    #[test]
    fn short_checkpointed_trace_keeps_only_the_start_entry() {
        let meta = TraceMeta::named("short", 0).with_checkpoints(1_000_000);
        let bytes = write_trace(&sample_stream(10), &meta).unwrap();
        let reader = EtrcReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.checkpoints(), &[Checkpoint::default()]);
    }

    #[test]
    fn record_with_checkpoints_captures_the_directory() {
        let mut src = VecTrace::with_name(sample_stream(500), "rec");
        let mut bytes = Vec::new();
        let (meta, written) =
            record_with_checkpoints(&mut src, 500, 3, SUITE_NONE, None, Some(100), &mut bytes)
                .unwrap();
        assert_eq!(written, 500);
        assert_eq!(meta.version, FORMAT_VERSION_V2);
        assert_eq!(meta.checkpoint_every, Some(100));
        let (read_meta, insts) = read_trace(&bytes).unwrap();
        assert_eq!(read_meta, meta);
        assert_eq!(insts.len(), 500);
        let reader = EtrcReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.checkpoints().len(), 6);
    }

    #[test]
    fn file_trace_skips_via_checkpoints_and_replays_the_same_suffix() {
        let dir = std::env::temp_dir().join(format!("etrc-skip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.etrc");
        let insts = sample_stream(800);
        let mut meta = TraceMeta::named("skip", 7).with_checkpoints(150);
        meta.block_target = 512;
        std::fs::write(&path, write_trace(&insts, &meta).unwrap()).unwrap();

        // Skip from the start: lands past checkpoint 2 (insts 300).
        let mut ft = FileTrace::open(&path).unwrap();
        assert_eq!(ft.skip_insts(400), 400);
        let mut suffix = Vec::new();
        while let Some(i) = ft.next_inst() {
            suffix.push(i);
        }
        assert_eq!(suffix, insts[400..]);

        // Mid-stream skip after some decoding, and a skip past the end.
        let mut ft = FileTrace::open(&path).unwrap();
        for _ in 0..100 {
            ft.next_inst().unwrap();
        }
        assert_eq!(ft.skip_insts(250), 250);
        assert_eq!(ft.next_inst().unwrap(), insts[350]);
        assert_eq!(ft.skip_insts(10_000), 800 - 351);
        assert!(ft.next_inst().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_skip_matches_decode_discard_on_v1_files() {
        let dir = std::env::temp_dir().join(format!("etrc-skip-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1.etrc");
        let insts = sample_stream(300);
        std::fs::write(
            &path,
            write_trace(&insts, &TraceMeta::named("v1", 0)).unwrap(),
        )
        .unwrap();
        let mut ft = FileTrace::open(&path).unwrap();
        assert_eq!(ft.skip_insts(120), 120);
        assert_eq!(ft.next_inst().unwrap(), insts[120]);
        std::fs::remove_dir_all(&dir).ok();
    }
    // -- header-only block skipping ------------------------------------------

    /// A 3000-record stream as a v1 image and as a v2 image with a
    /// checkpoint every 700 records, both in many small blocks.
    fn skip_images() -> (Vec<DynInst>, Vec<(&'static str, Vec<u8>)>) {
        let insts = sample_stream(3000);
        let mut v1 = TraceMeta::named("skip-v1", 0);
        v1.block_target = 512;
        let mut v2 = TraceMeta::named("skip-v2", 0).with_checkpoints(700);
        v2.block_target = 512;
        let images = vec![
            ("v1", write_trace(&insts, &v1).unwrap()),
            ("v2", write_trace(&insts, &v2).unwrap()),
        ];
        (insts, images)
    }

    /// Each data block's record count and encoding byte, in file order.
    fn block_headers(bytes: &[u8]) -> Vec<(u32, u8)> {
        let mut at = EtrcReader::new(bytes).unwrap().header_len as usize;
        let mut headers = Vec::new();
        loop {
            let n = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            if n == 0 {
                return headers;
            }
            headers.push((n, bytes[at + 12]));
            let comp = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap());
            at += BLOCK_HEADER_LEN + comp as usize;
        }
    }

    /// Cumulative record count at the end of each data block of `bytes`.
    fn block_ends(bytes: &[u8]) -> Vec<u64> {
        block_headers(bytes)
            .into_iter()
            .scan(0u64, |total, (n, _)| {
                *total += u64::from(n);
                Some(*total)
            })
            .collect()
    }

    #[test]
    fn block_skip_ending_on_a_block_boundary_decodes_nothing() {
        let (insts, images) = skip_images();
        for (label, bytes) in &images {
            let ends = block_ends(bytes);
            assert!(ends.len() > 8, "{label}: only {} blocks", ends.len());
            for &end in &ends[..ends.len() - 1] {
                let mut reader = EtrcReader::new(std::io::Cursor::new(bytes)).unwrap();
                assert_eq!(reader.skip_insts(end).unwrap(), end, "{label}");
                assert_eq!(reader.stats().insts, end, "{label}");
                assert_eq!(reader.stats().blocks, 0, "{label}: skip to {end} decoded");
                assert_eq!(
                    reader.next_inst().unwrap(),
                    Some(insts[end as usize]),
                    "{label}"
                );
            }
            // A skip ending inside a block decodes that block alone, and a
            // following skip from mid-block reaches a later boundary.
            let mut reader = EtrcReader::new(std::io::Cursor::new(bytes)).unwrap();
            let mid = ends[2] + 3;
            assert_eq!(reader.skip_insts(mid).unwrap(), mid, "{label}");
            assert_eq!(reader.stats().blocks, 1, "{label}");
            assert_eq!(reader.skip_insts(ends[5] - mid).unwrap(), ends[5] - mid);
            assert_eq!(reader.stats().blocks, 1, "{label}");
            assert_eq!(
                reader.next_inst().unwrap(),
                Some(insts[ends[5] as usize]),
                "{label}"
            );
        }
    }

    #[test]
    fn block_skip_reaching_the_trailer_leaves_the_end_marker() {
        let (insts, images) = skip_images();
        let total = insts.len() as u64;
        for (label, bytes) in &images {
            for (decoded, skip) in [(0, total), (0, u64::MAX), (10, 5000)] {
                let mut reader = EtrcReader::new(std::io::Cursor::new(bytes)).unwrap();
                for inst in &insts[..decoded] {
                    assert_eq!(reader.next_inst().unwrap().as_ref(), Some(inst));
                }
                let skipped = reader.skip_insts(skip).unwrap();
                assert_eq!(skipped, total - decoded as u64, "{label}");
                assert_eq!(reader.stats().insts, total, "{label}");
                assert!(!reader.done, "{label}: the skip consumed the end marker");
                // The trailer is still read and checked by the next decode.
                assert_eq!(reader.next_inst().unwrap(), None, "{label}");
                assert!(reader.done, "{label}");
                assert_eq!(reader.skip_insts(1).unwrap(), 0, "{label}");
            }
        }
        // With no seek, every framing byte is accounted for.
        let mut reader = EtrcReader::new(std::io::Cursor::new(&images[0].1)).unwrap();
        reader.skip_insts(total).unwrap();
        assert_eq!(reader.next_inst().unwrap(), None);
        assert_eq!(reader.stats().file_bytes as usize, images[0].1.len());
    }

    #[test]
    fn trailer_count_mismatch_is_detected_after_skips() {
        let (insts, images) = skip_images();
        for (label, bytes) in &images {
            let mut bad = bytes.clone();
            let t = bad.len() - TRAILER_LEN;
            bad[t + 8..t + 16].copy_from_slice(&(insts.len() as u64 + 1).to_le_bytes());
            let crc = crc32(&bad[t..t + 16]);
            bad[t + 16..t + 20].copy_from_slice(&crc.to_le_bytes());
            let mut reader = EtrcReader::new(std::io::Cursor::new(&bad)).unwrap();
            reader.skip_insts(1000).unwrap();
            reader.next_inst().unwrap();
            reader.skip_insts(10_000).unwrap();
            let err = reader.next_inst().unwrap_err();
            assert!(
                matches!(&err, EtrcError::Corrupt(msg) if msg.contains("trailer declares")),
                "{label}: got {err}"
            );
        }
    }
}
