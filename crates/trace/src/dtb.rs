//! DTB — the workspace's versioned binary trace container.
//!
//! The text format in [`crate::io`] keeps traces inspectable, but parsing
//! one decimal integer per line dominates replay cost once corpora reach
//! the millions-of-streams scale the multi-stream service targets. DTB
//! (*Dpd Trace Binary*) turns replay into a near-memcpy path:
//!
//! * **delta-of-delta + LEB128 varints** for event values — periodic
//!   address streams compress to ~1 byte/sample after the first period;
//! * **XOR-of-bits + LEB128 varints** for sampled `f64` values (the
//!   Gorilla trick, varint-framed) — bit-exact, no loss;
//! * **CRC32 per frame** so corruption is detected at frame granularity
//!   and reported as a typed error, never a panic;
//! * **append-friendly framing** — a file is a header plus a flat frame
//!   sequence; appending more frames (or concatenating whole files) needs
//!   no index rewrite, and readers skip interior headers.
//!
//! One container holds many streams: each stream is declared once
//! ([`DtbWriter::declare_events`] / [`DtbWriter::declare_sampled`]) and its
//! samples arrive as interleaved data blocks, so a multi-stream corpus is a
//! single file rather than a directory of one file per stream.
//!
//! Two decoders share one frame implementation: [`DtbReader`] walks a
//! fully resident slice (file replay), and [`DtbDecoder`] accepts
//! arbitrarily fragmented input (the `dpd serve` wire path, where frames
//! split across `read()` boundaries). Both yield the same [`Block`]
//! sequence for the same bytes.
//!
//! The normative byte-level specification lives in `docs/FORMAT.md`; this
//! module is the reference implementation.
//!
//! ## Quick start
//!
//! ```
//! use dpd_trace::dtb::{Block, DtbReader, DtbWriter};
//!
//! // Write two interleaved event streams into one container.
//! let mut w = DtbWriter::new(Vec::new()).unwrap();
//! w.declare_events(1, "tomcatv").unwrap();
//! w.declare_events(2, "swim").unwrap();
//! w.push_events(1, &[0x100, 0x140, 0x100, 0x140]).unwrap();
//! w.push_events(2, &[0x200, 0x240, 0x280]).unwrap();
//! let bytes = w.finish().unwrap();
//!
//! // Replay: the reader yields `(stream id, &[i64])` batches without
//! // allocating per block — ready for `MultiStreamDpd::ingest`.
//! let mut r = DtbReader::new(&bytes).unwrap();
//! let mut total = 0;
//! while let Some(block) = r.next_block() {
//!     if let Block::Events { stream, values } = block.unwrap() {
//!         assert!(stream == 1 || stream == 2);
//!         total += values.len();
//!     }
//! }
//! assert_eq!(total, 7);
//! ```

use crate::event::EventTrace;
use crate::sampled::SampledTrace;
use std::collections::HashMap;
use std::io::Write;

/// File magic: the first four bytes of every DTB file.
pub const MAGIC: [u8; 4] = *b"DTB1";

/// Current (and only) container version.
pub const VERSION: u8 = 1;

/// Header length in bytes: magic + version + flags.
pub const HEADER_LEN: usize = 6;

/// Default number of values buffered per stream before a data block is
/// emitted. Larger blocks amortize framing overhead; smaller blocks bound
/// the blast radius of a corrupt frame.
pub const DEFAULT_BLOCK_LEN: usize = 4096;

const FRAME_DECL: u8 = 0x01;
const FRAME_EVENTS: u8 = 0x02;
const FRAME_SAMPLES: u8 = 0x03;

/// Errors raised while writing or reading a DTB container.
///
/// `#[non_exhaustive]`: downstream matches must carry a wildcard arm so
/// new diagnostics can be added without a breaking change — the same
/// policy as `dpd_core`'s `DpdError`/`BuildError`. Every variant renders
/// a lowercase, period-free [`Display`](std::fmt::Display) message
/// (asserted by a unit test).
#[non_exhaustive]
#[derive(Debug)]
pub enum DtbError {
    /// Underlying I/O failure (write path only; reads are slice-based).
    Io(std::io::Error),
    /// The file does not start with the DTB magic.
    BadMagic,
    /// The header declares a version this implementation does not read.
    UnsupportedVersion(u8),
    /// The input ends mid-header or mid-frame.
    Truncated {
        /// Byte offset at which more input was required.
        offset: usize,
    },
    /// A frame's stored CRC32 does not match its payload.
    BadCrc {
        /// Byte offset of the frame's type byte.
        offset: usize,
        /// CRC stored in the file.
        stored: u32,
        /// CRC computed over the frame.
        computed: u32,
    },
    /// A varint ran past 10 bytes or past the end of its frame.
    BadVarint {
        /// Byte offset of the offending varint.
        offset: usize,
    },
    /// A frame declares a body longer than the decoder's configured
    /// budget ([`DtbDecoder::with_max_frame`]). Raised only on the
    /// incremental path — a hostile length varint must not be allowed to
    /// grow a per-connection buffer without bound.
    FrameTooLarge {
        /// The declared body length.
        len: u64,
        /// The decoder's body-length budget.
        limit: usize,
        /// Byte offset of the frame's type byte.
        offset: usize,
    },
    /// A frame type byte this implementation does not know.
    UnknownFrame {
        /// The unknown type byte.
        frame: u8,
        /// Byte offset of the frame.
        offset: usize,
    },
    /// A frame body is malformed (impossible count, trailing bytes, bad
    /// UTF-8 name, unknown stream kind).
    Malformed {
        /// Human-readable description of the defect.
        what: &'static str,
        /// Byte offset of the frame.
        offset: usize,
    },
    /// A data block names a stream id with no preceding declaration.
    UndeclaredStream {
        /// The undeclared stream id.
        stream: u64,
    },
    /// A stream was re-declared with different metadata, or a data block's
    /// kind contradicts the stream's declaration.
    KindMismatch {
        /// The offending stream id.
        stream: u64,
    },
    /// The caller asked for a stream kind the container does not hold
    /// (e.g. [`read_events`] on a sampled-only file).
    NoSuchStream,
}

impl std::fmt::Display for DtbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DtbError::Io(e) => write!(f, "container I/O error: {e}"),
            DtbError::BadMagic => write!(f, "not a DTB container (bad magic)"),
            DtbError::UnsupportedVersion(v) => write!(f, "unsupported DTB version {v}"),
            DtbError::Truncated { offset } => {
                write!(f, "truncated DTB container at byte {offset}")
            }
            DtbError::BadCrc {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "corrupt DTB frame at byte {offset}: stored CRC {stored:#010x}, computed {computed:#010x}"
            ),
            DtbError::BadVarint { offset } => write!(f, "bad varint at byte {offset}"),
            DtbError::FrameTooLarge { len, limit, offset } => write!(
                f,
                "frame at byte {offset} declares a {len}-byte body exceeding the {limit}-byte budget"
            ),
            DtbError::UnknownFrame { frame, offset } => {
                write!(f, "unknown DTB frame type {frame:#04x} at byte {offset}")
            }
            DtbError::Malformed { what, offset } => {
                write!(f, "malformed DTB frame at byte {offset}: {what}")
            }
            DtbError::UndeclaredStream { stream } => {
                write!(f, "data block for undeclared stream {stream}")
            }
            DtbError::KindMismatch { stream } => {
                write!(f, "stream {stream} used with conflicting kind or metadata")
            }
            DtbError::NoSuchStream => write!(f, "container holds no stream of the requested kind"),
        }
    }
}

impl std::error::Error for DtbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DtbError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DtbError {
    fn from(e: std::io::Error) -> Self {
        DtbError::Io(e)
    }
}

/// The two stream kinds a DTB container can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Discrete event identifiers (`i64`), delta-of-delta encoded.
    Events,
    /// Fixed-rate `f64` samples, XOR-of-bits encoded.
    Sampled,
}

/// Declared metadata of one stream in a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamMeta {
    /// The stream's kind (decides which data blocks are legal for it).
    pub kind: StreamKind,
    /// Human-readable stream name (the text format's `<name>` field).
    pub name: String,
    /// Sampling period in nanoseconds; `0` for event streams.
    pub sample_period_ns: u64,
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) — table-driven, built at
// compile time so the hot loop is one lookup + xor per byte.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `data`, the checksum protecting every DTB frame.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xFFFF_FFFF, data)
}

/// Running CRC update over `data` (pre-inversion state in, state out).
pub(crate) fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The checksum of one frame: CRC-32 over the type byte then the body
/// (the scope §1.2 of `docs/FORMAT.md` defines). Writer and reader both
/// go through here so the scope cannot silently diverge. The pile segment
/// log ([`crate::pile`]) reuses the same scope.
pub(crate) fn crc32_frame(frame: u8, body: &[u8]) -> u32 {
    !crc32_update(crc32_update(0xFFFF_FFFF, &[frame]), body)
}

// ---------------------------------------------------------------------
// LEB128 varints + zigzag.

pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
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

/// Decode one LEB128 varint from `data` starting at `*pos`, advancing
/// `*pos` past it. `base` is the absolute offset of `data[0]`, used only
/// for error reporting.
pub(crate) fn get_varint(data: &[u8], pos: &mut usize, base: usize) -> Result<u64, DtbError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    let start = *pos;
    loop {
        let &byte = data.get(*pos).ok_or(DtbError::Truncated {
            offset: base + *pos,
        })?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(DtbError::BadVarint {
                offset: base + start,
            });
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DtbError::BadVarint {
                offset: base + start,
            });
        }
    }
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------
// Writer.

#[derive(Debug)]
enum Pending {
    Events(Vec<i64>),
    Samples(Vec<f64>),
}

#[derive(Debug)]
struct WriterStream {
    meta: StreamMeta,
    pending: Pending,
}

/// Buffered streaming writer of a DTB container.
///
/// Values pushed for a stream are buffered and emitted as self-contained
/// data blocks of at most [`DtbWriter::block_len`] values; encoding state
/// restarts at every block boundary, so any block split of the same value
/// sequence decodes identically. Call [`DtbWriter::finish`] (or at least
/// [`DtbWriter::flush`]) before dropping, or buffered tails are lost.
#[derive(Debug)]
pub struct DtbWriter<W: Write> {
    w: W,
    block_len: usize,
    streams: HashMap<u64, WriterStream>,
    /// Scratch for frame bodies, reused across frames.
    scratch: Vec<u8>,
    /// Scratch for the frame length varint.
    head: Vec<u8>,
}

impl<W: Write> DtbWriter<W> {
    /// Start a new container on `w`: writes the file header immediately.
    pub fn new(w: W) -> Result<Self, DtbError> {
        Self::with_block_len(w, DEFAULT_BLOCK_LEN)
    }

    /// Same as [`DtbWriter::new`] with an explicit per-block value budget.
    ///
    /// # Panics
    /// Panics when `block_len` is zero.
    pub fn with_block_len(mut w: W, block_len: usize) -> Result<Self, DtbError> {
        assert!(block_len > 0, "block_len must be positive");
        w.write_all(&MAGIC)?;
        w.write_all(&[VERSION, 0])?;
        Ok(DtbWriter {
            w,
            block_len,
            streams: HashMap::new(),
            scratch: Vec::new(),
            head: Vec::new(),
        })
    }

    /// Continue an existing container: no header is written; the caller
    /// must have positioned `w` at the end of a valid DTB file. Streams
    /// already declared in the existing prefix may be re-declared with
    /// identical metadata (the spec makes re-declaration idempotent).
    pub fn append(w: W) -> Self {
        DtbWriter {
            w,
            block_len: DEFAULT_BLOCK_LEN,
            streams: HashMap::new(),
            scratch: Vec::new(),
            head: Vec::new(),
        }
    }

    /// The per-block value budget.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Declare an event stream. Must precede the stream's first data push.
    pub fn declare_events(&mut self, stream: u64, name: &str) -> Result<(), DtbError> {
        self.declare(
            stream,
            StreamMeta {
                kind: StreamKind::Events,
                name: name.to_string(),
                sample_period_ns: 0,
            },
        )
    }

    /// Declare a sampled stream with its sampling period in nanoseconds.
    pub fn declare_sampled(
        &mut self,
        stream: u64,
        name: &str,
        sample_period_ns: u64,
    ) -> Result<(), DtbError> {
        self.declare(
            stream,
            StreamMeta {
                kind: StreamKind::Sampled,
                name: name.to_string(),
                sample_period_ns,
            },
        )
    }

    fn declare(&mut self, stream: u64, meta: StreamMeta) -> Result<(), DtbError> {
        if let Some(existing) = self.streams.get(&stream) {
            if existing.meta != meta {
                return Err(DtbError::KindMismatch { stream });
            }
            return Ok(()); // idempotent re-declaration
        }
        self.scratch.clear();
        put_varint(&mut self.scratch, stream);
        self.scratch.push(match meta.kind {
            StreamKind::Events => 0,
            StreamKind::Sampled => 1,
        });
        put_varint(&mut self.scratch, meta.sample_period_ns);
        put_varint(&mut self.scratch, meta.name.len() as u64);
        self.scratch.extend_from_slice(meta.name.as_bytes());
        write_frame(&mut self.w, FRAME_DECL, &self.scratch, &mut self.head)?;
        let pending = match meta.kind {
            StreamKind::Events => Pending::Events(Vec::new()),
            StreamKind::Sampled => Pending::Samples(Vec::new()),
        };
        self.streams.insert(stream, WriterStream { meta, pending });
        Ok(())
    }

    /// Append event values to a declared event stream, emitting full data
    /// blocks as the buffer fills. Full blocks in the middle of a large
    /// push are encoded straight from `values` — nothing is copied into
    /// the pending buffer except a partial leading/trailing block.
    pub fn push_events(&mut self, stream: u64, values: &[i64]) -> Result<(), DtbError> {
        let entry = self
            .streams
            .get_mut(&stream)
            .ok_or(DtbError::UndeclaredStream { stream })?;
        let buf = match &mut entry.pending {
            Pending::Events(buf) => buf,
            Pending::Samples(_) => return Err(DtbError::KindMismatch { stream }),
        };
        // Top a non-empty pending buffer up to one full block first (the
        // same block boundaries as buffering everything, without O(n^2)
        // tail copies).
        let mut rest = values;
        let mut carry = None;
        if !buf.is_empty() {
            let take = (self.block_len - buf.len()).min(rest.len());
            buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if buf.len() < self.block_len {
                return Ok(());
            }
            carry = Some(std::mem::take(buf));
        }
        if let Some(full) = carry {
            self.scratch.clear();
            encode_event_block(&mut self.scratch, stream, &full);
            write_frame(&mut self.w, FRAME_EVENTS, &self.scratch, &mut self.head)?;
        }
        while rest.len() >= self.block_len {
            let (chunk, tail) = rest.split_at(self.block_len);
            rest = tail;
            self.scratch.clear();
            encode_event_block(&mut self.scratch, stream, chunk);
            write_frame(&mut self.w, FRAME_EVENTS, &self.scratch, &mut self.head)?;
        }
        if !rest.is_empty() {
            let entry = self.streams.get_mut(&stream).expect("declared above");
            match &mut entry.pending {
                Pending::Events(b) => b.extend_from_slice(rest),
                Pending::Samples(_) => unreachable!(),
            }
        }
        Ok(())
    }

    /// Append `f64` samples to a declared sampled stream (same buffering
    /// strategy as [`DtbWriter::push_events`]).
    pub fn push_samples(&mut self, stream: u64, values: &[f64]) -> Result<(), DtbError> {
        let entry = self
            .streams
            .get_mut(&stream)
            .ok_or(DtbError::UndeclaredStream { stream })?;
        let buf = match &mut entry.pending {
            Pending::Samples(buf) => buf,
            Pending::Events(_) => return Err(DtbError::KindMismatch { stream }),
        };
        let mut rest = values;
        let mut carry = None;
        if !buf.is_empty() {
            let take = (self.block_len - buf.len()).min(rest.len());
            buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if buf.len() < self.block_len {
                return Ok(());
            }
            carry = Some(std::mem::take(buf));
        }
        if let Some(full) = carry {
            self.scratch.clear();
            encode_sample_block(&mut self.scratch, stream, &full);
            write_frame(&mut self.w, FRAME_SAMPLES, &self.scratch, &mut self.head)?;
        }
        while rest.len() >= self.block_len {
            let (chunk, tail) = rest.split_at(self.block_len);
            rest = tail;
            self.scratch.clear();
            encode_sample_block(&mut self.scratch, stream, chunk);
            write_frame(&mut self.w, FRAME_SAMPLES, &self.scratch, &mut self.head)?;
        }
        if !rest.is_empty() {
            let entry = self.streams.get_mut(&stream).expect("declared above");
            match &mut entry.pending {
                Pending::Samples(b) => b.extend_from_slice(rest),
                Pending::Events(_) => unreachable!(),
            }
        }
        Ok(())
    }

    /// Emit every stream's buffered tail as a final (possibly short) block
    /// and flush the underlying writer. Streams are flushed in ascending
    /// id order so output is deterministic.
    pub fn flush(&mut self) -> Result<(), DtbError> {
        let mut ids: Vec<u64> = self.streams.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let entry = self.streams.get_mut(&id).expect("id from keys()");
            match &mut entry.pending {
                Pending::Events(buf) => {
                    if !buf.is_empty() {
                        let vals = std::mem::take(buf);
                        self.scratch.clear();
                        encode_event_block(&mut self.scratch, id, &vals);
                        write_frame(&mut self.w, FRAME_EVENTS, &self.scratch, &mut self.head)?;
                    }
                }
                Pending::Samples(buf) => {
                    if !buf.is_empty() {
                        let vals = std::mem::take(buf);
                        self.scratch.clear();
                        encode_sample_block(&mut self.scratch, id, &vals);
                        write_frame(&mut self.w, FRAME_SAMPLES, &self.scratch, &mut self.head)?;
                    }
                }
            }
        }
        self.w.flush()?;
        Ok(())
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> Result<W, DtbError> {
        self.flush()?;
        Ok(self.w)
    }
}

pub(crate) fn write_frame<W: Write>(
    w: &mut W,
    frame: u8,
    body: &[u8],
    head: &mut Vec<u8>,
) -> Result<(), DtbError> {
    head.clear();
    put_varint(head, body.len() as u64);
    let crc = crc32_frame(frame, body);
    w.write_all(&[frame])?;
    w.write_all(head)?;
    w.write_all(body)?;
    w.write_all(&crc.to_le_bytes())?;
    Ok(())
}

fn encode_event_block(body: &mut Vec<u8>, stream: u64, values: &[i64]) {
    put_varint(body, stream);
    put_varint(body, values.len() as u64);
    let mut prev = 0i64;
    let mut prev_delta = 0i64;
    for (i, &v) in values.iter().enumerate() {
        match i {
            0 => put_varint(body, zigzag(v)),
            1 => {
                let d = v.wrapping_sub(prev);
                put_varint(body, zigzag(d));
                prev_delta = d;
            }
            _ => {
                let d = v.wrapping_sub(prev);
                put_varint(body, zigzag(d.wrapping_sub(prev_delta)));
                prev_delta = d;
            }
        }
        prev = v;
    }
}

fn encode_sample_block(body: &mut Vec<u8>, stream: u64, values: &[f64]) {
    put_varint(body, stream);
    put_varint(body, values.len() as u64);
    let mut prev = 0u64;
    for &v in values {
        let bits = v.to_bits();
        put_varint(body, bits ^ prev);
        prev = bits;
    }
}

// ---------------------------------------------------------------------
// Shared frame machinery — ONE implementation of framing + body decode.
//
// `DtbReader` (whole-slice file replay) and `DtbDecoder` (incremental
// wire ingest) both go through `split_frame` and `FrameDecoder`, so the
// CRC scope, varint handling, delta-of-delta and XOR-of-bits logic
// cannot fork between the file path and the network path.

/// Outcome of attempting to split one frame out of a byte buffer.
#[derive(Debug)]
enum FrameStep {
    /// The buffer ends before the frame does. `at` is the absolute byte
    /// offset at which more input was required (the slice reader maps
    /// this to [`DtbError::Truncated`]; the incremental decoder waits
    /// for more bytes).
    NeedMore { at: usize },
    /// A complete, CRC-verified frame.
    Frame {
        frame: u8,
        body_start: usize,
        body_end: usize,
        next: usize,
    },
}

/// Split the frame starting at `pos` out of `data` and verify its CRC.
///
/// `base` is the absolute offset of `data[0]` (error reporting only);
/// `max_body` bounds the declared body length — `usize::MAX` for the
/// slice reader (the slice itself is the bound), the per-connection
/// budget for the incremental decoder.
fn split_frame(
    data: &[u8],
    pos: usize,
    base: usize,
    max_body: usize,
) -> Result<FrameStep, DtbError> {
    let frame = data[pos];
    let mut cursor = pos + 1;
    let body_len = match get_varint(data, &mut cursor, base) {
        Ok(v) => v,
        // The length varint itself ran off the end of the buffer.
        Err(DtbError::Truncated { offset }) => return Ok(FrameStep::NeedMore { at: offset }),
        Err(e) => return Err(e),
    };
    if body_len > max_body as u64 {
        return Err(DtbError::FrameTooLarge {
            len: body_len,
            limit: max_body,
            offset: base + pos,
        });
    }
    let body_start = cursor;
    // Both adds are checked: a hostile length varint near u64::MAX must
    // report truncation, not overflow (docs/FORMAT.md §8).
    let frame_end = match body_start
        .checked_add(body_len as usize)
        .and_then(|e| e.checked_add(4))
    {
        Some(end) => end,
        None => return Ok(FrameStep::NeedMore { at: base + pos }),
    };
    if frame_end > data.len() {
        return Ok(FrameStep::NeedMore { at: base + pos });
    }
    let body_end = frame_end - 4;
    let body = &data[body_start..body_end];
    let stored = u32::from_le_bytes(
        data[body_end..frame_end]
            .try_into()
            .expect("4 bytes sliced"),
    );
    let computed = crc32_frame(frame, body);
    if stored != computed {
        return Err(DtbError::BadCrc {
            offset: base + pos,
            stored,
            computed,
        });
    }
    Ok(FrameStep::Frame {
        frame,
        body_start,
        body_end,
        next: frame_end,
    })
}

/// Shared frame-body decoder: declared stream metadata plus the reusable
/// value buffers. Holds every piece of cross-frame state a DTB byte
/// sequence carries, so a container can be decoded from a resident slice
/// and from arbitrarily fragmented wire reads by the same code.
#[derive(Debug, Default)]
struct FrameDecoder {
    metas: HashMap<u64, StreamMeta>,
    ibuf: Vec<i64>,
    fbuf: Vec<f64>,
}

impl FrameDecoder {
    /// Decode one CRC-verified frame body. `body_start` / `frame_start`
    /// are absolute offsets for error reporting.
    fn decode(
        &mut self,
        frame: u8,
        body: &[u8],
        body_start: usize,
        frame_start: usize,
    ) -> Result<Block<'_>, DtbError> {
        match frame {
            FRAME_DECL => self.decode_decl(body, body_start),
            FRAME_EVENTS => self.decode_events(body, body_start),
            FRAME_SAMPLES => self.decode_samples(body, body_start),
            other => Err(DtbError::UnknownFrame {
                frame: other,
                offset: frame_start,
            }),
        }
    }

    fn decode_decl(&mut self, body: &[u8], base: usize) -> Result<Block<'_>, DtbError> {
        let mut p = 0usize;
        let stream = get_varint(body, &mut p, base)?;
        let &kind_byte = body
            .get(p)
            .ok_or(DtbError::Truncated { offset: base + p })?;
        p += 1;
        let kind = match kind_byte {
            0 => StreamKind::Events,
            1 => StreamKind::Sampled,
            _ => {
                return Err(DtbError::Malformed {
                    what: "unknown stream kind",
                    offset: base,
                })
            }
        };
        let sample_period_ns = get_varint(body, &mut p, base)?;
        let name_len = get_varint(body, &mut p, base)? as usize;
        if p + name_len != body.len() {
            return Err(DtbError::Malformed {
                what: "declaration length mismatch",
                offset: base,
            });
        }
        let name = std::str::from_utf8(&body[p..p + name_len])
            .map_err(|_| DtbError::Malformed {
                what: "stream name is not UTF-8",
                offset: base,
            })?
            .to_string();
        let meta = StreamMeta {
            kind,
            name,
            sample_period_ns,
        };
        match self.metas.get(&stream) {
            Some(existing) if *existing != meta => return Err(DtbError::KindMismatch { stream }),
            _ => {
                self.metas.insert(stream, meta);
            }
        }
        Ok(Block::Decl {
            stream,
            meta: &self.metas[&stream],
        })
    }

    fn decode_events(&mut self, body: &[u8], base: usize) -> Result<Block<'_>, DtbError> {
        let mut p = 0usize;
        let stream = get_varint(body, &mut p, base)?;
        match self.metas.get(&stream) {
            None => return Err(DtbError::UndeclaredStream { stream }),
            Some(m) if m.kind != StreamKind::Events => {
                return Err(DtbError::KindMismatch { stream })
            }
            Some(_) => {}
        }
        let count = get_varint(body, &mut p, base)? as usize;
        // Every value costs at least one encoded byte: an impossible count
        // is rejected before any allocation is sized from it.
        if count > body.len() - p {
            return Err(DtbError::Malformed {
                what: "event count exceeds block payload",
                offset: base,
            });
        }
        self.ibuf.clear();
        self.ibuf.reserve(count);
        let mut prev = 0i64;
        let mut prev_delta = 0i64;
        for i in 0..count {
            // Steady state of a periodic stream is a one-byte varint;
            // decode it inline and fall back for multi-byte encodings.
            let word = match body.get(p) {
                Some(&b) if b < 0x80 => {
                    p += 1;
                    b as u64
                }
                _ => get_varint(body, &mut p, base)?,
            };
            let raw = unzigzag(word);
            let v = match i {
                0 => raw,
                1 => {
                    prev_delta = raw;
                    prev.wrapping_add(raw)
                }
                _ => {
                    prev_delta = prev_delta.wrapping_add(raw);
                    prev.wrapping_add(prev_delta)
                }
            };
            self.ibuf.push(v);
            prev = v;
        }
        if p != body.len() {
            return Err(DtbError::Malformed {
                what: "trailing bytes in event block",
                offset: base,
            });
        }
        Ok(Block::Events {
            stream,
            values: &self.ibuf,
        })
    }

    fn decode_samples(&mut self, body: &[u8], base: usize) -> Result<Block<'_>, DtbError> {
        let mut p = 0usize;
        let stream = get_varint(body, &mut p, base)?;
        match self.metas.get(&stream) {
            None => return Err(DtbError::UndeclaredStream { stream }),
            Some(m) if m.kind != StreamKind::Sampled => {
                return Err(DtbError::KindMismatch { stream })
            }
            Some(_) => {}
        }
        let count = get_varint(body, &mut p, base)? as usize;
        if count > body.len() - p {
            return Err(DtbError::Malformed {
                what: "sample count exceeds block payload",
                offset: base,
            });
        }
        self.fbuf.clear();
        self.fbuf.reserve(count);
        let mut prev = 0u64;
        for _ in 0..count {
            let word = match body.get(p) {
                Some(&b) if b < 0x80 => {
                    p += 1;
                    b as u64
                }
                _ => get_varint(body, &mut p, base)?,
            };
            let bits = word ^ prev;
            self.fbuf.push(f64::from_bits(bits));
            prev = bits;
        }
        if p != body.len() {
            return Err(DtbError::Malformed {
                what: "trailing bytes in sample block",
                offset: base,
            });
        }
        Ok(Block::Samples {
            stream,
            values: &self.fbuf,
        })
    }

    fn meta(&self, stream: u64) -> Option<&StreamMeta> {
        self.metas.get(&stream)
    }

    fn stream_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.metas.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

// ---------------------------------------------------------------------
// Reader.

/// One decoded frame yielded by [`DtbReader::next_block`] or
/// [`DtbDecoder::next_block`].
///
/// `Events` / `Samples` slices borrow the decoder's internal decode buffer
/// and stay valid until the next `next_block` call — consume (or copy)
/// them before advancing.
#[derive(Debug, PartialEq)]
pub enum Block<'r> {
    /// A stream declaration (first sight of the stream, or an idempotent
    /// re-declaration after file concatenation).
    Decl {
        /// The declared stream id.
        stream: u64,
        /// The declared metadata.
        meta: &'r StreamMeta,
    },
    /// A batch of event values for one declared event stream.
    Events {
        /// Owning stream id.
        stream: u64,
        /// Decoded values, in stream order.
        values: &'r [i64],
    },
    /// A batch of `f64` samples for one declared sampled stream.
    Samples {
        /// Owning stream id.
        stream: u64,
        /// Decoded samples, in stream order.
        values: &'r [f64],
    },
}

/// Allocation-free streaming reader over an in-memory DTB container.
///
/// Construction validates the header; [`DtbReader::next_block`] then walks
/// the frame sequence, checking each frame's CRC before decoding. Decoded
/// values land in two reusable internal buffers, so steady-state reading
/// performs no per-block allocation; the input slice itself is never
/// copied (varints are decoded in place).
#[derive(Debug)]
pub struct DtbReader<'a> {
    data: &'a [u8],
    pos: usize,
    dec: FrameDecoder,
}

impl<'a> DtbReader<'a> {
    /// Open a container held in `data`, validating magic and version.
    pub fn new(data: &'a [u8]) -> Result<Self, DtbError> {
        if data.len() < HEADER_LEN {
            if data.len() >= 4 && data[..4] != MAGIC {
                return Err(DtbError::BadMagic);
            }
            return Err(DtbError::Truncated { offset: data.len() });
        }
        if data[..4] != MAGIC {
            return Err(DtbError::BadMagic);
        }
        if data[4] != VERSION {
            return Err(DtbError::UnsupportedVersion(data[4]));
        }
        Ok(DtbReader {
            data,
            pos: HEADER_LEN,
            dec: FrameDecoder::default(),
        })
    }

    /// Byte offset of the next frame (diagnostics / progress reporting).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Metadata of a stream declared so far.
    pub fn meta(&self, stream: u64) -> Option<&StreamMeta> {
        self.dec.meta(stream)
    }

    /// Ids of every stream declared so far, ascending.
    pub fn stream_ids(&self) -> Vec<u64> {
        self.dec.stream_ids()
    }

    /// Decode the next frame, or `None` at a clean end of input.
    ///
    /// Errors are sticky in practice: after a decode error the reader's
    /// position is unspecified and further calls may keep failing — stop
    /// on the first `Err` unless you are scanning for salvage.
    pub fn next_block(&mut self) -> Option<Result<Block<'_>, DtbError>> {
        // Interior headers appear where DTB files were concatenated; skip.
        while self.data.len() - self.pos >= HEADER_LEN && self.data[self.pos..self.pos + 4] == MAGIC
        {
            if self.data[self.pos + 4] != VERSION {
                return Some(Err(DtbError::UnsupportedVersion(self.data[self.pos + 4])));
            }
            self.pos += HEADER_LEN;
        }
        if self.pos >= self.data.len() {
            return None;
        }
        Some(self.decode_frame())
    }

    fn decode_frame(&mut self) -> Result<Block<'_>, DtbError> {
        let frame_start = self.pos;
        match split_frame(self.data, self.pos, 0, usize::MAX)? {
            // A complete file ending mid-frame is truncated.
            FrameStep::NeedMore { at } => Err(DtbError::Truncated { offset: at }),
            FrameStep::Frame {
                frame,
                body_start,
                body_end,
                next,
            } => {
                self.pos = next;
                self.dec.decode(
                    frame,
                    &self.data[body_start..body_end],
                    body_start,
                    frame_start,
                )
            }
        }
    }
}

// ---------------------------------------------------------------------
// Incremental decoder (the wire path).

/// Default per-frame body budget of [`DtbDecoder`]: 1 MiB, comfortably
/// above any block the writer emits (a [`DEFAULT_BLOCK_LEN`] event block
/// is at most ~40 KiB even with every varint at its 10-byte maximum).
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Incremental DTB decoder over arbitrarily fragmented input.
///
/// Where [`DtbReader`] requires the whole container resident in one
/// slice, `DtbDecoder` accepts bytes as they arrive — e.g. from `read()`
/// calls on a socket that split frames at arbitrary boundaries — and
/// yields exactly the same [`Block`] sequence:
///
/// * [`DtbDecoder::feed`] appends a chunk of input;
/// * [`DtbDecoder::next_block`] yields the next complete frame, or
///   `Ok(None)` when the buffered bytes end mid-frame (feed more and
///   retry — this is *not* an error);
/// * [`DtbDecoder::finish`] distinguishes a clean end of input from a
///   connection dropped mid-frame.
///
/// Both decoders share one frame implementation (`split_frame` +
/// `FrameDecoder` internally), so the file replay path and the network
/// path cannot diverge on CRC scope, varint handling, or block decoding.
/// Unlike the reader, the decoder bounds the declared body length
/// ([`DtbDecoder::with_max_frame`]) so a hostile length varint cannot
/// grow the buffer without bound; consumed bytes are compacted away on
/// every `feed`, keeping the buffer at one partial frame plus one read.
#[derive(Debug)]
pub struct DtbDecoder {
    buf: Vec<u8>,
    /// Next undecoded byte within `buf`.
    pos: usize,
    /// Absolute input offset of `buf[0]` (error reporting / progress).
    base: usize,
    header_seen: bool,
    max_frame: usize,
    dec: FrameDecoder,
}

impl Default for DtbDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl DtbDecoder {
    /// New decoder with the [`DEFAULT_MAX_FRAME`] body budget.
    pub fn new() -> Self {
        Self::with_max_frame(DEFAULT_MAX_FRAME)
    }

    /// New decoder rejecting frames whose declared body exceeds
    /// `max_frame` bytes (with [`DtbError::FrameTooLarge`]).
    ///
    /// # Panics
    /// Panics when `max_frame` is zero.
    pub fn with_max_frame(max_frame: usize) -> Self {
        assert!(max_frame > 0, "max_frame must be positive");
        DtbDecoder {
            buf: Vec::new(),
            pos: 0,
            base: 0,
            header_seen: false,
            max_frame,
            dec: FrameDecoder::default(),
        }
    }

    /// Append a chunk of input. Consumed bytes are compacted out first,
    /// so the buffer holds at most one partial frame plus this chunk.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            let len = self.buf.len();
            self.buf.copy_within(self.pos..len, 0);
            self.buf.truncate(len - self.pos);
            self.base += self.pos;
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete frame, or `Ok(None)` when the buffered
    /// input ends mid-frame (feed more bytes and call again).
    ///
    /// Errors are protocol-fatal: the input up to the previous block is a
    /// valid prefix, but the decoder's position within the damaged frame
    /// is unspecified — stop feeding after the first `Err`.
    pub fn next_block(&mut self) -> Result<Option<Block<'_>>, DtbError> {
        // File header first, then interior headers wherever containers
        // were concatenated — same skip rule as the slice reader.
        loop {
            let avail = self.buf.len() - self.pos;
            if !self.header_seen {
                if avail >= 4 && self.buf[self.pos..self.pos + 4] != MAGIC {
                    return Err(DtbError::BadMagic);
                }
                if avail < HEADER_LEN {
                    return Ok(None);
                }
                if self.buf[self.pos + 4] != VERSION {
                    return Err(DtbError::UnsupportedVersion(self.buf[self.pos + 4]));
                }
                self.header_seen = true;
                self.pos += HEADER_LEN;
                continue;
            }
            if avail == 0 {
                return Ok(None);
            }
            if self.buf[self.pos] == MAGIC[0] {
                // Possibly an interior header: no frame type shares the
                // magic's first byte, but wait for enough bytes to tell
                // an interior header from a corrupt frame.
                if avail < HEADER_LEN {
                    return Ok(None);
                }
                if self.buf[self.pos..self.pos + 4] == MAGIC {
                    if self.buf[self.pos + 4] != VERSION {
                        return Err(DtbError::UnsupportedVersion(self.buf[self.pos + 4]));
                    }
                    self.pos += HEADER_LEN;
                    continue;
                }
            }
            break;
        }
        let frame_start = self.pos;
        match split_frame(&self.buf, self.pos, self.base, self.max_frame)? {
            FrameStep::NeedMore { .. } => Ok(None),
            FrameStep::Frame {
                frame,
                body_start,
                body_end,
                next,
            } => {
                self.pos = next;
                self.dec
                    .decode(
                        frame,
                        &self.buf[body_start..body_end],
                        self.base + body_start,
                        self.base + frame_start,
                    )
                    .map(Some)
            }
        }
    }

    /// Total bytes fully consumed so far (absolute input offset).
    pub fn position(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes buffered but not yet decoded (a partial frame awaiting the
    /// rest of its input) — the quantity per-connection buffer budgets
    /// account against.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Check that the input ended cleanly: at a frame boundary after a
    /// valid header, or — for a connection that never sent anything —
    /// completely empty. An input ending mid-header or mid-frame is
    /// [`DtbError::Truncated`].
    pub fn finish(&self) -> Result<(), DtbError> {
        let never_fed = self.base == 0 && self.buf.is_empty() && !self.header_seen;
        if self.buffered() == 0 && (self.header_seen || never_fed) {
            Ok(())
        } else {
            Err(DtbError::Truncated {
                offset: self.base + self.buf.len(),
            })
        }
    }

    /// Metadata of a stream declared so far.
    pub fn meta(&self, stream: u64) -> Option<&StreamMeta> {
        self.dec.meta(stream)
    }

    /// Ids of every stream declared so far, ascending.
    pub fn stream_ids(&self) -> Vec<u64> {
        self.dec.stream_ids()
    }
}

// ---------------------------------------------------------------------
// Whole-trace conveniences bridging the `EventTrace`/`SampledTrace` model.

/// Write one [`EventTrace`] as a single-stream container (stream id 0).
pub fn write_events<W: Write>(trace: &EventTrace, w: W) -> Result<(), DtbError> {
    let mut writer = DtbWriter::new(w)?;
    writer.declare_events(0, &trace.name)?;
    writer.push_events(0, &trace.values)?;
    writer.finish()?;
    Ok(())
}

/// Write one [`SampledTrace`] as a single-stream container (stream id 0).
pub fn write_sampled<W: Write>(trace: &SampledTrace, w: W) -> Result<(), DtbError> {
    let mut writer = DtbWriter::new(w)?;
    writer.declare_sampled(0, &trace.name, trace.sample_period_ns)?;
    writer.push_samples(0, &trace.values)?;
    writer.finish()?;
    Ok(())
}

/// Read the container's first-declared event stream as an [`EventTrace`].
/// Fails with [`DtbError::NoSuchStream`] when no event stream is declared.
pub fn read_events(data: &[u8]) -> Result<EventTrace, DtbError> {
    let (mut events, _) = read_all(data)?;
    if events.is_empty() {
        return Err(DtbError::NoSuchStream);
    }
    Ok(events.swap_remove(0).1)
}

/// Read the container's first-declared sampled stream as a [`SampledTrace`].
pub fn read_sampled(data: &[u8]) -> Result<SampledTrace, DtbError> {
    let (_, mut sampled) = read_all(data)?;
    if sampled.is_empty() {
        return Err(DtbError::NoSuchStream);
    }
    Ok(sampled.swap_remove(0).1)
}

/// Every stream of a container with its stream id, one list per kind.
pub type DtbStreams = (Vec<(u64, EventTrace)>, Vec<(u64, SampledTrace)>);

/// Read every stream in the container with its stream id, each kind in
/// declaration order.
pub fn read_all(data: &[u8]) -> Result<DtbStreams, DtbError> {
    let mut reader = DtbReader::new(data)?;
    let mut events: Vec<(u64, EventTrace)> = Vec::new();
    let mut sampled: Vec<(u64, SampledTrace)> = Vec::new();
    let mut event_ix: HashMap<u64, usize> = HashMap::new();
    let mut sampled_ix: HashMap<u64, usize> = HashMap::new();
    while let Some(block) = reader.next_block() {
        match block? {
            Block::Decl { stream, meta } => match meta.kind {
                StreamKind::Events => {
                    event_ix.entry(stream).or_insert_with(|| {
                        events.push((stream, EventTrace::new(meta.name.clone())));
                        events.len() - 1
                    });
                }
                StreamKind::Sampled => {
                    sampled_ix.entry(stream).or_insert_with(|| {
                        let trace = SampledTrace::new(meta.name.clone(), meta.sample_period_ns);
                        sampled.push((stream, trace));
                        sampled.len() - 1
                    });
                }
            },
            Block::Events { stream, values } => {
                let ix = event_ix[&stream]; // decl enforced by the reader
                events[ix].1.values.extend_from_slice(values);
            }
            Block::Samples { stream, values } => {
                let ix = sampled_ix[&stream];
                sampled[ix].1.values.extend_from_slice(values);
            }
        }
    }
    Ok((events, sampled))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_container(streams: &[(u64, &str, Vec<i64>)], block_len: usize) -> Vec<u8> {
        let mut w = DtbWriter::with_block_len(Vec::new(), block_len).unwrap();
        for (id, name, _) in streams {
            w.declare_events(*id, name).unwrap();
        }
        for (id, _, values) in streams {
            w.push_events(*id, values).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn event_roundtrip_single_stream() {
        let t = EventTrace::from_values("tomcatv", vec![10, -20, 30, 30, 30, i64::MAX, i64::MIN]);
        let mut buf = Vec::new();
        write_events(&t, &mut buf).unwrap();
        assert_eq!(read_events(&buf).unwrap(), t);
    }

    #[test]
    fn sampled_roundtrip_bit_exact() {
        let values = vec![1.0, 4.5, -0.0, f64::MIN_POSITIVE, 1e308, f64::NAN];
        let t = SampledTrace::from_values("ft-cpus", 1_000_000, values);
        let mut buf = Vec::new();
        write_sampled(&t, &mut buf).unwrap();
        let back = read_sampled(&buf).unwrap();
        assert_eq!(back.name, t.name);
        assert_eq!(back.sample_period_ns, t.sample_period_ns);
        assert_eq!(back.values.len(), t.values.len());
        for (a, b) in back.values.iter().zip(&t.values) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact incl. NaN/-0.0");
        }
    }

    #[test]
    fn multi_stream_interleaving_and_block_splits() {
        for block_len in [1usize, 2, 3, 7, 4096] {
            let a: Vec<i64> = (0..100).map(|i| 0x1000 + (i % 7)).collect();
            let b: Vec<i64> = (0..53).map(|i| 0x2000 - i * 17).collect();
            let c: Vec<i64> = (0..31).map(|i| i * i).collect();
            // Sparse, non-ascending ids come back as declared.
            let streams = [(42, "a", a), (7, "b", b), (1 << 40, "c", c)];
            let bytes = event_container(&streams, block_len);
            let (events, sampled) = read_all(&bytes).unwrap();
            assert!(sampled.is_empty());
            assert_eq!(events.len(), 3);
            for ((id, trace), (want_id, name, values)) in events.iter().zip(&streams) {
                assert_eq!(id, want_id);
                assert_eq!(trace.name, *name);
                assert_eq!(&trace.values, values, "block_len={block_len}");
            }
        }
    }

    #[test]
    fn periodic_stream_compresses_hard() {
        let values: Vec<i64> = (0..10_000).map(|i| 0x40_0000 + (i % 6) * 0x40).collect();
        let t = EventTrace::from_values("periodic", values);
        let mut buf = Vec::new();
        write_events(&t, &mut buf).unwrap();
        // Delta-of-delta over a period-6 sawtooth stays tiny: ~1.1 B/sample
        // would already be poor; require well under 2.
        assert!(
            buf.len() < t.values.len() * 2,
            "{} bytes for {} samples",
            buf.len(),
            t.values.len()
        );
    }

    #[test]
    fn reader_yields_batches_without_reallocating() {
        let values: Vec<i64> = (0..50_000).map(|i| i % 11).collect();
        let bytes = event_container(&[(0, "x", values.clone())], 512);
        let mut r = DtbReader::new(&bytes).unwrap();
        let mut got = Vec::new();
        while let Some(block) = r.next_block() {
            if let Block::Events { values, .. } = block.unwrap() {
                got.extend_from_slice(values);
            }
        }
        assert_eq!(got, values);
    }

    #[test]
    fn truncated_tail_is_graceful() {
        let bytes = event_container(&[(0, "x", (0..1000).collect())], 256);
        for cut in [bytes.len() - 1, bytes.len() - 5, HEADER_LEN + 1, 3] {
            let mut r = match DtbReader::new(&bytes[..cut]) {
                Ok(r) => r,
                Err(DtbError::Truncated { .. }) => continue, // header cut
                Err(e) => panic!("unexpected header error: {e}"),
            };
            let mut saw_error = false;
            while let Some(block) = r.next_block() {
                match block {
                    Ok(_) => {}
                    Err(DtbError::Truncated { .. }) => {
                        saw_error = true;
                        break;
                    }
                    Err(e) => panic!("expected Truncated, got {e}"),
                }
            }
            assert!(saw_error, "cut at {cut} went unnoticed");
        }
    }

    #[test]
    fn flipped_byte_fails_crc() {
        let bytes = event_container(&[(0, "x", (0..100).collect())], 64);
        // Flip one bit in every byte position past the header; every frame
        // must either fail its CRC or (for length-varint damage) report
        // truncation/malformation — never panic, never silently succeed
        // with altered values.
        for pos in HEADER_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            let mut r = match DtbReader::new(&bad) {
                Ok(r) => r,
                Err(_) => continue,
            };
            let mut ok = true;
            let mut decoded = Vec::new();
            while let Some(block) = r.next_block() {
                match block {
                    Ok(Block::Events { values, .. }) => decoded.extend_from_slice(values),
                    Ok(_) => {}
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            assert!(!ok, "flip at byte {pos} was not detected");
            let _ = decoded;
        }
    }

    #[test]
    fn huge_length_varint_reports_truncation_not_panic() {
        // A crafted frame whose body_len is near u64::MAX must surface as
        // Truncated: body_start + len (+4) overflows usize if unchecked.
        for body_len in [u64::MAX, u64::MAX - 18, usize::MAX as u64 - 2] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&MAGIC);
            bytes.extend_from_slice(&[VERSION, 0]);
            bytes.push(FRAME_EVENTS);
            put_varint(&mut bytes, body_len);
            bytes.extend_from_slice(&[0u8; 16]); // some padding "body"
            let mut r = DtbReader::new(&bytes).unwrap();
            match r.next_block() {
                Some(Err(DtbError::Truncated { .. })) => {}
                other => panic!("body_len {body_len}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn large_single_push_matches_buffered_blocks() {
        // A one-call push of many blocks' worth of data must produce the
        // same bytes as value-at-a-time pushes (same block boundaries).
        let values: Vec<i64> = (0..10_000).map(|i| i * 7 % 1000).collect();
        let mut one = DtbWriter::with_block_len(Vec::new(), 256).unwrap();
        one.declare_events(3, "x").unwrap();
        one.push_events(3, &values).unwrap();
        let mut many = DtbWriter::with_block_len(Vec::new(), 256).unwrap();
        many.declare_events(3, "x").unwrap();
        for chunk in values.chunks(17) {
            many.push_events(3, chunk).unwrap();
        }
        assert_eq!(one.finish().unwrap(), many.finish().unwrap());
    }

    #[test]
    fn undeclared_stream_is_an_error() {
        // Hand-craft: header + event block for never-declared stream 3.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&[VERSION, 0]);
        let mut body = Vec::new();
        put_varint(&mut body, 3);
        put_varint(&mut body, 1);
        put_varint(&mut body, zigzag(42));
        let mut head = Vec::new();
        write_frame(&mut bytes, FRAME_EVENTS, &body, &mut head).unwrap();
        let mut r = DtbReader::new(&bytes).unwrap();
        match r.next_block() {
            Some(Err(DtbError::UndeclaredStream { stream: 3 })) => {}
            other => panic!("expected UndeclaredStream, got {other:?}"),
        }
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let mut w = DtbWriter::new(Vec::new()).unwrap();
        w.declare_events(1, "e").unwrap();
        assert!(matches!(
            w.push_samples(1, &[1.0]),
            Err(DtbError::KindMismatch { stream: 1 })
        ));
        assert!(matches!(
            w.declare_sampled(1, "e", 100),
            Err(DtbError::KindMismatch { stream: 1 })
        ));
        // Identical re-declaration is idempotent.
        assert!(w.declare_events(1, "e").is_ok());
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        assert!(matches!(
            DtbReader::new(b"NOPE\x01\x00rest"),
            Err(DtbError::BadMagic)
        ));
        assert!(matches!(
            DtbReader::new(b"DTB1\x07\x00"),
            Err(DtbError::UnsupportedVersion(7))
        ));
        assert!(matches!(
            DtbReader::new(b"DT"),
            Err(DtbError::Truncated { .. })
        ));
    }

    #[test]
    fn concatenated_containers_read_as_one() {
        let first = event_container(&[(0, "x", (0..40).collect())], 16);
        let second = event_container(&[(0, "x", (40..80).collect())], 16);
        let mut joined = first;
        joined.extend_from_slice(&second);
        let (events, _) = read_all(&joined).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].1.values, (0..80).collect::<Vec<i64>>());
    }

    #[test]
    fn append_writer_extends_in_place() {
        let mut bytes = event_container(&[(7, "x", (0..10).collect())], 16);
        let mut w = DtbWriter::append(&mut bytes);
        w.declare_events(7, "x").unwrap();
        w.push_events(7, &(10..20).collect::<Vec<i64>>()).unwrap();
        w.flush().unwrap();
        drop(w);
        let (events, _) = read_all(&bytes).unwrap();
        assert_eq!(events[0].1.values, (0..20).collect::<Vec<i64>>());
    }

    #[test]
    fn varint_zigzag_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 0x7F, -0x80] {
            assert_eq!(unzigzag(zigzag(v)), v);
            let mut buf = Vec::new();
            put_varint(&mut buf, zigzag(v));
            let mut p = 0;
            assert_eq!(unzigzag(get_varint(&buf, &mut p, 0).unwrap()), v);
            assert_eq!(p, buf.len());
        }
    }

    #[test]
    fn overlong_varint_rejected() {
        let bad = [0xFFu8; 11];
        let mut p = 0;
        assert!(matches!(
            get_varint(&bad, &mut p, 0),
            Err(DtbError::BadVarint { .. })
        ));
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Every `DtbError` variant renders a lowercase, period-free message
    /// and wires `std::error::Error::source` on its wrapper variant.
    #[test]
    fn every_dtb_error_variant_renders() {
        let variants = vec![
            DtbError::Io(std::io::Error::other("boom")),
            DtbError::BadMagic,
            DtbError::UnsupportedVersion(7),
            DtbError::Truncated { offset: 12 },
            DtbError::BadCrc {
                offset: 6,
                stored: 1,
                computed: 2,
            },
            DtbError::BadVarint { offset: 9 },
            DtbError::FrameTooLarge {
                len: 1 << 30,
                limit: 1 << 20,
                offset: 6,
            },
            DtbError::UnknownFrame {
                frame: 0x7F,
                offset: 6,
            },
            DtbError::Malformed {
                what: "trailing bytes in event block",
                offset: 6,
            },
            DtbError::UndeclaredStream { stream: 3 },
            DtbError::KindMismatch { stream: 3 },
            DtbError::NoSuchStream,
        ];
        for v in variants {
            let msg = v.to_string();
            assert!(!msg.is_empty(), "{v:?} renders empty");
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "{v:?} message must start lowercase: {msg:?}"
            );
            assert!(!msg.ends_with('.'), "{v:?} message ends with a period");
            let err: &dyn std::error::Error = &v;
            if matches!(v, DtbError::Io(_)) {
                assert!(err.source().is_some());
            } else {
                assert!(err.source().is_none());
            }
        }
    }

    /// Collect every block from a `DtbDecoder` fed in `chunk`-byte pieces.
    fn incremental_decode(bytes: &[u8], chunk: usize) -> Vec<(u64, Vec<i64>)> {
        let mut dec = DtbDecoder::new();
        let mut out = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
            dec.feed(piece);
            loop {
                match dec.next_block().expect("valid input") {
                    Some(Block::Events { stream, values }) => out.push((stream, values.to_vec())),
                    Some(_) => {}
                    None => break,
                }
            }
        }
        dec.finish().expect("clean end of input");
        assert_eq!(dec.position(), bytes.len());
        out
    }

    #[test]
    fn incremental_decoder_matches_reader_under_any_fragmentation() {
        let a: Vec<i64> = (0..500).map(|i| 0x1000 + (i % 7)).collect();
        let b: Vec<i64> = (0..333).map(|i| 0x2000 - i * 17).collect();
        let bytes = event_container(&[(5, "a", a), (9, "b", b)], 64);
        let mut r = DtbReader::new(&bytes).unwrap();
        let mut reference = Vec::new();
        while let Some(block) = r.next_block() {
            if let Block::Events { stream, values } = block.unwrap() {
                reference.push((stream, values.to_vec()));
            }
        }
        for chunk in [1usize, 2, 3, 7, 64, 1000, bytes.len()] {
            assert_eq!(
                incremental_decode(&bytes, chunk),
                reference,
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn incremental_decoder_handles_concatenation_and_sampled_streams() {
        let mut first = event_container(&[(0, "x", (0..40).collect())], 16);
        let mut w = DtbWriter::new(Vec::new()).unwrap();
        w.declare_sampled(1, "s", 1000).unwrap();
        w.push_samples(1, &[1.0, -0.0, f64::NAN]).unwrap();
        first.extend_from_slice(&w.finish().unwrap());
        let mut dec = DtbDecoder::new();
        let mut events = 0usize;
        let mut samples: Vec<u64> = Vec::new();
        for piece in first.chunks(5) {
            dec.feed(piece);
            while let Some(block) = dec.next_block().unwrap() {
                match block {
                    Block::Events { values, .. } => events += values.len(),
                    Block::Samples { values, .. } => {
                        samples.extend(values.iter().map(|v| v.to_bits()))
                    }
                    Block::Decl { .. } => {}
                }
            }
        }
        dec.finish().unwrap();
        assert_eq!(events, 40);
        let expected: Vec<u64> = [1.0f64, -0.0, f64::NAN]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(samples, expected, "sampled values bit-exact");
    }

    #[test]
    fn incremental_decoder_flags_truncation_and_bounds_frames() {
        let bytes = event_container(&[(0, "x", (0..200).collect())], 64);
        // Mid-frame end of input: finish() must reject it.
        let mut dec = DtbDecoder::new();
        dec.feed(&bytes[..bytes.len() - 3]);
        while dec.next_block().unwrap().is_some() {}
        assert!(matches!(dec.finish(), Err(DtbError::Truncated { .. })));
        // A connection that never sent anything is a clean close.
        assert!(DtbDecoder::new().finish().is_ok());
        // A declared body larger than the budget is rejected before any
        // buffering happens, even though the body never arrives.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&MAGIC);
        hostile.extend_from_slice(&[VERSION, 0]);
        hostile.push(FRAME_EVENTS);
        put_varint(&mut hostile, 1 << 30);
        let mut dec = DtbDecoder::with_max_frame(1 << 20);
        dec.feed(&hostile);
        assert!(matches!(
            dec.next_block(),
            Err(DtbError::FrameTooLarge { .. })
        ));
        // The slice reader still reports hostile huge lengths as
        // truncation (the slice itself is its bound).
        let mut r = DtbReader::new(&hostile).unwrap();
        assert!(matches!(
            r.next_block(),
            Some(Err(DtbError::Truncated { .. }))
        ));
    }

    #[test]
    fn incremental_decoder_compacts_consumed_input() {
        let bytes = event_container(&[(0, "x", (0..50_000).map(|i| i % 11).collect())], 512);
        let mut dec = DtbDecoder::new();
        let mut high_water = 0usize;
        for piece in bytes.chunks(4096) {
            dec.feed(piece);
            while dec.next_block().unwrap().is_some() {}
            high_water = high_water.max(dec.buffered());
        }
        dec.finish().unwrap();
        // Buffered bytes never exceed one partial frame + one chunk.
        assert!(
            high_water < 4096 + DEFAULT_MAX_FRAME.min(8192),
            "decoder buffered {high_water} bytes"
        );
    }

    #[test]
    fn empty_container_reads_empty() {
        let bytes = DtbWriter::new(Vec::new()).unwrap().finish().unwrap();
        let (events, sampled) = read_all(&bytes).unwrap();
        assert!(events.is_empty() && sampled.is_empty());
        assert!(matches!(read_events(&bytes), Err(DtbError::NoSuchStream)));
    }
}
