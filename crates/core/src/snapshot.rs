//! Versioned binary serialization of full detector state.
//!
//! A production service (ROADMAP items 1–2) cannot replay every stream from
//! `t = 0` after a restart; it checkpoints. This module is the state half of
//! the durability substrate (`dpd_trace::pile` is the log half): every stack
//! the [`DpdBuilder`](crate::pipeline::DpdBuilder) can produce serializes to
//! an explicitly-laid-out, versioned byte envelope and restores **bit
//! identically** — floating-point accumulators travel as raw
//! [`f64::to_bits`] words, mirrored histories re-materialize with their
//! lifetime push counters intact, and restore never re-derives a sum that
//! the serialized engine maintained incrementally (a resync could differ in
//! the last ulp from the incrementally-maintained value).
//!
//! # Envelope
//!
//! ```text
//! [version u8 = 1][tag u8][body ...]
//! ```
//!
//! The body layout is private to each type but fully deterministic: varint
//! `u64`s, zigzag-varint `i64`s, fixed 8-byte little-endian `f64` bit
//! patterns, and length-prefixed repetition. The version byte covers the
//! whole envelope; any layout change bumps [`VERSION`] and readers reject
//! unknown versions with [`SnapshotError::BadVersion`] instead of
//! misparsing (the version policy in `docs/FORMAT.md` §9).
//!
//! # Traits
//!
//! [`Snapshot`] serializes, [`Restore`] deserializes. Both are object-safe
//! per type; the builder's `restore_*` finishers layer configuration
//! validation on top (a snapshot taken under one configuration must not be
//! restored into a stack built with another — that surfaces as
//! [`SnapshotError::ConfigMismatch`] through
//! [`BuildError::Snapshot`](crate::pipeline::BuildError::Snapshot)).
//!
//! # Examples
//!
//! ```
//! use dpd_core::pipeline::DpdBuilder;
//! use dpd_core::snapshot::{Restore, Snapshot};
//! use dpd_core::streaming::StreamingDpd;
//!
//! let builder = DpdBuilder::new().window(8);
//! let mut dpd = builder.build_detector().unwrap();
//! for i in 0..40usize {
//!     dpd.push([10i64, 20, 30][i % 3]);
//! }
//! let bytes = dpd.snapshot();
//! let mut restored = builder.restore_detector(&bytes).unwrap();
//! assert_eq!(restored.locked_period(), dpd.locked_period());
//! // The restored detector continues the stream exactly where it left off.
//! assert_eq!(restored.push(10), dpd.push(10));
//! ```

use crate::metric::{EventMetric, L1Metric};
use crate::minima::MinimaPolicy;
use crate::predict::{ForecastingDpd, PredictConfig, Predictor};
use crate::shard::StreamTable;
use crate::streaming::{MultiScaleDpd, StreamingConfig, StreamingDpd};

/// Envelope version written by this build and the only version it reads.
pub const VERSION: u8 = 1;

/// Envelope tag: [`StreamingDpd<i64, EventMetric>`] (equation 2).
pub const TAG_DETECTOR: u8 = 1;
/// Envelope tag: [`StreamingDpd<f64, L1Metric>`] (equation 1).
pub const TAG_MAGNITUDE: u8 = 2;
/// Envelope tag: [`MultiScaleDpd`] bank.
pub const TAG_MULTI_SCALE: u8 = 3;
/// Envelope tag: [`ForecastingDpd`] bundle.
pub const TAG_FORECASTING: u8 = 4;
/// Envelope tag: the paper-faithful [`Dpd`](crate::capi::Dpd).
pub const TAG_CAPI: u8 = 5;
/// Envelope tag: a standalone [`Predictor`].
pub const TAG_PREDICTOR: u8 = 6;
/// Envelope tag: a keyed [`StreamTable`], legacy v1 body (pre-slab flat
/// layout). Retired: reserved, never written, and rejected on read.
pub const TAG_TABLE: u8 = 7;
/// Envelope tag: a whole multi-stream service (written by `par-runtime`'s
/// `MultiStreamDpd::checkpoint`; the body nests one [`TAG_TABLE_V2`] /
/// [`TAG_TABLE_V3`] envelope per shard).
pub const TAG_SERVICE: u8 = 8;
/// Envelope tag: a keyed [`StreamTable`], v2 body (slab store: budget and
/// cold-retention config, lifetime rollup strips, hot + cold tier
/// sections). The table body written when no standing-query engine is
/// attached; [`Restore`] for `StreamTable` negotiates it and
/// [`TAG_TABLE_V3`].
pub const TAG_TABLE_V2: u8 = 9;
/// Envelope tag: a keyed [`StreamTable`] with an attached standing-query
/// engine — the v2 body followed by the query section (specs, clock,
/// counters, per-stream facts, pending deltas; see [`crate::query`] and
/// docs/FORMAT.md §12). Written only when queries are attached, so
/// query-less checkpoints stay readable by older builds.
pub const TAG_TABLE_V3: u8 = 10;

/// Why a snapshot could not be restored.
///
/// `#[non_exhaustive]`: new diagnostics may be added without a major bump.
/// Every variant renders a lowercase, period-free
/// [`Display`](core::fmt::Display) message (asserted by a unit test).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot ended before the expected state did.
    Truncated,
    /// The envelope carries a version this build does not read.
    BadVersion(u8),
    /// The envelope tags a different type than the caller asked for.
    BadTag {
        /// The tag the caller expected.
        expected: u8,
        /// The tag the envelope carries.
        found: u8,
    },
    /// A field decoded to a value the state invariants reject.
    Malformed {
        /// Which field or invariant failed.
        what: &'static str,
    },
    /// The snapshot's embedded configuration does not match the
    /// configuration of the stack it is being restored into.
    ConfigMismatch {
        /// Which configuration aspect differs.
        what: &'static str,
    },
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "truncated snapshot"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {VERSION})"
                )
            }
            SnapshotError::BadTag { expected, found } => {
                write!(f, "snapshot tags type {found}, expected type {expected}")
            }
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot: {what}"),
            SnapshotError::ConfigMismatch { what } => {
                write!(f, "snapshot configuration mismatch: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serialize to the versioned snapshot envelope.
pub trait Snapshot {
    /// The full state of `self` as one self-describing byte envelope.
    fn snapshot(&self) -> Vec<u8>;
}

/// Deserialize from the versioned snapshot envelope.
pub trait Restore: Sized {
    /// Reconstruct the serialized state bit-exactly.
    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError>;
}

/// Append-only encoder for snapshot bodies.
///
/// The primitive vocabulary is deliberately small — varint `u64`, zigzag
/// `i64`, bit-exact `f64`, `bool`, length-prefixed bytes — so every layout
/// in `docs/FORMAT.md` §9 is expressible without ad-hoc encodings.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Empty writer (no envelope header; for nested bodies).
    pub fn new() -> Self {
        SnapshotWriter { buf: Vec::new() }
    }

    /// Writer primed with the `[VERSION][tag]` envelope header.
    pub fn envelope(tag: u8) -> Self {
        SnapshotWriter {
            buf: vec![VERSION, tag],
        }
    }

    /// Append one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append an LEB128 varint.
    pub fn u64(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Append a zigzag-encoded varint.
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Append the bit pattern of `v` as 8 little-endian bytes — bit-exact,
    /// NaN payloads and signed zeros included.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Finish, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based decoder over a snapshot body.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Reader over raw bytes (no envelope header; for nested bodies).
    pub fn new(data: &'a [u8]) -> Self {
        SnapshotReader { data, pos: 0 }
    }

    /// Reader positioned after a validated `[VERSION][tag]` header.
    pub fn envelope(data: &'a [u8], expected_tag: u8) -> Result<Self, SnapshotError> {
        if data.len() < 2 {
            return Err(SnapshotError::Truncated);
        }
        if data[0] != VERSION {
            return Err(SnapshotError::BadVersion(data[0]));
        }
        if data[1] != expected_tag {
            return Err(SnapshotError::BadTag {
                expected: expected_tag,
                found: data[1],
            });
        }
        Ok(SnapshotReader { data, pos: 2 })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Assert the body was consumed exactly.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Malformed {
                what: "trailing bytes after state",
            });
        }
        Ok(())
    }

    /// Read one raw byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        let b = *self.data.get(self.pos).ok_or(SnapshotError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read an LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift == 63 && b > 1 || shift > 63 {
                return Err(SnapshotError::Malformed {
                    what: "varint overflows 64 bits",
                });
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Read a zigzag-encoded varint.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Read an 8-byte little-endian `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        if self.remaining() < 8 {
            return Err(SnapshotError::Truncated);
        }
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.data[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Read a boolean byte (`0` or `1`; anything else is malformed).
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Malformed {
                what: "boolean byte is neither 0 nor 1",
            }),
        }
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.u64()? as usize;
        if self.remaining() < len {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Read a `u64` and reject values beyond `limit` (pre-allocation
    /// guard: a hostile length must not drive `Vec::with_capacity`).
    pub fn count(&mut self, limit: usize, what: &'static str) -> Result<usize, SnapshotError> {
        let n = self.u64()?;
        if n > limit as u64 {
            return Err(SnapshotError::Malformed { what });
        }
        Ok(n as usize)
    }
}

// ---------------------------------------------------------------------------
// Shared configuration layouts.

pub(crate) fn write_streaming_config(w: &mut SnapshotWriter, c: &StreamingConfig) {
    w.u64(c.window as u64);
    w.u64(c.m_max as u64);
    w.f64(c.policy.relative_threshold);
    w.f64(c.policy.absolute_threshold);
    w.bool(c.policy.strict);
    w.u64(c.policy.min_delay as u64);
    w.u64(c.confirm as u64);
    w.u64(c.lose as u64);
    w.u64(c.resync_interval);
}

pub(crate) fn read_streaming_config(
    r: &mut SnapshotReader<'_>,
) -> Result<StreamingConfig, SnapshotError> {
    Ok(StreamingConfig {
        window: r.u64()? as usize,
        m_max: r.u64()? as usize,
        policy: MinimaPolicy {
            relative_threshold: r.f64()?,
            absolute_threshold: r.f64()?,
            strict: r.bool()?,
            min_delay: r.u64()? as usize,
        },
        confirm: r.u64()? as usize,
        lose: r.u64()? as usize,
        resync_interval: r.u64()?,
    })
}

// ---------------------------------------------------------------------------
// Trait implementations over the per-module pub(crate) state hooks.

impl Snapshot for StreamingDpd<i64, EventMetric> {
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::envelope(TAG_DETECTOR);
        self.snapshot_state(&mut w, &|w, v| w.i64(v));
        w.into_bytes()
    }
}

impl Restore for StreamingDpd<i64, EventMetric> {
    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::envelope(bytes, TAG_DETECTOR)?;
        let dpd = StreamingDpd::restore_events(&mut r)?;
        r.finish()?;
        Ok(dpd)
    }
}

impl Snapshot for StreamingDpd<f64, L1Metric> {
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::envelope(TAG_MAGNITUDE);
        self.snapshot_state(&mut w, &|w, v| w.f64(v));
        w.into_bytes()
    }
}

impl Restore for StreamingDpd<f64, L1Metric> {
    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::envelope(bytes, TAG_MAGNITUDE)?;
        let dpd = StreamingDpd::restore_state(L1Metric, None, &mut r, &|r| r.f64())?;
        r.finish()?;
        Ok(dpd)
    }
}

impl Snapshot for MultiScaleDpd {
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::envelope(TAG_MULTI_SCALE);
        w.u64(self.scales().len() as u64);
        for scale in self.scales() {
            scale.snapshot_state(&mut w, &|w, v| w.i64(v));
        }
        w.into_bytes()
    }
}

impl Restore for MultiScaleDpd {
    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::envelope(bytes, TAG_MULTI_SCALE)?;
        let n = r.count(1 << 16, "implausible multi-scale bank size")?;
        if n == 0 {
            return Err(SnapshotError::Malformed {
                what: "multi-scale bank has no scales",
            });
        }
        let mut scales = Vec::with_capacity(n);
        for _ in 0..n {
            scales.push(StreamingDpd::restore_events(&mut r)?);
        }
        r.finish()?;
        Ok(MultiScaleDpd::from_scales(scales))
    }
}

impl Snapshot for Predictor {
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::envelope(TAG_PREDICTOR);
        self.snapshot_state(&mut w);
        w.into_bytes()
    }
}

impl Restore for Predictor {
    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::envelope(bytes, TAG_PREDICTOR)?;
        let p = Predictor::restore_state(&mut r)?;
        r.finish()?;
        Ok(p)
    }
}

impl Snapshot for ForecastingDpd {
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::envelope(TAG_FORECASTING);
        self.dpd().snapshot_state(&mut w, &|w, v| w.i64(v));
        self.predictor().snapshot_state(&mut w);
        w.into_bytes()
    }
}

impl Restore for ForecastingDpd {
    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::envelope(bytes, TAG_FORECASTING)?;
        let dpd = StreamingDpd::restore_events(&mut r)?;
        let predictor = Predictor::restore_state(&mut r)?;
        r.finish()?;
        Ok(ForecastingDpd::from_parts(dpd, predictor))
    }
}

impl Snapshot for crate::capi::Dpd {
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::envelope(TAG_CAPI);
        self.inner().snapshot_state(&mut w, &|w, v| w.i64(v));
        w.into_bytes()
    }
}

impl Restore for crate::capi::Dpd {
    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::envelope(bytes, TAG_CAPI)?;
        let dpd = StreamingDpd::restore_events(&mut r)?;
        r.finish()?;
        Ok(crate::capi::Dpd::from_detector(dpd))
    }
}

impl Snapshot for StreamTable {
    fn snapshot(&self) -> Vec<u8> {
        if self.has_queries() {
            let mut w = SnapshotWriter::envelope(TAG_TABLE_V3);
            self.snapshot_state_v3(&mut w);
            w.into_bytes()
        } else {
            let mut w = SnapshotWriter::envelope(TAG_TABLE_V2);
            self.snapshot_state(&mut w);
            w.into_bytes()
        }
    }
}

impl Restore for StreamTable {
    fn restore(bytes: &[u8]) -> Result<Self, SnapshotError> {
        // Version negotiation: the envelope tag selects the body layout.
        // TAG_TABLE_V3 carries a standing-query engine after the v2 body;
        // anything else must be the v2 body. A wrong tag (the retired v1
        // TAG_TABLE included) surfaces as the usual typed `BadTag`
        // (expecting v2) — never a panic.
        let tag = (bytes.len() >= 2 && bytes[0] == VERSION).then(|| bytes[1]);
        let table = if tag == Some(TAG_TABLE_V3) {
            let mut r = SnapshotReader::envelope(bytes, TAG_TABLE_V3)?;
            let table = StreamTable::restore_state_v3(&mut r)?;
            r.finish()?;
            table
        } else {
            let mut r = SnapshotReader::envelope(bytes, TAG_TABLE_V2)?;
            let table = StreamTable::restore_state(&mut r)?;
            r.finish()?;
            table
        };
        Ok(table)
    }
}

// ---------------------------------------------------------------------------
// Shared predictor-config layout (used by the per-module hooks).

pub(crate) fn write_predict_config(w: &mut SnapshotWriter, c: &PredictConfig) {
    w.u64(c.window as u64);
    w.u64(c.horizon as u64);
}

pub(crate) fn read_predict_config(
    r: &mut SnapshotReader<'_>,
) -> Result<PredictConfig, SnapshotError> {
    let window = r.u64()? as usize;
    let horizon = r.u64()? as usize;
    PredictConfig::new(window, horizon).map_err(|_| SnapshotError::Malformed {
        what: "predictor configuration fails validation",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DpdBuilder;
    use crate::shard::StreamId;

    #[test]
    fn writer_reader_primitives_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.u8(7);
        w.u64(0);
        w.u64(u64::MAX);
        w.i64(i64::MIN);
        w.i64(-1);
        w.i64(i64::MAX);
        w.f64(f64::NAN);
        w.f64(-0.0);
        w.f64(1.0 / 3.0);
        w.bool(true);
        w.bool(false);
        w.bytes(b"pile");
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 0);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.i64().unwrap(), -1);
        assert_eq!(r.i64().unwrap(), i64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), 1.0 / 3.0);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"pile");
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_hostile_input() {
        assert_eq!(
            SnapshotReader::new(&[]).u8().unwrap_err(),
            SnapshotError::Truncated
        );
        // 10-byte varint overflowing 64 bits.
        let overflow = [0xffu8; 10];
        assert!(matches!(
            SnapshotReader::new(&overflow).u64().unwrap_err(),
            SnapshotError::Malformed { .. }
        ));
        // Length prefix beyond the buffer.
        let mut w = SnapshotWriter::new();
        w.u64(1_000_000);
        let bytes = w.into_bytes();
        assert_eq!(
            SnapshotReader::new(&bytes).bytes().unwrap_err(),
            SnapshotError::Truncated
        );
        // Bad boolean byte.
        assert!(matches!(
            SnapshotReader::new(&[2]).bool().unwrap_err(),
            SnapshotError::Malformed { .. }
        ));
    }

    #[test]
    fn envelope_validation() {
        let w = SnapshotWriter::envelope(TAG_DETECTOR);
        let bytes = w.into_bytes();
        assert!(SnapshotReader::envelope(&bytes, TAG_DETECTOR).is_ok());
        assert_eq!(
            SnapshotReader::envelope(&bytes, TAG_TABLE).unwrap_err(),
            SnapshotError::BadTag {
                expected: TAG_TABLE,
                found: TAG_DETECTOR,
            }
        );
        assert_eq!(
            SnapshotReader::envelope(&[9, TAG_DETECTOR], TAG_DETECTOR).unwrap_err(),
            SnapshotError::BadVersion(9)
        );
        assert_eq!(
            SnapshotReader::envelope(&[VERSION], TAG_DETECTOR).unwrap_err(),
            SnapshotError::Truncated
        );
    }

    /// Drive a detector and its restored copy in lockstep: every future
    /// event and all statistics must be identical.
    #[test]
    fn detector_roundtrip_continues_bit_identically() {
        let builder = DpdBuilder::new().window(8);
        let mut dpd = builder.build_detector().unwrap();
        // Leave the detector mid-period, locked, with loss history.
        let mut data: Vec<i64> = (0..50).map(|i| [1, 2, 3][i % 3]).collect();
        data.extend((0..37).map(|i| [5, 6, 7, 8, 9][i % 5]));
        for &s in &data {
            dpd.push(s);
        }
        let mut restored = builder.restore_detector(&dpd.snapshot()).unwrap();
        assert_eq!(restored.stats(), dpd.stats());
        assert_eq!(restored.locked_period(), dpd.locked_period());
        for i in 0..60usize {
            let s = [5i64, 6, 7, 8, 9][i % 5];
            assert_eq!(restored.push(s), dpd.push(s), "diverged at sample {i}");
        }
        assert_eq!(restored.stats(), dpd.stats());
    }

    #[test]
    fn magnitude_roundtrip_preserves_float_sums_bit_exactly() {
        let builder = DpdBuilder::new().window(16).magnitudes();
        let mut dpd = builder.build_magnitude_detector().unwrap();
        for i in 0..333usize {
            let v = [0.0, 2.0, 8.0, 16.0, 8.0, 2.0][i % 6] + ((i * 7919) % 11) as f64 * 0.02;
            dpd.push(v);
        }
        let mut restored = builder.restore_magnitude_detector(&dpd.snapshot()).unwrap();
        // Spectra must match bit-for-bit: the snapshot carries the raw
        // incrementally-maintained sums, not a resync approximation.
        let a = dpd.spectrum();
        let b = restored.spectrum();
        for (x, y) in a.values().iter().zip(b.values().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for i in 0..100usize {
            let v = [0.0, 2.0, 8.0, 16.0, 8.0, 2.0][i % 6];
            assert_eq!(restored.push(v), dpd.push(v));
        }
    }

    #[test]
    fn multi_scale_roundtrip() {
        let builder = DpdBuilder::new().scales(&[8, 64]);
        let mut bank = builder.build_multi_scale().unwrap();
        let mut outer: Vec<i64> = Vec::new();
        for _ in 0..8 {
            outer.extend([1i64, 2, 3, 4]);
        }
        outer.extend(101..109);
        for i in 0..300usize {
            bank.push(outer[i % 40]);
        }
        let mut restored = builder.restore_multi_scale(&bank.snapshot()).unwrap();
        assert_eq!(restored.detected_periods(), bank.detected_periods());
        for i in 300..500usize {
            assert_eq!(restored.push(outer[i % 40]), bank.push(outer[i % 40]));
        }
    }

    #[test]
    fn forecasting_roundtrip_preserves_pending_and_stats() {
        let builder = DpdBuilder::new().window(8).forecast(3);
        let mut f = builder.build_forecasting().unwrap();
        for i in 0..47usize {
            f.push([10i64, 20, 30][i % 3]);
        }
        let mut restored = builder.restore_forecasting(&f.snapshot()).unwrap();
        let a = f.predictor().stats();
        let b = restored.predictor().stats();
        assert_eq!(a.issued, b.issued);
        assert_eq!(a.abs_err_sum.to_bits(), b.abs_err_sum.to_bits());
        assert_eq!(a.ape_sum.to_bits(), b.ape_sum.to_bits());
        assert_eq!(
            f.predictor().confidence().to_bits(),
            restored.predictor().confidence().to_bits()
        );
        // Outstanding predictions survive: the restored bundle scores the
        // same pending forecasts the original would have.
        for i in 47..120usize {
            let s = [10i64, 20, 30][i % 3];
            assert_eq!(restored.push(s), f.push(s), "diverged at sample {i}");
        }
        assert_eq!(
            f.forecast(3).map(|fc| fc.predicted.to_vec()),
            restored.forecast(3).map(|fc| fc.predicted.to_vec())
        );
    }

    #[test]
    fn capi_roundtrip() {
        let builder = DpdBuilder::new().window(16);
        let mut dpd = builder.build_capi().unwrap();
        let mut period = 0i32;
        for i in 0..90usize {
            dpd.dpd([4i64, 5, 6][i % 3], &mut period);
        }
        let mut restored = builder.restore_capi(&dpd.snapshot()).unwrap();
        for i in 90..150usize {
            let mut p1 = 0i32;
            let mut p2 = 0i32;
            let s = [4i64, 5, 6][i % 3];
            assert_eq!(restored.dpd(s, &mut p2), dpd.dpd(s, &mut p1));
            assert_eq!(p1, p2);
        }
    }

    #[test]
    fn table_roundtrip_with_forecasting_and_eviction() {
        let builder = DpdBuilder::new().window(8).evict_after(64).forecast(2);
        let mut table = builder.build_table().unwrap();
        let mut out = Vec::new();
        let mut seq = 0u64;
        for round in 0..20u64 {
            for s in 0..3u64 {
                let chunk: Vec<i64> = (0..6).map(|i| ((round * 6 + i) % (s + 2)) as i64).collect();
                table.ingest(seq, StreamId(s), &chunk, &mut out);
                seq += 6;
            }
        }
        let mut restored = builder.restore_table(&table.snapshot()).unwrap();
        assert_eq!(restored.stats(), table.stats());
        let mut ids_a: Vec<_> = restored.stream_ids().collect();
        let mut ids_b: Vec<_> = table.stream_ids().collect();
        ids_a.sort_unstable_by_key(|s| s.0);
        ids_b.sort_unstable_by_key(|s| s.0);
        assert_eq!(ids_a, ids_b);
        // Continue both and compare per-stream event sequences.
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for round in 20..35u64 {
            for s in 0..3u64 {
                let chunk: Vec<i64> = (0..6).map(|i| ((round * 6 + i) % (s + 2)) as i64).collect();
                table.ingest(seq, StreamId(s), &chunk, &mut out_a);
                restored.ingest(seq, StreamId(s), &chunk, &mut out_b);
                seq += 6;
            }
        }
        table.close_all(seq, &mut out_a);
        restored.close_all(seq, &mut out_b);
        assert_eq!(out_a, out_b);
        assert_eq!(restored.stats(), table.stats());
        // The retired v1 tag is rejected, with or without a body.
        let mut v1 = table.snapshot();
        v1[1] = TAG_TABLE;
        for bytes in [&v1[..], &v1[..2]] {
            assert_eq!(
                StreamTable::restore(bytes).unwrap_err(),
                SnapshotError::BadTag {
                    expected: TAG_TABLE_V2,
                    found: TAG_TABLE,
                }
            );
        }
    }

    #[test]
    fn restore_validates_config_against_builder() {
        let builder = DpdBuilder::new().window(8);
        let dpd = builder.build_detector().unwrap();
        let bytes = dpd.snapshot();
        // Same builder restores fine; a different window must be rejected.
        assert!(builder.restore_detector(&bytes).is_ok());
        let err = DpdBuilder::new()
            .window(16)
            .restore_detector(&bytes)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::pipeline::BuildError::Snapshot(SnapshotError::ConfigMismatch { .. })
        ));
        // Wrong type tag is caught before any state decoding.
        let err = DpdBuilder::new()
            .window(8)
            .restore_table(&bytes)
            .unwrap_err();
        assert!(matches!(
            err,
            crate::pipeline::BuildError::Snapshot(SnapshotError::BadTag { .. })
        ));
    }

    #[test]
    fn truncated_snapshots_error_not_panic() {
        let builder = DpdBuilder::new().window(8).forecast(2);
        let mut f = builder.build_forecasting().unwrap();
        for i in 0..40usize {
            f.push([1i64, 2, 3][i % 3]);
        }
        let bytes = f.snapshot();
        for cut in 0..bytes.len() {
            assert!(
                ForecastingDpd::restore(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes restored successfully"
            );
        }
    }

    /// Satellite idiom: every `SnapshotError` variant renders a lowercase,
    /// period-free message.
    #[test]
    fn every_snapshot_error_variant_renders() {
        let variants = vec![
            SnapshotError::Truncated,
            SnapshotError::BadVersion(9),
            SnapshotError::BadTag {
                expected: 1,
                found: 7,
            },
            SnapshotError::Malformed { what: "test field" },
            SnapshotError::ConfigMismatch {
                what: "test aspect",
            },
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
            assert!(err.source().is_none());
        }
    }
}
