//! Deterministic binary codec for crash-recovery state.
//!
//! Checkpoints and decision-log records (DESIGN.md §8) must be bit-stable
//! across runs, platforms, and rebuilds, which rules out anything that
//! depends on a serializer's field ordering, float formatting, or hash-map
//! iteration. This module provides the primitive layer: a little-endian
//! [`BinWriter`]/[`BinReader`] pair where every `f64` crosses as its exact
//! IEEE-754 bit pattern, plus the [`crc32`] (IEEE, reflected) used both for
//! whole-checkpoint integrity and per-record torn-tail detection.
//!
//! On top of the primitives sit the two persistence mechanisms every durable
//! artefact in the workspace uses, each implemented exactly once:
//!
//! * the **envelope** — [`seal`] / [`open`]: `[magic][version][body][crc32]`,
//!   the frame of the simulator's `Checkpoint` and the service's
//!   `RegionCheckpoint`;
//! * the **journal** — [`Journal<R>`]: an append-only run of
//!   `[len][crc32][payload]` frames whose torn or corrupted tail is
//!   truncated at the first bad frame, never replayed. The simulator's
//!   `DecisionLog` and the service's `RegionWal` are `Journal`s over their
//!   own [`Record`] types.
//!
//! Decoding never panics: every read is bounds-checked and surfaces a
//! [`CodecError`], because the primary consumer is crash recovery — the one
//! code path that must survive arbitrarily truncated or corrupted input.

use std::fmt;
use std::marker::PhantomData;

/// Structured decode failure. Recovery code matches on this to distinguish
/// a torn tail (truncation) from real corruption (checksum mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before a fixed-width field or declared payload.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// Leading magic bytes did not match the expected format tag.
    BadMagic {
        /// Magic found in the input.
        found: u32,
        /// Magic the decoder expected.
        expected: u32,
    },
    /// Format version not understood by this build.
    BadVersion(u32),
    /// CRC-32 over the payload did not match the stored digest.
    BadChecksum {
        /// Digest stored in the input.
        stored: u32,
        /// Digest computed over the payload.
        computed: u32,
    },
    /// Structurally valid bytes encoding an impossible value.
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated input: needed {needed} bytes, have {have}")
            }
            CodecError::BadMagic { found, expected } => {
                write!(f, "bad magic {found:#010x} (expected {expected:#010x})")
            }
            CodecError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            CodecError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Reflected CRC-32 polynomial (IEEE 802.3).
const CRC_POLY: u32 = 0xEDB8_8320;

/// One bit-at-a-time step of the CRC register over an already-folded byte.
const fn crc_bits(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
        bit += 1;
    }
    crc
}

/// `CRC_TABLES[0][b]` is the register after folding byte `b`; `[k][b]` the
/// same byte followed by `k` zero bytes (slicing-by-8), so eight input bytes
/// cost eight independent lookups instead of eight dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        t[0][b] = crc_bits(b as u32);
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), table-driven.
/// The tables are built at compile time by a `const fn`, so there is no
/// initialization order to get wrong; the unit tests hold them to the
/// bit-at-a-time definition.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let lane = |k: usize, v: u32| CRC_TABLES[k][(v & 0xFF) as usize];
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = lane(7, lo)
            ^ lane(6, lo >> 8)
            ^ lane(5, lo >> 16)
            ^ lane(4, lo >> 24)
            ^ lane(3, hi)
            ^ lane(2, hi >> 8)
            ^ lane(1, hi >> 16)
            ^ lane(0, hi >> 24);
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ lane(0, crc ^ u32::from(b));
    }
    !crc
}

/// Little-endian binary writer over a growable buffer.
#[derive(Debug, Default, Clone)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    /// Empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the encoded bytes (e.g. to checksum before appending it).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u128`, little-endian (RNG word positions).
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` so the encoding is identical on 32- and
    /// 64-bit hosts.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its exact IEEE-754 bit pattern (no formatting,
    /// no rounding — `NaN` payloads and `-0.0` round-trip untouched).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a `bool` as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append raw bytes with no length prefix (for fixed-width fields the
    /// reader knows to expect, e.g. a 32-byte RNG seed).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed `u32` sequence.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Append a length-prefixed `f64` sequence (bit patterns).
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Append a length-prefixed `bool` sequence.
    pub fn put_bool_slice(&mut self, v: &[bool]) {
        self.put_usize(v.len());
        for &x in v {
            self.put_bool(x);
        }
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Absolute cap on the element count a single length prefix may claim,
/// whatever the input size (see [`BinReader::seq_len`]).
const MAX_SEQ_LEN: usize = 1 << 24;

impl<'a> BinReader<'a> {
    /// Reader positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True when every byte has been consumed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Assert the value just decoded used up the whole input.
    ///
    /// # Errors
    /// [`CodecError::Malformed`] when bytes are left over: a record or
    /// image longer than its decoder is misframed, not a newer minor.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }

    /// Consume exactly `n` bytes, returning the slice.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CodecError::Malformed("length overflow"))?;
        let slice = self.buf.get(self.pos..end).ok_or(CodecError::Truncated {
            needed: n,
            have: self.remaining(),
        })?;
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] at end of input.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        let s = self.take(1)?;
        s.first()
            .copied()
            .ok_or(CodecError::Malformed("empty take"))
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when fewer than 4 bytes remain.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        let arr: [u8; 4] = s
            .try_into()
            .map_err(|_| CodecError::Malformed("u32 width"))?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when fewer than 8 bytes remain.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8)?;
        let arr: [u8; 8] = s
            .try_into()
            .map_err(|_| CodecError::Malformed("u64 width"))?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Read a little-endian `u128`.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when fewer than 16 bytes remain.
    pub fn get_u128(&mut self) -> Result<u128, CodecError> {
        let s = self.take(16)?;
        let arr: [u8; 16] = s
            .try_into()
            .map_err(|_| CodecError::Malformed("u128 width"))?;
        Ok(u128::from_le_bytes(arr))
    }

    /// Read a `usize` (stored as `u64`).
    ///
    /// # Errors
    /// [`CodecError::Truncated`] on short input; [`CodecError::Malformed`]
    /// when the stored value does not fit this host's `usize`.
    pub fn get_usize(&mut self) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| CodecError::Malformed("usize out of range"))
    }

    /// Read an `f64` from its stored bit pattern.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when fewer than 8 bytes remain.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a `bool` (rejecting any byte other than 0/1, which would signal
    /// a misframed record rather than a legitimate value).
    ///
    /// # Errors
    /// [`CodecError::Truncated`] at end of input; [`CodecError::Malformed`]
    /// for bytes other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("bool byte")),
        }
    }

    /// Read a length-prefixed byte string.
    ///
    /// # Errors
    /// Truncation or an implausible length prefix.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// Read a length-prefixed `u32` sequence.
    ///
    /// # Errors
    /// Truncation or an implausible length prefix.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.seq_len(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u32()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed `f64` sequence.
    ///
    /// # Errors
    /// Truncation or an implausible length prefix.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.seq_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f64()?);
        }
        Ok(out)
    }

    /// Read a length-prefixed `bool` sequence.
    ///
    /// # Errors
    /// Truncation, an implausible length prefix, or a non-0/1 byte.
    pub fn get_bool_vec(&mut self) -> Result<Vec<bool>, CodecError> {
        let n = self.seq_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_bool()?);
        }
        Ok(out)
    }

    /// Read the length prefix of a sequence whose elements each occupy at
    /// least `elem_bytes` encoded bytes. This is the only place a length
    /// comes off the wire: the count is capped by what the unread input can
    /// hold, so the `Vec::with_capacity` a caller sizes from it never
    /// reserves more than the input's own length.
    ///
    /// # Errors
    /// [`CodecError::Truncated`] when the claimed elements cannot fit in the
    /// remaining bytes; [`CodecError::Malformed`] over the absolute cap.
    pub fn seq_len(&mut self, elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.get_usize()?;
        if n > MAX_SEQ_LEN {
            return Err(CodecError::Malformed("sequence length implausible"));
        }
        if n > self.remaining() / elem_bytes.max(1) {
            return Err(CodecError::Truncated {
                needed: n.saturating_mul(elem_bytes),
                have: self.remaining(),
            });
        }
        Ok(n)
    }
}

/// Bytes an envelope adds around its body: magic, version, trailing CRC.
const ENVELOPE_BYTES: usize = 12;

/// Seal a versioned image: `[magic][version][body…][crc32]`, the CRC taken
/// over everything before it. `body` appends the payload fields.
#[must_use]
pub fn seal(magic: u32, version: u32, body: impl FnOnce(&mut BinWriter)) -> Vec<u8> {
    let mut w = BinWriter::new();
    w.put_u32(magic);
    w.put_u32(version);
    body(&mut w);
    let crc = crc32(w.as_bytes());
    w.put_u32(crc);
    w.into_bytes()
}

/// Open an image written by [`seal`] and return a reader over its body.
/// Checked in this order: length, trailing CRC, magic, version — so random
/// damage reads as a checksum failure and only an intact image of another
/// kind or another build reads as `BadMagic` / `BadVersion`. The caller
/// decodes the body and ends with [`BinReader::finish`].
///
/// # Errors
/// [`CodecError::Truncated`] under 12 bytes (magic, version, CRC),
/// [`CodecError::BadChecksum`], [`CodecError::BadMagic`],
/// [`CodecError::BadVersion`].
pub fn open(bytes: &[u8], magic: u32, version: u32) -> Result<BinReader<'_>, CodecError> {
    if bytes.len() < ENVELOPE_BYTES {
        return Err(CodecError::Truncated {
            needed: ENVELOPE_BYTES,
            have: bytes.len(),
        });
    }
    let (sealed, tail) = bytes.split_at(bytes.len() - 4);
    let stored = BinReader::new(tail).get_u32()?;
    let computed = crc32(sealed);
    if stored != computed {
        return Err(CodecError::BadChecksum { stored, computed });
    }
    let mut r = BinReader::new(sealed);
    let found = r.get_u32()?;
    if found != magic {
        return Err(CodecError::BadMagic {
            found,
            expected: magic,
        });
    }
    let found = r.get_u32()?;
    if found != version {
        return Err(CodecError::BadVersion(found));
    }
    Ok(r)
}

/// A value a [`Journal`] can hold: one frame's payload.
pub trait Record: Sized {
    /// Append the record's fields to `w`.
    fn encode(&self, w: &mut BinWriter);

    /// Decode one record. The journal checks that the payload is used up.
    ///
    /// # Errors
    /// [`CodecError`] on truncation or an impossible value.
    fn decode(r: &mut BinReader<'_>) -> Result<Self, CodecError>;
}

/// Why [`Journal::from_bytes`] stopped before the end of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornTailReason {
    /// The tail is shorter than its frame header or declared payload —
    /// the classic torn write ([`TornTail::PartialRecord`]).
    TruncatedFrame,
    /// A complete frame whose payload fails its CRC ([`TornTail::Garbage`]).
    ChecksumMismatch,
    /// A CRC-valid payload that does not decode to a record. No crash can
    /// write one, so no [`TornTail`] reaches it: only a bit-flip sweep of
    /// stored bytes does (`tests/persistence.rs`).
    MalformedRecord,
}

/// What the torn-tail scan found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailReport {
    /// Records recovered cleanly.
    pub clean_records: usize,
    /// Bytes discarded from the tail.
    pub truncated_bytes: usize,
    /// Why the scan stopped (`None`: the log was fully clean).
    pub reason: Option<TornTailReason>,
}

/// How a crash leaves a [`Journal`]'s durable bytes between the kill and
/// the recovery: the one crash model for a journal's tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornTail {
    /// The log survived intact.
    Clean,
    /// A dying writer appended garbage after the last complete frame.
    Garbage,
    /// The crash cut the last frame short.
    PartialRecord,
}

impl TornTail {
    /// Apply this crash to `bytes`. [`Garbage`](Self::Garbage) appends one
    /// complete 13-byte frame: a header declaring a 5-byte payload, then 5
    /// xorshift bytes seeded by `seed`, under a CRC that xorshift bits
    /// always make wrong, so the scan stops at the checksum. The
    /// [`PartialRecord`](Self::PartialRecord) crash cuts the last 5 bytes.
    pub fn mangle(self, bytes: &mut Vec<u8>, seed: u64) {
        match self {
            TornTail::Clean => {}
            TornTail::Garbage => {
                let mut x = seed | 1;
                let mut xorshift = || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let payload: [u8; 5] = std::array::from_fn(|_| xorshift() as u8);
                let crc = crc32(&payload) ^ (xorshift() as u32 | 1);
                bytes.extend(5u32.to_le_bytes());
                bytes.extend(crc.to_le_bytes());
                bytes.extend(payload);
            }
            TornTail::PartialRecord => {
                let cut = bytes.len().saturating_sub(5);
                bytes.truncate(cut);
            }
        }
    }
}

/// Read one `[u32 len][u32 crc32][payload]` frame off the front of `r`.
fn read_frame<'a>(r: &mut BinReader<'a>) -> Result<&'a [u8], CodecError> {
    let len = r.get_u32()? as usize;
    let stored = r.get_u32()?;
    let payload = r.take(len)?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(CodecError::BadChecksum { stored, computed });
    }
    Ok(payload)
}

/// The one frame walker: yields each frame's payload, with the offset the
/// frame ends at, front to back, and ends after the first frame that is short
/// or fails its checksum. Both the torn-tail scan and the strict read are
/// folds over it.
fn frames(bytes: &[u8]) -> impl Iterator<Item = Result<(&[u8], usize), CodecError>> {
    let mut r = BinReader::new(bytes);
    std::iter::from_fn(move || {
        if r.is_done() {
            return None;
        }
        let frame = read_frame(&mut r).map(|payload| (payload, bytes.len() - r.remaining()));
        if frame.is_err() {
            // Nothing after a bad frame can be trusted: end the walk.
            r = BinReader::new(&[]);
        }
        Some(frame)
    })
}

fn decode_payload<R: Record>(payload: &[u8]) -> Result<R, CodecError> {
    let mut r = BinReader::new(payload);
    let record = R::decode(&mut r)?;
    r.finish()?;
    Ok(record)
}

/// Append-only write-ahead log of `R` records. Each record is framed
/// `[u32 payload_len][u32 crc32(payload)][payload]`, so a torn tail is
/// detected — and truncated, never replayed — at the first frame whose
/// length, checksum or payload fails. A torn tail means the same thing to
/// every log in the workspace because this is the only one.
#[derive(Debug, Clone)]
pub struct Journal<R> {
    buf: BinWriter,
    record: PhantomData<R>,
}

impl<R> Default for Journal<R> {
    fn default() -> Self {
        Self {
            buf: BinWriter::new(),
            record: PhantomData,
        }
    }
}

impl<R: Record> Journal<R> {
    /// Empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Serialized size in bytes.
    #[must_use]
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Append one framed record.
    pub fn append(&mut self, record: &R) {
        let mut payload = BinWriter::new();
        record.encode(&mut payload);
        let payload = payload.as_bytes();
        self.buf.put_u32(payload.len() as u32);
        self.buf.put_u32(crc32(payload));
        self.buf.put_raw(payload);
    }

    /// The raw wire bytes (what a durable log file would contain).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        self.buf.as_bytes()
    }

    /// Consume into the raw wire bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.into_bytes()
    }

    /// Rebuild from wire bytes, truncating a torn or corrupted tail at
    /// the first bad frame. The returned log contains only the clean
    /// prefix; the report says how much was cut and why.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> (Self, TailReport) {
        let mut clean_records = 0;
        let mut clean_end = 0;
        let mut reason = None;
        for frame in frames(bytes) {
            reason = Some(match frame {
                Ok((payload, end)) if decode_payload::<R>(payload).is_ok() => {
                    clean_records += 1;
                    clean_end = end;
                    continue;
                }
                Ok(_) => TornTailReason::MalformedRecord,
                Err(CodecError::BadChecksum { .. }) => TornTailReason::ChecksumMismatch,
                Err(_) => TornTailReason::TruncatedFrame,
            });
            break;
        }
        let mut buf = BinWriter::new();
        buf.put_raw(bytes.get(..clean_end).unwrap_or_default());
        let log = Self {
            buf,
            record: PhantomData,
        };
        let report = TailReport {
            clean_records,
            truncated_bytes: bytes.len() - clean_end,
            reason,
        };
        (log, report)
    }

    /// Decode every record in the (clean) log.
    ///
    /// # Errors
    /// [`CodecError`] if the buffer holds a bad frame — impossible for
    /// logs built by [`append`](Self::append) or returned from
    /// [`from_bytes`](Self::from_bytes).
    pub fn records(&self) -> Result<Vec<R>, CodecError> {
        frames(self.as_bytes())
            .map(|frame| decode_payload(frame?.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socl_net::rng::ChaCha12Rng;

    #[test]
    fn primitives_roundtrip_bit_exactly() {
        let mut w = BinWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(u128::MAX >> 3);
        w.put_usize(123_456);
        w.put_f64(-0.0);
        w.put_f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN with payload
        w.put_bool(true);
        w.put_bytes(b"checkpoint");
        w.put_u32_slice(&[1, 2, 3]);
        w.put_f64_slice(&[1.5, -2.25]);
        w.put_bool_slice(&[true, false, true]);

        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_u128().unwrap(), u128::MAX >> 3);
        assert_eq!(r.get_usize().unwrap(), 123_456);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_bytes().unwrap(), b"checkpoint");
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, 2, 3]);
        let fs = r.get_f64_vec().unwrap();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].to_bits(), 1.5f64.to_bits());
        assert_eq!(fs[1].to_bits(), (-2.25f64).to_bits());
        assert_eq!(r.get_bool_vec().unwrap(), vec![true, false, true]);
        assert!(r.is_done());
    }

    #[test]
    fn truncation_is_reported_not_panicked() {
        let mut w = BinWriter::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes[..5]);
        match r.get_u64() {
            Err(CodecError::Truncated { needed: 8, have: 5 }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn bool_rejects_garbage_bytes() {
        let mut r = BinReader::new(&[2]);
        assert_eq!(r.get_bool(), Err(CodecError::Malformed("bool byte")));
    }

    #[test]
    fn implausible_sequence_length_is_rejected() {
        let mut w = BinWriter::new();
        w.put_usize(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = BinReader::new(&bytes);
        assert!(matches!(r.get_u32_vec(), Err(CodecError::Malformed(_))));
    }

    /// The definition `crc32` is held to: one bit at a time, no table.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        !bytes
            .iter()
            .fold(!0, |crc, &b| crc_bits(crc ^ u32::from(b)))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // A single flipped bit changes the digest.
        assert_ne!(crc32(b"checkpoint"), crc32(b"chedkpoint"));
        // Every length 0..=4096 (all eight alignments of the sliced loop's
        // remainder) over seeded random bytes.
        let mut rng = ChaCha12Rng::seed_from_u64(0xC4C);
        let mut buf = vec![0u8; 4096];
        rng.fill_bytes(&mut buf);
        for len in 0..=buf.len() {
            assert_eq!(crc32(&buf[..len]), crc32_bitwise(&buf[..len]), "len {len}");
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let encode = || {
            let mut w = BinWriter::new();
            w.put_f64(std::f64::consts::PI);
            w.put_u32_slice(&[9, 8, 7]);
            w.into_bytes()
        };
        assert_eq!(encode(), encode());
        assert_eq!(crc32(&encode()), crc32(&encode()));
    }
}
