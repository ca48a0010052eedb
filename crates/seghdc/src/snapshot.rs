//! Versioned, checksummed on-disk persistence for built codebooks.
//!
//! Every codebook is a pure function of its [`CodebookKey`] (seed, config
//! parameters, image shape), so a built encoder is a cacheable artifact
//! that can outlive the process that derived it. This module serializes
//! [`CodebookCache`](crate::CodebookCache) contents to a single flat file,
//! and restores them bit-identically: a process that
//! [`load_snapshot`](crate::CodebookCache::load_snapshot)s at startup
//! serves its first request from a warm cache instead of re-deriving the
//! codebooks from seed.
//!
//! # Format (`SGSN`, version 1)
//!
//! The framing discipline mirrors the server's wire codec: magic bytes, a
//! version, little-endian fixed-width integers, every declared count
//! validated against both a hard cap **and the remaining input length
//! before any allocation**, and an FNV-1a-64 checksum trailer over every
//! preceding byte.
//!
//! | Field | Bytes | Meaning |
//! |---|---|---|
//! | magic | 4 | `b"SGSN"` |
//! | version | 2 | format version (currently 1) |
//! | codebooks | 4 | number of codebook sections |
//! | centroid sets | 4 | always 0; a non-zero count is refused |
//! | codebook sections | … | [`CodebookKey`] + row/column + colour codebook words |
//! | checksum | 8 | FNV-1a-64 of everything above |
//!
//! Inside a codebook section the key's fields come first (seed, dimension,
//! shape, α bits, β, γ, encoding variants), then the position codebook
//! (flip units, `height` row vectors, `width` column vectors, each
//! `⌈d/64⌉` packed words) and the colour codebook (flip unit, one
//! 256-entry chunk codebook per channel; the full-dimension *placed* codes
//! are rebuilt on load — a deterministic bit shift, so they are not
//! stored). The centroid-set count is a version-1 header field the
//! codebook cache never filled: it stays in the header, always 0, so every
//! file [`save_snapshot`](crate::CodebookCache::save_snapshot) has written
//! keeps loading, and a file that declares centroid sets is refused.
//!
//! Corrupt input — truncation, flipped bytes, oversized declared lengths,
//! unknown versions — yields a typed [`SnapshotError`], never a panic and
//! never an allocation larger than the input itself.

use crate::cache::CodebookKey;
use crate::{ColorEncoder, ColorEncoding, PixelEncoder, PositionEncoder, PositionEncoding};
use hdc::BinaryHypervector;
use std::path::Path;
use std::sync::Arc;

/// Leading magic bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SGSN";

/// The format version this build writes and the only one it reads.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Default cap on the total snapshot size [`Snapshot::load`] will read
/// into memory (checked against file metadata before the read).
pub const DEFAULT_MAX_SNAPSHOT_BYTES: u64 = 1 << 30;

/// Largest accepted hypervector dimension (bits). 2 MiB of packed words
/// per vector — far above any configuration the engine accepts, low
/// enough that a corrupt length field cannot demand an absurd allocation.
const MAX_DIMENSION: u64 = 1 << 24;

/// Largest accepted image axis (rows or columns of position codes).
const MAX_AXIS: u64 = 1 << 20;

/// Largest accepted codebook section count.
const MAX_SECTIONS: u64 = 1 << 16;

/// Typed failure of snapshot encoding, decoding, or file I/O.
///
/// Decoding is total: any byte sequence maps to either a [`Snapshot`] or
/// one of these variants — corruption can never panic, and declared
/// lengths are validated against caps and the remaining input before any
/// allocation happens.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file does not begin with [`SNAPSHOT_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The header declares a version this build does not understand.
    UnsupportedVersion(u16),
    /// The input ended before `field` could be read.
    Truncated {
        /// Which field the decoder was reading.
        field: &'static str,
    },
    /// A declared length exceeds its cap or the remaining input.
    LengthCap {
        /// Which field declared the length.
        field: &'static str,
        /// The declared value.
        len: u64,
        /// The largest acceptable value.
        cap: u64,
    },
    /// The checksum trailer does not match the preceding bytes.
    ChecksumMismatch,
    /// Decoding finished with unconsumed bytes before the checksum.
    TrailingBytes(usize),
    /// A field decoded but its value is structurally invalid.
    InvalidField {
        /// Which field is invalid.
        field: &'static str,
        /// Why.
        message: String,
    },
    /// The file is larger than the configured load cap.
    FileTooLarge {
        /// The file's size in bytes.
        len: u64,
        /// The configured cap.
        max: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot i/o error: {err}"),
            SnapshotError::BadMagic { found } => {
                write!(
                    f,
                    "bad snapshot magic {found:?}, expected {SNAPSHOT_MAGIC:?}"
                )
            }
            SnapshotError::UnsupportedVersion(version) => {
                write!(f, "unsupported snapshot version {version}")
            }
            SnapshotError::Truncated { field } => {
                write!(f, "snapshot truncated while reading {field}")
            }
            SnapshotError::LengthCap { field, len, cap } => {
                write!(
                    f,
                    "snapshot field {field} declares length {len} over cap {cap}"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::TrailingBytes(count) => {
                write!(f, "{count} trailing bytes after the last snapshot section")
            }
            SnapshotError::InvalidField { field, message } => {
                write!(f, "invalid snapshot field {field}: {message}")
            }
            SnapshotError::FileTooLarge { len, max } => {
                write!(
                    f,
                    "snapshot file is {len} bytes, over the {max}-byte load cap"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(err: std::io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

/// An in-memory snapshot: codebooks (keyed [`PixelEncoder`]s), convertible
/// to and from the `SGSN` byte format.
///
/// Build one with [`Snapshot::new`] + [`push_codebook`](Self::push_codebook)
/// (or let [`CodebookCache::export_snapshot`](crate::CodebookCache::export_snapshot)
/// do it), then [`save`](Self::save); restore with [`load`](Self::load) or
/// [`from_bytes`](Self::from_bytes).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    codebooks: Vec<(CodebookKey, Arc<PixelEncoder>)>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one built codebook under its key.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::InvalidField`] if the encoder's shape
    /// disagrees with the key (dimension, image shape, or channel count) —
    /// a mismatched pair would poison every future cache hit it serves.
    pub fn push_codebook(
        &mut self,
        key: CodebookKey,
        encoder: Arc<PixelEncoder>,
    ) -> Result<(), SnapshotError> {
        let position = encoder.position();
        let color = encoder.color();
        if encoder.dimension() != key.dimension
            || position.rows() != key.height
            || position.cols() != key.width
            || color.channels() != key.channels
            || position.encoding() != key.position_encoding
            || color.encoding() != key.color_encoding
        {
            return Err(SnapshotError::InvalidField {
                field: "codebook",
                message: format!(
                    "encoder shape {}x{}x{} (d={}) disagrees with key {}x{}x{} (d={})",
                    position.cols(),
                    position.rows(),
                    color.channels(),
                    encoder.dimension(),
                    key.width,
                    key.height,
                    key.channels,
                    key.dimension
                ),
            });
        }
        self.codebooks.push((key, encoder));
        Ok(())
    }

    /// The persisted codebooks, in section order.
    pub fn codebooks(&self) -> &[(CodebookKey, Arc<PixelEncoder>)] {
        &self.codebooks
    }

    /// Serializes to the `SGSN` byte format, checksum trailer included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u16(&mut out, SNAPSHOT_VERSION);
        put_u32(&mut out, self.codebooks.len() as u32);
        put_u32(&mut out, 0); // centroid sets
        for (key, encoder) in &self.codebooks {
            write_key(&mut out, key);
            write_position(&mut out, encoder.position());
            write_color(&mut out, encoder.color());
        }
        let sum = fnv1a64(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Decodes the `SGSN` byte format.
    ///
    /// # Errors
    ///
    /// Any corruption maps to a typed [`SnapshotError`]; see the variant
    /// docs. Declared lengths are validated against their caps and the
    /// remaining input before any allocation.
    pub fn from_bytes(data: &[u8]) -> Result<Self, SnapshotError> {
        // Header + checksum trailer are the minimum viable file.
        if data.len() < 4 {
            return Err(SnapshotError::Truncated { field: "magic" });
        }
        let found: [u8; 4] = data[..4].try_into().expect("4 bytes checked");
        if found != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic { found });
        }
        if data.len() < 4 + 2 + 4 + 4 + 8 {
            return Err(SnapshotError::Truncated { field: "header" });
        }
        let (body, trailer) = data.split_at(data.len() - 8);
        let declared_sum = u64::from_le_bytes(trailer.try_into().expect("8 bytes split"));
        if fnv1a64(body) != declared_sum {
            return Err(SnapshotError::ChecksumMismatch);
        }

        let mut reader = SnapReader { data: body, pos: 4 };
        let version = reader.take_u16("version")?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let codebook_count = reader.take_len("codebook count", MAX_SECTIONS)?;
        reader.take_len("centroid set count", 0)?;

        let mut snapshot = Snapshot::new();
        for _ in 0..codebook_count {
            let key = read_key(&mut reader)?;
            let position = read_position(&mut reader, &key)?;
            let color = read_color(&mut reader, &key)?;
            let encoder =
                PixelEncoder::new(position, color).map_err(|err| SnapshotError::InvalidField {
                    field: "codebook",
                    message: err.to_string(),
                })?;
            snapshot.codebooks.push((key, Arc::new(encoder)));
        }
        if reader.pos != body.len() {
            return Err(SnapshotError::TrailingBytes(body.len() - reader.pos));
        }
        Ok(snapshot)
    }

    /// Writes the snapshot to `path` (atomically: a temp file in the same
    /// directory renamed over the target, so a crash mid-write never
    /// leaves a half-written snapshot behind). Returns the bytes written.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the write or rename fails.
    pub fn save(&self, path: &Path) -> Result<usize, SnapshotError> {
        let bytes = self.to_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, &bytes)?;
        if let Err(err) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(err.into());
        }
        Ok(bytes.len())
    }

    /// Reads and decodes a snapshot from `path`, refusing files larger
    /// than [`DEFAULT_MAX_SNAPSHOT_BYTES`] before reading them.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on filesystem failure (including a missing
    /// file), [`SnapshotError::FileTooLarge`] over the cap, and any decode
    /// variant for corrupt content.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        Self::load_with_limit(path, DEFAULT_MAX_SNAPSHOT_BYTES)
    }

    /// [`load`](Self::load) with an explicit size cap.
    ///
    /// # Errors
    ///
    /// As [`load`](Self::load).
    pub fn load_with_limit(path: &Path, max_bytes: u64) -> Result<Self, SnapshotError> {
        let len = std::fs::metadata(path)?.len();
        if len > max_bytes {
            return Err(SnapshotError::FileTooLarge {
                len,
                max: max_bytes,
            });
        }
        let data = std::fs::read(path)?;
        Self::from_bytes(&data)
    }
}

/// FNV-1a 64-bit, the same function the server's wire codec uses.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn encode_position_encoding(encoding: PositionEncoding) -> u8 {
    match encoding {
        PositionEncoding::Uniform => 0,
        PositionEncoding::Manhattan => 1,
        PositionEncoding::DecayManhattan => 2,
        PositionEncoding::BlockDecayManhattan => 3,
        PositionEncoding::Random => 4,
    }
}

fn decode_position_encoding(byte: u8) -> Result<PositionEncoding, SnapshotError> {
    Ok(match byte {
        0 => PositionEncoding::Uniform,
        1 => PositionEncoding::Manhattan,
        2 => PositionEncoding::DecayManhattan,
        3 => PositionEncoding::BlockDecayManhattan,
        4 => PositionEncoding::Random,
        other => {
            return Err(SnapshotError::InvalidField {
                field: "position encoding",
                message: format!("unknown variant byte {other}"),
            })
        }
    })
}

fn encode_color_encoding(encoding: ColorEncoding) -> u8 {
    match encoding {
        ColorEncoding::Manhattan => 0,
        ColorEncoding::Random => 1,
    }
}

fn decode_color_encoding(byte: u8) -> Result<ColorEncoding, SnapshotError> {
    Ok(match byte {
        0 => ColorEncoding::Manhattan,
        1 => ColorEncoding::Random,
        other => {
            return Err(SnapshotError::InvalidField {
                field: "colour encoding",
                message: format!("unknown variant byte {other}"),
            })
        }
    })
}

fn write_key(out: &mut Vec<u8>, key: &CodebookKey) {
    put_u64(out, key.seed);
    put_u64(out, key.dimension as u64);
    put_u32(out, key.width as u32);
    put_u32(out, key.height as u32);
    out.push(key.channels as u8);
    put_u64(out, key.alpha_bits);
    put_u32(out, key.beta as u32);
    put_u32(out, key.gamma as u32);
    out.push(encode_position_encoding(key.position_encoding));
    out.push(encode_color_encoding(key.color_encoding));
}

fn read_key(reader: &mut SnapReader<'_>) -> Result<CodebookKey, SnapshotError> {
    let seed = reader.take_u64("key seed")?;
    let dimension = reader.take_u64("key dimension")?;
    if dimension == 0 || dimension > MAX_DIMENSION {
        return Err(SnapshotError::LengthCap {
            field: "key dimension",
            len: dimension,
            cap: MAX_DIMENSION,
        });
    }
    let width = u64::from(reader.take_u32("key width")?);
    let height = u64::from(reader.take_u32("key height")?);
    for (field, axis) in [("key width", width), ("key height", height)] {
        if axis == 0 || axis > MAX_AXIS {
            return Err(SnapshotError::LengthCap {
                field,
                len: axis,
                cap: MAX_AXIS,
            });
        }
    }
    let channels = reader.take_u8("key channels")?;
    if channels != 1 && channels != 3 {
        return Err(SnapshotError::InvalidField {
            field: "key channels",
            message: format!("must be 1 or 3, got {channels}"),
        });
    }
    let alpha_bits = reader.take_u64("key alpha")?;
    let beta = reader.take_u32("key beta")?;
    let gamma = reader.take_u32("key gamma")?;
    let position_encoding = decode_position_encoding(reader.take_u8("position encoding")?)?;
    let color_encoding = decode_color_encoding(reader.take_u8("colour encoding")?)?;
    Ok(CodebookKey {
        seed,
        dimension: dimension as usize,
        width: width as usize,
        height: height as usize,
        channels: usize::from(channels),
        alpha_bits,
        beta: beta as usize,
        gamma: gamma as usize,
        position_encoding,
        color_encoding,
    })
}

fn write_hv_words(out: &mut Vec<u8>, hv: &BinaryHypervector) {
    for &word in hv.as_words() {
        put_u64(out, word);
    }
}

fn write_position(out: &mut Vec<u8>, position: &PositionEncoder) {
    put_u32(out, position.row_flip_unit() as u32);
    put_u32(out, position.col_flip_unit() as u32);
    for hv in position.row_hvs().iter().chain(position.col_hvs()) {
        write_hv_words(out, hv);
    }
}

fn read_hv(
    reader: &mut SnapReader<'_>,
    field: &'static str,
    dim: usize,
) -> Result<BinaryHypervector, SnapshotError> {
    let words = reader.take_words(field, dim.div_ceil(64) as u64)?;
    BinaryHypervector::from_words(dim, words).map_err(|err| SnapshotError::InvalidField {
        field,
        message: err.to_string(),
    })
}

fn read_position(
    reader: &mut SnapReader<'_>,
    key: &CodebookKey,
) -> Result<PositionEncoder, SnapshotError> {
    let row_flip_unit = reader.take_u32("row flip unit")? as usize;
    let col_flip_unit = reader.take_u32("column flip unit")? as usize;
    let mut rows = Vec::new();
    for _ in 0..key.height {
        rows.push(read_hv(reader, "row hypervector", key.dimension)?);
    }
    let mut cols = Vec::new();
    for _ in 0..key.width {
        cols.push(read_hv(reader, "column hypervector", key.dimension)?);
    }
    PositionEncoder::from_parts(
        key.position_encoding,
        key.dimension,
        rows,
        cols,
        row_flip_unit,
        col_flip_unit,
    )
    .map_err(|err| SnapshotError::InvalidField {
        field: "position codebook",
        message: err.to_string(),
    })
}

fn write_color(out: &mut Vec<u8>, color: &ColorEncoder) {
    put_u32(out, color.flip_unit() as u32);
    for codes in color.channel_codes() {
        put_u32(out, codes[0].dim() as u32);
        for code in codes {
            write_hv_words(out, code);
        }
    }
}

fn read_color(
    reader: &mut SnapReader<'_>,
    key: &CodebookKey,
) -> Result<ColorEncoder, SnapshotError> {
    let flip_unit = reader.take_u32("colour flip unit")? as usize;
    let mut channel_codes = Vec::with_capacity(key.channels);
    for _ in 0..key.channels {
        let chunk = reader.take_len("colour chunk dimension", MAX_DIMENSION)?;
        if chunk == 0 {
            return Err(SnapshotError::InvalidField {
                field: "colour chunk dimension",
                message: "must be non-zero".to_string(),
            });
        }
        let mut codes = Vec::with_capacity(256);
        for _ in 0..256 {
            codes.push(read_hv(reader, "colour code", chunk as usize)?);
        }
        channel_codes.push(codes);
    }
    ColorEncoder::from_parts(key.color_encoding, key.dimension, flip_unit, channel_codes).map_err(
        |err| SnapshotError::InvalidField {
            field: "colour codebook",
            message: err.to_string(),
        },
    )
}

/// Bounds-checked little-endian reader over the snapshot body.
struct SnapReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl SnapReader<'_> {
    fn take(&mut self, count: usize, field: &'static str) -> Result<&[u8], SnapshotError> {
        if self.data.len() - self.pos < count {
            return Err(SnapshotError::Truncated { field });
        }
        let slice = &self.data[self.pos..self.pos + count];
        self.pos += count;
        Ok(slice)
    }

    fn take_u8(&mut self, field: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, field)?[0])
    }

    fn take_u16(&mut self, field: &'static str) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2, field)?.try_into().expect("2 bytes taken"),
        ))
    }

    fn take_u32(&mut self, field: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, field)?.try_into().expect("4 bytes taken"),
        ))
    }

    fn take_u64(&mut self, field: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, field)?.try_into().expect("8 bytes taken"),
        ))
    }

    /// Reads a declared length and validates it against `cap` — the
    /// pre-allocation guard every variable-size field goes through.
    fn take_len(&mut self, field: &'static str, cap: u64) -> Result<u64, SnapshotError> {
        let len = u64::from(self.take_u32(field)?);
        if len > cap {
            return Err(SnapshotError::LengthCap { field, len, cap });
        }
        Ok(len)
    }

    /// Reads `count` packed u64 words, validating the byte count against
    /// the remaining input **before** allocating — a corrupt count can
    /// never demand more memory than the input occupies.
    fn take_words(&mut self, field: &'static str, count: u64) -> Result<Vec<u64>, SnapshotError> {
        let bytes = count.checked_mul(8).ok_or(SnapshotError::LengthCap {
            field,
            len: count,
            cap: u64::MAX / 8,
        })?;
        if bytes > (self.data.len() - self.pos) as u64 {
            return Err(SnapshotError::Truncated { field });
        }
        let raw = self.take(bytes as usize, field)?;
        Ok(raw
            .chunks_exact(8)
            .map(|chunk| u64::from_le_bytes(chunk.try_into().expect("8-byte chunks")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegHdcConfig;

    fn config(seed: u64) -> SegHdcConfig {
        SegHdcConfig::builder()
            .dimension(256)
            .beta(2)
            .iterations(1)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn built_codebook(seed: u64, width: usize, height: usize) -> (CodebookKey, PixelEncoder) {
        let cfg = config(seed);
        let key = CodebookKey::for_shape(&cfg, width, height, 1);
        let encoder = PixelEncoder::for_shape(&cfg, width, height, 1).unwrap();
        (key, encoder)
    }

    fn encoders_equal(a: &PixelEncoder, b: &PixelEncoder) -> bool {
        let (pa, pb) = (a.position(), b.position());
        if pa.rows() != pb.rows()
            || pa.cols() != pb.cols()
            || pa.row_flip_unit() != pb.row_flip_unit()
            || pa.col_flip_unit() != pb.col_flip_unit()
        {
            return false;
        }
        for i in 0..pa.rows() {
            if pa.row_hv(i).unwrap() != pb.row_hv(i).unwrap() {
                return false;
            }
        }
        for j in 0..pa.cols() {
            if pa.col_hv(j).unwrap() != pb.col_hv(j).unwrap() {
                return false;
            }
        }
        let (ca, cb) = (a.color(), b.color());
        if ca.flip_unit() != cb.flip_unit() || ca.channels() != cb.channels() {
            return false;
        }
        for channel in 0..ca.channels() {
            for value in 0..=255u8 {
                if ca.placed_code(channel, value) != cb.placed_code(channel, value) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn codebooks_round_trip_bit_identically() {
        let (key, encoder) = built_codebook(7, 12, 9);
        let mut snapshot = Snapshot::new();
        snapshot
            .push_codebook(key, Arc::new(encoder.clone()))
            .unwrap();
        let bytes = snapshot.to_bytes();
        let restored = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(restored.codebooks().len(), 1);
        let (restored_key, restored_encoder) = &restored.codebooks()[0];
        assert_eq!(*restored_key, key);
        assert!(encoders_equal(&encoder, restored_encoder));
        // Same pixel, same hypervector — the property warm-started serving
        // rests on.
        for (x, y, v) in [(0usize, 0usize, 0u8), (11, 8, 255), (5, 3, 128)] {
            let a = encoder
                .position()
                .encode(y, x)
                .unwrap()
                .xor(&encoder.color().encode(&[v]).unwrap())
                .unwrap();
            let b = restored_encoder
                .position()
                .encode(y, x)
                .unwrap()
                .xor(&restored_encoder.color().encode(&[v]).unwrap())
                .unwrap();
            assert_eq!(a, b, "pixel ({x},{y},{v})");
        }
        // A second serialization of the restored snapshot is byte-stable.
        assert_eq!(restored.to_bytes(), bytes);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let bytes = Snapshot::new().to_bytes();
        let restored = Snapshot::from_bytes(&bytes).unwrap();
        assert!(restored.codebooks().is_empty());
    }

    #[test]
    fn mismatched_codebook_key_is_refused_at_push() {
        let (_, encoder) = built_codebook(1, 10, 10);
        let (other_key, _) = built_codebook(1, 11, 10);
        let mut snapshot = Snapshot::new();
        assert!(matches!(
            snapshot.push_codebook(other_key, Arc::new(encoder)),
            Err(SnapshotError::InvalidField { .. })
        ));
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let dir = std::env::temp_dir().join(format!("seghdc-snapshot-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.sgsn");
        let (key, encoder) = built_codebook(9, 6, 5);
        let mut snapshot = Snapshot::new();
        snapshot
            .push_codebook(key, Arc::new(encoder.clone()))
            .unwrap();
        let written = snapshot.save(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len() as usize);
        let restored = Snapshot::load(&path).unwrap();
        assert!(encoders_equal(&encoder, &restored.codebooks()[0].1));
        // A cap below the file size refuses before reading.
        assert!(matches!(
            Snapshot::load_with_limit(&path, written as u64 - 1),
            Err(SnapshotError::FileTooLarge { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("seghdc-snapshot-test-does-not-exist.sgsn");
        assert!(matches!(Snapshot::load(&path), Err(SnapshotError::Io(_))));
    }
}
