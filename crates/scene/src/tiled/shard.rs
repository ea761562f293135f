//! Fixed-width column shards: one file per column (`x`/`y`/`z`/`rgb`/
//! `label`) per tile, with a hand-rolled 36-byte binary header — no
//! serde, mirroring the workspace's hand-rolled JSON convention.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic "CSHD"
//!      4     2  format version (currently 1)
//!      6     1  column tag (0=x 1=y 2=z 3=rgb 4=label)
//!      7     1  record width in bytes (4 / 12 / 1)
//!      8     2  class count
//!     10     2  reserved (zero)
//!     12     4  tile x index
//!     16     4  tile y index
//!     20     8  world seed
//!     28     8  record count
//!     36     …  payload: record_count fixed-width records
//! ```
//!
//! A shard is valid iff the magic, version, column tag, and record width
//! all match and the file length is exactly `36 + count * width`; every
//! violation maps to a distinct [`ShardError`] variant so callers (and
//! tests) can tell truncation from corruption.

use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Shard file magic.
pub const SHARD_MAGIC: [u8; 4] = *b"CSHD";
/// Current shard format version.
pub const SHARD_VERSION: u16 = 1;
/// Header length in bytes.
pub const HEADER_LEN: usize = 36;

/// The five columns a tile is decomposed into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Column {
    /// X coordinates, one `f32` per record.
    X,
    /// Y coordinates, one `f32` per record.
    Y,
    /// Z coordinates, one `f32` per record.
    Z,
    /// Colors, three `f32` (r, g, b in `[0, 1]`) per record.
    Rgb,
    /// Class labels, one `u8` per record.
    Label,
}

impl Column {
    /// All columns in canonical order.
    pub const ALL: [Column; 5] = [Column::X, Column::Y, Column::Z, Column::Rgb, Column::Label];

    /// The header tag byte.
    pub fn tag(self) -> u8 {
        match self {
            Column::X => 0,
            Column::Y => 1,
            Column::Z => 2,
            Column::Rgb => 3,
            Column::Label => 4,
        }
    }

    /// Fixed record width in bytes.
    pub fn record_width(self) -> usize {
        match self {
            Column::X | Column::Y | Column::Z => 4,
            Column::Rgb => 12,
            Column::Label => 1,
        }
    }

    /// Shard file name for this column.
    pub fn file_name(self) -> &'static str {
        match self {
            Column::X => "x.shard",
            Column::Y => "y.shard",
            Column::Z => "z.shard",
            Column::Rgb => "rgb.shard",
            Column::Label => "label.shard",
        }
    }

    fn from_tag(tag: u8) -> Option<Column> {
        Column::ALL.into_iter().find(|c| c.tag() == tag)
    }
}

/// Parsed shard header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// Which column the payload encodes.
    pub column: Column,
    /// Number of fixed-width records in the payload.
    pub record_count: u64,
    /// Tile grid x index.
    pub tile_x: u32,
    /// Tile grid y index.
    pub tile_y: u32,
    /// World seed the tile derives from.
    pub world_seed: u64,
    /// Label space size.
    pub num_classes: u16,
}

impl ShardHeader {
    /// Serializes the header into its 36-byte wire form.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&SHARD_MAGIC);
        h[4..6].copy_from_slice(&SHARD_VERSION.to_le_bytes());
        h[6] = self.column.tag();
        h[7] = self.column.record_width() as u8;
        h[8..10].copy_from_slice(&self.num_classes.to_le_bytes());
        h[12..16].copy_from_slice(&self.tile_x.to_le_bytes());
        h[16..20].copy_from_slice(&self.tile_y.to_le_bytes());
        h[20..28].copy_from_slice(&self.world_seed.to_le_bytes());
        h[28..36].copy_from_slice(&self.record_count.to_le_bytes());
        h
    }

    /// Parses and validates a header from the first bytes of a shard
    /// file; `len` is the total file length, checked against the record
    /// count so truncated payloads are rejected up front.
    pub fn decode(path: &Path, bytes: &[u8], len: u64) -> Result<ShardHeader, ShardError> {
        if bytes.len() < HEADER_LEN {
            return Err(ShardError::Truncated {
                path: path.to_path_buf(),
                expected: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        if bytes[0..4] != SHARD_MAGIC {
            return Err(ShardError::BadMagic { path: path.to_path_buf() });
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SHARD_VERSION {
            return Err(ShardError::BadVersion { path: path.to_path_buf(), found: version });
        }
        let column = Column::from_tag(bytes[6]).ok_or_else(|| ShardError::CorruptHeader {
            path: path.to_path_buf(),
            reason: format!("unknown column tag {}", bytes[6]),
        })?;
        if bytes[7] as usize != column.record_width() {
            return Err(ShardError::CorruptHeader {
                path: path.to_path_buf(),
                reason: format!(
                    "column {:?} claims record width {} (expected {})",
                    column,
                    bytes[7],
                    column.record_width()
                ),
            });
        }
        let num_classes = u16::from_le_bytes([bytes[8], bytes[9]]);
        let tile_x = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
        let tile_y = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
        let world_seed = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let record_count = u64::from_le_bytes(bytes[28..36].try_into().expect("8 bytes"));
        // Checked: a crafted record count must not wrap the expected
        // length (a release build would otherwise accept the header).
        let expected = record_count
            .checked_mul(column.record_width() as u64)
            .and_then(|payload| payload.checked_add(HEADER_LEN as u64))
            .ok_or_else(|| ShardError::CorruptHeader {
                path: path.to_path_buf(),
                reason: format!("record count {record_count} overflows the file length"),
            })?;
        if len != expected {
            return Err(ShardError::Truncated { path: path.to_path_buf(), expected, actual: len });
        }
        Ok(ShardHeader { column, record_count, tile_x, tile_y, world_seed, num_classes })
    }
}

/// Typed shard IO failures: IO errors pass through, every structural
/// violation gets its own variant.
#[derive(Debug)]
pub enum ShardError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// File does not start with `CSHD`.
    BadMagic {
        /// Offending file.
        path: PathBuf,
    },
    /// Unsupported format version.
    BadVersion {
        /// Offending file.
        path: PathBuf,
        /// Version found on disk.
        found: u16,
    },
    /// File shorter (or longer) than the header's record count implies.
    Truncated {
        /// Offending file.
        path: PathBuf,
        /// Required length in bytes.
        expected: u64,
        /// Actual length in bytes.
        actual: u64,
    },
    /// Header fields are internally inconsistent.
    CorruptHeader {
        /// Offending file.
        path: PathBuf,
        /// Human-readable diagnosis.
        reason: String,
    },
    /// The shard belongs to a different column than the caller asked for.
    WrongColumn {
        /// Offending file.
        path: PathBuf,
        /// Column the caller expected.
        expected: Column,
        /// Column recorded in the header.
        found: Column,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard io error: {e}"),
            ShardError::BadMagic { path } => {
                write!(f, "{}: not a shard file (bad magic)", path.display())
            }
            ShardError::BadVersion { path, found } => {
                write!(f, "{}: unsupported shard version {found}", path.display())
            }
            ShardError::Truncated { path, expected, actual } => write!(
                f,
                "{}: truncated shard ({actual} bytes, expected {expected})",
                path.display()
            ),
            ShardError::CorruptHeader { path, reason } => {
                write!(f, "{}: corrupt shard header: {reason}", path.display())
            }
            ShardError::WrongColumn { path, expected, found } => write!(
                f,
                "{}: wrong column (expected {expected:?}, found {found:?})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Writes one shard file: header followed by the fixed-width payload.
///
/// `payload.len()` must equal `record_count * record_width`.
pub fn write_shard(path: &Path, header: &ShardHeader, payload: &[u8]) -> Result<(), ShardError> {
    debug_assert_eq!(
        payload.len() as u64,
        header.record_count * header.column.record_width() as u64,
        "payload length does not match header record count"
    );
    let mut file = File::create(path)?;
    file.write_all(&header.encode())?;
    file.write_all(payload)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> ShardHeader {
        ShardHeader {
            column: Column::Rgb,
            record_count: 3,
            tile_x: 1,
            tile_y: 2,
            world_seed: 99,
            num_classes: 8,
        }
    }

    #[test]
    fn header_round_trips() {
        let h = header();
        let bytes = h.encode();
        let len = HEADER_LEN as u64 + 3 * 12;
        let parsed = ShardHeader::decode(Path::new("t"), &bytes, len).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = header().encode();
        bytes[0] = b'X';
        let err = ShardHeader::decode(Path::new("t"), &bytes, HEADER_LEN as u64 + 36).unwrap_err();
        assert!(matches!(err, ShardError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = header().encode();
        bytes[4] = 0xFF;
        let err = ShardHeader::decode(Path::new("t"), &bytes, HEADER_LEN as u64 + 36).unwrap_err();
        assert!(matches!(err, ShardError::BadVersion { found: 0xFF, .. }), "{err}");
    }

    #[test]
    fn truncated_payload_rejected() {
        let bytes = header().encode();
        // Header says 3 rgb records (36 bytes) but the file is 1 short.
        let err = ShardHeader::decode(Path::new("t"), &bytes, HEADER_LEN as u64 + 35).unwrap_err();
        match err {
            ShardError::Truncated { expected, actual, .. } => {
                assert_eq!(expected, HEADER_LEN as u64 + 36);
                assert_eq!(actual, HEADER_LEN as u64 + 35);
            }
            other => panic!("expected Truncated, got {other}"),
        }
    }

    #[test]
    fn record_width_mismatch_rejected() {
        let mut bytes = header().encode();
        bytes[7] = 5;
        let err = ShardHeader::decode(Path::new("t"), &bytes, HEADER_LEN as u64 + 36).unwrap_err();
        assert!(matches!(err, ShardError::CorruptHeader { .. }), "{err}");
    }

    #[test]
    fn overflowing_record_count_is_a_corrupt_header() {
        // 36 + (2^62 + 3) * 4 wraps to exactly 48 in u64: unchecked, a
        // release build accepted this header for a 48-byte file and a
        // debug build panicked on the multiply.
        let h = ShardHeader { column: Column::X, record_count: (1u64 << 62) + 3, ..header() };
        let mut file = h.encode().to_vec();
        file.extend_from_slice(&[0u8; 12]);
        assert_eq!(file.len(), 48);
        let err = ShardHeader::decode(Path::new("t"), &file, file.len() as u64).unwrap_err();
        assert!(matches!(err, ShardError::CorruptHeader { .. }), "{err}");
    }

    #[test]
    fn unknown_column_tag_rejected() {
        let mut bytes = header().encode();
        bytes[6] = 9;
        let err = ShardHeader::decode(Path::new("t"), &bytes, HEADER_LEN as u64 + 36).unwrap_err();
        assert!(matches!(err, ShardError::CorruptHeader { .. }), "{err}");
    }
}
