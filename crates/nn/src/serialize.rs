//! A small self-contained binary format for [`ParamSet`] checkpoints.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    b"CLPR"
//! version  u32 (currently 1)
//! n_params u32
//!   per param:  name_len u32, name bytes (UTF-8), rows u32, cols u32,
//!               rows*cols f32 values
//! n_buffers u32, same record layout
//! ```
//!
//! The format exists so pre-trained model weights can be cached between
//! experiment runs without pulling in a serialization dependency.

use crate::param::Named;
use crate::ParamSet;
use colper_tensor::Matrix;
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"CLPR";
const VERSION: u32 = 1;

/// Errors produced while reading or writing checkpoints.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the checkpoint magic.
    BadMagic,
    /// The checkpoint version is unsupported.
    BadVersion(u32),
    /// A record is malformed (bad UTF-8 name, absurd sizes).
    Corrupt(&'static str),
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "checkpoint i/o failure: {e}"),
            SerializeError::BadMagic => write!(f, "not a COLPER checkpoint (bad magic)"),
            SerializeError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            SerializeError::Corrupt(what) => write!(f, "corrupt checkpoint: {what}"),
        }
    }
}

impl Error for SerializeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SerializeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SerializeError {
    fn from(e: io::Error) -> Self {
        SerializeError::Io(e)
    }
}

/// Writes `params` to `w`. A `&mut` reference can be passed for any
/// writer.
///
/// # Errors
///
/// Returns [`SerializeError::Io`] on write failure.
pub fn save_params<W: Write>(params: &ParamSet, mut w: W) -> Result<(), SerializeError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_records(&mut w, &params.params)?;
    write_records(&mut w, &params.buffers)?;
    Ok(())
}

fn write_records<W: Write>(w: &mut W, records: &[Named]) -> Result<(), SerializeError> {
    w.write_all(&(records.len() as u32).to_le_bytes())?;
    for rec in records {
        let name = rec.name.as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
        w.write_all(&(rec.value.rows() as u32).to_le_bytes())?;
        w.write_all(&(rec.value.cols() as u32).to_le_bytes())?;
        for v in rec.value.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Reads a [`ParamSet`] from `r`. A `&mut` reference can be passed for
/// any reader.
///
/// # Errors
///
/// Returns [`SerializeError`] on I/O failure, bad magic/version, or a
/// malformed record.
pub fn load_params<R: Read>(mut r: R) -> Result<ParamSet, SerializeError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SerializeError::BadMagic);
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(SerializeError::BadVersion(version));
    }
    let params = read_records(&mut r)?;
    let buffers = read_records(&mut r)?;
    Ok(ParamSet { params, buffers })
}

fn read_records<R: Read>(r: &mut R) -> Result<Vec<Named>, SerializeError> {
    let count = read_u32(r)? as usize;
    if count > 1_000_000 {
        return Err(SerializeError::Corrupt("record count too large"));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = read_u32(r)? as usize;
        if name_len > 4096 {
            return Err(SerializeError::Corrupt("name too long"));
        }
        let mut name_bytes = vec![0u8; name_len];
        r.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| SerializeError::Corrupt("name is not UTF-8"))?;
        let rows = read_u32(r)? as usize;
        let cols = read_u32(r)? as usize;
        if rows.saturating_mul(cols) > 256 * 1024 * 1024 {
            return Err(SerializeError::Corrupt("matrix too large"));
        }
        let data = read_f32s(r, rows * cols)?;
        let value = Matrix::from_vec(rows, cols, data)
            .map_err(|_| SerializeError::Corrupt("shape/data mismatch"))?;
        out.push(Named { name, value: std::sync::Arc::new(value) });
    }
    Ok(out)
}

/// Reads `len` little-endian `f32`s in bounded chunks, growing the buffer
/// only as bytes arrive: a record whose declared shape outruns a
/// truncated stream costs what the stream holds, not what it claims.
fn read_f32s<R: Read>(r: &mut R, len: usize) -> Result<Vec<f32>, SerializeError> {
    const CHUNK: usize = 16 * 1024;
    let mut data = Vec::new();
    let mut bytes = vec![0u8; 4 * CHUNK.min(len)];
    while data.len() < len {
        let chunk = &mut bytes[..4 * CHUNK.min(len - data.len())];
        r.read_exact(chunk)?;
        data.extend(chunk.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])));
    }
    Ok(data)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, SerializeError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_params() -> ParamSet {
        let mut ps = ParamSet::new();
        ps.add_param("layer.weight", Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32 * 0.5));
        ps.add_param("layer.bias", Matrix::filled(1, 4, -1.25));
        ps.add_buffer("bn.running_mean", Matrix::filled(1, 4, 0.1));
        ps
    }

    #[test]
    fn round_trip_preserves_everything() {
        let ps = sample_params();
        let mut buf = Vec::new();
        save_params(&ps, &mut buf).unwrap();
        let loaded = load_params(buf.as_slice()).unwrap();
        assert_eq!(loaded.param_count(), 2);
        assert_eq!(loaded.buffer_count(), 1);
        assert_eq!(loaded.param_name(crate::ParamId(0)), "layer.weight");
        assert_eq!(loaded.param(crate::ParamId(0)), ps.param(crate::ParamId(0)));
        assert_eq!(loaded.buffer(crate::BufferId(0)), ps.buffer(crate::BufferId(0)));
    }

    #[test]
    fn bad_magic_rejected() {
        let err = load_params(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, SerializeError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CLPR");
        buf.extend_from_slice(&99u32.to_le_bytes());
        let err = load_params(buf.as_slice()).unwrap_err();
        assert!(matches!(err, SerializeError::BadVersion(99)));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let ps = sample_params();
        let mut buf = Vec::new();
        save_params(&ps, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = load_params(buf.as_slice()).unwrap_err();
        assert!(matches!(err, SerializeError::Io(_)));
    }

    #[test]
    fn oversized_shape_on_a_truncated_stream_is_an_io_error() {
        // One record claiming 16384 x 16384 floats (1 GiB) backed by eight
        // bytes: the reader must fail on the missing bytes without first
        // zero-filling the declared size.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CLPR");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(b'w');
        buf.extend_from_slice(&16384u32.to_le_bytes());
        buf.extend_from_slice(&16384u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        let err = load_params(buf.as_slice()).unwrap_err();
        assert!(matches!(err, SerializeError::Io(_)), "{err}");
    }

    #[test]
    fn error_messages_are_lowercase_without_period() {
        let msgs = [
            SerializeError::BadMagic.to_string(),
            SerializeError::BadVersion(3).to_string(),
            SerializeError::Corrupt("x").to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'));
        }
    }

    #[test]
    fn empty_paramset_round_trips() {
        let ps = ParamSet::new();
        let mut buf = Vec::new();
        save_params(&ps, &mut buf).unwrap();
        let loaded = load_params(buf.as_slice()).unwrap();
        assert_eq!(loaded.param_count(), 0);
        assert_eq!(loaded.buffer_count(), 0);
    }
}
