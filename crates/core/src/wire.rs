//! Low-level wire helpers: framed primitives.
//!
//! Checkpoints must never be silently corrupt — a restored model with a few
//! flipped bits would train onward with degraded accuracy and nobody would
//! know (the failure mode the paper's accuracy criterion forbids). The
//! guard is the storage envelope's XXH64 ([`cnr_storage::envelope`]),
//! which every stored byte sits behind and every read site checks once.
//! Chunk and manifest frames are therefore bare `[len][data]`: since wire
//! v5 they carry no checksum of their own, and a frame is only ever read
//! out of an envelope that verified.

use bytes::{Buf, BufMut};

use crate::error::CnrError;

/// Bytes a frame adds ahead of its data: the `u32` length.
pub const FRAME_OVERHEAD: usize = 4;

/// Appends `data` framed as `[len: u32][data]`.
pub fn put_framed(buf: &mut Vec<u8>, data: &[u8]) {
    let frame = begin_frame(buf);
    buf.extend_from_slice(data);
    end_frame(buf, frame);
}

/// Opens a frame at the end of `buf`: reserves the length field and
/// returns the frame's position for [`end_frame`]. Whatever the caller
/// appends in between is the frame's data, written once, in place.
pub fn begin_frame(buf: &mut Vec<u8>) -> usize {
    let frame = buf.len();
    buf.put_u32_le(0);
    frame
}

/// Closes the frame opened at `frame`: patches the length field with the
/// bytes appended since.
pub fn end_frame(buf: &mut [u8], frame: usize) {
    let data_at = frame + FRAME_OVERHEAD;
    let len = buf.len() - data_at;
    assert!(len <= u32::MAX as usize, "frame exceeds u32 length field");
    buf[frame..data_at].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Reads one `[len][data]` frame, borrowing the data (nothing is copied).
pub fn get_framed<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], CnrError> {
    if buf.remaining() < FRAME_OVERHEAD {
        return Err(CnrError::Corrupt("frame header truncated".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(CnrError::Corrupt("frame body truncated".into()));
    }
    let (data, rest) = buf.split_at(len);
    *buf = rest;
    Ok(data)
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_string(buf: &mut &[u8]) -> Result<String, CnrError> {
    if buf.remaining() < 4 {
        return Err(CnrError::Corrupt("string header truncated".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(CnrError::Corrupt("string body truncated".into()));
    }
    let s = String::from_utf8(buf[..len].to_vec())
        .map_err(|_| CnrError::Corrupt("string is not UTF-8".into()))?;
    buf.advance(len);
    Ok(s)
}

/// Appends a length-prefixed `f32` slice.
pub fn put_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    put_f32_slices(buf, values.len(), [values]);
}

/// Appends `len` `f32`s held as consecutive slices, length-prefixed: the
/// bytes [`put_f32s`] writes for their concatenation, without building it.
pub fn put_f32_slices<'a>(
    buf: &mut Vec<u8>,
    len: usize,
    slices: impl IntoIterator<Item = &'a [f32]>,
) {
    buf.put_u32_le(len as u32);
    let start = buf.len();
    for values in slices {
        put_words(buf, values.iter().map(|v| v.to_le_bytes()));
    }
    debug_assert_eq!(buf.len() - start, 4 * len, "slices do not hold `len` values");
}

/// Reads a length-prefixed `f32` slice.
pub fn get_f32s(buf: &mut &[u8]) -> Result<Vec<f32>, CnrError> {
    if buf.remaining() < 4 {
        return Err(CnrError::Corrupt("f32s header truncated".into()));
    }
    let len = buf.get_u32_le() as usize;
    Ok(get_words(buf, len, "f32s body")?.map(f32::from_le_bytes).collect())
}

/// Appends a run of 4-byte little-endian words (`u32::to_le_bytes`,
/// `f32::to_le_bytes`), no length prefix.
pub fn put_words(buf: &mut Vec<u8>, words: impl ExactSizeIterator<Item = [u8; 4]>) {
    let start = buf.len();
    buf.resize(start + words.len() * 4, 0);
    for (dst, word) in buf[start..].chunks_exact_mut(4).zip(words) {
        dst.copy_from_slice(&word);
    }
}

/// Splits `count` 4-byte little-endian words off the front of `buf`,
/// erroring on truncation before anything is allocated for them.
pub fn get_words<'a>(
    buf: &mut &'a [u8],
    count: usize,
    what: &str,
) -> Result<impl ExactSizeIterator<Item = [u8; 4]> + 'a, CnrError> {
    match count.checked_mul(4) {
        Some(len) if len <= buf.len() => {
            let (words, rest) = buf.split_at(len);
            *buf = rest;
            Ok(words.chunks_exact(4).map(|w| [w[0], w[1], w[2], w[3]]))
        }
        _ => Err(CnrError::Corrupt(format!("{what} truncated"))),
    }
}

/// Reads a `u64`, erroring on truncation.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, CnrError> {
    if buf.remaining() < 8 {
        return Err(CnrError::Corrupt("u64 truncated".into()));
    }
    Ok(buf.get_u64_le())
}

/// Reads a `u32`, erroring on truncation.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, CnrError> {
    if buf.remaining() < 4 {
        return Err(CnrError::Corrupt("u32 truncated".into()));
    }
    Ok(buf.get_u32_le())
}

/// Reads a `u16`, erroring on truncation.
pub fn get_u16(buf: &mut &[u8]) -> Result<u16, CnrError> {
    if buf.remaining() < 2 {
        return Err(CnrError::Corrupt("u16 truncated".into()));
    }
    Ok(buf.get_u16_le())
}

/// Reads a `u8`, erroring on truncation.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, CnrError> {
    if buf.remaining() < 1 {
        return Err(CnrError::Corrupt("u8 truncated".into()));
    }
    Ok(buf.get_u8())
}

/// Reads an `f64`, erroring on truncation.
pub fn get_f64(buf: &mut &[u8]) -> Result<f64, CnrError> {
    if buf.remaining() < 8 {
        return Err(CnrError::Corrupt("f64 truncated".into()));
    }
    Ok(buf.get_f64_le())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framed_roundtrip() {
        let mut buf = Vec::new();
        put_framed(&mut buf, b"payload");
        put_framed(&mut buf, b"");
        let mut slice = buf.as_slice();
        assert_eq!(get_framed(&mut slice).unwrap(), b"payload");
        assert_eq!(get_framed(&mut slice).unwrap(), b"");
        assert!(slice.is_empty());
    }

    #[test]
    fn framed_truncation_errors() {
        let mut buf = Vec::new();
        put_framed(&mut buf, b"abc");
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(get_framed(&mut slice).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn string_roundtrip() {
        let mut buf = Vec::new();
        put_string(&mut buf, "ckpt/00042/chunk-7");
        let mut slice = buf.as_slice();
        assert_eq!(get_string(&mut slice).unwrap(), "ckpt/00042/chunk-7");
    }

    #[test]
    fn string_rejects_bad_utf8() {
        let mut buf = Vec::new();
        buf.put_u32_le(2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut slice = buf.as_slice();
        assert!(get_string(&mut slice).is_err());
    }

    #[test]
    fn f32s_roundtrip() {
        let vals = vec![1.5f32, -0.25, f32::MIN_POSITIVE, 0.0];
        let mut buf = Vec::new();
        put_f32s(&mut buf, &vals);
        let mut want = (vals.len() as u32).to_le_bytes().to_vec();
        vals.iter().for_each(|v| want.extend_from_slice(&v.to_le_bytes()));
        assert_eq!(buf, want, "a length prefix, then each value's LE bytes");
        let mut slice = buf.as_slice();
        assert_eq!(get_f32s(&mut slice).unwrap(), vals);
        for cut in 0..buf.len() {
            assert!(get_f32s(&mut &buf[..cut]).is_err(), "cut {cut} accepted");
        }
    }

    #[test]
    fn scalar_truncation_errors() {
        let empty: &[u8] = &[];
        assert!(get_u64(&mut { empty }).is_err());
        assert!(get_u32(&mut { empty }).is_err());
        assert!(get_u16(&mut { empty }).is_err());
        assert!(get_u8(&mut { empty }).is_err());
        assert!(get_f64(&mut { empty }).is_err());
    }
}
