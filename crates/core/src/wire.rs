//! Low-level wire helpers: framed primitives.
//!
//! Checkpoints must never be silently corrupt — a restored model with a few
//! flipped bits would train onward with degraded accuracy and nobody would
//! know (the failure mode the paper's accuracy criterion forbids). The
//! guard is the storage envelope's XXH64 ([`cnr_storage::envelope`]),
//! which every stored byte sits behind and every read site checks once.
//! Chunk and manifest frames are therefore bare `[len][data]`: since wire
//! v5 they carry no checksum of their own, and a frame is only ever read
//! out of an envelope that verified. Since wire v6 a chunk's row indices
//! are delta-coded varints ([`put_indices`]), one byte each for the
//! ascending runs a chunk holds, where a `u32` took four.

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

/// Zigzag map of a difference taken modulo 2³²: small steps either way
/// become small numbers (0, −1, 1, −2, … → 0, 1, 2, 3, …).
fn zigzag(delta: u32) -> u32 {
    let d = delta as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

fn unzigzag(z: u32) -> u32 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Bytes of the LEB128 varint of `z`: one per 7 bits, at least one.
fn varint_len(z: u32) -> usize {
    (38 - (z | 1).leading_zeros() as usize) / 7
}

/// Bytes [`put_indices`] appends for `indices`.
pub fn indices_len(indices: &[u32]) -> usize {
    let mut prev = 0u32;
    indices
        .iter()
        .map(|&i| varint_len(zigzag(i.wrapping_sub(std::mem::replace(&mut prev, i)))))
        .sum()
}

/// Appends row indices, no count prefix: each is the LEB128 varint of the
/// zigzagged difference from the index before it (the first from 0),
/// taken modulo 2³² so any sequence has an encoding. An ascending run
/// with gaps under 64 costs one byte per index; no index costs more than
/// five.
pub fn put_indices(buf: &mut Vec<u8>, indices: &[u32]) {
    let mut prev = 0u32;
    for &i in indices {
        let mut z = zigzag(i.wrapping_sub(prev));
        prev = i;
        while z >= 0x80 {
            buf.push(z as u8 | 0x80);
            z >>= 7;
        }
        buf.push(z as u8);
    }
}

/// Reads `count` indices written by [`put_indices`]. Each takes at least
/// one byte, so a count beyond the bytes left is rejected before anything
/// is allocated for it; a truncated varint, one longer than five bytes and
/// one whose value exceeds `u32` are [`CnrError::Corrupt`]. Every restore
/// opens its chunks through this, so the one- and two-byte varints (gaps
/// under 64 and under 8192) are decoded inline.
pub fn get_indices(buf: &mut &[u8], count: usize) -> Result<Vec<u32>, CnrError> {
    let bytes = *buf;
    if count > bytes.len() {
        return Err(CnrError::Corrupt(format!(
            "row indices truncated: {count} indices in {} bytes",
            bytes.len()
        )));
    }
    let mut indices = Vec::with_capacity(count);
    let (mut prev, mut at) = (0u32, 0);
    for _ in 0..count {
        // `at` never passes the end: it only moves over bytes read.
        let z = match bytes[at..] {
            [b0, ..] if b0 < 0x80 => {
                at += 1;
                u32::from(b0)
            }
            [b0, b1, ..] if b1 < 0x80 => {
                at += 2;
                u32::from(b0 & 0x7F) | u32::from(b1) << 7
            }
            _ => get_long_varint(bytes, &mut at)?,
        };
        prev = prev.wrapping_add(unzigzag(z));
        indices.push(prev);
    }
    *buf = &bytes[at..];
    Ok(indices)
}

/// The varint at `bytes[*at..]`, past the one- and two-byte cases.
fn get_long_varint(bytes: &[u8], at: &mut usize) -> Result<u32, CnrError> {
    let mut value = 0u64;
    for shift in (0..35).step_by(7) {
        let Some(&byte) = bytes.get(*at) else {
            return Err(CnrError::Corrupt("row index varint truncated".into()));
        };
        *at += 1;
        value |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return u32::try_from(value).map_err(|_| {
                CnrError::Corrupt(format!("row index varint {value} exceeds u32"))
            });
        }
    }
    Err(CnrError::Corrupt("row index varint longer than 5 bytes".into()))
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

    fn encoded(indices: &[u32]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_indices(&mut buf, indices);
        buf
    }

    fn corrupt(outcome: Result<Vec<u32>, CnrError>) -> bool {
        matches!(outcome, Err(CnrError::Corrupt(_)))
    }

    /// What an index costs: one byte for an ascending run with gaps
    /// under 64 (the chunker's and the tracker's shape), two under 8192,
    /// five at most.
    #[test]
    fn index_sizes_are_pinned() {
        let run: Vec<u32> = (1000..1000 + 4096).collect();
        assert_eq!(indices_len(&run), 2 + 4095, "the first index is measured from 0");
        let gaps: Vec<u32> = (0..100).map(|k| k * 63).collect();
        assert_eq!(indices_len(&gaps), 100);
        assert_eq!(indices_len(&[0, 64]), 1 + 2);
        assert_eq!(indices_len(&[64, 0]), 2 + 1, "a step back by 64 is zigzag 127");
        assert_eq!(indices_len(&[63, 127]), 1 + 2);
        assert_eq!(indices_len(&[8191, 16383]), 2 + 3);
        assert_eq!(indices_len(&[0, u32::MAX, 0]), 3, "steps wrap modulo 2^32");
        assert_eq!(indices_len(&[1 << 31]), 5);
        assert_eq!(encoded(&[0, 1, 1, 0]), [0, 2, 0, 1]);
    }

    #[test]
    fn overlong_and_out_of_range_varints_are_corrupt() {
        for (bytes, why) in [
            (&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00][..], "longer than 5 bytes"),
            (&[0xFF, 0xFF, 0xFF, 0xFF, 0x10], "exceeds u32"),
            (&[0x80, 0x80], "truncated"),
        ] {
            match get_indices(&mut { bytes }, 1) {
                Err(CnrError::Corrupt(got)) => assert!(got.contains(why), "{got}"),
                other => panic!("{bytes:?} accepted: {other:?}"),
            }
        }
        // The widest value a varint may hold: five bytes, 32 bits.
        let mut max = &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F][..];
        assert_eq!(get_indices(&mut max, 1).unwrap(), [unzigzag(u32::MAX)]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Any sequence, from random words: each index is uniform, an
        /// extreme (0 or `u32::MAX`), a small step either way from the one
        /// before, or a repeat of it — so runs ascend, descend and stall.
        fn sequence(words: &[u64]) -> Vec<u32> {
            let mut prev = 0u32;
            let step = |word: u64| (word % 281) as u32;
            words
                .iter()
                .map(|&word| {
                    prev = match word >> 62 {
                        0 => word as u32,
                        1 => [0, u32::MAX][word as usize & 1],
                        2 => prev.wrapping_add(step(word)).wrapping_sub(140),
                        _ => prev,
                    };
                    prev
                })
                .collect()
        }

        fn words() -> impl Strategy<Value = Vec<u64>> {
            prop::collection::vec(any::<u64>(), 0..300)
        }

        proptest! {
            /// Round trip, exact size, and the decoder takes exactly the
            /// bytes written: what follows them is left where it was.
            #[test]
            fn indices_roundtrip_in_exactly_their_length(
                words in words(),
                prefix in prop::collection::vec(any::<u8>(), 0..4),
            ) {
                let indices = sequence(&words);
                let mut buf = prefix.clone();
                put_indices(&mut buf, &indices);
                prop_assert_eq!(buf.len() - prefix.len(), indices_len(&indices));
                buf.extend_from_slice(b"tail");
                let mut rest = &buf[prefix.len()..];
                prop_assert_eq!(get_indices(&mut rest, indices.len()).unwrap(), indices);
                prop_assert_eq!(rest, b"tail");
            }

            /// Every cut of an encoding is a typed error, never a panic or
            /// a short read.
            #[test]
            fn every_truncation_is_corrupt(words in words()) {
                let indices = sequence(&words);
                let bytes = encoded(&indices);
                for cut in 0..bytes.len() {
                    prop_assert!(corrupt(get_indices(&mut &bytes[..cut], indices.len())), "cut {}", cut);
                }
            }

            /// A sixth byte, or a fifth that carries bits past 32, after
            /// any valid prefix is corrupt.
            #[test]
            fn overlong_and_out_of_range_after_any_prefix_are_corrupt(
                words in words(),
                low in prop::collection::vec(any::<u8>(), 4),
                fifth in 0x10u8..=0xFF,
                tail in prop::collection::vec(any::<u8>(), 0..8),
            ) {
                let indices = sequence(&words);
                let mut bytes = encoded(&indices);
                bytes.extend(low.iter().map(|b| b | 0x80));
                bytes.push(fifth);
                bytes.extend_from_slice(&tail);
                prop_assert!(corrupt(get_indices(&mut &bytes[..], indices.len() + 1)));
            }

            /// Arbitrary bytes and counts: indices or a typed error.
            #[test]
            fn arbitrary_bytes_decode_or_fail_typed(
                bytes in prop::collection::vec(any::<u8>(), 0..64),
                count in 0usize..80,
            ) {
                let mut rest = &bytes[..];
                match get_indices(&mut rest, count) {
                    Ok(indices) => prop_assert_eq!(indices.len(), count),
                    Err(err) => prop_assert!(matches!(err, CnrError::Corrupt(_))),
                }
            }
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
