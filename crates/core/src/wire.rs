//! Low-level wire helpers: checksums and framed primitives.
//!
//! Checkpoints must never be silently corrupt — a restored model with a few
//! flipped bits would train onward with degraded accuracy and nobody would
//! know (the failure mode the paper's accuracy criterion forbids). Every
//! chunk and every manifest therefore carries a 64-bit frame checksum over
//! its payload, verified on read, inside the storage envelope's CRC-32
//! (see [`cnr_storage::envelope`]).
//!
//! Since wire v4 the frame checksum is XXH64 (seed 0). The earlier
//! FNV-1a-64 folds one byte per multiply into a single serial dependency
//! chain — 0.70 GB/s, the slowest stage of a full fp32 checkpoint once the
//! quantize and copy passes were fused — while XXH64 runs four independent
//! 64-bit lanes over 32-byte stripes (5.3 GB/s in safe Rust on the same
//! machine). The checksum is still 8 bytes, so no stored size changed; the
//! envelope CRC stays the end-to-end code with a guaranteed burst-error
//! bound.

use bytes::{Buf, BufMut};

use crate::error::CnrError;

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 lane step: folds an 8-byte little-endian `lane` into `acc`.
#[inline(always)]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// Folds a finished lane accumulator into the converged hash.
#[inline(always)]
fn xxh_merge(hash: u64, acc: u64) -> u64 {
    (hash ^ xxh_round(0, acc))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

#[inline(always)]
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("caller passes 8 bytes"))
}

/// The frame checksum: XXH64 of `data` with seed 0.
pub fn checksum(data: &[u8]) -> u64 {
    let mut stripes = data.chunks_exact(32);
    let mut hash = if data.len() >= 32 {
        // Four lanes with no dependency between them: the multiplies of
        // one stripe overlap instead of queueing behind each other.
        let mut v1 = PRIME_1.wrapping_add(PRIME_2);
        let mut v2 = PRIME_2;
        let mut v3 = 0u64;
        let mut v4 = 0u64.wrapping_sub(PRIME_1);
        for s in &mut stripes {
            v1 = xxh_round(v1, le_u64(&s[0..8]));
            v2 = xxh_round(v2, le_u64(&s[8..16]));
            v3 = xxh_round(v3, le_u64(&s[16..24]));
            v4 = xxh_round(v4, le_u64(&s[24..32]));
        }
        let converged = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        [v1, v2, v3, v4].into_iter().fold(converged, xxh_merge)
    } else {
        PRIME_5
    };
    hash = hash.wrapping_add(data.len() as u64);

    // The tail under 32 bytes: 8-byte words, then one 4-byte word, then bytes.
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        hash = (hash ^ xxh_round(0, le_u64(w)))
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let word = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as u64;
        hash = (hash ^ word.wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        rest = &rest[4..];
    }
    for &b in rest {
        hash = (hash ^ (b as u64).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME_3);
    hash ^ (hash >> 32)
}

/// Bytes of the `u32` length field a frame puts ahead of its data.
pub const FRAME_PREFIX: usize = 4;

/// Bytes a frame adds around its data: the `u32` length and the `u64`
/// checksum.
pub const FRAME_OVERHEAD: usize = FRAME_PREFIX + 8;

/// Appends `data` framed as `[len: u32][data][checksum: u64]`.
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

/// Closes the frame opened at `frame`: patches the length field and
/// appends the checksum of everything appended since.
pub fn end_frame(buf: &mut Vec<u8>, frame: usize) {
    let data_at = frame + FRAME_PREFIX;
    let len = buf.len() - data_at;
    assert!(len <= u32::MAX as usize, "frame exceeds u32 length field");
    buf[frame..data_at].copy_from_slice(&(len as u32).to_le_bytes());
    let sum = checksum(&buf[data_at..]);
    buf.put_u64_le(sum);
}

/// Reads one `[len][data][checksum]` frame, verifying the checksum over
/// the borrowed bytes (nothing is copied).
pub fn get_framed<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], CnrError> {
    if buf.remaining() < 4 {
        return Err(CnrError::Corrupt("frame header truncated".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len + 8 {
        return Err(CnrError::Corrupt("frame body truncated".into()));
    }
    let (data, rest) = buf.split_at(len);
    *buf = rest;
    let want = buf.get_u64_le();
    let got = checksum(data);
    if want != got {
        return Err(CnrError::Corrupt(format!(
            "frame checksum mismatch: stored {want:#x}, computed {got:#x}"
        )));
    }
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
    buf.put_u32_le(values.len() as u32);
    for &v in values {
        buf.put_f32_le(v);
    }
}

/// Reads a length-prefixed `f32` slice.
pub fn get_f32s(buf: &mut &[u8]) -> Result<Vec<f32>, CnrError> {
    if buf.remaining() < 4 {
        return Err(CnrError::Corrupt("f32s header truncated".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len * 4 {
        return Err(CnrError::Corrupt("f32s body truncated".into()));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(buf.get_f32_le());
    }
    Ok(out)
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

    /// XXH64 as the specification's pseudocode states it: a byte cursor,
    /// words assembled byte by byte, one step per paragraph of the spec.
    /// Shares only the five primes with [`checksum`].
    fn xxh64_by_the_spec(data: &[u8]) -> u64 {
        fn read(data: &[u8], at: usize, bytes: usize) -> u64 {
            (0..bytes).fold(0, |w, i| w | (data[at + i] as u64) << (8 * i))
        }
        fn round(acc: u64, lane: u64) -> u64 {
            let acc = acc.wrapping_add(lane.wrapping_mul(PRIME_2));
            acc.rotate_left(31).wrapping_mul(PRIME_1)
        }
        let len = data.len();
        let mut p = 0;
        let mut h;
        if len >= 32 {
            let mut acc = [
                PRIME_1.wrapping_add(PRIME_2),
                PRIME_2,
                0,
                0u64.wrapping_sub(PRIME_1),
            ];
            while p + 32 <= len {
                for (lane, a) in acc.iter_mut().enumerate() {
                    *a = round(*a, read(data, p + 8 * lane, 8));
                }
                p += 32;
            }
            h = acc[0]
                .rotate_left(1)
                .wrapping_add(acc[1].rotate_left(7))
                .wrapping_add(acc[2].rotate_left(12))
                .wrapping_add(acc[3].rotate_left(18));
            for a in acc {
                h ^= round(0, a);
                h = h.wrapping_mul(PRIME_1).wrapping_add(PRIME_4);
            }
        } else {
            h = PRIME_5;
        }
        h = h.wrapping_add(len as u64);
        while p + 8 <= len {
            h ^= round(0, read(data, p, 8));
            h = h.rotate_left(27).wrapping_mul(PRIME_1).wrapping_add(PRIME_4);
            p += 8;
        }
        if p + 4 <= len {
            h ^= read(data, p, 4).wrapping_mul(PRIME_1);
            h = h.rotate_left(23).wrapping_mul(PRIME_2).wrapping_add(PRIME_3);
            p += 4;
        }
        while p < len {
            h ^= read(data, p, 1).wrapping_mul(PRIME_5);
            h = h.rotate_left(11).wrapping_mul(PRIME_1);
            p += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME_3);
        h ^ (h >> 32)
    }

    /// Published XXH64 (seed 0) answers; between them the inputs take the
    /// stripe loop and every 8/4/1-byte tail path.
    #[test]
    fn checksum_matches_xxh64_known_answers() {
        for (text, want) in [
            (&b""[..], 0xEF46_DB37_51D8_E999u64),
            (b"a", 0xD24E_C4F1_A98C_6E5B),
            (b"abc", 0x44BC_2CF5_AD77_0999),
            (b"hello", 0x26C7_827D_889F_6DA3),
        ] {
            assert_eq!(checksum(text), want, "{:?}", String::from_utf8_lossy(text));
        }
        for (end, want) in [
            (31u8, 0xC346_D2B5_9B4D_8EE1u64),
            (63, 0xE26A_A9E2_A95F_8E4F),
            (100, 0x6AC1_E580_3216_6597),
        ] {
            let bytes: Vec<u8> = (0..end).collect();
            assert_eq!(checksum(&bytes), want, "0u8..{end}");
            assert_eq!(xxh64_by_the_spec(&bytes), want, "reference, 0u8..{end}");
        }
    }

    proptest::proptest! {
        #[test]
        fn checksum_equals_the_bytewise_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
        ) {
            proptest::prop_assert_eq!(checksum(&data), xxh64_by_the_spec(&data));
        }
    }

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

    /// Every single-bit flip of a frame — length field, data or checksum —
    /// is rejected `Corrupt`: it never decodes to the data, changed or not.
    #[test]
    fn framed_rejects_every_single_bit_flip() {
        let mut buf = Vec::new();
        put_framed(&mut buf, b"important checkpoint data, long enough for a stripe");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut corrupted = buf.clone();
                corrupted[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        get_framed(&mut corrupted.as_slice()),
                        Err(CnrError::Corrupt(_))
                    ),
                    "flip at byte {byte} bit {bit} went unnoticed"
                );
            }
        }
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
        let mut slice = buf.as_slice();
        assert_eq!(get_f32s(&mut slice).unwrap(), vals);
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
