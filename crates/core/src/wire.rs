//! Low-level wire helpers: framed primitives.
//!
//! Checkpoints must never be silently corrupt — a restored model with a few
//! flipped bits would train onward with degraded accuracy and nobody would
//! know (the failure mode the paper's accuracy criterion forbids). The
//! guard is the storage envelope's XXH64 ([`cnr_storage::envelope`]),
//! which every stored byte sits behind and every read site checks once.
//! Chunk and manifest frames are therefore bare `[len][data]`: since wire
//! v5 they carry no checksum of their own, and a frame is only ever read
//! out of an envelope that verified. Since wire v7 a chunk's row indices
//! are run-coded ([`put_indices`]): a run of consecutive rows costs one
//! varint for where it starts and one for how long it is, where wire v6
//! charged a delta varint, one byte at least, per row (and a `u32` index
//! took four before it).

use bytes::{Buf, BufMut};
use std::ops::Range;

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

/// Bytes of the LEB128 varint of `v`: one per 7 bits, at least one.
fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// The maximal runs of consecutive rows in `indices`, in order: what
/// [`put_indices`] stores, and what a chunk writer reads its rows' values
/// in (one slice per run). Panics unless `indices` ascends strictly.
pub fn row_runs(indices: &[u32]) -> impl Iterator<Item = Range<usize>> + '_ {
    let (mut rest, mut next) = (indices, 0);
    std::iter::from_fn(move || {
        let (&first, tail) = rest.split_first()?;
        let start = first as usize;
        assert!(start >= next, "row indices must ascend strictly");
        let run = tail.iter().zip(start + 1..).take_while(|&(&i, want)| i as usize == want);
        let more = run.count();
        rest = &tail[more..];
        next = start + 1 + more;
        Some(start..next)
    })
}

/// [`row_runs`] as stored: each run's head varint, `(gap << 1) | (len > 1)`
/// with `gap` the rows skipped since the previous run (the first counts
/// from row 0), and its length.
fn runs(indices: &[u32]) -> impl Iterator<Item = (u64, u64)> + '_ {
    let mut next = 0;
    row_runs(indices).map(move |run| {
        let (gap, len) = ((run.start - next) as u64, run.len() as u64);
        next = run.end;
        (gap << 1 | u64::from(len > 1), len)
    })
}

/// Bytes [`put_indices`] appends for `indices`.
pub fn indices_len(indices: &[u32]) -> usize {
    runs(indices)
        .map(|(head, len)| varint_len(head) + if len > 1 { varint_len(len - 2) } else { 0 })
        .sum()
}

/// Appends strictly ascending row indices, no count prefix, as runs of
/// consecutive rows: each run is the LEB128 varint of its head,
/// `(gap << 1) | (len > 1)`, where `gap` counts the rows skipped since the
/// previous run's last (the first run counts from 0), followed when
/// `len > 1` by the varint of `len − 2`. A run of 4096 rows from row 1000
/// costs four bytes; an isolated row with a gap under 64 costs one, under
/// 8192 two, and no varint takes more than five.
///
/// Panics unless `indices` ascends strictly: the format has no other
/// list to describe, so every decoded list ascends by construction.
pub fn put_indices(buf: &mut Vec<u8>, indices: &[u32]) {
    for (head, len) in runs(indices) {
        put_varint(buf, head);
        if len > 1 {
            put_varint(buf, len - 2);
        }
    }
}

/// Reads `count` indices written by [`put_indices`]: strictly ascending,
/// by construction. A truncated varint, one longer than five bytes, a run
/// ending past 2³² and a run holding more rows than `count` leaves are
/// [`CnrError::Corrupt`]. The list is allocated for `count` up front, so
/// the caller bounds `count` by what the input can hold
/// ([`crate::manifest`]'s chunk open does, by the row bodies).
pub fn get_indices(buf: &mut &[u8], count: usize) -> Result<Vec<u32>, CnrError> {
    let bytes = *buf;
    let mut indices = Vec::with_capacity(count);
    let (mut next, mut at) = (0u64, 0);
    while indices.len() < count {
        let head = get_varint(bytes, &mut at)?;
        let len = if head & 1 == 0 { 1 } else { get_varint(bytes, &mut at)? + 2 };
        // Varints hold at most 35 bits, so none of this overflows.
        let start = next + (head >> 1);
        next = start + len;
        if next > 1 << 32 {
            return Err(CnrError::Corrupt(format!(
                "row index run {start}..{next} ends past 2^32"
            )));
        }
        if len > (count - indices.len()) as u64 {
            return Err(CnrError::Corrupt(format!(
                "row index run of {len} rows overruns the chunk's {count}"
            )));
        }
        if len == 1 {
            indices.push(start as u32);
        } else {
            indices.extend((start..next).map(|i| i as u32));
        }
    }
    *buf = &bytes[at..];
    Ok(indices)
}

/// The varint at `bytes[*at..]`, at most five bytes (35 bits: a head's
/// `gap << 1` reaches 2³³). Every restore opens its chunks through this,
/// so the one- and two-byte varints (an isolated row's gap under 64 and
/// under 8192) are decoded inline.
#[inline]
fn get_varint(bytes: &[u8], at: &mut usize) -> Result<u64, CnrError> {
    // `at` never passes the end: it only moves over bytes read.
    match bytes[*at..] {
        [b0, ..] if b0 < 0x80 => {
            *at += 1;
            Ok(u64::from(b0))
        }
        [b0, b1, ..] if b1 < 0x80 => {
            *at += 2;
            Ok(u64::from(b0 & 0x7F) | u64::from(b1) << 7)
        }
        _ => get_long_varint(bytes, at),
    }
}

/// The varint at `bytes[*at..]`, past the one- and two-byte cases.
fn get_long_varint(bytes: &[u8], at: &mut usize) -> Result<u64, CnrError> {
    let mut value = 0u64;
    for shift in (0..35).step_by(7) {
        let Some(&byte) = bytes.get(*at) else {
            return Err(CnrError::Corrupt("row index varint truncated".into()));
        };
        *at += 1;
        value |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return Ok(value);
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

    /// What wire v6 charged for `indices`: the varint of each zigzagged
    /// step from the index before it (the first from 0), modulo 2³².
    fn v6_len(indices: &[u32]) -> usize {
        let mut prev = 0u32;
        let zigzag = |d: i32| ((d << 1) ^ (d >> 31)) as u32;
        indices
            .iter()
            .map(|&i| {
                let step = i.wrapping_sub(std::mem::replace(&mut prev, i)) as i32;
                varint_len(u64::from(zigzag(step)))
            })
            .sum()
    }

    /// What a run costs: its head (one byte for a gap under 64, two under
    /// 8192, five at most) and, for two rows or more, the varint of its
    /// length less two.
    #[test]
    fn index_sizes_are_pinned() {
        let run: Vec<u32> = (1000..1000 + 4096).collect();
        assert_eq!(indices_len(&run), 2 + 2, "head 2001, then 4094");
        assert_eq!(encoded(&run), [0xD1, 0x0F, 0xFE, 0x1F]);
        assert_eq!(v6_len(&run), 2 + 4095);
        let isolated: Vec<u32> = (0..100).map(|k| k * 64).collect();
        assert_eq!(indices_len(&isolated), 100, "gaps of 63 cost a byte each");
        assert_eq!(indices_len(&[64]), 2, "a gap of 64 takes two");
        assert_eq!(indices_len(&[8191, 16383 + 8192]), 2 + 3);
        assert_eq!(indices_len(&[0, 1]), 2, "a run of two: head 1, length 0");
        assert_eq!(indices_len(&(0..130).collect::<Vec<_>>()), 1 + 2, "length 128");
        assert_eq!(indices_len(&[u32::MAX]), 5);
        assert_eq!(v6_len(&[u32::MAX]), 1, "v6 stepped back by one, modulo 2^32");
        assert_eq!(indices_len(&[]), 0);
        assert_eq!(encoded(&[0, 1, 2, 5, 7, 8]), [1, 1, 4, 3, 0]);
        assert_eq!(get_indices(&mut &[1, 1, 4, 3, 0][..], 6).unwrap(), [0, 1, 2, 5, 7, 8]);
    }

    /// Only a strictly ascending list has an encoding: a repeated row and
    /// rows out of order are refused where they are written.
    #[test]
    fn put_indices_refuses_a_row_named_twice() {
        let outcome = std::panic::catch_unwind(|| encoded(&[3, 4, 4, 9]));
        assert!(outcome.is_err(), "a row named twice was encoded");
    }

    #[test]
    fn put_indices_refuses_rows_out_of_order() {
        for rows in [&[5, 4][..], &[0, 1, 2, 1], &[9, 10, 11, 3]] {
            let outcome = std::panic::catch_unwind(|| encoded(rows));
            assert!(outcome.is_err(), "{rows:?} was encoded");
        }
    }

    /// A varint past five bytes, a run ending past 2³² (the row range),
    /// a run overrunning the count and a truncated varint are corrupt.
    #[test]
    fn overlong_and_out_of_range_varints_are_corrupt() {
        let past_2_32 = {
            let mut buf = Vec::new();
            put_varint(&mut buf, u64::from(u32::MAX) << 1 | 1);
            put_varint(&mut buf, 0);
            buf
        };
        for (bytes, count, why) in [
            (&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00][..], 1, "longer than 5 bytes"),
            (&past_2_32, 2, "ends past 2^32"),
            (&[0xFE, 0xFF, 0xFF, 0xFF, 0x7F], 1, "ends past 2^32"),
            (&[1, 1], 2, "of 3 rows overruns the chunk's 2"),
            (&[0, 1, 0], 2, "of 2 rows overruns the chunk's 2"),
            (&[0x80, 0x80], 1, "truncated"),
            (&[1], 2, "truncated"),
            (&[], 1, "truncated"),
        ] {
            match get_indices(&mut { bytes }, count) {
                Err(CnrError::Corrupt(got)) => assert!(got.contains(why), "{got}"),
                other => panic!("{bytes:?} accepted: {other:?}"),
            }
        }
        // The last row a run may end on, alone and closing a run.
        assert_eq!(get_indices(&mut &encoded(&[u32::MAX])[..], 1).unwrap(), [u32::MAX]);
        let top = [u32::MAX - 2, u32::MAX - 1, u32::MAX];
        assert_eq!(get_indices(&mut &encoded(&top)[..], 3).unwrap(), top);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// A strictly ascending list, one run per random word: the gap
        /// before it is small, at a varint edge (63/64, 8191/8192) or
        /// uniform up to 2³², and it is one row (isolated), a few, one at
        /// the length varint's edge (129/130 rows) or up to 300. A run
        /// that would pass `u32::MAX` ends on it. (A gap of 0 joins two
        /// runs into one.)
        fn ascending(words: &[u64]) -> Vec<u32> {
            let mut out = Vec::new();
            let mut next = 0u64;
            for &word in words {
                let gap = match word & 3 {
                    0 => word >> 8 & 63,
                    1 => [63, 64, 8191, 8192][(word >> 8 & 3) as usize],
                    2 => word >> 8 & 0xFFFF_FFFF,
                    _ => 0,
                };
                let len = match word >> 2 & 3 {
                    0 => 1,
                    1 => 2 + (word >> 48 & 3),
                    2 => [128, 129, 130, 131][(word >> 48 & 3) as usize],
                    _ => 1 + (word >> 48) % 300,
                };
                // A gap past the last row lands the run on it.
                let start = (next + gap).min(u64::from(u32::MAX));
                if start < next {
                    break;
                }
                next = (start + len).min(1 << 32);
                out.extend((start..next).map(|i| i as u32));
            }
            out
        }

        fn words() -> impl Strategy<Value = Vec<u64>> {
            prop::collection::vec(any::<u64>(), 0..40)
        }

        proptest! {
            /// Round trip, exact size, and the decoder takes exactly the
            /// bytes written: what follows them is left where it was. No
            /// list costs more than wire v6 charged, unless one of its
            /// steps reaches 2³¹ — v6 coded such a step as a step back,
            /// modulo 2³², and the run's head can cost four bytes more;
            /// a strictly ascending list has at most one such step.
            #[test]
            fn indices_roundtrip_in_exactly_their_length(
                words in words(),
                prefix in prop::collection::vec(any::<u8>(), 0..4),
            ) {
                let indices = ascending(&words);
                prop_assert!(indices.windows(2).all(|w| w[0] < w[1]));
                let mut buf = prefix.clone();
                put_indices(&mut buf, &indices);
                let len = indices_len(&indices);
                prop_assert_eq!(buf.len() - prefix.len(), len);
                buf.extend_from_slice(b"tail");
                let mut rest = &buf[prefix.len()..];
                prop_assert_eq!(get_indices(&mut rest, indices.len()).unwrap(), &indices[..]);
                prop_assert_eq!(rest, b"tail");
                let mut prev = 0;
                let wide_step = indices
                    .iter()
                    .any(|&i| i - std::mem::replace(&mut prev, i) >= 1 << 31);
                prop_assert!(len <= v6_len(&indices) + 4 * wide_step as usize);
            }

            /// Every cut of an encoding is a typed error, never a panic or
            /// a short read.
            #[test]
            fn every_truncation_is_corrupt(words in words()) {
                let indices = ascending(&words);
                let bytes = encoded(&indices);
                for cut in 0..bytes.len() {
                    prop_assert!(corrupt(get_indices(&mut &bytes[..cut], indices.len())), "cut {}", cut);
                }
            }

            /// A sixth varint byte, or a run starting 2³⁴ rows on, after
            /// any valid prefix is corrupt.
            #[test]
            fn overlong_and_out_of_range_after_any_prefix_are_corrupt(
                words in words(),
                low in prop::collection::vec(any::<u8>(), 5),
                overlong in any::<bool>(),
                tail in prop::collection::vec(any::<u8>(), 0..8),
            ) {
                let indices = ascending(&words);
                let mut bytes = encoded(&indices);
                if overlong {
                    bytes.extend(low.iter().map(|b| b | 0x80));
                } else {
                    bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x40]);
                }
                bytes.extend_from_slice(&tail);
                prop_assert!(corrupt(get_indices(&mut &bytes[..], indices.len() + 1)));
            }

            /// Arbitrary bytes and counts: `count` strictly ascending
            /// indices or a typed error.
            #[test]
            fn arbitrary_bytes_decode_or_fail_typed(
                bytes in prop::collection::vec(any::<u8>(), 0..64),
                small in any::<bool>(),
                count in 0usize..1 << 16,
            ) {
                let count = if small { count % 80 } else { count };
                let mut rest = &bytes[..];
                match get_indices(&mut rest, count) {
                    Ok(indices) => {
                        prop_assert_eq!(indices.len(), count);
                        prop_assert!(indices.windows(2).all(|w| w[0] < w[1]));
                    }
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
