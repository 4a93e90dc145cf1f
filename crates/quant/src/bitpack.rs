//! Dense bit-packing of quantization codes.
//!
//! An N-bit quantized embedding vector stores one integer in `[0, 2^N)` per
//! element. Packing those integers edge-to-edge (no per-element padding) is
//! where the checkpoint size reduction actually materializes: 2-bit codes are
//! 16× smaller than FP32 before parameter overhead. Codes are packed
//! LSB-first into a little-endian byte stream, supporting any width from 1 to
//! 16 bits.

/// Packs `codes`, each `bits` wide, into a byte vector.
///
/// Panics if `bits` is outside `1..=16` or any code needs more than `bits`
/// bits — silently truncating codes would corrupt checkpoints.
pub fn pack(codes: &[u16], bits: u8) -> Vec<u8> {
    assert!((1..=16).contains(&bits), "bits must be in 1..=16, got {bits}");
    let mask = mask_for(bits);
    if let Some(code) = codes.iter().find(|&&c| c > mask) {
        panic!("code {code} does not fit in {bits} bits (max {mask})");
    }
    let mut out = Vec::with_capacity(packed_len(codes.len(), bits));
    pack_into(codes, bits, &mut out);
    out
}

/// Appends `codes`, packed `bits` wide, to `out`: the packing loop behind
/// [`pack`] and the fused quantize-and-pack kernel. `out` must end on a
/// code boundary that is also a byte boundary (it does whenever whole
/// rows, or blocks of a multiple of 8 codes, are appended).
///
/// The caller guarantees every code fits `bits` — [`pack`] checks, the
/// quantization kernel clamps — so this only debug-asserts it.
pub(crate) fn pack_into(codes: &[u16], bits: u8, out: &mut Vec<u8>) {
    debug_assert!(
        (1..=16).contains(&bits),
        "bits must be in 1..=16, got {bits}"
    );
    debug_assert!(
        codes.iter().all(|&c| c <= mask_for(bits)),
        "oversized code for {bits} bits"
    );
    match bits {
        8 => out.extend(codes.iter().map(|&c| c as u8)),
        4 => pack_groups::<2>(codes, out),
        2 => pack_groups::<4>(codes, out),
        1 => pack_groups::<8>(codes, out),
        _ => {
            // Any width: an LSB-first bit accumulator. At most 7 bits are
            // pending when a code of at most 16 arrives.
            let mut acc = 0u32;
            let mut pending = 0u32;
            for &code in codes {
                acc |= (code as u32) << pending;
                pending += bits as u32;
                while pending >= 8 {
                    out.push(acc as u8);
                    acc >>= 8;
                    pending -= 8;
                }
            }
            if pending > 0 {
                out.push(acc as u8);
            }
        }
    }
}

/// Packs `PER` codes of `8 / PER` bits into each byte, LSB-first.
fn pack_groups<const PER: usize>(codes: &[u16], out: &mut Vec<u8>) {
    let bits = 8 / PER;
    let byte = |group: &[u16]| {
        let codes = group.iter().enumerate();
        codes.fold(0u16, |byte, (j, &c)| byte | c << (j * bits)) as u8
    };
    // Whole bytes as groups of a length the compiler knows, then the
    // codes of a last partial byte.
    let whole = codes.chunks_exact(PER);
    let tail = whole.remainder();
    out.extend(whole.map(byte));
    if !tail.is_empty() {
        out.push(byte(tail));
    }
}

/// Unpacks `n` codes of width `bits` from `bytes`.
///
/// Returns `None` when `bytes` is too short to hold `n` codes.
pub fn unpack(bytes: &[u8], bits: u8, n: usize) -> Option<Vec<u16>> {
    assert!((1..=16).contains(&bits), "bits must be in 1..=16, got {bits}");
    if bytes.len() < packed_len(n, bits) {
        return None;
    }
    let mut out = vec![0u16; n];
    let code = |c| c;
    match bits {
        8 => unpack_grouped_with::<8, _>(bytes, &mut out, code),
        4 => unpack_grouped_with::<4, _>(bytes, &mut out, code),
        2 => unpack_grouped_with::<2, _>(bytes, &mut out, code),
        1 => unpack_grouped_with::<1, _>(bytes, &mut out, code),
        _ => unpack_any_with(bytes, bits, &mut out, code),
    }
    Some(out)
}

/// Unpacks `out.len()` codes `BITS` wide — 1, 2, 4 or 8, the widths that
/// fill whole bytes — from the front of `bytes`, LSB-first, and writes
/// `value(code)` for each: the grouped half of the one set of unpack
/// loops, behind [`unpack`] and the de-quantization kernel alike.
/// `bytes` must hold at least `packed_len(out.len(), BITS)` bytes.
#[inline(always)]
pub(crate) fn unpack_grouped_with<const BITS: usize, T>(
    bytes: &[u8],
    out: &mut [T],
    value: impl Fn(u16) -> T,
) {
    let per = 8 / BITS;
    let mask = ((1u32 << BITS) - 1) as u16;
    let unpack = |group: &mut [T], byte: u8| {
        for (j, o) in group.iter_mut().enumerate() {
            *o = value((byte as u16 >> (j * BITS)) & mask);
        }
    };
    // Whole bytes first, as groups of a length the compiler knows (it
    // unrolls and vectorizes them); then the codes of a last partial byte.
    let full = out.len() / per;
    let mut groups = out.chunks_exact_mut(per);
    for (group, &byte) in (&mut groups).zip(&bytes[..full]) {
        unpack(group, byte);
    }
    let tail = groups.into_remainder();
    if !tail.is_empty() {
        unpack(tail, bytes[full]);
    }
}

/// [`unpack_grouped_with`] for any width from 1 to 16: an LSB-first bit
/// accumulator, which holds at most 7 bits when a code of at most 16 is
/// read.
#[inline(always)]
pub(crate) fn unpack_any_with<T>(bytes: &[u8], bits: u8, out: &mut [T], value: impl Fn(u16) -> T) {
    let mask = mask_for(bits) as u32;
    let mut bytes = bytes[..packed_len(out.len(), bits)].iter();
    let mut acc = 0u32;
    let mut pending = 0u32;
    for o in out {
        while pending < bits as u32 {
            acc |= (*bytes.next().expect("sliced to the packed length") as u32) << pending;
            pending += 8;
        }
        *o = value((acc & mask) as u16);
        acc >>= bits;
        pending -= bits as u32;
    }
}

/// Bytes needed to hold `n` codes of width `bits`.
pub const fn packed_len(n: usize, bits: u8) -> usize {
    (n * bits as usize).div_ceil(8)
}

/// Largest code representable in `bits` bits.
pub const fn mask_for(bits: u8) -> u16 {
    if bits >= 16 {
        u16::MAX
    } else {
        (1u16 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_len_examples() {
        assert_eq!(packed_len(0, 4), 0);
        assert_eq!(packed_len(1, 1), 1);
        assert_eq!(packed_len(8, 1), 1);
        assert_eq!(packed_len(9, 1), 2);
        assert_eq!(packed_len(64, 2), 16);
        assert_eq!(packed_len(64, 3), 24);
        assert_eq!(packed_len(5, 16), 10);
    }

    #[test]
    fn roundtrip_all_bit_widths() {
        for bits in 1..=16u8 {
            let mask = mask_for(bits);
            let codes: Vec<u16> = (0..100u32).map(|i| (i * 7 % (mask as u32 + 1)) as u16).collect();
            let packed = pack(&codes, bits);
            assert_eq!(packed.len(), packed_len(codes.len(), bits));
            let unpacked = unpack(&packed, bits, codes.len()).unwrap();
            assert_eq!(codes, unpacked, "roundtrip failed at {bits} bits");
        }
    }

    #[test]
    fn roundtrip_extreme_codes() {
        for bits in 1..=16u8 {
            let mask = mask_for(bits);
            let codes = vec![0u16, mask, 0, mask, mask];
            let unpacked = unpack(&pack(&codes, bits), bits, codes.len()).unwrap();
            assert_eq!(codes, unpacked);
        }
    }

    #[test]
    fn unpack_short_buffer_is_none() {
        let packed = pack(&[1, 2, 3], 8);
        assert!(unpack(&packed[..2], 8, 3).is_none());
    }

    #[test]
    fn empty_input() {
        assert!(pack(&[], 4).is_empty());
        assert_eq!(unpack(&[], 4, 0), Some(vec![]));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_code_panics() {
        pack(&[4], 2);
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=16")]
    fn zero_bits_panics() {
        pack(&[0], 0);
    }

    #[test]
    fn eight_bit_packing_is_identity() {
        // Width 8 must produce exactly the raw bytes: the packed stream has
        // no framing or padding of its own.
        let codes: Vec<u16> = (0..=255u16).collect();
        let packed = pack(&codes, 8);
        let raw: Vec<u8> = codes.iter().map(|&c| c as u8).collect();
        assert_eq!(packed, raw);
        assert_eq!(unpack(&packed, 8, codes.len()).unwrap(), codes);
    }

    #[test]
    fn sixteen_bit_packing_is_little_endian_u16() {
        let codes = vec![0x0000u16, 0x00FF, 0xFF00, 0xABCD, u16::MAX];
        let packed = pack(&codes, 16);
        let raw: Vec<u8> = codes.iter().flat_map(|c| c.to_le_bytes()).collect();
        assert_eq!(packed, raw);
        assert_eq!(unpack(&packed, 16, codes.len()).unwrap(), codes);
    }

    #[test]
    fn one_bit_packing_is_dense() {
        // 8 one-bit codes fit exactly one byte, LSB-first.
        let codes = vec![1u16, 0, 1, 1, 0, 0, 1, 0];
        let packed = pack(&codes, 1);
        assert_eq!(packed, vec![0b0100_1101]);
        assert_eq!(unpack(&packed, 1, 8).unwrap(), codes);
    }

    #[test]
    fn unpack_ignores_trailing_bytes() {
        // A longer buffer than needed is fine: decoders hand whole chunk
        // bodies to unpack and rely on `n` for the element count.
        let mut packed = pack(&[5u16, 9, 2], 4);
        packed.extend_from_slice(&[0xFF, 0xEE]);
        assert_eq!(unpack(&packed, 4, 3).unwrap(), vec![5, 9, 2]);
    }

    #[test]
    fn three_bit_alignment_crosses_bytes() {
        // 3-bit codes cross byte boundaries at every third code.
        let codes: Vec<u16> = vec![0b101, 0b011, 0b110, 0b001, 0b111, 0b000, 0b010, 0b100];
        let packed = pack(&codes, 3);
        assert_eq!(packed.len(), 3);
        assert_eq!(unpack(&packed, 3, 8).unwrap(), codes);
    }
}
