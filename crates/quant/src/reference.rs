//! Frozen reference codecs — the oracle the kernels are tested against.
//!
//! These are the original row-object implementations, kept verbatim: one
//! `Vec<u16>` of codes and one `Vec<f32>` of de-quantized values per
//! trial, `f32::round`, bit-at-a-time packing. They are compiled for tests
//! only and must not be "improved": [`crate::kernel`] and everything built
//! on it is required to reproduce their output bit for bit, and the
//! property tests below are what says so. The `f32` grids are what the
//! range search compares; the binary16 row parameters a row stores are
//! written the same way, from their definition: each rounding steps
//! through binary16 patterns with the conversion functions, the adaptive
//! scheme's grid comparison re-quantizes both rows, and a row its scheme
//! cannot describe is stored as its fp32 values.

use crate::codec::QuantizedRow;
use crate::error::row_l2_error;
use crate::params::QuantParams;
use crate::scheme::QuantScheme;

/// The in-order range scan: one chain over the row, a NaN element skipped,
/// a tie keeping the earlier operand. This is what the original
/// `lo = lo.min(x)` / `hi = hi.max(x)` loop computed as compiled (`f32::min`
/// itself leaves the sign of a zero result open), written out so it means
/// the same on every target.
pub(crate) fn min_max(row: &[f32]) -> (f32, f32) {
    if row.is_empty() {
        return (0.0, 0.0);
    }
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in row {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    (lo, hi)
}

/// `(scale, zero_point)` of the `f32` grid spanning `[xmin, xmax]`.
pub(crate) fn uniform_params(xmin: f32, xmax: f32, bits: u8) -> (f32, f32) {
    let levels = (1u32 << bits) - 1;
    let range = xmax - xmin;
    let scale = if range > 0.0 && range.is_finite() {
        range / levels as f32
    } else {
        0.0
    };
    (scale, xmin)
}

pub(crate) fn uniform_quantize_value(x: f32, scale: f32, zero_point: f32, bits: u8) -> u16 {
    let levels = (1u32 << bits) - 1;
    if scale <= 0.0 {
        return 0;
    }
    let q = ((x - zero_point) / scale).round();
    if q <= 0.0 {
        0
    } else if q >= levels as f32 {
        levels as u16
    } else {
        q as u16
    }
}

/// Codes of `row` on the `f32` grid spanning `[xmin, xmax]`, and the
/// grid's `(scale, zero_point)`.
pub(crate) fn quantize_with_range(
    row: &[f32],
    xmin: f32,
    xmax: f32,
    bits: u8,
) -> (Vec<u16>, (f32, f32)) {
    let (scale, zero_point) = uniform_params(xmin, xmax, bits);
    let codes = row
        .iter()
        .map(|&x| uniform_quantize_value(x, scale, zero_point, bits))
        .collect();
    (codes, (scale, zero_point))
}

/// The value uniform code `code` stands for.
fn uniform_value(scale: f32, zero_point: f32, code: u16) -> f32 {
    scale * code as f32 + zero_point
}

/// `(xmin, xmax, l2_error, steps)` of the greedy search.
pub(crate) fn search_range(
    row: &[f32],
    bits: u8,
    num_bins: u32,
    ratio: f64,
) -> (f32, f32, f64, usize) {
    let (full_min, full_max) = min_max(row);
    let range = full_max - full_min;

    let eval = |lo: f32, hi: f32| -> f64 {
        let (codes, (scale, zero_point)) = quantize_with_range(row, lo, hi, bits);
        let back: Vec<f32> = codes
            .iter()
            .map(|&c| uniform_value(scale, zero_point, c))
            .collect();
        row_l2_error(row, &back)
    };

    let mut best = (full_min, full_max, eval(full_min, full_max));
    if range <= 0.0 || !range.is_finite() {
        return (best.0, best.1, best.2, 0);
    }

    let step = range / num_bins as f32;
    let budget = ratio * range as f64;
    let mut lo = full_min;
    let mut hi = full_max;
    let mut consumed = 0.0f64;
    let mut steps = 0usize;

    while consumed + step as f64 <= budget + 1e-12 && hi - lo > step {
        let before = (lo, hi);
        let err_lo = eval(lo + step, hi);
        let err_hi = eval(lo, hi - step);
        if err_lo <= err_hi {
            lo += step;
            if err_lo < best.2 {
                best = (lo, hi, err_lo);
            }
        } else {
            hi -= step;
            if err_hi < best.2 {
                best = (lo, hi, err_hi);
            }
        }
        consumed += step as f64;
        steps += 1;
        // The one edit since the freeze. A step that rounds away when added
        // to its end point leaves the search where it was, to repeat the
        // same step; on a range under `1e-12` the budget test never ends
        // that, and the original loop did not return. Nothing it would
        // have gone on to compute could differ from what it has.
        if (lo, hi) == before {
            break;
        }
    }
    (best.0, best.1, best.2, steps)
}

/// The original binary16 widening: a normalising loop for subnormals and
/// a branch per class.
pub(crate) fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign, // signed zero
        (0, m) => {
            // Subnormal: normalize.
            let mut e = -1i32;
            let mut m = m;
            while m & 0x0400 == 0 {
                m <<= 1;
                e += 1;
            }
            let exp32 = (127 - 15 - e) as u32;
            sign | (exp32 << 23) | ((m & 0x03FF) << 13)
        }
        (0x1F, 0) => sign | 0x7F80_0000, // infinity
        (0x1F, _) => sign | 0x7FC0_0000, // NaN
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

pub(crate) fn pack(codes: &[u16], bits: u8) -> Vec<u8> {
    let mut out = vec![0u8; (codes.len() * bits as usize).div_ceil(8)];
    let mut bit_pos = 0usize;
    for &code in codes {
        let byte = bit_pos / 8;
        let shift = bit_pos % 8;
        let v = (code as u32) << shift;
        out[byte] |= (v & 0xFF) as u8;
        if v > 0xFF && byte + 1 < out.len() {
            out[byte + 1] |= ((v >> 8) & 0xFF) as u8;
        }
        if v > 0xFFFF && byte + 2 < out.len() {
            out[byte + 2] |= ((v >> 16) & 0xFF) as u8;
        }
        bit_pos += bits as usize;
    }
    out
}

pub(crate) fn unpack(bytes: &[u8], bits: u8, n: usize) -> Vec<u16> {
    let mask = if bits >= 16 {
        u16::MAX as u32
    } else {
        (1u32 << bits) - 1
    };
    let mut out = Vec::with_capacity(n);
    let mut bit_pos = 0usize;
    for _ in 0..n {
        let byte = bit_pos / 8;
        let shift = bit_pos % 8;
        let mut v = bytes[byte] as u32 >> shift;
        if byte + 1 < bytes.len() {
            v |= (bytes[byte + 1] as u32) << (8 - shift);
        }
        if shift > 0 && byte + 2 < bytes.len() {
            v |= (bytes[byte + 2] as u32) << (16 - shift);
        }
        out.push((v & mask) as u16);
        bit_pos += bits as usize;
    }
    out
}

/// The least binary16 value `>= x` (finite, within the binary16 range),
/// stepping from the nearest one pattern by pattern; zero is `+0.0`.
fn half_at_or_above(x: f32) -> f32 {
    let mut h = crate::half::f32_to_f16_bits(x);
    while f16_bits_to_f32(h) < x {
        h = match h {
            0x8000 => 0x0001,
            0x8001..=0xFFFF => h - 1,
            _ => h + 1,
        };
    }
    f16_bits_to_f32(h) + 0.0
}

/// The greatest binary16 value `<= x`.
fn half_at_or_below(x: f32) -> f32 {
    -half_at_or_above(-x)
}

/// The nearest binary16 value to `x`.
fn nearest_half(x: f32) -> f32 {
    f16_bits_to_f32(crate::half::f32_to_f16_bits(x))
}

/// Binary16 parameters for `[xmin, xmax]`: the zero point rounded up, the
/// scale to nearest — rounded down instead if that leaves `xmax` below
/// the top code — and no scale at all for a span under `2^-10` of the
/// zero point's magnitude.
pub(crate) fn uniform_params_f16(xmin: f32, xmax: f32, bits: u8) -> QuantParams {
    let levels = (1u32 << bits) - 1;
    let zero_point = half_at_or_above(xmin);
    let step = (xmax - zero_point) / levels as f32;
    let mut scale = if step > 0.0 { nearest_half(step) } else { 0.0 };
    if scale > 0.0 && uniform_quantize_value(xmax, scale, zero_point, bits) < levels as u16 {
        scale = half_at_or_below(step);
    }
    if scale * (levels as f32) < zero_point.abs() / 1024.0 {
        scale = 0.0;
    }
    QuantParams::Uniform { scale, zero_point }
}

/// Codes of `row` on uniform `params`.
fn codes_on(row: &[f32], params: QuantParams, bits: u8) -> Vec<u16> {
    let QuantParams::Uniform { scale, zero_point } = params else {
        unreachable!()
    };
    row.iter()
        .map(|&x| uniform_quantize_value(x, scale, zero_point, bits))
        .collect()
}

/// Whether `scheme` can describe every value of `row`: a uniform scheme
/// the finite values at most 32752 in magnitude, fp16 every value but a
/// finite one binary16 rounds to infinity.
fn describes(scheme: &QuantScheme, row: &[f32]) -> bool {
    match scheme {
        QuantScheme::Fp32 => true,
        QuantScheme::Fp16 => row.iter().all(|&x| {
            !x.is_finite() || f16_bits_to_f32(crate::half::f32_to_f16_bits(x)).is_finite()
        }),
        _ => row.iter().all(|x| x.is_finite() && x.abs() <= 32752.0),
    }
}

pub(crate) fn quantize_row(scheme: &QuantScheme, row: &[f32]) -> QuantizedRow {
    let from_codes = |codes: Vec<u16>, params: QuantParams, bits: u8| QuantizedRow {
        params,
        payload: pack(&codes, bits),
        dim: row.len(),
        bits,
    };
    let on_range = |xmin: f32, xmax: f32, bits: u8| {
        let params = uniform_params_f16(xmin, xmax, bits);
        (codes_on(row, params, bits), params)
    };
    let scheme = if describes(scheme, row) {
        *scheme
    } else {
        QuantScheme::Fp32
    };
    match scheme {
        QuantScheme::Fp32 => {
            let mut payload = Vec::with_capacity(row.len() * 4);
            for &x in row {
                payload.extend_from_slice(&x.to_le_bytes());
            }
            QuantizedRow {
                params: QuantParams::Fp32,
                payload,
                dim: row.len(),
                bits: 32,
            }
        }
        QuantScheme::Fp16 => {
            let codes = row
                .iter()
                .map(|&x| crate::half::f32_to_f16_bits(x))
                .collect();
            from_codes(codes, QuantParams::Fp16, 16)
        }
        QuantScheme::Symmetric { bits } => {
            let xmax = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let (codes, params) = on_range(-xmax, xmax, bits);
            from_codes(codes, params, bits)
        }
        QuantScheme::Asymmetric { bits } => {
            let (xmin, xmax) = min_max(row);
            let (codes, params) = on_range(xmin, xmax, bits);
            from_codes(codes, params, bits)
        }
        QuantScheme::AdaptiveAsymmetric {
            bits,
            num_bins,
            ratio,
        } => {
            let (xmin, xmax, _, _) = search_range(row, bits, num_bins, ratio);
            let (mut codes, mut params) = on_range(xmin, xmax, bits);
            // Rounding can reorder two close grids: the searched range is
            // kept unless the rounded full range is strictly better.
            let (lo, hi) = min_max(row);
            let (naive_codes, naive) = on_range(lo, hi, bits);
            let error = |codes: &[u16], params: QuantParams| {
                let back: Vec<f32> = codes.iter().map(|&c| value_of(params, c)).collect();
                row_l2_error(row, &back)
            };
            if error(&naive_codes, naive) < error(&codes, params) {
                (codes, params) = (naive_codes, naive);
            }
            from_codes(codes, params, bits)
        }
    }
}

/// The value code `code` stands for under fp16 or uniform `params`.
fn value_of(params: QuantParams, code: u16) -> f32 {
    match params {
        QuantParams::Fp16 => f16_bits_to_f32(code),
        QuantParams::Uniform { scale, zero_point } => uniform_value(scale, zero_point, code),
        QuantParams::Fp32 => unreachable!("fp32 rows are decoded bytewise"),
    }
}

pub(crate) fn dequantize(row: &QuantizedRow) -> Vec<f32> {
    match &row.params {
        QuantParams::Fp32 => row
            .payload
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect(),
        &params => unpack(&row.payload, row.bits, row.dim)
            .iter()
            .map(|&c| value_of(params, c))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive;
    use crate::bitpack;
    use crate::codec::{decode_body_to, ROW_HEADER_LEN};
    use crate::kernel::{quantize_codes, Grid};
    use proptest::prelude::*;

    /// One generated row: ordinary values with the shapes that break
    /// quantizers mixed in.
    fn build_row(dim: usize, shape: u8, seed: u64, bits: u8) -> Vec<f32> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut unit = move || (next() >> 40) as f32 / (1u64 << 24) as f32;
        let levels = ((1u32 << bits.min(16)) - 1) as f32;
        let mut row: Vec<f32> = match shape % 8 {
            // Embedding-like: small, skewed off zero.
            0 | 1 => (0..dim).map(|_| (unit() - 0.4) * 0.2).collect(),
            // Constant.
            2 => vec![unit() - 0.5; dim],
            // Exact .5 ties: values midway between grid points of [0, levels].
            3 => (0..dim)
                .map(|i| match i {
                    0 => 0.0,
                    1 => levels,
                    _ => ((i % 7) as f32 + 0.5).min(levels),
                })
                .collect(),
            // Denormals.
            4 => (0..dim)
                .map(|_| f32::from_bits((unit() * 8_000_000.0) as u32))
                .collect(),
            // Wide dynamic range.
            5 => (0..dim).map(|_| (unit() - 0.5) * 1e30).collect(),
            _ => (0..dim).map(|_| unit() * 2.0 - 1.0).collect(),
        };
        // Special values dropped into an otherwise ordinary row.
        if dim == 0 {
            return row;
        }
        let at = (seed >> 8) as usize % dim;
        match (shape / 8) % 6 {
            1 => row[at] = f32::NAN,
            2 => row[at] = f32::INFINITY,
            3 => row[at] = f32::NEG_INFINITY,
            4 => row[at] = 50.0, // single outlier
            5 => {
                row[at] = f32::NAN;
                row[(at + 1) % dim] = f32::NEG_INFINITY;
            }
            _ => {}
        }
        row
    }

    fn scheme_for(kind: u8, bits: u8, num_bins: u32, ratio: f64) -> QuantScheme {
        match kind % 5 {
            0 => QuantScheme::Fp32,
            1 => QuantScheme::Fp16,
            2 => QuantScheme::Symmetric { bits },
            3 => QuantScheme::Asymmetric { bits },
            _ => QuantScheme::AdaptiveAsymmetric {
                bits,
                num_bins,
                ratio,
            },
        }
    }

    fn bits_of(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Same bits, or both NaN (a NaN's payload is not part of the contract).
    fn same_error(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    proptest! {
        /// `quantize_rows_into` of one row == reference quantize +
        /// `encode_body_into`, `quantize_row` == reference row,
        /// `quantize_rows_into` over a chunk == the reference rows'
        /// bodies, flat and in-place decode
        /// == reference `dequantize`, bit for bit, for every scheme.
        #[test]
        fn fused_rows_equal_reference_rows(
            dim in 1usize..=130,
            bits_idx in 0usize..9,
            kind in 0u8..5,
            shape in 0u8..48,
            num_bins in 1u32..=50,
            ratio_pct in 1u32..=100,
            seed in any::<u64>(),
            rest in 0usize..=4,
        ) {
            let bits = [1u8, 2, 3, 4, 5, 6, 7, 8, 16][bits_idx];
            let scheme = scheme_for(kind, bits, num_bins, ratio_pct as f64 / 100.0);
            let row = build_row(dim, shape, seed, bits);

            let want = quantize_row(&scheme, &row);
            let mut want_body = Vec::new();
            want.encode_body_into(&mut want_body);

            let got = scheme.quantize_row(&row);
            prop_assert_eq!(&got.payload, &want.payload, "{} payload", scheme);
            prop_assert_eq!(got.bits, want.bits);
            prop_assert_eq!(got.dim, want.dim);
            // Params compared through their encoding: NaN-safe and exact.
            let mut got_body = Vec::new();
            got.encode_body_into(&mut got_body);
            prop_assert_eq!(&got_body, &want_body, "{} row object", scheme);

            let stored = scheme.stored_for([&row[..]]);
            prop_assert_eq!(stored.kind_tag(), want.kind_tag(), "{} tag", scheme);
            let mut fused = vec![0xEEu8; 3];
            stored.quantize_rows_into(&row, dim, &mut fused);
            prop_assert_eq!(&fused[3..], &want_body[..], "{} quantize_rows_into", scheme);
            prop_assert_eq!(want_body.len(), stored.body_len(dim));
            prop_assert_eq!(want.byte_size(), ROW_HEADER_LEN + stored.body_len(dim));
            prop_assert_eq!(want.byte_size(), stored.bytes_per_row(dim));

            // A chunk of rows in one call: the row, then `rest` more of
            // its shape, stored under the scheme their values decide.
            let chunk: Vec<f32> = (0..=rest as u64)
                .flat_map(|k| if k == 0 { row.clone() } else { build_row(dim, shape, seed ^ k, bits) })
                .collect();
            let chunk_scheme = scheme.stored_for(chunk.chunks(dim));
            let mut chunk_body = Vec::new();
            chunk_scheme.quantize_rows_into(&chunk, dim, &mut chunk_body);
            let mut want_chunk = Vec::new();
            for one in chunk.chunks(dim) {
                quantize_row(&chunk_scheme, one).encode_body_into(&mut want_chunk);
            }
            prop_assert_eq!(&chunk_body, &want_chunk, "{} chunk of {}", scheme, rest + 1);

            let want_values = dequantize(&want);
            prop_assert_eq!(bits_of(&got.dequantize()), bits_of(&want_values), "{} dequantize", scheme);
            // Into a caller's slice: every element overwritten, none beside it.
            let mut placed = vec![f32::NAN; dim + 2];
            let mut cursor = &want_body[..];
            decode_body_to(&mut cursor, want.kind_tag(), want.bits, &mut placed[1..=dim]).unwrap();
            prop_assert!(cursor.is_empty());
            prop_assert_eq!(bits_of(&placed[1..=dim]), bits_of(&want_values), "{} slice decode", scheme);
            prop_assert!(placed[0].is_nan() && placed[dim + 1].is_nan());
        }

        /// The pruned search returns the identical range and error (bit
        /// equal) in no more steps than the unpruned one.
        #[test]
        fn fused_search_equals_reference_search(
            dim in 1usize..=130,
            bits_idx in 0usize..9,
            shape in 0u8..48,
            num_bins in 1u32..=50,
            ratio_pct in 1u32..=100,
            seed in any::<u64>(),
        ) {
            let bits = [1u8, 2, 3, 4, 5, 6, 7, 8, 16][bits_idx];
            let ratio = ratio_pct as f64 / 100.0;
            let row = build_row(dim, shape, seed, bits);
            let (xmin, xmax, l2_error, steps) = search_range(&row, bits, num_bins, ratio);
            let got = adaptive::search_range(&row, bits, num_bins, ratio);
            prop_assert_eq!(got.xmin.to_bits(), xmin.to_bits());
            prop_assert_eq!(got.xmax.to_bits(), xmax.to_bits());
            prop_assert!(same_error(got.l2_error, l2_error), "{} vs {}", got.l2_error, l2_error);
            prop_assert!(got.steps <= steps, "{} steps vs {}", got.steps, steps);
        }

        /// Element kernel and packing loops against their originals.
        #[test]
        fn kernels_equal_reference_kernels(
            dim in 0usize..=130,
            bits in 1u8..=16,
            shape in 0u8..48,
            lo in -2.0f32..2.0,
            width in 0.0f32..4.0,
            seed in any::<u64>(),
        ) {
            let row = build_row(dim, shape, seed, bits);
            let grid = Grid::for_range(lo, lo + width, bits);
            let mut codes = vec![0u16; dim];
            quantize_codes(&row, grid, &mut codes);
            let (want_codes, (scale, zero_point)) = quantize_with_range(&row, lo, lo + width, bits);
            prop_assert_eq!(&codes, &want_codes);
            prop_assert_eq!((grid.scale, grid.zero_point), (scale, zero_point));
            let packed = bitpack::pack(&codes, bits);
            prop_assert_eq!(&packed, &pack(&want_codes, bits));
            prop_assert_eq!(bitpack::unpack(&packed, bits, dim).unwrap(), unpack(&packed, bits, dim));
            // The lane-wise range scan against the in-order chain.
            prop_assert_eq!(range_bits(crate::uniform::min_max(&row)), range_bits(min_max(&row)));
        }

        /// The binary16 grid against the reference's pattern-stepping
        /// roundings, on ranges from `1e-9` wide to the widest binary16
        /// parameters allow, offset from zero by up to `1e4` times their
        /// width.
        #[test]
        fn half_grids_equal_reference_grids(
            bits in 1u8..=16,
            width_exp in -9.0f32..4.5,
            offset in -1.0f32..1.0,
            offset_exp in -9.0f32..4.0,
        ) {
            let width = 10f32.powf(width_exp);
            let lo = (offset * 10f32.powf(offset_exp)).clamp(-32752.0, 32752.0 - width);
            let hi = lo + width;
            let grid = Grid::half_for_range(lo, hi, bits);
            let got = QuantParams::Uniform { scale: grid.scale, zero_point: grid.zero_point };
            let want = uniform_params_f16(lo, hi, bits);
            let mut got_bytes = Vec::new();
            let mut want_bytes = Vec::new();
            got.encode_into(&mut got_bytes);
            want.encode_into(&mut want_bytes);
            prop_assert_eq!(got_bytes, want_bytes, "[{}, {}] at {} bits", lo, hi, bits);
            prop_assert_eq!(got, want, "binary16 values, +0.0 for zero");
        }
    }

    fn range_bits((lo, hi): (f32, f32)) -> (u32, u32) {
        (lo.to_bits(), hi.to_bits())
    }

    /// Zeros of both signs, NaN and nothing at all, at every position of
    /// every lane: the lane-wise scan returns the in-order chain's bits.
    /// The literal expectations are what the original `f32::min`/`max` loop
    /// returned before it was replaced.
    #[test]
    fn range_scan_keeps_zero_signs_and_skips_nan() {
        const NAN: f32 = f32::NAN;
        const INF: f32 = f32::INFINITY;
        let literal: [(&[f32], (f32, f32)); 9] = [
            (&[], (0.0, 0.0)),
            (&[0.0, -0.0], (0.0, 0.0)),
            (&[-0.0, 0.0], (-0.0, -0.0)),
            (&[1.0, 0.0, -0.0], (0.0, 1.0)),
            (&[1.0, -0.0, 0.0], (-0.0, 1.0)),
            (&[-1.0, 0.0, -0.0], (-1.0, 0.0)),
            (&[-1.0, -0.0, 0.0], (-1.0, -0.0)),
            (&[NAN, -0.0, 0.0, NAN], (-0.0, -0.0)),
            (&[NAN, NAN], (INF, -INF)),
        ];
        for (row, want) in literal {
            assert_eq!(range_bits(min_max(row)), range_bits(want), "oracle {row:?}");
            let got = crate::uniform::min_max(row);
            assert_eq!(range_bits(got), range_bits(want), "{row:?}");
        }
        // Every length across three blocks, every pair of positions for the
        // two zeros, on rows whose other elements are all positive, all
        // negative, or NaN.
        for dim in 1..=25usize {
            for fill in [1.5f32, -1.5, NAN] {
                for a in 0..dim {
                    for b in 0..dim {
                        let mut row = vec![fill; dim];
                        row[a] = 0.0;
                        row[b] = -0.0;
                        assert_eq!(
                            range_bits(crate::uniform::min_max(&row)),
                            range_bits(min_max(&row)),
                            "{row:?}"
                        );
                    }
                }
            }
        }
    }

    /// Pruned against unpruned on one row: the same range and error, bit
    /// for bit, in no more steps. Returns `(pruned, unpruned)` step counts.
    fn assert_same_search(row: &[f32], bits: u8, num_bins: u32, ratio: f64) -> (usize, usize) {
        let (xmin, xmax, l2_error, steps) = search_range(row, bits, num_bins, ratio);
        let got = adaptive::search_range(row, bits, num_bins, ratio);
        let case = format!("bits {bits} bins {num_bins} ratio {ratio} row {row:?}");
        assert_eq!(
            range_bits((got.xmin, got.xmax)),
            range_bits((xmin, xmax)),
            "{case}"
        );
        assert!(
            same_error(got.l2_error, l2_error),
            "{} vs {l2_error}: {case}",
            got.l2_error
        );
        assert!(got.steps <= steps, "{} steps vs {steps}: {case}", got.steps);
        (got.steps, steps)
    }

    /// Rows symmetric about their midpoint make the two trials of a step
    /// mirror images, whose errors tie or differ in the last bits: the
    /// search must break every tie as the reference does (`lo_err <=
    /// hi_err` moves the lower end).
    #[test]
    fn search_decides_mirror_rows_as_the_reference() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        for dim in [2usize, 8, 16, 31, 32, 64, 130] {
            for case in 0..40 {
                let center = [0.0f32, 0.25, -3.0, 1000.0][case % 4];
                let half: Vec<f32> = (0..dim / 2).map(|_| unit() * 0.1).collect();
                let mut row: Vec<f32> = half.iter().map(|&d| center + d).collect();
                row.extend(half.iter().map(|&d| center - d));
                if dim % 2 == 1 {
                    row.push(center);
                }
                for (bits, num_bins) in [(1u8, 25u32), (2, 25), (3, 25), (4, 45), (8, 45)] {
                    assert_same_search(&row, bits, num_bins, 1.0);
                }
            }
        }
    }

    /// The widest values a uniform scheme searches, `±32752`: their
    /// squared residuals and clips stay far inside `f32`, so the row has
    /// a finite error and searches and stores as the reference does. One
    /// ulp further out, the row is stored as fp32 and never searched.
    #[test]
    fn rows_at_the_half_span_search_as_the_reference() {
        let span = 32752.0f32;
        let body: Vec<f32> = (0..62)
            .map(|i| ((i * 37 % 62) as f32 - 30.0) * 0.01)
            .collect();
        for ends in [[-span, span], [-span, 0.5], [0.5, span]] {
            let row: Vec<f32> = ends.iter().chain(&body).copied().collect();
            for (bits, num_bins) in [(1u8, 25u32), (2, 25), (3, 25), (4, 45), (8, 45)] {
                assert_same_search(&row, bits, num_bins, 1.0);
                let found = adaptive::search_range(&row, bits, num_bins, 1.0);
                assert!(found.l2_error.is_finite(), "{ends:?} at {bits} bits");
                let scheme = QuantScheme::AdaptiveAsymmetric {
                    bits,
                    num_bins,
                    ratio: 1.0,
                };
                assert_eq!(scheme.stored_for([&row[..]]), scheme);
                assert_eq!(scheme.quantize_row(&row), quantize_row(&scheme, &row));
            }
            for (k, end) in ends
                .into_iter()
                .enumerate()
                .filter(|(_, x)| x.abs() == span)
            {
                let mut beyond = row.clone();
                beyond[k] = f32::from_bits(end.to_bits() + 1);
                assert!(beyond[k].abs() > span);
                let scheme = QuantScheme::recommended_for_bits(4);
                assert_eq!(scheme.stored_for([&beyond[..]]), QuantScheme::Fp32);
                assert_eq!(scheme.quantize_row(&beyond), quantize_row(&scheme, &beyond));
            }
        }
    }

    /// Rows spread thinly about a large offset, where rounding a range's
    /// ends to binary16 moves its grid by as much as the search gained:
    /// the stored grid is the rounded naive one for some of them, and
    /// every row must still be the reference codec's, whether its
    /// comparison ran or the search's own errors settled it.
    #[test]
    fn stored_grids_equal_the_reference_where_rounding_reorders_them() {
        let mut state = 0x1234_5678_9ABC_DEF1u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut naive_kept = 0;
        for case in 0..4000 {
            let dim = [4usize, 8, 16, 32][case % 4];
            let bits = [1u8, 2, 3, 4][(case / 4) % 4];
            let spread = [1e-3f32, 1e-2, 0.1][(case / 16) % 3];
            let offset = [0.5f32, 3.0, -20.0, 1000.0][(case / 48) % 4];
            let row: Vec<f32> = (0..dim).map(|_| offset + (unit() - 0.5) * spread).collect();
            let scheme = QuantScheme::AdaptiveAsymmetric { bits, num_bins: 25, ratio: 1.0 };
            let want = quantize_row(&scheme, &row);
            let got = scheme.quantize_row(&row);
            assert_eq!(got, want, "bits {bits} row {row:?}");
            let (lo, hi) = min_max(&row);
            let searched = adaptive::search_range(&row, bits, 25, 1.0);
            let naive = uniform_params_f16(lo, hi, bits);
            naive_kept += ((searched.xmin, searched.xmax) != (lo, hi) && got.params == naive) as usize;
        }
        assert!(naive_kept > 0, "no row kept the rounded naive grid");
    }

    /// The corners the random shapes reach rarely, each at every corner of
    /// the parameter space.
    #[test]
    fn pruned_search_equals_reference_on_adversarial_rows() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut rows: Vec<Vec<f32>> = Vec::new();
        for dim in [1usize, 2, 3, 32, 129] {
            // Far from zero: the reconstruction slack is an ulp of the
            // offset, comparable to the search step or well beyond it.
            for offset in [1e3f32, -1e3, 1e6, -1e6] {
                for width in [1e-2f32, 1.0, 100.0] {
                    rows.push((0..dim).map(|_| offset + unit() * width).collect());
                }
            }
            // Denormal values and a denormal range on a normal offset.
            rows.push(
                (0..dim)
                    .map(|_| f32::from_bits((unit() * 4000.0) as u32))
                    .collect(),
            );
            rows.push(
                (0..dim)
                    .map(|_| {
                        f32::from_bits(f32::MIN_POSITIVE.to_bits() * 3 + (unit() * 64.0) as u32)
                    })
                    .collect(),
            );
            // The widest finite range: intermediates overflow.
            rows.push((0..dim).map(|_| (unit() - 0.5) * 3e38).collect());
            // Embedding-like, then the same with a clipped-off outlier.
            let body: Vec<f32> = (0..dim).map(|_| (unit() - 0.4) * 0.2).collect();
            let mut outlier = body.clone();
            outlier[dim / 2] = 7.0;
            rows.push(body);
            rows.push(outlier);
        }
        for row in &rows {
            for bits in [1u8, 4, 8, 16] {
                for (num_bins, ratio) in
                    [(1u32, 1.0), (45, 1.0), (45, 0.01), (50, 0.37), (200, 1.0)]
                {
                    assert_same_search(row, bits, num_bins, ratio);
                }
            }
        }
    }

    /// A NaN element makes every error NaN, so no bound may stop the
    /// search: it runs its budget as the unpruned one does. An infinite
    /// element makes the range infinite and both return at once.
    #[test]
    fn pruned_search_never_fires_on_nan_and_returns_early_on_infinity() {
        let body: Vec<f32> = (0..32)
            .map(|i| ((i * 37 % 32) as f32 - 12.0) * 0.01)
            .collect();
        for at in [0usize, 13, 31] {
            let mut nan = body.clone();
            nan[at] = f32::NAN;
            for bits in [1u8, 4, 16] {
                let (got, want) = assert_same_search(&nan, bits, 45, 1.0);
                assert_eq!(got, want, "a NaN error never satisfies the bound");
                assert!(adaptive::search_range(&nan, bits, 45, 1.0)
                    .l2_error
                    .is_nan());
            }
            for special in [f32::INFINITY, f32::NEG_INFINITY] {
                let mut inf = body.clone();
                inf[at] = special;
                assert_eq!(assert_same_search(&inf, 4, 45, 1.0), (0, 0));
                inf[(at + 1) % 32] = f32::NAN;
                assert_eq!(assert_same_search(&inf, 4, 45, 1.0), (0, 0));
            }
        }
        assert_eq!(assert_same_search(&[f32::NAN; 5], 4, 45, 1.0), (0, 0));
    }

    /// Two far clusters at one and two bits: a dense one worth a fine grid
    /// and a lone element worth clipping, so the error keeps falling until
    /// the range has shed most of itself. The bound must hold its fire
    /// that long — and still end the search before the budget does.
    #[test]
    fn pruned_search_finds_a_late_best() {
        for (bits, dense, width, late) in [(2u8, 127usize, 0.6f32, 25.0f32), (1, 120, 0.4, 38.0)] {
            let mut row: Vec<f32> = (0..dense)
                .map(|i| (i * 53 % dense) as f32 / dense as f32 * width)
                .collect();
            row.push(1.0);
            let num_bins = 45u32;
            let (got_steps, want_steps) = assert_same_search(&row, bits, num_bins, 1.0);
            let got = adaptive::search_range(&row, bits, num_bins, 1.0);
            let shed = (got.xmin + (1.0 - got.xmax)) * num_bins as f32;
            assert!(
                shed.round() >= late,
                "best range {}..{} is {shed} steps in",
                got.xmin,
                got.xmax
            );
            assert!(
                got_steps as f32 >= shed.round(),
                "{got_steps} steps cannot reach {shed}"
            );
            assert!(
                got_steps < want_steps,
                "{got_steps} of {want_steps}: the bound never fired"
            );
        }
    }

    #[test]
    fn empty_rows_match_the_reference() {
        for scheme in [
            QuantScheme::Fp32,
            QuantScheme::Fp16,
            QuantScheme::Symmetric { bits: 4 },
            QuantScheme::Asymmetric { bits: 3 },
            QuantScheme::recommended_for_bits(4),
        ] {
            assert_eq!(
                scheme.quantize_row(&[]),
                quantize_row(&scheme, &[]),
                "{scheme}"
            );
            assert_eq!(scheme.stored_for([&[][..]]), scheme);
            let mut body = Vec::new();
            scheme.quantize_rows_into(&[], 0, &mut body);
            assert_eq!(body.len(), scheme.body_len(0), "{scheme}");
        }
        let (xmin, xmax, l2_error, steps) = search_range(&[], 4, 45, 1.0);
        let got = adaptive::search_range(&[], 4, 45, 1.0);
        assert_eq!((got.xmin, got.xmax), (xmin, xmax));
        assert_eq!(got.l2_error.to_bits(), l2_error.to_bits());
        assert!(got.steps <= steps);
    }
}
