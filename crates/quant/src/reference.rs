//! Frozen reference codecs — the oracle the kernels are tested against.
//!
//! These are the original row-object implementations, kept verbatim: one
//! `Vec<u16>` of codes and one `Vec<f32>` of de-quantized values per
//! trial, `f32::round`, bit-at-a-time packing. They are compiled for tests
//! only and must not be "improved": [`crate::kernel`] and everything built
//! on it is required to reproduce their output bit for bit, and the
//! property tests below are what says so.

use crate::codec::QuantizedRow;
use crate::error::row_l2_error;
use crate::kmeans::{quantize_kmeans, DEFAULT_ITERS};
use crate::params::QuantParams;
use crate::scheme::QuantScheme;
use crate::uniform::min_max;

pub(crate) fn uniform_params(xmin: f32, xmax: f32, bits: u8) -> QuantParams {
    let levels = (1u32 << bits) - 1;
    let range = xmax - xmin;
    let scale = if range > 0.0 && range.is_finite() {
        range / levels as f32
    } else {
        0.0
    };
    QuantParams::Uniform {
        scale,
        zero_point: xmin,
    }
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

pub(crate) fn quantize_with_range(
    row: &[f32],
    xmin: f32,
    xmax: f32,
    bits: u8,
) -> (Vec<u16>, QuantParams) {
    let params = uniform_params(xmin, xmax, bits);
    let (scale, zero_point) = match params {
        QuantParams::Uniform { scale, zero_point } => (scale, zero_point),
        _ => unreachable!(),
    };
    let codes = row
        .iter()
        .map(|&x| uniform_quantize_value(x, scale, zero_point, bits))
        .collect();
    (codes, params)
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
        let (codes, params) = quantize_with_range(row, lo, hi, bits);
        let back: Vec<f32> = codes.iter().map(|&c| params.dequantize_code(c)).collect();
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
    }
    (best.0, best.1, best.2, steps)
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

pub(crate) fn quantize_row(scheme: &QuantScheme, row: &[f32]) -> QuantizedRow {
    let from_codes = |codes: Vec<u16>, params: QuantParams, bits: u8| QuantizedRow {
        params,
        payload: pack(&codes, bits),
        dim: row.len(),
        bits,
    };
    match *scheme {
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
            let (codes, params) = quantize_with_range(row, -xmax, xmax, bits);
            from_codes(codes, params, bits)
        }
        QuantScheme::Asymmetric { bits } => {
            let (xmin, xmax) = min_max(row);
            let (codes, params) = quantize_with_range(row, xmin, xmax, bits);
            from_codes(codes, params, bits)
        }
        QuantScheme::KMeans { bits } => {
            let (codes, params) = quantize_kmeans(row, bits, DEFAULT_ITERS);
            from_codes(codes, params, bits)
        }
        QuantScheme::AdaptiveAsymmetric {
            bits,
            num_bins,
            ratio,
        } => {
            let (xmin, xmax, _, _) = search_range(row, bits, num_bins, ratio);
            let (codes, params) = quantize_with_range(row, xmin, xmax, bits);
            from_codes(codes, params, bits)
        }
    }
}

pub(crate) fn dequantize(row: &QuantizedRow) -> Vec<f32> {
    match &row.params {
        QuantParams::Fp32 => row
            .payload
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect(),
        params => unpack(&row.payload, row.bits, row.dim)
            .iter()
            .map(|&c| params.dequantize_code(c))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive;
    use crate::bitpack;
    use crate::codec::{decode_body_into, decode_body_to};
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
        /// `quantize_row_into` == reference quantize + `encode_body_into`,
        /// `quantize_row` == reference row, flat and in-place decode ==
        /// reference `dequantize`, bit for bit, for every scheme but k-means.
        #[test]
        fn fused_rows_equal_reference_rows(
            dim in 1usize..=130,
            bits_idx in 0usize..9,
            kind in 0u8..5,
            shape in 0u8..48,
            num_bins in 1u32..=50,
            ratio_pct in 1u32..=100,
            seed in any::<u64>(),
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

            let mut fused = vec![0xEEu8; 3];
            scheme.quantize_row_into(&row, &mut fused);
            prop_assert_eq!(&fused[3..], &want_body[..], "{} quantize_row_into", scheme);
            prop_assert_eq!(want_body.len(), scheme.body_bytes_per_row(dim));
            prop_assert_eq!(want.byte_size(), scheme.bytes_per_row(dim));

            let want_values = dequantize(&want);
            prop_assert_eq!(bits_of(&got.dequantize()), bits_of(&want_values), "{} dequantize", scheme);
            let mut flat = vec![f32::NAN];
            let mut cursor = &want_body[..];
            decode_body_into(&mut cursor, want.kind_tag(), want.bits, dim, &mut flat).unwrap();
            prop_assert!(cursor.is_empty());
            prop_assert_eq!(bits_of(&flat[1..]), bits_of(&want_values), "{} flat decode", scheme);
            // Into a caller's slice: every element overwritten, none beside it.
            let mut placed = vec![f32::NAN; dim + 2];
            let mut cursor = &want_body[..];
            decode_body_to(&mut cursor, want.kind_tag(), want.bits, &mut placed[1..=dim]).unwrap();
            prop_assert!(cursor.is_empty());
            prop_assert_eq!(bits_of(&placed[1..=dim]), bits_of(&want_values), "{} slice decode", scheme);
            prop_assert!(placed[0].is_nan() && placed[dim + 1].is_nan());
        }

        /// The fused search returns the identical range, error and step
        /// count (bit-equal on every field).
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
            prop_assert_eq!(got.steps, steps);
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
            let (codes, params) = crate::uniform::quantize_with_range(&row, lo, lo + width, bits);
            let (want_codes, want_params) = quantize_with_range(&row, lo, lo + width, bits);
            prop_assert_eq!(&codes, &want_codes);
            prop_assert_eq!(&params, &want_params);
            let packed = bitpack::pack(&codes, bits);
            prop_assert_eq!(&packed, &pack(&want_codes, bits));
            prop_assert_eq!(bitpack::unpack(&packed, bits, dim).unwrap(), unpack(&packed, bits, dim));
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
            let mut body = Vec::new();
            scheme.quantize_row_into(&[], &mut body);
            assert_eq!(body.len(), scheme.body_bytes_per_row(0), "{scheme}");
        }
        let (xmin, xmax, l2_error, steps) = search_range(&[], 4, 45, 1.0);
        let got = adaptive::search_range(&[], 4, 45, 1.0);
        assert_eq!((got.xmin, got.xmax, got.steps), (xmin, xmax, steps));
        assert_eq!(got.l2_error.to_bits(), l2_error.to_bits());
    }
}
