//! The element kernels every codec path shares.
//!
//! One implementation of "quantize a value onto a uniform grid", one of
//! "measure a grid's ℓ2 error", one of "unpack codes and scale them back":
//! the public row objects ([`crate::QuantizedRow`], [`crate::uniform`],
//! [`crate::adaptive`]) and the chunk-level byte paths
//! ([`crate::QuantScheme::quantize_row_into`],
//! [`crate::codec::decode_body_to`], [`crate::codec::decode_body_into`])
//! are thin callers of these loops, so what a checkpoint stores and what
//! the public codec computes cannot drift apart.
//!
//! The kernels allocate nothing and are written so the compiler can
//! vectorize them: values move through fixed-size stack blocks, rounding
//! is branch-free, and the only serial dependency left is the one the
//! result's bits depend on (the in-order `f64` error sum). Their outputs
//! are bit-identical to the original per-row implementations, which are
//! kept, frozen, in the test-only `reference` module as the oracle.

use crate::bitpack::{pack_into, packed_len, unpack_into};
use crate::params::QuantParams;

/// Elements per stack block. A multiple of 8, so a block of codes of any
/// width packs to whole bytes and blocks pack independently.
pub(crate) const BLOCK: usize = 64;

/// `2^23`. Adding then subtracting it rounds a non-negative `f32` below it
/// to the nearest integer, ties to even — in two additions, no libm call.
const ROUND_MAGIC: f32 = 8_388_608.0;

/// A uniform quantization grid: `x ≈ scale * code + zero_point` with codes
/// in `0..=levels`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Grid {
    pub scale: f32,
    pub zero_point: f32,
    /// Largest code, as a float (`2^bits - 1`).
    pub levels: f32,
}

/// Largest code of a `bits`-wide grid, as a float.
pub(crate) fn levels_for(bits: u8) -> f32 {
    debug_assert!((1..=16).contains(&bits));
    ((1u32 << bits) - 1) as f32
}

impl Grid {
    /// The grid spanning `[xmin, xmax]` with `2^bits` points. Degenerate
    /// ranges (`xmax <= xmin` or non-finite) get `scale = 0`, which maps
    /// every value to code 0 and back to `xmin` — exact for a constant row.
    pub fn for_range(xmin: f32, xmax: f32, bits: u8) -> Self {
        let levels = levels_for(bits);
        let range = xmax - xmin;
        let scale = if range > 0.0 && range.is_finite() {
            range / levels
        } else {
            0.0
        };
        Self {
            scale,
            zero_point: xmin,
            levels,
        }
    }

    /// The grid as stored row parameters.
    pub fn params(self) -> QuantParams {
        QuantParams::Uniform {
            scale: self.scale,
            zero_point: self.zero_point,
        }
    }

    /// Code of `x`, as a float: the paper's `FQ(x, xmin, xmax)`.
    #[inline]
    pub fn code_of(self, x: f32) -> f32 {
        if self.scale <= 0.0 {
            return 0.0;
        }
        round_clamp((x - self.zero_point) / self.scale, self.levels)
    }
}

/// `q.round()` (half away from zero) clamped to `[0, levels]`, NaN → 0,
/// without a branch or a call.
///
/// Clamping to `[0, levels + 1]` first leaves every in-range value alone
/// and keeps the magic-number rounding in its valid domain; a tie that
/// ties-to-even sent down (`q - e == 0.5`) is pushed back up.
#[inline(always)]
fn round_clamp(q: f32, levels: f32) -> f32 {
    let q = if q > 0.0 { q } else { 0.0 };
    let top = levels + 1.0;
    let q = if q < top { q } else { top };
    let e = (q + ROUND_MAGIC) - ROUND_MAGIC;
    let r = e + if q - e == 0.5 { 1.0 } else { 0.0 };
    if r < levels {
        r
    } else {
        levels
    }
}

/// Writes the code of every element of `row` on grid `g` into `codes`.
pub(crate) fn quantize_codes(row: &[f32], g: Grid, codes: &mut [u16]) {
    debug_assert_eq!(row.len(), codes.len());
    if g.scale <= 0.0 {
        codes.fill(0);
        return;
    }
    for (c, &x) in codes.iter_mut().zip(row) {
        *c = round_clamp((x - g.zero_point) / g.scale, g.levels) as u16;
    }
}

/// Quantizes `row` on grid `g` and appends the `bits`-wide packed codes to
/// `out` — no intermediate code vector. Codes are clamped to `g.levels`
/// by construction, so they always fit `bits`.
pub(crate) fn quantize_pack_into(row: &[f32], g: Grid, bits: u8, out: &mut Vec<u8>) {
    debug_assert_eq!(g.levels, levels_for(bits));
    let mut codes = [0u16; BLOCK];
    for xs in row.chunks(BLOCK) {
        let codes = &mut codes[..xs.len()];
        quantize_codes(xs, g, codes);
        pack_into(codes, bits, out);
    }
}

/// What quantizing `xs` on grid `g` loses, element by element:
/// `x - dequantize(quantize(x))`.
#[inline(always)]
fn residuals(xs: &[f32], g: Grid, out: &mut [f32]) {
    if g.scale <= 0.0 {
        let back = g.scale * 0.0 + g.zero_point;
        for (o, &x) in out.iter_mut().zip(xs) {
            *o = x - back;
        }
    } else {
        for (o, &x) in out.iter_mut().zip(xs) {
            let code = round_clamp((x - g.zero_point) / g.scale, g.levels);
            *o = x - (g.scale * code + g.zero_point);
        }
    }
}

/// ℓ2 error of quantizing `row` on each of `N` grids, in one pass over
/// the row.
///
/// The residuals of a block are computed first, in a loop with no
/// cross-element dependency; their squares are then added in element
/// order in `f64`, exactly as [`crate::row_l2_error`] adds them, so the
/// result has the same bits. The `N` sums are independent chains, which
/// is what lets one greedy step's two trials overlap. `scratch` is the
/// caller's so a search reuses it across its ~90 trials.
pub(crate) fn l2_errors<const N: usize>(
    row: &[f32],
    grids: [Grid; N],
    scratch: &mut [[f32; BLOCK]; N],
) -> [f64; N] {
    // `Iterator::sum::<f64>()` starts from -0.0; so does this.
    let mut sums = [-0.0f64; N];
    for xs in row.chunks(BLOCK) {
        let n = xs.len().min(BLOCK); // tells the compiler `i` below is in bounds
        for (r, &g) in scratch.iter_mut().zip(&grids) {
            residuals(xs, g, &mut r[..n]);
        }
        for i in 0..n {
            for (s, r) in sums.iter_mut().zip(scratch.iter()) {
                let d = r[i] as f64;
                *s += d * d;
            }
        }
    }
    sums.map(f64::sqrt)
}

/// Unpacks `out.len()` codes of width `bits` from `payload` and
/// de-quantizes them with `params` into `out`: the one unpack-and-scale
/// loop behind every decode path. The destination is the caller's — a
/// restore points it at the row's place in the model's own table, so a
/// value is written once, where it lives.
///
/// Panics when `payload` is too short for `out.len()` values.
pub(crate) fn dequantize_payload_to(
    params: &QuantParams,
    payload: &[u8],
    bits: u8,
    out: &mut [f32],
) {
    let n = out.len();
    if matches!(params, QuantParams::Fp32) {
        assert!(payload.len() >= n * 4, "payload shorter than declared dim");
        for (o, b) in out.iter_mut().zip(payload.chunks_exact(4)) {
            *o = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        }
        return;
    }
    let packed = packed_len(n, bits);
    assert!(payload.len() >= packed, "payload shorter than declared dim");
    let mut codes = [0u16; BLOCK];
    let block_bytes = BLOCK / 8 * bits as usize;
    for (bytes, values) in payload[..packed].chunks(block_bytes).zip(out.chunks_mut(BLOCK)) {
        let codes = &mut codes[..values.len()];
        unpack_into(bytes, bits, codes);
        params.dequantize_codes_to(codes, values);
    }
}

/// [`dequantize_payload_to`] onto the end of `out`, for callers that
/// collect rows in a buffer of their own ([`crate::QuantizedRow::dequantize`],
/// [`crate::codec::decode_body_into`]). Raw fp32 rows are appended
/// directly, so the widest payload is still written once.
///
/// Panics when `payload` is too short for `n` values.
pub(crate) fn dequantize_payload(
    params: &QuantParams,
    payload: &[u8],
    bits: u8,
    n: usize,
    out: &mut Vec<f32>,
) {
    if matches!(params, QuantParams::Fp32) {
        assert!(payload.len() >= n * 4, "payload shorter than declared dim");
        out.extend(
            payload[..n * 4]
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        return;
    }
    let start = out.len();
    out.resize(start + n, 0.0);
    dequantize_payload_to(params, payload, bits, &mut out[start..]);
}

/// Appends `values` as little-endian bytes.
pub(crate) fn put_f32s_le(values: &[f32], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + values.len() * 4, 0);
    for (dst, &v) in out[start..].chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_clamp_is_round_half_away_then_clamp() {
        let levels = 15.0f32;
        let below_half = f32::from_bits(0.5f32.to_bits() - 1);
        let cases = [
            (f32::NAN, 0.0),
            (f32::NEG_INFINITY, 0.0),
            (f32::INFINITY, 15.0),
            (-0.3, 0.0),
            (-0.0, 0.0),
            (below_half, 0.0),
            (0.5, 1.0),
            (1.5, 2.0),
            (2.5, 3.0),
            (3.4999998, 3.0),
            (14.5, 15.0),
            (15.5, 15.0),
            (16.0, 15.0),
            (1e30, 15.0),
        ];
        for (q, want) in cases {
            assert_eq!(round_clamp(q, levels), want, "q = {q}");
        }
        // Against the definition, densely, at the widest grid.
        let levels = 65535.0f32;
        for i in 0..400_000u32 {
            let q = i as f32 * 0.17 - 10.0;
            let want = q.round().clamp(0.0, levels);
            assert_eq!(round_clamp(q, levels), want, "q = {q}");
        }
    }

    #[test]
    fn f32_bytes_roundtrip() {
        let values = [
            0.0f32,
            -0.0,
            1.5,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            -3.25e-7,
        ];
        let mut buf = vec![0xAA];
        put_f32s_le(&values, &mut buf);
        assert_eq!(buf.len(), 1 + values.len() * 4);
        let mut back = vec![9.0f32];
        dequantize_payload(&QuantParams::Fp32, &buf[1..], 32, values.len(), &mut back);
        assert_eq!(back[0], 9.0, "values are appended");
        for (a, b) in values.iter().zip(&back[1..]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
