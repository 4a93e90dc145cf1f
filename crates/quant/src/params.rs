//! Quantization parameters stored alongside each quantized vector.
//!
//! The paper's asymmetric schemes keep `(xmin, xmax)` per embedding vector
//! (§5.2, "the small additional overhead of storing both xmin, xmax").
//! These parameters are exactly the metadata the paper blames for savings
//! being "not linearly proportional to the chosen quantization bit-width"
//! (§6.3.2), so this module also exposes [`QuantParams::byte_size`] for
//! faithful size accounting. Every kind has a fixed size: no stored row
//! carries a variable-length parameter block (the k-means codebook the
//! paper evaluates and rejects is a figure baseline in `cnr_bench`, not a
//! stored form).
//!
//! A uniform row's two parameters are binary16 values, 4 bytes
//! ([`QuantParams::Uniform`], row tag 4), as rowwise-quantized embedding
//! formats in production store them: at 4 bits and dimension 32 that is 4
//! of a row's 21 stored bytes. A chunk holding a value its scheme cannot
//! describe is stored as exact fp32 rows instead
//! ([`crate::QuantScheme::stored_for`]).

use crate::half::f32_to_f16_bits;
use bytes::BufMut;

/// Tag bytes naming the parameter kind in serialized rows and chunks
/// ([`QuantParams::kind_tag`]). Tag 1 once named uniform rows with `f32`
/// parameters and tag 2 a per-row k-means codebook; both are retired,
/// never reassigned, and a stored one is rejected by number.
pub(crate) const TAG_FP32: u8 = 0;
pub(crate) const TAG_FP16: u8 = 3;
pub(crate) const TAG_UNIFORM: u8 = 4;

/// Per-vector quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantParams {
    /// No quantization; codes are raw little-endian f32 bytes.
    Fp32,
    /// Half precision; each 16-bit code is an IEEE binary16 bit pattern.
    Fp16,
    /// Uniform quantization, `x ≈ scale * code + zero_point` computed in
    /// `f32`, with both parameters binary16 values stored in 2 bytes each.
    Uniform {
        /// Step size between adjacent grid points (a binary16 value).
        scale: f32,
        /// Value represented by code 0 (a binary16 value, `xmin` rounded
        /// up).
        zero_point: f32,
    },
}

impl QuantParams {
    /// Tag byte naming the parameter kind in serialized rows and chunks.
    pub fn kind_tag(&self) -> u8 {
        match self {
            QuantParams::Fp32 => TAG_FP32,
            QuantParams::Fp16 => TAG_FP16,
            QuantParams::Uniform { .. } => TAG_UNIFORM,
        }
    }

    /// Serialized size of the parameters in bytes (the metadata overhead the
    /// paper discusses in §6.3.2): the bytes a row body stores ahead of its
    /// packed codes.
    pub fn byte_size(&self) -> usize {
        match self {
            QuantParams::Fp32 | QuantParams::Fp16 => 0,
            QuantParams::Uniform { .. } => 4, // scale + zero_point
        }
    }

    /// Appends the parameters as a row body stores them, ahead of the
    /// packed codes.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            QuantParams::Fp32 | QuantParams::Fp16 => {}
            QuantParams::Uniform { scale, zero_point } => {
                buf.put_u16_le(f32_to_f16_bits(*scale));
                buf.put_u16_le(f32_to_f16_bits(*zero_point));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantScheme;

    /// The stored parameters of `row` under a uniform `scheme`.
    fn uniform_of(scheme: QuantScheme, row: &[f32]) -> (f32, f32) {
        match scheme.quantize_row(row).params {
            QuantParams::Uniform { scale, zero_point } => (scale, zero_point),
            p => panic!("expected uniform parameters, got {p:?}"),
        }
    }

    #[test]
    fn uniform_params_cover_range() {
        // -1 is a binary16 value, so the zero point is exactly it; the
        // scale is the binary16 nearest 2/3, within half a binary16 step
        // (2^-11 relative) of it.
        let (scale, zero_point) = uniform_of(QuantScheme::Asymmetric { bits: 2 }, &[-1.0, 1.0]);
        assert!((scale - 2.0 / 3.0).abs() <= 2.0 / 3.0 / 2048.0, "{scale}");
        assert_eq!(zero_point, -1.0);
    }

    #[test]
    fn degenerate_range_is_exact_for_constants() {
        let row = [0.5f32; 4];
        let q = QuantScheme::Asymmetric { bits: 4 }.quantize_row(&row);
        assert_eq!(
            q.params,
            QuantParams::Uniform {
                scale: 0.0,
                zero_point: 0.5
            }
        );
        assert_eq!(q.payload, [0, 0], "every code is 0");
        assert_eq!(q.dequantize(), row);
    }

    /// A value the stored grid does not span clamps to the nearer end
    /// code. The adaptive search clips a row spread over [0, 1] with an
    /// outlier at 5.0, so some values lie outside the grid it stores.
    #[test]
    fn quantize_clamps_out_of_range() {
        let mut row: Vec<f32> = (0..63).map(|i| i as f32 / 62.0).collect();
        row.push(5.0);
        let scheme = QuantScheme::AdaptiveAsymmetric {
            bits: 2,
            num_bins: 25,
            ratio: 1.0,
        };
        let (scale, zero_point) = uniform_of(scheme, &row);
        let top = scale * 3.0 + zero_point;
        let back = scheme.quantize_row(&row).dequantize();
        let outside = row.iter().filter(|&&x| x < zero_point || x > top).count();
        assert!(
            outside > 0,
            "the search clipped nothing: [{zero_point}, {top}]"
        );
        for (&x, &y) in row.iter().zip(&back) {
            if x < zero_point {
                assert_eq!(y, zero_point, "{x} clamps to code 0");
            } else if x > top {
                assert_eq!(y, top, "{x} clamps to the top code");
            }
            assert!((zero_point..=top).contains(&y));
        }
    }

    /// On a grid whose parameters are exact — `[-2, 2]` at 8 bits rounds
    /// its zero point to itself and its scale to the binary16 nearest
    /// 4/255 — every value of the range lies within half a step of the
    /// value it restores to, plus the `f32` roundings of computing the
    /// code and the reconstruction (a few ulps of 2).
    #[test]
    fn roundtrip_error_bounded_by_half_scale() {
        let row: Vec<f32> = (0..1000).map(|i| -2.0 + 4.0 * (i as f32 / 999.0)).collect();
        let (scale, zero_point) = uniform_of(QuantScheme::Asymmetric { bits: 8 }, &row);
        assert_eq!(zero_point, -2.0);
        assert!((scale - 4.0 / 255.0).abs() <= 4.0 / 255.0 / 2048.0);
        let back = QuantScheme::Asymmetric { bits: 8 }
            .quantize_row(&row)
            .dequantize();
        for (x, y) in row.iter().zip(&back) {
            let error = (x - y).abs();
            assert!(
                error <= scale / 2.0 + 4.0 * f32::EPSILON * 2.0,
                "error {error} exceeds scale/2 {}",
                scale / 2.0
            );
        }
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(QuantParams::Fp32.byte_size(), 0);
        assert_eq!(QuantParams::Fp16.byte_size(), 0);
        assert_eq!(
            QuantParams::Uniform {
                scale: 1.0,
                zero_point: 0.0
            }
            .byte_size(),
            4
        );
    }
}
