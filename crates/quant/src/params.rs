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
//! A uniform row's two parameters are stored as binary16 values, 4 bytes
//! ([`QuantParams::UniformF16`]), as rowwise-quantized embedding formats
//! in production store them: at 4 bits and dimension 32 that is 4 of a
//! row's 21 stored bytes where `f32` parameters made it 8 of 25. A chunk
//! holding a value binary16 parameters cannot describe keeps them as
//! `f32`s ([`QuantParams::Uniform`]).

use crate::half::f32_to_f16_bits;
use crate::kernel::{levels_for, Grid};
use bytes::BufMut;

/// Tag bytes naming the parameter kind in serialized rows and chunks
/// ([`QuantParams::kind_tag`]). Tag 2 once named a per-row k-means codebook;
/// it is retired, never reassigned, and a stored one is rejected by number.
pub(crate) const TAG_FP32: u8 = 0;
pub(crate) const TAG_UNIFORM: u8 = 1;
pub(crate) const TAG_FP16: u8 = 3;
pub(crate) const TAG_UNIFORM_F16: u8 = 4;

/// Per-vector quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantParams {
    /// No quantization; codes are raw little-endian f32 bytes.
    Fp32,
    /// Half precision; each 16-bit code is an IEEE binary16 bit pattern.
    Fp16,
    /// Uniform quantization: `x ≈ scale * code + zero_point`.
    Uniform {
        /// Step size between adjacent grid points.
        scale: f32,
        /// Value represented by code 0 (the paper defines it as `xmin`).
        zero_point: f32,
    },
    /// Uniform quantization with both parameters binary16 values, stored
    /// in 2 bytes each: `x ≈ scale * code + zero_point`, computed in `f32`
    /// exactly as for [`QuantParams::Uniform`].
    UniformF16 {
        /// Step size between adjacent grid points (a binary16 value).
        scale: f32,
        /// Value represented by code 0 (a binary16 value, `xmin` rounded
        /// up).
        zero_point: f32,
    },
}

impl QuantParams {
    /// De-quantizes a single code.
    #[inline]
    pub fn dequantize_code(&self, code: u16) -> f32 {
        match self {
            QuantParams::Fp32 => {
                unreachable!("Fp32 rows are decoded bytewise, not via codes")
            }
            QuantParams::Fp16 => crate::half::f16_bits_to_f32(code),
            QuantParams::Uniform { scale, zero_point }
            | QuantParams::UniformF16 { scale, zero_point } => scale * code as f32 + zero_point,
        }
    }

    /// Tag byte naming the parameter kind in serialized rows and chunks.
    pub fn kind_tag(&self) -> u8 {
        match self {
            QuantParams::Fp32 => TAG_FP32,
            QuantParams::Uniform { .. } => TAG_UNIFORM,
            QuantParams::Fp16 => TAG_FP16,
            QuantParams::UniformF16 { .. } => TAG_UNIFORM_F16,
        }
    }

    /// De-quantizes `codes` into `out`, one value per code: the scaling
    /// loop shared by every decode path.
    ///
    /// Panics when `out` and `codes` differ in length.
    pub fn dequantize_codes_to(&self, codes: &[u16], out: &mut [f32]) {
        assert_eq!(codes.len(), out.len(), "one value per code");
        let pairs = out.iter_mut().zip(codes);
        match self {
            QuantParams::Fp32 => {
                unreachable!("Fp32 rows are decoded bytewise, not via codes")
            }
            QuantParams::Fp16 => pairs.for_each(|(o, &c)| *o = crate::half::f16_bits_to_f32(c)),
            QuantParams::Uniform { scale, zero_point }
            | QuantParams::UniformF16 { scale, zero_point } => {
                pairs.for_each(|(o, &c)| *o = scale * c as f32 + zero_point)
            }
        }
    }

    /// Serialized size of the parameters in bytes (the metadata overhead the
    /// paper discusses in §6.3.2): the bytes a row body stores ahead of its
    /// packed codes.
    pub fn byte_size(&self) -> usize {
        match self {
            QuantParams::Fp32 | QuantParams::Fp16 => 0,
            QuantParams::Uniform { .. } => 8, // scale + zero_point
            QuantParams::UniformF16 { .. } => 4,
        }
    }

    /// Appends the parameters as a row body stores them, ahead of the
    /// packed codes.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            QuantParams::Fp32 | QuantParams::Fp16 => {}
            QuantParams::Uniform { scale, zero_point } => {
                buf.put_f32_le(*scale);
                buf.put_f32_le(*zero_point);
            }
            QuantParams::UniformF16 { scale, zero_point } => {
                buf.put_u16_le(f32_to_f16_bits(*scale));
                buf.put_u16_le(f32_to_f16_bits(*zero_point));
            }
        }
    }
}

/// Builds uniform parameters from a `[xmin, xmax]` range and bit-width.
///
/// Degenerate ranges (`xmax <= xmin`, e.g. a constant vector) yield
/// `scale = 0`, which de-quantizes every code to `zero_point` — exact for the
/// constant-vector case.
pub fn uniform_params(xmin: f32, xmax: f32, bits: u8) -> QuantParams {
    Grid::for_range(xmin, xmax, bits).params()
}

/// Quantizes one value with uniform parameters, clamping to the code range.
/// This is the paper's `FQ(x, xmin, xmax)` operator.
#[inline]
pub fn uniform_quantize_value(x: f32, scale: f32, zero_point: f32, bits: u8) -> u16 {
    let grid = Grid {
        scale,
        zero_point,
        levels: levels_for(bits),
    };
    grid.code_of(x) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_params_cover_range() {
        let p = uniform_params(-1.0, 1.0, 2);
        match p {
            QuantParams::Uniform { scale, zero_point } => {
                assert!((scale - 2.0 / 3.0).abs() < 1e-6);
                assert_eq!(zero_point, -1.0);
            }
            _ => panic!("expected uniform"),
        }
    }

    #[test]
    fn degenerate_range_is_exact_for_constants() {
        let p = uniform_params(0.5, 0.5, 4);
        if let QuantParams::Uniform { scale, zero_point } = p {
            assert_eq!(scale, 0.0);
            let code = uniform_quantize_value(0.5, scale, zero_point, 4);
            assert_eq!(code, 0);
            assert_eq!(p.dequantize_code(code), 0.5);
        } else {
            panic!("expected uniform");
        }
    }

    #[test]
    fn quantize_clamps_out_of_range() {
        let (scale, zp) = match uniform_params(0.0, 1.0, 2) {
            QuantParams::Uniform { scale, zero_point } => (scale, zero_point),
            _ => unreachable!(),
        };
        assert_eq!(uniform_quantize_value(-5.0, scale, zp, 2), 0);
        assert_eq!(uniform_quantize_value(5.0, scale, zp, 2), 3);
    }

    #[test]
    fn roundtrip_error_bounded_by_half_scale() {
        let (scale, zp) = match uniform_params(-2.0, 2.0, 8) {
            QuantParams::Uniform { scale, zero_point } => (scale, zero_point),
            _ => unreachable!(),
        };
        let p = QuantParams::Uniform {
            scale,
            zero_point: zp,
        };
        for i in 0..1000 {
            let x = -2.0 + 4.0 * (i as f32 / 999.0);
            let code = uniform_quantize_value(x, scale, zp, 8);
            let back = p.dequantize_code(code);
            assert!(
                (x - back).abs() <= scale / 2.0 + 1e-6,
                "error {} exceeds scale/2 {}",
                (x - back).abs(),
                scale / 2.0
            );
        }
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(QuantParams::Fp32.byte_size(), 0);
        assert_eq!(
            QuantParams::Uniform {
                scale: 1.0,
                zero_point: 0.0
            }
            .byte_size(),
            8
        );
        assert_eq!(
            QuantParams::UniformF16 {
                scale: 1.0,
                zero_point: 0.0
            }
            .byte_size(),
            4
        );
    }
}
