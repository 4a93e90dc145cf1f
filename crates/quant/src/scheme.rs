//! Unified quantization scheme selector.
//!
//! [`QuantScheme`] is the configuration value that flows through Check-N-Run:
//! the engine picks one per checkpoint (§6.2.1 dynamic bit-width selection)
//! and the chunked writer applies it row by row.

use crate::adaptive::{half_grid, search_within};
use crate::codec::{QuantizedRow, RowDecoder, ROW_HEADER_LEN};
use crate::half::f32_to_f16_bits;
use crate::kernel::{fits_half, put_f32s_le, quantize_pack_into, Grid};
use crate::params::{QuantParams, TAG_FP16, TAG_FP32, TAG_UNIFORM, TAG_UNIFORM_F16};
use crate::uniform::{max_abs, min_max};

/// A quantization scheme with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantScheme {
    /// No quantization (32-bit passthrough, bit-exact).
    Fp32,
    /// IEEE binary16: 2× smaller, ~3 significant digits, parameter-free.
    Fp16,
    /// Uniform symmetric (§5.2 Approach 1, baseline).
    Symmetric {
        /// Code width in bits (1..=8).
        bits: u8,
    },
    /// Uniform asymmetric (§5.2 Approach 1, the 8-bit default).
    Asymmetric {
        /// Code width in bits (1..=8).
        bits: u8,
    },
    /// Adaptive asymmetric (§5.2 Approach 3, default for ≤4 bits).
    AdaptiveAsymmetric {
        /// Code width in bits (1..=8).
        bits: u8,
        /// Greedy search granularity (paper sweeps 5–50; optima 25/45).
        num_bins: u32,
        /// Fraction of the range the search may consume, in (0, 1]
        /// (stored ×1000 as integer-friendly f64 in configs).
        ratio: f64,
    },
}

impl QuantScheme {
    /// The paper's recommended scheme for a bit-width (§5.2 summary):
    /// adaptive asymmetric at ≤4 bits (25 bins for 2–3 bits, 45 for 4),
    /// naive asymmetric at 8 bits, FP32 above.
    pub fn recommended_for_bits(bits: u8) -> Self {
        match bits {
            0 => QuantScheme::Fp32,
            1..=3 => QuantScheme::AdaptiveAsymmetric {
                bits,
                num_bins: 25,
                ratio: 1.0,
            },
            4 => QuantScheme::AdaptiveAsymmetric {
                bits,
                num_bins: 45,
                ratio: 1.0,
            },
            5..=8 => QuantScheme::Asymmetric { bits },
            9..=16 => QuantScheme::Fp16,
            _ => QuantScheme::Fp32,
        }
    }

    /// Code width in bits (32 for FP32 passthrough).
    pub fn bits(&self) -> u8 {
        match self {
            QuantScheme::Fp32 => 32,
            QuantScheme::Fp16 => 16,
            QuantScheme::Symmetric { bits }
            | QuantScheme::Asymmetric { bits }
            | QuantScheme::AdaptiveAsymmetric { bits, .. } => *bits,
        }
    }

    /// Short human-readable name (used in experiment output).
    pub fn name(&self) -> &'static str {
        match self {
            QuantScheme::Fp32 => "fp32",
            QuantScheme::Fp16 => "fp16",
            QuantScheme::Symmetric { .. } => "symmetric",
            QuantScheme::Asymmetric { .. } => "asymmetric",
            QuantScheme::AdaptiveAsymmetric { .. } => "adaptive-asymmetric",
        }
    }

    /// How a chunk holding `rows` stores them under this scheme: uniform
    /// rows keep binary16 parameters when every value is finite and within
    /// ±32752 (half the largest binary16 value), and `f32` parameters
    /// otherwise — decided from the values, so a row binary16 cannot
    /// describe is never stored wrong. With [`RowEncoder::bits`], the
    /// chunk-level context a chunk writer stores once for all its rows.
    pub fn encoder_for<'a>(&self, rows: impl IntoIterator<Item = &'a [f32]>) -> RowEncoder {
        let uniform = !matches!(self, QuantScheme::Fp32 | QuantScheme::Fp16);
        RowEncoder {
            scheme: *self,
            half_params: uniform && rows.into_iter().all(fits_half),
        }
    }

    /// Quantizes one embedding row, stored as a chunk of just this row
    /// would store it ([`Self::encoder_for`]).
    pub fn quantize_row(&self, row: &[f32]) -> QuantizedRow {
        self.encoder_for([row]).quantize_row(row)
    }

    /// Expected serialized bytes per row of dimension `dim`, including the
    /// per-row parameter overhead — the quantity Figures 15–17 account in
    /// "% of model size" — for rows of finite values within binary16's
    /// range (binary16 parameters).
    pub fn bytes_per_row(&self, dim: usize) -> usize {
        ROW_HEADER_LEN + self.encoder_for([]).body_len(dim)
    }
}

/// One chunk's row encoding on the write side: a scheme and the width of
/// the uniform parameters its rows store, resolved once from the chunk's
/// values ([`QuantScheme::encoder_for`]). What it quantizes, a
/// [`crate::codec::RowDecoder`] built from its [`Self::kind_tag`] and
/// [`Self::bits`] decodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowEncoder {
    scheme: QuantScheme,
    /// Whether uniform rows store binary16 parameters (tag 4), not `f32`s
    /// (tag 1).
    half_params: bool,
}

impl RowEncoder {
    /// Tag byte of the rows this encoder produces
    /// ([`QuantParams::kind_tag`]).
    pub fn kind_tag(&self) -> u8 {
        match self.scheme {
            QuantScheme::Fp32 => TAG_FP32,
            QuantScheme::Fp16 => TAG_FP16,
            _ if self.half_params => TAG_UNIFORM_F16,
            _ => TAG_UNIFORM,
        }
    }

    /// Code width in bits ([`QuantScheme::bits`]).
    pub fn bits(&self) -> u8 {
        self.scheme.bits()
    }

    /// Quantizes one embedding row into a row object.
    pub fn quantize_row(&self, row: &[f32]) -> QuantizedRow {
        let mut payload = Vec::with_capacity(self.body_len(row.len()));
        let params = self.quantize(row, &mut payload, false);
        QuantizedRow {
            params,
            payload,
            dim: row.len(),
            bits: self.bits(),
        }
    }

    /// Quantizes one embedding row and appends its body encoding — the
    /// parameters, then the packed codes — straight to `out`: the bytes
    /// `self.quantize_row(row).encode_body_into(out)` appends, without the
    /// row object or any other allocation in between. The one-row case of
    /// [`Self::quantize_rows_into`].
    pub fn quantize_row_into(&self, row: &[f32], out: &mut Vec<u8>) {
        self.quantize_rows_into(row, row.len(), out);
    }

    /// Quantizes the rows of `dim` values that `rows` holds back to back
    /// and appends their body encodings in order: the bytes one
    /// [`Self::quantize_row_into`] per row appends. An fp32 body is the
    /// row's values, so an fp32 run is one copy, not one per row. A zero
    /// `dim` is one empty row.
    pub fn quantize_rows_into(&self, rows: &[f32], dim: usize, out: &mut Vec<u8>) {
        if let QuantScheme::Fp32 = self.scheme {
            put_f32s_le(rows, out);
        } else {
            let count = rows.len().checked_div(dim).unwrap_or(1);
            debug_assert_eq!(count * dim, rows.len(), "rows of {dim} values");
            for k in 0..count {
                self.quantize(&rows[k * dim..(k + 1) * dim], out, true);
            }
        }
    }

    /// The one quantizer behind [`Self::quantize_row`] and
    /// [`Self::quantize_rows_into`]: picks the row's parameters, appends
    /// them to `out` when `inline_params`, then appends the payload.
    ///
    /// With binary16 parameters the range is chosen on `f32` grids, as
    /// with `f32` ones, and rounded once, here ([`Grid::half_for_range`]);
    /// the codes are computed on the rounded grid.
    fn quantize(&self, row: &[f32], out: &mut Vec<u8>, inline_params: bool) -> QuantParams {
        let grid_for = |xmin, xmax, bits| {
            if self.half_params {
                Grid::half_for_range(xmin, xmax, bits)
            } else {
                Grid::for_range(xmin, xmax, bits)
            }
        };
        let (grid, bits) = match self.scheme {
            QuantScheme::Fp32 => {
                put_f32s_le(row, out);
                return QuantParams::Fp32;
            }
            QuantScheme::Fp16 => {
                out.extend(row.iter().flat_map(|&x| f32_to_f16_bits(x).to_le_bytes()));
                return QuantParams::Fp16;
            }
            QuantScheme::Symmetric { bits } => {
                let xmax = max_abs(row);
                (grid_for(-xmax, xmax, bits), bits)
            }
            QuantScheme::Asymmetric { bits } => {
                let (xmin, xmax) = min_max(row);
                (grid_for(xmin, xmax, bits), bits)
            }
            QuantScheme::AdaptiveAsymmetric {
                bits,
                num_bins,
                ratio,
            } => {
                let full = min_max(row);
                let r = search_within(row, full, bits, num_bins, ratio);
                let grid = if self.half_params {
                    half_grid(row, &r, full, bits)
                } else {
                    Grid::for_range(r.xmin, r.xmax, bits)
                };
                (grid, bits)
            }
        };
        let params = if self.half_params {
            QuantParams::UniformF16 {
                scale: grid.scale,
                zero_point: grid.zero_point,
            }
        } else {
            grid.params()
        };
        if inline_params {
            params.encode_into(out);
        }
        quantize_pack_into(row, grid, bits, out);
        params
    }

    /// Serialized bytes of one row's body encoding (parameters + payload,
    /// no per-row header) at dimension `dim`: what
    /// [`Self::quantize_row_into`] appends, so a chunk writer can size its
    /// buffer before quantizing anything — the length the
    /// [`RowDecoder`] of this encoder's context reads.
    pub fn body_len(&self, dim: usize) -> usize {
        RowDecoder::new(self.kind_tag(), self.bits(), dim)
            .expect("an encoder's context names an encoding")
            .body_len()
    }
}

impl std::fmt::Display for QuantScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuantScheme::Fp32 => write!(f, "fp32"),
            QuantScheme::Fp16 => write!(f, "fp16"),
            QuantScheme::Symmetric { bits } => write!(f, "symmetric-{bits}bit"),
            QuantScheme::Asymmetric { bits } => write!(f, "asymmetric-{bits}bit"),
            QuantScheme::AdaptiveAsymmetric {
                bits,
                num_bins,
                ratio,
            } => write!(f, "adaptive-{bits}bit(bins={num_bins},ratio={ratio})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::row_l2_error;

    fn sample_row() -> Vec<f32> {
        (0..64)
            .map(|i| ((i * 29 % 64) as f32 / 64.0 - 0.4) * 0.2)
            .collect()
    }

    #[test]
    fn all_schemes_roundtrip_with_bounded_error() {
        let row = sample_row();
        let schemes = [
            QuantScheme::Fp32,
            QuantScheme::Symmetric { bits: 8 },
            QuantScheme::Asymmetric { bits: 8 },
            QuantScheme::AdaptiveAsymmetric {
                bits: 8,
                num_bins: 10,
                ratio: 0.5,
            },
        ];
        for s in schemes {
            let q = s.quantize_row(&row);
            let back = q.dequantize();
            assert_eq!(back.len(), row.len());
            let e = row_l2_error(&row, &back);
            assert!(e < 0.01, "{s}: error {e} too high at 8 bits");
        }
    }

    #[test]
    fn fp32_is_bit_exact() {
        let row = sample_row();
        let q = QuantScheme::Fp32.quantize_row(&row);
        assert_eq!(q.dequantize(), row);
    }

    #[test]
    fn recommended_schemes_match_paper() {
        assert!(matches!(
            QuantScheme::recommended_for_bits(2),
            QuantScheme::AdaptiveAsymmetric {
                bits: 2,
                num_bins: 25,
                ..
            }
        ));
        assert!(matches!(
            QuantScheme::recommended_for_bits(4),
            QuantScheme::AdaptiveAsymmetric {
                bits: 4,
                num_bins: 45,
                ..
            }
        ));
        assert!(matches!(
            QuantScheme::recommended_for_bits(8),
            QuantScheme::Asymmetric { bits: 8 }
        ));
        assert!(matches!(
            QuantScheme::recommended_for_bits(0),
            QuantScheme::Fp32
        ));
    }

    #[test]
    fn bytes_per_row_orders_sanely() {
        let dim = 64;
        let b2 = QuantScheme::recommended_for_bits(2).bytes_per_row(dim);
        let b4 = QuantScheme::recommended_for_bits(4).bytes_per_row(dim);
        let b8 = QuantScheme::recommended_for_bits(8).bytes_per_row(dim);
        let b32 = QuantScheme::Fp32.bytes_per_row(dim);
        assert!(b2 < b4 && b4 < b8 && b8 < b32);
        assert_eq!(b32, dim * 4 + 4, "fp32 row = payload + 4-byte header");
        // 2-bit: 16 bytes of codes + 4 bytes params (+ header) — well under
        // the 13x reduction ceiling the paper quotes for quantization alone.
        assert!(b2 <= dim / 4 + 8 + 8);
    }

    #[test]
    fn bytes_per_row_is_the_size_a_row_encodes_to() {
        let schemes = [
            QuantScheme::Fp32,
            QuantScheme::Fp16,
            QuantScheme::Symmetric { bits: 3 },
            QuantScheme::Asymmetric { bits: 1 },
            QuantScheme::Asymmetric { bits: 8 },
            QuantScheme::Asymmetric { bits: 16 },
            QuantScheme::recommended_for_bits(2),
            QuantScheme::recommended_for_bits(4),
        ];
        for s in schemes {
            for dim in [0usize, 1, 7, 32, 64, 129] {
                let row: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
                let q = s.quantize_row(&row);
                let encoder = s.encoder_for([&row[..]]);
                assert_eq!(s.bytes_per_row(dim), q.byte_size(), "{s} dim {dim}");
                assert_eq!(encoder.body_len(dim), q.body_byte_size(), "{s} dim {dim}");
                assert_eq!(encoder.kind_tag(), q.kind_tag(), "{s}");
                let mut body = Vec::new();
                encoder.quantize_row_into(&row, &mut body);
                let mut want = Vec::new();
                q.encode_body_into(&mut want);
                assert_eq!(body, want, "{s} dim {dim}");
            }
        }
    }

    #[test]
    fn display_is_informative() {
        let s = QuantScheme::AdaptiveAsymmetric {
            bits: 4,
            num_bins: 45,
            ratio: 1.0,
        };
        assert!(format!("{s}").contains("adaptive-4bit"));
    }
}
