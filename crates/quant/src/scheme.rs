//! Unified quantization scheme selector.
//!
//! [`QuantScheme`] is the configuration value that flows through Check-N-Run:
//! the engine picks one per checkpoint (§6.2.1 dynamic bit-width selection)
//! and the chunked writer applies it row by row.

use crate::adaptive;
use crate::codec::{QuantizedRow, RowDecoder, ROW_HEADER_LEN};
use crate::half::f32_to_f16_bits;
use crate::kernel::{fits_half, half_keeps_finite, put_f32s_le, quantize_pack_into, Grid};
use crate::params::{QuantParams, TAG_FP16, TAG_FP32, TAG_UNIFORM};
use crate::uniform::{max_abs, min_max};

/// A quantization scheme with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantScheme {
    /// No quantization (32-bit passthrough, bit-exact).
    Fp32,
    /// IEEE binary16: 2× smaller, ~3 significant digits, parameter-free.
    Fp16,
    /// Uniform symmetric (§5.2 Approach 1, baseline).
    ///
    /// Unlike the asymmetric schemes, a de-quantized symmetric row does not
    /// re-quantize to itself: its largest-magnitude element reconstructs
    /// to a grid end that is not `±max|x|` (with binary16 parameters, up to
    /// a binary16 step off), and the next range is taken from that. Over
    /// 200,000 random rows in `[-1, 1]` at 2–8 bits, 11,947 broke
    /// idempotence with `f32` parameters and 72,467 with binary16 ones, so
    /// a symmetric checkpoint of restored rows compounds error. The paper
    /// finds the scheme worst on embeddings (Figure 9) and nothing
    /// recommends it; it stays as that baseline.
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

    /// The scheme a chunk holding `rows` is stored under: `self`, or
    /// [`QuantScheme::Fp32`] when some value is one `self` cannot describe
    /// — so a value is restored approximately or exactly, never as
    /// garbage. A uniform scheme describes finite values within ±32752
    /// (half the largest binary16 value, so neither binary16 parameter
    /// overflows); fp16 describes every value but a finite one binary16
    /// rounds to `±∞` (magnitude 65520 or more). Decided from the values
    /// alone, in one pass over them; a chunk writer calls it once and
    /// stores the result's [`Self::kind_tag`] and [`Self::bits`] for all
    /// its rows.
    pub fn stored_for<'a>(&self, rows: impl IntoIterator<Item = &'a [f32]>) -> QuantScheme {
        let describes = |values: &[f32]| match self {
            QuantScheme::Fp32 => true,
            QuantScheme::Fp16 => half_keeps_finite(values),
            _ => fits_half(values),
        };
        if rows.into_iter().all(describes) {
            *self
        } else {
            QuantScheme::Fp32
        }
    }

    /// Quantizes one embedding row, stored as a chunk of just this row
    /// would store it ([`Self::stored_for`]).
    pub fn quantize_row(&self, row: &[f32]) -> QuantizedRow {
        let stored = self.stored_for([row]);
        let mut payload = Vec::with_capacity(stored.body_len(row.len()));
        let params = stored.quantize(row, &mut payload, false);
        QuantizedRow {
            params,
            payload,
            dim: row.len(),
            bits: stored.bits(),
        }
    }

    /// Expected serialized bytes per row of dimension `dim`, including the
    /// per-row parameter overhead — the quantity Figures 15–17 account in
    /// "% of model size" — for rows the scheme can describe.
    pub fn bytes_per_row(&self, dim: usize) -> usize {
        ROW_HEADER_LEN + self.body_len(dim)
    }

    /// Tag byte of the rows this scheme stores
    /// ([`QuantParams::kind_tag`]).
    pub fn kind_tag(&self) -> u8 {
        match self {
            QuantScheme::Fp32 => TAG_FP32,
            QuantScheme::Fp16 => TAG_FP16,
            _ => TAG_UNIFORM,
        }
    }

    /// Quantizes the rows of `dim` values that `rows` holds back to back
    /// and appends their body encodings — each row's parameters, then its
    /// packed codes — in order, straight to `out`: for rows `self`
    /// describes ([`Self::stored_for`]), the bytes
    /// `self.quantize_row(row).encode_body_into(out)` appends for each,
    /// without the row objects or any other allocation in between. `self`
    /// must be the scheme the rows are stored under. An fp32 body is the
    /// row's values, so an fp32 run is one copy, not one per row. A zero
    /// `dim` is one empty row.
    pub fn quantize_rows_into(&self, rows: &[f32], dim: usize, out: &mut Vec<u8>) {
        debug_assert_eq!(
            self.stored_for([rows]),
            *self,
            "rows {self} cannot describe"
        );
        if let QuantScheme::Fp32 = self {
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
    /// A uniform row's range is chosen on `f32` grids and rounded once,
    /// here, to the binary16 grid it is stored on
    /// ([`Grid::half_for_range`]; the adaptive scheme's
    /// [`adaptive::grid`]); the codes are computed on the rounded grid.
    fn quantize(&self, row: &[f32], out: &mut Vec<u8>, inline_params: bool) -> QuantParams {
        let (grid, bits) = match *self {
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
                (Grid::half_for_range(-xmax, xmax, bits), bits)
            }
            QuantScheme::Asymmetric { bits } => {
                let (xmin, xmax) = min_max(row);
                (Grid::half_for_range(xmin, xmax, bits), bits)
            }
            QuantScheme::AdaptiveAsymmetric {
                bits,
                num_bins,
                ratio,
            } => (adaptive::grid(row, bits, num_bins, ratio), bits),
        };
        let params = QuantParams::Uniform {
            scale: grid.scale,
            zero_point: grid.zero_point,
        };
        if inline_params {
            params.encode_into(out);
        }
        quantize_pack_into(row, grid, bits, out);
        params
    }

    /// Serialized bytes of one row's body encoding (parameters + payload,
    /// no per-row header) at dimension `dim`: what
    /// [`Self::quantize_rows_into`] appends a row, so a chunk writer can
    /// size its buffer before quantizing anything — the length the
    /// [`RowDecoder`] of this scheme's context reads.
    pub fn body_len(&self, dim: usize) -> usize {
        RowDecoder::new(self.kind_tag(), self.bits(), dim)
            .expect("a scheme's context names an encoding")
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
                assert_eq!(s.stored_for([&row[..]]), s, "{s} describes the row");
                assert_eq!(s.bytes_per_row(dim), q.byte_size(), "{s} dim {dim}");
                assert_eq!(s.body_len(dim), q.body_byte_size(), "{s} dim {dim}");
                assert_eq!(s.kind_tag(), q.kind_tag(), "{s}");
                let mut body = Vec::new();
                s.quantize_rows_into(&row, dim, &mut body);
                let mut want = Vec::new();
                q.encode_body_into(&mut want);
                assert_eq!(body, want, "{s} dim {dim}");
            }
        }
    }

    /// Bits of each value, every NaN the same.
    fn value_bits(values: &[f32]) -> Vec<u32> {
        let bits = |v: &f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
        values.iter().map(bits).collect()
    }

    /// A value a uniform scheme cannot describe — NaN, `±∞`, a magnitude
    /// over 32752 — stores the whole chunk as exact fp32 rows; one within
    /// reach keeps the scheme.
    #[test]
    fn a_value_a_uniform_scheme_cannot_describe_stores_fp32() {
        let ordinary = [0.1f32, -0.2, 0.3, 0.05];
        for scheme in [
            QuantScheme::Symmetric { bits: 3 },
            QuantScheme::Asymmetric { bits: 8 },
            QuantScheme::recommended_for_bits(4),
        ] {
            let edge = [32752.0f32, -32752.0, 0.5, 0.0];
            assert_eq!(scheme.stored_for([&ordinary[..], &edge[..]]), scheme);
            for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 32752.004, -1e6] {
                let row = [0.1f32, special, 0.3, 0.05];
                let chunk = [&ordinary[..], &row[..]];
                assert_eq!(
                    scheme.stored_for(chunk),
                    QuantScheme::Fp32,
                    "{scheme} {special}"
                );
                let q = scheme.quantize_row(&row);
                assert_eq!((q.kind_tag(), q.bits), (TAG_FP32, 32), "{scheme} {special}");
                assert_eq!(
                    value_bits(&q.dequantize()),
                    value_bits(&row),
                    "{scheme} {special}"
                );
            }
        }
        assert_eq!(
            QuantScheme::Fp32.stored_for([&[f32::NAN][..]]),
            QuantScheme::Fp32
        );
    }

    /// Binary16 rounds a finite magnitude of 65520 or more to `±∞`: an
    /// fp16 chunk holding one is stored as fp32. NaN, `±∞` and the largest
    /// finite binary16 value round-trip, so they keep fp16.
    #[test]
    fn fp16_stores_fp32_rather_than_turn_finite_values_into_infinities() {
        let below = f32::from_bits(65520f32.to_bits() - 1);
        let kept = [
            65504.0f32,
            -65504.0,
            below,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.1,
        ];
        assert_eq!(QuantScheme::Fp16.stored_for([&kept[..]]), QuantScheme::Fp16);
        let q = QuantScheme::Fp16.quantize_row(&kept);
        assert_eq!(q.kind_tag(), TAG_FP16);
        let back = q.dequantize();
        assert_eq!(
            value_bits(&back[..6]),
            value_bits(&[
                65504.0,
                -65504.0,
                65504.0,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY
            ])
        );

        let mixed = [1e5f32, 70000.0, 65504.0, f32::NAN, f32::INFINITY, 0.1];
        assert_eq!(
            value_bits(&QuantScheme::Fp16.quantize_row(&mixed).dequantize()),
            value_bits(&mixed)
        );
        for big in [65520.0f32, -65520.0, 70000.0, -f32::MAX] {
            let row = [0.5f32, big, 65504.0, f32::NAN, f32::INFINITY, 0.1];
            assert_eq!(
                QuantScheme::Fp16.stored_for([&kept[..], &row[..]]),
                QuantScheme::Fp32
            );
            let q = QuantScheme::Fp16.quantize_row(&row);
            assert_eq!((q.kind_tag(), q.bits), (TAG_FP32, 32), "{big}");
            assert_eq!(value_bits(&q.dequantize()), value_bits(&row), "{big}");
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
