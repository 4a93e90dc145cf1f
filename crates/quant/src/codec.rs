//! Serialized representation of a quantized embedding row.
//!
//! The chunked checkpoint writer in `cnr-core` streams rows through this
//! codec. The format is self-describing per row (tag + bits + dim + params +
//! packed codes) so a restore can decode a chunk without external schema —
//! important because a single checkpoint can mix schemes (e.g. an 8-bit
//! fallback checkpoint following 4-bit ones, §6.2.1).
//!
//! Layout (little-endian):
//!
//! ```text
//! +-----+------+--------+----------------------+------------------+
//! | tag | bits | dim:u16| params (per tag)     | payload          |
//! +-----+------+--------+----------------------+------------------+
//! tag 0 = fp32      params: none                payload: dim * 4 bytes
//! tag 1 = uniform   params: scale, zero_point   payload: packed codes
//! tag 3 = fp16      params: none                payload: dim * 2 bytes
//! ```
//!
//! Tag 2 was a per-row k-means codebook. It is retired: nothing writes it
//! and a stored one is [`CodecError::BadTag`]. With it went the only
//! variable-length parameter block, so a row body's length is a function
//! of the chunk-level context alone ([`body_len`]).

use crate::bitpack::packed_len;
use crate::kernel::{dequantize_payload_to, put_f32s_le};
use crate::params::{QuantParams, TAG_FP16, TAG_FP32, TAG_UNIFORM};
use bytes::{Buf, BufMut};

/// Errors from decoding a serialized row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the row was complete.
    Truncated,
    /// Unknown tag byte.
    BadTag(u8),
    /// Bits field outside the supported range.
    BadBits(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "row encoding truncated"),
            CodecError::BadTag(t) => write!(f, "unknown row tag {t}"),
            CodecError::BadBits(b) => write!(f, "unsupported bit width {b}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bytes of the per-row fixed header: tag + bits + dim.
pub(crate) const ROW_HEADER_LEN: usize = 1 + 1 + 2;

/// A quantized embedding row: parameters plus bit-packed codes.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedRow {
    /// Quantization parameters of this row.
    pub params: QuantParams,
    /// Bit-packed codes (or raw f32 bytes for Fp32).
    pub payload: Vec<u8>,
    /// Number of elements in the original row.
    pub dim: usize,
    /// Code width in bits (32 for Fp32).
    pub bits: u8,
}

impl QuantizedRow {
    /// Wraps a row without quantization (bit-exact passthrough).
    pub fn fp32(row: &[f32]) -> Self {
        let mut payload = Vec::with_capacity(row.len() * 4);
        put_f32s_le(row, &mut payload);
        Self {
            params: QuantParams::Fp32,
            payload,
            dim: row.len(),
            bits: 32,
        }
    }

    /// Reconstructs the (approximate) original row.
    ///
    /// Panics when the payload is shorter than `dim` values.
    pub fn dequantize(&self) -> Vec<f32> {
        // Not `vec![0.0; dim]`: that is a `calloc`, which for a row-sized
        // buffer measured ~5 ns slower than `malloc` and an inline fill.
        let mut out = Vec::with_capacity(self.dim);
        out.resize(self.dim, 0.0);
        dequantize_payload_to(&self.params, &self.payload, self.bits, &mut out);
        out
    }

    /// Total serialized size in bytes, including header and parameters.
    pub fn byte_size(&self) -> usize {
        ROW_HEADER_LEN + self.body_byte_size()
    }

    /// Appends the serialized row to `buf`.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        debug_assert!(self.dim <= u16::MAX as usize, "row dim too large for codec");
        buf.put_u8(self.kind_tag());
        buf.put_u8(self.bits);
        buf.put_u16_le(self.dim as u16);
        self.encode_body_into(buf);
    }

    /// Tag byte describing this row's parameter kind (shared by all rows of
    /// a chunk, so chunked encodings store it once).
    pub fn kind_tag(&self) -> u8 {
        self.params.kind_tag()
    }

    /// Appends only the per-row varying parts (parameters + payload),
    /// assuming the reader knows `(kind_tag, bits, dim)` from chunk-level
    /// context. This amortizes the fixed header across a chunk — without it
    /// a 2-bit dim-64 row would pay 4 bytes of redundant header on ~28
    /// bytes of data.
    pub fn encode_body_into(&self, buf: &mut Vec<u8>) {
        self.params.encode_into(buf);
        buf.extend_from_slice(&self.payload);
    }

    /// Serialized size of the body encoding (no per-row header).
    pub fn body_byte_size(&self) -> usize {
        self.params.byte_size() + self.payload.len()
    }

    /// Decodes a row body given chunk-level `(kind_tag, bits, dim)` context.
    pub fn decode_body_from(
        buf: &mut &[u8],
        kind_tag: u8,
        bits: u8,
        dim: usize,
    ) -> Result<Self, CodecError> {
        let (params, payload) = split_body(buf, kind_tag, bits, dim)?;
        Ok(Self {
            params,
            payload: payload.to_vec(),
            dim,
            bits,
        })
    }

    /// Decodes one row from the front of `buf`, advancing it past the row.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Self, CodecError> {
        if buf.remaining() < ROW_HEADER_LEN {
            return Err(CodecError::Truncated);
        }
        let tag = buf.get_u8();
        let bits = buf.get_u8();
        let dim = buf.get_u16_le() as usize;
        Self::decode_body_from(buf, tag, bits, dim)
    }
}

/// Decodes a row body given chunk-level `(kind_tag, bits)` context into
/// the destination the caller chose: parameters are read and the packed
/// codes unpacked and scaled from the borrowed bytes, with no
/// [`QuantizedRow`] in between, and the row's `out.len()` values land
/// straight in `out` — a restore passes the row's slice of the model's own
/// table, so no buffer stands between the stored bytes and the weights.
/// Equal, bit for bit, to [`QuantizedRow::decode_body_from`] followed by
/// [`QuantizedRow::dequantize`]; on `Err` nothing was written.
pub fn decode_body_to(
    buf: &mut &[u8],
    kind_tag: u8,
    bits: u8,
    out: &mut [f32],
) -> Result<(), CodecError> {
    let (params, payload) = split_body(buf, kind_tag, bits, out.len())?;
    dequantize_payload_to(&params, payload, bits, out);
    Ok(())
}

/// Bytes of one row body — parameters, then payload — under the chunk-level
/// context `(kind_tag, bits, dim)`, or why that context names no encoding.
/// The length depends on nothing else, so row `k` of a chunk's
/// back-to-back bodies starts at `k * body_len`, and a reader that keeps
/// bodies encoded validates them all with one multiplication: `n` bodies
/// are well-formed iff the context is and `n * body_len` bytes are there
/// (exactly what [`decode_body_to`] accepts, row by row).
pub fn body_len(kind_tag: u8, bits: u8, dim: usize) -> Result<usize, CodecError> {
    match kind_tag {
        TAG_FP32 if bits == 32 => Ok(dim * 4),
        TAG_FP16 if bits == 16 => Ok(packed_len(dim, 16)),
        TAG_UNIFORM if (1..=16).contains(&bits) => Ok(8 + packed_len(dim, bits)),
        TAG_FP32 | TAG_FP16 | TAG_UNIFORM => Err(CodecError::BadBits(bits)),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Validates the chunk-level context, splits one row body off the front of
/// `buf` (advancing it past the row) and reads the row's parameters. The
/// payload is borrowed; nothing allocates.
fn split_body<'a>(
    buf: &mut &'a [u8],
    kind_tag: u8,
    bits: u8,
    dim: usize,
) -> Result<(QuantParams, &'a [u8]), CodecError> {
    let len = body_len(kind_tag, bits, dim)?;
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let (mut body, rest) = buf.split_at(len);
    *buf = rest;
    let params = match kind_tag {
        TAG_FP32 => QuantParams::Fp32,
        TAG_FP16 => QuantParams::Fp16,
        _ => QuantParams::Uniform {
            scale: body.get_f32_le(),
            zero_point: body.get_f32_le(),
        },
    };
    Ok((params, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::QuantScheme;

    fn sample_row() -> Vec<f32> {
        (0..32).map(|i| ((i * 17 % 32) as f32 / 32.0 - 0.5) * 0.3).collect()
    }

    fn roundtrip(q: &QuantizedRow) -> QuantizedRow {
        let mut buf = Vec::new();
        q.encode_into(&mut buf);
        assert_eq!(buf.len(), q.byte_size(), "byte_size must match encoding");
        let mut slice = buf.as_slice();
        let back = QuantizedRow::decode_from(&mut slice).unwrap();
        assert!(slice.is_empty(), "decode must consume the whole row");
        back
    }

    #[test]
    fn fp32_roundtrip_bit_exact() {
        let row = sample_row();
        let q = QuantScheme::Fp32.quantize_row(&row);
        let back = roundtrip(&q);
        assert_eq!(back.dequantize(), row);
    }

    #[test]
    fn uniform_roundtrip() {
        let row = sample_row();
        for bits in [2u8, 3, 4, 8] {
            let q = QuantScheme::Asymmetric { bits }.quantize_row(&row);
            let back = roundtrip(&q);
            assert_eq!(back, q, "roundtrip at {bits} bits");
        }
    }

    /// Tag 2 was the k-means codebook row. A stored one is rejected by
    /// number at the one place a row body is parsed — whichever entry point
    /// reached it — and nothing is read past the context.
    #[test]
    fn a_stored_codebook_row_is_a_bad_tag() {
        // What the retired encoder wrote for a 2-bit, 4-element row: the
        // context, a length-prefixed 4-entry codebook, one byte of codes.
        let mut stored = vec![2u8, 2, 4, 0, 4, 0];
        stored.extend((0..4).flat_map(|i| (i as f32).to_le_bytes()));
        stored.push(0b1110_0100);
        assert_eq!(
            QuantizedRow::decode_from(&mut stored.as_slice()),
            Err(CodecError::BadTag(2))
        );
        let body = &stored[ROW_HEADER_LEN..];
        assert_eq!(body_len(2, 2, 4), Err(CodecError::BadTag(2)));
        let mut out = [0.0f32; 4];
        assert_eq!(
            decode_body_to(&mut &body[..], 2, 2, &mut out),
            Err(CodecError::BadTag(2))
        );
        assert_eq!(out, [0.0; 4], "nothing written");
        assert_eq!(CodecError::BadTag(2).to_string(), "unknown row tag 2");
    }

    #[test]
    fn body_len_is_what_a_row_encodes_to() {
        let row = sample_row();
        for scheme in [
            QuantScheme::Fp32,
            QuantScheme::Fp16,
            QuantScheme::Symmetric { bits: 3 },
            QuantScheme::Asymmetric { bits: 4 },
            QuantScheme::recommended_for_bits(2),
        ] {
            let q = scheme.quantize_row(&row);
            assert_eq!(
                body_len(q.kind_tag(), q.bits, q.dim),
                Ok(q.body_byte_size()),
                "{scheme}"
            );
        }
        assert_eq!(body_len(0, 8, 4), Err(CodecError::BadBits(8)));
        assert_eq!(body_len(1, 0, 4), Err(CodecError::BadBits(0)));
        assert_eq!(body_len(1, 17, 4), Err(CodecError::BadBits(17)));
        assert_eq!(body_len(3, 8, 4), Err(CodecError::BadBits(8)));
    }

    #[test]
    fn multiple_rows_in_one_buffer() {
        let rows = [sample_row(), sample_row().iter().map(|x| -x).collect()];
        let mut buf = Vec::new();
        for r in &rows {
            QuantScheme::Asymmetric { bits: 4 }
                .quantize_row(r)
                .encode_into(&mut buf);
        }
        let mut slice = buf.as_slice();
        for r in &rows {
            let q = QuantizedRow::decode_from(&mut slice).unwrap();
            assert_eq!(q.dim, r.len());
        }
        assert!(slice.is_empty());
    }

    #[test]
    fn truncated_buffer_errors() {
        let q = QuantScheme::Asymmetric { bits: 4 }.quantize_row(&sample_row());
        let mut buf = Vec::new();
        q.encode_into(&mut buf);
        for cut in [0, 1, 3, 5, buf.len() - 1] {
            let mut slice = &buf[..cut];
            assert_eq!(
                QuantizedRow::decode_from(&mut slice),
                Err(CodecError::Truncated),
                "cut at {cut} should be truncated"
            );
        }
    }

    #[test]
    fn bad_tag_errors() {
        let buf = [9u8, 4, 1, 0, 0, 0, 0, 0];
        let mut slice = buf.as_slice();
        assert_eq!(
            QuantizedRow::decode_from(&mut slice),
            Err(CodecError::BadTag(9))
        );
    }

    #[test]
    fn bad_bits_errors() {
        // fp32 tag with non-32 bits.
        let buf = [0u8, 8, 1, 0];
        let mut slice = buf.as_slice();
        assert_eq!(
            QuantizedRow::decode_from(&mut slice),
            Err(CodecError::BadBits(8))
        );
        // uniform tag with 0 bits.
        let buf2 = [1u8, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut slice2 = buf2.as_slice();
        assert_eq!(
            QuantizedRow::decode_from(&mut slice2),
            Err(CodecError::BadBits(0))
        );
    }

    #[test]
    fn empty_row_roundtrip() {
        let q = QuantScheme::Asymmetric { bits: 4 }.quantize_row(&[]);
        let back = roundtrip(&q);
        assert_eq!(back.dim, 0);
        assert!(back.dequantize().is_empty());
    }

    #[test]
    fn fp16_roundtrip_is_half_size_and_accurate() {
        let row = sample_row();
        let q = QuantScheme::Fp16.quantize_row(&row);
        let back = roundtrip(&q);
        assert_eq!(back, q);
        let values = back.dequantize();
        for (a, b) in row.iter().zip(&values) {
            assert!((a - b).abs() < 3e-4, "{a} vs {b}");
        }
        let fp32 = QuantScheme::Fp32.quantize_row(&row);
        assert_eq!(q.payload.len() * 2, fp32.payload.len());
        assert_eq!(q.byte_size() - 4, (fp32.byte_size() - 4) / 2);
    }

    #[test]
    fn body_roundtrip_matches_full_encoding() {
        let row = sample_row();
        for scheme in [
            QuantScheme::Fp32,
            QuantScheme::Fp16,
            QuantScheme::Asymmetric { bits: 2 },
            QuantScheme::Asymmetric { bits: 4 },
        ] {
            let q = scheme.quantize_row(&row);
            let mut buf = Vec::new();
            q.encode_body_into(&mut buf);
            assert_eq!(buf.len(), q.body_byte_size());
            let mut slice = buf.as_slice();
            let back =
                QuantizedRow::decode_body_from(&mut slice, q.kind_tag(), q.bits, q.dim).unwrap();
            assert!(slice.is_empty());
            assert_eq!(back, q, "{scheme}");
        }
    }

    #[test]
    fn body_encoding_saves_the_header() {
        let row = sample_row();
        let q = QuantScheme::Asymmetric { bits: 2 }.quantize_row(&row);
        assert_eq!(q.byte_size(), q.body_byte_size() + 4);
    }

    #[test]
    fn body_decode_rejects_bad_context() {
        let row = sample_row();
        let q = QuantScheme::Asymmetric { bits: 4 }.quantize_row(&row);
        let mut buf = Vec::new();
        q.encode_body_into(&mut buf);
        let mut slice = buf.as_slice();
        assert!(QuantizedRow::decode_body_from(&mut slice, 9, 4, q.dim).is_err());
        let mut slice2 = buf.as_slice();
        assert!(QuantizedRow::decode_body_from(&mut slice2, 1, 0, q.dim).is_err());
    }

    #[test]
    fn size_reduction_ratios_are_sane() {
        let dim = 64;
        let row: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.1).sin()).collect();
        let fp32 = QuantScheme::Fp32.quantize_row(&row).byte_size();
        let q4 = QuantScheme::Asymmetric { bits: 4 }.quantize_row(&row).byte_size();
        let q2 = QuantScheme::Asymmetric { bits: 2 }.quantize_row(&row).byte_size();
        // The paper quotes 4–13x checkpoint size reduction from quantization;
        // per-row with params overhead we should land in that band.
        let r4 = fp32 as f64 / q4 as f64;
        let r2 = fp32 as f64 / q2 as f64;
        assert!(r4 > 5.0 && r4 < 8.5, "4-bit ratio {r4}");
        assert!(r2 > 8.0 && r2 < 13.5, "2-bit ratio {r2}");
    }
}
