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
//! tag 2 = codebook  params: u16 len + f32 * len payload: packed codes
//! ```

use crate::bitpack::packed_len;
use crate::kernel::{dequantize_payload, dequantize_payload_to, put_f32s_le};
use crate::params::{QuantParams, TAG_CODEBOOK, TAG_FP16, TAG_FP32, TAG_UNIFORM};
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
        let mut out = Vec::with_capacity(self.dim);
        dequantize_payload(&self.params, &self.payload, self.bits, self.dim, &mut out);
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
        self.params.encoded_len() + self.payload.len()
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

/// Decodes a row body given chunk-level `(kind_tag, bits, dim)` context
/// and appends its `dim` de-quantized values to `out`: parameters are read
/// and the packed codes unpacked and scaled from the borrowed bytes, with
/// no [`QuantizedRow`] in between. Equal, bit for bit, to
/// [`QuantizedRow::decode_body_from`] followed by
/// [`QuantizedRow::dequantize`].
pub fn decode_body_into(
    buf: &mut &[u8],
    kind_tag: u8,
    bits: u8,
    dim: usize,
    out: &mut Vec<f32>,
) -> Result<(), CodecError> {
    let (params, payload) = split_body(buf, kind_tag, bits, dim)?;
    dequantize_payload(&params, payload, bits, dim, out);
    Ok(())
}

/// [`decode_body_into`] with the destination chosen by the caller: the
/// row's `out.len()` values are de-quantized from the borrowed bytes
/// straight into `out` — a restore passes the row's slice of the model's
/// own table, so no buffer stands between the stored bytes and the
/// weights. Same bits as [`decode_body_into`]; on `Err` nothing was
/// written.
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

/// Validates one row body against the chunk-level context and advances
/// `buf` past it without de-quantizing anything: accepts exactly what
/// [`decode_body_into`] accepts. For a reader that keeps bodies encoded
/// and wants malformed input rejected where it enters.
pub fn skip_body(buf: &mut &[u8], kind_tag: u8, bits: u8, dim: usize) -> Result<(), CodecError> {
    split_body(buf, kind_tag, bits, dim).map(|_| ())
}

/// Validates the chunk-level context, reads one row's parameters off the
/// front of `buf` and splits off its payload, advancing `buf` past the
/// row. The payload is borrowed; only a codebook allocates.
fn split_body<'a>(
    buf: &mut &'a [u8],
    kind_tag: u8,
    bits: u8,
    dim: usize,
) -> Result<(QuantParams, &'a [u8]), CodecError> {
    let (params, payload_len) = match kind_tag {
        TAG_FP32 => {
            if bits != 32 {
                return Err(CodecError::BadBits(bits));
            }
            (QuantParams::Fp32, dim * 4)
        }
        TAG_UNIFORM => {
            if !(1..=16).contains(&bits) {
                return Err(CodecError::BadBits(bits));
            }
            if buf.remaining() < 8 {
                return Err(CodecError::Truncated);
            }
            let scale = buf.get_f32_le();
            let zero_point = buf.get_f32_le();
            (
                QuantParams::Uniform { scale, zero_point },
                packed_len(dim, bits),
            )
        }
        TAG_CODEBOOK => {
            if !(1..=16).contains(&bits) {
                return Err(CodecError::BadBits(bits));
            }
            if buf.remaining() < 2 {
                return Err(CodecError::Truncated);
            }
            let n = buf.get_u16_le() as usize;
            if buf.remaining() < n * 4 {
                return Err(CodecError::Truncated);
            }
            let mut cb = Vec::with_capacity(n);
            for _ in 0..n {
                cb.push(buf.get_f32_le());
            }
            (QuantParams::Codebook(cb), packed_len(dim, bits))
        }
        TAG_FP16 => {
            if bits != 16 {
                return Err(CodecError::BadBits(bits));
            }
            (QuantParams::Fp16, packed_len(dim, 16))
        }
        t => return Err(CodecError::BadTag(t)),
    };
    if buf.remaining() < payload_len {
        return Err(CodecError::Truncated);
    }
    let (payload, rest) = buf.split_at(payload_len);
    *buf = rest;
    Ok((params, payload))
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

    #[test]
    fn codebook_roundtrip() {
        let row = sample_row();
        let q = QuantScheme::KMeans { bits: 3 }.quantize_row(&row);
        let back = roundtrip(&q);
        assert_eq!(back, q);
        assert_eq!(back.dequantize(), q.dequantize());
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
            QuantScheme::KMeans { bits: 3 },
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
