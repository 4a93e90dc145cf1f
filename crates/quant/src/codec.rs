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
//! tag 0 = fp32        params: none                    payload: dim * 4 bytes
//! tag 1 = retired     (uniform, scale, zero_point: f32)
//! tag 2 = retired     (k-means codebook)
//! tag 3 = fp16        params: none                    payload: dim * 2 bytes
//! tag 4 = uniform     params: scale, zero_point: f16  payload: packed codes
//! ```
//!
//! Tag 4 is what every uniform scheme stores: the parameters are widened
//! to `f32` and a value is `scale * code as f32 + zero_point`. A chunk
//! holding a value its scheme cannot describe is stored as tag 0, exact
//! ([`crate::QuantScheme::stored_for`]).
//!
//! Tags 1 and 2 are retired: nothing writes them, they are never
//! reassigned, and a stored one is [`CodecError::BadTag`]. Tag 1 held
//! `f32` parameters — every uniform chunk written before tag 4 existed,
//! and later ones holding a NaN, `±∞` or a value beyond ±32752, which its
//! grid could not describe either. Tag 2 was a per-row k-means codebook,
//! the only variable-length parameter block, so a row body's length is a
//! function of the chunk-level context alone ([`RowDecoder::body_len`]).
//!
//! A reader resolves that context once per chunk, into a [`RowDecoder`],
//! and de-quantizes the chunk's rows through it: one loop per encoding
//! and code width over back-to-back bodies, with nothing decided per row.
//! The one-row entry points ([`decode_body_to`],
//! [`QuantizedRow::dequantize`]) run the same loops.

use crate::bitpack::packed_len;
use crate::half::f16_bits_to_f32;
use crate::kernel::{fp16_values, fp32_values, put_f32s_le, uniform_rows};
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

    /// Reconstructs the (approximate) original row, through the loops a
    /// [`RowDecoder`] runs.
    ///
    /// Panics when the payload is shorter than `dim` values.
    pub fn dequantize(&self) -> Vec<f32> {
        // Not `vec![0.0; dim]`: that is a `calloc`, which for a row-sized
        // buffer measured ~5 ns slower than `malloc` and an inline fill.
        let mut out = Vec::with_capacity(self.dim);
        out.resize(self.dim, 0.0);
        match self.params {
            QuantParams::Fp32 => fp32_values(&self.payload, &mut out),
            QuantParams::Fp16 => fp16_values(&self.payload, &mut out),
            QuantParams::Uniform { scale, zero_point } => {
                let codes = &self.payload[..packed_len(self.dim, self.bits)];
                let row = [(codes, out.as_mut_slice())];
                uniform_rows(self.bits, codes.len(), self.dim, row, |codes| {
                    (scale, zero_point, codes)
                });
            }
        }
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
        let decoder = RowDecoder::new(kind_tag, bits, dim)?;
        let mut body = split_body(buf, decoder.body_len)?;
        let params = match decoder.encoding {
            Encoding::Fp32 => QuantParams::Fp32,
            Encoding::Fp16 => QuantParams::Fp16,
            Encoding::Uniform { .. } => QuantParams::Uniform {
                scale: f16_bits_to_f32(body.get_u16_le()),
                zero_point: f16_bits_to_f32(body.get_u16_le()),
            },
        };
        Ok(Self {
            params,
            payload: body.to_vec(),
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
/// the destination the caller chose: a one-row [`RowDecoder::decode`],
/// whose `out.len()` values land straight in `out`. Equal, bit for bit, to
/// [`QuantizedRow::decode_body_from`] followed by
/// [`QuantizedRow::dequantize`]; on `Err` nothing was written.
pub fn decode_body_to(
    buf: &mut &[u8],
    kind_tag: u8,
    bits: u8,
    out: &mut [f32],
) -> Result<(), CodecError> {
    let decoder = RowDecoder::new(kind_tag, bits, out.len())?;
    decoder.decode(split_body(buf, decoder.body_len)?, out);
    Ok(())
}

/// How a row body stores its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Encoding {
    Fp32,
    Fp16,
    /// Uniform codes under binary16 parameters.
    Uniform { bits: u8 },
}

/// One chunk's row encoding, resolved once: what the chunk-level context
/// `(kind_tag, bits, dim)` names, the length of each row body under it,
/// and the loop that de-quantizes such bodies. Building one is the only
/// check the context gets — a retired or unknown tag, or a width the tag
/// does not allow, is refused here — so a reader that holds one decodes
/// any number of the chunk's rows without asking again.
///
/// Every value is computed as the row objects compute it: little-endian
/// bytes for fp32, [`crate::half::f16_bits_to_f32`] for fp16, and
/// `scale * code as f32 + zero_point` for uniform codes, binary16
/// parameters widened first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowDecoder {
    encoding: Encoding,
    dim: usize,
    body_len: usize,
}

impl RowDecoder {
    /// The decoder for rows of `dim` values stored under `(kind_tag,
    /// bits)`, or why that context names no encoding.
    pub fn new(kind_tag: u8, bits: u8, dim: usize) -> Result<Self, CodecError> {
        let (encoding, body_len) = match kind_tag {
            TAG_FP32 if bits == 32 => (Encoding::Fp32, dim * 4),
            TAG_FP16 if bits == 16 => (Encoding::Fp16, dim * 2),
            TAG_UNIFORM if (1..=16).contains(&bits) => {
                (Encoding::Uniform { bits }, 4 + packed_len(dim, bits))
            }
            TAG_FP32 | TAG_FP16 | TAG_UNIFORM => {
                return Err(CodecError::BadBits(bits))
            }
            t => return Err(CodecError::BadTag(t)),
        };
        Ok(Self {
            encoding,
            dim,
            body_len,
        })
    }

    /// Bytes of one row body — parameters, then payload. The length
    /// depends on the context alone, so row `k` of a chunk's back-to-back
    /// bodies starts at `k * body_len`, and a reader that keeps bodies
    /// encoded validates them all with one multiplication: `n` bodies are
    /// well-formed iff the context is and `n * body_len` bytes are there.
    pub fn body_len(&self) -> usize {
        self.body_len
    }

    /// Values per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// De-quantizes the back-to-back row bodies `bodies` into `out`, `dim`
    /// values per row, in order.
    ///
    /// Panics unless `bodies` holds exactly the rows `out` has room for.
    pub fn decode(&self, bodies: &[u8], out: &mut [f32]) {
        self.decode_runs([(bodies, out)]);
    }

    /// [`Self::decode`] over runs: each pair is some of a chunk's rows,
    /// back to back, and where they land. The encoding is matched once per
    /// call and each run goes through that encoding's loop — a run of
    /// fp32 rows is one pass over its bytes — so a caller that picks the
    /// rows as it goes (a restore skipping rows a newer chunk wrote) keeps
    /// its choice inside one loop.
    ///
    /// Panics unless each run's bodies are exactly the rows its
    /// destination has room for.
    pub fn decode_runs<'b, 'v>(&self, runs: impl IntoIterator<Item = (&'b [u8], &'v mut [f32])>) {
        match self.encoding {
            Encoding::Fp32 => runs.into_iter().for_each(|(bodies, out)| {
                assert_eq!(bodies.len(), out.len() * 4, "fp32 bodies for {} values", out.len());
                fp32_values(bodies, out);
            }),
            Encoding::Fp16 => runs.into_iter().for_each(|(bodies, out)| {
                assert_eq!(bodies.len(), out.len() * 2, "fp16 bodies for {} values", out.len());
                fp16_values(bodies, out);
            }),
            Encoding::Uniform { bits } => {
                uniform_rows(bits, self.body_len, self.dim, runs, |body| {
                    let (p, codes) = body.split_at(4);
                    let scale = f16_bits_to_f32(u16::from_le_bytes([p[0], p[1]]));
                    let zero_point = f16_bits_to_f32(u16::from_le_bytes([p[2], p[3]]));
                    (scale, zero_point, codes)
                })
            }
        }
    }
}

/// Splits one `len`-byte row body off the front of `buf`, advancing it
/// past the row.
fn split_body<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], CodecError> {
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let (body, rest) = buf.split_at(len);
    *buf = rest;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::QuantScheme;
    use proptest::prelude::*;

    fn body_len(kind_tag: u8, bits: u8, dim: usize) -> Result<usize, CodecError> {
        RowDecoder::new(kind_tag, bits, dim).map(|d| d.body_len())
    }

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

    /// Tags 1 (a uniform row with `f32` parameters) and 2 (a k-means
    /// codebook row) are retired. A stored one is rejected by number at
    /// the one place a row body is parsed — whichever entry point reached
    /// it — and nothing is read past the context.
    #[test]
    fn a_stored_codebook_row_is_a_bad_tag() {
        // What the retired encoders wrote for a 2-bit, 4-element row: the
        // context, then a length-prefixed 4-entry codebook or an `f32`
        // scale and zero point, then one byte of codes.
        let mut codebook = vec![2u8, 2, 4, 0, 4, 0];
        codebook.extend((0..4).flat_map(|i| (i as f32).to_le_bytes()));
        codebook.push(0b1110_0100);
        let mut f32_params = vec![1u8, 2, 4, 0];
        f32_params.extend([0.5f32, -1.0].iter().flat_map(|v| v.to_le_bytes()));
        f32_params.push(0b1110_0100);
        for (tag, stored) in [(2u8, codebook), (1, f32_params)] {
            assert_eq!(
                QuantizedRow::decode_from(&mut stored.as_slice()),
                Err(CodecError::BadTag(tag))
            );
            let body = &stored[ROW_HEADER_LEN..];
            assert_eq!(body_len(tag, 2, 4), Err(CodecError::BadTag(tag)));
            let mut out = [0.0f32; 4];
            assert_eq!(
                decode_body_to(&mut &body[..], tag, 2, &mut out),
                Err(CodecError::BadTag(tag))
            );
            assert_eq!(out, [0.0; 4], "nothing written");
            assert_eq!(
                QuantizedRow::decode_body_from(&mut &body[..], tag, 2, 4),
                Err(CodecError::BadTag(tag))
            );
            assert_eq!(CodecError::BadTag(tag).to_string(), format!("unknown row tag {tag}"));
        }
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
        assert_eq!(body_len(3, 8, 4), Err(CodecError::BadBits(8)));
        assert_eq!(body_len(4, 0, 4), Err(CodecError::BadBits(0)));
        assert_eq!(body_len(4, 17, 4), Err(CodecError::BadBits(17)));
        assert_eq!(body_len(4, 4, 32), Ok(4 + 16));
        assert_eq!(body_len(1, 4, 32), Err(CodecError::BadTag(1)));
        assert_eq!(body_len(5, 4, 32), Err(CodecError::BadTag(5)));
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
        let buf2 = [4u8, 0, 1, 0, 0, 0, 0, 0];
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
        assert!(QuantizedRow::decode_body_from(&mut slice2, 4, 0, q.dim).is_err());
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

    /// Values that break arithmetic, as stored fp32 payload words.
    const SPECIAL_F32: [f32; 9] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        f32::MIN_POSITIVE,
        1e-42, // subnormal
        f32::MAX,
        -3.5,
    ];

    /// The same as binary16 patterns: NaN, ±inf, −0, a subnormal, max.
    const SPECIAL_F16: [u16; 6] = [0x7E01, 0x7C00, 0xFC00, 0x8000, 0x0001, 0x7BFF];

    /// `n` arbitrary row bodies under `decoder`, from `seed`: random bytes,
    /// with special values written over some parameter and payload words.
    fn arbitrary_bodies(decoder: RowDecoder, tag: u8, n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut bodies: Vec<u8> = (0..n * decoder.body_len()).map(|_| next() as u8).collect();
        for body in bodies.chunks_exact_mut(decoder.body_len().max(1)) {
            let (words, width) = match tag {
                TAG_UNIFORM => (2, 2), // scale, zero_point: binary16
                TAG_FP32 => (decoder.dim(), 4),
                _ => (decoder.dim(), 2),
            };
            for w in 0..words {
                let r = next();
                if r % 3 != 0 {
                    continue;
                }
                let at = &mut body[w * width..(w + 1) * width];
                if width == 4 {
                    let v = SPECIAL_F32[(r >> 8) as usize % SPECIAL_F32.len()];
                    at.copy_from_slice(&v.to_le_bytes());
                } else {
                    let v = SPECIAL_F16[(r >> 8) as usize % SPECIAL_F16.len()];
                    at.copy_from_slice(&v.to_le_bytes());
                }
            }
        }
        bodies
    }

    /// Bits of each value; every NaN the same (a NaN's payload out of
    /// arithmetic is not part of the contract).
    fn value_bits(values: &[f32]) -> Vec<u32> {
        values
            .iter()
            .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
            .collect()
    }

    proptest! {
        /// A chunk's rows decoded in one call — and in runs of any split —
        /// equal, bit for bit, each row decoded on its own through the row
        /// object and the frozen reference codec: fp32, fp16 and uniform at
        /// every width, for arbitrary stored bytes.
        #[test]
        fn chunk_decoder_equals_the_row_object_oracle(
            encoding in 0u8..18,
            dim_idx in 0usize..8,
            n in 1usize..=64,
            split in 0usize..=64,
            seed in any::<u64>(),
        ) {
            let (tag, bits) = match encoding {
                0 => (TAG_FP32, 32),
                1 => (TAG_FP16, 16),
                b => (TAG_UNIFORM, b - 1),
            };
            let dim = [1usize, 3, 7, 8, 13, 32, 64, 65][dim_idx];
            let decoder = RowDecoder::new(tag, bits, dim).unwrap();
            let bodies = arbitrary_bodies(decoder, tag, n, seed);

            let mut want = Vec::with_capacity(n * dim);
            let mut cursor = bodies.as_slice();
            for _ in 0..n {
                let row = QuantizedRow::decode_body_from(&mut cursor, tag, bits, dim).unwrap();
                let values = row.dequantize();
                prop_assert_eq!(value_bits(&values), value_bits(&crate::reference::dequantize(&row)));
                want.extend(values);
            }
            prop_assert!(cursor.is_empty());

            let mut got = vec![f32::NAN; n * dim];
            decoder.decode(&bodies, &mut got);
            prop_assert_eq!(value_bits(&got), value_bits(&want), "one call");

            let split = split.min(n);
            let (first, second) = got.split_at_mut(split * dim);
            first.fill(7.0);
            second.fill(7.0);
            let (b0, b1) = bodies.split_at(split * decoder.body_len());
            decoder.decode_runs([(b0, first), (b1, second)]);
            prop_assert_eq!(value_bits(&got), value_bits(&want), "two runs");
        }
    }
}
