//! Self-describing checksummed object envelope (wire v4) — the one stored
//! form.
//!
//! Production object stores exhibit bit-rot, truncated multipart uploads,
//! and stale replicas. Every object written by the checkpoint pipeline —
//! chunks, manifests and WAL frames alike — is wrapped in a 16-byte
//! envelope that makes the object self-describing and end-to-end
//! verifiable at every read site:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  magic        b"CNR4"
//!      4     2  version      u16 LE, = 4
//!      6     2  flags        u16 LE (bit 0: payload is a manifest)
//!      8     4  payload_len  u32 LE, exact length of payload
//!     12     4  crc32        u32 LE, CRC-32 (IEEE) over bytes
//!                            [4, 12) of the header ++ payload
//!     16     …  payload      the object's own encoding
//! ```
//!
//! The checksum covers the header fields as well as the payload, and the
//! magic is compared exactly, so a bit flip anywhere in the object is
//! detected — including flips that land on defined flag bits. There is no
//! other stored form: a buffer that does not start with the magic, carries
//! another version or fails any check below is [`StorageError::Corrupt`],
//! which is what sends a reader to another replica.
//!
//! The layout is v3's; the version moved to 4 because the frame checksum
//! *inside* chunk and manifest payloads changed (FNV-1a → XXH64, see
//! `cnr_core::wire`), and an object written under one must not decode
//! under the other. A v3 object is rejected here, by version, before any
//! payload codec sees it.
//!
//! The parser is hardened against untrusted input: it never panics on
//! short or garbage buffers, never allocates (it returns subslices), and
//! validates `payload_len` against the actual buffer before trusting it.
//!
//! A read site that has verified an object once keeps that fact in the
//! type: [`Verified`] is only ever built by a passing check, and the
//! payload decoders downstream take it instead of re-running the CRC.

use crate::{Result, StorageError};
use bytes::Bytes;

/// Envelope magic: the first four bytes of every v4 object. The last byte
/// is the wire version's digit.
pub const MAGIC: [u8; 4] = *b"CNR4";

/// Envelope wire version.
pub const VERSION: u16 = 4;

/// Envelope header length in bytes.
pub const HEADER_LEN: usize = 16;

/// Flag bit: the payload is a manifest (informational; readers key off the
/// payload's own magic).
pub const FLAG_MANIFEST: u16 = 1 << 0;

/// Flag bit: the payload is one frame of a write-ahead delta log segment.
/// WAL segments are bare concatenations of enveloped frames, walked frame
/// by frame (see [`crate::wal`]) rather than unwrapped as a single
/// envelope; replay and validation require the bit on every frame.
pub const FLAG_WAL_FRAME: u16 = 1 << 1;

/// All flag bits a v4 reader understands; unknown bits are corruption.
const KNOWN_FLAGS: u16 = FLAG_MANIFEST | FLAG_WAL_FRAME;

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) lookup tables for
/// slice-by-16, built at compile time. `CRC_TABLES[0]` is the classic
/// one-byte table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, which is what lets sixteen input bytes fold into the
/// state with sixteen independent lookups instead of a chain of sixteen.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_feed(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Feeds `data` into a raw (pre-finalization) CRC-32 state, sixteen bytes
/// per step (slice-by-16), the tail one byte at a time. The state after
/// any prefix equals the bytewise loop's, so feeds compose.
fn crc32_feed(mut state: u32, data: &[u8]) -> u32 {
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // Only the first word meets the running state; byte `j` of the
        // block is followed by `15 - j` more bytes of it, hence its table.
        let w0 = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) ^ state;
        let w1 = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        let w2 = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
        let w3 = u32::from_le_bytes([b[12], b[13], b[14], b[15]]);
        state = CRC_TABLES[15][(w0 & 0xFF) as usize]
            ^ CRC_TABLES[14][((w0 >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[13][((w0 >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[12][(w0 >> 24) as usize]
            ^ CRC_TABLES[11][(w1 & 0xFF) as usize]
            ^ CRC_TABLES[10][((w1 >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[9][((w1 >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[8][(w1 >> 24) as usize]
            ^ CRC_TABLES[7][(w2 & 0xFF) as usize]
            ^ CRC_TABLES[6][((w2 >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((w2 >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(w2 >> 24) as usize]
            ^ CRC_TABLES[3][(w3 & 0xFF) as usize]
            ^ CRC_TABLES[2][((w3 >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((w3 >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(w3 >> 24) as usize];
    }
    crc32_feed_bytewise(state, blocks.remainder())
}

/// One table lookup per byte: the tail loop of [`crc32_feed`], and the
/// reference the slice-by-16 path is tested against.
fn crc32_feed_bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// The envelope checksum: CRC-32 over header bytes `[4, 12)` (version,
/// flags, payload_len) followed by the payload.
fn envelope_crc(header_fields: &[u8], payload: &[u8]) -> u32 {
    debug_assert_eq!(header_fields.len(), 8);
    crc32_feed(crc32_feed(0xFFFF_FFFF, header_fields), payload) ^ 0xFFFF_FFFF
}

/// Wraps `payload` in a v4 envelope with the given flags.
pub fn wrap_with_flags(payload: &[u8], flags: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.resize(HEADER_LEN, 0);
    out.extend_from_slice(payload);
    seal_in_place(&mut out, flags);
    out
}

/// Seals a buffer whose first [`HEADER_LEN`] bytes were reserved for the
/// envelope and whose remainder is the payload: writes magic, version,
/// `flags`, payload length and checksum into the reserved bytes. A writer
/// that builds its payload in place behind a reserved header gets the
/// same bytes [`wrap_with_flags`] produces without copying the payload.
///
/// Panics when `buf` is shorter than the header or the payload exceeds
/// the `u32` length field.
pub fn seal_in_place(buf: &mut [u8], flags: u16) {
    assert!(
        buf.len() >= HEADER_LEN,
        "no room reserved for the envelope header"
    );
    let (header, payload) = buf.split_at_mut(HEADER_LEN);
    assert!(
        payload.len() <= u32::MAX as usize,
        "envelope payload exceeds u32 length field"
    );
    header[..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6..8].copy_from_slice(&flags.to_le_bytes());
    header[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = envelope_crc(&header[4..12], payload);
    header[12..].copy_from_slice(&crc.to_le_bytes());
}

/// Wraps `payload` in a v4 envelope with no flags set.
pub fn wrap(payload: &[u8]) -> Vec<u8> {
    wrap_with_flags(payload, 0)
}

#[inline]
fn read_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

#[inline]
fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// Checks the magic and version of the envelope header at the front of
/// `buf` and returns the length of the whole object it announces (header
/// plus `payload_len`), which may exceed `buf` — the caller compares. This
/// is the one place the header is parsed: [`unwrap`] requires the length
/// to match its buffer, the WAL walker uses it to find the next frame.
///
/// An older wire version is named in the error: its magic ends in its
/// version digit.
pub fn object_len(buf: &[u8]) -> Result<usize> {
    if !buf.starts_with(&MAGIC) {
        return Err(StorageError::Corrupt(match buf {
            [b'C', b'N', b'R', digit @ b'0'..=b'9', ..] => format!(
                "unsupported envelope version {} (expected {VERSION})",
                digit - b'0'
            ),
            _ => "missing v4 envelope magic".to_string(),
        }));
    }
    if buf.len() < HEADER_LEN {
        return Err(StorageError::Corrupt(format!(
            "truncated envelope header: {} of {HEADER_LEN} bytes",
            buf.len()
        )));
    }
    let version = read_u16(buf, 4);
    if version != VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported envelope version {version} (expected {VERSION})"
        )));
    }
    Ok(HEADER_LEN + read_u32(buf, 8) as usize)
}

/// Validates the v4 envelope in `buf` and returns `(flags, payload)`.
///
/// Errors with [`StorageError::Corrupt`] if the buffer is not a
/// well-formed, checksum-clean v4 envelope. Never panics and never
/// allocates for the payload — the returned slice borrows from `buf`.
pub fn unwrap(buf: &[u8]) -> Result<(u16, &[u8])> {
    let announced = object_len(buf)?;
    if announced != buf.len() {
        return Err(StorageError::Corrupt(format!(
            "envelope length mismatch: header says {} bytes, object carries {}",
            announced - HEADER_LEN,
            buf.len() - HEADER_LEN
        )));
    }
    let flags = read_u16(buf, 6);
    if flags & !KNOWN_FLAGS != 0 {
        return Err(StorageError::Corrupt(format!(
            "unknown envelope flags {flags:#06x}"
        )));
    }
    let payload = &buf[HEADER_LEN..];
    let expected = read_u32(buf, 12);
    let got = envelope_crc(&buf[4..12], payload);
    if got != expected {
        return Err(StorageError::Corrupt(format!(
            "envelope checksum mismatch: stored {expected:#010x}, computed {got:#010x}"
        )));
    }
    Ok((flags, payload))
}

/// The verified payload of the v4 envelope in `buf`: [`unwrap`] without
/// the flags. This is the call a read site holding borrowed bytes makes
/// before handing them to a codec.
pub fn open(buf: &[u8]) -> Result<&[u8]> {
    unwrap(buf).map(|(_, payload)| payload)
}

/// A stored object whose envelope has been verified — the proof that its
/// CRC was checked, carried by the bytes themselves. The only constructor
/// is [`Verified::check`], so a decoder that takes a `&Verified` (the
/// fetch scheduler hands these out) can go straight to the payload
/// without running the CRC a second time, and cannot be handed bytes
/// nobody checked. Cloning shares the bytes, and the proof with them.
#[derive(Debug, Clone)]
pub struct Verified {
    object: Bytes,
}

impl Verified {
    /// Verifies `object`'s envelope ([`unwrap`]) and keeps the bytes.
    pub fn check(object: Bytes) -> Result<Self> {
        unwrap(&object)?;
        Ok(Self { object })
    }

    /// The payload inside the envelope.
    pub fn payload(&self) -> &[u8] {
        &self.object[HEADER_LEN..]
    }

    /// The whole object as stored, envelope included.
    pub fn object(&self) -> &Bytes {
        &self.object
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    proptest::proptest! {
        /// Slice-by-16 equals the bytewise loop for every length and every
        /// split of a two-part feed (the `header ++ payload` shape of
        /// `envelope_crc`), so every stored checksum is unchanged.
        #[test]
        fn slice_by_16_equals_the_bytewise_loop(
            len in 0usize..4096,
            split_seed in proptest::prelude::any::<u64>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut state = seed | 1;
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state as u8
                })
                .collect();
            let want = crc32_feed_bytewise(0xFFFF_FFFF, &data);
            proptest::prop_assert_eq!(crc32_feed(0xFFFF_FFFF, &data), want);
            let (head, tail) = data.split_at(split_seed as usize % (len + 1));
            proptest::prop_assert_eq!(crc32_feed(crc32_feed(0xFFFF_FFFF, head), tail), want);
        }
    }

    /// Exhaustive over the short end: every length across five 16-byte
    /// strides and every split of it, including a nonzero entry state
    /// straddling a stride boundary.
    #[test]
    fn slice_by_16_equals_the_bytewise_loop_at_every_short_length_and_split() {
        let data: Vec<u8> = (0..81u32).map(|i| (i * 151 + 43) as u8).collect();
        for len in 0..=data.len() {
            let data = &data[..len];
            let want = crc32_feed_bytewise(0xFFFF_FFFF, data);
            for split in 0..=len {
                let (head, tail) = data.split_at(split);
                assert_eq!(
                    crc32_feed(crc32_feed(0xFFFF_FFFF, head), tail),
                    want,
                    "len {len} split {split}"
                );
            }
        }
    }

    #[test]
    fn seal_in_place_equals_wrap() {
        for flags in [0, FLAG_MANIFEST, FLAG_WAL_FRAME] {
            for payload in [&b""[..], b"x", b"0123456789abcdef-tail"] {
                let mut buf = vec![0xEE; HEADER_LEN];
                buf.extend_from_slice(payload);
                seal_in_place(&mut buf, flags);
                assert_eq!(buf, wrap_with_flags(payload, flags));
                assert_eq!(unwrap(&buf).unwrap(), (flags, payload));
            }
        }
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        for payload in [&b""[..], b"x", b"hello world", &[0u8; 1000][..]] {
            let enveloped = wrap(payload);
            assert_eq!(enveloped.len(), HEADER_LEN + payload.len());
            let (flags, back) = unwrap(&enveloped).unwrap();
            assert_eq!(flags, 0);
            assert_eq!(back, payload);
            assert_eq!(open(&enveloped).unwrap(), payload);
        }
    }

    #[test]
    fn flags_roundtrip_and_unknown_flags_reject() {
        let enveloped = wrap_with_flags(b"m", FLAG_MANIFEST);
        let (flags, _) = unwrap(&enveloped).unwrap();
        assert_eq!(flags, FLAG_MANIFEST);

        let mut bad = wrap(b"m");
        bad[6] |= 0x80; // set an undefined flag bit
        assert!(matches!(unwrap(&bad), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn bare_bytes_are_rejected_typed() {
        // A bare manifest body, a bare chunk frame, a sub-magic prefix and
        // the empty object: none is a stored form.
        for bare in [&b"CNRM....not an envelope"[..], b"\x10\x00\x00\x00 chunk", b"CNR", b""] {
            assert!(matches!(unwrap(bare), Err(StorageError::Corrupt(_))));
            assert!(matches!(open(bare), Err(StorageError::Corrupt(_))));
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let enveloped = wrap(b"some checkpoint chunk payload");
        for byte in 0..enveloped.len() {
            for bit in 0..8 {
                let mut bad = enveloped.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(unwrap(&bad), Err(StorageError::Corrupt(_))),
                    "flip at byte {byte} bit {bit} not detected by unwrap"
                );
                assert!(
                    matches!(open(&bad), Err(StorageError::Corrupt(_))),
                    "flip at byte {byte} bit {bit} not detected by open"
                );
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_detected() {
        let enveloped = wrap(b"0123456789abcdef");
        for keep in 0..enveloped.len() {
            assert!(
                matches!(unwrap(&enveloped[..keep]), Err(StorageError::Corrupt(_))),
                "truncation to {keep} bytes not detected"
            );
        }
        let mut extended = enveloped.clone();
        extended.push(0);
        assert!(matches!(unwrap(&extended), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut future = wrap(b"payload");
        future[4] = 5; // version 5
        assert!(matches!(unwrap(&future), Err(StorageError::Corrupt(_))));
    }

    /// A v3 object — v3 magic, v3 version field, a CRC that is valid for
    /// them — is rejected by version, named, whichever field is looked at
    /// first; so is the v3 version number behind the v4 magic.
    #[test]
    fn a_v3_envelope_is_rejected_naming_its_version() {
        let mut v3 = wrap(b"a chunk written before the frame checksum changed");
        v3[..4].copy_from_slice(b"CNR3");
        v3[4..6].copy_from_slice(&3u16.to_le_bytes());
        let crc = envelope_crc(&v3[4..12], &v3[HEADER_LEN..]);
        v3[12..16].copy_from_slice(&crc.to_le_bytes());
        let mut v3_behind_v4_magic = v3.clone();
        v3_behind_v4_magic[..4].copy_from_slice(&MAGIC);
        for object in [v3, v3_behind_v4_magic] {
            for outcome in [
                unwrap(&object).map(|_| ()),
                open(&object).map(|_| ()),
                object_len(&object).map(|_| ()),
                Verified::check(Bytes::from(object.clone())).map(|_| ()),
            ] {
                match outcome {
                    Err(StorageError::Corrupt(why)) => {
                        assert!(why.contains("version 3"), "{why}")
                    }
                    other => panic!("v3 object not rejected as corrupt: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn verified_is_only_built_from_a_clean_envelope() {
        let object = Bytes::from(wrap_with_flags(b"payload", FLAG_MANIFEST));
        let verified = Verified::check(object.clone()).unwrap();
        assert_eq!(verified.payload(), b"payload");
        assert_eq!(verified.object(), &object);
        let mut bad = object.to_vec();
        bad[HEADER_LEN] ^= 1;
        assert!(matches!(
            Verified::check(Bytes::from(bad)),
            Err(StorageError::Corrupt(_))
        ));
    }

    /// Fuzz-style hardening: the parser must never panic and never
    /// allocate proportionally to untrusted length fields, for random
    /// buffers and for random mutations/truncations of valid envelopes.
    /// Seeded xorshift — deterministic, no external fuzzer.
    #[test]
    fn parser_survives_random_and_truncated_input() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };

        // Pure garbage of many lengths, magic-prefixed garbage included.
        for round in 0..2000 {
            let len = (next() % 96) as usize;
            let mut buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            if round % 3 == 0 && buf.len() >= 4 {
                buf[..4].copy_from_slice(&MAGIC);
            }
            let _ = unwrap(&buf);
            let _ = open(&buf);
        }

        // A huge claimed payload_len over a tiny buffer must not allocate.
        let mut lying = wrap(b"tiny");
        lying[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(unwrap(&lying), Err(StorageError::Corrupt(_))));

        // Random single-byte mutations of a valid envelope: either valid
        // (mutation missed — impossible here, but allowed by the API) or a
        // clean error. Never a panic, never wrong payload bytes.
        let valid = wrap(b"the payload being protected");
        for _ in 0..2000 {
            let mut buf = valid.clone();
            let at = (next() % buf.len() as u64) as usize;
            buf[at] ^= (next() % 255 + 1) as u8;
            if let Ok((_, payload)) = unwrap(&buf) {
                assert_eq!(payload, b"the payload being protected");
            }
            let keep = (next() % (buf.len() as u64 + 1)) as usize;
            let _ = unwrap(&buf[..keep]);
        }
    }
}
