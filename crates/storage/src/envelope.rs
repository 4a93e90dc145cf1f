//! Self-describing checksummed object envelope (wire v9) — the one stored
//! form.
//!
//! Production object stores exhibit bit-rot, truncated multipart uploads,
//! and stale replicas. Every object written by the checkpoint pipeline —
//! chunks, manifests and WAL frames alike — is wrapped in a 20-byte
//! envelope that makes the object self-describing and end-to-end
//! verifiable at every read site:
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     4  magic        b"CNR9"
//!      4     2  version      u16 LE, = 9
//!      6     2  flags        u16 LE (bit 0: manifest, bit 1: WAL frame,
//!                            bit 2: WAL record trailer)
//!      8     4  payload_len  u32 LE, exact length of payload
//!     12     8  xxh64        u64 LE, XXH64 of the payload, seeded with
//!                            header bytes [4, 12) read as a u64 LE
//!     20     …  payload      the object's own encoding
//! ```
//!
//! **One checksum per byte.** The XXH64 is the only checksum a stored byte
//! carries: the chunk and manifest frames inside the payload are bare
//! `[len][data]` (see `cnr_core::wire`), so a write hashes each byte once
//! and every read site — fetch, chain walk, WAL replay, scrub — verifies
//! each byte once. The header fields enter as the seed rather than as a
//! prefix of the hashed stream: the hash runs over the payload in place in
//! one pass, and a changed version, flag or length changes the seed.
//!
//! **The trade.** Until v4 the envelope carried a 32-bit cyclic
//! redundancy check, which *guarantees* to catch any burst of up to 32
//! flipped bits and misses about 2⁻³² of longer damage. XXH64 guarantees
//! nothing for a particular burst, but misses about 2⁻⁶⁴ of *any* damage —
//! single bits and long bursts alike — and runs 5–6× faster (≈ 11 GB/s
//! against ≈ 1.9 GB/s sixteen bytes per step); on a full fp32 checkpoint
//! the older code's pass had been most of the write path's CPU time.
//!
//! The checksum covers the header fields as well as the payload, and the
//! magic is compared exactly, so a bit flip anywhere in the object is
//! detected — including flips that land on defined flag bits. There is no
//! other stored form: a buffer that does not start with the magic, carries
//! another version or fails any check below is [`StorageError::Corrupt`],
//! which is what sends a reader to another replica. A v8 (or older) object
//! is rejected here, by version, before any payload codec sees it. The v9
//! header is the v8 header (and v8 the v7 one, back to v5) with the new
//! number: what changed each time is the payload. Since v9 a WAL record's
//! body no longer repeats the quantization scheme (each embedded chunk
//! frame names its rows' encoding), where v8 stored it. Since v8 a WAL
//! record is two frames, its body and a trailer holding the dense layers
//! ([`FLAG_WAL_TRAILER`], see [`crate::wal`]), where v7 stored one frame
//! per record. Since v7 a chunk frame stores its row indices as runs of
//! consecutive rows, a head varint and a length varint each
//! (`cnr_core::wire::put_indices`), where v6 stored a delta varint per row
//! and v5 a `u32`.
//!
//! The parser is hardened against untrusted input: it never panics on
//! short or garbage buffers, never allocates (it returns subslices), and
//! validates `payload_len` against the actual buffer before trusting it.
//!
//! A read site that has verified an object once keeps that fact in the
//! type: [`Verified`] is only ever built by a passing check, and the
//! payload decoders downstream take it instead of hashing again.

use crate::xxh64::xxh64;
use crate::{Result, StorageError};
use bytes::Bytes;

/// Envelope magic: the first four bytes of every v9 object. The last byte
/// is the wire version's digit.
pub const MAGIC: [u8; 4] = *b"CNR9";

/// Envelope wire version.
pub const VERSION: u16 = 9;

/// Envelope header length in bytes.
pub const HEADER_LEN: usize = 20;

/// Flag bit: the payload is a manifest (informational; readers key off the
/// payload's own magic).
pub const FLAG_MANIFEST: u16 = 1 << 0;

/// Flag bit: the payload is one frame of a write-ahead delta log segment.
/// WAL segments are bare concatenations of enveloped frames, walked frame
/// by frame (see [`crate::wal`]) rather than unwrapped as a single
/// envelope; replay and validation require the bit on every frame.
pub const FLAG_WAL_FRAME: u16 = 1 << 1;

/// Flag bit, set beside [`FLAG_WAL_FRAME`]: the frame is the trailer of
/// the record whose body frame it directly follows in its segment. A
/// trailer carries no sequence number; see [`crate::wal`].
pub const FLAG_WAL_TRAILER: u16 = 1 << 2;

/// All flag bits a v9 reader understands; unknown bits are corruption.
const KNOWN_FLAGS: u16 = FLAG_MANIFEST | FLAG_WAL_FRAME | FLAG_WAL_TRAILER;

/// The envelope checksum: XXH64 of `payload`, seeded with the header's
/// version, flags and payload length (bytes `[4, 12)`) as one `u64` LE.
fn envelope_sum(header: &[u8], payload: &[u8]) -> u64 {
    xxh64(payload, read_u64(header, 4))
}

/// Wraps `payload` in a v9 envelope with the given flags.
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
    let sum = envelope_sum(header, payload);
    header[12..].copy_from_slice(&sum.to_le_bytes());
}

/// Wraps `payload` in a v9 envelope with no flags set.
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

#[inline]
fn read_u64(buf: &[u8], at: usize) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(word)
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
            _ => "missing v9 envelope magic".to_string(),
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

/// Validates the v9 envelope in `buf` and returns `(flags, payload)`.
///
/// Errors with [`StorageError::Corrupt`] if the buffer is not a
/// well-formed, checksum-clean v9 envelope. Never panics and never
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
    let expected = read_u64(buf, 12);
    let got = envelope_sum(buf, payload);
    if got != expected {
        return Err(StorageError::Corrupt(format!(
            "envelope checksum mismatch: stored {expected:#018x}, computed {got:#018x}"
        )));
    }
    Ok((flags, payload))
}

/// The verified payload of the v9 envelope in `buf`: [`unwrap`] without
/// the flags. This is the call a read site holding borrowed bytes makes
/// before handing them to a codec.
pub fn open(buf: &[u8]) -> Result<&[u8]> {
    unwrap(buf).map(|(_, payload)| payload)
}

/// A stored object whose envelope has been verified — the proof that its
/// checksum was checked, carried by the bytes themselves. The only
/// constructor is [`Verified::check`], so a decoder that takes a
/// `&Verified` (the fetch scheduler hands these out) can go straight to
/// the payload without hashing it a second time, and cannot be handed
/// bytes nobody checked. Cloning shares the bytes, and the proof with them.
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

/// A chunk as the v4 writer stored it: 16-byte header, 32-bit cyclic
/// checksum over version, flags, length and payload — valid, so only the
/// version can reject it.
#[cfg(test)]
pub(crate) const V4_OBJECT: &[u8] =
    b"CNR4\x04\x00\x00\x00\x15\x00\x00\x00\x0f\xe8\xa5\x20written under wire v4";

/// A WAL frame as the v4 writer sealed it (record sequence 0), valid for v4.
#[cfg(test)]
pub(crate) const V4_WAL_FRAME: &[u8] = b"CNR4\x04\x00\x02\x00\x17\x00\x00\x00\x30\xcd\x63\xac\
    \x00\x00\x00\x00\x00\x00\x00\x00a v4 WAL record";

/// A chunk as the v5 writer stored it: today's header layout, version 5,
/// an XXH64 valid for it — so only the version can reject it.
#[cfg(test)]
pub(crate) const V5_OBJECT: &[u8] =
    b"CNR5\x05\x00\x00\x00\x15\x00\x00\x00\xf4\xca\x13\x19\x73\x76\xf7\x5e\
    written under wire v5";

/// A WAL frame as the v5 writer sealed it (record sequence 0), valid for v5.
#[cfg(test)]
pub(crate) const V5_WAL_FRAME: &[u8] =
    b"CNR5\x05\x00\x02\x00\x17\x00\x00\x00\x94\x76\x79\x24\xb2\x10\x75\x37\
    \x00\x00\x00\x00\x00\x00\x00\x00a v5 WAL record";

/// A chunk as the v6 writer stored it: today's header layout, version 6,
/// an XXH64 valid for it — so only the version can reject it.
#[cfg(test)]
pub(crate) const V6_OBJECT: &[u8] =
    b"CNR6\x06\x00\x00\x00\x15\x00\x00\x00\x13\x3a\xa1\x51\x14\x64\xe5\x95\
    written under wire v6";

/// A WAL frame as the v6 writer sealed it (record sequence 0), valid for v6.
#[cfg(test)]
pub(crate) const V6_WAL_FRAME: &[u8] =
    b"CNR6\x06\x00\x02\x00\x17\x00\x00\x00\x1b\xf0\xbd\x05\x94\x1c\x5d\x7b\
    \x00\x00\x00\x00\x00\x00\x00\x00a v6 WAL record";

/// A chunk as the v7 writer stored it: today's header layout, version 7,
/// an XXH64 valid for it — so only the version can reject it.
#[cfg(test)]
pub(crate) const V7_OBJECT: &[u8] =
    b"CNR7\x07\x00\x00\x00\x15\x00\x00\x00\x72\xa9\xd6\xc4\xb0\x4e\x3e\x15\
    written under wire v7";

/// A WAL frame as the v7 writer sealed it (record sequence 0), valid for v7.
#[cfg(test)]
pub(crate) const V7_WAL_FRAME: &[u8] =
    b"CNR7\x07\x00\x02\x00\x17\x00\x00\x00\x79\xd3\xf4\x0c\x8d\x12\xd0\xa0\
    \x00\x00\x00\x00\x00\x00\x00\x00a v7 WAL record";

/// A chunk as the v8 writer stored it: today's header layout, version 8,
/// an XXH64 valid for it — so only the version can reject it.
#[cfg(test)]
pub(crate) const V8_OBJECT: &[u8] =
    b"CNR8\x08\x00\x00\x00\x15\x00\x00\x00\xcb\xae\x9e\xd7\xba\x59\x37\x98\
    written under wire v8";

/// A WAL frame as the v8 writer sealed it (record sequence 0), valid for v8.
#[cfg(test)]
pub(crate) const V8_WAL_FRAME: &[u8] =
    b"CNR8\x08\x00\x02\x00\x17\x00\x00\x00\x93\xff\xd7\x4a\x13\xc8\x5b\x30\
    \x00\x00\x00\x00\x00\x00\x00\x00a v8 WAL record";

#[cfg(test)]
mod tests {
    use super::*;

    /// The v9 layout, field by field: the checksum is XXH64 of the payload
    /// alone, seeded with the version, flags and length as one `u64` LE.
    #[test]
    fn the_header_fields_seed_the_payload_checksum() {
        let payload = b"a payload long enough to take the stripe loop";
        let object = wrap_with_flags(payload, FLAG_MANIFEST);
        assert_eq!(object[..12], *b"CNR9\x09\x00\x01\x00\x2d\x00\x00\x00");
        let seed = u64::from_le_bytes(object[4..12].try_into().unwrap());
        assert_eq!(object[12..20], xxh64(payload, seed).to_le_bytes());
        assert_eq!(object[20..], payload[..]);
    }

    #[test]
    fn seal_in_place_equals_wrap() {
        for flags in [0, FLAG_MANIFEST, FLAG_WAL_FRAME, FLAG_WAL_FRAME | FLAG_WAL_TRAILER] {
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

    /// Every bit of all 20 header bytes and of the payload, under every
    /// flag value a reader accepts, for a payload on the short path and one
    /// on the stripe path of the hash.
    #[test]
    fn every_single_bit_flip_is_detected() {
        let long = b"some checkpoint chunk payload, long enough for two stripes of 32";
        for flags in 0..=KNOWN_FLAGS {
            for payload in [&b"some checkpoint chunk payload"[..], long] {
                let enveloped = wrap_with_flags(payload, flags);
                for byte in 0..enveloped.len() {
                    for bit in 0..8 {
                        let mut bad = enveloped.clone();
                        bad[byte] ^= 1 << bit;
                        assert!(
                            matches!(unwrap(&bad), Err(StorageError::Corrupt(_))),
                            "flags {flags}: flip at byte {byte} bit {bit} not detected"
                        );
                    }
                }
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
        future[4] = VERSION as u8 + 1;
        assert!(matches!(unwrap(&future), Err(StorageError::Corrupt(_))));
    }

    /// A v3 object — v3 magic, v3 version field — is rejected by version,
    /// named, whichever field is looked at first (the version is checked
    /// before the checksum, so its checksum bytes do not matter); so is the
    /// v3 version number behind today's magic.
    #[test]
    fn a_v3_envelope_is_rejected_naming_its_version() {
        let mut v3 = wrap(b"a chunk written before the frame checksum changed");
        v3[..4].copy_from_slice(b"CNR3");
        v3[4..6].copy_from_slice(&3u16.to_le_bytes());
        let mut v3_behind_todays_magic = v3.clone();
        v3_behind_todays_magic[..4].copy_from_slice(&MAGIC);
        for object in [v3, v3_behind_todays_magic] {
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

    /// An object exactly as an older writer sealed it — its own magic,
    /// version and a checksum valid for them — and its version behind
    /// today's magic are rejected by number at every entry point.
    fn assert_rejected_naming_version(sealed: &[u8], version: u16) {
        let mut behind_todays_magic = sealed.to_vec();
        behind_todays_magic[..4].copy_from_slice(&MAGIC);
        let named = format!("unsupported envelope version {version} ");
        for object in [sealed.to_vec(), behind_todays_magic] {
            for outcome in [
                unwrap(&object).map(|_| ()),
                open(&object).map(|_| ()),
                object_len(&object).map(|_| ()),
                Verified::check(Bytes::from(object.clone())).map(|_| ()),
            ] {
                match outcome {
                    Err(StorageError::Corrupt(why)) => assert!(why.contains(&named), "{why}"),
                    other => panic!("v{version} object not rejected as corrupt: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_v4_envelope_is_rejected_naming_its_version() {
        assert_rejected_naming_version(V4_OBJECT, 4);
    }

    /// Both v5 forms, each valid for v5: a v9 reader decodes neither.
    #[test]
    fn a_v5_envelope_is_rejected_naming_its_version() {
        assert_rejected_naming_version(V5_OBJECT, 5);
        assert_rejected_naming_version(V5_WAL_FRAME, 5);
    }

    /// Both v6 forms, each valid for v6: a v9 reader decodes neither.
    #[test]
    fn a_v6_envelope_is_rejected_naming_its_version() {
        assert_rejected_naming_version(V6_OBJECT, 6);
        assert_rejected_naming_version(V6_WAL_FRAME, 6);
    }

    /// Both v7 forms, each valid for v7: a v9 reader decodes neither.
    #[test]
    fn a_v7_envelope_is_rejected_naming_its_version() {
        assert_rejected_naming_version(V7_OBJECT, 7);
        assert_rejected_naming_version(V7_WAL_FRAME, 7);
    }

    /// Both v8 forms, each valid for v8: a v9 reader decodes neither.
    #[test]
    fn a_v8_envelope_is_rejected_naming_its_version() {
        assert_rejected_naming_version(V8_OBJECT, 8);
        assert_rejected_naming_version(V8_WAL_FRAME, 8);
    }

    /// The README names the envelope's magic wherever it shows one: every
    /// `b"CNR…"` literal in it is today's [`MAGIC`].
    #[test]
    fn the_readme_names_todays_magic() {
        let readme = include_str!("../../../README.md");
        let literals: Vec<&str> = readme
            .match_indices("b\"CNR")
            .map(|(at, _)| {
                let text = &readme[at + 2..];
                &text[..text.find('"').expect("an unterminated literal")]
            })
            .collect();
        assert!(!literals.is_empty(), "the README shows no envelope magic");
        let magic = std::str::from_utf8(&MAGIC).unwrap();
        for literal in literals {
            assert_eq!(literal, magic, "README.md names a stale envelope magic");
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
