//! XXH64 — the one checksum of the stored format ([`crate::envelope`]).
//!
//! XXH64 runs four independent 64-bit lanes over 32-byte stripes, so the
//! multiplies of one stripe overlap instead of queueing behind each other
//! (≈ 11 GB/s in safe Rust, against ≈ 2 GB/s for a table-driven 32-bit
//! code even sixteen bytes per step). It is not a guaranteed-distance
//! code: any damage — a single flipped bit or a long burst alike — goes
//! unnoticed with probability about 2⁻⁶⁴.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// One lane step: folds an 8-byte little-endian `lane` into `acc`.
#[inline(always)]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

/// Folds a finished lane accumulator into the converged hash.
#[inline(always)]
fn merge(hash: u64, acc: u64) -> u64 {
    (hash ^ round(0, acc))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

#[inline(always)]
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("caller passes 8 bytes"))
}

/// XXH64 of `data` under `seed`.
pub(crate) fn xxh64(data: &[u8], seed: u64) -> u64 {
    let mut stripes = data.chunks_exact(32);
    let mut hash = if data.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2);
        let mut v2 = seed.wrapping_add(PRIME_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME_1);
        for s in &mut stripes {
            v1 = round(v1, le_u64(&s[0..8]));
            v2 = round(v2, le_u64(&s[8..16]));
            v3 = round(v3, le_u64(&s[16..24]));
            v4 = round(v4, le_u64(&s[24..32]));
        }
        let converged = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        [v1, v2, v3, v4].into_iter().fold(converged, merge)
    } else {
        seed.wrapping_add(PRIME_5)
    };
    hash = hash.wrapping_add(data.len() as u64);

    // The tail under 32 bytes: 8-byte words, then one 4-byte word, then bytes.
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        hash = (hash ^ round(0, le_u64(w)))
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let word = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as u64;
        hash = (hash ^ word.wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        rest = &rest[4..];
    }
    for &b in rest {
        hash = (hash ^ (b as u64).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME_3);
    hash ^ (hash >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// XXH64 as the specification's pseudocode states it: a byte cursor,
    /// words assembled byte by byte, one step per paragraph of the spec.
    /// Shares only the five primes with [`xxh64`].
    fn xxh64_by_the_spec(data: &[u8], seed: u64) -> u64 {
        fn read(data: &[u8], at: usize, bytes: usize) -> u64 {
            (0..bytes).fold(0, |w, i| w | (data[at + i] as u64) << (8 * i))
        }
        fn round(acc: u64, lane: u64) -> u64 {
            let acc = acc.wrapping_add(lane.wrapping_mul(PRIME_2));
            acc.rotate_left(31).wrapping_mul(PRIME_1)
        }
        let len = data.len();
        let mut p = 0;
        let mut h;
        if len >= 32 {
            let mut acc = [
                seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
                seed.wrapping_add(PRIME_2),
                seed,
                seed.wrapping_sub(PRIME_1),
            ];
            while p + 32 <= len {
                for (lane, a) in acc.iter_mut().enumerate() {
                    *a = round(*a, read(data, p + 8 * lane, 8));
                }
                p += 32;
            }
            h = acc[0]
                .rotate_left(1)
                .wrapping_add(acc[1].rotate_left(7))
                .wrapping_add(acc[2].rotate_left(12))
                .wrapping_add(acc[3].rotate_left(18));
            for a in acc {
                h ^= round(0, a);
                h = h.wrapping_mul(PRIME_1).wrapping_add(PRIME_4);
            }
        } else {
            h = seed.wrapping_add(PRIME_5);
        }
        h = h.wrapping_add(len as u64);
        while p + 8 <= len {
            h ^= round(0, read(data, p, 8));
            h = h.rotate_left(27).wrapping_mul(PRIME_1).wrapping_add(PRIME_4);
            p += 8;
        }
        if p + 4 <= len {
            h ^= read(data, p, 4).wrapping_mul(PRIME_1);
            h = h.rotate_left(23).wrapping_mul(PRIME_2).wrapping_add(PRIME_3);
            p += 4;
        }
        while p < len {
            h ^= read(data, p, 1).wrapping_mul(PRIME_5);
            h = h.rotate_left(11).wrapping_mul(PRIME_1);
            p += 1;
        }
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME_3);
        h ^ (h >> 32)
    }

    /// The reference implementation's self-test buffer: byte `i` is the top
    /// byte of `2654435761 × 11400714785074694797^i` (mod 2⁶⁴).
    fn sanity_buffer(len: usize) -> Vec<u8> {
        let mut gen = 2_654_435_761u64;
        (0..len)
            .map(|_| {
                let b = (gen >> 56) as u8;
                gen = gen.wrapping_mul(11_400_714_785_074_694_797);
                b
            })
            .collect()
    }

    /// Published XXH64 answers, seeded and unseeded; between them the
    /// inputs take the stripe loop and every 8/4/1-byte tail path.
    #[test]
    fn matches_published_known_answers() {
        for (text, want) in [
            (&b""[..], 0xEF46_DB37_51D8_E999u64),
            (b"a", 0xD24E_C4F1_A98C_6E5B),
            (b"abc", 0x44BC_2CF5_AD77_0999),
            (b"hello", 0x26C7_827D_889F_6DA3),
        ] {
            assert_eq!(xxh64(text, 0), want, "{:?}", String::from_utf8_lossy(text));
        }
        for (end, want) in [
            (31u8, 0xC346_D2B5_9B4D_8EE1u64),
            (63, 0xE26A_A9E2_A95F_8E4F),
            (100, 0x6AC1_E580_3216_6597),
        ] {
            let bytes: Vec<u8> = (0..end).collect();
            assert_eq!(xxh64(&bytes, 0), want, "0u8..{end}");
            assert_eq!(xxh64_by_the_spec(&bytes, 0), want, "reference, 0u8..{end}");
        }
        let buffer = sanity_buffer(222);
        for (len, seed, want) in [
            (0usize, 0u64, 0xEF46_DB37_51D8_E999u64),
            (0, 2_654_435_761, 0xAC75_FDA2_929B_17EF),
            (1, 0, 0xE934_A84A_DB05_2768),
            (1, 2_654_435_761, 0x5014_6076_43A9_B4C3),
            (14, 0, 0x8282_DCC4_994E_35C8),
            (14, 2_654_435_761, 0xC3BD_6BF6_3DEB_6DF0),
            (222, 0, 0xB641_AE8C_B691_C174),
            (222, 2_654_435_761, 0x20CB_8AB7_AE10_C14A),
        ] {
            assert_eq!(xxh64(&buffer[..len], seed), want, "len {len} seed {seed}");
        }
    }

    proptest::proptest! {
        #[test]
        fn equals_the_by_the_spec_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
            seed in proptest::prelude::any::<u64>(),
        ) {
            proptest::prop_assert_eq!(xxh64(&data, seed), xxh64_by_the_spec(&data, seed));
        }
    }
}
