//! IEEE 754 binary16 (half precision) conversion.
//!
//! FP16 is the "do nothing clever" checkpoint compressor: exactly 2× smaller,
//! ~3 decimal digits of precision, no parameters to store. It sits between
//! FP32 passthrough and the paper's 8-bit asymmetric scheme and serves as a
//! baseline in the quantization sweeps. Implemented from bit operations —
//! no hardware half support required.

/// Converts an `f32` to its nearest binary16 bit pattern (round-to-nearest-
/// even, with overflow to infinity and graceful subnormal handling).
///
/// Rounding takes no data-dependent branch; the only branches are on the
/// value's class. In the normal range the exponent is rebiased and the 13
/// dropped mantissa bits rounded by integer addition — `0xFFF` plus the
/// kept mantissa's low bit, so a tie carries only from an odd mantissa,
/// and a carry out of the mantissa is the next binade (or infinity).
/// Below `2^-14` the magnitude is added to `0.5`, whose `f32` spacing is
/// binary16's subnormal spacing `2^-24`: the addition rounds it to a
/// multiple of `2^-24`, ties to even, and the sum's low bits are that
/// multiple.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    const HALF: u32 = 126 << 23; // 0.5
    const MIN_NORMAL: u32 = 113 << 23; // 2^-14
    const OVERFLOW: u32 = 143 << 23; // 2^16
    const REBIAS: u32 = (127 - 15) << 23;
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let magnitude = bits & 0x7FFF_FFFF;
    let half = if magnitude >= OVERFLOW {
        // Infinity, overflow, or NaN (quiet, payload collapsed).
        if magnitude > 0x7F80_0000 {
            0x7E00
        } else {
            0x7C00
        }
    } else if magnitude < MIN_NORMAL {
        (f32::from_bits(magnitude) + f32::from_bits(HALF)).to_bits() - HALF
    } else {
        let odd = (magnitude >> 13) & 1;
        (magnitude - REBIAS + 0xFFF + odd) >> 13
    };
    sign | half as u16
}

/// Converts a binary16 bit pattern to `f32` (exact), without a branch: the
/// pattern's exponent and mantissa bits, moved to an `f32`'s positions,
/// are the value times `2^-112` — a subnormal binary16 lands on an `f32`
/// subnormal — so one exact multiplication rescales every finite value.
/// Infinity keeps its class; every NaN becomes the quiet NaN of its sign.
#[inline(always)]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    const RESCALE: f32 = f32::from_bits(239 << 23); // 2^112
    let magnitude = (h & 0x7FFF) as u32;
    let sign = ((h & 0x8000) as u32) << 16;
    let finite = (f32::from_bits(magnitude << 13) * RESCALE).to_bits();
    let special = if magnitude > 0x7C00 {
        0x7FC0_0000
    } else {
        0x7F80_0000
    };
    f32::from_bits(sign | if magnitude < 0x7C00 { finite } else { special })
}

/// The least binary16 value `>= x`, as an `f32`, for finite `|x| <=
/// 65504`: the nearest one, or the pattern after it when the nearest lies
/// below `x`. A zero result is `+0.0`.
pub(crate) fn half_at_or_above(x: f32) -> f32 {
    let h = f32_to_f16_bits(x);
    let below = (f16_bits_to_f32(h) < x) as u16;
    // One pattern toward +∞ when the nearest is below: a larger magnitude
    // if positive, a smaller one if negative. `-0.0` is never below `x`:
    // only `x <= 0` rounds to it.
    let toward_infinity = 1u16.wrapping_sub((h >> 15) << 1); // 1 or -1
    f16_bits_to_f32(h.wrapping_add(toward_infinity.wrapping_mul(below))) + 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_roundtrip() {
        for x in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25] {
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            assert_eq!(back, x, "{x} should be exactly representable");
        }
    }

    #[test]
    fn signed_zero_preserved() {
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert!(f16_bits_to_f32(0x8000).is_sign_negative());
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(f32_to_f16_bits(1e6), 0x7C00);
        assert_eq!(f32_to_f16_bits(-1e6), 0xFC00);
        assert!(f16_bits_to_f32(0x7C00).is_infinite());
    }

    #[test]
    fn nan_stays_nan() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn relative_error_within_half_ulp() {
        // f16 has 11 significand bits: relative error <= 2^-11 for normals.
        for i in 1..2000 {
            let x = (i as f32) * 0.013 - 12.7;
            if x == 0.0 {
                continue;
            }
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            let rel = ((back - x) / x).abs();
            assert!(rel <= 1.0 / 2048.0 + 1e-7, "x={x}: rel error {rel}");
        }
    }

    #[test]
    fn subnormals_roundtrip_with_bounded_error() {
        // Smallest positive f16 subnormal is 2^-24 ≈ 5.96e-8.
        let tiny = 6e-8f32;
        let back = f16_bits_to_f32(f32_to_f16_bits(tiny));
        assert!(back > 0.0 && (back - tiny).abs() < 6e-8);
        // Below half the smallest subnormal underflows to zero.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e-9)), 0.0);
        // Subnormal results land on the binary16 value nearest `x`.
        for (x, h) in [(3e-5f32, 0x01F7u16), (1e-6, 0x0011)] {
            assert_eq!(f32_to_f16_bits(x), h, "{x}");
            let back = f16_bits_to_f32(h);
            assert!((back - x).abs() <= 2.0f32.powi(-25), "{x} -> {back}");
        }
        // (2^-25, 2^-24) rounds up to the smallest subnormal; 2^-25 ties
        // to even zero.
        let half_min = 2.0f32.powi(-25);
        assert_eq!(
            f32_to_f16_bits(f32::from_bits(half_min.to_bits() + 1)),
            0x0001
        );
        assert_eq!(f32_to_f16_bits(half_min), 0x0000);
        assert_eq!(f32_to_f16_bits(-1.5 * half_min), 0x8001);
    }

    /// Every finite binary16 pattern, widened and narrowed again, is
    /// itself: the narrowing inverts the widening exactly.
    #[test]
    fn every_finite_pattern_roundtrips() {
        for h in 0..=u16::MAX {
            if h & 0x7C00 == 0x7C00 {
                continue;
            }
            assert_eq!(f32_to_f16_bits(f16_bits_to_f32(h)), h, "{h:#06x}");
        }
    }

    /// Round-to-nearest-even to binary16, computed in `f64` from the
    /// definition: the value's binary16 spacing, the nearest multiple of
    /// it, overflow past the largest finite value's rounding boundary.
    fn nearest_half_f64(x: f32) -> f64 {
        let x = x as f64;
        if x.abs() >= 65520.0 {
            return f64::INFINITY.copysign(x);
        }
        let exp = x.abs().log2().floor().max(-14.0);
        let q = (exp - 10.0).exp2();
        ((x / q).round_ties_even() * q).copysign(x)
    }

    /// Every rounding boundary — the midpoint of two adjacent binary16
    /// values, and the `f32`s on either side of it — and a seeded sample
    /// of `f32` values over the whole binary16 range and beyond, each
    /// narrowed as the definition says.
    #[test]
    fn narrowing_is_round_to_nearest_even() {
        for h in 0..0x7C00u16 {
            for sign in [0u16, 0x8000] {
                // `h + 1` is 0x7C00 for the last pair: past 65504 the
                // spacing would put the next value at 65536, and the
                // boundary there rounds to infinity.
                let lo = f16_bits_to_f32(sign | h) as f64;
                let hi = match h + 1 {
                    0x7C00 => 65536f64.copysign(lo),
                    next => f16_bits_to_f32(sign | next) as f64,
                };
                let mid = ((lo + hi) / 2.0) as f32; // exact
                let even = if h & 1 == 0 { h } else { h + 1 };
                let inner = f32::from_bits(mid.to_bits() - 1);
                let outer = f32::from_bits(mid.to_bits() + 1);
                assert_eq!(f32_to_f16_bits(mid), sign | even, "{mid:e}");
                assert_eq!(f32_to_f16_bits(inner), sign | h, "{inner:e}");
                assert_eq!(f32_to_f16_bits(outer), sign | (h + 1), "{outer:e}");
            }
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..200_000 {
            // Exponents 2^-27..2^17, random mantissa and sign; every
            // fourth value sits exactly on a tie.
            let r = next();
            let exp = 100 + (r % 45) as u32;
            let mut mant = ((r >> 8) as u32) & 0x007F_FFFF;
            if i % 4 == 0 {
                mant = (mant & !0x1FFF) | 0x1000;
            }
            let x = f32::from_bits((r >> 32) as u32 & 0x8000_0000 | exp << 23 | mant);
            let want = nearest_half_f64(x);
            let got = f16_bits_to_f32(f32_to_f16_bits(x)) as f64;
            assert_eq!(got.to_bits(), want.to_bits(), "{x:e}: {got:e} vs {want:e}");
        }
    }

    /// The branch-free widening equals the original normalising loop on
    /// every pattern, NaNs included.
    #[test]
    fn widening_equals_the_reference_on_every_pattern() {
        for h in 0..=u16::MAX {
            let want = crate::reference::f16_bits_to_f32(h).to_bits();
            assert_eq!(f16_bits_to_f32(h).to_bits(), want, "{h:#06x}");
        }
    }

    /// Rounding up keeps every binary16 value, and takes the `f32` just
    /// above one, and the `f32` just below the next, to the next — over
    /// every finite pattern of both signs.
    #[test]
    fn rounding_up_steps_to_the_next_pattern() {
        let next_up = |v: f32| {
            if v == 0.0 {
                f32::from_bits(1)
            } else if v > 0.0 {
                f32::from_bits(v.to_bits() + 1)
            } else {
                f32::from_bits(v.to_bits() - 1)
            }
        };
        let next_down = |v: f32| -next_up(-v);
        for h in 0..0x7BFFu16 {
            for (lo, hi) in [(h, h + 1), (0x8000 | (h + 1), 0x8000 | h)] {
                let (lo, hi) = (f16_bits_to_f32(lo), f16_bits_to_f32(hi) + 0.0);
                assert_eq!(half_at_or_above(lo).to_bits(), (lo + 0.0).to_bits(), "{lo:e}");
                assert_eq!(half_at_or_above(next_up(lo)).to_bits(), hi.to_bits(), "{lo:e}+");
                assert_eq!(half_at_or_above(next_down(hi)).to_bits(), hi.to_bits(), "{hi:e}-");
            }
        }
    }

    #[test]
    fn monotonicity_on_positives() {
        // Conversion must be monotone: a > b => f16(a) >= f16(b).
        let mut prev = 0u16;
        for i in 0..1000 {
            let x = i as f32 * 0.07;
            let h = f32_to_f16_bits(x);
            assert!(h >= prev, "non-monotone at {x}");
            prev = h;
        }
    }

    #[test]
    fn embedding_scale_values_are_accurate() {
        // Typical embedding magnitudes (1e-3..1) survive with tiny error.
        for i in 0..512 {
            let a = ((i as f32) * 0.37).sin() * 0.1;
            let b = f16_bits_to_f32(f32_to_f16_bits(a));
            assert!((a - b).abs() < 2e-4, "{a} vs {b}");
        }
    }
}
