//! IEEE 754 binary16 (half precision) conversion.
//!
//! FP16 is the "do nothing clever" checkpoint compressor: exactly 2× smaller,
//! ~3 decimal digits of precision, no parameters to store. It sits between
//! FP32 passthrough and the paper's 8-bit asymmetric scheme and serves as a
//! baseline in the quantization sweeps. Implemented from bit operations —
//! no hardware half support required.

/// Converts an `f32` to its nearest binary16 bit pattern (round-to-nearest-
/// even, with overflow to infinity and graceful subnormal handling).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf / NaN: preserve class (quiet NaN payload collapsed).
        return sign | 0x7C00 | if mant != 0 { 0x0200 } else { 0 };
    }
    // Re-bias: f32 bias 127, f16 bias 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00; // overflow -> infinity
    }
    if unbiased >= -14 {
        // Normal f16. Round mantissa from 23 to 10 bits (nearest even).
        let half_exp = ((unbiased + 15) as u16) << 10;
        let mant16 = mant >> 13;
        let round_bit = (mant >> 12) & 1;
        let sticky = (mant & 0x0FFF) != 0;
        let mut out = sign | half_exp | mant16 as u16;
        if round_bit == 1 && (sticky || (mant16 & 1) == 1) {
            out = out.wrapping_add(1); // may carry into exponent: correct
        }
        return out;
    }
    if unbiased >= -24 {
        // Subnormal f16.
        let shift = (-unbiased - 14 + 13) as u32; // 14..23
        let full = mant | 0x0080_0000; // implicit leading 1
        let mant16 = (full >> (shift + 1)) as u16;
        let round_bit = (full >> shift) & 1;
        let sticky = (full & ((1 << shift) - 1)) != 0;
        let mut out = sign | mant16;
        if round_bit == 1 && (sticky || (mant16 & 1) == 1) {
            out = out.wrapping_add(1);
        }
        return out;
    }
    sign // underflow to signed zero
}

/// Converts a binary16 bit pattern to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign, // signed zero
        (0, m) => {
            // Subnormal: normalize.
            let mut e = -1i32;
            let mut m = m;
            while m & 0x0400 == 0 {
                m <<= 1;
                e += 1;
            }
            let exp32 = (127 - 15 - e) as u32;
            sign | (exp32 << 23) | ((m & 0x03FF) << 13)
        }
        (0x1F, 0) => sign | 0x7F80_0000,            // infinity
        (0x1F, _) => sign | 0x7FC0_0000,            // NaN
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
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
