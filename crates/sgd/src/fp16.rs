//! IEEE-754 binary16 ("FP16") conversion, implemented from scratch.
//!
//! The paper's "Transmitting FP16 Data" strategy compresses the feature
//! matrices to half precision before transfer (§3.4, Strategy 2), using AVX
//! and multi-threading on the CPU side. This module is the Rust analog of
//! the AVX half: a bit-exact scalar codec with round-to-nearest-even,
//! subnormal, infinity and NaN handling. The bulk slice codecs are
//! [`crate::simd::encode_f16`] and [`crate::simd::decode_f16`] (F16C vector
//! conversion on capable CPUs, this scalar codec otherwise, bit-exact
//! either way). A slice converts on the caller's thread; the paper's
//! multi-threaded conversion is not reproduced.

/// Converts one `f32` to its nearest binary16 bit pattern
/// (round-to-nearest-even; overflow rounds to infinity).
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;

    if exp == 0xff {
        // Infinity or NaN. NaNs keep their payload top bits and always get
        // the quiet bit so a payload of zero can't collapse into infinity.
        return if man == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7e00 | ((man >> 13) as u16)
        };
    }

    let half_exp = exp - 127 + 15;
    if half_exp >= 0x1f {
        // Too large for binary16: round to infinity.
        return sign | 0x7c00;
    }
    if half_exp <= 0 {
        // Subnormal half (or zero). Values below half the smallest
        // subnormal (2^-25) flush to signed zero.
        if half_exp < -10 {
            return sign;
        }
        let man = man | 0x0080_0000; // restore the implicit bit
        let shift = (14 - half_exp) as u32;
        let mut m16 = (man >> shift) as u16;
        let rem = man & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        if rem > halfway || (rem == halfway && (m16 & 1) == 1) {
            m16 += 1; // may carry into the exponent field: that's correct
        }
        return sign | m16;
    }

    // Normal range. Round the 13 dropped mantissa bits to nearest even; a
    // mantissa carry correctly increments the exponent (and can round the
    // largest normals to infinity).
    let mut out = sign | ((half_exp as u16) << 10) | ((man >> 13) as u16);
    let rem = man & 0x1fff;
    if rem > 0x1000 || (rem == 0x1000 && (out & 1) == 1) {
        out += 1;
    }
    out
}

/// Converts a binary16 bit pattern to the exactly-representable `f32`.
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let man = (h & 0x03ff) as u32;

    if exp == 0 {
        if man == 0 {
            return f32::from_bits(sign); // ±0
        }
        // Subnormal: normalize into f32's much wider exponent range.
        let mut m = man;
        let mut e = 113u32; // exponent as if the implicit bit were at 0x400
        while m & 0x0400 == 0 {
            m <<= 1;
            e -= 1;
        }
        return f32::from_bits(sign | (e << 23) | ((m & 0x03ff) << 13));
    }
    if exp == 0x1f {
        if man == 0 {
            return f32::from_bits(sign | 0x7f80_0000); // ±infinity
        }
        // NaN: shift the payload up and set the quiet bit, exactly as
        // VCVTPH2PS does — signaling NaNs come out quieted, so the scalar
        // and F16C decode paths stay bit-identical.
        return f32::from_bits(sign | 0x7fc0_0000 | (man << 13));
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (man << 13))
}

/// Largest finite binary16 value (2^15 · (2 − 2^-10)).
pub const F16_MAX: f32 = 65504.0;
/// Smallest positive normal binary16 value (2^-14).
pub const F16_MIN_POSITIVE: f32 = 6.103_515_6e-5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{decode_f16, encode_f16};

    #[test]
    fn known_bit_patterns() {
        assert_eq!(f32_to_f16(0.0), 0x0000);
        assert_eq!(f32_to_f16(-0.0), 0x8000);
        assert_eq!(f32_to_f16(1.0), 0x3c00);
        assert_eq!(f32_to_f16(-1.0), 0xbc00);
        assert_eq!(f32_to_f16(2.0), 0x4000);
        assert_eq!(f32_to_f16(0.5), 0x3800);
        assert_eq!(f32_to_f16(65504.0), 0x7bff); // F16_MAX
        assert_eq!(f32_to_f16(f32::INFINITY), 0x7c00);
        assert_eq!(f32_to_f16(f32::NEG_INFINITY), 0xfc00);
    }

    #[test]
    fn decode_known_patterns() {
        assert_eq!(f16_to_f32(0x3c00), 1.0);
        assert_eq!(f16_to_f32(0xbc00), -1.0);
        assert_eq!(f16_to_f32(0x0000), 0.0);
        assert_eq!(f16_to_f32(0x8000).to_bits(), (-0.0f32).to_bits());
        assert_eq!(f16_to_f32(0x7c00), f32::INFINITY);
        assert_eq!(f16_to_f32(0xfc00), f32::NEG_INFINITY);
        assert_eq!(f16_to_f32(0x7bff), 65504.0);
        // Smallest subnormal: 2^-24.
        assert_eq!(f16_to_f32(0x0001), 2.0f32.powi(-24));
        // Smallest normal: 2^-14.
        assert_eq!(f16_to_f32(0x0400), 2.0f32.powi(-14));
    }

    #[test]
    fn nan_survives_roundtrip() {
        assert!(f16_to_f32(f32_to_f16(f32::NAN)).is_nan());
        // NaN with payload only in low mantissa bits must not become Inf.
        let sneaky = f32::from_bits(0x7f80_0001);
        assert!(sneaky.is_nan());
        assert!(f16_to_f32(f32_to_f16(sneaky)).is_nan());
        let neg_nan = f32::from_bits(0xff80_0001);
        let back = f16_to_f32(f32_to_f16(neg_nan));
        assert!(back.is_nan());
        assert!(back.is_sign_negative());
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        assert_eq!(f32_to_f16(1e6), 0x7c00);
        assert_eq!(f32_to_f16(-1e6), 0xfc00);
        // 65520 is the rounding boundary: ties-to-even sends it to infinity.
        assert_eq!(f32_to_f16(65520.0), 0x7c00);
        // Just below the boundary stays finite.
        assert_eq!(f32_to_f16(65519.0), 0x7bff);
    }

    #[test]
    fn underflow_flushes_to_zero() {
        assert_eq!(f32_to_f16(1e-10), 0x0000);
        assert_eq!(f32_to_f16(-1e-10), 0x8000);
        // Half the smallest subnormal (2^-25) ties to even → zero.
        assert_eq!(f32_to_f16(2.0f32.powi(-25)), 0x0000);
        // Anything above the tie rounds up to the smallest subnormal.
        assert_eq!(f32_to_f16(2.0f32.powi(-25) * 1.5), 0x0001);
    }

    #[test]
    fn subnormal_roundtrips_exactly() {
        for bits in [0x0001u16, 0x0002, 0x01ff, 0x03ff, 0x8001, 0x83ff] {
            assert_eq!(f32_to_f16(f16_to_f32(bits)), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn every_f16_value_roundtrips_through_f32() {
        // Exhaustive: all 65536 bit patterns. NaNs compare by NaN-ness.
        for bits in 0..=u16::MAX {
            let x = f16_to_f32(bits);
            let back = f32_to_f16(x);
            if x.is_nan() {
                assert!(f16_to_f32(back).is_nan());
            } else {
                assert_eq!(back, bits, "pattern {bits:#06x} -> {x} -> {back:#06x}");
            }
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next f16; even
        // mantissa (0) wins → 1.0.
        let halfway = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f32_to_f16(halfway), 0x3c00);
        // 1.0 + 3·2^-11 is halfway between patterns 0x3c01 and 0x3c02; the
        // even one (0x3c02) wins.
        let halfway_up = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(f32_to_f16(halfway_up), 0x3c02);
        // Slightly above halfway rounds up.
        assert_eq!(f32_to_f16(halfway + 1e-7), 0x3c01);
    }

    #[test]
    fn relative_error_bound_in_normal_range() {
        let mut x = F16_MIN_POSITIVE;
        while x < F16_MAX / 2.0 {
            let y = f16_to_f32(f32_to_f16(x * 1.37));
            let rel = ((y - x * 1.37) / (x * 1.37)).abs();
            assert!(rel <= 1.0 / 2048.0 + 1e-7, "x {} rel {}", x * 1.37, rel);
            x *= 2.0;
        }
    }

    #[test]
    fn slice_codecs_match_scalar() {
        let src: Vec<f32> = (0..10_000).map(|j| (j as f32 - 5_000.0) * 0.01).collect();
        let mut enc = vec![0u16; src.len()];
        encode_f16(&src, &mut enc);
        for (j, &s) in src.iter().enumerate() {
            assert_eq!(enc[j], f32_to_f16(s));
        }
        let mut dec = vec![0f32; enc.len()];
        decode_f16(&enc, &mut dec);
        for (j, &h) in enc.iter().enumerate() {
            assert_eq!(dec[j].to_bits(), f16_to_f32(h).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn mismatched_lengths_panic() {
        let mut dst = vec![0u16; 3];
        encode_f16(&[1.0, 2.0], &mut dst);
    }
}
