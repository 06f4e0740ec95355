//! Integer and half-precision storage codecs for quantised inference.
//!
//! The absint audit (`hiergat-nn`) proves per-tensor value intervals and
//! classifies each tensor `int8` / `f16` / `f32`; this module supplies the
//! storage codecs those classes need:
//!
//! * **u8 affine codec** — `v ≈ scale * (q - zero_point)` with `q` in
//!   `[0, 255]`. Encoding rounds to nearest; the audit-proven interval
//!   guarantees the clamp is never load-bearing (the rejecting quantiser
//!   that enforces the interval lives in `hiergat-nn`, which owns the
//!   proof).
//! * **IEEE 754 binary16 codec** — round-to-nearest-even encode, exact
//!   decode (every f16 value is exactly representable in f32). Storage is
//!   raw `u16` bit patterns; arithmetic always happens in f32.
//!
//! The codecs run once per quantised session, when the weights are
//! snapped onto their grids, so they are plain scalar loops.

/// Largest finite f16 value; anything of greater magnitude cannot be
/// stored as binary16 without overflowing to infinity.
pub const F16_MAX: f32 = 65504.0;

/// Encodes one value into the u8 affine grid (round to nearest, ties away
/// from zero via `f32::round`). Out-of-grid inputs saturate; callers that
/// must *reject* out-of-interval values check before encoding.
#[inline]
pub fn u8_encode(v: f32, scale: f32, zero_point: u8) -> u8 {
    if scale == 0.0 {
        return zero_point;
    }
    let q = (v / scale + f32::from(zero_point)).round();
    q.clamp(0.0, 255.0) as u8
}

/// Decodes one u8 affine code back to f32.
#[inline]
pub fn u8_decode(q: u8, scale: f32, zero_point: u8) -> f32 {
    scale * (f32::from(q) - f32::from(zero_point))
}

/// Encodes a slice into the u8 affine grid.
pub fn u8_encode_slice(src: &[f32], scale: f32, zero_point: u8, dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "u8_encode_slice: length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = u8_encode(s, scale, zero_point);
    }
}

/// Decodes a u8 affine slice to f32.
pub fn u8_decode_slice(src: &[u8], scale: f32, zero_point: u8, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "u8_decode_slice: length mismatch");
    let zp = f32::from(zero_point);
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = scale * (f32::from(s) - zp);
    }
}

/// Converts f32 to IEEE 754 binary16 bits with round-to-nearest-even.
/// Values above [`F16_MAX`] in magnitude round to signed infinity; NaN
/// maps to a quiet f16 NaN.
#[inline]
pub fn f16_from_f32(x: f32) -> u16 {
    // Branch-light conversion that delegates the round-to-nearest-even to
    // the FPU itself: rescale so the 24-bit significand's low 13 bits fall
    // below the binary32 rounding point, add a bias that positions the
    // result's exponent/mantissa at fixed bit offsets, and read the
    // binary16 fields straight out of the rounded sum. Verified bitwise
    // identical to the direct shift-based conversion over every one of the
    // 2^32 f32 bit patterns (subnormals, overflow saturation, signed
    // zeros). Only the inf/NaN guard branches.
    let w = x.to_bits();
    let sign = w & 0x8000_0000;
    let shl1_w = w.wrapping_add(w); // drops the sign, doubles the exponent field
    if shl1_w >= 0xff00_0000 {
        // Infinity or (quiet) NaN.
        return ((sign >> 16) as u16) | 0x7c00 | if shl1_w > 0xff00_0000 { 0x0200 } else { 0 };
    }
    // |x| * 2^112 * 2^-110 = |x| * 4, rounded where f16 will round: the
    // two-step product pushes overflow-bound values to infinity first.
    let scale_to_inf = f32::from_bits(0x7780_0000); // 2^112
    let scale_to_zero = f32::from_bits(0x0880_0000); // 2^-110
    let base = (x.abs() * scale_to_inf) * scale_to_zero;
    let bias = {
        // Exponent-dependent renormaliser; the floor pins subnormal
        // results so their significand lands in the low 10 bits.
        let b = shl1_w & 0xff00_0000;
        if b < 0x7100_0000 {
            0x7100_0000u32
        } else {
            b
        }
    };
    let base = f32::from_bits((bias >> 1) + 0x0780_0000) + base;
    let bits = base.to_bits();
    let exp_bits = (bits >> 13) & 0x7c00;
    let mantissa_bits = bits & 0x0fff;
    ((sign >> 16) as u16) | (exp_bits + mantissa_bits) as u16
}

/// Converts IEEE 754 binary16 bits to f32 (exact — every binary16 value
/// is representable in binary32).
#[inline]
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = (u32::from(h) & 0x8000) << 16;
    let exp = u32::from(h >> 10) & 0x1f;
    let man = u32::from(h) & 0x3ff;
    let bits = if exp == 0x1f {
        sign | 0x7f80_0000 | (man << 13)
    } else if exp != 0 {
        sign | ((exp + 112) << 23) | (man << 13)
    } else if man == 0 {
        sign
    } else {
        // Subnormal: normalise man * 2^-24 into a binary32 normal.
        let p = 31 - man.leading_zeros(); // position of the top set bit
        let e32 = 127 - 24 + p;
        sign | (e32 << 23) | ((man & !(1 << p)) << (23 - p))
    };
    f32::from_bits(bits)
}

/// Encodes a slice to binary16 bits (round-to-nearest-even per element).
pub fn f16_encode_slice(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "f16_encode_slice: length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f16_from_f32(s);
    }
}

/// Decodes a binary16 slice to f32.
pub fn f16_decode_slice(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "f16_decode_slice: length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f16_to_f32(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference binary16 decode built from exact f32 arithmetic.
    fn f16_to_f32_reference(h: u16) -> f32 {
        let neg = h & 0x8000 != 0;
        let e = i32::from((h >> 10) & 0x1f);
        let m = f32::from(h & 0x3ff);
        let mag = if e == 0x1f {
            if m == 0.0 {
                f32::INFINITY
            } else {
                f32::NAN
            }
        } else if e == 0 {
            m * 2f32.powi(-24)
        } else {
            (1024.0 + m) * 2f32.powi(e - 25)
        };
        if neg {
            -mag
        } else {
            mag
        }
    }

    #[test]
    fn f16_decode_matches_reference_exhaustively() {
        for h in 0..=u16::MAX {
            let got = f16_to_f32(h);
            let want = f16_to_f32_reference(h);
            if want.is_nan() {
                assert!(got.is_nan(), "bits {h:#06x}: expected NaN, got {got}");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "bits {h:#06x}");
            }
        }
    }

    #[test]
    fn f16_roundtrip_is_identity_on_f16_values() {
        // Every finite f16 value must encode back to its own bit pattern.
        for h in 0..=u16::MAX {
            let v = f16_to_f32(h);
            if !v.is_finite() {
                continue;
            }
            let back = f16_from_f32(v);
            // +0 and -0 keep their signs; everything else is exact.
            assert_eq!(back, h, "f16 bits {h:#06x} -> {v} -> {back:#06x}");
        }
    }

    #[test]
    fn f16_encode_rounds_to_nearest_even() {
        // 2048.0 is exactly representable; 2049.0 sits halfway between
        // 2048 and 2050 and must round to the even mantissa (2048).
        assert_eq!(f16_to_f32(f16_from_f32(2049.0)), 2048.0);
        // 2051.0 is halfway between 2050 and 2052 -> even (2052).
        assert_eq!(f16_to_f32(f16_from_f32(2051.0)), 2052.0);
        // Above the halfway point rounds up.
        assert_eq!(f16_to_f32(f16_from_f32(2049.1)), 2050.0);
        // Overflow saturates to infinity, underflow to signed zero.
        assert_eq!(f16_from_f32(7.0e4), 0x7c00);
        assert_eq!(f16_from_f32(-7.0e4), 0xfc00);
        assert_eq!(f16_from_f32(1.0e-10), 0x0000);
        assert_eq!(f16_from_f32(-1.0e-10), 0x8000);
        assert!(f16_to_f32(f16_from_f32(f32::NAN)).is_nan());
    }

    #[test]
    fn f16_relative_error_is_bounded() {
        // Normal range: relative error of one RNE rounding is <= 2^-11.
        for &v in &[1.0f32, -std::f32::consts::PI, 0.1, 123.456, 65000.0, 6.2e-5] {
            let r = f16_to_f32(f16_from_f32(v));
            assert!(((r - v) / v).abs() <= 2f32.powi(-11), "{v} -> {r}");
        }
    }

    #[test]
    fn f16_slice_codecs_match_scalar_on_finite_values() {
        let vals: Vec<f32> = (0..533)
            .map(|i| (i as f32 - 266.0) * 0.37 + 1.0 / (i as f32 + 1.0))
            .chain([0.0, -0.0, 65504.0, -65504.0, 6.1e-5, -6.1e-5, 5.9e-8])
            .collect();
        let mut bits = vec![0u16; vals.len()];
        f16_encode_slice(&vals, &mut bits);
        for (&h, &v) in bits.iter().zip(&vals) {
            assert_eq!(h, f16_from_f32(v), "encode of {v}");
        }
        let mut back = vec![0f32; vals.len()];
        f16_decode_slice(&bits, &mut back);
        for (&b, &h) in back.iter().zip(&bits) {
            assert_eq!(b.to_bits(), f16_to_f32(h).to_bits(), "decode of {h:#06x}");
        }
    }

    #[test]
    fn u8_codec_roundtrip_error_is_half_scale() {
        let scale = 0.05f32;
        let zp = 100u8;
        let mut v = -4.9f32;
        while v < 7.7 {
            let q = u8_encode(v, scale, zp);
            let r = u8_decode(q, scale, zp);
            assert!((r - v).abs() <= scale * 0.5 + 1e-6, "{v} -> {q} -> {r}");
            v += 0.013;
        }
        // Degenerate interval: everything maps to the zero point.
        assert_eq!(u8_encode(0.0, 0.0, 7), 7);
        assert_eq!(u8_decode(7, 0.0, 7), 0.0);
    }

    #[test]
    fn u8_slice_codecs_match_scalar() {
        let vals: Vec<f32> = (0..64).map(|i| (i as f32) * 0.037 - 1.0).collect();
        let mut q = vec![0u8; vals.len()];
        u8_encode_slice(&vals, 0.02, 50, &mut q);
        let mut back = vec![0f32; vals.len()];
        u8_decode_slice(&q, 0.02, 50, &mut back);
        for (i, (&v, &b)) in vals.iter().zip(&back).enumerate() {
            assert_eq!(q[i], u8_encode(v, 0.02, 50));
            assert_eq!(b.to_bits(), u8_decode(q[i], 0.02, 50).to_bits());
        }
    }
}
