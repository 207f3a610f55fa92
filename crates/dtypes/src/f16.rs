//! Software IEEE-754 binary16 ("half precision", `float16`).
//!
//! Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
//! Conversions implement round-to-nearest-even, matching hardware float
//! units (and the Ascend cast pipeline). Arithmetic is performed by
//! widening to `f32`, operating, and rounding back — the same numerics an
//! fp16-in/fp32-out vector engine exposes for single operations.

use std::cmp::Ordering;
use std::fmt;

/// IEEE-754 binary16 floating point number.
///
/// Stored as its raw bit pattern. All arithmetic round-trips through `f32`
/// (exact, since every f16 is representable in f32) with round-to-nearest-
/// even on the way back.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct F16(pub u16);

const SIGN_MASK: u16 = 0x8000;
const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A canonical quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Most negative finite value, -65504.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Machine epsilon (2^-10).
    pub const EPSILON: F16 = F16(0x1400);

    /// Builds an `F16` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to `F16` with round-to-nearest-even.
    ///
    /// Values above the f16 range become infinities; subnormal results are
    /// produced exactly as IEEE demands; NaNs stay NaNs, quieted, with the
    /// top 10 bits of the f32 payload kept (`0x7C01` → `0x7E01` through an
    /// f32 round trip).
    ///
    /// Written as a select over every range's precomputed result, with no
    /// data-dependent branch, so loops over slices vectorize. The normal range rounds with one
    /// integer add (the rounding bias carries into the exponent, and past
    /// it into the infinity pattern); the subnormal range lets the host
    /// FPU round by adding 0.5, whose f32 ulp is the f16 subnormal
    /// quantum 2^-24.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        let sign = (bits >> 16) as u16 & SIGN_MASK;
        let mag = bits & 0x7FFF_FFFF;
        // Normal: rebias the exponent (127 → 15) and round the 13 dropped
        // mantissa bits to nearest, ties to the even kept mantissa.
        let odd = (mag >> 13) & 1;
        let normal = mag.wrapping_sub(0x3800_0000).wrapping_add(0x0FFF + odd) >> 13;
        // |value| < 2^-14: subnormal or zero.
        let subnormal = (f32::from_bits(mag) + 0.5)
            .to_bits()
            .wrapping_sub(0x3F00_0000);
        let nan = 0x7E00 | ((mag >> 13) & u32::from(MAN_MASK));
        let half = if mag > 0x7F80_0000 {
            nan
        } else if mag >= 0x4780_0000 {
            // |value| >= 65536 or infinity.
            u32::from(EXP_MASK)
        } else if mag < 0x3880_0000 {
            subnormal
        } else {
            normal
        };
        F16(sign | half as u16)
    }

    /// Converts to `f32` exactly (every f16 value is representable).
    /// A select over precomputed results, like [`F16::from_f32`].
    #[inline]
    pub fn to_f32(self) -> f32 {
        let sign = u32::from(self.0 & SIGN_MASK) << 16;
        let mag = u32::from(self.0 & !SIGN_MASK);
        // Normal: rebias the exponent (15 → 127).
        let normal = (mag << 13) + 0x3800_0000;
        // Zero or subnormal: mag · 2^-24 = (2^-14 + mag · 2^-24) − 2^-14,
        // exact in f32 (and free of an int → float conversion).
        let subnormal =
            (f32::from_bits(0x3880_0000 | (mag << 13)) - f32::from_bits(0x3880_0000)).to_bits();
        // Infinity, or a NaN quieted with its payload kept.
        let quiet = if mag > 0x7C00 { 0x0040_0000 } else { 0 };
        let special = ((mag << 13) + 0x7000_0000) | quiet;
        let bits = if mag >= 0x7C00 {
            special
        } else if mag >= 0x0400 {
            normal
        } else {
            subnormal
        };
        f32::from_bits(sign | bits)
    }

    /// Converts an `f64`, rounding it to `f32` first and then to f16. The
    /// two roundings can differ from one direct rounding on rare ties.
    #[inline]
    pub fn from_f64(value: f64) -> Self {
        Self::from_f32(value as f32)
    }

    /// Converts to `f64` exactly.
    #[inline]
    pub fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }

    /// True if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) != 0
    }

    /// True if the value is +/- infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) == 0
    }

    /// True if the value is finite (neither infinite nor NaN).
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    /// True if the sign bit is set (including -0.0 and negative NaNs).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & SIGN_MASK) != 0
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Self {
        F16(self.0 & !SIGN_MASK)
    }

    /// IEEE total order comparison used by sorting tests: treats -NaN as
    /// the smallest and +NaN as the largest value, and -0 < +0.
    #[inline]
    pub fn total_cmp(&self, other: &Self) -> Ordering {
        let key = |f: &F16| -> i32 {
            let bits = f.0 as i32;
            // Flip all bits of negatives, only the sign of positives
            // (identical to the radix-sort encoding).
            if bits & 0x8000 != 0 {
                !bits & 0xFFFF
            } else {
                bits | 0x8000
            }
        };
        key(self).cmp(&key(other))
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}f16", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl PartialOrd for F16 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl From<f32> for F16 {
    #[inline]
    fn from(v: f32) -> Self {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    #[inline]
    fn from(v: F16) -> Self {
        v.to_f32()
    }
}

impl From<i16> for F16 {
    #[inline]
    fn from(v: i16) -> Self {
        F16::from_f32(f32::from(v))
    }
}

macro_rules! f16_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
    };
}

f16_binop!(Add, add, +);
f16_binop!(Sub, sub, -);
f16_binop!(Mul, mul, *);
f16_binop!(Div, div, /);

impl std::ops::Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ SIGN_MASK)
    }
}

impl std::ops::AddAssign for F16 {
    #[inline]
    fn add_assign(&mut self, rhs: F16) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for F16 {
    fn sum<I: Iterator<Item = F16>>(iter: I) -> F16 {
        iter.fold(F16::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constants_round_trip() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 6.103_515_6e-5);
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(!F16::INFINITY.is_sign_negative());
        assert!(F16::NEG_INFINITY.is_sign_negative());
    }

    #[test]
    fn simple_values() {
        for v in [
            0.5f32,
            2.0,
            3.5,
            100.0,
            -0.25,
            1024.0,
            0.1,
            -std::f32::consts::PI,
        ] {
            let h = F16::from_f32(v);
            let back = h.to_f32();
            let rel = ((back - v) / v).abs();
            assert!(rel < 1e-3, "{v} -> {back} rel err {rel}");
        }
    }

    #[test]
    fn exact_small_integers() {
        // All integers up to 2048 are exactly representable in f16.
        for i in 0..=2048i32 {
            let h = F16::from_f32(i as f32);
            assert_eq!(h.to_f32(), i as f32, "integer {i} must be exact");
        }
    }

    #[test]
    fn overflow_to_infinity() {
        assert!(F16::from_f32(65520.0).is_infinite());
        assert!(F16::from_f32(1e9).is_infinite());
        assert!(F16::from_f32(-1e9).is_infinite());
        assert!(F16::from_f32(-1e9).is_sign_negative());
        // 65504 + a bit under half an ulp stays finite.
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
    }

    #[test]
    fn underflow_and_subnormals() {
        // Largest subnormal: (1023/1024) * 2^-14.
        let largest_sub = F16::from_bits(0x03FF);
        let v = largest_sub.to_f32();
        assert!(v > 0.0 && v < F16::MIN_POSITIVE.to_f32());
        assert_eq!(F16::from_f32(v), largest_sub);
        // Smallest subnormal: 2^-24.
        let smallest = F16::from_bits(0x0001);
        assert_eq!(smallest.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::from_f32(2.0f32.powi(-24)), smallest);
        // Halfway below the smallest subnormal rounds to zero (ties-to-even).
        assert_eq!(F16::from_f32(2.0f32.powi(-26)), F16::ZERO);
    }

    #[test]
    fn subnormal_boundary_round_trips_exactly() {
        // Regression guard for proptest-regressions/f16.txt ("shrinks to
        // bits = 1"): the smallest subnormal (0x0001), the largest
        // subnormal (0x03FF), and the smallest normal (0x0400) must all
        // survive the f32 round trip bit-exactly, in both signs.
        for bits in [0x0001u16, 0x03FF, 0x0400] {
            for sign in [0x0000u16, 0x8000] {
                let h = F16::from_bits(bits | sign);
                let rt = F16::from_f32(h.to_f32());
                assert_eq!(rt.to_bits(), bits | sign, "bits {:#06x}", bits | sign);
            }
        }
        assert_eq!(F16::from_bits(0x0001).to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::from_bits(0x03FF).to_f32(), 1023.0 * 2.0f32.powi(-24));
        assert_eq!(F16::from_bits(0x0400).to_f32(), 2.0f32.powi(-14));
    }

    #[test]
    fn roundtrip_is_identity_for_every_bit_pattern() {
        // Exhaustive over all 65536 patterns: stronger than the sampled
        // proptest below, and permanent cover for the subnormal boundary.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let rt = F16::from_f32(h.to_f32());
            if h.is_nan() {
                assert!(rt.is_nan(), "bits {bits:#06x}");
            } else {
                assert_eq!(rt.to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: ties to even -> 1.0.
        assert_eq!(F16::from_f32(1.0 + 2.0f32.powi(-11)), F16::ONE);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9: ties to even -> 1+2^-9.
        let expected = F16::from_bits(0x3C02);
        assert_eq!(F16::from_f32(1.0 + 3.0 * 2.0f32.powi(-11)), expected);
        // Just above halfway rounds up.
        assert_eq!(
            F16::from_f32(1.0 + 2.0f32.powi(-11) + 1e-7),
            F16::from_bits(0x3C01)
        );
    }

    #[test]
    fn signed_zero() {
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::NEG_ZERO.to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn arithmetic() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.25);
        assert_eq!((a + b).to_f32(), 3.75);
        assert_eq!((b - a).to_f32(), 0.75);
        assert_eq!((a * b).to_f32(), 3.375);
        assert_eq!((b / F16::from_f32(0.5)).to_f32(), 4.5);
        assert_eq!((-a).to_f32(), -1.5);
    }

    #[test]
    fn total_cmp_ordering() {
        let mut vals = vec![
            F16::NAN,
            F16::INFINITY,
            F16::MAX,
            F16::ONE,
            F16::MIN_POSITIVE,
            F16::ZERO,
            F16::NEG_ZERO,
            F16::NEG_ONE,
            F16::MIN,
            F16::NEG_INFINITY,
        ];
        vals.sort_by(F16::total_cmp);
        let expect = [
            F16::NEG_INFINITY,
            F16::MIN,
            F16::NEG_ONE,
            F16::NEG_ZERO,
            F16::ZERO,
            F16::MIN_POSITIVE,
            F16::ONE,
            F16::MAX,
            F16::INFINITY,
            F16::NAN,
        ];
        assert_eq!(vals, expect);
    }

    #[test]
    fn nan_propagates() {
        assert!((F16::NAN + F16::ONE).is_nan());
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!((F16::INFINITY - F16::INFINITY).is_nan());
    }

    proptest! {
        #[test]
        fn roundtrip_through_f32_is_identity(bits in any::<u16>()) {
            let h = F16::from_bits(bits);
            let rt = F16::from_f32(h.to_f32());
            if h.is_nan() {
                prop_assert!(rt.is_nan());
            } else {
                prop_assert_eq!(h, rt);
            }
        }

        #[test]
        fn from_f32_matches_reference_as_casts(v in -70000.0f32..70000.0) {
            // Rust's `as` f32->f16 isn't available on stable without the
            // `f16` type; instead cross-check monotonicity + error bound.
            let h = F16::from_f32(v);
            if h.is_finite() {
                let err = (h.to_f32() - v).abs();
                // Half an ulp at the value's scale (2^-11 relative), or the
                // subnormal quantum for tiny values.
                let bound = f32::max(v.abs() * 2.0f32.powi(-11), 2.0f32.powi(-25));
                prop_assert!(err <= bound, "v={v} h={} err={err} bound={bound}", h.to_f32());
            }
        }

        #[test]
        fn conversion_is_monotone(a in -70000.0f32..70000.0, b in -70000.0f32..70000.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let (hl, hh) = (F16::from_f32(lo), F16::from_f32(hi));
            if hl.is_finite() && hh.is_finite() {
                prop_assert!(hl.to_f32() <= hh.to_f32());
            }
        }

        #[test]
        fn neg_is_involution(bits in any::<u16>()) {
            let h = F16::from_bits(bits);
            prop_assert_eq!((-(-h)).to_bits(), h.to_bits());
        }
    }
}
