//! `F16` ↔ `f32` conversions checked against an independent oracle.
//!
//! The oracle works in `f64` arithmetic on values rather than on bit
//! fields: it decodes an f16 from its definition, and rounds an f32 by
//! scaling it to the f16 quantum of its binade and rounding that to an
//! integer, ties to even. The fast conversions (bit tricks plus an FPU
//! add) must agree with it bit for bit.
//!
//! The tier-1 tests cover every f16 value and the f32 inputs where
//! rounding can go wrong: every value, every midpoint between
//! neighbours, one f32 ulp either side of both, the overflow and
//! subnormal edges, and NaNs of both signs with payloads. The ignored
//! test sweeps all 2³² f32 bit patterns (about 20 s in release):
//!
//! ```text
//! cargo test --release --test f16_conversion -- --ignored
//! ```

use ascend_scan::dtypes::F16;

/// 2^e as an f64 (exact for the exponents used here).
fn pow2(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// The value of f16 bit pattern `h`, from the format's definition; NaN
/// for NaN patterns.
fn oracle_value(h: u16) -> f64 {
    let sign = if h & 0x8000 != 0 { -1.0 } else { 1.0 };
    let exp = i32::from((h >> 10) & 0x1F);
    let man = f64::from(h & 0x3FF);
    match exp {
        0 => sign * man * pow2(-24),
        31 if man == 0.0 => sign * f64::INFINITY,
        31 => f64::NAN,
        _ => sign * (1024.0 + man) * pow2(exp - 25),
    }
}

/// The f32 bits `F16::to_f32` must produce for `h`: the exact value, or
/// for a NaN the quieted f32 NaN carrying the f16 payload.
fn oracle_to_f32(h: u16) -> u32 {
    if h & 0x7C00 == 0x7C00 && h & 0x3FF != 0 {
        let sign = u32::from(h & 0x8000) << 16;
        return sign | 0x7FC0_0000 | u32::from(h & 0x3FF) << 13;
    }
    (oracle_value(h) as f32).to_bits()
}

/// The f16 bits of `x` rounded to nearest, ties to even; NaNs keep the
/// top 10 payload bits and are quieted.
fn oracle_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = (bits >> 16) as u16 & 0x8000;
    if x.is_nan() {
        return sign | 0x7E00 | ((bits >> 13) & 0x3FF) as u16;
    }
    let a = f64::from(x).abs();
    // Halfway between the largest finite f16 (65504) and 2^16, where
    // the next value would be, ties to the even 2^16: infinity.
    if a >= 65520.0 {
        return sign | 0x7C00;
    }
    // The binade of `a`, floored at the subnormal range: quantum 2^(k-10).
    let mut k = -14;
    while a >= pow2(k + 1) {
        k += 1;
    }
    let m = (a * pow2(10 - k)).round_ties_even() as u16;
    if k == -14 {
        // Subnormal quanta; m = 1024 is the smallest normal, 0x0400.
        sign | m
    } else {
        // m in [1024, 2048]; 2048 carries into the next binade.
        sign | ((((k + 15) as u16) << 10) + (m - 1024))
    }
}

fn check_from_f32(x: f32) {
    let got = F16::from_f32(x).to_bits();
    let want = oracle_from_f32(x);
    assert_eq!(
        got,
        want,
        "from_f32({x:e} = {:#010x}): got {got:#06x}, oracle {want:#06x}",
        x.to_bits()
    );
}

#[test]
fn to_f32_matches_the_oracle_for_every_f16() {
    for h in 0..=u16::MAX {
        let got = F16::from_bits(h).to_f32().to_bits();
        assert_eq!(got, oracle_to_f32(h), "to_f32({h:#06x})");
        let v = oracle_value(h);
        if !v.is_nan() {
            assert_eq!(F16::from_bits(h).to_f64(), v, "to_f64({h:#06x})");
        }
    }
}

#[test]
fn from_f32_matches_the_oracle_at_every_value_midpoint_and_neighbour() {
    let mut inputs = Vec::new();
    for h in 0..0x7C00u16 {
        let v = oracle_value(h);
        let next = if h == 0x7BFF {
            65536.0
        } else {
            oracle_value(h + 1)
        };
        let mid = (v + next) / 2.0;
        // Values and midpoints are exact in f32 (12 significant bits).
        assert_eq!(f64::from(v as f32), v);
        assert_eq!(f64::from(mid as f32), mid);
        for x in [v as f32, mid as f32] {
            for y in [x, -x] {
                inputs.push(y);
                inputs.push(f32::from_bits(y.to_bits() + 1));
                if y.to_bits() & 0x7FFF_FFFF != 0 {
                    inputs.push(f32::from_bits(y.to_bits() - 1));
                }
            }
        }
    }
    for x in inputs {
        check_from_f32(x);
    }
}

#[test]
fn from_f32_edges_match_the_oracle() {
    let ulp = |x: f32, d: i32| f32::from_bits((x.to_bits() as i64 + i64::from(d)) as u32);
    let mut edges = vec![
        65504.0,
        65519.0,
        65520.0,
        65536.0,
        1e9,
        f32::MAX,
        f32::INFINITY,
        // The subnormal edges: smallest subnormal, half of it, the
        // largest subnormal and the smallest normal.
        5.960_464_5e-8,
        2.980_232_2e-8,
        6.097_555e-5,
        6.103_515_6e-5,
        f32::MIN_POSITIVE,
        f32::from_bits(1),
        0.0,
    ];
    for x in edges.clone() {
        for d in [-2, -1, 1, 2] {
            if x.is_finite() && x > 0.0 {
                edges.push(ulp(x, d));
            }
        }
    }
    for x in edges {
        check_from_f32(x);
        check_from_f32(-x);
    }
    assert_eq!(F16::from_f32(65519.996).to_bits(), 0x7BFF);
    assert_eq!(F16::from_f32(65520.0).to_bits(), 0x7C00);
}

#[test]
fn nans_keep_sign_and_payload_and_are_quieted() {
    for payload in [
        1u32, 0x2000, 0x1FFF, 0x3F_E000, 0x40_0000, 0x7F_FFFF, 0x15_5555,
    ] {
        for sign in [0u32, 0x8000_0000] {
            let x = f32::from_bits(sign | 0x7F80_0000 | payload);
            check_from_f32(x);
            assert!(F16::from_f32(x).is_nan());
        }
    }
    // An identity cast through f32 quiets a signalling f16 NaN.
    assert_eq!(
        F16::from_f32(F16::from_bits(0x7C01).to_f32()).to_bits(),
        0x7E01
    );
    assert_eq!(
        F16::from_f32(F16::from_bits(0xFD55).to_f32()).to_bits(),
        0xFF55
    );
}

#[test]
fn from_f64_rounds_through_f32() {
    // 1 + 2^-11 + 2^-40 rounds up in one step to f16, but to 1 + 2^-11
    // in f32 first, a tie that then rounds to even: 1.0.
    let x = 1.0 + pow2(-11) + pow2(-40);
    assert_eq!(F16::from_f64(x), F16::ONE);
    for x in [
        0.1,
        -2.5e-8,
        65519.99,
        1e300,
        -1e-300,
        f64::NAN,
        f64::INFINITY,
    ] {
        assert_eq!(F16::from_f64(x).to_bits(), oracle_from_f32(x as f32));
    }
}

#[test]
#[ignore = "exhaustive over 2^32 inputs; run in release"]
fn from_f32_matches_the_oracle_for_every_f32() {
    // Two workers, each over half of the bit patterns.
    std::thread::scope(|scope| {
        for half in 0..2u64 {
            scope.spawn(move || {
                for bits in (half << 31)..((half + 1) << 31) {
                    check_from_f32(f32::from_bits(bits as u32));
                }
            });
        }
    });
}
