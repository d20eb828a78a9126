//! Portable `log2` / `exp2` approximations for the REL quantizer.
//!
//! The REL quantizer works in logarithmic space, but libm `log()`/`pow()`
//! are *not* guaranteed to produce identical bits on different devices
//! (paper §III-C). These replacements use only IEEE-754 addition,
//! subtraction, multiplication, division, truncation to an integral value,
//! comparisons, and integer bit manipulation — every one of which is
//! correctly rounded (or exact) and therefore bit-deterministic on any
//! conforming implementation. They are *accurate*
//! (≈1 e-14 relative) but not correctly rounded; the quantizer's
//! verify-then-fallback step absorbs the residual inaccuracy, exactly as the
//! paper describes ("these approximations introduce small inaccuracies …
//! the immediate verification catches the problem").
//!
//! Both functions always compute in `f64`, even for `f32` data, so the
//! single-precision REL path loses essentially nothing to the approximation.
//!
//! **One body, mapped over lanes.** Each function is one branch-free body:
//! the denormal ×2^64 prescale, the `m > √2` reduction and the round-away
//! split are selects, and the Horner chains are fully unrolled. The lane
//! forms [`log2_lanes`] and [`exp2_lanes`] map that same body over
//! [`LANES`] values, which the compiler auto-vectorizes; every lane still
//! performs the scalar IEEE operations in the scalar order (Rust never
//! contracts `a * b + c` into an FMA), so the lane results are bit-identical
//! to [`log2`] / [`exp2`] by construction. Only `exp2` keeps a scalar tail:
//! results outside the normal range go through the two-step scaling of
//! `scale_by_pow2`, which the lane form re-runs per lane. The REL
//! quantizer calls the lane forms in a pass of their own over each block
//! of values, and both are `#[inline(always)]` so that each pass compiles
//! to one loop: with plain `#[inline]`, a thin-LTO `native` build kept
//! `exp2_lanes` as an out-of-line call taking and returning its arrays by
//! value, and REL f64 `decode_slice` ran about 10 % slower (1.11–1.26
//! against 1.20–1.31 GB/s, 32 Ki smooth values, 2-vCPU AVX-512 Xeon).

const MANT_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;
const EXP_BIAS: i32 = 1023;

/// `2^52 + 1023`: see [`pow2`].
const POW2_MAGIC: f64 = (1u64 << 52) as f64 + 1023.0;

/// Values per lane group of [`log2_lanes`] / [`exp2_lanes`].
pub const LANES: usize = 8;

/// ln(2), used by the `exp2` Taylor series.
const LN2: f64 = std::f64::consts::LN_2;
/// 2/ln(2): converts the `atanh` series for `ln` into `log2`.
const TWO_OVER_LN2: f64 = 2.0 / LN2;
/// √2 threshold for the final log range reduction (the exact value is not
/// load-bearing — any fixed constant near √2 merely balances the reduction).
const SQRT2: f64 = std::f64::consts::SQRT_2;
/// 2^64: exact prescale that lifts a denormal into the normal range.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// Base-2 logarithm of a positive, finite `f64`.
///
/// # Panics (debug only)
/// Debug-asserts that `x` is finite and positive; callers (the REL
/// quantizer) filter zeros, NaNs, and infinities first.
#[inline(always)]
pub fn log2(x: f64) -> f64 {
    debug_assert!(x > 0.0 && x.is_finite(), "log2 domain: {x}");
    // Denormal: scale by 2^64 (exact) into the normal range. The product is
    // formed for every input and selected, so the body has no branch.
    let denormal = x.to_bits() & (0x7FF << 52) == 0;
    let bits = if denormal {
        (x * TWO_POW_64).to_bits()
    } else {
        x.to_bits()
    };
    let e = ((bits >> 52) & 0x7FF) as i32 - EXP_BIAS - if denormal { 64 } else { 0 };
    // m in [1, 2)
    let m = f64::from_bits((bits & MANT_MASK) | ((EXP_BIAS as u64) << 52));
    // Reduce to [~0.707, ~1.414] so the atanh argument stays small.
    let big = m > SQRT2;
    let m = if big { m * 0.5 } else { m };
    let e = e + big as i32;
    // log2(m) = (2/ln2) * atanh(z) with z = (m-1)/(m+1), |z| <= 0.172.
    let z = (m - 1.0) / (m + 1.0);
    let z2 = z * z;
    // Horner over odd terms z^(2k+1)/(2k+1), k = 0..=8.
    let p = TWO_OVER_LN2 / 17.0;
    let p = p * z2 + TWO_OVER_LN2 / 15.0;
    let p = p * z2 + TWO_OVER_LN2 / 13.0;
    let p = p * z2 + TWO_OVER_LN2 / 11.0;
    let p = p * z2 + TWO_OVER_LN2 / 9.0;
    let p = p * z2 + TWO_OVER_LN2 / 7.0;
    let p = p * z2 + TWO_OVER_LN2 / 5.0;
    let p = p * z2 + TWO_OVER_LN2 / 3.0;
    let p = p * z2 + TWO_OVER_LN2;
    e as f64 + p * z
}

/// [`log2`] of each lane, bit-identical to the scalar function.
#[inline(always)]
pub fn log2_lanes(x: [f64; LANES]) -> [f64; LANES] {
    x.map(log2)
}

/// 2 raised to a finite `f64` power, with overflow to `inf` and underflow
/// toward zero (gradual, through the denormal range).
pub fn exp2(y: f64) -> f64 {
    debug_assert!(!y.is_nan(), "exp2 domain: NaN");
    if y >= 1025.0 {
        return f64::INFINITY;
    }
    if y <= -1080.0 {
        return 0.0;
    }
    let (frac, k) = exp2_split(y);
    scale_by_pow2(frac, k)
}

/// [`exp2`] of each lane, bit-identical to the scalar function.
///
/// Every lane runs the shared body and the normal-range scaling in-lane;
/// lanes whose `k` leaves `-1022..=1023` re-run the scalar [`exp2`]. That
/// test also catches both cut-offs: an in-range `k` means
/// `-1022.5 <= y < 1023.5`.
#[inline(always)]
pub fn exp2_lanes(y: [f64; LANES]) -> [f64; LANES] {
    let mut out = [0.0; LANES];
    let mut ks = [0.0; LANES];
    // One flag for the group, not one per lane: the common all-normal case
    // then costs a single vector compare-and-reduce.
    let mut normal = true;
    for ((o, ko), &y) in out.iter_mut().zip(&mut ks).zip(&y) {
        let (frac, k) = exp2_split(y);
        *ko = k;
        normal &= (-1022.0..=1023.0).contains(&k);
        *o = frac * pow2(k.clamp(-1022.0, 1023.0));
    }
    if !normal {
        for ((o, k), &y) in out.iter_mut().zip(&ks).zip(&y) {
            if !(-1022.0..=1023.0).contains(k) {
                *o = exp2(y);
            }
        }
    }
    out
}

/// The shared `exp2` body: split `y = k + f` and return `(2^f, k)`, with
/// the integral `k` as an `f64`.
#[inline(always)]
fn exp2_split(y: f64) -> (f64, f64) {
    // Round half away from zero; `|f| <= 0.5`. The subtraction is exact
    // (Sterbenz) because k is within half a unit of y. `y - 0.5` and
    // `y + (-0.5)` are the same IEEE operation, so the select keeps the
    // body branch-free, and the exact `trunc` stands in for a saturating
    // float→int cast, which does not vectorize.
    let k = (y + if y >= 0.0 { 0.5 } else { -0.5 }).trunc();
    let f = y - k;
    // 2^f = e^(f ln2), Taylor to x^14 (|x| <= 0.347 → error ~1e-17),
    // Horner over precomputed reciprocal factorials.
    let x = f * LN2;
    let p = INV_FACT[14];
    let p = p * x + INV_FACT[13];
    let p = p * x + INV_FACT[12];
    let p = p * x + INV_FACT[11];
    let p = p * x + INV_FACT[10];
    let p = p * x + INV_FACT[9];
    let p = p * x + INV_FACT[8];
    let p = p * x + INV_FACT[7];
    let p = p * x + INV_FACT[6];
    let p = p * x + INV_FACT[5];
    let p = p * x + INV_FACT[4];
    let p = p * x + INV_FACT[3];
    let p = p * x + INV_FACT[2];
    let p = p * x + INV_FACT[1];
    (p * x + 1.0, k)
}

/// 1/k! for k = 0..=14 (compile-time constants; only IEEE divisions).
const INV_FACT: [f64; 15] = {
    let mut f = [1.0f64; 15];
    let mut k = 2;
    let mut fact = 1.0f64;
    while k <= 14 {
        fact *= k as f64;
        f[k] = 1.0 / fact;
        k += 1;
    }
    // f[0] = 1/0! and f[1] = 1/1! are the initial 1.0.
    f
};

/// `2^e` for an integral `e` in `-1022..=1023`, built from the exponent
/// field: adding `2^52 + 1023` places the biased exponent in the low
/// mantissa bits, exactly, without a float→int cast.
#[inline(always)]
fn pow2(e: f64) -> f64 {
    f64::from_bits((e + POW2_MAGIC).to_bits() << 52)
}

/// `v * 2^e` for an integral `e`; handles the denormal and overflow
/// regions by splitting the scale into two normal-range factors.
fn scale_by_pow2(v: f64, e: f64) -> f64 {
    if (-1022.0..=1023.0).contains(&e) {
        v * pow2(e)
    } else if e > 1023.0 {
        let second = (e - 1023.0).min(1023.0);
        v * pow2(1023.0) * pow2(second)
    } else {
        // e < -1022: go through a partial scale so the final (possibly
        // denormalizing) multiplication is a single correctly-rounded step.
        let second = (e + 1022.0).max(-1022.0);
        v * pow2(-1022.0) * pow2(second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn log2_exact_powers() {
        for e in -1022..=1023i32 {
            let x = 2f64.powi(e);
            let l = log2(x);
            assert!((l - e as f64).abs() < 1e-12, "log2(2^{e}) = {l}");
        }
    }

    #[test]
    fn log2_matches_std() {
        for &x in &[1.5, 3.0, 0.1, 1e-30, 1e30, 7.25, 1.0000001, 0.9999999] {
            let got = log2(x);
            let want = x.log2();
            assert!(
                (got - want).abs() <= 1e-12 * want.abs().max(1.0),
                "log2({x}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn log2_denormals() {
        let x = f64::from_bits(1); // smallest positive denormal = 2^-1074
        assert!((log2(x) + 1074.0).abs() < 1e-9);
        let x = f64::MIN_POSITIVE / 2.0;
        assert!((log2(x) + 1023.0).abs() < 1e-9);
    }

    #[test]
    fn exp2_exact_integers() {
        for e in -1022..=1023i64 {
            let got = exp2(e as f64);
            let want = f64::from_bits(((e + 1023) as u64) << 52);
            assert_eq!(got, want, "exp2({e})");
        }
    }

    #[test]
    fn exp2_matches_std() {
        for &y in &[0.5, -0.5, 1.25, -3.75, 10.1, -10.1, 100.001, -300.7] {
            let got = exp2(y);
            let want = y.exp2();
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-13, "exp2({y}): got {got}, want {want}, rel {rel}");
        }
    }

    #[test]
    fn exp2_extremes() {
        assert_eq!(exp2(1100.0), f64::INFINITY);
        assert_eq!(exp2(-1200.0), 0.0);
        // Denormal outputs still roughly correct.
        let got = exp2(-1060.0);
        assert!(got > 0.0 && got < f64::MIN_POSITIVE);
    }

    #[test]
    fn roundtrip_near_identity() {
        for &x in &[1e-300, 1e-10, 0.5, 1.0, 3.7, 1e10, 1e300] {
            let y = exp2(log2(x));
            let rel = ((y - x) / x).abs();
            assert!(rel < 1e-12, "roundtrip {x}: {y} (rel {rel})");
        }
    }

    fn assert_log2_lanes(x: [f64; LANES]) {
        let got = log2_lanes(x);
        for (g, &x) in got.iter().zip(&x) {
            assert_eq!(g.to_bits(), log2(x).to_bits(), "log2_lanes({x:e})");
        }
    }

    fn assert_exp2_lanes(y: [f64; LANES]) {
        let got = exp2_lanes(y);
        for (g, &y) in got.iter().zip(&y) {
            assert_eq!(g.to_bits(), exp2(y).to_bits(), "exp2_lanes({y:e})");
        }
    }

    /// The lane forms run the scalar body: bit-identical over every
    /// exponent field with random mantissas, which covers the denormal
    /// prescale (`log2`) and both `exp2` cut-offs and its scalar tail.
    #[test]
    fn lanes_match_scalar_bit_for_bit() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1a9e5);
        for exp in 0u64..=2046 {
            for _ in 0..4 {
                let x: [f64; LANES] = std::array::from_fn(|_| {
                    // A zero mantissa under a zero exponent would be 0.0.
                    let mant = (rng.gen::<u64>() & MANT_MASK).max((exp == 0) as u64);
                    f64::from_bits(exp << 52 | mant)
                });
                assert_log2_lanes(x);
                let signs: [bool; LANES] = std::array::from_fn(|_| rng.gen());
                assert_exp2_lanes(std::array::from_fn(|i| if signs[i] { -x[i] } else { x[i] }));
            }
        }
        // The `m > √2` reduction, one ulp either side, at several exponents.
        for scale in [1.0, 2.0f64.powi(-700), 2.0f64.powi(600), 2.0f64.powi(-1070)] {
            let s = (SQRT2 * scale).to_bits();
            assert_log2_lanes(std::array::from_fn(|i| f64::from_bits(s + i as u64 - 4)));
        }
        // Round-away ties and the edges of the in-lane normal range.
        for base in [
            0.0, 0.5, -0.5, -1022.5, -1023.0, -1075.0, -1080.0, 1023.5, 1025.0,
        ] {
            assert_exp2_lanes(std::array::from_fn(|i| base + (i as f64 - 4.0) * 0.125));
            // One ulp apart around `base` (around +0.0: the smallest denormals).
            let b = base.to_bits().max(4);
            assert_exp2_lanes(std::array::from_fn(|i| f64::from_bits(b + i as u64 - 4)));
        }
    }

    proptest! {
        #[test]
        fn log2_accuracy_random(sig in 1.0f64..2.0, e in -1000i32..1000) {
            let x = sig * 2f64.powi(e);
            let got = log2(x);
            let want = x.log2();
            prop_assert!((got - want).abs() <= 1e-11 * want.abs().max(1.0));
        }

        #[test]
        fn exp2_accuracy_random(y in -1000.0f64..1000.0) {
            let got = exp2(y);
            let want = y.exp2();
            let rel = ((got - want) / want).abs();
            prop_assert!(rel < 1e-12, "exp2({}): rel {}", y, rel);
        }
    }
}
