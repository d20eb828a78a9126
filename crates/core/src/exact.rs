//! Exact error-bound verification via error-free transformations.
//!
//! The paper's central observation (§I, §III-B) is that *other* compressors
//! violate their bounds because finite-precision arithmetic mis-rounds near
//! the boundary. PFPL re-decodes every value and checks it against the
//! bound — but a naive float check (`(v - r).abs() <= eb`) can itself
//! mis-round: the subtraction may round *down* onto `eb` when the true
//! difference is above it. This module makes the check itself exact:
//!
//! * [`two_sum`] — Knuth's branch-free 6-operation transformation:
//!   `s + e == a + b` exactly, with `s = fl(a + b)`.
//! * [`two_prod`] — Dekker/Veltkamp splitting (no FMA, per §III-C):
//!   `p + e == a * b` exactly in the absence of overflow/underflow.
//!
//! Comparisons of such double-double values against the bound are decided
//! exactly whenever the magnitudes are in the wide "safe" range, and fall
//! back to *conservative rejection* (→ lossless storage of the value, which
//! is always correct) in the pathological overflow/underflow regimes.
//!
//! Everything here uses only IEEE add/sub/mul — bit-deterministic across
//! devices. [`check_bound`] applies these checks to a whole decode: it is
//! the one per-value verdict the CLI's `verify -i` and the fuzz oracle use.

use crate::container::Header;
use crate::float::{bound_toward_zero, PfplFloat, Word};
use crate::types::ErrorBound;

/// Exact sum: returns `(s, e)` with `s = fl(a+b)` and `s + e = a + b`
/// exactly (absent overflow). Knuth's TwoSum, branch-free.
#[inline(always)]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Veltkamp split of `a` into `hi + lo` with 26/27-bit halves.
#[inline(always)]
fn split(a: f64) -> (f64, f64) {
    const SPLITTER: f64 = 134_217_729.0; // 2^27 + 1
    let c = SPLITTER * a;
    let hi = c - (c - a);
    let lo = a - hi;
    (hi, lo)
}

/// Exact product without FMA: returns `(p, e)` with `p = fl(a*b)` and
/// `p + e = a * b` exactly, provided no overflow occurs in the splitting
/// and the product is not denormal. Callers guard those regimes.
#[inline(always)]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let (ah, al) = split(a);
    let (bh, bl) = split(b);
    let e = ((ah * bh - p) + ah * bl + al * bh) + al * bl;
    (p, e)
}

/// Exactly decide `|s + e| <= eb` for a normalized TwoSum pair
/// (`|e| <= ulp(s)/2`) and a finite non-negative `eb`.
#[inline]
fn dd_abs_le(s: f64, e: f64, eb: f64) -> bool {
    if s.is_nan() || s.is_infinite() {
        // NaN: undecidable → reject. Infinite: the true difference exceeds
        // the largest finite value, hence any finite bound.
        return false;
    }
    let a = if s < 0.0 { -s } else { s };
    if a < eb {
        // |e| <= ulp(s)/2 < (eb - |s|), so the exact value cannot cross eb.
        true
    } else if a > eb {
        false
    } else {
        // |s| == eb: the residual's sign decides exactly.
        if s >= 0.0 {
            e <= 0.0
        } else {
            e >= 0.0
        }
    }
}

/// Exactly decide `ls + le <= rs + re` for two normalized TwoSum/TwoProd
/// pairs. When the high parts differ the answer follows from them alone
/// (the residuals are below the gap); on ties the residuals decide.
#[inline]
fn dd_le(ls: f64, le: f64, rs: f64, re: f64) -> bool {
    if ls.is_nan() || rs.is_nan() {
        return false;
    }
    if ls < rs {
        true
    } else if ls > rs {
        false
    } else {
        le <= re
    }
}

/// Exact check `|v - r| <= eb` (the ABS/NOA guarantee) for finite `v`, `r`
/// and a finite `eb >= 0`. Conservative (rejects) only when the difference
/// overflows, in which case the true difference exceeds every finite bound
/// anyway.
pub fn abs_within_f64(v: f64, r: f64, eb: f64) -> bool {
    debug_assert!(eb >= 0.0 && eb.is_finite());
    let (s, e) = two_sum(v, -r);
    dd_abs_le(s, e, eb)
}

/// Exact check `|v - r| <= eb` where `v`, `r`, `eb` originate as `f32`.
///
/// The promotions to `f64` are exact and TwoSum stays exact in `f64`, so
/// this decides the single-precision ABS guarantee exactly.
pub fn abs_within_f32(v: f32, r: f32, eb: f32) -> bool {
    abs_within_f64(v as f64, r as f64, eb as f64)
}

/// Magnitudes below this are rescaled before TwoProd so the Dekker residual
/// cannot be contaminated by denormal underflow.
const TINY: f64 = 3.054936363499605e-151; // 2^-500
/// Exact scale factor 2^600 (power-of-two multiplications are exact in the
/// ranges we use them).
const SCALE_UP: f64 = 4.149515568880993e180; // 2^600
/// 2^500: REL magnitudes above this are rescaled before verification
/// (see [`check_bound`]).
const HUGE_MAG: f64 = 3.273390607896142e150;
/// Exact scale factor 2^-600.
const SCALE_DOWN: f64 = 2.409919865102884e-181;
/// TwoProd results above this may have suffered overflow inside the split.
const HUGE: f64 = 1e290;
/// TwoProd results below this (after rescue scaling) risk denormal residuals.
const RISKY_LOW: f64 = 1e-290;

/// Exact check of the REL guarantee `|v - r| <= eb * |v|` on *magnitudes*
/// `a = |v|`, `b = |r|` (the caller verifies matching signs separately).
///
/// Exact in the safe range; conservative (accepts only exact equality or
/// rejects) in the extreme overflow/underflow regimes, which can only cause
/// an unnecessary lossless fallback — never a bound violation.
pub fn rel_within_mag_f64(a: f64, b: f64, eb: f64) -> bool {
    debug_assert!(a >= 0.0 && b >= 0.0 && eb >= 0.0 && eb.is_finite());
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    if a == b {
        return true;
    }
    let (a, b) = if a < TINY {
        let (sa, sb) = (a * SCALE_UP, b * SCALE_UP);
        if !sb.is_finite() {
            // b is astronomically larger than a; the ratio check cannot pass
            // for any sane eb, and eb large enough to make it pass is in the
            // pathological regime → conservative reject.
            return false;
        }
        (sa, sb)
    } else {
        (a, b)
    };
    let (ds, de) = two_sum(a, -b);
    let (ps, pe) = two_prod(eb, a);
    if !ps.is_finite() {
        // The bound itself overflows: any finite difference is within it.
        return ds.is_finite();
    }
    if ps > HUGE || (ps != 0.0 && ps < RISKY_LOW) {
        // Residual terms may be unreliable here; decide with a crude but
        // safe margin (a factor-of-2 guard dwarfs any rounding error).
        let d = if ds < 0.0 { -ds } else { ds };
        return d <= ps * 0.5;
    }
    // |ds + de| <= ps + pe, exactly.
    let (ls, le) = if ds < 0.0 { (-ds, -de) } else { (ds, de) };
    dd_le(ls, le, ps, pe)
}

/// Exact REL check for magnitudes originating as `f32`.
///
/// All promotions are exact, and `eb * a` is *exact* in `f64` (24-bit × 24-bit
/// significands), so this path needs no TwoProd rescue at all.
pub fn rel_within_mag_f32(a: f32, b: f32, eb: f32) -> bool {
    let (a, b, eb) = (a as f64, b as f64, eb as f64);
    if !a.is_finite() || !b.is_finite() {
        return false;
    }
    let (ds, de) = two_sum(a, -b);
    let bound = eb * a; // exact
    dd_abs_le(ds, de, bound)
}

/// Exactly decide `c <= eb * (hi - lo)`: is `c` within NOA's bound `eb`
/// times the range of values spanning `lo..=hi`? For finite `c >= 0`,
/// finite `eb > 0` and finite `lo <= hi`; exact over that whole domain.
///
/// `hi - lo` is split exactly into `s + e` ([`two_sum`]; both ends are
/// halved first if it overflows, which is then exact). Power-of-two
/// scaling, exact here, moves `eb` and `s` into `[1, 2)`, so both
/// [`two_prod`]s stay in range. A scaled `c` outside `[0.25, 8)` is
/// decided by magnitude alone; inside it, the exact difference of `c` and
/// `eb * s` is 0 or at least 2^-104, so an `eb * e` below 2^-899 only
/// decides ties, by its sign.
pub fn noa_within(c: f64, eb: f64, lo: f64, hi: f64) -> bool {
    debug_assert!(c >= 0.0 && c.is_finite() && eb > 0.0 && eb.is_finite() && lo <= hi);
    if c == 0.0 {
        return true;
    }
    if lo == hi {
        return false;
    }
    let (s, e, halved) = if (hi - lo).is_finite() {
        let (s, e) = two_sum(hi, -lo);
        (s, e, 0)
    } else {
        let (s, e) = two_sum(hi * 0.5, -lo * 0.5);
        (s, e, 1)
    };
    let (je, js) = (exponent(eb), exponent(s));
    // c <= eb * (s + e)  <=>  c' <= eb' * (s' + e') with eb', s' in [1, 2),
    // |e'| <= 2^-53 and c' = c * 2^-k: the right side lies in (0.99, 4.01).
    let k = je + js + halved;
    match exponent(c) - k {
        kc if kc >= 3 => return false,
        kc if kc <= -3 => return true,
        _ => {}
    }
    let eb = scale(eb, -je);
    let (p, pe) = two_prod(eb, scale(s, -js));
    let (q, qe) = if e == 0.0 {
        (0.0, 0.0)
    } else if exponent(e) - js < -900 {
        (TIE_BREAK.copysign(e), 0.0)
    } else {
        two_prod(eb, scale(e, -js))
    };
    sum_sign([scale(c, -k), -p, -pe, -q, -qe]) <= 0.0
}

/// 2^-900: stands in for a residual product too small to matter except
/// as a tie-breaker (see [`noa_within`]).
const TIE_BREAK: f64 = 1.183_052_186_166_774_7e-271;

/// `floor(log2 |x|)` for finite nonzero `x`, subnormals included.
fn exponent(x: f64) -> i32 {
    let bits = x.to_bits() & !(1u64 << 63);
    match (bits >> 52) as i32 {
        0 => -1011 - bits.leading_zeros() as i32,
        biased => biased - 1023,
    }
}

/// `x * 2^k`, in steps that keep every intermediate between `x` and the
/// result: exact whenever the result is normal.
fn scale(mut x: f64, mut k: i32) -> f64 {
    while k != 0 {
        let step = k.clamp(-1000, 1000);
        x *= f64::from_bits(((1023 + step) as u64) << 52);
        k -= step;
    }
    x
}

/// The sign of the exact sum of `terms` (as a signed float, or 0). Each
/// term is grown into a non-overlapping expansion with [`two_sum`]
/// (Shewchuk's Grow-Expansion); the largest nonzero component of such an
/// expansion carries its sign. Exact unless a partial sum overflows.
fn sum_sign<const N: usize>(terms: [f64; N]) -> f64 {
    let mut parts = [0.0; N];
    for (n, &t) in terms.iter().enumerate() {
        let mut q = t;
        for part in &mut parts[..n] {
            (q, *part) = two_sum(q, *part);
        }
        parts[n] = q;
    }
    parts.into_iter().rev().find(|&x| x != 0.0).unwrap_or(0.0)
}

/// The per-value guarantee, decided exactly: does `got` reconstruct `orig`
/// within `bound`, for an archive whose header is `header`?
///
/// * bit-identical values pass;
/// * a NaN must come back as the same NaN, except that REL returns a
///   negative NaN as its positive twin (REL bins live in the negative-NaN
///   range);
/// * other non-finite values must come back bit-identical;
/// * ABS and NOA: `|v - r| <= eb` ([`PfplFloat::abs_within`]);
/// * REL: the same sign and `|v - r| <= eb * |v|` on magnitudes
///   ([`PfplFloat::rel_within_mag`], after an exact rescale when `|v|`
///   exceeds 2^500, where that check turns conservative).
///
/// `eb` is the header's derived bound, the one the quantizer enforced. For
/// ABS and REL a derived bound looser than the requested bound rounded
/// toward zero into `F` is itself a failure; for NOA, one above the
/// requested bound times the range `max - min` of `orig`'s finite values
/// ([`noa_within`]). Every derived bound must be finite and non-negative.
/// The error names the first violating value.
///
/// The verdict is exact for every ABS and NOA bound and for every REL
/// bound up to 1e100; above that a REL value within the bound may be
/// reported as a violation, never the other way round.
pub fn check_bound<F: PfplFloat>(
    bound: ErrorBound,
    header: &Header,
    orig: &[F],
    got: &[F],
) -> Result<(), String> {
    let derived = header.derived_bound;
    let within = derived.is_finite()
        && derived >= 0.0
        && match bound {
            ErrorBound::Abs(user) | ErrorBound::Rel(user) => {
                derived <= bound_toward_zero::<F>(user).to_f64()
            }
            ErrorBound::Noa(user) => {
                let finite = orig.iter().map(|v| v.to_f64()).filter(|v| v.is_finite());
                let (lo, hi) = finite.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(v), hi.max(v))
                });
                derived == 0.0
                    || (user > 0.0
                        && user.is_finite()
                        && lo <= hi
                        && noa_within(derived, user, lo, hi))
            }
        };
    if header.kind != bound.kind() || !within {
        return Err(format!(
            "header {} bound {derived} is not within the requested {bound:?}",
            header.kind.name()
        ));
    }
    let eb = bound_toward_zero::<F>(derived);
    if orig.len() != got.len() {
        return Err(format!(
            "{} values decoded, {} compressed",
            got.len(),
            orig.len()
        ));
    }
    let sign = F::SIGN_MASK.to_u64();
    for (i, (&v, &r)) in orig.iter().zip(got).enumerate() {
        let (vb, rb) = (v.to_bits().to_u64(), r.to_bits().to_u64());
        if vb == rb {
            continue;
        }
        let ok = if v.is_nan() {
            matches!(bound, ErrorBound::Rel(_)) && vb & sign != 0 && rb == vb & !sign
        } else if !v.is_finite() || !r.is_finite() {
            false
        } else {
            match bound {
                ErrorBound::Abs(_) | ErrorBound::Noa(_) => F::abs_within(v, r, eb),
                ErrorBound::Rel(_) => {
                    v.is_sign_negative() == r.is_sign_negative()
                        && rel_within_scaled(v.abs(), r.abs(), eb)
                }
            }
        };
        if !ok {
            return Err(format!("value {i}: {v:?} decoded as {r:?}, bound {eb:?}"));
        }
    }
    Ok(())
}

/// [`PfplFloat::rel_within_mag`], exact for magnitudes `a` above 2^500
/// too. There `eb * a` nears the range where the Dekker split overflows,
/// so the check rejects conservatively — right for the quantizer (the
/// value is stored losslessly) but wrong for a verifier. Scaling both
/// magnitudes by 2^-600 is exact, except that a `b` below 2^-422 may round;
/// then `b < a * 2^-922`, and the verdict (`eb >= 1`) is the same for
/// every such `b`. Only `f64` reaches the scaled branch.
fn rel_within_scaled<F: PfplFloat>(a: F, b: F, eb: F) -> bool {
    if a.to_f64() > HUGE_MAG {
        let (a, b) = (a.to_f64() * SCALE_DOWN, b.to_f64() * SCALE_DOWN);
        rel_within_mag_f64(a, b, eb.to_f64())
    } else {
        F::rel_within_mag(a, b, eb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Precision;
    use proptest::prelude::*;

    #[test]
    fn two_sum_exactness() {
        let (s, e) = two_sum(1e16, 1.0);
        assert_eq!(s, 1e16); // 1 is absorbed
        assert_eq!(e, 1.0); // ... and recovered exactly
        let (s, e) = two_sum(0.1, 0.2);
        // s + e reproduces the exact real sum of the two representable values
        assert_eq!(s, 0.1 + 0.2);
        assert!(e.abs() <= f64::EPSILON * s.abs());
    }

    #[test]
    fn two_prod_exactness() {
        let a = 1.0 + f64::EPSILON;
        let b = 1.0 - f64::EPSILON;
        let (p, e) = two_prod(a, b);
        // a*b = 1 - eps^2 exactly; p rounds to 1.0 - eps... check identity
        // p + e == a*b via 128-bit integer mantissa arithmetic.
        let exact = mul_exact_check(a, b, p, e);
        assert!(exact, "p={p:e} e={e:e}");
    }

    /// Verify p + e == a*b exactly using integer arithmetic (valid when all
    /// exponents are close, which the chosen test values guarantee).
    fn mul_exact_check(a: f64, b: f64, p: f64, e: f64) -> bool {
        let to_int = |x: f64, scale: i32| -> i128 {
            let y = x * 2f64.powi(scale);
            assert_eq!(y.fract(), 0.0, "scaling must be exact");
            y as i128
        };
        // a, b near 1.0: 52 fraction bits each.
        let ai = to_int(a, 52);
        let bi = to_int(b, 52);
        let pi = to_int(p, 104);
        let ei = to_int(e, 104);
        ai * bi == pi + ei
    }

    #[test]
    fn abs_boundary_is_exact() {
        let eb = 0.001f64;
        // r = v - eb exactly representable? Use values where it is.
        let v = 1.0f64;
        let r = v - eb; // rounded; compute the true diff with two_sum
        let (s, e) = two_sum(v, -r);
        // Whatever the rounding, our check must agree with exact math.
        let exact_diff_le = {
            // v - r is exactly s + e; compare against eb by construction.
            if s.abs() != eb {
                s.abs() < eb
            } else if s >= 0.0 {
                e <= 0.0
            } else {
                e >= 0.0
            }
        };
        assert_eq!(abs_within_f64(v, r, eb), exact_diff_le);
    }

    #[test]
    fn abs_rejects_one_ulp_over() {
        // Construct v, r with v - r exactly eb, then nudge r one ulp down so
        // the true difference is one ulp above eb — must reject even though
        // the rounded difference may still equal eb.
        let eb = 1.0f64;
        let v = 1e16f64;
        let r = v - eb; // exact: both integers in f64 range
        assert!(abs_within_f64(v, r, eb));
        let r2 = f64::from_bits(r.to_bits() - 1); // further from v
                                                  // true diff = eb + ulp > eb
        assert!(!abs_within_f64(v, r2, eb));
        // Naive check would wrongly accept:
        assert!((v - r2).abs() <= eb + 2.0); // sanity that we're near boundary
    }

    #[test]
    fn abs_handles_infinities_and_nan() {
        assert!(!dd_abs_le(f64::INFINITY, 0.0, 1e300));
        assert!(!dd_abs_le(f64::NAN, 0.0, 1.0));
        // overflowing difference
        assert!(!abs_within_f64(f64::MAX, -f64::MAX, f64::MAX));
    }

    #[test]
    fn abs_zero_bound() {
        assert!(abs_within_f64(1.5, 1.5, 0.0));
        assert!(!abs_within_f64(1.5, 1.5000000000000002, 0.0));
        assert!(abs_within_f64(0.0, -0.0, 0.0));
    }

    #[test]
    fn rel_accepts_equal_and_within() {
        assert!(rel_within_mag_f64(1.0, 1.0, 0.0));
        assert!(rel_within_mag_f64(100.0, 100.0001, 1e-3));
        assert!(!rel_within_mag_f64(100.0, 101.0, 1e-3));
    }

    #[test]
    fn rel_boundary_one_ulp() {
        let a = 1.0f64;
        let eb = 0.125f64; // exactly representable
        let b = 1.125f64; // diff exactly 0.125 = eb * a
        assert!(rel_within_mag_f64(a, b, eb));
        let b2 = f64::from_bits(b.to_bits() + 1);
        assert!(!rel_within_mag_f64(a, b2, eb));
    }

    #[test]
    fn rel_tiny_values_scaled() {
        let a = f64::from_bits(3); // 3 * 2^-1074
        let b = f64::from_bits(3);
        assert!(rel_within_mag_f64(a, b, 1e-3));
        let b2 = f64::from_bits(4);
        // diff = 2^-1074, bound = 1e-3 * 3*2^-1074 < 2^-1074 → reject
        assert!(!rel_within_mag_f64(a, b2, 1e-3));
        let b3 = f64::from_bits(6);
        // diff = 3*2^-1074, bound with eb=1.0 = 3*2^-1074 → accept (equality)
        assert!(rel_within_mag_f64(a, b3, 1.0));
    }

    #[test]
    fn rel_f32_path_is_exact() {
        let a = 1.0f32;
        let eb = 0.25f32;
        let b = 1.25f32;
        assert!(rel_within_mag_f32(a, b, eb));
        let b2 = f32::from_bits(b.to_bits() + 1);
        assert!(!rel_within_mag_f32(a, b2, eb));
    }

    /// `check_bound` of one value pair under `bound`, with the header an
    /// honest encoder writes for it (one value has no range, so NOA is
    /// passthrough).
    fn check_one<F: PfplFloat>(bound: ErrorBound, v: F, r: F) -> Result<(), String> {
        let noa = matches!(bound, ErrorBound::Noa(_));
        let derived = if noa {
            0.0
        } else {
            bound_toward_zero::<F>(bound.value()).to_f64()
        };
        let header = Header::new(F::PRECISION, bound, derived, noa, 1).unwrap();
        check_bound(bound, &header, &[v], &[r])
    }

    #[test]
    fn check_bound_rejects_pairs_rounded_checks_accept() {
        let rel = ErrorBound::Rel(1e-3);
        // 0x1.d7f8188750097p+5 -> 0x1.d77f458f5e8c8p+5 passes
        // `((v - r) / v).abs() <= eb` in f64.
        let (v, r) = (
            f64::from_bits(0x404D_7F81_8875_0097),
            f64::from_bits(0x404D_77F4_58F5_E8C8),
        );
        assert!(((v - r) / v).abs() <= 1e-3);
        assert!(check_one(rel, v, r).is_err());
        // 0x1.f878e64f0e507p+5 -> 0x1.f7f7c136e9b12p+5 passes
        // `(v - r).abs() <= eb * v.abs()` in f64.
        let (v, r) = (
            f64::from_bits(0x404F_878E_64F0_E507),
            f64::from_bits(0x404F_7F7C_136E_9B12),
        );
        assert!((v - r).abs() <= 1e-3 * v.abs());
        assert!(check_one(rel, v, r).is_err());
        assert!(check_one(rel, v, v).is_ok());
    }

    #[test]
    fn check_bound_rel_is_exact_at_huge_magnitudes() {
        assert_eq!(HUGE_MAG * TINY, 1.0);
        assert_eq!(SCALE_DOWN * SCALE_UP, 1.0);
        // 6.366342220030589e300 -> 6.366342224900336e300 is within
        // REL 1e-9 (7.6e-10 relative), but `eb * a` is past the split's
        // safe range, so the quantizer's check rejects it.
        let (v, r) = (
            f64::from_bits(0x7E63_0341_BD28_CC20),
            f64::from_bits(0x7E63_0341_BD67_4292),
        );
        assert!(!rel_within_mag_f64(v, r, 1e-9));
        assert!(check_one(ErrorBound::Rel(1e-9), v, r).is_ok());
        assert!(check_one(ErrorBound::Rel(1e-10), v, r).is_err());
        assert!(check_one(ErrorBound::Rel(1e-9), -v, -r).is_ok());
        assert!(check_one(ErrorBound::Rel(1e-9), f64::MAX, f64::from_bits(1)).is_err());
        assert!(check_one(ErrorBound::Rel(1.0), f64::MAX, f64::from_bits(1)).is_ok());
    }

    #[test]
    fn check_bound_signed_zero() {
        let (rel, abs) = (ErrorBound::Rel(1e-3), ErrorBound::Abs(1e-3));
        assert!(check_one(rel, 0.0f32, 0.0).is_ok());
        assert!(check_one(rel, 0.0f32, -0.0).is_err());
        assert!(check_one(rel, -0.0f64, 0.0).is_err());
        assert!(check_one(abs, 0.0f32, -0.0).is_ok());
        assert!(check_one(abs, -0.0f64, 0.0).is_ok());
    }

    #[test]
    fn check_bound_nan_and_infinities() {
        let (rel, abs) = (ErrorBound::Rel(1e-3), ErrorBound::Abs(1e-3));
        let nan = f32::from_bits(0x7FC0_0001);
        let neg_nan = f32::from_bits(0xFFC0_0001);
        for b in [rel, abs, ErrorBound::Noa(1e-3)] {
            assert!(check_one(b, nan, nan).is_ok());
            assert!(check_one(b, nan, f32::from_bits(0x7FC0_0002)).is_err());
            assert!(check_one(b, nan, neg_nan).is_err());
            assert!(check_one(b, f32::INFINITY, f32::INFINITY).is_ok());
            assert!(check_one(b, f32::INFINITY, f32::MAX).is_err());
            assert!(check_one(b, f32::NEG_INFINITY, f32::INFINITY).is_err());
            assert!(check_one(b, 1.0, f32::INFINITY).is_err());
        }
        // Only REL may return a negative NaN as its positive twin.
        assert!(check_one(rel, neg_nan, nan).is_ok());
        assert!(check_one(abs, neg_nan, nan).is_err());
        let neg_nan64 = f64::from_bits(0xFFF8_0000_0000_0001);
        assert!(check_one(rel, neg_nan64, neg_nan64.abs()).is_ok());
        assert!(check_one(abs, neg_nan64, neg_nan64.abs()).is_err());
    }

    #[test]
    fn check_bound_header_and_lengths() {
        let abs = ErrorBound::Abs(1e-3);
        let honest = bound_toward_zero::<f32>(1e-3).to_f64();
        let loose = f32::from_bits(bound_toward_zero::<f32>(1e-3).to_bits() + 1).to_f64();
        let h = |b, d| Header::new(Precision::Single, b, d, false, 2).unwrap();
        let (v, r) = ([1.0f32, 2.0], [1.0005f32, 2.0]);
        assert!(check_bound(abs, &h(abs, honest), &v, &r).is_ok());
        assert!(check_bound(abs, &h(abs, loose), &v, &r).is_err());
        let rel = ErrorBound::Rel(1e-3);
        assert!(check_bound(rel, &h(rel, loose), &v, &v).is_err());
        assert!(check_bound(rel, &h(abs, honest), &v, &v).is_err());
        // NOA: the derived bound decides each value, and may not exceed the
        // requested bound times the finite values' range (1 here).
        let noa = ErrorBound::Noa(1e-3);
        assert!(check_bound(noa, &h(noa, 1e-3), &v, &r).is_ok());
        assert!(check_bound(noa, &h(noa, 1e-4), &v, &r).is_err());
        assert!(check_bound(noa, &h(noa, f64::NAN), &v, &v).is_err());
        let next = f64::from_bits(1e-3f64.to_bits() + 1);
        assert!(check_bound(noa, &h(noa, next), &v, &v).is_err());
        let with_inf = [1.0, f32::INFINITY];
        assert!(check_bound(noa, &h(noa, 1e-3), &with_inf, &with_inf).is_err());
        assert!(check_bound(noa, &h(noa, 0.0), &[f32::NAN; 2], &[f32::NAN; 2]).is_ok());
        let inf = ErrorBound::Abs(f64::INFINITY);
        assert!(check_bound(inf, &h(inf, f64::INFINITY), &v, &v).is_err());
        assert!(check_bound(abs, &h(abs, honest), &v, &r[..1]).is_err());
        let err = check_bound(abs, &h(abs, honest), &v, &[1.0, 2.1]).unwrap_err();
        assert!(err.starts_with("value 1:"), "{err}");
    }

    #[test]
    fn noa_within_is_exact_at_the_boundary() {
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        // The f32 case whose nearest-rounded bound 0.5 + 2^-24 exceeds
        // the exact 0.5 * (1 + 1.5 * 2^-24).
        let lo = -1.5 * 2f64.powi(-24);
        let exact = 0.5 + 0.75 * 2f64.powi(-24);
        assert!(noa_within(exact, 0.5, lo, 1.0));
        assert!(!noa_within(up(exact), 0.5, lo, 1.0));
        assert!(!noa_within(0.5 + 2f64.powi(-24), 0.5, lo, 1.0));
        // (eb, lo, hi, the largest f64 within eb * (hi - lo)), found with
        // exact rationals: huge and tiny bounds, a range that overflows
        // f64, subnormal ranges and products.
        let cases = [
            (1e300, 0.0, 1e-300, 0x3FF0_0000_0000_0000),
            (1e-300, -1e300, 1e300, 0x4000_0000_0000_0000),
            (3e-10, -1.7e308, 1.7e308, 0x7E03_7ED9_545A_7CA3),
            (0.7, 1.5e-323, 4.94e-321, 0x0000_0000_0000_02B9),
            (1e-3, -2.5e-310, 1e-305, 0x0007_30E2_4021_3B51),
            (123.456, -1e-200, 7e-201, 0x16E4_14C5_4445_BCE7),
            (1e-20, -6e299, 6.5e299, 0x7A16_093B_802D_578B),
        ];
        for (eb, lo, hi, last) in cases {
            let last = f64::from_bits(last);
            assert!(noa_within(last, eb, lo, hi), "{eb:e} {lo:e} {hi:e}");
            assert!(!noa_within(up(last), eb, lo, hi), "{eb:e} {lo:e} {hi:e}");
        }
        let below_half = f64::from_bits(0.5f64.to_bits() - 1);
        assert!(noa_within(f64::MAX, 0.5, -f64::MAX, f64::MAX));
        assert!(!noa_within(f64::MAX, below_half, -f64::MAX, f64::MAX));
        // A range so wide that `hi - lo` drops `lo`: only the residual's
        // sign decides the tie.
        assert!(noa_within(1e300, 1.0, -1e-300, 1e300));
        assert!(!noa_within(1e300, 1.0, 1e-300, 1e300));
        let tiny = f64::from_bits(1);
        assert!(noa_within(tiny, 1.0, 0.0, tiny) && !noa_within(up(tiny), 1.0, 0.0, tiny));
        assert!(noa_within(0.0, 1.0, 3.0, 3.0) && !noa_within(tiny, 1.0, 3.0, 3.0));
    }

    /// Reference exact ABS comparison by aligning mantissas in i128
    /// (valid when exponents are within ~60 of each other).
    fn ref_abs_within(v: f64, r: f64, eb: f64) -> Option<bool> {
        fn decomp(x: f64) -> (i128, i32) {
            let bits = x.to_bits();
            let sign = if bits >> 63 == 1 { -1i128 } else { 1 };
            let exp = ((bits >> 52) & 0x7FF) as i32;
            let mant = (bits & 0x000F_FFFF_FFFF_FFFF) as i128;
            if exp == 0 {
                (sign * mant, -1074)
            } else {
                (sign * (mant | (1 << 52)), exp - 1075)
            }
        }
        let (mv, ev) = decomp(v);
        let (mr, er) = decomp(r);
        let (me, ee) = decomp(eb);
        let emin = ev.min(er).min(ee);
        let (sv, sr, se) = (ev - emin, er - emin, ee - emin);
        if sv > 60 || sr > 60 || se > 60 {
            return None;
        }
        let diff = (mv << sv) - (mr << sr);
        Some(diff.abs() <= (me << se))
    }

    proptest! {
        #[test]
        fn abs_matches_integer_reference(
            mv in -(1i64<<53)..(1i64<<53),
            mr in -(1i64<<53)..(1i64<<53),
            me in 0i64..(1i64<<53),
            e1 in -30i32..30, e2 in -30i32..30, e3 in -40i32..0,
        ) {
            let v = mv as f64 * 2f64.powi(e1);
            let r = mr as f64 * 2f64.powi(e2);
            let eb = me as f64 * 2f64.powi(e3);
            if let Some(want) = ref_abs_within(v, r, eb) {
                prop_assert_eq!(abs_within_f64(v, r, eb), want,
                    "v={} r={} eb={}", v, r, eb);
            }
        }

        #[test]
        fn rel_never_accepts_violations_f32(v in prop::num::f32::NORMAL, scale in 0.5f32..2.0, eb in 1e-6f32..0.5) {
            let a = v.abs();
            let b = a * scale;
            let accepted = rel_within_mag_f32(a, b, eb);
            // Check against exact f64 arithmetic (all quantities exact in f64):
            let lhs = (a as f64 - b as f64).abs();
            let rhs = eb as f64 * a as f64;
            prop_assert_eq!(accepted, lhs <= rhs);
        }

        #[test]
        fn rel_check_matches_integer_reference_at_huge_magnitudes(
            ma in (1u64 << 52)..(1u64 << 53),
            xa in 900i32..971,
            me in 1u64..(1 << 20),
            xe in -45i32..-20,
            ulps in -4i64..5,
            above: bool,
        ) {
            // a = ma 2^xa, eb = me 2^xe, b = mb 2^xb.
            let a = ma as f64 * 2f64.powi(xa);
            let eb = me as f64 * 2f64.powi(xe);
            // `b` on the boundary `a * (1 ± eb)`, give or take a few ulps.
            let edge = if above { a + a * eb } else { a - a * eb };
            let b = f64::from_bits((edge.to_bits() as i64 + ulps) as u64);
            let mb = b.to_bits() & ((1 << 52) - 1) | 1 << 52;
            let xb = (b.to_bits() >> 52) as i32 - 1075;
            // |a - b| <= eb a in units of 2^(xe + xa): |ma 2^-xe - mb 2^(xb-xe-xa)| <= me ma.
            let shift_b = xb - xe - xa;
            prop_assume!((0..64).contains(&shift_b));
            let diff = ((ma as i128) << -xe) - ((mb as i128) << shift_b);
            let want = diff.unsigned_abs() <= me as u128 * ma as u128;
            let header = Header::new(Precision::Double, ErrorBound::Rel(eb), eb, false, 1).unwrap();
            prop_assert_eq!(check_bound(ErrorBound::Rel(eb), &header, &[a], &[b]).is_ok(), want,
                "a={:e} b={:e} eb={:e}", a, b, eb);
        }

        #[test]
        fn noa_within_matches_integer_reference(
            mb in 1i64..(1 << 24), ml in -(1i64 << 24)..(1 << 24), mh in -(1i64 << 24)..(1 << 24),
            xb in -40i32..8, xl in -20i32..20, xh in -20i32..20, ulps in -3i64..4,
        ) {
            // eb = mb 2^xb, lo/hi = ml 2^xl / mh 2^xh; c is the f64 nearest
            // eb * (hi - lo), give or take a few ulps. In units of 2^(xb + e0)
            // with e0 = min(xl, xh): c <= eb * (mh 2^(xh-e0) - ml 2^(xl-e0)).
            let (lo, hi) = (ml as f64 * 2f64.powi(xl), mh as f64 * 2f64.powi(xh));
            let (lo, hi, ml, mh, xl, xh) =
                if lo <= hi { (lo, hi, ml, mh, xl, xh) } else { (hi, lo, mh, ml, xh, xl) };
            let eb = mb as f64 * 2f64.powi(xb);
            let near = (eb * (hi - lo)).max(0.0);
            let c = f64::from_bits((near.to_bits() as i64 + ulps).max(0) as u64);
            prop_assume!(c == 0.0 || c >= f64::MIN_POSITIVE);
            let e0 = xl.min(xh);
            let range = ((mh as i128) << (xh - e0)) - ((ml as i128) << (xl - e0));
            let x = mb as i128 * range;
            let mc = (c.to_bits() & ((1 << 52) - 1) | 1 << 52) as i128;
            let shift = (c.to_bits() >> 52) as i32 - 1075 - xb - e0;
            let want = if c == 0.0 {
                true
            } else if shift >= 0 {
                prop_assume!(shift < 60);
                mc << shift <= x
            } else {
                // mc 2^shift <= x  <=>  ceil(mc 2^shift) <= x, as x is an integer.
                prop_assume!(shift > -60);
                (mc + (1 << -shift) - 1) >> -shift <= x
            };
            prop_assert_eq!(noa_within(c, eb, lo, hi), want, "c={:e} eb={:e} lo={:e} hi={:e}", c, eb, lo, hi);
        }

        #[test]
        fn two_sum_invariant(a in prop::num::f64::NORMAL, b in prop::num::f64::NORMAL) {
            let (s, e) = two_sum(a, b);
            if s.is_finite() {
                // s is the correctly rounded sum and e is below half an ulp of s.
                prop_assert_eq!(s, a + b);
                if s != 0.0 && e != 0.0 {
                    prop_assert!(e.abs() <= (s.abs() * f64::EPSILON));
                }
            }
        }
    }
}
