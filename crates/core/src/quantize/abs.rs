//! Point-wise absolute-error quantizer (paper §III-A, Fig. 2).
//!
//! Each value is multiplied by `0.5/eb` (the inverse of twice the bound) and
//! rounded to the nearest integer bin; reconstruction is `bin * 2*eb`. All
//! values within ±eb of a bin center map to that bin.
//!
//! **Bin storage.** Because the bound may not be smaller than the smallest
//! positive normal value, every denormal input (and ±0) quantizes to bin 0,
//! so no losslessly stored value can ever carry a zero exponent field. That
//! frees the entire denormal bit-pattern range — 2^23 (f32) / 2^52 (f64)
//! patterns per sign — for bin numbers in magnitude-sign format (§III-B).
//! Any word with a zero exponent field is a bin; everything else is a
//! lossless value. NaNs and infinities (exponent all ones) pass through
//! untouched.

use super::{encode_each, Quantizer};
use crate::error::{Error, Result};
use crate::float::{PfplFloat, Word};

/// Values per lane group of [`AbsQuantizer::encode_slice`].
const LANES: usize = 8;

/// ABS quantizer: guarantees `|v - v'| <= eb` for every value.
#[derive(Debug, Clone, Copy)]
pub struct AbsQuantizer<F: PfplFloat> {
    eb: F,
    /// `2 * eb`, the bin width used for reconstruction.
    eb2: F,
    /// `0.5 / eb`, the factor mapping values to bin space.
    scale: F,
    /// Fast-accept threshold: `eb * (1 - 2^-20)`. A rounded difference
    /// strictly below this cannot correspond to a true difference above
    /// `eb` (the rounding error of one subtraction is ≤ 2^-24 relative),
    /// so the expensive exact comparison is skipped for the common case.
    fast_lo: F,
    /// Fast-reject threshold: `eb * (1 + 2^-20)` (symmetric argument).
    fast_hi: F,
}

impl<F: PfplFloat> AbsQuantizer<F> {
    /// Create a quantizer for bound `eb` (already narrowed to `F`).
    ///
    /// Fails if `eb` is not finite or is below `F::MIN_NORMAL`: the bin
    /// encoding requires denormals to always quantize to bin 0 (§III-B).
    /// A bound above `F::MAX / 2` quantizes against `F::MAX / 2`: the bin
    /// width `2·eb` must be finite (else bin 0 would reconstruct as
    /// `0·∞ = NaN`), and the tighter bound still guarantees `eb`.
    pub fn new(eb: F) -> Result<Self> {
        if !eb.is_finite() || !(eb >= F::MIN_NORMAL) {
            return Err(Error::InvalidErrorBound(format!(
                "ABS bound must be finite and >= the smallest positive normal value ({:?}); got {:?}",
                F::MIN_NORMAL,
                eb
            )));
        }
        let eb = if eb.add(eb).is_finite() {
            eb
        } else {
            // F::MAX / 2: the largest bound whose double is finite.
            F::from_bits(F::EXP_MASK.wrapping_sub(F::Bits::ONE)).mul(F::from_f64(0.5))
        };
        let eb2 = eb.add(eb);
        // One division at setup; the per-value hot path only multiplies.
        let scale = F::from_f64(0.5).div(eb);
        let fast_lo = eb.mul(F::from_f64(1.0 - 9.5367431640625e-7));
        let fast_hi = eb.mul(F::from_f64(1.0 + 9.5367431640625e-7));
        Ok(Self {
            eb,
            eb2,
            scale,
            fast_lo,
            fast_hi,
        })
    }

    /// The bound this quantizer guarantees.
    pub fn bound(&self) -> F {
        self.eb
    }

    /// Largest encodable bin magnitude: the mantissa field must hold it.
    #[inline(always)]
    fn max_bin() -> u64 {
        F::MANT_MASK.to_u64()
    }
}

impl<F: PfplFloat> Quantizer<F> for AbsQuantizer<F> {
    #[inline]
    fn encode(&self, v: F) -> F::Bits {
        let bits = v.to_bits();
        if !v.is_finite() {
            return bits; // NaN / ±∞: exponent all ones, never a bin pattern
        }
        let bin = v.mul(self.scale).round_away_i64();
        if bin.unsigned_abs() > Self::max_bin() {
            debug_assert!(bits & F::EXP_MASK != F::Bits::ZERO);
            return bits;
        }
        let recon = F::from_i64(bin).mul(self.eb2);
        // Fast path: one rounded subtraction decides all but boundary
        // cases; only those fall through to the exact comparison.
        let ad = v.add(F::from_bits(recon.to_bits() ^ F::SIGN_MASK)).abs();
        let ok = if ad < self.fast_lo {
            true
        } else if ad > self.fast_hi {
            false
        } else {
            F::abs_within(v, recon, self.eb)
        };
        if !ok {
            debug_assert!(bits & F::EXP_MASK != F::Bits::ZERO);
            return bits;
        }
        // Magnitude-sign bin in the denormal range.
        let mag = F::Bits::from_u64(bin.unsigned_abs());
        if bin < 0 {
            mag | F::SIGN_MASK
        } else {
            mag
        }
    }

    #[inline]
    fn decode(&self, w: F::Bits) -> F {
        if w & F::EXP_MASK == F::Bits::ZERO {
            let mag = (w & F::MANT_MASK).to_u64() as i64;
            let val = F::from_i64(mag).mul(self.eb2);
            if w & F::SIGN_MASK != F::Bits::ZERO {
                F::from_bits(val.to_bits() | F::SIGN_MASK)
            } else {
                val
            }
        } else {
            F::from_bits(w)
        }
    }

    #[inline(always)]
    fn is_lossless_word(&self, w: F::Bits) -> bool {
        w & F::EXP_MASK != F::Bits::ZERO
    }

    /// Batched encode in groups of 8 lanes. Every lane computes its word
    /// with float add/mul/compare/select only, so the loop vectorizes at
    /// the float width with no float→int cast. Lanes work on magnitudes:
    /// `trunc(|v|·scale + 0.5)` is the magnitude of `round_away_i64(v·scale)`
    /// (IEEE `*`/`+` are sign-symmetric and `scale > 0`), and
    /// `|v − recon|` equals `||v| − |recon||` because the bin carries the
    /// value's sign.
    ///
    /// - `m = |v|·scale + 0.5`, and `in_range = m < 2^MANT_BITS` is the
    ///   scalar `|bin| <= max_bin` test. It is false for NaN, ±∞ and huge
    ///   values, whose lanes go on with `m = 0`.
    /// - `mag = trunc(m)` is the magic-number round `r = (m + 2^M) − 2^M`
    ///   (exact for `0 <= m < 2^M`), minus 1 where `r > m`.
    /// - A lane is accepted when it is in range with `ad < fast_lo`, and
    ///   rejected when it is out of range or `ad > fast_hi`: the scalar
    ///   path's fast decisions. An accepted lane writes its bin, the
    ///   mantissa field of `mag + 2^M` with the sign bit of a negative
    ///   nonzero bin; every other lane writes its own bits, the lossless
    ///   word. The lossless count is the number of lanes not accepted.
    ///
    /// Only a group holding a lane that is neither — the band between the
    /// thresholds, where the scalar path runs the exact check — re-runs
    /// through [`Quantizer::encode`], so the output is bit-identical to the
    /// scalar path.
    fn encode_slice(&self, vals: &[F], out: &mut [F::Bits]) -> u64 {
        debug_assert_eq!(vals.len(), out.len());
        let half = F::from_f64(0.5);
        let magic = F::from_f64((1u64 << F::MANT_BITS) as f64);
        let neg_magic = F::from_f64(-((1u64 << F::MANT_BITS) as f64));
        let neg_one = F::from_f64(-1.0);
        let scale = self.scale;
        let eb2 = self.eb2;
        let fast_lo = self.fast_lo;
        let fast_hi = self.fast_hi;
        let mut lossless = 0u64;
        let mut groups = vals.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (vs, ws) in (&mut groups).zip(&mut outs) {
            let mut accepted = 0u32;
            let mut band = false;
            for (w, &v) in ws.iter_mut().zip(vs) {
                let av = v.abs();
                let m = av.mul(scale).add(half);
                let in_range = m < magic;
                let m = if in_range { m } else { F::ZERO };
                let r = m.add(magic).add(neg_magic);
                let mag = if r > m { r.add(neg_one) } else { r };
                let recon = mag.mul(eb2);
                let ad = av.add(F::from_bits(recon.to_bits() ^ F::SIGN_MASK)).abs();
                let accept = in_range & (ad < fast_lo);
                band |= in_range & !accept & !(ad > fast_hi);
                // -0.0 (and negative denormals binning to 0) must emit the
                // all-zero word, exactly like the scalar path.
                let sign = if mag != F::ZERO {
                    v.to_bits() & F::SIGN_MASK
                } else {
                    F::Bits::ZERO
                };
                let bin = (mag.add(magic).to_bits() & F::MANT_MASK) | sign;
                *w = if accept { bin } else { v.to_bits() };
                accepted += accept as u32;
            }
            lossless += if band {
                encode_each(self, ws.iter_mut().zip(vs))
            } else {
                (LANES as u32 - accepted) as u64
            };
        }
        let tail = outs.into_remainder().iter_mut().zip(groups.remainder());
        lossless + encode_each(self, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{abs_within_f32, abs_within_f64};
    use proptest::prelude::*;

    fn roundtrip_f32(v: f32, eb: f32) -> f32 {
        let q = AbsQuantizer::<f32>::new(eb).unwrap();
        q.decode(q.encode(v))
    }

    #[test]
    fn rejects_bad_bounds() {
        assert!(AbsQuantizer::<f32>::new(0.0).is_err());
        assert!(AbsQuantizer::<f32>::new(-1.0).is_err());
        assert!(AbsQuantizer::<f32>::new(f32::NAN).is_err());
        assert!(AbsQuantizer::<f32>::new(f32::INFINITY).is_err());
        assert!(AbsQuantizer::<f32>::new(1e-40).is_err()); // denormal bound
        assert!(AbsQuantizer::<f32>::new(f32::MIN_POSITIVE).is_ok());
    }

    #[test]
    fn basic_binning() {
        let q = AbsQuantizer::<f32>::new(0.01).unwrap();
        // Fig. 2 of the paper: eb = 0.01 → bin width 0.02.
        for (v, want_bin) in [(0.005f32, 0i64), (0.015, 1), (0.025, 1), (-0.015, -1)] {
            let w = q.encode(v);
            assert_eq!(w & f32::EXP_MASK, 0, "value {v} should be a bin");
            let mag = (w & f32::MANT_MASK) as i64;
            let bin = if w >> 31 == 1 { -mag } else { mag };
            assert_eq!(bin, want_bin, "value {v}");
        }
    }

    #[test]
    fn specials_pass_through() {
        let q = AbsQuantizer::<f32>::new(1e-3).unwrap();
        for bits in [
            0x7FC0_0000u32, // NaN
            0xFFC0_0001,    // -NaN with payload
            0x7F80_0000,    // +inf
            0xFF80_0000,    // -inf
        ] {
            let w = q.encode(f32::from_bits(bits));
            assert_eq!(w, bits);
            assert_eq!(q.decode(w).to_bits(), bits);
        }
    }

    #[test]
    fn denormals_quantize_to_zero() {
        let q = AbsQuantizer::<f32>::new(f32::MIN_POSITIVE).unwrap();
        for bits in [1u32, 0x007F_FFFF, 0x8000_0001, 0x807F_FFFF] {
            let v = f32::from_bits(bits);
            let w = q.encode(v);
            assert_eq!(w, 0, "denormal {bits:#x} must map to bin 0");
            assert_eq!(q.decode(w), 0.0);
        }
    }

    #[test]
    fn huge_values_go_lossless() {
        let q = AbsQuantizer::<f32>::new(1e-3).unwrap();
        let v = 1e30f32; // bin would be ~5e32 ≫ 2^23
        let w = q.encode(v);
        assert_eq!(w, v.to_bits());
        assert_eq!(q.decode(w), v);
    }

    #[test]
    fn huge_bounds_keep_the_guarantee() {
        // 2·eb overflows for these bounds; bin 0 must still decode to 0.
        let q = AbsQuantizer::<f32>::new(f32::MAX).unwrap();
        assert_eq!(q.bound(), f32::MAX / 2.0);
        for v in [0.0f32, -0.0, 1e-40, -1e-40, 1.0, -3e38, f32::MAX, f32::MIN] {
            let r = q.decode(q.encode(v));
            assert!(abs_within_f32(v, r, f32::MAX), "v={v} r={r}");
        }
        let q = AbsQuantizer::<f64>::new(f64::MAX * 0.75).unwrap();
        for v in [0.0f64, 5e-324, -1.0, f64::MAX, f64::MIN] {
            let r = q.decode(q.encode(v));
            assert!(abs_within_f64(v, r, f64::MAX * 0.75), "v={v} r={r}");
        }
    }

    #[test]
    fn negative_zero_is_safe() {
        assert_eq!(roundtrip_f32(-0.0, 1e-3), 0.0);
    }

    #[test]
    fn f64_roundtrip_bound() {
        let q = AbsQuantizer::<f64>::new(1e-6).unwrap();
        for &v in &[0.0, 1.0, -1.0, std::f64::consts::PI, 1e-5, -2.5e-6, 1e12] {
            let r = q.decode(q.encode(v));
            assert!(abs_within_f64(v, r, 1e-6), "v={v} r={r}");
        }
    }

    proptest! {
        /// The headline guarantee: for ANY f32 bit pattern and any valid
        /// bound, the reconstruction is within the bound (or bit-identical
        /// for specials).
        #[test]
        fn guarantee_all_bit_patterns_f32(bits: u32, eb_exp in -38i32..3, eb_sig in 1.0f32..2.0) {
            let eb = eb_sig * 2f32.powi(eb_exp);
            prop_assume!(eb.is_finite() && eb >= f32::MIN_POSITIVE);
            let q = AbsQuantizer::<f32>::new(eb).unwrap();
            let v = f32::from_bits(bits);
            let r = q.decode(q.encode(v));
            if v.is_nan() {
                prop_assert!(r.is_nan());
                prop_assert_eq!(r.to_bits(), bits);
            } else if !v.is_finite() {
                prop_assert_eq!(r.to_bits(), bits);
            } else {
                prop_assert!(abs_within_f32(v, r, eb), "v={} r={} eb={}", v, r, eb);
            }
        }

        #[test]
        fn guarantee_all_bit_patterns_f64(bits: u64, eb_exp in -300i32..3, eb_sig in 1.0f64..2.0) {
            let eb = eb_sig * 2f64.powi(eb_exp);
            let q = AbsQuantizer::<f64>::new(eb).unwrap();
            let v = f64::from_bits(bits);
            let r = q.decode(q.encode(v));
            if !v.is_finite() {
                prop_assert_eq!(r.to_bits(), bits);
            } else {
                prop_assert!(abs_within_f64(v, r, eb), "v={} r={} eb={}", v, r, eb);
            }
        }

        /// Decoding is a pure function of the word: encode∘decode∘encode
        /// is stable (idempotent re-compression of already-quantized data).
        #[test]
        fn requantization_is_stable(v in prop::num::f32::NORMAL, eb_exp in -30i32..0) {
            let eb = 2f32.powi(eb_exp);
            let q = AbsQuantizer::<f32>::new(eb).unwrap();
            let r1 = q.decode(q.encode(v));
            let r2 = q.decode(q.encode(r1));
            prop_assert_eq!(r1.to_bits(), r2.to_bits());
        }
    }
}
