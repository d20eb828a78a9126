//! Point-wise relative-error quantizer (paper §III-A/B/C).
//!
//! Works in logarithmic space: the bin of a value `v` is
//! `round(log2(|v|) / (2*log2(1+eb)))` and reconstruction is
//! `sign(v) * 2^(bin * 2*log2(1+eb))`, so each bin spans a multiplicative
//! interval of `(1+eb)^±1` around its center — which satisfies the *strict*
//! relative bound `|v - v'| <= eb*|v|` because `eb/(1+eb) < eb`.
//!
//! `log2`/`exp2` are the portable, IEEE-only approximations from
//! [`crate::float::portable`]; their tiny inaccuracies are absorbed by the
//! exact verification + lossless fallback (§III-C).
//!
//! **Lanes.** `encode_slice` and `decode_slice` run the quantizer
//! [`LANES`] values at a time through `log2_lanes` / `exp2_lanes`, which
//! map the one branch-free body of the scalar functions over the lanes.
//! Each lane repeats the scalar IEEE operations in order, and every lane
//! that the in-lane fast test cannot decide re-runs the scalar
//! `encode` / `decode`, so the batched words and values are bit-identical
//! to the scalar ones by construction.
//!
//! **Bin storage (§III-B).** The denormal-range trick used by ABS does not
//! work for REL (denormals need high relative precision), so bins live in
//! the *negative NaN* range instead: sign bit set, exponent all ones,
//! mantissa nonzero — 2^23−1 (f32) / 2^52−1 (f64) patterns. To free that
//! range, negative NaN *inputs* are made positive (payload preserved; the
//! one documented non-bit-exact case). Because negative NaN patterns start
//! with many 1 bits, every emitted word is XORed with the sign+exponent
//! mask, which turns bin words into small integers with long zero prefixes
//! — much friendlier to the later compression stages.
//!
//! **Payload layout** (mantissa field, after subtracting the +1 offset that
//! keeps the stored mantissa nonzero):
//!
//! ```text
//! [ value sign | bin sign | bin magnitude ]   (1 | 1 | MANT_BITS-2 bits)
//! ```
//!
//! with `magnitude == MAX_MAG+1` (all ones) and bin sign 0 reserved for the
//! exact-zero code, so ±0.0 round-trips with its sign.

use super::Quantizer;
use crate::error::{Error, Result};
use crate::float::portable::{self, LANES};
use crate::float::{PfplFloat, Word};
use std::array;

/// REL quantizer: guarantees `|v - v'| <= eb * |v|` and `sign(v') == sign(v)`.
#[derive(Debug, Clone)]
pub struct RelQuantizer<F: PfplFloat> {
    eb: F,
    /// Bin width in log2 space: `2 * log2(1 + eb)`.
    binw: f64,
    /// `1 / binw`, so the hot path multiplies instead of divides.
    inv_binw: f64,
    /// `1 - 2^-20`: fast-accept factor (see `AbsQuantizer::fast_lo`).
    fast_lo: F,
    /// `1 + 2^-20`: fast-reject factor.
    fast_hi: F,
}

impl<F: PfplFloat> RelQuantizer<F> {
    /// Create a quantizer for relative bound `eb` (already narrowed to `F`).
    pub fn new(eb: F) -> Result<Self> {
        let e = eb.to_f64();
        if !(e > 0.0) || !eb.is_finite() {
            return Err(Error::InvalidErrorBound(format!(
                "REL bound must be finite and > 0; got {eb:?}"
            )));
        }
        let one_plus = 1.0 + e;
        if !one_plus.is_finite() {
            return Err(Error::InvalidErrorBound(format!(
                "REL bound too large: {eb:?}"
            )));
        }
        let binw = 2.0 * portable::log2(one_plus);
        // If eb is so tiny that 1+eb rounds to 1, binw is 0 and inv_binw is
        // infinite: every bin overflows the range check and all values fall
        // back to lossless storage — correct, just incompressible.
        let inv_binw = if binw > 0.0 { 1.0 / binw } else { f64::INFINITY };
        Ok(Self {
            eb,
            binw,
            inv_binw,
            fast_lo: F::from_f64(1.0 - 9.5367431640625e-7),
            fast_hi: F::from_f64(1.0 + 9.5367431640625e-7),
        })
    }

    /// The bound this quantizer guarantees.
    pub fn bound(&self) -> F {
        self.eb
    }

    /// Number of payload bits available for the bin magnitude.
    const fn mag_bits() -> u32 {
        F::MANT_BITS - 2
    }
    /// Largest encodable bin magnitude (one code is reserved for zero).
    fn max_mag() -> u64 {
        (1u64 << Self::mag_bits()) - 2
    }
    /// Magnitude code reserved for ±0.0 (bin sign 0).
    fn zero_mag() -> u64 {
        (1u64 << Self::mag_bits()) - 1
    }
    /// The XOR mask applied to every emitted word (sign + exponent bits).
    #[inline(always)]
    fn xor_mask() -> F::Bits {
        F::SIGN_MASK | F::EXP_MASK
    }

    /// Pack (value sign, bin) into a negative-NaN word, pre-XOR.
    #[inline]
    fn pack(vsign: bool, bsign: bool, mag: u64) -> F::Bits {
        let payload = ((vsign as u64) << (F::MANT_BITS - 1))
            | ((bsign as u64) << Self::mag_bits())
            | mag;
        let mant = F::Bits::from_u64(payload + 1); // keep mantissa nonzero
        debug_assert!((mant & !F::MANT_MASK) == F::Bits::ZERO);
        // Full negative-NaN pattern; the caller's XOR with the sign+exponent
        // mask cancels the leading ones so the emitted word is tiny.
        Self::xor_mask() | mant
    }

    /// True if `raw` (a pre-XOR word) is a negative-NaN bin pattern: sign
    /// set, exponent all ones, mantissa nonzero.
    #[inline(always)]
    fn is_bin(raw: F::Bits) -> bool {
        (raw & Self::xor_mask() == Self::xor_mask()) & (raw & F::MANT_MASK != F::Bits::ZERO)
    }

    /// Split the payload of a bin pattern into (value sign, zero code, bin).
    /// Total over any word: a zero mantissa wraps instead of panicking.
    #[inline(always)]
    fn unpack(raw: F::Bits) -> (bool, bool, i64) {
        let payload = (raw & F::MANT_MASK).to_u64().wrapping_sub(1);
        let vsign = payload >> (F::MANT_BITS - 1) & 1 == 1;
        let bsign = payload >> Self::mag_bits() & 1 == 1;
        let mag = payload & ((1u64 << Self::mag_bits()) - 1);
        let zero = (mag == Self::zero_mag()) & !bsign;
        (vsign, zero, if bsign { -(mag as i64) } else { mag as i64 })
    }

    /// `a` with its sign bit set when `negative`.
    #[inline(always)]
    fn with_sign(a: F, negative: bool) -> F {
        if negative {
            F::from_bits(a.to_bits() | F::SIGN_MASK)
        } else {
            a
        }
    }

    /// Reconstruct the magnitude of bin `bin` (deterministic; shared by the
    /// encoder's verification and the decoder).
    #[inline]
    fn recon_mag(&self, bin: i64) -> F {
        F::from_f64(portable::exp2(bin as f64 * self.binw))
    }
}

impl<F: PfplFloat> Quantizer<F> for RelQuantizer<F> {
    #[inline]
    fn encode(&self, v: F) -> F::Bits {
        let xm = Self::xor_mask();
        let bits = v.to_bits();
        if v.is_nan() {
            // Negative NaNs become positive to vacate the bin range.
            return (bits & !F::SIGN_MASK) ^ xm;
        }
        if !v.is_finite() {
            return bits ^ xm; // ±∞ lossless
        }
        if bits & !F::SIGN_MASK == F::Bits::ZERO {
            return Self::pack(v.is_sign_negative(), false, Self::zero_mag()) ^ xm;
        }
        let a = v.abs();
        let lb = portable::log2(a.to_f64());
        let bin = (lb * self.inv_binw).round_away_i64();
        if bin.unsigned_abs() > Self::max_mag() {
            return bits ^ xm;
        }
        let recon = self.recon_mag(bin);
        // Fast path: one rounded subtraction + two multiplies decide all
        // but boundary cases; the exact comparison covers the rest. Only
        // valid while the bound `eb*a` is a normal number (denormal
        // products lose the relative accuracy the argument needs).
        let t = self.eb.mul(a);
        let ok = if t >= F::MIN_NORMAL && t.is_finite() {
            let ad = a.add(F::from_bits(recon.to_bits() ^ F::SIGN_MASK)).abs();
            if ad < t.mul(self.fast_lo) {
                true
            } else if ad > t.mul(self.fast_hi) {
                false
            } else {
                F::rel_within_mag(a, recon, self.eb)
            }
        } else {
            F::rel_within_mag(a, recon, self.eb)
        };
        if !ok {
            return bits ^ xm;
        }
        Self::pack(v.is_sign_negative(), bin < 0, bin.unsigned_abs()) ^ xm
    }

    /// Batched encode, [`LANES`] values at a time. Every lane computes
    /// `log2`, the bin, `exp2` and the fast-accept test (`t = eb·|v|`
    /// normal and finite, `|v − recon| < t·fast_lo`, `|bin| <= max_mag`)
    /// with the lane forms of the portable functions, which repeat the
    /// scalar IEEE operations in order. Lanes that pass emit their bin
    /// word; the lanes that fail, and the specials (NaN, ±∞, ±0, which
    /// enter the lanes as the neutral 1.0), re-run the scalar
    /// [`Quantizer::encode`], so every undecided value still reaches the
    /// exact `rel_within_mag` check and the output is bit-identical to the
    /// scalar path by construction.
    fn encode_slice(&self, vals: &[F], out: &mut [F::Bits]) -> u64 {
        debug_assert_eq!(vals.len(), out.len());
        let xm = Self::xor_mask();
        let max_mag = Self::max_mag();
        let mut lossless = 0u64;
        let mut groups = vals.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (vs, ws) in (&mut groups).zip(&mut outs) {
            let plain: [bool; LANES] = array::from_fn(|i| {
                vs[i].is_finite() & (vs[i].to_bits() & !F::SIGN_MASK != F::Bits::ZERO)
            });
            let lb = portable::log2_lanes(array::from_fn(|i| {
                if plain[i] {
                    vs[i].abs().to_f64()
                } else {
                    1.0
                }
            }));
            let bin = lb.map(|lb| (lb * self.inv_binw).round_away_i64());
            let in_range = bin.map(|b| b.unsigned_abs() <= max_mag);
            let recon = portable::exp2_lanes(array::from_fn(|i| {
                if in_range[i] {
                    bin[i] as f64 * self.binw
                } else {
                    0.0
                }
            }));
            let mut fast = [false; LANES];
            for i in 0..LANES {
                let a = vs[i].abs();
                let recon = F::from_f64(recon[i]);
                let t = self.eb.mul(a);
                let ad = a.add(F::from_bits(recon.to_bits() ^ F::SIGN_MASK)).abs();
                fast[i] = plain[i]
                    & in_range[i]
                    & (t >= F::MIN_NORMAL)
                    & t.is_finite()
                    & (ad < t.mul(self.fast_lo));
                // Out-of-range bins pack as 0: the word is overwritten below.
                let mag = if in_range[i] { bin[i].unsigned_abs() } else { 0 };
                ws[i] = Self::pack(vs[i].is_sign_negative(), bin[i] < 0, mag) ^ xm;
            }
            if fast.contains(&false) {
                for ((w, &v), _) in ws.iter_mut().zip(vs).zip(&fast).filter(|(_, &f)| !f) {
                    let e = self.encode(v);
                    lossless += self.is_lossless_word(e) as u64;
                    *w = e;
                }
            }
        }
        for (w, &v) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
            let e = self.encode(v);
            lossless += self.is_lossless_word(e) as u64;
            *w = e;
        }
        lossless
    }

    #[inline]
    fn decode(&self, w: F::Bits) -> F {
        let raw = w ^ Self::xor_mask();
        if !Self::is_bin(raw) {
            return F::from_bits(raw);
        }
        let (vsign, zero, bin) = Self::unpack(raw);
        let a = if zero { F::ZERO } else { self.recon_mag(bin) };
        Self::with_sign(a, vsign)
    }

    /// Batched decode, [`LANES`] words at a time: every bin word other
    /// than the zero code reconstructs in-lane through
    /// [`portable::exp2_lanes`]; lossless words and the zero code re-run
    /// the scalar [`Quantizer::decode`]. Bit-identical to the scalar path.
    fn decode_slice(&self, words: &[F::Bits], out: &mut [F]) {
        debug_assert_eq!(words.len(), out.len());
        let xm = Self::xor_mask();
        let mut groups = words.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (ws, vs) in (&mut groups).zip(&mut outs) {
            let mut fast = [false; LANES];
            let mut vsign = [false; LANES];
            let mut y = [0.0; LANES];
            for i in 0..LANES {
                let raw = ws[i] ^ xm;
                let (s, zero, bin) = Self::unpack(raw);
                fast[i] = Self::is_bin(raw) & !zero;
                vsign[i] = s;
                y[i] = if fast[i] { bin as f64 * self.binw } else { 0.0 };
            }
            let a = portable::exp2_lanes(y);
            for i in 0..LANES {
                vs[i] = Self::with_sign(F::from_f64(a[i]), vsign[i]);
            }
            if fast.contains(&false) {
                for ((v, &w), _) in vs.iter_mut().zip(ws).zip(&fast).filter(|(_, &f)| !f) {
                    *v = self.decode(w);
                }
            }
        }
        for (v, &w) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
            *v = self.decode(w);
        }
    }

    #[inline(always)]
    fn is_lossless_word(&self, w: F::Bits) -> bool {
        !Self::is_bin(w ^ Self::xor_mask())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{rel_within_mag_f32, rel_within_mag_f64};
    use proptest::prelude::*;

    fn q32(eb: f32) -> RelQuantizer<f32> {
        RelQuantizer::new(eb).unwrap()
    }

    /// The exact REL predicate on f64 magnitudes, after the exact 2^-600
    /// rescale `exact::check_bound` applies above 2^500, where
    /// `rel_within_mag_f64` alone turns conservative.
    fn rel_exact_f64(a: f64, b: f64, eb: f64) -> bool {
        let s = if a > 2f64.powi(500) { 2f64.powi(-600) } else { 1.0 };
        rel_within_mag_f64(a * s, b * s, eb)
    }

    #[test]
    fn rejects_bad_bounds() {
        assert!(RelQuantizer::<f32>::new(0.0).is_err());
        assert!(RelQuantizer::<f32>::new(-0.5).is_err());
        assert!(RelQuantizer::<f32>::new(f32::NAN).is_err());
        assert!(RelQuantizer::<f32>::new(f32::INFINITY).is_err());
        assert!(RelQuantizer::<f32>::new(1e-3).is_ok());
    }

    #[test]
    fn zero_roundtrips_with_sign() {
        let q = q32(1e-3);
        let p0 = q.decode(q.encode(0.0));
        assert_eq!(p0.to_bits(), 0.0f32.to_bits());
        let n0 = q.decode(q.encode(-0.0));
        assert_eq!(n0.to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn negative_nan_becomes_positive() {
        let q = q32(1e-3);
        let v = f32::from_bits(0xFFC1_2345);
        let r = q.decode(q.encode(v));
        assert_eq!(r.to_bits(), 0x7FC1_2345, "payload preserved, sign cleared");
    }

    #[test]
    fn positive_nan_and_inf_bit_exact() {
        let q = q32(1e-2);
        for bits in [0x7FC0_0001u32, 0x7F80_0000, 0xFF80_0000] {
            assert_eq!(q.decode(q.encode(f32::from_bits(bits))).to_bits(), bits);
        }
    }

    #[test]
    fn bin_words_are_small_after_xor() {
        let q = q32(1e-2);
        // A garden-variety value must quantize (not fall back) and its
        // emitted word must have cleared top bits thanks to the XOR trick.
        let w = q.encode(1.2345f32);
        assert!(!q.is_lossless_word(w), "1.2345 should be quantizable");
        assert_eq!(w & 0xFF80_0000, 0, "XOR must cancel the leading ones");
    }

    #[test]
    fn rel_bound_simple_values() {
        for &eb in &[1e-1f32, 1e-2, 1e-3, 1e-4] {
            let q = q32(eb);
            for &v in &[1.0f32, -1.0, 3.7e8, -2.2e-12, 6.02e23, 0.5] {
                let r = q.decode(q.encode(v));
                assert!(rel_within_mag_f32(v.abs(), r.abs(), eb), "v={v} eb={eb} r={r}");
                assert_eq!(r.is_sign_negative(), v.is_sign_negative());
            }
        }
    }

    #[test]
    fn denormals_within_bound_or_lossless() {
        let q = q32(1e-2);
        for bits in [1u32, 0x0000_1000, 0x007F_FFFF, 0x8000_0001] {
            let v = f32::from_bits(bits);
            let r = q.decode(q.encode(v));
            assert!(rel_within_mag_f32(v.abs(), r.abs(), 1e-2), "denormal {bits:#x}: r={r}");
            assert_eq!(r.is_sign_negative(), v.is_sign_negative());
        }
    }

    #[test]
    fn f64_rel_bound() {
        let q = RelQuantizer::<f64>::new(1e-4).unwrap();
        for &v in &[1.0f64, -1e300, 1e-300, std::f64::consts::E, -42.0] {
            let r = q.decode(q.encode(v));
            assert!(rel_exact_f64(v.abs(), r.abs(), 1e-4), "v={v} r={r}");
            assert_eq!(r.is_sign_negative(), v.is_sign_negative());
        }
    }

    proptest! {
        /// The headline guarantee over arbitrary bit patterns.
        #[test]
        fn guarantee_all_bit_patterns_f32(bits: u32, eb_exp in -15i32..0, eb_sig in 1.0f32..2.0) {
            let eb = eb_sig * 2f32.powi(eb_exp);
            let q = q32(eb);
            let v = f32::from_bits(bits);
            let w = q.encode(v);
            let r = q.decode(w);
            if v.is_nan() {
                prop_assert!(r.is_nan());
                prop_assert_eq!(r.to_bits() & 0x7FFF_FFFF, bits & 0x7FFF_FFFF);
            } else if !v.is_finite() || v == 0.0 {
                prop_assert_eq!(r.to_bits(), bits);
            } else {
                prop_assert_eq!(r.is_sign_negative(), v.is_sign_negative());
                prop_assert!(rel_within_mag_f32(v.abs(), r.abs(), eb), "v={} eb={} r={}", v, eb, r);
            }
        }

        #[test]
        fn guarantee_all_bit_patterns_f64(bits: u64, eb_exp in -30i32..0, eb_sig in 1.0f64..2.0) {
            let eb = eb_sig * 2f64.powi(eb_exp);
            let q = RelQuantizer::<f64>::new(eb).unwrap();
            let v = f64::from_bits(bits);
            let r = q.decode(q.encode(v));
            if !v.is_finite() || v == 0.0 {
                // specials checked in the f32 variant; here just sanity
                if v == 0.0 { prop_assert_eq!(r.to_bits(), bits); }
            } else {
                prop_assert_eq!(r.is_sign_negative(), v.is_sign_negative());
                prop_assert!(rel_exact_f64(v.abs(), r.abs(), eb), "v={} eb={} r={}", v, eb, r);
            }
        }

        /// Every word the encoder emits decodes deterministically and
        /// re-encodes to the same word (stability under recompression).
        #[test]
        fn requantization_stable(v in prop::num::f32::NORMAL, eb_exp in -12i32..-1) {
            let q = q32(2f32.powi(eb_exp));
            let w1 = q.encode(v);
            let r1 = q.decode(w1);
            let w2 = q.encode(r1);
            let r2 = q.decode(w2);
            prop_assert_eq!(r1.to_bits(), r2.to_bits());
        }
    }
}
