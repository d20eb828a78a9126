//! The three PFPL lossy quantizers (paper §III-A/B).
//!
//! A quantizer maps each floating-point value to one carrier word and back:
//!
//! * either a **bin number** embedded in a reserved region of the IEEE bit
//!   pattern space — the denormal range for ABS/NOA, the negative-NaN range
//!   for REL — or
//! * the value's **unmodified bits** (lossless fallback), emitted whenever
//!   the bin reconstruction would violate the error bound, the bin number
//!   would not fit the reserved region, or the value is special
//!   (NaN/±∞ always; denormals for REL).
//!
//! Bins and lossless values share *one* stream: the decoder tells them apart
//! purely from the bit pattern, which is what keeps both directions
//! embarrassingly parallel (no side list of outliers, §III-E). Every encode
//! immediately decodes and verifies the bound with the exact comparisons in
//! [`crate::exact`], so the bound is *guaranteed*, not merely expected.

mod abs;
mod noa;
mod rel;

pub use abs::AbsQuantizer;
pub use noa::{derive_noa_bound, NoaBound};
pub use rel::RelQuantizer;

use crate::float::PfplFloat;

/// A lossy value↔word codec with a guaranteed error bound.
pub trait Quantizer<F: PfplFloat>: Send + Sync {
    /// Encode one value into one carrier word.
    fn encode(&self, v: F) -> F::Bits;
    /// Decode one carrier word back into a value.
    fn decode(&self, w: F::Bits) -> F;
    /// True if `w` holds a losslessly stored value rather than a bin number
    /// (used for the §III-B "unquantizable values" statistics).
    fn is_lossless_word(&self, w: F::Bits) -> bool;

    /// Encode a whole slice into pre-sized `out` (`out.len() ==
    /// vals.len()`), returning the number of losslessly stored words.
    ///
    /// Semantics are exactly `out[i] = encode(vals[i])` — implementations
    /// may batch, unroll, or shortcut the common case, but every word must
    /// stay bit-identical to the scalar path (the archive format, and the
    /// serial/parallel byte-identity guarantee, depend on it).
    fn encode_slice(&self, vals: &[F], out: &mut [F::Bits]) -> u64 {
        debug_assert_eq!(vals.len(), out.len());
        encode_each(self, out.iter_mut().zip(vals))
    }

    /// Decode a whole slice into pre-sized `out` (`out.len() ==
    /// words.len()`).
    ///
    /// Semantics are exactly `out[i] = decode(words[i])` for *every* word,
    /// emitted or not (decode stays total over arbitrary bits); batched
    /// implementations must stay bit-identical to the scalar path.
    fn decode_slice(&self, words: &[F::Bits], out: &mut [F]) {
        debug_assert_eq!(words.len(), out.len());
        decode_each(self, out.iter_mut().zip(words));
    }
}

/// `*w = q.encode(v)` for every `(w, v)` pair, returning how many of the
/// words are lossless: the scalar loop behind the default
/// [`Quantizer::encode_slice`] and the batched kernels' tails and re-runs.
#[inline]
pub(crate) fn encode_each<'a, F: PfplFloat, Q: Quantizer<F> + ?Sized>(
    q: &Q,
    pairs: impl Iterator<Item = (&'a mut F::Bits, &'a F)>,
) -> u64 {
    let mut lossless = 0u64;
    for (w, &v) in pairs {
        let e = q.encode(v);
        lossless += q.is_lossless_word(e) as u64;
        *w = e;
    }
    lossless
}

/// `*v = q.decode(w)` for every `(v, w)` pair: the decode mirror of
/// [`encode_each`].
#[inline]
pub(crate) fn decode_each<'a, F: PfplFloat, Q: Quantizer<F> + ?Sized>(
    q: &Q,
    pairs: impl Iterator<Item = (&'a mut F, &'a F::Bits)>,
) {
    for (v, &w) in pairs {
        *v = q.decode(w);
    }
}

/// Identity codec used when NOA derives an unusably small absolute bound
/// (constant input, zero range): every value is stored losslessly.
///
/// The archive header records passthrough mode so the decoder never
/// misinterprets denormal bit patterns as bins.
#[derive(Debug, Clone, Copy)]
pub struct PassthroughQuantizer;

impl<F: PfplFloat> Quantizer<F> for PassthroughQuantizer {
    #[inline(always)]
    fn encode(&self, v: F) -> F::Bits {
        v.to_bits()
    }
    #[inline(always)]
    fn decode(&self, w: F::Bits) -> F {
        F::from_bits(w)
    }
    #[inline(always)]
    fn is_lossless_word(&self, _w: F::Bits) -> bool {
        true
    }
    fn encode_slice(&self, vals: &[F], out: &mut [F::Bits]) -> u64 {
        debug_assert_eq!(vals.len(), out.len());
        for (w, &v) in out.iter_mut().zip(vals) {
            *w = v.to_bits();
        }
        vals.len() as u64
    }
}
