//! The three lossless pipeline stages (paper §III-D, Figs. 3–5).
//!
//! All three stages were designed (via the LC framework search the paper
//! describes) to be cheap, branch-light, and implementable with the same
//! semantics on CPUs and GPUs:
//!
//! 1. [`delta`] — difference coding with negabinary residuals (Fig. 3):
//!    smooth data → residuals near zero → leading zero bits.
//! 2. [`shuffle`] — bit-plane transposition (Fig. 4): per-word leading
//!    zeros → long runs of zero *bytes*.
//! 3. [`zeroelim`] — zero-byte elimination with an iteratively compressed
//!    bitmap (Fig. 5): the only stage that actually shrinks the data.
//!
//! None of the stages compresses much alone; the *sequence* does
//! ("removing any one of these transformations decreases the compression
//! ratio by a substantial factor"). Each module exposes encode/decode pairs
//! that are exact inverses for every input, verified by property tests.

pub mod delta;
pub mod shuffle;
pub mod zeroelim;

/// Whole-vector loads and stores for the stages' AVX-512 kernels, on
/// fixed-size 64-byte integer arrays, so no kernel needs a bounds check
/// or an unsafe block of its own for them.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// Element types for which every bit pattern is a valid value.
    pub trait Int: Copy {}
    impl Int for u8 {}
    impl Int for u32 {}
    impl Int for u64 {}
    impl Int for i64 {}

    /// Load one 64-byte vector.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn load<T: Int, const N: usize>(v: &[T; N]) -> __m512i {
        const { assert!(size_of::<[T; N]>() == 64) };
        // SAFETY: `v` is exactly 64 bytes (checked at compile time).
        unsafe { _mm512_loadu_si512(v.as_ptr().cast()) }
    }

    /// Store one 64-byte vector.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn store<T: Int, const N: usize>(v: &mut [T; N], x: __m512i) {
        const { assert!(size_of::<[T; N]>() == 64) };
        // SAFETY: `v` is exactly 64 bytes (checked at compile time), and
        // any bits are a valid `[T; N]` since `T: Int`.
        unsafe { _mm512_storeu_si512(v.as_mut_ptr().cast(), x) }
    }
}
