//! Bit-level abstraction over `f32`/`f64` and their carrier integer words.
//!
//! PFPL operates on the *bit patterns* of IEEE 754 values: quantized bin
//! numbers are smuggled into reserved regions of the pattern space (the
//! denormal range for ABS/NOA, the negative-NaN range for REL), while
//! unquantizable values keep their original bits. The [`Word`] and
//! [`PfplFloat`] traits let the whole pipeline be written once, generic over
//! precision, exactly as the paper's C++ templates do (§III-D: "the
//! double-precision code uses the same pipeline ... with the word size
//! increased to 64 bits").

pub mod negabinary;
pub mod portable;

use std::fmt::Debug;
use std::ops::{BitAnd, BitOr, BitXor, Not, Shl, Shr};

/// An unsigned machine word carrying the bit pattern of one value.
pub trait Word:
    Copy
    + Eq
    + Ord
    + Debug
    + Send
    + Sync
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
    + 'static
{
    /// Bit width of the word (32 or 64).
    const BITS: u32;
    /// All-zero word.
    const ZERO: Self;
    /// The word with only the least significant bit set.
    const ONE: Self;
    /// The `0b…1010` mask used by the negabinary conversion.
    const NEGA_MASK: Self;

    /// Two's-complement wrapping addition.
    fn wrapping_add(self, rhs: Self) -> Self;
    /// Two's-complement wrapping subtraction.
    fn wrapping_sub(self, rhs: Self) -> Self;
    /// Widen to `u64` (zero-extending).
    fn to_u64(self) -> u64;
    /// Truncate from `u64`.
    fn from_u64(v: u64) -> Self;
    /// Write the word to `out` in little-endian order (`out.len() ==
    /// BITS/8`).
    fn write_le(self, out: &mut [u8]);
    /// Read a word from little-endian bytes (`src.len() == BITS/8`).
    fn read_le(src: &[u8]) -> Self;
    /// Append the word to `out` in little-endian order.
    fn push_le(self, out: &mut Vec<u8>);

    /// Write `words` into `out` in little-endian order
    /// (`out.len() == words.len() * BITS/8`). The fixed-stride loop
    /// compiles to a straight memcpy on little-endian targets.
    fn write_slice_le(words: &[Self], out: &mut [u8]) {
        let wb = Self::BITS as usize / 8;
        debug_assert_eq!(out.len(), words.len() * wb);
        for (dst, &w) in out.chunks_exact_mut(wb).zip(words) {
            w.write_le(dst);
        }
    }

    /// Read `out.len()` words from little-endian `src`
    /// (`src.len() == out.len() * BITS/8`).
    fn read_slice_le(src: &[u8], out: &mut [Self]) {
        let wb = Self::BITS as usize / 8;
        debug_assert_eq!(src.len(), out.len() * wb);
        for (w, s) in out.iter_mut().zip(src.chunks_exact(wb)) {
            *w = Self::read_le(s);
        }
    }
}

impl Word for u32 {
    const BITS: u32 = 32;
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const NEGA_MASK: Self = 0xAAAA_AAAA;

    #[inline(always)]
    fn wrapping_add(self, rhs: Self) -> Self {
        u32::wrapping_add(self, rhs)
    }
    #[inline(always)]
    fn wrapping_sub(self, rhs: Self) -> Self {
        u32::wrapping_sub(self, rhs)
    }
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_u64(v: u64) -> Self {
        v as u32
    }
    #[inline(always)]
    fn write_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    #[inline(always)]
    fn read_le(src: &[u8]) -> Self {
        u32::from_le_bytes(src.try_into().expect("word slice length"))
    }
    #[inline(always)]
    fn push_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl Word for u64 {
    const BITS: u32 = 64;
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const NEGA_MASK: Self = 0xAAAA_AAAA_AAAA_AAAA;

    #[inline(always)]
    fn wrapping_add(self, rhs: Self) -> Self {
        u64::wrapping_add(self, rhs)
    }
    #[inline(always)]
    fn wrapping_sub(self, rhs: Self) -> Self {
        u64::wrapping_sub(self, rhs)
    }
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self
    }
    #[inline(always)]
    fn from_u64(v: u64) -> Self {
        v
    }
    #[inline(always)]
    fn write_le(self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }
    #[inline(always)]
    fn read_le(src: &[u8]) -> Self {
        u64::from_le_bytes(src.try_into().expect("word slice length"))
    }
    #[inline(always)]
    fn push_le(self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

/// An IEEE 754 binary floating-point type PFPL can compress.
///
/// Only operations with bit-deterministic results across conforming
/// implementations are exposed: `+ - * /`, comparisons, conversions, and bit
/// manipulation. No transcendental functions, no FMA (§III-C).
pub trait PfplFloat: Copy + PartialOrd + PartialEq + Debug + Send + Sync + 'static {
    /// The carrier word holding this float's bit pattern.
    type Bits: Word + crate::lossless::shuffle::Transpose;

    /// Number of explicit mantissa (fraction) bits: 23 or 52.
    const MANT_BITS: u32;
    /// Sign-bit mask.
    const SIGN_MASK: Self::Bits;
    /// Exponent-field mask.
    const EXP_MASK: Self::Bits;
    /// Mantissa-field mask.
    const MANT_MASK: Self::Bits;
    /// Smallest positive *normal* value.
    const MIN_NORMAL: Self;
    /// Zero.
    const ZERO: Self;
    /// Precision tag for archive headers.
    const PRECISION: crate::types::Precision;

    /// Raw bit pattern.
    fn to_bits(self) -> Self::Bits;
    /// Value from raw bit pattern.
    fn from_bits(bits: Self::Bits) -> Self;
    /// Exact widening conversion to `f64` (identity for `f64`).
    fn to_f64(self) -> f64;
    /// Correctly-rounded narrowing conversion from `f64`.
    fn from_f64(v: f64) -> Self;
    /// Correctly-rounded conversion from a signed 64-bit integer.
    fn from_i64(v: i64) -> Self;
    /// IEEE multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// IEEE addition.
    fn add(self, rhs: Self) -> Self;
    /// IEEE division.
    fn div(self, rhs: Self) -> Self;
    /// `|self|` (clears the sign bit; preserves NaN payload).
    fn abs(self) -> Self;
    /// True for NaN.
    fn is_nan(self) -> bool;
    /// True for anything that is neither NaN nor ±∞.
    fn is_finite(self) -> bool;
    /// True when the sign bit is set (including −0.0 and negative NaN).
    fn is_sign_negative(self) -> bool;

    /// Round to the nearest integer, ties away from zero, saturating.
    ///
    /// Built from one IEEE addition and one saturating float→int cast, both
    /// bit-deterministic. Values whose magnitude exceeds `i64` saturate; the
    /// resulting bin then fails the range check and the value is stored
    /// losslessly, so saturation is harmless.
    fn round_away_i64(self) -> i64;

    /// Truncate toward zero to the *bits-width* signed integer (`i32` for
    /// `f32`, `i64` for `f64`), saturating, widened to `i64`; NaN maps
    /// to 0.
    ///
    /// This is the bare bit-deterministic float→int cast of the branchless
    /// batch quantizers: `(|v| * scale + 0.5).trunc_sat_bin()` equals
    /// `|round_away_i64(v * scale)|` for every value whose bin fits the
    /// encodable range (`MANT_MASK`, 2^23 − 1 for f32). Values outside it —
    /// including NaN, which maps through 0 but then fails the bound check —
    /// fail the bin-range fast check and reroute to the scalar path, so
    /// saturation never changes the output. The width-matched conversion
    /// vectorizes (one `cvttps2dq`-class instruction per lane group), where
    /// f32→i64 would lower to scalar converts.
    fn trunc_sat_bin(self) -> i64;

    /// Exact ABS-bound check `|v - r| <= eb` (see [`crate::exact`]).
    fn abs_within(v: Self, r: Self, eb: Self) -> bool;
    /// Exact REL-bound check on magnitudes `|a - b| <= eb * a`
    /// (see [`crate::exact`]).
    fn rel_within_mag(a: Self, b: Self, eb: Self) -> bool;
}

impl PfplFloat for f32 {
    type Bits = u32;
    const MANT_BITS: u32 = 23;
    const SIGN_MASK: u32 = 0x8000_0000;
    const EXP_MASK: u32 = 0x7F80_0000;
    const MANT_MASK: u32 = 0x007F_FFFF;
    const MIN_NORMAL: f32 = f32::MIN_POSITIVE;
    const ZERO: f32 = 0.0;
    const PRECISION: crate::types::Precision = crate::types::Precision::Single;

    #[inline(always)]
    fn to_bits(self) -> u32 {
        f32::to_bits(self)
    }
    #[inline(always)]
    fn from_bits(bits: u32) -> Self {
        f32::from_bits(bits)
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn from_i64(v: i64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::from_bits(self.to_bits() & !Self::SIGN_MASK)
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn is_sign_negative(self) -> bool {
        self.to_bits() & Self::SIGN_MASK != 0
    }
    #[inline(always)]
    fn round_away_i64(self) -> i64 {
        if self >= 0.0 {
            (self + 0.5) as i64
        } else {
            (self - 0.5) as i64
        }
    }
    #[inline(always)]
    fn trunc_sat_bin(self) -> i64 {
        (self as i32) as i64
    }
    #[inline(always)]
    fn abs_within(v: Self, r: Self, eb: Self) -> bool {
        crate::exact::abs_within_f32(v, r, eb)
    }
    #[inline(always)]
    fn rel_within_mag(a: Self, b: Self, eb: Self) -> bool {
        crate::exact::rel_within_mag_f32(a, b, eb)
    }
}

impl PfplFloat for f64 {
    type Bits = u64;
    const MANT_BITS: u32 = 52;
    const SIGN_MASK: u64 = 0x8000_0000_0000_0000;
    const EXP_MASK: u64 = 0x7FF0_0000_0000_0000;
    const MANT_MASK: u64 = 0x000F_FFFF_FFFF_FFFF;
    const MIN_NORMAL: f64 = f64::MIN_POSITIVE;
    const ZERO: f64 = 0.0;
    const PRECISION: crate::types::Precision = crate::types::Precision::Double;

    #[inline(always)]
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    #[inline(always)]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn from_i64(v: i64) -> Self {
        v as f64
    }
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        self * rhs
    }
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline(always)]
    fn div(self, rhs: Self) -> Self {
        self / rhs
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::from_bits(self.to_bits() & !Self::SIGN_MASK)
    }
    #[inline(always)]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn is_sign_negative(self) -> bool {
        self.to_bits() & Self::SIGN_MASK != 0
    }
    #[inline(always)]
    fn round_away_i64(self) -> i64 {
        if self >= 0.0 {
            (self + 0.5) as i64
        } else {
            (self - 0.5) as i64
        }
    }
    #[inline(always)]
    fn trunc_sat_bin(self) -> i64 {
        self as i64
    }
    #[inline(always)]
    fn abs_within(v: Self, r: Self, eb: Self) -> bool {
        crate::exact::abs_within_f64(v, r, eb)
    }
    #[inline(always)]
    fn rel_within_mag(a: Self, b: Self, eb: Self) -> bool {
        crate::exact::rel_within_mag_f64(a, b, eb)
    }
}

/// Round an `f64` bound *toward zero* into precision `F`.
///
/// Converting e.g. `1e-3_f64` to `f32` rounds to nearest, which may yield a
/// value slightly **larger** than the requested bound; quantizing against
/// that would let reconstruction errors exceed the user's `f64` bound.
/// Rounding the bound down keeps the guarantee anchored to the value the
/// user actually asked for.
pub fn bound_toward_zero<F: PfplFloat>(eb: f64) -> F {
    let f = F::from_f64(eb);
    if f.to_f64() > eb {
        // Step one ULP toward zero. `f` is positive here (bounds are
        // validated > 0 before this is called).
        F::from_bits(f.to_bits().wrapping_sub(F::Bits::ONE))
    } else {
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_away_basics() {
        assert_eq!(0.4f64.round_away_i64(), 0);
        assert_eq!(0.5f64.round_away_i64(), 1);
        assert_eq!((-0.5f64).round_away_i64(), -1);
        assert_eq!((-0.4f64).round_away_i64(), 0);
        assert_eq!(2.5f32.round_away_i64(), 3);
        assert_eq!((-2.5f32).round_away_i64(), -3);
        assert_eq!((-0.0f32).round_away_i64(), 0);
    }

    #[test]
    fn round_away_saturates() {
        assert_eq!(f64::INFINITY.round_away_i64(), i64::MAX);
        assert_eq!(f64::NEG_INFINITY.round_away_i64(), i64::MIN);
        assert_eq!(1e300f64.round_away_i64(), i64::MAX);
    }

    #[test]
    fn masks_partition_the_word() {
        assert_eq!(
            f32::SIGN_MASK | f32::EXP_MASK | f32::MANT_MASK,
            u32::MAX
        );
        assert_eq!(f32::SIGN_MASK & f32::EXP_MASK, 0);
        assert_eq!(f32::EXP_MASK & f32::MANT_MASK, 0);
        assert_eq!(
            f64::SIGN_MASK | f64::EXP_MASK | f64::MANT_MASK,
            u64::MAX
        );
        assert_eq!(f64::SIGN_MASK & f64::EXP_MASK, 0);
        assert_eq!(f64::EXP_MASK & f64::MANT_MASK, 0);
    }

    #[test]
    fn bound_rounding_never_exceeds_request() {
        for &eb in &[1e-1, 1e-2, 1e-3, 1e-4, 0.3, 0.7, 1.0, 123.456] {
            let f: f32 = bound_toward_zero(eb);
            assert!(f.to_f64() <= eb, "bound {eb} rounded up to {f}");
            let d: f64 = bound_toward_zero(eb);
            assert!(d <= eb);
        }
    }

    #[test]
    fn abs_preserves_nan_payload() {
        let weird = f32::from_bits(0xFFC1_2345);
        let a = PfplFloat::abs(weird);
        assert!(a.is_nan());
        assert_eq!(a.to_bits(), 0x7FC1_2345);
    }
}
