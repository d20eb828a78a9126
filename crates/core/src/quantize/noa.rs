//! Normalized-absolute-error (NOA) bound derivation (paper §III-A).
//!
//! NOA is "a special case of ABS": the user bound `eb` is multiplied by the
//! value range `R = max − min` of the input, and the resulting absolute
//! bound drives the ordinary [`super::AbsQuantizer`]. The derived bound is
//! recorded in the archive header so decompression never needs the original
//! data (keeping the decoder embarrassingly parallel, §III-E).

use crate::exact::noa_within;
use crate::float::{PfplFloat, Word};
use crate::types::Mode;

/// Values per range-scan block.
const BLOCK: usize = 1 << 16;

/// Outcome of deriving the NOA absolute bound from the data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoaBound<F: PfplFloat> {
    /// A usable absolute bound `eb * (max - min)`.
    Abs(F),
    /// The derived bound is unusable (constant input, empty input, all-NaN
    /// input, or a non-finite range): compress in lossless passthrough mode.
    /// This is the only always-correct choice — any positive substitute
    /// bound could violate the mathematical NOA bound `eb * R`.
    Passthrough,
}

/// Scan the input for its range and derive the NOA absolute bound. The
/// scan folds 64 Ki-value blocks on `mode`'s threads, then folds their
/// `(lo, hi)` pairs in block order, so every mode gives the same bound.
///
/// NaNs are ignored by the scan; infinities make the range infinite, which
/// forces passthrough mode. `-0.0`/`+0.0` ties resolve either way without
/// affecting the result (`x - (-0.0) == x - 0.0` for the subtraction used).
///
/// The bound is `eb * (max - min)` rounded to nearest in `F`, stepped
/// toward zero while it exceeds the exact product ([`noa_within`]): the
/// two roundings can each add half an ulp, so at most two steps.
pub fn derive_noa_bound<F: PfplFloat>(data: &[F], eb: F, mode: Mode) -> NoaBound<F> {
    // Seed with (+∞, −∞) instead of folding Options: the inner loop is
    // then two branchless conditional moves per value, and NaNs fall out
    // for free (`NaN < lo` and `NaN > hi` are both false). Empty or
    // all-NaN input leaves the seeds crossed (`lo > hi`), which the
    // finite-bound check below converts to passthrough.
    let ident = (F::from_f64(f64::INFINITY), F::from_f64(f64::NEG_INFINITY));
    let fold = |(lo, hi): (F, F), v: &F| {
        let v = *v;
        (
            if v < lo { v } else { lo },
            if v > hi { v } else { hi },
        )
    };
    let combine = |a: (F, F), b: (F, F)| {
        (
            if b.0 < a.0 { b.0 } else { a.0 },
            if b.1 > a.1 { b.1 } else { a.1 },
        )
    };
    let scan = |_: &mut (), i: usize| {
        let block = &data[i * BLOCK..data.len().min((i + 1) * BLOCK)];
        block.iter().fold(ident, fold)
    };
    let blocks = rayon::map_claimed(data.len().div_ceil(BLOCK), mode.threads(), 1, || (), scan);
    let (lo, hi) = blocks.into_iter().fold(ident, combine);
    if !(lo <= hi) {
        return NoaBound::Passthrough;
    }
    // range = max - min; abs = eb * range, both in F's arithmetic.
    let range = hi.add(F::from_bits(lo.to_bits() ^ F::SIGN_MASK));
    let mut abs = eb.mul(range);
    let usable = |abs: F| abs.is_finite() && abs >= F::MIN_NORMAL;
    for _ in 0..2 {
        if !usable(abs) || noa_within(abs.to_f64(), eb.to_f64(), lo.to_f64(), hi.to_f64()) {
            break;
        }
        abs = F::from_bits(abs.to_bits().wrapping_sub(F::Bits::ONE));
    }
    if usable(abs) {
        NoaBound::Abs(abs)
    } else {
        NoaBound::Passthrough
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_range() {
        let data = vec![1.0f32, -3.0, 2.0, 0.5];
        // range = 5, eb = 0.01 → abs = 0.05
        match derive_noa_bound(&data, 0.01f32, Mode::Parallel) {
            NoaBound::Abs(b) => assert!((b - 0.05).abs() < 1e-7, "{b}"),
            NoaBound::Passthrough => panic!("expected usable bound"),
        }
    }

    #[test]
    fn nan_ignored() {
        let data = vec![f32::NAN, 1.0, f32::NAN, 3.0];
        match derive_noa_bound(&data, 0.5f32, Mode::Parallel) {
            NoaBound::Abs(b) => assert!((b - 1.0).abs() < 1e-6),
            NoaBound::Passthrough => panic!(),
        }
    }

    #[test]
    fn degenerate_inputs_passthrough() {
        assert_eq!(
            derive_noa_bound(&[] as &[f32], 0.1, Mode::Parallel),
            NoaBound::Passthrough
        );
        assert_eq!(
            derive_noa_bound(&[7.5f32; 100], 0.1, Mode::Parallel),
            NoaBound::Passthrough,
            "zero range"
        );
        assert_eq!(
            derive_noa_bound(&[f32::NAN; 4], 0.1, Mode::Parallel),
            NoaBound::Passthrough
        );
        assert_eq!(
            derive_noa_bound(&[f32::NEG_INFINITY, 1.0], 0.1, Mode::Parallel),
            NoaBound::Passthrough,
            "infinite range"
        );
        assert_eq!(
            derive_noa_bound(&[f32::MIN, f32::MAX], 0.5, Mode::Parallel),
            NoaBound::Passthrough,
            "range overflows f32"
        );
    }

    #[test]
    fn matches_serial_scan_on_large_input() {
        let data: Vec<f64> = (0..200_000)
            .map(|i| ((i * 2654435761u64 % 1000003) as f64) * 1e-3 - 500.0)
            .collect();
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for mode in [Mode::Serial, Mode::Parallel] {
            match derive_noa_bound(&data, 1e-3f64, mode) {
                NoaBound::Abs(b) => assert_eq!(b, 1e-3 * (hi - lo)),
                NoaBound::Passthrough => panic!(),
            }
        }
    }
}
