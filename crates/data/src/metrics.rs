//! Reconstruction-quality and aggregation metrics used by the evaluation.
//!
//! The paper reports compression ratio, throughput, PSNR (Fig. 16), and
//! uses the *geometric mean of per-suite geometric means* "so as not to
//! overemphasize suites with more files" (§IV); error-bound *violations*
//! are classified minor (< 1.5×) or major (≥ 1.5×) as in §V-B.

/// Peak signal-to-noise ratio in dB: `20·log10(range / RMSE)`.
///
/// Returns `f64::INFINITY` for a perfect reconstruction and `f64::NAN`
/// for empty input.
pub fn psnr(orig: &[f64], recon: &[f64]) -> f64 {
    assert_eq!(orig.len(), recon.len());
    if orig.is_empty() {
        return f64::NAN;
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let mut se = 0.0f64;
    for (&a, &b) in orig.iter().zip(recon) {
        lo = lo.min(a);
        hi = hi.max(a);
        let d = a - b;
        se += d * d;
    }
    let range = hi - lo;
    let rmse = (se / orig.len() as f64).sqrt();
    if rmse == 0.0 {
        f64::INFINITY
    } else {
        20.0 * (range / rmse).log10()
    }
}

/// Maximum point-wise absolute error.
pub fn max_abs_err(orig: &[f64], recon: &[f64]) -> f64 {
    orig.iter()
        .zip(recon)
        .map(|(&a, &b)| (a - b).abs())
        .fold(0.0, f64::max)
}

/// Maximum point-wise relative error (`|a-b| / |a|`), skipping exact zeros
/// in the original.
pub fn max_rel_err(orig: &[f64], recon: &[f64]) -> f64 {
    orig.iter()
        .zip(recon)
        .filter(|(&a, _)| a != 0.0)
        .map(|(&a, &b)| ((a - b) / a).abs())
        .fold(0.0, f64::max)
}

/// Maximum normalized absolute error: max abs error divided by the
/// original's value range.
pub fn max_noa_err(orig: &[f64], recon: &[f64]) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &a in orig {
        lo = lo.min(a);
        hi = hi.max(a);
    }
    let range = hi - lo;
    if range == 0.0 {
        return if max_abs_err(orig, recon) == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
    }
    max_abs_err(orig, recon) / range
}

/// Classification of an observed maximum error against the requested bound
/// (§V-B: minor < 1.5× the bound, major ≥ 1.5×).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundAdherence {
    /// Error within the bound.
    Respected,
    /// Violated by less than 1.5×.
    MinorViolation,
    /// Violated by at least 1.5×.
    MajorViolation,
}

/// Classify `observed_max_err` against `bound`, with a one-ulp measurement
/// tolerance so float noise in the *metric* never misclassifies.
pub fn classify(observed_max_err: f64, bound: f64) -> BoundAdherence {
    if observed_max_err <= bound * (1.0 + 1e-12) {
        BoundAdherence::Respected
    } else if observed_max_err < bound * 1.5 {
        BoundAdherence::MinorViolation
    } else {
        BoundAdherence::MajorViolation
    }
}

/// Geometric mean; ignores nothing, so callers filter non-positive values.
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return f64::NAN;
    }
    let s: f64 = vals.iter().map(|v| v.ln()).sum();
    (s / vals.len() as f64).exp()
}

/// The paper's aggregation: geometric mean of per-suite geometric means.
pub fn geomean_of_geomeans(per_suite: &[Vec<f64>]) -> f64 {
    let means: Vec<f64> = per_suite
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| geomean(v))
        .collect();
    geomean(&means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psnr_basics() {
        let orig = vec![0.0, 1.0, 2.0, 3.0];
        assert_eq!(psnr(&orig, &orig), f64::INFINITY);
        let recon = vec![0.1, 1.1, 2.1, 3.1];
        let p = psnr(&orig, &recon);
        // range 3, rmse 0.1 → 20log10(30) ≈ 29.54
        assert!((p - 29.54).abs() < 0.01, "{p}");
    }

    #[test]
    fn error_metrics() {
        let orig = vec![1.0, -2.0, 0.0, 4.0];
        let recon = vec![1.5, -2.0, 0.25, 4.0];
        assert_eq!(max_abs_err(&orig, &recon), 0.5);
        assert_eq!(max_rel_err(&orig, &recon), 0.5);
        // range = 6 → noa = 0.5/6
        assert!((max_noa_err(&orig, &recon) - 0.5 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(classify(0.9e-3, 1e-3), BoundAdherence::Respected);
        assert_eq!(classify(1e-3, 1e-3), BoundAdherence::Respected);
        assert_eq!(classify(1.2e-3, 1e-3), BoundAdherence::MinorViolation);
        assert_eq!(classify(1.5e-3, 1e-3), BoundAdherence::MajorViolation);
        assert_eq!(classify(7e-3, 1e-3), BoundAdherence::MajorViolation);
    }

    #[test]
    fn geomean_properties() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        // Of-geomeans weights suites equally regardless of file counts.
        let suites = vec![vec![2.0, 2.0, 2.0, 2.0], vec![8.0]];
        assert!((geomean_of_geomeans(&suites) - 4.0).abs() < 1e-12);
        let suites = vec![vec![4.0, 4.0, 4.0], vec![16.0]];
        assert!((geomean_of_geomeans(&suites) - 8.0).abs() < 1e-12);
    }
}
