//! SPERR-style compressor \[21\]: CDF 9/7 wavelet lifting + coefficient
//! coding + outlier correction, with an LZ backend (the ZSTD stand-in).
//!
//! SPERR applies recursive wavelet transforms, codes the coefficients
//! progressively, and — unlike most transform coders — *detects values
//! that miss the error bound and stores corrections for them*. This
//! reproduction keeps that architecture: multilevel CDF 9/7 lifting,
//! uniform coefficient quantization, a full decode-back pass on the
//! encoder, and a correction list for every value found outside the
//! bound. The correction check is a plain float comparison, so marginal
//! mis-roundings can survive — the "minor violations" the paper observes
//! at the 1e-2 bound (§V-B).
//!
//! Only 3D inputs are accepted (the paper compares against SPERR-3D and
//! excludes non-3D suites for it) and only the ABS bound type (Table III).

use crate::common::{
    entropy_backend, entropy_backend_decode, read_outliers, write_outliers, BaseHeader, ByteReader,
    ByteWriter, OUTLIER_SYM, QUANT_RADIUS,
};
use crate::{BaselineError, Capabilities, Compressor, ErrorBound, Result, Support};
use pfpl::float::{PfplFloat, Word};
use pfpl::types::BoundKind;

const MAGIC: u32 = u32::from_le_bytes(*b"SPRR");

/// CDF 9/7 lifting constants.
const ALPHA: f64 = -1.586_134_342_059_924;
const BETA: f64 = -0.052_980_118_572_961;
const GAMMA: f64 = 0.882_911_075_530_934;
const DELTA: f64 = 0.443_506_852_043_971;
const KAPPA: f64 = 1.230_174_104_914_001;

/// The SPERR comparator.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sperr;

/// One forward CDF 9/7 lifting pass over `v[0..n]` (n >= 2), splitting
/// into approx (even) and detail (odd) halves in place via a scratch.
fn fwd_dwt97(v: &mut [f64]) {
    let n = v.len();
    if n < 2 {
        return;
    }
    // Symmetric extension accessor.
    let at = |v: &[f64], i: isize| -> f64 {
        let n = v.len() as isize;
        let i = if i < 0 {
            -i
        } else if i >= n {
            2 * n - 2 - i
        } else {
            i
        };
        v[i.clamp(0, n - 1) as usize]
    };
    // Predict/update lifting on interleaved signal.
    let mut s = v.to_vec();
    // alpha: d[i] += alpha * (s[i-1] + s[i+1]) for odd i
    for i in (1..n).step_by(2) {
        s[i] += ALPHA * (at(&s, i as isize - 1) + at(&s, i as isize + 1));
    }
    for i in (0..n).step_by(2) {
        s[i] += BETA * (at(&s, i as isize - 1) + at(&s, i as isize + 1));
    }
    for i in (1..n).step_by(2) {
        s[i] += GAMMA * (at(&s, i as isize - 1) + at(&s, i as isize + 1));
    }
    for i in (0..n).step_by(2) {
        s[i] += DELTA * (at(&s, i as isize - 1) + at(&s, i as isize + 1));
    }
    // Scale and de-interleave: approx first, then details.
    let half = n.div_ceil(2);
    for i in 0..n {
        if i % 2 == 0 {
            v[i / 2] = s[i] * KAPPA;
        } else {
            v[half + i / 2] = s[i] / KAPPA;
        }
    }
}

/// Inverse of [`fwd_dwt97`].
fn inv_dwt97(v: &mut [f64]) {
    let n = v.len();
    if n < 2 {
        return;
    }
    let half = n.div_ceil(2);
    let mut s = vec![0.0f64; n];
    for i in 0..n {
        if i % 2 == 0 {
            s[i] = v[i / 2] / KAPPA;
        } else {
            s[i] = v[half + i / 2] * KAPPA;
        }
    }
    let at = |v: &[f64], i: isize| -> f64 {
        let n = v.len() as isize;
        let i = if i < 0 {
            -i
        } else if i >= n {
            2 * n - 2 - i
        } else {
            i
        };
        v[i.clamp(0, n - 1) as usize]
    };
    for i in (0..n).step_by(2) {
        s[i] -= DELTA * (at(&s, i as isize - 1) + at(&s, i as isize + 1));
    }
    for i in (1..n).step_by(2) {
        s[i] -= GAMMA * (at(&s, i as isize - 1) + at(&s, i as isize + 1));
    }
    for i in (0..n).step_by(2) {
        s[i] -= BETA * (at(&s, i as isize - 1) + at(&s, i as isize + 1));
    }
    for i in (1..n).step_by(2) {
        s[i] -= ALPHA * (at(&s, i as isize - 1) + at(&s, i as isize + 1));
    }
    v.copy_from_slice(&s);
}

/// Number of multilevel passes for a length.
fn levels_for(n: usize) -> usize {
    let mut l = 0;
    let mut m = n;
    while m >= 16 && l < 6 {
        m = m.div_ceil(2);
        l += 1;
    }
    l
}

/// Multilevel forward transform (recursing on the approximation prefix).
fn fwd_multi(v: &mut [f64]) {
    let mut m = v.len();
    for _ in 0..levels_for(v.len()) {
        fwd_dwt97(&mut v[..m]);
        m = m.div_ceil(2);
    }
}

/// Multilevel inverse transform.
fn inv_multi(v: &mut [f64]) {
    let l = levels_for(v.len());
    let mut sizes = Vec::with_capacity(l);
    let mut m = v.len();
    for _ in 0..l {
        sizes.push(m);
        m = m.div_ceil(2);
    }
    for &m in sizes.iter().rev() {
        inv_dwt97(&mut v[..m]);
    }
}

fn compress_impl<F: PfplFloat>(data: &[F], dims: &[usize], bound: ErrorBound) -> Result<Vec<u8>> {
    if dims.len() != 3 {
        return Err(BaselineError::Unsupported(
            "SPERR-3D accepts only 3D inputs (§IV)".into(),
        ));
    }
    if dims.iter().product::<usize>() != data.len() {
        return Err(BaselineError::Corrupt("dims mismatch".into()));
    }
    let ErrorBound::Abs(eb) = bound else {
        return Err(BaselineError::Unsupported(
            "SPERR supports only ABS (Table III)".into(),
        ));
    };
    if !(eb > 0.0) || !eb.is_finite() {
        return Err(BaselineError::Unsupported(format!("bad bound {eb}")));
    }
    if !data.iter().all(|v| v.is_finite()) {
        return Err(BaselineError::Unsupported(
            "wavelet transform requires finite values".into(),
        ));
    }

    // Forward transform.
    let mut coeffs: Vec<f64> = data.iter().map(|v| v.to_f64()).collect();
    fwd_multi(&mut coeffs);

    // Uniform coefficient quantization at half the target bound (wavelet
    // synthesis roughly preserves magnitudes; corrections mop up misses).
    let step = eb;
    let mut syms = Vec::with_capacity(coeffs.len());
    let mut outliers: Vec<<F as PfplFloat>::Bits> = Vec::new();
    let mut deq = vec![0.0f64; coeffs.len()];
    for (i, &c) in coeffs.iter().enumerate() {
        let code = (c / step).round() as i64;
        if code.unsigned_abs() <= QUANT_RADIUS as u64 {
            syms.push((code + QUANT_RADIUS + 1) as u16);
            deq[i] = code as f64 * step;
        } else {
            // Coefficient outlier: stored as its f64 bits in two halves
            // for f32 data; keep it simple by storing a rounded F value.
            syms.push(OUTLIER_SYM);
            outliers.push(F::from_f64(c).to_bits());
            deq[i] = F::from_f64(c).to_f64();
        }
    }

    // Decode-back pass: reconstruct and find bound violations.
    inv_multi(&mut deq);
    let mut corrections: Vec<(u64, <F as PfplFloat>::Bits)> = Vec::new();
    for (i, v) in data.iter().enumerate() {
        let r = F::from_f64(deq[i]);
        if !((v.to_f64() - r.to_f64()).abs() <= eb) {
            corrections.push((i as u64, v.to_bits()));
        }
    }

    let mut w = ByteWriter::new();
    BaseHeader {
        magic: MAGIC,
        double: F::PRECISION == pfpl::types::Precision::Double,
        kind: BoundKind::Abs,
        eb,
        param: step,
        dims: dims.to_vec(),
    }
    .write(&mut w);
    write_outliers::<F>(&outliers, &mut w);
    w.u64(corrections.len() as u64);
    let wb = <<F as PfplFloat>::Bits as Word>::BITS as usize / 8;
    let mut tmp = vec![0u8; wb];
    for (idx, bits) in &corrections {
        w.u64(*idx);
        bits.write_le(&mut tmp);
        w.bytes(&tmp);
    }
    w.block(&entropy_backend(&syms));
    Ok(w.into_vec())
}

fn decompress_impl<F: PfplFloat>(archive: &[u8]) -> Result<Vec<F>> {
    let mut r = ByteReader::new(archive);
    let h = BaseHeader::read(&mut r, MAGIC)?;
    if h.double != (F::PRECISION == pfpl::types::Precision::Double) {
        return Err(BaselineError::Corrupt("precision mismatch".into()));
    }
    let n = h.count();
    let outliers = read_outliers::<F>(&mut r)?;
    let ncorr = r.u64()? as usize;
    let wb = <<F as PfplFloat>::Bits as Word>::BITS as usize / 8;
    let mut corrections = Vec::with_capacity(ncorr.min(1 << 20));
    for _ in 0..ncorr {
        let idx = r.u64()? as usize;
        let bits = <F as PfplFloat>::Bits::read_le(r.bytes(wb)?);
        corrections.push((idx, bits));
    }
    let syms = entropy_backend_decode(r.block()?)?;
    if syms.len() != n {
        return Err(BaselineError::Corrupt("symbol count mismatch".into()));
    }
    let mut deq = vec![0.0f64; n];
    let mut oi = 0usize;
    for (i, &s) in syms.iter().enumerate() {
        if s == OUTLIER_SYM {
            let bits = *outliers
                .get(oi)
                .ok_or_else(|| BaselineError::Corrupt("outlier underrun".into()))?;
            oi += 1;
            deq[i] = F::from_bits(bits).to_f64();
        } else {
            deq[i] = (s as i64 - (QUANT_RADIUS + 1)) as f64 * h.param;
        }
    }
    inv_multi(&mut deq);
    let mut out: Vec<F> = deq.into_iter().map(F::from_f64).collect();
    for (idx, bits) in corrections {
        if idx >= out.len() {
            return Err(BaselineError::Corrupt(
                "correction index out of range".into(),
            ));
        }
        out[idx] = F::from_bits(bits);
    }
    Ok(out)
}

impl Compressor for Sperr {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "SPERR",
            abs: Support::Unguaranteed,
            rel: Support::No,
            noa: Support::No,
            float: true,
            double: true,
            cpu: true,
            gpu: false,
        }
    }
    fn compress_f32(&self, data: &[f32], dims: &[usize], bound: ErrorBound) -> Result<Vec<u8>> {
        compress_impl(data, dims, bound)
    }
    fn decompress_f32(&self, archive: &[u8]) -> Result<Vec<f32>> {
        decompress_impl(archive)
    }
    fn compress_f64(&self, data: &[f64], dims: &[usize], bound: ErrorBound) -> Result<Vec<u8>> {
        compress_impl(data, dims, bound)
    }
    fn decompress_f64(&self, archive: &[u8]) -> Result<Vec<f64>> {
        decompress_impl(archive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dwt97_roundtrip_is_near_exact() {
        let orig: Vec<f64> = (0..128).map(|i| (i as f64 * 0.2).sin() * 7.0).collect();
        let mut v = orig.clone();
        fwd_dwt97(&mut v);
        inv_dwt97(&mut v);
        for (a, b) in orig.iter().zip(&v) {
            assert!((a - b).abs() < 1e-9, "a={a} b={b}");
        }
    }

    #[test]
    fn multilevel_roundtrip() {
        let orig: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.013).cos() * 3.0).collect();
        let mut v = orig.clone();
        fwd_multi(&mut v);
        inv_multi(&mut v);
        for (a, b) in orig.iter().zip(&v) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn smooth_signal_concentrates_energy() {
        let mut v: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.01).sin() * 100.0).collect();
        fwd_multi(&mut v);
        // Detail coefficients (tail) should be tiny vs approximation head.
        let head: f64 = v[..64].iter().map(|c| c.abs()).sum();
        let tail: f64 = v[512..].iter().map(|c| c.abs()).sum();
        assert!(head > tail * 10.0, "head={head} tail={tail}");
    }

    fn smooth_3d(dims: [usize; 3]) -> Vec<f32> {
        let mut v = Vec::new();
        for z in 0..dims[0] {
            for y in 0..dims[1] {
                for x in 0..dims[2] {
                    v.push(((x as f32) * 0.1).sin() * 5.0 + ((y + z) as f32 * 0.05).cos() * 2.0);
                }
            }
        }
        v
    }

    #[test]
    fn abs_roundtrip_with_corrections() {
        let dims = [8usize, 24, 24];
        let data = smooth_3d(dims);
        let eb = 1e-3;
        let arch = Sperr
            .compress_f32(&data, &dims, ErrorBound::Abs(eb))
            .unwrap();
        let back = Sperr.decompress_f32(&arch).unwrap();
        for (a, b) in data.iter().zip(&back) {
            // Corrections replace violators with exact values, so the
            // reconstruction respects the bound here.
            assert!((*a as f64 - *b as f64).abs() <= eb, "a={a} b={b}");
        }
        assert!(arch.len() < data.len() * 4, "must compress");
    }

    #[test]
    fn only_abs_3d() {
        let d = smooth_3d([4, 4, 4]);
        assert!(Sperr
            .compress_f32(&d, &[64], ErrorBound::Abs(1e-3))
            .is_err());
        assert!(Sperr
            .compress_f32(&d, &[4, 4, 4], ErrorBound::Rel(1e-3))
            .is_err());
        assert!(Sperr
            .compress_f32(&d, &[4, 4, 4], ErrorBound::Noa(1e-3))
            .is_err());
    }

    #[test]
    fn f64_roundtrip() {
        let dims = [8usize, 8, 8];
        let data: Vec<f64> = (0..512).map(|i| (i as f64 * 0.03).sin()).collect();
        let arch = Sperr
            .compress_f64(&data, &dims, ErrorBound::Abs(1e-6))
            .unwrap();
        let back = Sperr.decompress_f64(&arch).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 1e-6);
        }
    }
}
