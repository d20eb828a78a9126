//! SZ2-style compressor \[23\]: Lorenzo prediction + error-controlled
//! quantization + Huffman(+LZ), serial CPU.
//!
//! Supports all three bound types (the only comparator that does,
//! Table III), but REL goes through a logarithm-domain transform whose
//! `ln`/`exp` round trip is *not* verified against the value-domain bound —
//! reproducing the paper's finding that SZ2 "fails to guarantee the error
//! bound when using REL" while ABS and NOA adhere (their quantizer verifies
//! reconstructions and falls back to outliers).

use crate::common::{
    dequantize_symbol, entropy_backend, entropy_backend_decode, finite_range, lorenzo_predict,
    quantize_error_verified, read_outliers, write_outliers, BaseHeader, ByteReader, ByteWriter,
    OUTLIER_SYM, QUANT_RADIUS,
};
use crate::{BaselineError, Capabilities, Compressor, ErrorBound, Result, Support};
use pfpl::float::PfplFloat;
use pfpl::types::BoundKind;

const MAGIC: u32 = u32::from_le_bytes(*b"SZ2\0");

/// The SZ2 comparator.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sz2;

fn compress_impl<F: PfplFloat>(data: &[F], dims: &[usize], bound: ErrorBound) -> Result<Vec<u8>> {
    if dims.iter().product::<usize>() != data.len() {
        return Err(BaselineError::Corrupt(format!(
            "dims {dims:?} do not match {} values",
            data.len()
        )));
    }
    let eb = bound.value();
    if !(eb > 0.0) || !eb.is_finite() {
        return Err(BaselineError::Unsupported(format!("bad bound {eb}")));
    }
    let (kind, param) = match bound {
        ErrorBound::Abs(_) => (BoundKind::Abs, eb),
        ErrorBound::Noa(_) => {
            let range = finite_range(data).unwrap_or(0.0);
            let abs = eb * range;
            if !(abs > 0.0) {
                return Err(BaselineError::Unsupported(
                    "NOA on constant/degenerate data".into(),
                ));
            }
            (BoundKind::Noa, abs)
        }
        ErrorBound::Rel(_) => (BoundKind::Rel, 0.0),
    };

    let mut w = ByteWriter::new();
    BaseHeader {
        magic: MAGIC,
        double: F::PRECISION == pfpl::types::Precision::Double,
        kind,
        eb,
        param,
        dims: dims.to_vec(),
    }
    .write(&mut w);

    match kind {
        BoundKind::Abs | BoundKind::Noa => compress_abs_body(data, dims, param, &mut w),
        BoundKind::Rel => compress_rel_body(data, eb, &mut w),
    }
    Ok(w.into_vec())
}

/// ABS/NOA: Lorenzo + verified quantization + entropy backend.
fn compress_abs_body<F: PfplFloat>(data: &[F], dims: &[usize], abs_eb: f64, w: &mut ByteWriter) {
    let eb2 = F::from_f64(abs_eb * 2.0);
    let mut recon = vec![F::ZERO; data.len()];
    let mut syms: Vec<u16> = Vec::with_capacity(data.len());
    let mut outliers: Vec<F::Bits> = Vec::new();
    for (idx, &v) in data.iter().enumerate() {
        let pred = lorenzo_predict(&recon, idx, dims);
        match if v.is_finite() {
            quantize_error_verified(v, pred, eb2, abs_eb)
        } else {
            None
        } {
            Some((sym, r)) => {
                recon[idx] = r;
                syms.push(sym);
            }
            None => {
                recon[idx] = v;
                syms.push(OUTLIER_SYM);
                outliers.push(v.to_bits());
            }
        }
    }
    write_outliers::<F>(&outliers, w);
    w.block(&entropy_backend(&syms));
}

/// REL: logarithm-domain ABS quantization (the unverified transform of
/// \[22\] that produces SZ2's REL violations). Signs are a bitmap; zeros and
/// non-finite values are outliers.
fn compress_rel_body<F: PfplFloat>(data: &[F], eb: f64, w: &mut ByteWriter) {
    let leb2 = 2.0 * (1.0 + eb).ln();
    let mut signs = vec![0u8; data.len().div_ceil(8)];
    let mut syms: Vec<u16> = Vec::with_capacity(data.len());
    let mut outliers: Vec<F::Bits> = Vec::new();
    let mut prev_l = 0.0f64; // 1D Lorenzo in log space
    for (idx, &v) in data.iter().enumerate() {
        let x = v.to_f64();
        if v.is_sign_negative() {
            signs[idx >> 3] |= 1 << (idx & 7);
        }
        if !x.is_finite() || x == 0.0 {
            syms.push(OUTLIER_SYM);
            outliers.push(v.to_bits());
            // keep prev_l unchanged
            continue;
        }
        let l = x.abs().ln();
        let code = ((l - prev_l) / leb2).round() as i64;
        if code.unsigned_abs() > QUANT_RADIUS as u64 {
            syms.push(OUTLIER_SYM);
            outliers.push(v.to_bits());
            continue;
        }
        let lr = prev_l + code as f64 * leb2;
        // NOTE: no verification that exp(lr) is within (1+eb) of |x| —
        // this is the violation source the paper reports.
        syms.push((code + QUANT_RADIUS + 1) as u16);
        prev_l = lr;
    }
    w.bytes(&signs);
    write_outliers::<F>(&outliers, w);
    w.block(&entropy_backend(&syms));
}

fn decompress_impl<F: PfplFloat>(archive: &[u8]) -> Result<Vec<F>> {
    let mut r = ByteReader::new(archive);
    let h = BaseHeader::read(&mut r, MAGIC)?;
    if h.double != (F::PRECISION == pfpl::types::Precision::Double) {
        return Err(BaselineError::Corrupt("precision mismatch".into()));
    }
    let n = h.count();
    match h.kind {
        BoundKind::Abs | BoundKind::Noa => {
            let outliers = read_outliers::<F>(&mut r)?;
            let syms = entropy_backend_decode(r.block()?)?;
            if syms.len() != n {
                return Err(BaselineError::Corrupt(format!(
                    "expected {n} symbols, got {}",
                    syms.len()
                )));
            }
            let eb2 = F::from_f64(h.param * 2.0);
            let mut out = vec![F::ZERO; n];
            let mut oi = 0usize;
            for idx in 0..n {
                if syms[idx] == OUTLIER_SYM {
                    let bits = *outliers
                        .get(oi)
                        .ok_or_else(|| BaselineError::Corrupt("outlier underrun".into()))?;
                    oi += 1;
                    out[idx] = F::from_bits(bits);
                } else {
                    let pred = lorenzo_predict(&out, idx, &h.dims);
                    out[idx] = dequantize_symbol(syms[idx], pred, eb2);
                }
            }
            Ok(out)
        }
        BoundKind::Rel => {
            let signs = r.bytes(n.div_ceil(8))?.to_vec();
            let outliers = read_outliers::<F>(&mut r)?;
            let syms = entropy_backend_decode(r.block()?)?;
            if syms.len() != n {
                return Err(BaselineError::Corrupt("symbol count mismatch".into()));
            }
            let leb2 = 2.0 * (1.0 + h.eb).ln();
            let mut out = vec![F::ZERO; n];
            let mut prev_l = 0.0f64;
            let mut oi = 0usize;
            for idx in 0..n {
                if syms[idx] == OUTLIER_SYM {
                    let bits = *outliers
                        .get(oi)
                        .ok_or_else(|| BaselineError::Corrupt("outlier underrun".into()))?;
                    oi += 1;
                    out[idx] = F::from_bits(bits);
                } else {
                    let code = syms[idx] as i64 - (QUANT_RADIUS + 1);
                    let lr = prev_l + code as f64 * leb2;
                    prev_l = lr;
                    let mag = lr.exp();
                    let neg = signs[idx >> 3] >> (idx & 7) & 1 == 1;
                    out[idx] = F::from_f64(if neg { -mag } else { mag });
                }
            }
            Ok(out)
        }
    }
}

impl Compressor for Sz2 {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "SZ2",
            abs: Support::Guaranteed,
            rel: Support::Unguaranteed,
            noa: Support::Guaranteed,
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

    fn smooth_3d(dims: [usize; 3]) -> Vec<f32> {
        let mut v = Vec::new();
        for z in 0..dims[0] {
            for y in 0..dims[1] {
                for x in 0..dims[2] {
                    v.push(
                        ((x as f32) * 0.1).sin() * 10.0
                            + ((y as f32) * 0.07).cos() * 5.0
                            + z as f32 * 0.01,
                    );
                }
            }
        }
        v
    }

    #[test]
    fn abs_roundtrip_within_bound() {
        let dims = [8usize, 32, 32];
        let data = smooth_3d(dims);
        let eb = 1e-3;
        let arch = Sz2.compress_f32(&data, &dims, ErrorBound::Abs(eb)).unwrap();
        let back = Sz2.decompress_f32(&arch).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((*a as f64 - *b as f64).abs() <= eb, "a={a} b={b}");
        }
        assert!(
            arch.len() < data.len() * 4 / 4,
            "ratio: {}",
            data.len() * 4 / arch.len()
        );
    }

    #[test]
    fn abs_compresses_smooth_data_well() {
        let dims = [8usize, 64, 64];
        let data = smooth_3d(dims);
        let arch = Sz2
            .compress_f32(&data, &dims, ErrorBound::Abs(1e-2))
            .unwrap();
        let ratio = (data.len() * 4) as f64 / arch.len() as f64;
        assert!(ratio > 8.0, "Lorenzo+Huffman should excel here: {ratio:.1}");
    }

    #[test]
    fn rel_roundtrip_mostly_within_bound() {
        let data: Vec<f32> = (0..20_000)
            .map(|i| ((i as f32 * 0.01).sin() + 2.0) * 10f32.powi(i % 5))
            .collect();
        let eb = 1e-2;
        let arch = Sz2
            .compress_f32(&data, &[data.len()], ErrorBound::Rel(eb))
            .unwrap();
        let back = Sz2.decompress_f32(&arch).unwrap();
        // SZ2's REL is *not* guaranteed; assert the bulk is in bound and
        // signs are preserved.
        let mut violations = 0;
        for (a, b) in data.iter().zip(&back) {
            let rel = ((*a as f64 - *b as f64) / *a as f64).abs();
            if rel > eb {
                violations += 1;
            }
            assert_eq!(a.is_sign_negative(), b.is_sign_negative());
        }
        assert!(violations < data.len() / 10, "{violations} violations");
    }

    #[test]
    fn noa_derives_range() {
        let data = smooth_3d([4, 16, 16]);
        let arch = Sz2
            .compress_f32(&data, &[4, 16, 16], ErrorBound::Noa(1e-3))
            .unwrap();
        let back = Sz2.decompress_f32(&arch).unwrap();
        let range = 30.0; // generous upper bound on the synthetic range
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 1e-3 * range);
        }
    }

    #[test]
    fn f64_roundtrip() {
        let data: Vec<f64> = (0..10_000)
            .map(|i| (i as f64 * 0.001).cos() * 42.0)
            .collect();
        let arch = Sz2
            .compress_f64(&data, &[data.len()], ErrorBound::Abs(1e-8))
            .unwrap();
        let back = Sz2.decompress_f64(&arch).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 1e-8);
        }
    }

    #[test]
    fn specials_become_outliers() {
        let mut data = smooth_3d([2, 8, 8]);
        data[5] = f32::NAN;
        data[9] = f32::INFINITY;
        let arch = Sz2
            .compress_f32(&data, &[2, 8, 8], ErrorBound::Abs(1e-3))
            .unwrap();
        let back = Sz2.decompress_f32(&arch).unwrap();
        assert!(back[5].is_nan());
        assert_eq!(back[9], f32::INFINITY);
    }

    #[test]
    fn corrupt_archive_errors() {
        let data = smooth_3d([2, 8, 8]);
        let arch = Sz2
            .compress_f32(&data, &[2, 8, 8], ErrorBound::Abs(1e-3))
            .unwrap();
        for cut in [0usize, 4, 10, arch.len() / 2] {
            assert!(Sz2.decompress_f32(&arch[..cut]).is_err());
        }
    }
}
