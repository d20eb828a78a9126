//! MGARD-style compressor [6, 25]: multigrid hierarchical data refactoring
//! with quantized correction coefficients.
//!
//! MGARD decomposes the data into a hierarchy of grids; each level stores
//! the corrections needed to refine the coarser level's interpolation.
//! This reproduction implements the interpolation-basis variant of that
//! decomposition (the multilevel ladder), computes every coefficient from
//! the **original** values, and quantizes the coefficients uniformly.
//! Reconstruction re-interpolates from *dequantized* coarse values, so
//! quantization errors accumulate across levels — which is why MGARD-X
//! does not guarantee the point-wise bound (Table III: ○ for ABS/NOA, with
//! the paper reporting major violations on double-precision inputs).
//!
//! Like MGARD-X, this is the only comparator that also runs on the "GPU"
//! (the harness schedules it on the simulated device side as well).

use crate::common::{
    entropy_backend, entropy_backend_decode, finite_range, ladder_walk, predict_ladder,
    read_outliers, write_outliers, BaseHeader, ByteReader, ByteWriter, OUTLIER_SYM, QUANT_RADIUS,
};
use crate::{BaselineError, Capabilities, Compressor, ErrorBound, Result, Support};
use pfpl::float::PfplFloat;
use pfpl::types::BoundKind;

const MAGIC: u32 = u32::from_le_bytes(*b"MGRD");

/// The MGARD-X comparator.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mgard;

fn compress_impl<F: PfplFloat>(data: &[F], dims: &[usize], bound: ErrorBound) -> Result<Vec<u8>> {
    if dims.iter().product::<usize>() != data.len() {
        return Err(BaselineError::Corrupt("dims mismatch".into()));
    }
    let eb = bound.value();
    if !(eb > 0.0) || !eb.is_finite() {
        return Err(BaselineError::Unsupported(format!("bad bound {eb}")));
    }
    let (kind, abs_eb) = match bound {
        ErrorBound::Abs(_) => (BoundKind::Abs, eb),
        ErrorBound::Noa(_) => {
            let range = finite_range(data).unwrap_or(0.0);
            let abs = eb * range;
            if !(abs > 0.0) {
                return Err(BaselineError::Unsupported("degenerate NOA range".into()));
            }
            (BoundKind::Noa, abs)
        }
        ErrorBound::Rel(_) => {
            return Err(BaselineError::Unsupported(
                "MGARD-X does not support REL (Table III)".into(),
            ))
        }
    };
    let mut w = ByteWriter::new();
    BaseHeader {
        magic: MAGIC,
        double: F::PRECISION == pfpl::types::Precision::Double,
        kind,
        eb,
        param: abs_eb,
        dims: dims.to_vec(),
    }
    .write(&mut w);

    // Coefficient quantization bin: eb per coefficient. Because the
    // hierarchy is refined from *dequantized* parents, per-level errors
    // stack and the point-wise bound is NOT guaranteed.
    let eb2 = abs_eb;
    let mut syms = vec![0u16; data.len()];
    let mut outliers: Vec<<F as PfplFloat>::Bits> = Vec::new();
    ladder_walk(data.len(), |idx, p| {
        let v = data[idx];
        // Coefficient relative to the ORIGINAL-value interpolation — the
        // refactoring step of MGARD.
        let pred = predict_ladder(data, &p);
        let mut stored = None;
        if v.is_finite() {
            let code = ((v.to_f64() - pred) / eb2).round() as i64;
            if code.unsigned_abs() <= QUANT_RADIUS as u64 {
                stored = Some((code + QUANT_RADIUS + 1) as u16);
            }
        }
        match stored {
            Some(sym) => syms[idx] = sym,
            None => {
                syms[idx] = OUTLIER_SYM;
                outliers.push(v.to_bits());
            }
        }
    });
    write_outliers::<F>(&outliers, &mut w);
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
    let syms = entropy_backend_decode(r.block()?)?;
    if syms.len() != n {
        return Err(BaselineError::Corrupt("symbol count mismatch".into()));
    }
    let eb2 = h.param;
    let mut out = vec![F::ZERO; n];
    let mut oi = 0usize;
    let mut err = None;
    ladder_walk(n, |idx, p| {
        if err.is_some() {
            return;
        }
        if syms[idx] == OUTLIER_SYM {
            match outliers.get(oi) {
                Some(&bits) => {
                    out[idx] = F::from_bits(bits);
                    oi += 1;
                }
                None => err = Some(BaselineError::Corrupt("outlier underrun".into())),
            }
        } else {
            // Recompose from DEQUANTIZED parents: the error-accumulation
            // step that breaks the point-wise guarantee.
            let pred = predict_ladder(&out, &p);
            let code = syms[idx] as i64 - (QUANT_RADIUS + 1);
            out[idx] = F::from_f64(pred + code as f64 * eb2);
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

impl Compressor for Mgard {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "MGARD-X",
            abs: Support::Unguaranteed,
            rel: Support::No,
            noa: Support::Unguaranteed,
            float: true,
            double: true,
            cpu: true,
            gpu: true,
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

    fn smooth(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.002).sin() * 15.0).collect()
    }

    #[test]
    fn roundtrip_with_modest_error() {
        let data = smooth(50_000);
        let eb = 1e-2;
        let arch = Mgard
            .compress_f32(&data, &[data.len()], ErrorBound::Abs(eb))
            .unwrap();
        let back = Mgard.decompress_f32(&arch).unwrap();
        let mut max_err = 0.0f64;
        for (a, b) in data.iter().zip(&back) {
            max_err = max_err.max((*a as f64 - *b as f64).abs());
        }
        // Error accumulates across the hierarchy: close to eb but not
        // guaranteed to stay under it.
        assert!(max_err <= eb * 20.0, "max_err={max_err}");
        assert!(arch.len() < data.len() * 4 / 3);
    }

    #[test]
    fn violations_occur_without_guarantee() {
        // Deep hierarchies + accumulation should produce at least some
        // error above the quantizer's per-coefficient half-bin.
        let data = smooth(1 << 16);
        let eb = 1e-3;
        let arch = Mgard
            .compress_f32(&data, &[data.len()], ErrorBound::Abs(eb))
            .unwrap();
        let back = Mgard.decompress_f32(&arch).unwrap();
        let max_err = data
            .iter()
            .zip(&back)
            .map(|(a, b)| (*a as f64 - *b as f64).abs())
            .fold(0.0, f64::max);
        assert!(max_err > eb * 0.5, "accumulation expected, got {max_err}");
    }

    #[test]
    fn rel_unsupported() {
        assert!(Mgard
            .compress_f32(&[1.0], &[1], ErrorBound::Rel(1e-2))
            .is_err());
    }

    #[test]
    fn f64_noa() {
        let data: Vec<f64> = (0..20_000).map(|i| (i as f64 * 0.001).cos()).collect();
        let arch = Mgard
            .compress_f64(&data, &[data.len()], ErrorBound::Noa(1e-3))
            .unwrap();
        let back = Mgard.decompress_f64(&arch).unwrap();
        assert_eq!(back.len(), data.len());
    }

    #[test]
    fn specials_are_outliers() {
        let mut data = smooth(1000);
        data[7] = f32::NAN;
        let arch = Mgard
            .compress_f32(&data, &[1000], ErrorBound::Abs(1e-3))
            .unwrap();
        let back = Mgard.decompress_f32(&arch).unwrap();
        assert!(back[7].is_nan());
    }
}
