//! FZ-GPU-style compressor \[35\]: fused prequantization + Lorenzo +
//! bit shuffle + zero-block elimination.
//!
//! FZ-GPU is the kernel-fused cuSZ derivative optimized for throughput.
//! Per Table III it supports only the NOA bound type, single precision,
//! 3D inputs, and GPU execution; it has *minor* bound violations because
//! the prequantization/reconstruction round trip is never verified. The
//! pipeline here: prequantize to `i32` bins, 1D Lorenzo on bins (exact in
//! integer space), clamp deltas into `u16` (larger deltas become stored
//! outliers), bit-shuffle the delta planes, and remove zero bytes.

use crate::common::{
    finite_range, read_outliers, write_outliers, BaseHeader, ByteReader, ByteWriter,
};
use crate::{BaselineError, Capabilities, Compressor, ErrorBound, Result, Support};
use pfpl::lossless::{shuffle, zeroelim};
use pfpl::types::BoundKind;

const MAGIC: u32 = u32::from_le_bytes(*b"FZGP");
/// Deltas are stored as offset-biased u16 around this center.
const BIAS: i64 = 1 << 15;

/// The FZ-GPU comparator.
#[derive(Debug, Default, Clone, Copy)]
pub struct FzGpu;

impl Compressor for FzGpu {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "FZ-GPU",
            abs: Support::No,
            rel: Support::No,
            noa: Support::Unguaranteed,
            float: true,
            double: false,
            cpu: false,
            gpu: true,
        }
    }

    fn compress_f32(&self, data: &[f32], dims: &[usize], bound: ErrorBound) -> Result<Vec<u8>> {
        if dims.len() != 3 {
            return Err(BaselineError::Unsupported(
                "FZ-GPU accepts only 3D inputs (as in §V-B/V-D)".into(),
            ));
        }
        if dims.iter().product::<usize>() != data.len() {
            return Err(BaselineError::Corrupt("dims mismatch".into()));
        }
        let ErrorBound::Noa(eb) = bound else {
            return Err(BaselineError::Unsupported(
                "FZ-GPU supports only the NOA bound type (Table III)".into(),
            ));
        };
        if !(eb > 0.0) || !eb.is_finite() {
            return Err(BaselineError::Unsupported(format!("bad bound {eb}")));
        }
        let range = finite_range(data).unwrap_or(0.0);
        let abs = eb * range;
        if !(abs > 0.0) {
            return Err(BaselineError::Unsupported("degenerate NOA range".into()));
        }
        if !data.iter().all(|v| v.is_finite()) {
            return Err(BaselineError::Unsupported(
                "prequantization requires finite values".into(),
            ));
        }
        let mut w = ByteWriter::new();
        BaseHeader {
            magic: MAGIC,
            double: false,
            kind: BoundKind::Noa,
            eb,
            param: abs,
            dims: dims.to_vec(),
        }
        .write(&mut w);

        let inv = 1.0 / (2.0 * abs);
        // Unverified prequantization (the minor-violation source).
        let quants: Vec<i64> = data
            .iter()
            .map(|&v| (v as f64 * inv).round() as i64)
            .collect();
        let mut codes: Vec<u16> = Vec::with_capacity(data.len());
        let mut outliers: Vec<u32> = Vec::new();
        let mut prev = 0i64;
        for &q in &quants {
            let d = q.wrapping_sub(prev);
            if d.unsigned_abs() < BIAS as u64 {
                codes.push((d + BIAS) as u16);
                prev = q;
            } else {
                // Outlier: raw float bits; code 0 marks it. The Lorenzo
                // chain restarts from the outlier's quantized value.
                codes.push(0);
                outliers.push((q.clamp(i32::MIN as i64, i32::MAX as i64) as i32) as u32);
                prev = q;
            }
        }
        write_outliers::<f32>(&outliers, &mut w);
        // Bit shuffle the code planes, then zero-eliminate.
        let mut planes = vec![0u8; codes.len() * 2];
        let wide: Vec<u32> = codes.iter().map(|&c| c as u32).collect();
        // Pack pairs of u16 into u32 words for the 32-bit shuffler.
        let mut words: Vec<u32> = Vec::with_capacity(codes.len().div_ceil(2));
        for pair in wide.chunks(2) {
            let lo = pair[0];
            let hi = pair.get(1).copied().unwrap_or(0);
            words.push(lo | hi << 16);
        }
        let mut shuffled = vec![0u8; words.len() * 4];
        shuffle::encode(&words, &mut shuffled);
        planes.clear();
        let mut ze = zeroelim::Scratch::default();
        zeroelim::encode_to_scratch(&shuffled, &mut ze);
        zeroelim::append_encoded(&ze, &mut planes);
        w.u64(words.len() as u64);
        w.block(&planes);
        Ok(w.into_vec())
    }

    fn decompress_f32(&self, archive: &[u8]) -> Result<Vec<f32>> {
        let mut r = ByteReader::new(archive);
        let h = BaseHeader::read(&mut r, MAGIC)?;
        let n = h.count();
        let outliers = read_outliers::<f32>(&mut r)?;
        let nwords = r.u64()? as usize;
        if nwords != n.div_ceil(2) {
            return Err(BaselineError::Corrupt("word count mismatch".into()));
        }
        let payload = r.block()?;
        // The scratch and output buffers are the only per-call allocations
        // and would be reusable if this comparator ever ran per-chunk.
        let mut ze = zeroelim::Scratch::default();
        let mut shuffled = Vec::new();
        // Rejects truncated payloads and trailing bytes alike.
        zeroelim::decode_into(payload, nwords * 4, &mut ze, &mut shuffled)
            .map_err(|e| BaselineError::Corrupt(e.to_string()))?;
        let mut words = vec![0u32; nwords];
        shuffle::decode(&shuffled, &mut words);
        let eb2 = 2.0 * h.param;
        let mut out = vec![0f32; n];
        let mut prev = 0i64;
        let mut oi = 0usize;
        for i in 0..n {
            let code = (words[i / 2] >> ((i % 2) * 16)) as u16;
            let q = if code == 0 {
                let q = *outliers
                    .get(oi)
                    .ok_or_else(|| BaselineError::Corrupt("outlier underrun".into()))?
                    as i32 as i64;
                oi += 1;
                q
            } else {
                prev + (code as i64 - BIAS)
            };
            prev = q;
            out[i] = (q as f64 * eb2) as f32;
        }
        Ok(out)
    }

    fn compress_f64(&self, _data: &[f64], _dims: &[usize], _bound: ErrorBound) -> Result<Vec<u8>> {
        Err(BaselineError::Unsupported(
            "FZ-GPU does not support double precision (Table III)".into(),
        ))
    }
    fn decompress_f64(&self, _archive: &[u8]) -> Result<Vec<f64>> {
        Err(BaselineError::Unsupported("double precision".into()))
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
                    v.push(((x + y) as f32 * 0.05).sin() * 3.0 + z as f32 * 0.1);
                }
            }
        }
        v
    }

    #[test]
    fn noa_roundtrip() {
        let dims = [8usize, 32, 32];
        let data = smooth_3d(dims);
        let eb = 1e-3;
        let arch = FzGpu
            .compress_f32(&data, &dims, ErrorBound::Noa(eb))
            .unwrap();
        let back = FzGpu.decompress_f32(&arch).unwrap();
        let range = {
            let lo = data.iter().cloned().fold(f32::MAX, f32::min);
            let hi = data.iter().cloned().fold(f32::MIN, f32::max);
            (hi - lo) as f64
        };
        for (a, b) in data.iter().zip(&back) {
            assert!(
                (*a as f64 - *b as f64).abs() <= eb * range * 1.01,
                "a={a} b={b}"
            );
        }
        assert!(
            arch.len() < data.len() * 4 / 2,
            "should compress ≥2x: {}",
            arch.len()
        );
    }

    #[test]
    fn only_noa_3d_f32() {
        let data = smooth_3d([4, 8, 8]);
        assert!(FzGpu
            .compress_f32(&data, &[4, 8, 8], ErrorBound::Abs(1e-3))
            .is_err());
        assert!(FzGpu
            .compress_f32(&data, &[256], ErrorBound::Noa(1e-3))
            .is_err());
        assert!(FzGpu
            .compress_f64(&[1.0; 8], &[2, 2, 2], ErrorBound::Noa(1e-3))
            .is_err());
    }

    #[test]
    fn truncated_errors() {
        let data = smooth_3d([4, 8, 8]);
        let arch = FzGpu
            .compress_f32(&data, &[4, 8, 8], ErrorBound::Noa(1e-2))
            .unwrap();
        for cut in [0, 8, arch.len() / 2] {
            assert!(FzGpu.decompress_f32(&arch[..cut]).is_err());
        }
    }
}
