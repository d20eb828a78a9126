//! cuSZp-style compressor \[15\]: block prequantization + fixed-length
//! encoding, the GPU-throughput-oriented design point.
//!
//! The input is split into 32-value blocks. Each value is *prequantized*
//! to an integer `round(v / (2eb))` — truncated into `i32`, reproducing
//! the "pre-quantization … may cause integer overflow" hazard the paper
//! calls out in §I (values beyond `i32` range wrap and silently violate
//! the bound; Table III marks ABS as ○). Within each block the integers
//! are Lorenzo-delta'd, zig-zag mapped, and bit-packed with one shared
//! bit width; all-zero blocks are flagged in a bitmap and skipped. A
//! lightweight fixed-length decoder is why cuSZp decompresses faster than
//! it compresses in the paper's figures.

use crate::common::{finite_range, BaseHeader, ByteReader, ByteWriter};
use crate::{BaselineError, Capabilities, Compressor, ErrorBound, Result, Support};
use pfpl::float::PfplFloat;
use pfpl::types::BoundKind;
use pfpl_entropy::bitio::{BitReader, BitWriter};

const MAGIC: u32 = u32::from_le_bytes(*b"CSZP");
const BLOCK: usize = 32;

/// The cuSZp comparator.
#[derive(Debug, Default, Clone, Copy)]
pub struct CuSzp;

#[inline]
fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

#[inline]
fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

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
                "cuSZp does not support REL (Table III)".into(),
            ))
        }
    };
    if !data.iter().all(|v| v.is_finite()) {
        return Err(BaselineError::Unsupported(
            "cuSZp prequantization requires finite values".into(),
        ));
    }
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

    let inv = 1.0 / (2.0 * abs_eb);
    // Prequantize with the overflow hazard: the i64 → i32 truncation wraps.
    let quants: Vec<i32> = data
        .iter()
        .map(|v| (v.to_f64() * inv).round() as i64 as i32)
        .collect();

    let nblocks = data.len().div_ceil(BLOCK);
    let mut bitmap = vec![0u8; nblocks.div_ceil(8)];
    let mut bits = BitWriter::new();
    for (b, chunk) in quants.chunks(BLOCK).enumerate() {
        // Intra-block Lorenzo + zigzag.
        let mut deltas = [0u32; BLOCK];
        let mut prev = 0i32;
        let mut maxz = 0u32;
        for (i, &q) in chunk.iter().enumerate() {
            let d = zigzag(q.wrapping_sub(prev));
            deltas[i] = d;
            maxz = maxz.max(d);
            prev = q;
        }
        if maxz == 0 {
            continue; // zero block: bitmap bit stays 0
        }
        bitmap[b >> 3] |= 1 << (b & 7);
        let width = 32 - maxz.leading_zeros();
        bits.write_bits(width as u64, 6);
        for &d in &deltas[..chunk.len()] {
            bits.write_bits(d as u64, width);
        }
    }
    w.bytes(&bitmap);
    w.block(&bits.into_bytes());
    Ok(w.into_vec())
}

fn decompress_impl<F: PfplFloat>(archive: &[u8]) -> Result<Vec<F>> {
    let mut r = ByteReader::new(archive);
    let h = BaseHeader::read(&mut r, MAGIC)?;
    if h.double != (F::PRECISION == pfpl::types::Precision::Double) {
        return Err(BaselineError::Corrupt("precision mismatch".into()));
    }
    let n = h.count();
    let nblocks = n.div_ceil(BLOCK);
    let bitmap = r.bytes(nblocks.div_ceil(8))?.to_vec();
    let payload = r.block()?;
    let mut bits = BitReader::new(payload);
    let eb2 = 2.0 * h.param;
    let mut out = vec![F::ZERO; n];
    for b in 0..nblocks {
        let len = BLOCK.min(n - b * BLOCK);
        let mut prev = 0i32;
        if bitmap[b >> 3] >> (b & 7) & 1 == 0 {
            for i in 0..len {
                out[b * BLOCK + i] = F::ZERO;
            }
            continue;
        }
        let width = bits.read_bits(6).map_err(BaselineError::from)? as u32;
        if width == 0 || width > 32 {
            return Err(BaselineError::Corrupt(format!("bad block width {width}")));
        }
        for i in 0..len {
            let d = bits.read_bits(width).map_err(BaselineError::from)? as u32;
            let q = prev.wrapping_add(unzigzag(d));
            prev = q;
            out[b * BLOCK + i] = F::from_f64(q as f64 * eb2);
        }
    }
    Ok(out)
}

impl Compressor for CuSzp {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "cuSZp",
            abs: Support::Unguaranteed,
            rel: Support::No,
            noa: Support::Guaranteed,
            float: true,
            double: true,
            cpu: false,
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

    #[test]
    fn zigzag_roundtrip() {
        for v in [-1000i32, -1, 0, 1, 7, i32::MAX, i32::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn abs_roundtrip_in_normal_range() {
        let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin() * 5.0).collect();
        let eb = 1e-3;
        let arch = CuSzp
            .compress_f32(&data, &[data.len()], ErrorBound::Abs(eb))
            .unwrap();
        let back = CuSzp.decompress_f32(&arch).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((*a as f64 - *b as f64).abs() <= eb * 1.001, "a={a} b={b}");
        }
        assert!(arch.len() < data.len() * 4);
    }

    #[test]
    fn overflow_violates_bound_as_in_paper() {
        // A value whose quantized magnitude exceeds i32 wraps and comes
        // back wildly wrong — the documented cuSZp failure mode (§I).
        let mut data = vec![0.0f32; 64];
        data[10] = 1e10; // 1e10 / 2e-3 = 5e12 >> i32::MAX
        let eb = 1e-3;
        let arch = CuSzp
            .compress_f32(&data, &[64], ErrorBound::Abs(eb))
            .unwrap();
        let back = CuSzp.decompress_f32(&arch).unwrap();
        let err = (data[10] as f64 - back[10] as f64).abs();
        assert!(err > 1.5 * eb, "expected a major violation, err={err}");
    }

    #[test]
    fn zero_blocks_cost_one_bitmap_bit() {
        let data = vec![0.0f32; 32 * 1000];
        let arch = CuSzp
            .compress_f32(&data, &[data.len()], ErrorBound::Abs(1e-3))
            .unwrap();
        assert!(arch.len() < 300, "{}", arch.len());
        assert!(CuSzp
            .decompress_f32(&arch)
            .unwrap()
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn f64_and_noa() {
        let data: Vec<f64> = (0..5_000)
            .map(|i| (i as f64 * 0.002).cos() * 10.0)
            .collect();
        let arch = CuSzp
            .compress_f64(&data, &[data.len()], ErrorBound::Noa(1e-4))
            .unwrap();
        let back = CuSzp.decompress_f64(&arch).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= 20.0 * 1e-4 * 1.01);
        }
    }

    #[test]
    fn rel_unsupported() {
        assert!(CuSzp
            .compress_f32(&[1.0], &[1], ErrorBound::Rel(1e-3))
            .is_err());
    }

    #[test]
    fn truncated_archive_errors() {
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let arch = CuSzp
            .compress_f32(&data, &[1000], ErrorBound::Abs(1e-2))
            .unwrap();
        for cut in [0, 10, arch.len() / 2] {
            assert!(CuSzp.decompress_f32(&arch[..cut]).is_err());
        }
    }
}
