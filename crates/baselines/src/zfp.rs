//! ZFP-style transform compressor [11, 27].
//!
//! Implements the published ZFP pipeline: 4^d blocks, block-floating-point
//! (common exponent), the reversible-in-spirit integer lifting transform,
//! total-degree coefficient reordering, negabinary re-coding, and embedded
//! bit-plane coding with unary group testing. Two modes:
//!
//! * **fixed accuracy** (ABS): the number of encoded bit planes is derived
//!   from the tolerance and the block exponent. There is *no* per-value
//!   verification, so the bound is not guaranteed — the transform's
//!   `>> 1` rounding can push individual values past the tolerance, which
//!   is the source of the ABS violations the paper reports (Table III: ○);
//! * **fixed precision** (REL): a constant number of bit planes per block,
//!   i.e. the "truncating least-significant bits" relative-error mode the
//!   paper describes (§IV). This bounds the relative error structurally
//!   (Table III: ✓).
//!
//! NOA is not supported, matching Table III.

use crate::common::{BaseHeader, ByteReader, ByteWriter};
use crate::{BaselineError, Capabilities, Compressor, ErrorBound, Result, Support};
use pfpl::float::PfplFloat;
use pfpl::types::BoundKind;
use pfpl_entropy::bitio::{BitReader, BitWriter};

const MAGIC: u32 = u32::from_le_bytes(*b"ZFP\0");

/// The ZFP comparator.
#[derive(Debug, Default, Clone, Copy)]
pub struct Zfp;

/// Per-precision transform parameters.
struct Params {
    /// Fixed-point scale exponent (`i = v * 2^(q - emax)`).
    q: i32,
    /// Bit planes in the integer representation.
    intprec: u32,
    /// Exponent field width in the stream.
    ebits: u32,
    /// Exponent bias applied before storing.
    ebias: i32,
}

fn params<F: PfplFloat>() -> Params {
    if F::PRECISION == pfpl::types::Precision::Double {
        Params {
            q: 58,
            intprec: 64,
            ebits: 12,
            ebias: 1075,
        }
    } else {
        Params {
            q: 30,
            intprec: 36,
            ebits: 9,
            ebias: 150,
        }
    }
}

/// Forward lifting transform on one span of 4 (zfp `fwd_lift`).
#[inline]
fn fwd_lift(v: &mut [i64], ofs: usize, s: usize) {
    let (mut x, mut y, mut z, mut w) = (v[ofs], v[ofs + s], v[ofs + 2 * s], v[ofs + 3 * s]);
    x += w;
    x >>= 1;
    w -= x;
    z += y;
    z >>= 1;
    y -= z;
    x += z;
    x >>= 1;
    z -= x;
    w += y;
    w >>= 1;
    y -= w;
    w += y >> 1;
    y -= w >> 1;
    v[ofs] = x;
    v[ofs + s] = y;
    v[ofs + 2 * s] = z;
    v[ofs + 3 * s] = w;
}

/// Inverse lifting transform (zfp `inv_lift`).
#[inline]
fn inv_lift(v: &mut [i64], ofs: usize, s: usize) {
    let (mut x, mut y, mut z, mut w) = (v[ofs], v[ofs + s], v[ofs + 2 * s], v[ofs + 3 * s]);
    y += w >> 1;
    w -= y >> 1;
    y += w;
    w <<= 1;
    w -= y;
    z += x;
    x <<= 1;
    x -= z;
    y += z;
    z <<= 1;
    z -= y;
    w += x;
    x <<= 1;
    x -= w;
    v[ofs] = x;
    v[ofs + s] = y;
    v[ofs + 2 * s] = z;
    v[ofs + 3 * s] = w;
}

fn fwd_xform(v: &mut [i64], rank: usize) {
    match rank {
        1 => fwd_lift(v, 0, 1),
        2 => {
            for y in 0..4 {
                fwd_lift(v, 4 * y, 1);
            }
            for x in 0..4 {
                fwd_lift(v, x, 4);
            }
        }
        _ => {
            for z in 0..4 {
                for y in 0..4 {
                    fwd_lift(v, 16 * z + 4 * y, 1);
                }
            }
            for z in 0..4 {
                for x in 0..4 {
                    fwd_lift(v, 16 * z + x, 4);
                }
            }
            for y in 0..4 {
                for x in 0..4 {
                    fwd_lift(v, 4 * y + x, 16);
                }
            }
        }
    }
}

fn inv_xform(v: &mut [i64], rank: usize) {
    match rank {
        1 => inv_lift(v, 0, 1),
        2 => {
            for x in 0..4 {
                inv_lift(v, x, 4);
            }
            for y in 0..4 {
                inv_lift(v, 4 * y, 1);
            }
        }
        _ => {
            for y in 0..4 {
                for x in 0..4 {
                    inv_lift(v, 4 * y + x, 16);
                }
            }
            for z in 0..4 {
                for x in 0..4 {
                    inv_lift(v, 16 * z + x, 4);
                }
            }
            for z in 0..4 {
                for y in 0..4 {
                    inv_lift(v, 16 * z + 4 * y, 1);
                }
            }
        }
    }
}

/// Total-degree coefficient order (low-frequency first), stable by index.
fn degree_order(rank: usize) -> Vec<usize> {
    let n = 1usize << (2 * rank);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| {
        let (x, y, z) = (i & 3, (i >> 2) & 3, (i >> 4) & 3);
        (x + y + z, i)
    });
    idx
}

const NBMASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

#[inline]
fn int_to_nega(x: i64) -> u64 {
    ((x as u64).wrapping_add(NBMASK)) ^ NBMASK
}

#[inline]
fn nega_to_int(x: u64) -> i64 {
    ((x ^ NBMASK).wrapping_sub(NBMASK)) as i64
}

/// zfp's embedded bit-plane coder: verbatim bits for the significant
/// prefix, unary group tests for the tail.
fn encode_planes(coeffs: &[u64], intprec: u32, kmin: u32, w: &mut BitWriter) {
    let size = coeffs.len();
    let mut n = 0usize;
    for k in (kmin..intprec).rev() {
        let mut x: u64 = 0;
        for (i, &c) in coeffs.iter().enumerate() {
            x |= (c >> k & 1) << i;
        }
        // verbatim prefix
        for i in 0..n {
            w.write_bit(x >> i & 1 == 1);
        }
        x = if n < 64 { x >> n } else { 0 };
        // unary run-length tail
        let mut m = n;
        while m < size {
            let any = x != 0;
            w.write_bit(any);
            if !any {
                break;
            }
            loop {
                let bit = x & 1 == 1;
                x >>= 1;
                m += 1;
                if m < size {
                    w.write_bit(bit);
                }
                if bit || m >= size {
                    break;
                }
            }
        }
        n = n.max(m);
    }
}

/// Inverse of [`encode_planes`].
fn decode_planes(
    size: usize,
    intprec: u32,
    kmin: u32,
    r: &mut BitReader,
) -> crate::Result<Vec<u64>> {
    let mut coeffs = vec![0u64; size];
    let mut n = 0usize;
    for k in (kmin..intprec).rev() {
        let mut x: u64 = 0;
        for i in 0..n {
            if r.read_bit().map_err(BaselineError::from)? {
                x |= 1 << i;
            }
        }
        let mut m = n;
        while m < size {
            if !r.read_bit().map_err(BaselineError::from)? {
                break;
            }
            loop {
                let bit = if m + 1 < size {
                    r.read_bit().map_err(BaselineError::from)?
                } else {
                    true // the final group-test 1 implies the last coeff
                };
                if bit {
                    x |= 1 << m;
                }
                m += 1;
                if bit || m >= size {
                    break;
                }
            }
        }
        n = n.max(m);
        for (i, c) in coeffs.iter_mut().enumerate() {
            if x >> i & 1 == 1 {
                *c |= 1 << k;
            }
        }
    }
    Ok(coeffs)
}

/// Exponent of the largest magnitude in the block (frexp-style:
/// `max|v| < 2^emax`), or None if the block is all zero / non-finite-free.
fn block_emax<F: PfplFloat>(vals: &[F]) -> Option<i32> {
    let mut m = 0.0f64;
    for v in vals {
        let a = v.to_f64().abs();
        if a.is_finite() {
            m = m.max(a);
        }
    }
    if m == 0.0 {
        None
    } else {
        // frexp: m = f * 2^e with 0.5 <= f < 1
        Some((m.log2().floor() as i32) + 1)
    }
}

struct BlockIter<'a> {
    dims: &'a [usize],
    rank: usize,
    /// block grid dims (slowest first)
    bdims: [usize; 3],
}

impl<'a> BlockIter<'a> {
    fn new(dims: &'a [usize]) -> Self {
        let rank = dims.len().min(3);
        let mut bdims = [1usize; 3];
        for (i, &d) in dims.iter().rev().take(3).enumerate() {
            bdims[2 - i] = d.div_ceil(4);
        }
        Self { dims, rank, bdims }
    }

    fn total_blocks(&self) -> usize {
        self.bdims.iter().product()
    }

    /// Gather block `b` into `out` (4^rank values), clamping reads at the
    /// edges (zfp-style padding by replication).
    fn gather<F: PfplFloat>(
        &self,
        data: &[F],
        b: usize,
        out: &mut [i64],
        emax_scale: F,
    ) -> [usize; 3] {
        let (_nbz, nby, nbx) = (self.bdims[0], self.bdims[1], self.bdims[2]);
        let bx = b % nbx;
        let by = (b / nbx) % nby;
        let bz = b / (nbx * nby);
        let (nz, ny, nx) = self.grid();
        let side = 4usize;
        let mut i = 0;
        let zr = if self.rank >= 3 { side } else { 1 };
        let yr = if self.rank >= 2 { side } else { 1 };
        for dz in 0..zr {
            for dy in 0..yr {
                for dx in 0..side {
                    let z = (bz * 4 + dz).min(nz - 1);
                    let y = (by * 4 + dy).min(ny - 1);
                    let x = (bx * 4 + dx).min(nx - 1);
                    let v = data[(z * ny + y) * nx + x].to_f64() * emax_scale.to_f64();
                    out[i] = v as i64;
                    i += 1;
                }
            }
        }
        [bz, by, bx]
    }

    fn grid(&self) -> (usize, usize, usize) {
        let mut g = [1usize; 3];
        for (i, &d) in self.dims.iter().rev().take(3).enumerate() {
            g[2 - i] = d;
        }
        (g[0], g[1], g[2])
    }

    /// Scatter decoded block values back, skipping padding.
    fn scatter<F: PfplFloat>(&self, out: &mut [F], b: usize, vals: &[f64]) {
        let nbx = self.bdims[2];
        let bx = b % nbx;
        let by = (b / nbx) % self.bdims[1];
        let bz = b / (nbx * self.bdims[1]);
        let (nz, ny, nx) = self.grid();
        let side = 4usize;
        let zr = if self.rank >= 3 { side } else { 1 };
        let yr = if self.rank >= 2 { side } else { 1 };
        let mut i = 0;
        for dz in 0..zr {
            for dy in 0..yr {
                for dx in 0..side {
                    let z = bz * 4 + dz;
                    let y = by * 4 + dy;
                    let x = bx * 4 + dx;
                    if z < nz && y < ny && x < nx {
                        out[(z * ny + y) * nx + x] = F::from_f64(vals[i]);
                    }
                    i += 1;
                }
            }
        }
    }
}

/// Bit planes to encode for a block (zfp's fixed-accuracy precision rule).
fn accuracy_precision(emax: i32, minexp: i32, rank: usize, p: &Params) -> u32 {
    let prec = emax - minexp + 2 * (rank as i32 + 1);
    prec.clamp(0, p.intprec as i32) as u32
}

fn compress_impl<F: PfplFloat>(data: &[F], dims: &[usize], bound: ErrorBound) -> Result<Vec<u8>> {
    if dims.iter().product::<usize>() != data.len() || data.is_empty() {
        return Err(BaselineError::Corrupt("dims mismatch or empty".into()));
    }
    if dims.len() > 3 {
        return Err(BaselineError::Unsupported("rank > 3".into()));
    }
    if !data.iter().all(|v| v.is_finite()) {
        return Err(BaselineError::Unsupported(
            "ZFP block-floating-point cannot represent non-finite values".into(),
        ));
    }
    let eb = bound.value();
    if !(eb > 0.0) || !eb.is_finite() {
        return Err(BaselineError::Unsupported(format!("bad bound {eb}")));
    }
    let kind = match bound {
        ErrorBound::Abs(_) => BoundKind::Abs,
        ErrorBound::Rel(_) => BoundKind::Rel,
        ErrorBound::Noa(_) => {
            return Err(BaselineError::Unsupported(
                "ZFP does not support NOA (Table III)".into(),
            ))
        }
    };
    let p = params::<F>();
    let minexp = eb.log2().floor() as i32;
    // Fixed-precision plane count for REL (truncation mode).
    let rel_prec = ((-eb.log2()).ceil() as i32 + 6).clamp(2, p.intprec as i32) as u32;

    let mut w = ByteWriter::new();
    BaseHeader {
        magic: MAGIC,
        double: F::PRECISION == pfpl::types::Precision::Double,
        kind,
        eb,
        param: 0.0,
        dims: dims.to_vec(),
    }
    .write(&mut w);

    let iter = BlockIter::new(dims);
    let rank = iter.rank;
    let order = degree_order(rank);
    let bsize = 1usize << (2 * rank);
    let mut bits = BitWriter::new();
    let mut raw = vec![0i64; bsize];
    let mut coeffs = vec![0u64; bsize];
    for b in 0..iter.total_blocks() {
        // Need emax before gathering (gather applies the scale).
        // Probe the block for its common exponent before scaling.
        let emax = {
            let (nz, ny, nx) = iter.grid();
            let bx = b % iter.bdims[2];
            let by = (b / iter.bdims[2]) % iter.bdims[1];
            let bz = b / (iter.bdims[2] * iter.bdims[1]);
            let zr = if rank >= 3 { 4 } else { 1 };
            let yr = if rank >= 2 { 4 } else { 1 };
            let mut probe = Vec::with_capacity(bsize);
            for dz in 0..zr {
                for dy in 0..yr {
                    for dx in 0..4 {
                        let z = (bz * 4 + dz).min(nz - 1);
                        let y = (by * 4 + dy).min(ny - 1);
                        let x = (bx * 4 + dx).min(nx - 1);
                        probe.push(data[(z * ny + y) * nx + x]);
                    }
                }
            }
            block_emax::<F>(&probe)
        };
        let Some(emax) = emax else {
            bits.write_bit(false); // empty (all-zero) block
            continue;
        };
        bits.write_bit(true);
        bits.write_bits((emax + p.ebias) as u64, p.ebits);
        let scale = F::from_f64(pow2(p.q - emax));
        iter.gather(data, b, &mut raw, scale);
        fwd_xform(&mut raw, rank);
        for (j, &src) in order.iter().enumerate() {
            coeffs[j] = int_to_nega(raw[src]);
        }
        let prec = match kind {
            BoundKind::Abs => accuracy_precision(emax, minexp, rank, &p),
            _ => rel_prec,
        };
        let kmin = p.intprec - prec.min(p.intprec);
        bits.write_bits(prec as u64, 7);
        encode_planes(&coeffs, p.intprec, kmin, &mut bits);
    }
    w.block(&bits.into_bytes());
    Ok(w.into_vec())
}

/// 2^e as f64 for the scale factors (exponent fits f64's range here).
fn pow2(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else if e > 1023 {
        f64::INFINITY
    } else {
        0.0
    }
}

fn decompress_impl<F: PfplFloat>(archive: &[u8]) -> Result<Vec<F>> {
    let mut r = ByteReader::new(archive);
    let h = BaseHeader::read(&mut r, MAGIC)?;
    if h.double != (F::PRECISION == pfpl::types::Precision::Double) {
        return Err(BaselineError::Corrupt("precision mismatch".into()));
    }
    let p = params::<F>();
    let payload = r.block()?;
    let mut bits = BitReader::new(payload);
    let iter = BlockIter::new(&h.dims);
    let rank = iter.rank;
    let order = degree_order(rank);
    let bsize = 1usize << (2 * rank);
    let mut out = vec![F::ZERO; h.count()];
    let mut vals = vec![0.0f64; bsize];
    let mut raw = vec![0i64; bsize];
    for b in 0..iter.total_blocks() {
        let nonempty = bits.read_bit().map_err(BaselineError::from)?;
        if !nonempty {
            vals.iter_mut().for_each(|v| *v = 0.0);
            iter.scatter(&mut out, b, &vals);
            continue;
        }
        let emax = bits.read_bits(p.ebits).map_err(BaselineError::from)? as i32 - p.ebias;
        let prec = bits.read_bits(7).map_err(BaselineError::from)? as u32;
        let kmin = p.intprec - prec.min(p.intprec);
        let coeffs = decode_planes(bsize, p.intprec, kmin, &mut bits)?;
        for (j, &dst) in order.iter().enumerate() {
            raw[dst] = nega_to_int(coeffs[j]);
        }
        inv_xform(&mut raw, rank);
        let inv_scale = pow2(emax - p.q);
        for (i, &x) in raw.iter().enumerate() {
            vals[i] = x as f64 * inv_scale;
        }
        iter.scatter(&mut out, b, &vals);
    }
    Ok(out)
}

impl Compressor for Zfp {
    fn capabilities(&self) -> Capabilities {
        Capabilities {
            name: "ZFP",
            abs: Support::Unguaranteed,
            rel: Support::Guaranteed,
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

    fn smooth_3d(dims: [usize; 3]) -> Vec<f32> {
        let mut v = Vec::new();
        for z in 0..dims[0] {
            for y in 0..dims[1] {
                for x in 0..dims[2] {
                    v.push(((x as f32) * 0.2).sin() * ((y as f32) * 0.1).cos() * (z as f32 + 1.0));
                }
            }
        }
        v
    }

    #[test]
    fn plane_coder_roundtrip() {
        let coeffs: Vec<u64> = vec![
            0,
            5,
            1000,
            0,
            3,
            u32::MAX as u64,
            0,
            0,
            42,
            7,
            0,
            0,
            0,
            0,
            1,
            2,
        ];
        let mut w = BitWriter::new();
        encode_planes(&coeffs, 36, 0, &mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let back = decode_planes(coeffs.len(), 36, 0, &mut r).unwrap();
        assert_eq!(back, coeffs);
    }

    #[test]
    fn plane_coder_truncation_keeps_high_planes() {
        let coeffs: Vec<u64> = vec![0b1111_0000, 0b1000_0001, 0, 0b0111_1111];
        let mut w = BitWriter::new();
        encode_planes(&coeffs, 8, 4, &mut w); // keep planes 7..4 only
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let back = decode_planes(coeffs.len(), 8, 4, &mut r).unwrap();
        for (a, b) in coeffs.iter().zip(&back) {
            assert_eq!(a & !0xF, *b, "low planes dropped, high preserved");
        }
    }

    #[test]
    fn abs_roundtrip_reasonable_error() {
        let dims = [16usize, 16, 16];
        let data = smooth_3d(dims);
        let eb = 1e-2;
        let arch = Zfp.compress_f32(&data, &dims, ErrorBound::Abs(eb)).unwrap();
        let back = Zfp.decompress_f32(&arch).unwrap();
        let mut max_err = 0.0f64;
        for (a, b) in data.iter().zip(&back) {
            max_err = max_err.max((*a as f64 - *b as f64).abs());
        }
        // Not guaranteed, but should be in the right ballpark.
        assert!(max_err <= eb * 4.0, "max_err={max_err}");
        assert!(arch.len() < data.len() * 4, "must compress");
    }

    #[test]
    fn rel_mode_tracks_uniform_magnitude_blocks() {
        let dims = [8usize, 8, 8];
        // Magnitude varies *between* regions but is uniform within any 4^3
        // block — the regime ZFP's per-block truncation handles well.
        let data: Vec<f32> = (0..512)
            .map(|i| {
                let zblock = i / 256; // blocks span z in [0,4) and [4,8)
                (1.5 + (i as f32 * 0.001).sin() * 0.2) * 10f32.powi(zblock * 3 - 2)
            })
            .collect();
        let eb = 1e-3;
        let arch = Zfp.compress_f32(&data, &dims, ErrorBound::Rel(eb)).unwrap();
        let back = Zfp.decompress_f32(&arch).unwrap();
        for (a, b) in data.iter().zip(&back) {
            let rel = ((*a as f64 - *b as f64) / *a as f64).abs();
            assert!(rel <= eb * 4.0, "rel={rel} a={a} b={b}");
        }
    }

    #[test]
    fn rel_mode_violates_on_mixed_magnitude_blocks() {
        // Values spanning 5 decades inside one block: the common-exponent
        // truncation cannot bound the point-wise relative error of the
        // small values — the "different bounding technique" violation the
        // paper reports for ZFP's REL results (§V-C).
        let dims = [8usize, 8, 8];
        let data: Vec<f32> = (0..512)
            .map(|i| (1.0 + (i as f32 * 0.01).sin()) * 10f32.powi((i % 5) - 2))
            .collect();
        let eb = 1e-3;
        let arch = Zfp.compress_f32(&data, &dims, ErrorBound::Rel(eb)).unwrap();
        let back = Zfp.decompress_f32(&arch).unwrap();
        let max_rel = data
            .iter()
            .zip(&back)
            .map(|(a, b)| ((*a as f64 - *b as f64) / *a as f64).abs())
            .fold(0.0, f64::max);
        assert!(max_rel > eb, "expected a violation, max_rel={max_rel}");
    }

    #[test]
    fn coarse_bound_compresses_more() {
        let dims = [16usize, 16, 16];
        let data = smooth_3d(dims);
        let coarse = Zfp
            .compress_f32(&data, &dims, ErrorBound::Abs(1e-1))
            .unwrap();
        let fine = Zfp
            .compress_f32(&data, &dims, ErrorBound::Abs(1e-5))
            .unwrap();
        assert!(coarse.len() < fine.len());
    }

    #[test]
    fn f64_roundtrip() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin() * 100.0).collect();
        let arch = Zfp
            .compress_f64(&data, &[16, 16, 16], ErrorBound::Abs(1e-6))
            .unwrap();
        let back = Zfp.decompress_f64(&arch).unwrap();
        let mut max_err = 0.0f64;
        for (a, b) in data.iter().zip(&back) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err <= 1e-5, "max_err={max_err}");
    }

    #[test]
    fn all_zero_input_is_tiny() {
        let data = vec![0.0f32; 4096];
        let arch = Zfp
            .compress_f32(&data, &[16, 16, 16], ErrorBound::Abs(1e-3))
            .unwrap();
        assert!(arch.len() < 200, "{}", arch.len());
        assert!(Zfp.decompress_f32(&arch).unwrap().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn noa_unsupported_nonfinite_rejected() {
        assert!(Zfp
            .compress_f32(&[1.0; 64], &[64], ErrorBound::Noa(1e-3))
            .is_err());
        assert!(Zfp
            .compress_f32(&[f32::NAN; 64], &[64], ErrorBound::Abs(1e-3))
            .is_err());
    }

    #[test]
    fn one_and_two_d() {
        let d1: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.05).sin()).collect();
        let a = Zfp
            .compress_f32(&d1, &[1000], ErrorBound::Abs(1e-3))
            .unwrap();
        let b1 = Zfp.decompress_f32(&a).unwrap();
        for (x, y) in d1.iter().zip(&b1) {
            assert!((x - y).abs() < 1e-2);
        }
        let d2: Vec<f32> = (0..30 * 40).map(|i| (i as f32 * 0.01).cos()).collect();
        let a2 = Zfp
            .compress_f32(&d2, &[30, 40], ErrorBound::Abs(1e-3))
            .unwrap();
        let b2 = Zfp.decompress_f32(&a2).unwrap();
        for (x, y) in d2.iter().zip(&b2) {
            assert!((x - y).abs() < 1e-2);
        }
    }
}
