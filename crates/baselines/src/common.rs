//! Shared plumbing for the baseline codecs: byte-level archive I/O,
//! Lorenzo predictors, and the SZ-style predictive quantizer.

use crate::{BaselineError, Result};
use pfpl::float::{PfplFloat, Word};
use pfpl::types::BoundKind;

/// Simple little-endian byte writer for self-describing archives.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Fresh writer.
    pub fn new() -> Self {
        Self::default()
    }
    /// Append a byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Append a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Append an f64 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// Append a length-prefixed (u64) byte block.
    pub fn block(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.bytes(b);
    }
    /// Finish.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based reader matching [`ByteWriter`].
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(BaselineError::Corrupt(format!(
                "archive truncated at offset {}",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    /// Read a byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    /// Read a u16.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    /// Read a u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    /// Read a u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Read an f64.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }
    /// Read a length-prefixed block (with a sanity cap).
    pub fn block(&mut self) -> Result<&'a [u8]> {
        let n = self.u64()? as usize;
        if n > self.buf.len() {
            return Err(BaselineError::Corrupt(format!(
                "block length {n} exceeds archive"
            )));
        }
        self.take(n)
    }
}

/// Common archive header for the baselines.
pub struct BaseHeader {
    /// Per-compressor magic.
    pub magic: u32,
    /// Double precision flag.
    pub double: bool,
    /// Bound type.
    pub kind: BoundKind,
    /// User bound.
    pub eb: f64,
    /// Derived absolute bound (NOA) or other codec parameter.
    pub param: f64,
    /// Grid dimensions.
    pub dims: Vec<usize>,
}

impl BaseHeader {
    /// Serialize.
    pub fn write(&self, w: &mut ByteWriter) {
        w.u32(self.magic);
        w.u8(self.double as u8);
        w.u8(self.kind.tag());
        w.f64(self.eb);
        w.f64(self.param);
        w.u8(self.dims.len() as u8);
        for &d in &self.dims {
            w.u64(d as u64);
        }
    }

    /// Parse; validates the magic.
    pub fn read(r: &mut ByteReader, magic: u32) -> Result<Self> {
        let m = r.u32()?;
        if m != magic {
            return Err(BaselineError::Corrupt(format!(
                "bad magic {m:#x}, expected {magic:#x}"
            )));
        }
        let double = r.u8()? != 0;
        let kind = BoundKind::from_tag(r.u8()?)
            .ok_or_else(|| BaselineError::Corrupt("bad bound kind".into()))?;
        let eb = r.f64()?;
        let param = r.f64()?;
        let ndims = r.u8()? as usize;
        if ndims == 0 || ndims > 4 {
            return Err(BaselineError::Corrupt(format!("bad rank {ndims}")));
        }
        let mut dims = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            let d = r.u64()? as usize;
            if d == 0 || d > (1 << 40) {
                return Err(BaselineError::Corrupt(format!("bad dimension {d}")));
            }
            dims.push(d);
        }
        Ok(Self {
            magic,
            double,
            kind,
            eb,
            param,
            dims,
        })
    }

    /// Total value count.
    pub fn count(&self) -> usize {
        self.dims.iter().product()
    }
}

/// Value range (`max - min`) over finite values, in f64; `None` when
/// degenerate (empty/all-NaN/zero or non-finite range).
pub fn finite_range<F: PfplFloat>(data: &[F]) -> Option<f64> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in data {
        let x = v.to_f64();
        if x.is_nan() {
            continue;
        }
        lo = lo.min(x);
        hi = hi.max(x);
    }
    let r = hi - lo;
    (r.is_finite() && r > 0.0).then_some(r)
}

/// Order-1 Lorenzo prediction from the *reconstructed* neighborhood
/// (matching what the decoder will see). `dims` is slowest-first.
#[inline]
pub fn lorenzo_predict<F: PfplFloat>(recon: &[F], idx: usize, dims: &[usize]) -> F {
    let zero = F::ZERO;
    match dims.len() {
        1 => {
            if idx == 0 {
                zero
            } else {
                recon[idx - 1]
            }
        }
        2 => {
            let nx = dims[1];
            let (y, x) = (idx / nx, idx % nx);
            let a = if x > 0 { recon[idx - 1] } else { zero };
            let b = if y > 0 { recon[idx - nx] } else { zero };
            let c = if x > 0 && y > 0 {
                recon[idx - nx - 1]
            } else {
                zero
            };
            // a + b - c
            F::from_f64(a.to_f64() + b.to_f64() - c.to_f64())
        }
        _ => {
            let nx = dims[dims.len() - 1];
            let ny = dims[dims.len() - 2];
            let plane = nx * ny;
            let x = idx % nx;
            let y = (idx / nx) % ny;
            let z = idx / plane;
            let g = |dz: usize, dy: usize, dx: usize| -> f64 {
                if (dx > 0 && x == 0) || (dy > 0 && y == 0) || (dz > 0 && z == 0) {
                    0.0
                } else {
                    recon[idx - dz * plane - dy * nx - dx].to_f64()
                }
            };
            // 7-point Lorenzo
            let p = g(0, 0, 1) + g(0, 1, 0) + g(1, 0, 0) - g(0, 1, 1) - g(1, 0, 1) - g(1, 1, 0)
                + g(1, 1, 1);
            F::from_f64(p)
        }
    }
}

/// How one position is predicted during the interpolation ladder walk.
pub enum Pred {
    /// Anchor: previous anchor index (or none for the first).
    Anchor(Option<usize>),
    /// Midpoint of `left` and (if in range) `right`.
    Interp(usize, Option<usize>),
}

/// Drive `f` over every index of an `n`-array in ladder order: anchors at
/// the top stride first, then midpoints level by level. Encoder and
/// decoder share this walk so they can never diverge.
pub fn ladder_walk(n: usize, mut f: impl FnMut(usize, Pred)) {
    if n == 0 {
        return;
    }
    // Top stride: largest power of two <= n-1, capped for table locality.
    let mut top = 1usize;
    while top * 2 <= (n - 1).max(1) && top < (1 << 14) {
        top *= 2;
    }
    let mut prev: Option<usize> = None;
    let mut i = 0;
    while i < n {
        f(i, Pred::Anchor(prev));
        prev = Some(i);
        i += top;
    }
    let mut s = top;
    while s >= 2 {
        let half = s / 2;
        let mut i = half;
        while i < n {
            let left = i - half;
            let right = (i + half < n).then_some(i + half);
            f(i, Pred::Interp(left, right));
            i += s;
        }
        s = half;
    }
}

/// Evaluate a ladder prediction against (reconstructed or original) data.
#[inline]
pub fn predict_ladder<F: PfplFloat>(recon: &[F], p: &Pred) -> f64 {
    match p {
        Pred::Anchor(prev) => prev.map_or(0.0, |j| recon[j].to_f64()),
        Pred::Interp(l, r) => match r {
            Some(r) => 0.5 * (recon[*l].to_f64() + recon[*r].to_f64()),
            None => recon[*l].to_f64(),
        },
    }
}

/// SZ-style quantizer radius: codes live in ±(2^15 − 1), symbol 0 marks an
/// outlier stored raw.
pub const QUANT_RADIUS: i64 = 32767;
/// Symbol marking an outlier in the code stream.
pub const OUTLIER_SYM: u16 = 0;

/// Quantize a prediction error; `eb2` is twice the bound. Returns the
/// symbol and the reconstructed value, or `None` if out of radius.
#[inline]
pub fn quantize_error<F: PfplFloat>(v: F, pred: F, eb2: F) -> Option<(u16, F)> {
    let code = ((v.to_f64() - pred.to_f64()) / eb2.to_f64()).round() as i64;
    // unsigned_abs: the saturating cast can yield i64::MIN, whose abs()
    // would overflow.
    if code.unsigned_abs() > QUANT_RADIUS as u64 {
        return None;
    }
    let recon = F::from_f64(pred.to_f64() + code as f64 * eb2.to_f64());
    Some(((code + QUANT_RADIUS + 1) as u16, recon))
}

/// [`quantize_error`] plus the error-controlled verification of \[32\]
/// (used by SZ2/SZ3 for ABS/NOA, which is why those cells are ✓ in
/// Table III): if the reconstruction misses the bound — e.g. the narrowing
/// to `F` loses more than the quantization allowed for — the value becomes
/// an outlier. The check is a plain float comparison, not PFPL's exact
/// one, so pathological boundary cases can still slip through.
#[inline]
pub fn quantize_error_verified<F: PfplFloat>(v: F, pred: F, eb2: F, eb: f64) -> Option<(u16, F)> {
    let (sym, recon) = quantize_error(v, pred, eb2)?;
    ((v.to_f64() - recon.to_f64()).abs() <= eb).then_some((sym, recon))
}

/// Invert [`quantize_error`]'s symbol.
#[inline]
pub fn dequantize_symbol<F: PfplFloat>(sym: u16, pred: F, eb2: F) -> F {
    let code = sym as i64 - (QUANT_RADIUS + 1);
    F::from_f64(pred.to_f64() + code as f64 * eb2.to_f64())
}

/// Serialize raw value bits of outliers.
pub fn write_outliers<F: PfplFloat>(outliers: &[F::Bits], w: &mut ByteWriter) {
    w.u64(outliers.len() as u64);
    let wb = F::Bits::BITS as usize / 8;
    let mut tmp = vec![0u8; wb];
    for &o in outliers {
        o.write_le(&mut tmp);
        w.bytes(&tmp);
    }
}

/// Inverse of [`write_outliers`].
pub fn read_outliers<F: PfplFloat>(r: &mut ByteReader) -> Result<Vec<F::Bits>> {
    let n = r.u64()? as usize;
    let wb = F::Bits::BITS as usize / 8;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(F::Bits::read_le(r.bytes(wb)?));
    }
    Ok(out)
}

/// Entropy backend used by the SZ-family (their Huffman + GZIP/ZSTD
/// stack): three candidates are produced and the smallest kept, tagged by
/// a flag byte — plain canonical Huffman (0), LZ over the Huffman stream
/// (1), or per-byte-plane rANS (2; the FSE-style stage of ZSTD, strongest
/// when the codes are heavily centered).
pub fn entropy_backend(symbols: &[u16]) -> Vec<u8> {
    let huff = pfpl_entropy::huffman::compress_u16(symbols);
    let lz = pfpl_entropy::lz::compress(&huff);
    // Byte-plane rANS: quantization codes cluster around the radius, so
    // the high plane is near-constant and the low plane low-entropy.
    let lo: Vec<u8> = symbols.iter().map(|&s| s as u8).collect();
    let hi: Vec<u8> = symbols.iter().map(|&s| (s >> 8) as u8).collect();
    let rlo = pfpl_entropy::rans::compress(&lo);
    let rhi = pfpl_entropy::rans::compress(&hi);
    let rans_len = 8 + rlo.len() + rhi.len();

    let best = huff.len().min(lz.len()).min(rans_len);
    let mut out = Vec::with_capacity(best + 1);
    if best == rans_len {
        out.push(2);
        out.extend_from_slice(&(rlo.len() as u64).to_le_bytes());
        out.extend_from_slice(&rlo);
        out.extend_from_slice(&rhi);
    } else if best == lz.len() {
        out.push(1);
        out.extend_from_slice(&lz);
    } else {
        out.push(0);
        out.extend_from_slice(&huff);
    }
    out
}

/// Inverse of [`entropy_backend`].
pub fn entropy_backend_decode(buf: &[u8]) -> Result<Vec<u16>> {
    let (&flag, rest) = buf
        .split_first()
        .ok_or_else(|| BaselineError::Corrupt("empty entropy block".into()))?;
    match flag {
        2 => {
            if rest.len() < 8 {
                return Err(BaselineError::Corrupt("rANS block truncated".into()));
            }
            let lo_len = u64::from_le_bytes(rest[..8].try_into().unwrap()) as usize;
            if 8 + lo_len > rest.len() {
                return Err(BaselineError::Corrupt("rANS plane length".into()));
            }
            let lo = pfpl_entropy::rans::decompress(&rest[8..8 + lo_len])?;
            let hi = pfpl_entropy::rans::decompress(&rest[8 + lo_len..])?;
            if lo.len() != hi.len() {
                return Err(BaselineError::Corrupt("rANS plane mismatch".into()));
            }
            Ok(lo
                .iter()
                .zip(&hi)
                .map(|(&l, &h)| l as u16 | (h as u16) << 8)
                .collect())
        }
        1 => {
            let huff = pfpl_entropy::lz::decompress(rest)?;
            Ok(pfpl_entropy::huffman::decompress_u16(&huff)?)
        }
        0 => Ok(pfpl_entropy::huffman::decompress_u16(rest)?),
        other => Err(BaselineError::Corrupt(format!("bad backend flag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_io_roundtrip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(513);
        w.u32(70000);
        w.u64(1 << 40);
        w.f64(3.25);
        w.block(b"hello");
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), 3.25);
        assert_eq!(r.block().unwrap(), b"hello");
        assert!(r.u8().is_err());
    }

    #[test]
    fn header_roundtrip() {
        let h = BaseHeader {
            magic: 0xABCD,
            double: true,
            kind: BoundKind::Rel,
            eb: 1e-3,
            param: 0.5,
            dims: vec![10, 20, 30],
        };
        let mut w = ByteWriter::new();
        h.write(&mut w);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        let h2 = BaseHeader::read(&mut r, 0xABCD).unwrap();
        assert_eq!(h2.dims, vec![10, 20, 30]);
        assert_eq!(h2.count(), 6000);
        assert!(h2.double);
        let mut r = ByteReader::new(&buf);
        assert!(BaseHeader::read(&mut r, 0xDEAD).is_err());
    }

    #[test]
    fn lorenzo_3d_exact_on_linear_field() {
        // A trilinear field is exactly predicted by order-1 Lorenzo.
        let dims = [4usize, 5, 6];
        let mut vals = Vec::new();
        for z in 0..dims[0] {
            for y in 0..dims[1] {
                for x in 0..dims[2] {
                    vals.push((2 * x + 3 * y + 5 * z) as f64);
                }
            }
        }
        for idx in 0..vals.len() {
            let x = idx % 6;
            let y = (idx / 6) % 5;
            let z = idx / 30;
            if x > 0 && y > 0 && z > 0 {
                let p = lorenzo_predict(&vals, idx, &dims);
                assert_eq!(p, vals[idx], "at ({z},{y},{x})");
            }
        }
    }

    #[test]
    fn quantize_roundtrip_within_radius() {
        let (sym, recon) = quantize_error(1.5f32, 1.0, 0.002).unwrap();
        assert!((recon - 1.5).abs() <= 0.001 + 1e-6);
        let r2: f32 = dequantize_symbol(sym, 1.0, 0.002);
        assert_eq!(r2, recon);
        // Far outside the radius → outlier.
        assert!(quantize_error(1e6f32, 0.0, 0.002).is_none());
    }

    #[test]
    fn entropy_backend_roundtrip() {
        let syms: Vec<u16> = (0..5000).map(|i| 32768 + (i % 5) as u16).collect();
        let buf = entropy_backend(&syms);
        assert!(buf.len() < 2000);
        assert_eq!(entropy_backend_decode(&buf).unwrap(), syms);
    }
}
