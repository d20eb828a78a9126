//! Lossless stage 3: zero-byte elimination with iterated bitmap
//! compression (Fig. 5). This is the only stage that actually shrinks data.
//!
//! A bitmap flags the nonzero bytes of the input (one bit per byte); zero
//! bytes are dropped. The bitmap itself — a fixed 1/8 of the input — is then
//! compressed by the *repeat* variant of the same idea: a second, 8×-smaller
//! bitmap flags which bitmap bytes differ from their predecessor, and only
//! those are emitted. That repeat step is applied [`LEVELS`] (4) times, so a
//! 16 KiB chunk's final bitmap is a single byte.
//!
//! Serialized layout (all sizes derivable from the uncompressed length):
//!
//! ```text
//! [bitmap_4][nonrep_4][nonrep_3][nonrep_2][nonrep_1][nonzero data bytes]
//! ```
//!
//! where `nonrep_k` are the non-repeating bytes of `bitmap_{k-1}` flagged by
//! `bitmap_k` (predecessor initialized to zero at each level).
//!
//! Every level is one operation: flag the bytes worth keeping (nonzero at
//! level 0, different from their predecessor above it), then pack them.
//! There is one encoder and one decoder, [`Scratch`], and one 64-byte line
//! kernel in each direction for every level: `line::compact64` packs the
//! flagged bytes of a line on the way in and `line::expand64` scatters
//! them back on the way out. The data lines pass through them in
//! `Scratch::push_line64` and `Scratch::next_line`; the repeat levels
//! (the level-0 bitmap among them) are built a 64-byte line at a time by
//! `compact_into` when encoding and rebuilt by `expand_into`, followed by a
//! fill of the repeated bytes, when decoding. One SWAR function,
//! `line::flags64`, flags both kinds of line. The fused chunk kernel
//! streams the transpose's plane lines through them directly; a flat byte
//! buffer ([`encode_to_scratch`] / [`decode_into`]) is one plane whose
//! final partial line is padded with zeros, which adds no bitmap bits and
//! no survivors.
//!
//! The line kernels are chosen at run time ([`line_kernel`] names them):
//! `vpcompressb` / `vpexpandb` (and `vptestmb` for the data-line flags)
//! where the CPU has AVX-512 VBMI2, else the portable scalar kernels,
//! which are also the reference the vector ones are tested against (the
//! unit tests call them directly). Both write identical bytes; a build
//! whose target CPU has VBMI2 folds the check away and inlines the
//! kernels.
//!
//! Encoding stages every piece in the scratch and returns the serialized
//! length; nothing is emitted until the caller asks ([`Scratch::append_to`]
//! / [`Scratch::write_to`]). This lets the chunk pipeline decide raw
//! fallback *before* any archive bytes are written, and lets parallel
//! workers write straight into disjoint slab slots — no per-chunk
//! allocation either way.

use crate::error::{Error, Result};

/// Number of repeat-elimination rounds applied to the bitmap (paper: 4).
pub const LEVELS: usize = 4;

/// Bytes per line of the compaction and expansion kernels.
const LINE: usize = 64;

fn bitmap_len(n: usize) -> usize {
    n.div_ceil(8)
}

/// The 64-byte line kernels. Bit `i` of a line's mask flags byte `i`
/// (little-endian byte `j` of the mask is the flag byte of 8-byte group
/// `j`), and flagged bytes are packed in ascending byte order.
mod line {
    /// Whether this CPU runs the VBMI2 kernels. A build whose target CPU
    /// already has the features folds this to `true`.
    #[inline]
    pub fn vbmi2() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vbmi2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// The flag mask of a line, one SWAR word at a time. With no
    /// predecessor (data lines) a byte is flagged when it is nonzero; with
    /// `Some(p)` (repeat levels) when it differs from the byte before it,
    /// `p` being the byte before the line.
    #[inline]
    pub fn flags64(line: &[u8; 64], prev: Option<u8>) -> u64 {
        let mut mask = 0u64;
        let mut before = prev.map(u64::from);
        for (j, g) in line.as_chunks::<8>().0.iter().enumerate() {
            let x = u64::from_le_bytes(*g);
            // Repeat levels: byte i of y is byte i XOR its predecessor.
            let y = before.map_or(x, |b| x ^ (x << 8 | b));
            before = before.map(|_| x >> 56);
            mask |= (super::nonzero_byte_mask(y) as u64) << (8 * j);
        }
        mask
    }

    /// Pack the nonzero bytes of `line` into the head of `dst`: the
    /// data-line flags, then [`compact64`]. Returns `(mask,
    /// survivor_count)`; same `dst` contract as [`compact64`]. The VBMI2
    /// kernel computes the mask with `vptestmb`.
    #[inline]
    pub fn compress64(line: &[u8; 64], dst: &mut [u8]) -> (u64, usize) {
        if vbmi2() {
            // SAFETY: VBMI2 support was detected just above (`vbmi2()` is
            // false off x86-64).
            #[cfg(target_arch = "x86_64")]
            return unsafe { vbmi2::compress64(line, dst) };
        }
        let mask = flags64(line, None);
        (mask, compact64_scalar(mask, line, dst))
    }

    /// Pack the bytes of `line` that `mask` flags (ascending) into the head
    /// of `dst`; returns their count. `dst` must be at least 64 bytes;
    /// bytes past the count are unspecified. This is the only code that
    /// packs flagged bytes. Runs the VBMI2 kernel where the CPU has it,
    /// else [`compact64_scalar`].
    #[inline]
    pub fn compact64(mask: u64, line: &[u8; 64], dst: &mut [u8]) -> usize {
        if vbmi2() {
            // SAFETY: VBMI2 support was detected just above (`vbmi2()` is
            // false off x86-64).
            #[cfg(target_arch = "x86_64")]
            return unsafe { vbmi2::compact64(mask, line, dst) };
        }
        compact64_scalar(mask, line, dst)
    }

    /// [`compact64`] on the portable kernel, which is also the VBMI2
    /// kernel's reference.
    #[inline]
    pub fn compact64_scalar(mask: u64, line: &[u8; 64], dst: &mut [u8]) -> usize {
        let mut n = 0usize;
        for (j, g) in line.as_chunks::<8>().0.iter().enumerate() {
            let m = (mask >> (8 * j)) as u8;
            if m == 0xFF {
                dst[n..n + 8].copy_from_slice(g);
                n += 8;
            } else {
                // Set-bit iteration, ascending: same order as a byte scan.
                let mut b = m;
                while b != 0 {
                    dst[n] = g[b.trailing_zeros() as usize];
                    n += 1;
                    b &= b - 1;
                }
            }
        }
        n
    }

    /// Inverse of [`compact64`]: scatter the first `popcount(mask)` bytes
    /// of `src` to the set bit positions of `mask`, zeros elsewhere. `src`
    /// must hold at least that many bytes. Runs the VBMI2 kernel where the
    /// CPU has it, else [`expand64_scalar`].
    #[inline]
    pub fn expand64(mask: u64, src: &[u8], out: &mut [u8; 64]) {
        if vbmi2() {
            // SAFETY: VBMI2 support was detected just above (`vbmi2()` is
            // false off x86-64).
            #[cfg(target_arch = "x86_64")]
            return unsafe { vbmi2::expand64(mask, src, out) };
        }
        expand64_scalar(mask, src, out);
    }

    /// [`expand64`] on the portable kernel, which is also the VBMI2
    /// kernel's reference.
    #[inline]
    pub fn expand64_scalar(mask: u64, src: &[u8], out: &mut [u8; 64]) {
        let mut cur = 0usize;
        for (j, g) in out.as_chunks_mut::<8>().0.iter_mut().enumerate() {
            let m = (mask >> (8 * j)) as u8;
            if m == 0xFF {
                g.copy_from_slice(&src[cur..cur + 8]);
                cur += 8;
            } else {
                g.fill(0);
                let mut b = m;
                while b != 0 {
                    g[b.trailing_zeros() as usize] = src[cur];
                    cur += 1;
                    b &= b - 1;
                }
            }
        }
    }

    /// The VBMI2 kernels, compiled for AVX-512 VBMI2 whatever the build's
    /// target CPU; callers check for it at run time.
    #[cfg(target_arch = "x86_64")]
    mod vbmi2 {
        use crate::lossless::avx512::{load, store};
        use std::arch::x86_64::*;

        /// `vptestmb` computes the data-line mask, [`compact64`] packs the
        /// survivors; same contract as [`super::compress64`].
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vbmi2")]
        pub fn compress64(line: &[u8; 64], dst: &mut [u8]) -> (u64, usize) {
            let v = load(line);
            let mask = _mm512_test_epi8_mask(v, v);
            (mask, compact64(mask, line, dst))
        }

        /// `vpcompressb` packs the flagged bytes; same contract as
        /// [`super::compact64`].
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vbmi2")]
        pub fn compact64(mask: u64, line: &[u8; 64], dst: &mut [u8]) -> usize {
            // Caller contract (encode side only — never reachable from
            // archive bytes): kept as a hard assert because it guards the
            // unsafe 64-byte store below.
            assert!(dst.len() >= 64);
            let v = load(line);
            let packed = _mm512_maskz_compress_epi8(mask, v);
            // SAFETY: the assert above keeps the 64-byte store inside
            // `dst`.
            unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), packed) };
            mask.count_ones() as usize
        }

        /// `vpexpandb` scatter; same contract as [`super::expand64`]. Only
        /// the `popcount(mask)` survivor bytes of `src` are accessed
        /// (masked load with fault suppression).
        #[inline]
        #[target_feature(enable = "avx512f,avx512bw,avx512vbmi2")]
        pub fn expand64(mask: u64, src: &[u8], out: &mut [u8; 64]) {
            let need = mask.count_ones() as usize;
            // Caller contract: `Scratch::begin_decode`'s exact-count check
            // proves the payload holds all survivors, so this is not
            // reachable from untrusted archive bytes. Kept as a hard
            // assert because it guards the unsafe masked load below.
            assert!(src.len() >= need);
            let lm: __mmask64 = if need == 64 { !0 } else { (1u64 << need) - 1 };
            // SAFETY: the masked load reads only the `need` in-bounds bytes
            // (AVX-512 masked loads suppress faults on masked-out
            // elements).
            let v = unsafe { _mm512_maskz_loadu_epi8(lm, src.as_ptr().cast()) };
            let ex = _mm512_maskz_expand_epi8(mask, v);
            store(out, ex);
        }
    }
}

/// The zero-elimination line kernel [`Scratch`] (and so the fused chunk
/// kernels, [`encode_to_scratch`] and [`decode_into`]) runs on this CPU:
/// `"avx512-vbmi2"` or the portable `"scalar"`.
pub fn line_kernel() -> &'static str {
    if line::vbmi2() {
        "avx512-vbmi2"
    } else {
        "scalar"
    }
}

/// SWAR: bit `i` of the result is set iff byte `i` of `x` is nonzero.
#[inline(always)]
fn nonzero_byte_mask(x: u64) -> u8 {
    const LOW: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    // bit 7 of each byte set iff the byte is nonzero
    let m = (((x & LOW).wrapping_add(LOW)) | x) & !LOW;
    // gather the eight bit-7 indicators into one byte, byte 0 → bit 0
    ((m >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8
}

/// Zero-elimination encoder and decoder over bit planes, with reusable
/// buffers: all of them grow to the working set of the first chunk, and
/// steady-state use performs no heap allocation.
///
/// The input is `planes` consecutive planes of `plane_bytes` bytes each
/// (plane-major, as the bit shuffle lays them out), streamed one 64-byte
/// line at a time in plane order within each plane. The fused chunk kernel
/// never materializes the shuffled buffer: each transposed tile hands over
/// one line per bit plane, and accumulating per plane reproduces the
/// byte stream of the whole buffer exactly:
///
/// * the level-0 bitmap byte for plane `p` offset `off` lives at bitmap
///   index `(p * plane_bytes + off) / 8` — written by scatter;
/// * plane `p`'s surviving bytes occupy a private region of `data` (one
///   plane stride each, so regions never collide) and are concatenated in
///   plane order on emit.
///
/// Several planes must each be a whole number of lines; a single plane
/// may have any length, its final line padded with zeros. Encode with
/// [`Self::begin`], [`Self::push_line64`] per line and
/// [`Self::finish_encode`], then emit with [`Self::append_to`] /
/// [`Self::write_to`]. Decode with [`Self::begin_decode`], which expands
/// the level bitmaps and sets up one payload cursor per plane, then
/// [`Self::next_line`] per line.
#[derive(Default)]
pub struct Scratch {
    planes: usize,
    plane_bytes: usize,
    /// Bytes per plane region: `plane_bytes` rounded up to whole lines.
    stride: usize,
    /// Level-0 nonzero bitmap, `planes * stride / 8` bytes, of which the
    /// first `ceil(planes * plane_bytes / 8)` are serialized. Every byte is
    /// assigned (not OR-ed) exactly once per chunk, so `begin` never
    /// zero-fills it.
    bitmap: Vec<u8>,
    /// Ping-pong pair for the repeat levels; after `finish_encode`,
    /// `bitmap_b` holds the top (level-`LEVELS`) bitmap.
    bitmap_b: Vec<u8>,
    bitmap_c: Vec<u8>,
    /// Survivor bytes: plane `p` owns `data[p*stride..][..counts[p]]`.
    data: Vec<u8>,
    /// Encode: survivor count per plane. Decode: absolute payload cursor
    /// per plane.
    counts: Vec<usize>,
    /// Bytes streamed so far per plane (both directions).
    filled: Vec<usize>,
    /// Non-repeating bytes of bitmap levels 0..LEVELS-1.
    nonreps: [Vec<u8>; LEVELS],
}

/// `Some(stride)` if `planes` planes of `plane_bytes` bytes are a valid
/// shape: a single plane of any length, or planes of whole lines.
fn plane_stride(planes: usize, plane_bytes: usize) -> Option<usize> {
    (planes <= 1 || plane_bytes.is_multiple_of(LINE)).then(|| plane_bytes.next_multiple_of(LINE))
}

impl Scratch {
    fn set_shape(&mut self, planes: usize, plane_bytes: usize, stride: usize) {
        self.planes = planes;
        self.plane_bytes = plane_bytes;
        self.stride = stride;
        self.counts.clear();
        self.counts.resize(planes, 0);
        self.filled.clear();
        self.filled.resize(planes, 0);
    }

    /// Start encoding `planes * plane_bytes` shuffled bytes. Several planes
    /// must each be a whole number of 64-byte lines (the fused chunk kernel
    /// guarantees this).
    pub fn begin(&mut self, planes: usize, plane_bytes: usize) {
        let stride = plane_stride(planes, plane_bytes).unwrap_or_else(|| {
            panic!("{planes} planes of {plane_bytes} bytes: planes must be whole 64-byte lines")
        });
        self.set_shape(planes, plane_bytes, stride);
        // Exact-size resizes: no work (in particular no zero-fill) in the
        // steady state where every chunk has the same shape.
        self.bitmap.resize(planes * stride / 8, 0);
        self.data.resize(planes * stride, 0);
    }

    /// Stream the next 64-byte line of `plane`: its eight level-0 bitmap
    /// bytes and its survivors. This is the only compaction of data
    /// bytes; the repeat levels go through the same line kernel in
    /// [`Self::finish_encode`].
    #[inline]
    pub fn push_line64(&mut self, plane: usize, line: &[u8; 64]) {
        debug_assert!(plane < self.planes);
        debug_assert!(self.filled[plane] + LINE <= self.stride);
        let base = plane * self.stride;
        let fill = self.filled[plane];
        let cnt = self.counts[plane];
        // `cnt <= fill` and `fill + 64 <= stride` guarantee the 64-byte
        // headroom `compress64` stores into.
        let (mask, n) = line::compress64(line, &mut self.data[base + cnt..base + self.stride]);
        self.bitmap[(base + fill) >> 3..(base + fill + LINE) >> 3]
            .copy_from_slice(&mask.to_le_bytes());
        self.filled[plane] = fill + LINE;
        self.counts[plane] = cnt + n;
    }

    /// Finish the chunk: every plane must have received all of its lines.
    /// Builds the repeat levels over the serialized part of the level-0
    /// bitmap, one 64-byte line at a time through the same line kernel as
    /// [`Self::push_line64`], and returns the total serialized length (the
    /// raw-fallback input); nothing is emitted yet.
    pub fn finish_encode(&mut self) -> usize {
        debug_assert!(self.filled.iter().all(|&f| f == self.stride));
        let len0 = bitmap_len(self.planes * self.plane_bytes);
        // Ping-pong through (bitmap_b, bitmap_c) so the level-0 bitmap
        // buffer keeps its full size across chunks.
        let mut lo = std::mem::take(&mut self.bitmap_b);
        let mut hi = std::mem::take(&mut self.bitmap_c);
        compact_into(&self.bitmap[..len0], &mut lo, &mut self.nonreps[0]);
        for k in 1..LEVELS {
            compact_into(&lo, &mut hi, &mut self.nonreps[k]);
            std::mem::swap(&mut lo, &mut hi);
        }
        self.bitmap_b = lo;
        self.bitmap_c = hi;
        self.bitmap_b.len()
            + self.nonreps.iter().map(Vec::len).sum::<usize>()
            + self.counts.iter().sum::<usize>()
    }

    /// The staged pieces in serialization order: top bitmap, non-repeat
    /// bytes from the top level down, then each plane's survivors.
    fn parts(&self) -> impl Iterator<Item = &[u8]> {
        std::iter::once(&self.bitmap_b[..])
            .chain(self.nonreps.iter().rev().map(|nr| &nr[..]))
            .chain((0..self.planes).map(|p| &self.data[p * self.stride..][..self.counts[p]]))
    }

    /// Append the encoding staged by [`Self::finish_encode`] to `out`.
    pub fn append_to(&self, out: &mut Vec<u8>) {
        for part in self.parts() {
            out.extend_from_slice(part);
        }
    }

    /// Write the staged encoding into `dst`, whose length must equal the
    /// value returned by the matching [`Self::finish_encode`] call.
    pub fn write_to(&self, dst: &mut [u8]) {
        let mut off = 0usize;
        for part in self.parts() {
            dst[off..off + part.len()].copy_from_slice(part);
            off += part.len();
        }
        debug_assert_eq!(off, dst.len());
    }

    /// Start decoding `payload` as `planes` planes of `plane_bytes` bytes:
    /// expand the repeat levels down to the level-0 bitmap, one 64-byte
    /// line at a time through the same line kernel as [`Self::next_line`]
    /// (the level-0 bitmap is an eighth of the chunk, 2 KiB of a 16 KiB
    /// one; the data expansion happens lazily in [`Self::next_line`]), and
    /// set up one payload cursor per plane. Verifies that the payload
    /// length matches the bitmap's survivor count *exactly*, which rejects
    /// both truncated payloads and trailing bytes.
    pub fn begin_decode(
        &mut self,
        payload: &[u8],
        planes: usize,
        plane_bytes: usize,
    ) -> Result<()> {
        // Shape errors surface as Corrupt rather than a panic so no decode
        // entry point can be driven into an abort, whatever the caller
        // passes.
        let stride = plane_stride(planes, plane_bytes).ok_or_else(|| {
            Error::Corrupt(format!(
                "{planes} planes of {plane_bytes} bytes: planes must be whole 64-byte lines"
            ))
        })?;
        self.set_shape(planes, plane_bytes, stride);
        let n = planes * plane_bytes;
        let top_len = level_len(n, LEVELS);
        if payload.len() < top_len {
            return Err(Error::Truncated {
                offset: payload.len(),
                needed: top_len - payload.len(),
                have: 0,
                what: "zero-elimination top bitmap",
            });
        }
        let mut lo = std::mem::take(&mut self.bitmap_b);
        let mut hi = std::mem::take(&mut self.bitmap_c);
        lo.clear();
        lo.extend_from_slice(&payload[..top_len]);
        let mut cursor = top_len;
        let mut res = Ok(());
        for k in (0..LEVELS).rev() {
            // The level-0 bitmap lands in its dedicated buffer; upper
            // levels ping-pong.
            let dst = if k == 0 { &mut self.bitmap } else { &mut hi };
            res = expand_into(&lo, level_len(n, k), payload, &mut cursor, dst);
            if res.is_err() {
                break;
            }
            if k != 0 {
                std::mem::swap(&mut lo, &mut hi);
            }
        }
        self.bitmap_b = lo;
        self.bitmap_c = hi;
        res?;
        // Bits of the last bitmap byte past `n` flag no byte; the zero
        // padding up to whole lines flags none either.
        if !n.is_multiple_of(8) {
            self.bitmap[n / 8] &= (1u8 << (n % 8)) - 1;
        }
        self.bitmap.resize(planes * stride / 8, 0);
        let mut c = cursor;
        for p in 0..planes {
            self.counts[p] = c;
            // A plane's bitmap is `stride / 8` bytes, a whole number of
            // 8-byte words.
            let (words, _) = self.bitmap[p * stride / 8..][..stride / 8].as_chunks::<8>();
            c += words
                .iter()
                .map(|w| u64::from_le_bytes(*w).count_ones() as usize)
                .sum::<usize>();
        }
        if c != payload.len() {
            return Err(Error::Corrupt(format!(
                "zero-elimination payload length mismatch: need {c} bytes, have {}",
                payload.len()
            )));
        }
        Ok(())
    }

    /// Expand the next 64-byte line of `plane` into `out` (each plane must
    /// be walked sequentially). `payload` must be the slice given to
    /// [`Self::begin_decode`], whose length check guarantees every cursor
    /// stays in bounds. This is the only zero-fill expansion of data
    /// bytes; the repeat levels go through the same line kernel in
    /// [`Self::begin_decode`].
    #[inline]
    pub fn next_line(&mut self, payload: &[u8], plane: usize, out: &mut [u8; 64]) {
        debug_assert!(self.filled[plane] + LINE <= self.stride);
        let bi = (plane * self.stride + self.filled[plane]) >> 3;
        let cur = self.counts[plane];
        let (masks, _) = self.bitmap[bi..].as_chunks::<8>();
        let mask = u64::from_le_bytes(masks[0]);
        line::expand64(mask, &payload[cur..], out);
        self.counts[plane] = cur + mask.count_ones() as usize;
        self.filled[plane] += LINE;
    }
}

/// Size in bytes of the `k`-th level bitmap for an `n`-byte input
/// (`k == 0` is the nonzero bitmap).
fn level_len(n: usize, k: usize) -> usize {
    let mut len = n;
    for _ in 0..=k {
        len = bitmap_len(len);
    }
    len
}

/// Flag the bytes of the level `src` that differ from their predecessor
/// (zero before the first byte) in `bitmap` and pack them into `data`: the
/// encode mirror of [`expand_into`]. Works a 64-byte line at a time,
/// [`line::flags64`] flagging and [`line::compact64`] packing; the last
/// partial line is zero-padded and its flags past the level's end are
/// cleared.
fn compact_into(src: &[u8], bitmap: &mut Vec<u8>, data: &mut Vec<u8>) {
    // Every flag byte and every kept byte is overwritten below, so the
    // resizes need no clear. A line packs at a count no larger than the
    // bytes before it, so whole lines leave each 64-byte store its
    // headroom; `data` is cut to the packed count at the end.
    bitmap.resize(bitmap_len(src.len()), 0);
    data.resize(src.len().next_multiple_of(LINE), 0);
    let (lines, tail) = src.as_chunks::<LINE>();
    let (mut n, mut prev) = (0usize, 0u8);
    let mut compact = |l: usize, line: &[u8; LINE], len: usize| {
        let mask = line::flags64(line, Some(prev)) & (!0u64 >> (LINE - len));
        prev = line[LINE - 1];
        let flags = &mut bitmap[8 * l..];
        let k = flags.len().min(8);
        flags[..k].copy_from_slice(&mask.to_le_bytes()[..k]);
        n += line::compact64(mask, line, &mut data[n..]);
    };
    for (l, line) in lines.iter().enumerate() {
        compact(l, line, LINE);
    }
    if !tail.is_empty() {
        let mut pad = [0u8; LINE];
        pad[..tail.len()].copy_from_slice(tail);
        compact(lines.len(), &pad, tail.len());
    }
    data.truncate(n);
}

/// The flag masks of an `n`-byte level, one per 64-byte output line: the
/// next eight bytes of its flag `bitmap` (the last word zero-padded), with
/// the bits past `n` cleared.
fn line_masks(bitmap: &[u8], n: usize) -> impl Iterator<Item = u64> + '_ {
    let (words, tail) = bitmap[..bitmap_len(n)].as_chunks::<8>();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    let last = (!tail.is_empty()).then_some(last);
    words
        .iter()
        .copied()
        .chain(last)
        .enumerate()
        .map(move |(l, w)| {
            let m = u64::from_le_bytes(w);
            let left = n - l * LINE;
            if left < LINE {
                m & ((1u64 << left) - 1)
            } else {
                m
            }
        })
}

/// Byte mask of each flag byte: byte `i` of `SPREAD[m]` is 0xFF iff bit
/// `i` of `m` is set.
const SPREAD: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let mut i = 0;
        while i < 8 {
            if m >> i & 1 == 1 {
                t[m] |= 0xFF << (8 * i);
            }
            i += 1;
        }
        m += 1;
    }
    t
};

/// Fill the unflagged bytes of the word `v` (zero after the deposit) with
/// their nearest flagged predecessor, or with `prev` (the byte before the
/// word) where no byte at or before them is flagged; returns the word and
/// updates `prev` to its last byte. Branch-free: the flag byte `m` spreads
/// to a byte mask, and three shift-and-merge steps (1, 2, 4 bytes) carry
/// each flagged byte across the holes above it.
#[inline(always)]
fn fill_forward(mut v: u64, m: u8, prev: &mut u8) -> u64 {
    let mut f = SPREAD[m as usize];
    for s in [8, 16, 32] {
        v |= (v << s) & !f;
        f |= f << s;
    }
    v |= (*prev as u64).wrapping_mul(0x0101_0101_0101_0101) & !f;
    *prev = (v >> 56) as u8;
    v
}

/// Reconstruct a lower-level bitmap of length `n` into `out` from its flag
/// bitmap and the flagged bytes: unflagged bytes repeat their predecessor
/// (zero before the first byte). Works a 64-byte output line at a time:
/// the line kernel deposits the flagged bytes and [`fill_forward`] fills
/// the holes. The survivor count is checked before anything is read, so
/// every deposit stays inside `payload`.
fn expand_into(
    bitmap: &[u8],
    n: usize,
    payload: &[u8],
    cursor: &mut usize,
    out: &mut Vec<u8>,
) -> Result<()> {
    let needed: usize = line_masks(bitmap, n).map(|m| m.count_ones() as usize).sum();
    let avail = payload.len().saturating_sub(*cursor);
    if needed > avail {
        return Err(Error::Truncated {
            offset: *cursor,
            needed,
            have: avail,
            what: "zero-elimination survivor bytes",
        });
    }
    // Every byte is overwritten below, so the resize needs no clear.
    out.resize(n, 0);
    let (lines, tail) = out.as_chunks_mut::<LINE>();
    let mut masks = line_masks(bitmap, n);
    let mut prev = 0u8;
    let mut expand = |mask: u64, line: &mut [u8; LINE]| {
        line::expand64(mask, &payload[*cursor..], line);
        *cursor += mask.count_ones() as usize;
        for (j, w) in line.as_chunks_mut::<8>().0.iter_mut().enumerate() {
            let v = fill_forward(u64::from_le_bytes(*w), (mask >> (8 * j)) as u8, &mut prev);
            *w = v.to_le_bytes();
        }
    };
    for (line, mask) in lines.iter_mut().zip(&mut masks) {
        expand(mask, line);
    }
    if let Some(mask) = masks.next() {
        let mut pad = [0u8; LINE];
        expand(mask, &mut pad);
        tail.copy_from_slice(&pad[..tail.len()]);
    }
    Ok(())
}

/// Stage the encoding of the flat buffer `input` (one plane) into `s`,
/// returning the total serialized length. No bytes are emitted; follow
/// with [`append_encoded`] or [`Scratch::write_to`] (the staged pieces stay
/// valid until the next encode or decode on the same scratch).
pub fn encode_to_scratch(input: &[u8], s: &mut Scratch) -> usize {
    s.begin(1, input.len());
    let (lines, tail) = input.as_chunks::<LINE>();
    for l in lines {
        s.push_line64(0, l);
    }
    if !tail.is_empty() {
        let mut pad = [0u8; LINE];
        pad[..tail.len()].copy_from_slice(tail);
        s.push_line64(0, &pad);
    }
    s.finish_encode()
}

/// Append the encoding staged in `s` to `out`.
pub fn append_encoded(s: &Scratch, out: &mut Vec<u8>) {
    s.append_to(out);
}

/// Decompress a payload staged by [`encode_to_scratch`] for an input of
/// `uncompressed_len` bytes, writing the reconstructed bytes into `out`
/// (resized). The whole payload must be consumed: truncated payloads and
/// trailing bytes are both errors, so on success the returned count of
/// consumed bytes is `payload.len()`. Nothing is allocated once the scratch
/// and `out` have grown to the chunk working set.
pub fn decode_into(
    payload: &[u8],
    uncompressed_len: usize,
    s: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<usize> {
    s.begin_decode(payload, 1, uncompressed_len)?;
    // Every byte is overwritten below, so the resize needs no clear.
    out.resize(uncompressed_len, 0);
    let (lines, tail) = out.as_chunks_mut::<LINE>();
    for l in lines {
        s.next_line(payload, 0, l);
    }
    if !tail.is_empty() {
        let mut pad = [0u8; LINE];
        s.next_line(payload, 0, &mut pad);
        tail.copy_from_slice(&pad[..tail.len()]);
    }
    Ok(payload.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(input: &[u8], out: &mut Vec<u8>) {
        let mut s = Scratch::default();
        encode_to_scratch(input, &mut s);
        append_encoded(&s, out);
    }

    fn decode(payload: &[u8], uncompressed_len: usize) -> Result<(Vec<u8>, usize)> {
        let mut out = Vec::new();
        let used = decode_into(payload, uncompressed_len, &mut Scratch::default(), &mut out)?;
        Ok((out, used))
    }

    fn roundtrip(input: &[u8]) -> usize {
        let mut enc = Vec::new();
        encode(input, &mut enc);
        let (dec, used) = decode(&enc, input.len()).unwrap();
        assert_eq!(dec, input);
        assert_eq!(used, enc.len(), "every payload byte must be consumed");
        enc.len()
    }

    /// Flag the bytes of `src` that are nonzero (`repeat == false`) or
    /// differ from their predecessor (`repeat == true`), one byte at a
    /// time: returns the flag bitmap and the flagged bytes.
    fn ref_flags(src: &[u8], repeat: bool) -> (Vec<u8>, Vec<u8>) {
        let (mut bm, mut kept, mut prev) = (vec![0u8; src.len().div_ceil(8)], Vec::new(), 0u8);
        for (i, &b) in src.iter().enumerate() {
            if b != if repeat { prev } else { 0 } {
                bm[i >> 3] |= 1 << (i & 7);
                kept.push(b);
            }
            prev = b;
        }
        (bm, kept)
    }

    /// Byte-at-a-time reference encoder, straight from the format.
    fn ref_encode(input: &[u8]) -> Vec<u8> {
        let (mut bm, data) = ref_flags(input, false);
        let mut nonreps = Vec::new();
        for _ in 0..LEVELS {
            let (up, nr) = ref_flags(&bm, true);
            nonreps.push(nr);
            bm = up;
        }
        for nr in nonreps.iter().rev() {
            bm.extend_from_slice(nr);
        }
        bm.extend_from_slice(&data);
        bm
    }

    /// Byte-at-a-time reference decoder: `None` unless the payload is
    /// consumed exactly. Bits past the end of each level are ignored.
    fn ref_decode(payload: &[u8], n: usize) -> Option<Vec<u8>> {
        let mut cur = level_len(n, LEVELS);
        let mut bm = payload.get(..cur)?.to_vec();
        // `k > 0`: expand bitmap level k-1 (unflagged bytes repeat);
        // `k == 0`: expand the data (unflagged bytes are zero).
        for k in (0..=LEVELS).rev() {
            let len = if k == 0 { n } else { level_len(n, k - 1) };
            let (mut lower, mut prev) = (vec![0u8; len], 0u8);
            for (i, slot) in lower.iter_mut().enumerate() {
                if bm[i >> 3] >> (i & 7) & 1 == 1 {
                    prev = *payload.get(cur)?;
                    cur += 1;
                } else if k == 0 {
                    prev = 0;
                }
                *slot = prev;
            }
            bm = lower;
        }
        (cur == payload.len()).then_some(bm)
    }

    /// Bytes with plenty of zeros: nonzero with probability `1/zero_every`.
    fn sparse_bytes(n: usize, seed: u64, zero_every: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x.is_multiple_of(zero_every) {
                    (x >> 8) as u8 | 1
                } else {
                    0
                }
            })
            .collect()
    }

    #[test]
    fn all_zero_input_is_tiny() {
        let size = roundtrip(&vec![0u8; 16384]);
        // 16 KiB of zeros: bitmap0 all zero → every level all zero →
        // only the 1-byte top bitmap remains.
        assert_eq!(size, 1, "all-zero 16 KiB should compress to 1 byte");
    }

    #[test]
    fn all_ones_input_overhead_is_small() {
        let size = roundtrip(&vec![0xFFu8; 16384]);
        // Data is incompressible (all bytes kept) but bitmaps collapse:
        // bitmap0 = 2048×0xFF → 1 differing byte, etc.
        assert!(size <= 16384 + 8, "got {size}");
    }

    #[test]
    fn paper_figure_example() {
        // Fig. 5-style: sparse nonzero bytes.
        let mut input = vec![0u8; 64];
        input[3] = 7;
        input[10] = 255;
        input[63] = 1;
        let mut enc = Vec::new();
        encode(&input, &mut enc);
        assert!(enc.len() < 64 / 2);
        let (dec, _) = decode(&enc, 64).unwrap();
        assert_eq!(dec, input);
    }

    #[test]
    fn empty_input() {
        assert_eq!(roundtrip(&[]), 0);
    }

    /// A flat buffer of every length 0..=200 (whole lines, partial final
    /// lines, sub-line inputs), and of strided lengths past 4096 bytes
    /// (where the level-1 bitmap spans more than one line), encodes to the
    /// reference bytes, and both the codec and the reference decoder invert
    /// it.
    #[test]
    fn flat_lengths_match_reference() {
        let (mut s, mut out) = (Scratch::default(), Vec::new());
        for n in (0..=200usize).chain((4090..=20000).step_by(577)) {
            for (seed, zero_every) in [(n as u64, 1), (n as u64 * 7 + 3, 3), (n as u64 + 5, 64)] {
                let input = sparse_bytes(n, seed, zero_every);
                let mut enc = Vec::new();
                encode_to_scratch(&input, &mut s);
                append_encoded(&s, &mut enc);
                assert_eq!(enc, ref_encode(&input), "n = {n}");
                assert_eq!(ref_decode(&enc, n).as_deref(), Some(&input[..]), "n = {n}");
                let used = decode_into(&enc, n, &mut s, &mut out).unwrap();
                assert_eq!(used, enc.len(), "n = {n}");
                assert_eq!(out, input, "n = {n}");
            }
        }
    }

    /// Every flag byte at every word position of a repeat-level line
    /// expands to the reference bytes: the level-0
    /// bitmap is built so that level-1 flag byte `8 + w` is `f`, the byte
    /// before that word is `prev` (for `w == 0`, the last byte of the line
    /// before), and flagged bytes are arbitrary, zero among them. The
    /// level lengths are not whole words or lines, and the last survivor
    /// of the level-0 bitmap ends mid-line.
    #[test]
    fn repeat_level_flags_match_reference() {
        let (mut s, mut out) = (Scratch::default(), Vec::new());
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for w in 0..8usize {
            for f in 0..=255u8 {
                for prev in [0x00, 0xFF, rand() as u8] {
                    let word = LINE + 8 * w;
                    let len0 = word + 8 + 1 + f as usize % 7;
                    let mut bm0: Vec<u8> = (0..word).map(|_| rand() as u8).collect();
                    bm0[word - 1] = prev;
                    for i in word..len0 {
                        let last = bm0[i - 1];
                        let flagged = i >= word + 8 || f >> (i - word) & 1 == 1;
                        bm0.push(if !flagged {
                            last
                        } else if last != 0 && rand() % 4 == 0 {
                            0
                        } else {
                            (rand() as u8).max(1) ^ last
                        });
                    }
                    assert_eq!(ref_flags(&bm0, true).0[word / 8], f);
                    let input: Vec<u8> = (0..8 * len0)
                        .map(|i| (bm0[i / 8] >> (i % 8) & 1) * (rand() as u8 | 1))
                        .collect();
                    let reference = ref_encode(&input);
                    assert_eq!(
                        ref_decode(&reference, input.len()).as_deref(),
                        Some(&input[..])
                    );
                    let case = format!("w {w} f {f:#04x} prev {prev:#04x}");
                    let mut enc = Vec::new();
                    encode_to_scratch(&input, &mut s);
                    append_encoded(&s, &mut enc);
                    assert_eq!(enc, reference, "{case}");
                    let used = decode_into(&enc, input.len(), &mut s, &mut out);
                    assert_eq!(used, Ok(enc.len()), "{case}");
                    assert_eq!(s.bitmap[..len0], bm0, "{case}");
                    assert_eq!(out, input, "{case}");
                }
            }
        }
    }

    /// A payload cut inside the top bitmap or inside a level's non-repeat
    /// bytes fails with the exact offset, need and have of that piece; a
    /// cut inside the data fails the length check.
    #[test]
    fn truncation_errors_name_the_piece() {
        let input = sparse_bytes(5000, 11, 3);
        let n = input.len();
        let enc = ref_encode(&input);
        // Non-repeat byte counts per level, from the reference encoder.
        let mut bm = ref_flags(&input, false).0;
        let mut nonrep = [0usize; LEVELS];
        for len in &mut nonrep {
            let (up, nr) = ref_flags(&bm, true);
            *len = nr.len();
            bm = up;
        }
        let top = level_len(n, LEVELS);
        let data = top + nonrep.iter().sum::<usize>();
        let (mut s, mut out) = (Scratch::default(), Vec::new());
        for cut in 0..enc.len() {
            let want = if cut < top {
                Error::Truncated {
                    offset: cut,
                    needed: top - cut,
                    have: 0,
                    what: "zero-elimination top bitmap",
                }
            } else if cut < data {
                // Pieces run from the top level down; find the one cut.
                let mut offset = top;
                let mut k = LEVELS - 1;
                while cut >= offset + nonrep[k] {
                    offset += nonrep[k];
                    k -= 1;
                }
                Error::Truncated {
                    offset,
                    needed: nonrep[k],
                    have: cut - offset,
                    what: "zero-elimination survivor bytes",
                }
            } else {
                Error::Corrupt(format!(
                    "zero-elimination payload length mismatch: need {} bytes, have {cut}",
                    enc.len()
                ))
            };
            let got = decode_into(&enc[..cut], n, &mut s, &mut out);
            assert_eq!(got, Err(want), "cut {cut}");
        }
        assert!(
            nonrep.iter().all(|&l| l > 0),
            "every level must be cut: {nonrep:?}"
        );
    }

    /// Whether this CPU runs the VBMI2 kernels. Without them the VBMI2
    /// cases say so and return early rather than pass having tested
    /// nothing.
    fn have_vbmi2(case: &str) -> bool {
        if !line::vbmi2() {
            eprintln!("{case}: this CPU has no AVX-512 VBMI2; the VBMI2 kernels were not tested");
        }
        line::vbmi2()
    }

    /// Test lines for the line kernels: every flag byte `f` at each of the
    /// 8 byte positions `w` (group `w` nonzero exactly at the set bits of
    /// `f`, the other groups sparse), then all-nonzero, sparse and all-zero
    /// lines.
    fn kernel_lines() -> Vec<[u8; 64]> {
        let mut lines = Vec::new();
        for w in 0..8 {
            for f in 0..=255u8 {
                let mut l: [u8; 64] = sparse_bytes(64, 8 * w as u64 + 256 * f as u64, 3)
                    .try_into()
                    .unwrap();
                for (i, b) in l[8 * w..][..8].iter_mut().enumerate() {
                    *b = if f >> i & 1 == 1 { f | 1 } else { 0 };
                }
                lines.push(l);
            }
        }
        for seed in 0..256 {
            for zero_every in [1, 2, 3, 4, 8, 16, 64, u64::MAX] {
                lines.push(sparse_bytes(64, seed, zero_every).try_into().unwrap());
            }
        }
        lines
    }

    /// The masks test line `k` of [`kernel_lines`] is compacted with: its
    /// data-line flags, its repeat-level flags (`prev` is the line before
    /// it), flag byte `k % 256` at byte position `k / 256 % 8` among random
    /// flag bytes, and a random mask. Repeat-level and random masks flag
    /// zero bytes and skip nonzero ones, which no data-line mask does.
    fn kernel_masks(k: usize, l: &[u8; 64], prev: &[u8; 64]) -> [u64; 4] {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        let mix = |x: u64| {
            let x = (x ^ x >> 30).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let x = (x ^ x >> 27).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ x >> 31
        };
        let w = 8 * (k / 256 % 8);
        [
            word(&ref_flags(l, false).0),
            word(&ref_flags(&[&prev[..], &l[..]].concat(), true).0[8..]),
            mix(2 * k as u64) & !(0xFF << w) | (k as u64 % 256) << w,
            mix(2 * k as u64 + 1),
        ]
    }

    /// The bytes of `l` that `mask` flags, one byte at a time.
    fn ref_compact(mask: u64, l: &[u8; 64]) -> Vec<u8> {
        (0..64)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| l[i])
            .collect()
    }

    /// The scalar line kernels, called directly (on VBMI2 hosts the codec
    /// never reaches them), against a byte-at-a-time reference: both flag
    /// kinds, compaction under every mask of [`kernel_masks`], and
    /// expansion of the compacted bytes, which restores the flagged bytes
    /// and zeroes the others.
    #[test]
    fn scalar_line_kernels_match_reference() {
        let lines = kernel_lines();
        for (k, l) in lines.iter().enumerate() {
            let prev = if k == 0 { [0u8; 64] } else { lines[k - 1] };
            let masks = kernel_masks(k, l, &prev);
            assert_eq!(line::flags64(l, None), masks[0], "line {k}");
            assert_eq!(line::flags64(l, Some(prev[63])), masks[1], "line {k}");
            for mask in masks {
                let case = format!("line {k} mask {mask:#018x}");
                let mut got = [0u8; 64];
                let n = line::compact64_scalar(mask, l, &mut got);
                assert_eq!(got[..n], ref_compact(mask, l), "{case}");
                let mut ex = [0xAAu8; 64];
                line::expand64_scalar(mask, &got[..n], &mut ex);
                let want: [u8; 64] =
                    std::array::from_fn(|i| if mask >> i & 1 == 1 { l[i] } else { 0 });
                assert_eq!(ex, want, "{case}");
            }
        }
    }

    /// The VBMI2 line kernels (which the dispatchers run on a VBMI2 CPU)
    /// agree with the scalar ones on the same lines and masks.
    #[test]
    fn vbmi2_line_kernels_match_scalar() {
        if !have_vbmi2("vbmi2_line_kernels_match_scalar") {
            return;
        }
        let lines = kernel_lines();
        for (k, l) in lines.iter().enumerate() {
            let (mut got, mut want) = ([0u8; 64], [0u8; 64]);
            let (mask, n) = line::compress64(l, &mut got);
            assert_eq!(mask, line::flags64(l, None), "line {k}");
            assert_eq!(line::compact64_scalar(mask, l, &mut want), n, "line {k}");
            assert_eq!(got[..n], want[..n], "line {k}");
            let prev = if k == 0 { [0u8; 64] } else { lines[k - 1] };
            for mask in kernel_masks(k, l, &prev) {
                let case = format!("line {k} mask {mask:#018x}");
                let n = line::compact64(mask, l, &mut got);
                assert_eq!(line::compact64_scalar(mask, l, &mut want), n, "{case}");
                assert_eq!(got[..n], want[..n], "{case}");
                let (mut ex, mut ex_ref) = ([0xAAu8; 64], [0x55u8; 64]);
                line::expand64(mask, &got[..n], &mut ex);
                line::expand64_scalar(mask, &got[..n], &mut ex_ref);
                assert_eq!(ex, ex_ref, "{case}");
            }
        }
    }

    /// The VBMI2 kernels are chosen at run time, so a build for any x86-64
    /// target keeps them and selects them wherever the CPU has VBMI2.
    #[test]
    fn line_kernel_selects_vbmi2_when_detected() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vbmi2")
        {
            assert_eq!(line_kernel(), "avx512-vbmi2");
            return;
        }
        eprintln!("line_kernel_selects_vbmi2_when_detected: no AVX-512 VBMI2 on this CPU");
        assert_eq!(line_kernel(), "scalar");
    }

    /// Bits of the last level-0 bitmap byte past the input length flag no
    /// byte: a payload that sets them decodes as if they were clear.
    #[test]
    fn bitmap_bits_past_len_are_ignored() {
        // Encode 16 bytes whose last three are nonzero, then drop those
        // three survivors: as a 13-byte payload, the final bitmap byte has
        // bits 5..8 set past the end.
        let mut input: Vec<u8> = (1..=16).collect();
        input[2] = 0;
        let mut enc = Vec::new();
        encode(&input, &mut enc);
        enc.truncate(enc.len() - 3);
        // [top][nonrep_4][nonrep_3][nonrep_2][nonrep_1 = both level-0 bytes]
        assert_eq!(enc[4..6], [0xFB, 0xFF]);
        let (dec, used) = decode(&enc, 13).unwrap();
        assert_eq!(dec, &input[..13]);
        assert_eq!(used, enc.len());
        assert_eq!(ref_decode(&enc, 13).as_deref(), Some(&input[..13]));
    }

    /// Bits of each repeat level's last byte past the length of the level
    /// below flag no byte either: setting them in the top bitmap and in the
    /// last non-repeat byte of every lower level (where that byte is the
    /// level's last) decodes as if they were clear.
    #[test]
    fn repeat_level_bits_past_len_are_ignored() {
        // Levels of 150, 19, 3 and 1 bytes: no length is a multiple of 8,
        // so the last flag byte of every level has bits past the end.
        let n = 1195;
        let input = sparse_bytes(n, 5, 2);
        let mut enc = ref_encode(&input);
        // Level-k bitmaps and the non-repeat byte counts, bottom up.
        let mut levels = vec![ref_flags(&input, false).0];
        let mut nonrep = Vec::new();
        for _ in 0..LEVELS {
            let (up, nr) = ref_flags(levels.last().unwrap(), true);
            levels.push(up);
            nonrep.push(nr.len());
        }
        let mut end = level_len(n, LEVELS);
        for k in (1..=LEVELS).rev() {
            let below = level_len(n, k - 1);
            assert!(
                !below.is_multiple_of(8),
                "level {k} has no bits past {below}"
            );
            let pad = !0u8 << (below % 8);
            if k < LEVELS {
                // Level k's last byte is its last non-repeat byte only if
                // it is flagged in level k + 1.
                let last = levels[k].len() - 1;
                assert_eq!(levels[k + 1][last / 8] >> (last % 8) & 1, 1, "level {k}");
                end += nonrep[k];
            }
            enc[end - 1] |= pad;
        }
        assert_eq!(ref_decode(&enc, n).as_deref(), Some(&input[..]));
        let (mut s, mut out) = (Scratch::default(), Vec::new());
        let used = decode_into(&enc, n, &mut s, &mut out);
        assert_eq!(used, Ok(enc.len()));
        assert_eq!(out, input);
    }

    #[test]
    fn trailing_byte_rejected() {
        let input = sparse_bytes(1000, 9, 2);
        let mut enc = Vec::new();
        encode(&input, &mut enc);
        enc.push(0);
        assert!(decode(&enc, 1000).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let input = vec![1u8; 1000];
        let mut enc = Vec::new();
        encode(&input, &mut enc);
        for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
            assert!(decode(&enc[..cut], 1000).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn scratch_reuse_across_inputs() {
        // One scratch must serve inputs of wildly different sizes in any
        // order (large → small must not leak stale bytes).
        let inputs: Vec<Vec<u8>> = vec![
            (0..9000u32).map(|i| (i % 251) as u8).collect(),
            vec![0u8; 17],
            vec![],
            (0..16384u32).map(|i| (i * 7 % 256) as u8).collect(),
            vec![3u8; 100],
        ];
        let mut s = Scratch::default();
        let mut out = Vec::new();
        for input in &inputs {
            let mut enc = Vec::new();
            let total = encode_to_scratch(input, &mut s);
            append_encoded(&s, &mut enc);
            assert_eq!(enc.len(), total);

            // write_to must produce identical bytes.
            let mut slot = vec![0u8; total];
            s.write_to(&mut slot);
            assert_eq!(slot, enc);

            let used = decode_into(&enc, input.len(), &mut s, &mut out).unwrap();
            assert_eq!(used, enc.len());
            assert_eq!(&out, input);
        }
    }

    proptest! {
        #[test]
        fn roundtrip_random(input: Vec<u8>) {
            roundtrip(&input);
        }

        #[test]
        fn roundtrip_sparse(n in 0usize..5000, fills in prop::collection::vec((0usize..5000, 1u8..), 0..40)) {
            let mut input = vec![0u8; n];
            for (pos, val) in fills {
                if pos < n { input[pos] = val; }
            }
            let size = roundtrip(&input);
            // Sparse data must compress well below the raw size + overhead.
            prop_assert!(size <= n / 8 + 40 + input.iter().filter(|&&b| b != 0).count());
        }

        /// Streaming plane lines must serialize to the reference encoding
        /// of the whole plane-major buffer, and the
        /// plane decoder must invert it, for every plane shape the fused
        /// kernel can use.
        #[test]
        fn planes_match_reference(
            planes in 1usize..65,
            plane_lines in 1usize..5,
            seed: u64,
            zero_every in 1u64..5,
        ) {
            let plane_bytes = plane_lines * LINE;
            let input = sparse_bytes(planes * plane_bytes, seed, zero_every);
            let reference = ref_encode(&input);

            let mut s = Scratch::default();
            s.begin(planes, plane_bytes);
            for (p, row) in input.chunks_exact(plane_bytes).enumerate() {
                for l in row.chunks_exact(LINE) {
                    s.push_line64(p, l.try_into().unwrap());
                }
            }
            let total = s.finish_encode();
            prop_assert_eq!(total, reference.len());
            let mut appended = Vec::new();
            s.append_to(&mut appended);
            prop_assert_eq!(&appended, &reference);
            let mut slot = vec![0u8; total];
            s.write_to(&mut slot);
            prop_assert_eq!(&slot, &reference);

            s.begin_decode(&reference, planes, plane_bytes).unwrap();
            let mut back = vec![0u8; planes * plane_bytes];
            for (p, row) in back.chunks_exact_mut(plane_bytes).enumerate() {
                for l in row.chunks_exact_mut(LINE) {
                    s.next_line(&reference, p, l.try_into().unwrap());
                }
            }
            prop_assert_eq!(&back, &input);

            // Truncations and trailing bytes must be rejected, never panic.
            for cut in [0, reference.len() / 2, reference.len().saturating_sub(1)] {
                if cut < reference.len() {
                    prop_assert!(s.begin_decode(&reference[..cut], planes, plane_bytes).is_err());
                }
            }
            let long = [&reference[..], &[0]].concat();
            prop_assert!(s.begin_decode(&long, planes, plane_bytes).is_err());
        }

        /// Any level, and the fixed level lengths just short of, at and
        /// just past one and 32 whole lines, compacts to the reference
        /// flags and bytes; stale bytes in the reused buffers do not leak
        /// into them.
        #[test]
        fn compact_into_matches_naive(src: Vec<u8>, seed: u64, zero_every in 1u64..5) {
            let (mut bitmap, mut data) = (vec![0xAA; 4096], vec![0x55; 4096]);
            for n in [63, 64, 65, 2047, 2048, 2049] {
                let fixed = sparse_bytes(n, seed, zero_every);
                compact_into(&fixed, &mut bitmap, &mut data);
                let (want_bitmap, want_data) = ref_flags(&fixed, true);
                prop_assert_eq!(&bitmap, &want_bitmap, "n = {}", n);
                prop_assert_eq!(&data, &want_data, "n = {}", n);
            }
            compact_into(&src, &mut bitmap, &mut data);
            prop_assert_eq!((bitmap, data), ref_flags(&src, true));
        }
    }
}
