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
//! Encoding is split into a staging step ([`encode_to_scratch`]) that
//! computes every piece into reusable [`Scratch`] buffers and returns the
//! total serialized length, and emit steps ([`append_encoded`] /
//! [`write_encoded`]) that assemble the pieces into a `Vec` or a
//! caller-provided slot. This lets the chunk pipeline decide raw fallback
//! *before* any archive bytes are written, and lets parallel workers write
//! straight into disjoint slab slots — no per-chunk allocation either way.

use crate::error::{Error, Result};

/// Number of repeat-elimination rounds applied to the bitmap (paper: 4).
pub const LEVELS: usize = 4;

fn bitmap_len(n: usize) -> usize {
    n.div_ceil(8)
}

/// Reusable buffers for [`encode_to_scratch`] and [`decode_into`]. All
/// buffers start empty and grow to the working set of the first chunk;
/// steady-state use performs no heap allocation.
#[derive(Default)]
pub struct Scratch {
    /// Surviving (nonzero) data bytes.
    data: Vec<u8>,
    /// Non-repeating bytes of bitmap levels 0..LEVELS-1.
    nonreps: [Vec<u8>; LEVELS],
    /// Ping-pong bitmap buffers; after staging, `bitmap_a` holds the top
    /// (level-`LEVELS`) bitmap.
    bitmap_a: Vec<u8>,
    bitmap_b: Vec<u8>,
}

/// Flag nonzero bytes of `src` into `bitmap` and append the nonzero bytes
/// themselves to `data`. Processes 8 bytes per step with a SWAR
/// nonzero-byte mask; all-zero and all-nonzero groups take fast paths
/// (zero groups dominate for compressible data).
fn build_nonzero_into(src: &[u8], bitmap: &mut Vec<u8>, data: &mut Vec<u8>) {
    bitmap.clear();
    bitmap.resize(bitmap_len(src.len()), 0);
    #[allow(unused_mut)]
    let mut head = 0usize;
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx512f",
        target_feature = "avx512bw",
        target_feature = "avx512vbmi2"
    ))]
    {
        // Whole-line kernel for the bulk of the input; the scalar loop
        // below finishes the (< 64-byte) tail with identical output.
        let mut tmp = [0u8; 64];
        while head + 64 <= src.len() {
            let l: &[u8; 64] = src[head..head + 64].try_into().unwrap();
            let (mask, n) = line::compress64(l, &mut tmp);
            bitmap[head >> 3..(head >> 3) + 8].copy_from_slice(&mask.to_le_bytes());
            data.extend_from_slice(&tmp[..n]);
            head += 64;
        }
    }
    let mut chunks = src[head..].chunks_exact(8);
    let mut bi = head >> 3;
    for chunk in &mut chunks {
        let x = u64::from_le_bytes(chunk.try_into().unwrap());
        let mask = nonzero_byte_mask(x);
        bitmap[bi] = mask;
        if mask == 0xFF {
            data.extend_from_slice(chunk);
        } else {
            // Emit only the flagged bytes: one iteration per set bit
            // (ascending, so byte order is preserved) instead of eight
            // test-and-branch rounds.
            let mut m = mask;
            while m != 0 {
                data.push(chunk[m.trailing_zeros() as usize]);
                m &= m - 1;
            }
        }
        bi += 1;
    }
    for (b, &v) in chunks.remainder().iter().enumerate() {
        if v != 0 {
            bitmap[bi] |= 1 << b;
            data.push(v);
        }
    }
}

/// AVX-512 line kernels: `vptestmb` computes eight bitmap bytes at once,
/// and `vpcompressb` / `vpexpandb` (AVX-512 VBMI2) perform the byte
/// compaction / expansion of a whole 64-byte line in single instructions.
/// Compaction order (ascending byte index) is identical to the scalar
/// set-bit iteration, so every output stays byte-for-byte the same as the
/// scalar paths, which remain as the only implementation on other targets.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx512f",
    target_feature = "avx512bw",
    target_feature = "avx512vbmi2"
))]
mod line {
    use std::arch::x86_64::*;

    /// Pack the nonzero bytes of `line` (ascending) into the head of
    /// `dst`; returns `(mask, survivor_count)` where bit `i` of `mask` is
    /// set iff `line[i] != 0` (little-endian byte `j` of `mask` equals the
    /// `nonzero_byte_mask` of 8-byte group `j`). `dst` must be at least
    /// 64 bytes: the full compressed vector is stored, and the bytes past
    /// the survivor count are garbage for the caller to ignore or
    /// overwrite.
    #[inline]
    pub fn compress64(line: &[u8; 64], dst: &mut [u8]) -> (u64, usize) {
        // Caller contract (encode side only — never reachable from archive
        // bytes): kept as a hard assert because it guards the unsafe
        // 64-byte store below.
        assert!(dst.len() >= 64);
        // SAFETY: the required target features are statically enabled
        // (this module only compiles when they are); both pointers cover
        // 64 valid bytes.
        unsafe {
            let v = _mm512_loadu_si512(line.as_ptr().cast());
            let mask = _mm512_test_epi8_mask(v, v);
            let packed = _mm512_maskz_compress_epi8(mask, v);
            _mm512_storeu_si512(dst.as_mut_ptr().cast(), packed);
            (mask, mask.count_ones() as usize)
        }
    }

    /// Inverse of [`compress64`]: scatter the first `popcount(mask)` bytes
    /// of `src` to the set bit positions of `mask`, zeros elsewhere. Only
    /// those bytes of `src` are accessed (masked load with fault
    /// suppression), so `src` may be shorter than 64 bytes.
    #[inline]
    pub fn expand64(mask: u64, src: &[u8], out: &mut [u8; 64]) {
        let need = mask.count_ones() as usize;
        // Caller contract: every decode caller first proves the payload
        // holds all survivors (`begin_decode`'s exact-count check /
        // `expand_into`'s `needed <= avail` check), so this is not
        // reachable from untrusted archive bytes. Kept as a hard assert
        // because it guards the unsafe masked load below.
        assert!(src.len() >= need);
        // SAFETY: features statically enabled; the masked load reads only
        // the `need` in-bounds bytes (AVX-512 masked loads suppress faults
        // on masked-out elements); the store covers 64 valid bytes.
        unsafe {
            let lm: __mmask64 = if need == 64 { !0 } else { (1u64 << need) - 1 };
            let v = _mm512_maskz_loadu_epi8(lm, src.as_ptr().cast());
            let ex = _mm512_maskz_expand_epi8(mask, v);
            _mm512_storeu_si512(out.as_mut_ptr().cast(), ex);
        }
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

/// Flag bytes of `src` that differ from their predecessor (predecessor
/// initialized to 0) and append those bytes to `data`.
///
/// Works on 8-byte groups: `y = x ^ ((x << 8) | prev)` has a zero byte
/// exactly where a byte repeats its predecessor, so `y == 0` (all repeat)
/// and the classic SWAR zero-byte probe `(y - 0x0101…) & !y & 0x8080…`
/// (zero ⇒ no repeats at all) route the two common cases on bitmap data —
/// long constant runs and dense change regions — past the per-byte loop.
/// The probe can report spurious zero bytes (a 0x01 directly above a zero
/// byte), so per-byte extraction uses the exact [`nonzero_byte_mask`].
fn build_nonrepeat_into(src: &[u8], bitmap: &mut Vec<u8>, data: &mut Vec<u8>) {
    bitmap.clear();
    bitmap.resize(bitmap_len(src.len()), 0);
    let mut prev = 0u8;
    let mut chunks = src.chunks_exact(8);
    let mut bi = 0usize;
    for chunk in &mut chunks {
        let x = u64::from_le_bytes(chunk.try_into().unwrap());
        // byte i of y = src byte i XOR its predecessor
        let y = x ^ ((x << 8) | prev as u64);
        prev = (x >> 56) as u8;
        if y == 0 {
            bi += 1; // all eight bytes repeat; bitmap byte stays 0
            continue;
        }
        const ONES: u64 = 0x0101_0101_0101_0101;
        const HIGH: u64 = 0x8080_8080_8080_8080;
        if y.wrapping_sub(ONES) & !y & HIGH == 0 {
            // no zero byte in y: every byte differs from its predecessor
            bitmap[bi] = 0xFF;
            data.extend_from_slice(chunk);
        } else {
            let mask = nonzero_byte_mask(y);
            bitmap[bi] = mask;
            // Set-bit iteration, ascending: same order as a byte scan.
            let mut m = mask;
            while m != 0 {
                data.push(chunk[m.trailing_zeros() as usize]);
                m &= m - 1;
            }
        }
        bi += 1;
    }
    for (b, &v) in chunks.remainder().iter().enumerate() {
        if v != prev {
            bitmap[bi] |= 1 << b;
            data.push(v);
        }
        prev = v;
    }
}

/// Stage the encoding of `input` into `s`, returning the total serialized
/// length. No bytes are emitted; follow with [`append_encoded`] or
/// [`write_encoded`] (the staged pieces stay valid until the next
/// `encode_to_scratch`/`decode_into` call on the same scratch).
pub fn encode_to_scratch(input: &[u8], s: &mut Scratch) -> usize {
    s.data.clear();
    build_nonzero_into(input, &mut s.bitmap_a, &mut s.data);
    for nr in &mut s.nonreps {
        nr.clear();
        build_nonrepeat_into(&s.bitmap_a, &mut s.bitmap_b, nr);
        std::mem::swap(&mut s.bitmap_a, &mut s.bitmap_b);
    }
    s.bitmap_a.len() + s.nonreps.iter().map(Vec::len).sum::<usize>() + s.data.len()
}

/// Append the encoding staged in `s` to `out`.
pub fn append_encoded(s: &Scratch, out: &mut Vec<u8>) {
    out.extend_from_slice(&s.bitmap_a); // bitmap_LEVELS
    for nr in s.nonreps.iter().rev() {
        out.extend_from_slice(nr);
    }
    out.extend_from_slice(&s.data);
}

/// Write the encoding staged in `s` into `dst`, whose length must equal the
/// value returned by the matching [`encode_to_scratch`] call.
pub fn write_encoded(s: &Scratch, dst: &mut [u8]) {
    let mut off = 0usize;
    for part in std::iter::once(&s.bitmap_a)
        .chain(s.nonreps.iter().rev())
        .chain(std::iter::once(&s.data))
    {
        dst[off..off + part.len()].copy_from_slice(part);
        off += part.len();
    }
    debug_assert_eq!(off, dst.len());
}

/// Streaming zero-elimination over bit planes, for the fused chunk kernel
/// (paper §III-E).
///
/// The staged encoder consumes the full 16 KiB shuffled byte buffer at
/// once. The fused pipeline never materializes that buffer: the transpose
/// hands over one 64-byte *line* per bit plane per tile, and this sink
/// eliminates zero bytes as the lines arrive. Because the shuffled buffer
/// is plane-major (`plane_bytes` consecutive bytes per plane) and each tile
/// contributes its lines in plane order, accumulating per plane reproduces
/// the staged byte stream exactly:
///
/// * the level-0 bitmap byte for plane `p` offset `off` lives at global
///   bitmap index `(p * plane_bytes + off) / 8` — written by scatter;
/// * plane `p`'s surviving bytes occupy a private region of `data`
///   (capacity `plane_bytes` each, so regions never collide) and are
///   concatenated in plane order on emit — exactly the staged data order.
///
/// The repeat levels are built by the very same `build_nonrepeat_into`
/// over the completed bitmap, so every serialized byte is identical to
/// [`encode_to_scratch`] + [`append_encoded`] by construction. Like the
/// staged encoder, everything stays staged until the raw-fallback decision;
/// emit via [`PlaneScratch::append_to`] / [`PlaneScratch::write_to`].
///
/// The same struct drives fused *decoding*: [`PlaneScratch::begin_decode`]
/// expands only the (small) level bitmaps and sets up one payload cursor
/// per plane; [`PlaneScratch::next_line`] then expands each plane's next
/// line on demand, again without the 16 KiB intermediate buffer.
#[derive(Default)]
pub struct PlaneScratch {
    planes: usize,
    plane_bytes: usize,
    /// Level-0 nonzero bitmap, `planes * plane_bytes / 8` bytes. Every byte
    /// is assigned (not OR-ed) exactly once per chunk, so `begin` never
    /// zero-fills it.
    bitmap: Vec<u8>,
    /// Ping-pong pair for the repeat levels; after `finish_encode`,
    /// `bitmap_b` holds the top (level-`LEVELS`) bitmap.
    bitmap_b: Vec<u8>,
    bitmap_c: Vec<u8>,
    /// Survivor bytes: plane `p` owns `data[p*plane_bytes..][..counts[p]]`.
    data: Vec<u8>,
    /// Encode: survivor count per plane. Decode: absolute payload cursor
    /// per plane.
    counts: Vec<usize>,
    /// Bytes streamed so far per plane (both directions).
    filled: Vec<usize>,
    /// Per-plane partial 8-byte group, LE-packed: the device-sim transpose
    /// emits word-sized pieces (4 bytes for f32), smaller than the bitmap
    /// granularity.
    pending: Vec<u64>,
    pending_len: Vec<u8>,
    /// Non-repeating bytes of bitmap levels 0..LEVELS-1.
    nonreps: [Vec<u8>; LEVELS],
}

impl PlaneScratch {
    /// Start encoding a chunk of `planes * plane_bytes` shuffled bytes.
    /// `plane_bytes` must be a positive multiple of 8 so every plane owns
    /// whole bitmap bytes (the fused chunk kernel guarantees this; other
    /// shapes take the staged fallback).
    pub fn begin(&mut self, planes: usize, plane_bytes: usize) {
        assert!(
            plane_bytes > 0 && plane_bytes.is_multiple_of(8),
            "plane_bytes must be a positive multiple of 8, got {plane_bytes}"
        );
        self.planes = planes;
        self.plane_bytes = plane_bytes;
        // Exact-size resizes: no work (in particular no zero-fill) in the
        // steady state where every chunk has the same shape.
        self.bitmap.resize(planes * plane_bytes / 8, 0);
        self.data.resize(planes * plane_bytes, 0);
        self.counts.clear();
        self.counts.resize(planes, 0);
        self.filled.clear();
        self.filled.resize(planes, 0);
        self.pending.clear();
        self.pending.resize(planes, 0);
        self.pending_len.clear();
        self.pending_len.resize(planes, 0);
    }

    /// Eliminate one complete 8-byte group of `plane`: bitmap byte by
    /// assignment, survivors into the plane's data region.
    #[inline(always)]
    fn commit_group(&mut self, plane: usize, chunk: [u8; 8]) {
        let base = plane * self.plane_bytes;
        let mask = nonzero_byte_mask(u64::from_le_bytes(chunk));
        self.bitmap[(base + self.filled[plane]) >> 3] = mask;
        let mut dst = base + self.counts[plane];
        if mask == 0xFF {
            self.data[dst..dst + 8].copy_from_slice(&chunk);
            dst += 8;
        } else if mask != 0 {
            // Set-bit iteration, ascending — same emission order as the
            // staged `build_nonzero_into`.
            let mut m = mask;
            while m != 0 {
                self.data[dst] = chunk[m.trailing_zeros() as usize];
                dst += 1;
                m &= m - 1;
            }
        }
        self.counts[plane] = dst - base;
        self.filled[plane] += 8;
    }

    #[inline]
    fn push_byte(&mut self, plane: usize, b: u8) {
        let pl = self.pending_len[plane] as usize;
        self.pending[plane] |= (b as u64) << (8 * pl);
        if pl == 7 {
            let g = self.pending[plane].to_le_bytes();
            self.pending[plane] = 0;
            self.pending_len[plane] = 0;
            self.commit_group(plane, g);
        } else {
            self.pending_len[plane] = (pl + 1) as u8;
        }
    }

    /// Stream one whole 64-byte plane line into `plane` — the CPU tile
    /// kernel's fixed granularity. Byte-for-byte equivalent to
    /// `push(plane, line)` but a dedicated, inlinable entry: the general
    /// `push` prologue (pending drain, length split) never runs, so the
    /// per-line cost is one mask + one pack.
    #[inline]
    pub fn push_line64(&mut self, plane: usize, line: &[u8; 64]) {
        debug_assert!(plane < self.planes);
        debug_assert_eq!(self.pending_len[plane], 0);
        debug_assert!(self.filled[plane] + 64 <= self.plane_bytes);
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx512f",
            target_feature = "avx512bw",
            target_feature = "avx512vbmi2"
        ))]
        {
            let base = plane * self.plane_bytes;
            let fill = self.filled[plane];
            let cnt = self.counts[plane];
            // `cnt <= fill` and `fill + 64 <= plane_bytes` guarantee the
            // 64-byte headroom `compress64` stores into.
            let (mask, n) =
                line::compress64(line, &mut self.data[base + cnt..base + self.plane_bytes]);
            self.bitmap[(base + fill) >> 3..(base + fill + 64) >> 3]
                .copy_from_slice(&mask.to_le_bytes());
            self.filled[plane] = fill + 64;
            self.counts[plane] = cnt + n;
        }
        #[cfg(not(all(
            target_arch = "x86_64",
            target_feature = "avx512f",
            target_feature = "avx512bw",
            target_feature = "avx512vbmi2"
        )))]
        self.push(plane, line);
    }

    /// Stream `bytes` into `plane`. Any length is accepted (sub-8-byte
    /// pieces are staged in a pending group); the CPU tile kernel pushes
    /// whole 64-byte lines, which take the aligned fast path throughout.
    pub fn push(&mut self, plane: usize, bytes: &[u8]) {
        debug_assert!(plane < self.planes);
        debug_assert!(self.filled[plane] + self.pending_len[plane] as usize + bytes.len() <= self.plane_bytes);
        if self.pending_len[plane] == 0 && bytes.len().is_multiple_of(8) {
            // Fast path: group-aligned input with no partial group staged.
            // The per-plane cursors live in locals for the whole call so
            // the group loop matches the staged encoder's tight loop
            // (loading `counts[plane]`/`filled[plane]` per group costs
            // ~15% of encode throughput on the full fused pipeline).
            let base = plane * self.plane_bytes;
            let fill = self.filled[plane];
            let mut cnt = self.counts[plane];
            let bitmap = &mut self.bitmap[(base + fill) >> 3..(base + fill + bytes.len()) >> 3];
            let data = &mut self.data[base..base + self.plane_bytes];
            #[cfg(all(
                target_arch = "x86_64",
                target_feature = "avx512f",
                target_feature = "avx512bw",
                target_feature = "avx512vbmi2"
            ))]
            if let Ok(l) = <&[u8; 64]>::try_from(bytes) {
                // Whole-line kernel (the CPU tile path always pushes 64
                // bytes): `cnt <= fill` and `fill + 64 <= plane_bytes`
                // guarantee the 64-byte headroom `compress64` stores into.
                let (mask, n) = line::compress64(l, &mut data[cnt..]);
                bitmap.copy_from_slice(&mask.to_le_bytes());
                self.filled[plane] = fill + 64;
                self.counts[plane] = cnt + n;
                return;
            }
            for (g, bm) in bytes.chunks_exact(8).zip(bitmap) {
                let chunk: [u8; 8] = g.try_into().unwrap();
                let mask = nonzero_byte_mask(u64::from_le_bytes(chunk));
                *bm = mask;
                if mask == 0xFF {
                    data[cnt..cnt + 8].copy_from_slice(&chunk);
                    cnt += 8;
                } else if mask != 0 {
                    // Set-bit iteration, ascending — same emission order
                    // as the staged `build_nonzero_into`.
                    let mut m = mask;
                    while m != 0 {
                        data[cnt] = chunk[m.trailing_zeros() as usize];
                        cnt += 1;
                        m &= m - 1;
                    }
                }
            }
            self.filled[plane] = fill + bytes.len();
            self.counts[plane] = cnt;
            return;
        }
        let mut rest = bytes;
        while self.pending_len[plane] != 0 && !rest.is_empty() {
            self.push_byte(plane, rest[0]);
            rest = &rest[1..];
        }
        let mut groups = rest.chunks_exact(8);
        for g in &mut groups {
            self.commit_group(plane, g.try_into().unwrap());
        }
        for &b in groups.remainder() {
            self.push_byte(plane, b);
        }
    }

    /// Finish the chunk: every plane must have received exactly
    /// `plane_bytes` bytes. Builds the repeat levels over the completed
    /// bitmap and returns the total serialized length (the raw-fallback
    /// input); nothing is emitted yet.
    pub fn finish_encode(&mut self) -> usize {
        debug_assert!(self.pending_len.iter().all(|&l| l == 0), "partial group at finish");
        debug_assert!(self.filled.iter().all(|&f| f == self.plane_bytes));
        // Repeat levels via the staged code path — identical level bytes by
        // construction. Ping-pong through (bitmap_b, bitmap_c) so the
        // level-0 bitmap buffer keeps its full size across chunks.
        let mut lo = std::mem::take(&mut self.bitmap_b);
        let mut hi = std::mem::take(&mut self.bitmap_c);
        self.nonreps[0].clear();
        build_nonrepeat_into(&self.bitmap, &mut lo, &mut self.nonreps[0]);
        for k in 1..LEVELS {
            self.nonreps[k].clear();
            build_nonrepeat_into(&lo, &mut hi, &mut self.nonreps[k]);
            std::mem::swap(&mut lo, &mut hi);
        }
        self.bitmap_b = lo;
        self.bitmap_c = hi;
        self.bitmap_b.len()
            + self.nonreps.iter().map(Vec::len).sum::<usize>()
            + self.counts.iter().sum::<usize>()
    }

    /// Append the encoding staged by [`Self::finish_encode`] to `out` —
    /// byte-identical to [`append_encoded`] on the staged pipeline.
    pub fn append_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.bitmap_b); // bitmap_LEVELS
        for nr in self.nonreps.iter().rev() {
            out.extend_from_slice(nr);
        }
        for p in 0..self.planes {
            let base = p * self.plane_bytes;
            out.extend_from_slice(&self.data[base..base + self.counts[p]]);
        }
    }

    /// Write the staged encoding into `dst`, whose length must equal the
    /// value returned by the matching [`Self::finish_encode`] call.
    pub fn write_to(&self, dst: &mut [u8]) {
        let mut off = 0usize;
        for part in std::iter::once(&self.bitmap_b).chain(self.nonreps.iter().rev()) {
            dst[off..off + part.len()].copy_from_slice(part);
            off += part.len();
        }
        for p in 0..self.planes {
            let base = p * self.plane_bytes;
            let c = self.counts[p];
            dst[off..off + c].copy_from_slice(&self.data[base..base + c]);
            off += c;
        }
        debug_assert_eq!(off, dst.len());
    }

    /// Start fused decoding: expand the level bitmaps (a few hundred bytes
    /// of work — the 16 KiB data expansion happens lazily in
    /// [`Self::next_line`]), recover the level-0 bitmap, and set up one payload
    /// cursor per plane. Verifies that the payload length matches the
    /// bitmap's survivor count *exactly*, which subsumes both the staged
    /// path's truncation error and the chunk layer's trailing-bytes check.
    pub fn begin_decode(&mut self, payload: &[u8], planes: usize, plane_bytes: usize) -> Result<()> {
        if plane_bytes == 0 || !plane_bytes.is_multiple_of(8) {
            // Shape errors surface as Corrupt rather than a panic so no
            // decode entry point can be driven into an abort, whatever the
            // caller passes (the fused chunk kernel always passes a
            // positive multiple of 64).
            return Err(Error::Corrupt(format!(
                "plane_bytes must be a positive multiple of 8, got {plane_bytes}"
            )));
        }
        self.planes = planes;
        self.plane_bytes = plane_bytes;
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
            let lower_n = level_len(n, k);
            // The level-0 bitmap lands in its dedicated buffer; upper
            // levels ping-pong.
            let dst = if k == 0 { &mut self.bitmap } else { &mut hi };
            res = expand_into(&lo, lower_n, payload, &mut cursor, true, dst);
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
        self.counts.clear();
        self.filled.clear();
        let bm_per_plane = plane_bytes / 8;
        let mut c = cursor;
        for p in 0..planes {
            self.counts.push(c);
            self.filled.push(0);
            c += self.bitmap[p * bm_per_plane..(p + 1) * bm_per_plane]
                .iter()
                .map(|b| b.count_ones() as usize)
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

    /// Expand the next `out.len()` bytes of `plane` (a multiple of 8;
    /// each plane must be walked sequentially). `payload` must be the
    /// slice given to [`Self::begin_decode`], whose length check guarantees
    /// every cursor stays in bounds.
    #[inline]
    pub fn next_line(&mut self, payload: &[u8], plane: usize, out: &mut [u8]) {
        debug_assert!(out.len().is_multiple_of(8));
        debug_assert!(self.filled[plane] + out.len() <= self.plane_bytes);
        let bi0 = (plane * self.plane_bytes + self.filled[plane]) >> 3;
        let mut cur = self.counts[plane];
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx512f",
            target_feature = "avx512bw",
            target_feature = "avx512vbmi2"
        ))]
        if let Ok(l) = <&mut [u8; 64]>::try_from(&mut *out) {
            // Whole-line kernel: eight bitmap bytes form the 64-bit
            // expansion mask directly. `begin_decode`'s exact length check
            // guarantees `payload[cur..]` holds every survivor.
            let mask = u64::from_le_bytes(self.bitmap[bi0..bi0 + 8].try_into().unwrap());
            line::expand64(mask, &payload[cur..], l);
            self.counts[plane] = cur + mask.count_ones() as usize;
            self.filled[plane] += 64;
            return;
        }
        for (bi, chunk) in (bi0..).zip(out.chunks_exact_mut(8)) {
            let mask = self.bitmap[bi];
            if mask == 0 {
                chunk.fill(0);
            } else if mask == 0xFF {
                chunk.copy_from_slice(&payload[cur..cur + 8]);
                cur += 8;
            } else {
                chunk.fill(0);
                // Scatter by set-bit iteration, ascending — the encoder's
                // emission order.
                let mut m = mask;
                while m != 0 {
                    chunk[m.trailing_zeros() as usize] = payload[cur];
                    cur += 1;
                    m &= m - 1;
                }
            }
        }
        self.counts[plane] = cur;
        self.filled[plane] += out.len();
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

fn popcount_prefix(bitmap: &[u8], nbits: usize) -> usize {
    let full = nbits / 8;
    let mut c: usize = bitmap[..full].iter().map(|b| b.count_ones() as usize).sum();
    if !nbits.is_multiple_of(8) {
        c += (bitmap[full] & ((1u8 << (nbits % 8)) - 1)).count_ones() as usize;
    }
    c
}

/// Reconstruct a lower-level byte array of length `n` from its flag bitmap
/// and the flagged bytes into `out`, using `repeat_rule` to produce
/// unflagged bytes from the running predecessor (zero-fill otherwise).
fn expand_into(
    bitmap: &[u8],
    n: usize,
    payload: &[u8],
    cursor: &mut usize,
    repeat_rule: bool,
    out: &mut Vec<u8>,
) -> Result<()> {
    let needed = popcount_prefix(bitmap, n);
    let avail = payload.len().saturating_sub(*cursor);
    if needed > avail {
        return Err(Error::Truncated {
            offset: *cursor,
            needed,
            have: avail,
            what: "zero-elimination survivor bytes",
        });
    }
    out.clear();
    out.resize(n, 0);
    if repeat_rule {
        let mut prev = 0u8;
        for (i, slot) in out.iter_mut().enumerate() {
            if bitmap[i >> 3] >> (i & 7) & 1 == 1 {
                *slot = payload[*cursor];
                *cursor += 1;
            } else {
                *slot = prev;
            }
            prev = *slot;
        }
    } else {
        // Zero-fill rule: group-at-a-time fast paths (zero groups are
        // already zeroed; full groups are straight copies).
        let mut i = 0usize;
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx512f",
            target_feature = "avx512bw",
            target_feature = "avx512vbmi2"
        ))]
        while i + 64 <= n {
            // Whole-line expansion: eight bitmap bytes form the 64-bit
            // scatter mask directly; the up-front `needed <= avail` check
            // guarantees the payload holds every flagged byte.
            let mask = u64::from_le_bytes(bitmap[i >> 3..(i >> 3) + 8].try_into().unwrap());
            let dst: &mut [u8; 64] = (&mut out[i..i + 64]).try_into().unwrap();
            line::expand64(mask, &payload[*cursor..], dst);
            *cursor += mask.count_ones() as usize;
            i += 64;
        }
        while i + 8 <= n {
            let mask = bitmap[i >> 3];
            if mask == 0 {
                i += 8;
                continue;
            }
            if mask == 0xFF {
                out[i..i + 8].copy_from_slice(&payload[*cursor..*cursor + 8]);
                *cursor += 8;
                i += 8;
                continue;
            }
            // Scatter the flagged bytes by set-bit iteration (ascending,
            // matching the encoder's emission order).
            let mut m = mask;
            while m != 0 {
                out[i + m.trailing_zeros() as usize] = payload[*cursor];
                *cursor += 1;
                m &= m - 1;
            }
            i += 8;
        }
        while i < n {
            if bitmap[i >> 3] >> (i & 7) & 1 == 1 {
                out[i] = payload[*cursor];
                *cursor += 1;
            }
            i += 1;
        }
    }
    Ok(())
}

/// Decompress a payload staged by [`encode_to_scratch`] for an input of
/// `uncompressed_len` bytes, writing the reconstructed bytes into `out`
/// (cleared and resized). Returns the number of payload bytes consumed.
/// Level bitmaps live in `s`; nothing is allocated once the scratch and
/// `out` have grown to the chunk working set.
pub fn decode_into(
    payload: &[u8],
    uncompressed_len: usize,
    s: &mut Scratch,
    out: &mut Vec<u8>,
) -> Result<usize> {
    let n = uncompressed_len;
    let top_len = level_len(n, LEVELS);
    if payload.len() < top_len {
        return Err(Error::Truncated {
            offset: payload.len(),
            needed: top_len - payload.len(),
            have: 0,
            what: "zero-elimination top bitmap",
        });
    }
    s.bitmap_a.clear();
    s.bitmap_a.extend_from_slice(&payload[..top_len]);
    let mut cursor = top_len;
    // Walk back down: bitmap_k flags the non-repeating bytes of bitmap_{k-1}.
    for k in (0..LEVELS).rev() {
        let lower_n = level_len(n, k);
        expand_into(&s.bitmap_a, lower_n, payload, &mut cursor, true, &mut s.bitmap_b)?;
        std::mem::swap(&mut s.bitmap_a, &mut s.bitmap_b);
    }
    // bitmap_a is now the nonzero-byte bitmap of the original data.
    expand_into(&s.bitmap_a, n, payload, &mut cursor, false, out)?;
    Ok(cursor)
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

    #[test]
    fn small_inputs() {
        for n in 1..64usize {
            let input: Vec<u8> = (0..n).map(|i| (i * 37 % 256) as u8).collect();
            roundtrip(&input);
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        let input = vec![1u8; 1000];
        let mut enc = Vec::new();
        encode(&input, &mut enc);
        for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
            assert!(
                decode(&enc[..cut], 1000).is_err(),
                "cut at {cut} must fail"
            );
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

            // write_encoded must produce identical bytes.
            let total2 = encode_to_scratch(input, &mut s);
            assert_eq!(total2, total);
            let mut slot = vec![0u8; total];
            write_encoded(&s, &mut slot);
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

        /// The streaming plane sink must serialize byte-identically to the
        /// staged whole-buffer encoder, and its plane decoder must invert
        /// it, for any plane shape and push granularity.
        #[test]
        fn plane_scratch_matches_staged(
            planes in 1usize..9,
            plane_groups in 1usize..9,
            piece_idx in 0usize..6,
            seed: u64,
            zero_every in 1u64..5,
        ) {
            let piece = [1usize, 2, 4, 8, 16, 64][piece_idx];
            let plane_bytes = plane_groups * 8;
            // Plane-major input with plenty of zero bytes.
            let mut x = seed | 1;
            let input: Vec<u8> = (0..planes * plane_bytes).map(|_| {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                if x.is_multiple_of(zero_every) { (x >> 8) as u8 } else { 0 }
            }).collect();

            let mut staged = Vec::new();
            encode(&input, &mut staged);

            let mut ps = PlaneScratch::default();
            ps.begin(planes, plane_bytes);
            for (p, row) in input.chunks_exact(plane_bytes).enumerate() {
                for part in row.chunks(piece) {
                    ps.push(p, part);
                }
            }
            let total = ps.finish_encode();
            prop_assert_eq!(total, staged.len());
            let mut fused = Vec::new();
            ps.append_to(&mut fused);
            prop_assert_eq!(&fused, &staged);
            let mut slot = vec![0u8; total];
            ps.write_to(&mut slot);
            prop_assert_eq!(&slot, &staged);

            // Plane-wise decode inverts it.
            ps.begin_decode(&staged, planes, plane_bytes).unwrap();
            let mut back = vec![0u8; planes * plane_bytes];
            for (p, row) in back.chunks_exact_mut(plane_bytes).enumerate() {
                for line in row.chunks_mut(8) {
                    ps.next_line(&staged, p, line);
                }
            }
            prop_assert_eq!(&back, &input);

            // Truncations must be rejected, never panic.
            for cut in [0, staged.len() / 2, staged.len().saturating_sub(1)] {
                if cut < staged.len() {
                    prop_assert!(ps.begin_decode(&staged[..cut], planes, plane_bytes).is_err());
                }
            }
        }

        #[test]
        fn swar_nonrepeat_matches_naive(src: Vec<u8>) {
            let mut bitmap = Vec::new();
            let mut data = Vec::new();
            build_nonrepeat_into(&src, &mut bitmap, &mut data);
            // Reference: one byte at a time.
            let mut nb = vec![0u8; bitmap_len(src.len())];
            let mut nd = Vec::new();
            let mut prev = 0u8;
            for (i, &b) in src.iter().enumerate() {
                if b != prev {
                    nb[i >> 3] |= 1 << (i & 7);
                    nd.push(b);
                }
                prev = b;
            }
            prop_assert_eq!(&bitmap, &nb);
            prop_assert_eq!(&data, &nd);
        }
    }
}
