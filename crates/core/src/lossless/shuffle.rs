//! Lossless stage 2: bit shuffle / bit-plane transposition (Fig. 4).
//!
//! Emits the most significant bit of every word, then the second-most
//! significant bit of every word, and so on. Consecutive words with zero
//! bits in the same positions (which stage 1 manufactures) become long runs
//! of zero bits — and, after 8+ words, zero *bytes* for stage 3 to delete.
//!
//! The one fast kernel transposes a [`TILE_WORDS`]-word tile: `BITS`-word
//! groups go through a masked-swap bit-matrix transpose (log2(wordsize)
//! steps — the same step count as the paper's warp-shuffle GPU
//! implementation), and each bit plane leaves the tile as one 64-byte
//! line. The fused chunk kernel streams those lines into zero-elimination;
//! [`encode`] / [`decode`] run the same tile kernel over whole-tile
//! buffers and a scalar reference for every other length, with identical
//! output.

use crate::float::Word;

/// Bit-matrix transpose kernels for `BITS×BITS` blocks.
pub trait Transpose: Word {
    /// In-place transpose of a `BITS`-row bit matrix:
    /// afterwards `block[j]` bit `i` equals the old `block[i]` bit `j`.
    /// The transform is an involution.
    fn transpose_block(block: &mut [Self]);
}

macro_rules! impl_transpose {
    ($ty:ty, $bits:expr, [$(($s:expr, $m:expr)),+]) => {
        impl Transpose for $ty {
            fn transpose_block(block: &mut [Self]) {
                debug_assert_eq!(block.len(), $bits);
                $(
                    // Masked swap at stride $s: mask has ones where
                    // bit_index & stride == 0.
                    {
                        const S: usize = $s;
                        const M: $ty = $m;
                        let mut k = 0;
                        while k < $bits {
                            let (a, b) = block.split_at_mut(k + S);
                            for (x, y) in a[k..].iter_mut().zip(&mut b[..S]) {
                                let t = ((*x >> S as u32) ^ *y) & M;
                                *x ^= t << S as u32;
                                *y ^= t;
                            }
                            k += 2 * S;
                        }
                    }
                )+
            }
        }
    };
}

impl_transpose!(
    u32,
    32,
    [
        (16usize, 0x0000_FFFFu32),
        (8, 0x00FF_00FF),
        (4, 0x0F0F_0F0F),
        (2, 0x3333_3333),
        (1, 0x5555_5555)
    ]
);
impl_transpose!(
    u64,
    64,
    [
        (32usize, 0x0000_0000_FFFF_FFFFu64),
        (16, 0x0000_FFFF_0000_FFFF),
        (8, 0x00FF_00FF_00FF_00FF),
        (4, 0x0F0F_0F0F_0F0F_0F0F),
        (2, 0x3333_3333_3333_3333),
        (1, 0x5555_5555_5555_5555)
    ]
);

/// Words per tile: `batch` cache-line groups of `BITS` words each — always
/// 512 (= 64 output bytes × 8 bit-planes-per-byte), independent of word
/// width. One tile contributes exactly one 64-byte
/// line to every bit plane.
pub const TILE_WORDS: usize = 512;

/// Forward transpose of one [`TILE_WORDS`] tile, in place (the tile's
/// contents are destroyed). Plane `p`'s 64-byte line (MSB plane, `p == 0`,
/// first) is written at `out[p * stride..][..64]`. With `stride` equal to
/// the plane size of a whole buffer and `out` starting at tile `t`'s
/// offset `t * 64`, this stores exactly the bytes [`encode`] stores for
/// the tile.
///
/// The fused chunk kernel passes `stride == 64` and stages one tile's
/// lines in a 2–4 KiB L1-resident buffer, handing them to the
/// zero-elimination sink whole, which keeps the line stores and the sink's
/// 64-byte vector loads out of each other's store-forwarding window.
#[inline]
pub fn encode_tile_into<W: Transpose>(tile: &mut [W; TILE_WORDS], out: &mut [u8], stride: usize) {
    let bits = W::BITS as usize;
    let batch = TILE_WORDS / bits;
    debug_assert!(out.len() >= (bits - 1) * stride + 64);
    for b in 0..batch {
        W::transpose_block(&mut tile[b * bits..(b + 1) * bits]);
    }
    let mut lane = [W::ZERO; 16];
    for p in 0..bits {
        for b in 0..batch {
            lane[b] = tile[b * bits + bits - 1 - p];
        }
        W::write_slice_le(&lane[..batch], &mut out[p * stride..][..64]);
    }
}

/// Inverse of [`encode_tile_into`]: `fetch(plane, line)` must fill each
/// plane's next 64-byte line; the 512 original words are reconstructed
/// into `tile`.
#[inline]
pub fn decode_tile<W: Transpose>(tile: &mut [W; TILE_WORDS], mut fetch: impl FnMut(usize, &mut [u8; 64])) {
    let bits = W::BITS as usize;
    let batch = TILE_WORDS / bits;
    let mut lane = [W::ZERO; 16];
    let mut line = [0u8; 64];
    for p in 0..bits {
        fetch(p, &mut line);
        W::read_slice_le(&line, &mut lane[..batch]);
        for b in 0..batch {
            tile[b * bits + bits - 1 - p] = lane[b];
        }
    }
    for b in 0..batch {
        W::transpose_block(&mut tile[b * bits..(b + 1) * bits]);
    }
}

/// Forward bit shuffle: `words.len() * BITS / 8` bytes are written into
/// `out` (which must be exactly that long; every byte is overwritten).
pub fn encode<W: Transpose>(words: &[W], out: &mut [u8]) {
    let n = words.len();
    assert_eq!(out.len(), n * W::BITS as usize / 8, "output buffer size");
    if n > 0 && n.is_multiple_of(TILE_WORDS) {
        // The tile kernel stores every output byte exactly once — no
        // zero-fill pass needed.
        let plane_bytes = n / 8;
        for (t, tw) in words.as_chunks::<TILE_WORDS>().0.iter().enumerate() {
            let mut tile = *tw;
            encode_tile_into(&mut tile, &mut out[t * 64..], plane_bytes);
        }
    } else {
        out.fill(0);
        encode_scalar(words, out);
    }
}

/// Bit-at-a-time reference shuffle for any length; `out` must be zeroed.
fn encode_scalar<W: Word>(words: &[W], out: &mut [u8]) {
    let bits = W::BITS;
    let mut bitpos = 0usize;
    for p in 0..bits {
        let shift = bits - 1 - p;
        for &w in words {
            if (w >> shift) & W::ONE == W::ONE {
                out[bitpos >> 3] |= 1 << (bitpos & 7);
            }
            bitpos += 1;
        }
    }
}

/// Inverse bit shuffle: reconstruct `words` from `bytes`
/// (`bytes.len() == words.len() * BITS / 8`).
pub fn decode<W: Transpose>(bytes: &[u8], words: &mut [W]) {
    let n = words.len();
    assert_eq!(bytes.len(), n * W::BITS as usize / 8, "input buffer size");
    if n > 0 && n.is_multiple_of(TILE_WORDS) {
        let plane_bytes = n / 8;
        for (t, tw) in words.as_chunks_mut::<TILE_WORDS>().0.iter_mut().enumerate() {
            decode_tile(tw, |p, line| {
                line.copy_from_slice(&bytes[p * plane_bytes + t * 64..][..64]);
            });
        }
    } else {
        decode_scalar(bytes, words);
    }
}

/// Bit-at-a-time inverse of [`encode_scalar`].
fn decode_scalar<W: Word>(bytes: &[u8], words: &mut [W]) {
    for w in words.iter_mut() {
        *w = W::ZERO;
    }
    let bits = W::BITS;
    let mut bitpos = 0usize;
    for p in 0..bits {
        let shift = bits - 1 - p;
        for w in words.iter_mut() {
            if bytes[bitpos >> 3] >> (bitpos & 7) & 1 == 1 {
                *w = *w | (W::ONE << shift);
            }
            bitpos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[allow(clippy::needless_range_loop)] // (i, j) index both matrices symmetrically
    fn transpose_is_transpose() {
        let mut block: Vec<u32> = (0..32).map(|i| 0x9E37_79B9u32.rotate_left(i)).collect();
        let orig = block.clone();
        u32::transpose_block(&mut block);
        for i in 0..32 {
            for j in 0..32 {
                assert_eq!(
                    block[j] >> i & 1,
                    orig[i] >> j & 1,
                    "transpose mismatch at ({i},{j})"
                );
            }
        }
        u32::transpose_block(&mut block);
        assert_eq!(block, orig, "involution");
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // (i, j) index both matrices symmetrically
    fn transpose64_involution() {
        let mut block: Vec<u64> = (0..64)
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.rotate_left(i))
            .collect();
        let orig = block.clone();
        u64::transpose_block(&mut block);
        for i in 0..64 {
            for j in 0..64 {
                assert_eq!(block[j] >> i & 1, orig[i] >> j & 1);
            }
        }
        u64::transpose_block(&mut block);
        assert_eq!(block, orig);
    }

    #[test]
    fn planes_are_msb_first() {
        // Word 0 = only its MSB set → the very first output bit is 1.
        let words = [0x8000_0000u32, 0, 0, 0, 0, 0, 0, 0];
        let mut out = vec![0u8; 32];
        encode(&words, &mut out);
        assert_eq!(out[0], 0b0000_0001);
        assert!(out[1..].iter().all(|&b| b == 0));
    }

    #[test]
    fn shared_zero_bits_make_zero_bytes() {
        // 4096 words that all fit in 8 low bits → 24 of 32 planes all-zero
        // → at least 75% zero bytes.
        let words: Vec<u32> = (0..4096u32).map(|i| i % 200).collect();
        let mut out = vec![0u8; 4096 * 4];
        encode(&words, &mut out);
        let zeros = out.iter().filter(|&&b| b == 0).count();
        assert!(zeros >= out.len() * 3 / 4, "{zeros}/{}", out.len());
    }

    fn roundtrip_u32(words: &[u32]) {
        let mut buf = vec![0u8; words.len() * 4];
        encode(words, &mut buf);
        let mut back = vec![0u32; words.len()];
        decode(&buf, &mut back);
        assert_eq!(back, words);
    }

    fn roundtrip_u64(words: &[u64]) {
        let mut buf = vec![0u8; words.len() * 8];
        encode(words, &mut buf);
        let mut back = vec![0u64; words.len()];
        decode(&buf, &mut back);
        assert_eq!(back, words);
    }

    #[test]
    fn roundtrip_various_lengths() {
        // Includes whole groups that are not whole tiles (32, 480, 544 for
        // u32; 64, 448 for u64), which take the scalar path.
        for n in [0usize, 1, 7, 31, 32, 33, 63, 64, 100, 480, 544, 4096, 4100] {
            let words: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
            roundtrip_u32(&words);
        }
        for n in [0usize, 1, 63, 64, 65, 448, 512, 2048, 2050] {
            let words: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            roundtrip_u64(&words);
        }
    }

    #[test]
    fn fast_matches_scalar() {
        let words: Vec<u32> = (0..4096u32).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
        let mut fast = vec![0u8; words.len() * 4];
        encode(&words, &mut fast);
        let mut scalar = vec![0u8; words.len() * 4];
        encode_scalar(&words, &mut scalar);
        assert_eq!(fast, scalar);

        let w64: Vec<u64> = (0..2048u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let mut fast = vec![0u8; w64.len() * 8];
        encode(&w64, &mut fast);
        let mut scalar = vec![0u8; w64.len() * 8];
        encode_scalar(&w64, &mut scalar);
        assert_eq!(fast, scalar);
    }

    proptest! {
        #[test]
        fn roundtrip_prop_u32(words: Vec<u32>) {
            roundtrip_u32(&words);
        }

        /// Tile-at-a-time emission into a line buffer (the fused kernel's
        /// stride) must concatenate, per plane in tile order, to exactly
        /// the scalar plane-major layout, and `decode_tile` must invert it
        /// — for both word widths.
        #[test]
        fn tile_stream_equals_staged(seed: u64, tiles in 1usize..5) {
            let n = tiles * TILE_WORDS;
            let mut x = seed | 1;
            let mut next = || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };

            macro_rules! check {
                ($w:ty) => {{
                    let words: Vec<$w> = (0..n).map(|_| next() as $w).collect();
                    let bits = <$w>::BITS as usize;
                    let plane_bytes = n / 8;
                    let mut staged = vec![0u8; n * bits / 8];
                    encode_scalar(&words, &mut staged);

                    let mut streamed = vec![0u8; staged.len()];
                    let mut tile = [0 as $w; TILE_WORDS];
                    let mut lines = vec![0u8; bits * 64];
                    for (t, tw) in words.chunks_exact(TILE_WORDS).enumerate() {
                        tile.copy_from_slice(tw);
                        encode_tile_into(&mut tile, &mut lines, 64);
                        for (p, line) in lines.chunks_exact(64).enumerate() {
                            let off = p * plane_bytes + t * 64;
                            streamed[off..off + 64].copy_from_slice(line);
                        }
                    }
                    prop_assert_eq!(&streamed, &staged);

                    let mut back = vec![0 as $w; n];
                    for (t, tw) in back.chunks_exact_mut(TILE_WORDS).enumerate() {
                        decode_tile(&mut tile, |p, line| {
                            let off = p * plane_bytes + t * 64;
                            line.copy_from_slice(&staged[off..off + 64]);
                        });
                        tw.copy_from_slice(&tile);
                    }
                    prop_assert_eq!(&back, &words);
                }};
            }
            check!(u32);
            check!(u64);
        }

        #[test]
        fn roundtrip_prop_u64(words: Vec<u64>) {
            roundtrip_u64(&words);
        }

        /// Whole-tile buffers run the tile kernel; it must equal the
        /// scalar reference in both directions, for both word widths.
        #[test]
        fn fast_equals_scalar_prop(seed: u64, tiles in 1usize..9) {
            let n = tiles * TILE_WORDS;
            let mut x = seed | 1;
            let mut next = || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };

            macro_rules! check {
                ($w:ty) => {{
                    let words: Vec<$w> = (0..n).map(|_| next() as $w).collect();
                    let len = n * <$w>::BITS as usize / 8;
                    let mut fast = vec![0u8; len];
                    encode(&words, &mut fast);
                    let mut scalar = vec![0u8; len];
                    encode_scalar(&words, &mut scalar);
                    prop_assert_eq!(&fast, &scalar);

                    let mut back = vec![0 as $w; n];
                    decode(&scalar, &mut back);
                    let mut back_scalar = vec![0 as $w; n];
                    decode_scalar(&scalar, &mut back_scalar);
                    prop_assert_eq!(&back, &back_scalar);
                    prop_assert_eq!(&back, &words);
                }};
            }
            check!(u32);
            check!(u64);
        }
    }
}
