//! Lossless stage 2: bit shuffle / bit-plane transposition (Fig. 4).
//!
//! Emits the most significant bit of every word, then the second-most
//! significant bit of every word, and so on. Consecutive words with zero
//! bits in the same positions (which stage 1 manufactures) become long runs
//! of zero bits — and, after 8+ words, zero *bytes* for stage 3 to delete.
//!
//! The fast path transposes a [`TILE_WORDS`]-word tile, and each bit plane
//! leaves the tile as one 64-byte line. Every plane is emitted
//! independently of the others, so a u64 word's planes 0–31 are those of
//! its high dword and planes 32–63 those of its low dword: a u64 tile runs
//! the 32-bit kernel on each half. Three tile kernels write identical
//! lines, fastest first:
//!
//! * AVX-512 + GFNI (x86-64 with AVX-512 F/BW/VBMI and GFNI): per
//!   16-word vector, one `vpermb` gathers byte `c` of 8 consecutive words
//!   into one qword and one `vgf2p8affineqb` transposes every 8×8 bit
//!   block; `vshufi64x2` lane transposes, a second `vpermb` and an 8×8
//!   qword transpose (`vpermt2q`) then gather whole plane lines. Decoding
//!   runs the steps backwards. See the `gfni` module for the layout.
//! * AVX2 (x86-64 with AVX2): each 32×32 bit-matrix block's 32 rows in 4
//!   ymm registers are regrouped by `pshufb` + `vpermd` + a 4×4 qword
//!   transpose into 4 vectors whose byte `k` is byte `c` of row `k`; 8
//!   rounds of `movemask_epi8` + `add_epi8(v, v)` per vector then peel off
//!   output rows `8c+7 … 8c`. Decoding regroups the lanes of every plane
//!   line into rows (8×8 dword transposes) and transposes them back: the
//!   transpose is an involution.
//! * The masked-swap transpose ([`Transpose::transpose_block`], log2(word
//!   size) steps — the step count of the paper's warp-shuffle GPU
//!   implementation), the same way round: the portable kernel, run where
//!   the CPU has neither, and the reference both SIMD kernels are tested
//!   against. Its 64×64 form is the reference the device simulator's warp
//!   transpose is tested against.
//!
//! The kernel is chosen at run time, per tile, by
//! `is_x86_feature_detected!` ([`tile_kernel`] names the choice), so
//! builds for the x86-64 baseline keep both SIMD kernels. All three are
//! exact bit permutations: archives are byte-identical whichever runs.
//! The unit tests call every kernel the CPU has by name, so the AVX2
//! kernel and the masked swap stay covered on hosts that run the GFNI one.
//!
//! The fused chunk kernel streams the tile's plane lines into
//! zero-elimination; [`encode`] / [`decode`] run the same tile kernel over
//! whole-tile buffers and a bit-at-a-time reference for every other
//! length, with identical output.

use crate::float::Word;
use std::array::from_fn;

/// Bit-matrix transpose of `BITS×BITS` blocks, for the word widths the
/// tile kernels take.
pub trait Transpose: Word + sealed::Tile {
    /// In-place transpose of a `BITS`-row bit matrix:
    /// afterwards `block[j]` bit `i` equals the old `block[i]` bit `j`.
    /// The transform is an involution.
    fn transpose_block(block: &mut [Self]);
}

mod sealed {
    use super::TILE_WORDS;

    /// One word width's tile kernels, behind [`super::encode_tile_into`]
    /// and [`super::decode_tile`].
    pub trait Tile: Sized {
        fn tile_to_lines(tile: &[Self; TILE_WORDS], lines: &mut [[u8; 64]]);
        fn lines_to_tile(lines: &[[u8; 64]], tile: &mut [Self; TILE_WORDS]);
    }
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

/// The 32 plane lines of a u32 tile: row `j` of block `b` is lane `b` of
/// plane `31 - j`'s line. Runs the tile kernel [`kernel`] picks.
impl sealed::Tile for u32 {
    #[inline]
    fn tile_to_lines(tile: &[u32; TILE_WORDS], lines: &mut [[u8; 64]]) {
        let lines = lines.try_into().expect("one line per bit plane");
        match kernel() {
            // SAFETY: `kernel` picks a SIMD kernel only where
            // `is_x86_feature_detected!` found every feature it enables.
            #[cfg(target_arch = "x86_64")]
            Kernel::Gfni => unsafe { gfni::encode(tile, lines) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { avx2::encode(tile, lines) },
            Kernel::MaskedSwap => portable_encode(tile, lines),
        }
    }

    #[inline]
    fn lines_to_tile(lines: &[[u8; 64]], tile: &mut [u32; TILE_WORDS]) {
        let lines = lines.try_into().expect("one line per bit plane");
        match kernel() {
            // SAFETY: as in `tile_to_lines`.
            #[cfg(target_arch = "x86_64")]
            Kernel::Gfni => unsafe { gfni::decode(lines, tile) },
            // SAFETY: as above.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { avx2::decode(lines, tile) },
            Kernel::MaskedSwap => portable_decode(lines, tile),
        }
    }
}

/// A u64 tile is two u32 tiles: its high dwords give planes 0–31, its low
/// dwords planes 32–63.
impl sealed::Tile for u64 {
    #[inline]
    fn tile_to_lines(tile: &[u64; TILE_WORDS], lines: &mut [[u8; 64]]) {
        split_to_lines(tile, lines, |half, lines| u32::tile_to_lines(half, lines));
    }

    #[inline]
    fn lines_to_tile(lines: &[[u8; 64]], tile: &mut [u64; TILE_WORDS]) {
        join_from_lines(lines, tile, |lines, half| u32::lines_to_tile(lines, half));
    }
}

/// A u64 tile's 64 plane lines, from a u32 tile kernel run on its high
/// dwords (planes 0–31) and on its low dwords (planes 32–63).
#[inline]
fn split_to_lines(
    tile: &[u64; TILE_WORDS],
    lines: &mut [[u8; 64]],
    mut half: impl FnMut(&[u32; TILE_WORDS], &mut [[u8; 64]; 32]),
) {
    let ([hi, lo], []) = lines.as_chunks_mut::<32>() else {
        panic!("one line per bit plane");
    };
    half(&from_fn(|i| (tile[i] >> 32) as u32), hi);
    half(&from_fn(|i| tile[i] as u32), lo);
}

/// Inverse of [`split_to_lines`], through the matching u32 decode kernel.
#[inline]
fn join_from_lines(
    lines: &[[u8; 64]],
    tile: &mut [u64; TILE_WORDS],
    mut half: impl FnMut(&[[u8; 64]; 32], &mut [u32; TILE_WORDS]),
) {
    let ([hi_lines, lo_lines], []) = lines.as_chunks::<32>() else {
        panic!("one line per bit plane");
    };
    // Decoding the halves apart and interleaving them once is faster
    // than a read-modify-write second pass over the tile.
    let (mut hi, mut lo) = ([0u32; TILE_WORDS], [0u32; TILE_WORDS]);
    half(hi_lines, &mut hi);
    half(lo_lines, &mut lo);
    for (t, (&h, &l)) in tile.iter_mut().zip(hi.iter().zip(&lo)) {
        *t = (h as u64) << 32 | l as u64;
    }
}

/// The row sink that stores row `j` of block `b` as lane `b` of plane
/// `31 - j`'s line.
#[inline]
fn row_sink(lines: &mut [[u8; 64]; 32]) -> impl FnMut(usize, usize, u32) + '_ {
    // Captured by value: by reference, every store reloads it.
    move |b, j, row| lines[31 - j][4 * b..][..4].copy_from_slice(&row.to_le_bytes())
}

/// The AVX-512 + GFNI tile kernels. Every function here is compiled for
/// AVX-512 F/BW/VBMI and GFNI whatever the build's target CPU; callers
/// check for them at run time.
///
/// A 16-word vector covers two 8-word groups `g`, and byte `g` of plane
/// `p`'s line holds bit `31 - p` of words `8g … 8g+7` (bit `i` from word
/// `8g + i`). Encoding runs three steps:
///
/// 1. `vpermb` puts byte `c` of a group's 8 words into one qword, rows
///    reversed, and one `vgf2p8affineqb` (the identity matrix as the data
///    operand, the vector as the matrix operand) transposes every 8×8 bit
///    block: byte `i` of qword `2c + h` is then byte `2v + h` of line
///    `31 - 8c - i`, where `v` is the vector's index.
/// 2. A 4×4 transpose of 128-bit lanes (`vshufi64x2`) over four vectors
///    and a `vpermb` give, per byte column `c`, one vector whose qword
///    `i` holds 8 consecutive bytes of line `31 - 8c - i`.
/// 3. An 8×8 qword transpose (`vpermt2q`) of eight such vectors gives
///    eight whole lines.
///
/// Decoding runs the steps backwards. The affine step is its own inverse
/// once the qword's byte order is reversed, which the `vpermb` before it
/// does.
#[cfg(target_arch = "x86_64")]
mod gfni {
    use super::TILE_WORDS;
    use crate::lossless::avx512::{load, store};
    use std::arch::x86_64::*;
    use std::array::from_fn;

    /// Byte `i` of every qword is `1 << i`: the identity bit matrix as
    /// the affine step's data operand.
    const IDENTITY: u64 = 0x8040_2010_0804_0201;

    /// A `vpermb` table, `dst[d] = src[TABLE[d]]`, from an expression in
    /// `d`.
    macro_rules! table {
        (|$d:ident| $src:expr) => {{
            let mut t = [0u8; 64];
            let mut $d = 0;
            while $d < 64 {
                t[$d] = $src as u8;
                $d += 1;
            }
            t
        }};
    }

    /// Step 1 of encoding: byte `8(2c + h) + 7 - i` ← byte `c` of word
    /// `8h + i`.
    const GATHER: [u8; 64] = table!(|d| {
        let (c, h, i) = (d / 16, d / 8 % 2, 7 - d % 8);
        4 * (8 * h + i) + c
    });
    /// Step 2 of encoding: byte `8i + 2z + h` ← byte `16z + 8h + i`, where
    /// `z` is the vector's place among the four.
    const INTERLEAVE: [u8; 64] = table!(|d| {
        let (i, z, h) = (d / 8, d % 8 / 2, d % 2);
        16 * z + 8 * h + i
    });
    /// [`INTERLEAVE`] inverted, with each qword's bytes reversed.
    const DEINTERLEAVE: [u8; 64] = table!(|d| {
        let (z, h, i) = (d / 16, d / 8 % 2, d % 8);
        8 * (7 - i) + 2 * z + h
    });
    /// [`GATHER`] inverted, rows in order: byte `c` of word `w` ← byte
    /// `w % 8` of qword `2c + w / 8`.
    const SCATTER: [u8; 64] = table!(|d| {
        let (w, c) = (d / 4, d % 4);
        8 * (2 * c + w / 8) + w % 8
    });

    /// Transpose of the 4×4 matrix of 128-bit lanes: lane `z` of vector
    /// `c` ← lane `c` of vector `z`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose_lanes([a, b, c, d]: [__m512i; 4]) -> [__m512i; 4] {
        let ab_lo = _mm512_shuffle_i64x2::<0x44>(a, b);
        let ab_hi = _mm512_shuffle_i64x2::<0xEE>(a, b);
        let cd_lo = _mm512_shuffle_i64x2::<0x44>(c, d);
        let cd_hi = _mm512_shuffle_i64x2::<0xEE>(c, d);
        [
            _mm512_shuffle_i64x2::<0x88>(ab_lo, cd_lo),
            _mm512_shuffle_i64x2::<0xDD>(ab_lo, cd_lo),
            _mm512_shuffle_i64x2::<0x88>(ab_hi, cd_hi),
            _mm512_shuffle_i64x2::<0xDD>(ab_hi, cd_hi),
        ]
    }

    /// `vpermt2q` indices of one 8×8 qword-transpose step at distance
    /// `s`: row `r` (`r & s == 0`) takes its own qwords where `q & s ==
    /// 0` and row `r + s`'s qword `q - s` elsewhere; row `r + s` (`upper`)
    /// takes row `r`'s qword `q + s` and keeps its own.
    const fn swap_index(s: usize, upper: bool) -> [i64; 8] {
        let mut t = [0i64; 8];
        let mut q = 0;
        while q < 8 {
            t[q] = match (q & s == 0, upper) {
                (true, false) => q,
                (false, false) => 8 + q - s,
                (true, true) => q + s,
                (false, true) => 8 + q,
            } as i64;
            q += 1;
        }
        t
    }

    /// One step of [`transpose_qwords`]: swap bit `S` of the row and
    /// column index.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn swap_step<const S: usize>(mut r: [__m512i; 8]) -> [__m512i; 8] {
        let lo = load(&const { swap_index(S, false) });
        let hi = load(&const { swap_index(S, true) });
        for k in (0..8).filter(|k| k & S == 0) {
            let (a, b) = (r[k], r[k + S]);
            r[k] = _mm512_permutex2var_epi64(a, lo, b);
            r[k + S] = _mm512_permutex2var_epi64(a, hi, b);
        }
        r
    }

    /// 8×8 qword transpose: qword `k` of vector `j` ← qword `j` of vector
    /// `k`.
    macro_rules! transpose_qwords {
        ($r:expr) => {
            swap_step::<4>(swap_step::<2>(swap_step::<1>($r)))
        };
    }

    /// [`super::encode_tile_into`] for a u32 tile.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,gfni")]
    pub fn encode(tile: &[u32; TILE_WORDS], lines: &mut [[u8; 64]; 32]) {
        let (gather, interleave) = (load(&GATHER), load(&INTERLEAVE));
        let identity = _mm512_set1_epi64(IDENTITY as i64);
        let vecs = tile.as_chunks::<16>().0;
        // cols[k][c]: qword i holds bytes 8k … 8k+7 of line 31 - 8c - i.
        // Every vector is written once, so nothing is zero-filled.
        let cols: [[__m512i; 4]; 8] = from_fn(|k| {
            let bits = from_fn(|z| {
                let rows = _mm512_permutexvar_epi8(gather, load(&vecs[4 * k + z]));
                _mm512_gf2p8affine_epi64_epi8::<0>(identity, rows)
            });
            transpose_lanes(bits).map(|v| _mm512_permutexvar_epi8(interleave, v))
        });
        for c in 0..4 {
            let planes = transpose_qwords!(from_fn(|k| cols[k][c]));
            for (i, v) in planes.into_iter().enumerate() {
                store(&mut lines[31 - 8 * c - i], v);
            }
        }
    }

    /// [`super::decode_tile`] for a u32 tile: [`encode`] backwards.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,gfni")]
    pub fn decode(lines: &[[u8; 64]; 32], tile: &mut [u32; TILE_WORDS]) {
        let (deinterleave, scatter) = (load(&DEINTERLEAVE), load(&SCATTER));
        let identity = _mm512_set1_epi64(IDENTITY as i64);
        // cols[c][k]: lane z is lane c of the affine input of vector
        // 4k + z.
        let cols: [[__m512i; 8]; 4] = from_fn(|c| {
            transpose_qwords!(from_fn(|i| load(&lines[31 - 8 * c - i])))
                .map(|v| _mm512_permutexvar_epi8(deinterleave, v))
        });
        let vecs = tile.as_chunks_mut::<16>().0;
        for k in 0..8 {
            let bits = transpose_lanes(from_fn(|c| cols[c][k]));
            for (z, v) in bits.into_iter().enumerate() {
                let rows = _mm512_gf2p8affine_epi64_epi8::<0>(identity, v);
                store(&mut vecs[4 * k + z], _mm512_permutexvar_epi8(scatter, rows));
            }
        }
    }
}

/// The AVX2 block kernels. Every function here is compiled for AVX2
/// whatever the build's target CPU; callers check for it at run time.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::TILE_WORDS;
    use std::arch::x86_64::*;

    /// Regroup the 32×32 bit matrix whose row `k` is dword `k` of `r`
    /// (`r[0]` holds rows 0–7) into 4 vectors: byte `k` of vector `c` is
    /// byte `c` of row `k`. `movemask_epi8` of vector `c` is then output
    /// row `8c + 7`, and each `add_epi8(v, v)` moves the next lower bit of
    /// every byte to the top.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn byte_planes(r: [__m256i; 4]) -> [__m256i; 4] {
        // Within each 128-bit lane: dword c = byte c of the lane's 4 rows.
        let bytes = _mm256_setr_epi8(
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15, //
            0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
        );
        // Across lanes: qword c = byte c of the vector's 8 rows, in order.
        let dwords = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let g0 = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(r[0], bytes), dwords);
        let g1 = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(r[1], bytes), dwords);
        let g2 = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(r[2], bytes), dwords);
        let g3 = _mm256_permutevar8x32_epi32(_mm256_shuffle_epi8(r[3], bytes), dwords);
        // 4×4 qword transpose: vector c = qword c of g0, g1, g2, g3.
        let lo01 = _mm256_unpacklo_epi64(g0, g1);
        let hi01 = _mm256_unpackhi_epi64(g0, g1);
        let lo23 = _mm256_unpacklo_epi64(g2, g3);
        let hi23 = _mm256_unpackhi_epi64(g2, g3);
        [
            _mm256_permute2x128_si256::<0x20>(lo01, lo23),
            _mm256_permute2x128_si256::<0x20>(hi01, hi23),
            _mm256_permute2x128_si256::<0x31>(lo01, lo23),
            _mm256_permute2x128_si256::<0x31>(hi01, hi23),
        ]
    }

    /// Load `N` consecutive 32-byte vectors from `words`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load<T, const N: usize>(words: &[T]) -> [__m256i; N] {
        // Hard assert: it guards the unsafe loads below.
        assert!(size_of_val(words) >= N * 32);
        let p = words.as_ptr().cast::<__m256i>();
        // SAFETY: the assert above keeps all `N` unaligned 32-byte loads
        // inside `words`.
        std::array::from_fn(|i| unsafe { _mm256_loadu_si256(p.add(i)) })
    }

    /// [`super::masked_swap_tile`] on AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn tile32(tile: &[u32; TILE_WORDS], mut emit: impl FnMut(usize, usize, u32)) {
        for (b, block) in tile.as_chunks::<32>().0.iter().enumerate() {
            let mut v = byte_planes(load(block));
            for s in 0..8 {
                for (c, x) in v.iter_mut().enumerate() {
                    emit(b, 8 * c + 7 - s, _mm256_movemask_epi8(*x) as u32);
                    *x = _mm256_add_epi8(*x, *x);
                }
            }
        }
    }

    /// Store `v` at `rows[at..at + 8]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn store(rows: &mut [u32], at: usize, v: __m256i) {
        // Hard assert: it guards the unsafe store below.
        assert!(at + 8 <= rows.len());
        // SAFETY: the assert above keeps the 32-byte store inside `rows`.
        unsafe { _mm256_storeu_si256(rows.as_mut_ptr().add(at).cast(), v) }
    }

    /// [`super::lanes_to_rows_portable`] on AVX2: 8×8 dword transposes of
    /// 8 lines × 8 lanes; column `m` holds rows `8q … 8q+7` of block `m`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn rows32(lines: &[[u8; 64]; 32], rows: &mut [u32; TILE_WORDS]) {
        for h in 0..2 {
            for q in 0..4 {
                // x[i] = lanes 8h … 8h+7 of plane 31 - 8q - i.
                let x: [__m256i; 8] =
                    std::array::from_fn(|i| load::<u8, 1>(&lines[31 - 8 * q - i][32 * h..])[0]);
                let t: [__m256i; 8] = std::array::from_fn(|i| {
                    let (a, b) = (x[i & !1], x[i | 1]);
                    if i & 1 == 0 {
                        _mm256_unpacklo_epi32(a, b)
                    } else {
                        _mm256_unpackhi_epi32(a, b)
                    }
                });
                // u[4k + 2r + e]: dwords 2r+e (lane 0) and 2r+e+4 (lane 1)
                // of x[4k … 4k+3].
                let u: [__m256i; 8] = std::array::from_fn(|i| {
                    let (k, r, e) = (i / 4, i / 2 % 2, i % 2);
                    let (a, b) = (t[4 * k + r], t[4 * k + 2 + r]);
                    if e == 0 {
                        _mm256_unpacklo_epi64(a, b)
                    } else {
                        _mm256_unpackhi_epi64(a, b)
                    }
                });
                for m in 0..4 {
                    let col = _mm256_permute2x128_si256::<0x20>(u[m], u[4 + m]);
                    store(rows, (8 * h + m) * 32 + 8 * q, col);
                    let col = _mm256_permute2x128_si256::<0x31>(u[m], u[4 + m]);
                    store(rows, (8 * h + m + 4) * 32 + 8 * q, col);
                }
            }
        }
    }

    /// [`super::encode_tile_into`] for a u32 tile.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn encode(tile: &[u32; TILE_WORDS], lines: &mut [[u8; 64]; 32]) {
        tile32(tile, super::row_sink(lines));
    }

    /// [`super::decode_tile`] for a u32 tile.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn decode(lines: &[[u8; 64]; 32], tile: &mut [u32; TILE_WORDS]) {
        let mut rows = [0u32; TILE_WORDS];
        rows32(lines, &mut rows);
        tile32(&rows, move |b, j, row| tile[32 * b + j] = row);
    }
}

/// Words per tile: `batch` cache-line groups of `BITS` words each — always
/// 512 (= 64 output bytes × 8 bit-planes-per-byte), independent of word
/// width. One tile contributes exactly one 64-byte
/// line to every bit plane.
pub const TILE_WORDS: usize = 512;

/// A u32 tile kernel pair (encode and decode), fastest first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kernel {
    /// [`gfni`]: AVX-512 F/BW/VBMI and GFNI.
    #[cfg(target_arch = "x86_64")]
    Gfni,
    /// [`avx2`].
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// [`masked_swap_tile`] and [`lanes_to_rows_portable`].
    MaskedSwap,
}

/// Whether this CPU has every feature the [`gfni`] kernels enable.
#[cfg(target_arch = "x86_64")]
#[inline]
fn gfni_detected() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vbmi")
        && is_x86_feature_detected!("gfni")
}

/// The tile kernel this CPU runs: the first one whose features it has.
#[inline]
fn kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if gfni_detected() {
            return Kernel::Gfni;
        }
        if is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
    }
    Kernel::MaskedSwap
}

/// The tile kernel [`encode_tile_into`] and [`decode_tile`] (and so
/// [`encode`] / [`decode`] and the fused chunk kernels) run on this CPU:
/// `"avx512-gfni"`, `"avx2"` or the portable `"masked-swap"`.
pub fn tile_kernel() -> &'static str {
    match kernel() {
        #[cfg(target_arch = "x86_64")]
        Kernel::Gfni => "avx512-gfni",
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => "avx2",
        Kernel::MaskedSwap => "masked-swap",
    }
}

/// Transpose every 32-word block of a copy of `tile` by the masked swap,
/// handing row `j` of block `b` to `emit(b, j, row)`: the portable block
/// kernel and the reference of the SIMD ones.
#[inline]
fn masked_swap_tile(tile: &[u32; TILE_WORDS], mut emit: impl FnMut(usize, usize, u32)) {
    let mut tile = *tile;
    for (b, block) in tile.as_chunks_mut::<32>().0.iter_mut().enumerate() {
        u32::transpose_block(block);
        for (j, &row) in block.iter().enumerate() {
            emit(b, j, row);
        }
    }
}

/// [`encode_tile_into`] for a u32 tile on the masked swap.
#[inline]
fn portable_encode(tile: &[u32; TILE_WORDS], lines: &mut [[u8; 64]; 32]) {
    masked_swap_tile(tile, row_sink(lines));
}

/// [`decode_tile`] for a u32 tile on the masked swap. Lane `b` of plane
/// `p` is row `31 - p` of block `b`'s transpose; the transpose is an
/// involution, so transposing the rows again gives the original words.
#[inline]
fn portable_decode(lines: &[[u8; 64]; 32], tile: &mut [u32; TILE_WORDS]) {
    let mut rows = [0u32; TILE_WORDS];
    lanes_to_rows_portable(lines, &mut rows);
    masked_swap_tile(&rows, move |b, j, row| tile[32 * b + j] = row);
}

/// `rows[32 * b + 31 - p] = ` lane `b` of `lines[p]`, one lane at a
/// time: the portable regrouping and the AVX2 kernel's reference.
#[inline]
fn lanes_to_rows_portable(lines: &[[u8; 64]; 32], rows: &mut [u32; TILE_WORDS]) {
    for (p, line) in lines.iter().enumerate() {
        for (b, lane) in line.as_chunks::<4>().0.iter().enumerate() {
            rows[32 * b + 31 - p] = u32::from_le_bytes(*lane);
        }
    }
}

/// Forward transpose of one [`TILE_WORDS`] tile: `lines[p]` receives
/// plane `p`'s 64-byte line (MSB plane, `p == 0`, first); `lines.len()`
/// must be `BITS`. Tile `t` of a buffer owns bytes `t * 64 ..` of every
/// plane.
///
/// The caller keeps `lines` (2–4 KiB, L1-resident) across tiles and
/// consumes each tile's lines whole: the fused chunk kernel hands them to
/// the zero-elimination sink, [`encode`] copies them to the plane-major
/// buffer.
#[inline]
pub fn encode_tile_into<W: Transpose>(tile: &[W; TILE_WORDS], lines: &mut [[u8; 64]]) {
    W::tile_to_lines(tile, lines);
}

/// Inverse of [`encode_tile_into`]: the 512 words whose plane `p` line
/// is `lines[p]` are reconstructed into `tile` (`lines.len()` must be
/// `BITS`). The caller fills `lines` (a buffer it keeps across tiles, so
/// no tile pays for zeroing it): the fused chunk kernel from the
/// zero-elimination source, [`decode`] from the plane-major buffer.
#[inline]
pub fn decode_tile<W: Transpose>(lines: &[[u8; 64]], tile: &mut [W; TILE_WORDS]) {
    W::lines_to_tile(lines, tile);
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
        let mut lines = [[0u8; 64]; 64];
        let lines = &mut lines[..W::BITS as usize];
        for (t, tw) in words.as_chunks::<TILE_WORDS>().0.iter().enumerate() {
            encode_tile_into(tw, lines);
            for (p, line) in lines.iter().enumerate() {
                out[p * plane_bytes + t * 64..][..64].copy_from_slice(line);
            }
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
        let mut lines = [[0u8; 64]; 64];
        let lines = &mut lines[..W::BITS as usize];
        for (t, tw) in words.as_chunks_mut::<TILE_WORDS>().0.iter_mut().enumerate() {
            for (p, line) in lines.iter_mut().enumerate() {
                line.copy_from_slice(&bytes[p * plane_bytes + t * 64..][..64]);
            }
            decode_tile(lines, tw);
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

    /// `n` xorshift words from `seed`.
    fn random_words<W: Word>(seed: u64, n: usize) -> Vec<W> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                W::from_u64(x)
            })
            .collect()
    }

    /// Whether this CPU has the features of `kernel`. Without them the
    /// case says so and returns early rather than pass having tested
    /// nothing.
    fn have(kernel: &str, case: &str) -> bool {
        #[cfg(target_arch = "x86_64")]
        let found = match kernel {
            "avx2" => is_x86_feature_detected!("avx2"),
            "avx512-gfni" => gfni_detected(),
            _ => unreachable!("{kernel}"),
        };
        #[cfg(not(target_arch = "x86_64"))]
        let found = false;
        if !found {
            eprintln!("{case}: this CPU lacks the {kernel} kernel's features; it was not tested");
        }
        found
    }

    type Encode = fn(&[u32; TILE_WORDS], &mut [[u8; 64]; 32]);
    type Decode = fn(&[[u8; 64]; 32], &mut [u32; TILE_WORDS]);

    /// Every u32 tile kernel pair this CPU runs, by name, the portable
    /// one first.
    fn tiers(case: &str) -> Vec<(&'static str, Encode, Decode)> {
        let mut tiers: Vec<(&str, Encode, Decode)> =
            vec![("masked-swap", portable_encode, portable_decode)];
        #[cfg(target_arch = "x86_64")]
        {
            if have("avx2", case) {
                tiers.push((
                    "avx2",
                    // SAFETY (both): `have` detected AVX2.
                    |tile, lines| unsafe { avx2::encode(tile, lines) },
                    |lines, tile| unsafe { avx2::decode(lines, tile) },
                ));
            }
            if have("avx512-gfni", case) {
                tiers.push((
                    "avx512-gfni",
                    // SAFETY (both): `have` detected every feature the
                    // GFNI kernel enables.
                    |tile, lines| unsafe { gfni::encode(tile, lines) },
                    |lines, tile| unsafe { gfni::decode(lines, tile) },
                ));
            }
        }
        tiers
    }

    /// Every block of `tile` transposed by the masked swap, block-major.
    fn swapped(tile: &[u32; TILE_WORDS]) -> Vec<u32> {
        let mut rows = vec![0; TILE_WORDS];
        masked_swap_tile(tile, |b, j, row| rows[32 * b + j] = row);
        rows
    }

    /// The plane lines whose lanes are the block-major transposed `rows`
    /// of a u32 tile: row `j` of block `b` is lane `b` of plane `31 - j`.
    fn lines_of(rows: &[u32]) -> [[u8; 64]; 32] {
        let mut lines = [[0u8; 64]; 32];
        for (i, row) in rows.iter().enumerate() {
            let (b, j) = (i / 32, i % 32);
            lines[31 - j][4 * b..][..4].copy_from_slice(&row.to_le_bytes());
        }
        lines
    }

    /// One-hot `BITS×BITS` blocks, one per (row, bit) position, packed
    /// `TILE_WORDS / BITS` to a tile: block `k` sets bit `k % BITS` of
    /// row `k / BITS`.
    fn one_hot_tiles<W: Word>() -> Vec<[W; TILE_WORDS]> {
        let bits = W::BITS as usize;
        let per_tile = TILE_WORDS / bits;
        (0..bits * bits / per_tile)
            .map(|t| {
                std::array::from_fn(|i| {
                    let k = t * per_tile + i / bits;
                    if k / bits == i % bits {
                        W::ONE << (k % bits) as u32
                    } else {
                        W::ZERO
                    }
                })
            })
            .collect()
    }

    /// All 1 024 one-hot 32×32 blocks, then all-ones and random tiles.
    fn edge_and_dense_tiles() -> Vec<[u32; TILE_WORDS]> {
        let mut tiles = one_hot_tiles::<u32>();
        assert_eq!(tiles.len() * TILE_WORDS / 32, 32 * 32);
        tiles.push([!0u32; TILE_WORDS]);
        for seed in 1..=64 {
            tiles.push(random_words(seed, TILE_WORDS).try_into().unwrap());
        }
        tiles
    }

    /// The masked swap, called directly (on SIMD hosts the codec never
    /// reaches it): its plane lines equal the bit-at-a-time shuffle of the
    /// tile, and regrouping the lanes and swapping again gives the tile
    /// back.
    #[test]
    fn masked_swap_tile_matches_scalar() {
        let one_hot = one_hot_tiles::<u32>().len();
        for (t, tile) in edge_and_dense_tiles().iter().enumerate() {
            let rows = swapped(tile);
            if t < one_hot {
                // The masked swap really moved each bit across the
                // diagonal.
                for (i, &row) in rows.iter().enumerate() {
                    let k = t * (TILE_WORDS / 32) + i / 32;
                    let want = if k % 32 == i % 32 { 1 << (k / 32) } else { 0 };
                    assert_eq!(row, want, "one-hot tile {t}, row {i}");
                }
            }
            let lines = lines_of(&rows);
            let mut scalar = vec![0u8; TILE_WORDS * 4];
            encode_scalar(tile, &mut scalar);
            assert_eq!(lines.as_flattened(), &scalar[..], "tile {t}");

            let mut back_rows = [0u32; TILE_WORDS];
            lanes_to_rows_portable(&lines, &mut back_rows);
            let mut back = [0u32; TILE_WORDS];
            masked_swap_tile(&back_rows, |b, j, row| back[32 * b + j] = row);
            assert_eq!(back, *tile, "tile {t}");
        }
    }

    /// The AVX2 kernels, called by name (a GFNI host's codec never
    /// reaches them), equal the masked swap and the portable lane
    /// regrouping on all 1 024 one-hot 32×32 blocks and on all-ones and
    /// random tiles.
    #[test]
    fn avx2_kernels_match_masked_swap() {
        if !have("avx2", "avx2_kernels_match_masked_swap") {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        for (t, tile) in edge_and_dense_tiles().iter().enumerate() {
            let rows = swapped(tile);
            let mut got = vec![0; TILE_WORDS];
            // SAFETY: `have` detected AVX2.
            unsafe { avx2::tile32(tile, |b, j, row| got[32 * b + j] = row) };
            assert_eq!(got, rows, "tile {t}");

            let lines = lines_of(&rows);
            let (mut got, mut want) = ([0u32; TILE_WORDS], [0u32; TILE_WORDS]);
            // SAFETY: as above.
            unsafe { avx2::rows32(&lines, &mut got) };
            lanes_to_rows_portable(&lines, &mut want);
            assert_eq!(got, want, "tile {t}");
        }
    }

    /// The GFNI kernels, called by name, equal the masked swap and the
    /// portable lane regrouping on all 1 024 one-hot 32×32 blocks and on
    /// all-ones and random tiles: encoding writes the masked swap's lines,
    /// and decoding any lines gives what the portable decode gives.
    #[test]
    fn gfni_kernels_match_masked_swap() {
        if !have("avx512-gfni", "gfni_kernels_match_masked_swap") {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        for (t, tile) in edge_and_dense_tiles().iter().enumerate() {
            let want = lines_of(&swapped(tile));
            let mut got = [[0u8; 64]; 32];
            // SAFETY: `have` detected every feature the kernel enables.
            unsafe { gfni::encode(tile, &mut got) };
            assert_eq!(got, want, "tile {t}");

            // The tile's words read as lines: any bytes decode.
            let lines: [[u8; 64]; 32] = words_as_lines(tile);
            for lines in [want, lines] {
                let (mut got, mut want) = ([0u32; TILE_WORDS], [0u32; TILE_WORDS]);
                // SAFETY: as above.
                unsafe { gfni::decode(&lines, &mut got) };
                portable_decode(&lines, &mut want);
                assert_eq!(got, want, "tile {t}");
            }
        }
    }

    /// A u32 tile's bytes as 32 lines.
    fn words_as_lines(tile: &[u32; TILE_WORDS]) -> [[u8; 64]; 32] {
        let bytes: Vec<u8> = tile.iter().flat_map(|w| w.to_le_bytes()).collect();
        std::array::from_fn(|p| bytes[64 * p..][..64].try_into().unwrap())
    }

    /// The tile path on this CPU's block kernel against the bit-at-a-time
    /// reference, for a whole-tile `words`: each tile's lines
    /// at stride 64 (the fused kernel's line buffer) equal the scalar
    /// shuffle of that tile alone, placed at the plane-size stride they
    /// equal the scalar shuffle of the buffer, and decoding them gives the
    /// words back.
    fn tile_path_matches_scalar<W: Transpose>(words: &[W]) {
        let (n, bits) = (words.len(), W::BITS as usize);
        assert!(n > 0 && n.is_multiple_of(TILE_WORDS));
        let plane_bytes = n / 8;
        let mut staged = vec![0u8; n * bits / 8];
        encode_scalar(words, &mut staged);

        let mut streamed = vec![0u8; staged.len()];
        let mut lines = vec![[0u8; 64]; bits];
        let mut one = vec![0u8; TILE_WORDS * bits / 8];
        for (t, tw) in words.as_chunks::<TILE_WORDS>().0.iter().enumerate() {
            encode_tile_into(tw, &mut lines);
            one.fill(0);
            encode_scalar(tw, &mut one);
            assert_eq!(lines.as_flattened(), &one[..], "tile {t} at stride 64");
            for (p, line) in lines.iter().enumerate() {
                streamed[p * plane_bytes + t * 64..][..64].copy_from_slice(line);
            }
        }
        assert_eq!(streamed, staged, "plane-size stride");

        let mut back = vec![W::ZERO; n];
        for (t, tw) in back.as_chunks_mut::<TILE_WORDS>().0.iter_mut().enumerate() {
            for (p, line) in lines.iter_mut().enumerate() {
                line.copy_from_slice(&staged[p * plane_bytes + t * 64..][..64]);
            }
            decode_tile(&lines, tw);
        }
        let mut back_scalar = vec![W::ZERO; n];
        decode_scalar(&staged, &mut back_scalar);
        assert_eq!(back, back_scalar);
        assert_eq!(back, words);
    }

    /// u64 all-ones tiles and all 4 096 one-hot 64×64 blocks, packed
    /// eight to a tile, on every u32 kernel this CPU has and on the
    /// detected one: every bit of both dword halves must land in its own
    /// plane and lane, and come back.
    #[test]
    fn u64_tile_path_matches_scalar_on_edge_tiles() {
        let mut tiles = one_hot_tiles::<u64>();
        tiles.push([!0u64; TILE_WORDS]);
        for (name, enc, dec) in tiers("u64_tile_path_matches_scalar_on_edge_tiles") {
            let mut lines = [[0u8; 64]; 64];
            let mut want = vec![0u8; TILE_WORDS * 8];
            for (t, tile) in tiles.iter().enumerate() {
                split_to_lines(tile, &mut lines, enc);
                want.fill(0);
                encode_scalar(tile, &mut want);
                assert_eq!(lines.as_flattened(), &want[..], "{name}, tile {t}");
                let mut back = [0u64; TILE_WORDS];
                join_from_lines(&lines, &mut back, dec);
                assert_eq!(back, *tile, "{name}, tile {t}");
            }
        }
        tile_path_matches_scalar(&tiles.concat());
    }

    /// The SIMD kernels are chosen at run time, so a build for any x86-64
    /// target keeps them and selects the GFNI kernel wherever the CPU has
    /// its features, else the AVX2 kernel wherever it has AVX2.
    #[test]
    fn tile_path_selects_gfni_then_avx2_when_detected() {
        const CASE: &str = "tile_path_selects_gfni_then_avx2_when_detected";
        if have("avx512-gfni", CASE) {
            assert_eq!(tile_kernel(), "avx512-gfni");
        } else if have("avx2", CASE) {
            assert_eq!(tile_kernel(), "avx2");
        } else {
            assert_eq!(tile_kernel(), "masked-swap");
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

        /// The tile path, on both word widths, against the scalar
        /// plane-major layout (see [`tile_path_matches_scalar`]).
        #[test]
        fn tile_stream_equals_staged(seed: u64, tiles in 1usize..5) {
            let n = tiles * TILE_WORDS;
            tile_path_matches_scalar(&random_words::<u32>(seed, n));
            tile_path_matches_scalar(&random_words::<u64>(seed, n));
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
