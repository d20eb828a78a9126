//! Lossless stage 1: delta modulation with negabinary residuals (Fig. 3).
//!
//! Each word is replaced by its wrapping difference from the predecessor
//! (the first word is differenced against zero), and the two's-complement
//! residual is re-coded in negabinary so that small residuals of *either*
//! sign have long zero prefixes for the later stages to exploit.
//!
//! Within a 16 KiB chunk the predecessor chain starts fresh, so chunks stay
//! independent (§III-E). Encoding is embarrassingly parallel (`w[i] -
//! w[i-1]` reads only inputs); decoding is a prefix sum — which is why the
//! paper's GPU decoder needs a block-wide scan and decompresses slower than
//! it compresses. Here the scan runs at vector width where the CPU has
//! AVX-512F: each 64-byte vector (16 u32 or 8 u64 words) is
//! negabinary-decoded, summed in log2(lanes) shift-and-add steps
//! (`valignd` / `valignq` against zero), and offset by the broadcast
//! carry; its last lane becomes the next carry. Wrapping integer addition
//! is associative, so the sums equal the serial loop's word for word. The
//! serial loop (`decode_serial`) is the portable kernel, the reference
//! the vector scan is tested against, and the tail that is not a whole
//! vector. The kernel is chosen at run time ([`decode_kernel`] names it),
//! so every x86-64 build keeps it.

use crate::float::{negabinary, Word};

/// In-place forward transform: `out[i] = nega(in[i] - in[i-1])`.
pub fn encode_in_place<W: Word>(words: &mut [W]) {
    encode_carry(words, W::ZERO);
}

/// Forward transform continuing a predecessor chain: the first word is
/// differenced against `prev` instead of zero, and the last *original*
/// word is returned as the next carry. The fused chunk kernel uses this
/// to delta-code one register tile at a time while producing the exact
/// bytes of a whole-chunk [`encode_in_place`] pass.
#[inline]
pub fn encode_carry<W: Word>(words: &mut [W], mut prev: W) -> W {
    for w in words.iter_mut() {
        let cur = *w;
        *w = negabinary::encode(cur.wrapping_sub(prev));
        prev = cur;
    }
    prev
}

/// In-place inverse transform (sequential prefix sum).
pub fn decode_in_place<W: Word>(words: &mut [W]) {
    decode_carry(words, W::ZERO);
}

/// Inverse transform continuing a predecessor chain: the prefix sum seeds
/// from `prev` and the last *reconstructed* word is returned as the next
/// carry — the tile-wise mirror of [`encode_carry`]. Runs the AVX-512
/// scan where the CPU has it, else the serial loop.
#[inline]
pub fn decode_carry<W: Word>(words: &mut [W], prev: W) -> W {
    #[cfg(target_arch = "x86_64")]
    if avx512() {
        if let Some(words) = same_type::<W, u32>(words) {
            // SAFETY: AVX-512F support was detected just above.
            let carry = unsafe { avx512::decode32(words, prev.to_u64() as u32) };
            return W::from_u64(carry.into());
        }
        if let Some(words) = same_type::<W, u64>(words) {
            // SAFETY: as above.
            return W::from_u64(unsafe { avx512::decode64(words, prev.to_u64()) });
        }
    }
    decode_serial(words, prev)
}

/// [`decode_carry`] one word at a time: the portable kernel and the
/// AVX-512 scan's reference and tail.
#[inline]
fn decode_serial<W: Word>(words: &mut [W], mut prev: W) -> W {
    for w in words.iter_mut() {
        let cur = prev.wrapping_add(negabinary::decode(*w));
        *w = cur;
        prev = cur;
    }
    prev
}

/// `words` as a `[T]`, when `W` is `T`.
#[cfg(target_arch = "x86_64")]
#[inline]
fn same_type<W: 'static, T: 'static>(words: &mut [W]) -> Option<&mut [T]> {
    use std::any::TypeId;
    (TypeId::of::<W>() == TypeId::of::<T>()).then(|| {
        // SAFETY: `W` and `T` are the same type, so the memory is a valid
        // `[T]` of the same length, borrowed exclusively for as long.
        unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast(), words.len()) }
    })
}

/// Whether this CPU runs the AVX-512 scan.
#[inline]
fn avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The prefix-sum kernel [`decode_carry`] (and so [`decode_in_place`]
/// and the fused decode kernel) runs on this CPU: `"avx512"` or the
/// portable `"serial"`.
pub fn decode_kernel() -> &'static str {
    if avx512() {
        "avx512"
    } else {
        "serial"
    }
}

/// The AVX-512F scans. Every function here is compiled for AVX-512F
/// whatever the build's target CPU; callers check for it at run time.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use crate::float::Word;
    use crate::lossless::avx512::{load, store};
    use std::arch::x86_64::*;

    /// [`super::decode_serial`] for u32, 16 words per vector: four
    /// `valignd` and add steps. The carry chain is one add per vector;
    /// the broadcast of the scan's last lane runs beside it.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn decode32(words: &mut [u32], prev: u32) -> u32 {
        let m = _mm512_set1_epi32(u32::NEGA_MASK as i32);
        let (zero, last) = (_mm512_setzero_si512(), _mm512_set1_epi32(15));
        let mut carry = _mm512_set1_epi32(prev as i32);
        let (vecs, tail) = words.as_chunks_mut::<16>();
        for v in vecs {
            let mut x = _mm512_sub_epi32(_mm512_xor_si512(load(v), m), m);
            x = _mm512_add_epi32(x, _mm512_alignr_epi32::<15>(x, zero));
            x = _mm512_add_epi32(x, _mm512_alignr_epi32::<14>(x, zero));
            x = _mm512_add_epi32(x, _mm512_alignr_epi32::<12>(x, zero));
            x = _mm512_add_epi32(x, _mm512_alignr_epi32::<8>(x, zero));
            store(v, _mm512_add_epi32(x, carry));
            carry = _mm512_add_epi32(carry, _mm512_permutexvar_epi32(last, x));
        }
        let carry = _mm_cvtsi128_si32(_mm512_castsi512_si128(carry)) as u32;
        super::decode_serial(tail, carry)
    }

    /// [`decode32`] for u64, 8 words per vector: three `valignq` and add
    /// steps.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn decode64(words: &mut [u64], prev: u64) -> u64 {
        let m = _mm512_set1_epi64(u64::NEGA_MASK as i64);
        let (zero, last) = (_mm512_setzero_si512(), _mm512_set1_epi64(7));
        let mut carry = _mm512_set1_epi64(prev as i64);
        let (vecs, tail) = words.as_chunks_mut::<8>();
        for v in vecs {
            let mut x = _mm512_sub_epi64(_mm512_xor_si512(load(v), m), m);
            x = _mm512_add_epi64(x, _mm512_alignr_epi64::<7>(x, zero));
            x = _mm512_add_epi64(x, _mm512_alignr_epi64::<6>(x, zero));
            x = _mm512_add_epi64(x, _mm512_alignr_epi64::<4>(x, zero));
            store(v, _mm512_add_epi64(x, carry));
            carry = _mm512_add_epi64(carry, _mm512_permutexvar_epi64(last, x));
        }
        let carry = _mm_cvtsi128_si64(_mm512_castsi512_si128(carry)) as u64;
        super::decode_serial(tail, carry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example() {
        // Fig. 3: values 3, 4, 4, 3 → deltas 3, 1, 0, -1.
        let mut words = [3u32, 4, 4, 3];
        encode_in_place(&mut words);
        assert_eq!(
            words,
            [
                negabinary::encode(3u32),
                negabinary::encode(1),
                negabinary::encode(0),
                negabinary::encode(1u32.wrapping_neg()),
            ]
        );
        decode_in_place(&mut words);
        assert_eq!(words, [3, 4, 4, 3]);
    }

    #[test]
    fn smooth_data_small_residuals() {
        let mut words: Vec<u32> = (0..1000u32).map(|i| 1_000_000 + i * 3).collect();
        encode_in_place(&mut words);
        // After the first word, every residual is nega(3) = 7 < 16.
        assert!(words[1..].iter().all(|&w| w < 16));
    }

    #[test]
    fn empty_and_single() {
        let mut empty: [u32; 0] = [];
        encode_in_place(&mut empty);
        decode_in_place(&mut empty);
        let mut one = [0xDEAD_BEEFu32];
        encode_in_place(&mut one);
        decode_in_place(&mut one);
        assert_eq!(one, [0xDEAD_BEEF]);
    }

    #[test]
    fn carry_splits_match_whole() {
        // Encoding tile-by-tile with carries must equal one whole pass,
        // for any split points; same for decoding.
        let orig: Vec<u32> = (0..1000u32)
            .map(|i| i.wrapping_mul(0x9E3779B9) >> 7)
            .collect();
        let mut whole = orig.clone();
        encode_in_place(&mut whole);
        let mut split = orig.clone();
        let mut carry = 0u32;
        for part in split.chunks_mut(96) {
            carry = encode_carry(part, carry);
        }
        assert_eq!(split, whole);
        let mut carry = 0u32;
        for part in split.chunks_mut(96) {
            carry = decode_carry(part, carry);
        }
        assert_eq!(split, orig);
    }

    /// `n` xorshift words.
    fn random_words(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    /// The AVX-512 scans, called by name, equal the serial loop on
    /// arbitrary words and carries, for every length 0..=1100 (whole
    /// vectors, tails of every size, and whole and partial tiles).
    #[test]
    fn avx512_scan_matches_serial() {
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            for n in 0..=1100 {
                let words = random_words(n as u64 + 1, n + 1);
                let (prev, words) = (words[0], &words[1..]);
                let (mut got, mut want) = (words.to_vec(), words.to_vec());
                // SAFETY: AVX-512F support was detected above.
                let carry = unsafe { avx512::decode64(&mut got, prev) };
                assert_eq!(carry, decode_serial(&mut want, prev), "u64, {n} words");
                assert_eq!(got, want, "u64, {n} words");

                let words: Vec<u32> = words.iter().map(|&w| (w >> 17) as u32).collect();
                let (mut got, mut want) = (words.clone(), words);
                // SAFETY: as above.
                let carry = unsafe { avx512::decode32(&mut got, prev as u32) };
                assert_eq!(
                    carry,
                    decode_serial(&mut want, prev as u32),
                    "u32, {n} words"
                );
                assert_eq!(got, want, "u32, {n} words");
            }
            return;
        }
        eprintln!("avx512_scan_matches_serial: this CPU has no AVX-512F; the scan was not tested");
    }

    /// Decoding tile by tile through [`decode_carry`] (the detected
    /// kernel), with the carry split at every tile boundary, equals one
    /// serial pass, for whole and partial last tiles.
    #[test]
    fn tile_carry_splits_match_serial() {
        const TILE: usize = crate::lossless::shuffle::TILE_WORDS;
        for n in [TILE, 4 * TILE, 4 * TILE + 1, 4 * TILE + 15, 5 * TILE - 9] {
            let words = random_words(n as u64, n);
            let mut want = words.clone();
            decode_serial(&mut want, 0);
            let mut got = words.clone();
            let mut carry = 0u64;
            for tile in got.chunks_mut(TILE) {
                carry = decode_carry(tile, carry);
            }
            assert_eq!(got, want, "u64, {n} words");

            let words: Vec<u32> = words.iter().map(|&w| w as u32).collect();
            let mut want = words.clone();
            decode_serial(&mut want, 0);
            let mut got = words;
            let mut carry = 0u32;
            for tile in got.chunks_mut(TILE) {
                carry = decode_carry(tile, carry);
            }
            assert_eq!(got, want, "u32, {n} words");
        }
    }

    /// The scan is chosen at run time, so a build for any x86-64 target
    /// keeps it and selects it wherever the CPU has AVX-512F.
    #[test]
    fn decode_selects_avx512_when_detected() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") {
            assert_eq!(decode_kernel(), "avx512");
            return;
        }
        eprintln!("decode_selects_avx512_when_detected: no AVX-512F on this CPU");
        assert_eq!(decode_kernel(), "serial");
    }

    proptest! {
        #[test]
        fn roundtrip_u32(mut words: Vec<u32>) {
            let orig = words.clone();
            encode_in_place(&mut words);
            decode_in_place(&mut words);
            prop_assert_eq!(words, orig);
        }

        #[test]
        fn roundtrip_u64(mut words: Vec<u64>) {
            let orig = words.clone();
            encode_in_place(&mut words);
            decode_in_place(&mut words);
            prop_assert_eq!(words, orig);
        }
    }
}
