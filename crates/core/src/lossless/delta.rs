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
//! it compresses.

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
/// carry — the tile-wise mirror of [`encode_carry`].
#[inline]
pub fn decode_carry<W: Word>(words: &mut [W], mut prev: W) -> W {
    for w in words.iter_mut() {
        let cur = prev.wrapping_add(negabinary::decode(*w));
        *w = cur;
        prev = cur;
    }
    prev
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
