//! "Deflate-lite": greedy hash-chain LZ77 with Huffman-coded tokens.
//!
//! Stand-in for the GZIP/ZSTD backends of the SZ-family and SPERR
//! baselines: a 32 KiB sliding window, 3-byte hash chains with a bounded
//! search, literals and match lengths in one Huffman alphabet, and
//! bucketed raw-bit distances. It compresses structured byte streams well
//! at a throughput far below PFPL's transformations — the trade-off the
//! paper's Pareto analysis revolves around.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{HuffmanDecoder, HuffmanEncoder};
use crate::{EntropyError, Result};

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 130;
const WINDOW: usize = 32 * 1024;
const HASH_BITS: u32 = 15;
const MAX_CHAIN: usize = 48;
/// Literals 0..=255, then match-length codes for len 3..=130.
const ALPHABET: usize = 256 + (MAX_MATCH - MIN_MATCH + 1);

#[derive(Clone, Copy)]
enum Token {
    Literal(u8),
    Match { len: usize, dist: usize },
}

#[inline]
fn hash3(b: &[u8]) -> usize {
    let h = (b[0] as u32)
        .wrapping_mul(506_832_829)
        .wrapping_add((b[1] as u32).wrapping_mul(2_654_435_761))
        .wrapping_add((b[2] as u32).wrapping_mul(2_246_822_519));
    (h >> (32 - HASH_BITS)) as usize
}

fn tokenize(input: &[u8]) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(input.len() / 2);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; input.len()];
    let mut i = 0;
    while i < input.len() {
        let mut best_len = 0;
        let mut best_dist = 0;
        if i + MIN_MATCH <= input.len() {
            let h = hash3(&input[i..]);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && i - cand <= WINDOW && chain < MAX_CHAIN {
                let max_len = (input.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < max_len && input[cand + l] == input[i + l] {
                    l += 1;
                }
                if l >= MIN_MATCH && l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == max_len {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
            prev[i] = head[h];
            head[h] = i;
        }
        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                len: best_len,
                dist: best_dist,
            });
            // Insert hash entries for the matched region (cheap variant:
            // every position, capped to keep worst case linear-ish).
            for k in 1..best_len.min(32) {
                let p = i + k;
                if p + MIN_MATCH <= input.len() {
                    let h = hash3(&input[p..]);
                    prev[p] = head[h];
                    head[h] = p;
                }
            }
            i += best_len;
        } else {
            tokens.push(Token::Literal(input[i]));
            i += 1;
        }
    }
    tokens
}

/// Compress `input`; self-describing buffer (length + tables inside).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let tokens = tokenize(input);
    let mut freqs = vec![0u64; ALPHABET];
    for t in &tokens {
        match *t {
            Token::Literal(b) => freqs[b as usize] += 1,
            Token::Match { len, .. } => freqs[256 + len - MIN_MATCH] += 1,
        }
    }
    let enc = HuffmanEncoder::from_frequencies(&freqs, 20);
    let mut w = BitWriter::new();
    w.write_bits(input.len() as u64, 64);
    w.write_bits(tokens.len() as u64, 64);
    enc.write_table(&mut w);
    for t in &tokens {
        match *t {
            Token::Literal(b) => enc.encode_symbol(b as usize, &mut w),
            Token::Match { len, dist } => {
                enc.encode_symbol(256 + len - MIN_MATCH, &mut w);
                // Distance: 4-bit bucket + bucket extra bits.
                let bucket = (usize::BITS - 1 - dist.leading_zeros()) as u64;
                w.write_bits(bucket, 4);
                if bucket > 0 {
                    w.write_bits((dist - (1 << bucket)) as u64, bucket as u32);
                }
            }
        }
    }
    w.into_bytes()
}

/// Decompress a buffer produced by [`compress`].
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>> {
    let mut r = BitReader::new(buf);
    let out_len = r.read_bits(64)? as usize;
    let ntokens = r.read_bits(64)? as usize;
    if out_len == 0 {
        return Ok(Vec::new());
    }
    if out_len > buf.len().saturating_mul(2048) {
        return Err(EntropyError::Malformed(format!(
            "implausible output length {out_len}"
        )));
    }
    let dec = HuffmanDecoder::read_table(&mut r)?;
    let mut out: Vec<u8> = Vec::with_capacity(out_len);
    for _ in 0..ntokens {
        let sym = dec.decode_symbol(&mut r)?;
        if sym < 256 {
            out.push(sym as u8);
        } else {
            let len = sym - 256 + MIN_MATCH;
            let bucket = r.read_bits(4)? as u32;
            let dist = if bucket == 0 {
                1
            } else {
                (1usize << bucket) + r.read_bits(bucket)? as usize
            };
            if dist > out.len() {
                return Err(EntropyError::Malformed(format!(
                    "match distance {dist} exceeds output {}",
                    out.len()
                )));
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        }
    }
    if out.len() != out_len {
        return Err(EntropyError::Malformed(format!(
            "decoded {} bytes, expected {out_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn repetitive_data_compresses_hard() {
        let input: Vec<u8> = b"the quick brown fox "
            .iter()
            .cycle()
            .take(20_000)
            .copied()
            .collect();
        let c = compress(&input);
        assert!(c.len() < input.len() / 20, "got {} bytes", c.len());
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn overlapping_matches() {
        // RLE-style overlap: dist 1, long run.
        let input = vec![42u8; 5000];
        let c = compress(&input);
        assert!(c.len() < 200);
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn incompressible_data_bounded_expansion() {
        let mut x = 0x243F_6A88u32;
        let input: Vec<u8> = (0..10_000)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        let c = compress(&input);
        assert!(c.len() < input.len() * 9 / 8 + 64, "expansion {}", c.len());
        assert_eq!(decompress(&c).unwrap(), input);
    }

    #[test]
    fn empty_and_tiny() {
        for input in [vec![], vec![1u8], vec![1, 2], vec![1, 2, 3]] {
            let c = compress(&input);
            assert_eq!(decompress(&c).unwrap(), input);
        }
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let input: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let c = compress(&input);
        for cut in [0, 8, 16, c.len() / 2] {
            let _ = decompress(&c[..cut]);
        }
        let mut bad = c.clone();
        if bad.len() > 20 {
            bad[18] ^= 0xFF;
            let _ = decompress(&bad); // must not panic
        }
    }

    proptest! {
        #[test]
        fn roundtrip_random(input: Vec<u8>) {
            let c = compress(&input);
            prop_assert_eq!(decompress(&c).unwrap(), input);
        }

        #[test]
        fn roundtrip_structured(pattern in prop::collection::vec(any::<u8>(), 1..50), reps in 1usize..200) {
            let input: Vec<u8> = pattern.iter().cycle().take(pattern.len() * reps).copied().collect();
            let c = compress(&input);
            prop_assert_eq!(decompress(&c).unwrap(), input);
        }
    }
}
