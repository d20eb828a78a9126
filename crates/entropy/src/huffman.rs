//! Canonical Huffman coding over integer symbol alphabets.
//!
//! The SZ-family baselines Huffman-code their quantization bins \[17\]; this
//! is a compact canonical implementation with a length-limited code (via
//! frequency scaling) and an RLE-compressed code-length table, so sparse
//! alphabets (most bins unused) cost little header space.

use crate::bitio::{BitReader, BitWriter};
use crate::{EntropyError, Result};
use std::collections::BinaryHeap;

/// Maximum code length supported by the table serialization (5-bit field).
pub const MAX_CODE_LEN: u32 = 31;

/// Compute Huffman code lengths for `freqs`, limited to `max_len` bits by
/// iterative frequency scaling (flattens the distribution until the tree
/// fits). Returns one length per symbol; unused symbols get length 0.
pub fn code_lengths(freqs: &[u64], max_len: u32) -> Vec<u8> {
    assert!((1..=MAX_CODE_LEN).contains(&max_len));
    let n = freqs.len();
    let used: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    let mut lens = vec![0u8; n];
    match used.len() {
        0 => return lens,
        1 => {
            lens[used[0]] = 1;
            return lens;
        }
        _ => {}
    }
    let mut scaled: Vec<u64> = freqs.to_vec();
    loop {
        let l = tree_lengths(&scaled, &used);
        let deepest = used.iter().map(|&i| l[i]).max().unwrap();
        if deepest as u32 <= max_len {
            for &i in &used {
                lens[i] = l[i];
            }
            return lens;
        }
        // Halve (floor at 1) and retry; converges to a flat tree.
        for &i in &used {
            scaled[i] = (scaled[i] / 2).max(1);
        }
    }
}

/// Plain (unlimited) Huffman depth computation via a pairing heap.
fn tree_lengths(freqs: &[u64], used: &[usize]) -> Vec<u8> {
    #[derive(PartialEq, Eq)]
    struct Item {
        freq: u64,
        order: usize, // deterministic tie-break
        node: usize,
    }
    impl Ord for Item {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap.
            (o.freq, o.order).cmp(&(self.freq, self.order))
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }

    // Internal tree: parents[node]; leaves are 0..used.len().
    let mut parents: Vec<usize> = vec![usize::MAX; 2 * used.len()];
    let mut heap: BinaryHeap<Item> = used
        .iter()
        .enumerate()
        .map(|(k, &i)| Item {
            freq: freqs[i],
            order: k,
            node: k,
        })
        .collect();
    let mut next = used.len();
    let mut order = used.len();
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        parents[a.node] = next;
        parents[b.node] = next;
        heap.push(Item {
            freq: a.freq + b.freq,
            order,
            node: next,
        });
        next += 1;
        order += 1;
    }
    let mut lens = vec![0u8; freqs.len()];
    for (k, &i) in used.iter().enumerate() {
        let mut d = 0u8;
        let mut node = k;
        while parents[node] != usize::MAX {
            node = parents[node];
            d += 1;
        }
        lens[i] = d;
    }
    lens
}

/// Assign canonical codes (numerically increasing within each length).
fn canonical_codes(lens: &[u8]) -> Vec<u32> {
    let max = lens.iter().copied().max().unwrap_or(0) as u32;
    let mut count = vec![0u32; max as usize + 1];
    for &l in lens {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut first = vec![0u32; max as usize + 2];
    let mut code = 0u32;
    for l in 1..=max as usize {
        code = (code + count[l - 1]) << 1;
        first[l] = code;
    }
    let mut next = first.clone();
    let mut codes = vec![0u32; lens.len()];
    for (i, &l) in lens.iter().enumerate() {
        if l > 0 {
            codes[i] = next[l as usize];
            next[l as usize] += 1;
        }
    }
    codes
}

/// Canonical Huffman encoder.
pub struct HuffmanEncoder {
    lens: Vec<u8>,
    codes: Vec<u32>,
}

impl HuffmanEncoder {
    /// Build from symbol frequencies.
    pub fn from_frequencies(freqs: &[u64], max_len: u32) -> Self {
        let lens = code_lengths(freqs, max_len);
        let codes = canonical_codes(&lens);
        Self { lens, codes }
    }

    /// Serialize the code-length table (RLE: 5-bit length + 16-bit run).
    pub fn write_table(&self, w: &mut BitWriter) {
        w.write_bits(self.lens.len() as u64, 32);
        let mut i = 0;
        while i < self.lens.len() {
            let l = self.lens[i];
            let mut run = 1usize;
            while i + run < self.lens.len() && self.lens[i + run] == l && run < 65536 {
                run += 1;
            }
            w.write_bits(l as u64, 5);
            w.write_bits((run - 1) as u64, 16);
            i += run;
        }
    }

    /// Emit the code for `sym`.
    ///
    /// # Panics
    /// Debug-asserts the symbol has a code (its frequency was nonzero).
    #[inline]
    pub fn encode_symbol(&self, sym: usize, w: &mut BitWriter) {
        let l = self.lens[sym];
        debug_assert!(l > 0, "symbol {sym} has no code");
        w.write_bits(self.codes[sym] as u64, l as u32);
    }
}

/// Canonical Huffman decoder (first-code-per-length method).
pub struct HuffmanDecoder {
    /// first canonical code of each length
    first: Vec<u32>,
    /// running symbol-index offset of each length
    offset: Vec<u32>,
    /// symbols sorted by (length, symbol)
    sorted: Vec<u32>,
    max_len: u32,
    /// count of codes per length (for bounds checks)
    count: Vec<u32>,
}

impl HuffmanDecoder {
    /// Rebuild the decoder from a serialized code-length table.
    pub fn read_table(r: &mut BitReader) -> Result<Self> {
        let n = r.read_bits(32)? as usize;
        if n > (1 << 24) {
            return Err(EntropyError::Malformed(format!(
                "implausible alphabet size {n}"
            )));
        }
        let mut lens = Vec::with_capacity(n);
        while lens.len() < n {
            let l = r.read_bits(5)? as u8;
            let run = r.read_bits(16)? as usize + 1;
            if lens.len() + run > n {
                return Err(EntropyError::Malformed(
                    "length table overruns alphabet".into(),
                ));
            }
            lens.extend(std::iter::repeat_n(l, run));
        }
        Self::from_lengths(&lens)
    }

    /// Build directly from code lengths.
    pub fn from_lengths(lens: &[u8]) -> Result<Self> {
        let max_len = lens.iter().copied().max().unwrap_or(0) as u32;
        if max_len > MAX_CODE_LEN {
            return Err(EntropyError::Malformed(format!(
                "code length {max_len} exceeds limit"
            )));
        }
        let mut count = vec![0u32; max_len as usize + 1];
        for &l in lens {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        let mut first = vec![0u32; max_len as usize + 2];
        let mut offset = vec![0u32; max_len as usize + 2];
        let mut code = 0u32;
        let mut sym_off = 0u32;
        for l in 1..=max_len as usize {
            code = (code + count[l - 1]) << 1;
            first[l] = code;
            offset[l] = sym_off;
            sym_off += count[l];
        }
        let mut sorted = Vec::with_capacity(sym_off as usize);
        for l in 1..=max_len as usize {
            for (i, &sl) in lens.iter().enumerate() {
                if sl as usize == l {
                    sorted.push(i as u32);
                }
            }
        }
        Ok(Self {
            first,
            offset,
            sorted,
            max_len,
            count,
        })
    }

    /// Decode one symbol.
    pub fn decode_symbol(&self, r: &mut BitReader) -> Result<usize> {
        let mut code = 0u32;
        for l in 1..=self.max_len as usize {
            code = (code << 1) | r.read_bits(1)? as u32;
            if self.count[l] > 0 && code.wrapping_sub(self.first[l]) < self.count[l] {
                let idx = self.offset[l] + (code - self.first[l]);
                return Ok(self.sorted[idx as usize] as usize);
            }
        }
        Err(EntropyError::Malformed("invalid Huffman code".into()))
    }
}

/// One-shot convenience: Huffman-compress a `u16` symbol stream
/// (table + payload in one buffer).
pub fn compress_u16(symbols: &[u16]) -> Vec<u8> {
    let alphabet = symbols.iter().map(|&s| s as usize + 1).max().unwrap_or(1);
    let mut freqs = vec![0u64; alphabet];
    for &s in symbols {
        freqs[s as usize] += 1;
    }
    let enc = HuffmanEncoder::from_frequencies(&freqs, 24);
    let mut w = BitWriter::new();
    w.write_bits(symbols.len() as u64, 64);
    enc.write_table(&mut w);
    for &s in symbols {
        enc.encode_symbol(s as usize, &mut w);
    }
    w.into_bytes()
}

/// Inverse of [`compress_u16`].
pub fn decompress_u16(buf: &[u8]) -> Result<Vec<u16>> {
    let mut r = BitReader::new(buf);
    let n = r.read_bits(64)? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    if n > buf.len().saturating_mul(64) {
        return Err(EntropyError::Malformed(format!("implausible count {n}")));
    }
    let dec = HuffmanDecoder::read_table(&mut r)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let s = dec.decode_symbol(&mut r)?;
        if s > u16::MAX as usize {
            return Err(EntropyError::Malformed(format!("symbol {s} out of range")));
        }
        out.push(s as u16);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kraft_inequality_holds() {
        let freqs = vec![50u64, 30, 10, 5, 3, 1, 1, 0, 0, 7];
        let lens = code_lengths(&freqs, 24);
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12, "kraft = {kraft}");
        assert_eq!(lens[7], 0);
        assert_eq!(lens[8], 0);
    }

    #[test]
    fn optimality_on_known_distribution() {
        // Classic: freqs 1,1,2,4,8 → depths 4,4,3,2,1.
        let freqs = vec![1u64, 1, 2, 4, 8];
        let lens = code_lengths(&freqs, 24);
        assert_eq!(lens, vec![4, 4, 3, 2, 1]);
    }

    #[test]
    fn length_limit_respected() {
        // Fibonacci-ish frequencies force deep trees without limiting.
        let freqs: Vec<u64> = {
            let mut v = vec![1u64, 1];
            for i in 2..40 {
                let next = v[i - 1] + v[i - 2];
                v.push(next);
            }
            v
        };
        let lens = code_lengths(&freqs, 15);
        assert!(lens.iter().all(|&l| l <= 15));
        // Still a valid prefix code.
        let kraft: f64 = lens
            .iter()
            .map(|&l| if l > 0 { 2f64.powi(-(l as i32)) } else { 0.0 })
            .sum();
        assert!(kraft <= 1.0 + 1e-12);
    }

    #[test]
    fn single_symbol_alphabet() {
        let out = compress_u16(&[7u16; 1000]);
        assert!(
            out.len() < 200,
            "1000 identical symbols → tiny: {}",
            out.len()
        );
        assert_eq!(decompress_u16(&out).unwrap(), vec![7u16; 1000]);
    }

    #[test]
    fn empty_stream() {
        let out = compress_u16(&[]);
        assert_eq!(decompress_u16(&out).unwrap(), Vec::<u16>::new());
    }

    #[test]
    fn skewed_distribution_compresses() {
        let mut syms = vec![0u16; 10_000];
        for (i, s) in syms.iter_mut().enumerate() {
            *s = if i % 100 == 0 { (i % 7) as u16 + 1 } else { 0 };
        }
        let out = compress_u16(&syms);
        assert!(
            out.len() < 10_000 / 4,
            "skewed data must compress: {}",
            out.len()
        );
        assert_eq!(decompress_u16(&out).unwrap(), syms);
    }

    #[test]
    fn truncated_stream_errors() {
        let out = compress_u16(&[1, 2, 3, 4, 5, 4, 3, 2, 1]);
        for cut in [0, 4, 8, out.len() - 1] {
            assert!(decompress_u16(&out[..cut]).is_err());
        }
    }

    proptest! {
        #[test]
        fn roundtrip_random(syms in prop::collection::vec(0u16..1000, 0..2000)) {
            let out = compress_u16(&syms);
            prop_assert_eq!(decompress_u16(&out).unwrap(), syms);
        }

        #[test]
        fn roundtrip_full_range(syms in prop::collection::vec(any::<u16>(), 0..500)) {
            let out = compress_u16(&syms);
            prop_assert_eq!(decompress_u16(&out).unwrap(), syms);
        }
    }
}
