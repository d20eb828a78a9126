//! Byte-oriented range asymmetric numeral system (rANS) coder.
//!
//! ZSTD's entropy stage is FSE (a tabled ANS variant); this module provides
//! the closest compact equivalent — a 12-bit-normalized static rANS coder
//! over byte symbols — so the "ZSTD stand-in" backend can trade a little
//! speed for ratio beyond what the canonical Huffman coder reaches on
//! skewed distributions (Huffman is limited to whole-bit code lengths).
//!
//! Encoding runs backwards (classic rANS), decoding forwards; the
//! frequency table is quantized to `1 << SCALE_BITS` and serialized
//! compactly with run-length coding of zero entries.

use crate::{EntropyError, Result};

/// Probability scale (2^12, as in FSE's default table log range).
pub const SCALE_BITS: u32 = 12;
const SCALE: u32 = 1 << SCALE_BITS;
/// Lower bound of the normalized state interval.
const RANS_L: u64 = 1 << 23;

/// Quantize raw counts to a power-of-two total, keeping every present
/// symbol's frequency ≥ 1.
fn normalize(freqs: &[u64; 256]) -> Option<[u32; 256]> {
    let total: u64 = freqs.iter().sum();
    if total == 0 {
        return None;
    }
    let mut out = [0u32; 256];
    let mut used: u32 = 0;
    for (i, &f) in freqs.iter().enumerate() {
        if f > 0 {
            let q = ((f as u128 * SCALE as u128) / total as u128) as u32;
            out[i] = q.max(1);
            used += out[i];
        }
    }
    // Rebalance to exactly SCALE: shave from the largest entries or give
    // the remainder to the largest entry.
    while used > SCALE {
        let (imax, _) = out
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .expect("non-empty");
        let cut = (used - SCALE).min(out[imax] - 1);
        if cut == 0 {
            // Every entry is already 1: fewer than SCALE symbols is
            // guaranteed (256 < 4096), so this cannot happen.
            unreachable!("cannot rebalance rANS table");
        }
        out[imax] -= cut;
        used -= cut;
    }
    if used < SCALE {
        let (imax, _) = out.iter().enumerate().max_by_key(|(_, &v)| v).unwrap();
        out[imax] += SCALE - used;
    }
    Some(out)
}

/// Serialize the normalized table: (symbol-run headers, 12-bit freqs).
fn write_table(freqs: &[u32; 256], out: &mut Vec<u8>) {
    let mut i = 0usize;
    while i < 256 {
        if freqs[i] == 0 {
            // zero run: 0x00 marker + run length - 1
            let mut run = 1usize;
            while i + run < 256 && freqs[i + run] == 0 && run < 256 {
                run += 1;
            }
            out.push(0x00);
            out.push((run - 1) as u8);
            i += run;
        } else {
            // nonzero: 0x01 marker + 2-byte freq
            out.push(0x01);
            out.extend_from_slice(&(freqs[i] as u16).to_le_bytes());
            i += 1;
        }
    }
}

fn read_table(r: &mut std::slice::Iter<u8>) -> Result<[u32; 256]> {
    let mut next = || -> Result<u8> {
        r.next()
            .copied()
            .ok_or_else(|| EntropyError::Malformed("rANS table truncated".into()))
    };
    let mut freqs = [0u32; 256];
    let mut i = 0usize;
    let mut total = 0u64;
    while i < 256 {
        match next()? {
            0x00 => {
                let run = next()? as usize + 1;
                if i + run > 256 {
                    return Err(EntropyError::Malformed(
                        "rANS table zero-run overflow".into(),
                    ));
                }
                i += run;
            }
            0x01 => {
                let lo = next()? as u32;
                let hi = next()? as u32;
                freqs[i] = lo | hi << 8;
                total += freqs[i] as u64;
                i += 1;
            }
            other => {
                return Err(EntropyError::Malformed(format!(
                    "bad rANS table marker {other}"
                )))
            }
        }
    }
    if total != SCALE as u64 {
        return Err(EntropyError::Malformed(format!(
            "rANS table sums to {total}, expected {SCALE}"
        )));
    }
    Ok(freqs)
}

/// rANS-compress `input` (self-describing: length + table + state + words).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 64);
    out.extend_from_slice(&(input.len() as u64).to_le_bytes());
    if input.is_empty() {
        return out;
    }
    let mut counts = [0u64; 256];
    for &b in input {
        counts[b as usize] += 1;
    }
    let freqs = normalize(&counts).expect("non-empty input");
    // Cumulative table.
    let mut cum = [0u32; 257];
    for i in 0..256 {
        cum[i + 1] = cum[i] + freqs[i];
    }
    write_table(&freqs, &mut out);

    // Encode backwards, emitting 16-bit words on renormalization.
    let mut state: u64 = RANS_L;
    let mut words: Vec<u16> = Vec::with_capacity(input.len() / 2);
    for &b in input.iter().rev() {
        let f = freqs[b as usize] as u64;
        let c = cum[b as usize] as u64;
        // Renormalize so the post-encode state stays in [RANS_L, RANS_L<<16).
        let x_max = ((RANS_L >> SCALE_BITS) << 16) * f;
        while state >= x_max {
            words.push(state as u16);
            state >>= 16;
        }
        state = ((state / f) << SCALE_BITS) | ((state % f) + c);
    }
    out.extend_from_slice(&state.to_le_bytes());
    out.extend_from_slice(&(words.len() as u64).to_le_bytes());
    // Words were produced in reverse decode order; the decoder pops from
    // the back, so emit as-is.
    for w in &words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Inverse of [`compress`].
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>> {
    if buf.len() < 8 {
        return Err(EntropyError::Malformed("rANS stream too short".into()));
    }
    let n = u64::from_le_bytes(buf[..8].try_into().unwrap()) as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    if n > buf.len().saturating_mul(SCALE as usize) {
        return Err(EntropyError::Malformed(format!("implausible length {n}")));
    }
    let mut it = buf[8..].iter();
    let freqs = read_table(&mut it)?;
    let rest = it.as_slice();
    if rest.len() < 16 {
        return Err(EntropyError::Malformed("rANS state truncated".into()));
    }
    let mut state = u64::from_le_bytes(rest[..8].try_into().unwrap());
    let nwords = u64::from_le_bytes(rest[8..16].try_into().unwrap()) as usize;
    let words_bytes = &rest[16..];
    if words_bytes.len() < nwords * 2 {
        return Err(EntropyError::Malformed("rANS words truncated".into()));
    }
    let mut wpos = nwords; // pop from the back

    // Symbol lookup: slot -> symbol.
    let mut cum = [0u32; 257];
    for i in 0..256 {
        cum[i + 1] = cum[i] + freqs[i];
    }
    let mut slot2sym = vec![0u8; SCALE as usize];
    for sym in 0..256 {
        for s in cum[sym]..cum[sym + 1] {
            slot2sym[s as usize] = sym as u8;
        }
    }

    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let slot = (state & (SCALE as u64 - 1)) as u32;
        let sym = slot2sym[slot as usize];
        let f = freqs[sym as usize] as u64;
        let c = cum[sym as usize] as u64;
        state = f * (state >> SCALE_BITS) + (state & (SCALE as u64 - 1)) - c;
        while state < RANS_L {
            if wpos == 0 {
                return Err(EntropyError::Malformed("rANS word underrun".into()));
            }
            wpos -= 1;
            let w =
                u16::from_le_bytes(words_bytes[wpos * 2..wpos * 2 + 2].try_into().unwrap()) as u64;
            state = state << 16 | w;
        }
        out.push(sym);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn skewed_bytes_beat_huffman_granularity() {
        // 97% zeros: entropy ≈ 0.19 bits/byte; Huffman can't go below 1.
        let mut input = vec![0u8; 50_000];
        for i in (0..input.len()).step_by(33) {
            input[i] = (i % 7) as u8 + 1;
        }
        let r = compress(&input);
        assert!(
            r.len() < input.len() / 6,
            "rANS should crush a 97%-skewed stream: {}",
            r.len()
        );
        assert_eq!(decompress(&r).unwrap(), input);
    }

    #[test]
    fn uniform_bytes_near_incompressible() {
        let input: Vec<u8> = (0..10_000u32).map(|i| (i * 197) as u8).collect();
        let r = compress(&input);
        // Overhead: ~768 bytes of table, 24 bytes of framing, plus a few
        // renormalization words.
        assert!(r.len() <= input.len() + 1024, "{}", r.len());
        assert_eq!(decompress(&r).unwrap(), input);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(decompress(&compress(&[])).unwrap(), Vec::<u8>::new());
        assert_eq!(decompress(&compress(&[42])).unwrap(), vec![42]);
        assert_eq!(
            decompress(&compress(&[7; 100_000])).unwrap(),
            vec![7; 100_000]
        );
    }

    #[test]
    fn truncation_errors_not_panics() {
        let input: Vec<u8> = (0..5000u32).map(|i| (i % 11) as u8).collect();
        let c = compress(&input);
        for cut in [0, 4, 8, 20, c.len() / 2, c.len() - 1] {
            let _ = decompress(&c[..cut]);
        }
    }

    #[test]
    fn table_normalization_sums_to_scale() {
        let mut counts = [0u64; 256];
        counts[0] = 1_000_000;
        counts[1] = 1;
        counts[255] = 3;
        let f = normalize(&counts).unwrap();
        assert_eq!(f.iter().sum::<u32>(), SCALE);
        assert!(f[1] >= 1 && f[255] >= 1, "present symbols keep freq >= 1");
    }

    proptest! {
        #[test]
        fn roundtrip_random(input: Vec<u8>) {
            prop_assert_eq!(decompress(&compress(&input)).unwrap(), input);
        }

        #[test]
        fn roundtrip_skewed(base in prop::collection::vec(0u8..4, 0..20_000)) {
            prop_assert_eq!(decompress(&compress(&base)).unwrap(), base);
        }
    }
}
