//! Mutation operators over valid archives.
//!
//! Each operator targets a specific structural trust point of the container
//! format (size table, flags, counts, chunk payload boundaries) rather than
//! mutating uniformly — corruptions that *pass* the outer validation layers
//! and reach the chunk decoders are the ones that find bugs.

use crate::rng::Rng;
use pfpl::container::{Toc, HEADER_LEN, RAW_FLAG, V2_HEADER_LEN};

/// Byte offsets of the fixed header fields (see `docs/FORMAT.md`).
const FLAGS_OFF: usize = 6;
const RESERVED_OFF: usize = 7;
const COUNT_OFF: usize = 24;
const CHUNK_COUNT_OFF: usize = 32;

/// Names of all operators, index-aligned with [`mutate`]'s dispatch.
pub const OPERATORS: [&str; 13] = [
    "byte_flip",
    "truncate",
    "extend",
    "header_flip",
    "flag_corrupt",
    "count_edit",
    "chunk_count_edit",
    "size_entry_edit",
    "raw_flag_flip",
    "size_shift",
    "chunk_splice",
    "checksum_entry_edit",
    "garbage",
];

/// Apply one randomly chosen operator to a copy of `archive`; returns the
/// mutant and the operator name (for failure reports). `archive` must be a
/// valid archive (operators locate the size table by parsing it).
pub fn mutate(rng: &mut Rng, archive: &[u8]) -> (Vec<u8>, &'static str) {
    let op = rng.below(OPERATORS.len());
    let mut m = archive.to_vec();
    match op {
        // Flip 1–4 bytes anywhere with nonzero XOR masks.
        0 => {
            if !m.is_empty() {
                for _ in 0..rng.range(1, 5) {
                    let i = rng.below(m.len());
                    m[i] ^= rng.nonzero_byte();
                }
            }
        }
        // Truncate to a strictly shorter length (biased toward the
        // interesting boundaries: inside the header, inside the table,
        // one byte short).
        1 => {
            if !m.is_empty() {
                let cut = match rng.below(4) {
                    0 => rng.below(HEADER_LEN.min(m.len())),
                    1 => m.len() - 1,
                    _ => rng.below(m.len()),
                };
                m.truncate(cut);
            }
        }
        // Append trailing garbage (must be rejected: the size-table sum
        // no longer matches the payload length).
        2 => {
            for _ in 0..rng.range(1, 65) {
                m.push((rng.next_u64() >> 24) as u8);
            }
        }
        // Flip a byte inside the fixed header (including, for v2 archives,
        // the header-checksum field itself).
        3 => {
            let span = V2_HEADER_LEN.min(m.len());
            if span > 0 {
                let i = rng.below(span);
                m[i] ^= rng.nonzero_byte();
            }
        }
        // Replace the flags / reserved bytes with arbitrary values.
        4 => {
            if m.len() >= HEADER_LEN {
                let (off, v) = if rng.chance(1, 2) {
                    (FLAGS_OFF, (rng.next_u64() >> 56) as u8)
                } else {
                    (RESERVED_OFF, rng.nonzero_byte())
                };
                m[off] = v;
            }
        }
        // Rewrite the value count: off-by-one, huge, zero, or random —
        // the classic unbounded-allocation vector.
        5 => {
            if m.len() >= HEADER_LEN {
                let count = u64::from_le_bytes(m[COUNT_OFF..COUNT_OFF + 8].try_into().unwrap());
                let forged = match rng.below(4) {
                    0 => count.wrapping_add(1),
                    1 => count.wrapping_sub(1),
                    2 => u64::MAX - rng.below(4096) as u64,
                    _ => rng.next_u64(),
                };
                m[COUNT_OFF..COUNT_OFF + 8].copy_from_slice(&forged.to_le_bytes());
            }
        }
        // Rewrite the chunk count (huge values must fail on the absent
        // table, not allocate).
        6 => {
            if m.len() >= HEADER_LEN {
                let cc =
                    u32::from_le_bytes(m[CHUNK_COUNT_OFF..CHUNK_COUNT_OFF + 4].try_into().unwrap());
                let forged = match rng.below(4) {
                    0 => cc.wrapping_add(1),
                    1 => cc.wrapping_sub(1),
                    2 => u32::MAX,
                    _ => rng.next_u64() as u32,
                };
                m[CHUNK_COUNT_OFF..CHUNK_COUNT_OFF + 4].copy_from_slice(&forged.to_le_bytes());
            }
        }
        // Rewrite one size-table entry: zero, one, huge, off-by-one.
        7 => edit_table_entry(archive, rng, &mut m, |rng, entry| match rng.below(5) {
            0 => 0,
            1 => 1,
            2 => (RAW_FLAG - 1) | (entry & RAW_FLAG),
            3 => entry.wrapping_add(1),
            _ => entry.wrapping_sub(1),
        }),
        // Flip only the RAW flag: the prefix-sum still matches, so the
        // mutant reaches the per-chunk decoder with the wrong
        // interpretation — it must fail the chunk's own length checks.
        8 => edit_table_entry(archive, rng, &mut m, |_, entry| entry ^ RAW_FLAG),
        // Move bytes from one chunk's size to another, keeping the total:
        // passes the sum check, desyncs every later chunk boundary.
        9 => {
            if let Ok(toc) = Toc::read(archive) {
                if toc.header.chunk_count >= 2 {
                    let sizes = &toc.sizes;
                    let base = toc.sizes_offset();
                    let i = rng.below(sizes.len());
                    let mut j = rng.below(sizes.len());
                    if i == j {
                        j = (j + 1) % sizes.len();
                    }
                    let len_i = sizes[i] & !RAW_FLAG;
                    if len_i > 0 {
                        let d = 1 + rng.below(len_i as usize) as u32;
                        write_size(&mut m, base, i, sizes[i] - d);
                        write_size(&mut m, base, j, sizes[j] + d);
                    }
                }
            }
        }
        // Splice: overwrite a payload span with bytes copied from another
        // payload position (valid-looking local structure, wrong place).
        10 => {
            if let Ok(Toc { payload_start, .. }) = Toc::read(archive) {
                let plen = m.len() - payload_start;
                if plen >= 2 {
                    let n = rng.range(1, plen.min(256));
                    let src = payload_start + rng.below(plen - n + 1);
                    let dst = payload_start + rng.below(plen - n + 1);
                    m.copy_within(src..src + n, dst);
                }
            }
        }
        // Rewrite one checksum-table entry (v2): the payload is intact but
        // its stored digest lies — strict decode must reject exactly that
        // chunk, salvage must flag it and keep the rest.
        11 => {
            if let Ok(toc) = Toc::read(archive) {
                if let Some(base) = toc.checksums_offset() {
                    if toc.header.chunk_count > 0 {
                        let i = rng.below(toc.sizes.len());
                        let off = base + i * 4;
                        let forged = toc.checksums[i] ^ (rng.next_u64() as u32 | 1);
                        m[off..off + 4].copy_from_slice(&forged.to_le_bytes());
                    }
                }
            }
        }
        // Uniform garbage, half the time behind a valid magic + version
        // prefix so it penetrates the first checks.
        _ => {
            let n = rng.below(512);
            m.clear();
            m.extend((0..n).map(|_| (rng.next_u64() >> 40) as u8));
            if rng.chance(1, 2) && m.len() >= 6 {
                m[0..4].copy_from_slice(b"PFPL");
                m[4..6].copy_from_slice(&1u16.to_le_bytes());
            }
        }
    }
    (m, OPERATORS[op])
}

/// Rewrite one randomly chosen size-table entry through `f`.
fn edit_table_entry(archive: &[u8], rng: &mut Rng, m: &mut [u8], f: impl Fn(&mut Rng, u32) -> u32) {
    if let Ok(toc) = Toc::read(archive) {
        if toc.header.chunk_count > 0 {
            let i = rng.below(toc.sizes.len());
            let forged = f(rng, toc.sizes[i]);
            write_size(m, toc.sizes_offset(), i, forged);
        }
    }
}

/// `sizes_off` is the table base for the archive's version ([`Toc::sizes_offset`]).
fn write_size(m: &mut [u8], sizes_off: usize, index: usize, value: u32) {
    let off = sizes_off + index * 4;
    m[off..off + 4].copy_from_slice(&value.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfpl::types::{ErrorBound, Mode};

    fn sample_archive() -> Vec<u8> {
        let data: Vec<f32> = (0..9000).map(|i| (i as f32 * 0.01).sin()).collect();
        pfpl::compress(&data, ErrorBound::Abs(1e-3), Mode::Serial).unwrap()
    }

    #[test]
    fn mutation_is_deterministic() {
        let a = sample_archive();
        let (m1, op1) = mutate(&mut Rng::new(77), &a);
        let (m2, op2) = mutate(&mut Rng::new(77), &a);
        assert_eq!(m1, m2);
        assert_eq!(op1, op2);
    }

    #[test]
    fn all_operators_reachable_and_most_mutate() {
        let a = sample_archive();
        let mut rng = Rng::new(1);
        let mut seen = std::collections::HashSet::new();
        let mut changed = 0;
        for _ in 0..300 {
            let (m, op) = mutate(&mut rng, &a);
            seen.insert(op);
            if m != a {
                changed += 1;
            }
        }
        assert_eq!(seen.len(), OPERATORS.len(), "unreached operators");
        assert!(changed > 250, "only {changed}/300 mutants differ");
    }

    #[test]
    fn size_shift_preserves_total() {
        let a = sample_archive();
        let toc = Toc::read(&a).unwrap();
        assert!(toc.header.chunk_count >= 2);
        let base = toc.sizes_offset();
        let mut rng = Rng::new(3);
        loop {
            let (m, op) = mutate(&mut rng, &a);
            if op != "size_shift" || m == a {
                continue;
            }
            let total = |s: &[u32]| s.iter().map(|&x| (x & !RAW_FLAG) as u64).sum::<u64>();
            let mutated: Vec<u32> = m[base..base + toc.sizes.len() * 4]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            assert_eq!(total(&toc.sizes), total(&mutated));
            assert_ne!(toc.sizes, mutated);
            break;
        }
    }

    #[test]
    fn checksum_entry_edit_lands_in_the_checksum_table() {
        let a = sample_archive();
        let toc = Toc::read(&a).unwrap();
        let (lo, hi) = (
            toc.checksums_offset().unwrap(),
            toc.checksums_offset().unwrap() + toc.sizes.len() * 4,
        );
        let mut rng = Rng::new(11);
        loop {
            let (m, op) = mutate(&mut rng, &a);
            if op != "checksum_entry_edit" || m == a {
                continue;
            }
            assert_eq!(m.len(), a.len());
            let diff: Vec<usize> = (0..m.len()).filter(|&i| m[i] != a[i]).collect();
            assert!(
                diff.iter().all(|&i| (lo..hi).contains(&i)),
                "edits at {diff:?} outside checksum table {lo}..{hi}"
            );
            // The forged digest must make strict decode reject that chunk.
            assert!(matches!(
                pfpl::decompress_f32(&m, Mode::Serial),
                Err(pfpl::Error::ChecksumMismatch { .. })
            ));
            break;
        }
    }
}
