//! Portable 32-bit integrity checksum (format v2).
//!
//! One hand-rolled xxhash32-style mix, used for both the v2 header
//! checksum and the per-chunk payload checksums. Requirements, in order:
//!
//! * **bit-identical everywhere** — the same bytes must hash to the same
//!   word on the serial, parallel, streaming, and device-sim backends, on
//!   any host. The implementation is plain integer arithmetic (rotates,
//!   multiplies by odd constants), no platform intrinsics, no
//!   endian-dependent loads (`u32::from_le_bytes` everywhere);
//! * **branch-free hot loop** — 16 bytes per iteration through four
//!   independent accumulator lanes, so the compiler can keep all four in
//!   registers and interleave the multiplies;
//! * **fast relative to decode** — the checksum runs over *compressed*
//!   bytes (several times fewer than the values they decode to), so even a
//!   scalar ~4–8 GB/s hash costs only a few percent of decompression
//!   throughput.
//!
//! This is an integrity check against storage/transport corruption, not a
//! MAC: it detects random damage (any single-bit flip changes the digest;
//! the exhaustive corruption matrix in `tests/corruption_matrix.rs`
//! verifies every single-byte flip in every fixture is caught), but an
//! adversary can forge it. The exact algorithm is specified in
//! `docs/FORMAT.md` so third-party decoders can interoperate.

const P1: u32 = 0x9E37_79B1;
const P2: u32 = 0x85EB_CA77;
const P3: u32 = 0xC2B2_AE3D;
const P4: u32 = 0x27D4_EB2F;
const P5: u32 = 0x1656_67B1;

/// Seed for the v2 header checksum ("PFPL" as a little-endian u32), kept
/// distinct from every chunk seed so a header can never validate against a
/// chunk digest.
pub const HEADER_SEED: u32 = u32::from_le_bytes(*b"PFPL");

/// Seed for chunk `i`'s payload checksum: the chunk index itself. Seeding
/// by position binds each digest to its slot, so two chunks with identical
/// payload bytes still carry different checksums — a splice that swaps
/// whole valid payloads between slots is detected, not just byte damage.
pub const fn chunk_seed(chunk: usize) -> u32 {
    chunk as u32
}

#[inline(always)]
fn round(acc: u32, lane: u32) -> u32 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(13)
        .wrapping_mul(P1)
}

#[inline(always)]
fn le32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Checksum `data` under `seed` (xxhash32-style: four-lane 16-byte rounds,
/// 4-byte and 1-byte tail mixes, final avalanche).
pub fn checksum32(seed: u32, data: &[u8]) -> u32 {
    let mut chunks16 = data.chunks_exact(16);
    let mut acc = if data.len() >= 16 {
        let mut a1 = seed.wrapping_add(P1).wrapping_add(P2);
        let mut a2 = seed.wrapping_add(P2);
        let mut a3 = seed;
        let mut a4 = seed.wrapping_sub(P1);
        for c in &mut chunks16 {
            a1 = round(a1, le32(&c[0..4]));
            a2 = round(a2, le32(&c[4..8]));
            a3 = round(a3, le32(&c[8..12]));
            a4 = round(a4, le32(&c[12..16]));
        }
        a1.rotate_left(1)
            .wrapping_add(a2.rotate_left(7))
            .wrapping_add(a3.rotate_left(12))
            .wrapping_add(a4.rotate_left(18))
    } else {
        seed.wrapping_add(P5)
    };
    acc = acc.wrapping_add(data.len() as u32);
    let tail = chunks16.remainder();
    let mut words4 = tail.chunks_exact(4);
    for w in &mut words4 {
        acc = acc
            .wrapping_add(le32(w).wrapping_mul(P3))
            .rotate_left(17)
            .wrapping_mul(P4);
    }
    for &b in words4.remainder() {
        acc = acc
            .wrapping_add((b as u32).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    acc ^= acc >> 15;
    acc = acc.wrapping_mul(P2);
    acc ^= acc >> 13;
    acc = acc.wrapping_mul(P3);
    acc ^= acc >> 16;
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_digest_is_pinned() {
        // xxhash32 of the empty string under seed 0 — pins the algorithm
        // (any change to constants or finalization breaks this).
        assert_eq!(checksum32(0, b""), 0x02CC_5D05);
    }

    #[test]
    fn digests_are_deterministic_and_seed_sensitive() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        assert_eq!(checksum32(3, &data), checksum32(3, &data));
        assert_ne!(checksum32(3, &data), checksum32(4, &data));
        assert_ne!(checksum32(HEADER_SEED, &data), checksum32(0, &data));
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        // Exhaustive over a buffer long enough to cover the 16-byte-lane
        // loop, both tail loops, and every lane position.
        let data: Vec<u8> = (0..77u32)
            .map(|i| (i.wrapping_mul(37) >> 2) as u8)
            .collect();
        let clean = checksum32(1, &data);
        let mut m = data.clone();
        for i in 0..m.len() {
            for bit in 0..8 {
                m[i] ^= 1 << bit;
                assert_ne!(
                    checksum32(1, &m),
                    clean,
                    "flip of byte {i} bit {bit} undetected"
                );
                m[i] ^= 1 << bit;
            }
        }
        assert_eq!(m, data);
    }

    #[test]
    fn length_extension_of_zeros_is_detected() {
        // Trailing zero bytes must change the digest (a truncated table
        // read must never alias a shorter payload).
        let data = vec![0xABu8; 40];
        let mut extended = data.clone();
        extended.push(0);
        assert_ne!(checksum32(0, &data), checksum32(0, &extended));
        assert_ne!(checksum32(0, b""), checksum32(0, b"\0"));
    }

    #[test]
    fn all_tail_lengths_distinct() {
        // Digests over every prefix length 0..64 are pairwise distinct
        // (covers each mod-16 / mod-4 tail combination).
        let data: Vec<u8> = (0..64u32).map(|i| (i * 13 + 5) as u8).collect();
        let digests: Vec<u32> = (0..=64).map(|n| checksum32(9, &data[..n])).collect();
        let unique: std::collections::HashSet<_> = digests.iter().collect();
        assert_eq!(unique.len(), digests.len());
    }

    #[test]
    fn chunk_seed_is_index() {
        assert_eq!(chunk_seed(0), 0);
        assert_eq!(chunk_seed(7), 7);
        assert_ne!(
            checksum32(chunk_seed(0), b"same payload"),
            checksum32(chunk_seed(1), b"same payload"),
        );
    }
}
