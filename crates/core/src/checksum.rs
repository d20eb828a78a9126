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
//! * **branch-free hot loop** — 16 bytes per round through four
//!   independent accumulator lanes;
//! * **off the critical path** — the payload checksum runs over every
//!   compressed byte on compress and on verified decode. One digest is a
//!   chain of dependent multiplies: about 5.5 GB/s scalar on a 2-vCPU
//!   AVX-512 Xeon, which made it about 29 % of serial decode and 23 % of
//!   compress on the rough-f32 benchmark workload (0.64 payload bytes per
//!   input byte). Chunks hash independently, so [`checksum32_batch`]
//!   hashes up to [`BATCH`] payloads in lockstep instead.
//!
//! # One digest, two loop forms
//!
//! [`checksum32`] walks the input a 4-byte word at a time, word `i` going
//! to lane `i & 3`. Written as four named lanes per 16-byte round, LLVM
//! packs the lanes into one 128-bit register wherever the CPU has a vector
//! rotate (AVX-512), and that one `vpmulld` chain hashes about 3.9 GB/s
//! against the 5.5 of the scalar loop; the word-at-a-time form stays
//! scalar at every `target-cpu`.
//!
//! [`checksum32_batch`] keeps the lanes of [`BATCH`] chunks side by side
//! in one `[[u32; 4]; BATCH]` array, so each 16-byte round of all chunks
//! is one flat 32-lane update that auto-vectorizes (four `ymm` chains on
//! AVX2). Payload lengths differ, so the lockstep runs in segments: each
//! ends where the shortest live payload runs out of whole rounds, and a
//! finished chunk's lane reads the longest payload's bytes until the
//! batch ends (its state was saved when it finished). Once fewer than
//! three payloads are live, they finish on the scalar loop, as do
//! every chunk's tail and final mix. The kernel is picked at run time
//! ([`batch_kernel`]): an AVX-512 or AVX2 instance of the same body, or
//! [`checksum32`] per payload on CPUs with neither (the batched body
//! compiled for SSE2 is no faster than scalar). Every batched digest
//! equals [`checksum32`], which stays the reference.
//!
//! This is an integrity check against storage/transport corruption, not a
//! MAC: it detects random damage (any single-bit flip changes the digest;
//! the exhaustive corruption matrix in `tests/corruption_matrix.rs`
//! verifies every single-byte flip in every fixture is caught), but an
//! adversary can forge it. The exact algorithm is specified in
//! `docs/FORMAT.md` so third-party decoders can interoperate.

use std::array::from_fn;

const P1: u32 = 0x9E37_79B1;
const P2: u32 = 0x85EB_CA77;
const P3: u32 = 0xC2B2_AE3D;
const P4: u32 = 0x27D4_EB2F;
const P5: u32 = 0x1656_67B1;

/// Payloads [`checksum32_batch`] digests at once.
pub const BATCH: usize = 8;

/// Fewest live payloads worth a lockstep round: the batched rounds cost
/// the same whatever the number of live lanes, and below three payloads
/// the scalar loop is faster.
const MIN_LANES: usize = 3;

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

/// The four lanes' starting state under `seed`.
#[inline(always)]
fn init(seed: u32) -> [u32; 4] {
    [
        seed.wrapping_add(P1).wrapping_add(P2),
        seed.wrapping_add(P2),
        seed,
        seed.wrapping_sub(P1),
    ]
}

/// Run the 16-byte rounds of `rounds` (whole rounds only) on `acc`, a
/// 4-byte word at a time: the loop form LLVM keeps scalar.
#[inline(always)]
fn scalar_rounds(mut acc: [u32; 4], rounds: &[u8]) -> [u32; 4] {
    for (i, w) in rounds.chunks_exact(4).enumerate() {
        acc[i & 3] = round(acc[i & 3], le32(w));
    }
    acc
}

/// The digest of `data` under `seed`, given the lane state `acc` after all
/// of `data`'s whole 16-byte rounds: the lane merge (or the short-input
/// start), the length, the 4-byte and 1-byte tail mixes and the final
/// avalanche.
#[inline(always)]
fn finish(seed: u32, acc: [u32; 4], data: &[u8]) -> u32 {
    let mut h = if data.len() >= 16 {
        acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18))
    } else {
        seed.wrapping_add(P5)
    };
    h = h.wrapping_add(data.len() as u32);
    let mut words4 = data[data.len() / 16 * 16..].chunks_exact(4);
    for w in &mut words4 {
        h = h
            .wrapping_add(le32(w).wrapping_mul(P3))
            .rotate_left(17)
            .wrapping_mul(P4);
    }
    for &b in words4.remainder() {
        h = h
            .wrapping_add((b as u32).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 15;
    h = h.wrapping_mul(P2);
    h ^= h >> 13;
    h = h.wrapping_mul(P3);
    h ^= h >> 16;
    h
}

/// Checksum `data` under `seed` (xxhash32-style: four-lane 16-byte rounds,
/// 4-byte and 1-byte tail mixes, final avalanche).
pub fn checksum32(seed: u32, data: &[u8]) -> u32 {
    let acc = scalar_rounds(init(seed), &data[..data.len() / 16 * 16]);
    finish(seed, acc, data)
}

/// `checksum32(seeds[k], data[k])` in lane `k`, for up to [`BATCH`]
/// inputs hashed together (lanes past `data.len()` read 0). Groups of
/// one or two inputs, and CPUs without AVX2, run [`checksum32`] per
/// input.
///
/// # Panics
/// If `data` holds more than [`BATCH`] inputs or `seeds` differs from it
/// in length.
pub fn checksum32_batch(seeds: &[u32], data: &[&[u8]]) -> [u32; BATCH] {
    assert!(
        data.len() <= BATCH && seeds.len() == data.len(),
        "{} seeds for {} inputs (at most {BATCH})",
        seeds.len(),
        data.len()
    );
    if data.len() >= MIN_LANES {
        #[cfg(target_arch = "x86_64")]
        match batch_kernel() {
            // SAFETY: `batch_kernel` names a kernel only when
            // `is_x86_feature_detected!` found every feature it enables.
            "avx512" => return unsafe { x86::batch_avx512(seeds, data) },
            // SAFETY: as above.
            "avx2" => return unsafe { x86::batch_avx2(seeds, data) },
            _ => {}
        }
    }
    from_fn(|k| data.get(k).map_or(0, |d| checksum32(seeds[k], d)))
}

/// The kernel [`checksum32_batch`] runs on this CPU for three or more
/// inputs: `"avx512"` (AVX-512 F and VL: vector rotates), `"avx2"` or
/// `"scalar"` ([`checksum32`] per input).
pub fn batch_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            return "avx512";
        }
        if is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{batch, BATCH};

    /// [`batch`] compiled for AVX-512 F and VL.
    ///
    /// # Safety
    /// The CPU must have AVX-512 F and VL.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub fn batch_avx512(seeds: &[u32], data: &[&[u8]]) -> [u32; BATCH] {
        batch(seeds, data)
    }

    /// [`batch`] compiled for AVX2.
    ///
    /// # Safety
    /// The CPU must have AVX2.
    #[target_feature(enable = "avx2")]
    pub fn batch_avx2(seeds: &[u32], data: &[&[u8]]) -> [u32; BATCH] {
        batch(seeds, data)
    }
}

/// The batched digest's body, inlined into each kernel instance: the
/// segmented lockstep over all whole rounds while [`MIN_LANES`] payloads
/// are live, then the scalar loop for the rest of the rounds and every
/// payload's tail.
#[inline(always)]
fn batch(seeds: &[u32], data: &[&[u8]]) -> [u32; BATCH] {
    let n = data.len();
    let rounds: [usize; BATCH] = from_fn(|k| data.get(k).map_or(0, |d| d.len() / 16));
    let mut acc: [[u32; 4]; BATCH] = from_fn(|k| init(seeds.get(k).copied().unwrap_or(0)));
    // Each lane's state after its last lockstep round.
    let mut saved = acc;
    let mut done = 0;
    loop {
        let live = || (0..n).filter(|&k| rounds[k] > done);
        let (Some(end), Some(longest)) = (
            live().map(|k| rounds[k]).min(),
            live().max_by_key(|&k| rounds[k]),
        ) else {
            break;
        };
        if live().count() < MIN_LANES {
            break;
        }
        let src: [&[[u8; 16]]; BATCH] = from_fn(|k| {
            let lane = if rounds[k] > done { k } else { longest };
            data[lane][16 * done..16 * end].as_chunks().0
        });
        lockstep(&mut acc, &src);
        for k in live().filter(|&k| rounds[k] == end) {
            saved[k] = acc[k];
        }
        done = end;
    }
    from_fn(|k| {
        let Some(d) = data.get(k) else { return 0 };
        let acc = if rounds[k] > done {
            scalar_rounds(acc[k], &d[16 * done..16 * rounds[k]])
        } else {
            saved[k]
        };
        finish(seeds[k], acc, d)
    })
}

/// One lockstep segment: round `j` of every lane `k` mixes block
/// `src[k][j]` into `acc[k]`; every `src[k]` holds as many blocks as
/// `src[0]`. The blocks of a round are copied side by side so the 32-lane
/// update is one flat loop.
#[inline(always)]
fn lockstep(acc: &mut [[u32; 4]; BATCH], src: &[&[[u8; 16]]; BATCH]) {
    let m = src[0].len();
    let src: [&[[u8; 16]]; BATCH] = from_fn(|k| &src[k][..m]);
    let mut lanes = [0u32; 4 * BATCH];
    lanes.copy_from_slice(acc.as_flattened());
    for j in 0..m {
        let mut blocks = [0u8; 16 * BATCH];
        for (dst, s) in blocks.chunks_exact_mut(16).zip(&src) {
            dst.copy_from_slice(&s[j]);
        }
        for (a, w) in lanes.iter_mut().zip(blocks.chunks_exact(4)) {
            *a = round(*a, le32(w));
        }
    }
    acc.as_flattened_mut().copy_from_slice(&lanes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The batched digest of every kernel instance this CPU can run — the
    /// portable body always, the AVX2 and AVX-512 instances where the CPU
    /// has them — named for failure messages.
    fn every_kernel(seeds: &[u32], data: &[&[u8]]) -> Vec<(&'static str, [u32; BATCH])> {
        let mut out = vec![
            ("dispatched", checksum32_batch(seeds, data)),
            ("portable", batch(seeds, data)),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was detected just above.
                out.push(("avx2", unsafe { x86::batch_avx2(seeds, data) }));
            }
            if batch_kernel() == "avx512" {
                // SAFETY: `batch_kernel` detected AVX-512 F and VL.
                out.push(("avx512", unsafe { x86::batch_avx512(seeds, data) }));
            }
        }
        out
    }

    /// Every kernel's lane `k` equals `checksum32(seeds[k], data[k])`, and
    /// lanes past the inputs read 0.
    fn assert_batch_matches(seeds: &[u32], data: &[&[u8]]) {
        for (kernel, got) in every_kernel(seeds, data) {
            for (k, &digest) in got.iter().enumerate() {
                let want = data.get(k).map_or(0, |d| checksum32(seeds[k], d));
                let lens: Vec<usize> = data.iter().map(|d| d.len()).collect();
                assert_eq!(digest, want, "{kernel}: lane {k} of lengths {lens:?}");
            }
        }
    }

    fn bytes(n: usize, salt: u32) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) ^ salt.wrapping_mul(0x85EB_CA77)) as u8)
            .collect()
    }

    #[test]
    fn batch_matches_scalar_for_every_short_length_in_every_lane() {
        let buf = bytes(20_000, 1);
        // Seeds past BATCH, and seeds that wrap.
        for first in [1000u32, u32::MAX - 3] {
            let seeds: Vec<u32> = (0..BATCH as u32).map(|k| first.wrapping_add(k)).collect();
            for n in 1..=BATCH {
                for lane in 0..n {
                    for len in 0..=80 {
                        let data: Vec<&[u8]> = (0..n)
                            .map(|k| {
                                let other = (37 * k + 11 * n) % 97;
                                &buf[k * 100..][..if k == lane { len } else { other }]
                            })
                            .collect();
                        assert_batch_matches(&seeds[..n], &data);
                    }
                }
            }
        }
    }

    #[test]
    fn batch_matches_scalar_at_chunk_lengths() {
        let buf = bytes(8 * 16_400, 2);
        let at = |k: usize, len: usize| &buf[k * 16_400..][..len];
        let seeds: Vec<u32> = (9..9 + BATCH as u32).collect();
        // Raw chunks (16 KiB) next to compressed ones, lengths one byte
        // either side, empty and sub-round payloads, every group size.
        let mixes: [&[usize]; 5] = [
            &[16_383, 16_384, 16_385, 4_100, 0, 15, 5_003, 16_384],
            &[16_384; BATCH],
            &[4_000, 16_384, 4_001, 4_002, 4_003, 4_004, 4_005, 4_006],
            &[16_385, 16_383, 16_384],
            &[3, 16_384, 17],
        ];
        for lens in mixes {
            for n in 1..=lens.len() {
                let data: Vec<&[u8]> = lens[..n]
                    .iter()
                    .enumerate()
                    .map(|(k, &l)| at(k, l))
                    .collect();
                assert_batch_matches(&seeds[..n], &data);
            }
        }
    }

    #[test]
    fn batch_rejects_more_than_batch_inputs() {
        let data = [&b"x"[..]; BATCH + 1];
        let seeds = [0u32; BATCH + 1];
        let r = std::panic::catch_unwind(|| checksum32_batch(&seeds, &data));
        assert!(r.is_err());
    }

    proptest! {
        #[test]
        fn batch_matches_scalar_on_random_payloads(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..700), 0..BATCH + 1),
            first in any::<u32>(),
        ) {
            let seeds: Vec<u32> = (0..payloads.len() as u32).map(|k| first.wrapping_add(k)).collect();
            let data: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            assert_batch_matches(&seeds, &data);
        }
    }
}
