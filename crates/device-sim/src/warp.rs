//! Warp-level collectives: 32 SIMT lanes transformed as a unit.
//!
//! A warp is modeled as a `[T; 32]` array — lane `l`'s register is element
//! `l`. The collectives mirror the CUDA intrinsics the paper's kernels use
//! (`__shfl_up_sync`, `__shfl_xor_sync`) plus the warp-granularity bit-matrix transpose that implements the bit
//! shuffle stage "using warp shuffle instructions that exchange data
//! without accessing memory" (§III-E).

/// Number of lanes in a warp, as on every CUDA-capable GPU.
pub const WARP_SIZE: usize = 32;

/// `__shfl_up_sync`: lane `l` receives the value of lane `l - delta`;
/// lanes below `delta` keep their own value (CUDA semantics).
pub fn shfl_up<T: Copy>(vals: &[T; WARP_SIZE], delta: usize) -> [T; WARP_SIZE] {
    let mut out = *vals;
    out[delta..].copy_from_slice(&vals[..WARP_SIZE - delta]);
    out
}

/// `__shfl_xor_sync`: lane `l` receives the value of lane `l ^ mask`.
pub fn shfl_xor<T: Copy>(vals: &[T; WARP_SIZE], mask: usize) -> [T; WARP_SIZE] {
    let mut out = *vals;
    for l in 0..WARP_SIZE {
        out[l] = vals[l ^ mask];
    }
    out
}

/// Warp-wide inclusive scan with a wrapping-add combiner, implemented with
/// the classic `log2(32)` shuffle-up steps (Kogge–Stone), exactly as a
/// CUDA warp scan is written.
pub fn inclusive_scan_wrapping_u64(vals: &[u64; WARP_SIZE]) -> [u64; WARP_SIZE] {
    let mut acc = *vals;
    let mut d = 1;
    while d < WARP_SIZE {
        let shifted = shfl_up(&acc, d);
        for l in 0..WARP_SIZE {
            if l >= d {
                acc[l] = acc[l].wrapping_add(shifted[l]);
            }
        }
        d <<= 1;
    }
    acc
}

/// Warp-granularity bit-matrix transpose via `log2(32)` butterfly
/// (`shfl_xor`) exchanges — the paper's bit-shuffle inner loop.
///
/// After the call, lane `j` holds the word whose bit `i` is the old lane
/// `i`'s bit `j` (the same orientation as
/// `pfpl::lossless::shuffle::Transpose`).
pub fn transpose32(vals: &mut [u32; WARP_SIZE]) {
    for &s in &[16u32, 8, 4, 2, 1] {
        // Mask with ones at bit positions c where c & s == 0.
        let mut m = 0u32;
        for c in 0..32 {
            if c & s == 0 {
                m |= 1 << c;
            }
        }
        let partner = shfl_xor(vals, s as usize);
        for l in 0..WARP_SIZE {
            vals[l] = if l as u32 & s == 0 {
                (vals[l] & m) | ((partner[l] & m) << s)
            } else {
                (vals[l] & !m) | ((partner[l] >> s) & m)
            };
        }
    }
}

/// 64-bit warp transpose: 64 words held as two registers per lane
/// (`lo[l]` = row `l`, `hi[l]` = row `l + 32`), using one local exchange
/// step (stride 32) plus `log2(32)` butterfly steps on each half —
/// `log2(64)` steps total, matching the paper's `log2(wordsize)`.
pub fn transpose64(lo: &mut [u64; WARP_SIZE], hi: &mut [u64; WARP_SIZE]) {
    // Stride-32 step: rows l and l+32 live in the same lane, so the
    // masked swap is register-local (no shuffle needed).
    const M32: u64 = 0x0000_0000_FFFF_FFFF;
    for l in 0..WARP_SIZE {
        let t = ((lo[l] >> 32) ^ hi[l]) & M32;
        lo[l] ^= t << 32;
        hi[l] ^= t;
    }
    // Remaining strides act within each 32-row half independently.
    for &s in &[16u32, 8, 4, 2, 1] {
        let mut m = 0u64;
        for c in 0..64 {
            if c & s as usize == 0 {
                m |= 1 << c;
            }
        }
        for half in [&mut *lo, &mut *hi] {
            let partner = shfl_xor(half, s as usize);
            for l in 0..WARP_SIZE {
                half[l] = if l as u32 & s == 0 {
                    (half[l] & m) | ((partner[l] & m) << s)
                } else {
                    (half[l] & !m) | ((partner[l] >> s) & m)
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfpl::lossless::shuffle::Transpose;

    #[test]
    fn shuffle_semantics() {
        let vals: [u32; 32] = std::array::from_fn(|l| l as u32 * 10);
        let up = shfl_up(&vals, 1);
        assert_eq!(up[0], 0);
        assert_eq!(up[5], 40);
        let x = shfl_xor(&vals, 1);
        assert_eq!(x[0], 10);
        assert_eq!(x[1], 0);
    }

    #[test]
    fn warp_scan_matches_sequential() {
        let vals: [u64; 32] = std::array::from_fn(|l| (l as u64).wrapping_mul(0x9E3779B9));
        let scanned = inclusive_scan_wrapping_u64(&vals);
        let mut acc = 0u64;
        for l in 0..32 {
            acc = acc.wrapping_add(vals[l]);
            assert_eq!(scanned[l], acc, "lane {l}");
        }
    }

    #[test]
    fn warp_transpose_matches_cpu_transpose() {
        let mut warp: [u32; 32] = std::array::from_fn(|l| 0x9E37_79B9u32.rotate_left(l as u32));
        let mut cpu: Vec<u32> = warp.to_vec();
        transpose32(&mut warp);
        u32::transpose_block(&mut cpu);
        assert_eq!(warp.to_vec(), cpu);
    }

    #[test]
    fn warp_transpose64_matches_cpu_transpose() {
        let rows: Vec<u64> = (0..64)
            .map(|i| 0x9E37_79B9_7F4A_7C15u64.rotate_left(i))
            .collect();
        let mut lo: [u64; 32] = rows[..32].try_into().unwrap();
        let mut hi: [u64; 32] = rows[32..].try_into().unwrap();
        transpose64(&mut lo, &mut hi);
        let mut cpu = rows.clone();
        u64::transpose_block(&mut cpu);
        assert_eq!(&cpu[..32], &lo);
        assert_eq!(&cpu[32..], &hi);
    }

    #[test]
    fn transpose32_involution() {
        let orig: [u32; 32] = std::array::from_fn(|l| (l as u32).wrapping_mul(2654435761));
        let mut w = orig;
        transpose32(&mut w);
        transpose32(&mut w);
        assert_eq!(w, orig);
    }
}
