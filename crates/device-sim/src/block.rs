//! Block-level collectives: block-wide scans built from warp scans.
//!
//! The paper minimizes "the size of the relatively expensive prefix sums by
//! allocating multiple values to each thread and computing a thread-local
//! result before invoking the block-wide prefix sum" (§III-E). This module
//! reproduces that structure: values are grouped per thread, each thread
//! reduces locally, warps scan the per-thread sums with shuffle steps, warp
//! aggregates land in "shared memory", warp 0 scans the aggregates, and the
//! offsets are propagated back down.

use crate::warp::{self, WARP_SIZE};

/// Block-wide *exclusive* scan over `vals` with wrapping u64 addition,
/// structured exactly like a CUDA hierarchical scan: per-thread serial
/// chunks (`vals_per_thread`), warp shuffle scans, and a shared-memory
/// warp-aggregate pass. Returns the total.
///
/// The result is identical to a sequential exclusive scan (wrapping add is
/// associative); the point of this function is structural fidelity to the
/// device algorithm, which the tests pin down.
pub fn exclusive_scan_wrapping_u64(vals: &mut [u64], vals_per_thread: usize) -> u64 {
    assert!(vals_per_thread > 0);
    let n = vals.len();
    if n == 0 {
        return 0;
    }
    let num_threads = n.div_ceil(vals_per_thread);
    let num_warps = num_threads.div_ceil(WARP_SIZE);

    // Phase 1: each thread serially reduces its local slice.
    let mut thread_sums = vec![0u64; num_warps * WARP_SIZE];
    for (t, sum) in thread_sums.iter_mut().enumerate().take(num_threads) {
        let lo = t * vals_per_thread;
        let hi = (lo + vals_per_thread).min(n);
        let mut acc = 0u64;
        for v in &vals[lo..hi] {
            acc = acc.wrapping_add(*v);
        }
        *sum = acc;
    }

    // Phase 2: warp-level inclusive scans of the per-thread sums.
    let mut warp_aggregates = vec![0u64; num_warps]; // "shared memory"
    for w in 0..num_warps {
        let lane_vals: [u64; WARP_SIZE] = thread_sums[w * WARP_SIZE..(w + 1) * WARP_SIZE]
            .try_into()
            .unwrap();
        let scanned = warp::inclusive_scan_wrapping_u64(&lane_vals);
        warp_aggregates[w] = scanned[WARP_SIZE - 1];
        thread_sums[w * WARP_SIZE..(w + 1) * WARP_SIZE].copy_from_slice(&scanned);
    }

    // Phase 3: warp 0 scans the aggregates (blocks have <= 32 warps on real
    // hardware; the simulation permits more by scanning serially, which is
    // what a multi-pass kernel would do).
    let mut warp_offsets = vec![0u64; num_warps];
    let mut acc = 0u64;
    for w in 0..num_warps {
        warp_offsets[w] = acc;
        acc = acc.wrapping_add(warp_aggregates[w]);
    }
    let total = acc;

    // Phase 4: convert to exclusive per-thread offsets and write back
    // through each thread's local slice.
    for (t, &inclusive) in thread_sums.iter().enumerate().take(num_threads) {
        let w = t / WARP_SIZE;
        let lo = t * vals_per_thread;
        let hi = (lo + vals_per_thread).min(n);
        let local_sum: u64 = vals[lo..hi].iter().fold(0u64, |a, &v| a.wrapping_add(v));
        let mut running = warp_offsets[w]
            .wrapping_add(inclusive)
            .wrapping_sub(local_sum);
        for v in &mut vals[lo..hi] {
            let x = *v;
            *v = running;
            running = running.wrapping_add(x);
        }
    }
    total
}

/// Block-wide exclusive scan over `u32` values (compaction offsets),
/// delegating to the u64 scan (sizes fit comfortably).
pub fn exclusive_scan_u32(vals: &mut [u32], vals_per_thread: usize) -> u32 {
    let mut wide: Vec<u64> = vals.iter().map(|&v| v as u64).collect();
    let total = exclusive_scan_wrapping_u64(&mut wide, vals_per_thread);
    for (dst, src) in vals.iter_mut().zip(&wide) {
        *dst = *src as u32;
    }
    total as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn reference_exclusive(vals: &[u64]) -> (Vec<u64>, u64) {
        let mut out = Vec::with_capacity(vals.len());
        let mut acc = 0u64;
        for &v in vals {
            out.push(acc);
            acc = acc.wrapping_add(v);
        }
        (out, acc)
    }

    #[test]
    fn matches_reference_full_block() {
        let vals: Vec<u64> = (0..4096).map(|i| (i as u64).wrapping_mul(40503)).collect();
        let (want, want_total) = reference_exclusive(&vals);
        let mut got = vals.clone();
        let total = exclusive_scan_wrapping_u64(&mut got, 8);
        assert_eq!(got, want);
        assert_eq!(total, want_total);
    }

    #[test]
    fn singleton_and_empty() {
        let mut v: Vec<u64> = vec![];
        assert_eq!(exclusive_scan_wrapping_u64(&mut v, 4), 0);
        let mut v = vec![42u64];
        assert_eq!(exclusive_scan_wrapping_u64(&mut v, 4), 42);
        assert_eq!(v, vec![0]);
    }

    proptest! {
        #[test]
        fn matches_reference_prop(vals: Vec<u64>, vpt in 1usize..9) {
            let (want, want_total) = reference_exclusive(&vals);
            let mut got = vals.clone();
            let total = exclusive_scan_wrapping_u64(&mut got, vpt);
            prop_assert_eq!(got, want);
            prop_assert_eq!(total, want_total);
        }

        #[test]
        fn u32_wrapper(vals in prop::collection::vec(0u32..1_000_000, 0..200)) {
            let mut got = vals.clone();
            let total = exclusive_scan_u32(&mut got, 3);
            let mut acc = 0u32;
            for (i, &v) in vals.iter().enumerate() {
                prop_assert_eq!(got[i], acc);
                acc += v;
            }
            prop_assert_eq!(total, acc);
        }
    }
}
