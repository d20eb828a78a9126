//! Regression tests for the single-pass archive assembly paths: the
//! serial backpatch assembler, the parallel slab assembler, the streaming
//! encoder, and the simulated-GPU lookback assembler must all emit
//! byte-identical archives for the same input and bound.

use pfpl::stream::StreamCompressor;
use pfpl::types::{ErrorBound, Mode};
use pfpl_device_sim::{configs, GpuDevice};
use proptest::prelude::*;

/// Every stored digest must match a recomputation from the bytes actually
/// present: the serial writer backpatches the checksum table through
/// `write_placeholder` + `patch_tables`, the slab and lookback assemblers
/// write it up front — all of them must land every word in the right slot.
fn assert_checksums_self_consistent(archive: &[u8]) {
    use pfpl::checksum::{checksum32, HEADER_SEED};
    use pfpl::container::{chunk_offsets, payload_checksum, Toc, HEADER_LEN};
    let toc = Toc::read(archive).unwrap();
    assert_eq!(toc.version, 2, "writers must emit format v2");
    let stored = u32::from_le_bytes(archive[HEADER_LEN..HEADER_LEN + 4].try_into().unwrap());
    assert_eq!(
        checksum32(HEADER_SEED, &archive[..HEADER_LEN]),
        stored,
        "header checksum does not cover the written fixed fields"
    );
    let payload = &archive[toc.payload_start..];
    let offsets = chunk_offsets(&toc.sizes, payload.len(), toc.payload_start).unwrap();
    for i in 0..toc.sizes.len() {
        assert_eq!(
            toc.checksums[i],
            payload_checksum(i, &payload[offsets[i]..offsets[i + 1]]),
            "chunk {i} checksum was not backpatched correctly"
        );
    }
}

/// Compress `data` on every implementation and assert the archives are
/// byte-identical. Returns the archive. The streaming path is skipped for
/// NOA (unstreamable by design: needs the global range up front).
fn assert_all_paths_identical(data: &[f32], bound: ErrorBound) -> Vec<u8> {
    let serial = pfpl::compress(data, bound, Mode::Serial).unwrap();
    assert_checksums_self_consistent(&serial);
    let parallel = pfpl::compress(data, bound, Mode::Parallel).unwrap();
    assert_eq!(serial, parallel, "serial vs parallel ({bound:?})");

    let gpu = GpuDevice::new(configs::RTX_4090)
        .compress(data, bound)
        .unwrap();
    assert_eq!(serial, gpu, "serial vs device-sim ({bound:?})");

    if !matches!(bound, ErrorBound::Noa(_)) {
        let mut enc = StreamCompressor::<f32>::new(bound).unwrap();
        // Push in uneven slices so chunk boundaries fall mid-push, at
        // pushes, and across the direct (chunk-aligned) fast path.
        let mut i = 0usize;
        let mut step = 7usize;
        while i < data.len() {
            let hi = (i + step).min(data.len());
            enc.push(&data[i..hi]);
            i = hi;
            step = step * 5 % 9_001 + 1;
        }
        let (streamed, _) = enc.finish();
        assert_eq!(serial, streamed, "serial vs streamed ({bound:?})");
    }
    serial
}

#[test]
fn known_shapes_identical_across_paths() {
    let vpc = 16 * 1024 / 4; // f32 values per chunk
    let smooth = |n: usize| -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.002).sin() * 40.0).collect()
    };
    let noise = |n: usize| -> Vec<f32> {
        let mut x = 0xC0FFEEu64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f32::from_bits((x as u32 % 0x7F00_0000).max(1 << 23))
            })
            .collect()
    };
    let cases: Vec<Vec<f32>> = vec![
        vec![],              // no chunks
        smooth(1),           // single-value chunk
        smooth(vpc),         // exactly one chunk
        smooth(vpc + 1),     // one full chunk + 1-value tail
        smooth(10 * vpc),    // many full chunks
        // Tails of whole transpose groups that are not whole tiles: the
        // CPU shuffle runs its scalar path, device-sim its warp transpose.
        smooth(vpc + 32),
        smooth(vpc + 544),
        smooth(2 * vpc - 32),
        noise(3 * vpc + 17), // raw chunks exercise the fallback path
        {
            let mut mixed = smooth(4 * vpc);
            mixed[5] = f32::NAN;
            mixed[vpc + 3] = f32::INFINITY;
            mixed
        },
    ];
    for data in &cases {
        for bound in [
            ErrorBound::Abs(1e-3),
            ErrorBound::Rel(1e-3),
            ErrorBound::Noa(1e-4),
        ] {
            let arch = assert_all_paths_identical(data, bound);
            let back: Vec<f32> = pfpl::decompress(&arch, Mode::Parallel).unwrap();
            assert_eq!(back.len(), data.len());
        }
    }
}

/// Byte-identity must also be invariant in the **pool size**: the parallel
/// slab assembler gives every chunk a fixed-offset slot, so how chunks are
/// distributed over workers (including the 1-thread inline path) cannot
/// show through in the archive. Requests above the host's core count are
/// clamped by the pool (`current_num_threads`), so on a 1-core host the
/// 2/4/8 sweep points all resolve to one worker — the raw multi-thread
/// scheduling paths are exercised by the pool's own `broadcast` tests.
/// Also exercises persistent-pool reuse across differently-sized jobs.
#[test]
fn archives_identical_across_pool_sizes() {
    let vpc = 16 * 1024 / 4;
    let mut data: Vec<f32> = (0..7 * vpc + 123)
        .map(|i| (i as f32 * 0.0017).sin() * 33.0)
        .collect();
    data[2 * vpc + 9] = f32::NAN; // force one lossless word mid-archive
    for bound in [ErrorBound::Abs(1e-3), ErrorBound::Rel(1e-4)] {
        let reference = pfpl::compress(&data, bound, Mode::Serial).unwrap();
        for threads in [1usize, 2, 4, 8] {
            rayon::set_num_threads(threads);
            let arch = pfpl::compress(&data, bound, Mode::Parallel).unwrap();
            assert_eq!(
                reference, arch,
                "parallel archive diverged at {threads} pool threads ({bound:?})"
            );
            // The slab assembler digests each chunk cache-hot inside the
            // worker that compressed it; the table must still be correct
            // however chunks were distributed.
            assert_checksums_self_consistent(&arch);
            let back: Vec<f32> = pfpl::decompress(&arch, Mode::Parallel).unwrap();
            assert_eq!(back.len(), data.len());
        }
    }
    // Restore the default pool size for the rest of this test binary.
    rayon::set_num_threads(0);
}

#[test]
fn f64_paths_identical() {
    let data: Vec<f64> = (0..30_000).map(|i| (i as f64 * 0.001).cos() * 7.0).collect();
    for bound in [ErrorBound::Abs(1e-8), ErrorBound::Rel(1e-6)] {
        let serial = pfpl::compress(&data, bound, Mode::Serial).unwrap();
        assert_checksums_self_consistent(&serial);
        let parallel = pfpl::compress(&data, bound, Mode::Parallel).unwrap();
        assert_eq!(serial, parallel);
        let gpu = GpuDevice::new(configs::RTX_4090)
            .compress(&data, bound)
            .unwrap();
        assert_eq!(serial, gpu);
        let mut enc = StreamCompressor::<f64>::new(bound).unwrap();
        enc.push(&data);
        assert_eq!(serial, enc.finish().0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary finite data, arbitrary bound kind and magnitude: all four
    /// assembly paths agree byte-for-byte.
    #[test]
    fn arbitrary_inputs_identical_across_paths(
        data in prop::collection::vec(-1e5f32..1e5, 0..25_000),
        eb_exp in -6i32..1,
        kind in 0u8..3,
    ) {
        let eb = 10f64.powi(eb_exp);
        let bound = match kind {
            0 => ErrorBound::Abs(eb),
            1 => ErrorBound::Rel(eb),
            _ => ErrorBound::Noa(eb),
        };
        assert_all_paths_identical(&data, bound);
    }

    /// Arbitrary bit patterns (NaN/Inf/denormals) — the lossless-fallback
    /// and raw-chunk paths must also assemble identically everywhere.
    #[test]
    fn arbitrary_bits_identical_across_paths(
        bits in prop::collection::vec(any::<u32>(), 0..12_000),
        eb_exp in -7i32..-2,
    ) {
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        assert_all_paths_identical(&data, ErrorBound::Abs(10f64.powi(eb_exp)));
        assert_all_paths_identical(&data, ErrorBound::Rel(10f64.powi(eb_exp)));
    }
}
