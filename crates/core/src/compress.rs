//! Top-level compression and decompression entry points.
//!
//! The serial and parallel paths (and the simulated-GPU path in
//! `pfpl-device-sim`) produce **bit-for-bit identical** archives: chunking
//! makes the work units independent, and every arithmetic operation in the
//! pipeline is IEEE-exact, so only scheduling differs.
//!
//! Archive assembly is single-pass at every thread count. At one thread
//! (`Mode::Serial`, or `Mode::Parallel` on a one-thread pool) compression
//! reserves the header and size table up front, streams chunk payloads
//! directly into the archive, and backpatches the table. On more threads
//! it gives each worker a disjoint slot in a pre-allocated slab and
//! compacts the slots with one exclusive-prefix-sum pass. Neither path
//! allocates or copies per-chunk intermediates.
//!
//! Every per-chunk decision — codec, verify-and-decode step, tables —
//! comes from the chunk engine ([`crate::engine`]), whose codec runs the
//! fused four-stage tile kernel (§III-E) on every full chunk in both
//! directions; only the final partial chunk can take the staged fallback.

use crate::chunk::{self, Scratch, CHUNK_BYTES};
use crate::container::V2_HEADER_LEN;
use crate::engine::{
    compress_stats, groups, map_groups, patch_archive, start_archive, ArchiveReader, ChunkDecoder,
    ChunkEntry, GROUP,
};
use crate::error::Result;
use crate::float::{PfplFloat, Word};
use crate::stats::CompressStats;
use crate::types::{ErrorBound, Mode};
use std::array::from_fn;
use std::ops::Range;

/// Compress a slice of values under the given error bound.
///
/// See [`ErrorBound`] for the three bound types and [`Mode`] for the
/// execution policy. The returned archive decompresses on any PFPL
/// implementation (serial, parallel, simulated GPU) to identical bytes.
pub fn compress<F: PfplFloat>(data: &[F], bound: ErrorBound, mode: Mode) -> Result<Vec<u8>> {
    compress_with_stats(data, bound, mode).map(|(a, _)| a)
}

/// [`compress`] plus per-run statistics (lossless-fallback counts, raw
/// chunks, sizes).
pub fn compress_with_stats<F: PfplFloat>(
    data: &[F],
    bound: ErrorBound,
    mode: Mode,
) -> Result<(Vec<u8>, CompressStats)> {
    let codec = ChunkDecoder::from_bound(bound, data, mode)?;
    let header = codec.header(bound, data.len() as u64)?;
    let vpc = chunk::values_per_chunk::<F>();
    let nchunks = header.chunk_count as usize;

    let threads = mode.threads();
    let (archive, entries) = if threads == 1 {
        // Single-pass assembly: reserve header, tables and the raw size
        // (no chunk payload exceeds its raw size, so the Vec never
        // reallocates), stream each chunk's payload straight into the
        // archive, digest each group's payloads together as soon as the
        // group is written, then backpatch the tables and trim the
        // reservation to the archive's length. One scratch set is reused
        // for every chunk, mirroring the paper's L1-resident double
        // buffer — no per-chunk buffer, no second copy, no per-chunk
        // allocation.
        let raw_total = data.len() * (F::Bits::BITS as usize / 8);
        let mut archive = Vec::with_capacity(V2_HEADER_LEN + 8 * nchunks + raw_total);
        header.write_placeholder(&mut archive);
        let mut entries = Vec::with_capacity(nchunks);
        let mut scratch = Scratch::default();
        for (group, values) in groups(nchunks).zip(data.chunks(GROUP * vpc)) {
            let start = archive.len();
            for c in values.chunks(vpc) {
                let at = archive.len();
                let info = codec.compress_chunk(c, &mut scratch, &mut archive);
                entries.push(ChunkEntry::unsigned(archive.len() - at, info));
            }
            let signed = &mut entries[group.clone()];
            let mut rest = &archive[start..];
            let payloads: [&[u8]; GROUP] = from_fn(|k| {
                let (p, tail) = rest.split_at(signed.get(k).map_or(0, ChunkEntry::payload_len));
                rest = tail;
                p
            });
            ChunkEntry::sign_group(group.start, signed, &payloads[..group.len()]);
        }
        patch_archive(&mut archive, &entries);
        archive.shrink_to_fit();
        (archive, entries)
    } else {
        // Slab assembly: one CHUNK_BYTES slot per chunk (payloads never
        // exceed the raw size). Workers compress a group of chunks into
        // disjoint slots and digest the group's payloads together while
        // they are hot in cache; a sequential pass then compacts the
        // slots into the final archive.
        let mut slab = vec![0u8; nchunks * CHUNK_BYTES];
        let work = |scratch: &mut Scratch<F>, group: Range<usize>, slots: &mut [u8]| {
            let mut entries = [ChunkEntry::default(); GROUP];
            let mut payloads: [&[u8]; GROUP] = [&[]; GROUP];
            let chunks = group.clone().zip(slots.chunks_mut(CHUNK_BYTES));
            for ((e, p), (i, slot)) in entries.iter_mut().zip(&mut payloads).zip(chunks) {
                let lo = i * vpc;
                let hi = data.len().min(lo + vpc);
                let (len, info) = codec.compress_chunk_into(&data[lo..hi], scratch, slot);
                *e = ChunkEntry::unsigned(len, info);
                *p = &slot[..len];
            }
            let n = group.len();
            ChunkEntry::sign_group(group.start, &mut entries[..n], &payloads[..n]);
            entries
        };
        // Every group but the last is full, so the first `nchunks`
        // entries of the flattened groups are the archive's.
        let groups = map_groups(&mut slab, threads, work);
        let entries: Vec<ChunkEntry> = groups.into_iter().flatten().take(nchunks).collect();
        let mut archive = start_archive(&header, &entries);
        for (slot, e) in slab.chunks_exact(CHUNK_BYTES).zip(&entries) {
            archive.extend_from_slice(&slot[..e.payload_len()]);
        }
        (archive, entries)
    };
    let stats = compress_stats(&header, &entries, archive.len());
    Ok((archive, stats))
}

/// Decompress an archive produced by [`compress`] (any implementation).
///
/// On v2 archives every chunk's stored checksum is verified against its
/// payload bytes *before* the chunk is decoded, so storage or transport
/// corruption surfaces as [`Error::ChecksumMismatch`] naming the damaged
/// chunk — not as a structural error in whatever stage the damaged bits
/// happened to confuse. v1 archives carry no checksums; for them this is
/// identical to [`decompress_unverified`].
///
/// [`Error::ChecksumMismatch`]: crate::Error::ChecksumMismatch
pub fn decompress<F: PfplFloat>(archive: &[u8], mode: Mode) -> Result<Vec<F>> {
    run_decompress(archive, mode, true)
}

/// [`decompress`] without per-chunk checksum verification.
///
/// For archives already protected end-to-end by the storage layer (or for
/// measuring the checksum tax — see `profile_stages`). Decoding is still
/// total over arbitrary bytes; what is lost is only the guarantee that a
/// structural error names the chunk whose bytes were actually damaged.
pub fn decompress_unverified<F: PfplFloat>(archive: &[u8], mode: Mode) -> Result<Vec<F>> {
    run_decompress(archive, mode, false)
}

fn run_decompress<F: PfplFloat>(archive: &[u8], mode: Mode, verify: bool) -> Result<Vec<F>> {
    let reader = ArchiveReader::<F>::open(archive)?;
    let offsets = reader.offsets()?;
    let vpc = chunk::values_per_chunk::<F>();
    let mut out = vec![F::ZERO; reader.count()];
    let work = |scratch: &mut Scratch<F>, group: Range<usize>, vals: &mut [F]| {
        let first = group.start;
        reader.decode_group(first, &offsets[first..=group.end], verify, |i, p, raw| {
            let lo = (i - first) * vpc;
            let vals = &mut vals[lo..lo + reader.chunk_values(i)];
            reader.codec.decode_chunk(p, raw, vals, scratch)
        })
    };
    map_groups(&mut out, mode.threads(), work)
        .into_iter()
        .collect::<Result<()>>()?;
    Ok(out)
}

/// Compress single-precision data. See [`compress`].
pub fn compress_f32(data: &[f32], bound: ErrorBound, mode: Mode) -> Result<Vec<u8>> {
    compress(data, bound, mode)
}

/// Compress double-precision data. See [`compress`].
pub fn compress_f64(data: &[f64], bound: ErrorBound, mode: Mode) -> Result<Vec<u8>> {
    compress(data, bound, mode)
}

/// Decompress single-precision data. See [`decompress`].
pub fn decompress_f32(archive: &[u8], mode: Mode) -> Result<Vec<f32>> {
    decompress(archive, mode)
}

/// Decompress double-precision data. See [`decompress`].
pub fn decompress_f64(archive: &[u8], mode: Mode) -> Result<Vec<f64>> {
    decompress(archive, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    fn smooth_f32(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.0021).sin() * 40.0 + (i as f32 * 0.00013).cos() * 7.0)
            .collect()
    }

    #[test]
    fn abs_roundtrip_within_bound() {
        let data = smooth_f32(100_000);
        for &eb in &[1e-1f64, 1e-2, 1e-3, 1e-4] {
            let arch = compress(&data, ErrorBound::Abs(eb), Mode::Serial).unwrap();
            let back: Vec<f32> = decompress(&arch, Mode::Serial).unwrap();
            assert_eq!(back.len(), data.len());
            for (a, b) in data.iter().zip(&back) {
                assert!((*a as f64 - *b as f64).abs() <= eb);
            }
            assert!(arch.len() < data.len() * 4, "must compress at eb={eb}");
        }
    }

    #[test]
    fn serial_parallel_identical() {
        let data = smooth_f32(300_000);
        for bound in [
            ErrorBound::Abs(1e-3),
            ErrorBound::Rel(1e-3),
            ErrorBound::Noa(1e-3),
        ] {
            let a = compress(&data, bound, Mode::Serial).unwrap();
            let b = compress(&data, bound, Mode::Parallel).unwrap();
            assert_eq!(a, b, "modes must agree for {bound:?}");
            let da: Vec<f32> = decompress(&a, Mode::Serial).unwrap();
            let db: Vec<f32> = decompress(&b, Mode::Parallel).unwrap();
            assert_eq!(
                da.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                db.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn rel_roundtrip_within_bound() {
        let data: Vec<f64> = (0..50_000)
            .map(|i| ((i as f64 * 0.001).sin() + 1.5) * 10f64.powi((i % 7) - 3))
            .collect();
        let eb = 1e-3;
        let arch = compress(&data, ErrorBound::Rel(eb), Mode::Parallel).unwrap();
        let back: Vec<f64> = decompress(&arch, Mode::Parallel).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!(((a - b) / a).abs() <= eb, "a={a} b={b}");
        }
    }

    #[test]
    fn noa_roundtrip_within_bound() {
        let data = smooth_f32(80_000);
        let (lo, hi) = data
            .iter()
            .fold((f32::MAX, f32::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let range = (hi - lo) as f64;
        let eb = 1e-3;
        let arch = compress(&data, ErrorBound::Noa(eb), Mode::Serial).unwrap();
        let back: Vec<f32> = decompress(&arch, Mode::Serial).unwrap();
        for (a, b) in data.iter().zip(&back) {
            assert!((*a as f64 - *b as f64).abs() <= eb * range * (1.0 + 1e-6));
        }
    }

    #[test]
    fn noa_constant_input_passthrough() {
        let data = vec![42.5f32; 10_000];
        let arch = compress(&data, ErrorBound::Noa(1e-2), Mode::Serial).unwrap();
        let back: Vec<f32> = decompress(&arch, Mode::Serial).unwrap();
        assert!(back.iter().all(|&v| v == 42.5));
        // Constant data compresses extremely well even in passthrough.
        assert!(arch.len() < data.len(), "archive {} bytes", arch.len());
    }

    #[test]
    fn empty_input() {
        let arch = compress::<f32>(&[], ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        let back: Vec<f32> = decompress(&arch, Mode::Parallel).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn precision_mismatch_detected() {
        let arch = compress(&[1.0f32, 2.0], ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        assert!(matches!(
            decompress::<f64>(&arch, Mode::Serial),
            Err(Error::PrecisionMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_archives_rejected_not_panicking() {
        let data = smooth_f32(10_000);
        let arch = compress(&data, ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        // Truncations at various points must error, never panic.
        for cut in [0, 10, 35, 36, 40, arch.len() / 2, arch.len() - 1] {
            let _ = decompress::<f32>(&arch[..cut], Mode::Serial);
        }
        // Flip bytes in the size table region (v2 tables start at 40).
        let mut bad = arch.clone();
        bad[41] ^= 0xFF;
        let _ = decompress::<f32>(&bad, Mode::Serial);
    }

    #[test]
    fn stats_are_consistent() {
        let mut data = smooth_f32(50_000);
        data[123] = f32::NAN;
        data[456] = f32::INFINITY;
        let (arch, stats) =
            compress_with_stats(&data, ErrorBound::Abs(1e-3), Mode::Parallel).unwrap();
        assert_eq!(stats.total_values, 50_000);
        assert!(stats.lossless_values >= 2);
        assert_eq!(stats.output_bytes as usize, arch.len());
        assert_eq!(stats.input_bytes, 200_000);
        assert!(stats.ratio() > 1.0);
    }

    #[test]
    fn special_values_survive() {
        let mut data = smooth_f32(5_000);
        data[0] = f32::NAN;
        data[1] = f32::NEG_INFINITY;
        data[2] = f32::INFINITY;
        data[3] = -0.0;
        data[4] = f32::from_bits(0x0000_0001); // denormal
        let arch = compress(&data, ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        let back: Vec<f32> = decompress(&arch, Mode::Serial).unwrap();
        assert!(back[0].is_nan());
        assert_eq!(back[1], f32::NEG_INFINITY);
        assert_eq!(back[2], f32::INFINITY);
        assert!((back[3]).abs() <= 1e-3);
        assert!((back[4] as f64 - data[4] as f64).abs() <= 1e-3);
    }

    #[test]
    fn f64_all_bounds_roundtrip() {
        let data: Vec<f64> = (0..30_000)
            .map(|i| (i as f64 * 0.01).cos() * 100.0)
            .collect();
        for bound in [
            ErrorBound::Abs(1e-6),
            ErrorBound::Rel(1e-6),
            ErrorBound::Noa(1e-6),
        ] {
            let arch = compress(&data, bound, Mode::Parallel).unwrap();
            let back: Vec<f64> = decompress(&arch, Mode::Parallel).unwrap();
            assert_eq!(back.len(), data.len());
            match bound {
                ErrorBound::Abs(eb) => {
                    for (a, b) in data.iter().zip(&back) {
                        assert!((a - b).abs() <= eb);
                    }
                }
                ErrorBound::Rel(eb) => {
                    for (a, b) in data.iter().zip(&back) {
                        assert!(((a - b) / a).abs() <= eb || a == b);
                    }
                }
                ErrorBound::Noa(eb) => {
                    let span = 200.0; // cos * 100 → range 200
                    for (a, b) in data.iter().zip(&back) {
                        assert!((a - b).abs() <= eb * span * 1.01);
                    }
                }
            }
        }
    }

    #[test]
    fn invalid_bounds_error() {
        let data = [1.0f32];
        for b in [
            ErrorBound::Abs(0.0),
            ErrorBound::Abs(-1.0),
            ErrorBound::Abs(f64::NAN),
            ErrorBound::Abs(f64::INFINITY),
            ErrorBound::Rel(0.0),
            ErrorBound::Noa(-0.5),
        ] {
            assert!(compress(&data, b, Mode::Serial).is_err(), "{b:?}");
        }
    }

    #[test]
    fn archives_are_right_sized() {
        // The serial path reserves the raw size up front; the archive it
        // returns must not carry that reservation to the caller.
        let data = smooth_f32(300_000);
        for mode in [Mode::Serial, Mode::Parallel] {
            let arch = compress(&data, ErrorBound::Rel(1e-3), mode).unwrap();
            assert!(
                arch.capacity() - arch.len() < CHUNK_BYTES,
                "{mode:?}: capacity {} for {} bytes",
                arch.capacity(),
                arch.len()
            );
        }
    }
}
