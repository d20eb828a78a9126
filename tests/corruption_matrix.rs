//! Exhaustive single-fault corruption matrix over small archives.
//!
//! Complements the randomized fuzzer (`pfpl-fuzz`) with *systematic*
//! coverage: every byte position flipped (three XOR masks), every possible
//! truncation length, and targeted size-table perturbations. The decode
//! contract under test: any input either decodes (`Ok` with the
//! header-claimed length) or is rejected with a structured error — it
//! never panics. Truncated archives specifically must always be rejected,
//! because the size-table sum check requires every payload byte to be
//! claimed.

use pfpl::container::{chunk_offsets, Toc, RAW_FLAG};
use pfpl::float::PfplFloat;
use pfpl::types::{ErrorBound, Mode, Precision};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Base archives: single chunk + tail, multi-chunk, raw-fallback chunks,
/// and the passthrough degenerate case — every container shape the format
/// can produce.
fn base_archives() -> Vec<(&'static str, Precision, Vec<u8>)> {
    let smooth_f32: Vec<f32> = (0..600).map(|i| (i as f32 * 0.01).sin()).collect();
    let smooth_f64: Vec<f64> = (0..2500).map(|i| (i as f64 * 0.01).cos() * 5.0).collect();
    let noise_f32: Vec<f32> = (0u64..300)
        .map(|i| {
            let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD6E8_FEB8_6659_FD93;
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            let v = f32::from_bits(x as u32);
            if v.is_finite() {
                v
            } else {
                i as f32
            }
        })
        .collect();
    let constant_f32 = vec![3.25f32; 500];
    vec![
        (
            "f32-abs-tail",
            Precision::Single,
            pfpl::compress(&smooth_f32, ErrorBound::Abs(1e-3), Mode::Serial).unwrap(),
        ),
        (
            "f64-rel-multichunk",
            Precision::Double,
            pfpl::compress(&smooth_f64, ErrorBound::Rel(1e-6), Mode::Serial).unwrap(),
        ),
        (
            "f32-raw-fallback",
            Precision::Single,
            pfpl::compress(&noise_f32, ErrorBound::Rel(1e-9), Mode::Serial).unwrap(),
        ),
        (
            "f32-noa-passthrough",
            Precision::Single,
            pfpl::compress(&constant_f32, ErrorBound::Noa(1e-4), Mode::Serial).unwrap(),
        ),
    ]
}

/// Decode `bytes` at the archive's own precision; panics inside the
/// decoder become test failures tagged with `what`.
fn decode_total(name: &str, precision: Precision, bytes: &[u8], mode: Mode, what: &str) {
    fn go<F: PfplFloat>(name: &str, bytes: &[u8], mode: Mode, what: &str) {
        let result = catch_unwind(AssertUnwindSafe(|| pfpl::decompress::<F>(bytes, mode)));
        match result {
            Err(_) => panic!("{name}: decoder panicked on {what}"),
            Ok(Ok(vals)) => {
                // Ok is only acceptable when the (necessarily parseable)
                // header's count matches what came back.
                let h = Toc::read(bytes)
                    .unwrap_or_else(|e| panic!("{name}: Ok but header unreadable on {what}: {e}"))
                    .header;
                assert_eq!(
                    vals.len() as u64,
                    h.count,
                    "{name}: wrong output length on {what}"
                );
            }
            Ok(Err(_)) => {} // structured rejection is always fine
        }
    }
    match precision {
        Precision::Single => go::<f32>(name, bytes, mode, what),
        Precision::Double => go::<f64>(name, bytes, mode, what),
    }
}

/// Same contract for the streaming path: iterate every chunk to the end,
/// no panic anywhere.
fn stream_total(name: &str, precision: Precision, bytes: &[u8], what: &str) {
    fn go<F: PfplFloat>(name: &str, bytes: &[u8], what: &str) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Ok(iter) = pfpl::decompress_chunks::<F>(bytes) {
                for chunk in iter {
                    let _ = chunk;
                }
            }
        }));
        assert!(result.is_ok(), "{name}: stream panicked on {what}");
    }
    match precision {
        Precision::Single => go::<f32>(name, bytes, what),
        Precision::Double => go::<f64>(name, bytes, what),
    }
}

/// Every byte position × XOR masks {0x01, 0x80, 0xFF}: the low bit, the
/// high bit, and a full inversion at each offset.
#[test]
fn every_single_byte_flip_is_total() {
    for (name, precision, archive) in base_archives() {
        let mut mutant = archive.clone();
        for i in 0..archive.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                mutant[i] ^= mask;
                decode_total(
                    name,
                    precision,
                    &mutant,
                    Mode::Serial,
                    &format!("flip {mask:#04x} at byte {i}"),
                );
                // Keep the parallel path honest on a subsample (full
                // matrix × thread-pool dispatch would dominate runtime).
                if i % 7 == 0 && mask == 0xFF {
                    decode_total(
                        name,
                        precision,
                        &mutant,
                        Mode::Parallel,
                        &format!("flip {mask:#04x} at byte {i} (parallel)"),
                    );
                }
                mutant[i] ^= mask; // restore
            }
        }
        assert_eq!(mutant, archive, "mutation loop failed to restore");
    }
}

/// Every truncation length: strictly shorter archives must be *rejected*
/// (never panic, never Ok) — the size-table sum check claims every byte.
#[test]
fn every_truncation_is_rejected() {
    fn expect_err<F: PfplFloat>(name: &str, bytes: &[u8], cut: usize) {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pfpl::decompress::<F>(bytes, Mode::Serial)
        }));
        match result {
            Err(_) => panic!("{name}: panicked at truncation {cut}"),
            Ok(Ok(_)) => panic!("{name}: accepted a truncated archive (len {cut})"),
            Ok(Err(_)) => {}
        }
    }
    for (name, precision, archive) in base_archives() {
        for cut in 0..archive.len() {
            let t = &archive[..cut];
            match precision {
                Precision::Single => expect_err::<f32>(name, t, cut),
                Precision::Double => expect_err::<f64>(name, t, cut),
            }
            stream_total(name, precision, t, &format!("truncation to {cut}"));
        }
    }
}

/// Targeted size-table perturbations on every entry: zeroed, minimal,
/// near-maximal, RAW flag flipped, off-by-one in both directions.
#[test]
fn size_table_perturbations_are_total() {
    for (name, precision, archive) in base_archives() {
        let toc = Toc::read(&archive).unwrap();
        for (i, &entry) in toc.sizes.iter().enumerate() {
            let forged = [
                0u32,
                1,
                RAW_FLAG - 1,
                RAW_FLAG | (entry & !RAW_FLAG),
                entry ^ RAW_FLAG,
                entry.wrapping_add(1),
                entry.wrapping_sub(1),
                u32::MAX,
            ];
            for f in forged {
                let mut mutant = archive.clone();
                let off = toc.sizes_offset() + i * 4;
                mutant[off..off + 4].copy_from_slice(&f.to_le_bytes());
                let what = format!("size[{i}] = {f:#010x}");
                decode_total(name, precision, &mutant, Mode::Serial, &what);
                stream_total(name, precision, &mutant, &what);
            }
        }
    }
}

/// Every single-byte payload corruption must be *detected* (v2 checksums
/// leave no blind spots in the payload region) and attributed to the
/// chunk the byte physically belongs to — both by the strict decoder's
/// error and by the salvage report, which must keep every other chunk
/// intact and bit-identical.
#[test]
fn every_payload_flip_names_the_damaged_chunk() {
    fn go<F: PfplFloat>(name: &str, archive: &[u8]) {
        let toc = Toc::read(archive).unwrap();
        let payload_len = archive.len() - toc.payload_start;
        let offsets = chunk_offsets(&toc.sizes, payload_len, toc.payload_start).unwrap();
        let clean: Vec<F> = pfpl::decompress(archive, Mode::Serial).unwrap();
        let fill = F::from_f64(f64::NAN);
        let vpc = pfpl::chunk::values_per_chunk::<F>();
        let mut mutant = archive.to_vec();
        for i in 0..payload_len {
            let expected = offsets.partition_point(|&o| o <= i) - 1;
            mutant[toc.payload_start + i] ^= 0xFF;
            let what = format!("{name}: payload flip at byte {i} (chunk {expected})");
            match pfpl::decompress::<F>(&mutant, Mode::Serial) {
                Err(pfpl::Error::ChecksumMismatch { chunk, offset, .. }) => {
                    assert_eq!(
                        chunk, expected,
                        "{what}: strict decode blamed chunk {chunk}"
                    );
                    assert_eq!(offset, toc.payload_start + offsets[expected], "{what}");
                }
                other => panic!("{what}: expected a checksum mismatch, got {other:?}"),
            }
            let (vals, report) =
                pfpl::decompress_salvage::<F>(&mutant, Mode::Serial, fill).unwrap();
            let flagged: Vec<usize> = report
                .chunks
                .iter()
                .filter(|c| !c.status.is_ok())
                .map(|c| c.chunk)
                .collect();
            assert_eq!(flagged, [expected], "{what}: salvage flagged {flagged:?}");
            for (c, chunk) in clean.chunks(vpc).enumerate() {
                let lo = c * vpc;
                if c == expected {
                    assert!(
                        vals[lo..lo + chunk.len()]
                            .iter()
                            .all(|v| v.to_bits() == fill.to_bits()),
                        "{what}: damaged chunk not filled"
                    );
                } else {
                    assert!(
                        vals[lo..lo + chunk.len()]
                            .iter()
                            .zip(chunk)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                        "{what}: intact chunk {c} diverged"
                    );
                }
            }
            mutant[toc.payload_start + i] ^= 0xFF; // restore
        }
        assert_eq!(mutant, archive, "mutation loop failed to restore");
    }
    for (name, precision, archive) in base_archives() {
        match precision {
            Precision::Single => go::<f32>(name, &archive),
            Precision::Double => go::<f64>(name, &archive),
        }
    }
}

/// Strip a v2 archive down to the v1 layout (version 1, no header
/// checksum, no checksum table) — the shape pre-v2 writers produced.
fn to_v1(archive: &[u8]) -> Vec<u8> {
    let toc = Toc::read(archive).unwrap();
    let table = toc.sizes_offset()..toc.sizes_offset() + 4 * toc.sizes.len();
    let mut v1 = Vec::with_capacity(archive.len() - 4 - 4 * toc.sizes.len());
    v1.extend_from_slice(&archive[..4]);
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&archive[6..36]);
    v1.extend_from_slice(&archive[table]);
    v1.extend_from_slice(&archive[toc.payload_start..]);
    v1
}

/// Back-compat: v1 archives (no checksums) still decode bit-identically
/// to their v2 counterparts, and the whole corruption contract — total
/// decode, rejected truncations — holds for them too, minus detection of
/// payload flips that v1 physically cannot notice.
#[test]
fn v1_archives_keep_the_totality_contract() {
    for (name, precision, archive) in base_archives() {
        let v1 = to_v1(&archive);
        fn check<F: PfplFloat>(name: &str, v1: &[u8], v2: &[u8]) {
            let toc = Toc::read(v1).unwrap();
            assert_eq!(toc.version, 1, "{name}");
            assert!(toc.checksums.is_empty(), "{name}");
            let a: Vec<F> = pfpl::decompress(v1, Mode::Serial).unwrap();
            let b: Vec<F> = pfpl::decompress(v2, Mode::Parallel).unwrap();
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name}: v1 and v2 decode differently"
            );
            // Salvage still runs on v1 — it just can't checksum-verify, so a
            // clean v1 archive reports all chunks intact with the caveat.
            let (vals, report) = pfpl::decompress_salvage::<F>(v1, Mode::Serial, F::ZERO).unwrap();
            assert!(report.is_clean(), "{name}: {}", report.summary());
            assert!(
                vals.iter().zip(&a).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{name}: v1 salvage diverged from strict decode"
            );
        }
        match precision {
            Precision::Single => check::<f32>(name, &v1, &archive),
            Precision::Double => check::<f64>(name, &v1, &archive),
        }
        // The totality matrix, abbreviated: every byte flip and every
        // truncation stays panic-free on the v1 layout.
        let mut mutant = v1.clone();
        for i in 0..v1.len() {
            mutant[i] ^= 0xFF;
            decode_total(name, precision, &mutant, Mode::Serial, "v1 byte flip");
            mutant[i] ^= 0xFF;
        }
        for cut in 0..v1.len() {
            decode_total(name, precision, &v1[..cut], Mode::Serial, "v1 truncation");
            stream_total(name, precision, &v1[..cut], "v1 truncation");
        }
    }
}

/// Header-field edits that historically hide unbounded allocations: forged
/// counts and chunk counts, including the extremes.
#[test]
fn forged_counts_never_allocate_unboundedly() {
    for (name, precision, archive) in base_archives() {
        for (off, len, values) in [
            (
                24usize,
                8usize,
                vec![0u64, 1, u64::MAX, u64::MAX - 1, 1 << 40],
            ),
            (
                32,
                4,
                vec![0, 1, u32::MAX as u64, (u32::MAX - 1) as u64, 1 << 20],
            ),
        ] {
            for v in values {
                let mut mutant = archive.clone();
                mutant[off..off + len].copy_from_slice(&v.to_le_bytes()[..len]);
                decode_total(
                    name,
                    precision,
                    &mutant,
                    Mode::Serial,
                    &format!("header field @{off} = {v}"),
                );
            }
        }
    }
}
