//! Fused ≡ staged equivalence for the four-stage chunk kernel (§III-E).
//!
//! The fused tile pipeline (quantize → delta → transpose → zero-elim in
//! one pass, `chunk::compress_chunk` / `chunk::decompress_chunk`) must be
//! observationally identical to the staged four-pass reference
//! (`chunk::compress_chunk_staged` / `chunk::decompress_chunk_staged`):
//! byte-identical payloads (append and slab variants), identical
//! [`ChunkInfo`], identical raw-fallback decisions, and bit-identical
//! decoded values — across quantizers, precisions, chunk lengths
//! (full / tile-multiple partial / arbitrary partial), special values,
//! and the device-sim backend (an independent warp transpose and
//! block-scan zero-elimination that must produce the same bytes).

use pfpl::chunk::{self, ChunkInfo, Scratch, CHUNK_BYTES};
use pfpl::float::PfplFloat;
use pfpl::quantize::{
    derive_noa_bound, AbsQuantizer, NoaBound, PassthroughQuantizer, Quantizer, RelQuantizer,
};
use pfpl::types::{ErrorBound, Mode};
use pfpl_device_sim::{configs, GpuDevice};
use proptest::prelude::*;

/// Compress one chunk through every entry point and decode it back both
/// ways; assert the fused and staged pipelines are indistinguishable.
/// Returns (payload, info) for further checks.
fn assert_chunk_equiv<F: PfplFloat, Q: Quantizer<F>>(q: &Q, vals: &[F]) -> (Vec<u8>, ChunkInfo) {
    let mut scratch = Scratch::<F>::default();

    let mut fused = Vec::new();
    let info_f = chunk::compress_chunk(q, vals, &mut scratch, &mut fused);
    let mut staged = Vec::new();
    let info_s = chunk::compress_chunk_staged(q, vals, &mut scratch, &mut staged);
    assert_eq!(fused, staged, "fused vs staged payload bytes");
    assert_eq!(info_f.raw, info_s.raw, "raw-fallback decision");
    assert_eq!(
        info_f.lossless_values, info_s.lossless_values,
        "lossless-word count"
    );

    // Slab variant must agree with both.
    let mut slot = vec![0u8; CHUNK_BYTES.max(1)];
    let (len, info_i) = chunk::compress_chunk_into(q, vals, &mut scratch, &mut slot);
    assert_eq!(&slot[..len], &fused[..], "slab slot bytes");
    assert_eq!(info_i.raw, info_f.raw);
    assert_eq!(info_i.lossless_values, info_f.lossless_values);

    // Both decoders accept the payload and produce bit-identical values.
    let mut via_fused = vec![F::ZERO; vals.len()];
    chunk::decompress_chunk(q, &fused, info_f.raw, &mut via_fused, &mut scratch).unwrap();
    let mut via_staged = vec![F::ZERO; vals.len()];
    chunk::decompress_chunk_staged(q, &fused, info_f.raw, &mut via_staged, &mut scratch).unwrap();
    assert_eq!(
        via_fused.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        via_staged.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "fused vs staged decoded values"
    );
    (fused, info_f)
}

fn smooth_f32(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.002).sin() * 40.0).collect()
}

fn noise_f32(n: usize) -> Vec<f32> {
    let mut x = 0xC0FFEEu64;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f32::from_bits((x as u32 % 0x7F00_0000).max(1 << 23))
        })
        .collect()
}

/// Chunk lengths covering the kernel-selection boundary: full chunks
/// (always fused), tile-multiple partials (fused), and everything else
/// (staged fallback; dispatch must still agree with the forced-staged
/// oracle trivially — asserting it guards the dispatch predicate itself).
fn lengths(vpc: usize) -> Vec<usize> {
    // `vpc - 32`, 32 and 544 are whole transpose groups but not whole
    // tiles: the staged shuffle runs its scalar path for them.
    vec![vpc, vpc - 512, 512, 1024, 0, 1, 7, 123, 511, 513, vpc - 1, vpc - 32, 32, 544]
}

#[test]
fn abs_rel_noa_f32_all_lengths() {
    let vpc = chunk::values_per_chunk::<f32>();
    let abs = AbsQuantizer::<f32>::new(1e-3).unwrap();
    let rel = RelQuantizer::<f32>::new(1e-4).unwrap();
    for n in lengths(vpc) {
        let data = smooth_f32(n);
        assert_chunk_equiv(&abs, &data);
        assert_chunk_equiv(&rel, &data);
        // NOA resolves to a derived ABS bound or passthrough.
        match derive_noa_bound(&data, 1e-4f32, Mode::Serial) {
            NoaBound::Abs(eb) => {
                assert_chunk_equiv(&AbsQuantizer::<f32>::new(eb).unwrap(), &data);
            }
            NoaBound::Passthrough => {
                assert_chunk_equiv(&PassthroughQuantizer, &data);
            }
        }
    }
}

#[test]
fn f64_all_lengths() {
    let vpc = chunk::values_per_chunk::<f64>();
    let abs = AbsQuantizer::<f64>::new(1e-9).unwrap();
    let rel = RelQuantizer::<f64>::new(1e-7).unwrap();
    for n in lengths(vpc) {
        let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.001).cos() * 7.0).collect();
        assert_chunk_equiv(&abs, &data);
        assert_chunk_equiv(&rel, &data);
        assert_chunk_equiv(&PassthroughQuantizer, &data);
    }
}

#[test]
fn raw_fallback_chunks_identical() {
    // Incompressible noise under a tiny REL bound: almost every word goes
    // lossless and the encoded form exceeds the raw size.
    let q = RelQuantizer::<f32>::new(1e-7).unwrap();
    let vpc = chunk::values_per_chunk::<f32>();
    for n in [vpc, 512, 123] {
        let data = noise_f32(n);
        let (_, info) = assert_chunk_equiv(&q, &data);
        if n >= 512 {
            assert!(info.raw, "noise at n={n} should hit the raw fallback");
        }
    }
}

#[test]
fn specials_nan_inf_denormal_identical() {
    let vpc = chunk::values_per_chunk::<f32>();
    let mut data = smooth_f32(vpc);
    data[0] = f32::NAN;
    data[1] = f32::from_bits(0xFFC1_2345); // negative NaN with payload
    data[2] = f32::INFINITY;
    data[3] = f32::NEG_INFINITY;
    data[4] = f32::from_bits(1); // smallest denormal
    data[5] = f32::from_bits(0x807F_FFFF); // negative denormal
    data[6] = -0.0;
    data[7] = f32::MAX;
    let abs = AbsQuantizer::<f32>::new(1e-3).unwrap();
    let rel = RelQuantizer::<f32>::new(1e-4).unwrap();
    let (_, info) = assert_chunk_equiv(&abs, &data);
    assert!(info.lossless_values >= 4, "specials must go lossless");
    assert_chunk_equiv(&rel, &data);

    let mut d64: Vec<f64> = (0..chunk::values_per_chunk::<f64>())
        .map(|i| (i as f64 * 0.01).sin())
        .collect();
    d64[0] = f64::NAN;
    d64[1] = f64::NEG_INFINITY;
    d64[2] = f64::from_bits(1);
    assert_chunk_equiv(&AbsQuantizer::<f64>::new(1e-6).unwrap(), &d64);
}

/// Whole archives assembled from fused chunks must match the device-sim
/// backend (whose warp transpose streams into the same zero-elimination
/// sink) — including on special values and partial final chunks.
#[test]
fn device_sim_archives_match_fused_cpu() {
    let vpc = chunk::values_per_chunk::<f32>();
    let mut data = smooth_f32(2 * vpc + 700);
    data[3] = f32::NAN;
    data[vpc + 1] = f32::from_bits(1);
    data[vpc + 2] = f32::NEG_INFINITY;
    for bound in [
        ErrorBound::Abs(1e-3),
        ErrorBound::Rel(1e-4),
        ErrorBound::Noa(1e-4),
    ] {
        let cpu = pfpl::compress(&data, bound, Mode::Serial).unwrap();
        let gpu = GpuDevice::new(configs::RTX_4090).compress(&data, bound).unwrap();
        assert_eq!(cpu, gpu, "device-sim vs fused CPU archive ({bound:?})");
        let back: Vec<f32> = pfpl::decompress(&cpu, Mode::Serial).unwrap();
        assert_eq!(back.len(), data.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bit patterns (NaN payloads, ±∞, denormals, negative
    /// zero) at arbitrary lengths: the fused and staged chunk pipelines
    /// never diverge.
    #[test]
    fn arbitrary_bits_chunk_equiv_f32(
        bits in prop::collection::vec(any::<u32>(), 0..4097), // ≤ values_per_chunk::<f32>()
        eb_exp in -7i32..0,
        rel in any::<bool>(),
    ) {
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let eb = 10f32.powi(eb_exp);
        if rel {
            assert_chunk_equiv(&RelQuantizer::<f32>::new(eb).unwrap(), &data);
        } else {
            assert_chunk_equiv(&AbsQuantizer::<f32>::new(eb).unwrap(), &data);
        }
    }

    #[test]
    fn arbitrary_bits_chunk_equiv_f64(
        bits in prop::collection::vec(any::<u64>(), 0..2049), // ≤ values_per_chunk::<f64>()
        eb_exp in -12i32..-2,
    ) {
        let data: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let eb = 10f64.powi(eb_exp);
        assert_chunk_equiv(&AbsQuantizer::<f64>::new(eb).unwrap(), &data);
        assert_chunk_equiv(&RelQuantizer::<f64>::new(eb).unwrap(), &data);
    }

    /// Smooth (compressible) data at tile-boundary-straddling lengths —
    /// exercises the fused/staged dispatch boundary specifically.
    #[test]
    fn tile_boundary_lengths_equiv(extra in 0usize..1100, eb_exp in -5i32..-1) {
        let data = smooth_f32(3 * 512 + extra);
        let eb = 10f32.powi(eb_exp);
        assert_chunk_equiv(&AbsQuantizer::<f32>::new(eb).unwrap(), &data);
    }
}
