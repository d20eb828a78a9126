//! Equivalence of the chunk kernels (§III-E) with the four stages they
//! fuse.
//!
//! `chunk::compress_chunk` / `chunk::decompress_chunk` run the fused tile
//! pipeline (quantize → delta → transpose → zero-elim in one pass) on
//! whole-tile chunks and a staged fallback on every other length. Both
//! must be observationally identical to a reference composed here from the
//! public stage functions — `Quantizer::encode_slice`,
//! `delta::encode_in_place`, `shuffle::encode`,
//! `zeroelim::encode_to_scratch` and the raw-fallback decision, then
//! `zeroelim::decode_into`, `shuffle::decode`, `delta::decode_in_place`
//! and per-value `Quantizer::decode` back: byte-identical payloads (append
//! and slab variants), identical [`ChunkInfo`], identical raw-fallback
//! decisions, and bit-identical decoded values — across quantizers,
//! precisions, chunk lengths (full / tile-multiple partial / arbitrary
//! partial), special values, and the device-sim backend (an independent
//! warp transpose and block-scan zero-elimination that must produce the
//! same bytes).

use pfpl::chunk::{self, ChunkInfo, Scratch, CHUNK_BYTES};
use pfpl::float::{PfplFloat, Word};
use pfpl::lossless::{delta, shuffle, zeroelim};
use pfpl::quantize::{
    derive_noa_bound, AbsQuantizer, NoaBound, PassthroughQuantizer, Quantizer, RelQuantizer,
};
use pfpl::types::{ErrorBound, Mode};
use pfpl_device_sim::{configs, GpuDevice};
use proptest::prelude::*;

/// The reference chunk payload: the four stages one whole-chunk pass
/// each, then the raw fallback when the encoding is no smaller than the
/// values.
fn ref_compress<F: PfplFloat, Q: Quantizer<F>>(q: &Q, vals: &[F]) -> (Vec<u8>, ChunkInfo) {
    let raw_len = vals.len() * (F::Bits::BITS as usize / 8);
    let mut words = vec![F::Bits::ZERO; vals.len()];
    let lossless = q.encode_slice(vals, &mut words);
    delta::encode_in_place(&mut words);
    let mut bytes = vec![0u8; raw_len];
    shuffle::encode(&words, &mut bytes);
    let mut ze = zeroelim::Scratch::default();
    let mut out = Vec::new();
    if zeroelim::encode_to_scratch(&bytes, &mut ze) >= raw_len {
        for &v in vals {
            v.to_bits().push_le(&mut out);
        }
        let info = ChunkInfo {
            raw: true,
            lossless_values: 0,
        };
        (out, info)
    } else {
        zeroelim::append_encoded(&ze, &mut out);
        let info = ChunkInfo {
            raw: false,
            lossless_values: lossless,
        };
        (out, info)
    }
}

/// The reference decode of a chunk payload of `n` values: the stages
/// inverted one whole-chunk pass each, dequantizing value by value.
fn ref_decompress<F: PfplFloat, Q: Quantizer<F>>(
    q: &Q,
    payload: &[u8],
    raw: bool,
    n: usize,
) -> Vec<F> {
    let word_bytes = F::Bits::BITS as usize / 8;
    if raw {
        return payload
            .chunks_exact(word_bytes)
            .map(|c| F::from_bits(F::Bits::read_le(c)))
            .collect();
    }
    let mut bytes = Vec::new();
    let mut ze = zeroelim::Scratch::default();
    zeroelim::decode_into(payload, n * word_bytes, &mut ze, &mut bytes).unwrap();
    let mut words = vec![F::Bits::ZERO; n];
    shuffle::decode(&bytes, &mut words);
    delta::decode_in_place(&mut words);
    words.iter().map(|&w| q.decode(w)).collect()
}

fn bits<F: PfplFloat>(vals: &[F]) -> Vec<F::Bits> {
    vals.iter().map(|v| v.to_bits()).collect()
}

/// Compress one chunk through both chunk entry points and decode it back;
/// assert the chunk kernels and the reference are indistinguishable.
/// Returns (payload, info) for further checks.
fn assert_chunk_equiv<F: PfplFloat, Q: Quantizer<F>>(q: &Q, vals: &[F]) -> (Vec<u8>, ChunkInfo) {
    let mut scratch = Scratch::<F>::default();

    let mut payload = Vec::new();
    let info = chunk::compress_chunk(q, vals, &mut scratch, &mut payload);
    let (reference, info_r) = ref_compress(q, vals);
    assert_eq!(
        payload, reference,
        "chunk kernel vs reference payload bytes"
    );
    assert_eq!(info.raw, info_r.raw, "raw-fallback decision");
    assert_eq!(
        info.lossless_values, info_r.lossless_values,
        "lossless-word count"
    );

    // Slab variant must agree too.
    let mut slot = vec![0u8; CHUNK_BYTES.max(1)];
    let (len, info_i) = chunk::compress_chunk_into(q, vals, &mut scratch, &mut slot);
    assert_eq!(&slot[..len], &payload[..], "slab slot bytes");
    assert_eq!(info_i.raw, info.raw);
    assert_eq!(info_i.lossless_values, info.lossless_values);

    // Both decoders accept the payload and produce bit-identical values.
    let mut back = vec![F::ZERO; vals.len()];
    chunk::decompress_chunk(q, &payload, info.raw, &mut back, &mut scratch).unwrap();
    assert_eq!(
        bits(&back),
        bits(&ref_decompress(q, &payload, info.raw, vals.len())),
        "chunk kernel vs reference decoded values"
    );
    (payload, info)
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
/// (staged fallback).
fn lengths(vpc: usize) -> Vec<usize> {
    // `vpc - 32`, 32 and 544 are whole transpose groups but not whole
    // tiles: the staged shuffle runs its scalar path for them.
    vec![
        vpc,
        vpc - 512,
        512,
        1024,
        0,
        1,
        7,
        123,
        511,
        513,
        vpc - 1,
        vpc - 32,
        32,
        544,
    ]
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
        let gpu = GpuDevice::new(configs::RTX_4090)
            .compress(&data, bound)
            .unwrap();
        assert_eq!(cpu, gpu, "device-sim vs fused CPU archive ({bound:?})");
        let back: Vec<f32> = pfpl::decompress(&cpu, Mode::Serial).unwrap();
        assert_eq!(back.len(), data.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bit patterns (NaN payloads, ±∞, denormals, negative
    /// zero) at arbitrary lengths: the chunk kernels never diverge from
    /// the reference.
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
    /// exercises the fused/staged selection boundary specifically.
    #[test]
    fn tile_boundary_lengths_equiv(extra in 0usize..1100, eb_exp in -5i32..-1) {
        let data = smooth_f32(3 * 512 + extra);
        let eb = 10f32.powi(eb_exp);
        assert_chunk_equiv(&AbsQuantizer::<f32>::new(eb).unwrap(), &data);
    }
}
