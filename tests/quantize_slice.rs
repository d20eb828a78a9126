//! Byte-identity of the batched `encode_slice` / `decode_slice` kernels
//! against the scalar `encode` / `decode` path.
//!
//! The archive format — and the serial/parallel/stream/device-sim
//! byte-identity guarantee — depends on `encode_slice` producing exactly
//! `out[i] = encode(vals[i])` for every input, including the values the
//! batched fast paths must reroute to the scalar slow path: NaN (every
//! payload), ±∞, ±0.0, denormals, values whose bin magnitude overflows the
//! reserved region, and values right at the fast/slow threshold. Likewise
//! `decode_slice` must equal `decode` on every word — the emitted ones and
//! arbitrary bit patterns alike, because decode stays total.

use pfpl::quantize::{
    derive_noa_bound, AbsQuantizer, NoaBound, PassthroughQuantizer, Quantizer,
};
use proptest::prelude::*;
// RelQuantizer lives behind the same trait; imported separately so the
// helper below can be generic over the codec.
use pfpl::float::{portable, PfplFloat, Word};
use pfpl::quantize::RelQuantizer;
use pfpl::types::Mode;

/// Sub-lengths checked besides the full slice: 8k+r tails for every r,
/// plus the empty slice.
const CUTS: [usize; 8] = [0, 1, 7, 8, 9, 15, 16, 17];

/// Assert `encode_slice` ≡ scalar `encode` (words and lossless count) on
/// `vals`, at the full length and at a few unaligned sub-lengths that land
/// inside the unrolled groups-of-8 remainder handling; then the same for
/// `decode_slice` on the emitted words.
fn assert_slice_matches_scalar<F: PfplFloat, Q: Quantizer<F>>(q: &Q, vals: &[F]) {
    let mut expect_words = Vec::with_capacity(vals.len());
    let mut expect_lossless = 0u64;
    for &v in vals {
        let w = q.encode(v);
        expect_lossless += q.is_lossless_word(w) as u64;
        expect_words.push(w);
    }

    let mut got = vec![F::Bits::ZERO; vals.len()];
    let lossless = q.encode_slice(vals, &mut got);
    assert_eq!(got, expect_words, "encode_slice diverged from scalar encode");
    assert_eq!(lossless, expect_lossless, "lossless count diverged");

    for cut in CUTS {
        let cut = cut.min(vals.len());
        let mut short = vec![F::Bits::ZERO; cut];
        let lossless = q.encode_slice(&vals[..cut], &mut short);
        assert_eq!(short, expect_words[..cut]);
        let expect: u64 = expect_words[..cut]
            .iter()
            .map(|&w| q.is_lossless_word(w) as u64)
            .sum();
        assert_eq!(lossless, expect);
    }

    assert_decode_slice_matches_scalar(q, &expect_words);
}

/// Assert `decode_slice` ≡ scalar `decode`, bit for bit, on any `words`
/// (emitted or arbitrary), at the full length and at the [`CUTS`].
fn assert_decode_slice_matches_scalar<F: PfplFloat, Q: Quantizer<F>>(q: &Q, words: &[F::Bits]) {
    let expect: Vec<F::Bits> = words.iter().map(|&w| q.decode(w).to_bits()).collect();
    let mut got = vec![F::ZERO; words.len()];
    q.decode_slice(words, &mut got);
    let got: Vec<F::Bits> = got.iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, expect, "decode_slice diverged from scalar decode");
    for cut in CUTS {
        let cut = cut.min(words.len());
        let mut short = vec![F::ZERO; cut];
        q.decode_slice(&words[..cut], &mut short);
        let short: Vec<F::Bits> = short.iter().map(|v| v.to_bits()).collect();
        assert_eq!(short, expect[..cut]);
    }
}

/// Run one data set through every codec the pipeline instantiates for it.
fn check_all_codecs_f32(data: &[f32], eb: f32) {
    assert_slice_matches_scalar(&AbsQuantizer::<f32>::new(eb).unwrap(), data);
    assert_slice_matches_scalar(&RelQuantizer::<f32>::new(eb).unwrap(), data);
    assert_slice_matches_scalar(&PassthroughQuantizer, data);
    if let NoaBound::Abs(b) = derive_noa_bound(data, eb, Mode::Serial) {
        assert_slice_matches_scalar(&AbsQuantizer::<f32>::new(b).unwrap(), data);
    }
}

/// `decode_slice` ≡ `decode` on arbitrary words, for every codec.
fn check_decode_all_codecs_f32(words: &[u32], eb: f32) {
    assert_decode_slice_matches_scalar(&AbsQuantizer::<f32>::new(eb).unwrap(), words);
    assert_decode_slice_matches_scalar(&RelQuantizer::<f32>::new(eb).unwrap(), words);
    assert_decode_slice_matches_scalar::<f32, _>(&PassthroughQuantizer, words);
}

fn check_decode_all_codecs_f64(words: &[u64], eb: f64) {
    assert_decode_slice_matches_scalar(&AbsQuantizer::<f64>::new(eb).unwrap(), words);
    assert_decode_slice_matches_scalar(&RelQuantizer::<f64>::new(eb).unwrap(), words);
    assert_decode_slice_matches_scalar::<f64, _>(&PassthroughQuantizer, words);
}

fn check_all_codecs_f64(data: &[f64], eb: f64) {
    assert_slice_matches_scalar(&AbsQuantizer::<f64>::new(eb).unwrap(), data);
    assert_slice_matches_scalar(&RelQuantizer::<f64>::new(eb).unwrap(), data);
    assert_slice_matches_scalar(&PassthroughQuantizer, data);
    if let NoaBound::Abs(b) = derive_noa_bound(data, eb, Mode::Serial) {
        assert_slice_matches_scalar(&AbsQuantizer::<f64>::new(b).unwrap(), data);
    }
}

/// Specials that target every slow-path gate in the batched kernels.
fn specials_f32() -> Vec<f32> {
    let mut v = vec![
        0.0f32,
        -0.0, // sign-of-zero: fast path must not emit a sign bit
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7F80_0001), // signalling-NaN payload
        f32::from_bits(0xFFC0_1234), // negative NaN, nonzero payload
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,         // smallest normal
        f32::from_bits(1),         // smallest denormal
        f32::from_bits(0x007F_FFFF), // largest denormal
        f32::MAX,
        f32::MIN, // most negative: bin magnitude overflows every bound here
        1e30,
        -1e30, // overflow max_bin at eb = 1e-3 → lossless fallback
    ];
    // Values straddling the fast/slow reconstruction threshold at eb=1e-3:
    // the ulp-walk crosses bin boundaries where |recon − v| ≈ fast_lo.
    let mut x = 1.0e-3f32;
    for _ in 0..8 {
        v.push(x);
        v.push(-x);
        x = f32::from_bits(x.to_bits() + 1);
    }
    v
}

fn specials_f64() -> Vec<f64> {
    let mut v = vec![
        0.0f64,
        -0.0,
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7FF0_0000_0000_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::MAX,
        f64::MIN,
        1e250,
        -1e250,
    ];
    let mut x = 1.0e-6f64;
    for _ in 0..8 {
        v.push(x);
        v.push(-x);
        x = f64::from_bits(x.to_bits() + 1);
    }
    v
}

#[test]
fn specials_identical_f32() {
    for eb in [1e-1f32, 1e-3, 1e-6] {
        check_all_codecs_f32(&specials_f32(), eb);
    }
}

#[test]
fn specials_identical_f64() {
    for eb in [1e-3f64, 1e-9, 1e-14] {
        check_all_codecs_f64(&specials_f64(), eb);
    }
}

/// Interleave specials into smooth data so fast groups-of-8 contain
/// exactly one slow lane in every position.
#[test]
fn specials_embedded_in_smooth_runs() {
    let specials = specials_f32();
    for (si, &s) in specials.iter().enumerate() {
        for pos in 0..8 {
            let mut data: Vec<f32> = (0..64)
                .map(|i| ((i + si) as f32 * 0.11).sin() * 50.0)
                .collect();
            data[8 * 3 + pos] = s; // inside an interior full group
            check_all_codecs_f32(&data, 1e-3);
        }
    }
}

/// Values around the bins `max_mag - 1 ..= max_mag + 2` of REL bound
/// `eb`, both signs and both bin signs, a few ulps either side of each bin
/// center. `max_mag` is the largest bin magnitude the payload holds.
fn rel_bin_edge_values<F: PfplFloat>(eb: F, max_mag: u64) -> Vec<F> {
    let binw = 2.0 * portable::log2(1.0 + eb.to_f64());
    let mut out = Vec::new();
    for mag in max_mag - 1..=max_mag + 2 {
        for bin_sign in [1.0, -1.0] {
            let center = F::from_f64(portable::exp2(bin_sign * mag as f64 * binw));
            for step in 0..8u64 {
                let b = center.to_bits().to_u64() + step - 4;
                let v = F::from_bits(F::Bits::from_u64(b));
                out.push(v);
                out.push(F::from_bits(v.to_bits() | F::SIGN_MASK));
            }
        }
    }
    out
}

/// Magnitude of the bin a REL word carries, if it is a bin word (the
/// payload layout of `quantize/rel.rs`, after the emitted-word XOR).
fn rel_bin_mag<F: PfplFloat>(q: &RelQuantizer<F>, w: F::Bits) -> Option<u64> {
    let mag_bits = F::MANT_BITS - 2;
    (!q.is_lossless_word(w)).then(|| (w.to_u64() - 1) & ((1 << mag_bits) - 1))
}

/// REL inputs for the lane kernels' edges: `√2·2^e` one ulp either side
/// (the `log2` range reduction), denormals (the `log2` prescale for f64),
/// ±0 and negative NaN, plus `extra`.
fn rel_edge_values<F: PfplFloat>(extra: &[f64]) -> Vec<F> {
    let mut out = vec![
        F::ZERO,
        F::from_bits(F::SIGN_MASK),
        F::from_bits(F::SIGN_MASK | F::EXP_MASK | F::Bits::ONE),
        F::from_bits(!F::Bits::ZERO),
        F::from_bits(F::Bits::ONE),
        F::from_bits(F::MANT_MASK),
        F::from_bits(F::MANT_MASK | F::SIGN_MASK),
        F::MIN_NORMAL,
    ];
    for e in [-100, -1, 0, 1, 60] {
        let s = F::from_f64(std::f64::consts::SQRT_2 * 2f64.powi(e)).to_bits().to_u64();
        for b in [s - 1, s, s + 1] {
            out.push(F::from_bits(F::Bits::from_u64(b)));
        }
    }
    out.extend(extra.iter().map(|&x| F::from_f64(x)));
    out
}

/// REL encode/decode lanes at their edges: bins at `max_mag` and
/// `max_mag + 1` (the in-lane range test), every edge value alone in every
/// lane of smooth data, and decode of the reserved words.
fn check_rel_edges<F: PfplFloat>(eb: F, max_mag: u64, extra: &[f64]) {
    let q = RelQuantizer::<F>::new(eb).unwrap();
    let bins = rel_bin_edge_values(eb, max_mag);
    let mags: Vec<u64> = bins.iter().filter_map(|&v| rel_bin_mag(&q, q.encode(v))).collect();
    assert!(mags.contains(&max_mag), "no value reached bin magnitude max_mag");
    assert!(mags.iter().all(|&m| m <= max_mag));
    assert!(
        bins.iter().any(|&v| q.is_lossless_word(q.encode(v))),
        "no value overflowed the bin range"
    );
    assert_slice_matches_scalar(&q, &bins);

    let edges = rel_edge_values::<F>(extra);
    assert_slice_matches_scalar(&q, &edges);
    for &e in edges.iter().chain(&bins) {
        for pos in 0..8 {
            let mut data: Vec<F> =
                (0..24).map(|i| F::from_f64((i as f64 * 0.37).sin() * 40.0 + 41.0)).collect();
            data[8 + pos] = e;
            assert_slice_matches_scalar(&q, &data);
        }
    }

    // Reserved words: the zero code with either bin sign, the largest
    // magnitude code, and a zero mantissa under the bin exponent.
    let mag_bits = F::MANT_BITS - 2;
    let zero_mag = (1u64 << mag_bits) - 1;
    let words: Vec<F::Bits> = [
        zero_mag + 1,
        (1 << mag_bits | zero_mag) + 1,
        (1 << (F::MANT_BITS - 1) | zero_mag) + 1,
        max_mag + 1,
        (1 << mag_bits | max_mag) + 1,
        0,
        F::MANT_MASK.to_u64(),
        F::MANT_MASK.to_u64() + 1,
    ]
    .into_iter()
    .map(F::Bits::from_u64)
    .collect();
    assert_decode_slice_matches_scalar(&q, &words);
}

#[test]
fn rel_lane_edges_f32() {
    // 1e-5: the top bins (|log2| ≈ 60) are reachable from f32 inputs.
    check_rel_edges::<f32>(1e-5, (1 << 21) - 2, &[]);
    for eb in [1e-1, 1e-3] {
        let q = RelQuantizer::<f32>::new(eb).unwrap();
        assert_slice_matches_scalar(&q, &rel_edge_values::<f32>(&[]));
    }
}

#[test]
fn rel_lane_edges_f64() {
    // Reconstructions in the f64 denormal and overflow ranges take the
    // scalar `exp2` tail inside the lanes.
    let extremes = [
        f64::MAX,
        f64::MAX * 0.75,
        f64::MAX / 1.05,
        f64::MIN_POSITIVE,
        f64::MIN_POSITIVE * 1.5,
        f64::MIN_POSITIVE / 3.0,
        5e-324,
        1e-310,
    ];
    // 1e-13: the top bins (|log2| ≈ 325) are reachable from f64 inputs.
    check_rel_edges::<f64>(1e-13, (1 << 50) - 2, &extremes);
    for eb in [1e-1, 0.5, 1e-3] {
        let q = RelQuantizer::<f64>::new(eb).unwrap();
        assert_slice_matches_scalar(&q, &rel_edge_values::<f64>(&extremes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Finite f32 data across bound magnitudes.
    #[test]
    fn finite_f32(
        data in prop::collection::vec(-1e6f32..1e6, 0..4_096),
        eb_exp in -7i32..0,
    ) {
        check_all_codecs_f32(&data, 10f32.powi(eb_exp));
    }

    /// Arbitrary f32 bit patterns: NaN payloads, infinities, denormals,
    /// huge magnitudes that overflow the bin region.
    #[test]
    fn arbitrary_bits_f32(
        bits in prop::collection::vec(any::<u32>(), 0..4_096),
        eb_exp in -7i32..0,
    ) {
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        check_all_codecs_f32(&data, 10f32.powi(eb_exp));
        check_decode_all_codecs_f32(&bits, 10f32.powi(eb_exp));
    }

    /// Arbitrary f64 bit patterns.
    #[test]
    fn arbitrary_bits_f64(
        bits in prop::collection::vec(any::<u64>(), 0..2_048),
        eb_exp in -14i32..0,
    ) {
        let data: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        check_all_codecs_f64(&data, 10f64.powi(eb_exp));
        check_decode_all_codecs_f64(&bits, 10f64.powi(eb_exp));
    }

    /// Finite f64 data.
    #[test]
    fn finite_f64(
        data in prop::collection::vec(-1e9f64..1e9, 0..2_048),
        eb_exp in -12i32..0,
    ) {
        check_all_codecs_f64(&data, 10f64.powi(eb_exp));
    }
}
