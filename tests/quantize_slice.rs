//! Byte-identity of the batched `encode_slice` kernels against the scalar
//! `encode` path.
//!
//! The archive format — and the serial/parallel/stream/device-sim
//! byte-identity guarantee — depends on `encode_slice` producing exactly
//! `out[i] = encode(vals[i])` for every input, including the values the
//! batched fast paths must reroute to the scalar slow path: NaN (every
//! payload), ±∞, ±0.0, denormals, values whose bin magnitude overflows the
//! reserved region, and values right at the fast/slow threshold.

use pfpl::quantize::{
    derive_noa_bound, AbsQuantizer, NoaBound, PassthroughQuantizer, Quantizer,
};
use proptest::prelude::*;
// RelQuantizer lives behind the same trait; imported separately so the
// helper below can be generic over the codec.
use pfpl::float::{PfplFloat, Word};
use pfpl::quantize::RelQuantizer;
use pfpl::types::Mode;

/// Assert `encode_slice` ≡ scalar `encode` (words and lossless count) on
/// `vals`, at the full length and at a few unaligned sub-lengths that land
/// inside the unrolled groups-of-8 remainder handling.
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

    // Sub-lengths: 8k+r tails for every r, plus the empty slice.
    for cut in [0usize, 1, 7, 8, 9, 15, 16, 17] {
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
    }

    /// Arbitrary f64 bit patterns.
    #[test]
    fn arbitrary_bits_f64(
        bits in prop::collection::vec(any::<u64>(), 0..2_048),
        eb_exp in -14i32..0,
    ) {
        let data: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        check_all_codecs_f64(&data, 10f64.powi(eb_exp));
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
