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

use pfpl::quantize::{derive_noa_bound, AbsQuantizer, NoaBound, PassthroughQuantizer, Quantizer};
use proptest::prelude::*;
// RelQuantizer lives behind the same trait; imported separately so the
// helper below can be generic over the codec.
use pfpl::float::{portable, PfplFloat, Word};
use pfpl::quantize::RelQuantizer;
use pfpl::types::Mode;

/// Sub-lengths checked besides the full slice: 8k+r tails for every r,
/// the empty slice, and either side of the 512-value blocks of the REL
/// stage passes.
const CUTS: [usize; 14] = [0, 1, 7, 8, 9, 15, 16, 17, 511, 512, 513, 1023, 1024, 1025];

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
    assert_eq!(
        got, expect_words,
        "encode_slice diverged from scalar encode"
    );
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
        f32::MIN_POSITIVE,           // smallest normal
        f32::from_bits(1),           // smallest denormal
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
/// (the `log2` range reduction), denormals of both signs (the `log2`
/// prescale for f64), ±0, ±∞, NaNs of both signs with payloads, and the
/// values just below ±1.0, whose bin is 0 from a negative `q` (no bin sign
/// on a zero magnitude), plus `extra`.
fn rel_edge_values<F: PfplFloat>(extra: &[f64]) -> Vec<F> {
    let mut out = vec![
        F::ZERO,
        F::from_bits(F::SIGN_MASK),
        F::from_bits(F::EXP_MASK),
        F::from_bits(F::SIGN_MASK | F::EXP_MASK),
        F::from_bits(F::EXP_MASK | F::Bits::ONE),
        F::from_bits(F::EXP_MASK | F::MANT_MASK),
        F::from_bits(F::SIGN_MASK | F::EXP_MASK | F::Bits::ONE),
        F::from_bits(!F::Bits::ZERO),
        F::from_bits(F::Bits::ONE),
        F::from_bits(F::SIGN_MASK | F::Bits::ONE),
        F::from_bits(F::MANT_MASK),
        F::from_bits(F::MANT_MASK | F::SIGN_MASK),
        F::MIN_NORMAL,
    ];
    for e in [-100, -1, 0, 1, 60] {
        let s = F::from_f64(std::f64::consts::SQRT_2 * 2f64.powi(e))
            .to_bits()
            .to_u64();
        for b in [s - 1, s, s + 1] {
            out.push(F::from_bits(F::Bits::from_u64(b)));
        }
    }
    for d in 1..=4 {
        let below_one = ulps(F::from_f64(1.0), -d);
        out.push(below_one);
        out.push(F::from_bits(below_one.to_bits() | F::SIGN_MASK));
    }
    out.extend(extra.iter().map(|&x| F::from_f64(x)));
    out
}

/// Values whose `t = eb·|v|` is one ulp below `MIN_NORMAL`, at it and one
/// ulp above it (the lanes' normal-bound test), with both signs.
fn rel_t_edge_values<F: PfplFloat>(eb: F) -> Vec<F> {
    let center = F::MIN_NORMAL.div(eb);
    let walk: Vec<F> = (-16..=16).map(|d| ulps(center, d)).collect();
    let ts: Vec<F> = walk.iter().map(|&v| eb.mul(v)).collect();
    for t in [
        ulps(F::MIN_NORMAL, -1),
        F::MIN_NORMAL,
        ulps(F::MIN_NORMAL, 1),
    ] {
        assert!(ts.contains(&t), "eb {eb:?}: no value with t = {t:?}");
    }
    let negative = walk
        .iter()
        .map(|&v| F::from_bits(v.to_bits() | F::SIGN_MASK));
    walk.iter().copied().chain(negative).collect()
}

/// The lanes' `m = |q| + 0.5` for `v` under bound `eb`, with
/// `q = log2|v|·inv_binw` computed as the quantizer computes it.
fn rel_m<F: PfplFloat>(v: F, eb: F) -> f64 {
    let binw = 2.0 * portable::log2(1.0 + eb.to_f64());
    (portable::log2(v.abs().to_f64()) * (1.0 / binw)).abs() + 0.5
}

/// Assert the slice kernels match the scalar path with each of `edges`
/// alone in every lane of a group of plain values, and with all of them
/// spread over more than two 512-value blocks of plain values.
fn check_rel_lanes<F: PfplFloat>(q: &RelQuantizer<F>, edges: &[F]) {
    let plain = |i: usize| F::from_f64((i as f64 * 0.37).sin() * 40.0 + 41.0);
    for &e in edges {
        for pos in 0..8 {
            let mut data: Vec<F> = (0..24).map(plain).collect();
            data[8 + pos] = e;
            assert_slice_matches_scalar(q, &data);
        }
    }
    let mut data: Vec<F> = (0..(3 * edges.len() + 8).max(1100)).map(plain).collect();
    for (i, &e) in edges.iter().enumerate() {
        data[3 * i + i % 3] = e;
    }
    assert_slice_matches_scalar(q, &data);
}

/// REL encode/decode lanes at their edges: bins at `max_mag` and
/// `max_mag + 1` (the in-lane range test), the edge values and the
/// `t` edges alone in every lane of plain data, and decode of the
/// reserved words.
fn check_rel_edges<F: PfplFloat>(eb: F, max_mag: u64, extra: &[f64]) {
    let q = RelQuantizer::<F>::new(eb).unwrap();
    let bins = rel_bin_edge_values(eb, max_mag);
    let mags: Vec<u64> = bins
        .iter()
        .filter_map(|&v| rel_bin_mag(&q, q.encode(v)))
        .collect();
    assert!(
        mags.contains(&max_mag),
        "no value reached bin magnitude max_mag"
    );
    assert!(mags.iter().all(|&m| m <= max_mag));
    assert!(
        bins.iter().any(|&v| q.is_lossless_word(q.encode(v))),
        "no value overflowed the bin range"
    );
    assert_slice_matches_scalar(&q, &bins);

    let mut edges = rel_edge_values::<F>(extra);
    assert_slice_matches_scalar(&q, &edges);
    edges.extend(rel_t_edge_values(eb));
    edges.extend(bins);
    check_rel_lanes(&q, &edges);

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

/// Inputs whose `m` is exactly `max_mag + 1` plus `ulps` ulps, each given
/// as `(bound bits, value bits, ulps)`; they were found by walking the
/// inputs near `exp2(±(max_mag + 0.5)·binw)` over many bounds. Each value
/// runs with both signs in every lane.
fn check_rel_m_edges<F: PfplFloat>(max_mag: u64, cases: &[(u64, u64, i64)]) {
    let top = (max_mag + 1) as f64;
    for &(eb, v, d) in cases {
        let eb = F::from_bits(F::Bits::from_u64(eb));
        let v = F::from_bits(F::Bits::from_u64(v));
        let want = f64::from_bits((top.to_bits() as i64 + d) as u64);
        assert_eq!(rel_m(v, eb), want, "eb {eb:?} v {v:?}");
        let negative = F::from_bits(v.to_bits() | F::SIGN_MASK);
        check_rel_lanes(&RelQuantizer::new(eb).unwrap(), &[v, negative]);
    }
}

/// A bound so small that `1 + eb` rounds to 1: `binw == 0` and
/// `inv_binw == ∞`, so `q` is ±∞, or NaN for `|v| == 1`, in every lane.
fn check_rel_zero_binw<F: PfplFloat>(eb: F) {
    assert_eq!(1.0 + eb.to_f64(), 1.0, "eb {eb:?} leaves binw nonzero");
    let q = RelQuantizer::<F>::new(eb).unwrap();
    let mut edges = rel_edge_values::<F>(&[1.0, -1.0, 2.0, 0.5, 1e3, -1e-3]);
    let ms: Vec<f64> = edges
        .iter()
        .filter(|v| v.is_finite() && **v != F::ZERO)
        .map(|&v| rel_m(v, eb))
        .collect();
    assert!(ms.iter().any(|m| m.is_nan()));
    assert!(ms.contains(&f64::INFINITY));
    edges.extend(rel_t_edge_values(eb));
    check_rel_lanes(&q, &edges);
}

#[test]
fn rel_lane_edges_f32() {
    // 1e-5: the top bins (|log2| ≈ 60) are reachable from f32 inputs.
    check_rel_edges::<f32>(1e-5, (1 << 21) - 2, &[]);
    for eb in [1e-1, 1e-3] {
        let q = RelQuantizer::<f32>::new(eb).unwrap();
        check_rel_lanes(&q, &rel_edge_values::<f32>(&[]));
        check_rel_lanes(&q, &rel_t_edge_values(eb));
    }
    check_rel_m_edges::<f32>(
        (1 << 21) - 2,
        &[
            (0x3785_f7ae, 0x0f24_b3d0, -1),
            (0x36c8_3c19, 0x518a_19cd, -1),
            (0x3791_1a24, 0x73cb_6286, 0),
            (0x3764_c44e, 0x1633_d2b3, 0),
            (0x3799_334e, 0x76b6_3bdc, 1),
            (0x3760_7ef8, 0x67fa_9800, 1),
        ],
    );
    check_rel_zero_binw::<f32>(1e-17);
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
        check_rel_lanes(&q, &rel_edge_values::<f64>(&extremes));
        check_rel_lanes(&q, &rel_t_edge_values(eb));
    }
    // 1e-13, and 100·2^-52 for an `m` exactly at the edge.
    let eb_13 = 1e-13f64.to_bits();
    let eb_100 = (100.0 * 2f64.powi(-52)).to_bits();
    check_rel_m_edges::<f64>(
        (1 << 50) - 2,
        &[
            (eb_13, 0x5438_5be8_bfa0_79be, -1),
            (eb_13, 0x2ba5_04d7_244e_3c6b, -1),
            (eb_100, 0x4471_9103_e407_ff18, 0),
            (eb_100, 0x3b6d_257d_547e_1c23, 0),
            (eb_13, 0x5438_5be8_bfa0_7acd, 1),
            (eb_13, 0x2ba5_04d7_244e_3b82, 1),
        ],
    );
    check_rel_zero_binw::<f64>(1e-17);
}

/// The ABS lane quantities of `v` under bound `eb`, as `encode` computes
/// them: `(m, ad)` with `m = |v|·scale + 0.5` and `ad` the rounded
/// distance from `v` to its bin's reconstruction.
fn abs_lane<F: PfplFloat>(v: F, eb: F) -> (F, F) {
    let scale = F::from_f64(0.5).div(eb);
    let bin = v.mul(scale).round_away_i64();
    let recon = F::from_i64(bin).mul(eb.add(eb));
    let ad = v.add(F::from_bits(recon.to_bits() ^ F::SIGN_MASK)).abs();
    (v.abs().mul(scale).add(F::from_f64(0.5)), ad)
}

/// True where the scalar path needs its exact check: `ad` between the
/// fast thresholds `eb·(1 ∓ 2^-20)`.
fn in_abs_band<F: PfplFloat>(v: F, eb: F) -> bool {
    let (_, ad) = abs_lane(v, eb);
    let lo = eb.mul(F::from_f64(1.0 - 9.5367431640625e-7));
    let hi = eb.mul(F::from_f64(1.0 + 9.5367431640625e-7));
    ad >= lo && ad <= hi
}

/// `bits + d` as a value (a walk in ulps over same-sign patterns).
fn ulps<F: PfplFloat>(x: F, d: i64) -> F {
    F::from_bits(F::Bits::from_u64((x.to_bits().to_u64() as i64 + d) as u64))
}

/// ABS encode lanes at their edges under bound `eb`, each edge value
/// placed in every lane of a group that also holds bin lanes and a
/// lossless lane:
/// - `m` one ulp below `2^MANT_BITS` (the largest bin, whose magic-number
///   round ties upward), at it and above it (the in-lane range test);
/// - values in the `fast_lo..=fast_hi` band (the group re-runs scalar);
/// - −0.0 and negative denormals beside a NaN lane.
///
/// Returns how many edge values fell in the band.
fn check_abs_edges<F: PfplFloat>(eb: F) -> usize {
    let q = AbsQuantizer::<F>::new(eb).unwrap();
    let eb = q.bound();
    let top = F::from_f64((1u64 << F::MANT_BITS) as f64);
    let scale = F::from_f64(0.5).div(eb);
    let mut edges = Vec::new();

    // Walk in ulps around the value whose `m` is 2^MANT_BITS.
    let center = top.div(scale);
    if center.is_finite() {
        let walk: Vec<F> = (-64..=64).map(|d| ulps(center, d)).collect();
        let ms: Vec<F> = walk.iter().map(|&v| abs_lane(v, eb).0).collect();
        assert!(ms.contains(&ulps(top, -1)), "no m one ulp below 2^M");
        assert!(ms.contains(&top), "no m at 2^M");
        assert!(ms.iter().any(|&m| m > top), "no m above 2^M");
        edges.extend(walk);
    }

    // Bin boundaries `(k + 0.5)·2eb`, a few ulps either side: the rounded
    // distance to either neighbouring bin is within an ulp of `eb`.
    let eb2 = eb.add(eb);
    for k in 0..4 {
        let b = F::from_f64(k as f64 + 0.5).mul(eb2);
        edges.extend((-3..=3).map(|d| ulps(b, d)));
    }
    // The largest denormals: at `eb = MIN_NORMAL` they bin to 0 at a
    // distance inside the band.
    edges.extend((0..4).map(|d| ulps(F::from_bits(F::MANT_MASK), -d)));
    edges.extend([F::ZERO, F::MIN_NORMAL, F::from_f64(1e30)]);
    let negative: Vec<F> = edges
        .iter()
        .map(|&v| F::from_bits(v.to_bits() | F::SIGN_MASK))
        .collect();
    edges.extend(negative);
    assert_slice_matches_scalar(&q, &edges);

    let nan = F::from_bits(F::EXP_MASK | F::Bits::ONE);
    for &e in &edges {
        for pos in 0..8 {
            let mut data: Vec<F> = (0..24)
                .map(|i| {
                    F::from_f64((i as f64 * 0.37).sin())
                        .mul(eb)
                        .mul(F::from_f64(40.0))
                })
                .collect();
            data[8 + pos] = e;
            data[8 + (pos + 3) % 8] = nan;
            assert_slice_matches_scalar(&q, &data);
        }
    }

    // −0.0 and negative denormals in one group with NaN lanes, in every
    // rotation.
    let signed_zeros = [
        F::from_bits(F::SIGN_MASK),
        F::from_bits(F::SIGN_MASK | F::Bits::ONE),
        F::from_bits(F::SIGN_MASK | F::MANT_MASK),
        nan,
        F::from_bits(F::SIGN_MASK | F::EXP_MASK | F::MANT_MASK),
        F::from_bits(F::Bits::ONE),
        F::ZERO,
        F::from_bits(F::SIGN_MASK | F::Bits::from_u64(2)),
    ];
    for r in 0..8 {
        let mut group = signed_zeros;
        group.rotate_left(r);
        assert_slice_matches_scalar(&q, &group);
    }

    edges.iter().filter(|&&v| in_abs_band(v, eb)).count()
}

/// Bounds for the ABS lane edges: the workloads' bounds, a power-of-two
/// scale, `MIN_NORMAL` (largest denormals in the band) and `MAX` (the
/// quantizer clamps it to `MAX / 2` so the bin width stays finite).
fn check_abs_edge_bounds<F: PfplFloat>(max: F) {
    for eb in [1e-3, 1e-5, 0.5, 1.0] {
        let banded = check_abs_edges(F::from_f64(eb));
        assert!(banded > 0, "eb {eb}: no edge value in the band");
    }
    let banded = check_abs_edges(F::MIN_NORMAL);
    assert!(banded >= 4, "MIN_NORMAL: largest denormals not in the band");
    check_abs_edges(max);
}

#[test]
fn abs_lane_edges_f32() {
    check_abs_edge_bounds(f32::MAX);
}

#[test]
fn abs_lane_edges_f64() {
    check_abs_edge_bounds(f64::MAX);
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
