//! Sweep of the f32 bit-pattern space under REL and ABS quantization.
//!
//! Every visited pattern must (1) encode and decode identically through the
//! batched `encode_slice` / `decode_slice` kernels and the scalar
//! `encode` / `decode` reference, and (2) when it is stored as a bin, decode
//! within the bound as decided by the exact predicates of `pfpl::exact`
//! (with the value's sign kept, for REL). Lossless words must decode to the
//! input bits (REL stores negative NaNs as positive ones).
//!
//! The default test walks all 2^32 patterns with the prime stride 4093,
//! about a million values per codec. The ignored variant walks every
//! pattern: `cargo test --release --test guarantee_sweep -- --ignored`.

use pfpl::exact::{abs_within_f32, rel_within_mag_f32};
use pfpl::float::PfplFloat;
use pfpl::quantize::{AbsQuantizer, Quantizer, RelQuantizer};

/// Values per batch handed to the slice kernels.
const BATCH: usize = 4096;

/// How a codec must bring back the values it stores losslessly.
#[derive(Clone, Copy)]
enum Lossless {
    /// Every bit as given.
    Exact,
    /// NaNs with the sign bit cleared (REL), everything else as given.
    NanSignCleared,
}

/// Check one batch: slice ≡ scalar in both directions, `within(v, r)` for
/// every value stored as a bin, and `lossless` for every other value.
fn check_batch<Q: Quantizer<f32>>(
    q: &Q,
    vals: &[f32],
    lossless: Lossless,
    within: &impl Fn(f32, f32) -> bool,
) {
    let mut words = vec![0u32; vals.len()];
    let lossless_count = q.encode_slice(vals, &mut words);
    let mut decoded = vec![0f32; vals.len()];
    q.decode_slice(&words, &mut decoded);
    let mut expect_lossless = 0u64;
    for ((&v, &w), &r) in vals.iter().zip(&words).zip(&decoded) {
        assert_eq!(
            w,
            q.encode(v),
            "encode_slice != encode at {:#010x}",
            v.to_bits()
        );
        assert_eq!(
            r.to_bits(),
            q.decode(w).to_bits(),
            "decode_slice != decode at {w:#010x}"
        );
        if q.is_lossless_word(w) {
            expect_lossless += 1;
            let keep = match lossless {
                Lossless::NanSignCleared if v.is_nan() => !f32::SIGN_MASK,
                _ => u32::MAX,
            };
            assert_eq!(
                r.to_bits(),
                v.to_bits() & keep,
                "lossless {:#010x} changed",
                v.to_bits()
            );
        } else {
            assert!(
                within(v, r),
                "bin word breaks the bound: {:#010x} -> {r:e}",
                v.to_bits()
            );
        }
    }
    assert_eq!(lossless_count, expect_lossless, "lossless count diverged");
}

/// Walk every `stride`-th f32 bit pattern through `q`.
fn sweep<Q: Quantizer<f32>>(
    q: &Q,
    stride: u64,
    lossless: Lossless,
    within: impl Fn(f32, f32) -> bool,
) {
    let mut vals = Vec::with_capacity(BATCH);
    for bits in (0..1u64 << 32).step_by(stride as usize) {
        vals.push(f32::from_bits(bits as u32));
        if vals.len() == BATCH {
            check_batch(q, &vals, lossless, &within);
            vals.clear();
        }
    }
    check_batch(q, &vals, lossless, &within);
}

fn sweep_all_codecs(stride: u64) {
    // 1e-5 and 1e-7: f32 bins overflow `max_mag` above and below some
    // exponent, so the sweep crosses the lanes' float-only range test at
    // every exponent.
    for eb in [1e-1f32, 1e-3, 1e-5, 1e-7] {
        let q = RelQuantizer::<f32>::new(eb).unwrap();
        sweep(&q, stride, Lossless::NanSignCleared, |v, r| {
            v.is_sign_negative() == r.is_sign_negative() && rel_within_mag_f32(v.abs(), r.abs(), eb)
        });
    }
    // 1e-3 and 1e-5: the benchmark workloads' bounds; 1.0: bins reach
    // values near 2^23; MIN_POSITIVE: the largest denormals bin to 0
    // through the exact check.
    for eb in [1e-3f32, 1e-5, 1.0, f32::MIN_POSITIVE] {
        let q = AbsQuantizer::<f32>::new(eb).unwrap();
        sweep(&q, stride, Lossless::Exact, |v, r| abs_within_f32(v, r, eb));
    }
}

#[test]
fn strided_f32_patterns_hold_the_bound() {
    sweep_all_codecs(4093);
}

#[test]
#[ignore = "walks all 2^32 patterns per codec; run in release"]
fn every_f32_pattern_holds_the_bound() {
    sweep_all_codecs(1);
}
