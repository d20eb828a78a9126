//! Assertions tied to specific claims in the paper's text, as executable
//! documentation of what the reproduction reproduces.

use pfpl::container::Toc;
use pfpl::exact::check_bound;
use pfpl::types::{ErrorBound, Mode, Precision};
use pfpl_data::golden::{golden_specs, golden_values_f32, golden_values_f64};
use pfpl_data::{suite_by_name, FieldData, SizeClass};

/// §II-B: "each reconstructed value must have the same sign as the
/// original value and be in the range |x|/(1+ε) ≤ |x'| ≤ |x|·(1+ε)".
/// Our REL guarantee is the strictly stronger |x−x'| ≤ ε|x|; check both.
#[test]
fn rel_satisfies_both_formulations() {
    let eb = 1e-2f64;
    let data: Vec<f32> = (0..50_000)
        .map(|i| ((i as f32 * 0.0137).sin() + 1.1) * 10f32.powi((i % 9) - 4))
        .collect();
    let arch = pfpl::compress(&data, ErrorBound::Rel(eb), Mode::Parallel).unwrap();
    let back: Vec<f32> = pfpl::decompress(&arch, Mode::Parallel).unwrap();
    for (a, b) in data.iter().zip(&back) {
        let (a, b) = (*a as f64, *b as f64);
        assert_eq!(a.is_sign_negative(), b.is_sign_negative());
        // strict definition
        assert!((a - b).abs() <= eb * a.abs());
        // paper's range formulation
        assert!(a.abs() / (1.0 + eb) <= b.abs() * (1.0 + 1e-12));
        assert!(b.abs() <= a.abs() * (1.0 + eb) * (1.0 + 1e-12));
    }
}

/// §III-B: "the quantizers simply check for these special values"
/// (denormals, infinities, NaNs) — all must survive compression, NaN
/// payloads included (ABS keeps them bit-exact).
#[test]
fn special_values_bit_exact_under_abs() {
    let specials: Vec<f32> = vec![
        f32::NAN,
        f32::from_bits(0x7FC1_2345),  // NaN with payload
        f32::from_bits(0xFFC5_4321),  // negative NaN with payload
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x0000_0001),  // smallest denormal
        f32::from_bits(0x807F_FFFF),  // largest negative denormal
        0.0,
        -0.0,
        f32::MAX,
        f32::MIN,
    ];
    let mut data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
    for (k, &s) in specials.iter().enumerate() {
        data[k * 17 + 5] = s;
    }
    let eb = 1e-3;
    let arch = pfpl::compress(&data, ErrorBound::Abs(eb), Mode::Serial).unwrap();
    let back: Vec<f32> = pfpl::decompress(&arch, Mode::Serial).unwrap();
    for (k, &s) in specials.iter().enumerate() {
        let got = back[k * 17 + 5];
        if s.is_nan() {
            assert_eq!(got.to_bits(), s.to_bits(), "NaN payload preserved under ABS");
        } else if !s.is_finite() {
            assert_eq!(got.to_bits(), s.to_bits());
        } else {
            assert!((s as f64 - got as f64).abs() <= eb, "special #{k}");
        }
    }
}

/// §III-B: "In the case of … NaNs … we make all negative NaNs positive"
/// (REL only) — the single documented non-bit-exact case.
#[test]
fn rel_negative_nan_becomes_positive() {
    // Use a compressible chunk so the quantizer actually runs (a raw
    // fallback chunk would keep the NaN bit-exact — also correct, but not
    // what this test demonstrates).
    let mut data: Vec<f32> = (0..8192).map(|i| (i as f32 * 0.001).sin() + 2.0).collect();
    data[1] = f32::from_bits(0xFFC0_00AB);
    let arch = pfpl::compress(&data, ErrorBound::Rel(1e-3), Mode::Serial).unwrap();
    let back: Vec<f32> = pfpl::decompress(&arch, Mode::Serial).unwrap();
    assert_eq!(back[1].to_bits(), 0x7FC0_00AB, "sign cleared, payload kept");
}

/// §III-E: "If a chunk cannot be compressed, the original chunk data is
/// emitted … to cap the worst-case expansion." Archive size on white
/// noise must stay within the header + size-table overhead.
#[test]
fn worst_case_expansion_capped() {
    let mut x = 0x9E3779B97F4A7C15u64;
    let data: Vec<f32> = (0..500_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            f32::from_bits(((x as u32) & 0x7FFF_FFFF) % 0x7F80_0000)
        })
        .collect();
    let arch = pfpl::compress(&data, ErrorBound::Rel(1e-8), Mode::Parallel).unwrap();
    let raw = data.len() * 4;
    let chunks = data.len().div_ceil(4096);
    // v2 container: 40-byte header (incl. header checksum) + a size word
    // and a checksum word per chunk, plus slack for the final short chunk.
    let cap = raw + 40 + 8 * chunks + 64;
    assert!(arch.len() <= cap, "{} > {cap}", arch.len());
}

/// Title claim: "guaranteed error bounds" — re-verified value-by-value on
/// every committed golden archive (both precisions, all three bound kinds,
/// raw-fallback chunks included). Each value is bit-exact (lossless path)
/// or within the bound the archive was compressed under.
#[test]
fn golden_decodes_respect_their_bound() {
    for spec in golden_specs() {
        let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{}.pfpl", spec.name));
        let archive = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} — regenerate with PFPL_REGEN_GOLDEN=1 cargo test --test golden_fixtures",
                path.display()
            )
        });
        let header = Toc::read(&archive).unwrap().header;
        let verdict = match spec.precision {
            Precision::Single => {
                let orig = golden_values_f32(&spec);
                let back: Vec<f32> = pfpl::decompress(&archive, Mode::Parallel).unwrap();
                check_bound(spec.bound, &header, &orig, &back)
            }
            Precision::Double => {
                let orig = golden_values_f64(&spec);
                let back: Vec<f64> = pfpl::decompress(&archive, Mode::Parallel).unwrap();
                check_bound(spec.bound, &header, &orig, &back)
            }
        };
        verdict.unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    }
}

/// §II: NOA bounds every error by `eb * (max - min)`, exactly. Rounding
/// the range and the product to nearest can land above that; the derived
/// bound the archive records must not.
#[test]
fn noa_derived_bound_within_exact_range_bound() {
    let data = [-1.5 * 2f32.powi(-24), 1.0, f32::from_bits(0x3F00_0001)];
    let bound = ErrorBound::Noa(0.5);
    let exact = 0.5 + 0.75 * 2f64.powi(-24);
    for mode in [Mode::Serial, Mode::Parallel] {
        let archive = pfpl::compress(&data, bound, mode).unwrap();
        let mut header = Toc::read(&archive).unwrap().header;
        let back: Vec<f32> = pfpl::decompress(&archive, mode).unwrap();
        let derived = header.derived_bound;
        assert!(derived <= exact, "{mode:?}: {derived}");
        check_bound(bound, &header, &data, &back).unwrap();
        // The nearest-rounded bound, and the decode it allowed (value 2
        // as 1.0000001, an error of 0.5 + 2^-24), are rejected.
        header.derived_bound = 0.5 + 2f64.powi(-24);
        let loose = [data[0], data[1], f32::from_bits(0x3F80_0001)];
        assert!(check_bound(bound, &header, &data, &loose).is_err());
        assert!(check_bound(bound, &header, &data, &data).is_err());
    }
}

/// §V-B: "the compression ratio decreases with a tighter error bound, as
/// one would expect", for every suite.
#[test]
fn ratio_monotone_across_suites() {
    for name in ["CESM-ATM", "NYX", "Miranda"] {
        let suite = suite_by_name(name, SizeClass::Tiny).unwrap();
        let field = &suite.fields[0];
        let mut prev = usize::MAX;
        for eb in [1e-1, 1e-2, 1e-3] {
            let len = match &field.data {
                FieldData::F32(v) => pfpl::compress(v, ErrorBound::Abs(eb), Mode::Serial)
                    .unwrap()
                    .len(),
                FieldData::F64(v) => pfpl::compress(v, ErrorBound::Abs(eb), Mode::Serial)
                    .unwrap()
                    .len(),
            };
            assert!(
                prev == usize::MAX || len + 64 >= prev,
                "{name}: ratio not monotone"
            );
            prev = len;
        }
    }
}

/// §III-B: the error-bound guarantee's compression-ratio cost is small
/// ("on average, lower by about 5%"): the number of losslessly stored
/// values at ABS 1e-3 stays a small fraction on smooth data.
#[test]
fn unquantizable_fraction_small_on_smooth_data() {
    let suite = suite_by_name("SCALE", SizeClass::Tiny).unwrap();
    for field in &suite.fields {
        let FieldData::F32(v) = &field.data else { unreachable!() };
        let (_, stats) =
            pfpl::compress_with_stats(v, ErrorBound::Abs(1e-3), Mode::Parallel).unwrap();
        assert!(
            stats.lossless_fraction() < 0.05,
            "{}: {:.3}%",
            field.name,
            stats.lossless_fraction() * 100.0
        );
    }
}
