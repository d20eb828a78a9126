//! Why "guaranteed" matters (§I issue 1): run PFPL and two baselines over
//! an adversarial input — bin-boundary values, mixed magnitudes, a huge
//! spike, NaNs, infinities, denormals — and compare the *actual* maximum
//! errors against the requested bound.
//!
//! ```sh
//! cargo run --release --example bound_audit
//! ```

use pfpl::types::{ErrorBound, Mode};
use pfpl_baselines::{cuszp::CuSzp, sz2::Sz2, Compressor};
use pfpl_data::metrics::{classify, max_abs_err, max_rel_err, BoundAdherence};

fn adversarial() -> Vec<f32> {
    let mut data: Vec<f32> = (0..4096)
        .map(|i| (i as f32) * 1e-3 + (i as f32 * 0.013).sin() * 0.1)
        .collect();
    data[100] = 2.7e12; // cuSZp overflow trap
    data[200] = f32::MIN_POSITIVE / 8.0; // denormal
    data[300] = -0.0;
    data
}

fn main() {
    let eb = 1e-3;
    let data = adversarial();
    println!(
        "adversarial input: 4096 values incl. bin-boundary points, a 2.7e12 spike, denormals\n"
    );

    // PFPL (with NaN/Inf added — the baselines cannot even ingest those).
    let mut with_specials = data.clone();
    with_specials[400] = f32::NAN;
    with_specials[500] = f32::INFINITY;
    let arch = pfpl::compress(&with_specials, ErrorBound::Abs(eb), Mode::Parallel).unwrap();
    let back: Vec<f32> = pfpl::decompress(&arch, Mode::Parallel).unwrap();
    let finite_err = with_specials
        .iter()
        .zip(&back)
        .filter(|(a, _)| a.is_finite())
        .map(|(a, b)| (*a as f64 - *b as f64).abs())
        .fold(0.0, f64::max);
    assert!(back[400].is_nan() && back[500] == f32::INFINITY);
    report("PFPL (ABS)", finite_err, eb);

    // SZ2 ABS: verified quantizer → adheres.
    let arch = Sz2
        .compress_f32(&data, &[4096], ErrorBound::Abs(eb))
        .unwrap();
    let back = Sz2.decompress_f32(&arch).unwrap();
    report("SZ2 (ABS)", pair_abs_err(&data, &back), eb);

    // SZ2 REL: unverified log transform → violations (as in the paper).
    let arch = Sz2
        .compress_f32(&data, &[4096], ErrorBound::Rel(eb))
        .unwrap();
    let back = Sz2.decompress_f32(&arch).unwrap();
    let orig: Vec<f64> = data.iter().map(|&v| v as f64).collect();
    let recon: Vec<f64> = back.iter().map(|&v| v as f64).collect();
    report("SZ2 (REL)", max_rel_err(&orig, &recon), eb);

    // PFPL REL on the same data: guaranteed.
    let arch = pfpl::compress(&data, ErrorBound::Rel(eb), Mode::Parallel).unwrap();
    let back: Vec<f32> = pfpl::decompress(&arch, Mode::Parallel).unwrap();
    let recon: Vec<f64> = back.iter().map(|&v| v as f64).collect();
    report("PFPL (REL)", max_rel_err(&orig, &recon), eb);

    // cuSZp ABS: prequantization overflows on the spike → major violation.
    let arch = CuSzp
        .compress_f32(&data, &[4096], ErrorBound::Abs(eb))
        .unwrap();
    let back = CuSzp.decompress_f32(&arch).unwrap();
    report("cuSZp (ABS)", pair_abs_err(&data, &back), eb);
}

fn pair_abs_err(a: &[f32], b: &[f32]) -> f64 {
    let orig: Vec<f64> = a.iter().map(|&v| v as f64).collect();
    let recon: Vec<f64> = b.iter().map(|&v| v as f64).collect();
    max_abs_err(&orig, &recon)
}

fn report(name: &str, err: f64, eb: f64) {
    let verdict = match classify(err, eb) {
        BoundAdherence::Respected => "respected ✓",
        BoundAdherence::MinorViolation => "MINOR VIOLATION (<1.5x)",
        BoundAdherence::MajorViolation => "MAJOR VIOLATION (>=1.5x)",
    };
    println!("{name:<14} max error {err:>12.4e} vs bound {eb:.0e}  → {verdict}");
}
