//! Archiving a climate ensemble: the paper's motivating scenario (§I —
//! CESM-scale projects produce more data than can be stored raw).
//!
//! Compresses every variable of the synthetic CESM-ATM suite under a NOA
//! bound (the natural choice when one bound should serve variables at
//! different scales, §II-C), reports per-variable ratios, and shows the
//! §III-B statistics.
//!
//! ```sh
//! cargo run --release --example climate_archive
//! ```

use pfpl::{compress_with_stats, decompress_f32, ErrorBound, Mode};
use pfpl_data::metrics::{max_noa_err, psnr};
use pfpl_data::{suite_by_name, FieldData, SizeClass};

fn main() {
    let suite = suite_by_name("CESM-ATM", SizeClass::Small).expect("suite");
    let eb = 1e-3;
    println!(
        "CESM-ATM (synthetic): {} variables, {:.1} MB, NOA bound {eb}\n",
        suite.fields.len(),
        suite.byte_len() as f64 / 1e6
    );
    println!(
        "{:<14} {:>10} {:>8} {:>12} {:>10} {:>12}",
        "variable", "values", "ratio", "unquantable", "PSNR dB", "max NOA err"
    );

    let mut total_in = 0usize;
    let mut total_out = 0usize;
    for field in &suite.fields {
        let FieldData::F32(data) = &field.data else {
            unreachable!()
        };
        let (archive, stats) =
            compress_with_stats(data, ErrorBound::Noa(eb), Mode::Parallel).expect("compress");
        let restored = decompress_f32(&archive, Mode::Parallel).expect("decompress");
        let orig: Vec<f64> = data.iter().map(|&v| v as f64).collect();
        let recon: Vec<f64> = restored.iter().map(|&v| v as f64).collect();
        let err = max_noa_err(&orig, &recon);
        assert!(err <= eb * 1.000001, "bound violated: {err}");
        println!(
            "{:<14} {:>10} {:>8.1} {:>11.3}% {:>10.1} {:>12.2e}",
            field.name,
            field.len(),
            stats.ratio(),
            stats.lossless_fraction() * 100.0,
            psnr(&orig, &recon),
            err
        );
        total_in += field.byte_len();
        total_out += archive.len();
    }
    println!(
        "\nensemble: {:.1} MB → {:.1} MB ({:.1}x), every value within eb*range — guaranteed",
        total_in as f64 / 1e6,
        total_out as f64 / 1e6,
        total_in as f64 / total_out as f64
    );
}
