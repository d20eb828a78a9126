//! `pfpl verify -a <archive> -i <raw floats>`: the bound check at the CLI
//! surface. Every precision and bound kind verifies clean after a round
//! trip; a raw input perturbed beyond the bound exits 1 and names the
//! first violating value. The `compress` and `decompress` summaries name
//! the lossless kernels that ran.

use std::path::PathBuf;
use std::process::{Command, Output};

fn pfpl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pfpl"))
        .args(args)
        .output()
        .expect("run pfpl")
}

fn tmp(name: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-verify");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_owned()
}

/// Smooth positive data (10..70), as little-endian `f32` or `f64` words,
/// with value `scaled` multiplied by `factor`.
fn raw(double: bool, scaled: usize, factor: f64) -> Vec<u8> {
    (0..20_000)
        .map(|i| (i as f64 * 0.01).sin() * 30.0 + 40.0)
        .enumerate()
        .flat_map(|(i, v)| {
            let v = if i == scaled { v * factor } else { v };
            if double {
                v.to_le_bytes().to_vec()
            } else {
                (v as f32).to_le_bytes().to_vec()
            }
        })
        .collect()
}

#[test]
fn verify_accepts_round_trips_and_names_violations() {
    for (ty, double) in [("f32", false), ("f64", true)] {
        for bound in ["abs", "rel", "noa"] {
            let tag = format!("{ty}-{bound}");
            let (input, archive, bad) = (
                tmp(&format!("{tag}.raw")),
                tmp(&format!("{tag}.pfpl")),
                tmp(&format!("{tag}.bad.raw")),
            );
            std::fs::write(&input, raw(double, usize::MAX, 1.0)).unwrap();
            let out = pfpl(&[
                "compress", "-i", &input, "-o", &archive, "--type", ty, "--bound", bound, "--eb",
                "1e-3",
            ]);
            assert!(out.status.success(), "{tag}: compress failed: {out:?}");

            let out = pfpl(&["verify", "-a", &archive, "-i", &input]);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(0), "{tag}: {out:?}");
            assert!(
                stdout.starts_with("OK: 20000 values within"),
                "{tag}: {stdout}"
            );

            // Value 100 grows by half: far beyond 1e-3 under every kind.
            std::fs::write(&bad, raw(double, 100, 1.5)).unwrap();
            let out = pfpl(&["verify", "-a", &archive, "-i", &bad]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{tag}: {out:?}");
            assert!(
                stderr.contains("BOUND VIOLATED: value 100:"),
                "{tag}: {stderr}"
            );
        }
    }
}

/// The `compress` and `decompress` summary lines end with the SIMD
/// kernels that ran.
#[test]
fn summaries_name_the_kernels_that_ran() {
    let kernels = format!(
        ", transpose {}, zero-elim {}, checksum {}, delta {}",
        pfpl::lossless::shuffle::tile_kernel(),
        pfpl::lossless::zeroelim::line_kernel(),
        pfpl::checksum::batch_kernel(),
        pfpl::lossless::delta::decode_kernel()
    );
    let (input, archive, output) = (tmp("kern.raw"), tmp("kern.pfpl"), tmp("kern.out.raw"));
    std::fs::write(&input, raw(false, usize::MAX, 1.0)).unwrap();
    for args in [
        &[
            "compress", "-i", &input, "-o", &archive, "--type", "f32", "--bound", "abs", "--eb",
            "1e-3",
        ][..],
        &["decompress", "-i", &archive, "-o", &output],
    ] {
        let out = pfpl(args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.trim_end().ends_with(&kernels), "{args:?}: {stdout}");
    }
}
