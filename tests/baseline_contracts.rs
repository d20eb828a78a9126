//! Contract tests for the seven baselines: every compressor round-trips
//! the synthetic suites within its *declared* guarantees, reports
//! unsupported combinations as such, and the guaranteed ones actually
//! guarantee.

use pfpl::types::{BoundKind, ErrorBound};
use pfpl_baselines::{all_baselines, BaselineError, Compressor, Support};
use pfpl_data::metrics::{max_abs_err, max_noa_err};
use pfpl_data::{suite_by_name, FieldData, SizeClass};

#[test]
fn table_three_has_eight_rows() {
    let names: Vec<String> = all_baselines()
        .iter()
        .map(|c| c.capabilities().name.to_string())
        .collect();
    assert_eq!(
        names,
        vec![
            "ZFP",
            "SZ2",
            "SZ3_Serial",
            "SZ3_OMP",
            "MGARD-X",
            "SPERR",
            "FZ-GPU",
            "cuSZp"
        ]
    );
}

/// Guaranteed-ABS compressors keep the bound on every 3D suite field.
#[test]
fn guaranteed_abs_baselines_hold_the_bound() {
    let suite = suite_by_name("Hurricane Isabel", SizeClass::Tiny).unwrap();
    let eb = 1e-2;
    for c in all_baselines() {
        let caps = c.capabilities();
        if caps.abs != Support::Guaranteed {
            continue;
        }
        for field in &suite.fields {
            let FieldData::F32(data) = &field.data else {
                unreachable!()
            };
            let arch = match c.compress_f32(data, &field.dims, ErrorBound::Abs(eb)) {
                Ok(a) => a,
                Err(BaselineError::Unsupported(_)) => continue,
                Err(e) => panic!("{}: {e}", caps.name),
            };
            let back = c.decompress_f32(&arch).unwrap();
            let orig: Vec<f64> = data.iter().map(|&v| v as f64).collect();
            let recon: Vec<f64> = back.iter().map(|&v| v as f64).collect();
            let err = max_abs_err(&orig, &recon);
            assert!(
                err <= eb * (1.0 + 1e-9),
                "{} violated its guaranteed ABS bound: {err}",
                caps.name
            );
        }
    }
}

/// Every supported combination round-trips to the right length, and the
/// error stays at least loosely bounded (sanity even for ○ entries).
#[test]
fn all_baselines_roundtrip_on_3d_suite() {
    let suite = suite_by_name("SCALE", SizeClass::Tiny).unwrap();
    let field = &suite.fields[0];
    let FieldData::F32(data) = &field.data else {
        unreachable!()
    };
    let eb = 1e-2;
    for c in all_baselines() {
        let caps = c.capabilities();
        for kind in [BoundKind::Abs, BoundKind::Noa] {
            if caps.support(kind) == Support::No {
                continue;
            }
            let bound = ErrorBound::new(kind, eb);
            let arch = match c.compress_f32(data, &field.dims, bound) {
                Ok(a) => a,
                Err(BaselineError::Unsupported(_)) => continue,
                Err(e) => panic!("{} {kind:?}: {e}", caps.name),
            };
            let back = c.decompress_f32(&arch).unwrap();
            assert_eq!(back.len(), data.len(), "{} {kind:?}", caps.name);
            let orig: Vec<f64> = data.iter().map(|&v| v as f64).collect();
            let recon: Vec<f64> = back.iter().map(|&v| v as f64).collect();
            let err = match kind {
                BoundKind::Abs => max_abs_err(&orig, &recon) / eb,
                BoundKind::Noa => max_noa_err(&orig, &recon) / eb,
                BoundKind::Rel => unreachable!(),
            };
            // Even unguaranteed codecs should be within a loose factor on
            // benign smooth data.
            assert!(err <= 30.0, "{} {kind:?}: err/eb = {err}", caps.name);
        }
    }
}

/// Declared-unsupported combinations must return Unsupported, not garbage.
#[test]
fn unsupported_combinations_are_reported() {
    let data = vec![1.0f32; 64];
    for c in all_baselines() {
        let caps = c.capabilities();
        if caps.rel == Support::No {
            let r = c.compress_f32(&data, &[4, 4, 4], ErrorBound::Rel(1e-3));
            assert!(
                matches!(r, Err(BaselineError::Unsupported(_))),
                "{} should reject REL",
                caps.name
            );
        }
        if !caps.double {
            let r = c.compress_f64(&[1.0; 64], &[4, 4, 4], ErrorBound::Noa(1e-3));
            assert!(
                matches!(r, Err(BaselineError::Unsupported(_))),
                "{} should reject double precision",
                caps.name
            );
        }
    }
}

/// Archive truncation never panics any baseline decoder.
#[test]
fn truncated_archives_error_not_panic() {
    let suite = suite_by_name("SCALE", SizeClass::Tiny).unwrap();
    let field = &suite.fields[0];
    let FieldData::F32(data) = &field.data else {
        unreachable!()
    };
    for c in all_baselines() {
        let caps = c.capabilities();
        let bound = if caps.abs != Support::No {
            ErrorBound::Abs(1e-2)
        } else {
            ErrorBound::Noa(1e-2)
        };
        let Ok(arch) = c.compress_f32(data, &field.dims, bound) else {
            continue;
        };
        for cut in [0usize, 1, 8, 16, arch.len() / 3, arch.len() - 1] {
            let _ = c.decompress_f32(&arch[..cut]); // must not panic
        }
    }
}

/// Ratio ordering on smooth data reflects the paper's Pareto story:
/// SZ3_Serial compresses hardest, PFPL sits between SZ and the
/// throughput-oriented GPU codes.
#[test]
fn ratio_ordering_matches_paper_shape() {
    use pfpl::types::Mode;
    let suite = suite_by_name("CESM-ATM", SizeClass::Tiny).unwrap();
    let field = &suite.fields[0];
    let FieldData::F32(data) = &field.data else {
        unreachable!()
    };
    let eb = ErrorBound::Abs(1e-2);

    let pfpl_len = pfpl::compress(data, eb, Mode::Parallel).unwrap().len();
    let sz3 = pfpl_baselines::sz3::Sz3::serial();
    let sz3_len = sz3.compress_f32(data, &field.dims, eb).unwrap().len();
    let cuszp = pfpl_baselines::cuszp::CuSzp;
    let cuszp_len = cuszp.compress_f32(data, &field.dims, eb).unwrap().len();

    assert!(
        sz3_len < pfpl_len,
        "SZ3_Serial should out-compress PFPL (paper §V-B): sz3={sz3_len} pfpl={pfpl_len}"
    );
    assert!(
        pfpl_len < cuszp_len,
        "PFPL should out-compress the fixed-length GPU code: pfpl={pfpl_len} cuszp={cuszp_len}"
    );
}
