//! Cross-crate integration: PFPL (3 implementations) × synthetic suites ×
//! bound types, with the paper's headline properties asserted end-to-end:
//! bit-identical archives everywhere, guaranteed bounds everywhere.

use pfpl::container::Toc;
use pfpl::float::PfplFloat;
use pfpl::types::{ErrorBound, Mode};
use pfpl_data::{all_suites, FieldData, SizeClass};
use pfpl_device_sim::{configs, GpuDevice};

/// The full grid: every suite, every bound type, one bound magnitude,
/// asserting ratio sanity, the error bound, and cross-implementation
/// byte identity.
#[test]
fn all_suites_all_bounds_guaranteed_and_identical() {
    let gpu = GpuDevice::new(configs::RTX_4090);
    for suite in all_suites(SizeClass::Tiny) {
        for bound in [
            ErrorBound::Abs(1e-3),
            ErrorBound::Rel(1e-3),
            ErrorBound::Noa(1e-3),
        ] {
            for field in &suite.fields {
                match &field.data {
                    FieldData::F32(data) => {
                        let serial = pfpl::compress(data, bound, Mode::Serial).unwrap();
                        let parallel = pfpl::compress(data, bound, Mode::Parallel).unwrap();
                        let gpu_arch = gpu.compress(data, bound).unwrap();
                        assert_eq!(serial, parallel, "{}/{} {bound:?}", suite.name, field.name);
                        assert_eq!(serial, gpu_arch, "{}/{} {bound:?}", suite.name, field.name);

                        let recon: Vec<f32> = pfpl::decompress(&serial, Mode::Parallel).unwrap();
                        let recon_gpu: Vec<f32> = gpu.decompress(&serial).unwrap();
                        assert!(recon
                            .iter()
                            .zip(&recon_gpu)
                            .all(|(a, b)| a.to_bits() == b.to_bits()));
                        check_bound(&serial, data, &recon, bound, suite.name, &field.name);
                    }
                    FieldData::F64(data) => {
                        let serial = pfpl::compress(data, bound, Mode::Serial).unwrap();
                        let gpu_arch = gpu.compress(data, bound).unwrap();
                        assert_eq!(serial, gpu_arch);
                        let recon: Vec<f64> = pfpl::decompress(&serial, Mode::Serial).unwrap();
                        check_bound(&serial, data, &recon, bound, suite.name, &field.name);
                    }
                }
            }
        }
    }
}

/// Every value of `recon` within `bound` of `orig`, decided exactly
/// against `archive`'s header ([`pfpl::exact::check_bound`]).
fn check_bound<F: PfplFloat>(
    archive: &[u8],
    orig: &[F],
    recon: &[F],
    bound: ErrorBound,
    suite: &str,
    field: &str,
) {
    let header = Toc::read(archive).unwrap().header;
    if let Err(e) = pfpl::exact::check_bound(bound, &header, orig, recon) {
        panic!("{suite}/{field} {bound:?}: {e}");
    }
}

/// Smooth suites must actually compress well at the paper's mid bound.
#[test]
fn smooth_suites_compress() {
    for name in ["CESM-ATM", "Miranda", "SCALE"] {
        let suite = pfpl_data::suite_by_name(name, SizeClass::Tiny).unwrap();
        for field in &suite.fields {
            let ratio = match &field.data {
                FieldData::F32(v) => {
                    let a = pfpl::compress(v, ErrorBound::Abs(1e-2), Mode::Parallel).unwrap();
                    field.byte_len() as f64 / a.len() as f64
                }
                FieldData::F64(v) => {
                    let a = pfpl::compress(v, ErrorBound::Abs(1e-2), Mode::Parallel).unwrap();
                    field.byte_len() as f64 / a.len() as f64
                }
            };
            assert!(ratio > 3.0, "{}/{}: ratio {ratio:.2}", name, field.name);
        }
    }
}

/// Tighter bounds must never produce better ratios (monotonicity).
#[test]
fn ratio_monotone_in_bound() {
    let suite = pfpl_data::suite_by_name("SCALE", SizeClass::Tiny).unwrap();
    let FieldData::F32(data) = &suite.fields[0].data else {
        panic!()
    };
    let mut prev = 0usize;
    for eb in [1e-1, 1e-2, 1e-3, 1e-4] {
        let len = pfpl::compress(data, ErrorBound::Abs(eb), Mode::Parallel)
            .unwrap()
            .len();
        assert!(
            len + 64 >= prev,
            "tightening the bound to {eb} shrank the archive: {len} < {prev}"
        );
        prev = len;
    }
}

/// Every GPU generation config produces the same bytes (the §V-F devices
/// differ in speed, never in output).
#[test]
fn gpu_generations_bit_identical() {
    let suite = pfpl_data::suite_by_name("Hurricane Isabel", SizeClass::Tiny).unwrap();
    let FieldData::F32(data) = &suite.fields[0].data else {
        panic!()
    };
    let reference = pfpl::compress(data, ErrorBound::Abs(1e-2), Mode::Serial).unwrap();
    for cfg in configs::ALL_DEVICES {
        let arch = GpuDevice::new(cfg)
            .compress(data, ErrorBound::Abs(1e-2))
            .unwrap();
        assert_eq!(arch, reference, "{}", cfg.name);
    }
}

/// Decompressed output is itself stable: recompressing a reconstruction
/// under the same bound yields the same reconstruction.
#[test]
fn recompression_stable() {
    let suite = pfpl_data::suite_by_name("NYX", SizeClass::Tiny).unwrap();
    let FieldData::F32(data) = &suite.fields[0].data else {
        panic!()
    };
    let bound = ErrorBound::Rel(1e-2);
    let a1 = pfpl::compress(data, bound, Mode::Parallel).unwrap();
    let r1: Vec<f32> = pfpl::decompress(&a1, Mode::Parallel).unwrap();
    let a2 = pfpl::compress(&r1, bound, Mode::Parallel).unwrap();
    let r2: Vec<f32> = pfpl::decompress(&a2, Mode::Parallel).unwrap();
    assert!(r1.iter().zip(&r2).all(|(a, b)| a.to_bits() == b.to_bits()));
}
