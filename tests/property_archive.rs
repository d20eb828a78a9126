//! Property tests over the whole public surface: arbitrary inputs, all
//! bound types, archive fuzzing.

use pfpl::container::Toc;
use pfpl::float::PfplFloat;
use pfpl::types::{ErrorBound, Mode};
use proptest::prelude::*;

/// [`pfpl::exact::check_bound`]'s verdict on `back`, the decode of
/// `archive`, which compressed `orig` under `bound`.
fn verdict<F: PfplFloat>(
    bound: ErrorBound,
    archive: &[u8],
    orig: &[F],
    back: &[F],
) -> Result<(), String> {
    let header = Toc::read(archive).map_err(|e| e.to_string())?.header;
    pfpl::exact::check_bound(bound, &header, orig, back)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ABS bound holds for completely arbitrary finite f32 vectors.
    #[test]
    fn abs_guarantee_arbitrary_data(
        data in prop::collection::vec(-1e6f32..1e6, 0..20_000),
        eb_exp in -6i32..0,
    ) {
        let bound = ErrorBound::Abs(10f64.powi(eb_exp));
        let arch = pfpl::compress(&data, bound, Mode::Parallel).unwrap();
        let back: Vec<f32> = pfpl::decompress(&arch, Mode::Parallel).unwrap();
        prop_assert_eq!(verdict(bound, &arch, &data, &back), Ok(()));
    }

    /// REL bound + sign preservation for arbitrary bit patterns
    /// (NaN/Inf/denormals included).
    #[test]
    fn rel_guarantee_arbitrary_bits(
        bits in prop::collection::vec(any::<u32>(), 0..8_192),
        eb_exp in -5i32..-1,
    ) {
        let bound = ErrorBound::Rel(10f64.powi(eb_exp));
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let arch = pfpl::compress(&data, bound, Mode::Serial).unwrap();
        let back: Vec<f32> = pfpl::decompress(&arch, Mode::Serial).unwrap();
        prop_assert_eq!(verdict(bound, &arch, &data, &back), Ok(()));
    }

    /// f64 ABS with arbitrary bit patterns.
    #[test]
    fn abs_guarantee_arbitrary_bits_f64(
        bits in prop::collection::vec(any::<u64>(), 0..4_096),
        eb_exp in -12i32..0,
    ) {
        let bound = ErrorBound::Abs(10f64.powi(eb_exp));
        let data: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let arch = pfpl::compress(&data, bound, Mode::Parallel).unwrap();
        let back: Vec<f64> = pfpl::decompress(&arch, Mode::Parallel).unwrap();
        prop_assert_eq!(verdict(bound, &arch, &data, &back), Ok(()));
    }

    /// Serial / parallel / GPU produce identical archives on random data.
    #[test]
    fn implementations_agree(
        data in prop::collection::vec(-1e3f32..1e3, 0..30_000),
        eb_exp in -4i32..-1,
    ) {
        let bound = ErrorBound::Abs(10f64.powi(eb_exp));
        let serial = pfpl::compress(&data, bound, Mode::Serial).unwrap();
        let parallel = pfpl::compress(&data, bound, Mode::Parallel).unwrap();
        prop_assert_eq!(&serial, &parallel);
        let gpu = pfpl_device_sim::GpuDevice::new(pfpl_device_sim::configs::A100);
        let gpu_arch = gpu.compress(&data, bound).unwrap();
        prop_assert_eq!(&serial, &gpu_arch);
    }

    /// Fuzz: mutating archive bytes must never panic the decoder — it
    /// either errors or returns values (garbage is fine; crashes are not).
    #[test]
    fn decoder_never_panics_on_corruption(
        seed_data in prop::collection::vec(-100f32..100.0, 100..5_000),
        flips in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
    ) {
        let mut arch = pfpl::compress(&seed_data, ErrorBound::Abs(1e-2), Mode::Serial).unwrap();
        for (idx, x) in flips {
            let i = idx.index(arch.len());
            arch[i] ^= x;
        }
        let _ = pfpl::decompress::<f32>(&arch, Mode::Serial);
        let _ = pfpl::decompress::<f32>(&arch, Mode::Parallel);
    }

    /// Truncation fuzz for the decoder.
    #[test]
    fn decoder_never_panics_on_truncation(
        seed_data in prop::collection::vec(-100f32..100.0, 100..2_000),
        cut_at in any::<prop::sample::Index>(),
    ) {
        let arch = pfpl::compress(&seed_data, ErrorBound::Rel(1e-2), Mode::Serial).unwrap();
        let cut = cut_at.index(arch.len());
        let _ = pfpl::decompress::<f32>(&arch[..cut], Mode::Serial);
    }
}
