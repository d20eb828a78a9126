//! Streaming-API contracts across crates: push-pattern independence,
//! equivalence with one-shot compression, interoperability with the
//! simulated GPU decoder.

use pfpl::types::{ErrorBound, Mode};
use pfpl::StreamCompressor;
use pfpl_data::{suite_by_name, FieldData, SizeClass};
use pfpl_device_sim::{configs, GpuDevice};
use proptest::prelude::*;

#[test]
fn streamed_suite_archives_interoperate() {
    let suite = suite_by_name("SCALE", SizeClass::Tiny).unwrap();
    for field in &suite.fields {
        let FieldData::F32(data) = &field.data else {
            unreachable!()
        };
        let bound = ErrorBound::Abs(1e-3);
        let mut enc = StreamCompressor::<f32>::new(bound).unwrap();
        for piece in data.chunks(777) {
            enc.push(piece);
        }
        let (archive, stats) = enc.finish();
        assert_eq!(stats.total_values as usize, data.len());
        // One-shot equivalence.
        let whole = pfpl::compress(data, bound, Mode::Parallel).unwrap();
        assert_eq!(archive, whole, "{}", field.name);
        // The simulated GPU decodes a streamed archive bit-identically.
        let gpu = GpuDevice::new(configs::RTX_4090);
        let via_gpu: Vec<f32> = gpu.decompress(&archive).unwrap();
        let via_cpu: Vec<f32> = pfpl::decompress(&archive, Mode::Serial).unwrap();
        assert_eq!(
            via_gpu.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            via_cpu.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

#[test]
fn chunk_iterator_handles_every_bound_kind() {
    let data: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.01).sin() * 3.0).collect();
    for bound in [
        ErrorBound::Abs(1e-6),
        ErrorBound::Rel(1e-6),
        ErrorBound::Noa(1e-6),
    ] {
        let archive = pfpl::compress(&data, bound, Mode::Serial).unwrap();
        let whole: Vec<f64> = pfpl::decompress(&archive, Mode::Serial).unwrap();
        let streamed: Vec<f64> = pfpl::decompress_chunks::<f64>(&archive)
            .unwrap()
            .flat_map(|c| c.unwrap())
            .collect();
        assert_eq!(
            whole.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            streamed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{bound:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Push-pattern independence: any partitioning of the input produces
    /// the same archive.
    #[test]
    fn any_push_pattern_same_archive(
        data in prop::collection::vec(-50f32..50.0, 1..30_000),
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
    ) {
        let bound = ErrorBound::Rel(1e-3);
        let reference = pfpl::compress(&data, bound, Mode::Serial).unwrap();
        let mut positions: Vec<usize> = cuts.iter().map(|c| c.index(data.len())).collect();
        positions.push(0);
        positions.push(data.len());
        positions.sort_unstable();
        let mut enc = StreamCompressor::<f32>::new(bound).unwrap();
        for w in positions.windows(2) {
            enc.push(&data[w[0]..w[1]]);
        }
        let (archive, _) = enc.finish();
        prop_assert_eq!(archive, reference);
    }
}
