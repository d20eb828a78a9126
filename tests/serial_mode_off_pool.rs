//! `Mode::Serial` runs on the calling thread only: compressing,
//! decompressing and salvaging under every bound kind must never start a
//! pool worker. The input spans several 64 Ki-value NOA scan blocks, so a
//! range scan that ignored the mode would reach the pool on any host with
//! two or more cores.
//!
//! This file holds a single test: the pool is process-wide, and any other
//! test in the same binary could start it.

use pfpl::types::{ErrorBound, Mode};

#[test]
fn serial_mode_never_starts_a_pool_worker() {
    let data: Vec<f32> = (0..200_000)
        .map(|i| (i as f32 * 0.0013).sin() * 50.0 + 60.0)
        .collect();
    for bound in [
        ErrorBound::Abs(1e-3),
        ErrorBound::Rel(1e-3),
        ErrorBound::Noa(1e-4),
    ] {
        let archive = pfpl::compress(&data, bound, Mode::Serial).unwrap();
        let back: Vec<f32> = pfpl::decompress(&archive, Mode::Serial).unwrap();
        let (salvaged, report) =
            pfpl::decompress_salvage(&archive, Mode::Serial, f32::NAN).unwrap();
        assert_eq!(back.len(), data.len());
        assert!(report.chunks.iter().all(|c| c.status.is_ok()));
        assert_eq!(salvaged.len(), data.len());
        assert_eq!(
            rayon::pool_thread_count(),
            0,
            "{bound:?}: Mode::Serial started a pool worker"
        );
    }
}
