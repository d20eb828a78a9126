//! Concurrency stress for the simulated-device substrate: decoupled
//! look-back under maximal contention, grid scheduling fairness, and
//! repeated end-to-end runs checking byte-stability under different
//! worker interleavings.

use pfpl::types::{ErrorBound, Mode};
use pfpl_device_sim::grid;
use pfpl_device_sim::lookback::Lookback;
use pfpl_device_sim::{configs, DeviceConfig, GpuDevice};
use std::sync::atomic::{AtomicU64, Ordering};

#[test]
fn lookback_heavy_contention() {
    // Many more blocks than workers with highly variable "work" per block
    // (simulated by extra spinning) so look-back chains get long.
    let n = 2000;
    let sizes: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 5000).collect();
    for round in 0..5 {
        let lb = Lookback::new(n);
        let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        grid::launch(n, 4 + round, |b| {
            // Variable delay before publishing: adversarial scheduling.
            for _ in 0..(b * 37 % 300) {
                std::hint::spin_loop();
            }
            out[b].store(lb.run_block(b, sizes[b]), Ordering::SeqCst);
        });
        let mut acc = 0u64;
        for b in 0..n {
            assert_eq!(
                out[b].load(Ordering::SeqCst),
                acc,
                "block {b} round {round}"
            );
            acc += sizes[b];
        }
    }
}

#[test]
fn grid_executes_exactly_once_under_many_workers() {
    let n = 5000;
    let counters: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    grid::launch(n, 16, |b| {
        counters[b].fetch_add(1, Ordering::Relaxed);
    });
    assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
}

#[test]
fn archives_stable_across_repeated_runs_and_worker_counts() {
    // Scheduling nondeterminism must never leak into the bytes.
    let data: Vec<f32> = (0..200_000)
        .map(|i| (i as f32 * 0.0013).sin() * 7.0 + (i as f32 * 0.00009).cos())
        .collect();
    let bound = ErrorBound::Abs(1e-3);
    let reference = pfpl::compress(&data, bound, Mode::Serial).unwrap();
    for run in 0..3 {
        for cfg in [configs::RTX_4090, configs::TITAN_XP] {
            let arch = GpuDevice::new(cfg).compress(&data, bound).unwrap();
            assert_eq!(arch, reference, "run {run} on {}", cfg.name);
        }
    }
}

#[test]
fn tiny_device_config_still_correct() {
    // A degenerate 1-SM device exercises the workers.min(blocks) clamp.
    let one_sm = DeviceConfig {
        name: "1-SM toy",
        sm_count: 1,
        cores_per_sm: 8,
        boost_clock_ghz: 0.5,
        max_threads_per_block: 256,
        mem_bw_gbs: 10.0,
    };
    let data: Vec<f64> = (0..30_000).map(|i| (i as f64 * 0.002).cos()).collect();
    let bound = ErrorBound::Rel(1e-4);
    let arch = GpuDevice::new(one_sm).compress(&data, bound).unwrap();
    assert_eq!(arch, pfpl::compress(&data, bound, Mode::Serial).unwrap());
    let back: Vec<f64> = GpuDevice::new(one_sm).decompress(&arch).unwrap();
    for (a, b) in data.iter().zip(&back) {
        assert!(((a - b) / a).abs() <= 1e-4);
    }
}

#[test]
fn gpu_decoder_rejects_corrupt_archives_gracefully() {
    let data: Vec<f32> = (0..50_000).map(|i| i as f32 * 0.25).collect();
    let arch = pfpl::compress(&data, ErrorBound::Abs(1e-2), Mode::Serial).unwrap();
    let dev = GpuDevice::new(configs::A100);
    for cut in [0, 10, 36, arch.len() / 2] {
        assert!(dev.decompress::<f32>(&arch[..cut]).is_err());
    }
    let mut bad = arch.clone();
    bad[40] ^= 0x55; // size table corruption
    let _ = dev.decompress::<f32>(&bad); // must not panic or deadlock
}
