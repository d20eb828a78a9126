//! Substrate microbenchmarks: decoupled look-back scan and warp/block
//! collectives. Nothing else times the device-sim substrate; the pipeline
//! itself is measured by the repository benchmark (`benchmark/run.py`).
//!
//! `cargo bench -p pfpl-bench --bench device_sim` prints the median
//! ns/iter over [`PAPER_RUNS`] samples of each collective.

use pfpl_data::timing::{median_seconds, PAPER_RUNS};
use pfpl_device_sim::block;
use pfpl_device_sim::grid;
use pfpl_device_sim::lookback::Lookback;
use pfpl_device_sim::warp;
use std::hint::black_box;

/// Print the median time of one call of `f`, each sample timing `iters`
/// back-to-back calls.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    f();
    let secs = median_seconds(PAPER_RUNS, || (0..iters).for_each(|_| f()));
    println!("{name:<32} {:>12.1} ns/iter", secs * 1e9 / f64::from(iters));
}

fn main() {
    let sizes: Vec<u64> = (0..1024u64).map(|i| i * 37 % 1000).collect();
    bench("lookback/1024-blocks-8-workers", 20, || {
        let lb = Lookback::new(1024);
        grid::launch(1024, 8, |i| {
            black_box(lb.run_block(i, sizes[i]));
        });
    });

    let mut block: [u32; 32] = std::array::from_fn(|i| (i as u32).wrapping_mul(2654435761));
    bench("warp/transpose32", 100_000, || {
        warp::transpose32(black_box(&mut block));
    });

    let vals: Vec<u64> = (0..4096u64).collect();
    bench("block/scan-4096", 1_000, || {
        let mut v = vals.clone();
        black_box(block::exclusive_scan_wrapping_u64(&mut v, 8));
    });
}
