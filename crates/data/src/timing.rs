//! Timing helpers matching the paper's methodology (§IV): each experiment
//! runs 9 times and the *median* throughput is reported; throughput is the
//! uncompressed size divided by the runtime (higher is better).

use std::time::Instant;

/// Number of repetitions per measurement in the paper.
pub const PAPER_RUNS: usize = 9;

/// Run `f` `runs` times, returning the median wall-clock seconds.
pub fn median_seconds<F: FnMut()>(runs: usize, mut f: F) -> f64 {
    assert!(runs >= 1);
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Throughput in GB/s for `bytes` processed in `seconds`.
pub fn throughput_gbs(bytes: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return f64::INFINITY;
    }
    bytes as f64 / seconds / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_robust() {
        let mut calls = 0;
        let t = median_seconds(5, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert_eq!(calls, 5);
        assert!(t >= 0.001);
    }

    #[test]
    fn throughput_math() {
        assert!((throughput_gbs(2_000_000_000, 1.0) - 2.0).abs() < 1e-12);
        assert_eq!(throughput_gbs(100, 0.0), f64::INFINITY);
    }
}
