//! Order statistics used for every reported figure.

/// Sorted copy of `xs` (total order; NaN never occurs in timings).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the default "exclusive"
/// method), so the steadiness check and the benchmark agree.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    assert!(ld >= 1, "quartiles of no samples");
    if ld == 1 {
        return [v[0]; 3];
    }
    // Signed, like Python's integers: with two samples `delta` is
    // negative and the outer quartiles extrapolate.
    let (ld, m) = (ld as i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (k, o) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *o = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Percentiles considered for the tail, highest first.
const TAIL_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile of
/// [`TAIL_LADDER`] that still has at least [`TAIL_MIN_BEYOND`] samples
/// strictly beyond its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.0`.
    pub percentile: f64,
    /// The sample at that percentile's nearest rank.
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
    /// Number of samples ranked beyond it.
    pub beyond: usize,
    /// Windows the value is the median over (1 for a plain tail).
    pub windows: usize,
}

/// Highest-percentile tail with at least ten samples beyond it, by
/// nearest rank; `None` when there are too few samples for even the
/// median to qualify.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
        let beyond = n.checked_sub(rank)?;
        (rank <= n && beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            samples: n,
            beyond,
            windows: 1,
        })
    })
}

/// A tail that a burst of interference cannot move: cut the samples, in
/// time order, into consecutive windows of `window` samples, take the
/// [`tail`] of each full window, and report the median of their values.
/// The last, incomplete window is left out; with fewer samples than one
/// window, the plain tail of all of them.
pub fn windowed_tail(xs: &[f64], window: usize) -> Option<Tail> {
    let windows: Vec<Tail> = xs.chunks_exact(window).filter_map(tail).collect();
    let Some(first) = windows.first() else {
        return tail(xs);
    };
    let values: Vec<f64> = windows.iter().map(|t| t.value).collect();
    Some(Tail {
        value: median(&values),
        windows: windows.len(),
        ..*first
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([0.1, 0.4, 0.2, 0.8, 1.6], n=4)
        //   == [0.15000000000000002, 0.4, 1.2000000000000002]
        let q = quartiles(&[0.1, 0.4, 0.2, 0.8, 1.6]);
        assert!((q[0] - 0.15).abs() < 1e-12 && q[1] == 0.4 && (q[2] - 1.2).abs() < 1e-12);
        assert_eq!(quartiles(&[9.0]), [9.0; 3]);
    }

    #[test]
    fn median_of_quartiles_is_the_median() {
        let xs = [0.3, 9.1, 2.2, 4.4, 5.0, 1.7, 8.8];
        assert_eq!(quartiles(&xs)[1], median(&xs));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 ranks 990th, leaving exactly 10 beyond; p99.9
        // would leave 1.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.samples, t.beyond),
            (99.0, 990.0, 1000, 10)
        );

        // 999 samples: p99 would leave 9 beyond, so fall back to p95.
        let t = tail(&xs[..999]).unwrap();
        assert_eq!((t.percentile, t.beyond), (95.0, 49));

        // 200 samples: p95 leaves exactly 10.
        let t = tail(&xs[..200]).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
    }

    #[test]
    fn tail_needs_enough_samples() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        // p50 of 20 ranks 10th with 10 beyond.
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 10));
        assert_eq!(tail(&xs[..19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn windowed_tail_takes_the_median_of_window_tails() {
        // Windows of 40 hold p75 with 10 beyond. A burst of huge outliers
        // moves one window's tail, not the median over the windows.
        let base: Vec<f64> = (1..=40).map(f64::from).collect();
        let mut xs = base.repeat(3);
        xs[..40].iter_mut().for_each(|x| *x *= 100.0);
        xs.extend_from_slice(&base[..25]);
        let t = windowed_tail(&xs, 40).unwrap();
        assert_eq!(
            (t.percentile, t.samples, t.beyond, t.windows),
            (75.0, 40, 10, 3)
        );
        // Window tails 3000, 30, 30; the incomplete last window is left out.
        assert_eq!(t.value, 30.0);
        // Over all 145 samples the burst would set a p90 of 2600.
        assert_eq!(
            tail(&xs).map(|t| (t.percentile, t.value)),
            Some((90.0, 2600.0))
        );
    }

    #[test]
    fn windowed_tail_with_few_samples_is_the_plain_tail() {
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(windowed_tail(&xs, 40), tail(&xs));
        assert_eq!(windowed_tail(&[], 40), None);
    }

    #[test]
    fn tail_is_order_independent() {
        let mut xs: Vec<f64> = (0..500).map(|i| ((i * 7919) % 500) as f64).collect();
        let a = tail(&xs).unwrap();
        xs.reverse();
        assert_eq!(tail(&xs).unwrap(), a);
    }
}
