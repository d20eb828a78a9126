//! Sweep machinery: (participant × suite × bound) grids, median-of-N
//! timing, geo-mean-of-geo-means aggregation (§IV), table/CSV output.

use crate::args::{Args, Op};
use crate::participants::Participant;
use pfpl::types::ErrorBound;
use pfpl_data::metrics::geomean_of_geomeans;
use pfpl_data::timing::{median_seconds, throughput_gbs};
use pfpl_data::Suite;

/// One aggregated data point (one marker in a figure).
#[derive(Debug, Clone)]
pub struct Row {
    /// Compressor label.
    pub name: String,
    /// Device side label.
    pub side: &'static str,
    /// Error bound.
    pub eb: f64,
    /// Geo-mean-of-geo-means compression ratio.
    pub ratio: f64,
    /// Geo-mean-of-geo-means throughput (GB/s) for the requested op.
    pub gbs: f64,
    /// Number of files included (a compressor missing from a figure has 0).
    pub files: usize,
}

/// Sweep every participant over every field of every suite at each bound,
/// and aggregate. Fields a participant does not support are skipped, which
/// reproduces the paper's per-figure exclusions.
pub fn run_matrix(
    suites: &[Suite],
    participants: &[Participant],
    bounds: &[f64],
    make_bound: impl Fn(f64) -> ErrorBound,
    args: &Args,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for p in participants {
        for &eb in bounds {
            let bound = make_bound(eb);
            let mut suite_ratios: Vec<Vec<f64>> = Vec::new();
            let mut suite_gbs: Vec<Vec<f64>> = Vec::new();
            let mut files = 0usize;
            for suite in suites {
                let mut ratios = Vec::new();
                let mut gbs = Vec::new();
                for field in &suite.fields {
                    let Ok(Some(archive)) = p.compress(field, bound) else {
                        continue;
                    };
                    files += 1;
                    ratios.push(field.byte_len() as f64 / archive.len() as f64);
                    let secs = match args.op {
                        Op::Compress => median_seconds(args.runs, || {
                            let _ = p.compress(field, bound);
                        }),
                        Op::Decompress => median_seconds(args.runs, || {
                            p.decompress_timed(&archive, suite.double);
                        }),
                    };
                    gbs.push(throughput_gbs(field.byte_len(), secs));
                }
                if !ratios.is_empty() {
                    suite_ratios.push(ratios);
                    suite_gbs.push(gbs);
                }
            }
            if files == 0 {
                continue;
            }
            rows.push(Row {
                name: p.name.clone(),
                side: p.side.label(),
                eb,
                ratio: geomean_of_geomeans(&suite_ratios),
                gbs: geomean_of_geomeans(&suite_gbs),
                files,
            });
        }
    }
    rows
}

/// Print rows as an aligned table or CSV, with a Pareto-front marker per
/// bound (a row is Pareto-optimal if no other row at the same bound beats
/// it in both ratio and throughput — the light-blue front in the figures).
pub fn print_rows(title: &str, rows: &[Row], args: &Args) {
    if args.csv {
        println!("compressor,side,eb,ratio,gbs,files,pareto");
        for r in rows {
            println!(
                "{},{},{:.0e},{:.4},{:.6},{},{}",
                r.name,
                r.side,
                r.eb,
                r.ratio,
                r.gbs,
                r.files,
                pareto(rows, r)
            );
        }
        return;
    }
    println!("== {title} ==");
    if std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        == 1
    {
        println!(
            "(note: single-core host — PFPL_Serial / PFPL_OMP / GPU(sim) wall-clock \
             cannot separate; compare per-core speeds across compressors instead)"
        );
    }
    println!(
        "{:<16} {:<13} {:>8} {:>10} {:>12} {:>6}  pareto",
        "compressor", "side", "eb", "ratio", "GB/s", "files"
    );
    for r in rows {
        println!(
            "{:<16} {:<13} {:>8.0e} {:>10.2} {:>12.4} {:>6}  {}",
            r.name,
            r.side,
            r.eb,
            r.ratio,
            r.gbs,
            r.files,
            if pareto(rows, r) { "*" } else { "" }
        );
    }
}

/// True when no other row at the same bound dominates `r`.
pub fn pareto(rows: &[Row], r: &Row) -> bool {
    !rows.iter().any(|o| {
        o.eb == r.eb && (o.ratio > r.ratio && o.gbs >= r.gbs || o.ratio >= r.ratio && o.gbs > r.gbs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, ratio: f64, gbs: f64) -> Row {
        Row {
            name: name.into(),
            side: "CPU-serial",
            eb: 1e-3,
            ratio,
            gbs,
            files: 1,
        }
    }

    #[test]
    fn pareto_front_detection() {
        let rows = vec![
            row("fast-small", 2.0, 100.0),
            row("slow-big", 50.0, 0.5),
            row("dominated", 1.5, 50.0),
            row("balanced", 10.0, 10.0),
        ];
        assert!(pareto(&rows, &rows[0]));
        assert!(pareto(&rows, &rows[1]));
        assert!(!pareto(&rows, &rows[2]), "dominated by fast-small");
        assert!(pareto(&rows, &rows[3]));
    }
}
