//! §III-B cost accounting: how many values are unquantizable (stored
//! losslessly to honor the bound) per suite and bound, and what the
//! guarantee costs in compression ratio.
//!
//! Paper reference points: at ABS 1e-3, on average 0.7% of values are
//! unquantizable, max 11.2% on a single input; the ratio cost of the
//! guarantee is ~5% on average.

use pfpl::types::{ErrorBound, Mode};
use pfpl_bench::{Args, PAPER_BOUNDS};
use pfpl_data::{all_suites, FieldData};

fn main() {
    let args = Args::parse();
    let suites: Vec<_> = all_suites(args.size).into_iter().collect();
    println!("§III-B: unquantizable-value fraction under the ABS bound\n");
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>9}",
        "suite", "1e-1", "1e-2", "1e-3", "1e-4"
    );
    let mut per_bound: Vec<Vec<f64>> = vec![Vec::new(); PAPER_BOUNDS.len()];
    let mut max_frac = (0.0f64, String::new());
    for suite in &suites {
        let mut cells = Vec::new();
        for (bi, &eb) in PAPER_BOUNDS.iter().enumerate() {
            let mut fracs = Vec::new();
            for field in &suite.fields {
                let stats = match &field.data {
                    FieldData::F32(v) => {
                        pfpl::compress_with_stats(v, ErrorBound::Abs(eb), Mode::Parallel)
                    }
                    FieldData::F64(v) => {
                        pfpl::compress_with_stats(v, ErrorBound::Abs(eb), Mode::Parallel)
                    }
                };
                if let Ok((_, s)) = stats {
                    let f = s.lossless_fraction();
                    fracs.push(f);
                    if f > max_frac.0 {
                        max_frac = (f, format!("{}/{}", suite.name, field.name));
                    }
                }
            }
            let avg = fracs.iter().sum::<f64>() / fracs.len().max(1) as f64;
            per_bound[bi].push(avg);
            cells.push(avg);
        }
        println!(
            "{:<18} {:>8.3}% {:>8.3}% {:>8.3}% {:>8.3}%",
            suite.name,
            cells[0] * 100.0,
            cells[1] * 100.0,
            cells[2] * 100.0,
            cells[3] * 100.0
        );
    }
    println!();
    for (bi, &eb) in PAPER_BOUNDS.iter().enumerate() {
        let avg = per_bound[bi].iter().sum::<f64>() / per_bound[bi].len().max(1) as f64;
        println!(
            "average unquantizable fraction @ {eb:>5.0e}: {:.3}%",
            avg * 100.0
        );
    }
    println!(
        "maximum on a single input: {:.2}% ({})  [paper: 0.7% avg, 11.2% max @1e-3]",
        max_frac.0 * 100.0,
        max_frac.1
    );
}
