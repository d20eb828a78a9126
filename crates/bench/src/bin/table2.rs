//! Table II: the input suites (synthetic SDRBench stand-ins).

use pfpl_bench::Args;
use pfpl_data::all_suites;

fn main() {
    let args = Args::parse();
    let suites = all_suites(args.size);
    println!(
        "Table II: input suites at --size {:?} (synthetic stand-ins; see DESIGN.md)\n",
        args.size
    );
    println!(
        "{:<18} {:<16} {:<8} {:>6} {:<20} {:>10}",
        "Name", "Description", "Format", "Files", "Dimensions", "Size (MB)"
    );
    for s in &suites {
        let fmt = if s.double { "Double" } else { "Single" };
        let dims = s
            .fields
            .first()
            .map(|f| {
                f.dims
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(" × ")
            })
            .unwrap_or_default();
        println!(
            "{:<18} {:<16} {:<8} {:>6} {:<20} {:>10.1}",
            s.name,
            s.description,
            fmt,
            s.fields.len(),
            dims,
            s.byte_len() as f64 / 1e6
        );
    }
    let total: usize = suites.iter().map(|s| s.byte_len()).sum();
    let files: usize = suites.iter().map(|s| s.fields.len()).sum();
    println!("\nTotal: {} files, {:.1} MB", files, total as f64 / 1e6);
}
