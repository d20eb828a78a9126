//! Figures 8–11: REL bound type. Only PFPL, SZ2, and ZFP support REL
//! (§V-C); all ten suites are used.

use pfpl::types::ErrorBound;
use pfpl_baselines as bl;
use pfpl_bench::participants::{Participant, Side};
use pfpl_bench::{print_rows, run_matrix, Args, PAPER_BOUNDS};
use pfpl_data::all_suites;

fn main() {
    let args = Args::parse();
    let suites: Vec<_> = all_suites(args.size)
        .into_iter()
        .filter(|s| s.double == args.double)
        .collect();

    let mut parts = pfpl_bench::participants::pfpl_trio(args.system);
    parts.push(Participant::baseline(
        Box::new(bl::sz2::Sz2),
        Side::CpuSerial,
    ));
    parts.push(Participant::baseline(
        Box::new(bl::zfp::Zfp),
        Side::CpuSerial,
    ));

    let rows = run_matrix(&suites, &parts, &PAPER_BOUNDS, ErrorBound::Rel, &args);
    let fig = match (args.op, args.double) {
        (pfpl_bench::args::Op::Compress, false) => "Fig. 8",
        (pfpl_bench::args::Op::Compress, true) => "Fig. 9",
        (pfpl_bench::args::Op::Decompress, false) => "Fig. 10",
        (pfpl_bench::args::Op::Decompress, true) => "Fig. 11",
    };
    print_rows(&format!("{fig} — REL, {:?}", args.op), &rows, &args);
}
