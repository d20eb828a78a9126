//! Figures 12–15: NOA bound type. ZFP and SPERR do not support NOA and are
//! absent; EXAALT and HACC are excluded (non-3D, unsupported by FZ-GPU)
//! exactly as in §V-D.

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
        .filter(|s| s.all_3d())
        .collect();

    let mut parts = pfpl_bench::participants::pfpl_trio(args.system);
    parts.push(Participant::baseline(
        Box::new(bl::sz2::Sz2),
        Side::CpuSerial,
    ));
    parts.push(Participant::baseline(
        Box::new(bl::sz3::Sz3::serial()),
        Side::CpuSerial,
    ));
    parts.push(Participant::baseline(
        Box::new(bl::sz3::Sz3::omp()),
        Side::CpuParallel,
    ));
    parts.push(Participant::baseline(Box::new(bl::mgard::Mgard), Side::Gpu));
    parts.push(Participant::baseline(Box::new(bl::cuszp::CuSzp), Side::Gpu));
    if !args.double {
        parts.push(Participant::baseline(Box::new(bl::fzgpu::FzGpu), Side::Gpu));
    }

    let rows = run_matrix(&suites, &parts, &PAPER_BOUNDS, ErrorBound::Noa, &args);
    let fig = match (args.op, args.double) {
        (pfpl_bench::args::Op::Compress, false) => "Fig. 12",
        (pfpl_bench::args::Op::Compress, true) => "Fig. 13",
        (pfpl_bench::args::Op::Decompress, false) => "Fig. 14",
        (pfpl_bench::args::Op::Decompress, true) => "Fig. 15",
    };
    print_rows(&format!("{fig} — NOA, {:?}", args.op), &rows, &args);
}
