//! Figures 6 and 7: compression ratio vs compression/decompression
//! throughput for the ABS bound type.
//!
//! `--op comp` → Fig. 6 (a/b/c per `--precision`/`--system`);
//! `--op decomp` → Fig. 7. As in §V-B, EXAALT and HACC are excluded
//! (non-3D), SPERR only appears for single precision, and FZ-GPU is absent
//! (it does not support ABS).

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
        .filter(|s| s.all_3d()) // §V-B: exclude non-3D suites
        .collect();

    let mut parts = pfpl_bench::participants::pfpl_trio(args.system);
    parts.push(Participant::baseline(
        Box::new(bl::zfp::Zfp),
        Side::CpuSerial,
    ));
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
    if !args.double {
        // SPERR is excluded from the double-precision charts (§V-B).
        parts.push(Participant::baseline(
            Box::new(bl::sperr::Sperr),
            Side::CpuSerial,
        ));
    }
    parts.push(Participant::baseline(Box::new(bl::cuszp::CuSzp), Side::Gpu));

    let rows = run_matrix(&suites, &parts, &PAPER_BOUNDS, ErrorBound::Abs, &args);
    let fig = if args.op == pfpl_bench::args::Op::Compress {
        "Fig. 6"
    } else {
        "Fig. 7"
    };
    let sub = if args.double { "double" } else { "single" };
    print_rows(
        &format!(
            "{fig} — ABS, {sub} precision, {:?} op, System {}",
            args.op, args.system
        ),
        &rows,
        &args,
    );
}
