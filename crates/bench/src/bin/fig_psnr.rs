//! Figure 16: compression ratio vs PSNR for the three bound types
//! (single-precision suites, matching each bound type's §V result set).

use pfpl::types::{BoundKind, ErrorBound};
use pfpl_baselines as bl;
use pfpl_bench::participants::{Participant, Side};
use pfpl_bench::{Args, PAPER_BOUNDS};
use pfpl_data::all_suites;
use pfpl_data::metrics::{geomean, psnr};

fn main() {
    let args = Args::parse();
    for kind in [BoundKind::Abs, BoundKind::Rel, BoundKind::Noa] {
        let suites: Vec<_> = all_suites(args.size)
            .into_iter()
            .filter(|s| !s.double)
            .filter(|s| kind == BoundKind::Rel || s.all_3d())
            .collect();
        let mut parts = pfpl_bench::participants::pfpl_trio(args.system);
        match kind {
            BoundKind::Abs => {
                parts.push(Participant::baseline(
                    Box::new(bl::zfp::Zfp),
                    Side::CpuSerial,
                ));
                parts.push(Participant::baseline(
                    Box::new(bl::sz3::Sz3::serial()),
                    Side::CpuSerial,
                ));
                parts.push(Participant::baseline(
                    Box::new(bl::sperr::Sperr),
                    Side::CpuSerial,
                ));
                parts.push(Participant::baseline(Box::new(bl::mgard::Mgard), Side::Gpu));
                parts.push(Participant::baseline(Box::new(bl::cuszp::CuSzp), Side::Gpu));
            }
            BoundKind::Rel => {
                parts.push(Participant::baseline(
                    Box::new(bl::sz2::Sz2),
                    Side::CpuSerial,
                ));
                parts.push(Participant::baseline(
                    Box::new(bl::zfp::Zfp),
                    Side::CpuSerial,
                ));
            }
            BoundKind::Noa => {
                parts.push(Participant::baseline(
                    Box::new(bl::sz3::Sz3::serial()),
                    Side::CpuSerial,
                ));
                parts.push(Participant::baseline(Box::new(bl::mgard::Mgard), Side::Gpu));
                parts.push(Participant::baseline(Box::new(bl::cuszp::CuSzp), Side::Gpu));
                parts.push(Participant::baseline(Box::new(bl::fzgpu::FzGpu), Side::Gpu));
            }
        }
        let sub = match kind {
            BoundKind::Abs => "Fig. 16a — ABS",
            BoundKind::Rel => "Fig. 16b — REL",
            BoundKind::Noa => "Fig. 16c — NOA",
        };
        println!("== {sub} (ratio vs PSNR, single precision) ==");
        println!(
            "{:<16} {:>8} {:>10} {:>10}",
            "compressor", "eb", "ratio", "PSNR dB"
        );
        for p in &parts {
            for &eb in &PAPER_BOUNDS {
                let bound = ErrorBound::new(kind, eb);
                let mut suite_ratios = Vec::new();
                let mut suite_psnrs = Vec::new();
                for suite in &suites {
                    let mut ratios = Vec::new();
                    let mut psnrs = Vec::new();
                    for field in &suite.fields {
                        let Ok(Some(arch)) = p.compress(field, bound) else {
                            continue;
                        };
                        let Ok(recon) = p.decompress(&arch, false) else {
                            continue;
                        };
                        let orig: Vec<f64> =
                            field.data.as_f32().iter().map(|&v| v as f64).collect();
                        let snr = psnr(&orig, &recon);
                        if snr.is_finite() && snr > 0.0 {
                            psnrs.push(snr);
                            ratios.push(field.byte_len() as f64 / arch.len() as f64);
                        }
                    }
                    if !ratios.is_empty() {
                        suite_ratios.push(geomean(&ratios));
                        suite_psnrs.push(geomean(&psnrs));
                    }
                }
                if suite_ratios.is_empty() {
                    continue;
                }
                println!(
                    "{:<16} {:>8.0e} {:>10.2} {:>10.2}",
                    p.name,
                    eb,
                    geomean(&suite_ratios),
                    geomean(&suite_psnrs)
                );
            }
        }
        println!();
    }
}
