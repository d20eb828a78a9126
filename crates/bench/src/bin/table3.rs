//! Table III: supported features per compressor, with the ✓/○ adherence
//! column decided by the *empirical* audit rather than trust.

use pfpl::types::BoundKind;
use pfpl_baselines::{all_baselines, Support};
use pfpl_bench::audit::{audit, glyph};
use pfpl_bench::participants::{Participant, Side};

fn main() {
    let bounds = [1e-2, 1e-3];
    println!("Table III: tested compressors and the features they support");
    println!("(✓ supported & bound respected on the audit battery, ○ supported but violated, ✗ unsupported)\n");
    println!(
        "{:<12} {:>4} {:>4} {:>4} {:>6} {:>7} {:>4} {:>4}",
        "Compressor", "ABS", "REL", "NOA", "Float", "Double", "CPU", "GPU"
    );

    for c in all_baselines() {
        let caps = c.capabilities();
        let side = if caps.gpu && !caps.cpu {
            Side::Gpu
        } else {
            Side::CpuSerial
        };
        let p = Participant::baseline(c, side);
        let cell = |kind: BoundKind, declared: Support| -> &'static str {
            if declared == Support::No {
                "✗"
            } else {
                glyph(audit(&p, kind, &bounds))
            }
        };
        println!(
            "{:<12} {:>4} {:>4} {:>4} {:>6} {:>7} {:>4} {:>4}",
            caps.name,
            cell(BoundKind::Abs, caps.abs),
            cell(BoundKind::Rel, caps.rel),
            cell(BoundKind::Noa, caps.noa),
            yn(caps.float),
            yn(caps.double),
            yn(caps.cpu),
            yn(caps.gpu),
        );
    }
    // PFPL last, as in the paper's row ordering by release date.
    let p = Participant::pfpl_omp();
    let cell = |kind: BoundKind| glyph(audit(&p, kind, &bounds));
    println!(
        "{:<12} {:>4} {:>4} {:>4} {:>6} {:>7} {:>4} {:>4}",
        "PFPL",
        cell(BoundKind::Abs),
        cell(BoundKind::Rel),
        cell(BoundKind::Noa),
        "✓",
        "✓",
        "✓",
        "✓",
    );
}

fn yn(b: bool) -> &'static str {
    if b {
        "✓"
    } else {
        "✗"
    }
}
