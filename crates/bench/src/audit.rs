//! Empirical error-bound audit backing Table III's ✓/○ distinction.
//!
//! For each (compressor, bound type) pair the audit compresses a battery
//! of adversarial inputs — boundary-heavy values, mixed magnitudes, large
//! outliers, high-dynamic-range fields — decompresses, measures the true
//! maximum error of the right metric, and classifies adherence with the
//! paper's minor (<1.5×) / major (≥1.5×) thresholds (§V-B).

use crate::participants::Participant;
use pfpl::types::{BoundKind, ErrorBound};
use pfpl_data::metrics::{classify, max_abs_err, max_noa_err, max_rel_err, BoundAdherence};
use pfpl_data::{Field, FieldData};

/// Adversarial single-precision inputs (the audit battery).
pub fn audit_fields() -> Vec<Field> {
    let mut fields = Vec::new();
    // Smooth baseline.
    let smooth: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin() * 10.0).collect();
    fields.push(Field {
        name: "smooth".into(),
        dims: vec![16, 16, 16],
        data: FieldData::F32(smooth),
    });
    // Boundary-heavy: values sitting exactly on quantization bin edges for
    // the audit bounds (the rounding traps of §I).
    let boundary: Vec<f32> = (0..4096)
        .map(|i| (i as f32) * 1e-3 + if i % 2 == 0 { 1e-3 } else { 0.0 })
        .collect();
    fields.push(Field {
        name: "boundary".into(),
        dims: vec![16, 16, 16],
        data: FieldData::F32(boundary),
    });
    // Mixed magnitudes within small neighborhoods.
    let mixed: Vec<f32> = (0..4096)
        .map(|i| (1.0 + (i as f32 * 0.013).sin()) * 10f32.powi((i % 7) - 3))
        .collect();
    fields.push(Field {
        name: "mixed-magnitude".into(),
        dims: vec![16, 16, 16],
        data: FieldData::F32(mixed),
    });
    // A huge outlier amid small values (cuSZp's overflow trap, §I).
    let mut spike: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.02).cos()).collect();
    spike[1234] = 3.0e12;
    spike[2345] = -2.5e11;
    fields.push(Field {
        name: "spike".into(),
        dims: vec![16, 16, 16],
        data: FieldData::F32(spike),
    });
    fields
}

/// Audit one participant under one bound kind across the battery;
/// `None` when the compressor does not support the combination at all.
pub fn audit(p: &Participant, kind: BoundKind, bounds: &[f64]) -> Option<BoundAdherence> {
    let mut worst: Option<BoundAdherence> = None;
    let mut supported = false;
    for field in audit_fields() {
        for &eb in bounds {
            let bound = ErrorBound::new(kind, eb);
            let Ok(Some(archive)) = p.compress(&field, bound) else {
                continue;
            };
            supported = true;
            let Ok(recon) = p.decompress(&archive, false) else {
                // A decode failure counts as the worst outcome.
                return Some(BoundAdherence::MajorViolation);
            };
            let orig: Vec<f64> = field.data.as_f32().iter().map(|&v| v as f64).collect();
            let (err, limit) = match kind {
                BoundKind::Abs => (max_abs_err(&orig, &recon), eb),
                BoundKind::Rel => (max_rel_err(&orig, &recon), eb),
                BoundKind::Noa => (max_noa_err(&orig, &recon), eb),
            };
            let c = classify(err, limit);
            worst = Some(match (worst, c) {
                (None, c) => c,
                (Some(w), c) => {
                    if rank(c) > rank(w) {
                        c
                    } else {
                        w
                    }
                }
            });
        }
    }
    if supported {
        worst
    } else {
        None
    }
}

fn rank(a: BoundAdherence) -> u8 {
    match a {
        BoundAdherence::Respected => 0,
        BoundAdherence::MinorViolation => 1,
        BoundAdherence::MajorViolation => 2,
    }
}

/// Table III glyph for an audit outcome.
pub fn glyph(outcome: Option<BoundAdherence>) -> &'static str {
    match outcome {
        None => "✗",
        Some(BoundAdherence::Respected) => "✓",
        Some(_) => "○",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participants::{Participant, Side};

    #[test]
    fn pfpl_audits_clean_on_all_bound_types() {
        let p = Participant::pfpl_serial();
        for kind in [BoundKind::Abs, BoundKind::Rel, BoundKind::Noa] {
            let out = audit(&p, kind, &[1e-2, 1e-3]);
            assert_eq!(
                out,
                Some(BoundAdherence::Respected),
                "PFPL must guarantee {kind:?}"
            );
        }
    }

    #[test]
    fn cuszp_audit_flags_abs_overflow() {
        let p = Participant::baseline(Box::new(pfpl_baselines::cuszp::CuSzp), Side::Gpu);
        let out = audit(&p, BoundKind::Abs, &[1e-3]);
        assert!(
            matches!(
                out,
                Some(BoundAdherence::MajorViolation) | Some(BoundAdherence::MinorViolation)
            ),
            "the spike field should trip the prequantization overflow: {out:?}"
        );
    }

    #[test]
    fn sz3_audit_clean_on_abs() {
        let p = Participant::baseline(
            Box::new(pfpl_baselines::sz3::Sz3::serial()),
            Side::CpuSerial,
        );
        assert_eq!(
            audit(&p, BoundKind::Abs, &[1e-2, 1e-3]),
            Some(BoundAdherence::Respected)
        );
        assert_eq!(audit(&p, BoundKind::Rel, &[1e-3]), None, "REL unsupported");
    }
}
