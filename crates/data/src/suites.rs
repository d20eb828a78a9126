//! The ten input suites of Table II, as seeded synthetic stand-ins.
//!
//! | Name             | Domain          | Format | Files | Dimensionality |
//! |------------------|-----------------|--------|-------|----------------|
//! | CESM-ATM         | Climate         | f32    | 33    | 3D             |
//! | EXAALT Copper    | Molecular Dyn.  | f32    | 6     | 2D             |
//! | Hurricane Isabel | Weather Sim.    | f32    | 13    | 3D             |
//! | HACC             | Cosmology       | f32    | 6     | 1D             |
//! | NYX              | Cosmology       | f32    | 6     | 3D             |
//! | SCALE            | Climate         | f32    | 12    | 3D             |
//! | QMCPACK          | Quantum MC      | f32    | 2     | 3D             |
//! | NWChem           | Molecular Dyn.  | f64    | 1     | 1D             |
//! | Miranda          | Hydrodynamics   | f64    | 7     | 3D             |
//! | Brown Samples    | Synthetic       | f64    | 3     | 1D             |
//!
//! Grid dimensions keep the originals' aspect ratios, scaled down by the
//! [`SizeClass`]; file counts are kept (they matter for the paper's
//! geo-mean-of-geo-means aggregation, §IV) but can be thinned for quick
//! runs.

use crate::gen;
use crate::{Field, FieldData};

/// How large to make the synthetic files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeClass {
    /// ~100 KB per file — for unit/integration tests.
    Tiny,
    /// ~1–4 MB per file — the benchmarking default.
    Small,
    /// ~8–30 MB per file — closer to SDRBench scale.
    Large,
}

impl SizeClass {
    /// Linear divisor applied to each original grid axis.
    fn axis_div(self) -> usize {
        match self {
            SizeClass::Tiny => 20,
            SizeClass::Small => 8,
            SizeClass::Large => 4,
        }
    }
    /// Divisor for 1D (unstructured) lengths.
    fn len_div(self) -> usize {
        match self {
            SizeClass::Tiny => 2048,
            SizeClass::Small => 128,
            SizeClass::Large => 16,
        }
    }
    /// Cap on files per suite (keeps Tiny runs fast).
    fn max_files(self) -> usize {
        match self {
            SizeClass::Tiny => 3,
            SizeClass::Small => 6,
            SizeClass::Large => 33,
        }
    }
}

/// A named collection of input files (one SDRBench suite).
#[derive(Debug, Clone)]
pub struct Suite {
    /// Suite name as in Table II.
    pub name: &'static str,
    /// Short description.
    pub description: &'static str,
    /// True when the suite is double precision.
    pub double: bool,
    /// The files.
    pub fields: Vec<Field>,
}

impl Suite {
    /// Total uncompressed bytes across files.
    pub fn byte_len(&self) -> usize {
        self.fields.iter().map(Field::byte_len).sum()
    }
    /// True when every file is a 3D grid.
    pub fn all_3d(&self) -> bool {
        self.fields.iter().all(Field::is_3d)
    }
}

fn scale_dims(orig: [usize; 3], div: usize) -> [usize; 3] {
    orig.map(|d| (d / div).max(8))
}

fn f32_field(name: String, dims: Vec<usize>, vals: Vec<f64>) -> Field {
    Field {
        name,
        dims,
        data: FieldData::F32(vals.into_iter().map(|v| v as f32).collect()),
    }
}

fn f64_field(name: String, dims: Vec<usize>, vals: Vec<f64>) -> Field {
    Field {
        name,
        dims,
        data: FieldData::F64(vals),
    }
}

fn cesm(size: SizeClass) -> Suite {
    let dims = scale_dims([26, 1800, 3600], size.axis_div() * 2);
    let n = 33.min(size.max_files());
    let fields = (0..n)
        .map(|i| {
            // Climate variables vary in roughness; sweep persistence.
            let pers = 0.35 + 0.02 * i as f64;
            let v = gen::fractal_field_3d(0xCE50 + i as u64, dims, 5.0, 5, pers);
            f32_field(format!("CESM_VAR{i:02}"), dims.to_vec(), v)
        })
        .collect();
    Suite {
        name: "CESM-ATM",
        description: "Climate",
        double: false,
        fields,
    }
}

fn exaalt(size: SizeClass) -> Suite {
    let n = 6.min(size.max_files());
    let fields = (0..n)
        .map(|i| {
            let ny = (2869440 / size.len_div() / 64).max(16);
            let dims = [ny, 64];
            let v = gen::fractal_field_2d(0xEAA1 + i as u64, dims, 8.0, 6, 0.6);
            f32_field(format!("EXAALT_{i}"), dims.to_vec(), v)
        })
        .collect();
    Suite {
        name: "EXAALT Copper",
        description: "Molecular Dyn.",
        double: false,
        fields,
    }
}

fn hurricane(size: SizeClass) -> Suite {
    let dims = scale_dims([100, 500, 500], size.axis_div());
    let n = 13.min(size.max_files());
    let fields = (0..n)
        .map(|i| {
            let v = gen::fractal_field_3d(0x15A8E1 + i as u64, dims, 6.0, 6, 0.45);
            // Raw (not cleared) Isabel data has large magnitudes.
            let v = v.into_iter().map(|x| x * 80.0).collect();
            f32_field(format!("ISABEL_{i:02}"), dims.to_vec(), v)
        })
        .collect();
    Suite {
        name: "Hurricane Isabel",
        description: "Weather Sim.",
        double: false,
        fields,
    }
}

fn hacc(size: SizeClass) -> Suite {
    let n = 6.min(size.max_files());
    let len = (280_953_867usize / size.len_div()).max(4096);
    let fields = (0..n)
        .map(|i| {
            let v = if i < 3 {
                gen::particle_positions(0x4ACC + i as u64, len, 256.0)
            } else {
                // velocity components: rougher noise
                gen::fractal_field_1d(0x4ACC + i as u64, len, 2000.0, 4, 0.8)
            };
            f32_field(
                format!("HACC_{}", ["xx", "yy", "zz", "vx", "vy", "vz"][i]),
                vec![len],
                v,
            )
        })
        .collect();
    Suite {
        name: "HACC",
        description: "Cosmology",
        double: false,
        fields,
    }
}

fn nyx(size: SizeClass) -> Suite {
    let dims = scale_dims([512, 512, 512], size.axis_div());
    let n = 6.min(size.max_files());
    let fields = (0..n)
        .map(|i| {
            let v = if i % 2 == 0 {
                gen::lognormal_field_3d(0x9711 + i as u64, dims, 2.5)
            } else {
                // velocity-like fields: hundreds of km/s
                gen::fractal_field_3d(0x9711 + i as u64, dims, 4.0, 5, 0.5)
                    .into_iter()
                    .map(|x| x * 350.0)
                    .collect()
            };
            f32_field(format!("NYX_{i}"), dims.to_vec(), v)
        })
        .collect();
    Suite {
        name: "NYX",
        description: "Cosmology",
        double: false,
        fields,
    }
}

fn scale_suite(size: SizeClass) -> Suite {
    let dims = scale_dims([98, 1200, 1200], size.axis_div() * 2);
    let n = 12.min(size.max_files());
    let fields = (0..n)
        .map(|i| {
            let v = gen::fractal_field_3d(0x5CA1E + i as u64, dims, 7.0, 5, 0.5);
            f32_field(format!("SCALE_{i:02}"), dims.to_vec(), v)
        })
        .collect();
    Suite {
        name: "SCALE",
        description: "Climate",
        double: false,
        fields,
    }
}

fn qmcpack(size: SizeClass) -> Suite {
    let dims = scale_dims([512, 69, 69], size.axis_div().min(8));
    let n = 2.min(size.max_files());
    let fields = (0..n)
        .map(|i| {
            let v = gen::orbital_field_3d(0x03C9 + i as u64, dims);
            f32_field(format!("QMCPACK_{i}"), dims.to_vec(), v)
        })
        .collect();
    Suite {
        name: "QMCPACK",
        description: "Quantum MC",
        double: false,
        fields,
    }
}

fn nwchem(size: SizeClass) -> Suite {
    let len = (102_953_248usize / size.len_div()).max(4096);
    let v = gen::fractal_field_1d(0x0BC4E, len, 500.0, 6, 0.65);
    Suite {
        name: "NWChem",
        description: "Molecular Dyn.",
        double: true,
        fields: vec![f64_field("NWChem_tce".into(), vec![len], v)],
    }
}

fn miranda(size: SizeClass) -> Suite {
    let dims = scale_dims([256, 384, 384], size.axis_div());
    let n = 7.min(size.max_files());
    let fields = (0..n)
        .map(|i| {
            let v = gen::fractal_field_3d(0x312A0DA + i as u64, dims, 5.0, 4, 0.4);
            // Hydro fields are positive (densities, pressures).
            let v = v.into_iter().map(|x| x + 3.0).collect();
            f64_field(format!("MIRANDA_{i}"), dims.to_vec(), v)
        })
        .collect();
    Suite {
        name: "Miranda",
        description: "Hydrodynamics",
        double: true,
        fields,
    }
}

fn brown(size: SizeClass) -> Suite {
    let len = (33_554_433usize / size.len_div()).max(4096);
    let n = 3.min(size.max_files());
    let fields = (0..n)
        .map(|i| {
            let v = gen::brownian(0xB80 + i as u64, len, 1e-3 * (i + 1) as f64);
            f64_field(format!("BROWN_{i}"), vec![len], v)
        })
        .collect();
    Suite {
        name: "Brown Samples",
        description: "Synthetic",
        double: true,
        fields,
    }
}

/// Generate all ten suites at the given size.
pub fn all_suites(size: SizeClass) -> Vec<Suite> {
    vec![
        cesm(size),
        exaalt(size),
        hurricane(size),
        hacc(size),
        nyx(size),
        scale_suite(size),
        qmcpack(size),
        nwchem(size),
        miranda(size),
        brown(size),
    ]
}

/// Generate a single suite by its Table II name.
pub fn suite_by_name(name: &str, size: SizeClass) -> Option<Suite> {
    all_suites(size).into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_suites_match_table_two() {
        let suites = all_suites(SizeClass::Tiny);
        assert_eq!(suites.len(), 10);
        let doubles: Vec<&str> = suites.iter().filter(|s| s.double).map(|s| s.name).collect();
        assert_eq!(doubles, vec!["NWChem", "Miranda", "Brown Samples"]);
    }

    #[test]
    fn dimensionality_matches_paper() {
        let suites = all_suites(SizeClass::Tiny);
        let by_name = |n: &str| suites.iter().find(|s| s.name == n).unwrap();
        assert!(by_name("CESM-ATM").all_3d());
        assert!(by_name("Hurricane Isabel").all_3d());
        assert!(by_name("NYX").all_3d());
        assert!(by_name("SCALE").all_3d());
        assert!(by_name("QMCPACK").all_3d());
        assert!(by_name("Miranda").all_3d());
        assert!(
            !by_name("HACC").all_3d(),
            "HACC is 1D (excluded from 3D-only figures)"
        );
        assert!(!by_name("EXAALT Copper").all_3d(), "EXAALT is 2D");
    }

    #[test]
    fn deterministic() {
        let a = suite_by_name("NYX", SizeClass::Tiny).unwrap();
        let b = suite_by_name("NYX", SizeClass::Tiny).unwrap();
        for (fa, fb) in a.fields.iter().zip(&b.fields) {
            assert_eq!(fa.data.as_f32(), fb.data.as_f32());
        }
    }

    #[test]
    fn sizes_scale() {
        let tiny = suite_by_name("Miranda", SizeClass::Tiny)
            .unwrap()
            .byte_len();
        let small = suite_by_name("Miranda", SizeClass::Small)
            .unwrap()
            .byte_len();
        assert!(small > tiny * 4, "small={small} tiny={tiny}");
    }

    #[test]
    fn fields_have_finite_values() {
        for s in all_suites(SizeClass::Tiny) {
            for f in &s.fields {
                let finite = match &f.data {
                    crate::FieldData::F32(v) => v.iter().all(|x| x.is_finite()),
                    crate::FieldData::F64(v) => v.iter().all(|x| x.is_finite()),
                };
                assert!(finite, "{}/{} contains non-finite values", s.name, f.name);
                assert_eq!(f.len(), f.dims.iter().product::<usize>());
            }
        }
    }
}
