//! # pfpl-data — synthetic SDRBench-like input suites and quality metrics
//!
//! The paper evaluates on 89 files from 10 SDRBench suites (Table II).
//! Those files are not redistributable here, so this crate generates
//! deterministic synthetic stand-ins, one generator per suite, that
//! reproduce the statistical properties the compressors are sensitive to:
//! smooth multi-octave 2D/3D fields for the climate/weather/hydro suites,
//! high-dynamic-range log-normal fields for cosmology grids, clustered
//! particle streams for HACC, oscillatory decaying orbitals for QMCPACK,
//! and Brownian walks for the (already synthetic in SDRBench) Brown suite.
//!
//! Every generator is seeded, so runs are reproducible; sizes are scaled
//! down from the originals by a configurable factor so the full evaluation
//! fits a laptop-class machine.

#![warn(missing_docs)]

pub mod gen;
pub mod golden;
pub mod metrics;
pub mod suites;
pub mod timing;

pub use suites::{all_suites, suite_by_name, SizeClass, Suite};

/// Payload of one file: the precision split mirrors Table II.
#[derive(Debug, Clone)]
pub enum FieldData {
    /// Single-precision values.
    F32(Vec<f32>),
    /// Double-precision values.
    F64(Vec<f64>),
}

impl FieldData {
    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            FieldData::F32(v) => v.len(),
            FieldData::F64(v) => v.len(),
        }
    }

    /// True when the field holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Uncompressed size in bytes.
    pub fn byte_len(&self) -> usize {
        match self {
            FieldData::F32(v) => v.len() * 4,
            FieldData::F64(v) => v.len() * 8,
        }
    }

    /// Borrow as `f32` values (panics on precision mismatch).
    pub fn as_f32(&self) -> &[f32] {
        match self {
            FieldData::F32(v) => v,
            FieldData::F64(_) => panic!("field is double precision"),
        }
    }
}

/// One input file: a named (possibly multi-dimensional) array of floats.
#[derive(Debug, Clone)]
pub struct Field {
    /// File name within its suite (e.g. `CLDHGH` for CESM).
    pub name: String,
    /// Grid dimensions, slowest-varying first; `[n]` for 1D data.
    pub dims: Vec<usize>,
    /// The values.
    pub data: FieldData,
}

impl Field {
    /// Total number of values (product of dims).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Uncompressed byte size.
    pub fn byte_len(&self) -> usize {
        self.data.byte_len()
    }

    /// True for 3D grids (some baselines, like SPERR-3D and FZ-GPU in the
    /// paper, only accept these).
    pub fn is_3d(&self) -> bool {
        self.dims.len() == 3
    }
}
