//! # PFPL — Portable Floating-Point Lossy compression
//!
//! A Rust reproduction of *"Fast and Effective Lossy Compression on GPUs and
//! CPUs with Guaranteed Error Bounds"* (Fallin, Azami, Di, Cappello,
//! Burtscher — IPDPS 2025).
//!
//! PFPL compresses single- and double-precision floating-point data under one
//! of three point-wise error-bound types:
//!
//! * [`ErrorBound::Abs`] — point-wise absolute error: every reconstructed
//!   value differs from its original by at most `eb`.
//! * [`ErrorBound::Rel`] — point-wise relative error: every reconstructed
//!   value satisfies `|v - v'| <= eb * |v|` and keeps the sign of `v`.
//! * [`ErrorBound::Noa`] — normalized absolute error: ABS with the bound
//!   scaled by the value range `max - min` of the input.
//!
//! The error bound is **guaranteed**: every quantized value is immediately
//! decoded and verified with *exact* floating-point comparisons (error-free
//! transformations, see [`exact`]); any value whose reconstruction would
//! violate the bound is stored losslessly, inline in the same word stream.
//! Special values (NaN, infinities, denormals) are handled explicitly.
//!
//! The compression pipeline follows the paper (§III):
//!
//! 1. **Quantize** each value into a bin number stored in a reserved region
//!    of the floating-point bit-pattern space (the denormal range for
//!    ABS/NOA, the negative-NaN range for REL), or pass the value through
//!    losslessly.
//! 2. **Delta modulation** of the word stream with residuals in negabinary
//!    (base −2) representation, so small ± residuals have leading zero bits.
//! 3. **Bit shuffle** (bit-plane transposition), turning per-word leading
//!    zeros into long runs of zero bits.
//! 4. **Zero-byte elimination** with an iteratively (4×) compressed bitmap.
//!
//! Data is processed in independent 16 KiB chunks so compression and
//! decompression parallelize trivially; incompressible chunks are stored raw
//! to cap worst-case expansion. The same pipeline, built exclusively from
//! IEEE-754-exact operations, is implemented against a CUDA-style execution
//! substrate in the `pfpl-device-sim` crate and produces **byte-identical**
//! archives — the paper's CPU/GPU-compatibility property.
//!
//! ## Quick start
//!
//! ```
//! use pfpl::{compress_f32, decompress_f32, ErrorBound, Mode};
//!
//! let data: Vec<f32> = (0..10_000).map(|i| (i as f32 * 0.01).sin()).collect();
//! let archive = compress_f32(&data, ErrorBound::Abs(1e-3), Mode::Parallel).unwrap();
//! let restored = decompress_f32(&archive, Mode::Parallel).unwrap();
//! for (a, b) in data.iter().zip(&restored) {
//!     assert!((a - b).abs() <= 1e-3);
//! }
//! ```

#![warn(missing_docs)]
// `!(err <= bound)` instead of `err > bound` is deliberate throughout this
// crate: the negated form also rejects NaN, which a rewritten positive
// comparison would silently accept.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod checksum;
pub mod chunk;
pub mod compress;
pub mod container;
pub mod engine;
pub mod error;
pub mod exact;
pub mod float;
pub mod lossless;
pub mod quantize;
pub mod salvage;
pub mod stats;
pub mod stream;
pub mod types;

pub use compress::{
    compress, compress_f32, compress_f64, compress_with_stats, decompress, decompress_f32,
    decompress_f64, decompress_unverified,
};
pub use engine::ChunkDecoder;
pub use error::{Error, Result};
pub use float::PfplFloat;
pub use salvage::{decompress_salvage, verify_archive, ChunkReport, ChunkStatus, SalvageReport};
pub use stats::CompressStats;
pub use stream::{decompress_chunks, StreamCompressor};
pub use types::{BoundKind, ErrorBound, Mode, Precision};
