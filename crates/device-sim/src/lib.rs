//! # pfpl-device-sim — a CUDA-style execution substrate
//!
//! The paper's PFPL_CUDA implementation runs one 16 KiB chunk per thread
//! block, bit-shuffles at warp granularity with `log2(wordsize)` warp
//! shuffle steps, compacts output with block-wide prefix sums, and
//! concatenates compressed chunks with Merrill–Garland *decoupled
//! look-back* (§III-E). No CUDA device is available in this reproduction,
//! so this crate provides the closest synthetic equivalent: a simulated
//! device that executes the **same algorithm structure** —
//!
//! * [`warp`] — 32-lane warps with `shfl_up`/`shfl_xor`, scans, and the
//!   butterfly bit-matrix transpose the paper's bit shuffle uses;
//! * [`block`] — block-wide inclusive/exclusive scans built from warp
//!   scans (with per-thread local pre-reduction, as the paper optimizes);
//! * [`grid`] — a persistent-worker grid launcher whose workers acquire
//!   block indices **in order** (the forward-progress guarantee decoupled
//!   look-back requires);
//! * [`lookback`] — the decoupled look-back single-pass scan used to
//!   propagate cumulative compressed-chunk sizes between blocks;
//! * [`pfpl_gpu`] — PFPL compression/decompression kernels written against
//!   those primitives. Their archives are **byte-identical** to the CPU
//!   implementation's — the cross-device compatibility property the paper
//!   demonstrates between OpenMP and CUDA;
//! * [`configs`] — device models (RTX 4090, A100, …) for the §V-F
//!   GPU-generation scaling study.
//!
//! The simulation models SIMT execution at *collective-operation*
//! granularity: a block runs on one worker thread, warps are 32-element
//! arrays transformed by the collective primitives, and inter-block
//! concurrency (the part where real races live) is executed by real OS
//! threads with real atomics. Everything arithmetic is the same
//! IEEE-exact code path as the CPU implementation, which is precisely how
//! the paper achieves cross-device bit-compatibility.

#![warn(missing_docs)]
// `!(err <= bound)` instead of `err > bound` is deliberate throughout this
// crate: the negated form also rejects NaN, which a rewritten positive
// comparison would silently accept.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod block;
pub mod configs;
pub mod grid;
pub mod lookback;
pub mod pfpl_gpu;
pub mod shared;
pub mod warp;

pub use configs::DeviceConfig;
pub use pfpl_gpu::GpuDevice;
