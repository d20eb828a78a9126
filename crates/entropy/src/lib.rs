//! # pfpl-entropy — entropy-coding substrate for the baseline compressors
//!
//! The SZ-family compressors the paper compares against stack entropy
//! coding (Huffman) and a general-purpose lossless backend (GZIP/ZSTD) on
//! top of their lossy stages; SPERR uses ZSTD as well. Neither ZSTD nor
//! zlib is available offline, so this crate provides compact from-scratch
//! equivalents that preserve the performance *character* the paper's
//! evaluation turns on — high compression ratio at distinctly lower
//! throughput than PFPL's transformation pipeline:
//!
//! * [`bitio`] — MSB-first bit stream reader/writer;
//! * [`huffman`] — canonical, length-limited Huffman coding over `u16`
//!   symbol alphabets, with a serialized code-length table;
//! * [`lz`] — greedy hash-chain LZ77 with Huffman-coded literals and
//!   match headers ("deflate-lite", the ZSTD/GZIP stand-in);
//! * [`rans`] — a 12-bit static rANS coder (the FSE-style entropy stage
//!   of ZSTD), for sub-bit-per-symbol coding of heavily skewed streams.

#![warn(missing_docs)]

pub mod bitio;
pub mod huffman;
pub mod lz;
pub mod rans;

/// Errors produced by the entropy codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntropyError {
    /// Bit stream ended prematurely or contained an invalid code.
    Malformed(String),
}

impl std::fmt::Display for EntropyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntropyError::Malformed(m) => write!(f, "malformed entropy stream: {m}"),
        }
    }
}

impl std::error::Error for EntropyError {}

/// Result alias for entropy codecs.
pub type Result<T> = std::result::Result<T, EntropyError>;
