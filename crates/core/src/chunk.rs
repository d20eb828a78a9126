//! Fused per-chunk pipeline (paper §III-E).
//!
//! Data is processed in independent 16 KiB chunks. For whole-tile chunks
//! (every full chunk, and any partial chunk of a multiple of
//! [`shuffle::TILE_WORDS`] values) all four stages run as one genuinely
//! fused kernel — "the most important optimization is fusing all four
//! stages": the quantizer produces 512-word tiles on the stack, each tile
//! is delta+negabinary-coded as produced (the predecessor carries across
//! tile boundaries), bit-transposed into one 64-byte line per bit plane,
//! and every line streams straight into zero-elimination
//! ([`zeroelim::Scratch`]). The intermediate 16 KiB shuffled byte buffer
//! of the staged pipeline is never materialized; decompression runs the
//! same fusion in reverse (plane lines are expanded on demand,
//! inverse-transposed, un-delta'd and dequantized tile by tile). Other
//! lengths — in practice only the final partial chunk — take a staged
//! four-pass fallback through the public stage functions
//! ([`Quantizer::encode_slice`], [`delta::encode_in_place`],
//! [`shuffle::encode`], [`zeroelim::encode_to_scratch`] and their
//! inverses). The chunk length alone picks the path; both share one
//! zero-elimination sink and emit the bytes the four stages define, which
//! `tests/fused_equivalence.rs` checks against a reference composed from
//! those same stage functions.
//!
//! Chunks whose compressed form would be at least as large as the raw data
//! are stored raw and flagged, capping worst-case expansion at the size
//! table's 4 bytes per chunk.
//!
//! Both directions are allocation-free in steady state: the zero-elimination
//! output is *staged* in [`Scratch`] and only emitted once the raw-fallback
//! decision is known — either appended to a growing archive
//! ([`compress_chunk`]) or written into a caller-provided slab slot
//! ([`compress_chunk_into`]).

use crate::error::{Error, Result};
use crate::float::{PfplFloat, Word};
use crate::lossless::{delta, shuffle, zeroelim};
use crate::quantize::Quantizer;

/// Chunk size in bytes (16 KiB, as in the paper).
pub const CHUNK_BYTES: usize = 16 * 1024;

/// Number of values per full chunk for precision `F`.
pub const fn values_per_chunk<F: PfplFloat>() -> usize {
    CHUNK_BYTES / (F::Bits::BITS as usize / 8)
}

/// Reusable scratch buffers so compression and decompression never allocate
/// per chunk (the paper's "two 16 kB buffers that are alternately used").
/// Buffers are allocated empty and grow to the chunk working set on first
/// use.
pub struct Scratch<F: PfplFloat> {
    words: Vec<F::Bits>,
    bytes: Vec<u8>,
    /// Zero-elimination sink and source of both the fused and the staged
    /// path; holds the staged payload until it is emitted.
    sink: zeroelim::Scratch,
}

impl<F: PfplFloat> Default for Scratch<F> {
    fn default() -> Self {
        Self {
            words: Vec::with_capacity(values_per_chunk::<F>()),
            bytes: Vec::with_capacity(CHUNK_BYTES),
            sink: zeroelim::Scratch::default(),
        }
    }
}

/// Per-chunk compression outcome.
#[derive(Debug, Clone, Copy)]
pub struct ChunkInfo {
    /// True if the chunk was emitted raw (incompressible).
    pub raw: bool,
    /// Number of values stored losslessly by the quantizer
    /// (the §III-B "unquantizable" count; 0 for raw chunks — the whole
    /// chunk is lossless but not due to quantizer fallback).
    pub lossless_values: u64,
}

/// True if the fused tile kernel handles a chunk of `n` values: whole
/// 512-word tiles only, which also makes each bit plane's `n / 8`-byte
/// extent a whole number of 64-byte lines in the zero-elimination sink.
/// Every full chunk qualifies (4096 f32 / 2048 f64 values); in practice
/// only the final partial chunk falls back to the staged path.
const fn fused_ok(n: usize) -> bool {
    n > 0 && n.is_multiple_of(shuffle::TILE_WORDS)
}

/// Run stages 0–3 (quantize, delta+negabinary, shuffle, zero-elimination),
/// leaving the encoded payload staged in `scratch.sink`, and decide the raw
/// fallback. Returns the number of bytes the chunk emits: the staged
/// payload's length, or the raw size when [`ChunkInfo::raw`] is set.
fn encode<F: PfplFloat, Q: Quantizer<F>>(
    q: &Q,
    vals: &[F],
    scratch: &mut Scratch<F>,
) -> (usize, ChunkInfo) {
    debug_assert!(vals.len() <= values_per_chunk::<F>());
    let raw_len = vals.len() * (F::Bits::BITS as usize / 8);
    let (enc_len, lossless) = if fused_ok(vals.len()) {
        encode_stages_fused(q, vals, scratch)
    } else {
        encode_stages_staged(q, vals, scratch)
    };
    if enc_len >= raw_len {
        // Incompressible: the chunk is stored as the original values.
        let info = ChunkInfo {
            raw: true,
            lossless_values: 0,
        };
        (raw_len, info)
    } else {
        let info = ChunkInfo {
            raw: false,
            lossless_values: lossless,
        };
        (enc_len, info)
    }
}

/// The fused four-stage kernel (§III-E): one pass over the input, all
/// intermediate state in a stack tile, output streamed into the
/// zero-elimination sink.
fn encode_stages_fused<F: PfplFloat, Q: Quantizer<F>>(
    q: &Q,
    vals: &[F],
    scratch: &mut Scratch<F>,
) -> (usize, u64) {
    let planes = F::Bits::BITS as usize;
    let sink = &mut scratch.sink;
    sink.begin(planes, vals.len() / 8);
    let mut tile = [F::Bits::ZERO; shuffle::TILE_WORDS];
    // One tile's worth of plane lines (2 KiB for f32, 4 KiB for f64) — the
    // only inter-stage buffer, L1-resident for the whole chunk. Lines are
    // assembled here in one burst and consumed whole by the sink, which
    // keeps the narrow lane stores and the sink's 64-byte vector loads out
    // of each other's store-forwarding window.
    let mut lines = [[0u8; 64]; 64];
    let lines = &mut lines[..planes];
    let mut carry = F::Bits::ZERO;
    let mut lossless = 0u64;
    for tv in vals.chunks_exact(shuffle::TILE_WORDS) {
        // Stage 0: quantize the tile (stays in L1). Every quantizer's
        // `encode_slice` writes `encode(v)` for each value, so tiling
        // changes no word.
        lossless += q.encode_slice(tv, &mut tile);
        // Stage 1: delta + negabinary, predecessor carried across tiles so
        // the codes equal a whole-chunk pass.
        carry = delta::encode_carry(&mut tile, carry);
        // Stages 2+3: transpose into the plane lines; every 64-byte line
        // goes straight into zero-elimination — the 16 KiB shuffled buffer
        // of the staged path is never written.
        shuffle::encode_tile_into(&tile, lines);
        for (p, line) in lines.iter().enumerate() {
            sink.push_line64(p, line);
        }
    }
    (sink.finish_encode(), lossless)
}

/// The staged four-pass pipeline for chunks that are not a multiple of
/// [`shuffle::TILE_WORDS`] values: each stage is a whole-chunk pass over
/// scratch buffers, and the bytes equal what the fused kernel would emit.
fn encode_stages_staged<F: PfplFloat, Q: Quantizer<F>>(
    q: &Q,
    vals: &[F],
    scratch: &mut Scratch<F>,
) -> (usize, u64) {
    let word_bytes = F::Bits::BITS as usize / 8;
    let raw_len = vals.len() * word_bytes;

    // Stage 0: quantize (+ §III-B lossless-fallback statistics) via the
    // batched slice kernel, writing into the pre-sized word buffer. The
    // resize only touches memory when the chunk length changes (i.e. the
    // final partial chunk), so steady state does no zero-fill.
    scratch.words.resize(vals.len(), F::Bits::ZERO);
    let lossless = q.encode_slice(vals, &mut scratch.words);

    // Stage 1: delta + negabinary, in place.
    delta::encode_in_place(&mut scratch.words);

    // Stage 2: bit shuffle into the byte buffer.
    scratch.bytes.resize(raw_len, 0);
    shuffle::encode(&scratch.words, &mut scratch.bytes);

    // Stage 3: zero-byte elimination, staged (not yet emitted).
    let enc_len = zeroelim::encode_to_scratch(&scratch.bytes, &mut scratch.sink);
    (enc_len, lossless)
}

/// Store `vals` unchanged (little-endian bit patterns) into `dst`.
fn write_raw<F: PfplFloat>(vals: &[F], dst: &mut [u8]) {
    let word_bytes = F::Bits::BITS as usize / 8;
    for (d, &v) in dst.chunks_exact_mut(word_bytes).zip(vals) {
        v.to_bits().write_le(d);
    }
}

/// Compress one chunk of values, appending the payload to `out`.
pub fn compress_chunk<F: PfplFloat, Q: Quantizer<F>>(
    q: &Q,
    vals: &[F],
    scratch: &mut Scratch<F>,
    out: &mut Vec<u8>,
) -> ChunkInfo {
    let (len, info) = encode(q, vals, scratch);
    if info.raw {
        // Reserve + append — no zero-fill pass over bytes that are about
        // to be overwritten anyway.
        out.reserve(len);
        for &v in vals {
            v.to_bits().push_le(out);
        }
    } else {
        scratch.sink.append_to(out);
    }
    info
}

/// Compress one chunk of values into the start of `slot`, returning the
/// number of bytes written. `slot` must hold at least `vals.len()` words
/// (the payload never exceeds the raw size, so a [`CHUNK_BYTES`] slot
/// always suffices). This is the slab entry point for parallel workers:
/// each worker owns a disjoint slot and no intermediate `Vec` exists.
pub fn compress_chunk_into<F: PfplFloat, Q: Quantizer<F>>(
    q: &Q,
    vals: &[F],
    scratch: &mut Scratch<F>,
    slot: &mut [u8],
) -> (usize, ChunkInfo) {
    let (len, info) = encode(q, vals, scratch);
    if info.raw {
        write_raw(vals, &mut slot[..len]);
    } else {
        scratch.sink.write_to(&mut slot[..len]);
    }
    (len, info)
}

/// Decompress one chunk payload into `vals`.
pub fn decompress_chunk<F: PfplFloat, Q: Quantizer<F> + ?Sized>(
    q: &Q,
    payload: &[u8],
    raw: bool,
    vals: &mut [F],
    scratch: &mut Scratch<F>,
) -> Result<()> {
    let word_bytes = F::Bits::BITS as usize / 8;
    let raw_len = vals.len() * word_bytes;
    if raw {
        if payload.len() != raw_len {
            return Err(Error::Corrupt(format!(
                "raw chunk payload is {} bytes, expected {raw_len}",
                payload.len()
            )));
        }
        // Bulk little-endian copy — no per-value cursor arithmetic.
        for (v, s) in vals.iter_mut().zip(payload.chunks_exact(word_bytes)) {
            *v = F::from_bits(F::Bits::read_le(s));
        }
        return Ok(());
    }
    if fused_ok(vals.len()) {
        return decompress_fused(q, payload, vals, scratch);
    }
    // The staged fallback. Rejects truncated payloads and trailing bytes
    // alike.
    zeroelim::decode_into(payload, raw_len, &mut scratch.sink, &mut scratch.bytes)?;
    // Resize without clearing: shuffle::decode overwrites every word, so
    // zero-filling here would be pure overhead in the steady state.
    scratch.words.resize(vals.len(), F::Bits::ZERO);
    shuffle::decode(&scratch.bytes, &mut scratch.words);
    delta::decode_in_place(&mut scratch.words);
    q.decode_slice(&scratch.words, vals);
    Ok(())
}

/// The fused decode kernel: expand the zero-elimination level bitmaps up
/// front (`begin_decode` rebuilds them down to the 2 KiB level-0 bitmap of
/// a 16 KiB chunk, a 64-byte line at a time, and validates the exact
/// payload length, rejecting truncation and trailing bytes), then
/// reconstruct tile by tile — each bit plane's next 64-byte line is
/// expanded on demand into the inverse transpose, un-delta'd with the
/// carried predecessor, and dequantized straight into `vals`. Neither the
/// 16 KiB expanded byte buffer nor the chunk-wide word buffer of the
/// staged path is touched.
fn decompress_fused<F: PfplFloat, Q: Quantizer<F> + ?Sized>(
    q: &Q,
    payload: &[u8],
    vals: &mut [F],
    scratch: &mut Scratch<F>,
) -> Result<()> {
    let planes = F::Bits::BITS as usize;
    let sink = &mut scratch.sink;
    sink.begin_decode(payload, planes, vals.len() / 8)?;
    let mut tile = [F::Bits::ZERO; shuffle::TILE_WORDS];
    let mut lines = [[0u8; 64]; 64];
    let lines = &mut lines[..planes];
    let mut carry = F::Bits::ZERO;
    for out_t in vals.chunks_exact_mut(shuffle::TILE_WORDS) {
        for (p, line) in lines.iter_mut().enumerate() {
            sink.next_line(payload, p, line);
        }
        shuffle::decode_tile(lines, &mut tile);
        carry = delta::decode_carry(&mut tile, carry);
        q.decode_slice(&tile, out_t);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::{AbsQuantizer, PassthroughQuantizer, RelQuantizer};

    fn roundtrip_abs(vals: &[f32], eb: f32) {
        let q = AbsQuantizer::<f32>::new(eb).unwrap();
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        let info = compress_chunk(&q, vals, &mut scratch, &mut out);
        let mut back = vec![0f32; vals.len()];
        decompress_chunk(&q, &out, info.raw, &mut back, &mut scratch).unwrap();
        for (a, b) in vals.iter().zip(&back) {
            assert!((a - b).abs() <= eb, "a={a} b={b}");
        }
    }

    #[test]
    fn smooth_chunk_compresses() {
        let vals: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.001).sin()).collect();
        let q = AbsQuantizer::<f32>::new(1e-3).unwrap();
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        let info = compress_chunk(&q, &vals, &mut scratch, &mut out);
        assert!(!info.raw);
        assert!(
            out.len() < vals.len() * 4 / 3,
            "smooth data should compress ≥3x, got {} bytes",
            out.len()
        );
        roundtrip_abs(&vals, 1e-3);
    }

    #[test]
    fn random_chunk_falls_back_to_raw() {
        // White noise over the full float range is incompressible.
        let mut x = 0x12345678u64;
        let vals: Vec<f32> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f32::from_bits((x as u32 & 0x7FFF_FFFF) % 0x7F00_0000)
            })
            .collect();
        let q = RelQuantizer::<f32>::new(1e-7).unwrap(); // tiny bound → mostly lossless words
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        let info = compress_chunk(&q, &vals, &mut scratch, &mut out);
        assert!(info.raw, "incompressible chunk must be stored raw");
        assert_eq!(out.len(), 4096 * 4, "raw chunk caps expansion");
        let mut back = vec![0f32; vals.len()];
        decompress_chunk(&q, &out, true, &mut back, &mut scratch).unwrap();
        assert_eq!(
            vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn partial_chunk() {
        let vals: Vec<f32> = (0..123).map(|i| i as f32 * 0.5).collect();
        roundtrip_abs(&vals, 1e-2);
    }

    #[test]
    fn empty_chunk() {
        roundtrip_abs(&[], 1e-2);
    }

    #[test]
    fn passthrough_chunk_bit_exact() {
        let vals: Vec<f64> = (0..2048).map(|i| (i as f64).sqrt()).collect();
        let q = PassthroughQuantizer;
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        let info = compress_chunk(&q, &vals, &mut scratch, &mut out);
        let mut back = vec![0f64; vals.len()];
        decompress_chunk(&q, &out, info.raw, &mut back, &mut scratch).unwrap();
        assert_eq!(
            vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn lossless_count_reported() {
        // Mix quantizable values with NaNs/infs that must go lossless.
        let mut vals: Vec<f32> = (0..1000).map(|i| (i as f32) * 1e-4).collect();
        vals[10] = f32::NAN;
        vals[20] = f32::INFINITY;
        vals[30] = 1e30; // bin overflow
        let q = AbsQuantizer::<f32>::new(1e-3).unwrap();
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        let info = compress_chunk(&q, &vals, &mut scratch, &mut out);
        assert!(!info.raw);
        // At least the 3 specials; a handful of boundary values additionally
        // fail the exact verification (the §III-B mis-rounding phenomenon
        // PFPL exists to catch) and also count as lossless.
        assert!(
            (3..20).contains(&info.lossless_values),
            "lossless_values = {}",
            info.lossless_values
        );
    }

    #[test]
    fn slot_and_append_agree() {
        // compress_chunk and compress_chunk_into must emit identical bytes
        // for compressible, raw, partial, and empty chunks.
        let cases: Vec<Vec<f32>> = vec![
            (0..4096).map(|i| (i as f32 * 0.001).sin()).collect(),
            {
                let mut x = 0x9E3779B9u64;
                (0..4096)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        f32::from_bits(((x >> 33) as u32 & 0x7FFF_FFFF) % 0x7F00_0000)
                    })
                    .collect()
            },
            (0..123).map(|i| i as f32 * 0.5).collect(),
            vec![],
        ];
        let q = AbsQuantizer::<f32>::new(1e-3).unwrap();
        let mut scratch = Scratch::default();
        for vals in &cases {
            let mut appended = Vec::new();
            let info_a = compress_chunk(&q, vals, &mut scratch, &mut appended);
            let mut slot = vec![0u8; CHUNK_BYTES];
            let (len, info_b) = compress_chunk_into(&q, vals, &mut scratch, &mut slot);
            assert_eq!(info_a.raw, info_b.raw);
            assert_eq!(info_a.lossless_values, info_b.lossless_values);
            assert_eq!(&slot[..len], &appended[..]);
        }
    }
}
