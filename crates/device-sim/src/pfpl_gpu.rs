//! PFPL compression/decompression kernels on the simulated device
//! (the PFPL_CUDA analogue).
//!
//! Structure mirrors §III-E:
//!
//! * one thread block per 16 KiB chunk, blocks claimed dynamically by
//!   persistent workers;
//! * quantization is embarrassingly parallel; delta encoding reads only
//!   inputs; the bit shuffle runs at warp granularity with
//!   `log2(wordsize)` butterfly shuffle steps;
//! * zero-elimination bitmaps are built one byte (8 input bytes) per
//!   thread without atomics; output compaction uses block-wide exclusive
//!   scans with per-thread pre-reduction. The encoder uses no CPU
//!   zero-elimination code, so the byte-identity tests compare two
//!   independent encoders;
//! * the cumulative compressed size is propagated between blocks with
//!   decoupled look-back, and each block writes its payload into device
//!   memory at its exclusive-prefix offset;
//! * the decoder prefix-sums the stored chunk sizes and reverses each
//!   stage, using a block-wide scan for the delta decode.
//!
//! The output archive is **byte-for-byte identical** to
//! [`pfpl::compress()`]'s, and decompression of any PFPL archive yields
//! bit-identical values — the paper's CPU/GPU-compatibility guarantee,
//! enforced here by integration tests rather than by trusting two
//! compilers.

use crate::block;
use crate::configs::DeviceConfig;
use crate::grid;
use crate::lookback::Lookback;
use crate::shared::{DeviceBuffer, DeviceSlice};
use crate::warp::{self, WARP_SIZE};
use pfpl::chunk::ChunkInfo;
use pfpl::engine::{start_archive, ArchiveReader, ChunkDecoder, ChunkEntry};
use pfpl::error::{Error, Result};
use pfpl::float::{negabinary, PfplFloat, Word};
use pfpl::lossless::shuffle;
use pfpl::quantize::Quantizer;
use pfpl::salvage::SalvageReport;
use pfpl::types::{ErrorBound, Mode};

/// A simulated GPU that compresses and decompresses PFPL archives.
#[derive(Debug, Clone, Copy)]
pub struct GpuDevice {
    config: DeviceConfig,
}

impl GpuDevice {
    /// Create a device from a configuration (see [`crate::configs`]).
    pub fn new(config: DeviceConfig) -> Self {
        Self { config }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Compress `data` under `bound`; byte-identical to [`pfpl::compress()`].
    pub fn compress<F: PfplFloat>(&self, data: &[F], bound: ErrorBound) -> Result<Vec<u8>>
    where
        F::Bits: WarpTranspose,
    {
        let codec = ChunkDecoder::from_bound(bound, data, Mode::Parallel)?;
        let header = codec.header(bound, data.len() as u64)?;
        let vpc = pfpl::chunk::values_per_chunk::<F>();
        let nchunks = header.chunk_count as usize;
        // Raw fallback caps each chunk at its uncompressed size, so the
        // worst-case payload is the input size.
        let arena = DeviceBuffer::new(data.len() * (F::Bits::BITS as usize / 8));
        let lookback = Lookback::new(nchunks);
        let entries = DeviceSlice::new_with(nchunks, ChunkEntry::default());

        grid::launch_init(
            nchunks,
            self.config.resident_blocks(),
            EncodeScratch::<F>::default,
            |scratch, b| {
                let lo = b * vpc;
                let hi = (lo + vpc).min(data.len());
                let info = encode_chunk_block(codec.quantizer(), &data[lo..hi], scratch);
                // Each block digests its own payload while it is still in
                // "shared memory" — the v2 checksum table entry rides the
                // same per-block store as the size entry.
                let entry = ChunkEntry::new(b, &scratch.payload, info);
                let off = lookback.run_block(b, entry.payload_len() as u64) as usize;
                // SAFETY: look-back offsets are an exclusive prefix sum of
                // the payload lengths, so every block's range is disjoint
                // and the total is bounded by the arena size; block b owns
                // entries[b] exclusively.
                unsafe {
                    arena.write_at(off, &scratch.payload);
                    entries.write_at(b, &[entry]);
                }
            },
        );

        let entries = entries.into_vec();
        let mut archive = start_archive(&header, &entries);
        let payload_len = entries.iter().map(ChunkEntry::payload_len).sum();
        archive.extend_from_slice(&arena.into_vec(payload_len));
        Ok(archive)
    }

    /// Decompress an archive; bit-identical to [`pfpl::decompress`].
    ///
    /// Blocks run the shared verify-and-decode step
    /// ([`ArchiveReader::decode_chunk`]), so v2 chunk checksums are
    /// verified per block *before* the block decodes and corruption is
    /// reported as [`Error::ChecksumMismatch`] naming the damaged chunk.
    /// The lowest failing chunk's error is returned, whatever order the
    /// blocks ran in.
    pub fn decompress<F: PfplFloat>(&self, archive: &[u8]) -> Result<Vec<F>>
    where
        F::Bits: WarpTranspose,
    {
        let reader = ArchiveReader::<F>::open(archive)?;
        // The paper's decoder computes a prefix sum over the stored sizes.
        let offsets = reader.offsets()?;
        let (vals, results) = self.launch_decode(&reader, F::ZERO, |b, decode| {
            reader.decode_chunk(b, offsets[b]..offsets[b + 1], true, decode)
        });
        results.into_iter().collect::<Result<Vec<()>>>()?;
        Ok(vals)
    }

    /// Salvage-decode a possibly damaged archive on the device: every
    /// block runs the shared salvage step
    /// ([`ArchiveReader::salvage_chunk`]) on its chunk, damaged chunks
    /// come back as `fill`, and the per-chunk report matches
    /// [`pfpl::decompress_salvage`]'s (intact chunks bit-identical to the
    /// strict decode, same statuses, same offsets). Errors only when the
    /// header itself cannot be trusted — see [`pfpl::salvage`].
    pub fn decompress_salvage<F: PfplFloat>(
        &self,
        archive: &[u8],
        fill: F,
    ) -> Result<(Vec<F>, SalvageReport)>
    where
        F::Bits: WarpTranspose,
    {
        let reader = ArchiveReader::<F>::open(archive)?;
        // Lenient extents (shared with the CPU salvage path): a truncated
        // payload shortens per-chunk extents instead of failing globally.
        let extents = reader.extents();
        let (vals, chunks) = self.launch_decode(&reader, fill, |b, decode| {
            reader.salvage_chunk(b, extents[b], reader.chunk_values(b), decode)
        });
        let version = reader.toc.version;
        Ok((vals, SalvageReport { version, chunks }))
    }

    /// Launch one decode block per chunk of `reader`. Block `b` runs
    /// `step(b, kernel)`, where `kernel(payload, raw)` is the block decode
    /// kernel writing chunk `b` into the output, which starts out as
    /// `init`. Returns the output and every block's result in chunk order.
    fn launch_decode<F: PfplFloat, R: Send>(
        &self,
        reader: &ArchiveReader<'_, F>,
        init: F,
        step: impl Fn(usize, &mut dyn FnMut(&[u8], bool) -> Result<()>) -> R + Sync,
    ) -> (Vec<F>, Vec<R>)
    where
        F::Bits: WarpTranspose,
    {
        let q = reader.codec.quantizer();
        let vpc = pfpl::chunk::values_per_chunk::<F>();
        let nchunks = reader.toc.sizes.len();
        let out = DeviceSlice::new_with(reader.count(), init.to_bits());
        let results = grid::launch_init(
            nchunks,
            self.config.resident_blocks(),
            DecodeScratch::<F>::default,
            |scratch, b| {
                step(b, &mut |p, raw| {
                    decode_chunk_block(q, p, raw, reader.chunk_values(b), scratch)?;
                    // SAFETY: the kernel leaves exactly chunk_values(b)
                    // words, and chunk b owns that range of `out` from
                    // b * vpc exclusively.
                    unsafe { out.write_at(b * vpc, &scratch.words) };
                    Ok(())
                })
            },
        );
        let vals = out.into_vec().into_iter().map(F::from_bits).collect();
        (vals, results)
    }
}

/// Words per simulated thread in compaction scans (the paper's "multiple
/// values per thread" pre-reduction).
const SCAN_VPT: usize = 8;

/// Per-worker "shared memory" for the encode kernel: every buffer the
/// fused pipeline touches, reused across all blocks a worker claims so no
/// per-chunk allocation happens in steady state.
struct EncodeScratch<F: PfplFloat> {
    words: Vec<F::Bits>,
    deltas: Vec<F::Bits>,
    shuffled: Vec<u8>,
    /// Final chunk payload (compressed or raw fallback).
    payload: Vec<u8>,
    ze: ZeBlockScratch,
}

impl<F: PfplFloat> Default for EncodeScratch<F> {
    fn default() -> Self {
        Self {
            words: Vec::new(),
            deltas: Vec::new(),
            shuffled: Vec::new(),
            payload: Vec::new(),
            ze: ZeBlockScratch::default(),
        }
    }
}

/// One block's encode kernel: the fused quantize → delta → bit-shuffle →
/// zero-eliminate pipeline, all in "shared memory" buffers. The payload is
/// left in `s.payload`.
fn encode_chunk_block<F: PfplFloat>(
    q: &dyn Quantizer<F>,
    vals: &[F],
    s: &mut EncodeScratch<F>,
) -> ChunkInfo
where
    F::Bits: WarpTranspose,
{
    let word_bytes = F::Bits::BITS as usize / 8;
    let raw_len = vals.len() * word_bytes;

    // Quantize (embarrassingly parallel across threads).
    s.words.clear();
    let mut lossless = 0u64;
    for &v in vals {
        let w = q.encode(v);
        lossless += q.is_lossless_word(w) as u64;
        s.words.push(w);
    }

    // Delta + negabinary: each thread reads its left neighbor from the
    // snapshot (no scan needed when encoding).
    s.deltas.clear();
    for i in 0..s.words.len() {
        let prev = if i == 0 { F::Bits::ZERO } else { s.words[i - 1] };
        s.deltas.push(negabinary::encode(s.words[i].wrapping_sub(prev)));
    }

    // Bit shuffle at warp granularity (scalar for a partial final chunk
    // that is not whole groups), then zero-byte elimination with
    // block-scan compaction.
    let n = s.deltas.len();
    s.shuffled.resize(raw_len, 0);
    if n > 0 && n.is_multiple_of(F::Bits::BITS as usize) {
        warp_bitshuffle::<F::Bits>(&s.deltas, &mut s.shuffled);
    } else {
        shuffle::encode(&s.deltas, &mut s.shuffled);
    }
    s.payload.clear();
    zeroelim_block(&s.shuffled, &mut s.ze, &mut s.payload);
    let enc_len = s.payload.len();

    if enc_len >= raw_len {
        // Raw fallback: emit the original values unchanged (bulk
        // little-endian copy straight into the payload buffer).
        s.payload.clear();
        s.payload.resize(raw_len, 0);
        for (d, &v) in s.payload.chunks_exact_mut(word_bytes).zip(vals) {
            v.to_bits().write_le(d);
        }
        ChunkInfo {
            raw: true,
            lossless_values: 0,
        }
    } else {
        ChunkInfo {
            raw: false,
            lossless_values: lossless,
        }
    }
}

/// Warp-granularity bit shuffle for whole groups of `BITS` words.
fn warp_bitshuffle<W: Word + WarpTranspose>(words: &[W], out: &mut [u8]) {
    let bits = W::BITS as usize;
    let n = words.len();
    debug_assert_eq!(n % bits, 0);
    let plane_bytes = n / 8;
    let word_bytes = bits / 8;
    for g in 0..n / bits {
        let group = &words[g * bits..(g + 1) * bits];
        W::warp_transpose(group, |p, t| {
            let off = p * plane_bytes + g * word_bytes;
            t.write_le(&mut out[off..off + word_bytes]);
        });
    }
}

/// Inverse warp-granularity bit shuffle.
fn warp_bitunshuffle<W: Word + WarpTranspose>(bytes: &[u8], words: &mut [W]) {
    let bits = W::BITS as usize;
    let n = words.len();
    debug_assert_eq!(n % bits, 0);
    let plane_bytes = n / 8;
    let word_bytes = bits / 8;
    for g in 0..n / bits {
        let read_plane = |p: usize| {
            let off = p * plane_bytes + g * word_bytes;
            W::read_le(&bytes[off..off + word_bytes])
        };
        W::warp_untranspose(&mut words[g * bits..(g + 1) * bits], read_plane);
    }
}

/// Per-word-size warp transpose plumbing (32 words in one warp for u32,
/// 64 words as two registers per lane for u64).
pub trait WarpTranspose: Word {
    /// Transpose a `BITS`-word group and hand plane `p`'s word (MSB plane
    /// first) to `emit`.
    fn warp_transpose(group: &[Self], emit: impl FnMut(usize, Self));
    /// Inverse: fetch plane `p`'s word via `fetch`, transpose back into
    /// `group`.
    fn warp_untranspose(group: &mut [Self], fetch: impl Fn(usize) -> Self);
}

impl WarpTranspose for u32 {
    fn warp_transpose(group: &[Self], mut emit: impl FnMut(usize, Self)) {
        let mut lanes: [u32; WARP_SIZE] = group.try_into().expect("32-word group");
        warp::transpose32(&mut lanes);
        for p in 0..32 {
            emit(p, lanes[31 - p]);
        }
    }
    fn warp_untranspose(group: &mut [Self], fetch: impl Fn(usize) -> Self) {
        let mut lanes = [0u32; WARP_SIZE];
        for p in 0..32 {
            lanes[31 - p] = fetch(p);
        }
        warp::transpose32(&mut lanes);
        group.copy_from_slice(&lanes);
    }
}

impl WarpTranspose for u64 {
    fn warp_transpose(group: &[Self], mut emit: impl FnMut(usize, Self)) {
        let mut lo: [u64; WARP_SIZE] = group[..32].try_into().expect("64-word group");
        let mut hi: [u64; WARP_SIZE] = group[32..].try_into().expect("64-word group");
        warp::transpose64(&mut lo, &mut hi);
        for p in 0..64 {
            let j = 63 - p;
            emit(p, if j < 32 { lo[j] } else { hi[j - 32] });
        }
    }
    fn warp_untranspose(group: &mut [Self], fetch: impl Fn(usize) -> Self) {
        let mut lo = [0u64; WARP_SIZE];
        let mut hi = [0u64; WARP_SIZE];
        for p in 0..64 {
            let j = 63 - p;
            if j < 32 {
                lo[j] = fetch(p);
            } else {
                hi[j - 32] = fetch(p);
            }
        }
        warp::transpose64(&mut lo, &mut hi);
        group[..32].copy_from_slice(&lo);
        group[32..].copy_from_slice(&hi);
    }
}

/// Reusable buffers for [`zeroelim_block`] (bitmap ping-pong, scan counts,
/// compacted data, per-level non-repeat bytes).
#[derive(Default)]
struct ZeBlockScratch {
    bitmap_a: Vec<u8>,
    bitmap_b: Vec<u8>,
    counts: Vec<u32>,
    data: Vec<u8>,
    nonreps: [Vec<u8>; pfpl::lossless::zeroelim::LEVELS],
}

/// Build the nonzero bitmap one byte per simulated thread (8 input bytes
/// each, no atomics) and compact the nonzero bytes with a block scan.
fn zeroelim_block(input: &[u8], s: &mut ZeBlockScratch, out: &mut Vec<u8>) {
    // Level-0 bitmap.
    let len0 = input.len().div_ceil(8);
    s.bitmap_a.clear();
    s.bitmap_a.resize(len0, 0);
    for (t, slot) in s.bitmap_a.iter_mut().enumerate() {
        let mut byte = 0u8;
        for b in 0..8 {
            let idx = t * 8 + b;
            if idx < input.len() && input[idx] != 0 {
                byte |= 1 << b;
            }
        }
        *slot = byte;
    }

    // Compact nonzero data bytes via block-wide exclusive scan of
    // per-thread nonzero counts.
    let nthreads = input.len().div_ceil(SCAN_VPT);
    s.counts.clear();
    s.counts.extend((0..nthreads).map(|t| {
        input[t * SCAN_VPT..((t + 1) * SCAN_VPT).min(input.len())]
            .iter()
            .filter(|&&b| b != 0)
            .count() as u32
    }));
    let total = block::exclusive_scan_u32(&mut s.counts, 1) as usize;
    s.data.clear();
    s.data.resize(total, 0);
    for t in 0..nthreads {
        let mut off = s.counts[t] as usize;
        for &b in &input[t * SCAN_VPT..((t + 1) * SCAN_VPT).min(input.len())] {
            if b != 0 {
                s.data[off] = b;
                off += 1;
            }
        }
    }

    // Iterated repeat-elimination of the bitmap. These levels shrink by 8×
    // per round (a full chunk's level-1 input is 2 KiB), so even the GPU
    // code processes them with a single warp; the simulation does the same
    // serially per block, ping-ponging between the two bitmap buffers.
    for nr in &mut s.nonreps {
        nr.clear();
        let lenk = s.bitmap_a.len().div_ceil(8);
        s.bitmap_b.clear();
        s.bitmap_b.resize(lenk, 0);
        for (j, &b) in s.bitmap_a.iter().enumerate() {
            // Each simulated thread reads its left neighbor from the
            // snapshot — elementwise, no scan needed.
            let prev = if j == 0 { 0 } else { s.bitmap_a[j - 1] };
            if b != prev {
                s.bitmap_b[j >> 3] |= 1 << (j & 7);
                nr.push(b);
            }
        }
        std::mem::swap(&mut s.bitmap_a, &mut s.bitmap_b);
    }

    out.extend_from_slice(&s.bitmap_a);
    for nr in s.nonreps.iter().rev() {
        out.extend_from_slice(nr);
    }
    out.extend_from_slice(&s.data);
}

/// Per-worker "shared memory" for the decode kernel.
struct DecodeScratch<F: PfplFloat> {
    /// Reconstructed (unshuffled) chunk bytes.
    bytes: Vec<u8>,
    ze: pfpl::lossless::zeroelim::Scratch,
    /// Decoded value bit patterns — the kernel's output.
    words: Vec<F::Bits>,
    wide: Vec<u64>,
    own: Vec<u64>,
}

impl<F: PfplFloat> Default for DecodeScratch<F> {
    fn default() -> Self {
        Self {
            bytes: Vec::new(),
            ze: pfpl::lossless::zeroelim::Scratch::default(),
            words: Vec::new(),
            wide: Vec::new(),
            own: Vec::new(),
        }
    }
}

/// One block's decode kernel: zero-elimination expand, bit unshuffle,
/// block-scan delta decode, quantizer decode. Leaves the chunk's words
/// (already quantizer-decoded to value bit patterns) in `s.words`.
fn decode_chunk_block<F: PfplFloat>(
    q: &dyn Quantizer<F>,
    payload: &[u8],
    raw: bool,
    nvals: usize,
    s: &mut DecodeScratch<F>,
) -> Result<()>
where
    F::Bits: WarpTranspose,
{
    let word_bytes = F::Bits::BITS as usize / 8;
    let raw_len = nvals * word_bytes;
    s.words.clear();
    s.words.resize(nvals, F::Bits::ZERO);
    if raw {
        if payload.len() != raw_len {
            return Err(Error::Corrupt(format!(
                "raw chunk payload is {} bytes, expected {raw_len}",
                payload.len()
            )));
        }
        // Bulk little-endian load of the stored bit patterns.
        F::Bits::read_slice_le(payload, &mut s.words);
        return Ok(());
    }
    // Rejects truncated payloads and trailing bytes alike.
    pfpl::lossless::zeroelim::decode_into(payload, raw_len, &mut s.ze, &mut s.bytes)?;
    if nvals > 0 && nvals.is_multiple_of(F::Bits::BITS as usize) {
        warp_bitunshuffle(&s.bytes, &mut s.words);
    } else {
        shuffle::decode(&s.bytes, &mut s.words);
    }
    // Delta decode = inclusive scan of negabinary-decoded residuals. The
    // GPU needs the block-wide scan here (§III-E: "the decoder requires a
    // block-wide prefix sum"), which is why decompression is the slower
    // direction on the device.
    s.wide.clear();
    s.wide
        .extend(s.words.iter().map(|&w| negabinary::decode(w).to_u64()));
    // exclusive scan → shift to inclusive by adding own value
    s.own.clear();
    s.own.extend_from_slice(&s.wide);
    block::exclusive_scan_wrapping_u64(&mut s.wide, SCAN_VPT);
    for i in 0..nvals {
        let w = F::Bits::from_u64(s.wide[i].wrapping_add(s.own[i]));
        s.words[i] = q.decode(w).to_bits();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use pfpl::types::Mode;

    fn device() -> GpuDevice {
        GpuDevice::new(configs::RTX_4090)
    }

    fn smooth(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| (i as f32 * 0.002).sin() * 3.0 + (i as f32 * 0.00017).cos())
            .collect()
    }

    #[test]
    fn gpu_archive_identical_to_cpu_abs() {
        let data = smooth(200_000);
        for &eb in &[1e-1, 1e-3] {
            let cpu = pfpl::compress(&data, ErrorBound::Abs(eb), Mode::Serial).unwrap();
            let gpu = device().compress(&data, ErrorBound::Abs(eb)).unwrap();
            assert_eq!(cpu, gpu, "eb={eb}");
        }
    }

    #[test]
    fn gpu_archive_identical_to_cpu_rel_noa() {
        let data = smooth(100_000);
        for bound in [ErrorBound::Rel(1e-2), ErrorBound::Noa(1e-3)] {
            let cpu = pfpl::compress(&data, bound, Mode::Parallel).unwrap();
            let gpu = device().compress(&data, bound).unwrap();
            assert_eq!(cpu, gpu, "{bound:?}");
        }
    }

    #[test]
    fn gpu_archive_identical_f64() {
        let data: Vec<f64> = (0..60_000).map(|i| (i as f64 * 0.001).sin() * 100.0).collect();
        for bound in [
            ErrorBound::Abs(1e-6),
            ErrorBound::Rel(1e-5),
            ErrorBound::Noa(1e-4),
        ] {
            let cpu = pfpl::compress(&data, bound, Mode::Serial).unwrap();
            let gpu = device().compress(&data, bound).unwrap();
            assert_eq!(cpu, gpu, "{bound:?}");
        }
    }

    #[test]
    fn cross_device_decompression() {
        // Compress on "GPU", decompress on CPU — and vice versa.
        let data = smooth(150_000);
        let bound = ErrorBound::Abs(1e-3);
        let gpu_arch = device().compress(&data, bound).unwrap();
        let via_cpu: Vec<f32> = pfpl::decompress(&gpu_arch, Mode::Parallel).unwrap();
        let via_gpu: Vec<f32> = device().decompress(&gpu_arch).unwrap();
        assert_eq!(
            via_cpu.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            via_gpu.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        for (a, b) in data.iter().zip(&via_gpu) {
            assert!((a - b).abs() <= 1e-3);
        }
    }

    #[test]
    fn partial_chunks_and_specials() {
        let mut data = smooth(5_123); // not a multiple of the chunk size
        data[7] = f32::NAN;
        data[8] = f32::INFINITY;
        let bound = ErrorBound::Abs(1e-2);
        let cpu = pfpl::compress(&data, bound, Mode::Serial).unwrap();
        let gpu = device().compress(&data, bound).unwrap();
        assert_eq!(cpu, gpu);
        let back: Vec<f32> = device().decompress(&gpu).unwrap();
        assert!(back[7].is_nan());
        assert_eq!(back[8], f32::INFINITY);
    }

    #[test]
    fn empty_input_identical() {
        let cpu = pfpl::compress::<f32>(&[], ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        let gpu = device().compress::<f32>(&[], ErrorBound::Abs(1e-3)).unwrap();
        assert_eq!(cpu, gpu);
        assert!(device().decompress::<f32>(&gpu).unwrap().is_empty());
    }

    #[test]
    fn incompressible_chunks_identical() {
        let mut x = 1u64;
        let data: Vec<f32> = (0..40_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f32::from_bits((x as u32 % 0x7F00_0000).max(1 << 23))
            })
            .collect();
        let bound = ErrorBound::Rel(1e-7);
        let cpu = pfpl::compress(&data, bound, Mode::Serial).unwrap();
        let gpu = device().compress(&data, bound).unwrap();
        assert_eq!(cpu, gpu);
    }

    #[test]
    fn device_salvage_matches_cpu_salvage() {
        let data = smooth(30_000); // 8 f32 chunks
        let archive = pfpl::compress(&data, ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        let mut bad = archive.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x55; // damages the final chunk's payload
        // Strict device decode refuses, naming the damaged chunk.
        assert!(matches!(
            device().decompress::<f32>(&bad),
            Err(Error::ChecksumMismatch { chunk: 7, .. })
        ));
        // Salvage agrees with the CPU backends bit-for-bit, report and all.
        let (cpu_vals, cpu_rep) =
            pfpl::decompress_salvage::<f32>(&bad, Mode::Serial, f32::NAN).unwrap();
        let (gpu_vals, gpu_rep) = device().decompress_salvage::<f32>(&bad, f32::NAN).unwrap();
        assert_eq!(cpu_rep, gpu_rep);
        assert_eq!(gpu_rep.damaged(), 1);
        assert!(!gpu_rep.chunks[7].status.is_ok());
        assert_eq!(
            cpu_vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            gpu_vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_device_configs_agree() {
        let data = smooth(80_000);
        let bound = ErrorBound::Abs(1e-3);
        let reference = pfpl::compress(&data, bound, Mode::Serial).unwrap();
        for cfg in configs::ALL_DEVICES {
            let arch = GpuDevice::new(cfg).compress(&data, bound).unwrap();
            assert_eq!(arch, reference, "{}", cfg.name);
        }
    }
}
