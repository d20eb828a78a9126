//! The chunk engine: each per-chunk decision, made in one place.
//!
//! The paper describes one per-chunk kernel, the same on every device
//! (§III-E). The decisions around it live here once, so every backend —
//! the serial loop, the worker pool, the device grid, the stream —
//! supplies only the iteration, and no backend can drift from the others:
//!
//! * the quantizer a bound or header selects: [`ChunkDecoder`];
//! * opening an archive as `F`: [`ArchiveReader::open`];
//! * verifying and decoding a chunk: [`ArchiveReader::decode_chunk`] and
//!   its salvage wrapper [`ArchiveReader::salvage_chunk`];
//! * the header and tables: [`ChunkDecoder::header`] and [`start_archive`]
//!   / [`patch_archive`] over per-chunk [`ChunkEntry`]s.

use crate::chunk::{self, ChunkInfo, Scratch, CHUNK_BYTES};
use crate::container::{
    chunk_offsets, patch_tables, payload_checksum, Header, Toc, RAW_FLAG, V2_HEADER_LEN,
};
use crate::error::{Error, Result};
use crate::float::{bound_toward_zero, PfplFloat};
use crate::quantize::{
    derive_noa_bound, AbsQuantizer, NoaBound, PassthroughQuantizer, Quantizer, RelQuantizer,
};
use crate::salvage::{ChunkReport, ChunkStatus};
use crate::stats::CompressStats;
use crate::types::{BoundKind, ErrorBound, Mode};
use std::ops::Range;

/// The chunk codec: the quantizer an archive's chunks are encoded and
/// decoded with, shared by every driver so a chunk encodes to the same
/// bytes and decodes to the same bits whichever driver asked.
pub enum ChunkDecoder<F: PfplFloat> {
    /// ABS and NOA archives use the absolute quantizer.
    Abs(AbsQuantizer<F>),
    /// REL archives use the relative quantizer.
    Rel(RelQuantizer<F>),
    /// NOA-degenerate (zero-range) archives are lossless passthrough.
    Pass(PassthroughQuantizer),
}

/// Evaluate `$body` with `$q` bound to the codec's concrete quantizer —
/// one match per call, so the chunk kernels stay monomorphized.
macro_rules! with_quantizer {
    ($codec:expr, $q:ident => $body:expr) => {
        match $codec {
            ChunkDecoder::Abs($q) => $body,
            ChunkDecoder::Rel($q) => $body,
            ChunkDecoder::Pass($q) => $body,
        }
    };
}

impl<F: PfplFloat> ChunkDecoder<F> {
    /// The codec that compresses `data` under `bound`: validates the
    /// bound, rounds it toward zero into `F` (so the guarantee holds for
    /// the user's `f64` value), and for NOA derives the absolute bound from
    /// `data`'s range — scanned under `mode` — falling back to passthrough
    /// when there is none.
    pub fn from_bound(bound: ErrorBound, data: &[F], mode: Mode) -> Result<Self> {
        let eb = bound.value();
        if !(eb > 0.0) || !eb.is_finite() {
            return Err(Error::InvalidErrorBound(format!(
                "bound must be finite and > 0; got {eb}"
            )));
        }
        let eb_f: F = bound_toward_zero(eb);
        Ok(match bound {
            ErrorBound::Abs(_) => ChunkDecoder::Abs(AbsQuantizer::new(eb_f)?),
            ErrorBound::Rel(_) => ChunkDecoder::Rel(RelQuantizer::new(eb_f)?),
            ErrorBound::Noa(_) => match derive_noa_bound(data, eb_f, mode) {
                NoaBound::Abs(abs_eb) => ChunkDecoder::Abs(AbsQuantizer::new(abs_eb)?),
                NoaBound::Passthrough => ChunkDecoder::Pass(PassthroughQuantizer),
            },
        })
    }

    /// The codec the encoder used; `derived_bound` is exactly
    /// representable in `F` by construction. The caller must already have
    /// checked `header.precision == F::PRECISION` ([`ArchiveReader::open`]
    /// does).
    pub fn from_header(header: &Header) -> Result<Self> {
        let derived = F::from_f64(header.derived_bound);
        Ok(if header.passthrough {
            ChunkDecoder::Pass(PassthroughQuantizer)
        } else {
            match header.kind {
                BoundKind::Abs | BoundKind::Noa => ChunkDecoder::Abs(AbsQuantizer::new(derived)?),
                BoundKind::Rel => ChunkDecoder::Rel(RelQuantizer::new(derived)?),
            }
        })
    }

    /// The header for `count` values compressed with this codec under
    /// `bound` ([`Header::new`]): its derived bound is the quantizer's
    /// (0 in passthrough mode).
    pub fn header(&self, bound: ErrorBound, count: u64) -> Result<Header> {
        let (derived, passthrough) = match self {
            ChunkDecoder::Abs(q) => (q.bound().to_f64(), false),
            ChunkDecoder::Rel(q) => (q.bound().to_f64(), false),
            ChunkDecoder::Pass(_) => (0.0, true),
        };
        Header::new(F::PRECISION, bound, derived, passthrough, count)
    }

    /// The quantizer as a trait object, for the device simulator's block
    /// kernels.
    pub fn quantizer(&self) -> &dyn Quantizer<F> {
        with_quantizer!(self, q => q)
    }

    /// [`chunk::compress_chunk`]: append one chunk's payload to `out`.
    pub fn compress_chunk(&self, vals: &[F], s: &mut Scratch<F>, out: &mut Vec<u8>) -> ChunkInfo {
        with_quantizer!(self, q => chunk::compress_chunk(q, vals, s, out))
    }

    /// [`chunk::compress_chunk_into`]: write one chunk's payload to the
    /// start of a slab slot and return its length.
    pub fn compress_chunk_into(
        &self,
        vals: &[F],
        s: &mut Scratch<F>,
        slot: &mut [u8],
    ) -> (usize, ChunkInfo) {
        with_quantizer!(self, q => chunk::compress_chunk_into(q, vals, s, slot))
    }

    /// [`chunk::decompress_chunk`]: decode one chunk payload into `vals`.
    /// Errors are payload-relative; [`ArchiveReader::decode_chunk`]
    /// rebases them.
    pub fn decode_chunk(
        &self,
        payload: &[u8],
        raw: bool,
        vals: &mut [F],
        s: &mut Scratch<F>,
    ) -> Result<()> {
        with_quantizer!(self, q => chunk::decompress_chunk(q, payload, raw, vals, s))
    }
}

/// An archive opened for decoding as `F`.
pub struct ArchiveReader<'a, F: PfplFloat> {
    /// The validated header and chunk tables.
    pub toc: Toc,
    /// The codec the header selects.
    pub codec: ChunkDecoder<F>,
    /// Every archive byte after the tables.
    pub payload: &'a [u8],
}

impl<'a, F: PfplFloat> ArchiveReader<'a, F> {
    /// Parse `archive` ([`Toc::read`], the trust boundary), check that it
    /// holds `F` values, and build its codec.
    pub fn open(archive: &'a [u8]) -> Result<Self> {
        let toc = Toc::read(archive)?;
        if toc.header.precision != F::PRECISION {
            return Err(Error::PrecisionMismatch {
                archive: toc.header.precision,
                requested: F::PRECISION,
            });
        }
        let codec = ChunkDecoder::from_header(&toc.header)?;
        let payload = &archive[toc.payload_start..];
        Ok(Self {
            toc,
            codec,
            payload,
        })
    }

    /// Number of values. [`Toc::read`] bounded it by the archive's length,
    /// so allocating this many values is safe.
    pub fn count(&self) -> usize {
        self.toc.header.count as usize
    }

    /// Number of values chunk `i` covers (the last chunk may be partial).
    pub fn chunk_values(&self, i: usize) -> usize {
        let vpc = chunk::values_per_chunk::<F>();
        vpc.min(self.count() - i * vpc)
    }

    /// Strict payload offsets ([`chunk_offsets`]): chunk `i` spans
    /// `offsets[i]..offsets[i + 1]`, and the table must claim exactly the
    /// payload bytes present.
    pub fn offsets(&self) -> Result<Vec<usize>> {
        chunk_offsets(&self.toc.sizes, self.payload.len(), self.toc.payload_start)
    }

    /// Lenient `(start, claimed)` extents for salvage: prefix sums clamped
    /// to the payload present, so truncation shortens later chunks instead
    /// of failing the archive, and trailing unclaimed bytes are ignored.
    pub fn extents(&self) -> Vec<(usize, usize)> {
        let mut acc = 0u64;
        let present = self.payload.len() as u64;
        let extent = |s: &u32| {
            let claimed = (s & !RAW_FLAG) as usize;
            let start = acc.min(present) as usize;
            acc = acc.saturating_add(claimed as u64);
            (start, claimed)
        };
        self.toc.sizes.iter().map(extent).collect()
    }

    /// The verify-and-decode step for chunk `i` at `range` of the payload:
    /// check its v2 checksum (when `verify`) *before* running the backend's
    /// `decode(payload, raw)` kernel, so damage is reported as
    /// [`Error::ChecksumMismatch`] naming the chunk, then rebase kernel
    /// errors to archive offsets ([`Error::in_chunk`]).
    pub fn decode_chunk(
        &self,
        i: usize,
        range: Range<usize>,
        verify: bool,
        decode: impl FnOnce(&[u8], bool) -> Result<()>,
    ) -> Result<()> {
        let offset = self.toc.payload_start + range.start;
        let p = &self.payload[range];
        if let Some(stored) = self.toc.chunk_checksum(i).filter(|_| verify) {
            let computed = payload_checksum(i, p);
            if computed != stored {
                return Err(Error::ChecksumMismatch {
                    chunk: i,
                    offset,
                    stored,
                    computed,
                });
            }
        }
        let raw = self.toc.sizes[i] & RAW_FLAG != 0;
        decode(p, raw).map_err(|e| e.in_chunk(i, offset))
    }

    /// Salvage chunk `i` of `values` values at `extent` ([`Self::extents`]):
    /// truncated if its claimed payload is not all present, otherwise
    /// [`Self::decode_chunk`] with its outcome mapped to a [`ChunkStatus`].
    /// Only an `Ok` status vouches for what `decode` wrote.
    pub fn salvage_chunk(
        &self,
        i: usize,
        (start, claimed): (usize, usize),
        values: usize,
        decode: impl FnOnce(&[u8], bool) -> Result<()>,
    ) -> ChunkReport {
        let have = self.payload.len().saturating_sub(start).min(claimed);
        let status = if have < claimed {
            ChunkStatus::Truncated { claimed, have }
        } else {
            match self.decode_chunk(i, start..start + claimed, true, decode) {
                Ok(()) => ChunkStatus::Ok,
                Err(Error::ChecksumMismatch {
                    stored, computed, ..
                }) => ChunkStatus::ChecksumMismatch { stored, computed },
                Err(e) => ChunkStatus::PayloadError {
                    detail: e.to_string(),
                },
            }
        };
        let offset = self.toc.payload_start + start;
        ChunkReport {
            chunk: i,
            offset,
            len: claimed,
            values,
            status,
        }
    }
}

/// Run `work` on each chunk's slot of `out` — [`CHUNK_BYTES`] of `T`, so
/// one chunk of values or one chunk's slab slot — on `threads` threads
/// (inline on this one at 1), with one scratch set per thread, and return
/// the results in chunk order.
pub(crate) fn map_chunks<F: PfplFloat, T: Send, R: Send>(
    out: &mut [T],
    threads: usize,
    work: impl Fn(&mut Scratch<F>, usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let slot = CHUNK_BYTES / std::mem::size_of::<T>();
    rayon::map_chunks_mut(out, slot, threads, Scratch::default, work)
}

/// One chunk's table entries — size word (bit 31 = raw), payload
/// checksum, lossless count — built by whichever worker compressed it,
/// while the payload is hot in cache. The table writer
/// ([`start_archive`], [`patch_archive`], [`compress_stats`]) takes an
/// archive's entries in chunk order.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkEntry {
    size: u32,
    checksum: u32,
    lossless: u64,
}

impl ChunkEntry {
    /// The entries for chunk `i`, whose compressed form is `payload`.
    pub fn new(i: usize, payload: &[u8], info: ChunkInfo) -> Self {
        Self {
            size: payload.len() as u32 | if info.raw { RAW_FLAG } else { 0 },
            checksum: payload_checksum(i, payload),
            lossless: info.lossless_values,
        }
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        (self.size & !RAW_FLAG) as usize
    }
}

/// The size and checksum tables of `entries`.
fn tables(entries: &[ChunkEntry]) -> (Vec<u32>, Vec<u32>) {
    entries.iter().map(|e| (e.size, e.checksum)).unzip()
}

/// Start an archive: the header and both tables, in a buffer with room
/// for the payloads, which the caller appends in chunk order.
pub fn start_archive(header: &Header, entries: &[ChunkEntry]) -> Vec<u8> {
    let payload: usize = entries.iter().map(ChunkEntry::payload_len).sum();
    let mut archive = Vec::with_capacity(V2_HEADER_LEN + 8 * entries.len() + payload);
    let (sizes, checksums) = tables(entries);
    header.write(&sizes, &checksums, &mut archive);
    archive
}

/// Backpatch both tables into an archive begun with
/// [`Header::write_placeholder`].
pub fn patch_archive(archive: &mut [u8], entries: &[ChunkEntry]) {
    let (sizes, checksums) = tables(entries);
    patch_tables(archive, &sizes, &checksums);
}

/// Statistics for `header`'s archive of `entries`, `output_bytes` long.
pub fn compress_stats(
    header: &Header,
    entries: &[ChunkEntry],
    output_bytes: usize,
) -> CompressStats {
    CompressStats {
        total_values: header.count,
        lossless_values: entries.iter().map(|e| e.lossless).sum(),
        chunks: entries.len() as u64,
        raw_chunks: entries.iter().filter(|e| e.size & RAW_FLAG != 0).count() as u64,
        input_bytes: header.count * header.precision.word_bytes() as u64,
        output_bytes: output_bytes as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Precision;

    #[test]
    fn from_bound_picks_the_quantizer_and_rounds_toward_zero() {
        let smooth: Vec<f32> = (0..5000).map(|i| (i as f32 * 0.01).sin()).collect();
        let abs = ChunkDecoder::from_bound(ErrorBound::Abs(0.1), &smooth, Mode::Serial).unwrap();
        assert!(matches!(abs, ChunkDecoder::Abs(_)));
        let h = abs.header(ErrorBound::Abs(0.1), 5000).unwrap();
        assert!(h.derived_bound <= 0.1 && h.derived_bound > 0.0999 && !h.passthrough);
        let rel = ChunkDecoder::from_bound(ErrorBound::Rel(0.1), &smooth, Mode::Serial).unwrap();
        assert!(matches!(rel, ChunkDecoder::Rel(_)));
        let noa = ChunkDecoder::from_bound(ErrorBound::Noa(1e-3), &smooth, Mode::Serial).unwrap();
        assert!(matches!(noa, ChunkDecoder::Abs(_)));
        let h = noa.header(ErrorBound::Noa(1e-3), 5000).unwrap();
        assert!(h.derived_bound <= 2e-3 && h.kind == BoundKind::Noa);
        let flat =
            ChunkDecoder::from_bound(ErrorBound::Noa(1e-3), &[7.0f32; 100], Mode::Serial).unwrap();
        assert!(matches!(flat, ChunkDecoder::Pass(_)));
        let h = flat.header(ErrorBound::Noa(1e-3), 100).unwrap();
        assert!(h.passthrough && h.derived_bound == 0.0 && h.chunk_count == 1);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ChunkDecoder::<f64>::from_bound(ErrorBound::Abs(bad), &[], Mode::Serial),
                Err(Error::InvalidErrorBound(_))
            ));
        }
    }

    #[test]
    fn table_writer_matches_placeholder_and_patch() {
        let info = |raw| ChunkInfo {
            raw,
            lossless_values: 3,
        };
        let payloads: [&[u8]; 3] = [b"abc", b"", b"raw bytes"];
        let entries: Vec<ChunkEntry> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| ChunkEntry::new(i, p, info(i == 2)))
            .collect();
        let header =
            Header::new(Precision::Single, ErrorBound::Abs(1e-3), 1e-3, false, 9000).unwrap();
        let direct = start_archive(&header, &entries);
        assert!(direct.capacity() >= direct.len() + 12);
        let mut patched = Vec::new();
        header.write_placeholder(&mut patched);
        patch_archive(&mut patched, &entries);
        assert_eq!(direct, patched);
        let toc = Toc::read(&direct).unwrap();
        assert_eq!(toc.sizes, vec![3, 0, 9 | RAW_FLAG]);
        assert_eq!(toc.checksums[1], payload_checksum(1, b""));
        let stats = compress_stats(&header, &entries, 100);
        assert_eq!(
            (stats.lossless_values, stats.raw_chunks, stats.chunks),
            (9, 1, 3)
        );
        assert_eq!(stats.input_bytes, 36_000);
    }

    #[test]
    fn decode_step_verifies_before_decoding_and_salvage_maps_its_errors() {
        let data: Vec<f32> = (0..9000).map(|i| (i as f32 * 0.003).sin()).collect();
        let archive = crate::compress(&data, ErrorBound::Abs(1e-3), Mode::Serial).unwrap();
        let mut bad = archive.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1; // damages the last chunk's payload
        let reader = ArchiveReader::<f32>::open(&bad).unwrap();
        let offsets = reader.offsets().unwrap();
        let last_chunk = reader.toc.sizes.len() - 1;
        let range = offsets[last_chunk]..offsets[last_chunk + 1];
        let mut ran = false;
        let res = reader.decode_chunk(last_chunk, range.clone(), true, |_, _| {
            ran = true;
            Ok(())
        });
        assert!(matches!(res, Err(Error::ChecksumMismatch { chunk, .. }) if chunk == last_chunk));
        assert!(
            !ran,
            "a chunk that fails its checksum must not reach the kernel"
        );
        // Unverified, the kernel runs and its payload-relative error is
        // rebased to the chunk's archive offset.
        let res = reader.decode_chunk(last_chunk, range.clone(), false, |_, _| {
            Err(Error::Corrupt("boom".into()))
        });
        let offset = reader.toc.payload_start + range.start;
        assert_eq!(
            res,
            Err(Error::ChunkPayloadMismatch {
                chunk: last_chunk,
                offset,
                detail: "boom".into()
            })
        );
        // Salvage: checksum → status; a short extent → truncated, kernel
        // never runs.
        let extent = reader.extents()[last_chunk];
        let r = reader.salvage_chunk(last_chunk, extent, 10, |_, _| Ok(()));
        assert!(matches!(r.status, ChunkStatus::ChecksumMismatch { .. }));
        assert_eq!((r.offset, r.values), (offset, 10));
        let cut = ArchiveReader::<f32>::open(&bad[..bad.len() - 2]).unwrap();
        let extent = cut.extents()[last_chunk];
        let r = cut.salvage_chunk(last_chunk, extent, 10, |_, _| unreachable!());
        assert!(matches!(r.status, ChunkStatus::Truncated { .. }));
        assert!(matches!(
            ArchiveReader::<f64>::open(&archive),
            Err(Error::PrecisionMismatch { .. })
        ));
    }
}
