//! The chunk engine: each per-chunk decision, made in one place.
//!
//! The paper describes one per-chunk kernel, the same on every device
//! (§III-E). The decisions around it live here once, so every backend —
//! the serial loop, the worker pool, the device grid, the stream —
//! supplies only the iteration, and no backend can drift from the others:
//!
//! * the quantizer a bound or header selects: [`ChunkDecoder`];
//! * opening an archive as `F`: [`ArchiveReader::open`];
//! * verifying and decoding a group of chunks, their payloads digested
//!   together: [`ArchiveReader::decode_group`] and its salvage twin
//!   [`ArchiveReader::salvage_group`];
//! * the header and tables: [`ChunkDecoder::header`] and [`start_archive`]
//!   / [`patch_archive`] over per-chunk [`ChunkEntry`]s.

use crate::checksum;
use crate::chunk::{self, ChunkInfo, Scratch, CHUNK_BYTES};
use crate::container::{
    chunk_offsets, patch_tables, payload_checksum, payload_checksums, Header, Toc, RAW_FLAG,
    V2_HEADER_LEN,
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
    /// Errors are payload-relative; [`ArchiveReader::decode_group`]
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

    /// The verify-and-decode step for the consecutive chunks `first..`,
    /// at most [`GROUP`] of them, where chunk `first + k` spans
    /// `offsets[k]..offsets[k + 1]` of the payload. On v2 archives (when
    /// `verify`) the group's payloads are digested together
    /// ([`payload_checksums`]); then each chunk in order is checked
    /// against its stored checksum *before* the backend's
    /// `decode(i, payload, raw)` kernel runs on it, so damage is reported
    /// as [`Error::ChecksumMismatch`] naming the chunk, and kernel errors
    /// are rebased to archive offsets ([`Error::in_chunk`]). Stops at the
    /// group's first failing chunk.
    pub fn decode_group(
        &self,
        first: usize,
        offsets: &[usize],
        verify: bool,
        mut decode: impl FnMut(usize, &[u8], bool) -> Result<()>,
    ) -> Result<()> {
        let spans = offsets.windows(2).map(|w| w[0]..w[1]);
        let digests = self.digests(first, spans.clone(), verify);
        for (k, span) in spans.enumerate() {
            let i = first + k;
            self.check_and_decode(i, span, digests.map(|d| d[k]), |p, raw| decode(i, p, raw))?;
        }
        Ok(())
    }

    /// Salvage the consecutive chunks `first..`, at most [`GROUP`] of
    /// them, at `extents` ([`Self::extents`]): a chunk whose claimed
    /// payload is not all present is truncated; the others are digested
    /// together and run through [`Self::decode_group`]'s per-chunk step,
    /// its outcome mapped to a [`ChunkStatus`]. A damaged chunk does not
    /// stop the rest of the group. Only an `Ok` status vouches for what
    /// `decode` wrote.
    pub fn salvage_group(
        &self,
        first: usize,
        extents: &[(usize, usize)],
        mut decode: impl FnMut(usize, &[u8], bool) -> Result<()>,
    ) -> Vec<ChunkReport> {
        let have =
            |start: usize, claimed: usize| self.payload.len().saturating_sub(start).min(claimed);
        let spans = extents.iter().map(|&(start, claimed)| {
            (have(start, claimed) == claimed).then_some(start..start + claimed)
        });
        let digests = self.digests(first, spans.clone().map(Option::unwrap_or_default), true);
        let mut reports = Vec::with_capacity(extents.len());
        for (k, (span, &(start, claimed))) in spans.zip(extents).enumerate() {
            let i = first + k;
            let status = match span {
                None => ChunkStatus::Truncated {
                    claimed,
                    have: have(start, claimed),
                },
                Some(span) => {
                    let computed = digests.map(|d| d[k]);
                    match self.check_and_decode(i, span, computed, |p, raw| decode(i, p, raw)) {
                        Ok(()) => ChunkStatus::Ok,
                        Err(Error::ChecksumMismatch {
                            stored, computed, ..
                        }) => ChunkStatus::ChecksumMismatch { stored, computed },
                        Err(e) => ChunkStatus::PayloadError {
                            detail: e.to_string(),
                        },
                    }
                }
            };
            reports.push(ChunkReport {
                chunk: i,
                offset: self.toc.payload_start + start,
                len: claimed,
                values: self.chunk_values(i),
                status,
            });
        }
        reports
    }

    /// The checksums of chunks `first..` over the payload `spans`,
    /// digested together; `None` unless `verify` and the archive carries
    /// checksums (v2).
    fn digests(
        &self,
        first: usize,
        spans: impl Iterator<Item = Range<usize>>,
        verify: bool,
    ) -> Option<[u32; GROUP]> {
        self.toc.chunk_checksum(first).filter(|_| verify)?;
        let mut payloads: [&[u8]; GROUP] = [&[]; GROUP];
        let mut n = 0;
        for (p, span) in payloads.iter_mut().zip(spans) {
            *p = &self.payload[span];
            n += 1;
        }
        Some(payload_checksums(first, &payloads[..n]))
    }

    /// Chunk `i` at `range`: compare its `computed` checksum (if any) with
    /// the stored one, then run `decode(payload, raw)` and rebase its
    /// errors.
    fn check_and_decode(
        &self,
        i: usize,
        range: Range<usize>,
        computed: Option<u32>,
        decode: impl FnOnce(&[u8], bool) -> Result<()>,
    ) -> Result<()> {
        let offset = self.toc.payload_start + range.start;
        if let (Some(stored), Some(computed)) = (self.toc.chunk_checksum(i), computed) {
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
        decode(&self.payload[range], raw).map_err(|e| e.in_chunk(i, offset))
    }
}

/// Chunks verified and decoded, or compressed and digested, together: one
/// batch of the payload digest ([`checksum::BATCH`]).
pub const GROUP: usize = checksum::BATCH;

/// The chunk groups of `chunks` chunks: `0..GROUP`, `GROUP..2 * GROUP`,
/// ..., the last one possibly shorter.
pub fn groups(chunks: usize) -> impl Iterator<Item = Range<usize>> {
    (0..chunks)
        .step_by(GROUP)
        .map(move |first| first..chunks.min(first + GROUP))
}

/// Run `work` on each group of [`GROUP`] consecutive chunks' slots of
/// `out` — [`CHUNK_BYTES`] of `T` per chunk, so one chunk of values or one
/// chunk's slab slot — on `threads` threads (inline on this one at 1),
/// with one scratch set per thread, and return the results in group
/// order. `work` gets the group's chunk range and slots.
pub(crate) fn map_groups<F: PfplFloat, T: Send, R: Send>(
    out: &mut [T],
    threads: usize,
    work: impl Fn(&mut Scratch<F>, Range<usize>, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let slot = CHUNK_BYTES / std::mem::size_of::<T>();
    let work = |s: &mut Scratch<F>, g: usize, slots: &mut [T]| {
        let first = g * GROUP;
        work(s, first..first + slots.len().div_ceil(slot), slots)
    };
    rayon::map_chunks_mut(out, GROUP * slot, threads, Scratch::default, work)
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
            checksum: payload_checksum(i, payload),
            ..Self::unsigned(payload.len(), info)
        }
    }

    /// The entries for a `len`-byte payload, checksum still to come
    /// ([`Self::sign_group`]).
    pub(crate) fn unsigned(len: usize, info: ChunkInfo) -> Self {
        Self {
            size: len as u32 | if info.raw { RAW_FLAG } else { 0 },
            checksum: 0,
            lossless: info.lossless_values,
        }
    }

    /// Fill in the checksums of `entries`, chunks `first..`, at most
    /// [`GROUP`] of them, from their payloads digested together.
    pub(crate) fn sign_group(first: usize, entries: &mut [ChunkEntry], payloads: &[&[u8]]) {
        let digests = payload_checksums(first, payloads);
        for (e, d) in entries.iter_mut().zip(digests) {
            e.checksum = d;
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
        let only_last = &offsets[last_chunk..last_chunk + 2];
        let mut ran = false;
        let res = reader.decode_group(last_chunk, only_last, true, |_, _, _| {
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
        let res = reader.decode_group(last_chunk, only_last, false, |_, _, _| {
            Err(Error::Corrupt("boom".into()))
        });
        let offset = reader.toc.payload_start + only_last[0];
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
        let only_last = last_chunk..last_chunk + 1;
        let r = reader.salvage_group(
            last_chunk,
            &reader.extents()[only_last.clone()],
            |_, _, _| Ok(()),
        );
        assert!(matches!(r[0].status, ChunkStatus::ChecksumMismatch { .. }));
        assert_eq!((r[0].offset, r[0].values), (offset, 9000 - 8192));
        let cut = ArchiveReader::<f32>::open(&bad[..bad.len() - 2]).unwrap();
        let r = cut.salvage_group(
            last_chunk,
            &cut.extents()[only_last],
            |_, _, _| unreachable!(),
        );
        assert!(matches!(r[0].status, ChunkStatus::Truncated { .. }));
        assert!(matches!(
            ArchiveReader::<f64>::open(&archive),
            Err(Error::PrecisionMismatch { .. })
        ));
    }

    /// A 20-chunk archive with the middle payload byte of each of
    /// `chunks` flipped, and the archive's clean decode.
    fn damaged_20_chunks(chunks: &[usize]) -> (Vec<u8>, Vec<f32>) {
        let vpc = chunk::values_per_chunk::<f32>();
        let data: Vec<f32> = (0..20 * vpc - 100)
            .map(|i| (i as f32 * 0.002).sin() * 9.0 + (i % 7) as f32 * 1e-3)
            .collect();
        let mut archive = crate::compress(&data, ErrorBound::Abs(1e-4), Mode::Serial).unwrap();
        let clean: Vec<f32> = crate::decompress(&archive, Mode::Serial).unwrap();
        let toc = Toc::read(&archive).unwrap();
        assert_eq!(toc.sizes.len(), 20);
        let offsets = chunk_offsets(
            &toc.sizes,
            archive.len() - toc.payload_start,
            toc.payload_start,
        )
        .unwrap();
        for &c in chunks {
            archive[toc.payload_start + (offsets[c] + offsets[c + 1]) / 2] ^= 0x10;
        }
        (archive, clean)
    }

    #[test]
    fn group_verify_names_the_damaged_chunk_and_salvages_the_rest() {
        let vpc = chunk::values_per_chunk::<f32>();
        for damaged in [&[9][..], &[9, 12]] {
            let (archive, clean) = damaged_20_chunks(damaged);
            for mode in [Mode::Serial, Mode::Parallel] {
                let err = crate::decompress::<f32>(&archive, mode).unwrap_err();
                assert!(
                    matches!(err, Error::ChecksumMismatch { chunk: 9, .. }),
                    "{mode:?}: {err:?}"
                );
                let (vals, report) = crate::decompress_salvage(&archive, mode, f32::NAN).unwrap();
                let flagged: Vec<usize> = report
                    .chunks
                    .iter()
                    .filter(|c| !c.status.is_ok())
                    .map(|c| c.chunk)
                    .collect();
                assert_eq!(flagged, damaged, "{mode:?}");
                assert!(report
                    .chunks
                    .iter()
                    .filter(|c| !c.status.is_ok())
                    .all(|c| matches!(c.status, ChunkStatus::ChecksumMismatch { .. })));
                for (c, (got, want)) in vals.chunks(vpc).zip(clean.chunks(vpc)).enumerate() {
                    if damaged.contains(&c) {
                        assert!(got.iter().all(|v| v.is_nan()), "chunk {c} not filled");
                    } else {
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(got), bits(want), "{mode:?} chunk {c}");
                    }
                }
            }
            let report = crate::verify_archive::<f32>(&archive).unwrap();
            assert_eq!(report.damaged(), damaged.len());
        }
    }

    #[test]
    fn v1_archives_skip_group_verification() {
        // A v1 archive has no checksum table: a group is decoded without
        // digesting, so the damaged chunk 9 reaches the kernel.
        let (archive, _) = damaged_20_chunks(&[9]);
        let reader = ArchiveReader::<f32>::open(&archive).unwrap();
        let mut v1 = Toc::read(&archive).unwrap();
        v1.version = 1;
        v1.checksums.clear();
        assert!(v1.chunk_checksum(0).is_none());
        let v1_reader = ArchiveReader {
            toc: v1,
            codec: ChunkDecoder::<f32>::from_header(&reader.toc.header).unwrap(),
            payload: reader.payload,
        };
        let offsets = reader.offsets().unwrap();
        let mut seen = Vec::new();
        v1_reader
            .decode_group(8, &offsets[8..=16], true, |i, _, _| {
                seen.push(i);
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, (8..16).collect::<Vec<_>>());
    }
}
