//! The traced run: per-layer figures, measured outside-in.
//!
//! Spans go around each call into a layer's public functions, made from
//! the benchmark's own code; nothing inside the library is instrumented.
//! Each round, on one pinned CPU:
//!
//! 1. untraced `pfpl::compress` / `pfpl::decompress` (serial) of every
//!    input — the reference times for the residual and the overhead;
//! 2. the same work composed from the layers, each call in a span:
//!    `Header::write_placeholder` + `patch_tables` (container),
//!    `chunk::compress_chunk` (the fused production kernel),
//!    `container::payload_checksum`; then `Toc::read` + `chunk_offsets`,
//!    the checksum, and `ChunkDecoder::decode_chunk`. Its outputs must equal
//!    the reference, byte for byte;
//! 3. the staged stage functions per chunk (quantize, delta, shuffle,
//!    zero-elim and back). Full chunks run the fused kernel in production,
//!    not these, so the gap between their sum and the fused kernel is
//!    reported as `chunk.staged_gap_frac`;
//!
//! then, unpinned, parallel compress + decompress of every input (pool
//! efficiency and allocations) and an empty parallel `for_each` over each
//! input's chunk count (pool dispatch).

use crate::alloc::Probe;
use crate::bench::{digest, Metric, Prepared, Tally};
use crate::host::Cpus;
use crate::json::Json;
use crate::stats;
use crate::workload::Workload;
use pfpl::chunk::{self, Scratch};
use pfpl::container::{chunk_offsets, patch_tables, payload_checksum, Header, Toc, RAW_FLAG};
use pfpl::float::Word;
use pfpl::lossless::{delta, shuffle, zeroelim};
use pfpl::quantize::Quantizer;
use pfpl::{ChunkDecoder, Error, Mode, PfplFloat};
use rayon::prelude::*;
use std::time::Instant;

/// Span names, one per layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Compress,
    Decompress,
    ContainerAssemble,
    ContainerParse,
    ChunkCompress,
    ChunkDecompress,
    ChecksumWrite,
    ChecksumVerify,
    StagedCompress,
    StagedDecompress,
    QuantizeEncode,
    QuantizeDecode,
    DeltaEncode,
    DeltaDecode,
    ShuffleEncode,
    ShuffleDecode,
    ZeroelimEncode,
    ZeroelimDecode,
    PoolDispatch,
}

const LAYERS: usize = 19;

impl Layer {
    const ALL: [Layer; LAYERS] = [
        Layer::Compress,
        Layer::Decompress,
        Layer::ContainerAssemble,
        Layer::ContainerParse,
        Layer::ChunkCompress,
        Layer::ChunkDecompress,
        Layer::ChecksumWrite,
        Layer::ChecksumVerify,
        Layer::StagedCompress,
        Layer::StagedDecompress,
        Layer::QuantizeEncode,
        Layer::QuantizeDecode,
        Layer::DeltaEncode,
        Layer::DeltaDecode,
        Layer::ShuffleEncode,
        Layer::ShuffleDecode,
        Layer::ZeroelimEncode,
        Layer::ZeroelimDecode,
        Layer::PoolDispatch,
    ];

    /// Span name: the module the call goes into, and the call.
    fn name(self) -> &'static str {
        match self {
            Layer::Compress => "compress (composed, serial)",
            Layer::Decompress => "decompress (composed, serial)",
            Layer::ContainerAssemble => "container.assemble",
            Layer::ContainerParse => "container.parse",
            Layer::ChunkCompress => "chunk.compress",
            Layer::ChunkDecompress => "chunk.decompress",
            Layer::ChecksumWrite => "checksum.write",
            Layer::ChecksumVerify => "checksum.verify",
            Layer::StagedCompress => "chunk.staged_compress",
            Layer::StagedDecompress => "chunk.staged_decompress",
            Layer::QuantizeEncode => "quantize.encode",
            Layer::QuantizeDecode => "quantize.decode",
            Layer::DeltaEncode => "delta.encode",
            Layer::DeltaDecode => "delta.decode",
            Layer::ShuffleEncode => "shuffle.encode",
            Layer::ShuffleDecode => "shuffle.decode",
            Layer::ZeroelimEncode => "zeroelim.encode",
            Layer::ZeroelimDecode => "zeroelim.decode",
            Layer::PoolDispatch => "pool.dispatch",
        }
    }
}

/// Busy time, self time (busy minus child spans), bytes and calls.
#[derive(Debug, Default, Clone, Copy)]
struct Agg {
    busy: f64,
    self_time: f64,
    bytes: u64,
    count: u64,
}

impl Agg {
    fn add(&mut self, o: &Agg) {
        self.busy += o.busy;
        self.self_time += o.self_time;
        self.bytes += o.bytes;
        self.count += o.count;
    }

    fn gbs(&self) -> f64 {
        self.bytes as f64 / self.busy / 1e9
    }
}

/// One recorded span.
struct Span {
    layer: Layer,
    op: u32,
    parent: Option<u32>,
    start_ns: u64,
    dur_ns: u64,
    bytes: u64,
}

struct Open {
    start: Instant,
    children: f64,
    span: Option<u32>,
}

/// Span recorder: aggregates every span into the current round, and keeps
/// the spans themselves (in memory, written out at the end) for the first
/// round only, which bounds the memory a long run needs.
struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    round: [Agg; LAYERS],
    total: [Agg; LAYERS],
    spans: Vec<Span>,
    record: bool,
    op: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            round: [Agg::default(); LAYERS],
            total: [Agg::default(); LAYERS],
            spans: Vec::new(),
            record: true,
            op: 0,
        }
    }

    /// Run `f` inside a span of `layer` that processed `bytes`.
    fn span<R>(&mut self, layer: Layer, bytes: usize, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let span = self.record.then(|| {
            if self.stack.is_empty() {
                self.op += 1;
            }
            self.spans.push(Span {
                layer,
                op: self.op,
                parent: self.stack.last().and_then(|o| o.span),
                start_ns: 0,
                dur_ns: 0,
                bytes: bytes as u64,
            });
            (self.spans.len() - 1) as u32
        });
        self.stack.push(Open {
            start: Instant::now(),
            children: 0.0,
            span,
        });
        let r = f(self);
        let end = Instant::now();
        let open = self.stack.pop().expect("span stack");
        let d = (end - open.start).as_secs_f64();
        if let Some(parent) = self.stack.last_mut() {
            parent.children += d;
        }
        let a = &mut self.round[layer as usize];
        a.busy += d;
        a.self_time += d - open.children;
        a.bytes += bytes as u64;
        a.count += 1;
        if let Some(i) = open.span {
            let s = &mut self.spans[i as usize];
            s.start_ns = (open.start - self.epoch).as_nanos() as u64;
            s.dur_ns = (end - open.start).as_nanos() as u64;
        }
        r
    }

    /// Close the round: return its aggregates and stop keeping spans.
    fn end_round(&mut self) -> [Agg; LAYERS] {
        let r = self.round;
        for (t, a) in self.total.iter_mut().zip(&r) {
            t.add(a);
        }
        self.round = [Agg::default(); LAYERS];
        self.record = false;
        r
    }

    /// The kept spans as Chrome trace-event JSON (Perfetto, chrome://tracing).
    fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.layer.name())),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns as f64 / 1e3)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::obj([
                            ("op", Json::Int(s.op as u64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                            ),
                            ("bytes", Json::Int(s.bytes)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([("traceEvents", Json::Arr(events))])
    }
}

/// `pfpl::compress(.., Mode::Serial)` composed from the layers, mirroring
/// the serial driver: header and zeroed tables, then per chunk the fused
/// kernel and the payload checksum, then the tables are patched.
fn composed_compress<F: PfplFloat, Q: Quantizer<F>>(
    tr: &mut Tracer,
    q: &Q,
    header: &Header,
    data: &[F],
    scratch: &mut Scratch<F>,
) -> (Vec<u8>, u64) {
    let wb = F::Bits::BITS as usize / 8;
    tr.span(Layer::Compress, data.len() * wb, |tr| {
        let vpc = chunk::values_per_chunk::<F>();
        let n = data.len().div_ceil(vpc);
        let mut archive =
            Vec::with_capacity(pfpl::container::V2_HEADER_LEN + 8 * n + data.len() * wb);
        tr.span(Layer::ContainerAssemble, 0, |_| {
            header.write_placeholder(&mut archive)
        });
        let (mut sizes, mut checksums) = (vec![0u32; n], vec![0u32; n]);
        let mut raw = 0;
        for (i, c) in data.chunks(vpc).enumerate() {
            let start = archive.len();
            let info = tr.span(Layer::ChunkCompress, c.len() * wb, |_| {
                chunk::compress_chunk(q, c, scratch, &mut archive)
            });
            sizes[i] = (archive.len() - start) as u32 | if info.raw { RAW_FLAG } else { 0 };
            raw += info.raw as u64;
            let payload = &archive[start..];
            checksums[i] = tr.span(Layer::ChecksumWrite, payload.len(), |_| {
                payload_checksum(i, payload)
            });
        }
        tr.span(Layer::ContainerAssemble, 0, |_| {
            patch_tables(&mut archive, &sizes, &checksums)
        });
        (archive, raw)
    })
}

/// `pfpl::decompress(.., Mode::Serial)` composed from the layers: parse
/// the table of contents, then per chunk verify the checksum and decode.
fn composed_decompress<F: PfplFloat>(
    tr: &mut Tracer,
    archive: &[u8],
    bytes: usize,
    scratch: &mut Scratch<F>,
) -> pfpl::Result<Vec<F>> {
    tr.span(Layer::Decompress, bytes, |tr| {
        let (toc, offsets) = tr.span(Layer::ContainerParse, 0, |_| {
            let toc = Toc::read(archive)?;
            let payload_len = archive.len() - toc.payload_start;
            let offsets = chunk_offsets(&toc.sizes, payload_len, toc.payload_start)?;
            Ok::<_, Error>((toc, offsets))
        })?;
        let payload = &archive[toc.payload_start..];
        let dec = ChunkDecoder::<F>::from_header(&toc.header)?;
        let vpc = chunk::values_per_chunk::<F>();
        let mut out = vec![F::ZERO; toc.header.count as usize];
        let wb = F::Bits::BITS as usize / 8;
        for (i, vals) in out.chunks_mut(vpc).enumerate() {
            let p = &payload[offsets[i]..offsets[i + 1]];
            let computed = tr.span(Layer::ChecksumVerify, p.len(), |_| payload_checksum(i, p));
            if Some(computed) != toc.chunk_checksum(i) {
                return Err(Error::Corrupt(format!("chunk {i} checksum mismatch")));
            }
            let raw = toc.sizes[i] & RAW_FLAG != 0;
            tr.span(Layer::ChunkDecompress, vals.len() * wb, |_| {
                dec.decode_chunk(p, raw, vals, scratch)
            })?;
        }
        Ok(out)
    })
}

/// Reusable buffers of the staged stage functions.
struct Staged<F: PfplFloat> {
    words: Vec<F::Bits>,
    bytes: Vec<u8>,
    vals: Vec<F>,
    ze: zeroelim::Scratch,
    /// Zero-elim payload of every chunk of one input, and their ends.
    payloads: Vec<u8>,
    ends: Vec<usize>,
}

/// Staged compress of `data`, chunk by chunk, then staged decompress of
/// the zero-elim payloads it produced. Returns `(lossless values, bytes
/// kept by zero-elim)`.
fn staged<F: PfplFloat, Q: Quantizer<F>>(
    tr: &mut Tracer,
    q: &Q,
    data: &[F],
    st: &mut Staged<F>,
    tally: &mut Tally,
) -> (u64, u64) {
    let vpc = chunk::values_per_chunk::<F>();
    let wb = F::Bits::BITS as usize / 8;
    let (mut lossless, mut kept) = (0, 0);
    st.payloads.clear();
    st.ends.clear();
    for c in data.chunks(vpc) {
        let nb = c.len() * wb;
        tr.span(Layer::StagedCompress, nb, |tr| {
            st.words.resize(c.len(), F::Bits::ZERO);
            lossless += tr.span(Layer::QuantizeEncode, nb, |_| {
                q.encode_slice(c, &mut st.words)
            });
            tr.span(Layer::DeltaEncode, nb, |_| {
                delta::encode_in_place(&mut st.words)
            });
            st.bytes.resize(nb, 0);
            tr.span(Layer::ShuffleEncode, nb, |_| {
                shuffle::encode(&st.words, &mut st.bytes)
            });
            kept += tr.span(Layer::ZeroelimEncode, nb, |_| {
                zeroelim::encode_to_scratch(&st.bytes, &mut st.ze)
            }) as u64;
        });
        zeroelim::append_encoded(&st.ze, &mut st.payloads);
        st.ends.push(st.payloads.len());
    }
    let mut start = 0;
    for (k, c) in data.chunks(vpc).enumerate() {
        let nb = c.len() * wb;
        let payload = &st.payloads[start..st.ends[k]];
        start = st.ends[k];
        let used = tr.span(Layer::StagedDecompress, nb, |tr| {
            let used = tr.span(Layer::ZeroelimDecode, nb, |_| {
                zeroelim::decode_into(payload, nb, &mut st.ze, &mut st.bytes)
            });
            st.words.resize(c.len(), F::Bits::ZERO);
            tr.span(Layer::ShuffleDecode, nb, |_| {
                shuffle::decode(&st.bytes, &mut st.words)
            });
            tr.span(Layer::DeltaDecode, nb, |_| {
                delta::decode_in_place(&mut st.words)
            });
            st.vals.resize(c.len(), F::ZERO);
            tr.span(Layer::QuantizeDecode, nb, |_| {
                for (v, &w) in st.vals.iter_mut().zip(&st.words) {
                    *v = q.decode(w);
                }
            });
            used
        });
        tally.result("staged chunk round trip", &used, |&u| u == payload.len());
    }
    (lossless, kept)
}

/// Raw per-round data; groups of rounds (one per CPU) are summed.
#[derive(Default, Clone, Copy)]
struct RoundData {
    agg: [Agg; LAYERS],
    /// Untraced serial compress / decompress seconds.
    compress: f64,
    decompress: f64,
    /// Untraced parallel compress / decompress seconds.
    compress_par: f64,
    decompress_par: f64,
    /// Allocation calls during the parallel round trips.
    allocs: u64,
}

impl RoundData {
    fn add(&mut self, o: &RoundData) {
        for (a, b) in self.agg.iter_mut().zip(&o.agg) {
            a.add(b);
        }
        self.compress += o.compress;
        self.decompress += o.decompress;
        self.compress_par += o.compress_par;
        self.decompress_par += o.decompress_par;
        self.allocs += o.allocs;
    }
}

/// The per-layer metrics: name, unit, and how to read them from a group of
/// rounds (`archives` inputs per round, `threads` pool threads).
fn layer_metrics(
    d: &RoundData,
    archives: f64,
    threads: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let a = |l: Layer| d.agg[l as usize];
    let gbs = |l: Layer| a(l).gbs();
    let busy = |ls: &[Layer]| ls.iter().map(|&l| a(l).busy).sum::<f64>();
    let mut checksum = a(Layer::ChecksumWrite);
    checksum.add(&a(Layer::ChecksumVerify));
    use Layer::*;
    vec![
        ("quantize.encode_gbs", "GB/s", gbs(QuantizeEncode)),
        ("quantize.decode_gbs", "GB/s", gbs(QuantizeDecode)),
        ("delta.encode_gbs", "GB/s", gbs(DeltaEncode)),
        ("delta.decode_gbs", "GB/s", gbs(DeltaDecode)),
        ("shuffle.encode_gbs", "GB/s", gbs(ShuffleEncode)),
        ("shuffle.decode_gbs", "GB/s", gbs(ShuffleDecode)),
        ("zeroelim.encode_gbs", "GB/s", gbs(ZeroelimEncode)),
        ("zeroelim.decode_gbs", "GB/s", gbs(ZeroelimDecode)),
        ("chunk.compress_gbs", "GB/s", gbs(ChunkCompress)),
        ("chunk.decompress_gbs", "GB/s", gbs(ChunkDecompress)),
        (
            "chunk.staged_gap_frac",
            "ratio",
            busy(&[StagedCompress, StagedDecompress]) / busy(&[ChunkCompress, ChunkDecompress])
                - 1.0,
        ),
        ("checksum.gbs", "GB/s", checksum.gbs()),
        (
            "container.assemble_us",
            "us",
            a(ContainerAssemble).busy / archives * 1e6,
        ),
        (
            "container.parse_us",
            "us",
            a(ContainerParse).busy / archives * 1e6,
        ),
        (
            "pool.dispatch_us",
            "us",
            a(PoolDispatch).busy / a(PoolDispatch).count as f64 * 1e6,
        ),
        (
            "pool.efficiency",
            "ratio",
            (d.compress + d.decompress) / (threads * (d.compress_par + d.decompress_par)),
        ),
        (
            "compress.residual_frac",
            "ratio",
            (d.compress - busy(&[ChunkCompress, ChecksumWrite, ContainerAssemble])) / d.compress,
        ),
        (
            "decompress.residual_frac",
            "ratio",
            (d.decompress - busy(&[ChunkDecompress, ChecksumVerify, ContainerParse]))
                / d.decompress,
        ),
        ("heap.allocs_per_op", "count", d.allocs as f64 / archives),
        (
            "trace.overhead_frac",
            "ratio",
            busy(&[Compress, Decompress]) / (d.compress + d.decompress) - 1.0,
        ),
    ]
}

/// Everything one traced round does for one input, with its quantizer.
#[allow(clippy::too_many_arguments)]
fn traced_input<F: PfplFloat, Q: Quantizer<F>>(
    tr: &mut Tracer,
    q: &Q,
    p: &Prepared<F>,
    i: usize,
    header: &Header,
    scratch: &mut Scratch<F>,
    st: &mut Staged<F>,
    tally: &mut Tally,
) -> (u64, u64, u64) {
    let (archive, raw) = composed_compress(tr, q, header, &p.fields[i], scratch);
    tally.check(archive == p.archives[i], || {
        format!("composed compress of archive {i}")
    });
    let back = composed_decompress::<F>(tr, &p.archives[i], p.field_bytes(i), scratch);
    tally.result(
        format_args!("composed decompress of archive {i}"),
        &back,
        |d| digest(d) == p.decoded[i],
    );
    let (lossless, kept) = staged(tr, q, &p.fields[i], st, tally);
    (raw, lossless, kept)
}

/// The traced run: per-layer metrics (medians over groups of rounds) and
/// the layer table; the kept spans are written to `trace_path`.
pub fn run<F: PfplFloat>(
    w: Workload,
    rounds: usize,
    p: &Prepared<F>,
    cpus: &Cpus,
    tally: &mut Tally,
    trace_path: &std::path::Path,
) -> (Vec<Metric>, Json) {
    let bound = w.bound();
    let n = p.fields.len();
    let headers: Vec<Header> = p
        .archives
        .iter()
        .map(|a| {
            Toc::read(a)
                .map(|t| t.header)
                .expect("reference archive parses")
        })
        .collect();
    let mut tr = Tracer::new();
    let mut scratch = Scratch::<F>::default();
    let mut st = Staged::<F> {
        words: Vec::new(),
        bytes: Vec::new(),
        vals: Vec::new(),
        ze: zeroelim::Scratch::default(),
        payloads: Vec::new(),
        ends: Vec::new(),
    };
    let vpc = chunk::values_per_chunk::<F>();
    // One zero-sized item per chunk for the empty dispatch: never allocated.
    let units = vec![
        ();
        p.fields
            .iter()
            .map(|f| f.len().div_ceil(vpc))
            .max()
            .unwrap_or(0)
    ];
    let mut data = Vec::with_capacity(rounds);
    let (mut raw, mut lossless, mut kept) = (0u64, 0u64, 0u64);
    for r in 0..rounds {
        let mut d = RoundData::default();
        cpus.pin(cpus.for_round(r));
        for i in 0..n {
            let t0 = Instant::now();
            let a = pfpl::compress(&p.fields[i], bound, Mode::Serial);
            d.compress += t0.elapsed().as_secs_f64();
            tally.result("serial compress", &a, |a| *a == p.archives[i]);
            let t0 = Instant::now();
            let v = pfpl::decompress::<F>(&p.archives[i], Mode::Serial);
            d.decompress += t0.elapsed().as_secs_f64();
            tally.result("serial decompress", &v, |v| digest(v) == p.decoded[i]);
        }
        for (i, h) in headers.iter().enumerate() {
            let counts = match ChunkDecoder::<F>::from_header(h) {
                Ok(ChunkDecoder::Abs(q)) => {
                    traced_input(&mut tr, &q, p, i, h, &mut scratch, &mut st, tally)
                }
                Ok(ChunkDecoder::Rel(q)) => {
                    traced_input(&mut tr, &q, p, i, h, &mut scratch, &mut st, tally)
                }
                Ok(ChunkDecoder::Pass(q)) => {
                    traced_input(&mut tr, &q, p, i, h, &mut scratch, &mut st, tally)
                }
                Err(e) => {
                    tally.check(false, || format!("quantizer for archive {i}: {e}"));
                    (0, 0, 0)
                }
            };
            if r == 0 {
                raw += counts.0;
                lossless += counts.1;
                kept += counts.2;
            }
        }
        cpus.unpin();
        for i in 0..n {
            let probe = Probe::start();
            let t0 = Instant::now();
            let a = pfpl::compress(&p.fields[i], bound, Mode::Parallel);
            d.compress_par += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let v = pfpl::decompress::<F>(&p.archives[i], Mode::Parallel);
            d.decompress_par += t0.elapsed().as_secs_f64();
            d.allocs += probe.finish().1;
            tally.result("parallel compress", &a, |a| *a == p.archives[i]);
            tally.result("parallel decompress", &v, |v| digest(v) == p.decoded[i]);
        }
        for f in &p.fields {
            let chunks = &units[..f.len().div_ceil(vpc)];
            tr.span(Layer::PoolDispatch, 0, |_| {
                chunks.par_iter().for_each(|_| {})
            });
        }
        d.agg = tr.end_round();
        data.push(d);
    }

    let threads = rayon::current_num_threads() as f64;
    let groups: Vec<RoundData> = data
        .chunks_exact(cpus.rotation())
        .map(|g| {
            let mut sum = RoundData::default();
            g.iter().for_each(|d| sum.add(d));
            sum
        })
        .collect();
    let per_group: Vec<_> = groups
        .iter()
        .map(|g| layer_metrics(g, n as f64, threads))
        .collect();
    let values = p.bytes / (F::Bits::BITS as usize / 8);
    let mut metrics: Vec<Metric> = per_group[0]
        .iter()
        .enumerate()
        .map(|(k, &(name, unit, _))| Metric {
            name,
            unit,
            value: stats::median(&per_group.iter().map(|m| m[k].2).collect::<Vec<_>>()),
        })
        .collect();
    metrics.extend([
        Metric {
            name: "quantize.lossless_frac",
            unit: "ratio",
            value: lossless as f64 / values as f64,
        },
        Metric {
            name: "zeroelim.kept_frac",
            unit: "ratio",
            value: kept as f64 / p.bytes as f64,
        },
        Metric {
            name: "chunk.raw_frac",
            unit: "ratio",
            value: raw as f64 / p.chunks as f64,
        },
    ]);

    let written = std::fs::create_dir_all(trace_path.parent().unwrap_or(trace_path))
        .and_then(|_| std::fs::write(trace_path, tr.chrome_trace().to_string()));
    let table = Layer::ALL
        .iter()
        .map(|&l| {
            let a = tr.total[l as usize];
            Json::obj([
                ("layer", Json::str(l.name())),
                ("busy_s", Json::Num(a.busy)),
                ("self_s", Json::Num(a.self_time)),
                ("bytes", Json::Int(a.bytes)),
                ("calls", Json::Int(a.count)),
            ])
        })
        .collect();
    let details = Json::obj([
        ("rounds", Json::Int(rounds as u64)),
        ("archives", Json::Int(n as u64)),
        ("layers", Json::Arr(table)),
        (
            "trace_file",
            match written {
                Ok(()) => Json::str(trace_path.display().to_string()),
                Err(e) => Json::str(format!("not written: {e}")),
            },
        ),
        ("spans_kept", Json::Int(tr.spans.len() as u64)),
    ]);
    (metrics, details)
}
