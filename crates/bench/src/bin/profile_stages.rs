//! Within-run pipeline ratios that CI gates on.
//!
//! Measures GB/s (uncompressed bytes / median wall-clock, paper §IV
//! convention) for the fused chunk kernel vs the staged four passes
//! composed from the public stage functions, head-to-head,
//! end-to-end compression and decompression — serial once, parallel swept
//! across pool threads with the actual thread count keyed per
//! measurement — and the integrity paths (verified vs unverified decode,
//! salvage, verify-only), and prints the results as JSON on stdout.
//! `host_cpus` records the machine's available parallelism; sweep points
//! above it are not measured (the pool clamps them to `host_cpus` workers
//! anyway, and oversubscribed runs only produce misleading scheduler
//! noise) — their JSON value is the string `"skipped_oversubscribed"`.
//!
//! `quantizer_lanes_gbs` times the batched quantizer kernels alone —
//! `encode_slice` and `decode_slice` called once per
//! `shuffle::TILE_WORDS` values, as the fused chunk kernel calls them —
//! for REL f64 (the input widened to `f64`), REL f32 and ABS f32.
//!
//! `checksum_gbs` times the v2 payload digest alone over the end-to-end
//! archive's chunk payloads (GB/s of payload bytes, each sample hashing
//! them enough times to cover at least [`DIGEST_BYTES`]): `scalar` is
//! `container::payload_checksum` per chunk, `batched` is
//! `container::payload_checksums` over groups of `engine::GROUP` chunks,
//! as verified decode and compress run it.
//!
//! `kernels` names the SIMD kernel each lossless layer ran on this CPU:
//! the bit-plane transpose, zero-elimination, the batched checksum and
//! the delta decode.
//!
//! Per-layer figures of whole workloads (quantize, delta, shuffle,
//! zero-elimination, checksum, archive assembly, pool dispatch) come from
//! the repository benchmark on real workload data:
//! `benchmark/run.py --trace 1`.
//!
//! Flags: `--values N` (input size, default 4 Mi values = 16 MiB),
//! `--runs R` (median-of-R, default 5).

use pfpl::chunk;
use pfpl::container::{chunk_offsets, payload_checksum, payload_checksums, Toc};
use pfpl::engine::groups;
use pfpl::float::{PfplFloat, Word};
use pfpl::lossless::{delta, shuffle, zeroelim};
use pfpl::quantize::{AbsQuantizer, Quantizer, RelQuantizer};
use pfpl::types::{ErrorBound, Mode};
use pfpl_data::timing::{median_seconds, throughput_gbs};
use std::hint::black_box;
use std::time::Instant;

const BOUND: f64 = 1e-3;

/// Fewest payload bytes one `checksum_gbs` sample hashes, so a sample of
/// a small archive still runs for milliseconds.
const DIGEST_BYTES: usize = 16 << 20;

/// Median seconds of `a` and of `b` over `runs` runs each, timed
/// interleaved (a, b, a, b, ...) so slow clock drift on a shared host hits
/// both paths equally instead of skewing their ratio — the ratios are CI
/// gates, so they must not absorb ambient noise. Both run on `state`.
fn interleaved_medians<S>(
    runs: usize,
    state: &mut S,
    mut a: impl FnMut(&mut S),
    mut b: impl FnMut(&mut S),
) -> (f64, f64) {
    assert!(runs >= 1);
    let (mut ta, mut tb) = (Vec::with_capacity(runs), Vec::with_capacity(runs));
    for _ in 0..runs {
        let t0 = Instant::now();
        a(state);
        ta.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        b(state);
        tb.push(t0.elapsed().as_secs_f64());
    }
    let median = |mut ts: Vec<f64>| {
        ts.sort_by(|x, y| x.total_cmp(y));
        ts[ts.len() / 2]
    };
    (median(ta), median(tb))
}

/// Buffers of the staged composition, reused across chunks.
#[derive(Default)]
struct Staged {
    words: Vec<u32>,
    bytes: Vec<u8>,
    ze: zeroelim::Scratch,
}

/// Compress one chunk as four whole-chunk passes through the public stage
/// functions, then the raw-fallback decision: the bytes
/// `chunk::compress_chunk` appends, without its fusion.
fn staged_compress(q: &impl Quantizer<f32>, vals: &[f32], st: &mut Staged, out: &mut Vec<u8>) {
    let raw_len = vals.len() * 4;
    st.words.resize(vals.len(), 0);
    black_box(q.encode_slice(vals, &mut st.words));
    delta::encode_in_place(&mut st.words);
    st.bytes.resize(raw_len, 0);
    shuffle::encode(&st.words, &mut st.bytes);
    if zeroelim::encode_to_scratch(&st.bytes, &mut st.ze) >= raw_len {
        for &v in vals {
            v.to_bits().push_le(out);
        }
    } else {
        zeroelim::append_encoded(&st.ze, out);
    }
}

/// Inverse of [`staged_compress`], dequantizing value by value.
fn staged_decompress(
    q: &impl Quantizer<f32>,
    payload: &[u8],
    raw: bool,
    vals: &mut [f32],
    st: &mut Staged,
) {
    if raw {
        for (v, s) in vals.iter_mut().zip(payload.chunks_exact(4)) {
            *v = f32::from_bits(u32::read_le(s));
        }
        return;
    }
    zeroelim::decode_into(payload, vals.len() * 4, &mut st.ze, &mut st.bytes)
        .expect("payloads come from compress_chunk");
    st.words.resize(vals.len(), 0);
    shuffle::decode(&st.bytes, &mut st.words);
    delta::decode_in_place(&mut st.words);
    for (v, &w) in vals.iter_mut().zip(&st.words) {
        *v = q.decode(w);
    }
}

/// GB/s of `q.encode_slice` and of `q.decode_slice` over `vals`, one
/// call per [`shuffle::TILE_WORDS`] values, each the median of `runs`
/// after one untimed pass.
fn lanes_gbs<F: PfplFloat>(q: &impl Quantizer<F>, vals: &[F], runs: usize) -> (f64, f64) {
    let tile = shuffle::TILE_WORDS;
    let bytes = vals.len() * F::Bits::BITS as usize / 8;
    let mut words = vec![F::Bits::ZERO; vals.len()];
    let mut out = vec![F::ZERO; vals.len()];
    let encode = |words: &mut [F::Bits]| {
        for (v, w) in vals.chunks(tile).zip(words.chunks_mut(tile)) {
            black_box(q.encode_slice(v, w));
        }
    };
    encode(&mut words);
    let t_enc = median_seconds(runs, || encode(&mut words));
    let decode = |out: &mut [F]| {
        for (w, v) in words.chunks(tile).zip(out.chunks_mut(tile)) {
            q.decode_slice(w, v);
        }
        black_box(&*out);
    };
    decode(&mut out);
    let t_dec = median_seconds(runs, || decode(&mut out));
    (throughput_gbs(bytes, t_enc), throughput_gbs(bytes, t_dec))
}

/// GB/s of the scalar per-chunk payload digest and of the batched one
/// over `archive`'s chunk payloads, each the median of `runs` after one
/// untimed pass.
fn checksum_gbs(archive: &[u8], runs: usize) -> (f64, f64) {
    let toc = Toc::read(archive).unwrap();
    let region = &archive[toc.payload_start..];
    let offsets = chunk_offsets(&toc.sizes, region.len(), toc.payload_start).unwrap();
    let payloads: Vec<&[u8]> = offsets.windows(2).map(|w| &region[w[0]..w[1]]).collect();
    let reps = DIGEST_BYTES.div_ceil(region.len().max(1));
    let gbs = |mut digest: Box<dyn FnMut() + '_>| {
        digest();
        throughput_gbs(reps * region.len(), median_seconds(runs, digest))
    };
    let scalar = gbs(Box::new(|| {
        for _ in 0..reps {
            for (i, p) in payloads.iter().enumerate() {
                black_box(payload_checksum(i, p));
            }
        }
    }));
    let batched = gbs(Box::new(|| {
        for _ in 0..reps {
            for g in groups(payloads.len()) {
                black_box(payload_checksums(g.start, &payloads[g]));
            }
        }
    }));
    (scalar, batched)
}

fn main() {
    let mut values: usize = 4096 * 1024;
    let mut runs: usize = 5;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut take = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        let parse_usize = |flag: &str, v: String| {
            v.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("{flag}: expected a positive integer, got `{v}`");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--values" => values = parse_usize("--values", take("--values")),
            "--runs" => runs = parse_usize("--runs", take("--runs")),
            other => {
                eprintln!("unknown flag {other} (known: --values --runs)");
                std::process::exit(2);
            }
        }
    }

    let vals: Vec<f32> = (0..values)
        .map(|i| (i as f32 * 0.003).sin() * 12.0)
        .collect();
    let bytes = values * 4;
    let q = AbsQuantizer::<f32>::new(BOUND as f32).unwrap();
    let vpc = chunk::values_per_chunk::<f32>();

    // ---- fused vs staged chunk kernels ----------------------------------
    // Same chunking, same scratch reuse; the only difference is one pass
    // through L1-resident tiles versus four passes through 16 KiB buffers.
    // Each pair is timed interleaved, fused then staged, run by run.
    let mut cscratch = chunk::Scratch::<f32>::default();
    let mut st = Staged::default();
    let mut cout = Vec::with_capacity(bytes);
    // One untimed pass of each kernel first: the fused kernel is the first
    // thing this process times, and timed cold it loses to the staged one
    // (2-vCPU AVX2 Xeon, 64 Ki values: fused/staged median 0.98 cold, 1.04
    // warmed).
    for c in vals.chunks(vpc) {
        black_box(chunk::compress_chunk(&q, c, &mut cscratch, &mut cout));
        staged_compress(&q, c, &mut st, &mut cout);
    }
    let (t_ck_fused, t_ck_staged) = interleaved_medians(
        runs,
        &mut (&mut cscratch, &mut st, &mut cout),
        |(s, _, out)| {
            out.clear();
            for c in vals.chunks(vpc) {
                black_box(chunk::compress_chunk(&q, c, s, out));
            }
        },
        |(_, st, out)| {
            out.clear();
            for c in vals.chunks(vpc) {
                staged_compress(&q, c, st, out);
            }
        },
    );
    let chunk_payloads: Vec<(Vec<u8>, chunk::ChunkInfo, usize)> = vals
        .chunks(vpc)
        .map(|c| {
            let mut v = Vec::new();
            let info = chunk::compress_chunk(&q, c, &mut cscratch, &mut v);
            (v, info, c.len())
        })
        .collect();
    let mut cvals = vec![0f32; vpc];
    let (t_ck_dec_fused, t_ck_dec_staged) = interleaved_medians(
        runs,
        &mut (&mut cvals, &mut cscratch, &mut st),
        |(v, s, _)| {
            for (p, info, n) in &chunk_payloads {
                chunk::decompress_chunk(&q, p, info.raw, &mut v[..*n], s).unwrap();
            }
        },
        |(v, _, st)| {
            for (p, info, n) in &chunk_payloads {
                staged_decompress(&q, p, info.raw, &mut v[..*n], st);
            }
        },
    );

    // ---- quantizer lanes -------------------------------------------------
    let vals64: Vec<f64> = vals.iter().map(|&v| v as f64).collect();
    let (rel64_enc, rel64_dec) =
        lanes_gbs(&RelQuantizer::<f64>::new(BOUND).unwrap(), &vals64, runs);
    let (rel32_enc, rel32_dec) = lanes_gbs(
        &RelQuantizer::<f32>::new(BOUND as f32).unwrap(),
        &vals,
        runs,
    );
    let (abs32_enc, abs32_dec) = lanes_gbs(&q, &vals, runs);

    // ---- end to end ------------------------------------------------------
    let bound = ErrorBound::Abs(BOUND);
    let archive = pfpl::compress(&vals, bound, Mode::Serial).unwrap();
    let ratio = bytes as f64 / archive.len() as f64;
    let t_comp_serial = median_seconds(runs, || {
        black_box(pfpl::compress(&vals, bound, Mode::Serial).unwrap());
    });
    let t_dec_serial = median_seconds(runs, || {
        black_box(pfpl::decompress::<f32>(&archive, Mode::Serial).unwrap());
    });
    let (digest_scalar, digest_batched) = checksum_gbs(&archive, runs);

    // ---- integrity: checksum tax and salvage throughput ------------------
    // `decompress` verifies every chunk against the v2 checksum table by
    // default; `decompress_unverified` isolates the tax.
    black_box(pfpl::decompress::<f32>(&archive, Mode::Serial).unwrap());
    black_box(pfpl::decompress_unverified::<f32>(&archive, Mode::Serial).unwrap());
    let (t_dec_verified, t_dec_unverified) = interleaved_medians(
        runs,
        &mut (),
        |()| {
            black_box(pfpl::decompress::<f32>(&archive, Mode::Serial).unwrap());
        },
        |()| {
            black_box(pfpl::decompress_unverified::<f32>(&archive, Mode::Serial).unwrap());
        },
    );
    let t_salvage = median_seconds(runs, || {
        black_box(pfpl::decompress_salvage::<f32>(&archive, Mode::Serial, 0.0f32).unwrap());
    });
    let t_verify_only = median_seconds(runs, || {
        black_box(pfpl::verify_archive::<f32>(&archive).unwrap());
    });

    let gbs = |secs: f64| throughput_gbs(bytes, secs);

    // Thread-scaling sweep: parallel mode at 1/2/4/8 pool threads, the
    // actual thread count keyed per measurement. Sweep points above the
    // host's core count are skipped outright — the pool clamps them to
    // `host_cpus` workers, so measuring them would just re-time the
    // clamped configuration and commit it under a misleading key.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut comp_by_threads = String::new();
    let mut dec_by_threads = String::new();
    for (i, &t) in [1usize, 2, 4, 8].iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        if t > host_cpus {
            comp_by_threads.push_str(&format!("{sep}\"{t}\": \"skipped_oversubscribed\""));
            dec_by_threads.push_str(&format!("{sep}\"{t}\": \"skipped_oversubscribed\""));
            continue;
        }
        rayon::set_num_threads(t);
        let tc = median_seconds(runs, || {
            black_box(pfpl::compress(&vals, bound, Mode::Parallel).unwrap());
        });
        let td = median_seconds(runs, || {
            black_box(pfpl::decompress::<f32>(&archive, Mode::Parallel).unwrap());
        });
        comp_by_threads.push_str(&format!("{sep}\"{t}\": {:.4}", gbs(tc)));
        dec_by_threads.push_str(&format!("{sep}\"{t}\": {:.4}", gbs(td)));
    }

    let json = format!(
        r#"{{
  "bench": "pipeline",
  "input": {{
    "values": {values},
    "bytes": {bytes},
    "precision": "f32",
    "bound": {{ "kind": "abs", "value": {BOUND} }}
  }},
  "runs": {runs},
  "host_cpus": {host_cpus},
  "chunk_kernel_gbs": {{
    "compress": {{ "fused": {ckf:.4}, "staged": {cks:.4} }},
    "decompress": {{ "fused": {ckdf:.4}, "staged": {ckds:.4} }}
  }},
  "end_to_end_gbs": {{
    "compress": {{ "serial": {cs:.4}, "parallel_by_threads": {{ {comp_by_threads} }} }},
    "decompress": {{ "serial": {ds:.4}, "parallel_by_threads": {{ {dec_by_threads} }} }}
  }},
  "quantizer_lanes_gbs": {{
    "rel_f64": {{ "encode_slice": {r64e:.4}, "decode_slice": {r64d:.4} }},
    "rel_f32": {{ "encode_slice": {r32e:.4}, "decode_slice": {r32d:.4} }},
    "abs_f32": {{ "encode_slice": {a32e:.4}, "decode_slice": {a32d:.4} }}
  }},
  "checksum_gbs": {{ "scalar": {digest_scalar:.4}, "batched": {digest_batched:.4} }},
  "kernels": {{
    "transpose": "{transpose}",
    "zero_elim": "{zero_elim}",
    "checksum": "{checksum}",
    "delta": "{delta}"
  }},
  "integrity_gbs": {{
    "decompress_verified": {dv:.4},
    "decompress_unverified": {du:.4},
    "salvage": {sal:.4},
    "verify_only": {vo:.4},
    "verified_over_unverified": {tax:.4}
  }},
  "compression_ratio": {ratio:.4}
}}
"#,
        r64e = rel64_enc,
        r64d = rel64_dec,
        r32e = rel32_enc,
        r32d = rel32_dec,
        a32e = abs32_enc,
        a32d = abs32_dec,
        dv = gbs(t_dec_verified),
        du = gbs(t_dec_unverified),
        sal = gbs(t_salvage),
        vo = gbs(t_verify_only),
        tax = t_dec_unverified / t_dec_verified.max(1e-12),
        ckf = gbs(t_ck_fused),
        cks = gbs(t_ck_staged),
        ckdf = gbs(t_ck_dec_fused),
        ckds = gbs(t_ck_dec_staged),
        cs = gbs(t_comp_serial),
        ds = gbs(t_dec_serial),
        transpose = shuffle::tile_kernel(),
        zero_elim = zeroelim::line_kernel(),
        checksum = pfpl::checksum::batch_kernel(),
        delta = delta::decode_kernel(),
    );
    print!("{json}");

    // Keep the measurement honest: the decompressed data must round-trip.
    let check: Vec<f32> = pfpl::decompress(&archive, Mode::Serial).unwrap();
    let header = Toc::read(&archive).unwrap().header;
    pfpl::exact::check_bound(bound, &header, &vals, &check).unwrap();
}
