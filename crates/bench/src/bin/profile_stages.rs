//! Within-run pipeline ratios that CI gates on.
//!
//! Measures GB/s (uncompressed bytes / median wall-clock, paper §IV
//! convention) for the fused vs staged chunk kernels head-to-head,
//! end-to-end compression and decompression — serial once, parallel swept
//! across pool threads with the actual thread count keyed per
//! measurement — and the integrity paths (verified vs unverified decode,
//! salvage, verify-only), and prints the results as JSON on stdout.
//! `host_cpus` records the machine's available parallelism; sweep points
//! above it are not measured (the pool clamps them to `host_cpus` workers
//! anyway, and oversubscribed runs only produce misleading scheduler
//! noise) — their JSON value is the string `"skipped_oversubscribed"`.
//!
//! Per-layer figures (quantize, delta, shuffle, zero-elimination,
//! checksum, archive assembly, pool dispatch) come from the repository
//! benchmark on real workload data: `benchmark/run.py --trace 1`.
//!
//! Flags: `--values N` (input size, default 4 Mi values = 16 MiB),
//! `--runs R` (median-of-R, default 5).

use pfpl::chunk;
use pfpl::container::Toc;
use pfpl::quantize::AbsQuantizer;
use pfpl::types::{ErrorBound, Mode};
use pfpl_data::timing::{median_seconds, throughput_gbs};
use std::hint::black_box;
use std::time::Instant;

const BOUND: f64 = 1e-3;

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
    let mut cout = Vec::with_capacity(bytes);
    // One untimed pass of each kernel first: the fused kernel is the first
    // thing this process times, and timed cold it loses to the staged one
    // (2-vCPU AVX2 Xeon, 64 Ki values: fused/staged median 0.98 cold, 1.04
    // warmed).
    for c in vals.chunks(vpc) {
        black_box(chunk::compress_chunk(&q, c, &mut cscratch, &mut cout));
        black_box(chunk::compress_chunk_staged(
            &q,
            c,
            &mut cscratch,
            &mut cout,
        ));
    }
    let (t_ck_fused, t_ck_staged) = interleaved_medians(
        runs,
        &mut (&mut cscratch, &mut cout),
        |(s, out)| {
            out.clear();
            for c in vals.chunks(vpc) {
                black_box(chunk::compress_chunk(&q, c, s, out));
            }
        },
        |(s, out)| {
            out.clear();
            for c in vals.chunks(vpc) {
                black_box(chunk::compress_chunk_staged(&q, c, s, out));
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
        &mut (&mut cvals, &mut cscratch),
        |(v, s)| {
            for (p, info, n) in &chunk_payloads {
                chunk::decompress_chunk(&q, p, info.raw, &mut v[..*n], s).unwrap();
            }
        },
        |(v, s)| {
            for (p, info, n) in &chunk_payloads {
                chunk::decompress_chunk_staged(&q, p, info.raw, &mut v[..*n], s).unwrap();
            }
        },
    );

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
    );
    print!("{json}");

    // Keep the measurement honest: the decompressed data must round-trip.
    let check: Vec<f32> = pfpl::decompress(&archive, Mode::Serial).unwrap();
    let header = Toc::read(&archive).unwrap().header;
    pfpl::exact::check_bound(bound, &header, &vals, &check).unwrap();
}
