//! Microbenchmarks of the individual PFPL pipeline stages on one full
//! 16 KiB chunk (the paper's unit of parallel work), plus the fused
//! four-stage tile kernel head-to-head against the staged reference.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pfpl::chunk::{self, Scratch};
use pfpl::lossless::{delta, shuffle, zeroelim};
use pfpl::quantize::{AbsQuantizer, Quantizer, RelQuantizer};

fn chunk_f32() -> Vec<f32> {
    (0..4096).map(|i| (i as f32 * 0.003).sin() * 12.0).collect()
}

fn bench_stages(c: &mut Criterion) {
    let vals = chunk_f32();
    let mut g = c.benchmark_group("stages/16KiB-chunk");
    g.throughput(Throughput::Bytes(16 * 1024));

    let qa = AbsQuantizer::<f32>::new(1e-3).unwrap();
    g.bench_function("quantize-abs", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &v in &vals {
                acc ^= qa.encode(black_box(v));
            }
            acc
        })
    });

    let qr = RelQuantizer::<f32>::new(1e-3).unwrap();
    g.bench_function("quantize-rel", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &v in &vals {
                acc ^= qr.encode(black_box(v));
            }
            acc
        })
    });

    let words: Vec<u32> = vals.iter().map(|&v| qa.encode(v)).collect();
    g.bench_function("delta-negabinary", |b| {
        b.iter(|| {
            let mut w = words.clone();
            delta::encode_in_place(&mut w);
            w
        })
    });

    let mut deltas = words.clone();
    delta::encode_in_place(&mut deltas);
    g.bench_function("bit-shuffle", |b| {
        let mut out = vec![0u8; deltas.len() * 4];
        b.iter(|| {
            shuffle::encode(&deltas, &mut out);
            out[0]
        })
    });

    let mut shuffled = vec![0u8; deltas.len() * 4];
    shuffle::encode(&deltas, &mut shuffled);
    let mut ze = zeroelim::Scratch::default();
    let mut out = Vec::with_capacity(16 * 1024);
    g.bench_function("zero-elimination", |b| {
        b.iter(|| {
            out.clear();
            zeroelim::encode_to_scratch(&shuffled, &mut ze);
            zeroelim::append_encoded(&ze, &mut out);
            out.len()
        })
    });
    g.finish();
}

/// Fused tile kernel vs the staged four-pass reference, both directions,
/// on one full 16 KiB chunk with steady-state scratch reuse (the exact
/// configuration `compress_chunk`/`decompress_chunk` dispatch between).
fn bench_fused_vs_staged(c: &mut Criterion) {
    let vals = chunk_f32();
    let q = AbsQuantizer::<f32>::new(1e-3).unwrap();
    let mut scratch = Scratch::<f32>::default();

    let mut g = c.benchmark_group("fused_vs_staged/16KiB-chunk");
    g.throughput(Throughput::Bytes(16 * 1024));

    let mut out = Vec::with_capacity(16 * 1024);
    g.bench_function("compress-fused", |b| {
        b.iter(|| {
            out.clear();
            chunk::compress_chunk(&q, black_box(&vals), &mut scratch, &mut out);
            out.len()
        })
    });
    g.bench_function("compress-staged", |b| {
        b.iter(|| {
            out.clear();
            chunk::compress_chunk_staged(&q, black_box(&vals), &mut scratch, &mut out);
            out.len()
        })
    });

    let mut payload = Vec::new();
    let info = chunk::compress_chunk(&q, &vals, &mut scratch, &mut payload);
    let mut back = vec![0f32; vals.len()];
    g.bench_function("decompress-fused", |b| {
        b.iter(|| {
            chunk::decompress_chunk(&q, black_box(&payload), info.raw, &mut back, &mut scratch)
                .unwrap();
            back[0]
        })
    });
    g.bench_function("decompress-staged", |b| {
        b.iter(|| {
            chunk::decompress_chunk_staged(
                &q,
                black_box(&payload),
                info.raw,
                &mut back,
                &mut scratch,
            )
            .unwrap();
            back[0]
        })
    });
    g.finish();
}

criterion_group!(benches, bench_stages, bench_fused_vs_staged);
criterion_main!(benches);
