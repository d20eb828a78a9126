//! Allocation accounting for the zero-allocation chunk pipeline.
//!
//! A counting global allocator wraps the system allocator; the tests
//! assert that (a) the per-chunk primitives perform **zero** heap
//! allocations in steady state once their scratch buffers have grown, and
//! (b) whole-archive serial compression/decompression allocates a small
//! constant independent of the chunk count (no per-chunk buffers).
//!
//! Everything runs inside one `#[test]` because the allocator counter is
//! process-global and the default test harness is multi-threaded.

use pfpl::chunk::{self, Scratch, CHUNK_BYTES};
use pfpl::quantize::AbsQuantizer;
use pfpl::types::{ErrorBound, Mode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> usize {
    ALLOCS.load(Ordering::SeqCst)
}

/// Count allocations performed by `f`.
fn count<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = allocs();
    let r = f();
    (allocs() - before, r)
}

/// Count allocations performed by `f`, taking the **minimum** over
/// `rounds` identical repeats.
///
/// Why minimum: the counter is process-global, and the libtest harness's
/// main thread lazily allocates its channel-parking context (two small
/// `Arc`s, observed by backtrace) the first time its `recv` on the
/// test-event channel actually parks — a scheduling race that can land
/// inside any single counting window on a busy one-core host. One-time
/// foreign noise like that pollutes at most one round; an allocation in
/// the measured code itself would show up in *every* round.
fn count_min(rounds: usize, mut f: impl FnMut()) -> usize {
    (0..rounds)
        .map(|_| count(&mut f).0)
        .min()
        .expect("rounds > 0")
}

fn signal(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.002).sin() * 25.0).collect()
}

#[test]
fn steady_state_allocation_accounting() {
    let vpc = chunk::values_per_chunk::<f32>();
    let q = AbsQuantizer::<f32>::new(1e-3).unwrap();
    let data = signal(4 * vpc);
    let chunks: Vec<&[f32]> = data.chunks(vpc).collect();

    // --- compress_chunk: zero allocations after warmup ------------------
    let mut scratch = Scratch::<f32>::default();
    let mut out = Vec::with_capacity(8 * CHUNK_BYTES);
    let mut infos = Vec::with_capacity(chunks.len());
    for c in &chunks {
        infos.push(chunk::compress_chunk(&q, c, &mut scratch, &mut out)); // warmup
    }
    let warm = out.clone();
    out.clear();
    let n = count_min(3, || {
        out.clear();
        for c in &chunks {
            chunk::compress_chunk(&q, c, &mut scratch, &mut out);
        }
    });
    assert_eq!(out, warm, "steady-state output must not change");
    assert_eq!(n, 0, "compress_chunk allocated {n} times in steady state");

    // --- compress_chunk_into (slab slots): zero allocations -------------
    let mut slab = vec![0u8; chunks.len() * CHUNK_BYTES];
    let n = count_min(3, || {
        for (c, slot) in chunks.iter().zip(slab.chunks_mut(CHUNK_BYTES)) {
            chunk::compress_chunk_into(&q, c, &mut scratch, slot);
        }
    });
    assert_eq!(
        n, 0,
        "compress_chunk_into allocated {n} times in steady state"
    );

    // --- decompress_chunk: zero allocations after warmup ----------------
    let payloads: Vec<Vec<u8>> = chunks
        .iter()
        .map(|c| {
            let mut buf = Vec::new();
            chunk::compress_chunk(&q, c, &mut scratch, &mut buf);
            buf
        })
        .collect();
    let mut vals = vec![0f32; vpc];
    for (p, info) in payloads.iter().zip(&infos) {
        chunk::decompress_chunk(&q, p, info.raw, &mut vals, &mut scratch).unwrap();
        // warmup
    }
    let n = count_min(3, || {
        for (p, info) in payloads.iter().zip(&infos) {
            chunk::decompress_chunk(&q, p, info.raw, &mut vals, &mut scratch).unwrap();
        }
    });
    assert_eq!(n, 0, "decompress_chunk allocated {n} times in steady state");

    // --- partial chunks mixed with full ones: zero allocations ----------
    // Full chunks run the fused tile kernel, partial ones that are not a
    // whole number of tiles the staged fallback; a stream of both, as the
    // final chunks of many archives put through one scratch, must stay
    // allocation-free on every entry point.
    let mixed: Vec<&[f32]> = vec![
        chunks[0],
        &chunks[1][..123],
        chunks[2],
        &chunks[3][..vpc - 1],
    ];
    let mixed_payloads: Vec<(Vec<u8>, bool)> = mixed
        .iter()
        .map(|c| {
            let mut buf = Vec::new();
            let info = chunk::compress_chunk(&q, c, &mut scratch, &mut buf); // warmup
            (buf, info.raw)
        })
        .collect();
    for ((p, raw), c) in mixed_payloads.iter().zip(&mixed) {
        chunk::decompress_chunk(&q, p, *raw, &mut vals[..c.len()], &mut scratch).unwrap();
        // warmup
    }
    let n = count_min(3, || {
        out.clear();
        for c in &mixed {
            chunk::compress_chunk(&q, c, &mut scratch, &mut out);
        }
        for (c, slot) in mixed.iter().zip(slab.chunks_mut(CHUNK_BYTES)) {
            chunk::compress_chunk_into(&q, c, &mut scratch, slot);
        }
        for ((p, raw), c) in mixed_payloads.iter().zip(&mixed) {
            chunk::decompress_chunk(&q, p, *raw, &mut vals[..c.len()], &mut scratch).unwrap();
        }
    });
    assert_eq!(
        n, 0,
        "chunk paths on mixed full and partial chunks allocated {n} times in steady state"
    );
    let warm: Vec<u8> = mixed_payloads.iter().flat_map(|(p, _)| p.clone()).collect();
    assert_eq!(out, warm, "steady-state output must not change");

    // --- zeroelim decode direction: zero allocations after warmup --------
    // (decode_into is what every decompression path uses since the last
    // allocating `zeroelim::decode` caller was migrated)
    let shuffled: Vec<u8> = (0..CHUNK_BYTES)
        .map(|i| ((i * 31) % 256) as u8 & 0x0F)
        .collect();
    let mut ze = pfpl::lossless::zeroelim::Scratch::default();
    let mut enc = Vec::new();
    let total = pfpl::lossless::zeroelim::encode_to_scratch(&shuffled, &mut ze);
    pfpl::lossless::zeroelim::append_encoded(&ze, &mut enc);
    assert_eq!(enc.len(), total);
    let mut back = Vec::new();
    pfpl::lossless::zeroelim::decode_into(&enc, CHUNK_BYTES, &mut ze, &mut back).unwrap(); // warmup
    let n = count_min(3, || {
        pfpl::lossless::zeroelim::decode_into(&enc, CHUNK_BYTES, &mut ze, &mut back).unwrap();
    });
    assert_eq!(
        n, 0,
        "zeroelim::decode_into allocated {n} times in steady state"
    );
    assert_eq!(back, shuffled);

    // --- whole-archive serial path: O(1) allocations in the chunk count -
    let small = signal(8 * vpc);
    let large = signal(64 * vpc);
    let (small_allocs, small_arch) =
        count(|| pfpl::compress(&small, ErrorBound::Abs(1e-3), Mode::Serial).unwrap());
    let (large_allocs, large_arch) =
        count(|| pfpl::compress(&large, ErrorBound::Abs(1e-3), Mode::Serial).unwrap());
    // With per-chunk buffers this would grow by ≥1 allocation per extra
    // chunk (56 here); single-pass assembly keeps it flat apart from
    // scratch-buffer growth noise.
    assert!(
        large_allocs < small_allocs + 16,
        "serial compress allocations scale with chunk count: \
         {small_allocs} for 8 chunks vs {large_allocs} for 64"
    );

    let (small_d, _) = count(|| pfpl::decompress::<f32>(&small_arch, Mode::Serial).unwrap());
    let (large_d, _) = count(|| pfpl::decompress::<f32>(&large_arch, Mode::Serial).unwrap());
    assert!(
        large_d < small_d + 16,
        "serial decompress allocations scale with chunk count: \
         {small_d} for 8 chunks vs {large_d} for 64"
    );
}
