//! Set-up, the correctness gate, and the untraced end-to-end measurement.

use crate::alloc::Probe;
use crate::host::Cpus;
use crate::stats::{self, Tail};
use crate::workload::{Rng, Size, Workload};
use pfpl::container::{Header, Toc};
use pfpl::float::{bound_toward_zero, Word};
use pfpl::{ErrorBound, Mode, PfplFloat, StreamCompressor};
use pfpl_device_sim::pfpl_gpu::WarpTranspose;
use pfpl_device_sim::{configs, GpuDevice};
use std::time::{Duration, Instant};

/// Operations attempted and failed; a failed operation is any error or
/// any output that differs from the reference.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    /// Count one operation; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(what());
            }
        }
        ok
    }

    /// Count one fallible operation whose output must pass `check`; `what`
    /// names it in the report and is formatted only on failure.
    pub fn result<T, E: std::fmt::Display>(
        &mut self,
        what: impl std::fmt::Display,
        out: &Result<T, E>,
        check: impl FnOnce(&T) -> bool,
    ) -> bool {
        let ok = matches!(out, Ok(v) if check(v));
        self.check(ok, || match out {
            Err(e) => format!("{what}: {e}"),
            Ok(_) => format!("{what}: output differs from the reference"),
        })
    }
}

/// 64-bit digest of decoded values: a decode is correct when its digest
/// equals that of the bound-checked reference decode.
pub fn digest<F: PfplFloat>(vals: &[F]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [1u64, 2, 3, 4];
    let mut it = vals.chunks_exact(4);
    for c in &mut it {
        for (h, v) in lanes.iter_mut().zip(c) {
            *h = (*h ^ v.to_bits().to_u64()).wrapping_mul(K).rotate_left(29);
        }
    }
    let mut h = vals.len() as u64;
    for v in it.remainder() {
        h = (h ^ v.to_bits().to_u64()).wrapping_mul(K);
    }
    lanes
        .iter()
        .fold(h, |acc, &l| (acc ^ l).wrapping_mul(K).rotate_left(31))
}

/// Inputs plus the reference outputs every later result is compared with.
pub struct Prepared<F> {
    /// One input per archive.
    pub fields: Vec<Vec<F>>,
    /// Serial reference archive of each input.
    pub archives: Vec<Vec<u8>>,
    /// [`digest`] of each reference decode.
    pub decoded: Vec<u64>,
    /// Uncompressed bytes over all inputs.
    pub bytes: usize,
    /// Values the quantizer stored losslessly (outside raw chunks).
    pub lossless_values: u64,
    /// Chunks stored raw, and all chunks.
    pub raw_chunks: u64,
    pub chunks: u64,
}

impl<F: PfplFloat> Prepared<F> {
    /// Uncompressed bytes of input `i`.
    pub fn field_bytes(&self, i: usize) -> usize {
        self.fields[i].len() * (F::Bits::BITS as usize / 8)
    }

    /// Bytes held between calls: inputs plus reference archives.
    pub fn working_set(&self) -> usize {
        self.bytes + self.archives.iter().map(Vec::len).sum::<usize>()
    }
}

/// Generate the inputs and make the reference archives: serial compress
/// and verified decompress of every input, then one parallel compress
/// (the first parallel call spawns the worker pool). With `check`, every
/// reference decode is re-checked against the bound value by value;
/// that check is not part of the returned set-up time.
pub fn prepare<F: PfplFloat>(
    w: Workload,
    seed: u64,
    check: bool,
    tally: &mut Tally,
) -> (Prepared<F>, Duration) {
    let t0 = Instant::now();
    let mut excluded = Duration::ZERO;
    let fields = w.generate::<F>(seed, Size::Full);
    let bound = w.bound();
    let mut p = Prepared {
        bytes: 0,
        archives: Vec::with_capacity(fields.len()),
        decoded: Vec::with_capacity(fields.len()),
        lossless_values: 0,
        raw_chunks: 0,
        chunks: 0,
        fields,
    };
    for (i, f) in p.fields.iter().enumerate() {
        p.bytes += f.len() * (F::Bits::BITS as usize / 8);
        let (archive, stats) = match pfpl::compress_with_stats(f, bound, Mode::Serial) {
            Ok(r) => r,
            Err(e) => {
                tally.check(false, || format!("reference compress of archive {i}: {e}"));
                (Vec::new(), Default::default())
            }
        };
        p.lossless_values += stats.lossless_values;
        p.raw_chunks += stats.raw_chunks;
        p.chunks += stats.chunks;
        let dec = pfpl::decompress::<F>(&archive, Mode::Serial);
        if check {
            let t = Instant::now();
            let verdict = dec.as_ref().map_err(|e| e.to_string()).and_then(|d| {
                let toc = Toc::read(&archive).map_err(|e| e.to_string())?;
                check_bound(bound, &toc.header, f, d)
            });
            tally.result(format_args!("bound check of archive {i}"), &verdict, |_| {
                true
            });
            excluded += t.elapsed();
        }
        p.decoded.push(dec.map_or(0, |d| digest(&d)));
        p.archives.push(archive);
    }
    let par = pfpl::compress(&p.fields[0], bound, Mode::Parallel);
    if check {
        tally.result("cold parallel compress", &par, |a| *a == p.archives[0]);
    }
    (p, t0.elapsed().saturating_sub(excluded))
}

/// Check every decoded value against the bound the user asked for,
/// rounded toward zero into `F` as the library rounds it, using the
/// library's exact comparisons (`pfpl::exact` through
/// [`PfplFloat::abs_within`] and [`PfplFloat::rel_within_mag`]). The
/// archive's header is trusted only for NOA, whose absolute bound is
/// derived from the data; for ABS and REL a header that records a looser
/// bound than the user's is itself a failure.
///
/// * bit-identical values always pass (lossless fallback, raw chunks);
/// * infinities must come back bit-identical; a NaN must come back as the
///   same NaN, except that REL stores a negative NaN as its positive
///   twin with the payload kept;
/// * ABS/NOA: `|v - r| <= eb`;
/// * REL: `r` keeps the sign of `v` (so `±0` stay `±0`) and
///   `|v - r| <= eb * |v|`.
pub fn check_bound<F: PfplFloat>(
    bound: ErrorBound,
    header: &Header,
    orig: &[F],
    got: &[F],
) -> Result<(), String> {
    let eb: F = match bound {
        ErrorBound::Noa(_) => F::from_f64(header.derived_bound),
        ErrorBound::Abs(user) | ErrorBound::Rel(user) => {
            let eb = bound_toward_zero::<F>(user);
            if header.derived_bound > eb.to_f64() {
                return Err(format!(
                    "header bound {} looser than the requested {user}",
                    header.derived_bound
                ));
            }
            eb
        }
    };
    if orig.len() != got.len() {
        return Err(format!(
            "{} values decoded, {} compressed",
            got.len(),
            orig.len()
        ));
    }
    let sign = F::SIGN_MASK.to_u64();
    for (i, (&v, &r)) in orig.iter().zip(got).enumerate() {
        let (vb, rb) = (v.to_bits().to_u64(), r.to_bits().to_u64());
        if vb == rb {
            continue;
        }
        let ok = if v.is_nan() {
            matches!(bound, ErrorBound::Rel(_)) && vb & sign != 0 && rb == vb & !sign
        } else if !v.is_finite() || !r.is_finite() {
            false
        } else {
            match bound {
                ErrorBound::Abs(_) | ErrorBound::Noa(_) => F::abs_within(v, r, eb),
                ErrorBound::Rel(_) => {
                    v.is_sign_negative() == r.is_sign_negative()
                        && F::rel_within_mag(v.abs(), r.abs(), eb)
                }
            }
        };
        if !ok {
            return Err(format!("value {i}: {v:?} decoded as {r:?}, bound {eb:?}"));
        }
    }
    Ok(())
}

/// The cross-backend part of the correctness gate, once per run:
///
/// * every input pushed through a [`StreamCompressor`] in seeded pushes
///   that do not align with chunks gives the reference archive;
/// * one seeded input compressed by the simulated GPU gives the reference
///   archive.
///
/// (Parallel-versus-serial identity is checked on every timed parallel
/// call.)
pub fn gate<F: PfplFloat>(w: Workload, seed: u64, p: &Prepared<F>, tally: &mut Tally)
where
    F::Bits: WarpTranspose,
{
    let mut rng = Rng::new(seed ^ 0x5EED_57AE);
    let vpc = pfpl::chunk::values_per_chunk::<F>();
    for (i, f) in p.fields.iter().enumerate() {
        let out = StreamCompressor::<F>::new(w.bound()).map(|mut s| {
            let mut rest = &f[..];
            while !rest.is_empty() {
                let mut n = 1 + rng.below(5 * vpc / 2);
                if n.is_multiple_of(vpc) {
                    n += 1;
                }
                let (head, tail) = rest.split_at(n.min(rest.len()));
                s.push(head);
                rest = tail;
            }
            s.finish().0
        });
        tally.result(format_args!("stream compress of archive {i}"), &out, |a| {
            *a == p.archives[i]
        });
    }
    let i = rng.below(p.fields.len());
    let gpu = GpuDevice::new(configs::RTX_4090).compress(&p.fields[i], w.bound());
    tally.result(
        format_args!("device-sim compress of archive {i}"),
        &gpu,
        |a| *a == p.archives[i],
    );
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Round-trip samples per window for the tail: p75 with ten samples
/// beyond it. Larger windows reach p90, which moved by a third between
/// processes: it sits where the share of round trips a busy host slows
/// down crosses 10%.
const TAIL_WINDOW_SAMPLES: usize = 40;

/// Combine per-round seconds into throughput samples. Serial work runs
/// on one CPU per round, rotating; each sample covers one full rotation
/// (`group` rounds), so every sample sees every CPU once.
pub fn grouped_gbs(bytes: usize, secs: &[f64], group: usize) -> Vec<f64> {
    secs.chunks_exact(group.max(1))
        .map(|g| (bytes * g.len()) as f64 / g.iter().sum::<f64>() / 1e9)
        .collect()
}

/// Per-round seconds of each timed operation.
#[derive(Default)]
struct Rounds {
    compress: Vec<f64>,
    decompress: Vec<f64>,
    verify: Vec<f64>,
    compress_par: Vec<f64>,
    decompress_par: Vec<f64>,
    /// One sample per archive per round, in time order, in milliseconds.
    roundtrip_ms: Vec<f64>,
}

/// Time one library call; `heap` keeps the largest heap growth a single
/// call caused (its output included).
fn timed<T>(heap: &mut usize, call: impl FnOnce() -> T) -> (T, f64) {
    let probe = Probe::start();
    let t0 = Instant::now();
    let out = call();
    let secs = t0.elapsed().as_secs_f64();
    *heap = (*heap).max(probe.finish().0);
    (out, secs)
}

/// The untraced measurement: `rounds` rounds, each running every timed
/// operation over every input in a fixed round-robin order. Serial calls
/// run pinned to the round's CPU: per input, compress, decompress and
/// verify. Then, unpinned, per input a parallel compress and a parallel
/// decompress of the archive it produced: together one round trip. Every
/// output is checked against the reference, untimed.
pub fn measure<F: PfplFloat>(
    w: Workload,
    rounds: usize,
    p: &Prepared<F>,
    cpus: &Cpus,
    tally: &mut Tally,
) -> (Vec<Metric>, crate::json::Json) {
    use crate::json::Json;
    let bound = w.bound();
    let n = p.fields.len();
    let mut s = Rounds::default();
    let mut heap = 0usize;
    for r in 0..rounds {
        let mut t = [0.0f64; 5];
        cpus.pin(cpus.for_round(r));
        for i in 0..n {
            let (a, dt) = timed(&mut heap, || {
                pfpl::compress(&p.fields[i], bound, Mode::Serial)
            });
            t[0] += dt;
            tally.result(format_args!("serial compress of archive {i}"), &a, |a| {
                *a == p.archives[i]
            });
            let (d, dt) = timed(&mut heap, || {
                pfpl::decompress::<F>(&p.archives[i], Mode::Serial)
            });
            t[1] += dt;
            tally.result(format_args!("serial decompress of archive {i}"), &d, |d| {
                digest(d) == p.decoded[i]
            });
            let (v, dt) = timed(&mut heap, || pfpl::verify_archive::<F>(&p.archives[i]));
            t[2] += dt;
            tally.result(format_args!("verify of archive {i}"), &v, |rep| {
                rep.is_clean() && rep.chunks.len() == p.archives_chunks(i)
            });
        }
        cpus.unpin();
        for i in 0..n {
            let (a, tc) = timed(&mut heap, || {
                pfpl::compress(&p.fields[i], bound, Mode::Parallel)
            });
            let ok = tally.result(format_args!("parallel compress of archive {i}"), &a, |a| {
                *a == p.archives[i]
            });
            // Decompress what was just produced; after a failure, the
            // reference, so the round still times the same work.
            let archive = match &a {
                Ok(a) if ok => &a[..],
                _ => &p.archives[i][..],
            };
            let (d, td) = timed(&mut heap, || pfpl::decompress::<F>(archive, Mode::Parallel));
            tally.result(
                format_args!("parallel decompress of archive {i}"),
                &d,
                |d| digest(d) == p.decoded[i],
            );
            t[3] += tc;
            t[4] += td;
            s.roundtrip_ms.push((tc + td) * 1e3);
        }
        let series = [
            &mut s.compress,
            &mut s.decompress,
            &mut s.verify,
            &mut s.compress_par,
            &mut s.decompress_par,
        ];
        for (xs, secs) in series.into_iter().zip(t) {
            xs.push(secs);
        }
    }

    let g = cpus.rotation();
    let serial = |secs: &[f64]| grouped_gbs(p.bytes, secs, g);
    let parallel = |secs: &[f64]| grouped_gbs(p.bytes, secs, 1);
    let series: [(&'static str, Vec<f64>); 5] = [
        ("compress_gbs", serial(&s.compress)),
        ("decompress_gbs", serial(&s.decompress)),
        ("compress_par_gbs", parallel(&s.compress_par)),
        ("decompress_par_gbs", parallel(&s.decompress_par)),
        ("verify_gbs", serial(&s.verify)),
    ];
    let archive_bytes: usize = p.archives.iter().map(Vec::len).sum();
    let tail = stats::windowed_tail(&s.roundtrip_ms, TAIL_WINDOW_SAMPLES);
    let mut metrics: Vec<Metric> = series
        .iter()
        .map(|(name, xs)| Metric {
            name,
            unit: "GB/s",
            value: stats::median(xs),
        })
        .collect();
    metrics.extend([
        Metric {
            name: "compression_ratio",
            unit: "x",
            value: p.bytes as f64 / archive_bytes as f64,
        },
        Metric {
            name: "roundtrip_ms_p50",
            unit: "ms",
            value: stats::median(&s.roundtrip_ms),
        },
        Metric {
            name: "roundtrip_ms_tail",
            unit: "ms",
            value: tail.map_or(f64::NAN, |t| t.value),
        },
        Metric {
            name: "peak_heap_mib",
            unit: "MiB",
            value: heap as f64 / (1u64 << 20) as f64,
        },
    ]);

    let spread = |xs: &[f64]| {
        let q = stats::quartiles(xs);
        Json::obj([
            ("samples", Json::Int(xs.len() as u64)),
            ("q1", Json::Num(q[0])),
            ("median", Json::Num(q[1])),
            ("q3", Json::Num(q[2])),
        ])
    };
    let mut within: Vec<(String, Json)> = series
        .iter()
        .map(|(name, xs)| (name.to_string(), spread(xs)))
        .collect();
    within.push(("roundtrip_ms".into(), spread(&s.roundtrip_ms)));
    let secs = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
    let round_seconds = Json::obj([
        ("compress", secs(&s.compress)),
        ("decompress", secs(&s.decompress)),
        ("compress_par", secs(&s.compress_par)),
        ("decompress_par", secs(&s.decompress_par)),
        ("verify", secs(&s.verify)),
    ]);
    let details = Json::obj([
        ("rounds", Json::Int(rounds as u64)),
        ("archives", Json::Int(n as u64)),
        (
            "uncompressed_mib",
            Json::Num(p.bytes as f64 / (1u64 << 20) as f64),
        ),
        ("roundtrip_ms_tail", tail_json(tail)),
        ("within_run_spread", Json::obj(within)),
        ("round_seconds", round_seconds),
        (
            "lossless_value_frac",
            Json::Num(p.lossless_values as f64 / (p.bytes / (F::Bits::BITS as usize / 8)) as f64),
        ),
        (
            "raw_chunk_frac",
            Json::Num(p.raw_chunks as f64 / p.chunks as f64),
        ),
    ]);
    (metrics, details)
}

impl<F: PfplFloat> Prepared<F> {
    /// Chunks in archive `i`.
    fn archives_chunks(&self, i: usize) -> usize {
        self.fields[i]
            .len()
            .div_ceil(pfpl::chunk::values_per_chunk::<F>())
    }
}

/// The tail percentile, its value and the sample count behind it.
fn tail_json(t: Option<Tail>) -> crate::json::Json {
    use crate::json::Json;
    match t {
        None => Json::Null,
        Some(t) => Json::obj([
            ("percentile", Json::Num(t.percentile)),
            ("value_ms", Json::Num(t.value)),
            ("samples_per_window", Json::Int(t.samples as u64)),
            ("samples_beyond", Json::Int(t.beyond as u64)),
            ("windows", Json::Int(t.windows as u64)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_gbs_pairs_rounds() {
        // 1 GB per round; rounds of 1 s and 3 s pair to 2 GB / 4 s.
        let g = grouped_gbs(1_000_000_000, &[1.0, 3.0, 2.0, 2.0, 9.0], 2);
        assert_eq!(g, vec![0.5, 0.5]);
        assert_eq!(grouped_gbs(1_000_000_000, &[0.5], 1), vec![2.0]);
    }

    #[test]
    fn digest_sees_every_value_and_the_length() {
        let a: Vec<f32> = (0..103).map(|i| i as f32).collect();
        let mut b = a.clone();
        b[101] = -b[101];
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&a[..102]));
        assert_eq!(digest(&a), digest(&a.clone()));
    }

    #[test]
    fn bound_check_rules() {
        // Long enough that the chunk is not stored raw.
        let mut data: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.01).sin()).collect();
        data[..6].copy_from_slice(&[-2.0, 0.0, -0.0, 3.5e-3, f32::INFINITY, f32::NAN]);
        let abs = ErrorBound::Abs(1e-3);
        let archive = pfpl::compress(&data, abs, Mode::Serial).unwrap();
        let header = Toc::read(&archive).unwrap().header;
        let back: Vec<f32> = pfpl::decompress(&archive, Mode::Serial).unwrap();
        assert_ne!(back, data, "lossy, so the bound check has work to do");
        assert_eq!(check_bound(abs, &header, &data, &back), Ok(()));
        let broken = |i: usize, v: f32| {
            let mut b = back.clone();
            b[i] = v;
            check_bound(abs, &header, &data, &b)
        };
        assert!(broken(100, back[100] + 0.01).is_err());
        assert!(broken(4, f32::NEG_INFINITY).is_err());
        // Under ABS a NaN must come back bit-identical.
        assert!(broken(5, f32::from_bits(0xFFC0_0000)).is_err());
        assert!(broken(0, f32::NAN).is_err());
        assert!(check_bound(abs, &header, &data, &back[1..]).is_err());
        // A header that records a looser bound than the user's fails, and
        // values are still held to the user's bound, not the header's.
        let loose = Header {
            derived_bound: 1e-2,
            ..header
        };
        assert!(check_bound(abs, &loose, &data, &back).is_err());
        let mut off = back.clone();
        off[100] = data[100] + 5e-3;
        assert!(check_bound(abs, &header, &data, &off).is_err());
        assert_eq!(
            check_bound(ErrorBound::Abs(1e-2), &header, &data, &off),
            Ok(())
        );

        let rel = ErrorBound::Rel(1e-2);
        let neg_nan = f32::from_bits(0xFFC1_2345);
        data[..4].copy_from_slice(&[5.0, -5.0, -0.0, neg_nan]);
        let archive = pfpl::compress(&data, rel, Mode::Serial).unwrap();
        let header = Toc::read(&archive).unwrap().header;
        let back: Vec<f32> = pfpl::decompress(&archive, Mode::Serial).unwrap();
        assert_eq!(back[3].to_bits(), 0x7FC1_2345, "REL stores -NaN as +NaN");
        assert_eq!(check_bound(rel, &header, &data, &back), Ok(()));
        let broken = |i: usize, v: f32| {
            let mut b = back.clone();
            b[i] = v;
            check_bound(rel, &header, &data, &b)
        };
        // A sign flip breaks REL even within the magnitude bound.
        assert!(broken(2, 0.0).is_err());
        assert!(broken(0, 5.2).is_err());
        assert!(broken(3, f32::from_bits(0x7FC1_2346)).is_err());
        let loose = Header {
            derived_bound: 2e-2,
            ..header
        };
        assert!(check_bound(rel, &loose, &data, &back).is_err());
    }

    #[test]
    fn every_run_has_enough_whole_rotations() {
        for w in crate::workload::ALL {
            for traced in [false, true] {
                for seconds in [1, 10, 25, 60] {
                    let rounds = w.rounds(seconds, traced);
                    for width in 1..=crate::host::ROTATION {
                        let g = grouped_gbs(1, &vec![1.0; rounds], width);
                        assert_eq!(g.len() * width, rounds, "no round is dropped");
                        assert!(g.len() >= crate::workload::MIN_SAMPLES);
                    }
                }
            }
        }
    }
}
