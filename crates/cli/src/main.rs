//! `pfpl` — command-line front end, mirroring the usage of the paper's
//! reference binaries on SDRBench-style raw float dumps.
//!
//! ```text
//! pfpl compress   -i data.f32 -o data.pfpl --type f32 --bound abs --eb 1e-3
//! pfpl decompress -i data.pfpl -o restored.f32
//! pfpl info       -i data.pfpl
//! pfpl verify     -a data.pfpl                  # integrity only (checksums)
//! pfpl verify     -a data.pfpl -i data.f32      # + error-bound check
//! pfpl salvage    -i damaged.pfpl -o rescued.f32
//! pfpl fuzz       --seed 42 --iters 2000 --mode salvage
//! ```
//!
//! Exit status: 0 on success, 1 on any failure — including a damaged
//! archive reported by `verify` or `salvage` (so scripts can gate on it).

use pfpl::container::{Header, Toc};
use pfpl::float::{PfplFloat, Word};
use pfpl::types::{ErrorBound, Mode, Precision};
use std::process::ExitCode;

mod opts;
use opts::Opts;

/// A CLI failure: the message, plus whether it stems from bad invocation
/// syntax (print usage) or from a runtime condition like an unreadable
/// file or a damaged archive (usage would only bury the diagnosis).
struct CliError {
    msg: String,
    show_usage: bool,
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError {
            msg: msg.into(),
            show_usage: true,
        }
    }

    fn runtime(msg: impl Into<String>) -> Self {
        CliError {
            msg: msg.into(),
            show_usage: false,
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(msg) => {
            println!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pfpl: {}", e.msg);
            if e.show_usage {
                eprintln!("{}", opts::USAGE);
            }
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<String, CliError> {
    let (cmd, opts) = Opts::parse(argv).map_err(CliError::usage)?;
    if let Some(n) = opts.threads().map_err(CliError::usage)? {
        rayon::set_num_threads(n);
    }
    match cmd.as_str() {
        "compress" => compress(&opts),
        "decompress" => decompress(&opts),
        "info" => info(&opts),
        "verify" => verify(&opts),
        "salvage" => salvage(&opts),
        "fuzz" => fuzz(&opts),
        other => Err(CliError::usage(format!("unknown command `{other}`"))),
    }
}

/// Uncompressed-bytes-per-second throughput, the convention used
/// throughout the paper's tables.
fn gbs(bytes: usize, secs: f64) -> f64 {
    if secs <= 0.0 {
        return f64::INFINITY;
    }
    bytes as f64 / secs / 1e9
}

fn read_file(path: &str) -> Result<Vec<u8>, CliError> {
    std::fs::read(path).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), CliError> {
    std::fs::write(path, bytes).map_err(|e| CliError::runtime(format!("{path}: {e}")))
}

fn read_values<F: PfplFloat>(path: &str) -> Result<Vec<F>, CliError> {
    let bytes = read_file(path)?;
    let word = F::Bits::BITS as usize / 8;
    if bytes.len() % word != 0 {
        return Err(CliError::runtime(format!(
            "{path}: size {} is not a multiple of {word}",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(word)
        .map(|c| F::from_bits(F::Bits::read_le(c)))
        .collect())
}

fn to_le_bytes<F: PfplFloat>(vals: &[F]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * (F::Bits::BITS as usize / 8));
    vals.iter().for_each(|v| v.to_bits().push_le(&mut out));
    out
}

/// Run `f`, returning its result and its wall-clock seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Decode `archive` as `F` values into their little-endian bytes, timing
/// the decode alone.
fn decompress_le<F: PfplFloat>(archive: &[u8]) -> (pfpl::Result<Vec<u8>>, f64) {
    let (vals, secs) = timed(|| pfpl::decompress::<F>(archive, Mode::Parallel));
    (vals.map(|v| to_le_bytes(&v)), secs)
}

fn compress(o: &Opts) -> Result<String, CliError> {
    let input = o.require("-i").map_err(CliError::usage)?;
    let output = o.require("-o").map_err(CliError::usage)?;
    let bound = o.bound().map_err(CliError::usage)?;
    let is_double = o.is_double().map_err(CliError::usage)?;
    // The GB/s figure times compression alone, not the input file read.
    let (res, secs) = if is_double {
        let vals = read_values::<f64>(input)?;
        timed(|| pfpl::compress_with_stats(&vals, bound, Mode::Parallel))
    } else {
        let vals = read_values::<f32>(input)?;
        timed(|| pfpl::compress_with_stats(&vals, bound, Mode::Parallel))
    };
    let (archive, stats) = res.map_err(|e| CliError::runtime(e.to_string()))?;
    let word = if is_double { 8 } else { 4 };
    write_file(output, &archive)?;
    Ok(format!(
        "{} -> {} | {} values, ratio {:.2}x, unquantizable {:.4}%, {:.3} GB/s, {}",
        input,
        output,
        stats.total_values,
        stats.ratio(),
        stats.lossless_fraction() * 100.0,
        gbs(stats.total_values as usize * word, secs),
        kernels()
    ))
}

fn decompress(o: &Opts) -> Result<String, CliError> {
    let input = o.require("-i").map_err(CliError::usage)?;
    let output = o.require("-o").map_err(CliError::usage)?;
    let archive = read_file(input)?;
    let header = Toc::read(&archive)
        .map_err(|e| CliError::runtime(format!("{input}: {e}")))?
        .header;
    let (res, secs) = match header.precision {
        Precision::Single => decompress_le::<f32>(&archive),
        Precision::Double => decompress_le::<f64>(&archive),
    };
    let bytes = res.map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    write_file(output, &bytes)?;
    Ok(format!(
        "{} -> {} | {} values ({:?}, {:?} bound {:.3e}), {:.3} GB/s, {}",
        input,
        output,
        header.count,
        header.precision,
        header.kind,
        header.user_bound,
        gbs(bytes.len(), secs),
        kernels()
    ))
}

/// The SIMD kernels this CPU runs, e.g. `transpose avx512-gfni,
/// zero-elim avx512-vbmi2, checksum avx512, delta avx512`.
fn kernels() -> String {
    format!(
        "transpose {}, zero-elim {}, checksum {}, delta {}",
        pfpl::lossless::shuffle::tile_kernel(),
        pfpl::lossless::zeroelim::line_kernel(),
        pfpl::checksum::batch_kernel(),
        pfpl::lossless::delta::decode_kernel()
    )
}

fn info(o: &Opts) -> Result<String, CliError> {
    let input = o.require("-i").map_err(CliError::usage)?;
    let archive = read_file(input)?;
    let toc = Toc::read(&archive).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    let (h, payload_start) = (toc.header, toc.payload_start);
    let raw_chunks = toc
        .sizes
        .iter()
        .filter(|&&s| s & pfpl::container::RAW_FLAG != 0)
        .count();
    let word = h.precision.word_bytes() as u64;
    Ok(format!(
        "archive:      {input}\n\
         format:       v{}{}\n\
         precision:    {:?}\n\
         bound:        {} {:.6e}{}\n\
         values:       {}\n\
         chunks:       {} ({raw_chunks} stored raw)\n\
         header+table: {payload_start} bytes\n\
         payload:      {} bytes\n\
         ratio:        {:.3}x",
        toc.version,
        if toc.version >= 2 {
            " (per-chunk checksums)"
        } else {
            " (no checksums)"
        },
        h.precision,
        h.kind.name(),
        h.user_bound,
        if h.passthrough { " (passthrough)" } else { "" },
        h.count,
        h.chunk_count,
        archive.len() - payload_start,
        (h.count * word) as f64 / archive.len() as f64,
    ))
}

/// `verify -a <archive>`: archive-only integrity check against the stored
/// checksums (v2). With `-i <raw floats>` it additionally decompresses and
/// checks every value against the original data. Either failure exits
/// nonzero, with a per-chunk damage report or the first violating value.
fn verify(o: &Opts) -> Result<String, CliError> {
    let arch_path = o.require("-a").map_err(CliError::usage)?;
    let archive = read_file(arch_path)?;
    let toc = Toc::read(&archive).map_err(|e| CliError::runtime(format!("{arch_path}: {e}")))?;
    let report = match toc.header.precision {
        Precision::Single => pfpl::verify_archive::<f32>(&archive),
        Precision::Double => pfpl::verify_archive::<f64>(&archive),
    }
    .map_err(|e| CliError::runtime(format!("{arch_path}: {e}")))?;
    if !report.is_clean() {
        return Err(CliError::runtime(format!(
            "{arch_path}: DAMAGED\n{}",
            report.summary()
        )));
    }
    let Some(input) = o.get("-i") else {
        return Ok(format!("OK: {arch_path}: {}", report.summary()));
    };
    let h = toc.header;
    match h.precision {
        Precision::Single => bound_check::<f32>(input, arch_path, &archive, &h)?,
        Precision::Double => bound_check::<f64>(input, arch_path, &archive, &h)?,
    }
    Ok(format!(
        "OK: {} values within {} bound {:.6e}",
        h.count,
        h.kind.name(),
        h.user_bound
    ))
}

/// The data-vs-archive half of `verify`: decode `archive` as `F` and
/// check it value by value against the raw values in `input` under the
/// bound its header records ([`pfpl::exact::check_bound`]).
fn bound_check<F: PfplFloat>(
    input: &str,
    arch_path: &str,
    archive: &[u8],
    h: &Header,
) -> Result<(), CliError> {
    let orig = read_values::<F>(input)?;
    let recon: Vec<F> = pfpl::decompress(archive, Mode::Parallel)
        .map_err(|e| CliError::runtime(format!("{arch_path}: {e}")))?;
    if orig.len() != recon.len() {
        return Err(CliError::runtime(format!(
            "length mismatch: input {} vs archive {}",
            orig.len(),
            recon.len()
        )));
    }
    let bound = ErrorBound::new(h.kind, h.user_bound);
    pfpl::exact::check_bound(bound, h, &orig, &recon)
        .map_err(|e| CliError::runtime(format!("BOUND VIOLATED: {e}")))
}

/// `salvage -i <archive> -o <raw floats>`: decode everything that still
/// verifies, fill damaged chunks with `--fill` (default NaN), and write
/// the result regardless. Exits nonzero when anything was damaged, with
/// the per-chunk report on stderr — the rescued output is still on disk.
fn salvage(o: &Opts) -> Result<String, CliError> {
    let input = o.require("-i").map_err(CliError::usage)?;
    let output = o.require("-o").map_err(CliError::usage)?;
    let fill = o.f64_or("--fill", f64::NAN).map_err(CliError::usage)?;
    let archive = read_file(input)?;
    let toc = Toc::read(&archive).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    let (bytes, report) = match toc.header.precision {
        Precision::Single => pfpl::decompress_salvage::<f32>(&archive, Mode::Parallel, fill as f32)
            .map(|(vals, report)| (to_le_bytes(&vals), report)),
        Precision::Double => pfpl::decompress_salvage::<f64>(&archive, Mode::Parallel, fill)
            .map(|(vals, report)| (to_le_bytes(&vals), report)),
    }
    .map_err(|e| CliError::runtime(format!("{input}: unsalvageable: {e}")))?;
    write_file(output, &bytes)?;
    if report.is_clean() {
        Ok(format!(
            "{input} -> {output} | {} values, {}",
            toc.header.count,
            report.summary()
        ))
    } else {
        Err(CliError::runtime(format!(
            "{input}: DAMAGED (salvaged what survived into {output})\n{}",
            report.summary()
        )))
    }
}

/// Deterministic structure-aware fuzzing (see the `pfpl-fuzz` crate):
/// `--mode decode` attacks every decode path with mutants, `--mode
/// salvage` runs the corruption-recovery oracle. Exit status reflects the
/// verdict, so CI can run `pfpl fuzz --seed 42 --iters 2000` directly as
/// a smoke gate.
fn fuzz(o: &Opts) -> Result<String, CliError> {
    let seed = o.u64_or("--seed", 42).map_err(CliError::usage)?;
    let iters = o.u64_or("--iters", 1000).map_err(CliError::usage)?;
    let mode = o.get("--mode").unwrap_or("decode");
    let report = match mode {
        "decode" => pfpl_fuzz::run(seed, iters),
        "salvage" => pfpl_fuzz::run_salvage(seed, iters),
        other => {
            return Err(CliError::usage(format!(
                "unknown --mode `{other}` (decode|salvage)"
            )))
        }
    };
    let summary = format!("fuzz[{mode}] seed {seed}: {}", report.summary());
    if report.is_clean() {
        Ok(summary)
    } else {
        Err(CliError::runtime(format!(
            "{summary}\n{}",
            report
                .failures
                .iter()
                .map(|f| format!("  - {f}"))
                .collect::<Vec<_>>()
                .join("\n")
        )))
    }
}

/// Map the ErrorBound constructor choices (shared with `opts`).
pub(crate) fn make_bound(kind: &str, eb: f64) -> Result<ErrorBound, String> {
    match kind {
        "abs" => Ok(ErrorBound::Abs(eb)),
        "rel" => Ok(ErrorBound::Rel(eb)),
        "noa" => Ok(ErrorBound::Noa(eb)),
        other => Err(format!("unknown bound type `{other}` (abs|rel|noa)")),
    }
}
