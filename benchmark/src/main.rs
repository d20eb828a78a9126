//! PFPL repository benchmark.
//!
//! ```text
//! pfpl-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the named workload from the seed, checks every output, and
//! prints three JSON lines on stdout: the provenance record, the run's
//! details, and last the result
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `benchmark/README.md`.
//!
//! With `--setup-only 1` it only sets the workload up and prints the
//! set-up seconds: the untraced run starts itself that way for the
//! further cold set-up samples behind `setup_s`.

mod alloc;
mod bench;
mod host;
mod json;
mod stats;
mod trace;
mod workload;

use bench::{Metric, Tally};
use host::Cpus;
use json::Json;
use pfpl::{PfplFloat, Precision};
use pfpl_device_sim::pfpl_gpu::WarpTranspose;
use std::path::PathBuf;
use std::time::Instant;
use workload::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Cold set-ups per untraced run, each from process start: the run's own
/// and `SETUP_SAMPLES - 1` in fresh processes. `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

const USAGE: &str = "usage: pfpl-benchmark --workload NAME --seed N --seconds S --trace 0|1
workloads: smooth-f32-abs, f64-rel, rough-f32";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            "--setup-only" => setup_only = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn main() {
    let started = Instant::now();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    // Read the affinity before any thread exists: pool workers inherit
    // the full set.
    let cpus = Cpus::detect();
    match args.workload.precision() {
        Precision::Single => run::<f32>(&args, &cpus, started),
        Precision::Double => run::<f64>(&args, &cpus, started),
    }
}

fn run<F: PfplFloat>(args: &Args, cpus: &Cpus, started: Instant)
where
    F::Bits: WarpTranspose,
{
    let w = args.workload;
    let mut tally = Tally::default();
    // Process start until the first timed round, less the untimed
    // correctness checks.
    let t0 = Instant::now();
    let (p, took) = bench::prepare::<F>(w, args.seed, !args.setup_only, &mut tally);
    let mut setups = vec![(took + (t0 - started)).as_secs_f64()];
    if args.setup_only {
        println!("{}", setups[0]);
        return;
    }
    bench::gate(w, args.seed, &p, &mut tally);
    let working_set = p.working_set();

    let rounds = w.rounds(args.seconds, args.trace);
    let (metrics, details) = if args.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or(PathBuf::from(".bench_build"), PathBuf::from);
        let path = dir
            .join("perfbench")
            .join(format!("trace-{}-s{}.json", w.name(), args.seed));
        trace::run(w, rounds, &p, cpus, &mut tally, &path)
    } else {
        let (mut m, d) = bench::measure(w, rounds, &p, cpus, &mut tally);
        // The other cold set-ups, one process at a time, after this
        // run's inputs are freed.
        drop(p);
        for _ in 1..SETUP_SAMPLES {
            let s = cold_setup(args);
            if tally.result("cold set-up in a fresh process", &s, |_| true) {
                setups.extend(s);
            }
        }
        m.push(Metric {
            name: "setup_s",
            unit: "s",
            value: stats::median(&setups),
        });
        (
            m,
            Json::obj([
                ("run", d),
                (
                    "setup_s_samples",
                    Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
                ),
            ]),
        )
    };

    println!(
        "{}",
        Json::obj([(
            "provenance",
            host::provenance(cpus, w.name(), args.seed, rounds, working_set)
        )])
    );
    println!(
        "{}",
        Json::obj([
            ("details", details),
            (
                "errors",
                Json::Arr(tally.errors.iter().map(Json::str).collect())
            ),
            ("run_seconds", Json::Num(started.elapsed().as_secs_f64())),
        ])
    );
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let metrics = metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    });
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(tally.attempted)),
            ("failed", Json::Int(tally.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    );
}

/// One cold set-up of the same workload and seed in a fresh process of
/// this binary: its seconds from process start.
fn cold_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .args(["--setup-only", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("set-up process exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse::<f64>()
        .map_err(|_| format!("set-up process printed {text:?}"))
}
