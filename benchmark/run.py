#!/usr/bin/env python3
"""Build and run the PFPL repository benchmark.

Run from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

builds `benchmark/` (release, offline, into $CARGO_TARGET_DIR, default
`.bench_build`) and runs one measurement; the last line of stdout is the
result JSON. Exits non-zero without a result when the build fails, e.g.
when the library sources are missing.

Steadiness self-check:

    python3 benchmark/run.py --steady --workload NAME [--runs 10]
        [--seconds S] [--sets 1]

repeats the workload in separate processes, one seed each (seeds 1..runs,
and runs+1..2*runs for the second set), and prints for every metric the
median, quartiles (Python's statistics.quantiles) and min/max across
runs. It flags an end-to-end metric whose interquartile spread, as a
share of its median, exceeds its bound in BENCHMARK.json, and with
`--sets 2` one whose median moved the worse way by more than its bound
from the first set of runs to the second.
`--workload all` checks every workload. See benchmark/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BIN = "pfpl-benchmark"


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Build the benchmark; return the binary's path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    # Cargo's progress goes to stderr; stdout carries only the result.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    exe = os.path.join(target_dir(), "release", BIN)
    return exe if os.path.isfile(exe) else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(exe, workload, seed, seconds):
    """One untraced benchmark process; returns its result object."""
    args = [exe, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread_row(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def steady(argv):
    spec = load_spec()
    p = argparse.ArgumentParser(prog="run.py --steady")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--sets", type=int, default=1, choices=(1, 2))
    a = p.parse_args(argv)
    if a.runs < 2:
        p.error("--runs must be at least 2")
    exe = build()
    if exe is None:
        return 1
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if a.workload == "all" else [a.workload]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    flagged = []
    for w in workloads:
        sets = []
        for s in range(a.sets):
            values = {name: [] for name in bounds}
            for k in range(a.runs):
                seed = 1 + s * a.runs + k
                res = run_once(exe, w, seed, a.seconds)
                if not res["correct"] or res["failed"]:
                    flagged.append(f"{w}: seed {seed} not correct ({res['failed']} of {res['attempted']} failed)")
                for name in bounds:
                    values[name].append(res["metrics"][name]["value"])
                print(f"# {w} set {s + 1} run {k + 1}/{a.runs} seed {seed} done", file=sys.stderr)
            sets.append(values)
        print(f"\n{w} ({a.runs} runs x {a.sets} set(s), {a.seconds} s each)")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
        for name, m in bounds.items():
            row = spread_row(sets[0][name])
            bound = m["bound"]
            note = ""
            if row["spread"] > bound:
                note = "  SPREAD OVER BOUND"
                flagged.append(f"{w}: {name} spread {row['spread']:.3f} > bound {bound}")
            elif row["spread"] > bound / 3:
                note = "  (over a third of its bound)"
            if a.sets == 2:
                m2 = statistics.median(sets[1][name])
                drift = (m2 - row["median"]) / row["median"]
                worse = drift if m["better"] == "lower" else -drift
                note += f"  set-2 median {m2:.6g} ({drift:+.3f})"
                if worse > bound:
                    note += "  DRIFT OVER BOUND"
                    flagged.append(f"{w}: {name} median drifted {drift:+.3f}, bound {bound}")
            print(f"  {name:28} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
                  f"{row['min']:12.6g} {row['max']:12.6g} {row['spread']:8.4f} "
                  f"{bound:>6}{note}")
    print()
    print("\n".join(flagged) if flagged else "steady: every spread and drift within its bound")
    return 1 if flagged else 0


def main(argv):
    if argv[:1] == ["--steady"]:
        return steady(argv[1:])
    exe = build()
    if exe is None:
        print("benchmark build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
