#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each end-to-end metric's
spread (interquartile range as a share of the median) next to its bound.

Usage, from the repository root:

    python3 ldpcbench/spread.py --runs 10 [--first-seed 1] [--seconds N]
                                [--workload NAME ...] [--out FILE]
    python3 ldpcbench/spread.py --held-out SEED [--workload NAME ...]

The first form runs `BENCHMARK.json`'s command once per seed and workload
with `--trace 0`, and exits non-zero if any run fails, is incorrect, or a
spread exceeds its bound. The second runs a held-out seed twice per
workload and checks that the exact counts (block errors, iterations,
check-node updates, escalations, HARQ transmissions) agree; the benchmark
itself also fails the second run on any difference from the first run of
the same build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Figures from each run's record, reported beside the gated metrics but not
# gated: the raw set-up CPU time and the host-speed calibration behind
# `setup_s`, the timed phase's figures as measured (before they are stated at
# the reference host's speed), the host's speed, and its steal.
DIAGNOSTICS = ["setup.cpu_ms", "host.calibration_ms", "raw.cpu_ns_per_bit",
               "window.p50_ms", "window.info_mbps", "host.speed", "host.steal_ms"]


def run(bench, workload, seed, seconds):
    """One benchmark run: (exit code, stdout, stderr, wall seconds)."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    return proc.returncode, proc.stdout, proc.stderr, time.monotonic() - start


def exact_counts(stdout):
    return [line for line in stdout.splitlines() if line.startswith("ldpcbench: exact ")]


def held_out(bench, workloads, seed):
    ok = True
    for workload in workloads:
        for record in (ROOT / ".bench_out").glob(f"exact-{workload}-seed{seed}-build*.txt"):
            record.unlink()
        counts = []
        for _ in range(2):
            code, stdout, stderr, _ = run(bench, workload, seed, 2)
            if code != 0:
                print(f"{workload} seed {seed}: exit {code}\n{stderr[-2000:]}")
                ok = False
            counts.append(exact_counts(stdout))
        same = counts[0] == counts[1] and counts[0]
        ok &= bool(same)
        print(f"{workload} held-out seed {seed}: exact counts "
              f"{'agree' if same else 'DIFFER'}")
        for line in counts[0]:
            print(f"  {line.removeprefix('ldpcbench: exact ')}")
    return 0 if ok else 1


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--held-out", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    if args.held_out is not None:
        return held_out(bench, workloads, args.held_out)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    report = {}
    for workload in workloads:
        values = {name: [] for name in bounds}
        diagnostics = {name: [] for name in DIAGNOSTICS}
        walls = []
        for i in range(args.runs):
            seed = args.first_seed + i
            code, stdout, stderr, wall = run(bench, workload, seed, args.seconds)
            walls.append(wall)
            lines = stdout.strip().splitlines()
            if code != 0 or not lines:
                print(f"{workload} seed {seed}: exit {code}\n{stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            record = ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace0.json"
            recorded = json.loads(record.read_text())["values"]
            for name in DIAGNOSTICS:
                diagnostics[name].append(recorded[name])
        rows = {}
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, bound in bounds.items():
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            within = spread <= bound
            ok &= within
            rows[name] = {"median": med, "iqr_share": spread, "bound": bound,
                          "min": min(v), "max": max(v), "values": v}
            print(f"  {name:<18} median {med:>12.5g}  iqr/median {spread:6.3f}  "
                  f"bound {bound:4.2f}  {'ok' if within else 'OVER'}")
        notes = {}
        for name, v in diagnostics.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            notes[name] = {"median": med, "iqr_share": spread, "values": v}
            print(f"  ({name:<19} median {med:>11.5g}  iqr/median {spread:6.3f}  not gated)")
        report[workload] = {"seeds": [args.first_seed, args.first_seed + args.runs - 1],
                            "seconds": args.seconds, "metrics": rows,
                            "diagnostics": notes}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
