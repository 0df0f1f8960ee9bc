#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs each workload many times with distinct seeds and reports, for every
end-to-end metric, the median, the quartiles and the spread (Q3 - Q1 as a
share of the median) next to the metric's bound in BENCHMARK.json. Then
runs a few traced runs per workload and reports the tracing overhead
(traced events_per_s against the timed median) and the single-threaded
baseline's events_per_s where the workload has one.

Usage (from the repository root):

    python3 triagebench/steady.py [--runs 10] [--traced-runs 3]
        [--first-seed 1] [--workloads a,b] [--seconds N]

A summary is also written to .bench_out/steady.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0] == "#":
            try:
                info[parts[1]] = float(parts[2])
            except ValueError:
                pass
    return json.loads(lines[-1]), info


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run(workload, seed, args.seconds, False)[0] for seed in seeds]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n== {workload}: {args.runs} runs of {args.seconds} s, "
              f"seeds {seeds.start}..{seeds.stop - 1}, "
              f"all correct: {all(r['correct'] for r in results)}, "
              f"failed shares: {sorted(shares)}")
        print(f"{'metric':24} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  ok(<bound/3)")
        entry = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else float("inf")
            ok = "yes" if spread < bound / 3 else "NO"
            print(f"{name:24} {median:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound:6.2f}  {ok}")
            entry[name] = {"median": median, "q1": q1, "q3": q3,
                           "spread": spread, "values": values}
        traced, serial = [], []
        for seed in list(seeds)[:args.traced_runs]:
            result, info = run(workload, seed, args.seconds, True)
            if not result["correct"]:
                print(f"traced run seed {seed} failed its checks")
            traced.append(info.get("traced_events_per_s", 0.0))
            if "serial_events_per_s" in info:
                serial.append(info["serial_events_per_s"])
        timed = entry["events_per_s"]["median"]
        if traced:
            overhead = 1.0 - statistics.median(traced) / timed
            print(f"tracing overhead: traced events_per_s median "
                  f"{statistics.median(traced):.6g} vs timed {timed:.6g} "
                  f"({100 * overhead:+.1f}% slower)")
            entry["tracing_overhead"] = overhead
        if serial:
            print(f"single-threaded baseline events_per_s median "
                  f"{statistics.median(serial):.6g} "
                  f"(pooled timed median {timed:.6g})")
            entry["serial_events_per_s"] = statistics.median(serial)
        summary[workload] = entry

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady.json"), "w") as f:
        json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
