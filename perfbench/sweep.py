#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json and summarise the end-to-end metrics.

    python3 perfbench/sweep.py                  # each workload once, seed 1
    python3 perfbench/sweep.py --seeds 10       # seeds 1..10: medians and spreads
    python3 perfbench/sweep.py --workloads device_sim --seeds 5 --first-seed 20

Each run is the benchmark command from BENCHMARK.json, started from the
repository root. For every metric the summary gives the median of the runs
and the spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound. Exits 1 if any run fails or reports a failed correctness check.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    opts = parser.parse_args()
    metrics = bench["per_layer" if opts.trace else "end_to_end"]
    ok = True
    for workload in opts.workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            result = run(bench["command"], workload, seed, opts.seconds, opts.trace)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED", flush=True)
                ok = False
                continue
            got = result["metrics"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m['name']}={got[m['name']]['value']:.6g} {got[m['name']]['unit']}"
                for m in metrics), flush=True)
            for m in metrics:
                values[m["name"]].append(got[m["name"]]["value"])
        if opts.seeds < 2:
            continue
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m.get("bound")
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {workload:20s} {m['name']:34s} median {med:.6g}"
                  f"  spread {spread:.3f}{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
