#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartiles of
its values, as a share of their median, next to the metric's bound.

    python3 perfbench/spread.py --workload grid-quick --seeds 1-10

Run from the repository root. It reads BENCHMARK.json for the command,
the run length and the bounds.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        t0 = time.monotonic()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        took = time.monotonic() - t0
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: run not correct: {res}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({took:.1f} s): " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
    for name, vs in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND"))
        print(f"{name:20s} median={med:.6g} spread={spread:.4f} bound={bound} {flag}")


if __name__ == "__main__":
    main()
