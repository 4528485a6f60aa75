#!/usr/bin/env python3
"""Run the benchmark repeatedly and report each end-to-end metric's median and spread.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --sets 2 --out runs.json
    python3 perfbench/spread.py --workloads query-100k --seeds 1-5

Runs BENCHMARK.json's command untraced once per seed and workload, one run
at a time, with --seconds set to its run_seconds. Seeds are the outer loop,
so every workload's runs are spread over the same stretch of time. For
every end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next
to the metric's bound. With --sets 2 or more, the sets run one after
another and each later set's medians are compared with the first set's
against the bounds. With --out, every run's metrics and environment are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench: dict, workload: str, seed: int) -> tuple[dict, dict]:
    argv = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarize(bench: dict, runs: list[dict]) -> dict:
    """workload -> metric -> (median, q1, q3, spread) over the given runs."""
    out: dict = {}
    for w in bench["workloads"]:
        rows = [r for r in runs if r["workload"] == w["name"]]
        if rows:
            out[w["name"]] = {
                m["name"]: quartile_spread([r["result"]["metrics"][m["name"]]["value"] for r in rows])
                for m in bench["end_to_end"]
            }
    return out


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first` (negative if better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--sets", type=int, default=1, help="sets of runs, one after another")
    parser.add_argument("--out", help="write every run's result to this JSON file")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    runs = []
    ok = True
    for set_ in range(1, args.sets + 1):
        # seeds outside, workloads inside: every workload samples the same
        # stretch of the machine's drift
        for seed in seeds:
            for workload in workloads:
                result, report = run_once(bench, workload, seed)
                runs.append({"set": set_, "workload": workload, "seed": seed, "result": result, "report": report})
                print(f"set {set_} {workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
                ok &= result["correct"] and result["failed"] == 0
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(runs, fh, indent=1, sort_keys=True)

    sets = [summarize(bench, [r for r in runs if r["set"] == n]) for n in range(1, args.sets + 1)]
    for n, summary in enumerate(sets, 1):
        for workload, stats in summary.items():
            print(f"\nset {n}: {workload} ({len(seeds)} runs)")
            for m in bench["end_to_end"]:
                med, q1, q3, spread = stats[m["name"]]
                bound = m["bound"]
                flag = "ok" if spread < bound / 3 else "WIDE" if spread > bound else ">bound/3"
                print(f"  {m['name']:<20} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                      f"spread {spread:.4f} bound {bound}  {flag}")
    for n in range(1, len(sets)):
        print(f"\nset {n + 1} against set 1: how much worse each median is (share of set 1's)")
        for workload in sets[0]:
            for m in bench["end_to_end"]:
                change = worse_by(sets[0][workload][m["name"]][0], sets[n][workload][m["name"]][0], m["better"])
                flag = "ok" if change <= m["bound"] else "WORSE THAN BOUND"
                print(f"  {workload:<12} {m['name']:<20} {change:+.4f} bound {m['bound']}  {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
