#!/usr/bin/env python3
"""Benchmark of the assocrank retriever.

    python3 perfbench/run.py --workload query-5k --seed 42 --seconds 6 --trace 0

Run from the root of a checkout; the product is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The line before it carries the
environment, input digest, per-phase operation counts and check results.
With --trace 1 the recorded spans are also written to
.perfbench/spans-<workload>-seed<seed>.jsonl. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Run BLAS on one thread unless the environment asks for more, never on more
    than the CPUs this process may use; must run before numpy loads.

    On a shared host a second BLAS thread waits whenever another tenant holds
    its CPU, which stalls the whole call; with one thread such load barely
    moves the figures."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        threads = int(current) if current.isdigit() and int(current) > 0 else 1
        os.environ[var] = str(min(threads, nproc))
    return nproc


def source_identity() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "assocrank")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def environment(nproc: int, seed: int) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):  # no dict form in older builds: version unknown
            return None

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy),
        "scipy_openblas": blas_version(scipy),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "seed": seed,
        **source_identity(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="query-5k, query-100k or train-5k")
    parser.add_argument("--seed", type=int, default=42, help="synth.seed; 42 is the README config")
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "assocrank", "__init__.py")):
        print(f"error: no assocrank sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, SRC)
    import harness  # imports numpy, so only after the thread cap

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)}")

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        run = harness.Run(harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
        metrics = run.execute()
        if args.trace:
            run.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": args.workload, "trace": args.trace, "environment": environment(nproc, args.seed)}
    report.update(run.info)
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": run.ops.failed == 0,
                "attempted": run.ops.attempted,
                "failed": run.ops.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
