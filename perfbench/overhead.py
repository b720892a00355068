"""Tracing overhead: traced against untraced ``ops_per_s`` per workload.

    python3 perfbench/overhead.py [--seed 1] [--seconds 20]

Runs every workload once untraced and once traced with the same seed and
prints a Markdown table stamped with the commit, ``nproc`` and the
Python version.  Both figures are wall-clock throughput over the
measured phase, so the ratio includes run-to-run noise; repeat it before
reading a small difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import ROOT, WORKLOADS, stamp  # noqa: E402


def ops_per_s(workload: str, seed: int, seconds: float, trace: int) -> float:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return metrics["traced_ops_per_s" if trace else "ops_per_s"]["value"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    print(f"Tracing overhead ({stamp()}, seed {args.seed}, "
          f"{args.seconds:g} s per run)\n")
    print("| workload | untraced ops/s | traced ops/s | traced/untraced |")
    print("|---|---:|---:|---:|")
    for workload in WORKLOADS:
        plain = ops_per_s(workload, args.seed, args.seconds, 0)
        traced = ops_per_s(workload, args.seed, args.seconds, 1)
        print(f"| {workload} | {plain:.0f} | {traced:.0f} | "
              f"{traced / plain:.2f} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
