"""Smoke test of the benchmark itself (about two minutes).

    python3 perfbench/smoke.py

* every workload runs at a tiny size, untraced and traced, and must
  report ``correct: true`` with exactly the metric names and units
  ``BENCHMARK.json`` lists;
* a run whose result is deliberately corrupted (one value handed out
  twice) must fail its exactness check: ``correct: false``, exit 1;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  own files, the benchmark must exit nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root: str, *extra: str) -> tuple[int, dict | None]:
    command = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--seed", "7", "--seconds", "0.6", "--scale", "tiny", *extra,
    ]
    proc = subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=170
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            code, result = run(ROOT, "--workload", workload, "--trace", trace)
            label = f"{workload} --trace {trace}"
            check(code == 0 and result is not None
                  and result.get("correct") is True, f"{label}: correct")
            if result is None:
                continue
            check(set(result) == RESULT_KEYS, f"{label}: result keys")
            units = {
                name: metric.get("unit")
                for name, metric in result["metrics"].items()
            }
            check(units == expected[trace], f"{label}: metric names/units")
        code, result = run(
            ROOT, "--workload", workload, "--trace", "0", "--corrupt"
        )
        check(
            code == 1 and result is not None
            and result["correct"] is False and result["failed"] >= 1,
            f"{workload} --corrupt: exactness check trips",
        )

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path), os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        code, result = run(bare, "--workload", "sim-tree", "--trace", "0")
        check(code != 0 and result is None,
              "without the program: nonzero exit, no result")

    print("smoke:", "FAILED " + str(len(failures)) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
