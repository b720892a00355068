"""The repository benchmark: four workloads, exactness-checked.

    python3 perfbench/run.py --workload sim-tree --seed 1 --seconds 20 \\
        --trace 0

Workloads (see README.md in this directory for the layer map):

* ``sim-tree``     the paper's tree counter, n=30000, sequential one-shot;
* ``sim-lossy``    the same counter, n=8000, 5% drops behind the reliable
                   transport;
* ``keyed-inproc`` the keyed counter service in process, 64 callers;
* ``keyed-tcp``    ``repro serve`` in its own process, 2 loopback
                   connections, 80% INC / 20% STATS reads.

Each run executes several *cycles*, every one in a fresh process, so
``setup_s`` includes ``import repro`` and the build.  The cycles run the
given seed twice and a second seed once (sim-* add cycles on the given
seed until ``--seconds`` of runs are measured; keyed-* split
``--seconds`` between the cycles).  Every output is checked; sim-*
counts must repeat exactly across the cycles on one seed.

Standard error gets a readable report.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics from a run with every layer wrapped in spans.  A violation
prints ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import PER_LAYER, percentile  # noqa: E402

WORKLOADS = ("sim-tree", "sim-lossy", "keyed-inproc", "keyed-tcp")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "msgs_per_op": "msgs",
    "bottleneck_load": "msgs",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
CYCLES = 3
MAX_SIM_CYCLES = 5
CYCLE_TIMEOUT_S = 120
SECOND_SEED_OFFSET = 1_000_003


class CycleFailed(RuntimeError):
    """A worker process crashed, hung or printed no result."""


def run_cycle(args: argparse.Namespace, seed: int, index: int) -> dict:
    """Run one cycle in a fresh worker process and return its figures."""
    slice_s = args.seconds / CYCLES
    t0 = time.monotonic()
    command = [
        sys.executable, os.path.join(HERE, "worker.py"), args.workload,
        "--seed", str(seed), "--slice", repr(slice_s),
        "--trace", str(args.trace), "--scale", args.scale,
        "--t0", repr(t0),
        "--dump", os.path.join(
            ROOT, ".perfbench", "spans", f"{args.workload}-{index}"
        ),
    ]
    if args.corrupt:
        command.append("--corrupt")
    # a session of its own, so a hung cycle is killed with its server
    worker = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = worker.communicate(timeout=CYCLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise CycleFailed(f"cycle {index} exceeded {CYCLE_TIMEOUT_S} s")
    if worker.returncode != 0 or not stdout.strip():
        raise CycleFailed(
            f"cycle {index} exited {worker.returncode}: {stderr[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def run_cycles(args: argparse.Namespace) -> list[tuple[int, dict]]:
    """All cycles of one run as ``(seed, figures)`` pairs."""
    second = args.seed + SECOND_SEED_OFFSET
    cycles: list[tuple[int, dict]] = []
    seeds = [args.seed, args.seed, second]
    while seeds:
        seed = seeds.pop(0)
        cycles.append((seed, run_cycle(args, seed, len(cycles))))
        measured = sum(c["measure_s"] for _, c in cycles)
        if (
            not seeds
            and args.workload.startswith("sim-")
            and measured < args.seconds
            and len(cycles) < MAX_SIM_CYCLES
        ):
            seeds.append(args.seed)
    return cycles


def determinism_violations(
    workload: str, seed: int, cycles: list[tuple[int, dict]]
) -> list[str]:
    """sim-* message and transport counts must repeat exactly on a seed."""
    if not workload.startswith("sim-"):
        return []
    first = [c["counts"] for s, c in cycles if s == seed]
    return [
        f"seed {seed}: counts {counts} differ from {first[0]}"
        for counts in first[1:]
        if counts != first[0]
    ]


def end_to_end(cycles: list[dict]) -> dict[str, float]:
    """Set-up, counts and memory: medians over the cycles.  Throughput
    and latency pool every cycle's measured phase (pooling steadied the
    figures more than per-cycle medians did on a shared 2-vCPU VM)."""
    def med(key: str) -> float:
        return statistics.median(c[key] for c in cycles)

    attempted = sum(c["attempted"] for c in cycles)
    failed = sum(c["failed"] for c in cycles)
    latencies = [ms for c in cycles for ms in c["latencies_ms"]]
    return {
        "setup_s": med("setup_s"),
        "ops_per_s": sum(c["ops"] for c in cycles)
        / sum(c["measure_s"] for c in cycles),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p99_ms": percentile(latencies, 0.99),
        "msgs_per_op": med("msgs_per_op"),
        "bottleneck_load": med("bottleneck_load"),
        "peak_rss_mb": med("peak_rss_mb"),
        "ok_frac": 1.0 - failed / attempted,
    }


def per_layer(cycles: list[dict]) -> dict[str, float]:
    return {
        name: statistics.median(c["layers"][name] for c in cycles)
        for name in PER_LAYER
    }


def stamp() -> str:
    """Commit, CPU count and Python version for the report header."""
    sha = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return (
        f"commit {sha or 'unknown'}, nproc {os.cpu_count()}, "
        f"python {platform.python_version()}"
    )


def report(args, cycles, metrics, units, violations) -> None:
    """Human-readable summary on standard error."""
    out = sys.stderr
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} ({stamp()})", file=out)
    for seed, c in cycles:
        print(f"  cycle seed={seed}: setup {c['setup_s']:.3f} s, "
              f"{c['ops']} ops in {c['measure_s']:.3f} s, "
              f"{len(c['latencies_ms'])} latency samples, "
              f"{c['failed']}/{c['attempted']} failed", file=out)
    for name, value in metrics.items():
        print(f"  {name:30s} {value:14.6g} {units[name]}", file=out)
    if args.trace:
        self_s = cycles[0][1]["self_s"]
        total = sum(self_s.values()) or 1.0
        print("  self time in the measured window (first cycle):", file=out)
        for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"    {name:28s} {seconds:10.4f} s {seconds / total:7.1%}",
                  file=out)
    for problem in violations:
        print(f"  VIOLATION: {problem}", file=out)


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own ``run.py`` process, one after the
    other; exit 1 when any of them fails or reports a violation."""
    worst = 0
    for workload in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale,
        ]
        if args.corrupt:
            command.append("--corrupt")
        worst = max(worst, subprocess.run(command, cwd=ROOT).returncode)
    return 1 if worst else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 2)[2],
    )
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        required=True,
                        help="one workload, or 'all' to run the four in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny: small sizes for the smoke test")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one result; the run must "
                             "fail its exactness check")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program to measure: src/repro is missing "
              f"under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        seeded = run_cycles(args)
    except CycleFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    cycles = [c for _, c in seeded]
    violations = [v for c in cycles for v in c["violations"]]
    violations += determinism_violations(args.workload, args.seed, seeded)
    if args.trace:
        metrics, units = per_layer(cycles), PER_LAYER
    else:
        metrics, units = end_to_end(cycles), END_TO_END
    report(args, seeded, metrics, units, violations)
    correct = not violations
    print(json.dumps({
        "correct": correct,
        "attempted": sum(c["attempted"] for c in cycles),
        "failed": sum(c["failed"] for c in cycles),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
