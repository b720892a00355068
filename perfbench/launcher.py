"""Run the ``repro`` CLI's keyed ``serve`` command and report on exit.

The keyed-tcp workload starts the server through this script so the
server process can report what only it can see.  It captures the
``KeyedCounterService`` the CLI builds (one wrapper on ``start``, no
per-request cost), runs ``repro.cli.main`` with the given arguments
unchanged, and answers the client on stdin (see :func:`_serve_client`).
Once the server has stopped and stdin is closed it prints one JSON line:
served incs, the busiest processor's message load, CPU seconds since the
socket was ready and, with ``--trace 1``, the server-side per-layer
metrics from the same wrappers the in-process workloads use.

    PYTHONPATH=src python3 perfbench/launcher.py --trace 1 --t0 0 \\
        --dump .perfbench/spans/server.jsonl serve central --n 4 --shards 4
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from time import process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import LayerProbe, peak_rss_mb  # noqa: E402


def _serve_client(client: dict[str, tuple]) -> None:
    """Answer the benchmark client on stdin until it closes the pipe.

    ``rss`` prints this process's peak RSS as a JSON line;
    ``window <start> <end> <ops>`` records the client's measured window
    (``perf_counter()`` is the system-wide monotonic clock, so the
    client's readings hold in this process too).
    """
    for line in sys.stdin:
        words = line.split()
        if words == ["rss"]:
            print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
        elif words[:1] == ["window"]:
            client["window"] = (
                float(words[1]), float(words[2]), int(words[3])
            )


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False
    )
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the server was launched")
    parser.add_argument("--dump", required=True,
                        help="span dump path (traced runs)")
    args, cli_args = parser.parse_known_args()

    from repro.cli import main as repro_main
    from repro.serve import KeyedCounterService

    probe = None
    if args.trace:
        probe = LayerProbe()
        probe.install()
    services: list[KeyedCounterService] = []
    ready: dict[str, float] = {}
    original_start = KeyedCounterService.start

    async def start(self: KeyedCounterService) -> None:
        await original_start(self)
        services.append(self)
        ready["cpu"] = process_time()
        ready["setup_s"] = time.monotonic() - args.t0

    KeyedCounterService.start = start
    client: dict[str, tuple] = {}
    control = threading.Thread(target=_serve_client, args=(client,))
    control.start()
    code = repro_main(cli_args)
    control.join()
    if not services:
        return code or 1
    service = services[0]
    shards = service.map.shards()
    report = {
        "served": service.served,
        "bottleneck": max(
            s.session.network.trace.bottleneck()[1] for s in shards
        ),
        "cpu_s": process_time() - ready["cpu"],
    }
    if probe is not None:
        start, end, ops = client["window"]
        window = (start, end)
        report["layers"] = probe.metrics(
            sessions=[s.session for s in shards],
            ops=ops,
            window=window,
            setup_s=ready["setup_s"],
            cpu_us_per_op=0.0,
            shard_ops=[s.local_ops for s in shards],
        )
        report["self_s"] = probe.self_times(window)
        probe.tracer.dump(args.dump)
    print(json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
