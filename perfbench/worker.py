"""One measured cycle of one workload, in a fresh process.

``run.py`` starts this script once per cycle, so every cycle pays the
program's real start-up (``import repro`` and the session, service or
server build) and reports it as ``setup_s``.  The last line of standard
output is one JSON object with the cycle's raw figures.

    python3 perfbench/worker.py sim-tree --seed 1 --slice 3 --trace 0 \\
        --t0 <time.monotonic() of the launch> --dump .perfbench/spans/x
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import itertools
import json
import os
import random
import selectors
import socket
import subprocess
import sys
import time
from collections import defaultdict
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from checks import (  # noqa: E402
    check_keyed,
    check_sequential,
    wrong_keyed,
    wrong_sequential,
)
from layers import LayerProbe, peak_rss_mb, percentile  # noqa: E402

SIZES = {
    "full": {"sim-tree": 30000, "sim-lossy": 8000},
    "tiny": {"sim-tree": 200, "sim-lossy": 200},
}
CALLERS = 64  # keyed-inproc closed-loop callers
CONNECTIONS = 2  # keyed-tcp persistent loopback connections
KEY_NAMES = [f"k{i:04d}" for i in range(1000)]
ZIPF_SKEW = 1.1
READ_SHARE = 0.2  # keyed-tcp share of STATS <key> reads
TCP_WARM_OPS = 500  # keyed-tcp requests before the window opens


class KeyStream:
    """Seeded Zipf(1.1) draws over :data:`KEY_NAMES`."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._cum = list(
            itertools.accumulate(
                1.0 / (rank ** ZIPF_SKEW)
                for rank in range(1, len(KEY_NAMES) + 1)
            )
        )

    def next(self) -> str:
        point = self._rng.random() * self._cum[-1]
        return KEY_NAMES[bisect.bisect_right(self._cum, point)]

    def chance(self) -> float:
        return self._rng.random()


def _probe(trace: bool) -> LayerProbe | None:
    if not trace:
        return None
    probe = LayerProbe()
    probe.install()
    return probe


# ----------------------------------------------------------------------
# sim-tree / sim-lossy: the paper's counter on the simulator
# ----------------------------------------------------------------------
def sim_cycle(args: argparse.Namespace) -> dict:
    from repro import RunSession

    lossy = args.workload == "sim-lossy"
    n = SIZES[args.scale][args.workload]
    probe = _probe(args.trace)
    options = (
        {"policy": "random", "faults": "drop=0.05", "reliable": True}
        if lossy
        else {}
    )
    session = RunSession(
        "ww-tree", n, seed=args.seed, trace_level="loads", **options
    )
    setup_s = time.monotonic() - args.t0
    initiators = list(range(1, n + 1))
    if not lossy:  # the order is sim-tree's only input
        random.Random(args.seed).shuffle(initiators)

    stamps: list[float] = []
    counter = session.counter
    begin_inc = counter.begin_inc

    def stamped_begin_inc(pid, op_index, _stamp=stamps.append):
        _stamp(perf_counter())
        return begin_inc(pid, op_index)

    counter.begin_inc = stamped_begin_inc
    cpu0 = process_time()
    began = perf_counter()
    result = session.run_sequence(initiators, check_values=False)
    ended = perf_counter()
    cpu_s = process_time() - cpu0

    values = result.values()
    if args.corrupt and len(values) > 1:
        values[1] = values[0]
    violations = check_sequential(values, n)
    transport = session.transport_stats()
    dropped = session.network.trace.fault_counts().get("drop", 0)
    if transport.get("gave_up"):
        violations.append(f"transport gave up on {transport['gave_up']}")
    stamps.append(ended)
    latencies = [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]
    completed = len(values)
    counts = {
        "messages": result.total_messages,
        "bottleneck": result.bottleneck_load(),
        "events": session.network.events_executed,
        "dropped": dropped,
        **{f"transport.{k}": v for k, v in transport.items()},
    }
    out = {
        "setup_s": setup_s,
        "ops": completed,
        "measure_s": ended - began,
        "attempted": n,
        "failed": wrong_sequential(values, n),
        "latencies_ms": latencies,
        "msgs_per_op": result.average_messages_per_op(),
        "bottleneck_load": result.bottleneck_load(),
        "counts": counts,
        "violations": violations,
    }
    if probe is not None:
        out["layers"] = probe.metrics(
            sessions=[session],
            ops=completed,
            window=(began, ended),
            setup_s=setup_s,
            cpu_us_per_op=cpu_s / completed * 1e6 if completed else 0.0,
            transport=transport,
            dropped=dropped,
        )
        out["self_s"] = probe.self_times((began, ended))
        probe.tracer.dump(args.dump + ".jsonl")
    out["peak_rss_mb"] = peak_rss_mb()
    return out


# ----------------------------------------------------------------------
# keyed-inproc: the keyed service core, no sockets
# ----------------------------------------------------------------------
async def keyed_inproc_cycle(args: argparse.Namespace) -> dict:
    from repro.serve import KeyedCounterService

    probe = _probe(args.trace)
    service = KeyedCounterService("central", 4, shards=4, batch_max=32)
    await service.start()
    setup_s = time.monotonic() - args.t0
    # fill the request-id ledger before timing: the window measures the
    # steady state, in which every new rid evicts an old one
    warm_ops = service.config.dedup_capacity + CALLERS
    keys = KeyStream(args.seed)
    returned: dict[str, list[int]] = defaultdict(list)
    latencies: list[float] = []
    finished: list[float] = []
    errors: list[str] = []
    state = {"attempted": 0, "completed": 0}
    window = {"start": None, "end": None, "stop": False}
    warmed = asyncio.Event()

    async def caller() -> None:
        while not window["stop"]:
            key = keys.next()
            rid = f"{args.seed}.{state['attempted']}"
            state["attempted"] += 1
            began = perf_counter()
            try:
                value = await service.inc(key, rid=rid)
            except Exception as exc:  # counted as a failed op
                errors.append(f"{type(exc).__name__}: {exc}")
                continue
            done = perf_counter()
            returned[key].append(value)
            state["completed"] += 1
            if state["completed"] >= warm_ops:
                warmed.set()
            start = window["start"]
            if start is not None and window["end"] is None and done >= start:
                finished.append(done)
                if began >= start:
                    latencies.append((done - began) * 1e3)

    tasks = [asyncio.create_task(caller()) for _ in range(CALLERS)]
    try:
        await warmed.wait()
        warm_rss_mb = peak_rss_mb()
        cpu0 = process_time()
        window["start"] = perf_counter()
        await asyncio.sleep(args.slice)
        window["end"] = perf_counter()
        cpu_s = process_time() - cpu0
    finally:
        window["stop"] = True
        await asyncio.gather(*tasks)
    measure_s = window["end"] - window["start"]
    ops = len(finished)

    if args.corrupt:
        _duplicate_one(returned)
    shards = service.map.shards()
    final = {key: service.map.value_of(key) for key in returned}
    violations = check_keyed(returned, final) + errors[:3]
    served = service.served
    messages = sum(s.session.network.trace.total_messages for s in shards)
    busiest = max(s.session.network.trace.bottleneck()[1] for s in shards)
    out = {
        "setup_s": setup_s,
        "ops": ops,
        "measure_s": measure_s,
        "attempted": state["attempted"],
        "failed": len(errors) + wrong_keyed(returned),
        "latencies_ms": latencies,
        "msgs_per_op": messages / served,
        "bottleneck_load": busiest * 1000.0 / served,
        "violations": violations,
    }
    if probe is not None:
        out["layers"] = probe.metrics(
            sessions=[s.session for s in shards],
            ops=ops,
            window=(window["start"], window["end"]),
            setup_s=setup_s,
            cpu_us_per_op=cpu_s / ops * 1e6 if ops else 0.0,
            shard_ops=[s.local_ops for s in shards],
        )
        out["self_s"] = probe.self_times((window["start"], window["end"]))
        probe.tracer.dump(args.dump + ".jsonl")
    await service.stop()
    out["peak_rss_mb"] = warm_rss_mb
    return out


def _duplicate_one(returned: dict[str, list[int]]) -> None:
    """Self-test hook: hand one key's first value out twice."""
    for values in returned.values():
        if len(values) > 1:
            values[1] = values[0]
            return


# ----------------------------------------------------------------------
# keyed-tcp: `repro serve` in its own process, driven over loopback
# ----------------------------------------------------------------------
class _Conn:
    """One loopback connection with at most one request in flight."""

    def __init__(self, address: str) -> None:
        host, port = address.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.request: tuple | None = None  # (key, is_read, low, began)

    def send(self, line: str) -> None:
        self.sock.sendall(line.encode("ascii") + b"\n")

    def read_line(self) -> str | None:
        """A complete reply line from the buffer, else ``None``."""
        line, newline, rest = self.buffer.partition(b"\n")
        if not newline:
            return None
        self.buffer = rest
        return line.decode("ascii")

    def fill(self) -> None:
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buffer += data

    def ask(self, line: str) -> str:
        """Blocking request/reply (outside the measured window)."""
        self.send(line)
        while (reply := self.read_line()) is None:
            self.fill()
        return reply


def _stats_value(reply: str) -> int | None:
    """``STATS key=K value=V shard=S`` -> V (None on any other reply)."""
    fields = dict(
        part.split("=", 1) for part in reply.split()[1:] if "=" in part
    )
    if not reply.startswith("STATS ") or "value" not in fields:
        return None
    return int(fields["value"])


def _drive_tcp(args, server, address: str, t0: float) -> dict:
    """Closed loops on :data:`CONNECTIONS` connections from one thread.

    The client is a bare selector loop, cheap next to the server, so the
    figures are set by the server whether the kernel runs the two
    processes in parallel or on one CPU.
    """
    conns = [_Conn(address) for _ in range(CONNECTIONS)]
    setup_s = time.monotonic() - t0
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)

    keys = KeyStream(args.seed)
    returned: dict[str, list[int]] = defaultdict(list)
    sent: dict[str, int] = defaultdict(int)
    acked: dict[str, int] = defaultdict(int)
    latencies: list[float] = []
    inc_latencies: list[float] = []
    errors: list[str] = []
    requests = completed = ops = 0
    start = end = None
    warm_rss_mb = cpu0 = 0.0

    def send_next(conn: _Conn) -> None:
        nonlocal requests
        key = keys.next()
        is_read = keys.chance() < READ_SHARE
        requests += 1
        if is_read:
            conn.request = (key, True, acked[key], perf_counter())
            conn.send(f"STATS {key}")
        else:
            sent[key] += 1
            conn.request = (key, False, 0, perf_counter())
            conn.send(f"INC {key}")

    for conn in conns:
        send_next(conn)
    while end is None or any(conn.request for conn in conns):
        for selected, _ in selector.select():
            conn = selected.data
            conn.fill()
            while (reply := conn.read_line()) is not None:
                done = perf_counter()
                key, is_read, low, began = conn.request
                conn.request = None
                if is_read:
                    value = _stats_value(reply)
                    good = value is not None and low <= value <= sent[key]
                else:
                    good = reply.startswith("OK ")
                    if good:
                        returned[key].append(int(reply[3:]))
                        acked[key] += 1
                if not good:
                    errors.append(f"{key}: {reply!r}")
                completed += 1
                if start is not None and end is None and good:
                    ops += 1
                    if began >= start:
                        latencies.append((done - began) * 1e3)
                        if not is_read:
                            inc_latencies.append((done - began) * 1e3)
                if start is None and completed >= TCP_WARM_OPS:
                    warm_rss_mb = _server_rss_mb(server)
                    cpu0 = process_time()
                    start = perf_counter()
                elif start is not None and end is None:
                    if done - start >= args.slice:
                        end = done
                        client_cpu_s = process_time() - cpu0
                if end is None:
                    send_next(conn)
    selector.close()
    measure_s = end - start

    conn = conns[0]
    final = {key: _stats_value(conn.ask(f"STATS {key}")) for key in returned}
    summary = dict(
        part.split("=", 1) for part in conn.ask("STATS").split()[1:]
    )
    if args.corrupt:
        _duplicate_one(returned)
    conn.ask("SHUTDOWN")
    server.stdin.write(f"window {start!r} {end!r} {ops}\n")
    server.stdin.close()  # the launcher reports once its stdin ends
    for each in conns:
        each.sock.close()
    return {
        "setup_s": setup_s,
        "ops": ops,
        "measure_s": measure_s,
        "attempted": requests,
        "failed": len(errors) + wrong_keyed(returned),
        "latencies_ms": latencies,
        "inc_p50_ms": percentile(inc_latencies, 0.50),
        "msgs_per_op": int(summary["messages"]) / int(summary["served"]),
        "violations": check_keyed(returned, final) + errors[:3],
        # every request the server answered, the final checks included
        "requests": requests + len(returned) + 1,
        "client_cpu_us_per_op": client_cpu_s / ops * 1e6 if ops else 0.0,
        "peak_rss_mb": warm_rss_mb,
    }


def _server_rss_mb(server: subprocess.Popen) -> float:
    """Ask the launcher for the server's peak RSS so far."""
    server.stdin.write("rss\n")
    server.stdin.flush()
    return json.loads(server.stdout.readline())["peak_rss_mb"]


def keyed_tcp_cycle(args: argparse.Namespace) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    t0 = time.monotonic()
    command = [
        sys.executable, os.path.join(HERE, "launcher.py"),
        "--trace", str(int(args.trace)), "--t0", repr(t0),
        "--dump", args.dump + "-server.jsonl",
        "serve", "central", "--n", "4", "--shards", "4",
    ]
    server = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env,
        text=True,
    )
    try:
        announce = server.stdout.readline().split()
        if not announce or announce[0] != "SERVING":
            raise RuntimeError(f"server did not start: {announce!r}")
        out = _drive_tcp(args, server, announce[-1], t0)
        report = json.loads(server.stdout.read().strip().splitlines()[-1])
        server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()
        if not server.stdin.closed:
            server.stdin.close()
    served = report["served"]
    out["bottleneck_load"] = report["bottleneck"] * 1000.0 / served
    if args.trace:
        layers = report["layers"]
        layers["server.cpu_us_per_op"] = (
            report["cpu_s"] / out["requests"] * 1e6
        )
        layers["client.cpu_us_per_op"] = out["client_cpu_us_per_op"]
        layers["tcp.overhead_ms_p50"] = (
            out["inc_p50_ms"] - layers["serve.server_inc_ms_p50"]
        )
        layers["registry.setup_share"] = (
            layers["registry.build_s"] / out["setup_s"]
        )
        out["layers"] = layers
        out["self_s"] = report["self_s"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "workload", choices=["sim-tree", "sim-lossy", "keyed-inproc",
                             "keyed-tcp"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--slice", type=float, required=True,
                        help="seconds a keyed workload measures")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the cycle was launched")
    parser.add_argument("--dump", required=True,
                        help="path prefix for the span dump (traced runs)")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: duplicate one returned value")
    args = parser.parse_args(argv)
    if args.workload.startswith("sim-"):
        out = sim_cycle(args)
    elif args.workload == "keyed-inproc":
        out = asyncio.run(keyed_inproc_cycle(args))
    else:
        out = keyed_tcp_cycle(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
