"""Per-layer instrumentation of the counter stack, from the outside.

:class:`LayerProbe` wraps the public entry points a request crosses —
``CounterRef.build`` (registry), ``RunSession.run_sequence`` (driver),
``SimulatedRuntime.until_quiescent`` / ``AsyncioRuntime.drain``
(runtime and event core), ``CounterShardMap.begin_batch`` /
``settle_batch`` (shard combining), ``DedupTable.create`` / ``commit``
(request-id ledger) and ``KeyedCounterService.inc`` (service) — and
turns the recorded spans plus end-of-run counts into the per-layer
metrics listed in :data:`PER_LAYER`.  A layer a workload bypasses
reads 0 (``transport.useful_ratio`` reads 1: nothing was resent).
"""

from __future__ import annotations

import resource
from collections import defaultdict, deque
from typing import Any

from tracing import BUSY, END, NAME, START, Tracer, self_times_of

PER_LAYER: dict[str, str] = {
    "registry.build_s": "s",
    "registry.processors_built": "count",
    "registry.setup_share": "ratio",
    "sim.events": "count",
    "sim.drain_s": "s",
    "sim.events_per_s": "1/s",
    "sim.trace_records_per_op": "records",
    "driver.self_s": "s",
    "transport.retransmits_per_op": "msgs",
    "transport.duplicates_per_op": "msgs",
    "transport.useful_ratio": "ratio",
    "faults.dropped": "count",
    "shard.batches": "count",
    "shard.ops_per_batch": "ops",
    "shard.max_load_share": "ratio",
    "shard.begin_batch_us": "us",
    "shard.settle_batch_us": "us",
    "runtime.drain_us_per_batch": "us",
    "runtime.events_per_batch": "count",
    "dedup.create_us_p50": "us",
    "dedup.create_us_p99": "us",
    "dedup.entries": "count",
    "dedup.self_share": "ratio",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p99": "ms",
    "serve.reply_ms_p50": "ms",
    "serve.server_inc_ms_p50": "ms",
    "tcp.overhead_ms_p50": "ms",
    "server.cpu_us_per_op": "us",
    "client.cpu_us_per_op": "us",
    "traced_ops_per_s": "ops/s",
}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class LayerProbe:
    """Install span wrappers and link spans of one request across tasks.

    Keyed increments are matched to their batch per key in FIFO order:
    a key lives on one shard and each shard queue is FIFO, so the k-th
    ``inc`` of a key is the k-th op of that key to enter a batch.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        # (time, value) samples recorded at layer boundaries
        self.drained: list[tuple[float, int]] = []
        self.batch_sizes: list[tuple[float, int]] = []
        self.queue_waits: list[tuple[float, float]] = []
        self.replies: list[tuple[float, float]] = []
        self.dedup_tables: dict[int, Any] = {}
        self._queued: dict[str, deque[float]] = defaultdict(deque)
        self._settled: dict[str, deque[float]] = defaultdict(deque)

    def install(self) -> None:
        from repro.registry import CounterRef, RunSession
        from repro.runtime import AsyncioRuntime, SimulatedRuntime
        from repro.serve.keyed import KeyedCounterService
        from repro.serve.resilience import DedupTable
        from repro.shard import CounterShardMap

        wrap = self.tracer.wrap
        wrap(CounterRef, "build", "registry.build")
        wrap(RunSession, "run_sequence", "driver.run_sequence")
        wrap(SimulatedRuntime, "until_quiescent", "runtime.drain",
             on_exit=self._drained)
        wrap(AsyncioRuntime, "drain", "runtime.drain", on_exit=self._drained)
        wrap(CounterShardMap, "begin_batch", "shard.begin_batch",
             on_enter=self._batch_begun)
        wrap(CounterShardMap, "settle_batch", "shard.settle_batch",
             on_exit=self._batch_settled)
        wrap(DedupTable, "create", "dedup.create", on_enter=self._dedup_seen)
        wrap(DedupTable, "commit", "dedup.commit")
        wrap(KeyedCounterService, "inc", "serve.inc",
             on_enter=self._inc_entered, on_exit=self._inc_returned)

    # -- cross-task links ------------------------------------------------
    def _drained(self, args, kwargs, result, end) -> None:
        self.drained.append((end, result or 0))

    def _inc_entered(self, args, kwargs, start) -> None:
        self._queued[args[1]].append(start)

    def _batch_begun(self, args, kwargs, start) -> None:
        for key, _rid in args[2]:
            queued = self._queued[key]
            if queued:
                self.queue_waits.append((start, start - queued.popleft()))

    def _batch_settled(self, args, kwargs, result, end) -> None:
        ops = args[1].ops
        self.batch_sizes.append((end, len(ops)))
        for op in ops:
            self._settled[op.key].append(end)

    def _inc_returned(self, args, kwargs, result, end) -> None:
        settled = self._settled[args[1]]
        if settled:
            self.replies.append((end, end - settled.popleft()))

    def _dedup_seen(self, args, kwargs, start) -> None:
        self.dedup_tables[id(args[0])] = args[0]

    # -- the ledger ------------------------------------------------------
    def metrics(
        self,
        *,
        sessions: list[Any],
        ops: int,
        window: tuple[float, float],
        setup_s: float,
        cpu_us_per_op: float,
        transport: dict[str, int] | None = None,
        dropped: int = 0,
        shard_ops: list[int] | None = None,
    ) -> dict[str, float]:
        """Per-layer metrics for the measured *window* of one traced cycle.

        *window* is the ``perf_counter`` interval in which *ops* ops
        completed; rates and latencies count only spans inside it (the
        registry build is set-up and counts whole).  *sessions* are the
        ``RunSession`` objects the program built; *cpu_us_per_op* is the
        CPU the program's process spent per op; *shard_ops* the ops each
        shard settled over the cycle (keyed workloads).
        """
        begin, finish = window
        spans = [
            s for s in self.tracer.spans
            if s[START] >= begin and s[END] <= finish
        ]

        def inside(samples: list[tuple[float, float]]) -> list[float]:
            return [v for t, v in samples if begin <= t <= finish]

        def busy(name: str, source: list[tuple] = spans) -> list[float]:
            return [s[BUSY] for s in source if s[NAME] == name]

        per_op = 1.0 / ops if ops else 0.0
        self_times = self_times_of(spans)
        total_self = sum(self_times.values()) or 1.0
        build_s = sum(busy("registry.build", self.tracer.spans))
        drains = busy("runtime.drain")
        drain_s = sum(drains)
        events = sum(inside(self.drained))
        sizes = inside(self.batch_sizes)
        begins = busy("shard.begin_batch")
        settles = busy("shard.settle_batch")
        creates = [b * 1e6 for b in busy("dedup.create")]
        incs = [
            (s[END] - s[START]) * 1e3 for s in spans if s[NAME] == "serve.inc"
        ]
        waits = inside(self.queue_waits)
        records = sum(
            len(s.network.trace.records)
            for s in sessions
            if s.network.trace.keeps_records
        )
        served = sum(shard_ops) if shard_ops else ops
        transport = transport or {}
        sent = transport.get("data_sent", 0) + transport.get(
            "retransmissions", 0
        )
        return {
            "registry.build_s": build_s,
            "registry.processors_built": sum(
                s.network.processor_count for s in sessions
            ),
            "registry.setup_share": build_s / setup_s if setup_s else 0.0,
            "sim.events": events,
            "sim.drain_s": drain_s,
            "sim.events_per_s": events / drain_s if drain_s else 0.0,
            "sim.trace_records_per_op": records / served if served else 0.0,
            "driver.self_s": self_times.get("driver.run_sequence", 0.0),
            "transport.retransmits_per_op":
                transport.get("retransmissions", 0) * per_op,
            "transport.duplicates_per_op":
                transport.get("duplicates_suppressed", 0) * per_op,
            "transport.useful_ratio":
                transport["delivered"] / sent if sent else 1.0,
            "faults.dropped": dropped,
            "shard.batches": len(sizes),
            "shard.ops_per_batch": sum(sizes) / len(sizes) if sizes else 0.0,
            "shard.max_load_share":
                max(shard_ops) / sum(shard_ops) if shard_ops else 0.0,
            "shard.begin_batch_us": _mean(begins) * 1e6,
            "shard.settle_batch_us": _mean(settles) * 1e6,
            "runtime.drain_us_per_batch": _mean(drains) * 1e6,
            "runtime.events_per_batch":
                events / len(drains) if drains else 0.0,
            "dedup.create_us_p50": percentile(creates, 0.50),
            "dedup.create_us_p99": percentile(creates, 0.99),
            "dedup.entries": sum(len(t) for t in self.dedup_tables.values()),
            "dedup.self_share":
                self_times.get("dedup.create", 0.0) / total_self,
            "serve.queue_wait_ms_p50": percentile(waits, 0.50) * 1e3,
            "serve.queue_wait_ms_p99": percentile(waits, 0.99) * 1e3,
            "serve.reply_ms_p50":
                percentile(inside(self.replies), 0.50) * 1e3,
            "serve.server_inc_ms_p50": percentile(incs, 0.50),
            "tcp.overhead_ms_p50": 0.0,
            "server.cpu_us_per_op": cpu_us_per_op,
            "client.cpu_us_per_op": 0.0,
            "traced_ops_per_s": ops / (finish - begin),
        }

    def self_times(self, window: tuple[float, float]) -> dict[str, float]:
        """Seconds of self time per span name inside *window*."""
        begin, finish = window
        return self_times_of(
            [s for s in self.tracer.spans
             if s[START] >= begin and s[END] <= finish]
        )


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
