"""E0 (infrastructure): simulator throughput micro-benchmarks.

Not a paper claim — the measurement instrument itself.  These keep the
substrate's performance visible so the experiment sweeps stay cheap:
event-queue ops, message round-trips, and a full k=3 one-shot workload
per invocation.  The micro-benchmark bodies come from :mod:`repro.bench`,
which ``python -m repro bench`` times with the same code.
"""

from __future__ import annotations

from repro.bench import event_queue_churn, message_blast, session_build, spec_resolution
from repro.registry import parse_spec
from repro.sim.network import Network
from repro.sim.trace import TraceLevel
from repro.workloads import one_shot, run_sequence


def test_event_queue_throughput(benchmark):
    """Schedule + pop 1000 events."""
    benchmark(event_queue_churn())


def test_message_throughput(benchmark):
    """Deliver 1000 point-to-point messages under FULL tracing."""
    benchmark(message_blast(TraceLevel.FULL))


def test_message_throughput_loads(benchmark):
    """Deliver 1000 point-to-point messages under LOADS tracing."""
    benchmark(message_blast(TraceLevel.LOADS))


def test_message_throughput_off(benchmark):
    """Deliver 1000 point-to-point messages with tracing OFF."""
    benchmark(message_blast(TraceLevel.OFF))


def test_central_counter_oneshot(benchmark):
    """Full n=256 one-shot workload on the central counter."""
    ref = parse_spec("central")

    def run():
        network = Network()
        counter = ref.build(network, 256)
        run_sequence(counter, one_shot(256))

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_tree_counter_oneshot(benchmark):
    """Full k=3 (n=81) one-shot workload on the paper's counter."""
    ref = parse_spec("ww-tree")

    def run():
        network = Network()
        counter = ref.build(network, 81)
        run_sequence(counter, one_shot(81))

    benchmark.pedantic(run, rounds=5, iterations=1)


def test_registry_spec_resolution(benchmark):
    """Parse + canonicalize every registered spec (the sweep hot path)."""
    benchmark(spec_resolution())


def test_registry_session_construction(benchmark):
    """RunSession assembly (policy + network + counter) for the ww-tree."""
    benchmark(session_build())
