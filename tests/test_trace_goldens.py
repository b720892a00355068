"""Checked-in trace fingerprints: the simulator's behaviour, frozen.

Every case below runs one deterministic execution and reduces it to a
small JSON summary — the FULL-trace :meth:`~repro.sim.trace.Trace.fingerprint`,
the values the counter returned, the number of events executed and the
final simulated time (plus the fault ledger and the explorer's recorded
decision stream where they exist).  The summaries live in
``tests/golden/trace_fingerprints.json`` and must match byte for byte:
any change to the event queue, the network's send or drain paths, the
fault layer or the explorer's hook that perturbs one delivery order
shows up here.

The cases cover every registered spec one-shot at unit delay, random
delays, concurrent batches, lossy/duplicating/reordering plans behind
the reliable transport, crash-with-recovery, every Byzantine strategy
on the event-driven and lockstep runtimes, and one seeded guided
exploration per spec family (scheduler hook installed).

To re-capture after an *intended* behaviour change, run this module as
a script (``PYTHONPATH=src python tests/test_trace_goldens.py``); it
rewrites the golden file from the current code.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.explore import ExploreConfig, Explorer, ScheduleController, parse_plan
from repro.registry import RunSession, parse_spec, registered_names
from repro.sim.faults import BYZANTINE_STRATEGIES

GOLDEN_PATH = Path(__file__).parent / "golden" / "trace_fingerprints.json"


def _n_for(spec: str) -> int:
    # quorum[maekawa] needs a perfect square.
    return 9 if spec == "quorum[maekawa]" else 8


def _digest(items: Any) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def _summary(network, values: list[int]) -> dict[str, Any]:
    summary = {
        "fingerprint": network.trace.fingerprint(),
        "values": values,
        "events_executed": network.events_executed,
        "now": repr(network.now),
    }
    if network.fault_plan is not None:
        summary["faults"] = _digest(network.trace.fault_events)
    return summary


def _workload(spec: str, workload: str = "one-shot", **kwargs) -> dict[str, Any]:
    session = RunSession(spec, _n_for(spec), trace_level="FULL", **kwargs)
    result = session.run_workload(workload)
    return _summary(session.network, list(result.values()))


def _faulty(spec: str, plan: str) -> dict[str, Any]:
    session = RunSession(
        spec, _n_for(spec), trace_level="FULL", policy="random", seed=5,
        faults=plan, reliable=True,
    )
    # Lost and duplicated requests may burn values: record, don't judge.
    result = session.run_sequence(check_values=False)
    return _summary(session.network, list(result.values()))


def _staggered(spec: str, n: int, **kwargs) -> dict[str, Any]:
    session = RunSession(spec, n, trace_level="FULL", **kwargs)
    ops = session.run_staggered(gap=4.0)
    return _summary(session.network, [op.value for op in ops])


def _byzantine(strategy: str, runtime: str) -> dict[str, Any]:
    session = RunSession(
        "byz-counter", 7, trace_level="FULL", faults=f"byz=1@{strategy}",
        seed=9, runtime=runtime,
    )
    result = session.run_sequence()
    return _summary(session.network, list(result.values()))


def _explore(counter: str, **config: Any) -> dict[str, Any]:
    """One guided episode; the network is captured as the hook attaches."""
    networks = []
    attach = ScheduleController.attach

    def recording_attach(self, network):
        networks.append(network)
        attach(self, network)

    explore_config = ExploreConfig(
        counter=counter, n=5, seed=7, strategy="guided", **config
    )
    explorer = Explorer(explore_config)
    [(strategy, _)] = parse_plan("guided", 1, explore_config.seed)
    ScheduleController.attach = recording_attach  # type: ignore[method-assign]
    try:
        outcome = explorer.run_episode(strategy, 0)
    finally:
        ScheduleController.attach = attach  # type: ignore[method-assign]
    [network] = networks
    summary = _summary(network, [])
    del summary["values"]
    summary["decisions"] = list(outcome.schedule.decisions)
    summary["kinds"] = _digest(outcome.schedule.kinds)
    summary["verdicts"] = [
        [verdict.oracle, verdict.ok, verdict.skipped] for verdict in outcome.verdicts
    ]
    return summary


def _family_representatives() -> list[str]:
    """The first registered spec of each family (``quorum[...]`` is one)."""
    seen: dict[str, str] = {}
    for spec in registered_names():
        family = spec.split("[", 1)[0]
        seen.setdefault(family, spec)
    return list(seen.values())


def _explore_config(spec: str) -> dict[str, Any]:
    if parse_spec(spec).capabilities.sequential_only:
        return {"workload": "sequential"}
    return {}


def _cases() -> dict[str, Callable[[], dict[str, Any]]]:
    cases: dict[str, Callable[[], dict[str, Any]]] = {}
    for spec in registered_names():
        cases[f"one-shot/{spec}"] = lambda spec=spec: _workload(spec)
    for spec in ("ww-tree", "combining-tree", "central"):
        cases[f"random/{spec}"] = lambda spec=spec: _workload(
            spec, policy="random", seed=11
        )
    for spec in ("combining-tree", "counting-network"):
        cases[f"concurrent/{spec}"] = lambda spec=spec: _workload(
            spec, "one-shot-concurrent"
        )
    for spec in ("ww-tree", "central[standby]", "combining-tree[bypass]"):
        for plan in ("drop=0.1", "dup=0.1", "reorder=0.2"):
            cases[f"faulty/{spec}/{plan}"] = lambda spec=spec, plan=plan: (
                _faulty(spec, plan)
            )
    cases["recover/central[standby]"] = lambda: _staggered(
        "central[standby]", 16, policy="random", seed=3, reliable=True,
        faults="crash=1@t18-t60,recover=1@t70",
    )
    cases["recover/combining-tree[bypass]"] = lambda: _staggered(
        "combining-tree[bypass]", 16, policy="random", seed=7, reliable=True,
        faults="crash=3@t20-t50,recover=3@t60",
    )
    for runtime in ("sim", "sync"):
        for strategy in BYZANTINE_STRATEGIES:
            cases[f"byzantine/{runtime}/{strategy}"] = (
                lambda strategy=strategy, runtime=runtime: _byzantine(
                    strategy, runtime
                )
            )
    for spec in _family_representatives():
        cases[f"explore/{spec}"] = lambda spec=spec: _explore(
            spec, **_explore_config(spec)
        )
    cases["explore/byz-counter/byz=1@mixed"] = lambda: _explore(
        "byz-counter", workload="sequential", faults="byz=1@mixed"
    )
    cases["explore/ww-tree/drop=0.1"] = lambda: _explore(
        "ww-tree", faults="drop=0.1", transport="reliable"
    )
    return cases


CASES = _cases()


def _golden() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def test_every_case_has_a_golden():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_matches_golden(name):
    golden = _golden()[name]
    # Round-trip through JSON so tuples and ints compare as stored.
    assert json.loads(json.dumps(CASES[name]())) == golden


def _capture() -> None:
    """Rewrite the golden file: one JSON line per case, sorted by name."""
    lines = [
        f"{json.dumps(name)}: {json.dumps(CASES[name](), sort_keys=True)}"
        for name in sorted(CASES)
    ]
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    _capture()
