"""Exactness checks applied to every benchmark run.

Each check returns a list of violation strings (empty when the outputs
are exact) and never raises on bad data, so a run can count its wrong
answers toward ``failed`` and still report.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def check_sequential(values: Sequence[int], n: int) -> list[str]:
    """A sequential one-shot run of *n* incs must return exactly 0..n-1,
    the i-th operation receiving value i."""
    problems = []
    if len(values) != n:
        problems.append(f"{len(values)} results for {n} operations")
    wrong = sum(1 for index, value in enumerate(values) if value != index)
    if wrong:
        problems.append(f"{wrong} operations did not receive their index")
    return problems


def wrong_sequential(values: Sequence[int], n: int) -> int:
    """Operations of a sequential run that are missing or got a wrong value."""
    present = sum(1 for index, value in enumerate(values) if value == index)
    return n - present


def check_keyed(
    returned: Mapping[str, Sequence[int]], final: Mapping[str, int]
) -> list[str]:
    """Per key, the values handed out must be a permutation of
    ``0..count-1`` and the key's final value must equal that count."""
    problems = []
    for key, values in returned.items():
        count = len(values)
        if sorted(values) != list(range(count)):
            problems.append(
                f"key {key}: values are not a permutation of 0..{count - 1}"
            )
        if final.get(key) != count:
            problems.append(
                f"key {key}: final value {final.get(key)} != {count} incs"
            )
    return problems


def wrong_keyed(returned: Mapping[str, Sequence[int]]) -> int:
    """Answers that duplicate a value or fall outside ``0..count-1``."""
    wrong = 0
    for values in returned.values():
        count = len(values)
        wrong += count - len({v for v in values if 0 <= v < count})
    return wrong
