"""In-memory span recorder for the benchmark's traced runs.

The benchmark records spans from its own files, by wrapping public entry
points of the program (:func:`Tracer.wrap`); nothing inside ``src/`` is
instrumented.  A span is ``(id, name, start, end, busy, parent, rid)``:

* ``start``/``end`` are ``time.perf_counter()`` readings (wall clock);
* ``busy`` is the time the span's own frames were running.  For a plain
  function it equals ``end - start``; for a coroutine it excludes the
  time the coroutine sat suspended while other tasks ran, which is what
  makes self time meaningful under asyncio;
* ``parent`` is the id of the enclosing span in the same task (or -1);
* ``rid`` is the request id shared by every span of one request: the
  ``rid=`` argument when the call carries one, else the parent's, else
  the span's own id.

Self time of a span is its ``busy`` minus the ``busy`` of its children.
Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

_CURRENT: contextvars.ContextVar[tuple[int, Any]] = contextvars.ContextVar(
    "perfbench_span", default=(-1, None)
)

# span tuple field indexes
ID, NAME, START, END, BUSY, PARENT, RID = range(7)


class _TimedCoroutine:
    """Drive *coro* step by step, adding up the time each step runs."""

    __slots__ = ("_coro", "busy")

    def __init__(self, coro: Any) -> None:
        self._coro = coro
        self.busy = 0.0

    def __await__(self):
        coro = self._coro
        value: Any = None
        error: BaseException | None = None
        while True:
            began = perf_counter()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                self.busy += perf_counter() - began
                return stop.value
            except BaseException:
                self.busy += perf_counter() - began
                raise
            self.busy += perf_counter() - began
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # forwarded into the coroutine
                value, error = None, exc


class Tracer:
    """Records spans from the entry points it wraps."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._next_id = 0

    # -- recording -------------------------------------------------------
    def _open(self, name: str, rid: Any) -> tuple[int, int, Any, Any]:
        span_id = self._next_id
        self._next_id += 1
        parent, parent_rid = _CURRENT.get()
        if rid is None:
            rid = parent_rid if parent_rid is not None else span_id
        token = _CURRENT.set((span_id, rid))
        return span_id, parent, rid, token

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        on_enter: Callable[..., None] | None = None,
        on_exit: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *on_enter(args, kwargs, start)* and *on_exit(args, kwargs,
        result, end)* are optional hooks the layer bookkeeping uses to
        link spans across tasks (for example an ``inc`` to its batch).
        """
        original = getattr(owner, attr)
        spans = self.spans
        opener = self._open

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                span_id, parent, rid, token = opener(name, kwargs.get("rid"))
                start = perf_counter()
                if on_enter is not None:
                    on_enter(args, kwargs, start)
                timed = _TimedCoroutine(original(*args, **kwargs))
                result = None
                try:
                    result = await timed
                    return result
                finally:
                    end = perf_counter()
                    _CURRENT.reset(token)
                    spans.append(
                        (span_id, name, start, end, timed.busy, parent, rid)
                    )
                    if on_exit is not None:
                        on_exit(args, kwargs, result, end)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span_id, parent, rid, token = opener(name, kwargs.get("rid"))
                start = perf_counter()
                if on_enter is not None:
                    on_enter(args, kwargs, start)
                result = None
                try:
                    result = original(*args, **kwargs)
                    return result
                finally:
                    end = perf_counter()
                    _CURRENT.reset(token)
                    spans.append(
                        (span_id, name, start, end, end - start, parent, rid)
                    )
                    if on_exit is not None:
                        on_exit(args, kwargs, result, end)

        setattr(owner, attr, wrapper)

    # -- output ----------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one span per line)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")


def self_times_of(spans: list[tuple]) -> dict[str, float]:
    """Seconds of self time per span name: each span's busy time minus
    the busy time of its children among *spans*."""
    child_busy: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] >= 0:
            child_busy[span[PARENT]] += span[BUSY]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[NAME]] += span[BUSY] - child_busy.get(span[ID], 0.0)
    return dict(totals)
