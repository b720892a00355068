"""The discrete-event core: timestamped events and a deterministic queue.

The simulator is a classic discrete-event loop.  Two facts matter for
reproducibility:

* ties in time are broken by scheduling order (FIFO), so two runs with
  the same seed execute events in exactly the same order;
* events carry plain callables, so the queue knows nothing about messages —
  message semantics live entirely in :mod:`repro.sim.network`.

:class:`EventQueue` is a bucket (calendar) queue keyed by timestamp:
entries live in per-timestamp buckets (plain lists), and a heap orders
only the *distinct* pending timestamps.  Within a bucket, append order
is scheduling order, and buckets drain in time order, so the total
order is exactly ``(time, scheduling order)``.
The network's delivery handler is *bound* to the queue, so a message
rides bare in its bucket — no per-event tuple or closure; every other
entry is wrapped in a 2-slot :class:`_Local`.

A :class:`SchedulerHook` may be installed to take over tie-breaking:
whenever more than one entry shares the current timestamp, the hook
chooses which one runs next instead of the default FIFO order.  Clean
runs pay one ``is None`` check per drain batch (the network's fused
loops) or per event (single steps); :meth:`EventQueue.clear` drops any
installed hook so a reused queue cannot leak one exploration's
tie-break state into the next.  :class:`Event` is the public view type
returned by :meth:`EventQueue.schedule` and :meth:`EventQueue.pop`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

_NO_ARG = object()
"""Sentinel marking an entry whose action takes no argument."""


class SchedulerHook:
    """Tie-break arbiter for equal-time events (duck-typed interface).

    Install one with :meth:`EventQueue.install_hook`.  Whenever two or
    more pending entries share the current timestamp, the queue calls
    :meth:`choose` with the ready list — ``(time, seq, action, arg)``
    tuples in scheduling order, the order the default scheduler would
    have used — and runs the entry at the returned index.  ``seq`` is
    the entry's position in its time bucket (monotone in scheduling
    order).  Message deliveries carry the
    :class:`~repro.sim.messages.Message` in the ``arg`` slot, so a hook
    can make informed choices; plain callbacks carry a private sentinel
    there and should be treated as opaque.

    ``choose`` must return an index in ``range(len(ready))``; anything
    else raises ``IndexError`` at pop time.  Hooks see only *ordering*
    freedom the event model already allows, so any hook produces a
    legal execution.
    """

    def choose(self, ready: list[tuple[float, int, Callable[..., None], Any]]) -> int:
        raise NotImplementedError


@dataclass(order=True, slots=True)
class Event:
    """A callback scheduled at a simulated time.

    Ordering is ``(time, seq)``: earlier times first, FIFO among equal
    times.  The callback is excluded from comparisons.
    """

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class _Local:
    """Bucket entry for a generically scheduled action (non-bound path).

    The queue stores the bound action's arguments *bare* in its buckets;
    every other entry is wrapped in one of these so the drain loop can
    tell the two apart with a single ``type(item) is _Local`` check.
    """

    __slots__ = ("action", "arg")

    def __init__(self, action: Callable[..., None], arg: Any) -> None:
        self.action = action
        self.arg = arg


def _bind(action: Callable[[Any], None], arg: Any) -> Callable[[], None]:
    """Adapt an argument-carrying entry to the no-argument Event view."""

    def call() -> None:
        action(arg)

    return call


class EventQueue:
    """A deterministic bucket queue of scheduled actions.

    The queue also tracks the current simulated time: executing an entry
    advances ``now`` to its timestamp.  Scheduling into the past is a
    programming error and raises ``ValueError``.

    A bucket leaves the registry when it becomes *active* (its time is
    now) and is consumed behind a cursor (``_active_pos``).  Same-time
    entries scheduled while it drains open a fresh bucket at the same
    time, which runs right after it — FIFO by construction.  A hooked
    pop folds that fresh bucket into the active one first, so the hook
    sees every entry sharing the current time.

    Two scheduling paths exist:

    * :meth:`bind` registers one *bound action* (the network's delivery
      handler); :meth:`schedule_call` for that action stores its
      argument bare — zero per-event allocation;
    * every other entry is wrapped in a 2-slot :class:`_Local`.

    The :class:`Event` objects returned by :meth:`schedule` /
    :meth:`pop` carry a synthetic (monotone, queue-local) ``seq``.
    """

    __slots__ = (
        "_buckets",
        "_times",
        "_active",
        "_active_pos",
        "_now",
        "_len",
        "_bound",
        "_seq",
        "_hook",
    )

    def __init__(self) -> None:
        self._buckets: dict[float, list[Any]] = {}
        self._times: list[float] = []
        self._active: list[Any] | tuple = ()
        self._active_pos = 0
        self._now = 0.0
        self._len = 0
        self._bound: Callable[[Any], None] | None = None
        self._seq = 0
        self._hook: SchedulerHook | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (time of the last executed entry)."""
        return self._now

    @property
    def scheduler_hook(self) -> SchedulerHook | None:
        """The installed tie-break hook, or ``None`` (default FIFO)."""
        return self._hook

    def install_hook(self, hook: SchedulerHook | None) -> None:
        """Install (or with ``None`` remove) a tie-break arbiter.

        While installed, every pop that finds several entries sharing
        the current time asks ``hook.choose(ready)`` which runs first.
        The hook is dropped by :meth:`clear` — a reused queue always
        starts with default FIFO tie-breaking.
        """
        self._hook = hook

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def bind(self, action: Callable[[Any], None]) -> None:
        """Register the one *bound action* whose arguments ride bare."""
        self._bound = action

    def _append_at(self, time: float, item: Any) -> None:
        """Append *item* to the bucket at absolute *time*.

        The network inlines this on its send paths; keep them in sync.
        """
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [item]
            heapq.heappush(self._times, time)
        else:
            bucket.append(item)
        self._len += 1

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule *action* to run *delay* time units from now.

        Returns the scheduled :class:`Event` (useful in tests).  A zero
        delay is allowed and preserves scheduling order among same-time
        events.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        self._append_at(time, _Local(action, _NO_ARG))
        seq = self._seq
        self._seq = seq + 1
        return Event(time=time, seq=seq, action=action)

    def schedule_call(
        self, delay: float, action: Callable[[Any], None], arg: Any
    ) -> None:
        """Schedule ``action(arg)`` without wrapping a closure.

        Stores *arg* bare if *action* is the bound action, else wraps a
        :class:`_Local` (with ``_NO_ARG`` as *arg*, *action* is called
        without one).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        if action is not self._bound:
            arg = _Local(action, arg)
        self._append_at(self._now + delay, arg)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _next_item(self) -> Any:
        """Consume and return the next item, advancing ``now``.

        Raises ``IndexError`` on an empty queue (like ``heappop``).
        With a hook installed, same-time entries scheduled since the
        active bucket opened are folded into it, and if more than one
        item is then unconsumed the hook picks (see :meth:`_choose`).
        """
        bucket = self._active
        pos = self._active_pos
        if pos >= len(bucket):
            time = heapq.heappop(self._times)
            bucket = self._active = self._buckets.pop(time)
            self._now = time
            pos = self._active_pos = 0
        if self._hook is not None:
            later = self._buckets.pop(self._now, None)
            if later is not None:
                # Every pending time is >= now, so now is the heap's top.
                heapq.heappop(self._times)
                bucket.extend(later)
            if len(bucket) - pos > 1:
                item = self._choose(bucket, pos)
                self._len -= 1
                return item
        self._active_pos = pos + 1
        self._len -= 1
        return bucket[pos]

    def _choose(self, bucket: list[Any], pos: int) -> Any:
        """Let the hook pick among the active bucket's unconsumed items.

        The chosen item is removed from the bucket; the others keep
        their relative (scheduling) order and stay unconsumed.
        """
        now = self._now
        bound = self._bound
        ready = [
            (now, seq, item.action, item.arg)
            if type(item) is _Local
            else (now, seq, bound, item)
            for seq, item in enumerate(bucket[pos:], pos)
        ]
        index = self._hook.choose(ready)
        if not 0 <= index < len(ready):
            raise IndexError(
                f"scheduler hook chose {index!r} from {len(ready)} ready entries"
            )
        return bucket.pop(pos + index)

    def _execute(self, item: Any) -> None:
        if type(item) is _Local:
            action = item.action
            arg = item.arg
            if arg is _NO_ARG:
                action()
            else:
                action(arg)
        else:
            self._bound(item)

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing ``now``."""
        item = self._next_item()
        seq = self._seq
        self._seq = seq + 1
        if type(item) is _Local:
            action = item.action
            if item.arg is not _NO_ARG:
                action = _bind(action, item.arg)
        else:
            action = _bind(self._bound, item)
        return Event(time=self._now, seq=seq, action=action)

    def run_next(self) -> None:
        """Pop the earliest event and execute its action."""
        self._execute(self._next_item())

    def run_many(self, limit: int) -> int:
        """Execute up to *limit* events; return how many ran.

        This is the generic drain loop (and the one hooked runs use);
        the network inlines a fused version per trace level for clean
        runs (see :meth:`repro.sim.network.Network.run_until_quiescent`).
        """
        ran = 0
        next_item = self._next_item
        execute = self._execute
        while self._len and ran < limit:
            execute(next_item())
            ran += 1
        return ran

    def next_time(self) -> float | None:
        """Timestamp of the earliest pending entry, or ``None`` if empty.

        A read-only peek — nothing is consumed and ``now`` does not
        move.  The synchronous runtime uses this to delimit lockstep
        rounds.  An active bucket with unconsumed items answers the
        current time (zero-delay schedules land in it and run this
        pass); otherwise the earliest registered bucket time wins.
        """
        if self._active_pos < len(self._active):
            return self._now
        if self._times:
            return self._times[0]
        return None

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop all pending events and reset to the initial state.

        Simulated time returns to zero and any installed
        :class:`SchedulerHook` is removed, so a cleared queue is
        indistinguishable from a fresh one — a cleared-then-reused queue
        must not report the stale time of a schedule it abandoned nor
        replay a previous exploration's tie-break choices.  Clears in
        place — the bucket dict and time heap keep their identities, so
        peers that aliased them stay wired.  The bound action survives
        (it is construction-time wiring, not run state).
        """
        self._buckets.clear()
        self._times.clear()
        self._active = ()
        self._active_pos = 0
        self._now = 0.0
        self._len = 0
        self._seq = 0
        self._hook = None
