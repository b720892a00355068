"""Property-based check of the bucket ``EventQueue`` against a heapq model.

Hypothesis drives the queue and a small heapq reference model
(:class:`_ReferenceQueue`, ordered by ``(time, seq)``) through identical
random command sequences — ``schedule``, ``schedule_call``, absolute-time
appends (the network's faulty send path), ``run_next``, ``pop``,
``run_many``, ``clear``, and installing a scripted tie-break hook — and
asserts that the bucket queue observes exactly the same execution order,
clock trajectory and hook consultations (same ready lists, same length
and order) as the model.

The queue API has no cancellation primitive (events, once scheduled,
always run or are discarded wholesale by ``clear``), so there is no
cancel command to model here; if cancellation is ever added it must be
covered by this suite.
"""

from __future__ import annotations

from heapq import heappop, heappush

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import _NO_ARG, EventQueue


class _ReferenceQueue:
    """The heapq model: one ``(time, seq, action, arg)`` entry per event;
    a hook picks among every entry sharing the minimum time."""

    def __init__(self):
        self._heap, self._seq, self.now, self._hook = [], 0, 0.0, None

    def __len__(self):
        return len(self._heap)

    def bind(self, action):
        self._bound = action

    def install_hook(self, hook):
        self._hook = hook

    def _push(self, time, action, arg):
        heappush(self._heap, (time, self._seq, action, arg))
        self._seq += 1

    def schedule(self, delay, action):
        self._push(self.now + delay, action, _NO_ARG)

    def schedule_call(self, delay, action, arg):
        self._push(self.now + delay, action, arg)

    def _append_at(self, time, arg):
        self._push(time, self._bound, arg)

    def _pop(self):
        ready = [heappop(self._heap)]
        while self._heap and self._heap[0][0] == ready[0][0]:
            ready.append(heappop(self._heap))
        self.now = ready[0][0]  # the clock reads the frontier time
        index = self._hook.choose(ready) if self._hook and len(ready) > 1 else 0
        entry = ready.pop(index)
        for other in ready:
            heappush(self._heap, other)
        return entry

    def run_next(self):
        _, _, action, arg = self._pop()
        action() if arg is _NO_ARG else action(arg)

    def pop_action(self):
        _, _, action, arg = self._pop()
        return action if arg is _NO_ARG else (lambda: action(arg))

    def run_many(self, limit):
        ran = 0
        while self._heap and ran < limit:
            self.run_next()
            ran += 1
        return ran

    def clear(self):
        self._heap, self._seq, self.now, self._hook = [], 0, 0.0, None


# Small delay palette with repeats so buckets collide often — the
# interesting regime for the bucket queue is many events per tick.
DELAYS = st.sampled_from((0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0))

COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), DELAYS, st.integers(0, 7)),
        st.tuples(st.just("schedule_call"), DELAYS, st.integers(0, 7)),
        st.tuples(st.just("append_at"), DELAYS, st.integers(0, 7)),
        st.tuples(st.just("run_next"), st.just(None), st.just(None)),
        st.tuples(st.just("pop"), st.just(None), st.just(None)),
        st.tuples(st.just("run_many"), st.integers(1, 6), st.just(None)),
        st.tuples(st.just("clear"), st.just(None), st.just(None)),
        st.tuples(
            st.just("hook"),
            st.none() | st.lists(st.integers(0, 9), min_size=1, max_size=5),
            st.just(None),
        ),
    ),
    min_size=1,
    max_size=60,
)


class _Plain:
    """A no-argument action that knows its tag (so hooks can log it)."""

    def __init__(self, log, tag):
        self.log, self.tag = log, tag

    def __call__(self):
        self.log.entries.append(("plain", self.tag, self.log.queue.now))


class _ScriptedHook:
    """Answers tie-breaks from a fixed index script, logging each query."""

    def __init__(self, log, script):
        self.log, self.script, self.calls = log, script, 0

    def choose(self, ready):
        self.log.entries.append(
            (
                "choose",
                tuple(
                    (time, "plain", action.tag) if arg is _NO_ARG
                    else (time, "fire", arg)
                    for time, _, action, arg in ready
                ),
                self.log.queue.now,
            )
        )
        index = self.script[self.calls % len(self.script)] % len(ready)
        self.calls += 1
        return index


class _Log:
    """Records every execution with the clock reading at fire time."""

    def __init__(self, queue):
        self.queue = queue
        self.entries: list[tuple] = []
        # Exercise the bare-arg path for the bound action.
        queue.bind(self.fire)

    def fire(self, tag):
        self.entries.append(("fire", tag, self.queue.now))


def _apply(commands, queue, log):
    for name, first, second in commands:
        if name == "schedule":
            queue.schedule(first, _Plain(log, second))
        elif name == "schedule_call":
            queue.schedule_call(first, log.fire, second)
        elif name == "append_at":
            queue._append_at(queue.now + first, second)
        elif name == "run_next":
            if len(queue):
                queue.run_next()
        elif name == "pop":
            if len(queue):
                if isinstance(queue, EventQueue):
                    event = queue.pop()
                    action = event.action
                    log.entries.append(("pop", None, event.time))
                else:
                    action = queue.pop_action()
                    log.entries.append(("pop", None, queue.now))
                action()
        elif name == "run_many":
            ran = queue.run_many(first)
            log.entries.append(("ran", ran, queue.now))
        elif name == "clear":
            queue.clear()
            log.entries.append(("clear", None, queue.now))
        elif name == "hook":
            queue.install_hook(None if first is None else _ScriptedHook(log, first))
    # Drain whatever survives so trailing schedules are observed too.
    while len(queue):
        queue.run_next()


class TestFlatQueueMatchesHeapqReference:
    @given(commands=COMMANDS)
    @settings(max_examples=300, deadline=None)
    def test_identical_execution_and_clock(self, commands):
        reference = _ReferenceQueue()
        queue = EventQueue()
        reference_log = _Log(reference)
        queue_log = _Log(queue)
        _apply(commands, reference, reference_log)
        _apply(commands, queue, queue_log)
        assert queue_log.entries == reference_log.entries
        assert queue.now == reference.now
        assert len(queue) == len(reference) == 0

    @given(
        delays=st.lists(DELAYS, min_size=1, max_size=40),
        clear_at=st.integers(0, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_clear_mid_stream_then_reschedule(self, delays, clear_at):
        reference = _ReferenceQueue()
        queue = EventQueue()
        reference_log = _Log(reference)
        queue_log = _Log(queue)
        for target, log in ((reference, reference_log), (queue, queue_log)):
            for index, delay in enumerate(delays):
                if index == clear_at:
                    target.run_many(2)
                    target.clear()
                target.schedule_call(delay, log.fire, index)
            while len(target):
                target.run_next()
        assert queue_log.entries == reference_log.entries
        assert queue.now == reference.now

    @given(count=st.integers(1, 30))
    @settings(max_examples=50, deadline=None)
    def test_zero_delay_cascade(self, count):
        """Events that schedule more events at the same tick run in
        FIFO order on both queues (the active bucket keeps growing)."""

        def cascade(queue, log, remaining):
            def action(tag):
                log.entries.append(("fire", tag, queue.now))
                if tag + 1 < remaining:
                    queue.schedule_call(0.0, log.fire_cascade, tag + 1)

            return action

        results = []
        for queue in (_ReferenceQueue(), EventQueue()):
            log = _Log(queue)
            log.fire_cascade = cascade(queue, log, count)
            queue.schedule_call(0.0, log.fire_cascade, 0)
            while len(queue):
                queue.run_next()
            results.append(log.entries)
        assert results[0] == results[1]
        assert len(results[0]) == count
