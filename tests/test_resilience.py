"""Tests for the serving resilience layer.

Policy objects (`repro.serve.resilience`) are tested as pure units with
injected clocks and seeded rngs; service-level behavior (deadlines,
shedding, exactly-once dedup, graceful drain, the stranded-waiter
regression) runs against a real :class:`CounterService` on a loopback
socket; the ledger-past-capacity tests also run the
:class:`KeyedCounterService`.
"""

from __future__ import annotations

import asyncio
import random
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ServiceStoppedError,
)
from repro.serve import (
    CircuitBreaker,
    CounterService,
    DedupTable,
    KeyedCounterService,
    ResilienceConfig,
    RetryBudget,
    RetryPolicy,
    run_load,
)

pytestmark = pytest.mark.resilience


class TestResilienceConfig:
    def test_defaults_are_valid(self):
        config = ResilienceConfig()
        assert config.max_backlog == 256
        assert config.default_deadline is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_backlog": -1},
            {"default_deadline": 0.0},
            {"default_deadline": -1.0},
            {"dedup_capacity": 0},
            {"line_limit": 8},
            {"drain_timeout": -0.1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(**kwargs)

    def test_none_backlog_disables_shedding(self):
        assert ResilienceConfig(max_backlog=None).max_backlog is None


class TestDedupTable:
    def _future(self):
        loop = asyncio.new_event_loop()
        try:
            return loop.create_future()
        finally:
            loop.close()

    def test_commit_resolves_future_and_counts(self):
        table = DedupTable(capacity=4)
        future = self._future()
        table.create("a", future)
        table.commit("a", 7)
        assert future.result() == 7
        assert table.get("a").committed
        assert table.committed_total == 1

    def test_duplicate_create_rejected(self):
        table = DedupTable(capacity=4)
        table.create("a", self._future())
        with pytest.raises(ConfigurationError, match="already tracked"):
            table.create("a", self._future())

    def test_fail_removes_entry_so_retries_start_fresh(self):
        table = DedupTable(capacity=4)
        future = self._future()
        table.create("a", future)
        table.fail("a", OverloadedError("shed"))
        assert table.get("a") is None
        with pytest.raises(OverloadedError):
            future.result()
        # a retry may now register the rid again
        table.create("a", self._future())

    def test_eviction_drops_oldest_committed_first(self):
        table = DedupTable(capacity=2)
        for rid in ("a", "b"):
            table.create(rid, self._future())
            table.commit(rid, 0)
        pending = self._future()
        table.create("c", pending)
        assert len(table) == 2
        assert table.get("a") is None  # oldest committed evicted
        assert table.get("b") is not None
        assert table.get("c") is not None

    def test_pending_entries_never_evicted(self):
        table = DedupTable(capacity=1)
        table.create("p1", self._future())
        table.create("p2", self._future())
        assert len(table) == 2  # over capacity, but both still pending

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            DedupTable(capacity=0)

    def test_whole_excess_evicted_in_one_create_once_committed(self):
        table = DedupTable(capacity=2)
        for rid in ("p1", "p2", "p3", "p4", "p5"):
            table.create(rid, self._future())
        assert len(table) == 5  # three over capacity, all pending
        for rid in ("p1", "p2", "p3", "p4", "p5"):
            table.commit(rid, 0)
        table.create("n", self._future())
        assert list(table._entries) == ["p5", "n"]  # four gone at once

    def test_pending_head_skipped_committed_behind_it_evicted(self):
        table = DedupTable(capacity=3)
        for rid in ("p", "a", "b"):
            table.create(rid, self._future())
        table.commit("a", 0)
        table.commit("b", 1)
        table.create("c", self._future())
        assert list(table._entries) == ["p", "b", "c"]
        table.commit("c", 2)
        table.create("d", self._future())
        assert list(table._entries) == ["p", "c", "d"]

    def test_failed_rid_never_counts_toward_eviction(self):
        table = DedupTable(capacity=2)
        table.create("a", self._future())
        table.commit("a", 0)
        table.create("f", self._future())
        table.fail("f", OverloadedError("shed"))
        table.create("b", self._future())
        table.commit("b", 1)
        assert list(table._entries) == ["a", "b"]  # nothing evicted
        table.create("c", self._future())
        assert list(table._entries) == ["b", "c"]


class _ReferenceLedger:
    """The copy-the-whole-table eviction :class:`DedupTable` used to run.

    Kept as a model: the walk-without-copy eviction must pick exactly
    the same victims in the same order.
    """

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = {}  # rid -> committed; dicts keep insertion order
        self.committed_total = 0

    def create(self, rid):
        self.entries[rid] = False
        if len(self.entries) <= self.capacity:
            return
        for old, committed in list(self.entries.items()):
            if committed:
                del self.entries[old]
                if len(self.entries) <= self.capacity:
                    return

    def commit(self, rid):
        if rid in self.entries:
            self.entries[rid] = True
            self.committed_total += 1

    def fail(self, rid):
        self.entries.pop(rid, None)


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 6),
    steps=st.lists(
        st.tuples(
            # fails are rarer so committed entries pile up past capacity
            st.sampled_from(("create", "commit", "create", "commit", "fail")),
            st.integers(0, 63),
        ),
        min_size=8,
        max_size=40,
    ),
)
def test_dedup_table_evicts_like_the_reference_model(capacity, steps):
    """Creates take fresh rids; commit and fail pick a live one."""
    table = DedupTable(capacity)
    model = _ReferenceLedger(capacity)
    loop = asyncio.new_event_loop()
    try:
        for number, (action, pick) in enumerate(steps):
            live = list(model.entries)
            if action == "create":
                rid = f"r{number}"
                table.create(rid, loop.create_future())
                model.create(rid)
            elif not live:
                continue
            elif action == "commit":
                rid = live[pick % len(live)]
                table.commit(rid, number)
                model.commit(rid)
            else:
                rid = live[pick % len(live)]
                table.fail(rid, OverloadedError("shed"))
                model.fail(rid)
            assert list(table._entries) == list(model.entries)
            assert [e.committed for e in table._entries.values()] == list(
                model.entries.values()
            )
            assert table.committed_total == model.committed_total
    finally:
        loop.close()


class TestRetryPolicy:
    def test_delay_is_full_jitter_under_the_cap(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, max_delay=0.4)
        rng = random.Random(42)
        for retry_index, ceiling in enumerate((0.1, 0.2, 0.4, 0.4)):
            for _ in range(50):
                delay = policy.delay(retry_index, rng)
                assert 0.0 <= delay <= ceiling

    def test_worst_case_latency_sums_attempts_and_backoff(self):
        policy = RetryPolicy(attempts=3, base_delay=0.1, max_delay=0.15)
        # 3 attempts x 1.0 + backoff ceilings 0.1 + 0.15
        assert policy.worst_case_latency(1.0) == pytest.approx(3.25)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"base_delay": -0.1},
            {"base_delay": 0.5, "max_delay": 0.1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestRetryBudget:
    def test_take_depletes(self):
        budget = RetryBudget(2)
        assert budget.take()
        assert budget.take()
        assert not budget.take()
        assert budget.used == 2
        assert budget.remaining == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryBudget(-1)


class TestCircuitBreaker:
    def _breaker(self, threshold=3, reset=10.0):
        clock = {"now": 100.0}
        breaker = CircuitBreaker(
            threshold, reset, clock=lambda: clock["now"]
        )
        return breaker, clock

    def test_closed_until_threshold_consecutive_failures(self):
        breaker, _ = self._breaker(threshold=3)
        assert breaker.state == "closed"
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = self._breaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_allows_exactly_one_probe(self):
        breaker, clock = self._breaker(threshold=1, reset=10.0)
        breaker.record_failure()
        assert breaker.state == "open"
        clock["now"] += 10.0
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # racing callers refused
        assert breaker.state == "half-open"

    def test_probe_success_closes(self):
        breaker, clock = self._breaker(threshold=1, reset=10.0)
        breaker.record_failure()
        clock["now"] += 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_for_a_fresh_timeout(self):
        breaker, clock = self._breaker(threshold=1, reset=10.0)
        breaker.record_failure()
        clock["now"] += 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.trips == 2
        clock["now"] += 9.9
        assert not breaker.allow()
        clock["now"] += 0.1
        assert breaker.allow()

    @pytest.mark.parametrize(
        "kwargs", [{"failure_threshold": 0}, {"reset_timeout": 0.0}]
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(**kwargs)


def _service(spec="central", n=4, **kwargs):
    return CounterService(spec, n, port=0, **kwargs)


class TestServiceDeadlines:
    def test_deadline_expires_while_waiting_for_a_processor(self):
        async def go():
            # time_scale makes each op take real time, so one slow op
            # can hold every lease while a deadlined arrival waits
            service = _service("static-tree", n=1, time_scale=0.05)
            await service.start()
            try:
                slow = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)  # the lease is now taken
                with pytest.raises(DeadlineExceededError):
                    await service.inc(deadline=0.02)
                stats = service.stats()
                await slow
                return stats
            finally:
                await service.stop()

        stats = asyncio.run(go())
        assert stats["expired"] >= 1

    def test_expired_operation_still_commits_and_rid_recovers_it(self):
        async def go():
            service = _service("static-tree", n=1, time_scale=0.05)
            await service.start()
            try:
                with pytest.raises(DeadlineExceededError):
                    await service.inc(rid="r1", deadline=0.01)
                # the operation was injected: it commits in the
                # background, and a retry with the same rid gets its
                # value instead of double-counting
                value = await service.inc(rid="r1")
                stats = service.stats()
                return value, stats
            finally:
                await service.stop()

        value, stats = asyncio.run(go())
        assert value == 0
        assert stats["served"] == 1
        assert stats["rid_committed"] == 1
        assert stats["deduped"] == 1

    def test_default_deadline_from_config(self):
        async def go():
            service = _service(
                "static-tree",
                n=1,
                time_scale=0.05,
                resilience=ResilienceConfig(default_deadline=0.02),
            )
            await service.start()
            try:
                slow = asyncio.create_task(service.inc(deadline=5.0))
                await asyncio.sleep(0.01)
                with pytest.raises(DeadlineExceededError):
                    await service.inc()  # no explicit deadline
                await slow
            finally:
                await service.stop()

        asyncio.run(go())


class TestServiceShedding:
    def test_overload_sheds_beyond_the_backlog_cap(self):
        async def go():
            service = _service(
                "static-tree",
                n=1,
                time_scale=0.05,
                resilience=ResilienceConfig(max_backlog=1),
            )
            await service.start()
            try:
                first = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)  # lease taken
                queued = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)  # backlog now 1 (= cap)
                with pytest.raises(OverloadedError):
                    await service.inc()
                stats = service.stats()
                await asyncio.gather(first, queued)
                return stats, service.stats()
            finally:
                await service.stop()

        during, after = asyncio.run(go())
        assert during["shed"] == 1
        assert during["backlog"] == 1
        assert after["served"] == 2  # queued work still completed

    def test_shed_rid_is_forgotten_so_a_retry_can_succeed(self):
        async def go():
            service = _service(
                "static-tree",
                n=1,
                time_scale=0.05,
                resilience=ResilienceConfig(max_backlog=0),
            )
            await service.start()
            try:
                slow = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)
                with pytest.raises(OverloadedError):
                    await service.inc(rid="r")
                await slow  # capacity frees up
                value = await service.inc(rid="r")  # the retry
                return value, service.stats()
            finally:
                await service.stop()

        value, stats = asyncio.run(go())
        assert value == 1
        assert stats["served"] == 2
        assert stats["deduped"] == 0  # the retry was a fresh injection


class TestServiceDedup:
    def test_repeated_rid_returns_the_committed_value(self):
        async def go():
            service = _service()
            await service.start()
            try:
                first = await service.inc(rid="a")
                again = await service.inc(rid="a")
                return first, again, service.stats()
            finally:
                await service.stop()

        first, again, stats = asyncio.run(go())
        assert first == again == 0
        assert stats["served"] == 1
        assert stats["deduped"] == 1
        assert stats["rid_committed"] == 1

    def test_concurrent_same_rid_injects_once(self):
        async def go():
            service = _service(time_scale=0.02)
            await service.start()
            try:
                values = await asyncio.gather(
                    *(service.inc(rid="x") for _ in range(5))
                )
                return values, service.stats()
            finally:
                await service.stop()

        values, stats = asyncio.run(go())
        assert set(values) == {0}
        assert stats["served"] == 1
        assert stats["deduped"] == 4

    def test_distinct_rids_count_separately(self):
        async def go():
            service = _service()
            await service.start()
            try:
                values = [await service.inc(rid=f"r{i}") for i in range(4)]
                return values, service.stats()
            finally:
                await service.stop()

        values, stats = asyncio.run(go())
        assert sorted(values) == [0, 1, 2, 3]
        assert stats["rid_committed"] == 4
        assert stats["deduped"] == 0


class TestServiceDedupPastCapacity:
    """Both services drive their ledger far past ``dedup_capacity``."""

    CAPACITY = 8
    CALLERS = 6
    RIDS_PER_CALLER = 7  # 42 distinct rids through an 8-entry ledger
    KEYS = ("k0", "k1", "k2")

    def _drive(self, service, keyed):
        total = self.CALLERS * self.RIDS_PER_CALLER

        def counts():
            stats = service.stats()
            return stats["served"], stats["deduped"]

        async def go():
            created = []  # rids in the order their ledger entries were made
            key_of = {}
            value_of = {}
            returned = {}  # key -> every value a fresh inc returned

            async def inc(rid):
                # inc makes the ledger entry before its first await, so
                # appending here records the creation order
                created.append(rid)
                if keyed:
                    return await service.inc(key_of[rid], rid=rid)
                return await service.inc(rid=rid)

            async def caller(c):
                for i in range(self.RIDS_PER_CALLER):
                    rid = f"c{c}.{i}"
                    key_of[rid] = self.KEYS[(c + i) % len(self.KEYS)]
                    value_of[rid] = await inc(rid)
                    returned.setdefault(key_of[rid], []).append(value_of[rid])

            await service.start()
            try:
                await asyncio.gather(*(caller(c) for c in range(self.CALLERS)))
                assert counts() == (total, 0)
                # the newest rid is still in the ledger: a retry dedups
                newest = created[-1]
                assert await inc(newest) == value_of[newest]
                assert counts() == (total, 1)
                # the oldest rid was evicted long ago: a retry is new work
                oldest = created[0]
                returned[key_of[oldest]].append(await inc(oldest))
                assert counts() == (total + 1, 1)
            finally:
                await service.stop()
            if not keyed:  # one counter behind every key
                returned = {"": [v for vs in returned.values() for v in vs]}
            for values in returned.values():
                assert sorted(values) == list(range(len(values)))

        asyncio.run(go())

    def test_keyed_service(self):
        service = KeyedCounterService(
            "central",
            4,
            port=0,
            shards=2,
            resilience=ResilienceConfig(dedup_capacity=self.CAPACITY),
        )
        self._drive(service, keyed=True)

    def test_unkeyed_service(self):
        service = _service(
            resilience=ResilienceConfig(dedup_capacity=self.CAPACITY)
        )
        self._drive(service, keyed=False)


class TestServiceLifecycle:
    def test_draining_service_refuses_new_work(self):
        async def go():
            service = _service()
            await service.start()
            try:
                service._draining = True  # what SHUTDOWN sets first
                with pytest.raises(ServiceStoppedError):
                    await service.inc()
            finally:
                await service.stop()

        asyncio.run(go())

    def test_graceful_drain_commits_inflight_work(self):
        async def go():
            service = _service(n=2, time_scale=0.05)
            await service.start()
            ops = [asyncio.create_task(service.inc()) for _ in range(2)]
            await asyncio.sleep(0.01)  # both injected
            await service.stop(drain=True)
            return await asyncio.gather(*ops), service.served

        values, served = asyncio.run(go())
        assert sorted(values) == [0, 1]
        assert served == 2

    def test_stop_without_drain_poisons_inflight_waiters(self):
        # regression: the pump's CancelledError path must fail every
        # in-flight waiter — a stranded client would hang forever
        async def go():
            service = _service("static-tree", n=1, time_scale=0.5)
            await service.start()
            op = asyncio.create_task(service.inc())
            await asyncio.sleep(0.01)  # injected, far from committing
            await service.stop(drain=False)
            with pytest.raises(ServiceStoppedError):
                await asyncio.wait_for(op, timeout=1.0)

        asyncio.run(go())


class TestProtocolResilience:
    async def _request_lines(self, service, payload, answers=1):
        reader, writer = await asyncio.open_connection(
            service.host, service.port
        )
        try:
            writer.write(payload)
            await writer.drain()
            lines = []
            for _ in range(answers):
                lines.append(
                    (await reader.readline()).decode("ascii", "replace")
                )
            return lines
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def test_overlong_line_answers_err_and_drops_the_connection(self):
        async def go():
            service = _service(
                resilience=ResilienceConfig(line_limit=64)
            )
            await service.start()
            try:
                payload = b"INC " + b"x" * 256 + b"\n"
                reader, writer = await asyncio.open_connection(
                    service.host, service.port
                )
                writer.write(payload)
                await writer.drain()
                answer = (await reader.readline()).decode("ascii")
                rest = await reader.read()  # connection closed after
                writer.close()
                return answer, rest
            finally:
                await service.stop()

        answer, rest = asyncio.run(go())
        assert answer.startswith("ERR LINE_TOO_LONG")
        assert rest == b""

    def test_wire_deadline_expires(self):
        async def go():
            service = _service("static-tree", n=1, time_scale=0.05)
            await service.start()
            try:
                slow = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)
                lines = await self._request_lines(
                    service, b"INC w1 10\n"
                )
                await slow
                return lines
            finally:
                await service.stop()

        (line,) = asyncio.run(go())
        assert line.startswith("ERR DEADLINE_EXCEEDED")

    @pytest.mark.parametrize(
        "payload",
        [b"INC rid -5\n", b"INC rid abc\n", b"INC rid 10 extra\n"],
    )
    def test_bad_inc_arguments_answer_bad_request(self, payload):
        async def go():
            service = _service()
            await service.start()
            try:
                return await self._request_lines(service, payload)
            finally:
                await service.stop()

        (line,) = asyncio.run(go())
        assert line.startswith("ERR BAD_REQUEST")

    def test_wire_overloaded_error_code(self):
        async def go():
            service = _service(
                "static-tree",
                n=1,
                time_scale=0.05,
                resilience=ResilienceConfig(max_backlog=0),
            )
            await service.start()
            try:
                slow = asyncio.create_task(service.inc())
                await asyncio.sleep(0.01)
                lines = await self._request_lines(service, b"INC\n")
                await slow
                return lines
            finally:
                await service.stop()

        (line,) = asyncio.run(go())
        assert line.startswith("ERR OVERLOADED")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestLoadgenErrorAccounting:
    def test_connection_failures_counted_not_raised(self):
        port = _free_port()  # nobody listening

        result = asyncio.run(
            run_load("127.0.0.1", port, ops=5, rate=500.0)
        )
        assert result.completed == 0
        assert result.errors == 5
        assert result.error_counts == {"connection": 5}
        assert "err_types=connection:5" in result.summary()

    def test_breaker_fails_fast_after_tripping(self):
        port = _free_port()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=60.0)

        result = asyncio.run(
            run_load(
                "127.0.0.1", port, ops=8, rate=2000.0, breaker=breaker
            )
        )
        assert result.completed == 0
        assert result.errors == 8
        assert breaker.trips >= 1
        assert result.error_counts.get("circuit_open", 0) >= 1

    def test_retry_budget_bounds_total_retries(self):
        port = _free_port()
        budget = RetryBudget(3)

        result = asyncio.run(
            run_load(
                "127.0.0.1",
                port,
                ops=4,
                rate=2000.0,
                retry=RetryPolicy(attempts=5, base_delay=0.0, max_delay=0.0),
                retry_budget=budget,
            )
        )
        assert result.errors == 4
        assert result.retries == 3  # capped by the shared budget
        assert budget.remaining == 0
