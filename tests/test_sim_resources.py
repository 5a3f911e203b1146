"""Unit tests for Resource and Container."""

import pytest

from repro.sim import Container, Environment, Resource


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_under_capacity(self, env):
        res = Resource(env, capacity=2)
        log = []

        def proc(env, tag):
            with res.request() as req:
                yield req
                log.append((tag, env.now))
                yield env.timeout(5)

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        assert log == [("a", 0), ("b", 0)]

    def test_fifo_queueing(self, env):
        res = Resource(env, capacity=1)
        log = []

        def proc(env, tag, hold):
            with res.request() as req:
                yield req
                log.append((tag, env.now))
                yield env.timeout(hold)

        env.process(proc(env, "first", 3))
        env.process(proc(env, "second", 3))
        env.process(proc(env, "third", 3))
        env.run()
        assert log == [("first", 0), ("second", 3), ("third", 6)]

    def test_count_and_queue_length(self, env):
        res = Resource(env, capacity=1)

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def waiter(env):
            with res.request() as req:
                yield req

        env.process(holder(env))
        env.process(waiter(env))
        env.run(until=1)
        assert res.count == 1
        assert res.queue_length == 1

    def test_context_manager_releases(self, env):
        res = Resource(env, capacity=1)

        def proc(env):
            with res.request() as req:
                yield req
            # Released on exit even though we still run afterwards.
            yield env.timeout(1)

        env.process(proc(env))
        env.run()
        assert res.count == 0

    def test_cancel_waiting_request(self, env):
        res = Resource(env, capacity=1)
        got = []

        def holder(env):
            with res.request() as req:
                yield req
                yield env.timeout(10)

        def impatient(env):
            req = res.request()
            yield env.timeout(2)
            assert not req.triggered  # still queued behind the holder
            req.cancel()
            got.append("gave up")

        def patient(env):
            yield env.timeout(1)
            with res.request() as req:
                yield req
                got.append(("patient", env.now))

        env.process(holder(env))
        env.process(impatient(env))
        env.process(patient(env))
        env.run()
        assert "gave up" in got
        assert ("patient", 10) in got

    def test_release_unknown_request_is_noop(self, env):
        res = Resource(env, capacity=1)
        other = Resource(env, capacity=1)
        req = other.request()
        res.release(req)  # Must not raise.
        env.run()


class TestContainer:
    def test_init_validation(self, env):
        with pytest.raises(ValueError):
            Container(env, capacity=0)
        with pytest.raises(ValueError):
            Container(env, capacity=10, init=11)

    def test_put_get_levels(self, env):
        tank = Container(env, capacity=100, init=50)

        def proc(env):
            yield tank.put(25)
            assert tank.level == 75
            yield tank.get(70)
            assert tank.level == 5

        env.process(proc(env))
        env.run()
        assert tank.level == 5

    def test_get_blocks_until_available(self, env):
        tank = Container(env, capacity=100, init=0)
        log = []

        def consumer(env):
            yield tank.get(10)
            log.append(env.now)

        def producer(env):
            yield env.timeout(4)
            yield tank.put(10)

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert log == [4]

    def test_put_blocks_at_capacity(self, env):
        tank = Container(env, capacity=10, init=10)
        log = []

        def producer(env):
            yield tank.put(5)
            log.append(env.now)

        def consumer(env):
            yield env.timeout(3)
            yield tank.get(5)

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert log == [3]

    def test_nonpositive_amounts_rejected(self, env):
        tank = Container(env, capacity=10)
        with pytest.raises(ValueError):
            tank.put(0)
        with pytest.raises(ValueError):
            tank.get(-1)

    def test_conservation(self, env):
        # Total put == total got + level at all times.
        tank = Container(env, capacity=50, init=0)
        totals = {"put": 0.0, "got": 0.0}

        def producer(env, amount, period):
            while env.now < 40:
                yield tank.put(amount)
                totals["put"] += amount
                yield env.timeout(period)

        def consumer(env, amount, period):
            while env.now < 40:
                yield tank.get(amount)
                totals["got"] += amount
                yield env.timeout(period)

        env.process(producer(env, 3, 1))
        env.process(consumer(env, 2, 1))
        env.run(until=100)
        assert totals["put"] - totals["got"] == pytest.approx(tank.level)

    def test_get_fifo_no_starvation(self, env):
        tank = Container(env, capacity=100, init=0)
        log = []

        def consumer(env, tag, amount):
            yield tank.get(amount)
            log.append(tag)

        def producer(env):
            yield env.timeout(1)
            yield tank.put(100)

        env.process(consumer(env, "big", 60))
        env.process(consumer(env, "small", 10))
        env.process(producer(env))
        env.run()
        # FIFO: the big request is served first even though the small one
        # could have been satisfied earlier.
        assert log == ["big", "small"]

    def test_release_returns_capacity_without_an_event(self, env):
        tank = Container(env, capacity=100, init=100)
        log = []

        def holder(env):
            yield tank.get(70)
            yield env.timeout(2)
            queued_before = len(env._queue)
            tank.release(70)
            assert tank.level == 100 - 60  # the waiter drained at once
            # One URGENT grant for the waiter, no deposit event.
            assert len(env._queue) == queued_before + 1

        def waiter(env):
            yield env.timeout(1)
            yield tank.get(60)
            log.append(env.now)

        env.process(holder(env))
        env.process(waiter(env))
        env.run()
        assert log == [2]
        assert tank.level == 40

    def test_release_never_overfills(self, env):
        tank = Container(env, capacity=10, init=8)
        with pytest.raises(ValueError):
            tank.release(3)
        with pytest.raises(ValueError):
            tank.release(0)
        assert tank.level == 8
        tank.release(2)
        assert tank.level == 10
