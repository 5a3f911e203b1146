"""Unit tests for the Environment run loop and deterministic ordering."""

import pytest

from repro.sim import Environment, SimulationError, Timeout, profile
from repro.sim.events import URGENT


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_initial_time(self):
        assert Environment(initial_time=7.5).now == 7.5

    def test_run_until_time(self, env):
        env.process(_ticker(env, 1.0))
        env.run(until=10)
        assert env.now == 10

    def test_run_until_past_raises(self, env):
        env.process(_ticker(env, 1.0))
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=2)

    def test_run_until_now_returns_immediately(self, env):
        # simpy semantics: reaching a target already attained is a no-op,
        # not an error (regression: this used to raise ValueError).
        env.process(_ticker(env, 1.0))
        assert env.run(until=0) is None
        assert env.now == 0
        env.run(until=5)
        assert env.run(until=5) is None
        assert env.now == 5

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(4)
            return "result"

        p = env.process(proc(env))
        assert env.run(until=p) == "result"
        assert env.now == 4

    def test_run_until_event_never_triggered(self, env):
        dangling = env.event()
        env.process(_ticker(env, 1.0, stop_after=3))
        with pytest.raises(SimulationError):
            env.run(until=dangling)

    def test_run_until_already_processed_event(self, env):
        t = env.timeout(1, value="x")
        env.run()
        assert env.run(until=t) == "x"

    def test_run_to_exhaustion(self, env):
        env.process(_ticker(env, 2.0, stop_after=5))
        env.run()
        assert env.now == 10.0

    def test_peek(self, env):
        assert env.peek() == float("inf")
        env.timeout(3)
        assert env.peek() == 3

    def test_negative_schedule_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.schedule(env.event(), delay=-1)

    def test_repr(self, env):
        assert "t=0" in repr(env)


class TestDeterminism:
    def test_same_time_events_fifo(self, env):
        order = []

        def proc(env, tag):
            yield env.timeout(1)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_trace_is_reproducible(self):
        def workload(env, log):
            def worker(env, i):
                yield env.timeout(i % 3)
                log.append((env.now, i))

            for i in range(20):
                env.process(worker(env, i))

        log1, log2 = [], []
        for log in (log1, log2):
            env = Environment()
            workload(env, log)
            env.run()
        assert log1 == log2

    def test_active_process_tracking(self, env):
        seen = []

        def proc(env):
            seen.append(env.active_process)
            yield env.timeout(1)

        p = env.process(proc(env))
        assert env.active_process is None
        env.run()
        assert seen == [p]
        assert env.active_process is None


class TestTimeoutAt:
    def test_fires_at_exactly_when(self, env):
        # A sum no ``now + delay`` split reproduces: 0.1 + 0.2 != 0.3.
        when = 0.1 + 0.2
        log = []

        def proc(env):
            yield env.timeout(0.1)
            yield env.timeout_at(when)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [when]

    def test_equals_a_chain_of_timeouts(self, env):
        delays = (0.1, 0.7, 1e-9, 3.3)
        chained = []

        def chain(env):
            for delay in delays:
                yield env.timeout(delay)
            chained.append(env.now)

        env.process(chain(env))
        env.run()
        due = 0.0
        for delay in delays:
            due = due + delay
        fused = Environment()
        fused.timeout_at(due)
        fused.run()
        assert fused.now == chained[0]

    def test_counted_as_a_scheduled_timeout(self):
        prof = profile.activate()
        try:
            env = Environment()
            timeout = env.timeout_at(2.0)
            env.run()
        finally:
            profile.deactivate()
        assert isinstance(timeout, Timeout)
        assert prof.events_scheduled == {"Timeout": 1}
        assert prof.events_fired == {"Timeout": 1}

    def test_past_time_rejected(self, env):
        env.timeout(5)
        env.run()
        with pytest.raises(ValueError):
            env.timeout_at(4.999)
        env.timeout_at(5.0)  # now itself is allowed

    def test_urgent_fires_before_same_time_normal_events(self, env):
        order = []
        env.timeout_at(1.0).callbacks.append(lambda _e: order.append("normal"))
        env.timeout_at(1.0, priority=URGENT).callbacks.append(
            lambda _e: order.append("urgent")
        )
        env.run()
        assert order == ["urgent", "normal"]


def _ticker(env, period, stop_after=None):
    count = 0
    while stop_after is None or count < stop_after:
        yield env.timeout(period)
        count += 1
