"""Unit tests for the event primitives of the simulation kernel."""

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


@pytest.fixture
def env():
    return Environment()


class TestEventLifecycle:
    def test_new_event_is_untriggered(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_ok_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_then_succeed_raises(self, env):
        event = env.event()
        event.fail(RuntimeError("boom"))
        event.defused = True
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_processed_after_run(self, env):
        event = env.event()
        event.succeed("v")
        env.run()
        assert event.processed

    def test_callbacks_invoked_in_order(self, env):
        order = []
        event = env.event()
        event.callbacks.append(lambda e: order.append(1))
        event.callbacks.append(lambda e: order.append(2))
        event.succeed()
        env.run()
        assert order == [1, 2]

    def test_unhandled_failure_surfaces_from_run(self, env):
        event = env.event()
        event.fail(ValueError("unhandled"))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_defused_failure_is_swallowed(self, env):
        event = env.event()
        event.fail(ValueError("handled"))
        event.defused = True
        env.run()  # Must not raise.


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_fires_at_delay(self, env):
        log = []

        def proc(env):
            yield env.timeout(5)
            log.append(env.now)

        env.process(proc(env))
        env.run()
        assert log == [5]

    def test_timeout_carries_value(self, env):
        result = []

        def proc(env):
            value = yield env.timeout(1, value="payload")
            result.append(value)

        env.process(proc(env))
        env.run()
        assert result == ["payload"]

    def test_zero_delay_allowed(self, env):
        t = env.timeout(0)
        env.run()
        assert t.processed

    def test_repr_mentions_delay(self, env):
        assert "3" in repr(env.timeout(3))


class TestProcessBasics:
    def test_process_returns_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return "done"

        p = env.process(proc(env))
        env.run()
        assert p.value == "done"

    def test_process_is_event(self, env):
        def child(env):
            yield env.timeout(3)
            return 99

        def parent(env):
            result = yield env.process(child(env))
            return result + 1

        p = env.process(parent(env))
        env.run()
        assert p.value == 100

    def test_process_failure_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1)
            raise KeyError("child died")

        caught = []

        def parent(env):
            try:
                yield env.process(child(env))
            except KeyError:
                caught.append(env.now)

        env.process(parent(env))
        env.run()
        assert caught == [1]

    def test_unwaited_process_failure_crashes_run(self, env):
        def child(env):
            yield env.timeout(1)
            raise KeyError("nobody listening")

        env.process(child(env))
        with pytest.raises(KeyError):
            env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_yield_non_event_fails_process(self, env):
        def proc(env):
            yield 42

        p = env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()
        assert not p.ok

    def test_is_alive(self, env):
        def proc(env):
            yield env.timeout(10)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_yield_already_processed_event_resumes_immediately(self, env):
        t = env.timeout(0, value="early")
        log = []

        def proc(env):
            yield env.timeout(5)
            value = yield t  # t processed long ago
            log.append((env.now, value))

        env.process(proc(env))
        env.run()
        assert log == [(5, "early")]

    def test_name_defaults(self, env):
        def my_proc(env):
            yield env.timeout(1)

        p = env.process(my_proc(env), name="worker-1")
        assert p.name == "worker-1"
        assert "worker-1" in repr(p)


class TestInterrupts:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                causes.append((env.now, interrupt.cause))

        def attacker(env, victim_proc):
            yield env.timeout(3)
            victim_proc.interrupt("preempted")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert causes == [(3, "preempted")]

    def test_interrupted_process_can_continue(self, env):
        log = []

        def victim(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(5)
            log.append(env.now)

        def attacker(env, victim_proc):
            yield env.timeout(2)
            victim_proc.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert log == [7]

    def test_self_interrupt_rejected(self, env):
        def proc(env):
            env.active_process.interrupt()
            yield env.timeout(1)

        p = env.process(proc(env))
        with pytest.raises(SimulationError):
            env.run()
        assert not p.ok

    def test_interrupt_terminated_process_rejected(self, env):
        def proc(env):
            yield env.timeout(1)

        p = env.process(proc(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_uncaught_interrupt_kills_process(self, env):
        def victim(env):
            yield env.timeout(100)

        def attacker(env, victim_proc):
            yield env.timeout(1)
            victim_proc.interrupt("die")

        v = env.process(victim(env))
        env.process(attacker(env, v))
        with pytest.raises(Interrupt):
            env.run()
        assert not v.ok

    def test_interrupt_race_with_termination_is_ignored(self, env):
        # The victim terminates at t=1; an interrupt scheduled for the same
        # instant but after must be a no-op rather than an error.
        def victim(env):
            yield env.timeout(1)

        def attacker(env, victim_proc):
            yield env.timeout(1)
            if victim_proc.is_alive:
                victim_proc.interrupt()

        v = env.process(victim(env))
        env.process(attacker(env, v))
        env.run()
        assert v.ok


class TestEventHelpers:
    def test_trigger_copies_success(self, env):
        source = env.event()
        sink = env.event()
        source.callbacks.append(sink.trigger)
        source.succeed("payload")
        env.run()
        assert sink.value == "payload"

    def test_trigger_copies_failure_and_defuses(self, env):
        source = env.event()
        sink = env.event()
        source.callbacks.append(sink.trigger)
        source.fail(RuntimeError("boom"))
        sink.defused = True
        env.run()
        assert not sink.ok
        assert source.defused

    def test_event_repr_states(self, env):
        event = env.event()
        assert "pending" in repr(event)
        event.succeed()
        assert "triggered" in repr(event)
        env.run()
        assert "processed" in repr(event)
