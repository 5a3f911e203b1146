"""Unit tests for the event primitives of the simulation kernel."""

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from repro.sim.events import URGENT


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


class TestMoveWakeup:
    """A sleeper's wake-up moves to a fresh timeout without resuming it."""

    def test_moved_process_resumes_once_at_the_new_time(self, env):
        wakes = []

        def sleeper(env):
            yield env.timeout(10)
            wakes.append(env.now)

        def mover(env, proc):
            yield env.timeout(2)
            proc.move_wakeup(5)  # new deadline: t=7

        p = env.process(sleeper(env))
        env.process(mover(env, p))
        env.run()
        assert wakes == [7]
        assert env.now == 10  # the stale timeout still fires

    def test_stale_timeout_resumes_nobody(self, env):
        wakes = []

        def sleeper(env):
            yield env.timeout(3)
            wakes.append(env.now)

        p = env.process(sleeper(env))
        env.run(until=1)
        stale = p.target
        p.move_wakeup(6)
        assert p.target is not stale
        assert p._resume in p.target.callbacks
        assert p._resume not in stale.callbacks
        env.run()
        assert stale.processed
        assert wakes == [7]

    def test_move_can_be_repeated(self, env):
        wakes = []

        def sleeper(env):
            yield env.timeout(10)
            wakes.append(env.now)

        p = env.process(sleeper(env))
        env.run(until=1)
        p.move_wakeup(1)
        p.move_wakeup(4)
        env.run()
        assert wakes == [5]

    def test_interrupt_after_a_move_detaches_and_delivers_once(self, env):
        log = []

        def sleeper(env):
            try:
                yield env.timeout(10)
                log.append(("woke", env.now))
            except Interrupt as interrupt:
                log.append((interrupt.cause, env.now))
            yield env.timeout(20)
            log.append(("done", env.now))

        def mover(env, proc):
            yield env.timeout(1)
            proc.move_wakeup(2)  # t=3
            proc.interrupt("kill")  # lands at t=1, after the move

        p = env.process(sleeper(env))
        env.process(mover(env, p))
        env.run()
        # Neither the moved timeout (t=3) nor the stale one (t=10)
        # resumes the process a second time.
        assert log == [("kill", 1), ("done", 21)]

    def test_urgent_move_wakes_ahead_of_same_time_events(self, env):
        order = []

        def sleeper(env):
            yield env.timeout(10)
            order.append(("sleeper", env.now))

        def bystander(env):
            yield env.timeout(1)
            order.append(("bystander", env.now))

        p = env.process(sleeper(env))
        env.process(bystander(env))
        env.run(until=0.5)
        # At t=1, ahead of the bystander, the sleeper's work turns out done.
        trigger = env.timeout_at(1.0, priority=URGENT)
        trigger.callbacks.append(lambda _e: p.move_wakeup(0.0, URGENT))
        env.run()
        assert order == [("sleeper", 1), ("bystander", 1)]

    def test_only_a_timeout_sleeper_can_move(self, env):
        gate = env.event()

        def waiter(env):
            yield gate

        p = env.process(waiter(env))
        env.run()
        with pytest.raises(SimulationError):
            p.move_wakeup(1)
        with pytest.raises(SimulationError):
            env.process(waiter(env)).move_wakeup(1)  # not started yet

    def test_negative_delay_rejected(self, env):
        def sleeper(env):
            yield env.timeout(5)

        p = env.process(sleeper(env))
        env.run(until=1)
        with pytest.raises(ValueError):
            p.move_wakeup(-1)
        assert p._resume in p.target.callbacks


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
