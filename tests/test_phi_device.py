"""Unit tests for the malleable-offload Xeon Phi device engine."""

import random

import pytest

from repro.phi import (
    AffinitizedContention,
    PAPER_SPEC,
    UnmanagedContention,
    XeonPhi,
)
from repro.sim import Environment, Interrupt, profile


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def phi(env):
    return XeonPhi(env, name="mic0")


def _offload_job(env, phi, owner, threads, work, log):
    phi.register_process(owner)
    yield from phi.run_offload(owner, threads, work)
    log.append((owner, env.now))
    phi.unregister_process(owner)


class TestOffloadExecution:
    def test_single_offload_runs_at_full_speed(self, env, phi):
        log = []
        env.process(_offload_job(env, phi, "j1", 240, 10.0, log))
        env.run()
        assert log == [("j1", 10.0)]

    def test_two_within_budget_offloads_do_not_interfere(self, env, phi):
        log = []
        env.process(_offload_job(env, phi, "j1", 120, 10.0, log))
        env.process(_offload_job(env, phi, "j2", 120, 10.0, log))
        env.run()
        assert log == [("j1", 10.0), ("j2", 10.0)]

    def test_oversubscribed_offloads_slow_down(self, env, phi):
        log = []
        env.process(_offload_job(env, phi, "j1", 240, 10.0, log))
        env.process(_offload_job(env, phi, "j2", 240, 10.0, log))
        env.run()
        # Demand 480/240 = 2x: rate = 0.5 / (1 + 1.5) = 0.2 -> 50s each.
        assert log[0][1] == pytest.approx(50.0)
        assert log[1][1] == pytest.approx(50.0)

    def test_rate_recomputed_when_offload_finishes(self, env, phi):
        log = []

        def short(env):
            phi.register_process("short")
            yield from phi.run_offload("short", 240, 2.0)
            log.append(("short", env.now))
            phi.unregister_process("short")

        def long(env):
            phi.register_process("long")
            yield from phi.run_offload("long", 240, 2.0)
            log.append(("long", env.now))
            phi.unregister_process("long")

        env.process(short(env))
        env.process(long(env))
        env.run()
        # Both run at rate 0.2 while overlapped; each finishes 2/0.2 = 10s.
        assert log[0][1] == pytest.approx(10.0)

    def test_staggered_overlap_accounting(self, env, phi):
        log = []

        def first(env):
            phi.register_process("a")
            yield from phi.run_offload("a", 240, 10.0)
            log.append(("a", env.now))
            phi.unregister_process("a")

        def second(env):
            yield env.timeout(5)
            phi.register_process("b")
            yield from phi.run_offload("b", 240, 10.0)
            log.append(("b", env.now))
            phi.unregister_process("b")

        env.process(first(env))
        env.process(second(env))
        env.run()
        # 'a': 5s alone (5 units) + overlap at rate .2 needs 25s -> t=30.
        assert log[0] == ("a", pytest.approx(30.0))
        # 'b': 25s overlapped (5 units done) + 5s alone -> t=35.
        assert log[1] == ("b", pytest.approx(35.0))

    def test_zero_work_offload_finishes_immediately(self, env, phi):
        log = []
        env.process(_offload_job(env, phi, "j", 60, 0.0, log))
        env.run()
        assert log == [("j", 0.0)]

    def test_invalid_offload_parameters(self, env, phi):
        def bad_threads(env):
            phi.register_process("x")
            yield from phi.run_offload("x", 0, 1.0)

        p = env.process(bad_threads(env))
        with pytest.raises(ValueError):
            env.run()
        assert not p.ok

    def test_offload_outside_process_rejected(self, env, phi):
        phi.register_process("x")
        gen = phi.run_offload("x", 60, 1.0)
        with pytest.raises(RuntimeError):
            next(gen)

    def test_offload_log_records_history(self, env, phi):
        log = []
        env.process(_offload_job(env, phi, "j1", 60, 3.0, log))
        env.run()
        assert len(phi.offload_log) == 1
        record = phi.offload_log[0]
        assert record.owner == "j1"
        assert record.threads == 60
        assert record.completed
        assert record.end == pytest.approx(3.0)

    def test_repr(self, phi):
        assert "mic0" in repr(phi)


def _profiled(scenario):
    prof = profile.activate()
    try:
        return scenario(), prof
    finally:
        profile.deactivate()


class TestRateChanges:
    """A rate change moves each sleeper's wake-up; nobody is interrupted."""

    def _staggered(self):
        env = Environment()
        phi = XeonPhi(env, contention=UnmanagedContention())
        log = []

        def job(owner, delay, threads, work):
            yield env.timeout(delay)
            phi.register_process(owner)
            yield from phi.run_offload(owner, threads, work)
            log.append((owner, env.now))
            phi.unregister_process(owner)

        for spec in (
            ("a", 0.0, 240, 10.0),
            ("b", 0.7, 120, 3.3),
            ("c", 1.3, 180, 7.1),
            ("d", 2.9, 240, 2.2),
            ("e", 4.1, 60, 5.5),
        ):
            env.process(job(*spec))
        env.run()
        return log

    def test_oversubscribed_overlap_finish_times_are_pinned(self):
        # Exact floats recorded when every rate change interrupted each
        # sleeper to re-sleep: moving the wake-up computes the same
        # ``now + remaining / rate``.
        assert self._staggered() == [
            ("d", 120.19974877250411),
            ("b", 138.85785592996078),
            ("e", 165.96828157151612),
            ("c", 174.994299023982),
            ("a", 177.4716635560017),
        ]

    def test_rate_changes_fire_no_interruption(self):
        _, prof = _profiled(self._staggered)
        assert "Interruption" not in prof.events_fired
        # 5 starts + 5 finishes, each moving the other sleepers' wake-ups
        # (20 moves); no resume per move.
        assert prof.events_fired["Timeout"] == 30
        assert prof.process_switches == 15

    def test_work_done_at_a_rate_change_finishes_at_that_instant(self):
        # The sleeper's deadline is the very instant another offload
        # starts, and the starter runs first: the sleeper's work is done,
        # so it finishes now, ahead of the instant's other wake-ups.
        solo = 5.0 / UnmanagedContention().rate(240, PAPER_SPEC)

        def scenario():
            env = Environment()
            phi = XeonPhi(env, contention=UnmanagedContention())
            log = []

            def starter():
                yield env.timeout(solo)
                phi.register_process("a")
                yield from phi.run_offload("a", 240, 1.0)
                log.append(("a", env.now))

            def sleeper():
                phi.register_process("b")
                yield from phi.run_offload("b", 240, 5.0)
                log.append(("b", env.now))

            def bystander():
                yield env.timeout(solo)
                log.append(("c", env.now))

            env.process(starter())
            env.process(sleeper())
            env.process(bystander())
            env.run()
            return log

        log, prof = _profiled(scenario)
        assert log == [("b", solo), ("c", solo), ("a", 6.899999999999999)]
        assert "Interruption" not in prof.events_fired


class TestTelemetry:
    def test_busy_cores_tracked(self, env, phi):
        log = []
        env.process(_offload_job(env, phi, "j1", 120, 10.0, log))
        env.run()
        # 120 threads = 30 cores busy for 10s out of 60 cores.
        assert phi.telemetry.core_utilization(60, 0, 10) == pytest.approx(0.5)

    def test_idle_gaps_reduce_utilization(self, env, phi):
        def job(env):
            phi.register_process("j")
            yield from phi.run_offload("j", 240, 5.0)
            yield env.timeout(5)  # host phase: device idle
            yield from phi.run_offload("j", 240, 5.0)
            phi.unregister_process("j")

        env.process(job(env))
        env.run()
        assert phi.telemetry.core_utilization(60, 0, 15) == pytest.approx(2 / 3)


class TestMemoryAndOOM:
    def test_register_twice_rejected(self, phi):
        phi.register_process("p")
        with pytest.raises(ValueError):
            phi.register_process("p")

    def test_allocate_unregistered_rejected(self, phi):
        with pytest.raises(KeyError):
            phi.allocate("ghost", 100)

    def test_allocation_within_capacity_is_safe(self, phi):
        phi.register_process("p")
        phi.allocate("p", 4000)
        assert phi.resident_of("p") == 4000
        assert phi.telemetry.oom_kills == 0

    def test_oom_kills_largest_resident(self, phi):
        killed = []
        phi.register_process("small", on_kill=killed.append)
        phi.register_process("big", on_kill=killed.append)
        phi.allocate("small", 2000)
        phi.allocate("big", 5000)
        phi.allocate("small", 2000)  # total 9000 > 8192
        assert killed == ["big"]
        assert phi.resident_of("big") == 0
        assert phi.telemetry.oom_kills == 1

    def test_oom_badness_tie_break_is_first_registered(self, phi):
        killed = []
        phi.register_process("first", on_kill=killed.append)
        phi.register_process("second", on_kill=killed.append)
        phi.allocate("first", 4500)
        phi.allocate("second", 4500)
        assert killed == ["first"]

    def test_oom_random_policy(self, env):
        phi = XeonPhi(env, oom_policy="random", rng=random.Random(7))
        killed = []
        phi.register_process("a", on_kill=killed.append)
        phi.register_process("b", on_kill=killed.append)
        phi.allocate("a", 4500)
        phi.allocate("b", 4500)
        assert len(killed) == 1

    def test_random_policy_requires_rng(self, env):
        with pytest.raises(ValueError):
            XeonPhi(env, oom_policy="random")

    def test_unknown_policy_rejected(self, env):
        with pytest.raises(ValueError):
            XeonPhi(env, oom_policy="lifo")

    def test_unregister_reclaims_memory(self, phi):
        phi.register_process("p")
        phi.allocate("p", 1000)
        phi.unregister_process("p")
        assert phi.resident_memory_mb == 0

    def test_set_resident(self, phi):
        phi.register_process("p")
        phi.set_resident("p", 1234)
        assert phi.resident_of("p") == 1234

    def test_negative_amounts_rejected(self, phi):
        phi.register_process("p")
        for method in (phi.allocate, phi.set_resident):
            with pytest.raises(ValueError):
                method("p", -1)

    def test_oom_kill_interrupts_running_offload(self, env, phi):
        outcomes = []

        def victim(env):
            phi.register_process(
                "victim",
                on_kill=lambda owner: proc.interrupt("oom"),
            )
            phi.allocate("victim", 5000)
            try:
                yield from phi.run_offload("victim", 60, 100.0)
                outcomes.append("finished")
            except Interrupt as interrupt:
                outcomes.append(interrupt.cause)
            finally:
                phi.unregister_process("victim")

        def aggressor(env):
            yield env.timeout(1)
            phi.register_process("aggressor")
            phi.allocate("aggressor", 4000)  # pushes total past 8192
            phi.unregister_process("aggressor")

        proc = env.process(victim(env))
        env.process(aggressor(env))
        env.run()
        assert outcomes == ["oom"]
        assert phi.running_offloads == 0

