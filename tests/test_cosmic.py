"""Unit tests for the COSMIC middleware: admission, gating, containers."""

import random

import pytest

from repro.cosmic import (
    Cosmic,
    DeclaredMemoryEnforcer,
)
from repro.mpss import MemoryLimitExceeded
from repro.phi import XeonPhi
from repro.sim import Environment, profile
from repro.workloads import HostPhase, JobProfile, OffloadPhase


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cosmic(env):
    return Cosmic(env, XeonPhi(env))


class TestJobAdmission:
    def test_admission_draws_down_pool(self, env, cosmic):
        def run(env):
            yield cosmic.admit_job(3000)

        env.process(run(env))
        env.run()
        assert cosmic.free_declared_memory_mb == 8192 - 3000
        assert cosmic.resident_jobs == 1
        assert cosmic.stats.jobs_admitted == 1

    def test_admission_blocks_until_release(self, env, cosmic):
        admitted = []

        def big(env):
            yield cosmic.admit_job(6000)
            admitted.append(("big", env.now))
            yield env.timeout(10)
            cosmic.release_job(6000)

        def other(env):
            yield cosmic.admit_job(4000)
            admitted.append(("other", env.now))
            cosmic.release_job(4000)

        env.process(big(env))
        env.process(other(env))
        env.run()
        assert admitted == [("big", 0), ("other", 10)]
        assert cosmic.resident_jobs == 0
        assert cosmic.stats.jobs_released == 2

    def test_oversized_declaration_clamped_to_card(self, env, cosmic):
        admitted = []

        def run(env):
            yield cosmic.admit_job(20_000)  # bigger than the 8 GB card
            admitted.append(env.now)
            cosmic.release_job(20_000)

        env.process(run(env))
        env.run()
        assert admitted == [0]
        assert cosmic.free_declared_memory_mb == 8192

    def test_peak_concurrency_tracked(self, env, cosmic):
        def run(env, mb):
            yield cosmic.admit_job(mb)
            yield env.timeout(5)
            cosmic.release_job(mb)

        for mb in (1000, 2000, 3000):
            env.process(run(env, mb))
        env.run()
        assert cosmic.stats.peak_concurrent_jobs == 3


    def test_fractional_declarations_return_the_card_exactly(self, env, cosmic):
        # Regression: a float MB ledger drifted (8191.999999999986 of 8192
        # MB after this sequence), so a whole-card job never got in.
        rng = random.Random(7)
        held = []
        for _ in range(11_500):
            if held and rng.random() < 0.5:
                cosmic.release_job(held.pop(rng.randrange(len(held))))
            else:
                mb = round(rng.uniform(0.1, 1500.0), 1)
                if cosmic.free_declared_memory_mb >= mb:
                    assert cosmic.admit_job(mb).triggered
                    held.append(mb)
            env.run()
        while held:
            cosmic.release_job(held.pop())
        assert cosmic.free_declared_memory_mb == 8192
        whole = cosmic.admit_job(20_000)  # clamped to the whole card
        env.run()
        assert whole.processed
        assert cosmic.free_declared_memory_mb == 0

    def test_over_release_raises(self, env, cosmic):
        def run(env):
            yield cosmic.admit_job(100.5)
            cosmic.release_job(100.5)

        env.process(run(env))
        env.run()
        with pytest.raises(ValueError):
            cosmic.release_job(0.1)
        with pytest.raises(ValueError):
            cosmic.release(1)
        assert cosmic.free_declared_memory_mb == 8192
        assert cosmic.free_threads == 240

    def test_releases_schedule_no_event(self):
        prof = profile.activate()
        try:
            env = Environment()
            cosmic = Cosmic(env, XeonPhi(env))

            def run(env):
                yield cosmic.admit_job(3000)
                yield cosmic.acquire(240)
                yield env.timeout(1)
                cosmic.release(240)
                cosmic.release_job(3000)

            env.process(run(env))
            env.run()
        finally:
            profile.deactivate()
        assert "ContainerPut" not in prof.events_scheduled
        assert prof.events_scheduled["ContainerGet"] == 2
        assert cosmic.free_declared_memory_mb == 8192
        assert cosmic.free_threads == 240


class TestOffloadGate:
    def test_grants_within_budget_immediately(self, env, cosmic):
        times = []

        def run(env, threads):
            yield cosmic.acquire(threads)
            times.append(env.now)
            yield env.timeout(1)
            cosmic.release(threads)

        env.process(run(env, 120))
        env.process(run(env, 120))
        env.run()
        assert times == [0, 0]
        assert cosmic.free_threads == 240

    def test_serializes_past_budget(self, env, cosmic):
        times = []

        def run(env, tag, threads, hold):
            yield cosmic.acquire(threads)
            times.append((tag, env.now))
            yield env.timeout(hold)
            cosmic.release(threads)

        env.process(run(env, "a", 240, 5))
        env.process(run(env, "b", 240, 5))
        env.run()
        assert times == [("a", 0), ("b", 5)]

    def test_clamps_monster_offloads(self, env, cosmic):
        times = []

        def run(env):
            yield cosmic.acquire(999)
            times.append(env.now)
            cosmic.release(999)

        env.process(run(env))
        env.run()
        assert times == [0]
        assert cosmic.free_threads == 240

    def test_invalid_thread_counts_rejected(self, cosmic):
        with pytest.raises(ValueError):
            cosmic.acquire(0)
        with pytest.raises(ValueError):
            cosmic.release(-1)

    def test_stats(self, env, cosmic):
        def run(env):
            yield cosmic.acquire(240)
            yield env.timeout(1)
            cosmic.release(240)

        env.process(run(env))
        env.run()
        assert cosmic.stats.offloads_gated == 1
        assert cosmic.stats.peak_gated_threads == 240

    def test_repr(self, cosmic):
        assert "free_threads=240" in repr(cosmic)


class TestEnforcer:
    def _job(self, declared, job_id="j"):
        return JobProfile(
            job_id=job_id,
            app="t",
            phases=(HostPhase(1.0), OffloadPhase(work=1, threads=6, memory_mb=100)),
            declared_memory_mb=declared,
            declared_threads=60,
        )

    def test_within_limit_passes(self):
        DeclaredMemoryEnforcer().check(self._job(1000), 999)

    def test_over_limit_kills(self):
        enforcer = DeclaredMemoryEnforcer()
        with pytest.raises(MemoryLimitExceeded):
            enforcer.check(self._job(1000), 1500)
        assert enforcer.kills == ["j"]

    def test_kills_are_idempotent_per_job(self):
        # A job can trip the limit at several offload phases before the
        # kill unwinds; the ledger must count the job once, not once per
        # check, while still raising every time.
        enforcer = DeclaredMemoryEnforcer()
        for _ in range(3):
            with pytest.raises(MemoryLimitExceeded):
                enforcer.check(self._job(1000), 1500)
        assert enforcer.kills == ["j"]
        with pytest.raises(MemoryLimitExceeded):
            enforcer.check(self._job(1000, job_id="k"), 1500)
        assert enforcer.kills == ["j", "k"]

    def test_tolerance(self):
        enforcer = DeclaredMemoryEnforcer(tolerance=0.10)
        enforcer.check(self._job(1000), 1099)
        with pytest.raises(MemoryLimitExceeded):
            enforcer.check(self._job(1000), 1101)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            DeclaredMemoryEnforcer(tolerance=-0.1)
