"""Tests for post-run analysis and replication statistics."""

import math

import pytest

from repro.metrics import (
    Replicated,
    balance_stats,
    compare,
    offload_stats,
    queue_stats,
)
from repro.mpss import JobRunResult
from repro.phi import XeonPhi
from repro.sim import Environment


def result(job_id, start, end):
    return JobRunResult(job_id=job_id, start=start, end=end,
                        status="completed", offloads_run=1)


def device_with_offloads(env, spec):
    """spec: list of (threads, work, delay_before_start)."""
    phi = XeonPhi(env, name="micX")

    def job(env, owner, threads, work, delay):
        yield env.timeout(delay)
        phi.register_process(owner)
        yield from phi.run_offload(owner, threads, work)
        phi.unregister_process(owner)

    for i, (threads, work, delay) in enumerate(spec):
        env.process(job(env, f"j{i}", threads, work, delay))
    env.run()
    return phi


class TestOffloadStats:
    def test_solo_offloads_have_unit_slowdown(self):
        env = Environment()
        phi = device_with_offloads(env, [(240, 10.0, 0.0), (240, 5.0, 20.0)])
        stats = offload_stats(phi)
        assert stats.offloads == 2
        assert stats.total_work == 15.0
        assert stats.mean_slowdown == pytest.approx(1.0)
        assert stats.sharing_overhead == pytest.approx(0.0)
        assert stats.killed == 0

    def test_oversubscribed_offloads_show_slowdown(self):
        env = Environment()
        phi = device_with_offloads(env, [(240, 10.0, 0.0), (240, 10.0, 0.0)])
        stats = offload_stats(phi)
        assert stats.mean_slowdown > 2.0
        assert stats.max_slowdown >= stats.mean_slowdown
        assert stats.sharing_overhead > 1.0

    def test_empty_device(self):
        env = Environment()
        stats = offload_stats(XeonPhi(env))
        assert stats.offloads == 0
        assert stats.mean_slowdown == 1.0


class TestQueueStats:
    def test_waits_default_submit_zero(self):
        stats = queue_stats([result("a", 5, 10), result("b", 15, 30)])
        assert stats.mean_wait == 10.0
        assert stats.max_wait == 15.0
        assert stats.jobs == 2

    def test_submit_times_respected(self):
        stats = queue_stats(
            [result("a", 5, 10)], submit_times={"a": 4.0}
        )
        assert stats.mean_wait == 1.0

    def test_empty(self):
        stats = queue_stats([])
        assert stats.jobs == 0
        assert stats.mean_wait == 0.0


class TestBalanceStats:
    def test_work_split(self):
        env = Environment()
        a = device_with_offloads(env, [(60, 10.0, 0.0)])
        env2 = Environment()
        b = device_with_offloads(env2, [(60, 30.0, 0.0)])
        stats = balance_stats([a, b])
        assert stats.work_per_device == (10.0, 30.0)
        assert stats.work_imbalance == pytest.approx(30 / 20)

    def test_empty_cluster(self):
        assert balance_stats([]).work_imbalance == 1.0


class TestReplication:
    def test_summary_statistics(self):
        rep = Replicated((2.0, 4.0, 6.0))
        assert rep.mean == 4.0
        assert rep.n == 3
        assert rep.minimum == 2.0 and rep.maximum == 6.0

    def test_ci_widens_with_spread(self):
        tight = Replicated((10.0, 10.1, 9.9))
        wide = Replicated((5.0, 15.0, 10.0))
        assert (tight.ci95[1] - tight.ci95[0]) < (wide.ci95[1] - wide.ci95[0])

    def test_single_value_degenerate(self):
        rep = Replicated((7.0,))
        assert rep.std == 0.0
        assert rep.ci95 == (7.0, 7.0)

    def test_str(self):
        assert "n=2" in str(Replicated((1.0, 2.0)))

    def test_compare_detects_gap(self):
        a = Replicated((10.0, 10.5, 9.5, 10.2))
        b = Replicated((20.0, 19.5, 20.5, 20.1))
        assert compare(a, b) < -5  # b is clearly larger

    def test_compare_identical_means(self):
        a = Replicated((10.0, 10.0))
        assert compare(a, a) == 0.0

    def test_compare_needs_replications(self):
        with pytest.raises(ValueError):
            compare(Replicated((1.0,)), Replicated((1.0, 2.0)))


class TestCondorTools:
    def test_condor_q_and_status(self):
        import random

        from repro.cluster import ComputeNode
        from repro.condor import CondorPool, RandomPlacement, condor_q, condor_status
        from repro.workloads import generate_table1_jobs

        env = Environment()
        nodes = [ComputeNode(env, f"n{i}") for i in range(2)]
        pool = CondorPool(env, nodes, RandomPlacement(random.Random(0)),
                          cycle_interval=2.0)
        pool.submit(generate_table1_jobs(6, seed=1))
        pool.start()
        env.run(until=5)

        q = condor_q(pool.schedd)
        assert "Schedd queue" in q
        assert "running" in q
        status = condor_status(pool)
        assert "slot1@n0" in status
        assert "mic0" in status
        env.run(until=pool.schedd.all_done())
        q_done = condor_q(pool.schedd, show_completed=True)
        assert "Completed" in q_done
