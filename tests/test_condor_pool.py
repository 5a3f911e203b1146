"""Integration tests: startd, collector, negotiator, and the full pool."""

import random

import pytest

from repro.cluster import ComputeNode
from repro.condor import (
    Collector,
    CondorPool,
    ExclusivePlacement,
    PinnedPlacement,
    RandomPlacement,
    Schedd,
    Startd,
)
from repro.sim import Environment
from repro.workloads import HostPhase, JobProfile, OffloadPhase


def make_profile(job_id, memory=1000.0, threads=60, work=5.0, host=1.0):
    return JobProfile(
        job_id=job_id,
        app="t",
        phases=(HostPhase(host), OffloadPhase(work=work, threads=threads,
                                              memory_mb=memory)),
        declared_memory_mb=memory,
        declared_threads=threads,
    )


@pytest.fixture
def env():
    return Environment()


class TestStartd:
    def test_snapshot_reflects_node(self, env):
        node = ComputeNode(env, "n0", mode="cosmic")
        startd = Startd(env, Schedd(env), node, slots=4)
        snapshot = startd.snapshot()
        assert snapshot.node == "n0"
        assert snapshot.free_slots == 4
        assert snapshot.devices[0].free_declared_mb == 8192

    def test_start_job_claims_slot_and_reports(self, env):
        node = ComputeNode(env, "n0", mode="cosmic")
        schedd = Schedd(env)
        startd = Startd(env, schedd, node, slots=2, dispatch_latency=0.5)
        record = schedd.submit(make_profile("j1"))
        startd.start_job(record, device_index=0, exclusive=False)
        assert startd.free_slots == 1
        env.run()
        assert startd.free_slots == 2
        assert schedd.get("j1").status == "Completed"
        assert schedd.get("j1").result.wall_time == pytest.approx(6.0)

    def test_exclusive_claims_device(self, env):
        node = ComputeNode(env, "n0", mode="exclusive")
        schedd = Schedd(env)
        startd = Startd(env, schedd, node, slots=4)
        record = schedd.submit(make_profile("j1"), sharing=False)
        startd.start_job(record, device_index=0, exclusive=True)
        assert startd.snapshot().devices_free == 0
        env.run()
        assert startd.snapshot().devices_free == 1

    def test_no_free_slot_raises(self, env):
        node = ComputeNode(env, "n0")
        schedd = Schedd(env)
        startd = Startd(env, schedd, node, slots=1)
        startd.start_job(schedd.submit(make_profile("a")), 0, False)
        with pytest.raises(RuntimeError):
            startd.start_job(schedd.submit(make_profile("b")), 0, False)

    def test_exclusive_double_claim_raises(self, env):
        node = ComputeNode(env, "n0", mode="exclusive")
        schedd = Schedd(env)
        startd = Startd(env, schedd, node, slots=4)
        startd.start_job(schedd.submit(make_profile("a"), sharing=False), 0, True)
        with pytest.raises(RuntimeError):
            startd.start_job(schedd.submit(make_profile("b"), sharing=False), 0, True)

    def test_exclusive_requires_device(self, env):
        node = ComputeNode(env, "n0", mode="exclusive")
        schedd = Schedd(env)
        startd = Startd(env, schedd, node, slots=4)
        with pytest.raises(ValueError):
            startd.start_job(schedd.submit(make_profile("a"), sharing=False),
                             None, True)

    def test_invalid_construction(self, env):
        node = ComputeNode(env, "n0")
        with pytest.raises(ValueError):
            Startd(env, Schedd(env), node, slots=0)
        with pytest.raises(ValueError):
            Startd(env, Schedd(env), node, dispatch_latency=-1)


class TestCollector:
    def test_register_and_snapshot(self, env):
        collector = Collector()
        schedd = Schedd(env)
        for i in range(3):
            collector.register(Startd(env, schedd, ComputeNode(env, f"n{i}")))
        assert len(collector) == 3
        assert [s.node for s in collector.snapshots()] == ["n0", "n1", "n2"]

    def test_duplicate_rejected(self, env):
        collector = Collector()
        schedd = Schedd(env)
        node = ComputeNode(env, "n0")
        collector.register(Startd(env, schedd, node))
        with pytest.raises(ValueError):
            collector.register(Startd(env, schedd, node))


def build_pool(env, policy, nodes=2, mode="cosmic", **kwargs):
    executors = [ComputeNode(env, f"n{i}", mode=mode) for i in range(nodes)]
    return CondorPool(env, executors, policy, **kwargs)


class TestPoolMC:
    def test_exclusive_serializes_per_device(self, env):
        pool = build_pool(env, ExclusivePlacement(), nodes=1, mode="exclusive",
                          cycle_interval=1.0, dispatch_latency=0.0)
        pool.submit([make_profile(f"j{i}", work=10, host=0) for i in range(3)])
        makespan = pool.run_to_completion()
        # 3 jobs, one device, ~10s each plus negotiation-cycle gaps.
        assert 30 <= makespan <= 35
        assert pool.schedd.unfinished_jobs == 0

    def test_exclusive_never_shares(self, env):
        pool = build_pool(env, ExclusivePlacement(), nodes=1, mode="exclusive",
                          cycle_interval=1.0)
        pool.submit([make_profile(f"j{i}") for i in range(4)])
        pool.run_to_completion()
        device = pool.startds[0].executor.devices[0]
        # Exclusive allocation: at most one offload ran at any time.
        assert max(device.telemetry.busy_threads.values, default=0) <= 60


class TestPoolMCC:
    def test_random_policy_shares_devices(self, env):
        pool = build_pool(env, RandomPlacement(random.Random(3)), nodes=1,
                          cycle_interval=1.0)
        pool.submit([make_profile(f"j{i}", memory=1000, work=10, host=0)
                     for i in range(4)])
        makespan = pool.run_to_completion()
        node = pool.startds[0].executor
        assert node.cosmics[0].stats.peak_concurrent_jobs >= 2
        # Sharing must beat strict serialization (4 x 10s) even with the
        # concurrency interference penalty.
        assert makespan < 40

    def test_declared_memory_never_oversubscribed(self, env):
        pool = build_pool(env, RandomPlacement(random.Random(3)), nodes=2,
                          cycle_interval=1.0)
        pool.submit([make_profile(f"j{i}", memory=3000) for i in range(8)])
        pool.run_to_completion()
        for startd in pool.startds:
            for device in startd.executor.devices:
                # Physical residency stayed within the card.
                peak = max(device.telemetry.resident_memory_mb.values, default=0)
                assert peak <= 8192


class TestPoolMCCK:
    def test_pinned_jobs_run_only_on_their_node(self, env):
        pool = build_pool(env, PinnedPlacement(), nodes=2, cycle_interval=1.0)
        pool.submit([make_profile("a"), make_profile("b")])
        pool.schedd.qedit("a", "Requirements", 'TARGET.Name == "slot1@n1"')
        pool.schedd.qedit("b", "Requirements", 'TARGET.Name == "slot1@n0"')
        pool.run_to_completion()
        assert pool.schedd.get("a").matched_node == "n1"
        assert pool.schedd.get("b").matched_node == "n0"

    def test_parked_jobs_never_dispatch(self, env):
        pool = build_pool(env, PinnedPlacement(), nodes=1, cycle_interval=1.0)
        pool.submit([make_profile("a"), make_profile("stuck")])
        pool.schedd.qedit("a", "Requirements", 'TARGET.Name == "slot1@n0"')
        pool.schedd.qedit("stuck", "Requirements", "false")
        pool.start()
        env.run(until=50)
        assert pool.schedd.get("a").status == "Completed"
        assert pool.schedd.get("stuck").status == "Idle"


class TestReschedule:
    def test_completion_triggers_extra_cycle(self, env):
        # With a huge periodic interval, only condor_reschedule can get
        # the second job started after the first completes.
        nodes = [ComputeNode(env, "n0", mode="exclusive")]
        pool = CondorPool(env, nodes, ExclusivePlacement(),
                          cycle_interval=1000.0, dispatch_latency=0.0,
                          reschedule_on_completion=True)
        pool.submit([make_profile("a", work=5, host=0),
                     make_profile("b", work=5, host=0)])
        makespan = pool.run_to_completion()
        # Without rescheduling 'b' would wait until t=1000.
        assert makespan < 20
        assert pool.negotiator.cycles_run >= 2

    def test_without_reschedule_waits_for_timer(self, env):
        nodes = [ComputeNode(env, "n0", mode="exclusive")]
        pool = CondorPool(env, nodes, ExclusivePlacement(),
                          cycle_interval=50.0, dispatch_latency=0.0)
        pool.submit([make_profile("a", work=5, host=0),
                     make_profile("b", work=5, host=0)])
        makespan = pool.run_to_completion()
        assert makespan >= 50  # 'b' started at the second periodic cycle

    def test_reschedule_storm_is_coalesced(self, env):
        nodes = [ComputeNode(env, "n0", mode="cosmic") for _ in range(1)]
        pool = CondorPool(env, nodes, RandomPlacement(random.Random(0)),
                          cycle_interval=100.0, dispatch_latency=0.0,
                          reschedule_on_completion=True)
        pool.submit([make_profile(f"j{i}", memory=500, work=2, host=0)
                     for i in range(10)])
        pool.run_to_completion()
        # Far fewer cycles than completions + periodic storms.
        assert pool.negotiator.cycles_run <= 14

    def test_invalid_reschedule_delay(self, env):
        from repro.condor import Negotiator, Schedd, Collector

        with pytest.raises(ValueError):
            Negotiator(env, Schedd(env), Collector(), ExclusivePlacement(),
                       reschedule_delay=-1)


class TestPoolValidation:
    def test_empty_pool_rejected(self, env):
        with pytest.raises(ValueError):
            CondorPool(env, [], ExclusivePlacement())

    def test_run_without_jobs_rejected(self, env):
        pool = build_pool(env, ExclusivePlacement(), mode="exclusive")
        with pytest.raises(ValueError):
            pool.run_to_completion()

    def test_run_with_limit_times_out(self, env):
        pool = build_pool(env, PinnedPlacement(), nodes=1)
        pool.submit([make_profile("never")])
        pool.schedd.qedit("never", "Requirements", "false")
        with pytest.raises(TimeoutError):
            pool.run_to_completion(limit=10.0)

    def test_run_with_limit_stops_at_drain(self):
        def run(limit):
            env = Environment()
            pool = build_pool(env, ExclusivePlacement(), mode="exclusive",
                              cycle_interval=1.0)
            pool.submit([make_profile(f"j{i}", work=10) for i in range(4)])
            return env, pool.run_to_completion(limit=limit)

        _, unlimited = run(None)
        env, limited = run(10_000.0)
        assert limited == unlimited
        # The run ends when the queue drains, not at the deadline.
        assert env.now == limited
        # The deadline still queued is inert once the queue has drained.
        env.run(until=20_000.0)
        assert env.now == 20_000.0

    def test_negotiator_restart_rejected(self, env):
        pool = build_pool(env, ExclusivePlacement(), mode="exclusive")
        pool.submit([make_profile("a", memory=500)])
        pool.start()
        with pytest.raises(RuntimeError):
            pool.negotiator.start()

    def test_invalid_cycle_interval(self, env):
        from repro.condor import Negotiator
        pool = build_pool(env, ExclusivePlacement(), mode="exclusive")
        with pytest.raises(ValueError):
            Negotiator(env, pool.schedd, pool.collector, ExclusivePlacement(),
                       cycle_interval=0)
