"""Tests for the knapsack cluster scheduler (the Fig. 4 loop)."""

import pytest

from repro.cluster import ComputeNode
from repro.condor import CondorPool, PinnedPlacement
from repro.condor.schedd import COMPLETE, RUN
from repro.core import DevicePacker, KnapsackClusterScheduler, PARK_EXPRESSION
from repro.sim import Environment
from repro.workloads import HostPhase, JobProfile, OffloadPhase


def make_profile(job_id, memory=1000.0, threads=60, work=5.0, host=1.0):
    return JobProfile(
        job_id=job_id,
        app="t",
        phases=(HostPhase(host),
                OffloadPhase(work=work, threads=threads, memory_mb=memory)),
        declared_memory_mb=memory,
        declared_threads=threads,
    )


@pytest.fixture
def env():
    return Environment()


def build(env, nodes=2, slots=16, cycle=1.0):
    executors = [ComputeNode(env, f"n{i}", mode="cosmic") for i in range(nodes)]
    return CondorPool(env, executors, PinnedPlacement(),
                      slots_per_node=slots, cycle_interval=cycle,
                      dispatch_latency=0.1)


class TestAttach:
    def test_initial_pack_assigns_and_parks(self, env):
        pool = build(env, nodes=1)
        # 8 GB card: five 2000 MB jobs -> 4 packed, 1 parked.
        pool.submit([make_profile(f"j{i}", memory=2000) for i in range(5)])
        scheduler = KnapsackClusterScheduler(pool, packer=DevicePacker())
        scheduler.attach()
        assert scheduler.assigned_jobs == 4
        parked = [
            r for r in pool.schedd.pending()
            if r.ad.evaluate("Requirements") is False
        ]
        assert len(parked) == 1

    def test_double_attach_rejected(self, env):
        pool = build(env)
        pool.submit([make_profile("a")])
        scheduler = KnapsackClusterScheduler(pool)
        scheduler.attach()
        with pytest.raises(RuntimeError):
            scheduler.attach()

    def test_ledger_tracks_commitment(self, env):
        pool = build(env, nodes=1)
        pool.submit([make_profile("a", memory=3000), make_profile("b", memory=4000)])
        scheduler = KnapsackClusterScheduler(pool, packer=DevicePacker())
        scheduler.attach()
        assert scheduler.committed_mb("n0", 0) == 7000
        assert scheduler.assignment_of("a") == ("n0", 0)


class TestFig4Loop:
    def test_completion_triggers_repack(self, env):
        pool = build(env, nodes=1)
        # Three 3000 MB jobs: two fit initially, third packs on completion.
        pool.submit([make_profile(f"j{i}", memory=3000, work=3, host=0)
                     for i in range(3)])
        scheduler = KnapsackClusterScheduler(pool, packer=DevicePacker())
        scheduler.attach()
        assert scheduler.assigned_jobs == 2
        makespan = pool.run_to_completion()
        assert pool.schedd.unfinished_jobs == 0
        # The repack decision was recorded.
        assert len(scheduler.decisions) >= 2

    def test_all_jobs_eventually_run(self, env):
        pool = build(env, nodes=2)
        pool.submit([make_profile(f"j{i}", memory=2500, work=2, host=0.5)
                     for i in range(12)])
        scheduler = KnapsackClusterScheduler(pool)
        scheduler.attach()
        pool.run_to_completion()
        assert len(pool.schedd.completed()) == 12

    def test_commitment_never_exceeds_capacity(self, env):
        pool = build(env, nodes=2)
        pool.submit([make_profile(f"j{i}", memory=1500 + 100 * (i % 5), work=1)
                     for i in range(20)])
        scheduler = KnapsackClusterScheduler(pool)

        over = []

        def check(tr):
            if tr.kind != COMPLETE:
                return
            for (node, device), committed in scheduler._committed.items():
                if committed > scheduler._capacity[(node, device)] + 1e-9:
                    over.append((node, device, committed))

        scheduler.attach()
        pool.schedd.subscribe(check)
        pool.run_to_completion()
        assert not over

    def test_host_slot_bound_respected(self, env):
        pool = build(env, nodes=1, slots=3)
        pool.submit([make_profile(f"j{i}", memory=100, work=5) for i in range(10)])
        scheduler = KnapsackClusterScheduler(pool, respect_host_slots=True)
        scheduler.attach()
        assert scheduler.assigned_jobs == 3

    def test_host_slot_bound_can_be_disabled(self, env):
        pool = build(env, nodes=1, slots=3)
        pool.submit([make_profile(f"j{i}", memory=100, threads=16, work=5)
                     for i in range(10)])
        scheduler = KnapsackClusterScheduler(pool, respect_host_slots=False)
        scheduler.attach()
        assert scheduler.assigned_jobs > 3

    def test_thread_cap_packer_limits_declared_threads(self, env):
        pool = build(env, nodes=1)
        pool.submit([make_profile(f"j{i}", memory=500, threads=180)
                     for i in range(4)])
        scheduler = KnapsackClusterScheduler(
            pool, packer=DevicePacker(thread_capacity=240)
        )
        scheduler.attach()
        # 180+180 > 240: only one job per knapsack fill.
        assert scheduler.assigned_jobs == 1

    def test_dynamic_submission_schedules_new_jobs(self, env):
        pool = build(env, nodes=1)
        # 'first' runs long enough that 'late' arrives before the queue
        # drains (run_to_completion returns when the queue empties).
        pool.submit([make_profile("first", memory=1000, work=10, host=0)])
        scheduler = KnapsackClusterScheduler(pool)
        scheduler.attach()

        def late_submitter(env):
            yield env.timeout(3)
            pool.submit([make_profile("late", memory=1000, work=2, host=0)])
            scheduler.schedule_pending()

        env.process(late_submitter(env))
        pool.run_to_completion()
        assert pool.schedd.get("late").status == "Completed"

    def test_park_expression_constant(self):
        assert PARK_EXPRESSION == "false"

    def test_zero_value_jobs_never_starve(self, env):
        # Eq. 1 (unfloored) rates 240-thread jobs at exactly zero; the
        # progress guarantee must still run them (regression: this used
        # to livelock the whole simulation).
        from repro.core import paper_value

        pool = build(env, nodes=1)
        pool.submit([make_profile(f"big{i}", memory=500, threads=240, work=2)
                     for i in range(3)])
        scheduler = KnapsackClusterScheduler(
            pool, packer=DevicePacker(value_fn=paper_value)
        )
        scheduler.attach()
        makespan = pool.run_to_completion(limit=500.0)
        assert len(pool.schedd.completed()) == 3


class TestParkingOnSubmission:
    """Regression: post-attach arrivals must never reach the vanilla
    negotiator with their default Requirements (the parking leak)."""

    def test_late_arrival_parked_immediately(self, env):
        pool = build(env, nodes=1)
        pool.submit([make_profile("first", memory=1000, work=10, host=0)])
        scheduler = KnapsackClusterScheduler(pool)
        scheduler.attach()
        pool.submit([make_profile("late", memory=1000, work=2, host=0)])
        record = pool.schedd.get("late")
        assert record.ad.evaluate("Requirements") is False

    def test_no_job_starts_without_assignment(self, env):
        # Long cycle gap + no manual schedule_pending: pre-fix, the
        # vanilla negotiator dispatched the late arrivals to arbitrary
        # nodes before the scheduler ever saw them.
        pool = build(env, nodes=2, cycle=1.0)
        pool.submit([make_profile(f"j{i}", memory=2000, work=4, host=0)
                     for i in range(6)])
        scheduler = KnapsackClusterScheduler(pool)
        scheduler.attach()

        violations = []

        def check_start(tr):
            if tr.kind == RUN and scheduler.assignment_of(tr.job_id) is None:
                violations.append(tr.job_id)

        pool.schedd.subscribe(check_start)

        def late_submitter(env):
            for i in range(4):
                yield env.timeout(1.5)
                pool.submit([make_profile(f"late{i}", memory=1500, work=2,
                                          host=0)])

        env.process(late_submitter(env))
        pool.run_to_completion(limit=500.0)
        assert not violations
        assert pool.schedd.unfinished_jobs == 0

    def test_assigned_job_is_unparked(self, env):
        pool = build(env, nodes=1)
        pool.submit([make_profile("a", memory=1000)])
        scheduler = KnapsackClusterScheduler(pool)
        scheduler.attach()
        record = pool.schedd.get("a")
        assert record.ad.evaluate("Requirements") is not False


class TestCoalescedRepacking:
    def test_same_timestep_completions_trigger_one_pass(self, env):
        pool = build(env, nodes=1)
        # Four identical jobs co-pack, run in lockstep, and complete on
        # the same timestep; four more wait parked.
        pool.submit([make_profile(f"j{i}", memory=2000, threads=32, work=3,
                                  host=0) for i in range(8)])
        scheduler = KnapsackClusterScheduler(pool)
        scheduler.attach()
        assert scheduler.assigned_jobs == 4
        pool.run_to_completion()
        assert pool.schedd.unfinished_jobs == 0
        # 4 simultaneous completions per wave -> 1 repack pass per wave.
        assert scheduler.coalesced_completions >= 3
        assert scheduler.repack_passes <= 3

    def test_repack_still_fills_freed_capacity(self, env):
        pool = build(env, nodes=1)
        pool.submit([make_profile(f"j{i}", memory=3000, work=3, host=0)
                     for i in range(3)])
        scheduler = KnapsackClusterScheduler(pool)
        scheduler.attach()
        pool.run_to_completion()
        assert len(pool.schedd.completed()) == 3
        assert scheduler.repack_passes >= 1


class TestPendingIndex:
    def test_index_tracks_queue(self, env):
        pool = build(env, nodes=1)
        pool.submit([make_profile(f"j{i}", memory=3000) for i in range(4)])
        scheduler = KnapsackClusterScheduler(pool)
        scheduler.attach()
        unassigned = scheduler._unassigned_pending()
        expected = [
            r for r in pool.schedd.pending()
            if r.job_id not in scheduler._assignment
        ]
        assert [r.job_id for r in unassigned] == [r.job_id for r in expected]

    def test_out_of_order_submit_times_resorted(self, env):
        pool = build(env, nodes=1)
        pool.submit([make_profile("first", memory=1000, work=10, host=0)])
        scheduler = KnapsackClusterScheduler(pool)
        scheduler.attach()
        # Deliberately submit with an *earlier* submit_time than the
        # queue tail: FIFO order is (submit_time, seq), not insertion.
        from repro.workloads import JobProfile, HostPhase, OffloadPhase

        def profile(job_id, submit_time):
            return JobProfile(
                job_id=job_id, app="t",
                phases=(OffloadPhase(work=1, threads=16, memory_mb=9000),),
                declared_memory_mb=9000, declared_threads=16,
                submit_time=submit_time,
            )

        pool.submit([profile("b", 5.0)])
        pool.submit([profile("a", 2.0)])
        order = [r.job_id for r in scheduler._unassigned_pending()]
        assert order == ["a", "b"]

    def test_completed_unassigned_job_purged(self, env):
        pool = build(env, nodes=1)
        pool.submit([make_profile(f"j{i}", memory=3000, work=2, host=0)
                     for i in range(3)])
        scheduler = KnapsackClusterScheduler(pool)
        scheduler.attach()
        pool.run_to_completion()
        assert scheduler._unassigned_pending() == []
        assert scheduler._shapes == {}

