"""Tests for daemon crash–recovery: WAL replay, supervision, re-adoption."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ComputeNode, run_configuration
from repro.condor import (
    BACKOFF,
    COMPLETED,
    FAILED,
    IDLE,
    MATCHED,
    RUNNING,
    CondorPool,
    JobQueueLog,
    RandomPlacement,
    RetryPolicy,
    Schedd,
)
from repro.condor.schedd import (
    COMPLETE,
    FAIL,
    MATCH,
    QEDIT,
    RECOVERED,
    REQUEUE,
    RUN,
    SUBMIT,
    UNMATCH,
)
from repro.experiments.common import make_workload
from repro.faults import FaultInjector, FaultProfile, FaultSchedule
from repro.mpss import JobRunResult
from repro.net.profile import NetProfile
from repro.obs import audit
from repro.sim import Environment
from repro.workloads import HostPhase, JobProfile, OffloadPhase

import random


def make_profile(job_id, memory=1000.0, threads=60, work=5.0, host=1.0):
    return JobProfile(
        job_id=job_id,
        app="t",
        phases=(HostPhase(host), OffloadPhase(work=work, threads=threads,
                                              memory_mb=memory)),
        declared_memory_mb=memory,
        declared_threads=threads,
    )


def make_pool(env, nodes=2, recovery=True, net=NetProfile(), **kwargs):
    executors = [
        ComputeNode(env, f"node{i}", mode="cosmic") for i in range(nodes)
    ]
    pool = CondorPool(
        env,
        executors,
        RandomPlacement(random.Random(7)),
        net=net,
        recovery=recovery,
        **kwargs,
    )
    return pool, executors


def _result(job_id, status, attempt=0):
    return JobRunResult(
        job_id=job_id, start=0.0, end=1.0, status=status,
        offloads_run=0, attempt=attempt,
    )


def _queue_snapshot(schedd):
    return [
        (r.job_id, r.status, r.attempts, r.matched_node, r.claim_token,
         r.requeue_at, str(r.ad.get_expr("Requirements")))
        for r in schedd.all_records()
    ]


class TestJobQueueLog:
    def test_recovery_requires_fabric(self):
        env = Environment()
        executors = [ComputeNode(env, "n0", mode="cosmic")]
        with pytest.raises(ValueError, match="fabric"):
            CondorPool(
                env, executors, RandomPlacement(random.Random(7)),
                recovery=True,
            )

    def test_submits_are_journaled(self):
        env = Environment()
        pool, _ = make_pool(env)
        for i in range(5):
            pool.schedd.submit(make_profile(f"j{i}"))
        assert pool.schedd.wal is not None
        kinds = [rec.kind for rec in pool.schedd.wal.records]
        assert kinds.count("submit") == 5

    def test_replay_reconstructs_queue_exactly(self):
        env = Environment()
        pool, _ = make_pool(env)
        schedd = pool.schedd
        for i in range(6):
            schedd.submit(make_profile(f"j{i}"))
        schedd.qedit("j0", "Requirements", "false")
        schedd.mark_matched("j1", token=101)
        schedd.mark_running("j2", "node0", 0)
        schedd.mark_running("j3", "node0", 0)
        schedd.mark_completed("j3", _result("j3", "completed"))
        schedd.mark_running("j4", "node1", 0)
        schedd.mark_failed("j4", _result("j4", "device-failed"))
        before = _queue_snapshot(schedd)
        replayed = schedd.wal.replay(schedd)
        assert replayed == len(schedd.wal.records)
        assert _queue_snapshot(schedd) == before
        # Replayed records are fresh objects, not the old ones.
        assert schedd.get("j0") is not None

    def test_checkpoint_compacts_and_still_replays(self):
        env = Environment()
        pool, _ = make_pool(env)
        schedd = pool.schedd
        for i in range(4):
            schedd.submit(make_profile(f"j{i}"))
        schedd.mark_running("j0", "node0", 0)
        schedd.mark_completed("j0", _result("j0", "completed"))
        before = _queue_snapshot(schedd)
        schedd.wal.checkpoint()
        # One header + one snapshot per job, nothing else.
        assert len(schedd.wal.records) == 1 + 4
        schedd.wal.replay(schedd)
        assert _queue_snapshot(schedd) == before

    def test_journal_auto_compacts(self):
        env = Environment()
        pool, _ = make_pool(env)
        schedd = pool.schedd
        schedd.submit(make_profile("j0"))
        # Churn one job's attribute far past the compaction threshold;
        # the journal must stay bounded by the live queue, not history.
        for i in range(500):
            schedd.qedit("j0", "Rank", str(i))
        assert len(schedd.wal.records) < 200
        assert schedd.wal.compactions > 0
        # The snapshot carries the whole qedit overlay, not just the
        # placement attributes.
        schedd.wal.replay(schedd)
        assert repr(schedd.get("j0").ad.get_expr("Rank")) == "Literal(499)"

    def test_terminal_outcomes_survive_replay(self):
        env = Environment()
        pool, _ = make_pool(env, retry_policy=RetryPolicy(max_retries=0))
        schedd = pool.schedd
        schedd.submit(make_profile("gone"))
        schedd.submit(make_profile("killed"))
        schedd.mark_running("gone", "node0", 0)
        schedd.mark_failed("gone", _result("gone", "device-failed"))
        schedd.mark_running("killed", "node0", 0)
        schedd.mark_completed("killed", _result("killed", "memory-limit"))
        schedd.wal.replay(schedd)
        assert schedd.get("gone").status == FAILED
        assert schedd.get("killed").status == COMPLETED
        assert schedd.get("killed").result.status == "memory-limit"
        # Neither terminal job re-enters the pending queue.
        assert schedd.pending() == []


    def test_new_subscriber_sees_every_transition_after_the_wal(self):
        env = Environment()
        pool, _ = make_pool(env, retry_policy=RetryPolicy(base_backoff_s=5.0))
        schedd = pool.schedd
        seen = []

        def subscriber(tr):
            if tr.kind != RECOVERED:
                # Write-ahead: the journal already holds the transition.
                assert schedd.wal.records[-1] is tr
            seen.append(tr)

        schedd.subscribe(subscriber)
        schedd.submit(make_profile("j0"))
        schedd.qedit("j0", "Rank", "3")
        schedd.mark_matched("j0", token=7)
        schedd.unmatch("j0")
        schedd.mark_running("j0", "node0", 0)
        schedd.mark_failed("j0", _result("j0", "device-failed"))
        env.run(until=env.timeout(10.0))
        schedd.mark_running("j0", "node1", 0)
        schedd.mark_completed("j0", _result("j0", "completed", attempt=1))
        schedd.mark_recovered()
        assert [tr.kind for tr in seen] == [
            SUBMIT, QEDIT, MATCH, UNMATCH, RUN, FAIL, REQUEUE, RUN, COMPLETE,
            RECOVERED,
        ]
        assert all(tr.job_id == "j0" for tr in seen[:-1])
        # Everything but the recovery notice is journaled, in order.
        assert schedd.wal.records == seen[:-1]


def _live_state(schedd):
    return (
        _queue_snapshot(schedd),
        [
            (r.matched_device, r.matched_at, r.result, tuple(r.failures),
             [(name, str(r.ad.get_expr(name))) for name in r.ad.keys()])
            for r in schedd.all_records()
        ],
        [r.job_id for r in schedd.pending()],
        schedd.idle_jobs,
        schedd.unfinished_jobs,
        schedd.requeues,
        schedd.terminal_failures,
    )


_EDITS = st.tuples(
    st.sampled_from(["Requirements", "Rank", "AssignedPhiDevice", "Owner"]),
    st.sampled_from(["false", "true", "0", "1", "499",
                     'TARGET.Name == "slot1@node0"']),
)


class TestLiveAndReplayedStateMachine:
    """The live queue and its replayed journal are one state machine."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_replay_reproduces_live_state(self, data):
        env = Environment()
        schedd = Schedd(
            env, retry_policy=RetryPolicy(max_retries=1, base_backoff_s=5.0)
        )
        JobQueueLog(env, schedd)
        token = 0

        def jobs_in(*statuses):
            return [r.job_id for r in schedd.all_records()
                    if r.status in statuses]

        for _ in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from(
                ["submit", "qedit", "match", "unmatch", "run", "complete",
                 "fail", "requeue", "checkpoint"]
            ))
            if op == "submit":
                job_id = f"j{schedd.total_jobs}"
                submit_time = data.draw(st.sampled_from([0.0, 1.0, 2.0]))
                schedd.submit(
                    dataclasses.replace(make_profile(job_id),
                                        submit_time=submit_time),
                    sharing=data.draw(st.booleans()),
                )
            elif op == "requeue":
                env.run(until=env.timeout(10.0))
            elif op == "checkpoint":
                schedd.wal.checkpoint()
            else:
                statuses = {
                    "qedit": (IDLE,), "match": (IDLE,), "unmatch": (MATCHED,),
                    "run": (IDLE, MATCHED), "complete": (RUNNING,),
                    "fail": (RUNNING,),
                }[op]
                candidates = jobs_in(*statuses)
                if not candidates:
                    continue
                job_id = data.draw(st.sampled_from(candidates))
                if op == "qedit":
                    schedd.qedit(job_id, *data.draw(_EDITS))
                elif op == "match":
                    token += 1
                    schedd.mark_matched(job_id, token)
                elif op == "unmatch":
                    schedd.unmatch(job_id)
                elif op == "run":
                    schedd.mark_running(job_id, "node0", 0)
                elif op == "complete":
                    status = data.draw(st.sampled_from(
                        ["completed", "memory-limit"]))
                    schedd.mark_completed(job_id, _result(job_id, status))
                else:
                    schedd.mark_failed(
                        job_id, _result(job_id, "device-failed"))
        live = _live_state(schedd)
        schedd.wal.replay(schedd)
        assert _live_state(schedd) == live


class TestDaemonSupervisor:
    def _run_with_crashes(self, configuration, crashes, jobs=30, **profile):
        job_set = make_workload(("table1", jobs, 42))
        faults = FaultProfile(crashes=crashes, **profile)
        return run_configuration(
            configuration, job_set, ClusterConfig(),
            faults=faults, fault_seed=7, net=NetProfile(), net_seed=3,
        )

    @pytest.mark.parametrize("configuration", ["MC", "MCC", "MCCK"])
    def test_schedd_crash_recovers_and_drains(self, configuration):
        auditor = audit.activate()
        auditor.enter_cell(f"crash-{configuration}")
        try:
            result = self._run_with_crashes(
                configuration, ((40.0, "schedd"),)
            )
            auditor.finish_cell()
        finally:
            audit.deactivate()
        assert result.completed_jobs == 30
        assert result.daemon_crashes == 1
        assert result.schedd_recoveries == 1
        assert result.wal_replayed > 0
        assert auditor.violations == 0

    @pytest.mark.parametrize("daemon", ["negotiator", "collector"])
    def test_stateless_daemon_crash_drains(self, daemon):
        result = self._run_with_crashes("MCC", ((40.0, daemon),))
        assert result.completed_jobs == 30
        assert result.daemon_crashes == 1
        # No schedd crash: the WAL is written but never replayed.
        assert result.schedd_recoveries == 0
        assert result.wal_replayed == 0

    def test_running_jobs_readopted_across_schedd_crash(self):
        result = self._run_with_crashes("MCC", ((40.0, "schedd"),))
        assert result.jobs_readopted > 0

    def test_crashed_daemon_always_restarts(self):
        env = Environment()
        pool, _ = make_pool(env)
        pool.schedd.submit(make_profile("j0"))
        pool.supervisor.crash_daemon("schedd", downtime_s=5.0)
        assert pool.schedd.down
        assert not pool.supervisor.is_up("schedd")
        env.run(until=env.timeout(10.0))
        # The restart is scheduled before the crash takes effect, so no
        # profile can leave the pool permanently headless.
        assert not pool.schedd.down
        assert pool.supervisor.is_up("schedd")
        assert pool.supervisor.recoveries == 1

    def test_double_crash_rejected_while_down(self):
        env = Environment()
        pool, _ = make_pool(env)
        pool.supervisor.crash_daemon("schedd", downtime_s=20.0)
        with pytest.raises(ValueError, match="already down"):
            pool.supervisor.crash_daemon("schedd", downtime_s=20.0)

    def test_injector_skips_crash_while_daemon_down(self):
        env = Environment()
        pool, executors = make_pool(env)
        for i in range(8):
            pool.schedd.submit(make_profile(f"j{i}", work=60.0))
        profile = FaultProfile(
            crashes=((30.0, "schedd"), (35.0, "schedd")),
            daemon_downtime_s=20.0,
        )
        schedule = FaultSchedule.generate(profile, 5)
        injector = FaultInjector(env, schedule, pool, executors)
        injector.start()
        pool.run_to_completion()
        outcomes = [rec.outcome for rec in injector.log]
        assert outcomes == ["applied", "skipped-daemon-down"]
        assert pool.supervisor.crashes == 1

    def test_injector_without_supervisor_fails_fast(self):
        env = Environment()
        pool, executors = make_pool(env, recovery=False)
        pool.schedd.submit(make_profile("j0"))
        profile = FaultProfile(crashes=((30.0, "schedd"),))
        schedule = FaultSchedule.generate(profile, 5)
        injector = FaultInjector(env, schedule, pool, executors)
        with pytest.raises(ValueError, match="DaemonSupervisor"):
            injector.start()


class TestReplayDeterminism:
    def test_fixed_seed_crash_runs_byte_identical(self):
        job_set = make_workload(("table1", 30, 42))
        faults = FaultProfile(
            daemon_crash_rate=8.0, crashes=((40.0, "schedd"),)
        )

        def once():
            result = run_configuration(
                "MCCK", job_set, ClusterConfig(),
                faults=faults, fault_seed=7, net=NetProfile(), net_seed=3,
            )
            return (
                result.makespan,
                result.daemon_crashes,
                result.schedd_recoveries,
                result.wal_records,
                result.wal_replayed,
                result.jobs_readopted,
                result.requeues,
                tuple((r.job_id, r.status) for r in result.job_results),
            )

        assert once() == once()
