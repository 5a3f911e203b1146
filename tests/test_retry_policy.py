"""Unit tests for RetryPolicy and the schedd's requeue/backoff path."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.condor import (
    BACKOFF,
    FAILED,
    IDLE,
    INFRASTRUCTURE_STATUSES,
    RetryPolicy,
    Schedd,
)
from repro.condor.schedd import FAIL, REQUEUE
from repro.mpss import JobRunResult
from repro.sim import Environment
from repro.workloads import generate_table1_jobs


@pytest.fixture
def env():
    return Environment()


def _failed_result(job_id, status="device-failed", attempt=0):
    return JobRunResult(
        job_id=job_id, start=0.0, end=1.0, status=status,
        offloads_run=0, attempt=attempt,
    )


class TestRetryPolicy:
    def test_defaults_bound_retries(self):
        policy = RetryPolicy()
        assert policy.should_retry("device-failed", 1)
        assert policy.should_retry("device-failed", policy.max_retries)
        assert not policy.should_retry("device-failed", policy.max_retries + 1)

    def test_container_kills_never_retry(self):
        policy = RetryPolicy()
        assert not policy.should_retry("memory-limit", 1)
        assert not policy.should_retry("oom-killed", 1)
        assert not policy.should_retry("completed", 1)

    def test_all_infrastructure_statuses_retry(self):
        policy = RetryPolicy()
        for status in INFRASTRUCTURE_STATUSES:
            assert policy.should_retry(status, 1)

    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            base_backoff_s=10.0, backoff_factor=2.0, max_backoff_s=35.0
        )
        assert policy.backoff(1) == 10.0
        assert policy.backoff(2) == 20.0
        assert policy.backoff(3) == 35.0  # capped, not 40
        assert policy.backoff(10) == 35.0

    def test_zero_retries_allowed(self):
        policy = RetryPolicy(max_retries=0)
        assert not policy.should_retry("device-failed", 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestBackoffJitter:
    """Seeded deterministic jitter: spreads storms, never breaks replays."""

    def test_zero_jitter_and_keyless_calls_are_unchanged(self):
        plain = RetryPolicy(base_backoff_s=10.0)
        jittered = RetryPolicy(base_backoff_s=10.0, jitter=0.5)
        for attempt in (1, 2, 3):
            assert plain.backoff(attempt, key="job-1") == plain.backoff(attempt)
            # No key → no draw, even with jitter configured.
            assert jittered.backoff(attempt) == plain.backoff(attempt)

    def test_distinct_jobs_spread_out(self):
        # The point of the satellite: sixteen jobs failed by one node
        # crash must not all re-queue in the same negotiation cycle.
        policy = RetryPolicy(base_backoff_s=30.0, jitter=0.25, jitter_seed=7)
        delays = {policy.backoff(1, key=f"job-{i}") for i in range(16)}
        assert len(delays) > 1

    @given(
        jitter=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        attempt=st.integers(min_value=1, max_value=8),
        key=st.text(min_size=1, max_size=20),
        base=st.floats(min_value=0.1, max_value=100.0),
        factor=st.floats(min_value=1.0, max_value=4.0),
    )
    def test_jittered_delay_is_bounded_and_deterministic(
        self, jitter, seed, attempt, key, base, factor
    ):
        policy = RetryPolicy(
            base_backoff_s=base, backoff_factor=factor,
            jitter=jitter, jitter_seed=seed,
        )
        undithered = RetryPolicy(
            base_backoff_s=base, backoff_factor=factor
        ).backoff(attempt)
        delay = policy.backoff(attempt, key=key)
        # Bounded: scaled into [1 - jitter, 1] × the exponential delay.
        assert undithered * (1.0 - jitter) <= delay <= undithered
        # Deterministic: same (seed, key, attempt) → same draw, always.
        assert delay == policy.backoff(attempt, key=key)

    def test_draw_varies_with_seed_key_and_attempt(self):
        policy = RetryPolicy(base_backoff_s=30.0, jitter=0.5, jitter_seed=1)
        other_seed = RetryPolicy(base_backoff_s=30.0, jitter=0.5, jitter_seed=2)
        assert policy.backoff(1, key="j") != other_seed.backoff(1, key="j")
        assert policy.backoff(1, key="j1") != policy.backoff(1, key="j2")
        # Attempts 1 and 2 differ by more than the 2× exponential step
        # alone (the jitter draw is keyed on the attempt too).
        assert policy.backoff(2, key="j") != 2.0 * policy.backoff(1, key="j")


class TestScheddFailurePath:
    def _submit_one(self, env, **policy_kwargs):
        schedd = Schedd(env, retry_policy=RetryPolicy(**policy_kwargs))
        profile = generate_table1_jobs(1, seed=3)[0]
        record = schedd.submit(profile)
        return schedd, record

    def test_infrastructure_failure_requeues_after_backoff(self, env):
        schedd, record = self._submit_one(env, base_backoff_s=30.0)
        schedd.mark_running(record.job_id, "node0", 0)
        schedd.mark_failed(record.job_id, _failed_result(record.job_id))
        assert record.status == BACKOFF
        assert record.attempts == 1
        assert record.matched_node is None
        env.run(until=29.0)
        assert record.status == BACKOFF
        env.run(until=31.0)
        assert record.status == IDLE
        assert schedd.requeues == 1

    def test_requeue_restores_submit_requirements(self, env):
        schedd, record = self._submit_one(env)
        original = repr(record.ad.get_expr("Requirements"))
        schedd.qedit(record.job_id, "Requirements", "false")
        schedd.mark_running(record.job_id, "node0", 0)
        schedd.mark_failed(record.job_id, _failed_result(record.job_id))
        env.run(until=1000.0)
        assert record.status == IDLE
        assert repr(record.ad.get_expr("Requirements")) == original

    def test_retries_exhausted_is_terminal(self, env):
        schedd, record = self._submit_one(env, max_retries=2, base_backoff_s=1.0)
        for attempt in range(3):
            env.run(until=env.now + 100.0)
            assert record.status == IDLE
            schedd.mark_running(record.job_id, "node0", 0)
            schedd.mark_failed(
                record.job_id, _failed_result(record.job_id, attempt=attempt)
            )
        assert record.status == FAILED
        assert record.attempts == 3
        assert record.result is not None
        assert schedd.terminal_failures == 1
        assert len(record.failures) == 3

    def test_memory_limit_rejected_by_mark_failed_policy(self, env):
        # Kill-by-container is not retryable: it terminally fails even on
        # the first attempt (callers route kills through mark_completed;
        # this guards the policy if one reaches mark_failed anyway).
        schedd, record = self._submit_one(env)
        schedd.mark_running(record.job_id, "node0", 0)
        schedd.mark_failed(
            record.job_id, _failed_result(record.job_id, status="memory-limit")
        )
        assert record.status == FAILED

    def test_terminal_failure_triggers_all_done(self, env):
        schedd, record = self._submit_one(env, max_retries=0)
        done = schedd.all_done()
        schedd.mark_running(record.job_id, "node0", 0)
        schedd.mark_failed(record.job_id, _failed_result(record.job_id))
        env.run()
        assert done.triggered
        assert schedd.unfinished_jobs == 0

    def test_failure_and_requeue_listeners_fire(self, env):
        schedd, record = self._submit_one(env, base_backoff_s=5.0)
        failures = []
        requeues = []

        def listen(tr):
            if tr.kind == FAIL:
                failures.append((tr.job_id, tr.retry))
            elif tr.kind == REQUEUE:
                requeues.append(tr.job_id)

        schedd.subscribe(listen)
        schedd.mark_running(record.job_id, "node0", 0)
        schedd.mark_failed(record.job_id, _failed_result(record.job_id))
        assert failures == [(record.job_id, True)]
        env.run()
        assert requeues == [record.job_id]

    def test_mark_failed_requires_running(self, env):
        schedd, record = self._submit_one(env)
        with pytest.raises(ValueError):
            schedd.mark_failed(record.job_id, _failed_result(record.job_id))


class TestRetryBoundaryAcrossRecovery:
    """RetryPolicy boundary semantics, including across a schedd crash.

    The contract: a job is retried while ``attempts <= max_retries``, so
    it runs exactly ``max_retries + 1`` times before failing terminally —
    and a schedd crash/replay in the middle must neither reset nor
    double-count the attempt ledger.
    """

    def _recovery_pool(self, env, **policy_kwargs):
        import random

        from repro.cluster import ComputeNode
        from repro.condor import CondorPool, RandomPlacement
        from repro.net.profile import NetProfile

        executors = [ComputeNode(env, "node0", mode="cosmic")]
        return CondorPool(
            env,
            executors,
            RandomPlacement(random.Random(7)),
            net=NetProfile(),
            recovery=True,
            retry_policy=RetryPolicy(**policy_kwargs),
        )

    def _fail_once(self, schedd, record, attempt):
        schedd.mark_running(record.job_id, "node0", 0)
        schedd.mark_failed(
            record.job_id, _failed_result(record.job_id, attempt=attempt)
        )

    def test_attempts_exactly_at_max_retries_still_retries(self, env):
        schedd = Schedd(env, retry_policy=RetryPolicy(max_retries=1,
                                                      base_backoff_s=1.0))
        record = schedd.submit(generate_table1_jobs(1, seed=3)[0])
        self._fail_once(schedd, record, 0)
        # attempts == max_retries: exactly at the boundary, retried.
        assert record.attempts == 1
        assert record.status == BACKOFF
        env.run(until=env.now + 10.0)
        self._fail_once(schedd, record, 1)
        # attempts == max_retries + 1: one past the boundary, terminal —
        # the job ran max_retries + 1 = 2 times in total.
        assert record.attempts == 2
        assert record.status == FAILED

    def test_attempt_accounting_survives_schedd_crash(self, env):
        pool = self._recovery_pool(env, max_retries=3, base_backoff_s=50.0)
        schedd = pool.schedd
        old = schedd.submit(generate_table1_jobs(1, seed=3)[0])
        self._fail_once(schedd, old, 0)
        assert old.attempts == 1
        pool.supervisor.crash_daemon("schedd", downtime_s=5.0)
        env.run(until=env.timeout(10.0))
        record = schedd.get(old.job_id)
        assert record is not old  # replay rebuilt the record
        assert record.attempts == 1
        assert record.status == BACKOFF
        assert len(record.failures) == 1
        # The journaled backoff resumes its remaining delay, then the
        # retry budget continues from where the crash left it.
        env.run(until=env.timeout(60.0))
        assert record.status == IDLE
        for attempt in range(1, 4):
            self._fail_once(schedd, record, attempt)
            env.run(until=env.now + 1000.0)
        # 4 runs total = max_retries + 1, counted across the restart.
        assert record.attempts == 4
        assert record.status == FAILED

    def test_non_retryable_outcomes_stay_terminal_after_recovery(self, env):
        pool = self._recovery_pool(env, max_retries=0)
        schedd = pool.schedd
        jobs = generate_table1_jobs(2, seed=3)
        exhausted = schedd.submit(jobs[0])
        killed = schedd.submit(jobs[1])
        self._fail_once(schedd, exhausted, 0)
        assert exhausted.status == FAILED
        schedd.mark_running(killed.job_id, "node0", 0)
        schedd.mark_completed(
            killed.job_id,
            _failed_result(killed.job_id, status="memory-limit"),
        )
        pool.supervisor.crash_daemon("schedd", downtime_s=5.0)
        env.run(until=env.timeout(200.0))
        assert schedd.get(exhausted.job_id).status == FAILED
        assert schedd.get(killed.job_id).status == "Completed"
        assert schedd.get(killed.job_id).result.status == "memory-limit"
        # Neither terminal job re-entered the queue after the restart.
        assert schedd.pending() == []
        assert schedd.requeues == 0
