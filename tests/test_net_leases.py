"""Claim-lease protocol tests: expiry, renewal races, no lost/double jobs.

The deterministic tests script specific partition shapes against the
lease timers; the hypothesis suite (the satellite property test) sweeps
loss / duplication / delay / partition geometry and asserts the two
properties the protocol exists for — every job reaches exactly one
terminal outcome, and the invariant auditor stays clean (no double-run,
no ledger leak) — under arbitrary network weather.
"""

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.node import ComputeNode
from repro.condor import COMPLETED, FAILED, CondorPool, RandomPlacement
from repro.condor import claims
from repro.net import NetProfile, PartitionSpec, derive_net_seed
from repro.obs import audit
from repro.obs.audit import Auditor
from repro.sim import Environment
from repro.workloads import generate_table1_jobs


def _run_pool(jobs, net, net_seed, nodes=2, limit=100_000.0):
    """One fabric-mode MCC-style pool run; returns the drained pool."""
    env = Environment()
    executors = [
        ComputeNode(env, name=f"node{i}", num_devices=1, mode="cosmic")
        for i in range(nodes)
    ]
    pool = CondorPool(
        env,
        executors,
        RandomPlacement(random.Random(1234)),
        slots_per_node=16,
        cycle_interval=5.0,
        net=net,
        net_seed=net_seed,
    )
    pool.submit(jobs)
    pool.run_to_completion(limit=limit)
    return pool


def _assert_exactly_one_terminal(pool, job_count):
    records = pool.schedd.all_records()
    assert len(records) == job_count
    for record in records:
        assert record.status in (COMPLETED, FAILED), record.status
        assert record.result is not None


@pytest.fixture(autouse=True)
def _no_leaked_active():
    yield
    audit.deactivate()


class TestLeaseExpiry:
    def test_short_partition_does_not_expire_leases(self):
        # The lease comfortably covers the window plus the worst-case
        # retransmit gap of the head-of-line message (links are FIFO, so
        # one dropped renewal stalls everything behind it until its
        # retransmit lands): no kills.
        net = NetProfile(
            lease_duration_s=60.0,
            renew_interval_s=5.0,
            match_timeout_s=70.0,
            partitions=(PartitionSpec(20.0, 35.0, "startd:*"),),
        )
        jobs = generate_table1_jobs(10, seed=3)
        pool = _run_pool(jobs, net, derive_net_seed(3))
        assert pool.lease_expiries() == 0
        assert pool.claims.claims_lost == 0
        _assert_exactly_one_terminal(pool, 10)

    def test_long_partition_expires_leases_and_requeues(self):
        # Startds unreachable for well past the lease: running jobs are
        # killed on the startd, declared lost on the schedd, and requeued
        # through BACKOFF — none lost, none double-run.
        auditor = audit.activate()
        auditor.enter_cell("long-partition")
        net = NetProfile(
            lease_duration_s=15.0,
            renew_interval_s=5.0,
            match_timeout_s=20.0,
            partitions=(PartitionSpec(10.0, 120.0, "startd:*"),),
        )
        jobs = generate_table1_jobs(10, seed=3)
        pool = _run_pool(jobs, net, derive_net_seed(3))
        auditor.finish_cell()
        assert pool.lease_expiries() > 0
        assert pool.claims.claims_lost > 0
        assert pool.schedd.requeues > 0
        assert auditor.violations == 0
        _assert_exactly_one_terminal(pool, 10)
        assert all(
            r.status == COMPLETED for r in pool.schedd.all_records()
        )

    @pytest.mark.parametrize(
        "start_s, expiries, lost, match_timeouts",
        [
            # The long partition above: leases expire, claims are lost.
            (10.0, 10, 10, 0),
            # Cut off from the start: every activation times out.
            (0.0, 0, 0, 10),
        ],
    )
    def test_claim_timers_start_no_process(
        self, monkeypatch, start_s, expiries, lost, match_timeouts
    ):
        # Renewals, lease and match watchdogs and the collector's
        # publisher are timer callbacks: none of them is a generator
        # process, and the outcomes are those of the process version.
        started = []
        original = Environment.process

        def process(env, generator, name=None):
            started.append(Path(generator.gi_code.co_filename))
            return original(env, generator, name=name)

        monkeypatch.setattr(Environment, "process", process)
        net = NetProfile(
            lease_duration_s=15.0,
            renew_interval_s=5.0,
            match_timeout_s=20.0,
            partitions=(PartitionSpec(start_s, 120.0, "startd:*"),),
        )
        jobs = generate_table1_jobs(10, seed=3)
        pool = _run_pool(jobs, net, derive_net_seed(3))
        assert started
        assert Path(claims.__file__) not in started
        assert pool.lease_expiries() == expiries
        assert pool.claims.claims_lost == lost
        assert pool.claims.match_timeouts == match_timeouts
        _assert_exactly_one_terminal(pool, 10)

    def test_duplicated_renewals_are_harmless(self):
        # dup=0.9: nearly every message (renewals included) is sent
        # twice; the receive window dedups and lease extension is
        # max()-idempotent, so nothing expires and the ledgers reconcile.
        auditor = audit.activate()
        auditor.enter_cell("dup-renewals")
        net = NetProfile(dup=0.9)
        jobs = generate_table1_jobs(10, seed=11)
        pool = _run_pool(jobs, net, derive_net_seed(11))
        auditor.finish_cell()
        assert pool.fabric.stats.duplicates_dropped > 0
        assert pool.lease_expiries() == 0
        assert auditor.violations == 0
        _assert_exactly_one_terminal(pool, 10)

    def test_renewals_lost_repeatedly_then_delivered(self):
        # Heavy loss: renewals routinely need several retransmit rounds.
        # As long as one copy lands within the lease window the claim
        # survives; when none does, expiry + requeue recovers the job.
        auditor = audit.activate()
        auditor.enter_cell("lossy-renewals")
        net = NetProfile(loss=0.5, rto_initial_s=0.5)
        jobs = generate_table1_jobs(10, seed=7)
        pool = _run_pool(jobs, net, derive_net_seed(7))
        auditor.finish_cell()
        assert pool.fabric.stats.retransmits > 0
        assert auditor.violations == 0
        _assert_exactly_one_terminal(pool, 10)

    def test_delay_near_lease_boundary(self):
        # One-way delay comparable to the renewal interval: renewals
        # regularly arrive just before/after the old expiry instant.
        # Expiry is keyed to the renewal's *send* time, so the ordering
        # stays safe either way.
        auditor = audit.activate()
        auditor.enter_cell("boundary-delay")
        net = NetProfile(
            delay_base_s=4.0,
            delay_jitter_s=4.0,
            lease_duration_s=12.0,
            renew_interval_s=4.0,
            match_timeout_s=30.0,
        )
        jobs = generate_table1_jobs(10, seed=9)
        pool = _run_pool(jobs, net, derive_net_seed(9))
        auditor.finish_cell()
        assert auditor.violations == 0
        _assert_exactly_one_terminal(pool, 10)


class TestFabricModeEquivalence:
    def test_clean_fabric_completes_all_jobs(self):
        jobs = generate_table1_jobs(12, seed=5)
        pool = _run_pool(jobs, NetProfile(), derive_net_seed(5))
        _assert_exactly_one_terminal(pool, 12)
        assert all(r.status == COMPLETED for r in pool.schedd.all_records())
        assert pool.fabric.stats.retransmits == 0

    def test_same_seed_replays_identically(self):
        jobs = generate_table1_jobs(12, seed=5)
        net = NetProfile.chaos(0.15)
        first = _run_pool(jobs, net, derive_net_seed(5))
        second = _run_pool(jobs, net, derive_net_seed(5))
        assert first.schedd.makespan() == second.schedd.makespan()
        assert first.fabric.stats == second.fabric.stats
        ends_a = sorted(r.result.end for r in first.schedd.all_records())
        ends_b = sorted(r.result.end for r in second.schedd.all_records())
        assert ends_a == ends_b


@st.composite
def net_profiles(draw):
    """Arbitrary-but-valid network weather, biased toward the races."""
    lease = draw(st.floats(min_value=6.0, max_value=30.0))
    renew = draw(st.floats(min_value=1.0, max_value=lease * 0.6))
    profile = NetProfile(
        loss=draw(st.floats(min_value=0.0, max_value=0.4)),
        dup=draw(st.floats(min_value=0.0, max_value=0.5)),
        delay_base_s=draw(st.floats(min_value=0.001, max_value=3.0)),
        delay_jitter_s=draw(st.floats(min_value=0.0, max_value=3.0)),
        rto_initial_s=0.5,
        lease_duration_s=lease,
        renew_interval_s=renew,
        match_timeout_s=lease + draw(st.floats(min_value=1.0, max_value=30.0)),
        partitions=draw(
            st.one_of(
                st.just(()),
                st.tuples(
                    st.builds(
                        PartitionSpec,
                        start_s=st.floats(min_value=0.0, max_value=60.0),
                        end_s=st.floats(min_value=61.0, max_value=180.0),
                        pattern=st.sampled_from(
                            ["*", "startd:*", "schedd", "startd:node0"]
                        ),
                    )
                ),
            )
        ),
    )
    return profile


class TestLeaseRaceProperties:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(profile=net_profiles(), seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_no_job_lost_or_double_run_under_any_weather(self, profile, seed):
        auditor = Auditor()
        audit.ACTIVE = auditor
        try:
            auditor.enter_cell("hypothesis")
            jobs = generate_table1_jobs(6, seed=13)
            pool = _run_pool(jobs, profile, seed, limit=200_000.0)
            auditor.finish_cell()
        finally:
            audit.ACTIVE = None
        assert auditor.violations == 0
        _assert_exactly_one_terminal(pool, 6)
        # A job may terminally fail only by exhausting its retries, never
        # by vanishing: every failure carries a result with a status.
        for record in pool.schedd.all_records():
            if record.status == FAILED:
                assert record.attempts > pool.schedd.retry_policy.max_retries
