"""The knapsack scheduler's shape index and the grouped packing path.

The scheduler hands the packer its pending jobs grouped by declared
``(memory, threads)`` shape. Three properties keep that path honest:

* a grouped pack returns exactly the packing a flat pack of the same
  jobs in FIFO order returns;
* the index holds exactly the idle, unassigned jobs after every queue
  transition, through card faults, a lossy fabric and a schedd crash;
* a small seeded MCCK cell reproduces a golden digest of its packing
  decisions, so a change to pack order fails here first.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ComputeNode, run_configuration
from repro.condor import CondorPool, PinnedPlacement
from repro.core import (
    DevicePacker,
    DevicePacking,
    Item,
    KnapsackClusterScheduler,
    ShapeGroups,
    knapsack_thread_capped,
)
from repro.experiments.common import make_workload
from repro.faults import FaultProfile
from repro.net.profile import NetProfile
from repro.sim import Environment
from repro.workloads import JobProfile, OffloadPhase

#: Declared shapes the property draws from: duplicates are likely, and
#: 2949/2950 MB (like 1000/1001 MB) quantize into one 50 MB class.
SHAPES = [
    (2949.0, 60),
    (2950.0, 60),
    (1000.0, 120),
    (1001.0, 120),
    (1000.0, 240),
    (500.0, 16),
    (4000.0, 60),
    (7000.0, 200),
]


@dataclass
class _Record:
    """The part of a schedd ``JobRecord`` the shape index reads."""

    job_id: str
    profile: JobProfile
    fifo_key: tuple


def _profile(job_id: str, memory: float, threads: int) -> JobProfile:
    return JobProfile(
        job_id=job_id,
        app="t",
        phases=(OffloadPhase(work=1.0, threads=threads, memory_mb=memory),),
        declared_memory_mb=memory,
        declared_threads=threads,
    )


class _Pool:
    """Just enough of a pool to construct an unattached scheduler."""

    def __init__(self) -> None:
        self.env = Environment()
        self.schedd = None


def _trimmed_reference(packer, jobs, free_mb, max_jobs):
    """The thread-capped DP's packing, then the slot bound applied by a
    stable sort on value: the most valuable jobs, FIFO-earlier on a tie."""
    value = lambda threads: max(packer.value_fn(threads), 0.0)
    items = [
        Item(j.declared_memory_mb, value(j.declared_threads), j.declared_threads)
        for j in jobs
    ]
    result = knapsack_thread_capped(items, free_mb, packer.thread_capacity)
    keep = sorted(result.indices, key=lambda i: items[i].value, reverse=True)
    keep = sorted(keep[:max_jobs] if max_jobs is not None else keep)
    return DevicePacking(
        chosen=tuple(jobs[i].job_id for i in keep),
        total_declared_mb=sum(items[i].weight for i in keep),
        total_declared_threads=sum(items[i].threads for i in keep),
        total_value=sum(items[i].value for i in keep),
    )


class TestGroupedPackMatchesFlatPack:
    @settings(max_examples=150, deadline=None)
    @given(
        shapes=st.lists(st.integers(0, len(SHAPES) - 1), min_size=0, max_size=40),
        order_seed=st.integers(0, 2**16),
        free_mb=st.sampled_from([0.0, 49.0, 999.0, 3000.0, 5999.0, 8192.0]),
        max_jobs=st.one_of(st.none(), st.integers(0, 6)),
        thread_capacity=st.sampled_from([None, 240]),
    )
    def test_same_packing(self, shapes, order_seed, free_mb, max_jobs,
                          thread_capacity):
        records = [
            _Record(f"j{i}", _profile(f"j{i}", *SHAPES[s]), (float(i // 3), i))
            for i, s in enumerate(shapes)
        ]
        # Index in a shuffled order: requeues and early submit times put
        # jobs in behind later ones, which the index must re-sort.
        arrival = list(records)
        random.Random(order_seed).shuffle(arrival)
        scheduler = KnapsackClusterScheduler(_Pool())
        for record in arrival:
            scheduler._index_add(record)
        # Assign a few (as a pack would) to exercise removal.
        for record in arrival[::5]:
            scheduler._index_remove(record)
        indexed = sorted(
            (r for r in records if r not in arrival[::5]),
            key=lambda r: r.fifo_key,
        )
        flat = [r.profile for r in indexed if r.profile.declared_memory_mb <= free_mb]

        view = scheduler._fitting(free_mb)
        assert len(view) == len(flat)
        assert list(view) == flat
        packer = DevicePacker(thread_capacity=thread_capacity)
        grouped = packer.pack(view, free_mb, max_jobs)
        assert grouped == packer.pack(flat, free_mb, max_jobs)
        fifo = [p.job_id for p in flat]
        assert list(grouped.chosen) == sorted(grouped.chosen, key=fifo.index)
        if thread_capacity is not None:
            assert grouped == _trimmed_reference(packer, flat, free_mb, max_jobs)

    def test_view_touches_heads_and_chosen_only(self):
        records = [
            _Record(f"j{i}", _profile(f"j{i}", 1000.0, 60), (0.0, i))
            for i in range(500)
        ] + [
            _Record(f"k{i}", _profile(f"k{i}", 2000.0, 120), (0.0, 500 + i))
            for i in range(500)
        ]
        view = ShapeGroups(
            [(1000.0, 60, records[:500]), (2000.0, 120, records[500:])],
            fifo_key=lambda r: r.fifo_key,
            job_of=lambda r: r.profile,
        )
        packing = DevicePacker().pack(view, 8192.0, max_jobs=16)
        assert packing.concurrency == 8
        assert view.touched == 2 + packing.concurrency


class TestZeroMemoryJobsRespectMaxJobs:
    """Zero-memory jobs are always taken, so the host-slot bound must
    count them before it is dropped as unreachable."""

    @dataclass
    class Job:
        job_id: str
        declared_memory_mb: float
        declared_threads: int

    @pytest.mark.parametrize("thread_capacity", [None, 240])
    def test_max_jobs_not_exceeded(self, thread_capacity):
        jobs = [self.Job(f"z{i}", 0.0, 16) for i in range(3)]
        jobs.append(self.Job("m", 100.0, 16))
        packer = DevicePacker(thread_capacity=thread_capacity)
        packing = packer.pack(jobs, free_memory_mb=100, max_jobs=2)
        assert packing.concurrency == 2


class TestIndexExactness:
    def test_index_is_idle_unassigned_after_every_transition(self, monkeypatch):
        checked = []
        attach = KnapsackClusterScheduler.attach

        def attach_and_watch(scheduler):
            attach(scheduler)
            schedd = scheduler.schedd

            def check(tr):
                if schedd.down:
                    # Mid-crash the scheduler keeps its pre-crash view
                    # and resyncs on the recovery transition.
                    return
                indexed = scheduler._unassigned_pending()
                expected = {
                    r.job_id
                    for r in schedd.pending()
                    if scheduler.assignment_of(r.job_id) is None
                }
                assert {r.job_id for r in indexed} == expected, tr
                assert all(r is schedd.get(r.job_id) for r in indexed), tr
                checked.append(tr.kind)

            schedd.subscribe(check)

        monkeypatch.setattr(KnapsackClusterScheduler, "attach", attach_and_watch)
        faults = FaultProfile.chaos(
            40, device_fail_rate=6.0, crashes=((150.0, "schedd"),)
        )
        result = run_configuration(
            "MCCK",
            make_workload(("synthetic", 160, "normal", 3)),
            ClusterConfig(nodes=4, seed=3),
            faults=faults,
            fault_seed=11,
            net=NetProfile(loss=0.05),
            net_seed=5,
        )
        assert result.completed_jobs + result.failed_jobs == 160
        kinds = set(checked)
        assert {"match", "unmatch", "run", "complete", "fail", "requeue",
                "recovered"} <= kinds

    def test_parked_job_leaves_on_match_and_returns_on_unmatch(self):
        # A match already in flight when a card failure displaces the
        # job lands on a parked, indexed job; a claim that then never
        # activates hands it back unassigned.
        env = Environment()
        node = ComputeNode(env, "n0", mode="cosmic")
        pool = CondorPool(env, [node], PinnedPlacement(), slots_per_node=16)
        pool.submit([_profile(f"j{i}", 5000.0, 60) for i in range(2)])
        scheduler = KnapsackClusterScheduler(pool)
        scheduler.attach()
        assert scheduler.assignment_of("j0") is not None
        indexed = lambda: [r.job_id for r in scheduler._unassigned_pending()]
        assert indexed() == ["j1"]
        pool.schedd.mark_matched("j1", token=1)
        assert indexed() == []
        pool.schedd.unmatch("j1")
        assert indexed() == ["j1"]
        assert pool.schedd.get("j1").ad.evaluate("Requirements") is False


#: (decision count, sha256 of the packing decisions) of MCCK on 2 nodes
#: x 120 ``normal`` jobs, seed 42. A change to which jobs a pack picks,
#: or in what order it lists them, changes the digest.
GOLDEN_DECISIONS = (
    115,
    "610290a9d1528252399279c387e9ac7c7a2d5af36ba49c6a69fb2884debbb8c9",
)


def test_golden_decision_digest(monkeypatch):
    attached = []
    attach = KnapsackClusterScheduler.attach

    def capture(scheduler):
        attached.append(scheduler)
        attach(scheduler)

    monkeypatch.setattr(KnapsackClusterScheduler, "attach", capture)
    run_configuration(
        "MCCK",
        make_workload(("synthetic", 120, "normal", 42)),
        ClusterConfig(nodes=2, seed=42),
    )
    digest = hashlib.sha256()
    for d in attached[0].decisions:
        p = d.packing
        digest.update(
            repr(
                (d.time, d.node, d.device, d.free_mb_before, p.chosen,
                 p.total_declared_mb, p.total_declared_threads, p.total_value)
            ).encode()
        )
    assert (len(attached[0].decisions), digest.hexdigest()) == GOLDEN_DECISIONS
