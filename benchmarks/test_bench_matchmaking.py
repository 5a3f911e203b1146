"""Matchmaking hot-path bench: compiled ClassAds + pinned-job O(1) routing.

The negotiator's cycle cost is the cluster-level latency the paper blames
for MCCK's overhead on unfavourable distributions — and the ROADMAP's
million-job north star makes the cycle the scheduler's scaling wall. This
bench times one negotiation cycle at queue depth Q for each paper
configuration (MC / MCC / MCCK) and compares it against a faithful
replica of the pre-PR matchmaker: interpreted ClassAd evaluation (the
tree-walking oracle in ``tests/classad_oracle.py``), dict machine ads
rebuilt on every deduction, per-record exhaustion checks, per-cycle
queue sorting, and a full scan of every machine per examined job (no
pinned-name index).

Methodology: a 16-node cosmic pool (16 slots each) receives Q pending
jobs; MCCK additionally runs the knapsack scheduler's attach() pass so
the queue holds the steady-state mix the cycle really sees — a few dozen
pinned jobs and thousands parked with ``Requirements = false``. Each
sample builds a fresh pool (cycles dispatch jobs, mutating sim state),
times exactly one cycle, and the cell keeps the best of three. Both
modes run on identical pre-cycle state and must produce identical
(job, node) match lists — the optimization must change *time*, never
*decisions*.

Rendered rows land in ``benchmarks/results/matchmaking.txt`` plus
machine-readable ``BENCH_matchmaking.json`` (shared record schema, see
``benchmarks/conftest.py``, with the baseline numbers embedded) so
future PRs can extend the trajectory. Depths beyond 1k are
skipped under ``REPRO_SCALE`` to keep CI smoke quick; the acceptance
assertions — >= 3x on the 10k MCCK cell, and an MCCK cycle at 50k
within 2x of one at 1k — run whenever those cells are measured.

Each record also carries ``walked``, the queue records the cycle's walk
read (``SimProfiler.jobs_walked``, deterministic): the walk skips the
parked queue, so an MCCK cycle reads only its pinned jobs.
"""

from __future__ import annotations

import gc
import operator
import os
import random
import sys
import time
from pathlib import Path

import numpy as np

from conftest import bench_record

from repro.cluster import ComputeNode
from repro.condor import (
    ClassAd,
    CondorPool,
    ExclusivePlacement,
    PinnedPlacement,
    RandomPlacement,
)
from repro.condor.classad import Literal
from repro.condor.schedd import IDLE, RUN
from repro.core import DevicePacker, KnapsackClusterScheduler
from repro.sim import Environment, profile
from repro.workloads import JobProfile, OffloadPhase

# The replica evaluates with the tests' tree-walking ClassAd oracle.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from classad_oracle import interpret

NODES = 16
SLOTS_PER_NODE = 16
SAMPLES = 5
CONFIGURATIONS = ("MC", "MCC", "MCCK")

#: Acceptance floor for the headline cell: one MCCK cycle against a
#: 10k-deep queue must run >= 3x faster than the pre-PR matchmaker.
MIN_MCCK_10K_SPEEDUP = 3.0
#: Ceiling on an MCCK cycle at Q=50k over one at Q=1k: the walk reads
#: the pinned jobs only, so the parked queue's depth must not show.
MAX_MCCK_DEPTH_RATIO = 2.0

_FIFO_KEY = operator.attrgetter("fifo_key")


def _queue_depths() -> list[int]:
    if os.environ.get("REPRO_FULL"):
        return [1_000, 10_000, 50_000]
    if os.environ.get("REPRO_SCALE"):
        # CI smoke: a single small depth.
        return [1_000]
    return [1_000, 10_000, 50_000]


def _jobs(count: int, seed: int = 0) -> list[JobProfile]:
    rng = np.random.default_rng(seed)
    memories = rng.integers(6, 69, size=count) * 50       # 300..3400 MB
    threads = rng.integers(15, 61, size=count) * 4        # 60..240
    works = rng.exponential(3.0, size=count) + 0.5
    return [
        JobProfile(
            job_id=f"q{i}",
            app="bench",
            phases=(
                OffloadPhase(
                    work=float(works[i]),
                    threads=int(threads[i]),
                    memory_mb=float(memories[i]),
                ),
            ),
            declared_memory_mb=float(memories[i]),
            declared_threads=int(threads[i]),
        )
        for i in range(count)
    ]


def _build(configuration: str, queue_depth: int) -> CondorPool:
    """A fresh pool at the pre-cycle measurement point for one config."""
    env = Environment()
    mode = "exclusive" if configuration == "MC" else "cosmic"
    nodes = [ComputeNode(env, f"n{i}", mode=mode) for i in range(NODES)]
    if configuration == "MC":
        policy = ExclusivePlacement()
    elif configuration == "MCC":
        policy = RandomPlacement(random.Random(0), memory_aware=False)
    else:
        policy = PinnedPlacement()
    pool = CondorPool(
        env,
        nodes,
        policy,
        slots_per_node=SLOTS_PER_NODE,
        cycle_interval=5.0,
        dispatch_latency=0.5,
    )
    pool.submit(_jobs(queue_depth))
    if configuration == "MCCK":
        KnapsackClusterScheduler(
            pool, packer=DevicePacker(thread_capacity=240)
        ).attach()
    return pool


# -- pre-PR replica -----------------------------------------------------------

#: Replica of the retired snapshot-keyed machine-ad cache (kept warm
#: across samples, exactly as the old module-level cache was).
_AD_CACHE: dict = {}


def _dict_machine_ad(snapshot) -> ClassAd:
    """The pre-PR ``machine_ad``: a plain dict ad rebuilt per state."""
    key = (
        snapshot.node,
        snapshot.total_slots,
        snapshot.free_slots,
        tuple(
            (
                d.index,
                d.memory_mb,
                d.free_declared_mb,
                d.resident_jobs,
                d.claimed_exclusive,
                d.failed,
            )
            for d in snapshot.devices
        ),
    )
    cached = _AD_CACHE.get(key)
    if cached is not None:
        return cached
    usable = [d for d in snapshot.devices if not d.failed]
    ad = ClassAd(
        {
            "Name": f"slot1@{snapshot.node}",
            "Machine": snapshot.node,
            "TotalSlots": snapshot.total_slots,
            "FreeSlots": snapshot.free_slots,
            "PhiDevices": len(usable),
            "PhiDevicesFree": snapshot.devices_free,
            "PhiMemory": float(max((d.memory_mb for d in usable), default=0.0)),
            "PhiFreeMemory": float(
                max((d.free_declared_mb for d in usable), default=0.0)
            ),
        }
    )
    ad.set_expr("Requirements", "TARGET.RequestPhiMemory <= MY.PhiMemory")
    _AD_CACHE[key] = ad
    return ad


def _baseline_symmetric_match(left, right) -> bool:
    """The pre-PR ``symmetric_match``: two interpreted evaluations per
    probe."""
    return (
        interpret(left, "Requirements", right) is True
        and interpret(right, "Requirements", left) is True
    )


def _baseline_pending(schedd):
    """The pre-PR ``Schedd.pending()``: filter + full sort every cycle."""
    idle = [r for r in schedd._records.values() if r.status == IDLE]
    idle.sort(key=_FIFO_KEY)
    return idle


def _baseline_exhausted(policy, snapshots) -> bool:
    """The pre-PR ``policy.exhausted`` over the eager snapshot list."""
    if isinstance(policy, ExclusivePlacement):
        return not any(
            s.free_slots > 0 and s.first_free_device() is not None
            for s in snapshots
        )
    return all(s.free_slots <= 0 for s in snapshots)


class _EagerView:
    """The pre-PR prefilter argument: every snapshot, built up front."""

    def __init__(self, snapshots) -> None:
        self._snapshots = snapshots

    def candidates(self):
        return self._snapshots


def _baseline_cycle(pool: CondorPool):
    """One cycle of the pre-PR negotiate_once (commit 21cb224), verbatim
    control flow: interpreted evaluation, Literal-False park check only,
    per-record exhaustion, full symmetric_match scan, ad rebuilds."""
    negotiator = pool.negotiator
    env, policy = negotiator.env, negotiator.policy
    schedd, collector = negotiator.schedd, negotiator.collector
    started: list = []
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        snapshots = collector.snapshots(env.now)
        eager = _EagerView(snapshots)
        ads = {id(s): _dict_machine_ad(s) for s in snapshots}
        evals = 0
        for record in _baseline_pending(schedd):
            if _baseline_exhausted(policy, snapshots):
                break
            req = record.ad.get_expr("Requirements")
            if isinstance(req, Literal) and req.value is False:
                continue
            if not policy.prefilter(record, eager):
                continue
            evals += len(snapshots)
            candidates = [
                s for s in snapshots
                if _baseline_symmetric_match(record.ad, ads[id(s)])
            ]
            if not candidates:
                continue
            placement = policy.place(record, candidates)
            if placement is None:
                continue
            snapshot, device_index, exclusive = placement
            policy.deduct(
                snapshot, device_index, exclusive,
                record.profile.declared_memory_mb,
            )
            ads[id(snapshot)] = _dict_machine_ad(snapshot)
            startd = collector.startd(snapshot.node)
            if not startd.alive:
                continue
            startd.start_job(record, device_index, exclusive)
            started.append(record)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
    finally:
        gc.enable()
    return elapsed_ms, evals, [(r.job_id, r.matched_node) for r in started]


def _optimized_cycle(pool: CondorPool):
    started: list = []

    def on_start(tr):
        if tr.kind == RUN:
            started.append(tr)

    pool.schedd.subscribe(on_start)
    gc.collect()
    gc.disable()
    # The profiler counts the queue records the walk reads.
    prof = profile.activate()
    try:
        t0 = time.perf_counter()
        pool.negotiator.negotiate_once()
        elapsed_ms = (time.perf_counter() - t0) * 1e3
    finally:
        profile.deactivate()
        gc.enable()
    stats = pool.negotiator.last_cycle
    matches = [(tr.job_id, tr.node) for tr in started]
    return elapsed_ms, stats, prof.jobs_walked, matches


def _measure_cell(configuration: str, queue_depth: int) -> dict:
    opt = min(
        (_optimized_cycle(_build(configuration, queue_depth))
         for _ in range(SAMPLES)),
        key=lambda t: t[0],
    )
    base = min(
        (_baseline_cycle(_build(configuration, queue_depth))
         for _ in range(SAMPLES)),
        key=lambda t: t[0],
    )
    opt_ms, stats, walked, opt_matches = opt
    base_ms, base_evals, base_matches = base
    # The whole point: faster, not different.
    assert opt_matches == base_matches, (
        f"{configuration}@Q={queue_depth}: optimized matchmaker changed "
        f"match decisions"
    )
    return {
        "configuration": configuration,
        "Q": queue_depth,
        "optimized_ms": opt_ms,
        "baseline_ms": base_ms,
        "speedup": base_ms / opt_ms if opt_ms > 0 else float("inf"),
        "matched": stats.matched,
        "parked": stats.parked,
        "walked": walked,
        "evals": stats.evals,
        "baseline_evals": base_evals,
        "pin_routed": stats.pin_routed,
        "full_scans": stats.full_scans,
    }


def _render(rows: list[dict]) -> str:
    lines = [
        "Matchmaking cycle bench (16-node pool, one negotiation cycle, "
        f"best of {SAMPLES})",
        "baseline = pre-PR matchmaker replica: interpreted ClassAds, "
        "full scans, dict ad rebuilds",
        "",
        f"{'config':>6} {'Q':>7} {'cycle(ms)':>10} {'pre-PR(ms)':>11} "
        f"{'speedup':>8} {'matched':>8} {'evals':>7} {'pre-evals':>10} "
        f"{'pinned':>7} {'walked':>7}",
    ]
    for r in rows:
        lines.append(
            f"{r['configuration']:>6} {r['Q']:>7} {r['optimized_ms']:>10.2f} "
            f"{r['baseline_ms']:>11.2f} {r['speedup']:>7.2f}x "
            f"{r['matched']:>8} {r['evals']:>7} {r['baseline_evals']:>10} "
            f"{r['pin_routed']:>7} {r['walked']:>7}"
        )
    return "\n".join(lines)


def test_bench_matchmaking(record_result, record_bench_json):
    rows = [
        _measure_cell(configuration, q)
        for q in _queue_depths()
        for configuration in CONFIGURATIONS
    ]
    record_result("matchmaking", _render(rows))

    records = []
    for r in rows:
        name = f"{r['configuration']}@Q={r['Q']}"
        records += [
            bench_record(
                name,
                "cycle_ms",
                round(r["optimized_ms"], 3),
                "ms",
                baseline=round(r["baseline_ms"], 3),
            ),
            bench_record(
                name,
                "evals",
                r["evals"],
                "count",
                baseline=r["baseline_evals"],
            ),
            bench_record(name, "matched", r["matched"], "count"),
            bench_record(name, "pin_routed", r["pin_routed"], "count"),
            bench_record(name, "walked", r["walked"], "count"),
        ]
    record_bench_json(
        "matchmaking",
        records,
        baseline_note=(
            f"pre-PR matchmaker replica on a {NODES}-node pool "
            f"({SLOTS_PER_NODE} slots/node, best of {SAMPLES}): "
            "interpreted ClassAds, full machine scans, dict ad rebuilds, "
            "per-cycle queue sort"
        ),
    )

    cells = {(r["configuration"], r["Q"]): r for r in rows}
    for r in rows:
        assert r["matched"] > 0
        assert r["evals"] <= r["baseline_evals"]
    for (configuration, _q), r in cells.items():
        if configuration == "MCCK":
            # The external scheduler pins every live job, so every MCCK
            # match must route through the O(1) name index.
            assert r["pin_routed"] > 0
            assert r["evals"] < r["baseline_evals"]
            # The cycle reads the pinned jobs, never the parked queue.
            assert r["walked"] <= r["matched"]
    shallow, deep = cells.get(("MCCK", 1_000)), cells.get(("MCCK", 50_000))
    if shallow is not None and deep is not None:
        # Parked jobs cost the cycle nothing: depth barely moves it.
        assert deep["optimized_ms"] <= MAX_MCCK_DEPTH_RATIO * shallow[
            "optimized_ms"
        ], (
            f"MCCK cycle: {deep['optimized_ms']:.2f}ms at Q=50k vs "
            f"{shallow['optimized_ms']:.2f}ms at Q=1k"
        )
    headline = cells.get(("MCCK", 10_000))
    if headline is not None:
        assert headline["speedup"] >= MIN_MCCK_10K_SPEEDUP, (
            f"MCCK 10k cycle: {headline['optimized_ms']:.2f}ms vs pre-PR "
            f"{headline['baseline_ms']:.2f}ms — "
            f"{headline['speedup']:.2f}x < {MIN_MCCK_10K_SPEEDUP}x floor"
        )
