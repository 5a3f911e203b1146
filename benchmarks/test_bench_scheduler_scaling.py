"""Scheduler hot-path scaling: the Fig. 4 loop against deep queues.

The paper's evaluation never queues more than a few hundred jobs; the
ROADMAP's north star is a scheduler that serves millions. This bench
pins down the perf trajectory of the hot path — the initial full pack at
attach() plus the per-completion repack — at queue depths Q well beyond
paper scale, recording jobs/sec and peak RSS per depth.

Methodology: an 8-node pool (the paper's cluster shape) receives Q
pending jobs; we time the attach() pass, then drive the simulation
through a fixed number of completions (each one a repack against the
still-huge queue) and report completions per wall-second. Driving a
*capped* completion count keeps the bench O(minutes) while measuring
exactly the per-event cost at depth Q; draining all Q jobs would measure
the same event repeated Q times.

Next to the wall numbers the bench records the shape index's work per
pack, a count that does not depend on the machine: fitting shapes
offered to the packer, jobs chosen, and jobs read from the index. A
pack reads one head per fitting shape plus the jobs it chooses, never
the queue, so ``touched <= shapes + chosen`` (CI asserts it).

Run alongside the other benches (``pytest benchmarks/``). Depth 50k is
skipped unless ``REPRO_FULL=1`` to keep CI smoke runs quick.
"""

from __future__ import annotations

import os
import resource
import time

import numpy as np
import pytest

from repro.cluster import ComputeNode
from repro.condor import CondorPool, PinnedPlacement
from repro.condor.schedd import COMPLETE, RUN
from repro.core import DevicePacker, KnapsackClusterScheduler
from repro.sim import Environment
from repro.workloads import JobProfile, OffloadPhase

NODES = 8
#: Completions to drive per depth (each is one repack at queue depth ~Q).
COMPLETIONS_PER_DEPTH = 200


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


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux (bytes on macOS).
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if rss > 1 << 32:  # pragma: no cover - macOS reports bytes
        return rss / (1 << 20)
    return rss / 1024.0


def _measure(queue_depth: int) -> dict:
    env = Environment()
    nodes = [ComputeNode(env, f"n{i}", mode="cosmic") for i in range(NODES)]
    pool = CondorPool(
        env,
        nodes,
        PinnedPlacement(),
        slots_per_node=16,
        cycle_interval=5.0,
        dispatch_latency=0.5,
    )
    pool.submit(_jobs(queue_depth))
    scheduler = KnapsackClusterScheduler(pool, packer=DevicePacker(thread_capacity=240))

    t0 = time.perf_counter()
    scheduler.attach()
    t_attach = time.perf_counter() - t0

    violations: list[str] = []

    def check_start(tr):
        if tr.kind == RUN and scheduler.assignment_of(tr.job_id) is None:
            violations.append(tr.job_id)

    pool.schedd.subscribe(check_start)

    target = min(queue_depth, COMPLETIONS_PER_DEPTH)
    done = env.event()
    completions = [0]

    def count_completion(tr):
        if tr.kind != COMPLETE:
            return
        completions[0] += 1
        if completions[0] == target and not done.triggered:
            done.succeed()

    pool.schedd.subscribe(count_completion)

    t0 = time.perf_counter()
    pool.start()
    env.run(until=done)
    t_drive = time.perf_counter() - t0

    assert not violations, f"jobs dispatched without assignment: {violations[:5]}"
    assert completions[0] == target
    return {
        "Q": queue_depth,
        "attach_s": t_attach,
        "drive_s": t_drive,
        "completions": completions[0],
        "jobs_per_sec": completions[0] / t_drive if t_drive > 0 else float("inf"),
        "repack_passes": scheduler.repack_passes,
        "coalesced": scheduler.coalesced_completions,
        "assigned_at_attach": len(scheduler.decisions[0].packing.chosen)
        if scheduler.decisions
        else 0,
        "peak_rss_mb": _peak_rss_mb(),
        "packs": scheduler.packer.solver_calls,
        "shapes": scheduler.shapes_examined,
        "chosen": sum(len(d.packing.chosen) for d in scheduler.decisions),
        "touched": scheduler.jobs_touched,
    }


def _render(rows: list[dict]) -> str:
    lines = [
        "Scheduler hot-path scaling (Fig. 4 loop, 8-node pool)",
        f"{COMPLETIONS_PER_DEPTH} completion-repacks driven per depth; "
        "RSS is the process peak (monotone across depths)",
        "",
        f"{'Q':>7} {'attach(s)':>10} {'drive(s)':>9} {'jobs/sec':>9} "
        f"{'repacks':>8} {'coalesced':>10} {'peakRSS(MB)':>12}",
    ]
    for r in rows:
        lines.append(
            f"{r['Q']:>7} {r['attach_s']:>10.3f} {r['drive_s']:>9.3f} "
            f"{r['jobs_per_sec']:>9.1f} {r['repack_passes']:>8} "
            f"{r['coalesced']:>10} {r['peak_rss_mb']:>12.1f}"
        )
    lines += [
        "",
        "Shape-index work, all packs (deterministic): touched <= shapes + chosen",
        "",
        f"{'Q':>7} {'packs':>7} {'shapes':>8} {'chosen':>7} {'touched':>8} "
        f"{'touched/pack':>13}",
    ]
    for r in rows:
        lines.append(
            f"{r['Q']:>7} {r['packs']:>7} {r['shapes']:>8} {r['chosen']:>7} "
            f"{r['touched']:>8} {r['touched'] / r['packs']:>13.1f}"
        )
    return "\n".join(lines)


def test_bench_scheduler_scaling(record_result):
    rows = [_measure(q) for q in _queue_depths()]
    record_result("scheduler_scaling", _render(rows))

    by_q = {r["Q"]: r for r in rows}
    ten_k = by_q.get(10_000)
    if ten_k is not None:
        # Acceptance: the Q=10k hot path fits a CI budget.
        assert ten_k["attach_s"] + ten_k["drive_s"] < 60.0
    for r in rows:
        assert r["jobs_per_sec"] > 0
        # With randomized durations completions rarely coincide, so the
        # pass count can reach the completion count — never exceed it.
        assert r["repack_passes"] <= r["completions"]
        assert r["touched"] <= r["shapes"] + r["chosen"]
