"""Cluster-scale bench: simulation cost vs pool size (X7's floor).

The tentpole claim of the cluster-scale fast path is that per-cycle
simulation cost follows the *active* node count, not the pool size:
delta-maintained live sets mean an idle negotiation cycle never walks
the machine list, lazy node materialization means idle nodes never build
device stacks, and the bucketed pending index means repacks never touch
jobs that cannot fit. This bench measures both halves:

* **idle cycles** — timing ``negotiate_once`` directly (no event loop,
  no construction cost in the window) on an idle pool in four modes:
  an empty queue; one pending job the knapsack scheduler has parked
  (the cycle walks the queue and asks the view whether anything is
  free); the same with heartbeat staleness on; and the same under the
  message fabric, after the first snapshot response has landed. The
  acceptance floor, per mode: the per-cycle cost at 1024 idle nodes
  must be <= 3x the 64-node cost. Before the one-cycle-view refactor
  only the empty-queue row met it — the other three built a snapshot
  of every node each cycle, about 10-20x from 64 to 1024 nodes.
* **active sweep** — the X7 experiment (fixed Table-I workload on
  growing pools), reporting events/sec, wall-clock per negotiation
  cycle, and peak RSS.

Rendered rows land in ``benchmarks/results/cluster_scale.txt`` plus
machine-readable ``BENCH_scale.json`` in the shared record schema (see
``benchmarks/conftest.py``).
"""

from __future__ import annotations

import gc
import os
import random
import time

from conftest import bench_record

from repro.cluster import ComputeNode
from repro.condor import CondorPool, PinnedPlacement
from repro.core import DevicePacker, KnapsackClusterScheduler
from repro.experiments import ext_scale
from repro.net.profile import NetProfile
from repro.sim import Environment
from repro.workloads import HostPhase, JobProfile, OffloadPhase

NODE_COUNTS = (8, 64, 256, 1024)
SLOTS_PER_NODE = 16
IDLE_CYCLES = 200
SAMPLES = 3
#: Idle-cycle rows: an empty queue, then one parked pending job in
#: direct, heartbeat-staleness and fabric mode.
IDLE_MODES = ("empty", "parked", "heartbeat", "fabric")

#: Acceptance floor: an idle cycle on a 1024-node pool must cost no more
#: than 3x the 64-node cycle (it is O(active), and both are idle).
MAX_IDLE_RATIO = 3.0
#: Absolute timing noise allowance for the ratio check (best-of batches
#: of sub-10us cycles still jitter by a few microseconds on shared CI).
IDLE_SLACK_US = 5.0


def _active_jobs() -> int:
    if os.environ.get("REPRO_FULL"):
        return 400
    if os.environ.get("REPRO_SCALE"):
        return 32
    return 64


def _idle_pool(nodes: int, mode: str) -> CondorPool:
    env = Environment()
    machines = [
        ComputeNode(env, f"n{i}", mode="cosmic") for i in range(nodes)
    ]
    pool = CondorPool(
        env,
        machines,
        PinnedPlacement(),
        slots_per_node=SLOTS_PER_NODE,
        cycle_interval=5.0,
        dispatch_latency=0.5,
        heartbeat_timeout=90.0 if mode == "heartbeat" else None,
        net=NetProfile() if mode == "fabric" else None,
    )
    KnapsackClusterScheduler(
        pool, packer=DevicePacker(thread_capacity=240)
    ).attach()
    if mode == "heartbeat":
        for startd in pool.startds:
            pool.collector.record_heartbeat(startd.name, env.now)
    if mode == "fabric":
        pool.start()
        env.run(until=1.0)  # the first snapshot response lands
    if mode != "empty":
        # A post-attach arrival: the scheduler parks it until a repack.
        pool.submit([
            JobProfile(
                job_id="parked",
                app="idle",
                phases=(HostPhase(1.0),
                        OffloadPhase(work=1.0, threads=60, memory_mb=1000.0)),
                declared_memory_mb=1000.0,
                declared_threads=60,
            )
        ])
    return pool


def _idle_cycle_us(nodes: int, mode: str) -> float:
    """Best-of-samples cost of one idle negotiation cycle, in us."""
    best = float("inf")
    for _ in range(SAMPLES):
        pool = _idle_pool(nodes, mode)
        negotiator = pool.negotiator
        negotiator.negotiate_once()  # warm caches
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            for _ in range(IDLE_CYCLES):
                negotiator.negotiate_once()
            elapsed = time.perf_counter() - started
        finally:
            gc.enable()
        best = min(best, elapsed / IDLE_CYCLES * 1e6)
    return best


def _render(idle_us: dict, result: ext_scale.ScaleResult) -> str:
    lines = [
        f"Cluster-scale bench (idle cycle in us: best of {SAMPLES} x "
        f"{IDLE_CYCLES}-cycle batches; every mode but 'empty' has one "
        "parked job)",
        "",
        f"{'nodes':>6} " + " ".join(f"{mode:>10}" for mode in IDLE_MODES),
    ]
    for nodes in NODE_COUNTS:
        lines.append(
            f"{nodes:>6} "
            + " ".join(f"{idle_us[mode][nodes]:>10.1f}" for mode in IDLE_MODES)
        )
    lines += [
        "",
        f"Active sweep ({result.job_count} Table-I jobs, "
        f"{result.configuration}):",
        f"{'nodes':>6} {'wall s':>8} {'events/s':>10} {'ms/cycle':>9} "
        f"{'peak RSS MB':>12}",
    ]
    for row in result.rows:
        lines.append(
            f"{row['nodes']:>6} {row['wall_s']:>8.2f} "
            f"{row['events_per_s']:>10,.0f} {row['ms_per_cycle']:>9.2f} "
            f"{row['peak_rss_mb']:>12.0f}"
        )
    return "\n".join(lines)


def test_bench_cluster_scale(record_result, record_bench_json):
    random.seed(0)
    idle_us = {
        mode: {nodes: _idle_cycle_us(nodes, mode) for nodes in NODE_COUNTS}
        for mode in IDLE_MODES
    }
    result = ext_scale.run(jobs=_active_jobs(), node_counts=NODE_COUNTS)

    record_result("cluster_scale", _render(idle_us, result))

    records = [
        bench_record(
            f"idle@{nodes}" if mode == "empty" else f"idle-{mode}@{nodes}",
            "idle_cycle_us", round(us, 2), "us",
        )
        for mode in IDLE_MODES
        for nodes, us in idle_us[mode].items()
    ]
    for row in result.rows:
        name = f"active@{row['nodes']}"
        records += [
            bench_record(
                name, "events_per_s", round(row["events_per_s"]), "events/s"
            ),
            bench_record(
                name, "ms_per_cycle", round(row["ms_per_cycle"], 3), "ms"
            ),
            bench_record(
                name, "peak_rss_mb", round(row["peak_rss_mb"], 1), "MB"
            ),
        ]
    record_bench_json(
        "scale",
        records,
        baseline_note=(
            "idle_cycle_us floor: in every mode, the 1024-node idle "
            f"cycle <= {MAX_IDLE_RATIO}x the 64-node cycle"
        ),
    )

    # Deterministic halves agree regardless of pool size: every pool
    # drains the whole workload.
    for row in result.rows:
        assert row["completed"] == result.job_count

    for mode in IDLE_MODES:
        small, large = idle_us[mode][64], idle_us[mode][1024]
        ratio = large / max(small, 1e-3)
        assert large <= MAX_IDLE_RATIO * small + IDLE_SLACK_US, (
            f"{mode} idle cycle at 1024 nodes ({large:.1f}us) is "
            f"{ratio:.1f}x the 64-node cycle ({small:.1f}us); "
            f"floor is {MAX_IDLE_RATIO}x — the O(active) fast path regressed"
        )
