"""X7 — extension: cluster-scale fast path (cost tracks activity, not size).

The paper's pool has 8 nodes; the ROADMAP's north star asks what the
simulator pays to model the *cluster-scale* version of the same story —
1000 nodes, most of them idle at any instant. This extension runs one
fixed workload on geometrically growing pools and reports two tables:

* **simulated** (deterministic) — makespan, completions, negotiation
  cycles, events fired. Byte-stable for a fixed seed and code version;
  the 8-node row must match a plain 8-node run exactly (asserted in
  ``tests/test_scale_invariance.py`` and the CI scale-smoke job).
* **host performance** (machine-dependent) — wall-clock, events/sec,
  ms per negotiation cycle, peak RSS. These rows are the point of the
  sweep: with delta-maintained live sets, lazily materialized nodes and
  the bucketed pending index, per-cycle cost follows the *active* node
  count, so the 1024-node column stays within a small factor of the
  64-node one (floor asserted in
  ``benchmarks/test_bench_cluster_scale.py``).

Because the host table is wall-clock, this experiment is **excluded
from** ``python -m repro.experiments all`` (whose output is asserted
byte-identical across runs) and is best run with ``--no-cache`` — a
cache hit would replay stale timings. Run it by name::

    python -m repro.experiments ext-scale --no-cache
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass

from ..cluster import run_configuration
from ..metrics import format_table
from ..sim import profile as sim_profile
from .common import DEFAULT_SEED, PAPER_CLUSTER, make_workload

#: Pool sizes swept by default (the paper's 8 up to the north-star 1024).
DEFAULT_NODE_COUNTS = (8, 64, 256, 1024)


@dataclass
class ScaleResult:
    job_count: int
    configuration: str
    node_counts: tuple[int, ...]
    #: One dict per node count; simulated keys (makespan, completed,
    #: cycles, events) are deterministic, host keys (wall_s,
    #: events_per_s, ms_per_cycle, peak_rss_mb) are machine-dependent.
    rows: list[dict]


def _peak_rss_mb() -> float:
    """Process-lifetime peak RSS in MB (monotone across the sweep)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def run(
    jobs: int = 64,
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS,
    configuration: str = "MCCK",
    seed: int = DEFAULT_SEED,
) -> ScaleResult:
    job_set = make_workload(("table1", jobs, seed))
    rows: list[dict] = []
    for nodes in node_counts:
        config = PAPER_CLUSTER.resized(nodes)
        # A private profiler per pool size supplies the event and cycle
        # counts; the previously active one (e.g. the CLI's --profile)
        # is restored afterwards with the private counts folded in.
        previous = sim_profile.ACTIVE
        prof = sim_profile.SimProfiler()
        sim_profile.ACTIVE = prof
        try:
            prof.start()
            started = time.perf_counter()
            result = run_configuration(configuration, job_set, config)
            wall = time.perf_counter() - started
            prof.stop()
        finally:
            sim_profile.ACTIVE = previous
            if previous is not None:
                previous.absorb(prof)
        cycles = prof.negotiation_cycles
        rows.append(
            {
                "nodes": nodes,
                "makespan": result.makespan,
                "completed": result.completed_jobs,
                "cycles": cycles,
                "events": prof.total_fired,
                "wall_s": wall,
                "events_per_s": prof.total_fired / wall if wall > 0 else 0.0,
                "ms_per_cycle": 1e3 * wall / cycles if cycles else 0.0,
                "peak_rss_mb": _peak_rss_mb(),
            }
        )
    return ScaleResult(
        job_count=jobs,
        configuration=configuration,
        node_counts=tuple(node_counts),
        rows=rows,
    )


def render_deterministic(result: ScaleResult) -> str:
    """The simulated table only — byte-stable, used by the CI smoke."""
    rows = [
        [
            row["nodes"],
            result.job_count,
            f"{row['makespan']:.1f}",
            row["completed"],
            row["cycles"],
            f"{row['events']:,}",
        ]
        for row in result.rows
    ]
    return format_table(
        ["nodes", "jobs", "makespan", "completed", "cycles", "events"],
        rows,
        title=(
            f"X7: {result.configuration} simulated outcomes vs pool size "
            f"({result.job_count} Table-I jobs)"
        ),
    )


def render(result: ScaleResult) -> str:
    host_rows = [
        [
            row["nodes"],
            f"{row['wall_s']:.2f}",
            f"{row['events_per_s']:,.0f}",
            f"{row['ms_per_cycle']:.2f}",
            f"{row['peak_rss_mb']:.0f}",
        ]
        for row in result.rows
    ]
    host = format_table(
        ["nodes", "wall s", "events/s", "ms/cycle", "peak RSS MB"],
        host_rows,
        title="X7: host performance (machine-dependent; RSS is process peak)",
    )
    return (
        render_deterministic(result)
        + "\n\n"
        + host
        + (
            "\nThe simulated table is deterministic; the host table is not"
            "\n(and keeps ext-scale out of `all`). Idle nodes schedule no"
            "\nevents and materialize no device stack, so events and cycle"
            "\ncost follow the active-node count, not the pool size."
        )
    )
