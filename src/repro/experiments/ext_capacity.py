"""X1 — extension: device memory capacity sweep (8 GB vs 16 GB cards).

§II notes Xeon Phi cards shipped with 8-16 GB. The evaluation uses 8 GB;
this extension asks how much of the sharing gain was memory-bound: with
16 GB cards the knapsack can co-schedule roughly twice the jobs, but
sub-linear sharing efficiency and the thread budget cap the return.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from ..cluster import CONFIGURATIONS
from ..metrics import format_series
from ..phi import XeonPhiSpec
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import JobCounts, SimTask, sim_task

DEFAULT_CAPACITIES_MB = (4096, 8192, 12288, 16384)


@dataclass
class CapacityResult:
    job_count: int
    nodes: int
    capacities_mb: tuple[int, ...]
    makespans: dict[str, list[float]]  # configuration -> aligned values


PARAMS = dict(
    jobs=400, capacities_mb=DEFAULT_CAPACITIES_MB, config=PAPER_CLUSTER,
    seed=DEFAULT_SEED,
)
JOBS = JobCounts(quick=120, full=400)


def keys(p):
    return product(p.capacities_mb, CONFIGURATIONS)


def cell(p, capacity: int, configuration: str) -> SimTask:
    spec = XeonPhiSpec(
        cores=p.config.spec.cores,
        threads_per_core=p.config.spec.threads_per_core,
        memory_mb=capacity,
    )
    return sim_task(
        "ext-capacity", configuration, replace(p.config, spec=spec),
        ("table1", p.jobs, p.seed),
        label=f"{configuration}@{capacity // 1024}GB",
    )


def result(p, cells: dict) -> CapacityResult:
    makespans = {
        c: [cells[mb, c]["makespan"] for mb in p.capacities_mb]
        for c in CONFIGURATIONS
    }
    return CapacityResult(
        job_count=p.jobs, nodes=p.config.nodes, capacities_mb=p.capacities_mb,
        makespans=makespans,
    )


def render(result: CapacityResult) -> str:
    table = format_series(
        "card memory",
        [f"{mb // 1024}GB" for mb in result.capacities_mb],
        result.makespans,
        title=(
            f"X1: makespan vs device memory capacity "
            f"({result.job_count} Table-I jobs, {result.nodes} nodes)"
        ),
    )
    return table + (
        "\nMC is capacity-insensitive (one job per card regardless); the"
        "\nsharing stacks gain with capacity until the thread budget and"
        "\nsub-linear sharing efficiency take over."
    )
