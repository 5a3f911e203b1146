"""E8 — Fig. 10: makespan under constant job pressure.

The paper scales the job count with the cluster (200 jobs per node:
400 jobs at 2 nodes up to 1600 at 8) under the normal distribution, to
show that cluster-level scheduling still pays at high job pressure on
larger clusters: at 8 nodes the paper reports MCCK ~11% better than MCC
and ~40% better than MC.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..cluster import CONFIGURATIONS
from ..metrics import format_series, percent_reduction
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import JobCounts, SimTask, sim_task

DEFAULT_SIZES = (2, 4, 6, 8)
JOBS_PER_NODE = 200


@dataclass
class Fig10Result:
    sizes: tuple[int, ...]
    jobs_per_node: int
    job_counts: list[int]
    makespans: dict[str, list[float]]  # configuration -> aligned with sizes

    def final_reduction(self, configuration: str) -> float:
        return percent_reduction(
            self.makespans["MC"][-1], self.makespans[configuration][-1]
        )


PARAMS = dict(
    sizes=DEFAULT_SIZES, jobs_per_node=JOBS_PER_NODE, config=PAPER_CLUSTER,
    seed=DEFAULT_SEED, distribution="normal",
)
#: Job counts are totals at 8 nodes; the pressure is per node.
JOBS = JobCounts(
    quick=8 * JOBS_PER_NODE, full=8 * JOBS_PER_NODE,
    params=lambda count: {"jobs_per_node": max(1, count // 8)},
)


def keys(p):
    return product(p.sizes, CONFIGURATIONS)


def cell(p, size: int, configuration: str) -> SimTask:
    return sim_task(
        "fig10", configuration, p.config.resized(size),
        ("synthetic", p.jobs_per_node * size, p.distribution, p.seed),
        label=f"{configuration}@n{size}x{p.jobs_per_node}",
    )


def result(p, cells: dict) -> Fig10Result:
    return Fig10Result(
        sizes=p.sizes, jobs_per_node=p.jobs_per_node,
        job_counts=[p.jobs_per_node * size for size in p.sizes],
        makespans={
            c: [cells[size, c]["makespan"] for size in p.sizes]
            for c in CONFIGURATIONS
        },
    )


def render(result: Fig10Result) -> str:
    table = format_series(
        "nodes(jobs)",
        [f"{n}({j})" for n, j in zip(result.sizes, result.job_counts)],
        result.makespans,
        title=(
            "Fig. 10: makespan with constant job pressure "
            f"({result.jobs_per_node} jobs/node, normal distribution)"
        ),
    )
    return table + (
        f"\nat the largest size: MCC -{result.final_reduction('MCC'):.0f}%, "
        f"MCCK -{result.final_reduction('MCCK'):.0f}% vs MC "
        "(paper: MCCK -40% vs MC, -11% vs MCC)"
    )
