"""E6 — Fig. 9: effect of cluster size, per resource distribution.

Makespan of the fixed 400-job synthetic sets on clusters of increasing
size. Expected shape (paper): at very small clusters the job pressure is
so high that any sharing (even random) wins and MCCK ~ MCC; as the
cluster grows, cluster-level decisions matter more and MCCK's margin over
MCC widens, while all sharing gains shrink relative to MC.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..cluster import CONFIGURATIONS
from ..metrics import format_series
from ..workloads import DISTRIBUTIONS
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import JobCounts, SimTask, sim_task

#: The cluster sizes Fig. 9's x-axis spans.
DEFAULT_SIZES = (2, 3, 4, 5, 6, 8)


@dataclass
class Fig9Result:
    job_count: int
    sizes: tuple[int, ...]
    #: makespans[distribution][configuration] -> list aligned with sizes
    makespans: dict[str, dict[str, list[float]]]


PARAMS = dict(
    jobs=400, sizes=DEFAULT_SIZES, config=PAPER_CLUSTER, seed=DEFAULT_SEED,
    distributions=DISTRIBUTIONS,
)
JOBS = JobCounts(quick=120, full=400)


def keys(p):
    return product(p.distributions, p.sizes, CONFIGURATIONS)


def cell(p, distribution: str, size: int, configuration: str) -> SimTask:
    return sim_task(
        "fig9", configuration, p.config.resized(size),
        ("synthetic", p.jobs, distribution, p.seed),
        label=f"{distribution}/{configuration}@n{size}",
    )


def result(p, cells: dict) -> Fig9Result:
    makespans = {
        d: {
            c: [cells[d, size, c]["makespan"] for size in p.sizes]
            for c in CONFIGURATIONS
        }
        for d in p.distributions
    }
    return Fig9Result(job_count=p.jobs, sizes=p.sizes, makespans=makespans)


def render(result: Fig9Result) -> str:
    blocks = [
        f"Fig. 9: makespan vs cluster size ({result.job_count} synthetic jobs)"
    ]
    for distribution, series in result.makespans.items():
        blocks.append(
            format_series(
                "nodes",
                list(result.sizes),
                series,
                title=f"\n[{distribution}]",
            )
        )
    return "\n".join(blocks)
