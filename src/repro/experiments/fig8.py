"""E5 — Fig. 8: makespan sensitivity to the job resource distribution.

400 synthetic jobs per distribution on the 8-node cluster, comparing MC,
MCC and MCCK. Expected shape (paper): large improvements for uniform /
normal / low-skew; compressed improvements for high-skew, where MCCK may
degrade slightly against MCC (negotiation-cycle latency) but both still
beat the exclusive baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..cluster import CONFIGURATIONS
from ..metrics import format_table, percent_reduction
from ..workloads import DISTRIBUTIONS
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import JobCounts, SimTask, sim_task


@dataclass
class Fig8Result:
    job_count: int
    nodes: int
    #: makespans[distribution][configuration] -> seconds
    makespans: dict[str, dict[str, float]]

    def reduction(self, distribution: str, configuration: str) -> float:
        base = self.makespans[distribution]["MC"]
        return percent_reduction(base, self.makespans[distribution][configuration])


PARAMS = dict(
    jobs=400, config=PAPER_CLUSTER, seed=DEFAULT_SEED, distributions=DISTRIBUTIONS
)
JOBS = JobCounts(quick=120, full=400)


def keys(p):
    return product(p.distributions, CONFIGURATIONS)


def cell(p, distribution: str, configuration: str) -> SimTask:
    return sim_task(
        "fig8", configuration, p.config,
        ("synthetic", p.jobs, distribution, p.seed),
        label=f"{distribution}/{configuration}",
    )


def result(p, cells: dict) -> Fig8Result:
    makespans = {
        d: {c: cells[d, c]["makespan"] for c in CONFIGURATIONS}
        for d in p.distributions
    }
    return Fig8Result(job_count=p.jobs, nodes=p.config.nodes, makespans=makespans)


def render(result: Fig8Result) -> str:
    def cell(distribution: str, configuration: str) -> str:
        # Signed change vs MC: a reduction prints as "-27%", a slowdown
        # (negative reduction) as "+27%".
        change = -result.reduction(distribution, configuration)
        makespan = result.makespans[distribution][configuration]
        return f"{makespan:.0f} ({change:+.0f}%)"

    rows = [
        [
            distribution,
            f"{by_config['MC']:.0f}",
            cell(distribution, "MCC"),
            cell(distribution, "MCCK"),
        ]
        for distribution, by_config in result.makespans.items()
    ]
    return format_table(
        ["distribution", "MC (s)", "MCC (s)", "MCCK (s)"],
        rows,
        title=(
            f"Fig. 8: makespan by resource distribution "
            f"({result.job_count} synthetic jobs, {result.nodes} nodes)"
        ),
    )
