"""E7 — Table III: footprint reduction per resource distribution.

For each synthetic distribution: the smallest cluster whose MCC / MCCK
makespan matches the 8-node MC baseline. Paper: MCCK 5 / 5 / 3 / 6 nodes
(uniform / normal / low-skew / high-skew) vs MCC 6 / 6 / 4 / 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..metrics import FootprintResult, footprint_from_curve, format_table
from ..workloads import DISTRIBUTIONS
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import JobCounts, SimTask, sim_task

_FOOTPRINT_CONFIGS = ("MCC", "MCCK")


@dataclass
class Table3Result:
    job_count: int
    nodes: int
    #: footprints[distribution][configuration]
    footprints: dict[str, dict[str, FootprintResult]]
    mc_makespans: dict[str, float]


PARAMS = dict(
    jobs=400, config=PAPER_CLUSTER, seed=DEFAULT_SEED, distributions=DISTRIBUTIONS
)
JOBS = JobCounts(quick=120, full=400)


def keys(p):
    """Per distribution: the MC target, then full footprint sweeps."""
    sizes = range(1, p.config.nodes + 1)
    return [
        key
        for d in p.distributions
        for key in [
            (d, "MC", p.config.nodes),
            *product((d,), _FOOTPRINT_CONFIGS, sizes),
        ]
    ]


def cell(p, distribution: str, configuration: str, size: int) -> SimTask:
    return sim_task(
        "table3", configuration, p.config.resized(size),
        ("synthetic", p.jobs, distribution, p.seed),
        label=f"{distribution}/{configuration}@n{size}",
    )


def result(p, cells: dict) -> Table3Result:
    nodes = p.config.nodes
    mc_makespans = {d: cells[d, "MC", nodes]["makespan"] for d in p.distributions}
    footprints = {
        d: {
            c: footprint_from_curve(
                mc_makespans[d],
                {s: cells[d, c, s]["makespan"] for s in range(1, nodes + 1)},
            )
            for c in _FOOTPRINT_CONFIGS
        }
        for d in p.distributions
    }
    return Table3Result(
        job_count=p.jobs, nodes=nodes, footprints=footprints,
        mc_makespans=mc_makespans,
    )


_PAPER = {
    "uniform": ("6 (25%)", "5 (37.5%)"),
    "normal": ("6 (25%)", "5 (37.5%)"),
    "low-skew": ("4 (50%)", "3 (62.5%)"),
    "high-skew": ("6 (25%)", "6 (25%)"),
}


def _cell(fp: FootprintResult, reference: int) -> str:
    if fp.cluster_size is None:
        return f">{reference}"
    reduction = fp.reduction_vs(reference)
    assert reduction is not None
    return f"{fp.cluster_size} ({100 * reduction:.1f}%)"


def render(result: Table3Result) -> str:
    rows = []
    for distribution, by_config in result.footprints.items():
        paper = _PAPER.get(distribution, ("?", "?"))
        rows.append(
            [
                distribution,
                str(result.nodes),
                _cell(by_config["MCC"], result.nodes),
                _cell(by_config["MCCK"], result.nodes),
                f"(paper: MCC {paper[0]}, MCCK {paper[1]})",
            ]
        )
    return format_table(
        ["distribution", "MC", "MCC", "MCCK", "paper reference"],
        rows,
        title=(
            f"Table III: footprint (cluster size matching the {result.nodes}-node MC "
            f"makespan), {result.job_count} jobs"
        ),
    )
