"""E2/E3 — Table II: makespan and footprint on the real workload mix.

1000 Table-I job instances on the 8-node cluster:

* makespan under MC, MCC and MCCK (paper: 3568 / 2611 / 2183 seconds,
  i.e. 27% and 39% reductions);
* footprint: the smallest cluster whose MCC / MCCK makespan matches the
  8-node MC baseline (paper: 6 and 5 nodes).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from ..cluster import CONFIGURATIONS
from ..metrics import FootprintResult, footprint_from_curve, format_table, percent_reduction
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import JobCounts, SimTask, sim_task

CONFIGURATIONS = ("MC", "MCC", "MCCK")
_FOOTPRINT_CONFIGS = ("MCC", "MCCK")


@dataclass
class Table2Result:
    job_count: int
    nodes: int
    makespans: dict[str, float]  # configuration -> seconds
    footprints: dict[str, FootprintResult]
    mc_utilization: float

    def reduction(self, configuration: str) -> float:
        return percent_reduction(self.makespans["MC"], self.makespans[configuration])


PARAMS = dict(jobs=1000, config=PAPER_CLUSTER, seed=DEFAULT_SEED, footprint=True)
JOBS = JobCounts(quick=250, full=1000)


def keys(p):
    """Three full-size runs, then the footprint sweeps.

    Every cluster size of a sweep is an independent cell, so the whole
    sweep parallelises and ``result`` reads the footprint off the
    finished makespan-vs-size curve.
    """
    full_size = [(c, p.config.nodes) for c in CONFIGURATIONS]
    if not p.footprint:
        return full_size
    return full_size + list(
        product(_FOOTPRINT_CONFIGS, range(1, p.config.nodes + 1))
    )


def cell(p, configuration: str, size: int) -> SimTask:
    return sim_task(
        "table2", configuration, p.config.resized(size), ("table1", p.jobs, p.seed)
    )


def result(p, cells: dict) -> Table2Result:
    nodes = p.config.nodes
    makespans = {c: cells[c, nodes]["makespan"] for c in CONFIGURATIONS}
    footprints: dict[str, FootprintResult] = {}
    if p.footprint:
        for c in _FOOTPRINT_CONFIGS:
            curve = {
                size: cells[c, size]["makespan"] for size in range(1, nodes + 1)
            }
            footprints[c] = footprint_from_curve(makespans["MC"], curve)
    return Table2Result(
        job_count=p.jobs, nodes=nodes, makespans=makespans, footprints=footprints,
        mc_utilization=cells["MC", nodes]["utilization"],
    )


_PAPER = {
    "MC": ("3568", "-", "-", "-"),
    "MCC": ("2611", "27%", "6", "25%"),
    "MCCK": ("2183", "39%", "5", "37.5%"),
}


def render(result: Table2Result) -> str:
    rows = []
    for configuration in ("MC", "MCC", "MCCK"):
        makespan = result.makespans[configuration]
        reduction = (
            "-" if configuration == "MC" else f"{result.reduction(configuration):.0f}%"
        )
        fp: Optional[FootprintResult] = result.footprints.get(configuration)
        if fp is None:
            size, fp_red = "-", "-"
        elif fp.cluster_size is None:
            size, fp_red = f">{result.nodes}", "-"
        else:
            size = str(fp.cluster_size)
            fp_red = f"{100 * (1 - fp.cluster_size / result.nodes):.1f}%"
        paper = _PAPER[configuration]
        rows.append(
            [
                configuration,
                f"{makespan:.0f}",
                reduction,
                size,
                fp_red,
                f"(paper: {paper[0]} / {paper[1]} / {paper[2]})",
            ]
        )
    return format_table(
        [
            "config",
            "makespan (s)",
            "reduction vs MC",
            "footprint (nodes)",
            "footprint reduction",
            "paper reference",
        ],
        rows,
        title=(
            f"Table II: makespan & footprint, {result.job_count} Table-I jobs, "
            f"{result.nodes}-node cluster "
            f"(MC utilization {100 * result.mc_utilization:.0f}%)"
        ),
    )
