"""X2 — extension: consolidating coprocessors (D devices per node).

The problem formulation (§IV-B) allows D Xeon Phis per server but the
testbed had one. This extension holds total cards constant (8) and
varies the node shape: 8x1, 4x2, 2x4. Consolidation pools the host slots
that feed each card and lets the within-node device picker balance, at
the price of fewer host CPUs per card.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from ..metrics import format_table
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import JobCounts, SimTask, sim_task

#: (nodes, devices_per_node) shapes with 8 cards total.
DEFAULT_SHAPES = ((8, 1), (4, 2), (2, 4))

_CONFIGURATIONS = ("MCC", "MCCK")


@dataclass
class MultiDeviceResult:
    job_count: int
    shapes: tuple[tuple[int, int], ...]
    makespans: dict[str, list[float]]  # configuration -> aligned with shapes


PARAMS = dict(
    jobs=400, shapes=DEFAULT_SHAPES, config=PAPER_CLUSTER, seed=DEFAULT_SEED
)
JOBS = JobCounts(quick=120, full=400)


def keys(p):
    return product(p.shapes, _CONFIGURATIONS)


def cell(p, shape: tuple[int, int], configuration: str) -> SimTask:
    nodes, devices = shape
    return sim_task(
        "ext-multidevice", configuration,
        replace(p.config, nodes=nodes, devices_per_node=devices),
        ("table1", p.jobs, p.seed),
        label=f"{configuration}@{nodes}x{devices}",
    )


def result(p, cells: dict) -> MultiDeviceResult:
    makespans = {
        c: [cells[shape, c]["makespan"] for shape in p.shapes]
        for c in _CONFIGURATIONS
    }
    return MultiDeviceResult(job_count=p.jobs, shapes=p.shapes, makespans=makespans)


def render(result: MultiDeviceResult) -> str:
    rows = []
    for i, (nodes, devices) in enumerate(result.shapes):
        rows.append(
            [
                f"{nodes} nodes x {devices} Phi",
                f"{result.makespans['MCC'][i]:.0f}",
                f"{result.makespans['MCCK'][i]:.0f}",
            ]
        )
    return format_table(
        ["cluster shape (8 cards total)", "MCC (s)", "MCCK (s)"],
        rows,
        title=f"X2: consolidation at constant card count ({result.job_count} jobs)",
    )
