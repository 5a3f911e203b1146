"""A3 — ablation: negotiation-cycle interval sensitivity.

The paper attributes MCCK's small degradation on the high-skew
distribution to "having to wait for Condor's scheduling cycle" (§V-B):
every knapsack decision only takes effect at the next negotiation cycle.
This ablation sweeps the cycle interval for MCC and MCCK on the normal
and high-skew sets to quantify that integration overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from ..metrics import format_series
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import JobCounts, SimTask, sim_task

DEFAULT_INTERVALS = (2.0, 5.0, 10.0, 20.0, 40.0)

#: series -> the configuration it runs.
_SERIES = {"MCC": "MCC", "MCCK": "MCCK", "MCCK+resched": "MCCK"}


@dataclass
class CycleAblationResult:
    job_count: int
    nodes: int
    intervals: tuple[float, ...]
    #: makespans[distribution][configuration] -> aligned with intervals
    makespans: dict[str, dict[str, list[float]]]


PARAMS = dict(
    jobs=400, intervals=DEFAULT_INTERVALS, config=PAPER_CLUSTER,
    seed=DEFAULT_SEED, distributions=("normal", "high-skew"),
)
JOBS = JobCounts(quick=120, full=400)


def keys(p):
    return product(p.distributions, p.intervals, _SERIES)


def cell(p, distribution: str, interval: float, series: str) -> SimTask:
    config = replace(p.config, cycle_interval=interval)
    if series == "MCCK+resched":
        # condor_reschedule: completions trigger extra cycles, which
        # should largely flatten MCCK's sensitivity to the interval.
        config = replace(config, reschedule_on_completion=True)
    return sim_task(
        "ablation-cycle", _SERIES[series], config,
        ("synthetic", p.jobs, distribution, p.seed),
        label=f"{distribution}/{series}@{interval:g}s",
    )


def result(p, cells: dict) -> CycleAblationResult:
    makespans = {
        d: {
            series: [cells[d, i, series]["makespan"] for i in p.intervals]
            for series in _SERIES
        }
        for d in p.distributions
    }
    return CycleAblationResult(
        job_count=p.jobs, nodes=p.config.nodes, intervals=p.intervals,
        makespans=makespans,
    )


def render(result: CycleAblationResult) -> str:
    blocks = [
        f"A3: makespan vs negotiation-cycle interval "
        f"({result.job_count} jobs, {result.nodes} nodes)"
    ]
    for distribution, series in result.makespans.items():
        blocks.append(
            format_series(
                "cycle (s)",
                [f"{i:g}" for i in result.intervals],
                series,
                title=f"\n[{distribution}]",
            )
        )
    return "\n".join(blocks)
