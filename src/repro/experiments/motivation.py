"""E1 — §III motivation: coprocessor utilization under exclusive allocation.

The paper's motivating measurement: with Condor dedicating each Xeon Phi
to one job, average core utilization across the cluster is only ~50% for
the real (Table I) mix and 38-63% across synthetic resource
distributions. This experiment reruns that measurement on the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..metrics import format_table
from ..workloads import DISTRIBUTIONS
from .common import DEFAULT_SEED, PAPER_CLUSTER, workload_spec
from .runner import JobCounts, SimTask, sim_task


@dataclass
class MotivationResult:
    """Mean MC core utilization per workload."""

    real_mix_utilization: float
    synthetic_utilization: dict[str, float]
    job_counts: dict[str, int]

    @property
    def synthetic_band(self) -> tuple[float, float]:
        values = self.synthetic_utilization.values()
        return (min(values), max(values))


PARAMS = dict(
    real_jobs=1000, synthetic_jobs=400, config=PAPER_CLUSTER, seed=DEFAULT_SEED
)
JOBS = JobCounts(
    quick=250, full=1000,
    params=lambda n: {"real_jobs": n, "synthetic_jobs": max(8, int(n * 0.4))},
)


def keys(p):
    return product(("table1", *DISTRIBUTIONS))


def cell(p, workload: str) -> SimTask:
    jobs = p.real_jobs if workload == "table1" else p.synthetic_jobs
    return sim_task(
        "motivation", "MC", p.config, workload_spec(workload, jobs, p.seed),
        label=f"{workload}/MC",
    )


def result(p, cells: dict) -> MotivationResult:
    return MotivationResult(
        real_mix_utilization=cells["table1",]["utilization"],
        synthetic_utilization={d: cells[d,]["utilization"] for d in DISTRIBUTIONS},
        job_counts={
            "real": p.real_jobs, **dict.fromkeys(DISTRIBUTIONS, p.synthetic_jobs)
        },
    )


def render(result: MotivationResult) -> str:
    rows = [
        [
            "Table-I mix",
            result.job_counts["real"],
            f"{100 * result.real_mix_utilization:.1f}%",
            "~50%",
        ]
    ]
    paper_band = {"band": "38%-63%"}
    for name, value in result.synthetic_utilization.items():
        rows.append(
            [name, result.job_counts[name], f"{100 * value:.1f}%", paper_band["band"]]
        )
    lo, hi = result.synthetic_band
    table = format_table(
        ["workload", "jobs", "MC core utilization", "paper"],
        rows,
        title="E1 (motivation, SIII): Xeon Phi core utilization under exclusive allocation",
    )
    return table + f"\nsynthetic band: {100 * lo:.1f}%-{100 * hi:.1f}%"
