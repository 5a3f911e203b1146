"""A4 — ablation: cluster-level placement policy spectrum.

Positions the paper's two sharing configurations on a spectrum of
cluster-level intelligence, all over identical COSMIC nodes:

* random (the paper's MCC, memory-unaware "packed arbitrarily");
* random memory-aware (Condor deducts advertised free device memory);
* best-fit (greedy memory-aware, no look-ahead);
* knapsack (the paper's MCCK: look-ahead over the whole pending set).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import run_best_fit, run_mc, run_mcc, run_mcck
from ..metrics import format_table, percent_reduction
from .common import DEFAULT_SEED, PAPER_CLUSTER, make_workload
from .runner import JobCounts, SimTask

#: policy name -> runner; rebuilt in the worker from the policy name.
_POLICIES = {
    "MC": lambda job_set, config: run_mc(job_set, config),
    "random (MCC)": lambda job_set, config: run_mcc(job_set, config),
    "random memory-aware": lambda job_set, config: run_mcc(
        job_set, config, memory_aware=True
    ),
    "best-fit": lambda job_set, config: run_best_fit(job_set, config),
    "knapsack (MCCK)": lambda job_set, config: run_mcck(job_set, config),
}


@dataclass
class PlacementAblationResult:
    job_count: int
    nodes: int
    makespans: dict[str, float]

    def reduction(self, name: str) -> float:
        return percent_reduction(self.makespans["MC"], self.makespans[name])


PARAMS = dict(jobs=400, config=PAPER_CLUSTER, seed=DEFAULT_SEED)
JOBS = JobCounts(quick=120, full=400)


def keys(p):
    return [(policy,) for policy in _POLICIES]


def cell(p, policy: str) -> SimTask:
    return SimTask.make(
        "ablation-placement", "ablation-placement.cell",
        label=policy,
        policy=policy,
        config=p.config,
        workload=("table1", p.jobs, p.seed),
    )


def compute(task: SimTask) -> float:
    p = task.kwargs()
    job_set = make_workload(p["workload"])
    return _POLICIES[p["policy"]](job_set, p["config"]).makespan


def result(p, cells: dict) -> PlacementAblationResult:
    return PlacementAblationResult(
        job_count=p.jobs, nodes=p.config.nodes,
        makespans={policy: cells[policy,] for policy in _POLICIES},
    )


def render(result: PlacementAblationResult) -> str:
    rows = []
    for name, makespan in result.makespans.items():
        reduction = "-" if name == "MC" else f"-{result.reduction(name):.0f}%"
        rows.append([name, f"{makespan:.0f}", reduction])
    return format_table(
        ["placement policy", "makespan (s)", "vs MC"],
        rows,
        title=(
            f"A4: makespan by cluster-level placement policy "
            f"({result.job_count} Table-I jobs, {result.nodes} nodes, "
            "COSMIC everywhere)"
        ),
    )
