"""A2 — ablation: the knapsack's hard thread cap.

The paper makes a packing worthless when its total declared threads
exceed the 240 hardware threads. COSMIC already prevents *runtime* thread
oversubscription by gating offloads, so the cap is a cluster-level policy
choice, not a safety requirement. This ablation compares:

* ``cap`` — the paper's rule (memory x thread DP);
* ``no-cap`` — memory-only packing; threads only shape the value;
* ``no-cap/no-slots`` — additionally ignore the host-slot bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..cluster import run_mcck
from ..core import DevicePacker
from ..metrics import format_table
from .common import DEFAULT_SEED, PAPER_CLUSTER, make_workload, workload_spec
from .runner import JobCounts, SimTask

_WORKLOADS = ("table1", "normal")

#: variant name -> (thread_capacity, respect_host_slots); the packer is
#: rebuilt in the worker so tasks carry primitives only.
_VARIANTS = {
    "cap-240 (paper)": (240, True),
    "no-cap": (None, True),
    "no-cap/no-slots": (None, False),
}


@dataclass
class KnapsackAblationResult:
    job_count: int
    nodes: int
    makespans: dict[str, dict[str, float]]  # variant -> workload -> seconds


PARAMS = dict(jobs=400, config=PAPER_CLUSTER, seed=DEFAULT_SEED)
JOBS = JobCounts(quick=120, full=400)


def keys(p):
    return product(_VARIANTS, _WORKLOADS)


def cell(p, variant: str, workload: str) -> SimTask:
    return SimTask.make(
        "ablation-knapsack", "ablation-knapsack.cell",
        label=f"{variant}/{workload}",
        variant=variant,
        config=p.config,
        workload=workload_spec(workload, p.jobs, p.seed),
    )


def compute(task: SimTask) -> float:
    p = task.kwargs()
    thread_capacity, respect_host_slots = _VARIANTS[p["variant"]]
    job_set = make_workload(p["workload"])
    return run_mcck(
        job_set,
        p["config"],
        packer=DevicePacker(thread_capacity=thread_capacity),
        respect_host_slots=respect_host_slots,
    ).makespan


def result(p, cells: dict) -> KnapsackAblationResult:
    makespans = {
        v: {w: cells[v, w] for w in _WORKLOADS} for v in _VARIANTS
    }
    return KnapsackAblationResult(
        job_count=p.jobs, nodes=p.config.nodes, makespans=makespans
    )


def render(result: KnapsackAblationResult) -> str:
    rows = [
        [name, f"{by_wl['table1']:.0f}", f"{by_wl['normal']:.0f}"]
        for name, by_wl in result.makespans.items()
    ]
    return format_table(
        ["knapsack variant", "Table-I mix (s)", "normal synthetic (s)"],
        rows,
        title=(
            f"A2: MCCK makespan by knapsack constraint variant "
            f"({result.job_count} jobs, {result.nodes} nodes)"
        ),
    )
