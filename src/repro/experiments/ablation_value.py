"""A1 — ablation: the knapsack value function (Eq. 1 vs alternatives).

The paper sets v_i = 1 - (t_i/240)^2 so low-thread jobs pack together.
This ablation swaps that for the registered alternatives (linear penalty,
count-first, thread-blind constant, and Eq. 1 with the positive floor)
and measures MCCK makespan on the real mix and a normal synthetic set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..cluster import run_mcck
from ..core import DevicePacker, get_value_function, value_function_names
from ..metrics import format_table
from .common import DEFAULT_SEED, PAPER_CLUSTER, make_workload, workload_spec
from .runner import JobCounts, SimTask

_WORKLOADS = ("table1", "normal")


@dataclass
class ValueAblationResult:
    job_count: int
    nodes: int
    #: makespans[value_fn_name][workload] -> seconds
    makespans: dict[str, dict[str, float]]


PARAMS = dict(
    jobs=400, config=PAPER_CLUSTER, seed=DEFAULT_SEED, thread_capacity=240
)
JOBS = JobCounts(quick=120, full=400)


def keys(p):
    return product(value_function_names(), _WORKLOADS)


def cell(p, name: str, workload: str) -> SimTask:
    return SimTask.make(
        "ablation-value", "ablation-value.cell",
        label=f"{name}/{workload}",
        value_fn=name,
        thread_capacity=p.thread_capacity,
        config=p.config,
        workload=workload_spec(workload, p.jobs, p.seed),
    )


def compute(task: SimTask) -> float:
    p = task.kwargs()
    packer = DevicePacker(
        value_fn=get_value_function(p["value_fn"]),
        thread_capacity=p["thread_capacity"],
    )
    job_set = make_workload(p["workload"])
    return run_mcck(job_set, p["config"], packer=packer).makespan


def result(p, cells: dict) -> ValueAblationResult:
    makespans = {
        name: {w: cells[name, w] for w in _WORKLOADS}
        for name in value_function_names()
    }
    return ValueAblationResult(
        job_count=p.jobs, nodes=p.config.nodes, makespans=makespans
    )


def render(result: ValueAblationResult) -> str:
    rows = [
        [name, f"{by_wl['table1']:.0f}", f"{by_wl['normal']:.0f}"]
        for name, by_wl in result.makespans.items()
    ]
    return format_table(
        ["value function", "Table-I mix (s)", "normal synthetic (s)"],
        rows,
        title=(
            f"A1: MCCK makespan by knapsack value function "
            f"({result.job_count} jobs, {result.nodes} nodes)"
        ),
    )
