"""X3 — extension: the oversubscription penalty curve behind §II-C.

The paper leans on COSMIC's measurements ([6]): thread oversubscription
costs up to ~800%, memory oversubscription kills processes. This
experiment regenerates those two behaviours from our device model:

* slowdown of concurrent identical offloads vs the oversubscription
  ratio (managed/affinitized vs unmanaged);
* survival rate of co-resident processes vs aggregate memory demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics import format_table
from ..mpss import FREE_TRANSFERS, OffloadRuntime
from ..phi import AffinitizedContention, UnmanagedContention, XeonPhi
from ..sim import Environment
from ..workloads import HostPhase, JobProfile, OffloadPhase
from .runner import SimTask, one_cell

DEFAULT_RATIOS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@dataclass
class OversubscriptionResult:
    ratios: tuple[float, ...]
    #: per-offload service-time multiplier vs running alone
    slowdowns_unmanaged: list[float]
    slowdowns_managed: list[float]
    memory_demand_mb: tuple[float, ...]
    survival_rate: list[float]


def _thread_slowdown(ratio: float, contention) -> float:
    """Two identical offloads sized so total demand = ratio x 240."""
    env = Environment()
    phi = XeonPhi(env, contention=contention)
    threads = max(4, int(round(ratio * 240 / 2 / 4)) * 4)
    ends = []

    def job(env, owner):
        phi.register_process(owner)
        yield from phi.run_offload(owner, threads, 10.0)
        ends.append(env.now)
        phi.unregister_process(owner)

    env.process(job(env, "a"))
    env.process(job(env, "b"))
    env.run()
    return max(ends) / 10.0


def _survival(total_mb: float, processes: int = 4) -> float:
    """Fraction of co-resident processes surviving a given total demand."""
    env = Environment()
    phi = XeonPhi(env)
    runtime = OffloadRuntime(env, phi, scif=FREE_TRANSFERS)
    per_process = total_mb / processes
    outcomes = []

    def job(env, i):
        profile = JobProfile(
            job_id=f"p{i}",
            app="x3",
            phases=(HostPhase(0.1 * i),
                    OffloadPhase(work=5.0, threads=40, memory_mb=per_process)),
            declared_memory_mb=max(per_process, 1.0),
            declared_threads=40,
        )
        result = yield from runtime.execute(profile)
        outcomes.append(result.completed)

    for i in range(processes):
        env.process(job(env, i))
    env.run()
    return sum(outcomes) / len(outcomes)


PARAMS = dict(
    ratios=DEFAULT_RATIOS, memory_demand_mb=(4096, 8192, 10240, 12288, 16384)
)
#: Exact: no job count to scale.
JOBS = None


keys, cell, result = one_cell("ext-oversubscription")


def compute(task: SimTask) -> OversubscriptionResult:
    p = task.kwargs()
    return OversubscriptionResult(
        ratios=p["ratios"],
        slowdowns_unmanaged=[
            _thread_slowdown(r, UnmanagedContention()) for r in p["ratios"]
        ],
        slowdowns_managed=[
            _thread_slowdown(r, AffinitizedContention()) for r in p["ratios"]
        ],
        memory_demand_mb=p["memory_demand_mb"],
        survival_rate=[_survival(mb) for mb in p["memory_demand_mb"]],
    )


def render(result: OversubscriptionResult) -> str:
    thread_rows = [
        [
            f"{ratio:.1f}x",
            f"{result.slowdowns_unmanaged[i]:.2f}x",
            f"{result.slowdowns_managed[i]:.2f}x",
        ]
        for i, ratio in enumerate(result.ratios)
    ]
    threads = format_table(
        ["thread demand / 240", "unmanaged slowdown", "affinitized slowdown"],
        thread_rows,
        title="X3a: concurrent-offload slowdown vs thread oversubscription",
    )
    memory_rows = [
        [f"{mb:.0f} MB", f"{100 * result.survival_rate[i]:.0f}%"]
        for i, mb in enumerate(result.memory_demand_mb)
    ]
    memory = format_table(
        ["total resident demand (8192 MB card)", "process survival"],
        memory_rows,
        title="\nX3b: OOM-killer survival vs memory oversubscription",
    )
    return threads + "\n" + memory + (
        "\n(paper/[6] anchors: up to ~8x thread-oversubscription slowdown;"
        "\narbitrary process kills once physical memory is oversubscribed)"
    )
