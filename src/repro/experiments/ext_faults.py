"""X5 — extension: goodput under injected coprocessor/node failures.

The paper evaluates MC / MCC / MCCK on a healthy cluster. Real Phi
deployments lost cards and nodes routinely (micras resets, PCIe drops),
and a scheduler that packs many jobs per card concentrates the blast
radius of every card it loses. This extension drives the same Table-I
workload through a seeded fault schedule at increasing failure rates and
asks whether the knapsack's sharing gain survives chaos:

* **goodput** — jobs completed per simulated hour (retries make raw
  makespan misleading once jobs can fail terminally);
* **makespan** — queue-drain time including downtime and backoffs;
* the recovery ledger — requeues, retried-then-completed jobs, and jobs
  that exhausted their retries.

Fault schedules are generated from ``derive_fault_seed(seed)``, so the
whole experiment is as deterministic as the fault-free ones: same seed
and rates, byte-identical tables (asserted in
``tests/test_experiments_faults.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import ClusterConfig
from ..faults import FaultProfile, derive_fault_seed
from ..metrics import format_table
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute

#: Fault events per 1000 simulated seconds (0 = the paper's baseline).
DEFAULT_RATES = (0.0, 0.5, 1.0, 2.0, 4.0)

_CONFIGURATIONS = ("MC", "MCC", "MCCK")


@dataclass
class FaultsResult:
    job_count: int
    rates: tuple[float, ...]
    #: configuration -> per-rate cell dicts (aligned with ``rates``).
    cells: dict[str, list[dict]]

    def goodput(self, configuration: str) -> list[float]:
        """Completed jobs per simulated hour, per rate."""
        out = []
        for cell in self.cells[configuration]:
            makespan = cell["makespan"]
            out.append(
                3600.0 * cell["completed"] / makespan if makespan > 0 else 0.0
            )
        return out


def _profile(rate: float) -> Optional[FaultProfile]:
    return FaultProfile.chaos(rate) if rate > 0 else None


def tasks(
    jobs: int = 200,
    rates: tuple[float, ...] = DEFAULT_RATES,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> list[SimTask]:
    workload = ("table1", jobs, seed)
    fault_seed = derive_fault_seed(seed)
    grid: list[SimTask] = []
    for rate in rates:
        for configuration in _CONFIGURATIONS:
            grid.append(
                SimTask.make(
                    "ext-faults",
                    "sim",
                    label=f"{configuration}@{rate:g}/ks",
                    configuration=configuration,
                    config=config,
                    workload=workload,
                    faults=_profile(rate),
                    fault_seed=fault_seed,
                )
            )
    return grid


def merge(
    values: list,
    jobs: int = 200,
    rates: tuple[float, ...] = DEFAULT_RATES,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> FaultsResult:
    cursor = iter(values)
    cells: dict[str, list[dict]] = {c: [] for c in _CONFIGURATIONS}
    for _rate in rates:
        for configuration in _CONFIGURATIONS:
            cells[configuration].append(next(cursor))
    return FaultsResult(job_count=jobs, rates=rates, cells=cells)


def run(
    jobs: int = 200,
    rates: tuple[float, ...] = DEFAULT_RATES,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    runner: Optional[TaskRunner] = None,
) -> FaultsResult:
    grid = tasks(jobs=jobs, rates=rates, config=config, seed=seed)
    values = execute(grid, runner)
    return merge(values, jobs=jobs, rates=rates, config=config, seed=seed)


def render(result: FaultsResult) -> str:
    headers = [
        "rate/ks", "config", "goodput/h", "makespan",
        "completed", "failed", "requeues", "retried-ok", "injected",
    ]
    rows = []
    for i, rate in enumerate(result.rates):
        for configuration in _CONFIGURATIONS:
            cell = result.cells[configuration][i]
            rows.append(
                [
                    f"{rate:g}",
                    configuration,
                    f"{result.goodput(configuration)[i]:.0f}",
                    f"{cell['makespan']:.0f}",
                    cell["completed"],
                    cell["failed"],
                    cell["requeues"],
                    cell["retried"],
                    cell["faults_injected"],
                ]
            )
    table = format_table(
        headers,
        rows,
        title=(
            f"X5: goodput and recovery under injected failures "
            f"({result.job_count} Table-I jobs, {PAPER_CLUSTER.nodes} nodes)"
        ),
    )
    return table + (
        "\nRate 0 reproduces the fault-free tables exactly. As the rate"
        "\ngrows, the sharing stacks lose more work per card failure but"
        "\nrecover displaced jobs through requeue/backoff; 'failed' counts"
        "\njobs whose retries were exhausted."
    )
