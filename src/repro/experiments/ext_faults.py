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

from itertools import product
from typing import Optional

from ..cluster import CONFIGURATIONS
from ..faults import FaultProfile, derive_fault_seed
from ..metrics import format_table
from .common import DEFAULT_SEED, PAPER_CLUSTER, GoodputResult
from .runner import JobCounts, SimTask, sim_task

#: Fault events per 1000 simulated seconds (0 = the paper's baseline).
DEFAULT_RATES = (0.0, 0.5, 1.0, 2.0, 4.0)


def _profile(rate: float) -> Optional[FaultProfile]:
    return FaultProfile.chaos(rate) if rate > 0 else None


PARAMS = dict(jobs=200, rates=DEFAULT_RATES, config=PAPER_CLUSTER, seed=DEFAULT_SEED)
JOBS = JobCounts(quick=60, full=200)


def keys(p):
    return product(p.rates, CONFIGURATIONS)


def cell(p, rate: float, configuration: str) -> SimTask:
    return sim_task(
        "ext-faults", configuration, p.config, ("table1", p.jobs, p.seed),
        label=f"{configuration}@{rate:g}/ks",
        faults=_profile(rate),
        fault_seed=derive_fault_seed(p.seed),
    )


def result(p, cells: dict) -> GoodputResult:
    return GoodputResult.from_cells(p, p.rates, cells)


def render(result: GoodputResult) -> str:
    headers = [
        "rate/ks", "config", "goodput/h", "makespan",
        "completed", "failed", "requeues", "retried-ok", "injected",
    ]
    rows = result.rows(
        ("completed", "failed", "requeues", "retried", "faults_injected"),
    )
    table = format_table(
        headers,
        rows,
        title=(
            f"X5: goodput and recovery under injected failures "
            f"({result.job_count} Table-I jobs, {result.nodes} nodes)"
        ),
    )
    return table + (
        "\nRate 0 reproduces the fault-free tables exactly. As the rate"
        "\ngrows, the sharing stacks lose more work per card failure but"
        "\nrecover displaced jobs through requeue/backoff; 'failed' counts"
        "\njobs whose retries were exhausted."
    )
