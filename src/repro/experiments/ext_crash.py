"""X8 — extension: goodput under daemon crash–recovery.

The paper's pools assume the central daemons never die. Real pools
restart their schedds mid-burn: HTCondor survives because the schedd
journals its queue (``job_queue.log``) and reconciles claims against
startd leases on the way back up. This extension injects schedd /
negotiator / collector crashes at increasing rates and asks what the
sharing stacks pay for durability:

* **goodput** — jobs completed per simulated hour;
* **makespan** — queue-drain including downtime and replay;
* the recovery ledger — crashes injected, WAL records replayed, jobs
  re-adopted by claim token vs. routed through retry.

The rate-0 column runs with no faults and no fabric at all
(``faults=None, net=None``), so it reproduces the paper's baseline
tables byte-for-byte. Crash cells ride the default (quiet, reliable)
:class:`~repro.net.profile.NetProfile` — daemon downtime is modelled as
fabric endpoint downtime, so the fabric is required — with seeds derived
from the experiment seed (``derive_fault_seed`` / ``derive_net_seed``),
making the whole grid deterministic: same seed and rates, byte-identical
tables (asserted in ``tests/test_experiments_crash.py``). Both profiles
are frozen dataclasses inside the task parameters, so they participate
in the result-cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import ClusterConfig
from ..faults import FaultProfile, derive_fault_seed
from ..metrics import format_table
from ..net import NetProfile, derive_net_seed
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute

#: Daemon crashes per 1000 simulated seconds (0 = the paper's baseline).
#: The quick-scale queue drains in ~250 simulated seconds, so rates
#: below ~4/ks usually draw zero crashes before the pool goes idle —
#: the sweep starts where crash-restart cycles actually land mid-burn.
DEFAULT_RATES = (0.0, 5.0, 10.0, 20.0)

_CONFIGURATIONS = ("MC", "MCC", "MCCK")


@dataclass
class CrashResult:
    job_count: int
    rates: tuple[float, ...]
    #: configuration -> per-rate cell dicts (aligned with ``rates``).
    cells: dict[str, list[dict]]

    def goodput(self, configuration: str) -> list[float]:
        """Completed jobs per simulated hour, per crash rate."""
        out = []
        for cell in self.cells[configuration]:
            makespan = cell["makespan"]
            out.append(
                3600.0 * cell["completed"] / makespan if makespan > 0 else 0.0
            )
        return out


def _profile(
    rate: float, crashes: tuple[tuple[float, str], ...] = ()
) -> Optional[FaultProfile]:
    """Fault profile for one crash column; ``None`` keeps the baseline."""
    if rate <= 0 and not crashes:
        return None
    return FaultProfile(daemon_crash_rate=rate, crashes=crashes)


def tasks(
    jobs: int = 200,
    rates: tuple[float, ...] = DEFAULT_RATES,
    crashes: tuple[tuple[float, str], ...] = (),
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> list[SimTask]:
    workload = ("table1", jobs, seed)
    fault_seed = derive_fault_seed(seed)
    net_seed = derive_net_seed(seed)
    grid: list[SimTask] = []
    for rate in rates:
        faults = _profile(rate, crashes)
        for configuration in _CONFIGURATIONS:
            grid.append(
                SimTask.make(
                    "ext-crash",
                    "sim",
                    label=f"{configuration}@{rate:g}/ks",
                    configuration=configuration,
                    config=config,
                    workload=workload,
                    faults=faults,
                    fault_seed=fault_seed,
                    # Crash cells need the fabric (daemon downtime is
                    # endpoint downtime); the default profile is quiet
                    # and reliable, isolating the cost of the crashes.
                    net=None if faults is None else NetProfile(),
                    net_seed=net_seed,
                )
            )
    return grid


def merge(
    values: list,
    jobs: int = 200,
    rates: tuple[float, ...] = DEFAULT_RATES,
    crashes: tuple[tuple[float, str], ...] = (),
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> CrashResult:
    cursor = iter(values)
    cells: dict[str, list[dict]] = {c: [] for c in _CONFIGURATIONS}
    for _rate in rates:
        for configuration in _CONFIGURATIONS:
            cells[configuration].append(next(cursor))
    return CrashResult(job_count=jobs, rates=rates, cells=cells)


def run(
    jobs: int = 200,
    rates: tuple[float, ...] = DEFAULT_RATES,
    crashes: tuple[tuple[float, str], ...] = (),
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    runner: Optional[TaskRunner] = None,
) -> CrashResult:
    grid = tasks(
        jobs=jobs, rates=rates, crashes=crashes, config=config, seed=seed
    )
    values = execute(grid, runner)
    return merge(
        values, jobs=jobs, rates=rates, crashes=crashes, config=config,
        seed=seed,
    )


def render(result: CrashResult) -> str:
    headers = [
        "rate/ks", "config", "goodput/h", "makespan", "completed",
        "crashes", "recoveries", "wal-replayed", "readopted", "retried",
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
                    cell["crashes"],
                    cell["recoveries"],
                    cell["wal_replayed"],
                    cell["readopted"],
                    cell["retried"],
                ]
            )
    table = format_table(
        headers,
        rows,
        title=(
            f"X8: goodput under daemon crash–recovery "
            f"({result.job_count} Table-I jobs, {PAPER_CLUSTER.nodes} nodes)"
        ),
    )
    return table + (
        "\nRate 0 runs without the recovery subsystem and reproduces the"
        "\npaper's tables exactly. Under crashes, the schedd journals its"
        "\nqueue to a write-ahead log, replays it on restart, and"
        "\nreconciles in-flight claims against startd leases: still-live"
        "\nruns are re-adopted by claim token, lost ones flow through the"
        "\nretry/backoff path. The collector rebuilds statelessly from"
        "\nforced re-advertisement; the negotiator restarts cold. No job"
        "\nis lost or completed twice (asserted by --audit)."
    )
