"""X6 — extension: goodput under an unreliable daemon network.

The paper's pools assume daemons reach each other instantly and
reliably. Real Condor pools do not: matches, claim activations, and
machine-ad updates cross a network that delays, drops, duplicates, and
occasionally partitions. This extension routes every daemon pair through
the seeded :class:`~repro.net.fabric.MessageFabric` at increasing loss
rates and asks what the sharing stacks pay for robustness:

* **goodput** — jobs completed per simulated hour;
* **makespan** — queue-drain including retransmit and lease-recovery
  latency;
* the transport ledger — retransmits, duplicates dropped, lease
  expiries, claims lost, match timeouts.

The loss-0 column runs with no fabric at all (``net=None``), so it
reproduces the paper's baseline tables byte-for-byte; fabric cells use
``NetProfile.chaos(loss)`` with the net seed derived from the experiment
seed (:func:`~repro.net.profile.derive_net_seed`), making the whole grid
as deterministic as the fault-free experiments. The fabric profile is a
frozen dataclass inside the task parameters, so it participates in the
result-cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cluster import ClusterConfig
from ..metrics import format_table
from ..net import NetProfile, PartitionSpec, derive_net_seed
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import SimTask, TaskRunner, execute

#: Per-message loss probabilities (0 = the paper's in-process baseline).
DEFAULT_LOSSES = (0.0, 0.02, 0.05, 0.10)

_CONFIGURATIONS = ("MC", "MCC", "MCCK")


@dataclass
class NetChaosResult:
    job_count: int
    losses: tuple[float, ...]
    #: configuration -> per-loss cell dicts (aligned with ``losses``).
    cells: dict[str, list[dict]]

    def goodput(self, configuration: str) -> list[float]:
        """Completed jobs per simulated hour, per loss rate."""
        out = []
        for cell in self.cells[configuration]:
            makespan = cell["makespan"]
            out.append(
                3600.0 * cell["completed"] / makespan if makespan > 0 else 0.0
            )
        return out


def _profile(
    loss: float,
    partitions: tuple[PartitionSpec, ...] = (),
    delay_s: Optional[float] = None,
) -> Optional[NetProfile]:
    """Fabric profile for one loss column; ``None`` keeps the pool direct."""
    if loss <= 0 and not partitions:
        return None
    if delay_s is not None:
        return NetProfile.chaos(loss, delay_base_s=delay_s, partitions=partitions)
    return NetProfile.chaos(loss, partitions=partitions)


def tasks(
    jobs: int = 200,
    losses: tuple[float, ...] = DEFAULT_LOSSES,
    partitions: tuple[PartitionSpec, ...] = (),
    delay_s: Optional[float] = None,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> list[SimTask]:
    workload = ("table1", jobs, seed)
    net_seed = derive_net_seed(seed)
    grid: list[SimTask] = []
    for loss in losses:
        for configuration in _CONFIGURATIONS:
            grid.append(
                SimTask.make(
                    "ext-netchaos",
                    "sim",
                    label=f"{configuration}@loss{loss:g}",
                    configuration=configuration,
                    config=config,
                    workload=workload,
                    net=_profile(loss, partitions, delay_s),
                    net_seed=net_seed,
                )
            )
    return grid


def merge(
    values: list,
    jobs: int = 200,
    losses: tuple[float, ...] = DEFAULT_LOSSES,
    partitions: tuple[PartitionSpec, ...] = (),
    delay_s: Optional[float] = None,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
) -> NetChaosResult:
    cursor = iter(values)
    cells: dict[str, list[dict]] = {c: [] for c in _CONFIGURATIONS}
    for _loss in losses:
        for configuration in _CONFIGURATIONS:
            cells[configuration].append(next(cursor))
    return NetChaosResult(job_count=jobs, losses=losses, cells=cells)


def run(
    jobs: int = 200,
    losses: tuple[float, ...] = DEFAULT_LOSSES,
    partitions: tuple[PartitionSpec, ...] = (),
    delay_s: Optional[float] = None,
    config: ClusterConfig = PAPER_CLUSTER,
    seed: int = DEFAULT_SEED,
    runner: Optional[TaskRunner] = None,
) -> NetChaosResult:
    grid = tasks(
        jobs=jobs, losses=losses, partitions=partitions, delay_s=delay_s,
        config=config, seed=seed,
    )
    values = execute(grid, runner)
    return merge(
        values, jobs=jobs, losses=losses, partitions=partitions,
        delay_s=delay_s, config=config, seed=seed,
    )


def render(result: NetChaosResult) -> str:
    headers = [
        "loss", "config", "goodput/h", "makespan", "completed",
        "retrans", "dup-drop", "lease-exp", "claims-lost", "match-to",
    ]
    rows = []
    for i, loss in enumerate(result.losses):
        for configuration in _CONFIGURATIONS:
            cell = result.cells[configuration][i]
            rows.append(
                [
                    f"{loss:g}",
                    configuration,
                    f"{result.goodput(configuration)[i]:.0f}",
                    f"{cell['makespan']:.0f}",
                    cell["completed"],
                    cell["retransmits"],
                    cell["dup_dropped"],
                    cell["lease_expiries"],
                    cell["claims_lost"],
                    cell["match_timeouts"],
                ]
            )
    table = format_table(
        headers,
        rows,
        title=(
            f"X6: goodput under an unreliable daemon network "
            f"({result.job_count} Table-I jobs, {PAPER_CLUSTER.nodes} nodes)"
        ),
    )
    return table + (
        "\nLoss 0 runs the daemons in-process and reproduces the paper's"
        "\ntables exactly. Under loss, every daemon message rides the"
        "\nat-least-once fabric: retransmits recover drops, duplicate"
        "\ndeliveries are deduplicated, and claims whose lease renewals"
        "\nstall are killed on the startd and requeued by the schedd —"
        "\nno job is lost or run twice (asserted by --audit)."
    )
