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

from itertools import product
from typing import Optional

from ..cluster import CONFIGURATIONS
from ..metrics import format_table
from ..net import NetProfile, PartitionSpec, derive_net_seed
from .common import DEFAULT_SEED, PAPER_CLUSTER, GoodputResult
from .runner import JobCounts, SimTask, sim_task

#: Per-message loss probabilities (0 = the paper's in-process baseline).
DEFAULT_LOSSES = (0.0, 0.02, 0.05, 0.10)


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


PARAMS = dict(
    jobs=200, losses=DEFAULT_LOSSES, partitions=(), delay_s=None,
    config=PAPER_CLUSTER, seed=DEFAULT_SEED,
)
JOBS = JobCounts(quick=60, full=200)


def keys(p):
    return product(p.losses, CONFIGURATIONS)


def cell(p, loss: float, configuration: str) -> SimTask:
    return sim_task(
        "ext-netchaos", configuration, p.config, ("table1", p.jobs, p.seed),
        label=f"{configuration}@loss{loss:g}",
        net=_profile(loss, p.partitions, p.delay_s),
        net_seed=derive_net_seed(p.seed),
    )


def result(p, cells: dict) -> GoodputResult:
    return GoodputResult.from_cells(p, p.losses, cells)


def render(result: GoodputResult) -> str:
    headers = [
        "loss", "config", "goodput/h", "makespan", "completed",
        "retrans", "dup-drop", "lease-exp", "claims-lost", "match-to",
    ]
    rows = result.rows(
        ("completed", "retransmits", "dup_dropped", "lease_expiries",
         "claims_lost", "match_timeouts"),
    )
    table = format_table(
        headers,
        rows,
        title=(
            f"X6: goodput under an unreliable daemon network "
            f"({result.job_count} Table-I jobs, {result.nodes} nodes)"
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
