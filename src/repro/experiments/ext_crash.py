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

from itertools import product
from typing import Optional

from ..cluster import CONFIGURATIONS
from ..faults import FaultProfile, derive_fault_seed
from ..metrics import format_table
from ..net import NetProfile, derive_net_seed
from .common import DEFAULT_SEED, PAPER_CLUSTER, GoodputResult
from .runner import JobCounts, SimTask, sim_task

#: Daemon crashes per 1000 simulated seconds (0 = the paper's baseline).
#: The quick-scale queue drains in ~250 simulated seconds, so rates
#: below ~4/ks usually draw zero crashes before the pool goes idle —
#: the sweep starts where crash-restart cycles actually land mid-burn.
DEFAULT_RATES = (0.0, 5.0, 10.0, 20.0)


def _profile(
    rate: float, crashes: tuple[tuple[float, str], ...] = ()
) -> Optional[FaultProfile]:
    """Fault profile for one crash column; ``None`` keeps the baseline."""
    if rate <= 0 and not crashes:
        return None
    return FaultProfile(daemon_crash_rate=rate, crashes=crashes)


PARAMS = dict(
    jobs=200, rates=DEFAULT_RATES, crashes=(), config=PAPER_CLUSTER, seed=DEFAULT_SEED
)
JOBS = JobCounts(quick=60, full=200)


def keys(p):
    return product(p.rates, CONFIGURATIONS)


def cell(p, rate: float, configuration: str) -> SimTask:
    faults = _profile(rate, p.crashes)
    return sim_task(
        "ext-crash", configuration, p.config, ("table1", p.jobs, p.seed),
        label=f"{configuration}@{rate:g}/ks",
        faults=faults,
        fault_seed=derive_fault_seed(p.seed),
        # Crash cells need the fabric (daemon downtime is endpoint
        # downtime); the default profile is quiet and reliable,
        # isolating the cost of the crashes.
        net=None if faults is None else NetProfile(),
        net_seed=derive_net_seed(p.seed),
    )


def result(p, cells: dict) -> GoodputResult:
    return GoodputResult.from_cells(p, p.rates, cells)


def render(result: GoodputResult) -> str:
    headers = [
        "rate/ks", "config", "goodput/h", "makespan", "completed",
        "crashes", "recoveries", "wal-replayed", "readopted", "retried",
    ]
    rows = result.rows(
        ("completed", "crashes", "recoveries", "wal_replayed", "readopted",
         "retried"),
    )
    table = format_table(
        headers,
        rows,
        title=(
            f"X8: goodput under daemon crash–recovery "
            f"({result.job_count} Table-I jobs, {result.nodes} nodes)"
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
