"""X4 — extension: seed-replication study with confidence intervals.

The paper reports single-run numbers. This extension reruns the Table-II
comparison over several workload seeds and reports mean ± 95% CI for
each configuration's makespan and reduction, separating real effects
from workload-draw noise (and quantifying how (in)significant the
MCC↔MCCK gap is in this simulator — see EXPERIMENTS.md deviation 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..cluster import CONFIGURATIONS
from ..metrics import Replicated, compare, format_table
from .common import DEFAULT_SEED, PAPER_CLUSTER
from .runner import JobCounts, SimTask, sim_task


@dataclass
class ReplicationResult:
    job_count: int
    seeds: tuple[int, ...]
    makespans: dict[str, Replicated]

    def reduction(self, configuration: str) -> Replicated:
        """Per-seed percentage reduction vs the same seed's MC run."""
        mc = self.makespans["MC"].values
        other = self.makespans[configuration].values
        return Replicated(
            tuple(100.0 * (1.0 - o / m) for o, m in zip(other, mc))
        )

    @property
    def mcc_vs_mcck_t(self) -> float:
        """Welch t statistic for the MCC-MCCK makespan gap."""
        return compare(self.makespans["MCC"], self.makespans["MCCK"])


#: Workload seeds ``seed .. seed + replicas - 1``.
PARAMS = dict(jobs=400, replicas=5, config=PAPER_CLUSTER, seed=DEFAULT_SEED)
JOBS = JobCounts(quick=60, full=400)


def _seeds(p) -> tuple[int, ...]:
    return tuple(range(p.seed, p.seed + p.replicas))


def keys(p):
    return product(CONFIGURATIONS, _seeds(p))


def cell(p, configuration: str, workload_seed: int) -> SimTask:
    return sim_task(
        "ext-replication", configuration, p.config,
        ("table1", p.jobs, workload_seed),
        label=f"{configuration}/seed{workload_seed}",
    )


def result(p, cells: dict) -> ReplicationResult:
    makespans = {
        c: Replicated(tuple(cells[c, s]["makespan"] for s in _seeds(p)))
        for c in CONFIGURATIONS
    }
    return ReplicationResult(job_count=p.jobs, seeds=_seeds(p), makespans=makespans)


def render(result: ReplicationResult) -> str:
    rows = []
    for configuration, rep in result.makespans.items():
        lo, hi = rep.ci95
        if configuration == "MC":
            reduction = "-"
        else:
            red = result.reduction(configuration)
            reduction = f"{red.mean:.1f}% ± {red.ci95[1] - red.mean:.1f}"
        rows.append(
            [
                configuration,
                f"{rep.mean:.0f}",
                f"[{lo:.0f}, {hi:.0f}]",
                f"{rep.std:.0f}",
                reduction,
            ]
        )
    table = format_table(
        ["config", "mean makespan (s)", "95% CI", "std", "reduction vs MC"],
        rows,
        title=(
            f"X4: Table-II replication over seeds {list(result.seeds)} "
            f"({result.job_count} jobs per seed)"
        ),
    )
    return table + (
        f"\nMCC vs MCCK Welch t = {result.mcc_vs_mcck_t:.2f} "
        "(|t| < ~2: the gap is within workload noise)"
    )
