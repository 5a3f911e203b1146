"""Shared infrastructure for the experiment modules.

Every experiment exposes ``run(...) -> <Result>`` and ``render(result)``;
results carry the raw numbers, ``render`` prints the paper-style rows.
``scale`` shrinks job counts for quick benchmark runs (the recorded
numbers in EXPERIMENTS.md use ``scale=1.0``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Tuple

from ..cluster import CONFIGURATIONS, ClusterConfig
from ..workloads.profiles import JobProfile

#: The paper's evaluation platform: 8 nodes, 1 Phi (8 GB) per node.
PAPER_CLUSTER = ClusterConfig(nodes=8, devices_per_node=1)

#: Default RNG seed for job-set generation (reproducibility).
DEFAULT_SEED = 42


def results_dir() -> Path:
    """Where rendered tables land.

    Resolution order: the ``REPRO_RESULTS_DIR`` environment override,
    then ``benchmarks/results/`` in the repository checkout, then
    ``benchmarks/results/`` under the current working directory (for
    installed wheels, where ``parents[3]`` would point into
    site-packages).
    """
    env = os.environ.get("REPRO_RESULTS_DIR")
    if env:
        return Path(env)
    repo = Path(__file__).resolve().parents[3]
    if (repo / "pyproject.toml").exists():
        return repo / "benchmarks" / "results"
    return Path.cwd() / "benchmarks" / "results"


def bench_scale(default: float = 1.0) -> float:
    """Job-count scale for benchmark runs.

    Benchmarks run at paper scale by default (the whole harness takes a
    few minutes sequentially — see :mod:`repro.experiments.runner` for
    the process-pool fan-out; these are the numbers recorded in
    EXPERIMENTS.md). Set ``REPRO_SCALE=0.25`` for a quick smoke pass —
    but beware that very
    low job pressure (few jobs per node) changes the regime: random
    sharing stops paying off, which is itself one of the paper's
    observations (Fig. 9 discussion).
    """
    if os.environ.get("REPRO_FULL"):
        return 1.0
    value = os.environ.get("REPRO_SCALE")
    if value:
        scale = float(value)
        if scale <= 0:
            raise ValueError("REPRO_SCALE must be positive")
        return scale
    return default


def scaled(count: int, scale: float) -> int:
    """Scale a job count, keeping at least a handful of jobs."""
    return max(8, int(round(count * scale)))


def save_result(name: str, text: str) -> Path:
    """Persist a rendered table under :func:`results_dir`."""
    directory = results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def workload_spec(workload: str, jobs: int, seed: int) -> Tuple:
    """The spec of the Table-I mix (``"table1"``) or a synthetic set."""
    if workload == "table1":
        return ("table1", jobs, seed)
    return ("synthetic", jobs, workload, seed)


def make_workload(spec: Tuple) -> Sequence[JobProfile]:
    """Rebuild a job set from its picklable spec.

    ``("table1", count, seed)`` regenerates the real (Table-I) mix;
    ``("synthetic", count, distribution, seed)`` one of the Fig.-7
    synthetic sets. Task grids carry these specs instead of job lists so
    cells stay tiny on the wire and content-addressable in the cache —
    generation is deterministic and cheap relative to a simulation.
    """
    from ..workloads import generate_synthetic_jobs, generate_table1_jobs

    kind = spec[0]
    if kind == "table1":
        _, count, seed = spec
        return generate_table1_jobs(count, seed=seed)
    if kind == "synthetic":
        _, count, distribution, seed = spec
        return generate_synthetic_jobs(count, distribution, seed=seed)
    raise ValueError(f"unknown workload spec {spec!r}")


@dataclass
class GoodputResult:
    """An MC/MCC/MCCK sweep over rates that keeps every cell's counters."""

    job_count: int
    nodes: int
    #: The swept values (fault rates, crash rates, loss probabilities).
    points: tuple[float, ...]
    #: configuration -> per-point cell dicts (aligned with ``points``).
    cells: dict[str, list[dict]]

    @classmethod
    def from_cells(cls, p, points: Sequence[float], cells: dict) -> "GoodputResult":
        """Read the ``(point, configuration)``-keyed cells of a sweep."""
        by_config = {c: [cells[x, c] for x in points] for c in CONFIGURATIONS}
        return cls(p.jobs, p.config.nodes, tuple(points), by_config)

    def goodput(self, configuration: str) -> list[float]:
        """Completed jobs per simulated hour, per point."""
        out = []
        for cell in self.cells[configuration]:
            makespan = cell["makespan"]
            out.append(
                3600.0 * cell["completed"] / makespan if makespan > 0 else 0.0
            )
        return out

    def rows(self, counters: Sequence[str]) -> list[list]:
        """One table row per point and configuration: the point, the
        configuration, goodput, makespan, then ``counters``."""
        return [
            [f"{point:g}", configuration, f"{self.goodput(configuration)[i]:.0f}",
             f"{cells[i]['makespan']:.0f}", *(cells[i][c] for c in counters)]
            for i, point in enumerate(self.points)
            for configuration, cells in self.cells.items()
        ]
