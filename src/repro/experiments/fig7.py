"""E4 — Fig. 7: the synthetic job sets' resource distributions (inputs).

Regenerates the four 400-job synthetic sets and reports the histogram of
resource levels each produces — uniform spread, mid-heavy bell, and the
two one-sigma-shifted skews the paper draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics import ascii_bar_chart
from ..workloads import DISTRIBUTIONS, generate_synthetic_jobs, resource_histogram
from .common import DEFAULT_SEED
from .runner import JobCounts, SimTask, one_cell


@dataclass
class Fig7Result:
    job_count: int
    histograms: dict[str, np.ndarray]
    mean_declared_mb: dict[str, float]
    mean_declared_threads: dict[str, float]


PARAMS = dict(jobs=400, seed=DEFAULT_SEED, bins=10)
#: Input-only and cheap: the paper's size even at quick scale.
JOBS = JobCounts(quick=400, full=400)


keys, cell, result = one_cell("fig7")


def compute(task: SimTask) -> Fig7Result:
    p = task.kwargs()
    histograms: dict[str, np.ndarray] = {}
    mean_mb: dict[str, float] = {}
    mean_threads: dict[str, float] = {}
    for distribution in DISTRIBUTIONS:
        job_set = generate_synthetic_jobs(p["jobs"], distribution, seed=p["seed"])
        counts, _edges = resource_histogram(job_set, bins=p["bins"])
        histograms[distribution] = counts
        mean_mb[distribution] = float(
            np.mean([j.declared_memory_mb for j in job_set])
        )
        mean_threads[distribution] = float(
            np.mean([j.declared_threads for j in job_set])
        )
    return Fig7Result(
        job_count=p["jobs"],
        histograms=histograms,
        mean_declared_mb=mean_mb,
        mean_declared_threads=mean_threads,
    )


def render(result: Fig7Result) -> str:
    blocks = [
        f"Fig. 7: resource distributions of the synthetic job sets "
        f"({result.job_count} jobs each)"
    ]
    for name, counts in result.histograms.items():
        labels = [
            f"{i / len(counts):.1f}-{(i + 1) / len(counts):.1f}"
            for i in range(len(counts))
        ]
        blocks.append(
            ascii_bar_chart(
                labels,
                [float(c) for c in counts],
                width=40,
                title=(
                    f"\n[{name}] mean declared: "
                    f"{result.mean_declared_mb[name]:.0f} MB / "
                    f"{result.mean_declared_threads[name]:.0f} threads"
                ),
            )
        )
    return "\n".join(blocks)
