"""Synthetic job sets with controlled resource distributions (Fig. 7).

The sensitivity study (§V-B) builds sets of 400 synthetic offload jobs
whose *resource level* — a single latent variable driving both memory and
thread demand, since "jobs with low Xeon Phi memory requirements also
have low thread requirements" — follows one of four distributions:

* ``uniform`` — equally spread across resource levels;
* ``normal`` — most jobs mid-range;
* ``low-skew`` — mean shifted one standard deviation toward low demand;
* ``high-skew`` — mean shifted one standard deviation toward high demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import JobProfile
from .table1 import build_profile, quantize_memory

DISTRIBUTIONS = ("uniform", "normal", "low-skew", "high-skew")

#: Std-dev of the normal resource-level distribution (level in [0, 1]).
_SIGMA = 0.16
#: The skewed means sit one sigma away from the normal mean (paper text).
_MEANS = {"normal": 0.5, "low-skew": 0.5 - _SIGMA, "high-skew": 0.5 + _SIGMA}


@dataclass(frozen=True)
class SyntheticSpec:
    """Ranges the latent resource level maps into."""

    memory_range_mb: tuple[float, float] = (300.0, 6000.0)
    thread_range: tuple[int, int] = (40, 240)
    mean_duration_s: float = 25.0
    duration_sigma: float = 0.30
    duty_cycle: float = 0.88
    offload_count: tuple[int, int] = (3, 8)


DEFAULT_SPEC = SyntheticSpec()


def draw_levels(
    count: int, distribution: str, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` resource levels in [0, 1] from a Fig.-7 distribution."""
    if distribution == "uniform":
        return rng.uniform(0.0, 1.0, size=count)
    try:
        mean = _MEANS[distribution]
    except KeyError:
        raise ValueError(
            f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}"
        ) from None
    return np.clip(rng.normal(mean, _SIGMA, size=count), 0.0, 1.0)


def level_to_resources(
    level: float, spec: SyntheticSpec = DEFAULT_SPEC
) -> tuple[float, int]:
    """Map one resource level to (peak memory MB, declared threads)."""
    if not 0.0 <= level <= 1.0:
        raise ValueError("level must lie in [0, 1]")
    mem_lo, mem_hi = spec.memory_range_mb
    thr_lo, thr_hi = spec.thread_range
    memory = mem_lo + level * (mem_hi - mem_lo)
    threads = int(round((thr_lo + level * (thr_hi - thr_lo)) / 4.0) * 4)
    return memory, max(4, min(threads, thr_hi))


def generate_synthetic_jobs(
    count: int,
    distribution: str,
    seed: int = 0,
    spec: SyntheticSpec = DEFAULT_SPEC,
) -> list[JobProfile]:
    """Build one synthetic job set (Fig. 7 input to Figs. 8-10)."""
    if count <= 0:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    levels = draw_levels(count, distribution, rng)
    # The duration parameters are loop-invariant; only the draws vary.
    mu = np.log(spec.mean_duration_s) - spec.duration_sigma**2 / 2
    jobs = []
    for i, level in enumerate(levels):
        memory, threads = level_to_resources(float(level), spec)
        nominal = float(rng.lognormal(mu, spec.duration_sigma))
        offloads = int(
            rng.integers(spec.offload_count[0], spec.offload_count[1] + 1)
        )
        jobs.append(
            build_profile(
                job_id=f"syn-{distribution}-{i:04d}",
                app=f"SYN/{distribution}",
                rng=rng,
                threads=threads,
                peak_memory_mb=memory,
                nominal_s=nominal,
                duty_cycle=spec.duty_cycle,
                offloads=offloads,
            )
        )
    return jobs


def resource_histogram(
    jobs: list[JobProfile], bins: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of declared-memory levels (for regenerating Fig. 7)."""
    spec = DEFAULT_SPEC
    mem_lo, mem_hi = spec.memory_range_mb
    levels = [
        (job.declared_memory_mb - mem_lo) / (quantize_memory(mem_hi) - mem_lo)
        for job in jobs
    ]
    counts, edges = np.histogram(np.clip(levels, 0.0, 1.0), bins=bins, range=(0, 1))
    return counts, edges
