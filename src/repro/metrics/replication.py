"""Replication statistics: mean / spread / confidence over seeds.

The paper reports single-run numbers; for a simulator it is cheap to do
better. These helpers summarize the distribution of a scalar metric
measured across seeds, so benches and users can distinguish real effects
from workload-draw noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Two-sided t critical values at 95% for small sample sizes (df 1..30).
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
    20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
}


@dataclass(frozen=True)
class Replicated:
    """Distribution summary of one scalar over replications."""

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        if self.n < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    @property
    def stderr(self) -> float:
        if self.n < 2:
            return 0.0
        return self.std / math.sqrt(self.n)

    @property
    def ci95(self) -> tuple[float, float]:
        """95% t-interval for the mean."""
        if self.n < 2:
            return (self.mean, self.mean)
        t = _T95.get(self.n - 1, 1.96)
        half = t * self.stderr
        return (self.mean - half, self.mean + half)

    @property
    def minimum(self) -> float:
        return float(min(self.values))

    @property
    def maximum(self) -> float:
        return float(max(self.values))

    def __str__(self) -> str:
        lo, hi = self.ci95
        return f"{self.mean:.1f} ± {hi - self.mean:.1f} (n={self.n})"


def compare(
    a: Replicated, b: Replicated
) -> float:
    """Welch's t statistic for mean(a) - mean(b) (|t| > ~2 is a real gap)."""
    if a.n < 2 or b.n < 2:
        raise ValueError("need at least two replications per side")
    denominator = math.sqrt(a.stderr**2 + b.stderr**2)
    if denominator == 0:
        return 0.0 if a.mean == b.mean else math.inf
    return (a.mean - b.mean) / denominator
