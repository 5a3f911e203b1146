"""Coprocessor footprint: the smallest cluster matching a target makespan.

Table II / Table III of the paper report, for each sharing configuration,
"the cluster size required to achieve the same makespan as the baseline
(MC) on an 8-node cluster". Because makespan decreases monotonically (in
expectation) with cluster size, the smallest size on the measured curve
that meets the target is the footprint; the paper reports integer node
counts the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class FootprintResult:
    """Outcome of a footprint search."""

    target_makespan: float
    cluster_size: Optional[int]  # None: target unreachable within max size
    makespans: dict[int, float]  # size -> measured makespan

    @property
    def found(self) -> bool:
        return self.cluster_size is not None

    def reduction_vs(self, reference_size: int) -> Optional[float]:
        """Fractional cluster-size reduction against a reference size."""
        if self.cluster_size is None:
            return None
        return 1.0 - self.cluster_size / reference_size


def footprint_from_curve(
    target_makespan: float, makespans: dict[int, float]
) -> FootprintResult:
    """Footprint from an already-measured makespan-vs-size curve.

    The parallel harness computes every size of the sweep as an
    independent cell, so the search reduces to scanning the finished
    curve: the smallest size whose makespan meets the target.
    """
    if target_makespan <= 0:
        raise ValueError("target_makespan must be positive")
    for size in sorted(makespans):
        if makespans[size] <= target_makespan:
            return FootprintResult(target_makespan, size, dict(makespans))
    return FootprintResult(target_makespan, None, dict(makespans))
