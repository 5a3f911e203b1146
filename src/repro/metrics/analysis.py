"""Post-run analysis: where did the time go?

Digs into the artifacts every run already produces — job results, the
per-device offload logs, busy-core telemetry — and answers the questions
the paper's discussion raises: how long did jobs queue, how much were
offloads slowed by sharing, how was work spread across devices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..mpss.runtime import JobRunResult
from ..phi.device import XeonPhi

@dataclass(frozen=True)
class OffloadStats:
    """Aggregate offload behaviour on one device."""

    device: str
    offloads: int
    total_work: float
    total_service_time: float
    mean_slowdown: float
    max_slowdown: float
    killed: int

    @property
    def sharing_overhead(self) -> float:
        """Extra service time relative to running every offload alone."""
        if self.total_work == 0:
            return 0.0
        return self.total_service_time / self.total_work - 1.0


def offload_stats(device: XeonPhi) -> OffloadStats:
    """Summarize one device's offload log."""
    records = device.offload_log
    completed = [r for r in records if r.completed and r.work > 0]
    slowdowns = [(r.end - r.start) / r.work for r in completed]
    return OffloadStats(
        device=device.name,
        offloads=len(records),
        total_work=sum(r.work for r in completed),
        total_service_time=sum(r.end - r.start for r in completed),
        mean_slowdown=float(np.mean(slowdowns)) if slowdowns else 1.0,
        max_slowdown=float(np.max(slowdowns)) if slowdowns else 1.0,
        killed=sum(1 for r in records if not r.completed),
    )


@dataclass(frozen=True)
class QueueStats:
    """How long jobs waited before starting (dispatch + packing latency)."""

    jobs: int
    mean_wait: float
    median_wait: float
    p95_wait: float
    max_wait: float


def queue_stats(
    results: Sequence[JobRunResult], submit_times: dict[str, float] | None = None
) -> QueueStats:
    """Waiting time = start - submit (submit defaults to t=0 for all)."""
    if not results:
        return QueueStats(0, 0.0, 0.0, 0.0, 0.0)
    waits = []
    for result in results:
        submitted = (submit_times or {}).get(result.job_id, 0.0)
        waits.append(max(0.0, result.start - submitted))
    arr = np.asarray(waits)
    return QueueStats(
        jobs=len(waits),
        mean_wait=float(arr.mean()),
        median_wait=float(np.median(arr)),
        p95_wait=float(np.quantile(arr, 0.95)),
        max_wait=float(arr.max()),
    )


@dataclass(frozen=True)
class BalanceStats:
    """Load spread across devices (imbalance hurts makespan tails)."""

    devices: int
    offloads_per_device: tuple[int, ...]
    work_per_device: tuple[float, ...]

    @property
    def work_imbalance(self) -> float:
        """max/mean of per-device completed work (1.0 = perfectly even)."""
        work = np.asarray(self.work_per_device)
        if work.size == 0 or work.mean() == 0:
            return 1.0
        return float(work.max() / work.mean())


def balance_stats(devices: Sequence[XeonPhi]) -> BalanceStats:
    """Completed offload work per device."""
    offloads = []
    work = []
    for device in devices:
        completed = [r for r in device.offload_log if r.completed]
        offloads.append(len(completed))
        work.append(sum(r.work for r in completed))
    return BalanceStats(
        devices=len(devices),
        offloads_per_device=tuple(offloads),
        work_per_device=tuple(work),
    )

