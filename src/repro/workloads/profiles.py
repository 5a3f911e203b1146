"""Job profiles: the offload-model structure of a Xeon Phi job.

The paper's jobs launch on the host and *intermittently* offload work to
the coprocessor (Figs. 2 and 3): a job is an alternating sequence of host
phases (the coprocessor is idle for this job) and offload phases (a burst
of device work with a thread count and a resident-memory footprint).

Users declare a per-job **maximum memory** and **maximum thread** demand
(§IV-B); the scheduler sees only those declarations, never the profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union


@dataclass(frozen=True)
class HostPhase:
    """Time the job spends on the host processor; the device sits idle."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("duration must be non-negative")


@dataclass(frozen=True)
class OffloadPhase:
    """One offload burst to the coprocessor.

    Attributes
    ----------
    work:
        Seconds of device execution at full speed (service rate 1).
    threads:
        Device threads the offload spawns.
    memory_mb:
        Device-resident memory while (and after) this offload runs. Per
        the paper's observation that stacks and committed blocks only
        grow, residency is monotone: the process keeps the maximum
        footprint reached so far until it exits.
    transfer_mb:
        Data moved host<->device around the offload (drives the SCIF
        transfer cost; the host blocks during transfers).
    """

    work: float
    threads: int
    memory_mb: float
    transfer_mb: float = 0.0

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError("work must be non-negative")
        if self.threads <= 0:
            raise ValueError("threads must be positive")
        if self.memory_mb < 0:
            raise ValueError("memory_mb must be non-negative")
        if self.transfer_mb < 0:
            raise ValueError("transfer_mb must be non-negative")


Phase = Union[HostPhase, OffloadPhase]


@dataclass(frozen=True)
class JobProfile:
    """A complete job: identity, declared resources, and its phase script.

    The *declared* values are what the user writes in the submit file; the
    scheduler (knapsack weights/values) and COSMIC (enforcement limits)
    consume only these. The phases describe what the job actually does.
    """

    job_id: str
    app: str
    phases: tuple[Phase, ...]
    declared_memory_mb: float
    declared_threads: int
    submit_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if self.declared_memory_mb <= 0:
            raise ValueError("declared_memory_mb must be positive")
        if self.declared_threads <= 0:
            raise ValueError("declared_threads must be positive")
        if self.submit_time < 0:
            raise ValueError("submit_time must be non-negative")
        if not self.phases:
            raise ValueError("a job needs at least one phase")

    # -- derived structure --------------------------------------------------

    def offloads(self) -> Iterator[OffloadPhase]:
        """Iterate the offload phases in order."""
        return (p for p in self.phases if isinstance(p, OffloadPhase))

    @property
    def offload_count(self) -> int:
        return sum(1 for _ in self.offloads())

    @property
    def total_offload_work(self) -> float:
        """Seconds of device work at full speed."""
        return sum(p.work for p in self.offloads())

    @property
    def total_host_time(self) -> float:
        return sum(p.duration for p in self.phases if isinstance(p, HostPhase))

    @property
    def nominal_duration(self) -> float:
        """Wall-clock of the job running alone at full speed, sans transfers."""
        return self.total_offload_work + self.total_host_time

    @property
    def peak_memory_mb(self) -> float:
        """Largest actual device footprint across offloads (0 if none)."""
        return max((p.memory_mb for p in self.offloads()), default=0.0)

    @property
    def peak_threads(self) -> int:
        """Largest actual thread demand across offloads (0 if none)."""
        return max((p.threads for p in self.offloads()), default=0)

    @property
    def honest(self) -> bool:
        """True when declarations cover the job's actual peak demands.

        A dishonest job (user underestimated memory) is exactly what
        COSMIC's container enforcement exists to terminate (§IV-D2).
        """
        return (
            self.peak_memory_mb <= self.declared_memory_mb
            and self.peak_threads <= self.declared_threads
        )

    def validate_fits(self, memory_mb: float, threads: int) -> None:
        """Raise if the declaration cannot fit an empty device."""
        if self.declared_memory_mb > memory_mb:
            raise ValueError(
                f"{self.job_id}: declared memory {self.declared_memory_mb} MB "
                f"exceeds device capacity {memory_mb} MB"
            )
        if self.declared_threads > threads:
            raise ValueError(
                f"{self.job_id}: declared threads {self.declared_threads} "
                f"exceed device hardware threads {threads}"
            )


def alternating_profile(
    job_id: str,
    app: str,
    offloads: list[OffloadPhase],
    host_gaps: list[float],
    declared_memory_mb: float,
    declared_threads: int,
    submit_time: float = 0.0,
    leading_host: float = 0.0,
) -> JobProfile:
    """Build the canonical host/offload alternation of Figs. 2-3.

    ``host_gaps`` supplies the host time *after* each offload; it must be
    the same length as ``offloads`` (use 0.0 for "ends right after the
    last offload").
    """
    if len(host_gaps) != len(offloads):
        raise ValueError("host_gaps must match offloads in length")
    phases: list[Phase] = []
    if leading_host > 0:
        phases.append(HostPhase(leading_host))
    for offload, gap in zip(offloads, host_gaps):
        phases.append(offload)
        if gap > 0:
            phases.append(HostPhase(gap))
    return JobProfile(
        job_id=job_id,
        app=app,
        phases=tuple(phases),
        declared_memory_mb=declared_memory_mb,
        declared_threads=declared_threads,
        submit_time=submit_time,
    )
