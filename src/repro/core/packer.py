"""Pack one coprocessor: from pending jobs to a chosen subset.

This is the inner step of the paper's Fig. 4 loop: given the free memory
of one Xeon Phi and the set of still-unscheduled jobs, model the device
as a knapsack and choose the subset to run, maximizing concurrency via
the value function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

from ..sim import profile as _profile
from .knapsack import (
    DEFAULT_QUANTUM_MB,
    Item,
    knapsack_1d,
    knapsack_cardinality,
    knapsack_thread_capped,
)
from .value import ValueFunction, paper_value_floored


class PackableJob(Protocol):
    """What the packer needs to know about a job (JobProfile satisfies it)."""

    job_id: str

    @property
    def declared_memory_mb(self) -> float: ...

    @property
    def declared_threads(self) -> int: ...


@dataclass(frozen=True)
class DevicePacking:
    """The packer's decision for one device."""

    chosen: tuple[str, ...]  # job ids, in input order
    total_declared_mb: float
    total_declared_threads: int
    total_value: float

    @property
    def concurrency(self) -> int:
        """Number of co-scheduled jobs — the paper's objective."""
        return len(self.chosen)


class DevicePacker:
    """Turns (free memory, pending jobs) into a packing decision.

    Parameters
    ----------
    value_fn:
        Job value as a function of declared threads (default: Eq. 1 with
        a small floor; see :mod:`repro.core.value`).
    quantum_mb:
        Memory quantization for the DP (paper: 50 MB).
    thread_capacity:
        When set, enforce the paper's literal rule that packings whose
        declared threads exceed the hardware budget are worthless
        (memory x thread DP). When ``None`` (default), threads influence
        packing only through the value function and COSMIC handles
        runtime thread safety — the configuration that actually shares
        well (see ablation A2).
    """

    def __init__(
        self,
        value_fn: Optional[ValueFunction] = None,
        quantum_mb: float = DEFAULT_QUANTUM_MB,
        thread_capacity: Optional[int] = None,
    ) -> None:
        if quantum_mb <= 0:
            raise ValueError("quantum_mb must be positive")
        if thread_capacity is not None and thread_capacity <= 0:
            raise ValueError("thread_capacity must be positive")
        self.value_fn = value_fn or paper_value_floored
        self.quantum_mb = quantum_mb
        self.thread_capacity = thread_capacity
        # Declared thread counts cluster on a handful of values, and the
        # value function is pure, so memoizing per thread count removes
        # the per-item evaluation from the repack hot path.
        self._value_cache: dict[int, float] = {}
        # Item is a frozen dataclass, so instances can be shared between
        # packs; jobs cluster on a few (memory, threads) pairs and every
        # repack used to rebuild an Item per job.
        self._item_cache: dict[tuple[float, int], Item] = {}
        #: Knapsack DP invocations run.
        self.solver_calls = 0

    def _item_value(self, declared_threads: int) -> float:
        cached = self._value_cache.get(declared_threads)
        if cached is None:
            cached = max(self.value_fn(declared_threads), 0.0)
            self._value_cache[declared_threads] = cached
        return cached

    def pack(
        self,
        jobs: Sequence[PackableJob],
        free_memory_mb: float,
        max_jobs: Optional[int] = None,
    ) -> DevicePacking:
        """Choose the subset of ``jobs`` to run on a device with
        ``free_memory_mb`` of unreserved declared memory.

        ``max_jobs`` bounds concurrency (the node's free host slots).
        """
        if free_memory_mb < 0:
            raise ValueError("free_memory_mb must be non-negative")
        cache = self._item_cache
        items = []
        for job in jobs:
            key = (job.declared_memory_mb, job.declared_threads)
            item = cache.get(key)
            if item is None:
                item = Item(
                    weight=job.declared_memory_mb,
                    value=self._item_value(job.declared_threads),
                    threads=job.declared_threads,
                )
                cache[key] = item
            items.append(item)
        if max_jobs is not None:
            # The count bound cannot bind when even the smallest items
            # cannot reach it within the memory capacity; drop the
            # cardinality dimension then (a large constant-factor win on
            # the per-completion repacks, where freed memory is small).
            positive = [item.weight for item in items if item.weight > 0]
            if positive:
                fit_bound = int(free_memory_mb // min(positive))
                if fit_bound <= max_jobs:
                    max_jobs = None

        self.solver_calls += 1
        prof = _profile.ACTIVE
        if prof is not None:
            prof.solver_calls += 1
        if self.thread_capacity is not None:
            result = knapsack_thread_capped(
                items,
                free_memory_mb,
                thread_capacity=self.thread_capacity,
                quantum=self.quantum_mb,
            )
            if max_jobs is not None and result.count > max_jobs:
                result = self._trim(items, result, max_jobs)
        elif max_jobs is not None:
            result = knapsack_cardinality(
                items, free_memory_mb, max_items=max_jobs, quantum=self.quantum_mb
            )
        else:
            result = knapsack_1d(items, free_memory_mb, quantum=self.quantum_mb)

        chosen_ids = tuple(jobs[i].job_id for i in result.indices)
        return DevicePacking(
            chosen=chosen_ids,
            total_declared_mb=result.total_weight,
            total_declared_threads=result.total_threads,
            total_value=result.total_value,
        )

    @staticmethod
    def _trim(items, result, max_jobs):
        """Keep the ``max_jobs`` most valuable chosen items.

        Dropping items never violates memory or thread feasibility, so
        the trimmed packing remains feasible (if mildly suboptimal).
        """
        from .knapsack import PackResult

        keep = sorted(
            result.indices, key=lambda i: items[i].value, reverse=True
        )[:max_jobs]
        keep.sort()
        return PackResult(
            indices=tuple(keep),
            total_value=sum(items[i].value for i in keep),
            total_weight=sum(items[i].weight for i in keep),
            total_threads=sum(items[i].threads for i in keep),
        )
