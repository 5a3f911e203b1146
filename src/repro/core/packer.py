"""Pack one coprocessor: from pending jobs to a chosen subset.

This is the inner step of the paper's Fig. 4 loop: given the free memory
of one Xeon Phi and the set of still-unscheduled jobs, model the device
as a knapsack and choose the subset to run, maximizing concurrency via
the value function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Collection, Iterator, Optional, Protocol, Sequence, Union

from ..sim import profile as _profile
from .knapsack import DEFAULT_QUANTUM_MB, Item, _plan, _take
from .value import ValueFunction, paper_value_floored


class PackableJob(Protocol):
    """What the packer needs to know about a job (JobProfile satisfies it)."""

    job_id: str

    @property
    def declared_memory_mb(self) -> float: ...

    @property
    def declared_threads(self) -> int: ...


class ShapeGroups:
    """Jobs grouped by declared ``(memory MB, threads)`` shape.

    ``groups`` holds one ``(declared_mb, declared_threads, members)``
    triple per shape, every ``members`` collection in FIFO order. The
    constructor orders the groups by their first member. ``fifo_key``
    orders members across shapes (``None``: members compare as they
    are) and ``job_of`` maps a member to its :class:`PackableJob`.

    A view is also a job sequence: ``len()`` counts its jobs and
    iteration yields them in FIFO order. ``touched`` counts the members
    it has handed out: one head per group to order the groups, then
    every member taken or iterated.
    """

    __slots__ = ("groups", "fifo_key", "job_of", "touched", "_count")

    def __init__(
        self,
        groups: list[tuple[float, int, Collection]],
        fifo_key: Optional[Callable],
        job_of: Callable,
    ) -> None:
        key = fifo_key or (lambda member: member)
        groups.sort(key=lambda group: key(next(iter(group[2]))))
        self.groups = groups
        self.fifo_key = fifo_key
        self.job_of = job_of
        self.touched = len(groups)
        self._count = sum(len(members) for _, _, members in groups)

    @classmethod
    def of(cls, jobs: Sequence[PackableJob]) -> "ShapeGroups":
        """Group a FIFO-ordered job list (members are list positions)."""
        by_shape: dict[tuple[float, int], list[int]] = {}
        for i, job in enumerate(jobs):
            shape = (job.declared_memory_mb, job.declared_threads)
            by_shape.setdefault(shape, []).append(i)
        return cls(
            [(mb, threads, members) for (mb, threads), members in by_shape.items()],
            None,
            jobs.__getitem__,
        )

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[PackableJob]:
        self.touched += self._count
        members = chain.from_iterable(members for _, _, members in self.groups)
        return map(self.job_of, sorted(members, key=self.fifo_key))

    def head(self):
        """The FIFO-first member across all shapes."""
        return next(iter(self.groups[0][2]))

    def take(
        self,
        levels: list[list[tuple[list[int], int]]],
        limit: Optional[int],
    ) -> list[PackableJob]:
        """The jobs a solve chose, in FIFO order: the classes of
        :func:`repro.core.knapsack._solve` in priority ``levels``, at
        most ``limit`` jobs (see :func:`repro.core.knapsack._take`)."""
        runs = [members for _, _, members in self.groups]
        chosen = _take(runs, levels, self.fifo_key, limit)
        chosen.sort(key=self.fifo_key)
        self.touched += len(chosen)
        return [self.job_of(member) for member in chosen]


@dataclass(frozen=True)
class DevicePacking:
    """The packer's decision for one device."""

    chosen: tuple[str, ...]  # job ids, in FIFO order
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
        # One Item per declared (memory, threads) shape, shared between
        # packs: Item is frozen and the value function is pure.
        self._item_cache: dict[tuple[float, int], Item] = {}
        #: Knapsack DP invocations run.
        self.solver_calls = 0

    def _item(self, declared_mb: float, declared_threads: int) -> Item:
        key = (declared_mb, declared_threads)
        item = self._item_cache.get(key)
        if item is None:
            item = Item(
                weight=declared_mb,
                value=max(self.value_fn(declared_threads), 0.0),
                threads=declared_threads,
            )
            self._item_cache[key] = item
        return item

    def pack(
        self,
        jobs: Union[Sequence[PackableJob], ShapeGroups],
        free_memory_mb: float,
        max_jobs: Optional[int] = None,
    ) -> DevicePacking:
        """Choose the subset of ``jobs`` to run on a device with
        ``free_memory_mb`` of unreserved declared memory.

        ``jobs`` is a FIFO-ordered job list or, from the scheduler, a
        :class:`ShapeGroups` view of it; the packer works per shape and
        only ever materializes the jobs it chooses. ``max_jobs`` bounds
        concurrency (the node's free host slots).
        """
        if free_memory_mb < 0:
            raise ValueError("free_memory_mb must be non-negative")
        view = jobs if isinstance(jobs, ShapeGroups) else ShapeGroups.of(jobs)
        shapes = [self._item(mb, threads) for mb, threads, _ in view.groups]
        counts = [len(members) for _, _, members in view.groups]
        if max_jobs is not None:
            # The count bound cannot bind when the jobs that could run at
            # once cannot reach it: every zero-memory job, plus as many of
            # the smallest others as the memory holds. Drop the cardinality
            # dimension then (a large constant-factor win on the
            # per-completion repacks, where freed memory is small).
            fit_bound = sum(c for s, c in zip(shapes, counts) if s.weight == 0)
            positive = [s.weight for s in shapes if s.weight > 0]
            if positive:
                fit_bound += int(free_memory_mb // min(positive))
            if fit_bound <= max_jobs:
                max_jobs = None

        self.solver_calls += 1
        prof = _profile.ACTIVE
        if prof is not None:
            prof.solver_calls += 1
        capped = self.thread_capacity is not None
        taken = _plan(
            shapes,
            counts,
            free_memory_mb,
            self.quantum_mb,
            max_items=None if capped else max_jobs,
            thread_capacity=self.thread_capacity,
        )
        levels = [taken]
        if capped and max_jobs is not None and sum(c for _, c in taken) > max_jobs:
            # The slot bound is no DP dimension under the thread cap: keep
            # the max_jobs most valuable jobs, the FIFO-earlier on a tie.
            # Dropping jobs keeps the packing feasible (if mildly
            # suboptimal).
            by_value: dict[float, list[tuple[list[int], int]]] = {}
            for entry in taken:
                by_value.setdefault(shapes[entry[0][0]].value, []).append(entry)
            levels = [by_value[v] for v in sorted(by_value, reverse=True)]
        chosen = view.take(levels, max_jobs)
        items = [self._item(j.declared_memory_mb, j.declared_threads) for j in chosen]
        return DevicePacking(
            chosen=tuple(job.job_id for job in chosen),
            total_declared_mb=sum(item.weight for item in items),
            total_declared_threads=sum(item.threads for item in items),
            total_value=sum(item.value for item in items),
        )
