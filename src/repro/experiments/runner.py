"""Parallel experiment runner: keyed cell grids over a process pool.

The paper's evaluation decomposes into hundreds of independent
simulation *cells* — one ``run_configuration`` call per (workload x
cluster shape x software stack) point — and every cell owns its own
:class:`~repro.sim.Environment`, so the harness is embarrassingly
parallel. A pure function reconstructs each cell from its parameters
(``compute_task``), and results are read back by cell key — never by
completion order — so parallel output is byte-identical to sequential
output (asserted in ``tests/test_runner_determinism.py``).

:class:`TaskRunner` fans cache misses out over a
``ProcessPoolExecutor`` and consults the content-addressed
:class:`~repro.experiments.cache.ResultCache` first, so a warm rerun
touches no simulator code at all.

Experiment shape
----------------
Every experiment module declares, once each:

``PARAMS``
    The default parameters, overridden by ``run(**overrides)`` and by
    the CLI.
``JOBS``
    A :class:`JobCounts` (quick and ``--full`` job counts, and the
    params a count or ``--job-count`` sets), or ``None`` for an
    experiment without a job count.
``keys(p)``
    The ordered cell keys (tuples): an axis product in nesting order,
    or an explicit list. A key may repeat; its cell is then a repeat.
``cell(p, *key)``
    The :class:`SimTask` for one key.
``result(p, cells)``
    The result dataclass, reading cell values as ``cells[key]``.
``render(result)``
    The paper-style text.

``p`` is the resolved parameter namespace. :func:`plan` builds the
keyed grid and :meth:`Plan.result` merges cell values by key;
:func:`run_experiment`, bound to each module as its
``run(**overrides, runner=None)``, does both around :func:`execute`.

Cell kinds
----------
``sim``
    The shared workhorse: one ``run_configuration`` call described by
    ``configuration`` (MC / MCC / MCCK), a ``config``
    (:class:`~repro.cluster.ClusterConfig`, already resized/tuned) and
    a ``workload`` spec (see :func:`repro.experiments.common.make_workload`),
    plus the optional ``faults``/``fault_seed`` and ``net``/``net_seed``
    of the chaos extensions. Every cell returns the same dict of result
    counters. Because the cache key ignores the experiment name,
    identical cells are shared across experiments — fig8's 8-node cells
    are the same entries fig9 computes for its size sweep.
``<experiment>.<name>``
    Module-specific cells dispatched to the module's ``compute(task)``:
    the ablations' packer and policy variants, and the ``.run`` cell of
    the :func:`one_cell` experiments (fig7, ext-oversubscription,
    ext-scale), which computes the whole result.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from types import ModuleType, SimpleNamespace
from typing import Any, Callable, Optional, Sequence, Tuple

from ..cluster import run_configuration
from ..obs import audit as _audit
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .cache import ResultCache
from .common import make_workload, scaled


def _freeze(value: Any) -> Any:
    """Make a parameter value hashable/stable (dicts and lists ordered)."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class SimTask:
    """One picklable simulation cell.

    ``params`` is a sorted tuple of ``(name, value)`` pairs built from
    primitives and frozen dataclasses only, so a task can be pickled to
    a worker process and content-addressed for the cache. ``label`` is
    display-only and excluded from equality and the cache key.
    """

    experiment: str
    kind: str
    params: Tuple[Tuple[str, Any], ...]
    label: str = field(default="", compare=False)

    @classmethod
    def make(
        cls, experiment: str, kind: str, label: str = "", **params: Any
    ) -> "SimTask":
        frozen = tuple(sorted((k, _freeze(v)) for k, v in params.items()))
        return cls(experiment, kind, frozen, label or kind)

    def kwargs(self) -> dict:
        return dict(self.params)


def sim_task(
    experiment: str,
    configuration: str,
    config: Any,
    workload: Tuple[Any, ...],
    label: str = "",
    **chaos: Any,
) -> SimTask:
    """The common cell: one configuration on one workload and cluster.

    ``chaos`` carries the optional ``faults``/``fault_seed`` and
    ``net``/``net_seed`` parameters of the chaos extensions.
    """
    return SimTask.make(
        experiment,
        "sim",
        label=label or f"{configuration}@n{config.nodes}",
        configuration=configuration,
        config=config,
        workload=workload,
        **chaos,
    )


def compute_task(task: SimTask) -> Any:
    """Recompute one cell from its parameters (runs in worker processes)."""
    # Each cell's sim clock restarts at zero, so the tracer and the
    # metrics registry partition their output per cell. In parallel mode
    # the workers are separate processes where ACTIVE is None — tracing
    # is a single-process (--jobs 1) feature, like --profile and --audit.
    label = f"{task.experiment}/{task.label}"
    if _trace.ACTIVE is not None:
        _trace.ACTIVE.enter_cell(label)
    if _metrics.ACTIVE is not None:
        _metrics.ACTIVE.enter_cell(label)
    auditor = _audit.ACTIVE
    if auditor is None:
        return _compute_value(task)
    # Scope the auditor's ledgers to this cell; finish_cell runs the
    # end-of-cell reconciliation checks (and raises on a violation).
    auditor.enter_cell(label)
    value = _compute_value(task)
    auditor.finish_cell()
    return value


def _compute_value(task: SimTask) -> Any:
    if task.kind == "sim":
        p = task.kwargs()
        job_set = make_workload(p["workload"])
        result = run_configuration(
            p["configuration"],
            job_set,
            p["config"],
            faults=p.get("faults"),
            fault_seed=p.get("fault_seed", 0),
            net=p.get("net"),
            net_seed=p.get("net_seed", 0),
        )
        return {
            "makespan": result.makespan,
            "utilization": result.mean_core_utilization,
            "jobs": result.job_count,
            "completed": result.completed_jobs,
            "killed": result.memory_limit_kills,
            "failed": result.infra_failed_jobs,
            "requeues": result.requeues,
            "retried": result.retried_completed,
            "faults_injected": result.faults_injected,
            "messages": result.net_messages,
            "retransmits": result.net_retransmits,
            "dup_dropped": result.net_duplicates_dropped,
            "lease_expiries": result.lease_expiries,
            "claims_lost": result.claims_lost,
            "match_timeouts": result.match_timeouts,
            "crashes": result.daemon_crashes,
            "recoveries": result.schedd_recoveries,
            "wal_records": result.wal_records,
            "wal_replayed": result.wal_replayed,
            "readopted": result.jobs_readopted,
        }
    # Imported lazily: the registry imports the experiment modules,
    # which import this module for SimTask and JobCounts.
    from . import EXPERIMENTS

    return EXPERIMENTS[task.experiment].compute(task)


def _timed_compute(task: SimTask) -> Tuple[Any, float]:
    started = time.perf_counter()
    value = compute_task(task)
    return value, time.perf_counter() - started


@dataclass
class CellOutcome:
    """One executed (or cache-served) cell, with provenance for the CLI."""

    task: SimTask
    value: Any
    seconds: float
    #: Served from the result cache.
    cached: bool
    #: A repeat of an earlier cell in the same grid, served from that
    #: cell's computation (not from the cache).
    duplicate: bool = False

    @property
    def computed(self) -> bool:
        return not (self.cached or self.duplicate)


class TaskRunner:
    """Execute task grids: cache first, then a process pool for misses.

    ``workers <= 1`` computes misses inline (no pool, no pickling
    round-trip), which is also the mode used when an experiment's
    ``run()`` is called directly without a runner.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.cache = cache
        self.outcomes: list[CellOutcome] = []

    def map_tasks(self, tasks: Sequence[SimTask]) -> list[CellOutcome]:
        """Run every task, returning outcomes in task order."""
        outcomes: list[Optional[CellOutcome]] = [None] * len(tasks)
        first_index: dict[SimTask, int] = {}
        duplicates: dict[int, int] = {}
        miss_indices: list[int] = []
        for i, task in enumerate(tasks):
            if self.cache is not None:
                hit, value = self.cache.get(task)
                if hit:
                    outcomes[i] = CellOutcome(task, value, 0.0, True)
                    continue
            # Identical cells within one grid (e.g. fig8's 8-node cells
            # reappear in fig9's size sweep) are computed once and
            # fanned back out.
            if task in first_index:
                duplicates[i] = first_index[task]
                continue
            first_index[task] = i
            miss_indices.append(i)

        if miss_indices:
            missing = [tasks[i] for i in miss_indices]
            if self.workers <= 1 or len(missing) == 1:
                computed = [_timed_compute(task) for task in missing]
            else:
                max_workers = min(self.workers, len(missing))
                with ProcessPoolExecutor(max_workers=max_workers) as pool:
                    computed = list(
                        pool.map(_timed_compute, missing, chunksize=1)
                    )
            for i, (value, seconds) in zip(miss_indices, computed):
                outcomes[i] = CellOutcome(tasks[i], value, seconds, False)
                if self.cache is not None:
                    self.cache.put(tasks[i], value)

        for i, source in duplicates.items():
            original = outcomes[source]
            assert original is not None
            outcomes[i] = CellOutcome(
                tasks[i], original.value, 0.0, False, duplicate=True
            )

        final = [outcome for outcome in outcomes if outcome is not None]
        assert len(final) == len(tasks)
        self.outcomes.extend(final)
        return final


def count_summary(outcomes: Sequence[CellOutcome]) -> str:
    """``N computed, M cached`` (plus ``, K duplicate`` when any)."""
    computed = sum(1 for o in outcomes if o.computed)
    cached = sum(1 for o in outcomes if o.cached)
    text = f"{computed} computed, {cached} cached"
    duplicates = len(outcomes) - computed - cached
    if duplicates:
        text += f", {duplicates} duplicate"
    return text


def execute(tasks: Sequence[SimTask], runner: Optional[TaskRunner] = None) -> list[Any]:
    """Cell values for a grid: inline when no runner is supplied."""
    if runner is None:
        return [compute_task(task) for task in tasks]
    return [outcome.value for outcome in runner.map_tasks(tasks)]


@dataclass(frozen=True)
class JobCounts:
    """How an experiment sizes its workload from the command line.

    ``quick`` is the default job count and ``full`` the paper-scale one
    (``--full``); both shrink with ``REPRO_SCALE``. ``params`` turns a
    count, or an explicit ``--job-count``, into parameter overrides.
    """

    quick: int
    full: int
    params: Callable[[int], dict] = lambda count: {"jobs": count}

    def overrides(self, job_count: Optional[int], full: bool, scale: float) -> dict:
        if job_count is None:
            job_count = scaled(self.full if full else self.quick, scale)
        return self.params(job_count)


@dataclass
class Plan:
    """One experiment's resolved parameters and its keyed cell grid."""

    module: ModuleType
    params: SimpleNamespace
    keys: list[tuple]
    tasks: list[SimTask]

    def result(self, values: Sequence[Any]) -> Any:
        """The module's result from the cell values, in grid order."""
        return self.module.result(self.params, dict(zip(self.keys, values)))


def plan(module: ModuleType, **overrides: Any) -> Plan:
    """Defaults with ``overrides`` applied, then the keys and their cells."""
    unknown = sorted(set(overrides) - set(module.PARAMS))
    if unknown:
        raise TypeError(f"{module.__name__} has no parameter(s) {unknown}")
    params = SimpleNamespace(**{**module.PARAMS, **overrides})
    keys = [tuple(key) for key in module.keys(params)]
    return Plan(module, params, keys, [module.cell(params, *key) for key in keys])


def one_cell(experiment: str) -> tuple[Callable, Callable, Callable]:
    """``keys``, ``cell`` and ``result`` of an experiment whose single
    cell, of kind ``<experiment>.run``, computes the whole result."""

    def cell(p: SimpleNamespace) -> SimTask:
        return SimTask.make(experiment, f"{experiment}.run", label="run", **vars(p))

    return (lambda p: [()]), cell, (lambda p, cells: cells[()])


def run_experiment(
    module: ModuleType, runner: Optional[TaskRunner] = None, **overrides: Any
) -> Any:
    """Plan the grid, execute it (inline without a runner), merge by key."""
    grid = plan(module, **overrides)
    return grid.result(execute(grid.tasks, runner))
