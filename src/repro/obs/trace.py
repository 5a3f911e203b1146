"""Span-based tracing on the simulation clock.

The tracer records the full job lifecycle — submit → queued (idle or
parked) → matched → dispatch → execution, with each offload's admission
wait and device execution nested inside — as *spans* (intervals of
simulated time) and *instants* (point events), exactly the accounting
HTCondor's job event log and COSMIC's per-offload instrumentation keep
in the real systems this repo reproduces.

Design rules, in order of importance:

1. **Zero overhead when off.** Like the kernel profiler
   (:mod:`repro.sim.profile`), activation is a module global
   (:data:`ACTIVE`); every emission site is guarded by a single
   ``is not None`` check and a disabled run executes no tracing code at
   all, so disabled-mode output stays byte-identical to a build without
   the subsystem.
2. **Deterministic.** Spans carry *simulated* time only — never wall
   clock — and get sequence numbers in emission order, which the event
   kernel already makes deterministic for a fixed seed. Two runs with
   the same seed therefore export byte-identical traces.
3. **Structured.** Spans form a forest: each has an optional parent and
   must nest within it (``parent.start <= start`` and
   ``end <= parent.end``, property-tested). Chrome's ``trace_event``
   viewer renders the nesting as flame-graph stacks per job track.

Spans that begin on one event and end on another (the job observer opens
a job's ``queued`` span at submission and closes it when the job runs)
use the *keyed* helpers, which store open spans in a registry under a
caller-chosen key — the node layers find a job's ``run`` span there
without any plumbing of span handles between layers.

This module deliberately imports nothing from the rest of the package so
every layer can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

#: The tracer emission sites report to (``None`` = tracing off).
ACTIVE: Optional["Tracer"] = None

#: Reserved track (thread) ids within each cell's trace process.
NEGOTIATOR_TID = 1
SCHEDULER_TID = 2
FAULTS_TID = 3
NET_TID = 4
#: Job tracks start here; a job's track is ``JOB_TID_BASE + seq``.
JOB_TID_BASE = 10


@dataclass
class Span:
    """One interval of simulated time on one track."""

    name: str
    cat: str
    start: float
    pid: int
    tid: int
    seq: int
    parent: Optional["Span"] = None
    end: Optional[float] = None
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end is not None


@dataclass
class Instant:
    """One point event on one track."""

    name: str
    cat: str
    time: float
    pid: int
    tid: int
    seq: int
    args: dict[str, Any] = field(default_factory=dict)


@dataclass
class CellTrack:
    """One simulation cell = one trace process (Chrome ``pid``)."""

    pid: int
    label: str
    #: Latest simulated time seen in this cell; exporters close any
    #: still-open span here (e.g. jobs parked when the cell ended).
    last_time: float = 0.0
    #: Track names, announced lazily by emitters: tid -> display name.
    thread_names: dict[int, str] = field(default_factory=dict)


class Tracer:
    """Collects spans and instants for one (or more) simulation cells.

    A cell is one simulation run (its clock starts at 0); the experiment
    runner calls :meth:`enter_cell` before each cell so multi-cell runs
    (``fig8 --trace`` executes every distribution x configuration cell)
    export as separate trace processes instead of overlapping tracks.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.cells: list[CellTrack] = [CellTrack(pid=1, label="run")]
        self._seq = 0
        self._open: dict[Hashable, Span] = {}

    # -- cells -------------------------------------------------------------

    @property
    def cell(self) -> CellTrack:
        return self.cells[-1]

    def enter_cell(self, label: str) -> None:
        """Start a new trace process; open spans of the old cell close."""
        previous = self.cells[-1]
        self._open.clear()
        if not self.spans and not self.instants and previous.label == "run":
            # The implicit first cell was never used: rename it.
            previous.label = label
            return
        self.cells.append(CellTrack(pid=previous.pid + 1, label=label))

    def set_thread_name(self, tid: int, name: str) -> None:
        """Name a track in the current cell (first writer wins)."""
        self.cell.thread_names.setdefault(tid, name)

    # -- emission ----------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _touch(self, time: float) -> None:
        cell = self.cells[-1]
        if time > cell.last_time:
            cell.last_time = time

    def begin(
        self,
        name: str,
        cat: str,
        time: float,
        tid: int = 0,
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Span:
        """Open a span at simulated ``time``."""
        span = Span(
            name=name,
            cat=cat,
            start=time,
            pid=self.cells[-1].pid,
            tid=tid,
            seq=self._next_seq(),
            parent=parent,
            args=args,
        )
        self.spans.append(span)
        self._touch(time)
        return span

    def end(self, span: Span, time: float, **args: Any) -> Span:
        """Close ``span`` at simulated ``time``."""
        if span.end is not None:
            raise ValueError(f"span {span.name!r} already ended")
        if time < span.start:
            raise ValueError(
                f"span {span.name!r} cannot end at {time} before its "
                f"start {span.start}"
            )
        span.end = time
        if args:
            span.args.update(args)
        self._touch(time)
        return span

    def complete(
        self,
        name: str,
        cat: str,
        start: float,
        end: float,
        tid: int = 0,
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Span:
        """Record an already-finished span (e.g. a negotiation cycle)."""
        span = self.begin(name, cat, start, tid=tid, parent=parent, **args)
        return self.end(span, end)

    def instant(
        self, name: str, cat: str, time: float, tid: int = 0, **args: Any
    ) -> Instant:
        """Record a point event (completion, kill, fault injection...)."""
        event = Instant(
            name=name,
            cat=cat,
            time=time,
            pid=self.cells[-1].pid,
            tid=tid,
            seq=self._next_seq(),
            args=args,
        )
        self.instants.append(event)
        self._touch(time)
        return event

    # -- keyed spans (begin and end live in different layers) ---------------

    def begin_keyed(
        self,
        key: Hashable,
        name: str,
        cat: str,
        time: float,
        tid: int = 0,
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Span:
        """Open a span registered under ``key`` (replacing a stale one)."""
        span = self.begin(name, cat, time, tid=tid, parent=parent, **args)
        self._open[key] = span
        return span

    def get(self, key: Hashable) -> Optional[Span]:
        """The open span registered under ``key``, if any."""
        return self._open.get(key)

    def end_keyed(self, key: Hashable, time: float, **args: Any) -> Optional[Span]:
        """Close and deregister the span under ``key``; None if absent.

        A no-op when no span is open under the key, so teardown paths
        (interrupt handling, ``finally`` blocks) can end unconditionally.
        """
        span = self._open.pop(key, None)
        if span is None:
            return None
        return self.end(span, time, **args)

    # -- derived -----------------------------------------------------------

    def span_counts(self) -> dict[str, int]:
        """Span count per name (summary + smoke-test assertions)."""
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    def __repr__(self) -> str:
        return (
            f"<Tracer cells={len(self.cells)} spans={len(self.spans)} "
            f"instants={len(self.instants)}>"
        )


def activate() -> Tracer:
    """Install a fresh tracer; emission sites pick it up immediately."""
    global ACTIVE
    ACTIVE = Tracer()
    return ACTIVE


def deactivate() -> Optional[Tracer]:
    """Uninstall the active tracer and return it (``None`` if none)."""
    global ACTIVE
    tracer, ACTIVE = ACTIVE, None
    return tracer
