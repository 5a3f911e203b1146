"""Span recording for the traced run: wrappers at the program's layer entry points.

The traced run wraps public entry points of each layer from here — the
program itself is not edited — and records one span per call. A
generator entry point (``OffloadRuntime.execute``, ``XeonPhi.run_offload``)
gets one span per resume, since its body runs in slices between the
simulation events it waits for.

A span's self time is its duration minus the durations of the spans
opened directly inside it, so summing self times over every name gives
the root span's duration exactly once.
"""

from __future__ import annotations

import functools
import math
import types
from time import perf_counter
from typing import Callable, Iterable, NamedTuple


class SpanRecorder:
    """Per-name call counts, inclusive time and self time of nested spans."""

    def __init__(
        self,
        clock: Callable[[], float] = perf_counter,
        keep_durations: Iterable[str] = (),
    ) -> None:
        self.clock = clock
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        #: Start of the first root-level span of each name.
        self.first_start: dict[str, float] = {}
        #: Every span duration, for the names asked for (percentiles).
        self.durations: dict[str, list[float]] = {n: [] for n in keep_durations}
        #: Named counters the observers bump (items per pack, matches...).
        self.counts: dict[str, float] = {}
        #: Benchmark bookkeeping done inside a span, kept out of its self time.
        self.excluded_s = 0.0
        # Open spans: [name, start, seconds covered by children].
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        start = self.clock()
        if not self._stack:
            self.first_start.setdefault(name, start)
        self._stack.append([name, start, 0.0])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        end = self.clock()
        name, start, children = self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - children
        kept = self.durations.get(name)
        if kept is not None:
            kept.append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` of benchmark work to no span."""
        self.excluded_s += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def bump(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    @property
    def depth(self) -> int:
        return len(self._stack)

    def table(self) -> dict[str, dict[str, float]]:
        """``{name: {calls, total_s, self_s}}`` for every recorded name."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time[name],
            }
            for name in sorted(self.calls)
        }


class TimedGenerator:
    """Generator proxy recording one span per resume of the wrapped generator.

    Supports what the simulation kernel and ``yield from`` use: ``send``,
    ``throw``, ``close`` and iteration.
    """

    __slots__ = ("_gen", "_name", "_recorder")

    def __init__(self, gen, name: str, recorder: SpanRecorder) -> None:
        self._gen = gen
        self._name = name
        self._recorder = recorder

    def __iter__(self) -> "TimedGenerator":
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        recorder = self._recorder
        recorder.enter(self._name)
        try:
            return self._gen.send(value)
        finally:
            recorder.exit()

    def throw(self, *exc):
        recorder = self._recorder
        recorder.enter(self._name)
        try:
            return self._gen.throw(*exc)
        finally:
            recorder.exit()

    def close(self) -> None:
        self._gen.close()


def timed(fn: Callable, name: str, recorder: SpanRecorder) -> Callable:
    """``fn`` recording one span per call."""
    enter, exit_ = recorder.enter, recorder.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def timed_observed(
    fn: Callable,
    name: str,
    recorder: SpanRecorder,
    observe: Callable[[SpanRecorder, tuple, dict, object], None],
) -> Callable:
    """Like :func:`timed`, then ``observe(recorder, args, kwargs, result)``
    outside the span, its cost excluded from the enclosing span."""
    clock = recorder.clock

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit()
        started = clock()
        observe(recorder, args, kwargs, result)
        recorder.exclude(clock() - started)
        return result

    return wrapper


def timed_generator(fn: Callable, name: str, recorder: SpanRecorder) -> Callable:
    """Generator function ``fn`` whose generators record a span per resume.

    The number of generators created is counted as ``<name>.created``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.bump(name + ".created")
        return TimedGenerator(fn(*args, **kwargs), name, recorder)

    return wrapper


def timed_register(fn: Callable, name: str, recorder: SpanRecorder) -> Callable:
    """``register(endpoint, kind, handler)`` timing each handler call as ``name``."""

    @functools.wraps(fn)
    def wrapper(self, endpoint, kind, handler):
        return fn(self, endpoint, kind, timed(handler, name, recorder))

    return wrapper


def collecting_init(fn: Callable, sink: list) -> Callable:
    """A constructor that also appends each new instance to ``sink``."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        sink.append(self)

    return wrapper


class Patch(NamedTuple):
    """One attribute to replace: ``owner.attr`` (a class or a module),
    with ``make(original)``."""

    owner: object
    attr: str
    make: Callable[[Callable], Callable]


class Instrumentation:
    """Installs a set of patches and restores the originals on uninstall."""

    def __init__(self, patches: Iterable[Patch]) -> None:
        self.patches = list(patches)
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        for patch in self.patches:
            original = vars(patch.owner)[patch.attr]
            self._saved.append((patch.owner, patch.attr, original))
            setattr(patch.owner, patch.attr, patch.make(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def public_methods(cls: type) -> list[str]:
    """Names of the plain public functions defined on ``cls`` itself."""
    return sorted(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, types.FunctionType)
    )


def snapshot(patches: Iterable[Patch]) -> dict[tuple[object, str], object]:
    """The current value of every patched attribute, keyed by owner and name."""
    return {(p.owner, p.attr): vars(p.owner)[p.attr] for p in patches}


def changed(originals: dict[tuple[object, str], object]) -> list[str]:
    """The attributes of a :func:`snapshot` that no longer hold its value."""
    return [
        f"{owner.__name__}.{attr}"
        for (owner, attr), original in originals.items()
        if vars(owner)[attr] is not original
    ]


def pmax10(values: list[float], candidates=(99.9, 99.0, 90.0, 75.0, 50.0)):
    """The highest candidate percentile (nearest rank) that has at least
    ten samples above it; ``None`` when no candidate has."""
    n = len(values)
    for q in candidates:
        if n * (100.0 - q) / 100.0 >= 10:
            rank = max(1, math.ceil(n * q / 100.0))
            return sorted(values)[rank - 1]
    return None
