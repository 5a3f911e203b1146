"""The simulation environment: clock, event queue, and run loop."""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Optional, Union

from . import profile as _profile
from .events import (
    NORMAL,
    PENDING,
    Event,
    SimulationError,
    StopSimulation,
    Timeout,
)
from .process import Process, ProcessGenerator

#: Upper bound on the recycled callback-list pool (see ``_cb_pool``).
_POOL_LIMIT = 256


class EmptySchedule(Exception):
    """Raised by the run loop when no events remain (:meth:`Environment.run`
    catches it)."""


class Environment:
    """A discrete-event simulation environment.

    Events scheduled for the same time are processed in (priority,
    insertion-order) order, which makes every simulation fully
    deterministic for a given seed.

    Parameters
    ----------
    initial_time:
        Simulated time at which the clock starts (default ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_proc: Optional[Process] = None
        # Recycled (emptied) callback lists: the timeout→resume pattern
        # allocates one single-element list per event, which dominated
        # kernel allocation; the run loop returns lists here and
        # ``Timeout.__init__`` reuses them.
        self._cb_pool: list[list] = []
        # Instrumentation is opt-in per environment, captured at
        # construction from the module-global active profiler so
        # experiment code needs no plumbing.
        self._profiler = _profile.ACTIVE

    # -- introspection ---------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    @property
    def profiler(self) -> Optional[_profile.SimProfiler]:
        """The profiler this environment reports to (usually ``None``)."""
        return self._profiler

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when none remain."""
        return self._queue[0][0] if self._queue else float("inf")

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, priority: int = NORMAL) -> Timeout:
        """Create a :class:`Timeout` that triggers at the absolute time ``when``.

        The heap key is ``when`` itself, not ``now + (when - now)``, so a
        caller that sums a run of delays as ``(now + d1) + d2 ...`` fires
        at exactly the instant a chain of :meth:`timeout` calls would
        reach. ``priority`` orders it among same-time events (``URGENT``
        wakes ahead of this instant's ``NORMAL`` events). Counted as a
        scheduled ``Timeout`` like any other.
        """
        if when < self._now:
            raise ValueError(f"when={when!r} lies in the past (now={self._now})")
        # Same slot set-up as Timeout.__init__, minus the delay addition.
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        pool = self._cb_pool
        timeout.callbacks = pool.pop() if pool else []
        timeout._value = None
        timeout._ok = True
        timeout._defused = False
        timeout.delay = when - self._now
        self._eid += 1
        heappush(self._queue, (when, priority, self._eid, timeout))
        if self._profiler is not None:
            self._profiler.count_scheduled("Timeout")
        return timeout

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling and running -------------------------------------------

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Queue ``event`` to be processed after ``delay``."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))
        if self._profiler is not None:
            self._profiler.count_scheduled(type(event).__name__)

    def _loop(self) -> None:
        """The hot run loop: process events until the queue empties.

        Each iteration pops the next event, advances the clock, runs its
        callbacks, re-raises an unhandled failure, and recycles the
        emptied callback list. The queue/pool bindings are hoisted out
        of the loop because they are loop-invariant.
        """
        queue = self._queue
        pool = self._cb_pool
        pop = heappop
        while True:
            try:
                item = pop(queue)
            except IndexError:
                raise EmptySchedule() from None
            self._now = item[0]
            event = item[3]

            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)

            if not event._ok and not event._defused:
                exc = event._value
                assert isinstance(exc, BaseException)
                raise exc

            del callbacks[:]
            if len(pool) < _POOL_LIMIT:
                pool.append(callbacks)

    def _loop_profiled(self) -> None:
        """:meth:`_loop` with per-kind counters and wall attribution."""
        prof = self._profiler
        assert prof is not None
        queue = self._queue
        pool = self._cb_pool
        pop = heappop
        timer = perf_counter
        fired = prof.events_fired
        wall = prof.wall_by_kind
        while True:
            qlen = len(queue)
            if qlen > prof.heap_peak:
                prof.heap_peak = qlen
            try:
                item = pop(queue)
            except IndexError:
                raise EmptySchedule() from None
            self._now = item[0]
            event = item[3]
            kind = type(event).__name__
            fired[kind] = fired.get(kind, 0) + 1

            callbacks = event.callbacks
            event.callbacks = None
            begin = timer()
            try:
                for callback in callbacks:
                    callback(event)
            finally:
                wall[kind] = wall.get(kind, 0.0) + (timer() - begin)

            if not event._ok and not event._defused:
                exc = event._value
                assert isinstance(exc, BaseException)
                raise exc

            del callbacks[:]
            if len(pool) < _POOL_LIMIT:
                pool.append(callbacks)

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain; a number — run until
            the clock reaches that time; an :class:`Event` — run until the
            event triggers (its value is returned).
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self._now:
                raise ValueError(f"until={at} must not lie in the past (now={self._now})")
            if at == self._now:
                # Target time already reached (simpy semantics): no-op.
                return None
            until = Event(self)
            until._ok = True
            until._value = None
            self.schedule(until, priority=NORMAL, delay=at - self._now)

        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed: nothing to run.
                return until._value
            until.callbacks.append(StopSimulation.callback)

        prof = self._profiler
        if prof is not None:
            prof.start()
        try:
            if prof is not None:
                self._loop_profiled()
            else:
                self._loop()
        except StopSimulation as stop:
            return stop.args[0]
        except EmptySchedule:
            if isinstance(until, Event) and until._value is PENDING:
                raise SimulationError(
                    "no more events: the 'until' event was never triggered"
                ) from None
        finally:
            if prof is not None:
                prof.stop()
        return None

    def __repr__(self) -> str:
        return f"<Environment t={self._now} queued={len(self._queue)}>"
