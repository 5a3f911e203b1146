"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic generator-based process model: a process is
a Python generator that yields :class:`Event` objects; the environment
resumes the generator when the yielded event is *processed*.

Events go through three states:

* **untriggered** — created, not yet scheduled;
* **triggered** — given a value (or an exception) and placed on the event
  queue;
* **processed** — popped from the queue; all callbacks have run.

All ordering is deterministic: events scheduled at the same simulated time
are processed in (priority, insertion-order) order.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .core import Environment
    from .process import Process

#: Event priority for urgent events (interrupts, resource bookkeeping).
URGENT = 0
#: Default event priority.
NORMAL = 1

#: Sentinel for "no value has been set on this event yet".
PENDING = object()


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it.

    The interrupt ``cause`` (an arbitrary object supplied by the
    interrupter) is available as :attr:`cause`.
    """

    @property
    def cause(self) -> Any:
        """The reason passed to :meth:`Process.interrupt`."""
        return self.args[0]


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class StopSimulation(Exception):
    """Internal signal used by ``Environment.run(until=event)``."""

    @classmethod
    def callback(cls, event: "Event") -> None:
        """Event callback that stops the simulation with the event value."""
        if event._ok:
            raise cls(event._value)
        raise event._value  # type: ignore[misc]


class Event:
    """A single occurrence that processes may wait for.

    Parameters
    ----------
    env:
        The environment the event lives in.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callbacks run when the event is processed. ``None`` after
        #: processing (appending then is an error).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) queued."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        if not self.triggered:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, when it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not yet been triggered")
        return self._value

    @property
    def defused(self) -> bool:
        """True when a failure has been handled by some waiter."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    # -- triggering ------------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of ``event`` onto this event (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event._defused = True
            self.fail(event._value)

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} ({state}) at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # Timeouts are the kernel's dominant event, so Event.__init__ and
        # Environment.schedule are inlined here: the callback list comes
        # from the environment's recycle pool (the run loop returns
        # emptied lists) and the heap entry is pushed directly. Must stay
        # exactly equivalent to schedule(self, NORMAL, delay).
        self.env = env
        pool = env._cb_pool
        self.callbacks = pool.pop() if pool else []
        self._value = value
        self._ok = True
        self._defused = False
        self.delay = delay
        eid = env._eid + 1
        env._eid = eid
        heappush(env._queue, (env._now + delay, NORMAL, eid, self))
        if env._profiler is not None:
            env._profiler.count_scheduled("Timeout")

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r} at {id(self):#x}>"


class Initialize(Event):
    """Kick-starts a new :class:`Process` (internal)."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        assert self.callbacks is not None
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env.schedule(self, priority=URGENT)


class Interruption(Event):
    """Immediately throws an :class:`Interrupt` into a process (internal)."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if process is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.process = process
        assert self.callbacks is not None
        self.callbacks.append(self._interrupt)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.env.schedule(self, priority=URGENT)

    def _interrupt(self, event: Event) -> None:
        process = self.process
        if process.triggered:
            return  # Process terminated before the interrupt fired.
        # Detach the process from whatever it was waiting for, then resume
        # it with the Interrupt exception.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        process._resume(self)
