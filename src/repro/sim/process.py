"""Process objects: generators driven by the simulation environment."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import (
    NORMAL,
    Event,
    Initialize,
    Interruption,
    SimulationError,
    Timeout,
)

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """Wraps a generator and steps it through the events it yields.

    A ``Process`` is itself an :class:`Event` that triggers when the
    generator terminates: it succeeds with the generator's return value,
    or fails with the exception that escaped the generator.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process currently waits for (None when not
        #: started, terminated, or about to be resumed).
        self._target: Optional[Event] = Initialize(env, self)

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently waiting for."""
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process as soon as possible."""
        Interruption(self, cause)

    def move_wakeup(self, delay: float, priority: int = NORMAL) -> None:
        """Move this process's pending wake-up to a fresh timeout.

        The process must be waiting on a :class:`Timeout`. Its resume
        callback leaves that timeout, which then fires and resumes nobody,
        and joins a new one at ``now + delay`` (``priority`` as in
        :meth:`Environment.timeout_at`). The new timeout becomes the
        process's target, so a later interrupt detaches it as usual. A
        sleeper whose deadline changes (a rate change on a shared device)
        thus costs one event, not an interrupt, a resume and a re-sleep.
        """
        target = self._target
        if not isinstance(target, Timeout) or target.callbacks is None:
            raise SimulationError(
                f"process {self.name!r} is not waiting on a timeout"
            )
        env = self.env
        timeout = env.timeout_at(env._now + delay, priority=priority)
        target.callbacks.remove(self._resume)
        assert timeout.callbacks is not None
        timeout.callbacks.append(self._resume)
        self._target = timeout

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env._active_proc = self
        if env._profiler is not None:
            env._profiler.process_switches += 1
        # Events reaching _resume are always triggered, so the raw slots
        # are read directly (the ok/value properties re-check that).
        generator = self._generator

        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The waited-for event failed: re-raise inside the
                    # generator so it may handle (and thereby defuse) it.
                    event._defused = True
                    exc = event._value
                    assert isinstance(exc, BaseException)
                    next_event = generator.throw(exc)
            except StopIteration as stop:
                self._target = None
                env._active_proc = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._target = None
                env._active_proc = None
                self.fail(exc)
                return

            if not isinstance(next_event, Event):
                self._target = None
                env._active_proc = None
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{next_event!r}"
                    )
                )
                return

            callbacks = next_event.callbacks
            if callbacks is None:
                # The event already happened; loop and resume immediately.
                event = next_event
                continue

            self._target = next_event
            callbacks.append(self._resume)
            break

        env._active_proc = None

    def __repr__(self) -> str:
        state = "terminated" if self.triggered else "alive"
        return f"<Process {self.name!r} ({state}) at {id(self):#x}>"
