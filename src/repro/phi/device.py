"""The simulated Xeon Phi coprocessor.

The device executes *offloads* — bursts of parallel work characterized by
a thread count and an amount of work (seconds at full speed). Concurrent
offloads interact through a :class:`~repro.phi.contention.ContentionModel`
that maps the device-wide thread demand to a per-offload service rate;
whenever the set of running offloads changes, every offload's remaining
work is advanced and its completion moved to the new rate's finish time
(a malleable-task / processor-sharing engine). Moving a sleeper's
wake-up (:meth:`~repro.sim.Process.move_wakeup`) costs one kernel event;
the sleeper is not woken to re-sleep.

The device also owns the physical memory ledger. Allocating past capacity
invokes the OOM killer, mirroring the on-card Linux behaviour the paper
describes: a victim process is terminated and its memory reclaimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sim import Environment
from ..sim.events import URGENT
from .contention import AffinitizedContention, ContentionModel
from .spec import PAPER_SPEC, XeonPhiSpec
from .telemetry import DeviceTelemetry

#: Remaining-work threshold below which an offload is considered done.
_EPS = 1e-9


class OOMKilled(Exception):
    """Raised inside a job whose device process was chosen by the OOM killer."""

    def __init__(self, owner: Hashable, device: "XeonPhi") -> None:
        super().__init__(f"process {owner!r} OOM-killed on {device.name}")
        self.owner = owner
        self.device = device


#: Device lifecycle states: ``"healthy"`` serves offloads, ``"draining"``
#: finishes in-flight work but admits no new process, ``"failed"`` is down.
DEVICE_STATES = ("healthy", "draining", "failed")


class DeviceFailed(Exception):
    """The coprocessor is down (card hang, MPSS reset, hardware loss).

    Carries ``fault_status`` so the Condor layer classifies it as an
    infrastructure failure (retryable) without importing this module —
    see :mod:`repro.faults.errors` for the attribute protocol.
    """

    fault_status = "device-failed"

    def __init__(self, device_name: str) -> None:
        super().__init__(f"device {device_name} failed")
        self.device_name = device_name


@dataclass
class OffloadRecord:
    """Log entry for one completed (or killed) offload."""

    owner: Hashable
    threads: int
    work: float
    start: float
    end: float
    completed: bool


@dataclass
class _Task:
    """A running offload (mutable bookkeeping)."""

    owner: Hashable
    threads: int
    remaining: float
    rate: float
    last_update: float
    proc: Any  # repro.sim.Process
    start: float
    work: float


class XeonPhi:
    """One simulated coprocessor card.

    Parameters
    ----------
    env:
        Simulation environment.
    spec:
        Hardware description (defaults to the paper's 60-core, 8 GB card).
    contention:
        Model mapping total thread demand to per-offload service rate.
    name:
        Human-readable identifier used in logs and telemetry.
    oom_policy:
        ``"badness"`` kills the largest-resident process (deterministic,
        Linux-like); ``"random"`` picks a victim uniformly using ``rng``
        (the paper's "randomly terminates processes" reading).
    rng:
        ``random.Random``-like object; required for ``oom_policy="random"``.
    """

    def __init__(
        self,
        env: Environment,
        spec: XeonPhiSpec = PAPER_SPEC,
        contention: Optional[ContentionModel] = None,
        name: str = "mic0",
        oom_policy: str = "badness",
        rng: Any = None,
    ) -> None:
        if oom_policy not in ("badness", "random"):
            raise ValueError(f"unknown oom_policy {oom_policy!r}")
        if oom_policy == "random" and rng is None:
            raise ValueError("oom_policy='random' requires an rng")
        self.env = env
        self.spec = spec
        self.contention = contention or AffinitizedContention()
        self.name = name
        self.oom_policy = oom_policy
        self.rng = rng
        self.telemetry = DeviceTelemetry()
        self.offload_log: list[OffloadRecord] = []
        self.state = "healthy"

        self._tasks: list[_Task] = []
        # Incremental thread/core totals over ``_tasks``: every rate
        # recomputation used to re-sum the task list twice. Integer
        # arithmetic, so the running totals are exactly the re-sums.
        self._threads_sum = 0
        self._cores_sum = 0
        self._resident: dict[Hashable, float] = {}
        self._on_kill: dict[Hashable, Callable[[Hashable], None]] = {}
        self._insertion: dict[Hashable, int] = {}
        self._iseq = 0

        registry = _metrics.ACTIVE
        if registry is not None:
            # The device telemetry already maintains exact step series on
            # the sim clock; adopting them costs nothing during the run.
            registry.adopt_series(f"phi.{name}.busy_cores", self.telemetry.busy_cores)
            registry.adopt_series(
                f"phi.{name}.busy_threads", self.telemetry.busy_threads
            )
            registry.adopt_series(
                f"phi.{name}.resident_memory_mb", self.telemetry.resident_memory_mb
            )

    # -- inspection --------------------------------------------------------

    @property
    def running_offloads(self) -> int:
        """Number of offloads currently executing."""
        return len(self._tasks)

    @property
    def demanded_threads(self) -> int:
        """Sum of thread demands of running offloads."""
        return self._threads_sum

    @property
    def busy_cores(self) -> int:
        """Cores currently occupied (the paper's utilization numerator)."""
        return min(self.spec.cores, self._cores_sum)

    @property
    def resident_memory_mb(self) -> float:
        """Total resident device memory across processes."""
        return sum(self._resident.values())

    def resident_of(self, owner: Hashable) -> float:
        """Resident memory of one process (0 if absent)."""
        return self._resident.get(owner, 0.0)

    # -- lifecycle (failure / recovery) --------------------------------------

    def fail(self, cause: Optional[Any] = None) -> Any:
        """Take the card down, interrupting every in-flight offload.

        ``cause`` becomes the interrupt cause delivered to the offload
        processes (defaults to a :class:`DeviceFailed` for this card) and
        is returned so the caller can reuse it for jobs that are matched
        to the card but not currently inside an offload.
        """
        cause = cause if cause is not None else DeviceFailed(self.name)
        if self.state == "failed":
            return cause
        self.state = "failed"
        self.telemetry.device_failures += 1
        for task in list(self._tasks):
            if task.proc.is_alive and task.proc is not self.env.active_process:
                task.proc.interrupt(cause)
        return cause

    def restore(self) -> None:
        """Bring the card back (post-reset / node reboot)."""
        if self.state == "healthy":
            return
        self.state = "healthy"
        self.telemetry.device_restores += 1

    def drain(self) -> None:
        """Stop admitting new device processes; in-flight work finishes."""
        if self.state == "failed":
            raise RuntimeError(f"cannot drain failed device {self.name}")
        self.state = "draining"

    # -- process & memory management ----------------------------------------

    def register_process(
        self, owner: Hashable, on_kill: Optional[Callable[[Hashable], None]] = None
    ) -> None:
        """Announce a device-side (COI) process owned by ``owner``.

        ``on_kill`` is invoked if the OOM killer selects the process.
        """
        if self.state != "healthy":
            raise DeviceFailed(self.name)
        if owner in self._resident:
            raise ValueError(f"process {owner!r} already registered")
        self._iseq += 1
        self._insertion[owner] = self._iseq
        self._resident[owner] = 0.0
        if on_kill is not None:
            self._on_kill[owner] = on_kill
        self._record_memory()

    def unregister_process(self, owner: Hashable) -> None:
        """Tear down a device-side process, reclaiming its memory."""
        self._resident.pop(owner, None)
        self._on_kill.pop(owner, None)
        self._insertion.pop(owner, None)
        self._record_memory()

    def allocate(self, owner: Hashable, mb: float) -> None:
        """Grow ``owner``'s resident memory by ``mb`` MiB.

        Allocation always succeeds (Linux overcommit); if the device is
        then oversubscribed the OOM killer selects victims until resident
        memory fits again.
        """
        if mb < 0:
            raise ValueError("mb must be non-negative")
        if owner not in self._resident:
            raise KeyError(f"process {owner!r} is not registered")
        self._resident[owner] += mb
        self._record_memory()
        self._oom_killer()

    def set_resident(self, owner: Hashable, mb: float) -> None:
        """Set ``owner``'s resident memory to an absolute value."""
        if mb < 0:
            raise ValueError("mb must be non-negative")
        if owner not in self._resident:
            raise KeyError(f"process {owner!r} is not registered")
        self._resident[owner] = mb
        self._record_memory()
        self._oom_killer()

    def _oom_killer(self) -> None:
        capacity = self.spec.usable_memory_mb
        while self.resident_memory_mb > capacity and self._resident:
            victims = [o for o, mb in self._resident.items() if mb > 0]
            if not victims:
                break
            if self.oom_policy == "random":
                victim = self.rng.choice(sorted(victims, key=self._insertion.get))
            else:
                # Linux badness heuristic: kill the largest consumer;
                # deterministic tie-break on registration order.
                victim = max(
                    victims, key=lambda o: (self._resident[o], -self._insertion[o])
                )
            self.telemetry.oom_kills += 1
            registry = _metrics.ACTIVE
            if registry is not None:
                registry.counter("phi.oom_kills").inc()
            tracer = _trace.ACTIVE
            if tracer is not None:
                parent = tracer.get(("run", victim))
                tracer.instant(
                    "oom-kill",
                    "phi",
                    self.env.now,
                    tid=parent.tid if parent is not None else 0,
                    device=self.name,
                    victim=str(victim),
                )
            self._resident[victim] = 0.0
            self._record_memory()
            callback = self._on_kill.get(victim)
            if callback is not None:
                callback(victim)

    # -- offload execution ---------------------------------------------------

    def run_offload(self, owner: Hashable, threads: int, work: float):
        """Execute one offload; ``yield from`` this inside a job process.

        Parameters
        ----------
        owner:
            The device-side process issuing the offload.
        threads:
            Software threads the offload spawns (may exceed the hardware
            budget — that *is* thread oversubscription).
        work:
            Seconds of execution at full speed (rate 1).
        """
        env = self.env
        if threads <= 0:
            raise ValueError("threads must be positive")
        if work < 0:
            raise ValueError("work must be non-negative")
        if self.state == "failed":
            raise DeviceFailed(self.name)
        proc = env.active_process
        if proc is None:
            raise RuntimeError("run_offload must be called from a process")

        task = _Task(
            owner=owner,
            threads=threads,
            remaining=float(work),
            rate=1.0,
            last_update=env.now,
            proc=proc,
            start=env.now,
            work=float(work),
        )
        self._tasks.append(task)
        self._threads_sum += threads
        self._cores_sum += self.spec.cores_for_threads(threads)
        self._recompute()
        completed = False
        tracer = _trace.ACTIVE
        span = None
        if tracer is not None:
            parent = tracer.get(("run", owner))
            span = tracer.begin(
                "offload",
                "phi",
                env.now,
                tid=parent.tid if parent is not None else 0,
                parent=parent,
                device=self.name,
                threads=threads,
                work=work,
            )
        try:
            if task.remaining > _EPS:
                # Rate changes move this wake-up (see _recompute); kills
                # arrive as interrupts and belong to the caller.
                yield env.timeout(task.remaining / task.rate)
                task.remaining = 0.0
            completed = True
        finally:
            self._tasks.remove(task)
            self._threads_sum -= threads
            self._cores_sum -= self.spec.cores_for_threads(threads)
            self._recompute()
            if span is not None:
                tracer.end(span, env.now, completed=completed)
            registry = _metrics.ACTIVE
            if registry is not None:
                registry.counter("phi.offloads").inc()
                if not completed:
                    registry.counter("phi.offloads_killed").inc()
            self.offload_log.append(
                OffloadRecord(
                    owner=owner,
                    threads=threads,
                    work=task.work,
                    start=task.start,
                    end=env.now,
                    completed=completed,
                )
            )

    def _recompute(self) -> None:
        """Advance all running offloads and apply the new service rates."""
        env = self.env
        now = env.now
        new_rate = (
            self.contention.rate(
                self.demanded_threads, self.spec, concurrency=len(self._tasks)
            )
            if self._tasks
            else 1.0
        )
        for task in self._tasks:
            elapsed = now - task.last_update
            if elapsed > 0:
                task.remaining = max(0.0, task.remaining - elapsed * task.rate)
                task.last_update = now
            if task.rate != new_rate:
                task.rate = new_rate
                # Move each sleeper's wake-up to its finish at the new
                # rate; one whose work is already done finishes now, ahead
                # of this instant's normal events. The task being resumed
                # (if any) is not sleeping and sleeps at the new rate.
                proc = task.proc
                if proc is not env.active_process and proc.is_alive:
                    if task.remaining > _EPS:
                        proc.move_wakeup(task.remaining / new_rate)
                    else:
                        proc.move_wakeup(0.0, URGENT)
        self.telemetry.busy_cores.record(now, self.busy_cores)
        self.telemetry.busy_threads.record(
            now, min(self.spec.hardware_threads, self.demanded_threads)
        )

    def _record_memory(self) -> None:
        self.telemetry.resident_memory_mb.record(self.env.now, self.resident_memory_mb)

    def __repr__(self) -> str:
        return (
            f"<XeonPhi {self.name!r} offloads={self.running_offloads} "
            f"threads={self.demanded_threads}/{self.spec.hardware_threads} "
            f"mem={self.resident_memory_mb:.0f}/{self.spec.usable_memory_mb}MB>"
        )
