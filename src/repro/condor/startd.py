"""The startd: a compute node's slot manager and job starter.

Each node exposes host *slots* (one job per slot, §IV-D1) and binds the
Condor layer to the node's execution engine. Starting a job reproduces
the shadow/starter handshake as a fixed dispatch latency, then drives the
node executor (MPSS + optional COSMIC) to completion and reports back to
the schedd.

Failure model: the startd also owns the node-side failure surface. It
tracks the jobs it is currently running so the fault injector can
interrupt them (one job, one device's worth, or the whole node), and the
starter classifies every death through the ``fault_status`` attribute
protocol (see :mod:`repro.faults.errors`): an infrastructure failure is
reported via :meth:`Schedd.mark_failed` (retryable), while
kill-by-container outcomes keep flowing through ``mark_completed``.

Each run's launch, dispatch, execute and exit events are published
through :meth:`Schedd.publish` for the job observer
(:mod:`repro.condor.observe`).
"""

from __future__ import annotations

from typing import Any, Optional, Protocol

from ..faults.errors import fault_status_of
from ..mpss.runtime import JobRunResult
from ..sim import Environment, Interrupt
from ..workloads.profiles import JobProfile
from .ads import DeviceSnapshot, MachineSnapshot
from .schedd import (
    DISPATCH,
    EXECUTE,
    EXIT,
    LAUNCH,
    JobRecord,
    Schedd,
    Transition,
)


class NodeExecutor(Protocol):
    """What the startd needs from the node (implemented by ComputeNode)."""

    name: str

    def execute(
        self, profile: JobProfile, device_index: Optional[int], exclusive: bool
    ):
        """Generator running the job; returns a JobRunResult."""

    def device_states(self) -> list[DeviceSnapshot]:
        """Current per-device free declared memory / residency."""


class Startd:
    """Slot accounting and the starter process for one node.

    Parameters
    ----------
    env, schedd:
        Simulation environment and the queue to report completions to.
    executor:
        The node's execution engine.
    slots:
        Host slots (the paper's nodes expose one slot per host core pair;
        we default to 16 = 2 sockets x 8 cores).
    dispatch_latency:
        Simulated seconds for the shadow/starter handshake and input file
        transfer before the job begins executing.
    """

    def __init__(
        self,
        env: Environment,
        schedd: Schedd,
        executor: NodeExecutor,
        slots: int = 16,
        dispatch_latency: float = 1.0,
    ) -> None:
        if slots <= 0:
            raise ValueError("slots must be positive")
        if dispatch_latency < 0:
            raise ValueError("dispatch_latency must be non-negative")
        self.env = env
        self.schedd = schedd
        self.executor = executor
        self.slots = slots
        self.dispatch_latency = dispatch_latency
        self._busy_slots = 0
        self._exclusive_claims: set[int] = set()
        self.started_jobs = 0
        #: False while the node is crashed; a dead startd accepts no jobs.
        self.alive = True
        #: Jobs currently running here: job_id -> (record, process, device).
        self._active: dict[str, tuple[JobRecord, Any, Optional[int]]] = {}
        #: Fabric mode only: the claim agent reporting outcomes for
        #: leased runs (set by :class:`repro.condor.claims.StartdClaimAgent`).
        self.claim_agent: Optional[Any] = None
        #: Fabric mode only: job_id -> lease for leased runs.
        self._leases: dict[str, Any] = {}
        #: Set by :meth:`Collector.register`: receives membership
        #: refreshes when the free-slot count crosses zero or liveness
        #: flips, so the collector's candidate set stays delta-current.
        self.watcher: Optional[Any] = None

    def _notify_watcher(self) -> None:
        if self.watcher is not None:
            self.watcher.refresh_membership(self)

    @property
    def name(self) -> str:
        return self.executor.name

    @property
    def free_slots(self) -> int:
        return self.slots - self._busy_slots

    def snapshot(self) -> MachineSnapshot:
        """The node's negotiation-time state (collector update)."""
        devices = []
        for state in self.executor.device_states():
            devices.append(
                DeviceSnapshot(
                    index=state.index,
                    memory_mb=state.memory_mb,
                    free_declared_mb=state.free_declared_mb,
                    resident_jobs=state.resident_jobs,
                    hardware_threads=state.hardware_threads,
                    claimed_exclusive=state.index in self._exclusive_claims,
                    failed=state.failed,
                )
            )
        return MachineSnapshot(
            node=self.name,
            total_slots=self.slots,
            free_slots=self.free_slots,
            devices=devices,
        )

    def claim_error(
        self,
        record: JobRecord,
        device_index: Optional[int],
        exclusive: bool,
    ) -> Optional[str]:
        """Why a claim cannot be accepted right now (``None`` = it can).

        The fabric-mode negotiator works from a stale collector view, so
        over-commitment is normal; the claim agent turns these reasons
        into claim-reject messages instead of crashes.
        """
        if not self.alive:
            return "node-down"
        if self.free_slots <= 0:
            return "no-free-slots"
        if record.job_id in self._active:
            return "job-already-active"
        if exclusive:
            if device_index is None:
                return "exclusive-needs-device"
            if device_index in self._exclusive_claims:
                return "device-claimed"
        return None

    def start_job(
        self,
        record: JobRecord,
        device_index: Optional[int],
        exclusive: bool,
    ) -> None:
        """Claim a slot (and optionally a device) and launch the starter."""
        if not self.alive:
            raise RuntimeError(f"{self.name}: node is down")
        if self.free_slots <= 0:
            raise RuntimeError(f"{self.name}: no free slots")
        if exclusive:
            if device_index is None:
                raise ValueError("exclusive start requires a device index")
            if device_index in self._exclusive_claims:
                raise RuntimeError(
                    f"{self.name}: device {device_index} already claimed"
                )
        self.schedd.mark_running(record.job_id, self.name, device_index)
        self._launch(record, device_index, exclusive)

    def start_claimed(
        self,
        record: JobRecord,
        device_index: Optional[int],
        exclusive: bool,
        lease: Any,
    ) -> None:
        """Launch an already-validated, leased claim (fabric mode).

        The schedd is *not* marked running here — that happens when the
        job-started message reaches it; the lease's watchdog bounds how
        long the run may outlive the schedd's knowledge of it.
        """
        self._leases[record.job_id] = lease
        self._launch(record, device_index, exclusive)

    def _launch(
        self,
        record: JobRecord,
        device_index: Optional[int],
        exclusive: bool,
    ) -> None:
        if exclusive and device_index is not None:
            self._exclusive_claims.add(device_index)
        self._busy_slots += 1
        if self._busy_slots == self.slots:
            self._notify_watcher()
        self.started_jobs += 1
        self.schedd.publish(
            Transition(
                LAUNCH, record.job_id, self.env.now, node=self.name, state=self.slots
            )
        )
        proc = self.env.process(
            self._starter(record, device_index, exclusive),
            name=f"starter:{record.job_id}@{self.name}",
        )
        self._active[record.job_id] = (record, proc, device_index)

    # -- failure surface ----------------------------------------------------

    def interrupt_job(self, job_id: str, cause: Any) -> bool:
        """Interrupt one running job with a fault cause; True if hit."""
        entry = self._active.get(job_id)
        if entry is None:
            return False
        _record, proc, _device = entry
        if not proc.is_alive:
            return False
        proc.interrupt(cause)
        return True

    def fail_device_jobs(self, device_index: int, cause: Any) -> int:
        """Interrupt every active job matched to ``device_index``."""
        hit = 0
        for job_id, (_record, proc, device) in list(self._active.items()):
            if device == device_index and proc.is_alive:
                proc.interrupt(cause)
                hit += 1
        return hit

    def fail_node(self, cause: Any) -> int:
        """Crash the node: stop accepting jobs, interrupt all active ones.

        Slot and claim bookkeeping unwinds through each starter's
        ``finally`` as the interrupts land.
        """
        self.alive = False
        self._notify_watcher()
        hit = 0
        for job_id, (_record, proc, _device) in list(self._active.items()):
            if proc.is_alive:
                proc.interrupt(cause)
                hit += 1
        return hit

    def restore(self) -> None:
        """Bring a crashed node back into service."""
        self.alive = True
        self._notify_watcher()

    # -- the starter ---------------------------------------------------------

    def _starter(self, record: JobRecord, device_index, exclusive):
        started = self.env.now
        result: Optional[JobRunResult] = None
        failure_status: Optional[str] = None
        job_id = record.job_id
        self.schedd.publish(Transition(DISPATCH, job_id, started, node=self.name))
        try:
            try:
                if self.dispatch_latency > 0:
                    yield self.env.timeout(self.dispatch_latency)
                self.schedd.publish(
                    Transition(
                        EXECUTE, job_id, self.env.now, node=self.name,
                        device=device_index, exclusive=exclusive,
                    )
                )
                result = yield from self.executor.execute(
                    record.profile, device_index, exclusive
                )
            except Interrupt as interrupt:
                failure_status = fault_status_of(interrupt.cause)
                if failure_status is None:
                    raise  # not a fault: a genuine simulation error
            except Exception as exc:
                failure_status = fault_status_of(exc)
                if failure_status is None:
                    raise
        finally:
            self._active.pop(job_id, None)
            self._busy_slots -= 1
            if self._busy_slots == self.slots - 1:
                self._notify_watcher()
            if exclusive and device_index is not None:
                self._exclusive_claims.discard(device_index)
            lease = self._leases.pop(job_id, None)
            status = failure_status
            if status is None:
                status = result.status if result is not None else "completed"
            self.schedd.publish(
                Transition(EXIT, job_id, self.env.now, node=self.name, cause=status)
            )
        if failure_status is not None:
            failed = JobRunResult(
                job_id=record.job_id,
                start=started,
                end=self.env.now,
                status=failure_status,
                offloads_run=0,
                attempt=record.attempts,
            )
            if lease is not None:
                # Fabric mode: the outcome travels back as a job-done
                # message through the claim agent, not a direct call.
                self.claim_agent.report_done(record, failed, True, lease)
            else:
                self.schedd.mark_failed(record.job_id, failed)
            return
        assert isinstance(result, JobRunResult)
        result.attempt = record.attempts
        if lease is not None:
            self.claim_agent.report_done(record, result, False, lease)
        else:
            self.schedd.mark_completed(record.job_id, result)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Startd {self.name} ({state}) slots={self.free_slots}/{self.slots}>"
