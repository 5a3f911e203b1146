"""The offload runtime: executes a :class:`JobProfile` against a device.

This is the simulated analogue of "MPSS runs the job": walk the job's
phase script, spend host phases on the host, move buffers over SCIF, and
execute offload bursts on the card. Two optional hooks let COSMIC wrap
the runtime without the runtime knowing about COSMIC (mirroring the
paper's "transparent add-on" layering):

* an **offload gate** serializes/admits offload bursts (thread budget);
* a **memory enforcer** may terminate a job whose actual footprint
  exceeds its declaration (container limits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Protocol

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..phi.device import OOMKilled, XeonPhi
from ..sim import Environment, Interrupt
from ..workloads.profiles import HostPhase, JobProfile, OffloadPhase
from .coi import COIProcess
from .scif import SCIFModel


class OffloadGate(Protocol):
    """Admission control for offload bursts (implemented by COSMIC)."""

    def acquire(self, threads: int):
        """Return a yieldable event granting ``threads`` device threads."""

    def release(self, threads: int) -> None:
        """Return previously granted threads."""


class MemoryEnforcer(Protocol):
    """Per-job memory-limit enforcement (implemented by COSMIC)."""

    def check(self, profile: JobProfile, resident_mb: float) -> None:
        """Raise :class:`MemoryLimitExceeded` when the job overruns."""


class MemoryLimitExceeded(Exception):
    """A job's actual device memory exceeded its declared maximum."""

    def __init__(self, job_id: str, resident_mb: float, declared_mb: float) -> None:
        super().__init__(
            f"job {job_id}: resident {resident_mb:.0f} MB exceeds "
            f"declared limit {declared_mb:.0f} MB"
        )
        self.job_id = job_id
        self.resident_mb = resident_mb
        self.declared_mb = declared_mb


def _trace_sub_waits(
    tracer: _trace.Tracer,
    sub_waits: list,
    now: float,
    tid: int,
    parent: Optional[_trace.Span],
) -> None:
    """Emit the spans of a fused host-side wait's parts that ended by ``now``.

    An interrupted wait thus traces only the transfers and host phases
    that finished before the kill.
    """
    for name, begin, end, args in sub_waits:
        if end > now:
            break
        tracer.complete(name, "mpss", begin, end, tid=tid, parent=parent, **args)
    sub_waits.clear()


class _OOMCause:
    """Interrupt cause delivered when the card OOM-kills this job."""

    __slots__ = ()


_OOM = _OOMCause()


@dataclass
class JobRunResult:
    """Outcome of one job execution."""

    job_id: str
    start: float
    end: float
    #: "completed" | "oom-killed" | "memory-limit", or an infrastructure
    #: status ("device-failed" | "node-lost" | "job-crashed") synthesized
    #: by the startd when a fault kills the run.
    status: str
    offloads_run: int
    #: Which run this was: 0 for the first try, >0 after requeues.
    attempt: int = 0

    @property
    def wall_time(self) -> float:
        return self.end - self.start

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class OffloadRuntime:
    """Executes job profiles on one coprocessor.

    Parameters
    ----------
    env:
        Simulation environment.
    device:
        The card offloads execute on.
    scif:
        Transfer cost model (host-blocking).
    gate:
        Optional offload admission control (COSMIC's thread gate). When
        absent, offloads hit the device directly — thread oversubscription
        becomes possible, exactly as with raw MPSS.
    enforcer:
        Optional per-job memory-limit enforcement (COSMIC's containers).
    coi_base_mb:
        Device memory resident from COI process creation.
    """

    def __init__(
        self,
        env: Environment,
        device: XeonPhi,
        scif: Optional[SCIFModel] = None,
        gate: Optional[OffloadGate] = None,
        enforcer: Optional[MemoryEnforcer] = None,
        coi_base_mb: float = 0.0,
    ) -> None:
        self.env = env
        self.device = device
        self.scif = scif or SCIFModel()
        self.gate = gate
        self.enforcer = enforcer
        self.coi_base_mb = coi_base_mb
        self.results: list[JobRunResult] = []

    def execute(self, profile: JobProfile, owner: Optional[Hashable] = None):
        """Run ``profile`` to completion; ``yield from`` inside a process.

        Returns a :class:`JobRunResult`; a job terminated by the OOM
        killer or by the memory enforcer yields a result with the
        corresponding status rather than raising, since job death is an
        outcome the cluster must absorb, not a simulation error.
        """
        env = self.env
        proc = env.active_process
        if proc is None:
            raise RuntimeError("execute must be called from a process")
        owner = owner if owner is not None else profile.job_id
        start = env.now
        offloads_run = 0
        status = "completed"
        tracer = _trace.ACTIVE
        parent = tracer.get(("run", owner)) if tracer is not None else None
        tid = parent.tid if parent is not None else 0

        def on_kill(_owner: Hashable) -> None:
            if env.active_process is proc:
                # The job OOM-killed *itself* while allocating: a process
                # cannot interrupt itself, so surface the kill directly
                # out of the allocation call instead.
                raise OOMKilled(owner, self.device)
            proc.interrupt(_OOM)

        coi = COIProcess(
            self.device,
            owner,
            base_memory_mb=self.coi_base_mb,
            on_kill=on_kill,
        )
        holding_threads = 0
        pending_grant = None
        grant_threads = 0
        # Host-side delays between two state changes (xfer-out, host
        # phases, xfer-in) fuse into one timeout at ``due``, summed with
        # the additions a chain of timeouts would make: nothing changes
        # state between them, and a kill interrupts whatever the process
        # waits on. ``None`` ends the script, so the last run of delays
        # is waited out like any other.
        due: Optional[float] = None
        # The fused wait's parts, kept for tracing: (name, start, end, args).
        sub_waits: list = []
        try:
            for phase in (*profile.phases, None):
                if isinstance(phase, HostPhase):
                    if phase.duration > 0:
                        begin = env.now if due is None else due
                        due = begin + phase.duration
                        if tracer is not None:
                            sub_waits.append(("host-phase", begin, due, {}))
                    continue
                if isinstance(phase, OffloadPhase):
                    # Move input buffers (host-blocking). The buffers land
                    # in the COI process *before* the offload is
                    # scheduled, so residency grows now — a queued
                    # offload holds its memory (SII-C: stacks and
                    # committed blocks persist).
                    in_time = self.scif.transfer_time(phase.transfer_mb / 2.0)
                    if in_time > 0:
                        begin = env.now if due is None else due
                        due = begin + in_time
                        if tracer is not None:
                            sub_waits.append(
                                ("xfer-in", begin, due, {"mb": phase.transfer_mb / 2.0})
                            )
                if due is not None:
                    try:
                        yield env.timeout_at(due)
                    finally:
                        if sub_waits:
                            _trace_sub_waits(tracer, sub_waits, env.now, tid, parent)
                    due = None
                if phase is None:
                    break
                coi.grow_to(phase.memory_mb)
                if self.enforcer is not None:
                    self.enforcer.check(profile, coi.resident_mb)
                # COSMIC admission: wait for device threads.
                if self.gate is not None:
                    pending_grant = self.gate.acquire(phase.threads)
                    grant_threads = phase.threads
                    gate_start = env.now
                    yield pending_grant
                    pending_grant = None
                    holding_threads = phase.threads
                    if tracer is not None:
                        tracer.complete(
                            "gate-wait", "cosmic", gate_start, env.now,
                            tid=tid, parent=parent, threads=phase.threads,
                        )
                    registry = _metrics.ACTIVE
                    if registry is not None:
                        registry.histogram("offload.gate_wait_s").observe(
                            env.now - gate_start
                        )
                try:
                    yield from self.device.run_offload(
                        owner, phase.threads, phase.work
                    )
                    offloads_run += 1
                finally:
                    if self.gate is not None and holding_threads:
                        self.gate.release(holding_threads)
                        holding_threads = 0
                # Move output buffers (host-blocking).
                out_time = self.scif.transfer_time(phase.transfer_mb / 2.0)
                if out_time > 0:
                    begin = env.now
                    due = begin + out_time
                    if tracer is not None:
                        sub_waits.append(
                            ("xfer-out", begin, due, {"mb": phase.transfer_mb / 2.0})
                        )
        except Interrupt as interrupt:
            if isinstance(interrupt.cause, _OOMCause):
                status = "oom-killed"
                if tracer is not None:
                    tracer.instant("oom-killed", "mpss", env.now, tid=tid)
            else:
                raise
        except OOMKilled:
            status = "oom-killed"
            if tracer is not None:
                tracer.instant("oom-killed", "mpss", env.now, tid=tid)
        except MemoryLimitExceeded:
            status = "memory-limit"
            if tracer is not None:
                tracer.instant("memory-limit", "mpss", env.now, tid=tid)
        finally:
            # A kill may land while the job queues for the gate: withdraw
            # the pending grant so the gate never hands threads to a corpse.
            # If the grant already triggered but the kill won the race to
            # resume us, the threads were deducted and must go back.
            if pending_grant is not None:
                if not pending_grant.triggered:
                    cancel = getattr(pending_grant, "cancel", None)
                    if cancel is not None:
                        cancel()
                elif holding_threads == 0 and self.gate is not None:
                    self.gate.release(grant_threads)
            coi.destroy()

        result = JobRunResult(
            job_id=profile.job_id,
            start=start,
            end=env.now,
            status=status,
            offloads_run=offloads_run,
        )
        self.results.append(result)
        return result
