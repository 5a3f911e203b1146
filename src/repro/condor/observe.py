"""The job observer: every job-scoped trace, metrics and audit emission.

:class:`JobObserver` subscribes to the schedd's
:class:`~repro.condor.schedd.Transition` stream — the queue transitions
plus the job events the negotiator, startds and claim agents publish —
so the daemons hold no observability code, and another observer is one
more ``subscribe`` call.

A job's track carries its span tree: ``job`` (submit → terminal outcome)
over ``queued`` (submit or requeue → run), ``dispatch`` (starter start →
execution), ``run`` (execution → starter exit) and ``backoff`` (failed
run → requeue). The ``job.queue_wait_s`` and ``job.run_s`` histograms
come from event times, so ``--metrics`` records them with or without the
tracer, with the span durations' values.
"""

from __future__ import annotations

from ..faults.errors import CLAIM_LOST
from ..obs import audit as _audit
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .schedd import (
    CLAIM_CLOSE,
    CLAIM_OPEN,
    CLAIM_REJECTED,
    COMPLETE,
    DISPATCH,
    EXECUTE,
    EXIT,
    FAIL,
    LAUNCH,
    LEASE_CLOSE,
    LEASE_EXPIRY,
    LEASE_OPEN,
    LEASE_RENEW,
    MATCH,
    MATCH_TIMEOUT,
    NEGOTIATED,
    REQUEUE,
    RUN,
    STALE,
    SUBMIT,
    UNMATCH,
    JobRecord,
    Schedd,
    Transition,
)

#: Kinds with an emission on the job's own trace track.
_TRACED = frozenset(
    {SUBMIT, NEGOTIATED, RUN, DISPATCH, EXECUTE, EXIT, COMPLETE, FAIL, REQUEUE, UNMATCH}
)
#: Counters bumped once per transition of a kind (or UNMATCH cause).
_COUNTERS = {
    SUBMIT: "schedd.jobs_submitted",
    FAIL: "schedd.runs_failed",
    REQUEUE: "schedd.requeues",
    LEASE_RENEW: "net.lease_renewals",
    LEASE_EXPIRY: "net.lease_expiries",
    STALE: "net.stale_messages",
    MATCH_TIMEOUT: "net.match_timeouts",
    CLAIM_REJECTED: "net.claims_rejected",
}
#: Kinds after which the queue-depth gauge is sampled.
_DEPTH_KINDS = frozenset({SUBMIT, MATCH, UNMATCH, RUN, REQUEUE})


def job_tid(record: JobRecord) -> int:
    """The trace track a job's lifecycle spans land on."""
    return _trace.JOB_TID_BASE + record.seq


class JobObserver:
    """The schedd's subscriber holding every job-scoped emission."""

    def __init__(self, schedd: Schedd) -> None:
        self.schedd = schedd
        #: Start of each job's queue wait and run, for the job histograms.
        self._queued_at: dict[str, float] = {}
        self._running_at: dict[str, float] = {}

    def __call__(self, tr: Transition) -> None:
        tracer = _trace.ACTIVE
        if tracer is not None:
            self._trace(tr, tracer)
        registry = _metrics.ACTIVE
        if registry is not None:
            self._measure(tr, registry)
        auditor = _audit.ACTIVE
        if auditor is not None:
            self._audit(tr, auditor)

    def _trace(self, tr: Transition, tracer) -> None:
        kind, job_id, now = tr.kind, tr.job_id, tr.time
        if kind == LEASE_EXPIRY:
            tracer.instant(
                "lease-expired", "net", now, tid=_trace.NET_TID, job=job_id,
                node=tr.node,
            )
        if kind not in _TRACED:
            return
        record = self.schedd.get(job_id)
        tid = job_tid(record)
        root = tracer.get(("job", job_id))
        if kind == SUBMIT:
            tracer.set_thread_name(tid, f"job {job_id}")
            root = tracer.begin_keyed(
                ("job", job_id), "job", "schedd", now, tid=tid, job=job_id,
                declared_mb=tr.profile.declared_memory_mb,
                declared_threads=tr.profile.declared_threads,
            )
            tracer.begin_keyed(
                ("queued", job_id), "queued", "schedd", now, tid=tid, parent=root
            )
        elif kind == NEGOTIATED:
            tracer.instant(
                "matched", "negotiator", now, tid=tid, node=tr.node,
                device=tr.device, exclusive=tr.exclusive,
            )
        elif kind == RUN:
            tracer.end_keyed(("queued", job_id), now, node=tr.node, device=tr.device)
        elif kind == DISPATCH:
            tracer.begin_keyed(
                ("dispatch", job_id), "dispatch", "startd", now, tid=tid,
                parent=root, node=tr.node,
            )
        elif kind == EXECUTE:
            tracer.end_keyed(("dispatch", job_id), now)
            tracer.begin_keyed(
                ("run", job_id), "run", "startd", now, tid=tid, parent=root,
                node=tr.node, device=tr.device, exclusive=tr.exclusive,
            )
        elif kind == EXIT:
            # Whichever stage the job died in (a fault can land during
            # the dispatch handshake) is still open: close it.
            tracer.end_keyed(("dispatch", job_id), now)
            tracer.end_keyed(("run", job_id), now, status=tr.cause)
        elif kind == COMPLETE:
            status = tr.result.status
            tracer.instant("completed", "schedd", now, tid=tid, status=status)
            tracer.end_keyed(
                ("job", job_id), now, status=status,
                offloads=tr.result.offloads_run, attempts=record.attempts,
            )
        elif kind == FAIL:
            status = tr.result.status
            if status == CLAIM_LOST:
                tracer.instant("claim-lost", "net", now, tid=tid, node=tr.node)
            tracer.instant(
                "run-failed", "schedd", now, tid=tid, status=status,
                attempt=record.attempts, retry=tr.retry,
            )
            if tr.retry:
                tracer.begin_keyed(
                    ("backoff", job_id), "backoff", "schedd", now, tid=tid,
                    parent=root, attempt=record.attempts,
                )
            else:
                tracer.end_keyed(
                    ("job", job_id), now, status=status, attempts=record.attempts
                )
        elif kind == REQUEUE:
            tracer.end_keyed(("backoff", job_id), now)
            tracer.begin_keyed(
                ("queued", job_id), "queued", "schedd", now, tid=tid,
                parent=root, attempt=record.attempts,
            )
        elif tr.cause == MATCH_TIMEOUT:  # UNMATCH
            tracer.instant("match-timeout", "net", now, tid=tid)

    def _measure(self, tr: Transition, registry) -> None:
        kind, job_id, now = tr.kind, tr.job_id, tr.time
        name = _COUNTERS.get(tr.cause if kind == UNMATCH else kind)
        if name is not None:
            registry.counter(name).inc()
        if kind == SUBMIT or kind == REQUEUE:
            self._queued_at[job_id] = now
        elif kind == RUN:
            queued_at = self._queued_at.pop(job_id, None)
            if queued_at is not None:
                registry.histogram("job.queue_wait_s").observe(now - queued_at)
        elif kind == EXECUTE:
            self._running_at[job_id] = now
        elif kind == EXIT:
            running_at = self._running_at.pop(job_id, None)
            if running_at is not None:
                registry.histogram("job.run_s").observe(now - running_at)
        elif kind == COMPLETE:
            registry.counter("schedd.jobs_completed").inc()
            if tr.result.status != "completed":
                registry.counter("schedd.jobs_killed").inc()
            if self.schedd.get(job_id).attempts > 0:
                registry.counter("schedd.jobs_retried_completed").inc()
        elif kind == FAIL:
            if tr.result.status == CLAIM_LOST:
                registry.counter("net.claims_lost").inc()
            if not tr.retry:
                registry.counter("schedd.jobs_failed_terminal").inc()
        if kind in _DEPTH_KINDS:
            registry.gauge("schedd.queue_depth").record(now, self.schedd.idle_jobs)

    def _audit(self, tr: Transition, auditor) -> None:
        kind, job_id, now = tr.kind, tr.job_id, tr.time
        if kind == SUBMIT:
            auditor.job_submitted(job_id)
        elif kind == COMPLETE or (kind == FAIL and not tr.retry):
            auditor.job_terminal(job_id, tr.result.status, now)
        elif kind == LAUNCH:
            auditor.slot_claimed(tr.node, job_id, tr.state, now)
            auditor.run_started(tr.node, job_id, now)
        elif kind == EXIT:
            auditor.run_ended(tr.node, job_id, now)
            auditor.slot_released(tr.node, job_id, now)
        elif kind == CLAIM_OPEN:
            auditor.claim_opened(job_id, tr.token, now)
        elif kind == CLAIM_CLOSE:
            auditor.claim_closed(job_id, tr.token, now)
        elif kind == LEASE_OPEN:
            auditor.lease_opened(tr.node, job_id, tr.token, now)
        elif kind == LEASE_CLOSE:
            auditor.lease_closed(tr.node, job_id, tr.token, now)
