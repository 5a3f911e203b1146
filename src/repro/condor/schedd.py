"""The schedd: Condor's job queue, submission, and ``condor_qedit``.

Jobs enter the queue as (ClassAd, JobProfile) pairs and move through the
usual states. The external scheduler manipulates pending jobs exclusively
through :meth:`Schedd.qedit` — exactly the integration surface the paper
uses ("using the utility condor_qedit, we change each job's requirements",
§IV-D1) — and batched edits only take effect at the *next* negotiation
cycle, reproducing the dispatch latency the paper blames for MCCK's small
overhead on unfavourable distributions.

The queue is one state machine. Every change is a :class:`Transition`:
the public methods validate, build one, and hand it to
:meth:`Schedd._apply` — the only code that changes a :class:`JobRecord`
or the queue counters — then publish it to the subscribers in
registration order. The write-ahead log (:mod:`repro.condor.recovery`)
subscribes first, the job observer (:mod:`repro.condor.observe`) next,
then the knapsack scheduler and the negotiator's reschedule hook. Crash
recovery replays the journaled transitions through the same ``_apply``,
without publishing them.
The negotiator, the startds and the claim agents publish their job
events on the same stream (:meth:`Schedd.publish`: never applied, never
journaled), so one subscriber sees a job's whole life.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..faults.errors import (
    CLAIM_LOST,
    DEVICE_FAILED,
    JOB_CRASHED,
    LEASE_EXPIRED,
    NODE_LOST,
)
from ..mpss.runtime import JobRunResult
from ..sim import Environment, Event
from ..workloads.profiles import JobProfile
from .ads import job_ad
from .classad import ClassAd, Expr, Literal
from .compile import RequirementsPlan, requirements_plan

IDLE = "Idle"
#: A match notification arrived over the fabric but the claim has not
#: been activated on the startd yet (fabric mode only — direct dispatch
#: never leaves a job in this state).
MATCHED = "Matched"
RUNNING = "Running"
COMPLETED = "Completed"
REMOVED = "Removed"
#: Waiting out the retry backoff after an infrastructure failure.
BACKOFF = "Backoff"
#: Terminally failed: retries exhausted (or the failure is not retryable).
FAILED = "Failed"

#: Transition kinds; the write-ahead log journals them under these names.
SUBMIT = "submit"
QEDIT = "qedit"
MATCH = "match"
UNMATCH = "unmatch"
RUN = "run"
COMPLETE = "complete"
FAIL = "fail"
REQUEUE = "requeue"
JOURNALED = frozenset({SUBMIT, QEDIT, MATCH, UNMATCH, RUN, COMPLETE, FAIL, REQUEUE})
#: Job-less and never journaled: a crash–recovery replay rebuilt the queue.
RECOVERED = "recovered"
#: Published only, never applied or journaled: the negotiator's match, the
#: startd's run (launch, dispatch, execute, exit) and the claim protocol.
NEGOTIATED = "negotiated"
LAUNCH = "launch"
DISPATCH = "dispatch"
EXECUTE = "execute"
EXIT = "exit"
CLAIM_OPEN = "claim-open"
CLAIM_CLOSE = "claim-close"
LEASE_RENEW = "lease-renew"
LEASE_OPEN = "lease-open"
LEASE_CLOSE = "lease-close"
LEASE_EXPIRY = "lease-expiry"
STALE = "stale"
#: UNMATCH causes, when the claim protocol knows one.
MATCH_TIMEOUT = "match-timeout"
CLAIM_REJECTED = "claim-rejected"
#: Found only in a compacted journal, never published: the header that
#: restarts the queue counters, and one job's whole record.
CHECKPOINT = "checkpoint"
SNAPSHOT = "snapshot"

#: Result statuses that mean the *infrastructure* failed the job. Only
#: these are retryable — kill-by-container statuses ("memory-limit",
#: "oom-killed") are the job's own fault and rerunning would fail again.
INFRASTRUCTURE_STATUSES = frozenset(
    {DEVICE_FAILED, NODE_LOST, JOB_CRASHED, LEASE_EXPIRED, CLAIM_LOST,
     "infrastructure"}
)

#: Sort key for FIFO queue order (precomputed at submission).
_FIFO_KEY = operator.attrgetter("fifo_key")


def offer_plan(record: "JobRecord") -> Optional[RequirementsPlan]:
    """The plan the negotiator matches ``record``'s Requirements with, or
    ``None`` when the job is *parked*.

    A job is parked when its Requirements is missing, a literal other
    than ``true`` (the external scheduler's ``false`` rewrite, answered
    without a plan lookup), or a plan that never matches. A pure
    function of the Requirements tree, which only :meth:`Schedd._apply`
    replaces, so the schedd files each idle job by it as the tree
    changes.
    """
    req = record.ad._attrs.get("requirements")
    if req is None or (type(req) is Literal and req.value is not True):
        return None
    plan = requirements_plan(req)
    return None if plan.never_matches else plan


class _FifoQueue:
    """Job records in ``fifo_key`` order, in a list with a movable gap.

    The records fill ``_items[:_lo]`` and ``_items[_hi:]``; the slots
    between them are a gap the queue never reads. An insertion or a
    removal moves the gap to its place and grows or shrinks it there, so
    a run of them at neighbouring places costs O(1) apiece: attach
    parking a whole queue in FIFO order past the jobs it pinned, or new
    submissions appending. One elsewhere costs the distance the gap
    moves, at most the shift of the list it replaces.
    """

    __slots__ = ("_items", "_lo", "_hi")

    def __init__(self) -> None:
        self._items: list = []
        self._lo = 0
        self._hi = 0

    def __len__(self) -> int:
        return len(self._items) - self._hi + self._lo

    def _index(self, key: tuple) -> int:
        """Where the first record with ``fifo_key >= key`` sits (``_hi``
        or past the end when it would follow the gap)."""
        items, lo = self._items, self._lo
        if lo and key <= items[lo - 1].fifo_key:
            return bisect_left(items, key, 0, lo, key=_FIFO_KEY)
        return bisect_left(items, key, self._hi, key=_FIFO_KEY)

    def _gap_to(self, i: int) -> None:
        """Move the gap to just before the record at ``i``, which then
        sits at ``_hi``."""
        items, lo, hi = self._items, self._lo, self._hi
        if i < lo:
            items[hi - (lo - i):hi] = items[i:lo]
            self._lo, self._hi = i, hi - (lo - i)
        elif i > hi:
            items[lo:lo + (i - hi)] = items[hi:i]
            self._lo, self._hi = lo + (i - hi), i

    def insert(self, record: "JobRecord") -> None:
        items = self._items
        key = record.fifo_key
        if self._hi < len(items):
            if items[-1].fifo_key < key:
                # A live submission is the newest job: O(1).
                items.append(record)
                return
            self._gap_to(self._index(key))
        elif self._lo and key < items[self._lo - 1].fifo_key:
            self._gap_to(self._index(key))
        lo = self._lo
        if lo == self._hi:
            items.insert(lo, record)
            self._hi += 1
        else:
            items[lo] = record
        self._lo = lo + 1

    def remove(self, record: "JobRecord") -> bool:
        """Drop ``record`` (by identity); whether it was here."""
        items, lo, hi = self._items, self._lo, self._hi
        if hi < len(items) and items[hi] is record:
            self._hi = hi + 1
        elif lo and items[lo - 1] is record:
            self._lo = lo - 1
        else:
            i = self._index(record.fifo_key)
            if i == len(items) or items[i] is not record:
                return False
            self._gap_to(i)
            self._hi += 1
        lo, hi = self._lo, self._hi
        if 2 * (hi - lo) > len(items):
            # A gap wider than the records: close it (amortized O(1)).
            del items[lo:hi]
            self._hi = lo
        return True

    def between(self, after: Optional[tuple], before: Optional[tuple]) -> int:
        """How many records have ``after < fifo_key < before`` (``None``
        leaves that side open)."""
        items = self._items
        count = 0
        for start, end in ((0, self._lo), (self._hi, len(items))):
            if after is not None:
                start = bisect_right(items, after, start, end, key=_FIFO_KEY)
            if before is not None:
                end = bisect_left(items, before, start, end, key=_FIFO_KEY)
            count += end - start
        return count

    def listing(self) -> list["JobRecord"]:
        items, lo, hi = self._items, self._lo, self._hi
        if not lo:
            return items[hi:]
        if hi == len(items):
            return items[:lo]
        return items[:lo] + items[hi:]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for infrastructure failures.

    A job is retried at most ``max_retries`` times (so it runs at most
    ``max_retries + 1`` times), waiting
    ``base_backoff_s * backoff_factor ** (attempt - 1)`` seconds (capped
    at ``max_backoff_s``) before re-entering the idle queue. The bound
    is what prevents a retry storm when a failure is persistent.

    ``jitter`` desynchronizes the storms the bound cannot prevent: when
    one node crash fails sixteen jobs in the same instant, identical
    backoffs would re-queue them in the same negotiation cycle too. A
    nonzero jitter scales each delay by a factor drawn deterministically
    from ``(jitter_seed, key, attempt)`` — a keyed hash, not process
    state — so replays for a fixed seed stay byte-identical while
    distinct jobs spread across ``[1 - jitter, 1] × backoff``.
    """

    max_retries: int = 3
    base_backoff_s: float = 30.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 600.0
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.base_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff times must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def should_retry(self, status: str, attempts: int) -> bool:
        """Whether a job with ``attempts`` failed runs gets another."""
        return status in INFRASTRUCTURE_STATUSES and attempts <= self.max_retries

    def backoff(self, attempt: int, key: Optional[str] = None) -> float:
        """Delay before re-queueing after failed run number ``attempt``.

        ``key`` (normally the job id) selects the jitter draw. The draw
        comes from SHA-256 — never the builtin ``hash``, whose per-process
        randomization would break cross-process replays.
        """
        if attempt <= 0:
            raise ValueError("attempt must be positive")
        delay = min(
            self.max_backoff_s,
            self.base_backoff_s * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter == 0.0 or key is None:
            return delay
        digest = hashlib.sha256(
            f"retry-jitter:{self.jitter_seed}:{key}:{attempt}".encode()
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        return delay * (1.0 - self.jitter * unit)


@dataclass
class JobRecord:
    """One queued job: its ad, its (hidden) profile, and its lifecycle."""

    job_id: str
    ad: ClassAd
    profile: JobProfile
    status: str = IDLE
    seq: int = 0
    result: Optional[JobRunResult] = None
    completion: Optional[Event] = None
    matched_node: Optional[str] = None
    matched_device: Optional[int] = None
    #: Failed runs so far (infrastructure failures only).
    attempts: int = 0
    #: Result of every failed run, in order.
    failures: list[JobRunResult] = field(default_factory=list)
    #: The submit-time Requirements expression, restored on requeue so a
    #: retried job sheds any pin/park the previous attempt carried.
    base_requirements: Optional[Expr] = None
    #: FIFO examination key, fixed at submission: (submit_time, seq).
    #: Unique per job; the idle queues are kept in this order.
    fifo_key: tuple = (0.0, 0)
    #: The current match/claim token under the message fabric. Stale
    #: messages (from a match the schedd has since abandoned) carry an
    #: older token and are rejected by the claim manager.
    claim_token: Optional[int] = None
    #: When the current match notification arrived (MATCHED state only).
    #: Recovery restores the match watchdog against the original deadline.
    matched_at: Optional[float] = None
    #: When a BACKOFF job is due back in the idle queue. Recovery uses it
    #: to resume the remaining backoff instead of restarting it.
    requeue_at: Optional[float] = None

    @property
    def is_pending(self) -> bool:
        return self.status == IDLE

    def detached(self, completion: Optional[Event] = None) -> "JobRecord":
        """A copy sharing no mutable state with this one: a checkpoint
        snapshot, and the record a replay rebuilds from it."""
        return dataclasses.replace(
            self,
            ad=self.ad.copy(),
            failures=list(self.failures),
            completion=completion,
        )


@dataclass(slots=True)
class Transition:
    """One job event: a queue state change, as applied, journaled and
    published, or a published-only event of the daemons around the queue.

    Only the payload its ``kind`` needs is set. The payload is plain
    state — ids, numbers, frozen profiles, run results, detached record
    copies — never a live queue object, so a journal of transitions
    replays without anything the crashed daemon left behind. Nothing
    changes a transition once built: the journal keeps the object
    itself. (Not ``frozen``: that would quadruple the construction
    cost on every queue change.)
    """

    kind: str
    job_id: Optional[str]
    time: float
    #: RUN, NEGOTIATED and the startd kinds: where the job runs. FAIL:
    #: where it ran. The lease kinds: the startd holding the lease.
    node: Optional[str] = None
    device: Optional[int] = None
    #: NEGOTIATED, EXECUTE: whether the device is claimed exclusively.
    exclusive: bool = False
    #: MATCH and the claim and lease kinds: the claim token.
    token: Optional[int] = None
    #: COMPLETE, FAIL: the run's result.
    result: Optional[JobRunResult] = None
    #: FAIL: whether the job backs off and requeues, and when.
    retry: bool = False
    requeue_at: Optional[float] = None
    #: QEDIT: the attribute and its new expression source.
    attr: Optional[str] = None
    expression: Optional[str] = None
    #: SUBMIT: the job, its submit-ad flags (sharing, memory_aware) and
    #: its queue sequence number.
    profile: Optional[JobProfile] = None
    flags: tuple[bool, bool] = (True, True)
    seq: int = 0
    #: UNMATCH: why the claim never activated (``"match-timeout"``,
    #: ``"claim-rejected"``). STALE: the dropped message's kind. EXIT:
    #: the run's status.
    cause: Optional[str] = None
    #: SNAPSHOT: the job's detached :class:`JobRecord`. CHECKPOINT: the
    #: schedd's ``(requeues, terminal_failures)``. LAUNCH: the node's
    #: slot count.
    state: Any = None


Subscriber = Callable[[Transition], None]


def _settle(record: JobRecord) -> None:
    # succeed (not fail) even for a failure: the result carries the
    # status, and an un-waited failed event would crash the simulation.
    # A replayed record may carry an event that already fired.
    if not record.completion.triggered:
        record.completion.succeed(record.result)


class Schedd:
    """Job queue and submission endpoint."""

    def __init__(
        self, env: Environment, retry_policy: Optional[RetryPolicy] = None
    ) -> None:
        self.env = env
        self.retry_policy = retry_policy or RetryPolicy()
        self._records: dict[str, JobRecord] = {}
        #: The idle jobs, kept by ``_apply`` in two ``fifo_key``-ordered
        #: queues that partition them by :func:`offer_plan`: the
        #: *offered* jobs, which the negotiator walks, and the *parked*
        #: ones, which it only counts.
        self._offered = _FifoQueue()
        self._parked = _FifoQueue()
        self._seq = 0
        from .observe import JobObserver
        #: Called with every published transition, in this order.
        self._subscribers: tuple[Subscriber, ...] = (JobObserver(self),)
        #: Write-ahead job-queue log (:class:`repro.condor.recovery
        #: .JobQueueLog`), which attaches itself; ``None`` (the default)
        #: keeps every code path byte-identical to a WAL-free schedd.
        self.wal = None
        #: True while the daemon is crashed: timers and subscribers that
        #: fire during the outage must not touch the queue.
        self.down = False
        #: Completed crash–recovery cycles.
        self.recoveries = 0
        #: Times any job re-entered the queue after a failure.
        self.requeues = 0
        #: Jobs that exhausted their retries (or were unretryable).
        self.terminal_failures = 0
        #: Event that triggers once every submitted job has left the queue.
        self._all_done: Optional[Event] = None
        # Jobs in a non-terminal state, so a completion never rescans
        # the record table.
        self._unfinished = 0

    def subscribe(self, fn: Subscriber, first: bool = False) -> None:
        """Call ``fn`` with every transition (a queue one once applied).

        Subscribers run in registration order. ``first`` puts ``fn``
        ahead of all others — the write-ahead log's place, so that a
        subscriber's follow-up transition (a parking qedit on
        submission) journals after the transition that caused it.
        """
        if first:
            self._subscribers = (fn, *self._subscribers)
        else:
            self._subscribers = (*self._subscribers, fn)

    def publish(self, tr: Transition) -> None:
        """Hand ``tr`` to the subscribers without applying it: a daemon's
        published-only job event, whether or not the schedd is up."""
        for subscriber in self._subscribers:
            subscriber(tr)

    def _emit(self, tr: Transition) -> None:
        self._apply(tr)
        self.publish(tr)

    # -- submission -------------------------------------------------------

    def submit(
        self,
        profile: JobProfile,
        sharing: bool = True,
        memory_aware: bool = True,
    ) -> JobRecord:
        """Queue a job, building its submit ad from the profile."""
        if profile.job_id in self._records:
            raise ValueError(f"duplicate job id {profile.job_id!r}")
        self._emit(
            Transition(
                SUBMIT,
                profile.job_id,
                self.env.now,
                profile=profile,
                flags=(sharing, memory_aware),
                seq=self._seq + 1,
            )
        )
        return self._records[profile.job_id]

    # -- queue inspection ---------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        return self._records[job_id]

    def all_records(self) -> list[JobRecord]:
        """Every job ever submitted, in FIFO order."""
        return sorted(self._records.values(), key=_FIFO_KEY)

    def pending(self) -> list[JobRecord]:
        """Every idle job, offered and parked, in FIFO order: the
        external scheduler's attach and recovery passes. A new list."""
        offered = self._offered.listing()
        parked = self._parked.listing()
        if not parked:
            return offered
        if not offered:
            return parked
        # Two sorted runs: the sort is one merge.
        return sorted(offered + parked, key=_FIFO_KEY)

    def negotiable(self) -> list[JobRecord]:
        """The offered idle jobs (those with an :func:`offer_plan`) in FIFO
        order: the negotiator's walk.

        A copy: a direct-mode match runs its job while the negotiator is
        still walking the list.
        """
        return self._offered.listing()

    def parked_between(
        self, after: Optional[tuple], before: Optional[tuple]
    ) -> int:
        """Parked idle jobs with ``after < fifo_key < before`` (``None``
        leaves that side open), counted by bisection, none read."""
        return self._parked.between(after, before)

    def running(self) -> list[JobRecord]:
        return [r for r in self._records.values() if r.status == RUNNING]

    def completed(self) -> list[JobRecord]:
        return [r for r in self._records.values() if r.status == COMPLETED]

    def failed(self) -> list[JobRecord]:
        """Jobs that terminally failed (retries exhausted)."""
        return [r for r in self._records.values() if r.status == FAILED]

    @property
    def total_jobs(self) -> int:
        return len(self._records)

    @property
    def unfinished_jobs(self) -> int:
        return self._unfinished

    @property
    def idle_jobs(self) -> int:
        """Jobs currently idle, offered or parked (the size of
        :meth:`pending`'s result), so an idle-pool negotiation cycle can
        skip the listing."""
        return len(self._offered) + len(self._parked)

    # -- qedit -------------------------------------------------------------

    def qedit(self, job_id: str, attr: str, expression: str) -> None:
        """Rewrite one attribute of a *pending* job (``condor_qedit``).

        ``set_expr`` *replaces* the stored expression tree, which is
        what keeps the ClassAd closure compiler honest: compiled
        closures and negotiator routing plans are memoized per tree
        (:mod:`repro.condor.compile`), so swapping in a new tree is
        itself the cache invalidation — the old closure simply becomes
        unreachable. The same holds for requeue's ``base_requirements``
        restore.
        """
        record = self._records[job_id]
        if record.status != IDLE:
            raise ValueError(f"cannot qedit job {job_id!r} in state {record.status}")
        self._emit(
            Transition(
                QEDIT, job_id, self.env.now, attr=attr, expression=expression
            )
        )

    def qedit_batch(self, edits: list[tuple[str, str, str]]) -> None:
        """Apply many edits at once (the paper batches for overhead)."""
        for job_id, attr, expression in edits:
            self.qedit(job_id, attr, expression)

    # -- lifecycle transitions ----------------------------------------------

    def mark_matched(self, job_id: str, token: int) -> None:
        """IDLE → MATCHED: a match notification arrived over the fabric.

        The job leaves the pending queue (it is spoken for) but is not
        running yet; the claim manager reverts it via :meth:`unmatch` if
        the claim never activates.
        """
        record = self._records[job_id]
        if record.status != IDLE:
            raise ValueError(f"job {job_id!r} is {record.status}, not idle")
        self._emit(Transition(MATCH, job_id, self.env.now, token=token))

    def unmatch(self, job_id: str, cause: Optional[str] = None) -> None:
        """MATCHED → IDLE: the claim never activated; re-offer the job."""
        record = self._records[job_id]
        if record.status != MATCHED:
            raise ValueError(f"job {job_id!r} is {record.status}, not matched")
        self._emit(Transition(UNMATCH, job_id, self.env.now, cause=cause))

    def mark_running(self, job_id: str, node: str, device: Optional[int]) -> None:
        record = self._records[job_id]
        if record.status not in (IDLE, MATCHED):
            raise ValueError(f"job {job_id!r} is {record.status}, not idle")
        self._emit(
            Transition(RUN, job_id, self.env.now, node=node, device=device)
        )

    def mark_completed(self, job_id: str, result: JobRunResult) -> None:
        record = self._records[job_id]
        if record.status != RUNNING:
            raise ValueError(f"job {job_id!r} is {record.status}, not running")
        self._emit(Transition(COMPLETE, job_id, self.env.now, result=result))
        self._check_all_done()

    def mark_failed(self, job_id: str, result: JobRunResult) -> None:
        """Report an infrastructure-failed run; requeue or fail the job.

        ``result.status`` must be an infrastructure status (device lost,
        node lost, transient crash). The retry policy decides between a
        backoff + requeue and a terminal failure. Kill-by-container
        outcomes ("memory-limit", "oom-killed") are *completions* — the
        job itself misbehaved — and must go through
        :meth:`mark_completed` as before.
        """
        record = self._records[job_id]
        if record.status != RUNNING:
            raise ValueError(f"job {job_id!r} is {record.status}, not running")
        attempt = record.attempts + 1
        retry = self.retry_policy.should_retry(result.status, attempt)
        requeue_at = None
        if retry:
            delay = self.retry_policy.backoff(attempt, key=job_id)
            requeue_at = self.env.now + delay
            # Spawned before any subscriber schedules work of its own.
            self.env.process(
                self._requeue_after(record, delay), name=f"requeue:{job_id}"
            )
        self._emit(
            Transition(
                FAIL,
                job_id,
                self.env.now,
                node=record.matched_node,
                result=result,
                retry=retry,
                requeue_at=requeue_at,
            )
        )
        self._check_all_done()

    def mark_recovered(self) -> None:
        """Announce that a crash–recovery replay rebuilt the queue.

        Subscribers that cached the pre-crash records (the knapsack
        scheduler's pending index) resync here. Not journaled.
        """
        self._emit(Transition(RECOVERED, None, self.env.now))

    def _requeue_after(self, record: JobRecord, delay: float):
        yield self.env.timeout(max(0.0, delay))
        if self.down:
            # The schedd is crashed: a real requeue timer dies with the
            # daemon. Recovery replays the BACKOFF record and resumes the
            # remaining delay from the journal's requeue_at.
            return
        if self._records.get(record.job_id) is not record:
            # Stale closure: a crash–recovery replay replaced this record
            # object wholesale and rescheduled its own requeue timer.
            return
        self._emit(Transition(REQUEUE, record.job_id, self.env.now))

    # -- the state machine ----------------------------------------------------

    def _apply(self, tr: Transition) -> None:
        """Apply one transition, live or from the journal.

        The only code that changes a :class:`JobRecord` or the queue
        counters. It validates nothing (the public methods did, before
        the transition was journaled) and publishes nothing, so a
        journal replay through it is silent.
        """
        kind = tr.kind
        if kind == SUBMIT or kind == SNAPSHOT:
            self._admit(tr)
            return
        if kind == CHECKPOINT:
            # The queue restarts here; records are replaced job by job
            # as their submit or snapshot is applied.
            self.requeues, self.terminal_failures = tr.state
            self._offered = _FifoQueue()
            self._parked = _FifoQueue()
            self._unfinished = 0
            self._seq = 0
            return
        if kind == RECOVERED:
            self.recoveries += 1
            return
        job_id = tr.job_id
        record = self._records[job_id]
        if kind == QEDIT:
            attr = tr.attr
            record.ad.set_expr(attr, tr.expression)
            if record.status == IDLE and (
                attr == "Requirements" or attr.lower() == "requirements"
            ):
                # A park or an unpark moves the job to the other queue.
                if offer_plan(record) is not None:
                    if self._parked.remove(record):
                        self._offered.insert(record)
                elif self._offered.remove(record):
                    self._parked.insert(record)
            return
        if kind == MATCH:
            record.status = MATCHED
            record.claim_token = tr.token
            record.matched_at = tr.time
            self._idle_remove(record)
        elif kind == UNMATCH:
            record.status = IDLE
            record.claim_token = None
            record.matched_at = None
            self._idle_insert(record)
        elif kind == RUN:
            # From IDLE, or from MATCHED under the fabric.
            self._idle_remove(record)
            record.status = RUNNING
            record.matched_node = tr.node
            record.matched_device = tr.device
            record.matched_at = None
        elif kind == COMPLETE:
            record.status = COMPLETED
            record.result = tr.result
            record.claim_token = None
            self._unfinished -= 1
            _settle(record)
        elif kind == FAIL:
            record.attempts += 1
            record.failures.append(tr.result)
            record.matched_node = None
            record.matched_device = None
            record.claim_token = None
            if tr.retry:
                record.status = BACKOFF
                record.requeue_at = tr.requeue_at
            else:
                record.status = FAILED
                record.result = tr.result
                self._unfinished -= 1
                self.terminal_failures += 1
                _settle(record)
        elif kind == REQUEUE:
            record.status = IDLE
            record.requeue_at = None
            if record.base_requirements is not None:
                # Shed the previous attempt's pin/park so the job can
                # match anywhere again; an attached knapsack scheduler
                # re-parks it when it sees the transition.
                record.ad["Requirements"] = record.base_requirements
            self.requeues += 1
            self._idle_insert(record)
        else:  # pragma: no cover - journal corruption guard
            raise ValueError(f"unknown transition kind {kind!r}")
        record.ad["JobStatus"] = record.status

    def _admit(self, tr: Transition) -> None:
        # A replay replaces the crashed daemon's record; waiters on its
        # completion event must still resolve.
        prior = self._records.pop(tr.job_id, None)
        if prior is not None:
            self._idle_remove(prior)
        completion = prior.completion if prior is not None else self.env.event()
        if tr.kind == SNAPSHOT:
            record = tr.state.detached(completion)
        else:
            profile = tr.profile
            sharing, memory_aware = tr.flags
            record = JobRecord(
                job_id=tr.job_id,
                ad=job_ad(profile, sharing=sharing, memory_aware=memory_aware),
                profile=profile,
                seq=tr.seq,
                completion=completion,
                fifo_key=(profile.submit_time, tr.seq),
            )
            record.base_requirements = record.ad.get_expr("Requirements")
        self._records[tr.job_id] = record
        self._seq = max(self._seq, record.seq)
        if record.status == IDLE:
            self._idle_insert(record)
        if record.status in (COMPLETED, FAILED):
            _settle(record)
        else:
            self._unfinished += 1

    def _idle_insert(self, record: JobRecord) -> None:
        if offer_plan(record) is not None:
            self._offered.insert(record)
        else:
            self._parked.insert(record)

    def _idle_remove(self, record: JobRecord) -> None:
        """Drop ``record`` (by identity) from its idle queue, if there."""
        if not self._offered.remove(record):
            self._parked.remove(record)

    # -- draining -----------------------------------------------------------

    def _check_all_done(self) -> None:
        if self._all_done is not None and self.unfinished_jobs == 0:
            if not self._all_done.triggered:
                self._all_done.succeed(self.env.now)

    def all_done(self) -> Event:
        """Event triggering when the queue fully drains (for makespan)."""
        if self._all_done is None:
            self._all_done = self.env.event()
            if self._records and self.unfinished_jobs == 0:
                self._all_done.succeed(self.env.now)
        return self._all_done

    def makespan(self) -> float:
        """Completion time of the last job (the paper's makespan)."""
        ends = [r.result.end for r in self._records.values() if r.result]
        return max(ends, default=0.0)

    def __repr__(self) -> str:
        return (
            f"<Schedd jobs={self.total_jobs} idle={self.idle_jobs} "
            f"running={len(self.running())} completed={len(self.completed())}>"
        )
