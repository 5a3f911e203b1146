"""Daemon crash–recovery: the schedd's write-ahead log and the supervisor.

HTCondor's daemons survive restarts because the schedd journals every
job-queue transition to disk (the ``job_queue.log``) and replays it at
boot, while the collector and negotiator hold only soft state that is
re-advertised or rebuilt. This module reproduces that architecture on
the simulator's clock:

* :class:`JobQueueLog` — an in-sim write-ahead log, the schedd's first
  subscriber. It journals each published
  :class:`~repro.condor.schedd.Transition` as it is; a checkpoint
  compacts the log to a header plus one snapshot per job. ``replay()``
  feeds the journal back through ``Schedd._apply`` — the function the
  live queue runs — so the rebuilt queue (fresh :class:`JobRecord`
  objects, idle queue, counters, retry accounting) is the same state
  machine's output, with nothing published.
* :class:`DaemonSupervisor` — crashes and restarts the schedd,
  negotiator, and collector. A crash closes the daemon's fabric
  endpoint (in-flight messages keep retransmitting, exactly like a TCP
  peer retrying a dead daemon's port) and drops its volatile state; the
  restart replays/rebuilds and reconciles with the rest of the pool.

Reconciliation (schedd restart) follows the startd-side source of
truth, the claim leases in :mod:`repro.condor.claims`:

* RUNNING jobs are *re-adopted* by claim token: the claim-manager entry
  and its renewal loop are recreated, so a still-healthy run finishes
  under its original claim and a dead one is declared lost through the
  normal lease path into :class:`~repro.condor.schedd.RetryPolicy`.
* MATCHED jobs get their match watchdog back with the *original*
  deadline (journaled match time + ``match_timeout_s``), so a claim
  that never activates is re-offered exactly when it would have been.
* BACKOFF jobs resume the *remaining* backoff (journaled requeue time
  minus now) — attempt accounting is replayed, never reset.

Determinism: the WAL holds plain state (no RNG, no events), appends are
pure bookkeeping, and replay + reconciliation run synchronously at the
restart instant in journal order. A fixed seed therefore reproduces a
crash run byte-for-byte, and a run with recovery enabled but no crash
fires the same kernel events as one with recovery disabled (``wal is
None``, no supervisor).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..faults.schedule import DAEMONS
from ..net.fabric import COLLECTOR, NEGOTIATOR, SCHEDD
from ..obs import audit as _audit
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sim import Environment
from .schedd import (
    BACKOFF,
    CHECKPOINT,
    JOURNALED,
    MATCHED,
    RUNNING,
    SNAPSHOT,
    SUBMIT,
    Schedd,
    Transition,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .pool import CondorPool

__all__ = ["DAEMONS", "DaemonSupervisor", "JobQueueLog"]


class JobQueueLog:
    """Sim-clock write-ahead log for one schedd's job queue.

    Construct before the first submission: the log attaches itself as
    ``schedd.wal`` and subscribes ahead of every other subscriber, so
    each transition is journaled before anyone reacts to it. The log
    auto-compacts once it grows past ``4 ×`` the jobs it has seen, by
    checkpointing: a ``checkpoint`` header carrying the schedd-level
    counters plus one ``snapshot`` record per job.
    """

    def __init__(self, env: Environment, schedd: Schedd) -> None:
        self.env = env
        self.schedd = schedd
        self.records: list[Transition] = []
        #: Total records ever appended (compaction does not reset this).
        self.appended = 0
        #: Records replayed across every recovery of this schedd.
        self.replayed = 0
        self.compactions = 0
        self._jobs_seen = 0
        schedd.wal = self
        schedd.subscribe(self.log_transition, first=True)

    def __len__(self) -> int:
        return len(self.records)

    def log_transition(self, tr: Transition) -> None:
        """Journal one published queue transition."""
        if tr.kind not in JOURNALED:
            return
        if tr.kind == SUBMIT:
            self._jobs_seen += 1
        self.records.append(tr)
        self.appended += 1
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.counter("wal.records").inc()
        if len(self.records) > max(64, 4 * self._jobs_seen):
            self.checkpoint()

    def checkpoint(self) -> None:
        """Compact the journal to the schedd's current state.

        Writes a ``checkpoint`` header (schedd counters) followed by one
        ``snapshot`` record per job — its whole record, qedited
        attributes included — then truncates everything older:
        HTCondor's periodic ``job_queue.log`` compaction.
        """
        schedd = self.schedd
        now = self.env.now
        self.records = [
            Transition(
                CHECKPOINT,
                None,
                now,
                state=(schedd.requeues, schedd.terminal_failures),
            )
        ]
        self.records += [
            Transition(SNAPSHOT, record.job_id, now, state=record.detached())
            for record in schedd.all_records()
        ]
        self.compactions += 1

    def replay(self, schedd: Optional[Schedd] = None) -> int:
        """Rebuild the schedd's queue from the journal; return the record count.

        Every record goes through ``Schedd._apply``, which publishes
        nothing: no subscriber, trace, metric, or audit event fires —
        those already fired when the transition happened. Each rebuilt
        record carries over the pre-crash record's completion event, so
        external waiters still resolve; the ``_all_done`` event object is
        likewise preserved (the pool holds a reference to it).
        """
        schedd = schedd or self.schedd
        # Start from an empty queue; a compacted journal's own header
        # then restores the counters it recorded.
        schedd._apply(Transition(CHECKPOINT, None, self.env.now, state=(0, 0)))
        for tr in self.records:
            schedd._apply(tr)
        schedd._check_all_done()
        self.replayed += len(self.records)
        return len(self.records)


class DaemonSupervisor:
    """Crashes and restarts the pool's central daemons, deterministically.

    The fault injector routes ``daemon-crash`` events here. A crash
    *always* schedules its own restart (after the profile's
    ``daemon_downtime_s``) before any other effect — the structural
    sibling of the injector's last-healthy-device guard: no fault
    profile can leave the pool permanently headless.
    """

    def __init__(self, env: Environment, pool: "CondorPool") -> None:
        if pool.fabric is None:
            raise ValueError(
                "daemon crash-recovery requires the message fabric "
                "(construct the pool with a NetProfile)"
            )
        self.env = env
        self.pool = pool
        self._down: set[str] = set()
        #: Every crash as ``(time, daemon)``, in injection order.
        self.crash_log: list[tuple[float, str]] = []
        self.crashes = 0
        #: Completed schedd WAL replays (collector/negotiator restarts
        #: rebuild soft state and are not counted here).
        self.recoveries = 0
        self.records_replayed = 0
        #: RUNNING jobs re-adopted against a still-open startd lease.
        self.jobs_readopted = 0

    def is_up(self, daemon: str) -> bool:
        return daemon not in self._down

    def crash_daemon(self, daemon: str, downtime_s: float) -> None:
        """Crash ``daemon`` now; its restart lands after ``downtime_s``."""
        if daemon not in DAEMONS:
            raise ValueError(f"unknown daemon {daemon!r}")
        if daemon in self._down:
            raise ValueError(f"daemon {daemon!r} is already down")
        if downtime_s <= 0:
            raise ValueError("downtime_s must be positive")
        self._down.add(daemon)
        self.crashes += 1
        self.crash_log.append((self.env.now, daemon))
        # Headless-pool guard: the restart is committed before the crash
        # takes effect, so a crashed daemon can never stay down forever.
        self.env.process(
            self._restart_later(daemon, downtime_s), name=f"restart:{daemon}"
        )
        if daemon == "schedd":
            self._crash_schedd()
        elif daemon == "negotiator":
            self.pool.negotiator.crash()
        else:
            self._crash_collector()

    def _restart_later(self, daemon: str, downtime_s: float):
        yield self.env.timeout(downtime_s)
        self._down.discard(daemon)
        if daemon == "schedd":
            self._restore_schedd()
        elif daemon == "negotiator":
            self.pool.negotiator.restore()
        else:
            self._restore_collector()
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.instant(
                f"{daemon}-restarted",
                "recovery",
                self.env.now,
                tid=_trace.FAULTS_TID,
            )

    # -- schedd ------------------------------------------------------------

    def _crash_schedd(self) -> None:
        pool = self.pool
        pool.schedd.down = True
        pool.fabric.set_down(SCHEDD)
        pool.claims.crash()
        auditor = _audit.ACTIVE
        if auditor is not None:
            auditor.schedd_crashed(self.env.now)

    def _restore_schedd(self) -> None:
        pool = self.pool
        schedd = pool.schedd
        assert schedd.wal is not None, "schedd restarted without a WAL"
        replayed = schedd.wal.replay(schedd)
        self.records_replayed += replayed
        readopted = self._reconcile()
        self.jobs_readopted += readopted
        # The compaction a real schedd performs right after a successful
        # replay: the rebuilt queue state is the new journal base.
        schedd.wal.checkpoint()
        # The daemon is up again *before* subscribers resync: they (e.g.
        # the knapsack scheduler's full resync) may issue qedits and
        # schedule repacks, both of which no-op against a down schedd.
        schedd.down = False
        schedd.mark_recovered()
        self.recoveries += 1
        pool.fabric.set_up(SCHEDD)
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.counter("schedd.recoveries").inc()
            registry.counter("wal.replayed").inc(replayed)
            registry.counter("jobs.readopted").inc(readopted)

    def _reconcile(self) -> int:
        """Reconcile replayed records with startd-side lease state.

        Walks the rebuilt queue in FIFO order (deterministic) and hands
        each in-flight job back to the claim machinery; returns how many
        RUNNING jobs were re-adopted against a live lease.
        """
        pool, env = self.pool, self.env
        schedd = pool.schedd
        claims = pool.claims
        profile = claims.profile
        readopted = 0
        for record in schedd.all_records():
            if record.status == RUNNING:
                agent = pool.agents[record.matched_node]
                lease = agent._leases.get(record.claim_token)
                live = (
                    lease is not None
                    and not lease.closed
                    and agent.startd.alive
                )
                # Recreate the claim either way: a closed lease means the
                # startd's job-done report is already in flight (the
                # transport retransmits until the schedd acks), and that
                # report must find its claim to land. A dead node's claim
                # is declared lost by the recreated renewal loop and the
                # job flows into the normal retry path.
                claims.readopt(record)
                if live:
                    readopted += 1
            elif record.status == MATCHED:
                deadline = record.matched_at + profile.match_timeout_s
                claims.restart_watchdog(record, deadline)
            elif record.status == BACKOFF:
                delay = max(0.0, record.requeue_at - env.now)
                env.process(
                    schedd._requeue_after(record, delay),
                    name=f"requeue:{record.job_id}",
                )
        return readopted

    # -- collector ---------------------------------------------------------

    def _crash_collector(self) -> None:
        self.pool.collector.crash_reset()
        self.pool.fabric.set_down(COLLECTOR)

    def _restore_collector(self) -> None:
        self.pool.fabric.set_up(COLLECTOR)
        # Stateless recovery: demand a fresh ad from every live startd
        # instead of restoring the stale store.
        self.pool.collector_agent.force_readvertise()
