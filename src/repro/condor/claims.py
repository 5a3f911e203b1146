"""HTCondor-style claim leases over the message fabric.

In direct mode the negotiator calls ``startd.start_job`` and the starter
calls ``schedd.mark_completed`` — perfectly reliable Python calls. Under
the fabric every daemon interaction becomes a message that can be lost,
delayed, duplicated, or partitioned away, and the glue in this module
keeps the cluster's state consistent anyway:

* :class:`ScheddClaimManager` — the schedd's side: accepts match
  notifications (IDLE → MATCHED), activates claims on startds, opens a
  claim when the job-started report arrives, renews the lease
  periodically, and declares the claim lost when renewals go
  unacknowledged for too long (requeueing the job through the existing
  ``RetryPolicy``/BACKOFF path).
* :class:`StartdClaimAgent` — the startd's side: validates and launches
  claims, extends the lease on each renewal, and *kills the run* when
  the lease expires — a partitioned schedd cannot hold a slot forever.
* :class:`CollectorAgent` — routes periodic machine-updates (which
  double as heartbeats) and the negotiator's snapshot requests.

Why no run can overlap its own retry (the no-double-run argument):

1. The startd-side lease expires at the *send* time of the last renewal
   it received, plus ``lease_duration_s`` — receiving a message proves
   the sender was alive at send time, nothing later.
2. The schedd stops sending renewals once they go unacknowledged for a
   full lease duration, then waits out ``last_send + lease_duration_s``
   (plus slack) before declaring the claim lost. Any renewal the startd
   might still receive was sent at or before ``last_send``, so its lease
   expires — and the watchdog kills the run — strictly before the schedd
   requeues the job.
3. An orphaned claim-activation (the schedd timed the match out before
   the startd saw it) is bounded the same way: its lease starts at the
   activation's send time, which is also when the schedd's match timer
   started, and ``match_timeout_s > lease_duration_s`` is enforced by
   :class:`~repro.net.profile.NetProfile`. Activations that arrive
   already past their lease are dropped on the floor.

Stale messages — reports from a match the schedd has since abandoned —
carry an outdated claim token and are rejected; a stale job-started
additionally triggers a best-effort claim-release so the orphan run is
reaped early rather than waiting for its lease.

Both agents publish their job events (claim and lease opens, closes,
renewals and expiries, stale messages) through :meth:`Schedd.publish`
for the job observer (:mod:`repro.condor.observe`); a claim that never
activates is an ``unmatch`` with its cause, a lost one the ``fail``
transition with status ``claim-lost``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults.errors import CLAIM_LOST, ClaimReleased, LeaseExpired
from ..mpss.runtime import JobRunResult
from ..net.fabric import (
    COLLECTOR,
    NEGOTIATOR,
    SCHEDD,
    Message,
    MessageFabric,
    startd_endpoint,
)
from ..net.profile import NetProfile
from ..sim import Environment
from ..sim.events import URGENT
from .collector import Collector
from .schedd import (
    CLAIM_CLOSE,
    CLAIM_OPEN,
    CLAIM_REJECTED,
    IDLE,
    LEASE_CLOSE,
    LEASE_EXPIRY,
    LEASE_OPEN,
    LEASE_RENEW,
    MATCH_TIMEOUT,
    MATCHED,
    RUNNING,
    STALE,
    JobRecord,
    Schedd,
    Transition,
)
from .startd import Startd

#: Fabric message kinds, one namespace for the whole daemon protocol.
MSG_MATCH = "match"
MSG_RESCHEDULE = "reschedule"
MSG_CLAIM_ACTIVATE = "claim-activate"
MSG_CLAIM_REJECT = "claim-reject"
MSG_CLAIM_RELEASE = "claim-release"
MSG_JOB_STARTED = "job-started"
MSG_JOB_DONE = "job-done"
MSG_LEASE_RENEW = "lease-renew"
MSG_MACHINE_UPDATE = "machine-update"
MSG_SNAPSHOT_REQUEST = "snapshot-request"
MSG_SNAPSHOT_RESPONSE = "snapshot-response"


@dataclass
class Lease:
    """Startd-side lease state for one active claim."""

    job_id: str
    token: int
    expires_at: float
    closed: bool = False


@dataclass
class _Claim:
    """Schedd-side state for one activated claim."""

    job_id: str
    node: str
    token: int
    opened_at: float
    #: Send time of the newest renewal (or job-started) the startd has
    #: acknowledged — proof the startd heard from us at that instant.
    last_acked_send: float
    #: Send time of the newest renewal we have *dispatched*.
    last_sent: float
    closed: bool = False


class ScheddClaimManager:
    """The schedd's half of the match/claim/lease protocol."""

    def __init__(
        self,
        env: Environment,
        schedd: Schedd,
        fabric: MessageFabric,
        profile: NetProfile,
    ) -> None:
        self.env = env
        self.schedd = schedd
        self.fabric = fabric
        self.profile = profile
        self._claims: dict[int, _Claim] = {}
        self.claims_lost = 0
        self.claims_rejected = 0
        self.match_timeouts = 0
        self.stale_messages = 0
        fabric.register(SCHEDD, MSG_MATCH, self._on_match)
        fabric.register(SCHEDD, MSG_CLAIM_REJECT, self._on_reject)
        fabric.register(SCHEDD, MSG_JOB_STARTED, self._on_started)
        fabric.register(SCHEDD, MSG_JOB_DONE, self._on_done)

    # -- inbound handlers -------------------------------------------------

    def _on_match(self, msg: Message) -> None:
        payload = msg.payload
        job_id = payload["job_id"]
        token = payload["token"]
        record = self.schedd.get(job_id)
        if record.status != IDLE:
            # The job was matched elsewhere (or finished) while this
            # notification was in flight.
            self._stale("match", job_id)
            return
        self.schedd.mark_matched(job_id, token)
        self.fabric.send(
            SCHEDD,
            startd_endpoint(payload["node"]),
            MSG_CLAIM_ACTIVATE,
            {
                "job_id": job_id,
                "token": token,
                "device": payload["device"],
                "exclusive": payload["exclusive"],
            },
        )
        self._watch_match(record, token, self.env.now + self.profile.match_timeout_s)

    def _on_reject(self, msg: Message) -> None:
        payload = msg.payload
        job_id = payload["job_id"]
        record = self.schedd.get(job_id)
        if record.status == MATCHED and record.claim_token == payload["token"]:
            self.claims_rejected += 1
            self.schedd.unmatch(job_id, cause=CLAIM_REJECTED)
        else:
            self._stale("claim-reject", job_id)

    def _on_started(self, msg: Message) -> None:
        payload = msg.payload
        job_id = payload["job_id"]
        token = payload["token"]
        record = self.schedd.get(job_id)
        if record.status == MATCHED and record.claim_token == token:
            claim = _Claim(
                job_id=job_id,
                node=payload["node"],
                token=token,
                opened_at=self.env.now,
                last_acked_send=msg.send_time,
                last_sent=msg.send_time,
            )
            self._claims[token] = claim
            self._publish(CLAIM_OPEN, claim)
            self.schedd.mark_running(job_id, payload["node"], payload["device"])
            self._renew_later(record, claim)
        else:
            # An orphan run from a match we abandoned: reap it early.
            self._stale("job-started", job_id)
            self.fabric.send(
                SCHEDD,
                msg.src,
                MSG_CLAIM_RELEASE,
                {"job_id": job_id, "token": token},
            )

    def _on_done(self, msg: Message) -> None:
        payload = msg.payload
        job_id = payload["job_id"]
        token = payload["token"]
        record = self.schedd.get(job_id)
        claim = self._claims.get(token)
        if (
            claim is None
            or claim.closed
            or record.claim_token != token
            or record.status != RUNNING
        ):
            # Late report from a claim already declared lost (the run's
            # real outcome was superseded by the requeue).
            self._stale("job-done", job_id)
            return
        self._close_claim(claim)
        result: JobRunResult = payload["result"]
        if payload["failed"]:
            self.schedd.mark_failed(job_id, result)
        else:
            self.schedd.mark_completed(job_id, result)

    # -- timers -----------------------------------------------------------

    def _watch_match(self, record: JobRecord, token: int, deadline: float) -> None:
        """Revert the match at ``deadline`` unless its claim opened.

        A deadline already past fires in an URGENT slot of this instant.
        """
        env = self.env
        if deadline > env.now:
            timer = env.timeout(deadline - env.now)
        else:
            timer = env.timeout_at(env.now, priority=URGENT)
        timer.callbacks.append(lambda _event: self._match_expired(record, token))

    def _match_expired(self, record: JobRecord, token: int) -> None:
        if self.schedd._records.get(record.job_id) is not record:
            # Stale closure: a crash–recovery replay replaced this record
            # object and restarted its own watchdog against the journal.
            return
        if record.status == MATCHED and record.claim_token == token:
            self.match_timeouts += 1
            self.schedd.unmatch(record.job_id, cause=MATCH_TIMEOUT)

    def _renew_later(self, record: JobRecord, claim: _Claim) -> None:
        self.env.timeout(self.profile.renew_interval_s).callbacks.append(
            lambda _event: self._renew(record, claim)
        )

    def _renew(self, record: JobRecord, claim: _Claim) -> None:
        """One renewal tick: renew the lease, or stop and drain."""
        if claim.closed:
            return
        env = self.env
        profile = self.profile
        # Tolerate one full lease of silence before giving up — the
        # startd-side lease is still live for that long after its last
        # acknowledged renewal, so stopping earlier would waste claims.
        if env.now - claim.last_acked_send > profile.lease_duration_s:
            # Stop-then-drain: no renewal will be sent after
            # ``last_sent``, so the startd's lease — extended at most to
            # the send time of a renewal, never its delivery time —
            # expires by ``last_sent + lease_duration_s``. Waiting past
            # that (plus one renew interval of slack for the kill to
            # unwind) guarantees the old run is dead before the job is
            # requeued: no double-run.
            deadline = (
                claim.last_sent
                + profile.lease_duration_s
                + profile.renew_interval_s
            )
            if deadline > env.now:
                env.timeout(deadline - env.now).callbacks.append(
                    lambda _event: self._drained(record, claim)
                )
            else:
                self._drained(record, claim)
            return
        claim.last_sent = env.now

        def acked(msg: Message) -> None:
            if msg.send_time > claim.last_acked_send:
                claim.last_acked_send = msg.send_time

        self.fabric.send(
            SCHEDD,
            startd_endpoint(claim.node),
            MSG_LEASE_RENEW,
            {"job_id": claim.job_id, "token": claim.token},
            on_delivered=acked,
        )
        self._publish(LEASE_RENEW, claim)
        self._renew_later(record, claim)

    def _drained(self, record: JobRecord, claim: _Claim) -> None:
        if claim.closed:
            return  # the job-done report made it through after all
        self._declare_lost(record, claim)

    def _declare_lost(self, record: JobRecord, claim: _Claim) -> None:
        self.claims_lost += 1
        self._close_claim(claim)
        lost = JobRunResult(
            job_id=claim.job_id,
            start=claim.opened_at,
            end=self.env.now,
            status=CLAIM_LOST,
            offloads_run=0,
            attempt=record.attempts,
        )
        self.schedd.mark_failed(claim.job_id, lost)
        # Best-effort release so a run that is somehow still alive (it
        # cannot be — see the module docstring — but belt and braces for
        # the auditor) is reaped when the network heals.
        self.fabric.send(
            SCHEDD,
            startd_endpoint(claim.node),
            MSG_CLAIM_RELEASE,
            {"job_id": claim.job_id, "token": claim.token},
        )

    # -- crash–recovery ---------------------------------------------------

    def crash(self) -> None:
        """Drop all claim state: the daemon holding it just died.

        Pending renewal and match timers still fire and find their claim
        closed or their record replaced, so they do nothing; no
        per-claim audit events fire — the auditor's ``schedd_crashed``
        wipes the claim ledger wholesale.
        """
        for claim in list(self._claims.values()):
            claim.closed = True
        self._claims.clear()

    def readopt(self, record: JobRecord) -> None:
        """Re-adopt a replayed RUNNING job under its journaled claim token.

        Rebuilds the schedd-side claim entry and restarts its renewal
        timer. The lease clock restarts at the recovery instant: if the
        startd is healthy the next renewal re-establishes the lease; if
        it is gone, the stop-then-drain path declares the claim lost and
        the job flows into the normal retry/backoff path.
        """
        now = self.env.now
        claim = _Claim(
            job_id=record.job_id,
            node=record.matched_node,
            token=record.claim_token,
            opened_at=now,
            last_acked_send=now,
            last_sent=now,
        )
        self._claims[claim.token] = claim
        self._publish(CLAIM_OPEN, claim)
        self._renew_later(record, claim)

    def restart_watchdog(self, record: JobRecord, deadline: float) -> None:
        """Restore a MATCHED job's watchdog against its original deadline.

        An already-expired deadline fires the watchdog immediately: any
        claim the lost activation might have opened is itself past its
        lease by then (``match_timeout_s > lease_duration_s``), so the
        re-offer cannot overlap a live run.
        """
        self._watch_match(record, record.claim_token, deadline)

    # -- internals --------------------------------------------------------

    def _close_claim(self, claim: _Claim) -> None:
        claim.closed = True
        self._claims.pop(claim.token, None)
        self._publish(CLAIM_CLOSE, claim)

    def _publish(self, kind: str, claim: _Claim) -> None:
        self.schedd.publish(
            Transition(kind, claim.job_id, self.env.now, token=claim.token)
        )

    def _stale(self, kind: str, job_id: str) -> None:
        self.stale_messages += 1
        self.schedd.publish(Transition(STALE, job_id, self.env.now, cause=kind))

    @property
    def open_claims(self) -> int:
        return len(self._claims)


class StartdClaimAgent:
    """The startd's half: validate claims, lease the run, kill on expiry."""

    def __init__(
        self,
        env: Environment,
        startd: Startd,
        fabric: MessageFabric,
        profile: NetProfile,
    ) -> None:
        self.env = env
        self.startd = startd
        self.fabric = fabric
        self.profile = profile
        self.endpoint = startd_endpoint(startd.name)
        self._leases: dict[int, Lease] = {}
        self.lease_expiries = 0
        self.claims_rejected = 0
        self.stale_messages = 0
        startd.claim_agent = self
        fabric.register(self.endpoint, MSG_CLAIM_ACTIVATE, self._on_activate)
        fabric.register(self.endpoint, MSG_LEASE_RENEW, self._on_renew)
        fabric.register(self.endpoint, MSG_CLAIM_RELEASE, self._on_release)

    # -- inbound handlers -------------------------------------------------

    def _on_activate(self, msg: Message) -> None:
        payload = msg.payload
        job_id = payload["job_id"]
        token = payload["token"]
        expires_at = msg.send_time + self.profile.lease_duration_s
        if expires_at <= self.env.now:
            # The activation spent longer in flight than a whole lease:
            # the schedd's match timer has already reverted the job
            # (match_timeout_s > lease_duration_s), so starting now
            # would create exactly the orphan the lease bounds.
            self.stale_messages += 1
            return
        # Simulation shortcut: the activation would carry the job ad;
        # we look the (static) record up in the shared schedd table.
        record = self.startd.schedd.get(job_id)
        reason = self.startd.claim_error(
            record, payload["device"], payload["exclusive"]
        )
        if reason is not None:
            self.claims_rejected += 1
            self.fabric.send(
                self.endpoint,
                SCHEDD,
                MSG_CLAIM_REJECT,
                {"job_id": job_id, "token": token, "reason": reason},
            )
            return
        lease = Lease(job_id=job_id, token=token, expires_at=expires_at)
        self._leases[token] = lease
        self._publish(LEASE_OPEN, lease)
        self.startd.start_claimed(
            record, payload["device"], payload["exclusive"], lease
        )
        self.fabric.send(
            self.endpoint,
            SCHEDD,
            MSG_JOB_STARTED,
            {
                "job_id": job_id,
                "token": token,
                "node": self.startd.name,
                "device": payload["device"],
            },
        )
        self._watch(lease)

    def _on_renew(self, msg: Message) -> None:
        lease = self._leases.get(msg.payload["token"])
        if lease is None or lease.closed:
            self.stale_messages += 1
            return
        extended = msg.send_time + self.profile.lease_duration_s
        if extended > lease.expires_at:
            lease.expires_at = extended

    def _on_release(self, msg: Message) -> None:
        lease = self._leases.get(msg.payload["token"])
        if lease is None or lease.closed:
            return  # already over — release is idempotent
        self.startd.interrupt_job(
            lease.job_id, ClaimReleased(lease.job_id, self.startd.name)
        )

    # -- outbound reporting (called by the starter) -----------------------

    def report_done(
        self,
        record: JobRecord,
        result: JobRunResult,
        failed: bool,
        lease: Lease,
    ) -> None:
        """Close the lease and send the run's outcome to the schedd."""
        lease.closed = True
        self._leases.pop(lease.token, None)
        self._publish(LEASE_CLOSE, lease)
        self.fabric.send(
            self.endpoint,
            SCHEDD,
            MSG_JOB_DONE,
            {
                "job_id": record.job_id,
                "token": lease.token,
                "failed": failed,
                "result": result,
            },
        )

    # -- the lease watchdog -----------------------------------------------

    def _watch(self, lease: Lease) -> None:
        """Sleep until the lease's expiry, again while renewals extend
        it; kill the run when it lapses."""
        if lease.closed:
            return
        env = self.env
        if env.now < lease.expires_at:
            env.timeout(lease.expires_at - env.now).callbacks.append(
                lambda _event: self._watch(lease)
            )
            return
        self.lease_expiries += 1
        self._publish(LEASE_EXPIRY, lease)
        self.startd.interrupt_job(
            lease.job_id, LeaseExpired(lease.job_id, self.startd.name)
        )

    def _publish(self, kind: str, lease: Lease) -> None:
        tr = Transition(
            kind, lease.job_id, self.env.now, node=self.startd.name, token=lease.token
        )
        self.startd.schedd.publish(tr)

    @property
    def open_leases(self) -> int:
        return len(self._leases)


class CollectorAgent:
    """Routes machine-updates and snapshot requests over the fabric."""

    def __init__(
        self,
        env: Environment,
        collector: Collector,
        fabric: MessageFabric,
        profile: NetProfile,
        startds: list[Startd],
    ) -> None:
        self.env = env
        self.collector = collector
        self.fabric = fabric
        self.profile = profile
        self.startds = list(startds)
        collector.enable_store()
        fabric.register(COLLECTOR, MSG_MACHINE_UPDATE, self._on_update)
        fabric.register(COLLECTOR, MSG_SNAPSHOT_REQUEST, self._on_request)
        for startd in startds:
            # Seed the store with the registration-time (birth) ad so
            # the first negotiation cycles don't see an empty pool.
            collector.store_update(startd.snapshot(), env.now)
            self._advertise_later(startd)

    def _advertise_later(self, startd: Startd) -> None:
        self.env.timeout(self.profile.update_interval_s).callbacks.append(
            lambda _event: self._publish_tick(startd)
        )

    def _publish_tick(self, startd: Startd) -> None:
        self._advertise(startd)
        self._advertise_later(startd)

    def _advertise(self, startd: Startd) -> None:
        if not startd.alive:
            return  # a crashed node's daemon publishes nothing
        self.fabric.send(
            startd_endpoint(startd.name),
            COLLECTOR,
            MSG_MACHINE_UPDATE,
            {"snapshot": startd.snapshot()},
        )

    def force_readvertise(self) -> None:
        """Demand an immediate ad from every live startd.

        A restarted collector holds no store: instead of trusting
        whatever the crashed instance knew, every healthy startd
        re-advertises right now (the same ``MSG_MACHINE_UPDATE`` path as
        the periodic publisher), rebuilding the store from live state.
        """
        for startd in self.startds:
            self._advertise(startd)

    def _on_update(self, msg: Message) -> None:
        # The send time is when the node was provably alive — using it
        # (not the delivery time) keeps the staleness clock honest.
        self.collector.store_update(msg.payload["snapshot"], msg.send_time)

    def _on_request(self, msg: Message) -> None:
        snapshots = self.collector.snapshots(self.env.now)
        self.fabric.send(
            COLLECTOR,
            NEGOTIATOR,
            MSG_SNAPSHOT_RESPONSE,
            {"snapshots": snapshots},
        )
