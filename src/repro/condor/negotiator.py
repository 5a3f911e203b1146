"""The negotiator: periodic FIFO matchmaking between jobs and machines.

Every ``cycle_interval`` simulated seconds the negotiator takes a lazy
view of the pool (:class:`~repro.condor.collector.LiveCycleView`), walks
the pending queue in FIFO order (§II-D), and matches each job against
the nodes using symmetric ClassAd matchmaking. The walk reads only the
jobs whose Requirements can match; the schedd keeps the parked ones
apart, and the cycle counts them without reading them. Resources are
deducted from the snapshots the view builds as matches are made, so one
cycle can fill many slots consistently.

Placement *within* the matched set is a policy object — this is where the
paper's three configurations differ at the cluster level:

* :class:`ExclusivePlacement` (MC): a job takes a whole free coprocessor.
* :class:`RandomPlacement` (MCC): "jobs are selected randomly at the
  cluster level: they are packed arbitrarily" — any node with a free host
  slot, chosen uniformly at random; COSMIC makes it safe at the node.
* :class:`PinnedPlacement` (MCCK): jobs arrive pre-pinned by the external
  knapsack scheduler (via qedit); the negotiator merely honours the pins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..net.fabric import COLLECTOR as NET_COLLECTOR
from ..net.fabric import NEGOTIATOR as NET_NEGOTIATOR
from ..net.fabric import SCHEDD as NET_SCHEDD
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sim import Environment
from ..sim import profile as _profile
from .ads import DeviceSnapshot, MachineSnapshot
from .classad import matcher, symmetric_match
from .collector import AMBIGUOUS_NAME, Collector, LiveCycleView
from .schedd import (
    COMPLETE,
    IDLE,
    NEGOTIATED,
    JobRecord,
    Schedd,
    Transition,
    offer_plan,
)


@dataclass
class CycleStats:
    """Accounting for one negotiation cycle.

    ``parked + prefiltered + examined`` partitions the pending jobs the
    cycle accounted for, in FIFO order, before resources ran out:
    *parked* jobs have statically unmatchable Requirements (the external
    scheduler's ``false`` rewrite, or none at all), *prefiltered* jobs
    failed the policy's cheap necessary condition, and *examined* jobs
    went through full matchmaking — of which ``matched`` succeeded.
    The cycle walks only the offered jobs; ``parked`` counts the
    schedd's parked queue by bisection (plus any job parked while the
    walk ran, as the walk meets it), so it reads as if every idle job
    had been walked.
    """

    parked: int = 0
    prefiltered: int = 0
    examined: int = 0
    matched: int = 0
    #: Fabric mode only: idle jobs skipped because a match notification
    #: for them is still in flight (extends the partition above).
    in_flight: int = 0
    #: Machines probed with symmetric ClassAd matchmaking.
    evals: int = 0
    #: Examined jobs routed through the collector's name index (O(1)).
    pin_routed: int = 0
    #: Examined jobs that scanned every free-slot candidate machine.
    full_scans: int = 0


class PlacementPolicy:
    """Chooses a (node, device, exclusive) among the matched snapshots."""

    #: Whether jobs submitted under this policy may share coprocessors.
    sharing = True
    #: Whether submit ads require advertised free device memory.
    memory_aware = True

    def exhausted(self, view: LiveCycleView) -> bool:
        """True when no pending job could possibly be placed this cycle."""
        return not view.any_free_slot()

    def place(
        self,
        record: JobRecord,
        candidates: list[MachineSnapshot],
    ) -> Optional[tuple[MachineSnapshot, Optional[int], bool]]:
        raise NotImplementedError

    def prefilter(self, record: JobRecord, view: LiveCycleView) -> bool:
        """Cheap necessary condition before full ClassAd matchmaking.

        The analogue of Condor's autocluster optimization: skip jobs that
        cannot possibly match this cycle without paying for expression
        evaluation against every machine. ``view`` is the cycle's lazy
        view; a policy that reads ``view.candidates()`` builds every
        free node's snapshot, so this default reads nothing.
        """
        return True

    def deduct(
        self,
        snapshot: MachineSnapshot,
        device_index: Optional[int],
        exclusive: bool,
        declared_mb: float,
    ) -> None:
        """Update the cycle snapshot after a successful match."""
        snapshot.free_slots -= 1
        if device_index is None:
            return
        for device in snapshot.devices:
            if device.index == device_index:
                if exclusive:
                    device.claimed_exclusive = True
                else:
                    device.resident_jobs += 1
                    device.free_declared_mb = max(
                        0.0, device.free_declared_mb - declared_mb
                    )
                return


class ExclusivePlacement(PlacementPolicy):
    """MC baseline: dedicate one whole coprocessor per job (first fit)."""

    sharing = False

    def exhausted(self, view: LiveCycleView) -> bool:
        return not any(
            s.free_slots > 0 and s.first_free_device() is not None
            for s in view.candidates()
        )

    def place(self, record, candidates):
        for snapshot in candidates:
            if snapshot.free_slots <= 0:
                continue
            device = snapshot.first_free_device()
            if device is not None:
                return snapshot, device.index, True
        return None


def _fits(device: DeviceSnapshot, declared: float, memory_aware: bool) -> bool:
    """Whether a shared job declaring ``declared`` MB may go to ``device``:
    the card is up and not claimed exclusively, and when placement is
    memory-aware, its free declared memory covers the declaration."""
    return (
        not device.claimed_exclusive
        and not device.failed
        and (not memory_aware or device.free_declared_mb >= declared)
    )


def _can_host(
    snapshot: MachineSnapshot, declared: float, memory_aware: bool
) -> bool:
    """Whether ``snapshot`` has a free slot and a device that fits."""
    if snapshot.free_slots <= 0:
        return False
    for device in snapshot.devices:
        if _fits(device, declared, memory_aware):
            return True
    return False


class RandomPlacement(PlacementPolicy):
    """MCC: uniform-random node among those that can hold the job.

    "Jobs are selected randomly at the cluster level: they are packed
    arbitrarily to Xeon Phi coprocessors" (§V) — but Condor still tracks
    the advertised free device memory, so a candidate needs a device with
    enough unreserved declared memory and a free host slot.
    """

    def __init__(self, rng: random.Random, memory_aware: bool = False) -> None:
        self.rng = rng
        self.memory_aware = memory_aware

    def place(self, record, candidates):
        declared = record.profile.declared_memory_mb
        aware = self.memory_aware
        viable = [s for s in candidates if _can_host(s, declared, aware)]
        if not viable:
            return None
        # Only the chosen node's devices are listed: the same two draws
        # over the same lists as listing every viable node's.
        snapshot = self.rng.choice(viable)
        fitting = [d for d in snapshot.devices if _fits(d, declared, aware)]
        device = self.rng.choice(fitting)
        return snapshot, device.index, False

    def prefilter(self, record, view):
        declared = record.profile.declared_memory_mb
        aware = self.memory_aware
        return any(_can_host(s, declared, aware) for s in view.candidates())


class BestFitPlacement(PlacementPolicy):
    """A stronger memory-aware heuristic than random: best fit.

    Not in the paper — used as an extra ablation baseline between MCC's
    random placement and MCCK's knapsack: place each job on the device
    whose free declared memory leaves the *least* slack, tightening the
    packing without any look-ahead over the pending set.
    """

    def place(self, record, candidates):
        declared = record.profile.declared_memory_mb
        best = None
        for snapshot in candidates:
            if snapshot.free_slots <= 0:
                continue
            for device in snapshot.devices:
                if not _fits(device, declared, True):
                    continue
                slack = device.free_declared_mb - declared
                if best is None or slack < best[0]:
                    best = (slack, snapshot, device)
        if best is None:
            return None
        _slack, snapshot, device = best
        return snapshot, device.index, False

    def prefilter(self, record, view):
        declared = record.profile.declared_memory_mb
        return any(_can_host(s, declared, True) for s in view.candidates())


class PinnedPlacement(PlacementPolicy):
    """MCCK: honour the external scheduler's node/device pins.

    A pinned job's Requirements only match its assigned node, so the
    candidate list is that node (or empty). The device comes from the
    ``AssignedPhiDevice`` attribute written alongside the pin.
    """

    def place(self, record, candidates):
        device_attr = record.ad.evaluate("AssignedPhiDevice")
        device_index = int(device_attr) if isinstance(device_attr, (int, float)) else 0
        for snapshot in candidates:
            if snapshot.free_slots <= 0:
                continue
            device = next(
                (d for d in snapshot.devices if d.index == device_index), None
            )
            if device is not None and device.failed:
                # The pinned card is down; the external scheduler will
                # re-pack the job, so don't dispatch it into a failure.
                continue
            return snapshot, device_index, False
        return None


class Negotiator:
    """Runs negotiation cycles as a simulation process."""

    def __init__(
        self,
        env: Environment,
        schedd: Schedd,
        collector: Collector,
        policy: PlacementPolicy,
        cycle_interval: float = 15.0,
        reschedule_on_completion: bool = False,
        reschedule_delay: float = 1.0,
        fabric=None,
    ) -> None:
        """``reschedule_on_completion`` models ``condor_reschedule``: a
        job completion prompts an extra negotiation cycle after
        ``reschedule_delay`` seconds instead of waiting for the periodic
        timer — the knob that shrinks the integration latency the paper
        blames for MCCK's overhead on unfavourable distributions.

        With a ``fabric`` (:class:`repro.net.fabric.MessageFabric`), the
        negotiator stops touching the collector and startds directly: it
        negotiates over the last snapshot-response it received (in the
        same lazy cycle view as direct mode), sends match notifications
        to the schedd, and requests a fresh snapshot each cycle — its
        view of the pool is as stale as the network makes it."""
        if cycle_interval <= 0:
            raise ValueError("cycle_interval must be positive")
        if reschedule_delay < 0:
            raise ValueError("reschedule_delay must be non-negative")
        self.env = env
        self.schedd = schedd
        self.collector = collector
        self.policy = policy
        self.cycle_interval = cycle_interval
        self.reschedule_on_completion = reschedule_on_completion
        self.reschedule_delay = reschedule_delay
        self._fabric = fabric
        #: Fabric mode: jobs whose match notification is not yet
        #: acknowledged (job_id -> token); skipped when re-offering.
        self._inflight: dict[str, int] = {}
        #: Fabric mode: the latest snapshot-response, as a cycle view.
        self._response = LiveCycleView.of_ads(collector, [])
        self._next_token = 1
        self._resched_msg_pending = False
        self.cycles_run = 0
        self.matches_made = 0
        #: Accounting for the most recent cycle (None before the first).
        self.last_cycle: Optional[CycleStats] = None
        self._proc = None
        self._reschedule_pending = False
        #: True while the daemon is crashed: cycles are skipped (and not
        #: counted) until the restart.
        self.down = False

    def start(self) -> None:
        """Begin periodic negotiation (call once, before env.run)."""
        if self._proc is not None:
            raise RuntimeError("negotiator already started")
        if self._fabric is not None:
            from .claims import MSG_RESCHEDULE, MSG_SNAPSHOT_RESPONSE

            self._fabric.register(
                NET_NEGOTIATOR, MSG_SNAPSHOT_RESPONSE, self._on_snapshot_response
            )
            if self.reschedule_on_completion:
                self._fabric.register(
                    NET_NEGOTIATOR, MSG_RESCHEDULE, self._on_reschedule_msg
                )
            self._request_snapshots()
        self._proc = self.env.process(self._loop(), name="negotiator")
        if self.reschedule_on_completion:
            self.schedd.subscribe(self._on_completion)

    def _on_completion(self, tr: Transition) -> None:
        if tr.kind != COMPLETE:
            return
        if self._fabric is not None:
            # The subscriber fires at the schedd; condor_reschedule is a
            # message to the negotiator, not a local call.
            if self._resched_msg_pending:
                return
            self._resched_msg_pending = True
            from .claims import MSG_RESCHEDULE

            self._fabric.send(NET_SCHEDD, NET_NEGOTIATOR, MSG_RESCHEDULE, {})
            return
        if self._reschedule_pending:
            return
        self._reschedule_pending = True
        self.env.process(self._reschedule(), name="negotiator-reschedule")

    def _on_reschedule_msg(self, _msg) -> None:
        self._resched_msg_pending = False
        if self._reschedule_pending:
            return
        self._reschedule_pending = True
        self.env.process(self._reschedule(), name="negotiator-reschedule")

    def _on_snapshot_response(self, msg) -> None:
        self._response = LiveCycleView.of_ads(
            self.collector, msg.payload["snapshots"]
        )

    def _request_snapshots(self) -> None:
        from .claims import MSG_SNAPSHOT_REQUEST

        self._fabric.send(NET_NEGOTIATOR, NET_COLLECTOR, MSG_SNAPSHOT_REQUEST, {})

    def _match_delivered(self, msg) -> None:
        self._inflight.pop(msg.payload["job_id"], None)

    def _reschedule(self):
        if self.reschedule_delay > 0:
            yield self.env.timeout(self.reschedule_delay)
        else:
            yield self.env.timeout(0)
        self._reschedule_pending = False
        self.negotiate_once()

    def _loop(self):
        while True:
            self.negotiate_once()
            yield self.env.timeout(self.cycle_interval)

    def crash(self) -> None:
        """Drop all soft state: the daemon just died.

        The machine view and in-flight bookkeeping are rebuilt from
        scratch after the restart; ``_next_token`` survives — it models
        the claim-id sequence, and reusing a token would alias a dead
        match's claim onto a live one.
        """
        self.down = True
        self._response = LiveCycleView.of_ads(self.collector, [])
        self._inflight.clear()
        if self._fabric is not None:
            self._fabric.set_down(NET_NEGOTIATOR)

    def restore(self) -> None:
        """Restart cold: reopen the endpoint and ask for a fresh view.

        The periodic loop never stopped ticking; until the snapshot
        response lands, cycles negotiate over an empty view.
        """
        self.down = False
        if self._fabric is not None:
            self._fabric.set_up(NET_NEGOTIATOR)
            self._request_snapshots()

    def negotiate_once(self) -> int:
        """One negotiation cycle; returns the number of matches made."""
        if self.down or self.schedd.down:
            # Crash–recovery: a dead negotiator runs no cycle, and a dead
            # schedd cannot be asked for its queue. Skipped cycles are
            # not counted — the daemon wasn't there to run them.
            return 0
        self.cycles_run += 1
        tracer = _trace.ACTIVE
        registry = _metrics.ACTIVE
        prof = _profile.ACTIVE
        stats = CycleStats()
        # One lazy view in every mode — a cycle's cost scales with the
        # machines it actually probes, not the cluster size.
        if self._fabric is not None:
            # The last snapshot-response that made it through the
            # network (copied on touch: deduction must not corrupt the
            # stored ads); ask for a fresh one for next cycle.
            view = self._response.fresh()
            self._request_snapshots()
        else:
            view = self.collector.live_view(self.env.now)
        # Machine ads are live views over the snapshots: a deduction is
        # visible to the next probe without rebuilding anything.
        # Resources only change on deduction, so exhaustion is
        # recomputed after each match rather than per pending job — and
        # answered from the view's free set, so a cycle that probes no
        # machine builds no snapshots at all (the O(1) idle-pool floor).
        #
        # The walk reads only the offered jobs: a cycle costs O(offered)
        # however many jobs the external scheduler has parked. The
        # parked jobs FIFO-between two walked ones are counted by
        # bisection, as if walked, up to the job whose match exhausts
        # the pool. Local counters (folded into ``stats`` below) and
        # bound methods keep attribute traffic off the loop.
        policy = self.policy
        prefilter = policy.prefilter
        inflight = self._inflight
        schedd = self.schedd
        parked_between = schedd.parked_between
        parked = prefiltered = examined = in_flight = walked = 0
        offered = ()
        exhausted = True
        # With no job parked when the walk starts, every parked job the
        # cycle meets is one parked mid-walk, which the walk counts.
        count_parked = False
        parked_inflight = ()
        if schedd.idle_jobs:
            exhausted = policy.exhausted(view)
            if not exhausted:
                offered = schedd.negotiable()
                count_parked = len(offered) < schedd.idle_jobs
                if count_parked and inflight:
                    # Fabric mode: parked jobs whose match is still in
                    # flight count as in flight, not parked.
                    parked_inflight = self._parked_inflight()
        after = None
        for record in offered:
            if exhausted:
                break
            if count_parked:
                key = record.fifo_key
                parked += parked_between(after, key)
                after = key
            walked += 1
            if inflight and record.job_id in inflight:
                # Fabric mode: this job's match notification is still in
                # flight — re-offering it would double-match.
                in_flight += 1
                continue
            plan = offer_plan(record)
            if plan is None:
                # Parked while the walk ran, by a subscriber to this
                # cycle's own transitions: the schedd files every other
                # parked job away from the walk.
                parked += 1
                continue
            if not prefilter(record, view):
                prefiltered += 1
                continue
            examined += 1
            placement = self._match(record, view, plan, stats)
            if placement is None:
                continue
            snapshot, device_index, exclusive = placement
            policy.deduct(
                snapshot,
                device_index,
                exclusive,
                record.profile.declared_memory_mb,
            )
            view.note_deduction(snapshot)
            exhausted = policy.exhausted(view)
            if self._fabric is None:
                startd = self.collector.startd(snapshot.node)
                if not startd.alive:
                    # The node died inside the staleness window; skip the
                    # match rather than dispatching into a crash.
                    continue
            self.schedd.publish(
                Transition(
                    NEGOTIATED, record.job_id, self.env.now, node=snapshot.node,
                    device=device_index, exclusive=exclusive,
                )
            )
            if self._fabric is None:
                startd.start_job(record, device_index, exclusive)
            else:
                # Fabric mode: a match is a *notification* to the schedd
                # (which activates the claim); whether the node is still
                # alive is for the claim protocol to discover.
                self._send_match(record, snapshot.node, device_index, exclusive)
            stats.matched += 1
        if count_parked and not exhausted:
            parked += parked_between(after, None)
            after = None
        # ``after`` now bounds the parked jobs counted (None: all).
        for key in parked_inflight:
            if after is None or key < after:
                parked -= 1
                in_flight += 1
        stats.parked = parked
        stats.prefiltered = prefiltered
        stats.examined = examined
        stats.in_flight = in_flight
        matched = stats.matched
        self.matches_made += matched
        self.last_cycle = stats
        if prof is not None:
            prof.negotiation_cycles += 1
            prof.match_probes += stats.evals
            prof.pin_routed += stats.pin_routed
            prof.full_scans += stats.full_scans
            prof.jobs_walked += walked
        if tracer is not None:
            # A cycle occupies zero *simulated* time; the span carries
            # its outcome in args (matches, queue examined).
            tracer.set_thread_name(_trace.NEGOTIATOR_TID, "negotiator")
            tracer.complete(
                "negotiation-cycle",
                "negotiator",
                self.env.now,
                self.env.now,
                tid=_trace.NEGOTIATOR_TID,
                cycle=self.cycles_run,
                matches=matched,
                examined=stats.examined,
            )
        if registry is not None:
            registry.counter("negotiator.cycles").inc()
            registry.counter("negotiator.matches").inc(matched)
            registry.counter("negotiator.parked").inc(stats.parked)
            registry.counter("negotiator.prefiltered").inc(stats.prefiltered)
            registry.counter("negotiator.examined").inc(stats.examined)
            registry.counter("negotiator.evals").inc(stats.evals)
            registry.counter("negotiator.pin_hits").inc(stats.pin_routed)
            registry.counter("negotiator.full_scans").inc(stats.full_scans)
            registry.histogram("negotiator.cycle_matches").observe(matched)
        return matched

    def _parked_inflight(self) -> list[tuple]:
        """FIFO keys of the parked idle jobs whose match is in flight."""
        records = [self.schedd.get(job_id) for job_id in self._inflight]
        return [
            r.fifo_key for r in records
            if r.status == IDLE and offer_plan(r) is None
        ]

    def _send_match(
        self,
        record: JobRecord,
        node: str,
        device_index: Optional[int],
        exclusive: bool,
    ) -> None:
        from .claims import MSG_MATCH

        token = self._next_token
        self._next_token += 1
        self._inflight[record.job_id] = token
        self._fabric.send(
            NET_NEGOTIATOR,
            NET_SCHEDD,
            MSG_MATCH,
            {
                "job_id": record.job_id,
                "node": node,
                "device": device_index,
                "exclusive": exclusive,
                "token": token,
            },
            on_delivered=self._match_delivered,
        )

    def _match(self, record: JobRecord, view, plan, stats):
        if plan.pin_name is not None:
            pinned = view.lookup(plan.pin_name)
            if pinned is not AMBIGUOUS_NAME:
                # The index covers every offered machine, so a miss proves
                # no machine advertises the pinned name, and a hit is the
                # only machine that can satisfy ``TARGET.Name == ...`` —
                # one matchmaking probe replaces the full scan.
                stats.pin_routed += 1
                if pinned is None:
                    return None
                stats.evals += 1
                if symmetric_match(record.ad, view.ad(pinned)):
                    return self.policy.place(record, [pinned])
                return None
            # Two live names collide case-insensitively: scan instead.
        if not plan.needs_free_slot:
            # The view offers only machines with a free slot; a scan that
            # could match a full one would silently decide differently.
            raise ValueError(
                f"job {record.job_id!r}: Requirements lack "
                "TARGET.FreeSlots >= 1, which a full scan needs"
            )
        snapshots = view.candidates()
        stats.full_scans += 1
        stats.evals += len(snapshots)
        # One matcher per scan: the job's Requirements closure and the
        # machines' shared one are looked up once, not once per probe.
        matches = matcher(record.ad)
        ad = view.ad
        candidates = [snapshot for snapshot in snapshots if matches(ad(snapshot))]
        if not candidates:
            return None
        return self.policy.place(record, candidates)

    def __repr__(self) -> str:
        return (
            f"<Negotiator cycles={self.cycles_run} matches={self.matches_made} "
            f"interval={self.cycle_interval}>"
        )
