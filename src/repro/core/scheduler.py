"""The sharing-aware cluster scheduler (the paper's contribution).

Implements the greedy loop of Fig. 4 on top of the Condor pool:

* at startup, model every coprocessor as a knapsack at full capacity and
  fill them one after another from the pending queue;
* whenever a device completes a job, create a new knapsack whose capacity
  is the memory that job freed (plus any other unreserved memory) and
  fill it from the remaining unscheduled jobs;
* apply each packing decision by rewriting job Requirements through
  ``condor_qedit`` in a batch, pinning chosen jobs to their node
  (``Name == "slot1@<node>"``) and parking everything else — the
  subsequent negotiation cycle then dispatches them (§IV-D1).

The scheduler never inspects job *profiles* (runtimes, offload shapes):
only the declared memory and thread numbers, exactly as the paper
prescribes ("we do not assume knowledge of job execution times").
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Optional

from ..condor.ads import pin_requirements
from ..condor.observe import job_tid
from ..condor.pool import CondorPool
from ..condor.schedd import (
    COMPLETE,
    FAIL,
    IDLE,
    MATCH,
    RECOVERED,
    REQUEUE,
    RUN,
    SUBMIT,
    UNMATCH,
    JobRecord,
    Transition,
)
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sim import profile as _profile
from .packer import DevicePacker, DevicePacking, ShapeGroups

#: Requirements expression that matches no machine (a parked job).
PARK_EXPRESSION = "false"

_FIFO_KEY = operator.attrgetter("fifo_key")
_PROFILE = operator.attrgetter("profile")


@dataclass
class PackingDecision:
    """One knapsack fill, recorded for analysis."""

    time: float
    node: str
    device: int
    free_mb_before: float
    packing: DevicePacking


class KnapsackClusterScheduler:
    """Greedy knapsack scheduling over a Condor pool (Fig. 4).

    Parameters
    ----------
    pool:
        The Condor pool to drive. Attach *before* ``pool.start()``.
    packer:
        The per-device knapsack packer (value function, quantum, optional
        hard thread cap).
    respect_host_slots:
        Bound each node's co-scheduled jobs by its free Condor slots
        (packing more than the slots could hold would only queue them at
        the node).
    """

    def __init__(
        self,
        pool: CondorPool,
        packer: Optional[DevicePacker] = None,
        respect_host_slots: bool = True,
    ) -> None:
        self.pool = pool
        self.env = pool.env
        self.schedd = pool.schedd
        self.packer = packer or DevicePacker()
        self.respect_host_slots = respect_host_slots

        self._capacity: dict[tuple[str, int], float] = {}
        self._committed: dict[tuple[str, int], float] = {}
        #: Devices currently failed/resetting: excluded from packing.
        self._offline: set[tuple[str, int]] = set()
        self._assignment: dict[str, tuple[str, int]] = {}
        self._node_slots: dict[str, int] = {}
        self._node_active: dict[str, int] = {}
        self.decisions: list[PackingDecision] = []
        self._attached = False
        # The shape index: every unassigned idle job, by declared
        # (memory MB, threads) shape, each shape's jobs in FIFO order.
        # The schedd's transition stream keeps it exact, so a pack reads
        # the fitting shapes' heads and the jobs it chooses, never the
        # whole queue. ``_shape_keys`` lists the shapes sorted, so the
        # fitting ones are a prefix.
        self._shapes: dict[tuple[float, int], dict[str, JobRecord]] = {}
        self._shape_keys: list[tuple[float, int]] = []
        #: Shapes that took a job out of FIFO order, re-sorted on use.
        self._unsorted: set[tuple[float, int]] = set()
        #: Indexed jobs not parked yet: attach's first pass parks them.
        self._unparked: dict[str, JobRecord] = {}
        #: Shape-index traffic: shapes offered to the packer, and jobs
        #: read from them (one head per shape plus each job chosen).
        self.shapes_examined = 0
        self.jobs_touched = 0
        # Same-timestep completions coalesce into one repack pass.
        self._dirty_devices: set[tuple[str, int]] = set()
        self._repack_scheduled = False
        #: Completion-triggered repack passes actually run.
        self.repack_passes = 0
        #: Completions absorbed into an already-scheduled pass.
        self.coalesced_completions = 0

    # -- lifecycle -----------------------------------------------------------

    def attach(self) -> None:
        """Take over placement: initial Fig.-4 pass + completion hooks."""
        if self._attached:
            raise RuntimeError("scheduler already attached")
        if self.schedd.running():
            raise RuntimeError("attach the scheduler before jobs start")
        self._attached = True
        for startd in self.pool.startds:
            snapshot = startd.snapshot()
            self._node_slots[snapshot.node] = snapshot.total_slots
            self._node_active[snapshot.node] = 0
            for device in snapshot.devices:
                key = (snapshot.node, device.index)
                self._capacity[key] = device.memory_mb
                self._committed[key] = 0.0
        self.schedd.subscribe(self._on_transition)
        for record in self.schedd.pending():
            self._index_add(record)
            self._unparked[record.job_id] = record
        self.schedule_pending()

    # -- the Fig. 4 loop -------------------------------------------------------

    def schedule_pending(self) -> int:
        """Pack every device with free capacity; park the rest.

        Returns the number of jobs newly assigned. Also the entry point
        for dynamic scenarios: call again after submitting more jobs.
        """
        assigned = 0
        for key in self._capacity:
            if key in self._offline:
                continue
            assigned += self._pack_device(*key)
        self._park_unassigned()
        return assigned

    # -- the shape index ------------------------------------------------------

    def _index_add(self, record: JobRecord) -> None:
        profile = record.profile
        shape = (profile.declared_memory_mb, profile.declared_threads)
        members = self._shapes.get(shape)
        if members is None:
            members = self._shapes[shape] = {}
            insort(self._shape_keys, shape)
        elif record.job_id in members:
            return
        elif record.fifo_key < next(reversed(members.values())).fifo_key:
            self._unsorted.add(shape)  # a requeue, or an earlier submit time
        members[record.job_id] = record

    def _index_remove(self, record: JobRecord) -> None:
        self._unparked.pop(record.job_id, None)
        profile = record.profile
        shape = (profile.declared_memory_mb, profile.declared_threads)
        members = self._shapes.get(shape)
        if members is None or members.pop(record.job_id, None) is None:
            return
        if not members:
            del self._shapes[shape]
            del self._shape_keys[bisect_left(self._shape_keys, shape)]
            self._unsorted.discard(shape)

    def _members(self, shape: tuple[float, int]) -> dict[str, JobRecord]:
        members = self._shapes[shape]
        if shape in self._unsorted:
            self._unsorted.discard(shape)
            members = self._shapes[shape] = dict(
                sorted(members.items(), key=lambda item: item[1].fifo_key)
            )
        return members

    def _unassigned_pending(self) -> list[JobRecord]:
        """Every indexed job (unassigned and idle), in FIFO order."""
        return sorted(
            (r for members in self._shapes.values() for r in members.values()),
            key=_FIFO_KEY,
        )

    def _fitting(self, free_mb: float) -> ShapeGroups:
        """The shapes whose jobs fit ``free_mb``, as the packer's view."""
        end = bisect_right(self._shape_keys, (free_mb, math.inf))
        groups = [
            (mb, threads, self._members((mb, threads)).values())
            for mb, threads in self._shape_keys[:end]
        ]
        view = ShapeGroups(groups, _FIFO_KEY, _PROFILE)
        self.shapes_examined += end
        prof = _profile.ACTIVE
        if prof is not None:
            prof.pack_shapes_examined += end
            indexed = sum(len(members) for members in self._shapes.values())
            prof.pack_jobs_skipped += indexed - len(view)
            if len(self._shapes) > prof.pack_shapes_peak:
                prof.pack_shapes_peak = len(self._shapes)
        return view

    def _on_transition(self, tr: Transition) -> None:
        kind = tr.kind
        if kind == RUN or kind == MATCH:
            # The job left the idle queue (normally a pinned one, which
            # is not indexed).
            self._index_remove(self.schedd.get(tr.job_id))
        elif kind == COMPLETE:
            self._on_completion(self.schedd.get(tr.job_id))
        elif kind == SUBMIT:
            self._on_submit(self.schedd.get(tr.job_id))
        elif kind == FAIL:
            self._on_failure(self.schedd.get(tr.job_id))
        elif kind == REQUEUE:
            self._on_requeue(self.schedd.get(tr.job_id))
        elif kind == UNMATCH:
            if tr.job_id not in self._assignment:
                # Matched while displaced from a failed card: still
                # parked, and unassigned again.
                self._index_add(self.schedd.get(tr.job_id))
        elif kind == RECOVERED:
            self._on_recovery()

    def _on_submit(self, record: JobRecord) -> None:
        """Index — and immediately park — a post-attach arrival.

        Without the parking edit the job keeps its default Requirements
        until the next repack, and the vanilla negotiator is free to
        dispatch it to an arbitrary node, bypassing sharing-aware
        placement entirely.
        """
        self._index_add(record)
        self.schedd.qedit(record.job_id, "Requirements", PARK_EXPRESSION)
        self._note_parked(record, reason="submit")

    def _note_parked(self, record: JobRecord, reason: str) -> None:
        """Observability for a parking edit (no-op when tracing is off)."""
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.instant(
                "parked",
                "scheduler",
                self.env.now,
                tid=job_tid(record),
                reason=reason,
            )
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.counter("scheduler.parks").inc()

    def _pack_device(self, node: str, device: int) -> int:
        key = (node, device)
        if key in self._offline:
            return 0
        free_mb = self._capacity[key] - self._committed[key]
        if free_mb <= 0:
            return 0
        max_jobs: Optional[int] = None
        if self.respect_host_slots:
            max_jobs = self._node_slots[node] - self._node_active[node]
            if max_jobs <= 0:
                return 0
        candidates = self._fitting(free_mb)
        if not candidates.groups:
            return 0
        packing = self.packer.pack(candidates, free_mb, max_jobs)
        if not packing.chosen and self._committed[key] <= 0:
            # Progress guarantee: a value function may rate every
            # candidate at zero (Eq. 1 gives full-card jobs no value), but
            # an idle device with pending work must never starve — run the
            # FIFO-first job that fits, as plain Condor would.
            first = candidates.head()
            packing = DevicePacking(
                chosen=(first.job_id,),
                total_declared_mb=first.profile.declared_memory_mb,
                total_declared_threads=first.profile.declared_threads,
                total_value=0.0,
            )
        self.jobs_touched += candidates.touched
        prof = _profile.ACTIVE
        if prof is not None:
            prof.pack_jobs_touched += candidates.touched
        if packing.chosen:
            self.decisions.append(
                PackingDecision(
                    time=self.env.now,
                    node=node,
                    device=device,
                    free_mb_before=free_mb,
                    packing=packing,
                )
            )
            edits = []
            tracer = _trace.ACTIVE
            for job_id in packing.chosen:
                record = self.schedd.get(job_id)
                self._assignment[job_id] = key
                self._committed[key] += record.profile.declared_memory_mb
                self._node_active[node] += 1
                self._index_remove(record)
                if tracer is not None:
                    tracer.instant(
                        "pinned",
                        "scheduler",
                        self.env.now,
                        tid=job_tid(record),
                        node=node,
                        device=device,
                    )
                # The shared helper keeps the qedit payload in the exact
                # shape the negotiator's pin analysis recognizes.
                edits.append((job_id, "Requirements", pin_requirements(node)))
                edits.append((job_id, "AssignedPhiDevice", str(device)))
            # The paper batches the rewritten requirements to the collector.
            self.schedd.qedit_batch(edits)
            if tracer is not None:
                # Packing happens in zero simulated time; the span exists
                # to put each knapsack fill on the scheduler track.
                tracer.set_thread_name(_trace.SCHEDULER_TID, "knapsack scheduler")
                tracer.complete(
                    "pack-device",
                    "scheduler",
                    self.env.now,
                    self.env.now,
                    tid=_trace.SCHEDULER_TID,
                    node=node,
                    device=device,
                    chosen=len(packing.chosen),
                    free_mb=free_mb,
                )
            registry = _metrics.ACTIVE
            if registry is not None:
                registry.counter("scheduler.packs").inc()
                registry.counter("scheduler.jobs_assigned").inc(
                    len(packing.chosen)
                )
        return len(packing.chosen)

    def _park_unassigned(self) -> None:
        # Every other way into the index parks the job on the spot, and
        # attach fills ``_unparked`` in FIFO order.
        edits = []
        for record in self._unparked.values():
            if record.ad.evaluate("Requirements") is not False:
                edits.append((record.job_id, "Requirements", PARK_EXPRESSION))
            self._note_parked(record, reason="unassigned")
        self._unparked.clear()
        if edits:
            self.schedd.qedit_batch(edits)

    def _on_completion(self, record: JobRecord) -> None:
        key = self._assignment.pop(record.job_id, None)
        if key is None:
            return  # not ours (e.g., dispatched before attach)
        node, device = key
        self._committed[key] = max(
            0.0, self._committed[key] - record.profile.declared_memory_mb
        )
        self._node_active[node] -= 1
        # Fig. 4: "create knapsack: capacity = free memory in D" — but
        # coalesced: N completions landing on the same timestep mark their
        # devices dirty and trigger ONE zero-delay repack pass, not N
        # full knapsack fills.
        self._dirty_devices.add(key)
        self._schedule_repack()

    def _schedule_repack(self) -> None:
        """Coalesce same-timestep dirty devices into one zero-delay pass."""
        if self.schedd.down:
            # Nothing to pack against a crashed schedd; the recovery
            # resync marks every online device dirty and reschedules.
            return
        if self._repack_scheduled:
            self.coalesced_completions += 1
            return
        self._repack_scheduled = True
        trigger = self.env.event()
        trigger.callbacks.append(self._coalesced_repack)
        trigger.succeed()

    def _coalesced_repack(self, _event) -> None:
        self._repack_scheduled = False
        if self.schedd.down:
            # Crash landed between scheduling and firing: drop the pass
            # (the dirty set is rebuilt wholesale by the recovery resync).
            self._dirty_devices.clear()
            return
        dirty = sorted(self._dirty_devices)
        self._dirty_devices.clear()
        self.repack_passes += 1
        prof = _profile.ACTIVE
        if prof is not None:
            prof.repack_passes += 1
            prof.devices_repacked += len(dirty)
        for node, device in dirty:
            if (node, device) in self._offline:
                continue
            self._pack_device(node, device)

    # -- failure handling --------------------------------------------------------

    def _mark_all_online_dirty(self) -> None:
        for key in self._capacity:
            if key not in self._offline:
                self._dirty_devices.add(key)

    def on_device_failed(self, node: str, device: int) -> None:
        """A coprocessor went down: withdraw it and re-pack its queue.

        Jobs already *running* there fail through the interrupt path and
        come back via :meth:`_on_failure`; jobs merely *pinned* there
        (assigned but still idle in the queue) are displaced here: their
        commitment is withdrawn, they re-enter the pending index, and the
        pin is replaced with a parking expression until the next pack
        assigns them a live card.
        """
        key = (node, device)
        if key not in self._capacity:
            return
        if key in self._offline:
            return
        self._offline.add(key)
        self._dirty_devices.discard(key)
        if self.schedd.down:
            # The schedd is mid-crash: no qedit can land and the queue is
            # about to be replayed anyway. Take the card offline now; the
            # post-recovery resync displaces whatever was pinned to it.
            return
        displaced = [
            job_id for job_id, assigned in self._assignment.items()
            if assigned == key
        ]
        edits = []
        for job_id in displaced:
            record = self.schedd.get(job_id)
            if record.status != IDLE:
                continue  # running/backoff: the failure path handles it
            del self._assignment[job_id]
            self._committed[key] = max(
                0.0, self._committed[key] - record.profile.declared_memory_mb
            )
            self._node_active[node] -= 1
            self._index_add(record)
            self._note_parked(record, reason="device-failed")
            edits.append((job_id, "Requirements", PARK_EXPRESSION))
        if edits:
            self.schedd.qedit_batch(edits)
        # Displaced (and soon requeued) jobs need somewhere to go.
        self._mark_all_online_dirty()
        self._schedule_repack()

    def on_device_restored(self, node: str, device: int) -> None:
        """A reset/rebooted card is back: resume packing onto it."""
        key = (node, device)
        if key not in self._offline:
            return  # idempotent: reset + node reboot may both report it
        self._offline.discard(key)
        self._dirty_devices.add(key)
        self._schedule_repack()

    def _on_failure(self, record: JobRecord) -> None:
        """Failed run: release the device commitment immediately.

        The job itself re-enters the queue through :meth:`_on_requeue`
        after its backoff (or never, if the failure was terminal); either
        way the memory it held must be packable right now.
        """
        key = self._assignment.pop(record.job_id, None)
        if key is None:
            return
        node, _device = key
        self._committed[key] = max(
            0.0, self._committed[key] - record.profile.declared_memory_mb
        )
        self._node_active[node] -= 1
        if key not in self._offline:
            self._dirty_devices.add(key)
            self._schedule_repack()

    def _on_recovery(self) -> None:
        """Full resync after a schedd crash–replay.

        The replayed queue holds *new* ``JobRecord`` objects, so every
        record reference cached in the pending index is stale. Rebuild
        the index from scratch, then reconcile the assignment table
        against the replayed queue: pins onto live cards are re-asserted
        (the replay restored the journaled Requirements, but re-issuing
        them keeps the resync correct even if the crash landed mid
        qedit batch), pins onto cards that died while the schedd was
        down are displaced, and everything else is parked for the next
        pack. Memory commitments for matched/running jobs are untouched
        — their claims were re-adopted, not re-planned.
        """
        self._shapes = {}
        self._shape_keys = []
        self._unsorted = set()
        self._unparked = {}
        self._dirty_devices.clear()
        edits = []
        for record in self.schedd.pending():
            key = self._assignment.get(record.job_id)
            if key is not None and key not in self._offline:
                node, device = key
                edits.append(
                    (record.job_id, "Requirements", pin_requirements(node))
                )
                edits.append((record.job_id, "AssignedPhiDevice", str(device)))
                continue
            if key is not None:
                # Pinned to a card that went down during the outage.
                node, _device = key
                del self._assignment[record.job_id]
                self._committed[key] = max(
                    0.0,
                    self._committed[key] - record.profile.declared_memory_mb,
                )
                self._node_active[node] -= 1
            self._index_add(record)
            if record.ad.evaluate("Requirements") is not False:
                edits.append((record.job_id, "Requirements", PARK_EXPRESSION))
            self._note_parked(record, reason="recovery")
        if edits:
            self.schedd.qedit_batch(edits)
        self._mark_all_online_dirty()
        self._schedule_repack()

    def _on_requeue(self, record: JobRecord) -> None:
        """Backoff elapsed: park the retry and offer it to the packer."""
        self._index_add(record)
        self.schedd.qedit(record.job_id, "Requirements", PARK_EXPRESSION)
        self._note_parked(record, reason="requeue")
        self._mark_all_online_dirty()
        self._schedule_repack()

    # -- inspection ------------------------------------------------------------

    def committed_mb(self, node: str, device: int = 0) -> float:
        return self._committed[(node, device)]

    def assignment_of(self, job_id: str) -> Optional[tuple[str, int]]:
        return self._assignment.get(job_id)

    @property
    def assigned_jobs(self) -> int:
        return len(self._assignment)

    def __repr__(self) -> str:
        return (
            f"<KnapsackClusterScheduler devices={len(self._capacity)} "
            f"assigned={self.assigned_jobs} decisions={len(self.decisions)}>"
        )
