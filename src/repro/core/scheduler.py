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
from dataclasses import dataclass, field
from heapq import merge as _heapq_merge
from typing import Optional

from ..condor.ads import pin_requirements
from ..condor.pool import CondorPool
from ..condor.schedd import (
    COMPLETE,
    FAIL,
    IDLE,
    RECOVERED,
    REQUEUE,
    SUBMIT,
    JobRecord,
    Transition,
    job_tid,
)
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..sim import profile as _profile
from .packer import DevicePacker, DevicePacking

#: Requirements expression that matches no machine (a parked job).
PARK_EXPRESSION = "false"


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
        # Incremental index of unassigned idle jobs (FIFO order), updated
        # on submit / assign / complete instead of rescanning the queue.
        self._pending_index: dict[str, JobRecord] = {}
        self._pending_ordered = True
        self._last_fifo_key: tuple[float, int] = (float("-inf"), 0)
        self._parked: set[str] = set()
        # Weight-bucketed view of the same index: bucket b holds jobs
        # whose declared memory lies in [2^(b-1), 2^b). A repack with F
        # MB free merges only buckets that can contain fitting jobs, so
        # its cost tracks the *fitting* queue, not the whole backlog.
        self._buckets: dict[int, dict[str, JobRecord]] = {}
        #: Pending-index traffic for the profiler's scheduler section.
        self.index_jobs_examined = 0
        self.index_jobs_skipped = 0
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

    # -- pending-job index -----------------------------------------------------

    @staticmethod
    def _bucket_key(declared_mb: float) -> int:
        # frexp puts declared in [2^(b-1), 2^b); 0 MB lands in bucket 0.
        return math.frexp(declared_mb)[1]

    def _index_add(self, record: JobRecord) -> None:
        key = (record.profile.submit_time, record.seq)
        if key < self._last_fifo_key:
            # Out-of-order submit time: fall back to a lazy re-sort.
            self._pending_ordered = False
        else:
            self._last_fifo_key = key
        self._pending_index[record.job_id] = record
        bucket = self._bucket_key(record.profile.declared_memory_mb)
        self._buckets.setdefault(bucket, {})[record.job_id] = record

    def _index_remove(self, job_id: str) -> Optional[JobRecord]:
        record = self._pending_index.pop(job_id, None)
        if record is not None:
            bucket = self._bucket_key(record.profile.declared_memory_mb)
            entries = self._buckets.get(bucket)
            if entries is not None:
                entries.pop(job_id, None)
                if not entries:
                    del self._buckets[bucket]
        self._parked.discard(job_id)
        return record

    def _on_transition(self, tr: Transition) -> None:
        kind = tr.kind
        if kind == RECOVERED:
            self._on_recovery()
        elif kind == COMPLETE:
            self._on_completion(self.schedd.get(tr.job_id))
        elif kind == SUBMIT:
            self._on_submit(self.schedd.get(tr.job_id))
        elif kind == FAIL:
            self._on_failure(self.schedd.get(tr.job_id))
        elif kind == REQUEUE:
            self._on_requeue(self.schedd.get(tr.job_id))

    def _on_submit(self, record: JobRecord) -> None:
        """Index — and immediately park — a post-attach arrival.

        Without the parking edit the job keeps its default Requirements
        until the next repack, and the vanilla negotiator is free to
        dispatch it to an arbitrary node, bypassing sharing-aware
        placement entirely.
        """
        self._index_add(record)
        self.schedd.qedit(record.job_id, "Requirements", PARK_EXPRESSION)
        self._parked.add(record.job_id)
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

    def _ensure_ordered(self) -> None:
        if self._pending_ordered:
            return
        ordered = sorted(
            self._pending_index.values(),
            key=lambda r: (r.profile.submit_time, r.seq),
        )
        self._pending_index = {r.job_id: r for r in ordered}
        self._buckets = {}
        for record in ordered:
            bucket = self._bucket_key(record.profile.declared_memory_mb)
            self._buckets.setdefault(bucket, {})[record.job_id] = record
        self._pending_ordered = True
        if ordered:
            last = ordered[-1]
            self._last_fifo_key = (last.profile.submit_time, last.seq)

    def _unassigned_pending(self) -> list[JobRecord]:
        """Unassigned idle jobs in FIFO order, from the incremental index.

        O(1) amortized maintenance per queue event; listing is linear in
        the *unassigned* count only (never the full job history). Entries
        that left the idle state outside our control are purged lazily.
        """
        self._ensure_ordered()
        stale = [
            job_id
            for job_id, record in self._pending_index.items()
            if record.status != IDLE
        ]
        for job_id in stale:
            self._index_remove(job_id)
        return list(self._pending_index.values())

    def _fitting_pending(self, free_mb: float) -> list[JobRecord]:
        """Unassigned idle jobs that fit ``free_mb``, in FIFO order.

        Merges only the weight buckets that can contain fitting jobs:
        buckets entirely below the free capacity stream through whole,
        the single boundary bucket is filtered per job, and heavier
        buckets are never touched. The (submit_time, seq) key is unique
        per record, so the bucket merge reproduces exactly the order a
        full FIFO walk filtered by weight would have produced.
        """
        self._ensure_ordered()
        boundary = self._bucket_key(free_mb)
        runs = []
        touched = 0
        for bucket, entries in self._buckets.items():
            if bucket > boundary:
                continue
            touched += len(entries)
            if bucket == boundary:
                run = [
                    r
                    for r in entries.values()
                    if r.profile.declared_memory_mb <= free_mb
                ]
            else:
                run = list(entries.values())
            if run:
                runs.append(run)
        self.index_jobs_examined += touched
        self.index_jobs_skipped += len(self._pending_index) - touched
        prof = _profile.ACTIVE
        if prof is not None:
            prof.index_jobs_examined += touched
            prof.index_jobs_skipped += len(self._pending_index) - touched
            if len(self._buckets) > prof.index_buckets_peak:
                prof.index_buckets_peak = len(self._buckets)
        if not runs:
            return []
        if len(runs) == 1:
            merged = runs[0]
        else:
            merged = list(
                _heapq_merge(
                    *runs, key=lambda r: (r.profile.submit_time, r.seq)
                )
            )
        stale = [r.job_id for r in merged if r.status != IDLE]
        if stale:
            for job_id in stale:
                self._index_remove(job_id)
            merged = [r for r in merged if r.status == IDLE]
        return merged

    def _pack_device(self, node: str, device: int) -> int:
        key = (node, device)
        if key in self._offline:
            return 0
        free_mb = self._capacity[key] - self._committed[key]
        if free_mb <= 0:
            return 0
        candidates = self._fitting_pending(free_mb)
        if not candidates:
            return 0
        max_jobs: Optional[int] = None
        if self.respect_host_slots:
            max_jobs = self._node_slots[node] - self._node_active[node]
            if max_jobs <= 0:
                return 0
        packing = self.packer.pack(
            [record.profile for record in candidates], free_mb, max_jobs
        )
        if not packing.chosen and self._committed[key] <= 0:
            # Progress guarantee: a value function may rate every
            # candidate at zero (Eq. 1 gives full-card jobs no value), but
            # an idle device with pending work must never starve — run the
            # FIFO-first job that fits, as plain Condor would.
            first = candidates[0]
            packing = DevicePacking(
                chosen=(first.job_id,),
                total_declared_mb=first.profile.declared_memory_mb,
                total_declared_threads=first.profile.declared_threads,
                total_value=0.0,
            )
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
            by_id = {record.job_id: record for record in candidates}
            edits = []
            tracer = _trace.ACTIVE
            for job_id in packing.chosen:
                record = by_id[job_id]
                self._assignment[job_id] = key
                self._committed[key] += record.profile.declared_memory_mb
                self._node_active[node] += 1
                self._index_remove(job_id)
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
        edits = []
        for record in self._unassigned_pending():
            if record.job_id in self._parked:
                continue  # parked at submission; nothing to re-evaluate
            if record.ad.evaluate("Requirements") is not False:
                edits.append((record.job_id, "Requirements", PARK_EXPRESSION))
            self._parked.add(record.job_id)
            self._note_parked(record, reason="unassigned")
        if edits:
            self.schedd.qedit_batch(edits)

    def _on_completion(self, record: JobRecord) -> None:
        key = self._assignment.pop(record.job_id, None)
        if key is None:
            # Not ours (e.g., dispatched before attach); drop any index
            # remnants so the job cannot be offered to the packer again.
            self._index_remove(record.job_id)
            return
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
            self._parked.add(job_id)
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
            self._index_remove(record.job_id)
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
        self._pending_index = {}
        self._buckets = {}
        self._parked = set()
        self._pending_ordered = True
        self._last_fifo_key = (float("-inf"), 0)
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
            self._parked.add(record.job_id)
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
        self._parked.add(record.job_id)
        self._note_parked(record, reason="requeue")
        self._mark_all_online_dirty()
        self._schedule_repack()

    def start_periodic(self, interval: float):
        """Also re-pack on a timer (for dynamic-arrival scenarios).

        Completions already trigger repacking; a periodic pass
        additionally picks up jobs submitted since the last event. Call
        after :meth:`attach`; returns the created process.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        if not self._attached:
            raise RuntimeError("attach the scheduler first")

        def _loop():
            while True:
                yield self.env.timeout(interval)
                self.schedule_pending()

        return self.env.process(_loop(), name="knapsack-periodic")

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
