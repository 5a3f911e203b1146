"""The collector: central-manager registry of node state.

Real Condor nodes push periodic ClassAd updates to the collector; the
negotiator then works from the collector's (slightly stale) view. In
direct mode we model the pull at the start of each negotiation cycle,
which corresponds to updates arriving just in time — the staleness that
matters for the paper (dispatch waiting for the next cycle) lives in the
negotiator. Under the message fabric the collector switches to *store*
mode: it serves the last machine-update each startd managed to push
through the network, so the negotiator's view really is stale.

Failure model: a crashed node is *deregistered* (the fault injector
knows the exact moment), and — as the detection backstop real pools rely
on — a node whose heartbeat goes stale is dropped from the negotiation
snapshots until it reports again. Heartbeats are opt-in: with no
``heartbeat_timeout`` configured and no heartbeats recorded, behaviour
is identical to the fault-free collector. Staleness transitions are
reported to the observability layer (a trace instant plus the
``collector.stale_drops`` / ``collector.reregistrations`` counters) so
silent capacity loss shows up in traces. Staleness is event-driven (a
heap of heartbeat times, drained at query time), so liveness is one
more delta to the free-candidate set, and every negotiation cycle in
every mode runs over one lazy :class:`LiveCycleView`.
"""

from __future__ import annotations

import heapq
from typing import Callable, Collection, Optional

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .ads import MachineSnapshot, copy_snapshot, machine_ad, slot_name
from .startd import Startd

#: Index value for a slot name claimed by several nodes (names differing
#: only by case collide under the case-insensitive index): the negotiator
#: must fall back to a full scan rather than pick one arbitrarily.
AMBIGUOUS_NAME = object()


class Collector:
    """Registry of startds; serves fresh snapshots to the negotiator.

    Parameters
    ----------
    heartbeat_timeout:
        Seconds without a heartbeat after which a node is considered
        dead. ``None`` (default) disables staleness checking entirely.
    """

    def __init__(self, heartbeat_timeout: Optional[float] = None) -> None:
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        self.heartbeat_timeout = heartbeat_timeout
        self._startds: dict[str, Startd] = {}
        self._dead: set[str] = set()
        self._heartbeats: dict[str, float] = {}
        #: Fabric mode: serve stored machine-updates, not live state.
        self._use_store = False
        self._stored: dict[str, MachineSnapshot] = {}
        #: Last observed staleness per heartbeat-tracked node, for
        #: transition (not per-query) observability emissions.
        self._stale: dict[str, bool] = {}
        #: Min-heap of (heartbeat time, name), one entry per heartbeat;
        #: a node can only go stale once its newest one reaches the head.
        self._beats: list[tuple[float, str]] = []
        #: Nodes a heartbeat or reinstatement may have revived.
        self._recheck: set[str] = set()
        #: Staleness drops / re-registrations observed (transitions).
        self.stale_drops = 0
        self.reregistrations = 0
        #: Delta-maintained candidate set: names of nodes that are alive,
        #: neither deregistered nor stale, and have a free host slot. The
        #: negotiator only full-scans Requirements that conjoin
        #: ``TARGET.FreeSlots >= 1``, so matchmaking decisions restricted
        #: to this set are identical to a scan of every node; startds
        #: push 0<->free transitions as they happen.
        self._free: set[str] = set()
        #: Registration order, so candidate lists keep the order
        #: :meth:`snapshots` would have produced.
        self._reg_index: dict[str, int] = {}
        #: Static lowercased slot-name -> startd map (collisions map to
        #: :data:`AMBIGUOUS_NAME` permanently; the negotiator falls back
        #: to a scan, which decides identically).
        self._name_map: dict[str, object] = {}

    def register(self, startd: Startd) -> None:
        if startd.name in self._startds:
            raise ValueError(f"node {startd.name!r} already registered")
        self._reg_index[startd.name] = len(self._startds)
        self._startds[startd.name] = startd
        key = slot_name(startd.name).lower()
        self._name_map[key] = (
            AMBIGUOUS_NAME if key in self._name_map else startd
        )
        startd.watcher = self
        self.refresh_membership(startd)

    def deregister(self, name: str) -> None:
        """Drop a crashed node from matchmaking (it stays in the registry)."""
        if name not in self._startds:
            raise KeyError(f"node {name!r} is not registered")
        self._dead.add(name)
        self._free.discard(name)

    def reinstate(self, name: str) -> None:
        """Readmit a rebooted node to matchmaking."""
        if name not in self._startds:
            raise KeyError(f"node {name!r} is not registered")
        self._dead.discard(name)
        self._recheck.add(name)
        self.refresh_membership(self._startds[name])

    def crash_reset(self) -> None:
        """Forget all volatile state: the collector daemon just crashed.

        The stored ads, heartbeat clocks, and staleness cache all lived
        in the dead process; a restarted collector learns the pool again
        from the re-advertisements the recovery supervisor forces. The
        registration table and ``_dead`` survive — they model pool
        *configuration* and the fault injector's own bookkeeping, not
        collector memory.
        """
        self._stored.clear()
        self._heartbeats.clear()
        self._stale.clear()
        self._beats.clear()
        self._recheck.clear()
        for startd in self._startds.values():
            self.refresh_membership(startd)

    def refresh_membership(self, startd: Startd) -> None:
        """Re-derive one node's presence in the free-candidate set.

        Called on registration, on liveness transitions, and by the
        startd itself whenever its free-slot count crosses zero or its
        liveness flips, keeping the set O(1)-current without any
        per-cycle rebuild.
        """
        name = startd.name
        if startd.alive and startd.free_slots > 0 and self._offered(name):
            self._free.add(name)
        else:
            self._free.discard(name)

    def record_heartbeat(self, name: str, now: float) -> None:
        """Note a liveness report from ``name`` at simulation time ``now``."""
        if name not in self._startds:
            raise KeyError(f"node {name!r} is not registered")
        self._heartbeats[name] = now
        if self.heartbeat_timeout is not None:
            heapq.heappush(self._beats, (now, name))
            if self._stale.get(name, False):
                self._recheck.add(name)

    # -- fabric store mode ------------------------------------------------

    def enable_store(self) -> None:
        """Serve stored machine-updates instead of reading startds live."""
        self._use_store = True

    def store_update(self, snapshot: MachineSnapshot, now: float) -> None:
        """Record a machine-update that arrived over the fabric.

        The update doubles as the node's heartbeat — exactly Condor's
        behaviour, where the periodic ClassAd push *is* the liveness
        signal.
        """
        self._stored[snapshot.node] = snapshot
        self.record_heartbeat(snapshot.node, now)

    # -- liveness ---------------------------------------------------------

    def is_alive(self, name: str, now: Optional[float] = None) -> bool:
        """Whether ``name`` is offered to the negotiator at ``now``.

        Deregistered nodes are dead. Staleness applies only when a
        timeout is configured and the node has ever heartbeated — so
        pools that never enable heartbeats behave exactly as before.
        Like :meth:`snapshots`, this is a query: staleness transitions
        due by ``now`` are applied first.
        """
        self._drain(now)
        return self._offered(name) is not None

    def _offered(self, name: str) -> Optional[Startd]:
        """``name``'s startd unless it is deregistered or stale."""
        if name in self._dead or self._stale.get(name, False):
            return None
        return self._startds[name]

    def _drain(self, now: Optional[float]) -> None:
        """Apply every staleness transition due by ``now``.

        Visits only the nodes whose staleness can have flipped since the
        previous query, in registration order — the same transitions,
        instants and order as running :meth:`_note_staleness` over every
        node. Queries come at non-decreasing ``now``.
        """
        if now is None:
            return
        due = self._recheck
        beats = self._beats
        while beats and now - beats[0][0] > self.heartbeat_timeout:
            beat, name = heapq.heappop(beats)
            if self._heartbeats.get(name) == beat:
                due.add(name)
        if not due:
            return
        for name in sorted(due, key=self._reg_index.__getitem__):
            self._note_staleness(name, now)
            self.refresh_membership(self._startds[name])
        due.clear()

    def _note_staleness(self, name: str, now: Optional[float]) -> None:
        """Track heartbeat-staleness transitions and report them."""
        if (
            self.heartbeat_timeout is None
            or now is None
            or name not in self._heartbeats
            or name in self._dead
        ):
            return
        stale = now - self._heartbeats[name] > self.heartbeat_timeout
        was_stale = self._stale.get(name, False)
        if stale == was_stale:
            return
        self._stale[name] = stale
        tracer = _trace.ACTIVE
        registry = _metrics.ACTIVE
        if stale:
            self.stale_drops += 1
            if tracer is not None:
                tracer.instant(
                    "node-stale",
                    "collector",
                    now,
                    tid=_trace.FAULTS_TID,
                    node=name,
                    last_heartbeat=self._heartbeats[name],
                )
            if registry is not None:
                registry.counter("collector.stale_drops").inc()
        else:
            self.reregistrations += 1
            if tracer is not None:
                tracer.instant(
                    "node-reregistered",
                    "collector",
                    now,
                    tid=_trace.FAULTS_TID,
                    node=name,
                )
            if registry is not None:
                registry.counter("collector.reregistrations").inc()

    def startd(self, name: str) -> Startd:
        return self._startds[name]

    @property
    def startds(self) -> list[Startd]:
        return list(self._startds.values())

    def snapshots(self, now: Optional[float] = None) -> list[MachineSnapshot]:
        """Current state of every offered node, in registration order.

        Store mode returns the stored machine-updates themselves (never
        mutated; nodes that never reported are absent) — the cycle view
        copies one on touch; direct mode reads each startd live.
        """
        self._drain(now)
        offered = [s for s in self._startds.values() if self._offered(s.name)]
        if not self._use_store:
            return [s.snapshot() for s in offered]
        stored = self._stored
        return [stored[s.name] for s in offered if s.name in stored]

    def indexed_snapshots(
        self, now: Optional[float] = None
    ) -> tuple[list[MachineSnapshot], dict[str, object]]:
        """Snapshots plus a lowercased slot-name index over them.

        Every offered snapshot appears in the index, so a miss proves no
        machine advertises that name; a case-collision maps to
        :data:`AMBIGUOUS_NAME`.
        """
        snapshots = self.snapshots(now)
        index: dict[str, object] = {}
        for snapshot in snapshots:
            key = slot_name(snapshot.node).lower()
            index[key] = AMBIGUOUS_NAME if key in index else snapshot
        return snapshots, index

    def live_view(self, now: Optional[float] = None) -> "LiveCycleView":
        """One negotiation cycle's lazy view of the pool at ``now``.

        A query, like :meth:`snapshots`. Direct mode builds a startd's
        snapshot on first touch; store mode copies its stored ad.
        """
        if self._use_store:
            return LiveCycleView.of_ads(self, self.snapshots(now))
        self._drain(now)
        return LiveCycleView(self, self._free, self._offered, Startd.snapshot)

    def __len__(self) -> int:
        return len(self._startds)

    def __repr__(self) -> str:
        dead = len(self._dead)
        return f"<Collector nodes={len(self._startds)} dead={dead}>"


class LiveCycleView:
    """One negotiation cycle's lazy window onto the pool, in every mode.

    ``free`` names the offered nodes with a free host slot;
    ``entry(name)`` is an offered node's source (its startd, or its
    stored ad in fabric mode) or ``None``; ``build`` turns a source into
    the cycle's private snapshot. Snapshots and machine ads are built on
    first use and cached for the cycle, shared between the candidate
    scan and the pin lookup so deductions land on one object per node,
    and a cycle that probes nothing builds nothing. Restricting
    candidates to free-slot nodes, and dropping a node once the cycle's
    deductions fill it, is decision-identical to the historical full
    scan because the negotiator only full-scans Requirements that
    conjoin ``TARGET.FreeSlots >= 1`` (only the per-cycle evaluation
    *count* observed by the profiler shrinks).
    """

    __slots__ = ("_collector", "_free", "_entry", "_build", "_snaps", "_ads",
                 "_candidates")

    def __init__(self, collector: Collector, free: Collection[str],
                 entry: Callable, build: Callable) -> None:
        self._collector = collector
        self._free = free
        self._entry = entry
        self._build = build
        self._snaps: dict[str, MachineSnapshot] = {}
        self._ads: dict[int, object] = {}
        self._candidates: Optional[list[MachineSnapshot]] = None

    @classmethod
    def of_ads(
        cls, collector: Collector, ads: list[MachineSnapshot]
    ) -> "LiveCycleView":
        """A view over stored machine ads (a snapshot response), which
        it never mutates: it copies an ad only when a probe touches it."""
        by_name = {ad.node: ad for ad in ads}
        free = [ad.node for ad in ads if ad.free_slots > 0]
        return cls(collector, free, by_name.get, copy_snapshot)

    def fresh(self) -> "LiveCycleView":
        """The same pool state with nothing built: the next cycle's view."""
        return LiveCycleView(
            self._collector, self._free, self._entry, self._build
        )

    def _snapshot_of(self, name: str) -> Optional[MachineSnapshot]:
        snap = self._snaps.get(name)
        if snap is None:
            source = self._entry(name)
            if source is None:
                return None
            snap = self._build(source)
            self._snaps[name] = snap
        return snap

    def candidates(self) -> list[MachineSnapshot]:
        """Snapshots of offered free-slot nodes, in registration order,
        less those this cycle's deductions have filled."""
        if self._candidates is None:
            names = sorted(self._free, key=self._collector._reg_index.get)
            # A snapshot built before the list (a pin probe's) may have
            # been filled by this cycle's deductions already.
            snaps = [self._snapshot_of(name) for name in names]
            self._candidates = [s for s in snaps if s.free_slots > 0]
        return self._candidates

    def note_deduction(self, snapshot: MachineSnapshot) -> None:
        """Drop ``snapshot`` from the candidates once a deduction has
        taken its last free slot: from then on it can only fail
        ``TARGET.FreeSlots >= 1``. The list is the view's own; the free
        set it was built from is never touched. Before the list exists
        there is nothing to drop: building it skips filled snapshots."""
        if snapshot.free_slots > 0 or self._candidates is None:
            return
        candidates = self.candidates()
        for i, candidate in enumerate(candidates):
            if candidate is snapshot:
                del candidates[i]
                return

    def any_free_slot(self) -> bool:
        """Whether some candidate still has a free host slot — answered
        from the free set and the snapshots already built, building none."""
        snaps = self._snaps
        for name in self._free:
            snap = snaps.get(name)
            if snap is None or snap.free_slots > 0:
                return True
        return False

    def lookup(self, key: str):
        """Pin lookup: snapshot, ``None`` (miss) or AMBIGUOUS_NAME.

        Resolves through the collector's static name map. A miss proves
        no offered machine advertises the name; a hit is the only
        machine that can satisfy ``TARGET.Name == <literal>``. Full
        nodes resolve too: the pin probe then fails on ``FreeSlots >= 1``.
        """
        entry = self._collector._name_map.get(key)
        if entry is None or entry is AMBIGUOUS_NAME:
            return entry
        return self._snapshot_of(entry.name)

    def ad(self, snapshot: MachineSnapshot):
        """The (cached) live machine-ad view for ``snapshot``."""
        view = self._ads.get(id(snapshot))
        if view is None:
            view = machine_ad(snapshot)
            self._ads[id(snapshot)] = view
        return view
