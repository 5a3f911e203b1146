"""Builders for the job and machine ClassAds the integration exchanges.

Mirrors §IV-D1: each compute node advertises its Phi device count and
memory, read from its executor's device states; each job's submit file
requests a number of Phi devices, memory and threads. The external
knapsack scheduler later *rewrites* job Requirements to pin the job to
the node it selected (``Name == "<slot>@<node>"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..workloads.profiles import JobProfile
from .classad import MISSING, ClassAd, Expr, Literal, Value, parse


def slot_name(node: str) -> str:
    """The advertised slot name for a node (Condor's ``slot1@host``)."""
    return f"slot1@{node}"


def pin_requirements(node: str) -> str:
    """The Requirements rewrite that pins a job to ``node``.

    This is the §IV-D qedit payload; the negotiator's pin analysis
    (:func:`repro.condor.compile.requirements_plan`) recognizes exactly
    this shape and routes the job through the collector's name index.
    """
    return f'TARGET.Name == "{slot_name(node)}" && TARGET.FreeSlots >= 1'


@dataclass(slots=True)
class DeviceSnapshot:
    """Negotiation-time view of one coprocessor on a node."""

    index: int
    memory_mb: float
    free_declared_mb: float
    resident_jobs: int
    hardware_threads: int
    claimed_exclusive: bool
    #: The card is down (failed or resetting); unplaceable until restored.
    failed: bool = False


@dataclass(slots=True)
class MachineSnapshot:
    """Negotiation-time view of one compute node (all its slots).

    The negotiator *deducts* from this snapshot as it matches jobs within
    a cycle, exactly like Condor's resource deduction during negotiation.
    """

    node: str
    total_slots: int
    free_slots: int
    devices: list[DeviceSnapshot] = field(default_factory=list)

    @property
    def devices_free(self) -> int:
        """Devices with no exclusive claim (the MC baseline's resource)."""
        return sum(
            1 for d in self.devices if not d.claimed_exclusive and not d.failed
        )

    def first_free_device(self) -> Optional[DeviceSnapshot]:
        """Exclusive placement: lowest-index unclaimed device."""
        for device in self.devices:
            if (
                not device.claimed_exclusive
                and not device.failed
                and device.resident_jobs == 0
            ):
                return device
        return None


def copy_snapshot(snapshot: MachineSnapshot) -> MachineSnapshot:
    """A deep-enough copy for negotiation-time deduction.

    Fabric mode hands the negotiator snapshots that live in the
    collector's store (and may serve several cycles); deduction must
    mutate a private copy, not the stored ad.
    """
    return MachineSnapshot(
        node=snapshot.node,
        total_slots=snapshot.total_slots,
        free_slots=snapshot.free_slots,
        devices=[
            DeviceSnapshot(
                index=d.index,
                memory_mb=d.memory_mb,
                free_declared_mb=d.free_declared_mb,
                resident_jobs=d.resident_jobs,
                hardware_threads=d.hardware_threads,
                claimed_exclusive=d.claimed_exclusive,
                failed=d.failed,
            )
            for d in snapshot.devices
        ],
    )


def job_ad(
    profile: JobProfile, sharing: bool = True, memory_aware: bool = True
) -> ClassAd:
    """Build the submit-file ClassAd for ``profile``.

    ``sharing=False`` produces the baseline (MC) request: the job insists
    on a whole free coprocessor, reproducing the exclusive-allocation
    policy.

    ``sharing=True, memory_aware=True`` additionally requires the
    advertised *free* device memory to cover the declaration (Condor
    deducts PhiFreeMemory during negotiation, so the cluster never
    overcommits declarations). With ``memory_aware=False`` the job only
    needs a free host slot — the paper's MCC, where jobs are "packed
    arbitrarily" and COSMIC alone prevents oversubscription by queueing
    them at the node.
    """
    ad = ClassAd(
        {
            "JobId": profile.job_id,
            "App": profile.app,
            "QDate": profile.submit_time,
            "RequestPhiDevices": 1,
            "RequestPhiMemory": float(profile.declared_memory_mb),
            "RequestPhiThreads": int(profile.declared_threads),
            "JobStatus": "Idle",
        }
    )
    if sharing and memory_aware:
        ad.set_expr(
            "Requirements",
            "TARGET.PhiDevices >= MY.RequestPhiDevices"
            " && MY.RequestPhiMemory <= TARGET.PhiFreeMemory"
            " && TARGET.FreeSlots >= 1",
        )
    elif sharing:
        ad.set_expr(
            "Requirements",
            "TARGET.PhiDevices >= MY.RequestPhiDevices"
            " && MY.RequestPhiMemory <= TARGET.PhiMemory"
            " && TARGET.FreeSlots >= 1",
        )
    else:
        ad.set_expr(
            "Requirements",
            "TARGET.PhiDevicesFree >= MY.RequestPhiDevices"
            " && MY.RequestPhiMemory <= TARGET.PhiMemory"
            " && TARGET.FreeSlots >= 1",
        )
    return ad


# -- live machine-ad views ---------------------------------------------------
#
# The negotiator deducts from a MachineSnapshot as it matches jobs within
# a cycle. Earlier versions rebuilt (or cache-looked-up) a whole dict ad
# after every deduction; the view below instead stores the attributes no
# deduction writes as literals when it is made, and *computes* the three
# that ``PlacementPolicy.deduct`` changes (FreeSlots, PhiDevicesFree,
# PhiFreeMemory) from the snapshot at read time, so a deduction is
# visible to the very next probe with zero rebuild cost. Failed cards are
# invisible: excluded from the device counts and the advertised memory,
# so matchmaking never routes a job to a node whose only cards are down.


def _phi_memory(snapshot: MachineSnapshot) -> float:
    return float(
        max((d.memory_mb for d in snapshot.devices if not d.failed), default=0.0)
    )


def _phi_free_memory(snapshot: MachineSnapshot) -> float:
    return float(
        max(
            (d.free_declared_mb for d in snapshot.devices if not d.failed),
            default=0.0,
        )
    )


#: Machine attributes fixed for a view's life, keyed lowercase.
_FIXED: dict[str, Callable[[MachineSnapshot], Value]] = {
    "name": lambda s: slot_name(s.node),
    "machine": lambda s: s.node,
    "totalslots": lambda s: s.total_slots,
    "phidevices": lambda s: sum(1 for d in s.devices if not d.failed),
    "phimemory": _phi_memory,
}

#: Machine attributes a deduction changes, read from the snapshot.
_LIVE: dict[str, Callable[[MachineSnapshot], Value]] = {
    "freeslots": lambda s: s.free_slots,
    "phidevicesfree": lambda s: s.devices_free,
    "phifreememory": _phi_free_memory,
}

#: Every machine attribute in advertised order, keyed lowercase.
_DISPLAY = {
    "name": "Name",
    "machine": "Machine",
    "totalslots": "TotalSlots",
    "freeslots": "FreeSlots",
    "phidevices": "PhiDevices",
    "phidevicesfree": "PhiDevicesFree",
    "phimemory": "PhiMemory",
    "phifreememory": "PhiFreeMemory",
}

#: One shared AST for every machine's Requirements: machines accept any
#: job whose declared memory fits one card.
_MACHINE_REQUIREMENTS: Expr = parse("TARGET.RequestPhiMemory <= MY.PhiMemory")


class MachineAdView(ClassAd):
    """A node's advertised ClassAd as a live view over its snapshot.

    Behaves exactly like the dict ad it replaces — same attributes, same
    values, same Requirements — except that FreeSlots, PhiDevicesFree
    and PhiFreeMemory read the snapshot's *current* state, so the
    negotiator's deduct-then-rematch loop needs no rebuild. Name,
    Machine, TotalSlots, PhiDevices and PhiMemory are stored as literals
    when the view is made: no deduction writes them, and a cycle's view
    lives no longer than its snapshot. Explicitly stored attributes (via
    ``__setitem__`` / ``set_expr``) shadow both kinds, matching
    plain-ClassAd override semantics.

    ``_display`` names the explicitly stored attributes (Requirements
    first) in the order they were set; ``_attrs`` holds those plus the
    fixed literals an explicit set has not replaced.
    """

    def __init__(self, snapshot: MachineSnapshot) -> None:
        super().__init__()
        self._snapshot = snapshot
        self._attrs["requirements"] = _MACHINE_REQUIREMENTS
        self._display["requirements"] = "Requirements"
        for key, fn in _FIXED.items():
            self._attrs[key] = Literal(fn(snapshot))

    def raw(self, key: str):
        expr = self._attrs.get(key)
        if expr is not None:
            return expr.value if type(expr) is Literal else expr
        fn = _LIVE.get(key)
        if fn is not None:
            return fn(self._snapshot)
        return MISSING

    def get_expr(self, name: str):
        key = name.lower()
        expr = self._attrs.get(key)
        if expr is not None:
            return expr
        fn = _LIVE.get(key)
        if fn is not None:
            return Literal(fn(self._snapshot))
        return None

    def evaluate(self, name: str, target=None):
        key = name.lower()
        if key not in self._attrs:
            fn = _LIVE.get(key)
            if fn is not None:
                return fn(self._snapshot)
        return super().evaluate(name, target)

    def __contains__(self, name: str) -> bool:
        key = name.lower()
        return key in self._attrs or key in _LIVE

    def __delitem__(self, name: str) -> None:
        # Only an explicit set can be deleted; the machine's own value
        # shows through again.
        key = name.lower()
        del self._display[key]
        del self._attrs[key]
        fn = _FIXED.get(key)
        if fn is not None:
            self._attrs[key] = Literal(fn(self._snapshot))

    def keys(self) -> list[str]:
        names = [_DISPLAY[k] for k in _DISPLAY if k not in self._display]
        names.extend(self._display.values())
        return names

    def copy(self) -> ClassAd:
        # Materialize: a copy is a plain ad frozen at the current state.
        dup = ClassAd()
        for key, display in _DISPLAY.items():
            if key not in self._display:
                dup[display] = self.raw(key)
        for key, display in self._display.items():
            dup._attrs[key] = self._attrs[key]
            dup._display[key] = display
        return dup


def machine_ad(snapshot: MachineSnapshot) -> ClassAd:
    """A node's advertised ClassAd, as a live view over the snapshot."""
    return MachineAdView(snapshot)
