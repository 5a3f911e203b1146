"""Unit tests for placement policies, machine/job ads, and negotiation."""

import dataclasses
import hashlib
import random

import pytest

from repro.cluster import ComputeNode, run_configuration, simulation
from repro.condor import (
    BestFitPlacement,
    ClassAd,
    Collector,
    CondorPool,
    DeviceSnapshot,
    ExclusivePlacement,
    MachineSnapshot,
    Negotiator,
    PinnedPlacement,
    RandomPlacement,
    Schedd,
    Startd,
    job_ad,
    machine_ad,
    pin_requirements,
    set_compilation,
    symmetric_match,
)
from repro.condor.classad import Literal, matcher
from repro.condor.collector import AMBIGUOUS_NAME, LiveCycleView
from repro.condor.compile import requirements_plan
from repro.condor.negotiator import CycleStats
from repro.condor.schedd import NEGOTIATED, Transition
from repro.experiments.common import PAPER_CLUSTER, make_workload
from repro.net.profile import NetProfile
from repro.sim import Environment
from repro.sim import profile as sim_profile
from repro.workloads import HostPhase, JobProfile, OffloadPhase


def make_profile(job_id="j", memory=1000.0, threads=60):
    return JobProfile(
        job_id=job_id,
        app="t",
        phases=(HostPhase(1), OffloadPhase(work=1, threads=threads,
                                           memory_mb=memory)),
        declared_memory_mb=memory,
        declared_threads=threads,
    )


def snapshot(node="n0", free_slots=4, free_mb=8192.0, resident=0,
             claimed=False):
    return MachineSnapshot(
        node=node,
        total_slots=16,
        free_slots=free_slots,
        devices=[
            DeviceSnapshot(
                index=0, memory_mb=8192.0, free_declared_mb=free_mb,
                resident_jobs=resident, hardware_threads=240,
                claimed_exclusive=claimed,
            )
        ],
    )


class _ListView:
    """The slice of the cycle view ExclusivePlacement and the prefilters
    read."""

    def __init__(self, snapshots):
        self._snapshots = snapshots

    def candidates(self):
        return self._snapshots


class _FakeRecord:
    def __init__(self, profile, ad):
        self.profile = profile
        self.ad = ad


def record(memory=1000.0, sharing=True, memory_aware=True):
    profile = make_profile(memory=memory)
    return _FakeRecord(profile, job_ad(profile, sharing, memory_aware))


def two_card_snapshot():
    snap = snapshot()
    snap.devices.append(dataclasses.replace(snap.devices[0], index=1))
    return snap


def apply_sets(ad, sets):
    """Apply ``("set", name, value)`` / ``("expr", name, text)`` writes."""
    for kind, name, value in sets:
        if kind == "set":
            ad[name] = value
        else:
            ad.set_expr(name, value)
    return ad


def materialized_ad(snap, sets=()):
    """A machine ad's copy as it was made when every advertised
    attribute was computed from the snapshot at read time: the attributes
    no set shadows, in advertised order, then Requirements and the sets."""
    usable = [d for d in snap.devices if not d.failed]
    advertised = {
        "Name": f"slot1@{snap.node}",
        "Machine": snap.node,
        "TotalSlots": snap.total_slots,
        "FreeSlots": snap.free_slots,
        "PhiDevices": len(usable),
        "PhiDevicesFree": snap.devices_free,
        "PhiMemory": float(max((d.memory_mb for d in usable), default=0.0)),
        "PhiFreeMemory": float(
            max((d.free_declared_mb for d in usable), default=0.0)
        ),
    }
    shadowed = {name.lower() for _kind, name, _value in sets}
    ad = ClassAd()
    for name, value in advertised.items():
        if name.lower() not in shadowed:
            ad[name] = value
    ad.set_expr("Requirements", "TARGET.RequestPhiMemory <= MY.PhiMemory")
    return apply_sets(ad, sets)


def attribute(ad, name):
    """An attribute as comparable data: a literal's type and value, or
    the expression object itself."""
    expr = ad.get_expr(name)
    if type(expr) is Literal:
        return type(expr.value), expr.value
    return expr


class TestAds:
    def test_machine_ad_attributes(self):
        ad = machine_ad(snapshot(free_slots=3, free_mb=5000))
        assert ad.evaluate("Machine") == "n0"
        assert ad.evaluate("Name") == "slot1@n0"
        assert ad.evaluate("FreeSlots") == 3
        assert ad.evaluate("PhiFreeMemory") == 5000.0
        assert ad.evaluate("PhiDevicesFree") == 1

    def test_exclusive_claim_lowers_devices_free(self):
        ad = machine_ad(snapshot(claimed=True))
        assert ad.evaluate("PhiDevicesFree") == 0

    def test_sharing_memory_aware_job_matches_only_with_free_memory(self):
        rec = record(memory=4000, memory_aware=True)
        assert symmetric_match(rec.ad, machine_ad(snapshot(free_mb=5000)))
        assert not symmetric_match(rec.ad, machine_ad(snapshot(free_mb=3000)))

    def test_sharing_unaware_job_ignores_free_memory(self):
        rec = record(memory=4000, memory_aware=False)
        assert symmetric_match(rec.ad, machine_ad(snapshot(free_mb=0)))

    def test_exclusive_job_needs_free_device(self):
        rec = record(sharing=False)
        assert symmetric_match(rec.ad, machine_ad(snapshot()))
        assert not symmetric_match(rec.ad, machine_ad(snapshot(claimed=True)))

    def test_all_jobs_need_free_slot(self):
        for kwargs in (dict(sharing=True), dict(sharing=False),
                       dict(sharing=True, memory_aware=False)):
            rec = record(**kwargs)
            assert not symmetric_match(rec.ad, machine_ad(snapshot(free_slots=0)))

    def test_machine_rejects_oversized_job(self):
        rec = record(memory=1000)
        machine = machine_ad(snapshot())
        assert symmetric_match(rec.ad, machine)
        # A job bigger than the card is refused by the machine's own
        # Requirements even if the job didn't check.
        big = record(memory=9000, memory_aware=False)
        assert not symmetric_match(big.ad, machine)

    def test_machine_ad_is_a_live_view(self):
        # Deductions show through without rebuilding the ad.
        snap = snapshot(free_slots=3, free_mb=5000)
        ad = machine_ad(snap)
        assert ad.evaluate("FreeSlots") == 3
        snap.free_slots -= 1
        snap.devices[0].free_declared_mb -= 2000.0
        assert ad.evaluate("FreeSlots") == 2
        assert ad.evaluate("PhiFreeMemory") == 3000.0

    def test_live_view_drives_rematch_after_deduction(self):
        snap = snapshot(free_mb=5000)
        ad = machine_ad(snap)
        rec = record(memory=4000, memory_aware=True)
        assert symmetric_match(rec.ad, ad)
        RandomPlacement(random.Random(0)).deduct(snap, 0, False, 4000.0)
        assert not symmetric_match(rec.ad, ad)

    def test_failed_devices_invisible_in_view(self):
        snap = snapshot()
        snap.devices[0].failed = True
        ad = machine_ad(snap)
        assert ad.evaluate("PhiDevices") == 0
        assert ad.evaluate("PhiMemory") == 0.0
        assert ad.evaluate("PhiFreeMemory") == 0.0

    def test_view_copy_freezes_current_state(self):
        snap = snapshot(free_slots=3)
        frozen = machine_ad(snap).copy()
        snap.free_slots = 0
        assert frozen.evaluate("FreeSlots") == 3
        assert frozen.evaluate("Requirements", record().ad) is True

    def test_view_mapping_protocol(self):
        ad = machine_ad(snapshot())
        assert "FreeSlots" in ad
        assert "Requirements" in ad
        assert "Nope" not in ad
        assert set(ad.keys()) == {
            "Name", "Machine", "TotalSlots", "FreeSlots", "PhiDevices",
            "PhiDevicesFree", "PhiMemory", "PhiFreeMemory", "Requirements",
        }

    def test_explicit_set_shadows_computed(self):
        ad = machine_ad(snapshot(free_slots=4))
        ad["FreeSlots"] = 0
        assert ad.evaluate("FreeSlots") == 0

    def test_exclusive_deduction_shows_in_devices_free(self):
        snap = two_card_snapshot()
        ad = machine_ad(snap)
        assert ad.evaluate("PhiDevicesFree") == 2
        policy = ExclusivePlacement()
        policy.deduct(snap, 0, True, 1000.0)
        assert ad.evaluate("PhiDevicesFree") == 1
        assert ad.evaluate("FreeSlots") == 3
        policy.deduct(snap, 1, True, 1000.0)
        assert ad.evaluate("PhiDevicesFree") == 0
        assert not symmetric_match(record(sharing=False).ad, ad)

    @pytest.mark.parametrize("sets", [
        (),
        (("set", "FreeSlots", 0), ("expr", "Requirements", "true")),
        (("set", "PhiMemory", 123.0), ("set", "Extra", "x"),
         ("set", "name", "slot1@other")),
    ])
    def test_view_copy_equals_the_materialized_ad(self, sets):
        snap = two_card_snapshot()
        snap.devices[1].failed = True
        view = apply_sets(machine_ad(snap), sets)
        RandomPlacement(random.Random(0)).deduct(snap, 0, False, 2000.0)
        expected = materialized_ad(snap, sets)
        for ad in (view, view.copy()):
            assert ad.keys() == expected.keys()
            for name in expected.keys():
                assert name in ad
                assert attribute(ad, name) == attribute(expected, name)

    def test_deleting_an_explicit_set_shows_the_machine_value(self):
        snap = snapshot()
        ad = machine_ad(snap)
        with pytest.raises(KeyError):
            del ad["PhiMemory"]
        ad["PhiMemory"] = 1.0
        del ad["PhiMemory"]
        assert ad.evaluate("PhiMemory") == 8192.0
        assert ad.keys() == machine_ad(snap).keys()


class TestExclusivePlacement:
    def test_first_fit(self):
        policy = ExclusivePlacement()
        snaps = [snapshot("n0", claimed=True), snapshot("n1")]
        placement = policy.place(record(sharing=False), snaps)
        assert placement is not None
        chosen, device, exclusive = placement
        assert chosen.node == "n1"
        assert exclusive is True

    def test_skips_busy_devices(self):
        policy = ExclusivePlacement()
        snaps = [snapshot("n0", resident=1)]
        assert policy.place(record(sharing=False), snaps) is None

    def test_exhausted(self):
        policy = ExclusivePlacement()
        assert policy.exhausted(_ListView([snapshot(claimed=True)]))
        assert policy.exhausted(_ListView([snapshot(free_slots=0)]))
        assert not policy.exhausted(_ListView([snapshot()]))

    def test_deduct_marks_claim(self):
        policy = ExclusivePlacement()
        snap = snapshot()
        policy.deduct(snap, 0, True, 1000)
        assert snap.free_slots == 3
        assert snap.devices[0].claimed_exclusive


class TestRandomPlacement:
    def test_uniform_choice_is_seeded(self):
        snaps = [snapshot(f"n{i}") for i in range(4)]
        a = RandomPlacement(random.Random(5)).place(record(), list(snaps))
        b = RandomPlacement(random.Random(5)).place(record(), list(snaps))
        assert a[0].node == b[0].node

    def test_memory_aware_filters_devices(self):
        policy = RandomPlacement(random.Random(0), memory_aware=True)
        snaps = [snapshot("n0", free_mb=100), snapshot("n1", free_mb=5000)]
        placement = policy.place(record(memory=4000), snaps)
        assert placement[0].node == "n1"

    def test_unaware_ignores_memory(self):
        policy = RandomPlacement(random.Random(0), memory_aware=False)
        snaps = [snapshot("n0", free_mb=0)]
        assert policy.place(record(memory=4000), snaps) is not None

    def test_no_free_slots_returns_none(self):
        policy = RandomPlacement(random.Random(0))
        assert policy.place(record(), [snapshot(free_slots=0)]) is None

    def test_prefilter(self):
        aware = RandomPlacement(random.Random(0), memory_aware=True)
        assert not aware.prefilter(record(memory=4000),
                                   _ListView([snapshot(free_mb=100)]))
        assert aware.prefilter(record(memory=4000),
                               _ListView([snapshot(free_mb=5000)]))
        unaware = RandomPlacement(random.Random(0), memory_aware=False)
        assert unaware.prefilter(record(memory=4000),
                                 _ListView([snapshot(free_mb=100)]))

    def test_deduct_updates_shared_device(self):
        policy = RandomPlacement(random.Random(0))
        snap = snapshot(free_mb=5000)
        policy.deduct(snap, 0, False, 2000)
        assert snap.devices[0].free_declared_mb == 3000
        assert snap.devices[0].resident_jobs == 1
        assert snap.free_slots == 3

    @pytest.mark.parametrize("seed", range(100))
    def test_place_draws_as_listing_every_node(self, seed):
        rng = random.Random(seed)
        for memory_aware in (False, True):
            policy = RandomPlacement(random.Random(seed), memory_aware)
            oracle = RandomPlacement(random.Random(seed), memory_aware)
            for _ in range(20):
                snaps = random_snapshots(rng, rng.randint(0, 6))
                rec = record(memory=rng.choice((500.0, 3000.0, 7000.0)))
                placed = policy.place(rec, snaps)
                expected = place_listing_every_node(oracle, rec, snaps)
                assert placed == expected
                assert placed is None or placed[0] is expected[0]
                assert policy.rng.getstate() == oracle.rng.getstate()
                best = BestFitPlacement()
                assert best.place(rec, snaps) == best_fit_by_slack(rec, snaps)
                view = _ListView(snaps)
                for candidate in (policy, best):
                    assert candidate.prefilter(rec, view) == any_device_fits(
                        rec, snaps, candidate.memory_aware
                    )


def random_snapshots(rng, count):
    """Nodes with 1-3 cards each, some failed, claimed or filled."""
    return [
        MachineSnapshot(
            node=f"n{i}",
            total_slots=4,
            free_slots=rng.choice((0, 1, 1, 2, 4)),
            devices=[
                DeviceSnapshot(
                    index=k,
                    memory_mb=8192.0,
                    free_declared_mb=rng.choice((0.0, 1000.0, 3000.0, 8192.0)),
                    resident_jobs=rng.randint(0, 3),
                    hardware_threads=240,
                    claimed_exclusive=rng.random() < 0.2,
                    failed=rng.random() < 0.2,
                )
                for k in range(rng.randint(1, 3))
            ],
        )
        for i in range(count)
    ]


def place_listing_every_node(policy, record, candidates):
    """``RandomPlacement.place`` as it was: it listed the fitting devices
    of every viable node before drawing one node, then one device."""
    declared = record.profile.declared_memory_mb
    viable = []
    for snapshot in candidates:
        if snapshot.free_slots <= 0:
            continue
        fitting = [
            d
            for d in snapshot.devices
            if not d.claimed_exclusive
            and not d.failed
            and (not policy.memory_aware or d.free_declared_mb >= declared)
        ]
        if fitting:
            viable.append((snapshot, fitting))
    if not viable:
        return None
    snapshot, fitting = policy.rng.choice(viable)
    device = policy.rng.choice(fitting)
    return snapshot, device.index, False


def best_fit_by_slack(record, candidates):
    """``BestFitPlacement.place`` as it was, with its own fit test."""
    declared = record.profile.declared_memory_mb
    best = None
    for snapshot in candidates:
        if snapshot.free_slots <= 0:
            continue
        for device in snapshot.devices:
            if device.claimed_exclusive or device.failed:
                continue
            slack = device.free_declared_mb - declared
            if slack < 0:
                continue
            if best is None or slack < best[0]:
                best = (slack, snapshot, device)
    if best is None:
        return None
    return best[1], best[2].index, False


def any_device_fits(record, candidates, memory_aware):
    """The prefilters as they were, inline."""
    declared = record.profile.declared_memory_mb
    return any(
        s.free_slots > 0
        and any(
            not d.claimed_exclusive
            and not d.failed
            and (not memory_aware or d.free_declared_mb >= declared)
            for d in s.devices
        )
        for s in candidates
    )


def two_evaluations(left, right):
    """The symmetric rule as two ``ClassAd.evaluate`` calls."""
    return (
        left.evaluate("Requirements", right) is True
        and right.evaluate("Requirements", left) is True
    )


def random_job_ad(rng):
    """An MC, MCC or memory-aware submit ad, or one whose Requirements is
    missing, a literal, or reads an expression-valued RequestPhiMemory."""
    ad = job_ad(
        make_profile(memory=rng.choice((500.0, 3000.0, 7000.0, 9000.0))),
        sharing=rng.random() < 0.75,
        memory_aware=rng.random() < 0.5,
    )
    shape = rng.randrange(6)
    if shape == 0:
        del ad["Requirements"]
    elif shape == 1:
        ad["Requirements"] = rng.choice((True, False, 1, "true"))
    elif shape == 2:
        ad["Base"] = rng.choice((250, 1500, 4500))
        ad.set_expr("RequestPhiMemory", "MY.Base * 2")
    return ad


#: Explicit writes a machine view may carry, shadowing what it computes.
MACHINE_SETS = (
    (),
    (("expr", "Requirements", "TARGET.RequestPhiMemory <= 2000"),),
    (("expr", "Requirements", "true"),),
    (("set", "PhiMemory", 2500.0),),
    (("set", "PhiMemory", 2500.0), ("set", "FreeSlots", 1)),
)


@pytest.fixture(params=[True, False], ids=["compiled", "interpreted"])
def compilation(request):
    set_compilation(request.param)
    yield request.param
    set_compilation(True)


@pytest.mark.parametrize("seed", range(40))
def test_matcher_agrees_with_fresh_views_across_deductions(seed, compilation):
    rng = random.Random(seed)
    snaps = random_snapshots(rng, 6)
    sets = [rng.choice(MACHINE_SETS) for _ in snaps]
    views = [apply_sets(machine_ad(s), w) for s, w in zip(snaps, sets)]
    jobs = [random_job_ad(rng) for _ in range(8)]
    policies = (RandomPlacement(rng), ExclusivePlacement())
    for _round in range(6):
        for job in jobs:
            matches = matcher(job)
            fresh = [apply_sets(machine_ad(s), w) for s, w in zip(snaps, sets)]
            verdicts = [matches(view) for view in views]
            assert verdicts == [two_evaluations(job, f) for f in fresh]
            assert verdicts == [symmetric_match(job, f) for f in fresh]
        # A deduction between probes, as a cycle makes after a match.
        snap = rng.choice(snaps)
        device = rng.choice(snap.devices)
        policy = rng.choice(policies)
        policy.deduct(snap, device.index, policy is policies[1],
                      rng.choice((500.0, 3000.0)))


def _pool(env, policy, nodes=3, slots=4):
    schedd = Schedd(env)
    collector = Collector()
    for i in range(nodes):
        collector.register(
            Startd(env, schedd, ComputeNode(env, f"n{i}", mode="cosmic"),
                   slots=slots)
        )
    negotiator = Negotiator(env, schedd, collector, policy)
    return schedd, collector, negotiator


class TestNegotiatorRouting:
    def test_pinned_jobs_take_the_index_path(self):
        env = Environment()
        schedd, _, negotiator = _pool(env, PinnedPlacement())
        for i in range(4):
            schedd.submit(make_profile(f"j{i}"))
            schedd.qedit(f"j{i}", "Requirements", pin_requirements(f"n{i % 3}"))
        assert negotiator.negotiate_once() == 4
        stats = negotiator.last_cycle
        assert stats.pin_routed == 4
        assert stats.full_scans == 0
        assert stats.evals == 4  # one probe per job, not one per machine
        assert stats.examined == 4
        assert stats.matched == 4
        assert [schedd.get(f"j{i}").matched_node for i in range(4)] \
            == ["n0", "n1", "n2", "n0"]

    def test_index_routing_matches_a_reference_full_scan(self):
        env = Environment()
        schedd, collector, negotiator = _pool(env, PinnedPlacement(),
                                              slots=2)
        pins = ["n0", "n0", "n0", "n1", "n2"]
        for i, node in enumerate(pins):
            schedd.submit(make_profile(f"j{i}"))
            schedd.qedit(f"j{i}", "Requirements", pin_requirements(node))
        # Reference: FIFO symmetric matchmaking against every machine,
        # deducting as it goes (slots=2, so the third pin to n0 finds it
        # full).
        policy = PinnedPlacement()
        snapshots = collector.snapshots()
        ads = [machine_ad(s) for s in snapshots]
        expected = []
        for i in range(5):
            record = schedd.get(f"j{i}")
            matched = [s for s, ad in zip(snapshots, ads)
                       if symmetric_match(record.ad, ad)]
            placement = policy.place(record, matched)
            if placement is None:
                expected.append(None)
                continue
            snap, device, exclusive = placement
            policy.deduct(snap, device, exclusive,
                          record.profile.declared_memory_mb)
            expected.append(snap.node)
        negotiator.negotiate_once()
        stats = negotiator.last_cycle
        assert stats.pin_routed == 5
        assert stats.full_scans == 0
        assert [schedd.get(f"j{i}").matched_node for i in range(5)] \
            == expected == ["n0", "n0", None, "n1", "n2"]

    @pytest.mark.parametrize("mode", ["direct", "heartbeat", "fabric"])
    def test_cycle_that_probes_nothing_builds_nothing(self, mode, monkeypatch):
        env = Environment()
        nodes = [ComputeNode(env, f"n{i}", mode="cosmic") for i in range(4)]
        pool = CondorPool(
            env, nodes, PinnedPlacement(), slots_per_node=4,
            heartbeat_timeout=90.0 if mode == "heartbeat" else None,
            net=NetProfile() if mode == "fabric" else None,
        )
        for startd in pool.startds:
            pool.collector.record_heartbeat(startd.name, 0.0)
        pool.start()
        env.run(until=1.0)  # fabric: the first snapshot response lands
        pool.submit([make_profile("parked")])
        pool.schedd.qedit("parked", "Requirements", "false")
        touched = []
        snapshot_of = LiveCycleView._snapshot_of
        monkeypatch.setattr(
            LiveCycleView, "_snapshot_of",
            lambda view, name: touched.append(name) or snapshot_of(view, name),
        )
        assert pool.negotiator.negotiate_once() == 0
        assert pool.negotiator.last_cycle.parked == 1
        assert touched == []

    def test_pinned_cycle_builds_only_the_pinned_node(self, monkeypatch):
        env = Environment()
        schedd, _, negotiator = _pool(env, PinnedPlacement(), nodes=4)
        schedd.submit(make_profile("pinned"))
        schedd.qedit("pinned", "Requirements", pin_requirements("n2"))
        touched = []
        snapshot_of = LiveCycleView._snapshot_of
        monkeypatch.setattr(
            LiveCycleView, "_snapshot_of",
            lambda view, name: touched.append(name) or snapshot_of(view, name),
        )
        assert negotiator.negotiate_once() == 1
        assert touched == ["n2"]

    def test_walk_reads_only_the_offered_jobs(self):
        env = Environment()
        schedd, _, negotiator = _pool(env, PinnedPlacement())
        for i in range(10_003):
            schedd.submit(make_profile(f"j{i}"))
        pins = {5_000: "n0", 7_500: "n1", 10_002: "n2"}
        for i in range(10_003):
            schedd.qedit(f"j{i}", "Requirements",
                         pin_requirements(pins[i]) if i in pins else "false")
        prof = sim_profile.activate()
        try:
            assert negotiator.negotiate_once() == 3
        finally:
            sim_profile.deactivate()
        assert prof.jobs_walked == 3
        stats = negotiator.last_cycle
        assert stats.parked == 10_000
        assert stats.examined == stats.matched == 3

    def test_exhaustion_stops_the_queue_walk(self):
        env = Environment()
        schedd, _, negotiator = _pool(env, PinnedPlacement(), nodes=2,
                                      slots=1)
        for i in range(4):
            schedd.submit(make_profile(f"j{i}"))
            schedd.qedit(f"j{i}", "Requirements",
                         pin_requirements(f"n{i % 2}"))
        assert negotiator.negotiate_once() == 2
        # Both slots went to j0 and j1; the view then reports no free
        # slot, so j2 and j3 are never examined.
        assert negotiator.last_cycle.examined == 2

    def test_full_scan_counts_every_machine(self):
        env = Environment()
        schedd, _, negotiator = _pool(
            env, RandomPlacement(random.Random(0)), nodes=3,
        )
        schedd.submit(make_profile("j0"))
        assert negotiator.negotiate_once() == 1
        stats = negotiator.last_cycle
        assert stats.full_scans == 1
        assert stats.pin_routed == 0
        assert stats.evals == 3

    def test_filled_node_leaves_the_cycle_candidates(self):
        env = Environment()
        schedd = Schedd(env)
        collector = Collector()
        for name, slots in (("n0", 1), ("n1", 4)):
            collector.register(
                Startd(env, schedd, ComputeNode(env, name, mode="cosmic"),
                       slots=slots)
            )
        negotiator = Negotiator(env, schedd, collector,
                                RandomPlacement(random.Random(1)))
        for i in range(3):
            schedd.submit(make_profile(f"j{i}"))
        assert negotiator.negotiate_once() == 3
        assert [schedd.get(f"j{i}").matched_node for i in range(3)] \
            == ["n0", "n1", "n1"]
        # j0 probes both nodes and takes n0's only slot; j1 and j2 then
        # probe n1 alone (a view that kept n0 would count 6).
        stats = negotiator.last_cycle
        assert stats.full_scans == 3
        assert stats.evals == 2 + 1 + 1

    def test_full_scan_needs_the_free_slot_conjunct(self):
        env = Environment()
        schedd, _, negotiator = _pool(
            env, RandomPlacement(random.Random(0)), nodes=2,
        )
        schedd.submit(make_profile("pinned"))
        schedd.qedit("pinned", "Requirements", 'TARGET.Name == "slot1@n0"')
        # The pin route reads full nodes too, so it needs no such check.
        assert negotiator.negotiate_once() == 1
        schedd.submit(make_profile("loose"))
        schedd.qedit("loose", "Requirements", "TARGET.Memory > 0")
        with pytest.raises(ValueError, match="'loose'.*FreeSlots"):
            negotiator.negotiate_once()

    def test_pin_to_unknown_node_matches_nothing(self):
        env = Environment()
        schedd, _, negotiator = _pool(env, PinnedPlacement())
        schedd.submit(make_profile("ghost"))
        schedd.qedit("ghost", "Requirements", pin_requirements("nowhere"))
        assert negotiator.negotiate_once() == 0
        stats = negotiator.last_cycle
        assert stats.pin_routed == 1
        assert stats.evals == 0  # the index miss is the proof; no probes
        assert schedd.get("ghost").status == "Idle"

    def test_case_colliding_names_fall_back_to_scan(self):
        env = Environment()
        schedd, collector, negotiator = _pool(env, PinnedPlacement(), nodes=1)
        collector.register(
            Startd(env, schedd, ComputeNode(env, "N0", mode="cosmic"), slots=4)
        )
        _, index = collector.indexed_snapshots()
        assert index["slot1@n0"] is AMBIGUOUS_NAME
        schedd.submit(make_profile("j0"))
        schedd.qedit("j0", "Requirements", pin_requirements("n0"))
        assert negotiator.negotiate_once() == 1
        stats = negotiator.last_cycle
        assert stats.full_scans == 1
        assert stats.pin_routed == 0

    def test_accounting_is_a_coherent_partition(self):
        env = Environment()
        schedd, _, negotiator = _pool(
            env, RandomPlacement(random.Random(1), memory_aware=True), nodes=2,
        )
        schedd.submit(make_profile("ok", memory=1000))       # examined+matched
        schedd.submit(make_profile("big", memory=9000))      # prefiltered
        schedd.submit(make_profile("parked"))                # parked
        schedd.qedit("parked", "Requirements", "false")
        schedd.submit(make_profile("ok2", memory=1000))      # examined+matched
        matched = negotiator.negotiate_once()
        stats = negotiator.last_cycle
        assert matched == stats.matched == 2
        assert stats.parked == 1
        assert stats.prefiltered == 1
        assert stats.examined == 2
        # The partition covers exactly the pending queue walked.
        assert stats.parked + stats.prefiltered + stats.examined == 4
        assert stats.matched <= stats.examined

    def test_collector_index_covers_all_live_nodes(self):
        env = Environment()
        _, collector, _ = _pool(env, PinnedPlacement(), nodes=3)
        snapshots, index = collector.indexed_snapshots()
        assert len(snapshots) == 3
        assert sorted(index) == ["slot1@n0", "slot1@n1", "slot1@n2"]
        collector.deregister("n1")
        snapshots, index = collector.indexed_snapshots()
        assert sorted(index) == ["slot1@n0", "slot1@n2"]


class TestPinnedPlacement:
    def test_uses_assigned_device(self):
        policy = PinnedPlacement()
        rec = record()
        rec.ad["AssignedPhiDevice"] = 0
        placement = policy.place(rec, [snapshot("n2")])
        assert placement == (placement[0], 0, False)

    def test_defaults_device_zero_when_unset(self):
        policy = PinnedPlacement()
        placement = policy.place(record(), [snapshot()])
        assert placement[1] == 0

    def test_full_node_returns_none(self):
        policy = PinnedPlacement()
        assert policy.place(record(), [snapshot(free_slots=0)]) is None


#: SHA-256 of ``repr`` of every job's ``(job_id, node, device)`` in FIFO
#: order, for MCC on the paper's 8-node cluster with 200 normal jobs per
#: node (seed 42). Recorded before the idle queue kept its own FIFO
#: order and the cycle view dropped filled nodes; neither may move a
#: placement.
MCC_8X200_PLACEMENTS = (
    "e7aa0033249b802f6b437e465d35e3dc199eebb61ff27e714de18215072cc0c3"
)


def test_mcc_8x200_placements_match_the_golden_digest(monkeypatch):
    pools = []
    collect = simulation._collect

    def keep_pool(configuration, config, pool, *args, **kwargs):
        pools.append(pool)
        return collect(configuration, config, pool, *args, **kwargs)

    monkeypatch.setattr(simulation, "_collect", keep_pool)
    run_configuration(
        "MCC", make_workload(("synthetic", 1600, "normal", 42)), PAPER_CLUSTER
    )
    placements = [
        (r.job_id, r.matched_node, r.matched_device)
        for r in pools[0].schedd.all_records()
    ]
    assert len(placements) == 1600
    digest = hashlib.sha256(repr(placements).encode()).hexdigest()
    assert digest == MCC_8X200_PLACEMENTS


class _WalkAllNegotiator(Negotiator):
    """The cycle as it was before the idle queue was split: a walk over
    every idle job, parked ones included, that checks each record.

    The oracle for the split walk, which must decide and count exactly
    as this does. Observability hooks are left out.
    """

    def negotiate_once(self):
        self.cycles_run += 1
        stats = CycleStats()
        view = self.collector.live_view(self.env.now)
        policy = self.policy
        inflight = self._inflight
        exhausted = None
        pending = self.schedd.pending() if self.schedd.idle_jobs else ()
        for record in pending:
            if exhausted is None:
                exhausted = policy.exhausted(view)
            if exhausted:
                break
            if inflight and record.job_id in inflight:
                stats.in_flight += 1
                continue
            req = record.ad._attrs.get("requirements")
            if req is None:
                stats.parked += 1
                continue
            if type(req) is Literal and req.value is not True:
                stats.parked += 1
                continue
            plan = requirements_plan(req)
            if plan.never_matches:
                stats.parked += 1
                continue
            if not policy.prefilter(record, view):
                stats.prefiltered += 1
                continue
            stats.examined += 1
            placement = self._match(record, view, plan, stats)
            if placement is None:
                continue
            snapshot, device_index, exclusive = placement
            policy.deduct(snapshot, device_index, exclusive,
                          record.profile.declared_memory_mb)
            view.note_deduction(snapshot)
            exhausted = policy.exhausted(view)
            self.schedd.publish(
                Transition(NEGOTIATED, record.job_id, self.env.now,
                           node=snapshot.node, device=device_index,
                           exclusive=exclusive)
            )
            self.collector.startd(snapshot.node).start_job(
                record, device_index, exclusive
            )
            stats.matched += 1
        self.matches_made += stats.matched
        self.last_cycle = stats
        return stats.matched


def _scenario(seed, negotiator_cls):
    """A pool and a queue mixing parked, pinned, plain and in-flight
    jobs, drawn from ``seed``, with ``negotiator_cls`` negotiating.

    Returns the negotiator and the matches it publishes. Some jobs are
    parked by a subscriber in the middle of a cycle's walk; some pools
    are too small for the queue, and later cycles start exhausted.
    """
    rng = random.Random(seed)
    env = Environment()
    schedd = Schedd(env)
    collector = Collector()
    nodes = rng.randint(1, 4)
    for i in range(nodes):
        collector.register(
            Startd(env, schedd, ComputeNode(env, f"n{i}", mode="cosmic"),
                   slots=rng.randint(1, 4))
        )
    if rng.random() < 0.5:
        policy = PinnedPlacement()
    else:
        policy = RandomPlacement(random.Random(seed), memory_aware=True)
    negotiator = negotiator_cls(env, schedd, collector, policy)
    jobs = [f"j{i}" for i in range(rng.randint(0, 40))]
    for job_id in jobs:
        schedd.submit(make_profile(job_id, memory=rng.choice([500, 3000, 9000])))
        kind = rng.choice(["parked", "parked", "pinned", "plain", "never",
                           "unmatchable"])
        if kind == "parked":
            schedd.qedit(job_id, "Requirements", "false")
        elif kind == "pinned":
            node = f"n{rng.randrange(nodes + 1)}"  # n{nodes} is unknown
            schedd.qedit(job_id, "Requirements", pin_requirements(node))
        elif kind == "never":
            # Parked through its plan, not as a literal.
            schedd.qedit(job_id, "Requirements", "1 == 2")
        elif kind == "unmatchable":
            # Offered, examined, and never matched.
            schedd.qedit(job_id, "Requirements",
                         "TARGET.FreeSlots >= 1 && 1 == 2")
    for job_id in rng.sample(jobs, min(len(jobs), rng.randint(0, 4))):
        negotiator._inflight[job_id] = 0
    park_on = rng.randint(1, 6)
    to_park = rng.sample(jobs, min(len(jobs), rng.randint(0, 6)))
    matches = []

    def on_negotiated(tr):
        if tr.kind != NEGOTIATED:
            return
        matches.append((tr.job_id, tr.node, tr.device))
        if len(matches) == park_on:
            for job_id in to_park:
                if schedd.get(job_id).status == "Idle":
                    schedd.qedit(job_id, "Requirements", "false")

    schedd.subscribe(on_negotiated)
    return negotiator, matches


@pytest.mark.parametrize("seed", range(200))
def test_split_walk_matches_the_walk_over_every_idle_job(seed):
    split, split_matches = _scenario(seed, Negotiator)
    oracle, oracle_matches = _scenario(seed, _WalkAllNegotiator)
    for _cycle in range(3):
        assert split.negotiate_once() == oracle.negotiate_once()
        assert split_matches == oracle_matches
        assert dataclasses.asdict(split.last_cycle) \
            == dataclasses.asdict(oracle.last_cycle)
