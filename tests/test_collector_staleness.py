"""Collector heartbeat-staleness: drops, re-registration, observability.

Satellite coverage for the staleness path: a node whose heartbeat goes
quiet is dropped from negotiation snapshots, the transition (not every
query) emits a trace instant and bumps a counter, and a fresh heartbeat
re-admits the node with the mirror-image emission. Store-mode tests
check that negotiation deducts only from the cycle view's copies: the
stored ads and a snapshot response's payload are never mutated.
"""

import random

import pytest

from repro.cluster.node import ComputeNode
from repro.condor import (
    Collector,
    CondorPool,
    RandomPlacement,
    Schedd,
    Startd,
)
from repro.condor.ads import copy_snapshot
from repro.net.profile import NetProfile
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sim import Environment
from repro.workloads import HostPhase, JobProfile, OffloadPhase


@pytest.fixture
def env():
    return Environment()


@pytest.fixture(autouse=True)
def _no_leaked_active():
    yield
    obs_trace.deactivate()
    obs_metrics.deactivate()


def make_profile(job_id):
    return JobProfile(
        job_id=job_id,
        app="t",
        phases=(HostPhase(1), OffloadPhase(work=1, threads=60,
                                           memory_mb=1000.0)),
        declared_memory_mb=1000.0,
        declared_threads=60,
    )


def _collector(env, nodes=2, timeout=20.0):
    collector = Collector(heartbeat_timeout=timeout)
    schedd = Schedd(env)
    for i in range(nodes):
        collector.register(Startd(env, schedd, ComputeNode(env, f"n{i}")))
    return collector


class TestStalenessDrops:
    def test_quiet_node_dropped_until_it_reports_again(self, env):
        collector = _collector(env)
        collector.record_heartbeat("n0", 0.0)
        collector.record_heartbeat("n1", 0.0)
        assert len(collector.snapshots(now=10.0)) == 2
        collector.record_heartbeat("n1", 25.0)
        # n0's last report is 30s old: past the 20s timeout.
        assert [s.node for s in collector.snapshots(now=30.0)] == ["n1"]
        assert collector.stale_drops == 1
        collector.record_heartbeat("n0", 31.0)
        assert len(collector.snapshots(now=32.0)) == 2
        assert collector.reregistrations == 1

    def test_never_heartbeated_node_is_not_dropped(self, env):
        # Heartbeats are opt-in per node: pools that never report keep
        # the fault-free behaviour even with a timeout configured.
        collector = _collector(env)
        assert len(collector.snapshots(now=1e6)) == 2
        assert collector.stale_drops == 0

    def test_no_timeout_disables_staleness(self, env):
        collector = Collector()
        schedd = Schedd(env)
        collector.register(Startd(env, schedd, ComputeNode(env, "n0")))
        collector.record_heartbeat("n0", 0.0)
        assert len(collector.snapshots(now=1e6)) == 1

    def test_deregistered_node_is_not_double_counted_as_stale(self, env):
        collector = _collector(env)
        collector.record_heartbeat("n0", 0.0)
        collector.deregister("n0")
        assert [s.node for s in collector.snapshots(now=100.0)] == ["n1"]
        # Crash accounting belongs to the fault injector, not staleness.
        assert collector.stale_drops == 0


class TestTransitionEmissions:
    def test_drop_emits_instant_and_counter_once(self, env):
        tracer = obs_trace.activate()
        registry = obs_metrics.activate()
        collector = _collector(env)
        collector.record_heartbeat("n0", 0.0)
        collector.snapshots(now=30.0)
        collector.snapshots(now=40.0)
        collector.snapshots(now=50.0)
        stale = [i for i in tracer.instants if i.name == "node-stale"]
        # Transition-only: three stale queries, one emission.
        assert len(stale) == 1
        assert stale[0].tid == obs_trace.FAULTS_TID
        assert stale[0].args["node"] == "n0"
        assert stale[0].args["last_heartbeat"] == 0.0
        assert registry.cell.counters["collector.stale_drops"].value == 1

    def test_reregistration_emits_mirror_instant(self, env):
        tracer = obs_trace.activate()
        registry = obs_metrics.activate()
        collector = _collector(env)
        collector.record_heartbeat("n0", 0.0)
        collector.snapshots(now=30.0)
        collector.record_heartbeat("n0", 31.0)
        collector.snapshots(now=32.0)
        collector.snapshots(now=33.0)
        back = [i for i in tracer.instants if i.name == "node-reregistered"]
        assert len(back) == 1
        assert back[0].args["node"] == "n0"
        assert registry.cell.counters["collector.reregistrations"].value == 1

    def test_flapping_node_counts_every_transition(self, env):
        collector = _collector(env)
        now = 0.0
        for _ in range(3):
            collector.record_heartbeat("n0", now)
            collector.snapshots(now=now + 1.0)  # fresh
            now += 30.0
            collector.snapshots(now=now)  # stale again
        assert collector.stale_drops == 3
        assert collector.reregistrations == 2

    def test_counters_work_without_observability_active(self, env):
        # The plain counters are maintained even when no tracer/registry
        # is installed (the fabric validation layer reads them).
        collector = _collector(env)
        collector.record_heartbeat("n0", 0.0)
        collector.snapshots(now=30.0)
        assert collector.stale_drops == 1


class TestStoreMode:
    def test_store_serves_last_update_and_heartbeats(self, env):
        collector = _collector(env)
        collector.enable_store()
        live = collector.startd("n0").snapshot()
        collector.store_update(live, now=5.0)
        # Only reporting nodes appear; the update doubled as heartbeat.
        out = collector.snapshots(now=10.0)
        assert [s.node for s in out] == ["n0"]
        assert len(collector.snapshots(now=26.0)) == 0  # stale at 26 > 5+20
        assert collector.stale_drops == 1

    def test_store_view_copies_stored_ads_on_touch(self, env):
        collector = _collector(env, nodes=1)
        collector.enable_store()
        stored = collector.startd("n0").snapshot()
        collector.store_update(stored, now=0.0)
        # The collector serves its stored ads as they are (a snapshot
        # response carries references); the cycle view copies on touch.
        assert collector.snapshots(now=1.0)[0] is stored
        first = collector.live_view(now=1.0).candidates()[0]
        second = collector.live_view(now=2.0).candidates()[0]
        assert first is not stored and second is not first
        # Negotiation-time deduction mutates the served copy; the stored
        # update must be untouched for the next cycle.
        first.devices[0].free_declared_mb = -1234.0
        served = collector.live_view(now=3.0).candidates()[0]
        assert served.devices[0].free_declared_mb != -1234.0
        assert stored.devices[0].free_declared_mb != -1234.0

    def test_fabric_cycle_leaves_stored_ads_and_response_untouched(self):
        env = Environment()
        nodes = [ComputeNode(env, f"n{i}", mode="cosmic") for i in range(3)]
        pool = CondorPool(env, nodes, RandomPlacement(random.Random(0)),
                          slots_per_node=4, net=NetProfile())
        negotiator = pool.negotiator
        responses = []
        on_response = negotiator._on_snapshot_response

        def capture(msg):
            responses.append(msg.payload["snapshots"])
            on_response(msg)

        negotiator._on_snapshot_response = capture
        pool.start()
        env.run(until=1.0)  # the first snapshot response lands
        assert responses and len(responses[-1]) == 3
        payload = responses[-1]
        payload_before = [copy_snapshot(s) for s in payload]
        stored_before = [
            copy_snapshot(s) for s in pool.collector.snapshots(env.now)
        ]
        pool.submit([make_profile(f"j{i}") for i in range(6)])
        assert negotiator.negotiate_once() == 6  # deducts on every match
        assert payload == payload_before
        assert pool.collector.snapshots(env.now) == stored_before

    def test_copy_snapshot_helper_deep_copies_devices(self, env):
        snapshot = _collector(env, nodes=1).startd("n0").snapshot()
        clone = copy_snapshot(snapshot)
        assert clone is not snapshot
        assert clone.devices[0] is not snapshot.devices[0]
        assert clone.node == snapshot.node
