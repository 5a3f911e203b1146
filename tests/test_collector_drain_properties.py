"""Event-driven staleness equals the full walk it replaced.

The collector applies heartbeat-staleness transitions lazily: a heap of
heartbeat times plus a recheck set name the nodes whose staleness can
have flipped by a query's ``now``, and only those are examined. The
oracle below is the historical per-query walk — every node, in
registration order, through ``_note_staleness`` and ``is_alive`` as the
collector defined them before the heap existed. Hypothesis drives both
through random sequences of heartbeats (including out-of-order ones, as
fabric send times produce), store updates, deregistrations,
reinstatements, collector crashes and queries at non-decreasing ``now``;
the live set, the transition instants (name, node, time, order) and the
counters must agree after every step.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.node import ComputeNode
from repro.condor import Collector, Schedd, Startd
from repro.obs import trace as obs_trace
from repro.sim import Environment

NODES = 4


class FullWalkOracle:
    """The pre-heap collector's staleness bookkeeping, walked per query."""

    def __init__(self, names, timeout, store):
        self.names = names
        self.heartbeat_timeout = timeout
        self.store = store
        self._heartbeats: dict[str, float] = {}
        self._stale: dict[str, bool] = {}
        self._dead: set[str] = set()
        self._stored: set[str] = set()
        self.stale_drops = 0
        self.reregistrations = 0
        self.transitions: list[tuple[str, str, float]] = []

    def record_heartbeat(self, name, now):
        self._heartbeats[name] = now

    def store_update(self, name, now):
        self._stored.add(name)
        self.record_heartbeat(name, now)

    def deregister(self, name):
        self._dead.add(name)

    def reinstate(self, name):
        self._dead.discard(name)

    def crash_reset(self):
        self._stored.clear()
        self._heartbeats.clear()
        self._stale.clear()

    def is_alive(self, name, now=None):
        if name in self._dead:
            return False
        if (
            self.heartbeat_timeout is not None
            and now is not None
            and name in self._heartbeats
            and now - self._heartbeats[name] > self.heartbeat_timeout
        ):
            return False
        return True

    def _note_staleness(self, name, now):
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
        if stale:
            self.stale_drops += 1
            self.transitions.append(("node-stale", name, now))
        else:
            self.reregistrations += 1
            self.transitions.append(("node-reregistered", name, now))

    def query(self, now):
        live = []
        for name in self.names:
            self._note_staleness(name, now)
            if not self.is_alive(name, now):
                continue
            if self.store and name not in self._stored:
                continue
            live.append(name)
        return live


def _ops():
    node = st.integers(0, NODES - 1)
    # Heartbeat lag behind the clock: 0 is a direct-mode heartbeat, a
    # positive lag an older fabric send time delivered late.
    lag = st.sampled_from([0, 0, 0, 1, 5, 15])
    return st.lists(
        st.tuples(
            st.sampled_from([0, 0, 1, 3, 5, 10, 20, 25]),  # clock advance
            st.sampled_from(
                ["heartbeat", "heartbeat", "update", "deregister",
                 "reinstate", "crash_reset", "query", "query", "view"]
            ),
            node,
            lag,
        ),
        max_size=60,
    )


@settings(max_examples=300, deadline=None)
@given(
    ops=_ops(),
    timeout=st.sampled_from([None, 10, 20.0]),
    store=st.booleans(),
)
# A node's heartbeat ages out while it is deregistered: the heap entry is
# consumed then, so only the reinstatement recheck can catch the drop.
@example(
    ops=[(0, "heartbeat", 0, 0), (0, "deregister", 0, 0),
         (25, "query", 0, 0), (0, "reinstate", 0, 0), (0, "query", 0, 0)],
    timeout=20.0,
    store=False,
)
def test_drain_matches_full_walk_oracle(ops, timeout, store):
    env = Environment()
    schedd = Schedd(env)
    collector = Collector(heartbeat_timeout=timeout)
    names = [f"n{i}" for i in range(NODES)]
    for name in names:
        collector.register(Startd(env, schedd, ComputeNode(env, name)))
    if store:
        collector.enable_store()
    oracle = FullWalkOracle(names, timeout, store)
    tracer = obs_trace.activate()
    try:
        now = 0
        for advance, op, index, lag in ops:
            now += advance
            name = names[index]
            if op == "heartbeat":
                collector.record_heartbeat(name, now - lag)
                oracle.record_heartbeat(name, now - lag)
            elif op == "update":
                collector.store_update(
                    collector.startd(name).snapshot(), now - lag
                )
                oracle.store_update(name, now - lag)
            elif op == "deregister":
                collector.deregister(name)
                oracle.deregister(name)
            elif op == "reinstate":
                collector.reinstate(name)
                oracle.reinstate(name)
            elif op == "crash_reset":
                collector.crash_reset()
                oracle.crash_reset()
            else:
                expected = oracle.query(now)
                if op == "query":
                    live = [s.node for s in collector.snapshots(now)]
                else:
                    # Every node is idle, so the cycle's candidates are
                    # exactly the live set.
                    view = collector.live_view(now)
                    live = [s.node for s in view.candidates()]
                assert live == expected
            transitions = [
                (i.name, i.args["node"], i.time)
                for i in tracer.instants
                if i.name in ("node-stale", "node-reregistered")
            ]
            assert transitions == oracle.transitions
            assert collector.stale_drops == oracle.stale_drops
            assert collector.reregistrations == oracle.reregistrations
    finally:
        obs_trace.deactivate()
