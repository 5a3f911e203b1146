"""Property-based tests for the simulation kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Container, Environment, Resource


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=10, allow_nan=False),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_timeout_workloads_fire_in_time_order(spec):
    """Whatever the mix of processes/timeouts, observed time never goes
    backwards and every process fires exactly once."""
    env = Environment()
    log = []

    def worker(env, delay, tag):
        yield env.timeout(delay)
        log.append((env.now, tag))

    for tag, (delay, _pri) in enumerate(spec):
        env.process(worker(env, delay, tag))
    env.run()
    times = [t for t, _ in log]
    assert times == sorted(times)
    assert len(log) == len(spec)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.1, max_value=10, allow_nan=False),
        min_size=1,
        max_size=15,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_resource_serialization_conserves_work(durations, capacity):
    """A capacity-k resource runs at most k holders at once, and the
    makespan is at least total_work / k."""
    env = Environment()
    resource = Resource(env, capacity=capacity)
    active = [0]
    peak = [0]

    def worker(env, hold):
        with resource.request() as req:
            yield req
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            yield env.timeout(hold)
            active[0] -= 1

    for hold in durations:
        env.process(worker(env, hold))
    env.run()
    assert peak[0] <= capacity
    assert env.now >= sum(durations) / capacity - 1e-9
    assert env.now <= sum(durations) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["put", "get"]),
                  st.integers(min_value=1, max_value=10)),
        min_size=1,
        max_size=30,
    )
)
def test_container_conservation(ops):
    """level == init + puts_granted - gets_granted at all times, and the
    level never leaves [0, capacity]."""
    env = Environment()
    tank = Container(env, capacity=50, init=25)
    granted = {"put": 0, "get": 0}

    def actor(env, op, amount):
        if op == "put":
            yield tank.put(amount)
        else:
            yield tank.get(amount)
        granted[op] += amount
        assert 0 <= tank.level <= 50

    for op, amount in ops:
        env.process(actor(env, op, amount))
    env.run()
    assert tank.level == 25 + granted["put"] - granted["get"]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=5, allow_nan=False),
            st.floats(min_value=0.1, max_value=5, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_identical_workloads_identical_traces(spec):
    """Full determinism: two environments given the same program produce
    the same event trace."""

    def run_once():
        env = Environment()
        trace = []

        def worker(env, a, b, tag):
            yield env.timeout(a)
            trace.append((env.now, tag, "a"))
            yield env.timeout(b)
            trace.append((env.now, tag, "b"))

        for tag, (a, b) in enumerate(spec):
            env.process(worker(env, a, b, tag))
        env.run()
        return trace

    assert run_once() == run_once()
