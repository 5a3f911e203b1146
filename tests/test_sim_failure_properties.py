"""Property tests for failure propagation through the event kernel.

The fault subsystem leans on two kernel guarantees:

* a failure reaching a waiting process is *defused* — the waiter's
  ``except`` handles it and the simulation keeps running;
* a failure nobody handles is *never silently dropped* — it surfaces
  from ``Environment.run`` as the original exception.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment


class Boom(Exception):
    pass


def _driver(env, event, delay, fails):
    yield env.timeout(delay)
    if fails:
        event.fail(Boom(delay))
    else:
        event.succeed(delay)


@settings(max_examples=40, deadline=None)
@given(
    delay=st.integers(min_value=1, max_value=10),
    caught=st.booleans(),
)
def test_direct_event_failure_defused_iff_caught(delay, caught):
    """A failed event is defused by a catching waiter; an uncaught one
    surfaces from env.run as the original exception."""
    import pytest

    env = Environment()
    event = env.event()
    env.process(_driver(env, event, delay, True))

    outcomes = []

    def catching(env):
        try:
            yield event
        except Boom:
            outcomes.append("caught")

    def oblivious(env):
        yield env.timeout(0)

    env.process(catching(env) if caught else oblivious(env))
    if caught:
        env.run()
        assert outcomes == ["caught"]
        assert event.defused
    else:
        with pytest.raises(Boom):
            env.run()

