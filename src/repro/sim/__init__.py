"""A small deterministic discrete-event simulation kernel.

This package is the substrate on which every other simulated component
(Xeon Phi devices, the MPSS offload runtime, COSMIC, the Condor pool) runs.
It follows the familiar generator-based process model::

    from repro.sim import Environment

    def clock(env, period):
        while True:
            yield env.timeout(period)
            print("tick", env.now)

    env = Environment()
    env.process(clock(env, 1.0))
    env.run(until=3.5)
"""

from . import profile
from .core import EmptySchedule, Environment
from .events import (
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from .process import Process
from .resources import (
    Container,
    ContainerGet,
    ContainerPut,
    Request,
    Resource,
)

__all__ = [
    "Container",
    "ContainerGet",
    "ContainerPut",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "profile",
    "Resource",
    "SimulationError",
    "Timeout",
]
