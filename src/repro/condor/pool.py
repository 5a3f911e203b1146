"""Pool assembly: central manager + compute nodes, wired and ready to run."""

from __future__ import annotations

from typing import Optional, Sequence

from ..net.fabric import MessageFabric
from ..net.profile import NetProfile
from ..sim import Environment
from ..sim.events import StopSimulation
from ..workloads.profiles import JobProfile
from .claims import CollectorAgent, ScheddClaimManager, StartdClaimAgent
from .collector import Collector
from .negotiator import Negotiator, PlacementPolicy
from .recovery import DaemonSupervisor, JobQueueLog
from .schedd import RetryPolicy, Schedd
from .startd import NodeExecutor, Startd


class CondorPool:
    """A complete Condor pool over a set of node executors.

    The pool owns the schedd, collector, per-node startds, and the
    negotiator; jobs are submitted through :meth:`submit` and the whole
    thing runs on the shared simulation environment.

    With ``net`` set (a :class:`~repro.net.profile.NetProfile`), every
    daemon pair routes through a seeded :class:`MessageFabric` and slot
    claims carry leases (:mod:`repro.condor.claims`); without it, the
    daemons call each other directly and behaviour is byte-identical to
    the fabric-free pool.
    """

    def __init__(
        self,
        env: Environment,
        executors: Sequence[NodeExecutor],
        policy: PlacementPolicy,
        slots_per_node: int = 16,
        cycle_interval: float = 15.0,
        dispatch_latency: float = 1.0,
        reschedule_on_completion: bool = False,
        retry_policy: Optional[RetryPolicy] = None,
        heartbeat_timeout: Optional[float] = None,
        net: Optional[NetProfile] = None,
        net_seed: int = 0,
        recovery: bool = False,
    ) -> None:
        """``recovery`` attaches the crash–recovery machinery: the schedd
        journals its queue to a :class:`~repro.condor.recovery
        .JobQueueLog` (before any submission, so the journal is complete)
        and a :class:`~repro.condor.recovery.DaemonSupervisor` stands by
        to crash/restart daemons. Requires ``net`` — daemon crashes are
        modelled as fabric endpoint downtime."""
        if not executors:
            raise ValueError("a pool needs at least one node")
        if recovery and net is None:
            raise ValueError(
                "recovery requires the message fabric (pass a NetProfile)"
            )
        self.env = env
        self.policy = policy
        self.net = net
        if net is not None and retry_policy is None and net.retry_jitter > 0:
            # Under an unreliable network many claims die in the same
            # partition window; jittered backoff keeps their retries
            # from re-queueing in lockstep.
            retry_policy = RetryPolicy(
                jitter=net.retry_jitter, jitter_seed=net_seed
            )
        self.schedd = Schedd(env, retry_policy=retry_policy)
        if net is not None and heartbeat_timeout is None:
            heartbeat_timeout = net.heartbeat_timeout_s
        self.collector = Collector(heartbeat_timeout=heartbeat_timeout)
        self.startds: list[Startd] = []
        for executor in executors:
            startd = Startd(
                env,
                self.schedd,
                executor,
                slots=slots_per_node,
                dispatch_latency=dispatch_latency,
            )
            self.collector.register(startd)
            self.startds.append(startd)
        self.fabric: Optional[MessageFabric] = None
        self.claims: Optional[ScheddClaimManager] = None
        self.agents: dict[str, StartdClaimAgent] = {}
        self.collector_agent: Optional[CollectorAgent] = None
        if net is not None:
            self.fabric = MessageFabric(env, net, net_seed)
            self.claims = ScheddClaimManager(env, self.schedd, self.fabric, net)
            self.agents = {
                startd.name: StartdClaimAgent(env, startd, self.fabric, net)
                for startd in self.startds
            }
            self.collector_agent = CollectorAgent(
                env, self.collector, self.fabric, net, self.startds
            )
        self.negotiator = Negotiator(
            env,
            self.schedd,
            self.collector,
            policy,
            cycle_interval,
            reschedule_on_completion=reschedule_on_completion,
            fabric=self.fabric,
        )
        self.supervisor: Optional[DaemonSupervisor] = None
        if recovery:
            # Attaches itself as ``schedd.wal``, the first subscriber.
            JobQueueLog(env, self.schedd)
            self.supervisor = DaemonSupervisor(env, self)

    def submit(self, profiles: Sequence[JobProfile]) -> None:
        """Queue jobs; the submit-file style follows the pool's policy."""
        for profile in profiles:
            self.schedd.submit(
                profile,
                sharing=self.policy.sharing,
                memory_aware=self.policy.memory_aware,
            )

    def start(self) -> None:
        """Begin negotiation cycles."""
        self.negotiator.start()

    def lease_expiries(self) -> int:
        """Startd-side lease expiry kills across the pool (fabric mode)."""
        return sum(agent.lease_expiries for agent in self.agents.values())

    def claims_rejected(self) -> int:
        """Claim activations the startds turned down (fabric mode)."""
        return sum(agent.claims_rejected for agent in self.agents.values())

    def run_to_completion(self, limit: Optional[float] = None) -> float:
        """Start the pool, run until the queue drains; returns makespan.

        With ``limit``, a deadline ``limit`` simulated seconds out stops
        the run if the queue has not drained by then (``TimeoutError``).
        """
        if self.schedd.total_jobs == 0:
            raise ValueError("no jobs submitted")
        self.start()
        done = self.schedd.all_done()
        if limit is not None:

            def deadline(_event) -> None:
                if not done.triggered:
                    raise StopSimulation(None)

            self.env.timeout(limit).callbacks.append(deadline)
        self.env.run(until=done)
        if not done.triggered:
            raise TimeoutError(
                f"pool did not drain within {limit} simulated seconds"
            )
        return self.schedd.makespan()

    def __repr__(self) -> str:
        return f"<CondorPool nodes={len(self.startds)} {self.schedd!r}>"
