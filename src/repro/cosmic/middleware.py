"""COSMIC — node-level middleware enabling safe coprocessor sharing.

One :class:`Cosmic` instance manages one Xeon Phi card and provides the
three behaviours the paper relies on (§IV-D2):

1. **Job admission by declared memory.** A job's COI process is created
   only when the sum of admitted declarations fits the card; otherwise
   the job queues (FIFO) at the node. This is what makes *random*
   cluster-level placement (the paper's MCC configuration) safe.
2. **Offload thread gating.** Each offload burst must obtain its threads
   from a hardware-thread pool before executing, so concurrent offloads
   never oversubscribe the 240 hardware threads.
3. **Memory-limit containers.** Jobs that exceed their own declaration
   are killed (see :mod:`repro.cosmic.container`).

Affinitization (behaviour 3 in the paper's list) lives in the device's
contention model, :class:`~repro.phi.contention.AffinitizedContention`:
gated offloads run at full speed on disjoint core sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..obs import metrics as _metrics
from ..phi.device import XeonPhi
from ..sim import Container, ContainerGet, Environment
from .container import DeclaredMemoryEnforcer

#: The declared-memory ledger counts whole bytes. Integer sums are exact,
#: so returning every admission restores the pool to capacity; megabyte
#: floats with fractions (0.1 MB) would drift by an ulp per operation.
_BYTES_PER_MB = 1 << 20


def _bytes(mb: float) -> int:
    """``mb`` in whole bytes, rounded up (exact for integral megabytes)."""
    return math.ceil(mb * _BYTES_PER_MB)


@dataclass
class CosmicStats:
    """Counters exposed for experiments and tests."""

    jobs_admitted: int = 0
    jobs_released: int = 0
    offloads_gated: int = 0
    peak_concurrent_jobs: int = 0
    peak_gated_threads: int = 0


class Cosmic:
    """Sharing middleware for one coprocessor card."""

    def __init__(
        self,
        env: Environment,
        device: XeonPhi,
        enforcer: Optional[DeclaredMemoryEnforcer] = None,
    ) -> None:
        self.env = env
        self.device = device
        spec = device.spec
        threads = spec.hardware_threads
        memory = _bytes(spec.usable_memory_mb)
        # Pools start full; admission draws them down and releases return
        # exactly what was drawn, without a put event.
        self._thread_pool = Container(env, capacity=threads, init=threads)
        self._memory_pool = Container(env, capacity=memory, init=memory)
        self.enforcer = enforcer if enforcer is not None else DeclaredMemoryEnforcer()
        self.stats = CosmicStats()
        self._resident_jobs = 0

    # -- job admission (declared memory) -------------------------------------

    @property
    def free_declared_memory_mb(self) -> float:
        """Declared-memory headroom still available on this card."""
        return self._memory_pool.level / _BYTES_PER_MB

    @property
    def resident_jobs(self) -> int:
        """Jobs currently admitted to the card."""
        return self._resident_jobs

    def admit_job(self, declared_memory_mb: float) -> ContainerGet:
        """Reserve declared memory; the event triggers once it fits.

        Declarations larger than the card are clamped to the card: such a
        job can only ever run alone, which is the exclusive-allocation
        behaviour the paper's baseline gives every job.
        """
        event = self._memory_pool.get(self._declared_bytes(declared_memory_mb))
        event.callbacks.append(lambda _e: self._on_admit())
        return event

    def _declared_bytes(self, declared_memory_mb: float) -> int:
        """A declaration in pool units (bytes), clamped to the card."""
        return _bytes(min(declared_memory_mb, self.device.spec.usable_memory_mb))

    def _on_admit(self) -> None:
        self._resident_jobs += 1
        self.stats.jobs_admitted += 1
        self.stats.peak_concurrent_jobs = max(
            self.stats.peak_concurrent_jobs, self._resident_jobs
        )
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.counter("cosmic.jobs_admitted").inc()
            self._record_occupancy(registry)

    def release_job(self, declared_memory_mb: float) -> None:
        """Return a completed (or killed) job's declared memory."""
        self._memory_pool.release(self._declared_bytes(declared_memory_mb))
        self._resident_jobs -= 1
        self.stats.jobs_released += 1
        registry = _metrics.ACTIVE
        if registry is not None:
            self._record_occupancy(registry)

    def _record_occupancy(self, registry) -> None:
        """Sample the card's sharing level into the metrics gauges."""
        now = self.env.now
        name = self.device.name
        registry.gauge(f"cosmic.{name}.resident_jobs").record(
            now, self._resident_jobs
        )
        pool = self._memory_pool
        registry.gauge(f"cosmic.{name}.reserved_mb").record(
            now, (pool.capacity - pool.level) / _BYTES_PER_MB
        )

    # -- offload gating (hardware threads) ------------------------------------

    def _clamp_threads(self, threads: int) -> int:
        # Offloads demanding more than the hardware run with the whole
        # card ("will not be allowed to execute" concurrently, §IV-D2).
        return min(threads, int(self._thread_pool.capacity))

    def acquire(self, threads: int) -> ContainerGet:
        """OffloadGate: obtain ``threads`` hardware threads (FIFO)."""
        if threads <= 0:
            raise ValueError("threads must be positive")
        amount = self._clamp_threads(threads)
        event = self._thread_pool.get(amount)
        event.callbacks.append(lambda _e: self._on_gate(amount))
        return event

    def _on_gate(self, amount: int) -> None:
        self.stats.offloads_gated += 1
        gated = int(self._thread_pool.capacity - self._thread_pool.level)
        self.stats.peak_gated_threads = max(self.stats.peak_gated_threads, gated)
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.counter("cosmic.offloads_gated").inc()
            registry.gauge(f"cosmic.{self.device.name}.gated_threads").record(
                self.env.now, gated
            )

    def release(self, threads: int) -> None:
        """OffloadGate: return previously acquired threads."""
        if threads <= 0:
            raise ValueError("threads must be positive")
        self._thread_pool.release(self._clamp_threads(threads))
        registry = _metrics.ACTIVE
        if registry is not None:
            registry.gauge(f"cosmic.{self.device.name}.gated_threads").record(
                self.env.now,
                int(self._thread_pool.capacity - self._thread_pool.level),
            )

    @property
    def free_threads(self) -> int:
        """Hardware threads not currently granted to an offload."""
        return int(self._thread_pool.level)

    def __repr__(self) -> str:
        return (
            f"<Cosmic on {self.device.name}: jobs={self._resident_jobs} "
            f"free_mem={self.free_declared_memory_mb:.0f}MB "
            f"free_threads={self.free_threads}>"
        )
