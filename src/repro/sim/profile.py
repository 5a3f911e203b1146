"""Built-in kernel profiler: per-subsystem counters + wall breakdown.

The profiler is deliberately pull-based and allocation-free on the hot
path: the kernel keeps a reference to the active profiler (picked up
from :data:`ACTIVE` when an :class:`~repro.sim.core.Environment` is
constructed) and bumps plain dict counters only when one is installed.
A run without a profiler pays a single ``is not None`` check per event.

Usage::

    from repro.sim import profile

    prof = profile.activate()      # future Environments are instrumented
    try:
        ... build env, run simulation ...
    finally:
        profile.deactivate()
    print(prof.render())

The CLI exposes this as ``--profile`` (see ``repro.experiments``), which
forces in-process sequential execution so the counters cover the run.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

#: The profiler new environments attach to (``None`` = profiling off).
ACTIVE: Optional["SimProfiler"] = None


class SimProfiler:
    """Counters for one (or more) instrumented simulation runs.

    Attributes
    ----------
    events_scheduled / events_fired:
        Per event-kind counts (``Timeout``, ``Process``, ``Request``, …).
        *Scheduled* counts heap pushes; *fired* counts processed events.
    wall_by_kind:
        Wall-clock seconds spent running the callbacks of each event
        kind — the closest thing to "time per subsystem" the kernel can
        observe without tracing.
    process_switches:
        Generator resumptions (``Process._resume`` invocations).
    heap_peak:
        Largest event-queue length observed before a pop.
    telemetry_records:
        ``StepSeries.record`` calls across all series.
    negotiation_cycles / match_probes / pin_routed / full_scans:
        Matchmaking: cycles run, machines probed with symmetric ClassAd
        matchmaking, and how examined jobs were routed — through the
        collector's O(1) name index versus a scan of every machine.
    jobs_walked:
        Queue records the negotiation cycles' walks read: offered jobs
        only, never a parked one (those are counted by bisection).
    compile_hits / compile_misses / compile_evictions:
        ClassAd closure-compiler cache traffic (see
        :mod:`repro.condor.compile`): one lookup per evaluation outside
        matchmaking, and one per side per scan inside it, where
        :func:`repro.condor.classad.matcher` reuses both closures across
        the probed machines; evictions count LRU drops across the
        closure and plan caches.
    repack_passes / devices_repacked:
        Knapsack scheduler: completion-triggered repack passes run, and
        dirty devices repacked across them.
    solver_calls:
        Knapsack solves run by the packer.
    packing_cache_hits:
        Always 0: the packer has no solve cache. Kept only because the
        benchmark's traced run (``perfbench``) reads it.
    pack_shapes_examined / pack_jobs_touched / pack_jobs_skipped /
    pack_shapes_peak:
        The knapsack scheduler's shape index: job shapes that fit a pack
        and were offered to the packer, jobs read from them (one head per
        shape plus each job chosen), jobs in shapes too big for the
        free memory (never read), and the most shapes indexed at once.
    """

    __slots__ = (
        "events_scheduled",
        "events_fired",
        "wall_by_kind",
        "process_switches",
        "heap_peak",
        "telemetry_records",
        "negotiation_cycles",
        "match_probes",
        "pin_routed",
        "full_scans",
        "jobs_walked",
        "compile_hits",
        "compile_misses",
        "compile_evictions",
        "repack_passes",
        "devices_repacked",
        "solver_calls",
        "packing_cache_hits",
        "pack_shapes_examined",
        "pack_jobs_touched",
        "pack_jobs_skipped",
        "pack_shapes_peak",
        "_started",
        "wall_total",
    )

    def __init__(self) -> None:
        self.events_scheduled: dict[str, int] = {}
        self.events_fired: dict[str, int] = {}
        self.wall_by_kind: dict[str, float] = {}
        self.process_switches = 0
        self.heap_peak = 0
        self.telemetry_records = 0
        self.negotiation_cycles = 0
        self.match_probes = 0
        self.pin_routed = 0
        self.full_scans = 0
        self.jobs_walked = 0
        self.compile_hits = 0
        self.compile_misses = 0
        self.compile_evictions = 0
        self.repack_passes = 0
        self.devices_repacked = 0
        self.solver_calls = 0
        self.packing_cache_hits = 0
        self.pack_shapes_examined = 0
        self.pack_jobs_touched = 0
        self.pack_jobs_skipped = 0
        self.pack_shapes_peak = 0
        self._started: Optional[float] = None
        self.wall_total = 0.0

    # -- hot-path hooks (called by the kernel) ----------------------------

    def count_scheduled(self, kind: str) -> None:
        counts = self.events_scheduled
        counts[kind] = counts.get(kind, 0) + 1

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Open a wall-clock window (nested calls keep the first start)."""
        if self._started is None:
            self._started = perf_counter()

    def stop(self) -> None:
        """Close the wall-clock window, accumulating into ``wall_total``."""
        if self._started is not None:
            self.wall_total += perf_counter() - self._started
            self._started = None

    # -- derived ----------------------------------------------------------

    @property
    def total_fired(self) -> int:
        return sum(self.events_fired.values())

    @property
    def total_scheduled(self) -> int:
        return sum(self.events_scheduled.values())

    def events_per_second(self) -> float:
        """Fired events per wall second (0 when no window was recorded)."""
        if self.wall_total <= 0:
            return 0.0
        return self.total_fired / self.wall_total

    def render(self) -> str:
        """Format the breakdown table shown after a ``--profile`` run."""
        kinds = sorted(
            set(self.events_scheduled) | set(self.events_fired),
            key=lambda k: -self.wall_by_kind.get(k, 0.0),
        )
        callback_wall = sum(self.wall_by_kind.values())
        lines = [
            "sim profiler "
            + "-" * 47,
            f"{'event kind':<16}{'scheduled':>12}{'fired':>12}"
            f"{'wall s':>10}{'wall %':>8}",
        ]
        for kind in kinds:
            wall = self.wall_by_kind.get(kind, 0.0)
            share = 100.0 * wall / callback_wall if callback_wall > 0 else 0.0
            lines.append(
                f"{kind:<16}{self.events_scheduled.get(kind, 0):>12,}"
                f"{self.events_fired.get(kind, 0):>12,}"
                f"{wall:>10.3f}{share:>7.1f}%"
            )
        lines.append(
            f"{'total':<16}{self.total_scheduled:>12,}"
            f"{self.total_fired:>12,}{callback_wall:>10.3f}{100.0:>7.1f}%"
        )
        lines.append(f"{'process switches':<24}{self.process_switches:>16,}")
        lines.append(f"{'heap peak':<24}{self.heap_peak:>16,}")
        lines.append(f"{'telemetry records':<24}{self.telemetry_records:>16,}")
        if self.wall_total > 0:
            lines.append(
                f"{'wall clock':<24}{self.wall_total:>15.3f}s"
            )
            lines.append(
                f"{'events/sec':<24}{self.events_per_second():>16,.0f}"
            )
        if self.negotiation_cycles or self.compile_misses:
            per_cycle = (
                self.match_probes / self.negotiation_cycles
                if self.negotiation_cycles
                else 0.0
            )
            lines.append("matchmaking " + "-" * 46)
            lines.append(
                f"{'negotiation cycles':<24}{self.negotiation_cycles:>16,}"
            )
            lines.append(
                f"{'jobs walked':<24}{self.jobs_walked:>16,}"
            )
            lines.append(
                f"{'classad evals':<24}{self.match_probes:>16,}"
            )
            lines.append(
                f"{'evals/cycle':<24}{per_cycle:>16,.1f}"
            )
            lines.append(
                f"{'pinned-route matches':<24}{self.pin_routed:>16,}"
            )
            lines.append(
                f"{'full-scan matches':<24}{self.full_scans:>16,}"
            )
            lines.append(
                f"{'compile cache hits':<24}{self.compile_hits:>16,}"
            )
            lines.append(
                f"{'compile cache misses':<24}{self.compile_misses:>16,}"
            )
            lines.append(
                f"{'compile cache evictions':<24}{self.compile_evictions:>16,}"
            )
        if self.repack_passes or self.solver_calls:
            packs = self.solver_calls
            lines.append("scheduler " + "-" * 48)
            lines.append(
                f"{'repack passes':<24}{self.repack_passes:>16,}"
            )
            lines.append(
                f"{'devices repacked':<24}{self.devices_repacked:>16,}"
            )
            lines.append(
                f"{'knapsack solver calls':<24}{self.solver_calls:>16,}"
            )
            lines.append(
                f"{'shapes examined/pack':<24}"
                f"{self.pack_shapes_examined / packs if packs else 0.0:>16,.1f}"
            )
            lines.append(
                f"{'jobs touched/pack':<24}"
                f"{self.pack_jobs_touched / packs if packs else 0.0:>16,.1f}"
            )
            lines.append(
                f"{'jobs skipped':<24}{self.pack_jobs_skipped:>16,}"
            )
            lines.append(
                f"{'shapes peak':<24}{self.pack_shapes_peak:>16,}"
            )
        return "\n".join(lines)

    def absorb(self, other: "SimProfiler") -> None:
        """Add ``other``'s counters into this profiler.

        Counts and wall seconds add, per-kind tables add key by key, and
        peaks keep the larger value. A caller that swaps in a private
        profiler for part of a run (X7's per-pool-size sweep) folds it
        back so the outer ``--profile`` table still covers that work.
        """
        for name in self.__slots__:
            if name == "_started":
                continue
            mine, theirs = getattr(self, name), getattr(other, name)
            if isinstance(mine, dict):
                for key, value in theirs.items():
                    mine[key] = mine.get(key, 0) + value
            elif name.endswith("_peak"):
                setattr(self, name, max(mine, theirs))
            else:
                setattr(self, name, mine + theirs)

    def __repr__(self) -> str:
        return (
            f"<SimProfiler fired={self.total_fired} "
            f"switches={self.process_switches} heap_peak={self.heap_peak}>"
        )


def activate() -> SimProfiler:
    """Install a fresh profiler; environments built afterwards attach."""
    global ACTIVE
    ACTIVE = SimProfiler()
    return ACTIVE


def deactivate() -> Optional[SimProfiler]:
    """Uninstall the active profiler and return it (``None`` if none)."""
    global ACTIVE
    prof, ACTIVE = ACTIVE, None
    return prof
