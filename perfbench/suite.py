"""The benchmark's workloads, output checks, measured runs and traced run.

Everything here drives the program through its public entry points:
``make_workload`` fed the benchmark's seed, ``run_configuration``, the
fault and network profiles with their derived seeds, and the four
``activate()``/``deactivate()`` handles (sim profiler, tracer, metrics
registry, auditor).

Run isolation: every run starts and ends with all four ``ACTIVE`` handles
at ``None`` and with no wrapper of the traced run installed; both are
checked, and a run that breaks either is an error.

ClassAd caches: all runs of one invocation share a process, so the
parse and compile LRU caches are cold for the first simulation of an
invocation and warm for the rest. Every invocation follows the same
sequence (setup probes first, then the full runs), so this holds alike
on every commit; ``classad.compile_misses`` in the traced run counts
what a warm cache still misses.
"""

from __future__ import annotations

import gc
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from repro.cluster import ClusterConfig, SimulationResult, run_configuration
from repro.cluster.node import ComputeNode
from repro.condor.collector import Collector
from repro.condor.negotiator import Negotiator
from repro.condor.recovery import DaemonSupervisor, JobQueueLog
from repro.condor.schedd import Schedd
from repro.core.packer import DevicePacker
from repro.core.scheduler import KnapsackClusterScheduler
from repro.cosmic.middleware import Cosmic
from repro.experiments import common as experiments_common
from repro.faults import FaultProfile
from repro.faults.schedule import derive_fault_seed
from repro.mpss.runtime import OffloadRuntime
from repro.net.fabric import MessageFabric
from repro.net.profile import NetProfile, derive_net_seed
from repro.obs import audit as _audit
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.phi.device import XeonPhi
from repro.sim import Environment
from repro.sim import profile as _profile

from . import spans
from .refclock import RefClock

#: Full runs per invocation, at the least: two, so that every invocation
#: checks the simulated metrics repeat exactly.
MIN_RUNS = 2
#: Set-up samples per invocation (full runs plus set-up-only probes).
SETUP_SAMPLES = 5

#: End-to-end metrics of ``--trace 0``: name -> (unit, better).
END_TO_END = {
    "jobs_per_s": ("jobs/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "makespan_sim_s": ("sim_s", "lower"),
    "utilization_sim": ("fraction", "higher"),
    "completed_frac_sim": ("fraction", "higher"),
    "mean_wait_sim_s": ("sim_s", "lower"),
}

#: Per-layer metrics of ``--trace 1``: name -> (unit, better). Which
#: end-to-end metric each should move, on which workload, is tabled in
#: perfbench/README.md.
PER_LAYER = {
    "core.pack_s": ("s", "lower"),
    "core.pack_calls": ("count", "lower"),
    "core.pack_items.mean": ("count", "lower"),
    "core.pack_items.max": ("count", "lower"),
    "core.pack_shapes.mean": ("count", "lower"),
    "core.schedule_s": ("s", "lower"),
    "core.repack_passes": ("count", "lower"),
    "core.solver_calls": ("count", "lower"),
    "core.packing_cache_hits": ("count", "higher"),
    "core.cache_hit_ratio": ("ratio", "higher"),
    "negotiator.self_s": ("s", "lower"),
    "negotiator.cycles": ("count", "lower"),
    "negotiator.cycle_ms.p50": ("ms", "lower"),
    "negotiator.cycle_ms.pmax10": ("ms", "lower"),
    "negotiator.match_probes": ("count", "lower"),
    "negotiator.matches": ("count", "lower"),
    "negotiator.probes_per_match": ("ratio", "lower"),
    "negotiator.pin_routed": ("count", "higher"),
    "negotiator.full_scans": ("count", "lower"),
    "classad.compile_hits": ("count", "higher"),
    "classad.compile_misses": ("count", "lower"),
    "schedd.pending_s": ("s", "lower"),
    "schedd.pending_calls": ("count", "lower"),
    "collector.self_s": ("s", "lower"),
    "collector.snapshot_calls": ("count", "lower"),
    "collector.live_view_calls": ("count", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.events_fired": ("count", "lower"),
    "sim.process_switches": ("count", "lower"),
    "sim.heap_peak": ("count", "lower"),
    "node.self_s": ("s", "lower"),
    "node.offloads": ("count", "lower"),
    "cosmic.admits": ("count", "lower"),
    "cosmic.gate_acquires": ("count", "lower"),
    "phi.telemetry_records": ("count", "lower"),
    "node.materialized": ("count", "lower"),
    "wait.queued_sim_s.mean": ("sim_s", "lower"),
    "wait.dispatch_sim_s.mean": ("sim_s", "lower"),
    "wait.admission_sim_s.mean": ("sim_s", "lower"),
    "wait.gate_sim_s.mean": ("sim_s", "lower"),
    "wait.backoff_sim_s.mean": ("sim_s", "lower"),
    "net.self_s": ("s", "lower"),
    "net.messages": ("count", "lower"),
    "net.retransmits": ("count", "lower"),
    "net.duplicates_dropped": ("count", "lower"),
    "net.retransmit_ratio": ("ratio", "lower"),
    "claims.lease_expiries": ("count", "lower"),
    "claims.lost": ("count", "lower"),
    "claims.rejected": ("count", "lower"),
    "claims.match_timeouts": ("count", "lower"),
    "wal.records": ("count", "lower"),
    "wal.append_s": ("s", "lower"),
    "wal.replay_s": ("s", "lower"),
    "wal.replayed": ("count", "lower"),
    "wal.checkpoint_s": ("s", "lower"),
    "recovery.crashes": ("count", "lower"),
    "recovery.crash_s": ("s", "lower"),
    "recovery.schedd_recoveries": ("count", "lower"),
    "recovery.readopted": ("count", "higher"),
    "faults.injected": ("count", "lower"),
    "obs.audit_s": ("s", "lower"),
    "obs.trace_s": ("s", "lower"),
    "obs.metrics_s": ("s", "lower"),
    "obs.spans": ("count", "lower"),
    "workloads.generate_s": ("s", "lower"),
    "cluster.build_s": ("s", "lower"),
    "trace.jobs_per_s": ("jobs/s", "higher"),
    "trace.untraced_jobs_per_s": ("jobs/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


#: The chaos workload's daemon crashes: one every 120 simulated seconds
#: up to t=1440 s, six of the negotiator and three each of the collector
#: and the schedd. Scripted rather than drawn at a rate: crashes drawn at
#: random sometimes land close together and expire hundreds of leases at
#: once, and jobs hit four times exhaust their retries. Across seeds that
#: moved completion between 73% and 99%, which would swamp every other
#: difference the workload should show. Three schedd crashes can cost a
#: job at most three attempts.
DAEMON_CRASHES = tuple(
    (120.0 * (i + 1), ("negotiator", "collector", "negotiator", "schedd")[i % 4])
    for i in range(12)
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a configuration on a cluster and a job set."""

    name: str
    configuration: str
    nodes: int
    #: ``("synthetic", count, distribution)`` or ``("table1", count)``;
    #: the seed is appended per run (``make_workload``'s spec format).
    jobs: tuple
    #: Faults, message fabric, and auditor + metrics + tracer on.
    chaos: bool = False

    def spec(self, seed: int) -> tuple:
        return self.jobs + (seed,)

    def faults(self) -> Optional[FaultProfile]:
        if not self.chaos:
            return None
        return FaultProfile.chaos(15, device_fail_rate=0.0, crashes=DAEMON_CRASHES)

    def net(self) -> Optional[NetProfile]:
        return NetProfile(loss=0.02) if self.chaos else None


WORKLOADS = {
    w.name: w
    for w in (
        # The proposed scheduler at the paper's highest pressure (Fig. 10,
        # 8 nodes x 200 jobs): the knapsack packer does most of the work.
        Workload("mcck-fig10", "MCCK", 8, ("synthetic", 1600, "normal")),
        # Same job family and pressure, random placement over COSMIC on
        # 64 nodes: kernel, node model and matchmaking; never calls core.
        Workload("mcc-wide", "MCC", 64, ("synthetic", 12800, "normal")),
        # Table-I mix with faults, daemon crashes, a lossy fabric and all
        # observers on: the failure paths, fabric, WAL and obs layers.
        # No permanent card loss: like clustered crashes, one lost card
        # more or less moves the makespan of a seed by several percent.
        Workload("chaos-audit", "MCC", 32, ("table1", 3000), chaos=True),
    )
}


# -- run isolation -----------------------------------------------------------

_HANDLES = {
    "repro.sim.profile": _profile,
    "repro.obs.trace": _trace,
    "repro.obs.metrics": _metrics,
    "repro.obs.audit": _audit,
}


class IsolationError(RuntimeError):
    """A run started or ended with a handle active or a wrapper installed."""


def entry_points(recorder: spans.SpanRecorder, nodes: list) -> list[spans.Patch]:
    """The traced run's patches: one per timed entry point, plus a
    constructor hook collecting the built nodes into ``nodes``."""
    Patch = spans.Patch

    def call(owner, attr, name):
        return Patch(owner, attr, lambda fn: spans.timed(fn, name, recorder))

    def observed(owner, attr, name, observe):
        return Patch(
            owner, attr,
            lambda fn: spans.timed_observed(fn, name, recorder, observe),
        )

    def generator(owner, attr, name):
        return Patch(
            owner, attr, lambda fn: spans.timed_generator(fn, name, recorder)
        )

    patches = [
        call(Environment, "run", "sim.run"),
        observed(Negotiator, "negotiate_once", "negotiator.negotiate_once",
                 _observe_matches),
        call(Collector, "snapshots", "collector.snapshots"),
        call(Collector, "indexed_snapshots", "collector.indexed_snapshots"),
        call(Collector, "live_view", "collector.live_view"),
        call(Schedd, "pending", "schedd.pending"),
        observed(DevicePacker, "pack", "core.pack", _observe_pack),
        call(KnapsackClusterScheduler, "schedule_pending", "core.schedule_pending"),
        generator(OffloadRuntime, "execute", "node.execute"),
        generator(XeonPhi, "run_offload", "node.run_offload"),
        call(Cosmic, "admit_job", "node.cosmic.admit_job"),
        call(Cosmic, "release_job", "node.cosmic.release_job"),
        call(Cosmic, "acquire", "node.cosmic.acquire"),
        call(Cosmic, "release", "node.cosmic.release"),
        call(MessageFabric, "send", "net.send"),
        Patch(MessageFabric, "register",
              lambda fn: spans.timed_register(fn, "net.handler", recorder)),
        call(JobQueueLog, "replay", "wal.replay"),
        call(JobQueueLog, "checkpoint", "wal.checkpoint"),
        call(DaemonSupervisor, "crash_daemon", "recovery.crash_daemon"),
        call(experiments_common, "make_workload", "workloads.generate"),
        Patch(ComputeNode, "__init__", lambda fn: spans.collecting_init(fn, nodes)),
    ]
    patches += [
        call(JobQueueLog, attr, "wal.append." + attr)
        for attr in spans.public_methods(JobQueueLog)
        if attr.startswith("log_")
    ]
    for prefix, cls in (
        ("obs.audit.", _audit.Auditor),
        ("obs.trace.", _trace.Tracer),
        ("obs.metrics.", _metrics.MetricsRegistry),
    ):
        patches += [
            call(cls, attr, prefix + attr) for attr in spans.public_methods(cls)
        ]
    return patches


def _observe_matches(recorder, args, kwargs, result) -> None:
    recorder.bump("negotiator.matches", result)


def _observe_pack(recorder, args, kwargs, result) -> None:
    jobs = args[1] if len(args) > 1 else kwargs["jobs"]
    recorder.bump("core.pack_items", len(jobs))
    recorder.counts["core.pack_items.max"] = max(
        recorder.counts.get("core.pack_items.max", 0), len(jobs)
    )
    recorder.bump(
        "core.pack_shapes",
        len({(j.declared_memory_mb, j.declared_threads) for j in jobs}),
    )


#: Every attribute the traced run replaces, at its original value.
_PATCH_POINTS = entry_points(spans.SpanRecorder(), [])
_ORIGINALS = spans.snapshot(_PATCH_POINTS)


def verify_clean() -> None:
    """Raise unless every handle is off and every entry point is original."""
    active = [name for name, mod in _HANDLES.items() if mod.ACTIVE is not None]
    wrapped = spans.changed(_ORIGINALS)
    if active or wrapped:
        raise IsolationError(f"active handles {active}, wrapped {wrapped}")


# -- one simulation ----------------------------------------------------------


@dataclass
class Run:
    """One simulation of a workload and what the checks need from it."""

    jobs: list
    result: SimulationResult
    #: AuditViolation messages from the end-of-cell reconciliation.
    violations: list
    #: The program tracer, when it was on.
    tracer: Optional[_trace.Tracer]


def simulate(workload: Workload, seed: int, program_tracer: bool = False) -> Run:
    """Generate the job set from ``seed`` and run it to completion.

    ``chaos`` workloads run with the auditor, metrics registry and tracer
    on; ``program_tracer`` turns the tracer on for the others. Every
    handle this turns on is off again when it returns or raises.
    """
    auditor = registry = tracer = None
    try:
        if workload.chaos:
            auditor = _audit.activate()
            registry = _metrics.activate()
        if workload.chaos or program_tracer:
            tracer = _trace.activate()
        for handle in (auditor, registry, tracer):
            if handle is not None:
                handle.enter_cell(workload.name)
        jobs = experiments_common.make_workload(workload.spec(seed))
        result = run_configuration(
            workload.configuration,
            jobs,
            ClusterConfig(nodes=workload.nodes, seed=seed),
            faults=workload.faults(),
            fault_seed=derive_fault_seed(seed),
            net=workload.net(),
            net_seed=derive_net_seed(seed),
        )
        violations = []
        if auditor is not None:
            try:
                auditor.finish_cell()
            except _audit.AuditViolation as exc:
                violations.append(str(exc))
        return Run(list(jobs), result, violations, tracer)
    finally:
        if auditor is not None:
            _audit.deactivate()
        if registry is not None:
            _metrics.deactivate()
        if tracer is not None:
            _trace.deactivate()


def check(workload: Workload, run: Run) -> list[str]:
    """Output problems of one run; empty when its outputs are correct."""
    problems = []
    submitted = Counter(job.job_id for job in run.jobs)
    terminal = Counter(r.job_id for r in run.result.job_results)
    missing = sorted(submitted - terminal)
    repeated = sorted(j for j, n in terminal.items() if n > 1)
    unknown = sorted(set(terminal) - set(submitted))
    if missing:
        problems.append(f"{len(missing)} job(s) without a terminal result: {missing[:3]}")
    if repeated:
        problems.append(f"{len(repeated)} job(s) with several results: {repeated[:3]}")
    if unknown:
        problems.append(f"{len(unknown)} result(s) for unsubmitted jobs: {unknown[:3]}")
    if not workload.chaos:
        unfinished = len(run.jobs) - run.result.completed_jobs
        if unfinished:
            problems.append(f"{unfinished} job(s) did not complete")
    problems += [f"audit: {v}" for v in run.violations]
    return problems


def sim_metrics(run: Run) -> dict[str, float]:
    """The simulated end-to-end metrics: fixed for a given seed."""
    result = run.result
    starts = [r.start for r in result.job_results]
    return {
        "makespan_sim_s": result.makespan,
        "utilization_sim": result.mean_core_utilization,
        "completed_frac_sim": result.completed_jobs / len(run.jobs),
        "mean_wait_sim_s": sum(starts) / len(starts) if starts else 0.0,
    }


class SetupDone(Exception):
    """Raised at the first ``Environment.run`` by a set-up-only probe."""


class RunClock:
    """Times ``Environment.run`` while installed: the host-time interval
    of each call. With ``stop_at_run`` the first call raises
    :class:`SetupDone` instead of running."""

    def __init__(self, stop_at_run: bool = False) -> None:
        self.stop_at_run = stop_at_run
        self.intervals: list[tuple[float, float]] = []
        self._original = None

    @property
    def start(self) -> float:
        return self.intervals[0][0]

    def __enter__(self) -> "RunClock":
        original = self._original = vars(Environment)["run"]
        intervals = self.intervals
        stop_at_run = self.stop_at_run

        def run(env, *args, **kwargs):
            started = perf_counter()
            if stop_at_run:
                intervals.append((started, started))
                raise SetupDone
            try:
                return original(env, *args, **kwargs)
            finally:
                intervals.append((started, perf_counter()))

        Environment.run = run
        return self

    def __exit__(self, *exc) -> None:
        Environment.run = self._original


@dataclass
class Sample:
    #: Reference seconds (see :mod:`perfbench.refclock`) of the set-up
    #: and inside ``Environment.run``.
    setup_s: float
    run_s: float
    #: Host seconds inside ``Environment.run``, as the clock read them.
    host_run_s: float
    run: Run

    @property
    def jobs_per_s(self) -> float:
        return self.run.result.completed_jobs / self.run_s

    @property
    def host_jobs_per_s(self) -> float:
        return self.run.result.completed_jobs / self.host_run_s


def measured_run(workload: Workload, seed: int) -> Sample:
    """One untraced run: set-up time, time inside the kernel, outputs."""
    verify_clean()
    gc.collect()  # start every run from the same heap, untimed
    with RefClock() as ref, RunClock() as clock:
        started = perf_counter()
        run = simulate(workload, seed)
    verify_clean()
    return Sample(
        setup_s=ref.seconds(started, clock.start),
        run_s=sum(ref.seconds(a, b) for a, b in clock.intervals),
        host_run_s=sum(b - a for a, b in clock.intervals),
        run=run,
    )


def setup_probe(workload: Workload, seed: int) -> float:
    """Set-up time, in reference seconds, of one run stopped where the
    simulation would start."""
    verify_clean()
    gc.collect()
    with RefClock() as ref, RunClock(stop_at_run=True) as clock:
        started = perf_counter()
        try:
            simulate(workload, seed)
        except SetupDone:
            pass
        else:
            raise RuntimeError("the simulation never called Environment.run")
    verify_clean()
    return ref.seconds(started, clock.start)


# -- the measured invocation (--trace 0) -------------------------------------


@dataclass
class Report:
    metrics: dict[str, float]
    attempted: int
    failed: int

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Tally:
    """Counts an invocation's operations and its failed ones.

    An operation fails when it raises or when its run fails an output
    check; runs of one invocation must also agree on the simulated
    metrics."""

    def __init__(self, workload: Workload, log) -> None:
        self.workload = workload
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[dict[str, float]] = None

    def attempt(self, label: str, action: Callable):
        """``action()``, or ``None`` when it raised (logged, counted failed)."""
        self.attempted += 1
        try:
            return action()
        except Exception:  # one failed run must not hide the others' results
            self.failed += 1
            self.log(f"{label}: raised")
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, label: str, run: Run) -> None:
        problems = check(self.workload, run)
        simulated = sim_metrics(run)
        if self.reference is None:
            self.reference = simulated
        elif simulated != self.reference:
            problems.append(f"simulated metrics {simulated} differ from {self.reference}")
        for problem in problems:
            self.log(f"{label}: FAILED CHECK {problem}")
        self.failed += bool(problems)

    def report(self, metrics: dict[str, float]) -> Report:
        return Report(metrics, self.attempted, self.failed)


def measure(workload: Workload, seed: int, seconds: float, log) -> Report:
    """Full runs for about ``seconds`` (at least :data:`MIN_RUNS`), and
    set-up probes before and after them up to :data:`SETUP_SAMPLES`
    set-up samples."""
    import resource

    tally = Tally(workload, log)
    setups = []

    def probe(label: str) -> None:
        value = tally.attempt(label, lambda: setup_probe(workload, seed))
        if value is not None:
            setups.append(value)

    for i in range(SETUP_SAMPLES - MIN_RUNS):
        probe(f"setup probe {i + 1}")
    rates = []
    began = perf_counter()
    last = 0.0
    while len(rates) < MIN_RUNS or perf_counter() - began + last <= seconds:
        label = f"run {len(rates) + 1}"
        started = perf_counter()
        sample = tally.attempt(label, lambda: measured_run(workload, seed))
        last = perf_counter() - started
        if sample is None:
            if tally.failed > MIN_RUNS:
                raise RuntimeError("runs keep failing")
            continue
        tally.check(label, sample.run)
        rates.append(sample.jobs_per_s)
        setups.append(sample.setup_s)
        log(
            f"{label}: setup {sample.setup_s:.3f} s, run {sample.run_s:.3f} s, "
            f"{sample.jobs_per_s:.1f} jobs/s ({sample.host_jobs_per_s:.1f} "
            "per host second)"
        )
        del sample  # keep one job set alive at a time
    while len(setups) < SETUP_SAMPLES:
        probe(f"setup probe {len(setups) + 1}")
    return tally.report({
        "jobs_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **tally.reference,
    })


# -- the traced invocation (--trace 1) ---------------------------------------

#: Program tracer spans behind each simulated-wait metric.
WAIT_SPANS = {
    "wait.queued_sim_s.mean": "queued",
    "wait.dispatch_sim_s.mean": "dispatch",
    "wait.admission_sim_s.mean": "admission",
    "wait.gate_sim_s.mean": "gate-wait",
    "wait.backoff_sim_s.mean": "backoff",
}


def waits(tracer: _trace.Tracer, jobs: int) -> dict[str, float]:
    """Simulated seconds per job in each wait span (closed spans only)."""
    totals = dict.fromkeys(WAIT_SPANS.values(), 0.0)
    for span in tracer.spans:
        if span.name in totals and span.end is not None:
            totals[span.name] += span.end - span.start
    return {metric: totals[name] / jobs for metric, name in WAIT_SPANS.items()}


@dataclass
class TracedPass:
    recorder: spans.SpanRecorder
    profiler: _profile.SimProfiler
    nodes: list
    run: Run
    #: Seconds from the first call into the program to the kernel's start.
    to_run_s: float


def traced_pass(workload: Workload, seed: int) -> TracedPass:
    """One run with every entry point wrapped and the sim profiler on,
    with the same handles as the measured run."""
    verify_clean()
    recorder = spans.SpanRecorder(keep_durations=("negotiator.negotiate_once",))
    nodes: list = []
    profiler = _profile.activate()
    try:
        with spans.Instrumentation(entry_points(recorder, nodes)):
            started = perf_counter()
            run = simulate(workload, seed)
    finally:
        _profile.deactivate()
    verify_clean()
    return TracedPass(
        recorder, profiler, nodes, run,
        recorder.first_start["sim.run"] - started,
    )


def layer_metrics(
    traced: TracedPass, untraced: Sample, wait_tracer: _trace.Tracer
) -> dict[str, float]:
    """Every per-layer metric of one traced pass."""
    rec, prof, result = traced.recorder, traced.profiler, traced.run.result
    self_s = rec.self_time
    calls = rec.calls
    counts = rec.counts

    def self_of(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pack_calls = calls.get("core.pack", 0)
    cycles_ms = [d * 1e3 for d in rec.durations["negotiator.negotiate_once"]]
    tail = spans.pmax10(cycles_ms)
    matches = counts.get("negotiator.matches", 0)
    solves = prof.solver_calls + prof.packing_cache_hits
    generate_s = rec.total.get("workloads.generate", 0.0)
    traced_run_s = rec.total["sim.run"]
    traced_jps = result.completed_jobs / traced_run_s
    metrics = {
        "core.pack_s": self_s.get("core.pack", 0.0),
        "core.pack_calls": pack_calls,
        "core.pack_items.mean": ratio(counts.get("core.pack_items", 0), pack_calls),
        "core.pack_items.max": counts.get("core.pack_items.max", 0),
        "core.pack_shapes.mean": ratio(counts.get("core.pack_shapes", 0), pack_calls),
        "core.schedule_s": self_s.get("core.schedule_pending", 0.0),
        "core.repack_passes": prof.repack_passes,
        "core.solver_calls": prof.solver_calls,
        "core.packing_cache_hits": prof.packing_cache_hits,
        "core.cache_hit_ratio": ratio(prof.packing_cache_hits, solves),
        "negotiator.self_s": self_s.get("negotiator.negotiate_once", 0.0),
        "negotiator.cycles": prof.negotiation_cycles,
        "negotiator.cycle_ms.p50": statistics.median(cycles_ms) if cycles_ms else 0.0,
        "negotiator.cycle_ms.pmax10": tail if tail is not None else 0.0,
        "negotiator.match_probes": prof.match_probes,
        "negotiator.matches": matches,
        "negotiator.probes_per_match": ratio(prof.match_probes, matches),
        "negotiator.pin_routed": prof.pin_routed,
        "negotiator.full_scans": prof.full_scans,
        "classad.compile_hits": prof.compile_hits,
        "classad.compile_misses": prof.compile_misses,
        "schedd.pending_s": self_s.get("schedd.pending", 0.0),
        "schedd.pending_calls": calls.get("schedd.pending", 0),
        "collector.self_s": self_of("collector."),
        "collector.snapshot_calls": calls.get("collector.snapshots", 0)
        + calls.get("collector.indexed_snapshots", 0),
        "collector.live_view_calls": calls.get("collector.live_view", 0),
        "sim.self_s": self_s.get("sim.run", 0.0),
        "sim.events_fired": prof.total_fired,
        "sim.process_switches": prof.process_switches,
        "sim.heap_peak": prof.heap_peak,
        "node.self_s": self_of("node."),
        "node.offloads": counts.get("node.run_offload.created", 0),
        "cosmic.admits": calls.get("node.cosmic.admit_job", 0),
        "cosmic.gate_acquires": calls.get("node.cosmic.acquire", 0),
        "phi.telemetry_records": prof.telemetry_records,
        "node.materialized": sum(1 for node in traced.nodes if node.materialized),
        "net.self_s": self_of("net."),
        "net.messages": result.net_messages,
        "net.retransmits": result.net_retransmits,
        "net.duplicates_dropped": result.net_duplicates_dropped,
        "net.retransmit_ratio": ratio(result.net_retransmits, result.net_messages),
        "claims.lease_expiries": result.lease_expiries,
        "claims.lost": result.claims_lost,
        "claims.rejected": result.claims_rejected,
        "claims.match_timeouts": result.match_timeouts,
        "wal.records": result.wal_records,
        "wal.append_s": self_of("wal.append."),
        "wal.replay_s": self_s.get("wal.replay", 0.0),
        "wal.replayed": result.wal_replayed,
        "wal.checkpoint_s": self_s.get("wal.checkpoint", 0.0),
        "recovery.crashes": result.daemon_crashes,
        "recovery.crash_s": self_s.get("recovery.crash_daemon", 0.0),
        "recovery.schedd_recoveries": result.schedd_recoveries,
        "recovery.readopted": result.jobs_readopted,
        "faults.injected": result.faults_injected,
        "obs.audit_s": self_of("obs.audit."),
        "obs.trace_s": self_of("obs.trace."),
        "obs.metrics_s": self_of("obs.metrics."),
        "obs.spans": len(traced.run.tracer.spans) if traced.run.tracer else 0,
        "workloads.generate_s": generate_s,
        "cluster.build_s": traced.to_run_s - generate_s,
        "trace.jobs_per_s": traced_jps,
        "trace.untraced_jobs_per_s": untraced.host_jobs_per_s,
        "trace.overhead_ratio": untraced.host_jobs_per_s / traced_jps,
    }
    metrics.update(waits(wait_tracer, len(traced.run.jobs)))
    return metrics


def trace_layers(workload: Workload, seed: int, log) -> tuple[Report, dict]:
    """The traced invocation: an untraced run (the overhead's base), the
    traced pass, and — when the measured configuration has no program
    tracer — a pass with it on for the simulated waits. All three must
    agree on the simulated metrics and pass the output checks; a pass
    that raises ends the invocation, since no metrics can follow."""
    tally = Tally(workload, log)

    def run_pass(label: str, action: Callable):
        value = tally.attempt(label, action)
        if value is None:
            raise RuntimeError(f"{label} raised")
        return value

    run_pass("setup probe", lambda: setup_probe(workload, seed))  # warms caches
    untraced = run_pass("untraced run", lambda: measured_run(workload, seed))
    tally.check("untraced run", untraced.run)
    log(f"untraced run: {untraced.host_jobs_per_s:.1f} jobs per host second")
    traced = run_pass("traced run", lambda: traced_pass(workload, seed))
    tally.check("traced run", traced.run)
    wait_tracer = traced.run.tracer
    if wait_tracer is None:
        wait_run = run_pass(
            "wait run", lambda: simulate(workload, seed, program_tracer=True)
        )
        tally.check("wait run", wait_run)
        wait_tracer = wait_run.tracer
    metrics = layer_metrics(traced, untraced, wait_tracer)
    return tally.report(metrics), traced.recorder.table()
