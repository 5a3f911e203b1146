"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments table2            # one artifact
    python -m repro.experiments all               # everything
    python -m repro.experiments all --jobs 4      # 4 worker processes
    python -m repro.experiments table2 --job-count 200
    repro-experiments fig8                        # installed script

Every experiment declares its trial grid as independent simulation
cells; the CLI collects the grids of all requested experiments into one
pool, fans cache misses out over ``--jobs`` worker processes, and merges
the results deterministically — parallel output is byte-identical to
``--jobs 1``. Finished cells land in a content-addressed cache (keyed by
cell parameters plus a fingerprint of ``src/repro``), so re-running
after an unrelated edit is near-instant; ``--no-cache`` /
``--clear-cache`` opt out.

Job counts default to quick sizes; pass ``--full`` for the paper-scale
runs recorded in EXPERIMENTS.md, or set ``REPRO_SCALE=0.25`` for a
smoke pass (the scale is part of the cache key).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from .experiments import EXPERIMENTS
from .experiments.cache import ResultCache
from .experiments.common import bench_scale, save_result
from .experiments.runner import CellOutcome, TaskRunner, count_summary, plan

#: Experiments excluded from ``all``: ext-scale's rendered output
#: includes host wall-clock and RSS, which would break the guarantee
#: that ``all`` output is byte-identical across runs and worker counts.
_NOT_IN_ALL = frozenset({"ext-scale"})

#: Experiment-specific flags: flag -> (the experiment that consumes it,
#: the parameter it sets). A flag passed with a selection that does not
#: include its consumer is an error (the run would silently ignore it);
#: a selection that merely includes other experiments too (e.g. ``all``)
#: gets a warning.
_FLAG_PARAMS = {
    "--fault-rate": ("ext-faults", "rates"),
    "--net-loss": ("ext-netchaos", "losses"),
    "--net-delay": ("ext-netchaos", "delay_s"),
    "--net-partition": ("ext-netchaos", "partitions"),
    "--daemon-crash-rate": ("ext-crash", "rates"),
    "--crash": ("ext-crash", "crashes"),
}

#: How many per-cell timing lines to print before switching to the
#: slowest-only view.
_MAX_CELL_LINES = 12


def _overrides(
    name: str,
    job_count: Optional[int],
    seed: int,
    scale: float,
    full: bool = False,
    flags: Optional[dict] = None,
) -> dict:
    """One experiment's parameter overrides from the command line.

    ``job_count`` is the explicit ``--job-count``; otherwise the
    module's quick or ``--full`` count scaled by ``REPRO_SCALE``.
    ``flags`` maps each experiment-specific flag that was passed to
    its value; only the flag's consumer takes it (see ``_FLAG_PARAMS``).
    """
    module = EXPERIMENTS[name]
    overrides = {"seed": seed} if "seed" in module.PARAMS else {}
    if module.JOBS is not None:
        overrides.update(module.JOBS.overrides(job_count, full, scale))
    for flag, value in (flags or {}).items():
        consumer, param = _FLAG_PARAMS[flag]
        if consumer == name:
            overrides[param] = tuple(value) if isinstance(value, list) else value
    return overrides


def _cell_lines(name: str, outcomes: Sequence[CellOutcome]) -> list[str]:
    """Per-cell timing lines: every cell, or the slowest for big grids."""

    def line(outcome: CellOutcome) -> str:
        if outcome.computed:
            timing = f"{outcome.seconds:.2f}s"
        else:
            timing = "cached" if outcome.cached else "duplicate"
        return f"[  {name}/{outcome.task.label}: {timing}]"

    if len(outcomes) <= _MAX_CELL_LINES:
        return [line(o) for o in outcomes]
    slowest = sorted(outcomes, key=lambda o: o.seconds, reverse=True)
    shown = slowest[:_MAX_CELL_LINES - 2]
    return [
        f"[  {name}: slowest {len(shown)} of {len(outcomes)} cells "
        f"({count_summary(outcomes)}):]",
        *[line(o) for o in shown],
    ]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the simulator.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS.keys(), "all"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes for the trial fan-out (default: all cores)",
    )
    parser.add_argument(
        "--job-count", type=int, default=None,
        help="override the simulated job count per experiment",
    )
    parser.add_argument(
        "--full", action="store_true", help="paper-scale job counts (slower)"
    )
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument(
        "--fault-rate", type=float, action="append", default=None,
        dest="fault_rates", metavar="RATE",
        help="ext-faults: fault events per 1000 simulated seconds; repeat "
        "for a sweep (default: 0 0.5 1 2 4). The fault schedule seed is "
        "derived from --seed.",
    )
    parser.add_argument(
        "--net-loss", type=float, action="append", default=None,
        dest="net_losses", metavar="P",
        help="ext-netchaos: per-message loss probability in [0, 1); repeat "
        "for a sweep (default: 0 0.02 0.05 0.1). 0 runs without a fabric. "
        "The fabric seed is derived from --seed.",
    )
    parser.add_argument(
        "--net-delay", type=float, default=None, metavar="SECONDS",
        help="ext-netchaos: base one-way message delay for fabric cells "
        "(default: 0.05)",
    )
    parser.add_argument(
        "--net-partition", action="append", default=None,
        dest="net_partitions", metavar="START:END:PATTERN",
        help="ext-netchaos: scripted partition window cutting endpoints "
        "matching PATTERN ('schedd', 'startd:*', '*') off the network "
        "between START and END seconds; repeatable",
    )
    parser.add_argument(
        "--daemon-crash-rate", type=float, action="append", default=None,
        dest="crash_rates", metavar="RATE",
        help="ext-crash: daemon crashes per 1000 simulated seconds; repeat "
        "for a sweep (default: 0 0.5 1 2). The crash schedule seed is "
        "derived from --seed.",
    )
    parser.add_argument(
        "--crash", action="append", default=None,
        dest="crashes", metavar="T:DAEMON",
        help="ext-crash: scripted crash of DAEMON (schedd, negotiator, or "
        "collector) at T simulated seconds, added to every rate column "
        "(including rate 0); repeatable",
    )
    parser.add_argument(
        "--audit", action="store_true",
        help="run the runtime invariant auditor over every cell: each "
        "submitted job gets exactly one terminal outcome, no slot is "
        "double-claimed, no job runs on two nodes, and claim/lease "
        "ledgers reconcile at cell end "
        "(violations raise; implies --jobs 1 and --no-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell; do not read or write the result cache",
    )
    parser.add_argument(
        "--clear-cache", action="store_true",
        help="delete the result cache before running",
    )
    parser.add_argument(
        "--save", action="store_true",
        help="also write each rendered artifact under benchmarks/results/ "
        "(honors REPRO_RESULTS_DIR)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="instrument the simulation kernel and print a per-event-kind "
        "breakdown after the run (implies --jobs 1 and --no-cache so the "
        "counters cover every cell in-process)",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace_event JSON of the run to PATH — open it "
        "in chrome://tracing or https://ui.perfetto.dev (implies --jobs 1 "
        "and --no-cache; deterministic for a fixed seed)",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="write a plain-text metrics summary (counters, gauges, "
        "histograms) of the run to PATH (implies --jobs 1 and --no-cache)",
    )
    args = parser.parse_args(argv)

    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.fault_rates and any(rate < 0 for rate in args.fault_rates):
        parser.error("--fault-rate must be non-negative")
    if args.net_losses and any(
        not 0.0 <= loss < 1.0 for loss in args.net_losses
    ):
        parser.error("--net-loss must be in [0, 1)")
    if args.net_delay is not None and args.net_delay < 0:
        parser.error("--net-delay must be non-negative")
    if args.crash_rates and any(rate < 0 for rate in args.crash_rates):
        parser.error("--daemon-crash-rate must be non-negative")
    crashes = None
    if args.crashes:
        from .faults import parse_crash

        try:
            crashes = tuple(parse_crash(spec) for spec in args.crashes)
        except ValueError as exc:
            parser.error(f"--crash: {exc}")
    partitions = None
    if args.net_partitions:
        from .net import parse_partition

        try:
            partitions = tuple(
                parse_partition(spec) for spec in args.net_partitions
            )
        except ValueError as exc:
            parser.error(f"--net-partition: {exc}")

    requested = (
        set(EXPERIMENTS) - _NOT_IN_ALL
        if args.experiment == "all"
        else {args.experiment}
    )
    passed = {
        flag: value
        for flag, value in (
            ("--fault-rate", args.fault_rates),
            ("--net-loss", args.net_losses),
            ("--net-delay", args.net_delay),
            ("--net-partition", partitions),
            ("--daemon-crash-rate", args.crash_rates),
            ("--crash", crashes),
        )
        if value is not None
    }
    for flag in passed:
        consumer = _FLAG_PARAMS[flag][0]
        if consumer not in requested:
            parser.error(
                f"{flag} only applies to {consumer}, "
                f"which the requested selection does not include"
            )
        if requested != {consumer}:
            print(
                f"[warning: {flag} only affects {consumer}; the other "
                f"requested experiments ignore it]",
                file=sys.stderr,
            )

    observing = [
        flag
        for flag, on in (
            ("--profile", args.profile),
            ("--trace", args.trace is not None),
            ("--metrics", args.metrics is not None),
            ("--audit", args.audit),
        )
        if on
    ]
    if observing:
        # Worker processes would each observe privately and cache hits
        # would skip simulation entirely; neither yields usable output —
        # so an explicit request for parallelism is a contradiction, not
        # something to silently override.
        if args.jobs is not None and args.jobs > 1:
            parser.error(
                f"{'/'.join(observing)} runs every cell in-process; "
                f"--jobs {args.jobs} conflicts (omit --jobs or pass --jobs 1)"
            )
        args.jobs = 1
        args.no_cache = True

    cache: Optional[ResultCache] = None
    if args.clear_cache:
        ResultCache().clear()
    if not args.no_cache:
        cache = ResultCache()
    runner = TaskRunner(workers=args.jobs, cache=cache)

    names = (
        [n for n in EXPERIMENTS if n not in _NOT_IN_ALL]
        if args.experiment == "all"
        else [args.experiment]
    )
    scale = bench_scale(default=1.0)
    plans = [
        plan(
            EXPERIMENTS[name],
            **_overrides(
                name, args.job_count, args.seed, scale, args.full, passed
            ),
        )
        for name in names
    ]

    profiler = None
    if args.profile:
        from .sim import profile as sim_profile

        profiler = sim_profile.activate()
    tracer = None
    registry = None
    if args.trace is not None:
        from .obs import trace as obs_trace

        tracer = obs_trace.activate()
    if args.metrics is not None:
        from .obs import metrics as obs_metrics

        registry = obs_metrics.activate()
    auditor = None
    if args.audit:
        from .obs import audit as obs_audit

        auditor = obs_audit.activate()

    started = time.perf_counter()
    try:
        outcomes = runner.map_tasks([task for p in plans for task in p.tasks])
    finally:
        if profiler is not None:
            from .sim import profile as sim_profile

            sim_profile.deactivate()
        if tracer is not None:
            from .obs import trace as obs_trace

            obs_trace.deactivate()
        if registry is not None:
            from .obs import metrics as obs_metrics

            obs_metrics.deactivate()
        if auditor is not None:
            from .obs import audit as obs_audit

            obs_audit.deactivate()
    wall = time.perf_counter() - started

    offset = 0
    for name, grid in zip(names, plans):
        cell_outcomes = outcomes[offset:offset + len(grid.tasks)]
        offset += len(grid.tasks)
        text = EXPERIMENTS[name].render(
            grid.result([o.value for o in cell_outcomes])
        )
        print(text)
        if args.save:
            save_result(name, text)
        cell_seconds = sum(o.seconds for o in cell_outcomes)
        print(
            f"[{name}: {cell_seconds:.1f}s cell-time, {len(grid.tasks)} cells "
            f"({count_summary(cell_outcomes)})]"
        )
        for line in _cell_lines(name, cell_outcomes):
            print(line)
        print()

    print(
        f"[total: {wall:.1f}s wall, {len(outcomes)} cells "
        f"({count_summary(runner.outcomes)}), "
        f"{runner.workers} worker(s)]"
    )
    if profiler is not None:
        print()
        print(profiler.render())
    if tracer is not None:
        from .obs.export import chrome_trace

        with open(args.trace, "w") as fh:
            fh.write(chrome_trace(tracer))
        counts = tracer.span_counts()
        print(
            f"[trace: {sum(counts.values())} spans across "
            f"{len(tracer.cells)} cell(s) -> {args.trace}]"
        )
    if registry is not None:
        from .obs.export import render_summary

        with open(args.metrics, "w") as fh:
            fh.write(render_summary(tracer, registry) + "\n")
        print(f"[metrics: {len(registry.cells)} cell(s) -> {args.metrics}]")
    if auditor is not None:
        print(auditor.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
