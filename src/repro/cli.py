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
from .experiments.common import bench_scale, save_result, scaled
from .experiments.runner import CellOutcome, SimTask, TaskRunner, count_summary

#: Paper-scale job counts per experiment (used with --full).
_FULL_JOBS = {
    "motivation": 1000,
    "table2": 1000,
    "table3": 400,
    "fig7": 400,
    "fig8": 400,
    "fig9": 400,
    "fig10": None,  # scales with cluster size by construction
    "ablation-value": 400,
    "ablation-knapsack": 400,
    "ablation-cycle": 400,
    "ablation-placement": 400,
    "ext-capacity": 400,
    "ext-crash": 200,
    "ext-faults": 200,
    "ext-multidevice": 400,
    "ext-netchaos": 200,
    "ext-oversubscription": None,
    "ext-replication": 400,
    "ext-scale": 400,
}

#: Quick job counts (default).
_QUICK_JOBS = {
    "motivation": 250,
    "table2": 250,
    "table3": 120,
    "fig7": 400,  # input-only, cheap
    "fig8": 120,
    "fig9": 120,
    "fig10": None,
    "ablation-value": 120,
    "ablation-knapsack": 120,
    "ablation-cycle": 120,
    "ablation-placement": 120,
    "ext-capacity": 120,
    "ext-crash": 60,
    "ext-faults": 60,
    "ext-multidevice": 120,
    "ext-netchaos": 60,
    "ext-oversubscription": None,
    "ext-replication": 60,
    "ext-scale": 64,
}

#: Experiments excluded from ``all``: ext-scale's rendered output
#: includes host wall-clock and RSS, which would break the guarantee
#: that ``all`` output is byte-identical across runs and worker counts.
_NOT_IN_ALL = frozenset({"ext-scale"})

#: Which experiments consume each experiment-specific flag. A flag
#: passed with a selection that includes no consumer is an error (the
#: run would silently ignore it); a selection that merely includes
#: non-consumers too (e.g. ``all``) gets a warning.
_FLAG_CONSUMERS = {
    "--fault-rate": {"ext-faults"},
    "--net-loss": {"ext-netchaos"},
    "--net-delay": {"ext-netchaos"},
    "--net-partition": {"ext-netchaos"},
    "--daemon-crash-rate": {"ext-crash"},
    "--crash": {"ext-crash"},
}

#: fig10's per-node pressure at scale 1.0 (see the module).
_FIG10_JOBS_PER_NODE = 200

#: How many per-cell timing lines to print before switching to the
#: slowest-only view.
_MAX_CELL_LINES = 12


def _experiment_kwargs(
    name: str,
    jobs: Optional[int],
    seed: int,
    scale: float,
    fault_rates: Optional[Sequence[float]] = None,
    net_losses: Optional[Sequence[float]] = None,
    net_delay: Optional[float] = None,
    net_partitions: Sequence = (),
    crash_rates: Optional[Sequence[float]] = None,
    crashes: Sequence = (),
) -> dict:
    """Keyword arguments for one experiment's task grid.

    ``jobs`` is the explicit ``--job-count`` override; otherwise the
    quick/full table entry scaled by ``REPRO_SCALE``. ``fault_rates``
    (from ``--fault-rate``) only applies to ext-faults; the ``--net-*``
    knobs only to ext-netchaos; ``--daemon-crash-rate`` / ``--crash``
    only to ext-crash (see ``_FLAG_CONSUMERS``).
    """
    kwargs: dict = {"seed": seed}
    if name == "ext-faults" and fault_rates:
        kwargs["rates"] = tuple(fault_rates)
    if name == "ext-crash":
        if crash_rates:
            kwargs["rates"] = tuple(crash_rates)
        if crashes:
            kwargs["crashes"] = tuple(crashes)
    if name == "ext-netchaos":
        if net_losses:
            kwargs["losses"] = tuple(net_losses)
        if net_partitions:
            kwargs["partitions"] = tuple(net_partitions)
        if net_delay is not None:
            kwargs["delay_s"] = net_delay
    if name == "ext-oversubscription":
        return kwargs  # exact experiment: no job count to scale
    if jobs is not None:
        if name == "fig10":
            kwargs["jobs_per_node"] = max(1, jobs // 8)
        elif name == "motivation":
            kwargs["real_jobs"] = jobs
            kwargs["synthetic_jobs"] = max(8, int(jobs * 0.4))
        else:
            kwargs["jobs"] = jobs
    elif name == "fig10" and scale != 1.0:
        kwargs["jobs_per_node"] = max(2, round(_FIG10_JOBS_PER_NODE * scale))
    return kwargs


def _grid_for(name: str, kwargs: dict) -> list[SimTask]:
    """An experiment's cell grid; whole-run task for grid-less modules."""
    module = EXPERIMENTS[name]
    if hasattr(module, "tasks"):
        return module.tasks(**kwargs)
    return [SimTask.make(name, f"run:{name}", label="run", **kwargs)]


def _merge(name: str, kwargs: dict, outcomes: Sequence[CellOutcome]):
    module = EXPERIMENTS[name]
    if hasattr(module, "merge"):
        return module.merge([o.value for o in outcomes], **kwargs)
    return outcomes[0].value


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
    cached = sum(1 for o in outcomes if o.cached)
    return [
        f"[  {name}: slowest {len(shown)} of {len(outcomes)} cells "
        f"({cached} cached):]",
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
    crashes = ()
    if args.crashes:
        from .faults import parse_crash

        try:
            crashes = tuple(parse_crash(spec) for spec in args.crashes)
        except ValueError as exc:
            parser.error(f"--crash: {exc}")
    partitions = ()
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
    passed_flags = {
        "--fault-rate": bool(args.fault_rates),
        "--net-loss": bool(args.net_losses),
        "--net-delay": args.net_delay is not None,
        "--net-partition": bool(args.net_partitions),
        "--daemon-crash-rate": bool(args.crash_rates),
        "--crash": bool(args.crashes),
    }
    for flag, on in passed_flags.items():
        if not on:
            continue
        consumers = _FLAG_CONSUMERS[flag]
        if not requested & consumers:
            parser.error(
                f"{flag} only applies to {'/'.join(sorted(consumers))}, "
                f"which the requested selection does not include"
            )
        if requested - consumers:
            print(
                f"[warning: {flag} only affects "
                f"{'/'.join(sorted(consumers))}; the other requested "
                f"experiments ignore it]",
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
    table = _FULL_JOBS if args.full else _QUICK_JOBS
    scale = bench_scale(default=1.0)

    plans = []
    for name in names:
        base = args.job_count
        if base is None and table[name] is not None:
            base = scaled(table[name], scale) if scale != 1.0 else table[name]
        kwargs = _experiment_kwargs(
            name, base, args.seed, scale,
            fault_rates=args.fault_rates,
            net_losses=args.net_losses,
            net_delay=args.net_delay,
            net_partitions=partitions,
            crash_rates=args.crash_rates,
            crashes=crashes,
        )
        plans.append((name, kwargs, _grid_for(name, kwargs)))

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
        outcomes = runner.map_tasks(
            [task for _, _, grid in plans for task in grid]
        )
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
    for name, kwargs, grid in plans:
        cell_outcomes = outcomes[offset:offset + len(grid)]
        offset += len(grid)
        text = EXPERIMENTS[name].render(_merge(name, kwargs, cell_outcomes))
        print(text)
        if args.save:
            save_result(name, text)
        cell_seconds = sum(o.seconds for o in cell_outcomes)
        print(
            f"[{name}: {cell_seconds:.1f}s cell-time, {len(grid)} cells "
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
