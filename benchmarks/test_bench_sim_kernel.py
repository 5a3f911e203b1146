"""Kernel performance bench: events/sec microbenchmark + fig8 cell timing.

Two measurements back the PR-4 hot-path overhaul:

* a timeout-heavy microbenchmark (the kernel's dominant event pattern)
  reporting raw events per wall second via the built-in profiler;
* the end-to-end MCCK/normal fig8 cell at paper scale (400 jobs), the
  workload profiled while optimizing.

Both are compared against the pre-PR numbers measured on the same
machine right before the overhaul (commit "deterministic fault
injection…"), and the rendered figures land in
``benchmarks/results/sim_kernel.txt`` plus machine-readable
``BENCH_kernel.json`` (shared record schema, see
``benchmarks/conftest.py``) so future PRs can extend the trajectory.

The hard assertion is a loose regression tripwire (the baseline
constants are machine-specific); the committed results file records the
actual speedup on the reference machine.
"""

import time

from conftest import bench_record

from repro.experiments import fig8
from repro.experiments.runner import compute_task, plan
from repro.sim import Environment

#: Pre-overhaul numbers on the reference machine (best of 5).
PRE_PR_EVENTS_PER_SEC = 526_775.0
PRE_PR_FIG8_CELL_SECONDS = 1.427

#: Regression floor for CI machines of unknown speed: the cell must stay
#: clearly faster than the pre-PR baseline even with machine variance.
MIN_CELL_SPEEDUP = 1.2

_PROCS = 100
_TIMEOUTS = 2_000


def _microbench_events_per_sec() -> tuple[float, int]:
    """Fired events per second on the timeout→resume fast path.

    Timed without the profiler (as the pre-PR baseline was): the event
    count is exact — one Timeout per tick plus each process's Initialize
    and terminal Process event.
    """

    def ticker(env):
        for _ in range(_TIMEOUTS):
            yield env.timeout(1.0)

    env = Environment()
    for _ in range(_PROCS):
        env.process(ticker(env))
    started = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - started
    fired = _PROCS * _TIMEOUTS + 2 * _PROCS
    return fired / elapsed, fired


def _fig8_cell():
    """The MCCK/normal 400-job cell (the paper-scale fig8 workhorse)."""
    for task in plan(fig8, jobs=400).tasks:
        params = dict(task.params)
        workload = params.get("workload")
        if params.get("configuration") == "MCCK" and workload[2] == "normal":
            return task
    raise AssertionError("fig8 grid no longer contains MCCK/normal")


def test_bench_sim_kernel(record_result, record_bench_json):
    # -- microbenchmark ----------------------------------------------------
    rates = []
    fired = 0
    for _ in range(5):
        rate, fired = _microbench_events_per_sec()
        rates.append(rate)
    events_per_sec = max(rates)

    # -- end-to-end cell ---------------------------------------------------
    task = _fig8_cell()
    compute_task(task)  # warm imports and caches out of the timing
    cell_seconds = None
    for _ in range(5):
        started = time.perf_counter()
        result = compute_task(task)
        elapsed = time.perf_counter() - started
        if cell_seconds is None or elapsed < cell_seconds:
            cell_seconds = elapsed

    kernel_speedup = events_per_sec / PRE_PR_EVENTS_PER_SEC
    cell_speedup = PRE_PR_FIG8_CELL_SECONDS / cell_seconds

    text = "\n".join(
        [
            "sim kernel bench " + "-" * 43,
            f"{'microbench events/sec':<28}{events_per_sec:>14,.0f}",
            f"{'microbench events fired':<28}{fired:>14,}",
            f"{'pre-PR events/sec':<28}{PRE_PR_EVENTS_PER_SEC:>14,.0f}",
            f"{'kernel speedup':<28}{kernel_speedup:>13.2f}x",
            "",
            f"{'fig8 MCCK/normal cell':<28}{cell_seconds:>13.3f}s",
            f"{'pre-PR cell':<28}{PRE_PR_FIG8_CELL_SECONDS:>13.3f}s",
            f"{'cell speedup':<28}{cell_speedup:>13.2f}x",
            f"{'cell makespan':<28}{result['makespan']:>14.4f}",
        ]
    )
    record_result("sim_kernel", text)

    record_bench_json(
        "kernel",
        [
            bench_record(
                "microbench",
                "events_per_sec",
                round(events_per_sec),
                "events/s",
                baseline=PRE_PR_EVENTS_PER_SEC,
            ),
            bench_record(
                "microbench", "events_fired", fired, "events"
            ),
            bench_record(
                "fig8-MCCK-normal",
                "cell_seconds",
                round(cell_seconds, 4),
                "s",
                baseline=PRE_PR_FIG8_CELL_SECONDS,
            ),
        ],
        baseline_note=(
            "pre-overhaul kernel on the reference machine (best of 5)"
        ),
    )

    assert events_per_sec > 0
    assert result["makespan"] > 0
    assert cell_speedup >= MIN_CELL_SPEEDUP, (
        f"fig8 cell regressed: {cell_seconds:.3f}s vs pre-PR "
        f"{PRE_PR_FIG8_CELL_SECONDS:.3f}s baseline"
    )
