"""Run isolation, output checks and the benchmark's contract files."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import spans, suite

ROOT = Path(__file__).resolve().parents[2]

#: Small stand-ins for the real workloads: same code paths, seconds less.
TINY = {
    "mcck": suite.Workload("tiny-mcck", "MCCK", 2, ("synthetic", 24, "normal")),
    "chaos": suite.Workload("tiny-chaos", "MCC", 4, ("table1", 40), chaos=True),
}


def test_traced_pass_restores_every_original_function():
    originals = spans.snapshot(suite._PATCH_POINTS)
    suite.verify_clean()
    traced = suite.traced_pass(TINY["chaos"], seed=3)
    suite.verify_clean()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    # The wrappers were in place during the pass: every layer the chaos
    # workload touches recorded spans.
    for name in ("sim.run", "negotiator.negotiate_once", "net.send",
                 "net.handler", "node.execute", "obs.audit.finish_cell",
                 "workloads.generate"):
        assert traced.recorder.calls.get(name), name
    assert traced.nodes and all(n.materialized for n in traced.nodes)


def test_instrumentation_restores_originals_when_the_run_raises():
    rec = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with spans.Instrumentation(suite.entry_points(rec, [])):
            with pytest.raises(suite.IsolationError):
                suite.verify_clean()
            raise RuntimeError
    suite.verify_clean()


def test_runs_leave_every_handle_off():
    sample = suite.measured_run(TINY["chaos"], seed=5)
    assert sample.setup_s > 0 and sample.run_s > 0
    for module in suite._HANDLES.values():
        assert module.ACTIVE is None
    assert suite.setup_probe(TINY["mcck"], seed=5) > 0
    suite.verify_clean()


def test_a_handle_left_on_is_an_isolation_error():
    from repro.obs import trace

    trace.activate()
    try:
        with pytest.raises(suite.IsolationError):
            suite.measured_run(TINY["mcck"], seed=1)
    finally:
        trace.deactivate()


def test_output_check_flags_a_dropped_job_result():
    workload = TINY["mcck"]
    run = suite.simulate(workload, seed=7)
    assert suite.check(workload, run) == []
    results = run.result.job_results
    dropped = replace(run.result, job_results=results[1:])
    problems = suite.check(workload, suite.Run(run.jobs, dropped, [], None))
    assert any("without a terminal result" in p for p in problems)
    doubled = replace(run.result, job_results=results + results[:1])
    problems = suite.check(workload, suite.Run(run.jobs, doubled, [], None))
    assert any("several results" in p for p in problems)


def test_output_check_flags_incomplete_fault_free_runs_and_violations():
    workload = TINY["mcck"]
    run = suite.simulate(workload, seed=7)
    failed = replace(run.result.job_results[0], status="oom-killed")
    result = replace(run.result, job_results=[failed] + run.result.job_results[1:])
    assert suite.check(workload, suite.Run(run.jobs, result, [], None)) == [
        "1 job(s) did not complete"
    ]
    audited = suite.Run(run.jobs, run.result, ["[double-claim] ..."], None)
    assert suite.check(workload, audited) == ["audit: [double-claim] ..."]


def test_chaos_runs_repeat_and_seeds_differ():
    workload = TINY["chaos"]
    first = suite.sim_metrics(suite.simulate(workload, seed=11))
    assert suite.sim_metrics(suite.simulate(workload, seed=11)) == first
    assert suite.sim_metrics(suite.simulate(workload, seed=12)) != first


def test_benchmark_json_matches_the_suite():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(suite.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == (
        suite.END_TO_END
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == (
        suite.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mcck-fig10",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
