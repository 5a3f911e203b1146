"""Tests for the ext-faults experiment: grid shape, determinism, caching."""

import pytest

from repro.cluster import ClusterConfig
from repro.experiments import ext_faults
from repro.experiments.cache import ResultCache
from repro.experiments.runner import SimTask, TaskRunner, plan
from repro.faults import FaultProfile, derive_fault_seed

SMALL = ClusterConfig(nodes=2, cycle_interval=2.0)
#: Short downtimes so chaos lands inside a 30-job run's makespan.
RATES = (0.0, 20.0)


def _run(runner=None):
    return ext_faults.run(jobs=30, rates=RATES, config=SMALL, seed=7, runner=runner)


class TestGrid:
    def test_tasks_shape(self):
        grid = plan(ext_faults, jobs=30, rates=RATES, config=SMALL, seed=7).tasks
        assert len(grid) == len(RATES) * 3  # MC, MCC, MCCK per rate
        assert all(t.kind == "sim" for t in grid)
        assert all(t.experiment == "ext-faults" for t in grid)

    def test_rate_zero_cells_carry_no_profile(self):
        grid = plan(ext_faults, jobs=30, rates=(0.0,), config=SMALL, seed=7).tasks
        for task in grid:
            assert task.kwargs()["faults"] is None

    def test_fault_seed_derived_from_workload_seed(self):
        grid = plan(ext_faults, jobs=30, rates=RATES, config=SMALL, seed=7).tasks
        for task in grid:
            assert task.kwargs()["fault_seed"] == derive_fault_seed(7)

    def test_merge_aligns_cells(self):
        grid = plan(ext_faults, jobs=30, rates=RATES, config=SMALL, seed=7)
        values = [
            {"tag": i, "makespan": 1.0, "completed": 1}
            for i in range(len(grid.tasks))
        ]
        result = grid.result(values)
        assert result.cells["MC"][0]["tag"] == 0
        assert result.cells["MCC"][0]["tag"] == 1
        assert result.cells["MCCK"][1]["tag"] == 5


class TestDeterminism:
    def test_two_runs_render_byte_identical(self):
        # The PR's acceptance criterion: same seed + profile, twice,
        # byte-identical metrics end to end (no cache involved).
        first = ext_faults.render(_run())
        second = ext_faults.render(_run())
        assert first == second

    def test_chaos_cells_report_activity(self):
        result = _run()
        chaotic = [result.cells[c][1] for c in ("MC", "MCC", "MCCK")]
        assert any(cell["faults_injected"] > 0 for cell in chaotic)
        # Every cell fully accounts its jobs.
        for config in ("MC", "MCC", "MCCK"):
            for cell in result.cells[config]:
                assert cell["completed"] + cell["failed"] + cell["killed"] == cell["jobs"]

    def test_goodput_positive(self):
        result = _run()
        for config in ("MC", "MCC", "MCCK"):
            assert all(g > 0 for g in result.goodput(config))

    def test_parallel_matches_inline(self, tmp_path):
        runner = TaskRunner(workers=2, cache=None)
        assert ext_faults.render(_run(runner)) == ext_faults.render(_run())


class TestCacheKeys:
    def _task(self, faults):
        return SimTask.make(
            "ext-faults", "sim",
            configuration="MCC", config=SMALL,
            workload=("table1", 30, 7),
            faults=faults, fault_seed=derive_fault_seed(7),
        )

    def test_fault_profile_in_cache_key(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="fixed")
        keys = {
            cache.key_for(self._task(None)),
            cache.key_for(self._task(FaultProfile.chaos(1.0))),
            cache.key_for(self._task(FaultProfile.chaos(2.0))),
            cache.key_for(
                self._task(FaultProfile.chaos(2.0, reset_downtime_s=5.0))
            ),
        }
        assert len(keys) == 4

    def test_same_profile_same_key(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="fixed")
        a = cache.key_for(self._task(FaultProfile.chaos(2.0)))
        b = cache.key_for(self._task(FaultProfile.chaos(2.0)))
        assert a == b

    def test_fault_tasks_roundtrip_through_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="fixed")
        task = self._task(FaultProfile.chaos(2.0))
        cache.put(task, {"makespan": 1.0})
        hit, value = cache.get(task)
        assert hit and value == {"makespan": 1.0}


class TestRegistration:
    def test_registered_in_experiments(self):
        from repro.experiments import EXPERIMENTS

        assert EXPERIMENTS["ext-faults"] is ext_faults

    def test_cli_fault_rate_flag(self):
        from repro.cli import _overrides

        kwargs = _overrides(
            "ext-faults", 30, 7, 1.0, flags={"--fault-rate": [0.0, 2.0]}
        )
        assert kwargs["rates"] == (0.0, 2.0)
        assert kwargs["jobs"] == 30
        # Other experiments ignore the flag.
        other = _overrides("fig8", 30, 7, 1.0, flags={"--fault-rate": [2.0]})
        assert "rates" not in other
