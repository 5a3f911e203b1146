"""Tests for the ext-crash experiment: grid shape, determinism, caching."""

from repro.cluster import ClusterConfig
from repro.experiments import ext_crash, ext_faults
from repro.experiments.cache import ResultCache
from repro.experiments.runner import SimTask, TaskRunner, plan
from repro.faults import FaultProfile, derive_fault_seed
from repro.net import NetProfile, derive_net_seed

SMALL = ClusterConfig(nodes=2, cycle_interval=2.0)
RATES = (0.0, 4.0)
SCRIPTED = ((40.0, "schedd"),)


def _run(runner=None, **kwargs):
    kwargs.setdefault("jobs", 20)
    kwargs.setdefault("rates", RATES)
    return ext_crash.run(config=SMALL, seed=7, runner=runner, **kwargs)


class TestGrid:
    def test_tasks_shape(self):
        grid = plan(ext_crash, jobs=20, rates=RATES, config=SMALL, seed=7).tasks
        assert len(grid) == len(RATES) * 3  # MC, MCC, MCCK per rate
        assert all(t.kind == "sim" for t in grid)
        assert all(t.experiment == "ext-crash" for t in grid)
        labels = [t.label for t in grid]
        assert "MC@0/ks" in labels and "MCCK@4/ks" in labels

    def test_rate_zero_cells_run_without_faults_or_fabric(self):
        grid = plan(ext_crash, jobs=20, rates=(0.0,), config=SMALL, seed=7).tasks
        for task in grid:
            assert task.kwargs()["faults"] is None
            assert task.kwargs()["net"] is None

    def test_crash_cells_carry_profile_and_quiet_fabric(self):
        grid = plan(ext_crash, jobs=20, rates=(2.0,), config=SMALL, seed=7).tasks
        for task in grid:
            faults = task.kwargs()["faults"]
            assert faults == FaultProfile(daemon_crash_rate=2.0)
            # Crash cells isolate the cost of the crashes themselves:
            # the fabric is the default quiet, reliable profile.
            assert task.kwargs()["net"] == NetProfile()

    def test_scripted_crashes_force_faults_even_at_rate_zero(self):
        grid = plan(
            ext_crash,
            jobs=20, rates=(0.0,), crashes=SCRIPTED, config=SMALL, seed=7
        ).tasks
        for task in grid:
            faults = task.kwargs()["faults"]
            assert faults is not None
            assert faults.crashes == SCRIPTED
            assert task.kwargs()["net"] is not None

    def test_seeds_derived_from_workload_seed(self):
        grid = plan(ext_crash, jobs=20, rates=RATES, config=SMALL, seed=7).tasks
        for task in grid:
            assert task.kwargs()["fault_seed"] == derive_fault_seed(7)
            assert task.kwargs()["net_seed"] == derive_net_seed(7)

    def test_merge_aligns_cells(self):
        grid = plan(ext_crash, jobs=20, rates=RATES, config=SMALL, seed=7)
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
        # The PR's acceptance criterion: same seed + rates, twice,
        # byte-identical metrics end to end (no cache involved).
        first = ext_crash.render(_run(crashes=SCRIPTED))
        second = ext_crash.render(_run(crashes=SCRIPTED))
        assert first == second

    def test_rate_zero_column_equals_paper_baseline(self):
        # The rate-0 cells run with no recovery subsystem at all, so
        # they byte-equal the fault-free cells X5 computes for the same
        # workload, cluster, and seed.
        crash = _run()
        faults = ext_faults.run(
            jobs=20, rates=(0.0,), config=SMALL, seed=7
        )
        for configuration in ("MC", "MCC", "MCCK"):
            ours = crash.cells[configuration][0]
            baseline = faults.cells[configuration][0]
            assert ours["makespan"] == baseline["makespan"]
            assert ours["completed"] == baseline["completed"]
            assert ours["crashes"] == 0
            assert ours["wal_records"] == 0

    def test_scripted_crash_cells_report_recovery_activity(self):
        # Scripted crashes land in every column (including rate 0), so
        # both cells report the schedd dying and recovering mid-run.
        result = _run(crashes=SCRIPTED)
        for configuration in ("MC", "MCC", "MCCK"):
            for cell in result.cells[configuration]:
                assert cell["crashes"] >= 1
                assert cell["recoveries"] >= 1
                assert cell["wal_replayed"] > 0
                assert cell["completed"] == 20

    def test_goodput_positive(self):
        result = _run(crashes=SCRIPTED)
        for configuration in ("MC", "MCC", "MCCK"):
            assert all(g > 0 for g in result.goodput(configuration))

    def test_parallel_matches_inline(self):
        runner = TaskRunner(workers=2, cache=None)
        assert ext_crash.render(_run(runner)) == ext_crash.render(_run())


class TestCacheKeys:
    def _task(self, faults, net):
        return SimTask.make(
            "ext-crash", "sim",
            configuration="MCC", config=SMALL,
            workload=("table1", 20, 7),
            faults=faults, fault_seed=derive_fault_seed(7),
            net=net, net_seed=derive_net_seed(7),
        )

    def test_crash_profile_in_cache_key(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="fixed")
        keys = {
            cache.key_for(self._task(None, None)),
            cache.key_for(
                self._task(FaultProfile(daemon_crash_rate=1.0), NetProfile())
            ),
            cache.key_for(
                self._task(FaultProfile(daemon_crash_rate=2.0), NetProfile())
            ),
            cache.key_for(
                self._task(
                    FaultProfile(daemon_crash_rate=2.0, crashes=SCRIPTED),
                    NetProfile(),
                )
            ),
        }
        assert len(keys) == 4
