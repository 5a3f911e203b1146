"""Tests for the ext-netchaos experiment: grid shape, determinism, caching."""

import pytest

from repro.cluster import ClusterConfig
from repro.experiments import ext_netchaos
from repro.experiments.cache import ResultCache
from repro.experiments.runner import SimTask, TaskRunner, plan
from repro.net import NetProfile, PartitionSpec, derive_net_seed

SMALL = ClusterConfig(nodes=2, cycle_interval=2.0)
LOSSES = (0.0, 0.10)


def _run(runner=None, **kwargs):
    kwargs.setdefault("jobs", 20)
    kwargs.setdefault("losses", LOSSES)
    return ext_netchaos.run(config=SMALL, seed=7, runner=runner, **kwargs)


class TestGrid:
    def test_tasks_shape(self):
        grid = plan(ext_netchaos, jobs=20, losses=LOSSES, config=SMALL, seed=7).tasks
        assert len(grid) == len(LOSSES) * 3  # MC, MCC, MCCK per loss
        assert all(t.kind == "sim" for t in grid)
        assert all(t.experiment == "ext-netchaos" for t in grid)
        labels = [t.label for t in grid]
        assert "MC@loss0" in labels and "MCCK@loss0.1" in labels

    def test_loss_zero_cells_run_without_fabric(self):
        grid = plan(ext_netchaos, jobs=20, losses=(0.0,), config=SMALL, seed=7).tasks
        for task in grid:
            assert task.kwargs()["net"] is None

    def test_lossy_cells_carry_chaos_profile(self):
        grid = plan(ext_netchaos, jobs=20, losses=(0.05,), config=SMALL, seed=7).tasks
        for task in grid:
            net = task.kwargs()["net"]
            assert net == NetProfile.chaos(0.05)

    def test_partitions_force_fabric_even_at_loss_zero(self):
        cut = (PartitionSpec(10.0, 20.0, "startd:*"),)
        grid = plan(
            ext_netchaos,
            jobs=20, losses=(0.0,), partitions=cut, config=SMALL, seed=7
        ).tasks
        for task in grid:
            net = task.kwargs()["net"]
            assert net is not None
            assert net.partitions == cut

    def test_net_seed_derived_from_workload_seed(self):
        grid = plan(ext_netchaos, jobs=20, losses=LOSSES, config=SMALL, seed=7).tasks
        for task in grid:
            assert task.kwargs()["net_seed"] == derive_net_seed(7)

    def test_merge_aligns_cells(self):
        grid = plan(ext_netchaos, jobs=20, losses=LOSSES, config=SMALL, seed=7)
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
        first = ext_netchaos.render(_run())
        second = ext_netchaos.render(_run())
        assert first == second

    def test_lossy_cells_report_transport_activity(self):
        result = _run()
        for configuration in ("MC", "MCC", "MCCK"):
            clean, lossy = result.cells[configuration]
            assert clean["retransmits"] == 0  # no fabric at loss 0
            assert lossy["retransmits"] > 0
            assert lossy["completed"] == 20

    def test_goodput_positive(self):
        result = _run()
        for configuration in ("MC", "MCC", "MCCK"):
            assert all(g > 0 for g in result.goodput(configuration))

    def test_parallel_matches_inline(self):
        runner = TaskRunner(workers=2, cache=None)
        assert ext_netchaos.render(_run(runner)) == ext_netchaos.render(_run())


class TestCacheKeys:
    def _task(self, net):
        return SimTask.make(
            "ext-netchaos", "sim",
            configuration="MCC", config=SMALL,
            workload=("table1", 20, 7),
            net=net, net_seed=derive_net_seed(7),
        )

    def test_net_profile_in_cache_key(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="fixed")
        keys = {
            cache.key_for(self._task(None)),
            cache.key_for(self._task(NetProfile.chaos(0.05))),
            cache.key_for(self._task(NetProfile.chaos(0.10))),
            cache.key_for(
                self._task(
                    NetProfile.chaos(
                        0.10, partitions=(PartitionSpec(1.0, 2.0, "*"),)
                    )
                )
            ),
        }
        assert len(keys) == 4

    def test_same_profile_same_key(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="fixed")
        a = cache.key_for(self._task(NetProfile.chaos(0.10)))
        b = cache.key_for(self._task(NetProfile.chaos(0.10)))
        assert a == b

    def test_net_tasks_roundtrip_through_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path, fingerprint="fixed")
        task = self._task(NetProfile.chaos(0.10))
        cache.put(task, {"makespan": 1.0})
        hit, value = cache.get(task)
        assert hit and value == {"makespan": 1.0}


class TestRegistration:
    def test_registered_in_experiments(self):
        from repro.experiments import EXPERIMENTS

        assert EXPERIMENTS["ext-netchaos"] is ext_netchaos

    def test_cli_net_flags(self):
        from repro.cli import _overrides

        kwargs = _overrides(
            "ext-netchaos", 20, 7, 1.0,
            flags={
                "--net-loss": [0.0, 0.05],
                "--net-delay": 0.2,
                "--net-partition": [PartitionSpec(10.0, 20.0, "startd:*")],
            },
        )
        assert kwargs["losses"] == (0.0, 0.05)
        assert kwargs["delay_s"] == 0.2
        assert kwargs["partitions"] == (PartitionSpec(10.0, 20.0, "startd:*"),)
        # Other experiments ignore the flags.
        other = _overrides("fig8", 20, 7, 1.0, flags={"--net-loss": [0.05]})
        assert "losses" not in other
