"""Tests for the content-addressed result cache and the task runner."""

import pickle

import pytest

from repro.cluster import ClusterConfig
from repro.experiments.cache import (
    ResultCache,
    canonical,
    default_cache_dir,
    source_fingerprint,
    task_key,
)
from repro.experiments.runner import (
    SimTask,
    TaskRunner,
    compute_task,
    count_summary,
    sim_task,
)


def _task(**overrides):
    params = dict(configuration="MC", nodes=4, seed=42)
    params.update(overrides)
    return SimTask.make("table2", "sim", **params)


class TestKeying:
    def test_same_params_same_key(self):
        assert task_key(_task(), "fp") == task_key(_task(), "fp")

    def test_label_not_part_of_key(self):
        a = SimTask.make("table2", "sim", label="a", nodes=4)
        b = SimTask.make("table2", "sim", label="b", nodes=4)
        assert task_key(a, "fp") == task_key(b, "fp")
        assert a == b  # label excluded from equality too

    def test_param_change_changes_key(self):
        assert task_key(_task(), "fp") != task_key(_task(seed=43), "fp")

    def test_fingerprint_change_changes_key(self):
        assert task_key(_task(), "fp1") != task_key(_task(), "fp2")

    def test_experiment_name_shared_across_grids(self):
        # fig8's 8-node cells are fig9's: the key ignores the experiment.
        a = SimTask.make("fig8", "sim", configuration="MC", nodes=8)
        b = SimTask.make("fig9", "sim", configuration="MC", nodes=8)
        assert task_key(a, "fp") == task_key(b, "fp")

    def test_dataclass_params_canonicalise(self):
        config = ClusterConfig(nodes=4)
        same = ClusterConfig(nodes=4)
        other = ClusterConfig(nodes=5)
        assert canonical(config) == canonical(same)
        assert canonical(config) != canonical(other)

    def test_float_params_keep_precision(self):
        assert canonical(0.1) != canonical(0.1 + 1e-12)

    def test_source_fingerprint_stable_in_process(self):
        assert source_fingerprint() == source_fingerprint()


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        task = _task()
        hit, _ = cache.get(task)
        assert not hit
        cache.put(task, {"makespan": 12.5})
        hit, value = cache.get(task)
        assert hit
        assert value == {"makespan": 12.5}
        assert cache.hits == 1 and cache.misses == 1

    def test_fingerprint_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="before-edit")
        old.put(_task(), 1.0)
        fresh = ResultCache(tmp_path, fingerprint="after-edit")
        hit, _ = fresh.get(_task())
        assert not hit

    def test_corrupted_entry_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        task = _task()
        cache.put(task, 42.0)
        path = cache._path(cache.key_for(task))
        path.write_bytes(b"not a pickle at all")
        hit, _ = cache.get(task)
        assert not hit
        assert not path.exists()  # the bad entry was dropped
        cache.put(task, 42.0)
        hit, value = cache.get(task)
        assert hit and value == 42.0

    def test_truncated_entry_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        task = _task()
        cache.put(task, {"makespan": 9.0})
        path = cache._path(cache.key_for(task))
        path.write_bytes(pickle.dumps({"makespan": 9.0})[:5])
        hit, _ = cache.get(task)
        assert not hit

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", fingerprint="fp")
        cache.put(_task(), 1.0)
        cache.clear()
        assert not (tmp_path / "cache").exists()
        hit, _ = cache.get(_task())
        assert not hit

    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"


class TestTaskRunner:
    def _grid(self, jobs=16):
        config = ClusterConfig(nodes=2)
        workload = ("table1", jobs, 42)
        return [
            sim_task("test", c, config, workload) for c in ("MC", "MCC")
        ]

    def test_results_cached_across_runs(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        grid = self._grid()
        first = TaskRunner(workers=1, cache=cache).map_tasks(grid)
        assert all(not o.cached for o in first)
        second = TaskRunner(workers=1, cache=cache).map_tasks(grid)
        assert all(o.cached for o in second)
        assert [o.value for o in first] == [o.value for o in second]

    def test_duplicate_cells_computed_once(self):
        grid = self._grid() + self._grid()
        runner = TaskRunner(workers=1, cache=None)
        outcomes = runner.map_tasks(grid)
        assert sum(1 for o in outcomes if o.computed) == 2
        assert outcomes[0].value == outcomes[2].value
        assert outcomes[1].value == outcomes[3].value

    def test_duplicates_are_not_cache_hits(self):
        task = self._grid()[0]
        runner = TaskRunner(workers=1, cache=None)
        first, repeat = runner.map_tasks([task, task])
        assert first.computed and not first.cached
        assert repeat.duplicate and not repeat.cached
        assert count_summary(runner.outcomes) == (
            "1 computed, 0 cached, 1 duplicate"
        )

    def test_inline_matches_runner(self, tmp_path):
        grid = self._grid()
        inline = [compute_task(task) for task in grid]
        pooled = TaskRunner(
            workers=1, cache=ResultCache(tmp_path, fingerprint="fp")
        ).map_tasks(grid)
        assert inline == [o.value for o in pooled]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            TaskRunner(workers=0)
