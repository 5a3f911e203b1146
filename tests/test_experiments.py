"""Smoke tests: every experiment module runs and renders at tiny scale."""

import pytest

from repro.cluster import ClusterConfig
from repro.experiments import (
    EXPERIMENTS,
    ablation_cycle,
    ablation_knapsack,
    ablation_value,
    fig7,
    fig8,
    fig9,
    fig10,
    motivation,
    table2,
    table3,
)

TINY = ClusterConfig(nodes=2)


class TestRegistry:
    def test_every_artifact_registered(self):
        expected = {
            "motivation", "table2", "table3", "fig7", "fig8", "fig9",
            "fig10", "ablation-value", "ablation-knapsack", "ablation-cycle",
            "ablation-placement", "ext-capacity", "ext-crash", "ext-faults",
            "ext-multidevice", "ext-netchaos", "ext-oversubscription",
            "ext-replication", "ext-scale",
        }
        assert set(EXPERIMENTS) == expected

    def test_modules_expose_run_and_render(self):
        for module in EXPERIMENTS.values():
            assert callable(module.run)
            assert callable(module.render)


class TestMotivation:
    def test_run_and_render(self):
        result = motivation.run(real_jobs=30, synthetic_jobs=20, config=TINY)
        text = motivation.render(result)
        assert "Table-I mix" in text
        assert 0 < result.real_mix_utilization < 1
        assert set(result.synthetic_utilization) == {
            "uniform", "normal", "low-skew", "high-skew"
        }


class TestTable2:
    def test_run_with_footprint(self):
        result = table2.run(jobs=40, config=TINY)
        text = table2.render(result)
        assert "Table II" in text
        assert result.makespans["MCC"] < result.makespans["MC"]
        assert result.footprints["MCC"].found

    def test_render_reads_node_count_from_result(self):
        result = table2.run(jobs=30, config=ClusterConfig(nodes=3))
        assert result.nodes == 3
        text = table2.render(result)
        assert "3-node cluster" in text
        assert "8-node" not in text and ">8" not in text
        for configuration in ("MCC", "MCCK"):
            size = result.footprints[configuration].cluster_size
            if size is None:
                assert ">3" in text
            else:
                assert f"{100 * (1 - size / 3):.1f}%" in text

    def test_run_without_footprint(self):
        result = table2.run(jobs=30, config=TINY, footprint=False)
        assert result.footprints == {}
        assert "-" in table2.render(result)


class TestFig7:
    def test_histograms_cover_all_jobs(self):
        result = fig7.run(jobs=100)
        for counts in result.histograms.values():
            assert counts.sum() == 100
        assert "low-skew" in fig7.render(result)


class TestFig8:
    def test_run_subset(self):
        result = fig8.run(jobs=30, config=TINY, distributions=("normal",))
        assert set(result.makespans) == {"normal"}
        assert result.reduction("normal", "MCC") != 0
        assert "Fig. 8" in fig8.render(result)

    def test_render_signs_the_change_vs_mc(self):
        # MCC 27% faster than MC, MCCK 27% slower: one sign each, never "--".
        result = fig8.Fig8Result(
            job_count=30,
            nodes=8,
            makespans={"normal": {"MC": 100.0, "MCC": 73.0, "MCCK": 127.0}},
        )
        text = fig8.render(result)
        assert "73 (-27%)" in text
        assert "127 (+27%)" in text
        assert "--" not in text.splitlines()[-1]


class TestFig9:
    def test_series_alignment(self):
        result = fig9.run(jobs=30, sizes=(1, 2), config=TINY,
                          distributions=("uniform",))
        series = result.makespans["uniform"]
        assert len(series["MC"]) == 2
        # More nodes never hurt.
        assert series["MC"][1] <= series["MC"][0]
        assert "nodes" in fig9.render(result)


class TestTable3:
    def test_footprints_found(self):
        result = table3.run(jobs=30, config=TINY, distributions=("normal",))
        fp = result.footprints["normal"]["MCC"]
        assert fp.found
        assert "Table III" in table3.render(result)


class TestFig10:
    def test_pressure_scaling(self):
        result = fig10.run(sizes=(1, 2), jobs_per_node=15, config=TINY)
        assert result.job_counts == [15, 30]
        assert "Fig. 10" in fig10.render(result)

    def test_title_reports_the_pressure_that_ran(self):
        result = fig10.run(sizes=(1,), jobs_per_node=6, config=TINY)
        assert "(6 jobs/node," in fig10.render(result)


class TestAblations:
    def test_value_ablation(self):
        result = ablation_value.run(jobs=24, config=TINY)
        assert len(result.makespans) == 5  # every registered value fn
        assert "A1" in ablation_value.render(result)

    def test_knapsack_ablation(self):
        result = ablation_knapsack.run(jobs=24, config=TINY)
        assert set(result.makespans) == {
            "cap-240 (paper)", "no-cap", "no-cap/no-slots"
        }
        assert "A2" in ablation_knapsack.render(result)

    def test_cycle_ablation(self):
        result = ablation_cycle.run(
            jobs=24, intervals=(2.0, 20.0), config=TINY,
            distributions=("normal",),
        )
        series = result.makespans["normal"]
        assert len(series["MCCK"]) == 2
        assert len(series["MCCK+resched"]) == 2
        assert "A3" in ablation_cycle.render(result)
