"""Tests for the Table-I and synthetic job generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.phi import PAPER_SPEC
from repro.workloads import (
    DISTRIBUTIONS,
    TABLE1_APPS,
    draw_levels,
    generate_synthetic_jobs,
    generate_table1_job,
    generate_table1_jobs,
    level_to_resources,
    quantize_memory,
    resource_histogram,
)


class TestTable1Specs:
    def test_all_seven_apps_present(self):
        assert sorted(TABLE1_APPS) == ["BT", "KM", "LU", "MC", "MD", "SG", "SP"]

    @pytest.mark.parametrize(
        "app,threads,memory_range",
        [
            ("KM", 60, (300, 1250)),
            ("MC", 180, (400, 650)),
            ("MD", 180, (300, 750)),
            ("SG", 60, (500, 3400)),
            ("BT", 240, (300, 1250)),
            ("SP", 180, (300, 1850)),
            ("LU", 180, (400, 1250)),
        ],
    )
    def test_specs_match_paper_table1(self, app, threads, memory_range):
        spec = TABLE1_APPS[app]
        assert spec.threads == threads
        assert spec.memory_range_mb == memory_range


class TestTable1Generation:
    def test_jobs_reproducible(self):
        a = generate_table1_jobs(50, seed=3)
        b = generate_table1_jobs(50, seed=3)
        assert [j.job_id for j in a] == [j.job_id for j in b]
        assert [j.nominal_duration for j in a] == [j.nominal_duration for j in b]

    def test_different_seeds_differ(self):
        a = generate_table1_jobs(50, seed=3)
        b = generate_table1_jobs(50, seed=4)
        assert [j.nominal_duration for j in a] != [j.nominal_duration for j in b]

    def test_round_robin_app_mix(self):
        jobs = generate_table1_jobs(70, seed=0)
        apps = [j.app for j in jobs]
        for app in TABLE1_APPS:
            assert apps.count(app) == 10

    def test_every_job_fits_one_device(self):
        for job in generate_table1_jobs(100, seed=1):
            job.validate_fits(PAPER_SPEC.usable_memory_mb, PAPER_SPEC.hardware_threads)

    def test_jobs_are_honest(self):
        # Generated declarations cover actual peaks (the motivation
        # experiments assume no user mistakes).
        for job in generate_table1_jobs(100, seed=1):
            assert job.honest

    def test_memory_within_table_range_after_quantization(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            job = generate_table1_job("x", "SG", rng)
            assert 500 <= job.declared_memory_mb <= quantize_memory(3400)

    def test_declared_memory_is_quantized(self):
        for job in generate_table1_jobs(50, seed=2):
            assert job.declared_memory_mb % 50 == 0

    def test_thread_declaration_matches_app(self):
        rng = np.random.default_rng(0)
        job = generate_table1_job("x", "BT", rng)
        assert job.declared_threads == 240
        assert job.peak_threads == 240

    def test_app_subset(self):
        jobs = generate_table1_jobs(10, seed=0, apps=["KM"])
        assert all(j.app == "KM" for j in jobs)

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            generate_table1_jobs(10, apps=["XX"])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            generate_table1_jobs(0)

    def test_duty_cycle_shape(self):
        jobs = generate_table1_jobs(200, seed=5)
        duties = [j.total_offload_work / j.nominal_duration for j in jobs]
        assert 0.8 <= float(np.mean(duties)) <= 0.95


class TestSyntheticGeneration:
    def test_all_distributions_produce_jobs(self):
        for distribution in DISTRIBUTIONS:
            jobs = generate_synthetic_jobs(50, distribution, seed=1)
            assert len(jobs) == 50
            for job in jobs:
                job.validate_fits(
                    PAPER_SPEC.usable_memory_mb, PAPER_SPEC.hardware_threads
                )

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic_jobs(10, "bimodal")

    def test_skew_ordering_of_means(self):
        means = {}
        for distribution in ("low-skew", "normal", "high-skew"):
            jobs = generate_synthetic_jobs(400, distribution, seed=1)
            means[distribution] = np.mean([j.declared_memory_mb for j in jobs])
        assert means["low-skew"] < means["normal"] < means["high-skew"]

    def test_memory_thread_correlation(self):
        jobs = generate_synthetic_jobs(400, "uniform", seed=1)
        memories = [j.declared_memory_mb for j in jobs]
        threads = [j.declared_threads for j in jobs]
        assert np.corrcoef(memories, threads)[0, 1] > 0.95

    def test_levels_clipped_to_unit_interval(self):
        rng = np.random.default_rng(0)
        for distribution in DISTRIBUTIONS:
            levels = draw_levels(2000, distribution, rng)
            assert levels.min() >= 0.0
            assert levels.max() <= 1.0

    def test_level_to_resources_bounds(self):
        low_mem, low_thr = level_to_resources(0.0)
        high_mem, high_thr = level_to_resources(1.0)
        assert low_mem == 300 and high_mem == 6000
        assert low_thr == 40 and high_thr == 240

    def test_level_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            level_to_resources(1.5)

    def test_histogram_shape(self):
        jobs = generate_synthetic_jobs(400, "normal", seed=1)
        counts, edges = resource_histogram(jobs, bins=10)
        assert counts.sum() == 400
        assert len(edges) == 11
        # Bell shape: middle bins dominate the tails.
        assert counts[4] + counts[5] > counts[0] + counts[9]

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0, max_value=1))
    def test_threads_always_multiple_of_four(self, level):
        _memory, threads = level_to_resources(level)
        assert threads % 4 == 0
        assert 4 <= threads <= 240
