"""Unit tests for the job profile model."""

import pytest

from repro.workloads import HostPhase, JobProfile, OffloadPhase, alternating_profile


def make_job(**overrides):
    defaults = dict(
        job_id="j1",
        app="KM",
        phases=(
            HostPhase(2.0),
            OffloadPhase(work=6.0, threads=60, memory_mb=500.0),
            HostPhase(2.0),
            OffloadPhase(work=4.0, threads=120, memory_mb=800.0),
        ),
        declared_memory_mb=1000.0,
        declared_threads=120,
    )
    defaults.update(overrides)
    return JobProfile(**defaults)


class TestPhases:
    def test_negative_host_duration_rejected(self):
        with pytest.raises(ValueError):
            HostPhase(-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"work": -1, "threads": 60, "memory_mb": 100},
            {"work": 1, "threads": 0, "memory_mb": 100},
            {"work": 1, "threads": 60, "memory_mb": -5},
            {"work": 1, "threads": 60, "memory_mb": 100, "transfer_mb": -1},
        ],
    )
    def test_invalid_offload_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OffloadPhase(**kwargs)


class TestJobProfile:
    def test_derived_metrics(self):
        job = make_job()
        assert job.offload_count == 2
        assert job.total_offload_work == 10.0
        assert job.total_host_time == 4.0
        assert job.nominal_duration == 14.0
        assert job.peak_memory_mb == 800.0
        assert job.peak_threads == 120

    def test_honest_job(self):
        assert make_job().honest

    def test_dishonest_memory(self):
        job = make_job(declared_memory_mb=700.0)
        assert not job.honest

    def test_dishonest_threads(self):
        job = make_job(declared_threads=60)
        assert not job.honest

    def test_host_only_job(self):
        job = make_job(phases=(HostPhase(5.0),))
        assert job.offload_count == 0
        assert job.peak_memory_mb == 0.0
        assert job.peak_threads == 0

    def test_validate_fits_passes(self):
        make_job().validate_fits(memory_mb=8192, threads=240)

    def test_validate_fits_memory_violation(self):
        with pytest.raises(ValueError, match="memory"):
            make_job(declared_memory_mb=9000).validate_fits(8192, 240)

    def test_validate_fits_thread_violation(self):
        with pytest.raises(ValueError, match="threads"):
            make_job(declared_threads=480).validate_fits(8192, 240)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"job_id": ""},
            {"declared_memory_mb": 0},
            {"declared_threads": 0},
            {"submit_time": -1},
            {"phases": ()},
        ],
    )
    def test_invalid_jobs_rejected(self, overrides):
        with pytest.raises(ValueError):
            make_job(**overrides)

    def test_profiles_are_hashable_and_frozen(self):
        job = make_job()
        assert hash(job) == hash(make_job())
        with pytest.raises(AttributeError):
            job.app = "other"


class TestAlternatingBuilder:
    def test_builds_fig2_style_profile(self):
        offloads = [
            OffloadPhase(work=5, threads=240, memory_mb=1000),
            OffloadPhase(work=5, threads=240, memory_mb=1000),
        ]
        job = alternating_profile(
            "j", "demo", offloads, host_gaps=[3.0, 0.0],
            declared_memory_mb=1000, declared_threads=240, leading_host=1.0,
        )
        kinds = [type(p).__name__ for p in job.phases]
        assert kinds == ["HostPhase", "OffloadPhase", "HostPhase", "OffloadPhase"]
        assert job.nominal_duration == 14.0

    def test_mismatched_gaps_rejected(self):
        with pytest.raises(ValueError):
            alternating_profile(
                "j", "demo",
                [OffloadPhase(work=1, threads=60, memory_mb=100)],
                host_gaps=[1.0, 2.0],
                declared_memory_mb=100,
                declared_threads=60,
            )
