"""Unit tests for the schedd job queue and qedit."""

import pytest

from repro.condor import Schedd
from repro.condor.schedd import COMPLETE, RUN, SUBMIT
from repro.mpss import JobRunResult
from repro.sim import Environment
from repro.workloads import HostPhase, JobProfile, OffloadPhase


def make_profile(job_id="j1", submit_time=0.0, memory=1000.0):
    return JobProfile(
        job_id=job_id,
        app="t",
        phases=(HostPhase(1.0), OffloadPhase(work=5, threads=60, memory_mb=memory)),
        declared_memory_mb=memory,
        declared_threads=60,
        submit_time=submit_time,
    )


def result_for(job_id, end=10.0):
    return JobRunResult(job_id=job_id, start=0.0, end=end, status="completed",
                        offloads_run=1)


def subscribed(schedd, kind):
    """The transitions of ``kind`` the schedd publishes from now on."""
    seen = []

    def keep(tr):
        if tr.kind == kind:
            seen.append(tr)

    schedd.subscribe(keep)
    return seen


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def schedd(env):
    return Schedd(env)


class TestSubmission:
    def test_submit_builds_ad(self, schedd):
        record = schedd.submit(make_profile())
        assert record.ad.evaluate("RequestPhiMemory") == 1000.0
        assert record.is_pending

    def test_duplicate_rejected(self, schedd):
        schedd.submit(make_profile())
        with pytest.raises(ValueError):
            schedd.submit(make_profile())

    def test_pending_fifo_order(self, schedd):
        schedd.submit(make_profile("b", submit_time=5.0))
        schedd.submit(make_profile("a", submit_time=0.0))
        schedd.submit(make_profile("c", submit_time=0.0))
        assert [r.job_id for r in schedd.pending()] == ["a", "c", "b"]

    def test_submit_listeners_fire_on_submission(self, schedd):
        seen = subscribed(schedd, SUBMIT)
        for job_id in ("a", "b", "c"):
            schedd.submit(make_profile(job_id))
        assert [tr.job_id for tr in seen] == ["a", "b", "c"]

    def test_submit_listener_may_qedit_new_job(self, schedd):
        # The external scheduler parks arrivals from this hook; the job
        # must still be idle (editable) when the subscriber runs.
        def park(tr):
            if tr.kind == SUBMIT:
                schedd.qedit(tr.job_id, "Requirements", "false")

        schedd.subscribe(park)
        record = schedd.submit(make_profile("a"))
        assert record.ad.evaluate("Requirements") is False


class TestQedit:
    def test_qedit_rewrites_requirements(self, schedd):
        schedd.submit(make_profile())
        schedd.qedit("j1", "Requirements", 'TARGET.Name == "slot1@n3"')
        record = schedd.get("j1")
        from repro.condor import ClassAd
        machine = ClassAd({"Name": "slot1@n3"})
        assert record.ad.evaluate("Requirements", machine) is True

    def test_qedit_running_job_rejected(self, schedd):
        schedd.submit(make_profile())
        schedd.mark_running("j1", "n1", 0)
        with pytest.raises(ValueError):
            schedd.qedit("j1", "Requirements", "false")

    def test_qedit_batch(self, schedd):
        schedd.submit(make_profile("a"))
        schedd.submit(make_profile("b"))
        schedd.qedit_batch(
            [("a", "AssignedPhiDevice", "0"), ("b", "AssignedPhiDevice", "1")]
        )
        assert schedd.get("a").ad.evaluate("AssignedPhiDevice") == 0
        assert schedd.get("b").ad.evaluate("AssignedPhiDevice") == 1


class TestLifecycle:
    def test_mark_running_and_completed(self, schedd):
        schedd.submit(make_profile())
        schedd.mark_running("j1", "node3", 0)
        assert schedd.get("j1").matched_node == "node3"
        assert not schedd.pending()
        schedd.mark_completed("j1", result_for("j1"))
        assert schedd.get("j1").status == "Completed"
        assert schedd.unfinished_jobs == 0

    def test_double_running_rejected(self, schedd):
        schedd.submit(make_profile())
        schedd.mark_running("j1", "n", 0)
        with pytest.raises(ValueError):
            schedd.mark_running("j1", "n", 0)

    def test_complete_idle_job_rejected(self, schedd):
        schedd.submit(make_profile())
        with pytest.raises(ValueError):
            schedd.mark_completed("j1", result_for("j1"))

    def test_completion_event_fires(self, env, schedd):
        record = schedd.submit(make_profile())
        schedd.mark_running("j1", "n", 0)
        schedd.mark_completed("j1", result_for("j1"))
        env.run()
        assert record.completion.value.job_id == "j1"

    def test_start_listeners_fire_on_dispatch(self, schedd):
        seen = subscribed(schedd, RUN)
        schedd.submit(make_profile("a"))
        schedd.mark_running("a", "n0", 0)
        assert [(tr.job_id, tr.node) for tr in seen] == [("a", "n0")]
        assert schedd.get("a").matched_node == "n0"

    def test_completion_listeners(self, schedd):
        seen = subscribed(schedd, COMPLETE)
        schedd.submit(make_profile())
        schedd.mark_running("j1", "n", 0)
        schedd.mark_completed("j1", result_for("j1"))
        assert [tr.job_id for tr in seen] == ["j1"]
        assert seen[0].result.job_id == "j1"
        assert schedd.get("j1").status == "Completed"

    def test_all_done_event(self, env, schedd):
        schedd.submit(make_profile("a"))
        schedd.submit(make_profile("b"))
        done = schedd.all_done()
        for job_id in ("a", "b"):
            schedd.mark_running(job_id, "n", 0)
            schedd.mark_completed(job_id, result_for(job_id, end=7.0))
        env.run()
        assert done.triggered

    def test_makespan(self, schedd):
        schedd.submit(make_profile("a"))
        schedd.submit(make_profile("b"))
        for job_id, end in (("a", 30.0), ("b", 12.0)):
            schedd.mark_running(job_id, "n", 0)
            schedd.mark_completed(job_id, result_for(job_id, end=end))
        assert schedd.makespan() == 30.0

    def test_repr(self, schedd):
        schedd.submit(make_profile())
        assert "idle=1" in repr(schedd)
