"""Property test: the schedd's idle queues stay in FIFO order.

``Schedd.pending()`` lists the idle jobs from two queues that the state
machine keeps in ``fifo_key`` order as jobs change state, instead of
sorting the idle set on every call: the offered jobs, which
``Schedd.negotiable()`` lists for the negotiator, and the parked ones.
The oracle is the old listing: every idle record, sorted by
``fifo_key``, split by ``offer_plan``. Random submit / park / pin /
match / unmatch / run / complete / fail-and-requeue sequences (a
requeue restores the submit-time Requirements), WAL checkpoints and
replays (which replace record objects) must never let them disagree.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.condor import (
    IDLE,
    MATCHED,
    RUNNING,
    JobQueueLog,
    RetryPolicy,
    Schedd,
    pin_requirements,
)
from repro.condor.schedd import SNAPSHOT, Transition, offer_plan
from repro.mpss import JobRunResult
from repro.sim import Environment
from repro.workloads import HostPhase, JobProfile, OffloadPhase


def make_profile(job_id, submit_time):
    return JobProfile(
        job_id=job_id,
        app="t",
        phases=(HostPhase(1.0), OffloadPhase(work=5, threads=60, memory_mb=1000)),
        declared_memory_mb=1000,
        declared_threads=60,
        submit_time=submit_time,
    )


def _result(job_id, status):
    return JobRunResult(job_id=job_id, start=0.0, end=1.0, status=status,
                        offloads_run=0)


def _sorted_idle(schedd):
    """The listing ``pending()`` used to compute: a sort of the idle set."""
    return sorted(
        (r for r in schedd.all_records() if r.status == IDLE),
        key=lambda r: r.fifo_key,
    )


def _assert_fifo(schedd):
    listing = schedd.pending()
    expected = _sorted_idle(schedd)
    # Identity, not equality: a replaced record must not linger.
    assert [id(r) for r in listing] == [id(r) for r in expected]
    assert schedd.idle_jobs == len(expected)
    offered = schedd.negotiable()
    assert [id(r) for r in offered] \
        == [id(r) for r in expected if offer_plan(r) is not None]
    assert schedd.parked_between(None, None) == len(expected) - len(offered)
    # The listings are the caller's: changing them leaves the queue alone.
    listing.clear()
    offered.clear()
    assert schedd.idle_jobs == len(expected)
    assert [id(r) for r in schedd.negotiable()] \
        == [id(r) for r in expected if offer_plan(r) is not None]


_OPS = ["submit", "submit", "park", "park", "pin", "match", "unmatch", "run",
        "complete", "fail", "requeue", "checkpoint", "replay", "resnapshot"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pending_is_the_sorted_idle_set(data):
    env = Environment()
    schedd = Schedd(
        env, retry_policy=RetryPolicy(max_retries=1, base_backoff_s=5.0)
    )
    JobQueueLog(env, schedd)
    token = 0

    def jobs_in(*statuses):
        return [r.job_id for r in schedd.all_records() if r.status in statuses]

    for _ in range(data.draw(st.integers(1, 50))):
        op = data.draw(st.sampled_from(_OPS))
        if op == "submit":
            # Submit times out of order exercise the bisect-insert path;
            # in-order ones the append.
            submit_time = data.draw(st.sampled_from([0.0, 1.0, 2.0, 3.0]))
            schedd.submit(make_profile(f"j{schedd.total_jobs}", submit_time))
        elif op == "requeue":
            env.run(until=env.timeout(10.0))
        elif op == "checkpoint":
            schedd.wal.checkpoint()
        elif op == "replay":
            schedd.wal.replay(schedd)
        else:
            statuses = {
                "match": (IDLE,), "unmatch": (MATCHED,), "run": (IDLE, MATCHED),
                "complete": (RUNNING,), "fail": (RUNNING,), "resnapshot": (IDLE,),
                "park": (IDLE,), "pin": (IDLE,),
            }[op]
            candidates = jobs_in(*statuses)
            if not candidates:
                continue
            job_id = data.draw(st.sampled_from(candidates))
            if op == "match":
                token += 1
                schedd.mark_matched(job_id, token)
            elif op == "unmatch":
                schedd.unmatch(job_id)
            elif op == "run":
                schedd.mark_running(job_id, "node0", 0)
            elif op == "park":
                schedd.qedit(job_id, "Requirements", "false")
            elif op == "pin":
                schedd.qedit(job_id, "Requirements", pin_requirements("node0"))
            elif op == "complete":
                schedd.mark_completed(job_id, _result(job_id, "completed"))
            elif op == "fail":
                schedd.mark_failed(job_id, _result(job_id, "device-failed"))
            else:
                # A replayed snapshot of a live idle job replaces its
                # record object in place.
                old = schedd.get(job_id)
                schedd._apply(Transition(SNAPSHOT, job_id, env.now,
                                         state=dataclasses.replace(old)))
                assert schedd.get(job_id) is not old
        _assert_fifo(schedd)
