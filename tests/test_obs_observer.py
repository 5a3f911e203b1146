"""The job event stream and its one observer (:mod:`repro.condor.observe`).

* a golden digest of the netchaos smoke run's trace, metrics summary and
  audit footer pins every job-scoped emission byte for byte;
* the job histograms are recorded from event times, so ``--metrics``
  alone reports them, with the span durations' values under ``--trace``;
* a plain function subscribed with ``Schedd.subscribe`` sees the
  startd, claim, lease and match events, none of which the write-ahead
  log journals.
"""

import hashlib
import random
from collections import Counter

import pytest

from repro.cli import main
from repro.cluster import ClusterConfig, run_configuration
from repro.cluster.node import ComputeNode
from repro.condor import CondorPool, RandomPlacement
from repro.condor.schedd import (
    CLAIM_CLOSE,
    CLAIM_OPEN,
    DISPATCH,
    EXECUTE,
    EXIT,
    JOURNALED,
    LAUNCH,
    LEASE_CLOSE,
    LEASE_EXPIRY,
    LEASE_OPEN,
    LEASE_RENEW,
    NEGOTIATED,
    STALE,
)
from repro.net import NetProfile, PartitionSpec, derive_net_seed
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sim import Environment
from repro.workloads import generate_table1_jobs

SMALL = ClusterConfig(nodes=2, cycle_interval=2.0)


@pytest.fixture(autouse=True)
def isolated_smoke_scale(tmp_path, monkeypatch):
    """Smoke scale, a private result cache, and no tracer or registry
    left active for the next test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_SCALE", "0.25")
    monkeypatch.delenv("REPRO_FULL", raising=False)
    yield
    obs_trace.deactivate()
    obs_metrics.deactivate()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cells(summary: str) -> str:
    """The summary's table cells, stripped of their padding: the form
    the golden digest was pinned over, when the summary still carried a
    wall-clock row whose values set its table's column widths."""
    rows = []
    for line in summary.splitlines():
        cells = [cell.strip() for cell in line.replace("-+-", "|").split("|")]
        rows.append("|".join("-" if set(c) == {"-"} else c for c in cells))
    return "\n".join(rows)


NETCHAOS_SMOKE = [
    "ext-netchaos",
    "--net-loss", "0",
    "--net-loss", "0.05",
    "--net-partition", "40:160:startd:*",
]

#: SHA-256 of (Chrome trace JSON, metrics summary cells, audit footer)
#: of the netchaos smoke run at ``REPRO_SCALE=0.25``.
#: The trace digest was re-pinned when host-side waits fused into one
#: timeout: ``host-phase``/``xfer-*`` spans are emitted when the fused
#: wait ends, which swaps three pairs of same-``ts`` host-phase rows of
#: jobs dispatched together (same rows, same values, new order).
GOLDEN = (
    "fea161609976872de7a93b09ee339b807d7af07f56fec648aaa308b34ade0d41",
    "4f50103bb338acde8f577999f1d426fc0aa9189926ecde7b5a14cd46e92af9c2",
    "648b36818dc62379f0c80f09dfc482c81ccf41fd4beaf8883b96a6245a933061",
)


def test_netchaos_smoke_golden_digest(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    metrics_path = tmp_path / "metrics.txt"
    assert main(
        NETCHAOS_SMOKE
        + ["--audit", "--trace", str(trace_path), "--metrics", str(metrics_path)]
    ) == 0
    footer = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("[audit:")
    ]
    trace = trace_path.read_text()
    for name in ("matched", "dispatch", "run", "claim-lost",
                 "lease-expired", "match-timeout"):
        assert f'"name":"{name}"' in trace, name
    assert "net.stale_messages" in metrics_path.read_text()
    assert (
        _sha(trace),
        _sha(_cells(metrics_path.read_text())),
        _sha("\n".join(footer)),
    ) == GOLDEN


def test_netchaos_metrics_summary_replays_byte_for_byte(tmp_path):
    # The summary holds simulated quantities only: two runs of the same
    # seed write the same bytes, column widths included.
    summaries = []
    for run in ("a", "b"):
        path = tmp_path / f"metrics_{run}.txt"
        assert main(NETCHAOS_SMOKE + ["--no-cache", "--metrics", str(path)]) == 0
        summaries.append(path.read_bytes())
    assert b"negotiator.cycle_matches" in summaries[0]
    assert summaries[0] == summaries[1]


# -- job histograms from event times -----------------------------------------


def _metrics_run(tracer_on: bool):
    job_set = generate_table1_jobs(20, seed=5)
    tracer = obs_trace.activate() if tracer_on else None
    registry = obs_metrics.activate()
    try:
        result = run_configuration("MCC", job_set, SMALL)
    finally:
        obs_trace.deactivate()
        obs_metrics.deactivate()
    return result, tracer, registry.cell.histograms


def _durations(tracer, name):
    return sorted(
        span.end - span.start
        for span in tracer.spans
        if span.name == name and span.end is not None
    )


class TestJobHistograms:
    def test_metrics_alone_record_queue_wait_and_run(self):
        result, _, histograms = _metrics_run(tracer_on=False)
        assert histograms["job.queue_wait_s"].count == result.job_count
        assert histograms["job.run_s"].count == result.job_count

    def test_values_equal_span_durations_when_traced(self):
        _, tracer, histograms = _metrics_run(tracer_on=True)
        for histogram, span in (
            ("job.queue_wait_s", "queued"),
            ("job.run_s", "run"),
        ):
            observed = sorted(histograms[histogram].observations)
            assert observed and observed == _durations(tracer, span)
        _, _, untraced = _metrics_run(tracer_on=False)
        assert untraced["job.run_s"].observations == (
            histograms["job.run_s"].observations
        )


# -- a plain subscriber sees the daemons' job events ---------------------------


#: The published-only kinds of the startd, the claim agents and the
#: negotiator.
NEW_KINDS = {
    NEGOTIATED, LAUNCH, DISPATCH, EXECUTE, EXIT, CLAIM_OPEN, CLAIM_CLOSE,
    LEASE_RENEW, LEASE_OPEN, LEASE_CLOSE, LEASE_EXPIRY, STALE,
}


def _subscribed_fabric_run(crash_at=None, downtime=40.0):
    """A 2-node fabric pool whose startds are partitioned away from 10 s
    to 120 s (past the 15 s lease), optionally with a schedd crash; one
    plain function subscribed. Returns the pool and what it saw."""
    env = Environment()
    executors = [
        ComputeNode(env, name=f"node{i}", num_devices=1, mode="cosmic")
        for i in range(2)
    ]
    net = NetProfile(
        lease_duration_s=15.0,
        renew_interval_s=5.0,
        match_timeout_s=20.0,
        loss=0.05,
        partitions=(PartitionSpec(10.0, 120.0, "startd:*"),),
    )
    pool = CondorPool(
        env,
        executors,
        RandomPlacement(random.Random(1234)),
        cycle_interval=5.0,
        net=net,
        net_seed=derive_net_seed(3),
        recovery=True,
    )
    schedd = pool.schedd
    seen = []
    at_crash = {}

    def subscriber(tr):
        seq = schedd.get(tr.job_id).seq if tr.job_id else None
        seen.append((tr.kind, tr.job_id, seq, tr.time, schedd.down))

    schedd.subscribe(subscriber)
    pool.submit(generate_table1_jobs(10, seed=3))
    if crash_at is not None:
        def crasher():
            yield env.timeout(crash_at)
            # Claims live in the schedd and die with it, silently.
            at_crash["claims"] = {
                claim.job_id for claim in pool.claims._claims.values()
            }
            at_crash["records"] = {r.job_id: r for r in schedd.all_records()}
            pool.supervisor.crash_daemon("schedd", downtime_s=downtime)

        env.process(crasher())
    pool.run_to_completion(limit=100_000.0)
    return pool, seen, at_crash


def _per_job(seen, kind):
    return Counter(job_id for k, job_id, *_ in seen if k == kind)


class TestSubscriberPath:
    def test_sees_every_new_kind_none_journaled(self):
        pool, seen, _ = _subscribed_fabric_run()
        assert NEW_KINDS <= {kind for kind, *_ in seen}
        assert _per_job(seen, CLAIM_OPEN) == _per_job(seen, CLAIM_CLOSE)
        assert _per_job(seen, LEASE_OPEN) == _per_job(seen, LEASE_CLOSE)
        assert _per_job(seen, LAUNCH) == _per_job(seen, EXIT)
        wal = pool.schedd.wal
        # The journal holds exactly the queue transitions.
        journaled = [kind for kind, *_ in seen if kind in JOURNALED]
        assert wal.appended == len(journaled)
        assert not {tr.kind for tr in wal.records} & NEW_KINDS

    def test_startd_publishes_while_schedd_down_and_after_replay(self):
        crash_at, downtime = 180.0, 40.0
        pool, seen, at_crash = _subscribed_fabric_run(crash_at, downtime)
        assert pool.supervisor.recoveries == 1
        replaced = at_crash["records"]
        assert all(pool.schedd.get(j) is not r for j, r in replaced.items())
        restart = crash_at + downtime
        while_down = {
            kind for kind, _, _, time, down in seen
            if down and crash_at <= time < restart
        }
        assert {EXIT, LEASE_EXPIRY, LEASE_CLOSE} <= while_down
        # After the replay replaced every record object, the events still
        # name the same jobs under the same queue sequence numbers.
        seqs = {}
        for kind, job_id, seq, *_ in seen:
            if job_id is not None:
                assert seqs.setdefault(job_id, seq) == replaced[job_id].seq
        after = {
            kind for kind, job_id, _, time, _ in seen
            if time > restart and job_id in at_crash["claims"]
        }
        assert {LAUNCH, DISPATCH, EXECUTE, EXIT, CLAIM_CLOSE} <= after
        # Every claim is closed, but for those the crash dropped.
        opens = _per_job(seen, CLAIM_OPEN)
        opens.subtract(_per_job(seen, CLAIM_CLOSE))
        assert at_crash["claims"] and +opens == Counter(at_crash["claims"])
        assert _per_job(seen, LEASE_OPEN) == _per_job(seen, LEASE_CLOSE)
        assert pool.schedd.wal.appended == sum(
            1 for kind, *_ in seen if kind in JOURNALED
        )
