"""Unit tests for the MPSS stack: SCIF, COI processes, offload runtime."""

import pytest

from repro.cosmic import Cosmic, DeclaredMemoryEnforcer
from repro.obs import trace as obs_trace
from repro.mpss import (
    COIProcess,
    FREE_TRANSFERS,
    OffloadRuntime,
    SCIFModel,
)
from repro.phi import UnmanagedContention, XeonPhi
from repro.sim import Environment, profile
from repro.workloads import HostPhase, JobProfile, OffloadPhase


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def phi(env):
    return XeonPhi(env, name="mic0")


def simple_job(job_id="j1", work=10.0, threads=60, memory=500.0, host=2.0,
               declared_memory=None, declared_threads=None, transfer=0.0):
    return JobProfile(
        job_id=job_id,
        app="test",
        phases=(
            HostPhase(host),
            OffloadPhase(work=work, threads=threads, memory_mb=memory,
                         transfer_mb=transfer),
        ),
        declared_memory_mb=declared_memory or memory,
        declared_threads=declared_threads or threads,
    )


class TestSCIF:
    def test_transfer_time_linear(self):
        model = SCIFModel(latency_s=0.001, bandwidth_mb_per_s=1000)
        assert model.transfer_time(500) == pytest.approx(0.001 + 0.5)

    def test_zero_bytes_zero_time(self):
        assert SCIFModel().transfer_time(0) == 0.0

    def test_free_transfers(self):
        assert FREE_TRANSFERS.transfer_time(10_000) == 0.0

    def test_negative_mb_rejected(self):
        with pytest.raises(ValueError):
            SCIFModel().transfer_time(-1)

    @pytest.mark.parametrize("kwargs", [{"latency_s": -1}, {"bandwidth_mb_per_s": 0}])
    def test_invalid_model_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SCIFModel(**kwargs)


class TestCOIProcess:
    def test_lifecycle(self, phi):
        coi = COIProcess(phi, "j1", base_memory_mb=64)
        assert coi.alive
        assert coi.resident_mb == 64
        coi.grow_to(512)
        assert coi.resident_mb == 512
        coi.destroy()
        assert not coi.alive
        assert phi.resident_memory_mb == 0

    def test_growth_is_monotone(self, phi):
        coi = COIProcess(phi, "j1")
        coi.grow_to(1000)
        coi.grow_to(200)  # Smaller request: footprint stays (stacks grow).
        assert coi.resident_mb == 1000
        coi.destroy()

    def test_grow_after_destroy_rejected(self, phi):
        coi = COIProcess(phi, "j1")
        coi.destroy()
        with pytest.raises(RuntimeError):
            coi.grow_to(10)

    def test_double_destroy_is_noop(self, phi):
        coi = COIProcess(phi, "j1")
        coi.destroy()
        coi.destroy()

    def test_negative_base_memory_rejected(self, phi):
        with pytest.raises(ValueError):
            COIProcess(phi, "j1", base_memory_mb=-1)

    def test_repr(self, phi):
        assert "j1" in repr(COIProcess(phi, "j1"))


class TestRuntimeBasics:
    def test_job_completes_with_nominal_duration(self, env, phi):
        runtime = OffloadRuntime(env, phi, scif=FREE_TRANSFERS)
        results = []

        def run(env):
            result = yield from runtime.execute(simple_job(work=10, host=2))
            results.append(result)

        env.process(run(env))
        env.run()
        (result,) = results
        assert result.completed
        assert result.wall_time == pytest.approx(12.0)
        assert result.offloads_run == 1

    def test_transfer_time_extends_wall_time(self, env, phi):
        scif = SCIFModel(latency_s=0.0, bandwidth_mb_per_s=100)
        runtime = OffloadRuntime(env, phi, scif=scif)
        results = []

        def run(env):
            result = yield from runtime.execute(
                simple_job(work=10, host=0, transfer=200)
            )
            results.append(result)

        env.process(run(env))
        env.run()
        # 200 MB split into 100 in + 100 out at 100 MB/s = 2s extra.
        assert results[0].wall_time == pytest.approx(12.0)

    def test_memory_released_after_job(self, env, phi):
        runtime = OffloadRuntime(env, phi, scif=FREE_TRANSFERS, coi_base_mb=32)

        def run(env):
            yield from runtime.execute(simple_job())

        env.process(run(env))
        env.run()
        assert phi.resident_memory_mb == 0

    def test_execute_outside_process_rejected(self, env, phi):
        runtime = OffloadRuntime(env, phi)
        with pytest.raises(RuntimeError):
            next(runtime.execute(simple_job()))

    def test_results_accumulate(self, env, phi):
        runtime = OffloadRuntime(env, phi, scif=FREE_TRANSFERS)

        def run(env, job_id):
            yield from runtime.execute(simple_job(job_id=job_id))

        env.process(run(env, "a"))
        env.process(run(env, "b"))
        env.run()
        assert sorted(r.job_id for r in runtime.results) == ["a", "b"]


class TestRuntimeWithCosmic:
    def test_gate_prevents_thread_oversubscription(self, env, phi):
        cosmic = Cosmic(env, phi)
        runtime = OffloadRuntime(env, phi, scif=FREE_TRANSFERS, gate=cosmic)
        results = []

        def run(env, job_id):
            result = yield from runtime.execute(
                simple_job(job_id=job_id, work=10, threads=240, host=0)
            )
            results.append(result)

        env.process(run(env, "a"))
        env.process(run(env, "b"))
        env.run()
        # Serialized by the gate: 10s + 10s, both at full speed.
        ends = sorted(r.end for r in results)
        assert ends == [pytest.approx(10.0), pytest.approx(20.0)]

    def test_within_budget_offloads_overlap(self, env, phi):
        cosmic = Cosmic(env, phi)
        runtime = OffloadRuntime(env, phi, scif=FREE_TRANSFERS, gate=cosmic)
        results = []

        def run(env, job_id):
            result = yield from runtime.execute(
                simple_job(job_id=job_id, work=10, threads=120, host=0)
            )
            results.append(result)

        env.process(run(env, "a"))
        env.process(run(env, "b"))
        env.run()
        assert all(r.end == pytest.approx(10.0) for r in results)

    def test_enforcer_kills_underdeclared_job(self, env, phi):
        enforcer = DeclaredMemoryEnforcer()
        runtime = OffloadRuntime(env, phi, scif=FREE_TRANSFERS, enforcer=enforcer)
        results = []

        def run(env):
            result = yield from runtime.execute(
                simple_job(memory=2000, declared_memory=1000)
            )
            results.append(result)

        env.process(run(env))
        env.run()
        assert results[0].status == "memory-limit"
        assert enforcer.kills == ["j1"]
        assert phi.resident_memory_mb == 0  # container cleanup

    def test_honest_job_survives_enforcer(self, env, phi):
        runtime = OffloadRuntime(
            env, phi, scif=FREE_TRANSFERS, enforcer=DeclaredMemoryEnforcer()
        )
        results = []

        def run(env):
            result = yield from runtime.execute(simple_job())
            results.append(result)

        env.process(run(env))
        env.run()
        assert results[0].completed


class TestOOMPaths:
    def test_unmanaged_sharing_can_oom(self, env):
        # Without COSMIC, two 5 GB jobs on an 8 GB card trigger the OOM
        # killer; the victim reports "oom-killed" and the other completes.
        phi = XeonPhi(env, contention=UnmanagedContention(), name="raw")
        runtime = OffloadRuntime(env, phi, scif=FREE_TRANSFERS)
        results = []

        def run(env, job_id, delay):
            yield env.timeout(delay)
            result = yield from runtime.execute(
                simple_job(job_id=job_id, work=20, threads=240, memory=5000, host=0)
            )
            results.append(result)

        env.process(run(env, "first", 0.0))
        env.process(run(env, "second", 1.0))
        env.run()
        statuses = {r.job_id: r.status for r in results}
        assert "oom-killed" in statuses.values()
        assert phi.telemetry.oom_kills == 1
        assert phi.resident_memory_mb == 0

    def test_self_oom_on_own_allocation(self, env):
        # One job alone asking for more than the card: it kills itself.
        phi = XeonPhi(env, name="raw")
        runtime = OffloadRuntime(env, phi, scif=FREE_TRANSFERS)
        results = []

        def run(env):
            result = yield from runtime.execute(
                simple_job(work=5, memory=9000, declared_memory=9000)
            )
            results.append(result)

        env.process(run(env))
        env.run()
        assert results[0].status == "oom-killed"
        assert phi.resident_memory_mb == 0


def _two_offload_job(job_id="j"):
    # host 1 | xfer-in .5 | offload 2 | xfer-out .5, host 3, xfer-in .5 | ...
    return JobProfile(
        job_id=job_id,
        app="test",
        phases=(
            HostPhase(1.0),
            OffloadPhase(work=2.0, threads=60, memory_mb=5000.0, transfer_mb=100.0),
            HostPhase(3.0),
            OffloadPhase(work=1.0, threads=60, memory_mb=5000.0, transfer_mb=100.0),
        ),
        declared_memory_mb=5000.0,
        declared_threads=60,
    )


class TestFusedHostWaits:
    """Consecutive host-side delays cost one timeout between state changes."""

    SCIF = SCIFModel(latency_s=0.0, bandwidth_mb_per_s=100.0)  # 50 MB: 0.5 s

    def _run(self, env, phi, kill_at=None):
        runtime = OffloadRuntime(env, phi, scif=self.SCIF)
        results = []

        def job(env):
            results.append((yield from runtime.execute(_two_offload_job())))

        def aggressor(env):
            # Pushes the card past 8 GB: the 5 GB job is the OOM victim.
            yield env.timeout(kill_at)
            phi.register_process("aggressor")
            phi.allocate("aggressor", 4000)
            phi.unregister_process("aggressor")

        env.process(job(env))
        if kill_at is not None:
            env.process(aggressor(env))
        env.run()
        return results[0]

    def _mpss_spans(self, tracer):
        return [(s.name, s.start, s.end) for s in tracer.spans if s.cat == "mpss"]

    def test_one_timeout_per_run_of_host_side_delays(self):
        prof = profile.activate()
        try:
            env = Environment()  # an environment reports to the profiler
            result = self._run(env, XeonPhi(env))  # active at its creation
        finally:
            profile.deactivate()
        assert result.status == "completed"
        assert result.end == 1.0 + 0.5 + 2.0 + 0.5 + 3.0 + 0.5 + 1.0 + 0.5
        # Fused waits: [host, xfer-in], [xfer-out, host, xfer-in],
        # [xfer-out]; plus the two offloads' device timeouts.
        assert prof.events_fired["Timeout"] == 5

    def test_traced_spans_cover_every_part_of_a_fused_wait(self, env, phi):
        tracer = obs_trace.activate()
        try:
            self._run(env, phi)
        finally:
            obs_trace.deactivate()
        assert self._mpss_spans(tracer) == [
            ("host-phase", 0.0, 1.0),
            ("xfer-in", 1.0, 1.5),
            ("xfer-out", 3.5, 4.0),
            ("host-phase", 4.0, 7.0),
            ("xfer-in", 7.0, 7.5),
            ("xfer-out", 8.5, 9.0),
        ]
        assert [s.args.get("mb") for s in tracer.spans if s.cat == "mpss"] == [
            None, 50.0, 50.0, None, 50.0, 50.0,
        ]

    def test_kill_inside_a_fused_wait(self, env, phi):
        # The kill lands at t=5, inside the host phase of the fused
        # [xfer-out 3.5-4, host 4-7, xfer-in 7-7.5] wait.
        tracer = obs_trace.activate()
        try:
            result = self._run(env, phi, kill_at=5.0)
        finally:
            obs_trace.deactivate()
        assert result.status == "oom-killed"
        assert result.end == 5.0
        assert result.offloads_run == 1
        # Only the sub-waits that ended before the kill are traced.
        assert self._mpss_spans(tracer) == [
            ("host-phase", 0.0, 1.0),
            ("xfer-in", 1.0, 1.5),
            ("xfer-out", 3.5, 4.0),
        ]
        assert [(i.name, i.time) for i in tracer.instants] == [
            ("oom-kill", 5.0), ("oom-killed", 5.0),
        ]
        assert phi.resident_memory_mb == 0


class TestGateCancellation:
    def test_oom_while_queued_at_gate_cancels_request(self, env, phi):
        """A job killed while waiting for the thread gate must withdraw
        its pending grant, or the gate leaks threads to a corpse."""
        cosmic = Cosmic(env, phi)
        runtime = OffloadRuntime(env, phi, scif=FREE_TRANSFERS, gate=cosmic)
        results = []

        def holder(env):
            # Occupies all 240 threads for a long time.
            result = yield from runtime.execute(
                simple_job(job_id="holder", work=50, threads=240,
                           memory=1000, host=0)
            )
            results.append(result)

        def victim(env):
            # Registers 5 GB then queues at the gate behind the holder.
            result = yield from runtime.execute(
                simple_job(job_id="victim", work=10, threads=240,
                           memory=5000, host=0.5)
            )
            results.append(result)

        def aggressor(env):
            # Pushes the card past 8 GB at t=2, OOM-killing the victim
            # (largest resident) while it waits at the gate.
            yield env.timeout(2)
            phi.register_process("aggressor")
            phi.allocate("aggressor", 4000)
            yield env.timeout(1)
            phi.unregister_process("aggressor")

        env.process(holder(env))
        env.process(victim(env))
        env.process(aggressor(env))
        env.run()

        by_id = {r.job_id: r for r in results}
        assert by_id["victim"].status == "oom-killed"
        assert by_id["holder"].completed
        # The gate fully recovered: no threads leaked to the dead waiter.
        assert cosmic.free_threads == 240
        assert phi.resident_memory_mb == 0
