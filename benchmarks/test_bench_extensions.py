"""X1–X3 — extension benches (capacity, consolidation, oversubscription)."""

from repro.experiments import ext_capacity, ext_multidevice, ext_oversubscription
from repro.experiments.common import scaled


def test_bench_ext_capacity(benchmark, scale, record_result):
    result = benchmark.pedantic(
        ext_capacity.run,
        kwargs=dict(jobs=scaled(400, scale)),
        rounds=1,
        iterations=1,
    )
    record_result("ext_capacity", ext_capacity.render(result))

    mc = result.makespans["MC"]
    mcck = result.makespans["MCCK"]
    # MC is essentially capacity-insensitive (within noise).
    assert max(mc) < 1.1 * min(mc)
    # Sharing monotonically improves (or saturates) with capacity.
    assert mcck[-1] <= 1.05 * mcck[0]
    # At the smallest capacity sharing is most constrained.
    assert mcck[0] == max(mcck) or mcck[0] >= 0.95 * max(mcck)


def test_bench_ext_multidevice(benchmark, scale, record_result):
    result = benchmark.pedantic(
        ext_multidevice.run,
        kwargs=dict(jobs=scaled(400, scale)),
        rounds=1,
        iterations=1,
    )
    record_result("ext_multidevice", ext_multidevice.render(result))

    # Same card count: every shape lands in the same performance regime.
    for series in result.makespans.values():
        assert max(series) < 1.5 * min(series)


def test_bench_ext_oversubscription(benchmark, record_result):
    result = benchmark.pedantic(ext_oversubscription.run, rounds=1, iterations=1)
    record_result("ext_oversubscription", ext_oversubscription.render(result))

    # Managed execution is free of penalty within the budget and reaches
    # the paper's ~8x anchor around 2.5x demand.
    assert result.slowdowns_managed[0] == 1.0
    assert result.slowdowns_managed[1] == 1.0
    anchor = result.slowdowns_managed[result.ratios.index(2.5)]
    assert 6.0 <= anchor <= 10.0
    # Unmanaged is never better than managed.
    for u, m in zip(result.slowdowns_unmanaged, result.slowdowns_managed):
        assert u >= m
    # Memory: everyone survives within capacity; kills begin past it.
    assert result.survival_rate[0] == 1.0
    assert result.survival_rate[-1] < 1.0


def test_bench_ext_replication(benchmark, scale, record_result):
    from repro.experiments import ext_replication

    result = benchmark.pedantic(
        ext_replication.run,
        kwargs=dict(jobs=scaled(400, scale), replicas=3),
        rounds=1,
        iterations=1,
    )
    record_result("ext_replication", ext_replication.render(result))

    # Sharing beats MC on every seed, by a clear margin on average.
    for configuration in ("MCC", "MCCK"):
        reduction = result.reduction(configuration)
        assert reduction.mean > 15.0
        assert all(v > 0 for v in reduction.values)
    # The MC calibration is stable across seeds (tight CI).
    mc = result.makespans["MC"]
    lo, hi = mc.ci95
    assert (hi - lo) < 0.2 * mc.mean
