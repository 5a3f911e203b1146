"""Self-time arithmetic of the span recorder, on a scripted clock."""

import pytest

from perfbench import spans


def scripted_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_of_nested_calls_and_generator_resumes():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and two resumes of
    # the generator d: [5, 6] and [7, 8.5].
    rec = spans.SpanRecorder(clock=scripted_clock([0, 1, 2, 3, 4, 5, 6, 7, 8.5, 10]))

    def c():
        pass

    c = spans.timed(c, "c", rec)

    def b():
        c()

    b = spans.timed(b, "b", rec)

    def d():
        yield "first"
        return "done"

    d = spans.timed_generator(d, "d", rec)

    def a():
        b()
        gen = d()
        assert next(gen) == "first"
        with pytest.raises(StopIteration):
            gen.send(None)

    spans.timed(a, "a", rec)()

    assert rec.calls == {"a": 1, "b": 1, "c": 1, "d": 2}
    assert rec.counts == {"d.created": 1}
    assert rec.total == pytest.approx({"a": 10, "b": 3, "c": 1, "d": 2.5})
    assert rec.self_time == pytest.approx({"a": 4.5, "b": 2, "c": 1, "d": 2.5})
    assert sum(rec.self_time.values()) == pytest.approx(rec.total["a"])
    assert rec.first_start == {"a": 0}
    assert rec.depth == 0


def test_generator_throw_is_a_resume_and_yield_from_nests():
    # outer resumes [0, 5] and [6, 9]; inner resumes [1, 2] and [7, 8].
    rec = spans.SpanRecorder(clock=scripted_clock([0, 1, 2, 5, 6, 7, 8, 9]))

    def inner():
        try:
            yield 1
        except KeyError:
            return "recovered"

    inner = spans.timed_generator(inner, "inner", rec)

    def outer():
        result = yield from inner()
        return result

    outer = spans.timed_generator(outer, "outer", rec)
    gen = outer()
    assert next(gen) == 1
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "recovered"
    assert rec.calls == {"outer": 2, "inner": 2}
    assert rec.self_time == pytest.approx({"outer": 6, "inner": 2})


def test_excluded_bookkeeping_is_charged_to_no_span():
    # parent [0, 10]; child [1, 3]; the observer runs from 3 to 7.
    rec = spans.SpanRecorder(clock=scripted_clock([0, 1, 3, 3, 5, 7, 10]))
    seen = []

    def observe(recorder, args, kwargs, result):
        seen.append(result)
        recorder.clock()

    child = spans.timed_observed(lambda: "r", "child", rec, observe)
    spans.timed(child, "parent", rec)()
    assert seen == ["r"]
    assert rec.self_time == pytest.approx({"parent": 4, "child": 2})
    assert rec.excluded_s == pytest.approx(4)


def test_an_exception_still_closes_the_span():
    rec = spans.SpanRecorder(clock=scripted_clock([0, 2]))

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        spans.timed(boom, "boom", rec)()
    assert rec.calls == {"boom": 1} and rec.depth == 0


def test_pmax10_picks_the_highest_percentile_with_ten_samples_beyond():
    assert spans.pmax10([float(v) for v in range(100, 0, -1)]) == 90.0  # p90
    assert spans.pmax10([float(v) for v in range(1, 100)]) == 75.0  # p75
    assert spans.pmax10([float(v) for v in range(1, 1001)]) == 990.0  # p99
    assert spans.pmax10([1.0] * 19) is None
