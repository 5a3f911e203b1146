"""Reference-second arithmetic of the host-speed clock."""

import signal
from time import perf_counter

import pytest

from perfbench import refclock
from perfbench.refclock import CALIBRATION_REF_S as REF


def scripted(pauses):
    """A clock whose calibrations paused at the given (start, end) times."""
    clock = refclock.RefClock()
    clock.starts = [a for a, _ in pauses]
    clock.ends = [b for _, b in pauses]
    return clock


def test_pauses_are_cut_out_and_each_piece_scaled_by_its_neighbours():
    # Calibrations of REF, 2*REF, 2*REF: the host runs at half the
    # reference speed around the second and third.
    clock = scripted([(0.0, REF), (1.0, 1.0 + 2 * REF), (3.0, 3.0 + 2 * REF)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refclock, "WINDOW", 0)
        # [0.5, 1.0) is closed by the second calibration and
        # [1 + 2*REF, 2.5) by the third: both at half speed.
        seconds = clock.seconds(0.5, 2.5)
    assert seconds == pytest.approx(0.5 * 0.5 + (1.5 - 2 * REF) * 0.5)


def test_window_takes_the_median_of_the_calibrations_around_a_piece():
    # One slow outlier among steady calibrations does not move the speed.
    durations = [REF, REF, 5 * REF, REF, REF]
    clock = scripted([(float(i), i + d) for i, d in enumerate(durations)])
    assert clock.speed(2) == pytest.approx(1.0)
    assert clock.seconds(2.5, 2.75) == pytest.approx(0.25)


def test_a_stretch_between_two_calibrations_uses_the_one_after_it():
    clock = scripted([(0.0, REF), (1.0, 1.0 + 4 * REF)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refclock, "WINDOW", 0)
        assert clock.seconds(0.25, 0.75) == pytest.approx(0.5 / 4)


def test_the_timer_calibrates_while_installed_and_is_removed_after():
    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock() as clock:
        start = perf_counter()
        while perf_counter() - start < 4 * refclock.TICK_S:
            pass
        end = perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # One on entry, one on exit, and the timer's in between.
    assert len(clock.starts) >= 4
    assert clock.seconds(start, end) > 0
