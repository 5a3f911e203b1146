"""Tests for the ASCII device timeline rendering."""

import pytest

from repro.metrics import device_timeline, legend
from repro.phi import XeonPhi
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


def busy_device(env, name="mic0"):
    phi = XeonPhi(env, name=name)

    def job(env):
        phi.register_process("j")
        yield from phi.run_offload("j", 240, 10.0)
        yield env.timeout(10)
        yield from phi.run_offload("j", 120, 10.0)
        phi.unregister_process("j")

    env.process(job(env))
    env.run()
    return phi


class TestDeviceTimeline:
    def test_width_and_glyphs(self, env):
        phi = busy_device(env)
        row = device_timeline(phi, 0, 30, width=30)
        assert len(row) == 30
        # Full-thread burst renders the densest glyph; the idle gap the
        # lightest; the half-thread burst something between.
        assert row[0] == "@"
        assert row[15] == " "
        assert row[-1] not in (" ", "@")

    def test_idle_device_is_blank(self, env):
        phi = XeonPhi(env)
        assert set(device_timeline(phi, 0, 10, width=10)) == {" "}

    def test_invalid_window(self, env):
        phi = XeonPhi(env)
        with pytest.raises(ValueError):
            device_timeline(phi, 10, 10)
        with pytest.raises(ValueError):
            device_timeline(phi, 0, 10, width=0)


class TestLegend:
    def test_legend(self):
        text = legend()
        assert "@" in text and "idle" in text
