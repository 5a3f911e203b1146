"""Simulated Xeon Phi coprocessor: hardware spec, contention, memory, telemetry.

The device model reproduces the properties the paper's scheduler depends
on: 60 cores x 4 hardware threads, 8 GB device memory, full-speed
execution while concurrent offloads fit the thread budget (COSMIC
affinitization), steep slowdowns under thread oversubscription, and
OOM-killer process termination under memory oversubscription.
"""

from .contention import (
    AffinitizedContention,
    CALIBRATED_SHARING_PENALTY,
    ContentionModel,
    UnmanagedContention,
    slowdown,
)
from .device import DEVICE_STATES, DeviceFailed, OffloadRecord, OOMKilled, XeonPhi
from .spec import PAPER_SPEC, XeonPhiSpec
from .telemetry import DeviceTelemetry, StepSeries

__all__ = [
    "AffinitizedContention",
    "CALIBRATED_SHARING_PENALTY",
    "ContentionModel",
    "DEVICE_STATES",
    "DeviceFailed",
    "DeviceTelemetry",
    "OffloadRecord",
    "OOMKilled",
    "PAPER_SPEC",
    "StepSeries",
    "UnmanagedContention",
    "XeonPhi",
    "XeonPhiSpec",
    "slowdown",
]
