"""ASCII timeline rendering of device activity (a text Gantt chart).

Turns a device's busy-thread step series into a row of glyphs so the
sharing behaviour the paper illustrates in Figs. 2-3 — offload bursts,
host gaps, overlap under sharing — is visible straight from a terminal.
"""

from __future__ import annotations

from ..phi.device import XeonPhi

#: Glyph ramp from idle to fully busy.
_RAMP = " .:-=+*#%@"


def _glyph(fraction: float) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    index = min(int(fraction * (len(_RAMP) - 1) + 0.5), len(_RAMP) - 1)
    return _RAMP[index]


def device_timeline(
    device: XeonPhi, start: float, end: float, width: int = 80
) -> str:
    """One row: mean busy-thread fraction per time bucket, as glyphs."""
    if end <= start:
        raise ValueError("end must be after start")
    if width <= 0:
        raise ValueError("width must be positive")
    budget = device.spec.hardware_threads
    series = device.telemetry.busy_threads
    step = (end - start) / width
    row = []
    for i in range(width):
        lo = start + i * step
        hi = lo + step
        row.append(_glyph(series.mean(lo, hi) / budget))
    return "".join(row)


def legend() -> str:
    """Explain the glyph ramp."""
    return f"thread occupancy: idle '{_RAMP[0]}' ... full '{_RAMP[-1]}' ({_RAMP})"
