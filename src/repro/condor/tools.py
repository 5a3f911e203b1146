"""Operator-facing status formatters: ``condor_q`` and ``condor_status``.

Render the live state of a pool the way the real CLI tools would — handy
in examples and when debugging schedules interactively.
"""

from __future__ import annotations

from ..metrics.report import format_table
from .ads import slot_name
from .pool import CondorPool
from .schedd import COMPLETED, RUNNING, Schedd


def condor_q(schedd: Schedd, show_completed: bool = False) -> str:
    """The job queue, one row per job."""
    rows = []
    for record in schedd.all_records():
        if record.status == COMPLETED and not show_completed:
            continue
        rows.append(
            [
                record.job_id,
                record.profile.app,
                record.status,
                f"{record.profile.declared_memory_mb:.0f}",
                record.profile.declared_threads,
                record.matched_node or "-",
            ]
        )
    counts = (
        f"{schedd.total_jobs} jobs; "
        f"{schedd.idle_jobs} idle, {len(schedd.running())} running, "
        f"{len(schedd.completed())} completed"
    )
    table = format_table(
        ["ID", "APP", "ST", "PHI_MEM", "PHI_THREADS", "NODE"],
        rows,
        title="-- Schedd queue",
    )
    return f"{table}\n{counts}"


def condor_status(pool: CondorPool) -> str:
    """Machine status, one row per node."""
    rows = []
    for startd in pool.startds:
        snapshot = startd.snapshot()
        for device in snapshot.devices:
            rows.append(
                [
                    slot_name(snapshot.node),
                    f"mic{device.index}",
                    f"{snapshot.free_slots}/{snapshot.total_slots}",
                    f"{device.free_declared_mb:.0f}",
                    device.resident_jobs,
                    "Claimed" if device.claimed_exclusive else "Unclaimed",
                ]
            )
    return format_table(
        ["NAME", "PHI", "FREE_SLOTS", "PHI_FREE_MB", "PHI_JOBS", "STATE"],
        rows,
        title="-- Pool status",
    )
