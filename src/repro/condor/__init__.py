"""HTCondor analogue: ClassAds, schedd, collector, negotiator, startd, pool."""

from .ads import (
    DeviceSnapshot,
    MachineAdView,
    MachineSnapshot,
    job_ad,
    machine_ad,
    pin_requirements,
    slot_name,
)
from .classad import (
    ERROR,
    UNDEFINED,
    ClassAd,
    ClassAdError,
    parse,
    rank,
    symmetric_match,
)
from .claims import (
    CollectorAgent,
    Lease,
    ScheddClaimManager,
    StartdClaimAgent,
)
from .collector import Collector
from .compile import RequirementsPlan, compile_expr, requirements_plan
from .negotiator import (
    BestFitPlacement,
    CycleStats,
    ExclusivePlacement,
    Negotiator,
    PinnedPlacement,
    PlacementPolicy,
    RandomPlacement,
)
from .pool import CondorPool
from .recovery import DaemonSupervisor, JobQueueLog
from .schedd import (
    BACKOFF,
    COMPLETED,
    FAILED,
    IDLE,
    INFRASTRUCTURE_STATUSES,
    MATCHED,
    RUNNING,
    JobRecord,
    RetryPolicy,
    Schedd,
    Transition,
)
from .startd import NodeExecutor, Startd
from .tools import condor_q, condor_status
from .submit import (
    SubmitError,
    format_classad,
    parse_classad_text,
    parse_submit,
)

__all__ = [
    "BACKOFF",
    "BestFitPlacement",
    "COMPLETED",
    "ClassAd",
    "FAILED",
    "INFRASTRUCTURE_STATUSES",
    "RetryPolicy",
    "ClassAdError",
    "Collector",
    "CollectorAgent",
    "CondorPool",
    "DaemonSupervisor",
    "JobQueueLog",
    "Lease",
    "MATCHED",
    "ScheddClaimManager",
    "StartdClaimAgent",
    "DeviceSnapshot",
    "ERROR",
    "ExclusivePlacement",
    "IDLE",
    "JobRecord",
    "MachineSnapshot",
    "Negotiator",
    "NodeExecutor",
    "PinnedPlacement",
    "PlacementPolicy",
    "RUNNING",
    "RandomPlacement",
    "Schedd",
    "Startd",
    "SubmitError",
    "UNDEFINED",
    "Transition",
    "CycleStats",
    "MachineAdView",
    "RequirementsPlan",
    "compile_expr",
    "format_classad",
    "job_ad",
    "machine_ad",
    "condor_q",
    "condor_status",
    "parse_classad_text",
    "parse_submit",
    "parse",
    "pin_requirements",
    "rank",
    "requirements_plan",
    "slot_name",
    "symmetric_match",
]
