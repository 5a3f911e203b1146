"""Workload models: job profiles, Table-I applications, synthetic job sets."""

from .from_submit import profile_from_ad, profiles_from_submit
from .io import dump_jobs, dumps_jobs, job_from_dict, job_to_dict, load_jobs, loads_jobs
from .profiles import (
    HostPhase,
    JobProfile,
    OffloadPhase,
    Phase,
    alternating_profile,
)
from .synthetic import (
    DISTRIBUTIONS,
    SyntheticSpec,
    draw_levels,
    generate_synthetic_jobs,
    level_to_resources,
    resource_histogram,
)
from .table1 import (
    AppSpec,
    MEMORY_QUANTUM_MB,
    TABLE1_APPS,
    build_profile,
    generate_table1_job,
    generate_table1_jobs,
    quantize_memory,
)

__all__ = [
    "AppSpec",
    "DISTRIBUTIONS",
    "HostPhase",
    "JobProfile",
    "MEMORY_QUANTUM_MB",
    "OffloadPhase",
    "Phase",
    "SyntheticSpec",
    "TABLE1_APPS",
    "alternating_profile",
    "build_profile",
    "draw_levels",
    "dump_jobs",
    "dumps_jobs",
    "generate_synthetic_jobs",
    "generate_table1_job",
    "generate_table1_jobs",
    "job_from_dict",
    "job_to_dict",
    "level_to_resources",
    "load_jobs",
    "loads_jobs",
    "profile_from_ad",
    "profiles_from_submit",
    "quantize_memory",
    "resource_histogram",
]
