"""Experiment modules: one per table/figure of the paper, plus ablations.

Run from the command line::

    python -m repro.experiments <name>      # motivation, table2, fig7, ...
    python -m repro.experiments all
    python -m repro.experiments all --jobs 4   # process-pool fan-out

Each module declares its default ``PARAMS``, its ``JOBS`` sizes, its
ordered cell ``keys``, a ``cell`` builder, a ``result`` that reads cell
values by key, and ``render`` (see :mod:`repro.experiments.runner`).
The registry binds the runner's one generic run to each module as
``run(**overrides, runner=None)``.
"""

import functools

from . import (
    cache,
    runner,
)
from . import (
    ablation_cycle,
    ablation_knapsack,
    ablation_placement,
    ablation_value,
    common,
    ext_capacity,
    ext_crash,
    ext_faults,
    ext_multidevice,
    ext_netchaos,
    ext_oversubscription,
    ext_replication,
    ext_scale,
    fig7,
    fig8,
    fig9,
    fig10,
    motivation,
    table2,
    table3,
)

#: Registry used by the CLI and the benchmark harness.
EXPERIMENTS = {
    "motivation": motivation,
    "table2": table2,
    "table3": table3,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "ablation-value": ablation_value,
    "ablation-knapsack": ablation_knapsack,
    "ablation-cycle": ablation_cycle,
    "ablation-placement": ablation_placement,
    "ext-capacity": ext_capacity,
    "ext-crash": ext_crash,
    "ext-faults": ext_faults,
    "ext-multidevice": ext_multidevice,
    "ext-netchaos": ext_netchaos,
    "ext-oversubscription": ext_oversubscription,
    "ext-replication": ext_replication,
    "ext-scale": ext_scale,
}

for _module in EXPERIMENTS.values():
    _module.run = functools.partial(runner.run_experiment, _module)

__all__ = [
    "EXPERIMENTS",
    "cache",
    "runner",
    "ablation_cycle",
    "ablation_knapsack",
    "ablation_placement",
    "ablation_value",
    "common",
    "ext_capacity",
    "ext_crash",
    "ext_faults",
    "ext_multidevice",
    "ext_netchaos",
    "ext_oversubscription",
    "ext_replication",
    "ext_scale",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "motivation",
    "table2",
    "table3",
]
