"""The paper's contribution: knapsack-based sharing-aware cluster scheduling."""

from .estimator import ResourceEstimate, ResourceEstimator
from .knapsack import (
    DEFAULT_QUANTUM_MB,
    Item,
    PackResult,
    brute_force,
    knapsack_1d,
    knapsack_cardinality,
    knapsack_thread_capped,
)
from .packer import DevicePacker, DevicePacking, PackableJob, ShapeGroups
from .scheduler import KnapsackClusterScheduler, PackingDecision, PARK_EXPRESSION
from .value import (
    ValueFunction,
    constant_value,
    count_first_value,
    get_value_function,
    linear_value,
    paper_value,
    paper_value_floored,
    value_function_names,
)

__all__ = [
    "DEFAULT_QUANTUM_MB",
    "DevicePacker",
    "DevicePacking",
    "Item",
    "KnapsackClusterScheduler",
    "PARK_EXPRESSION",
    "PackResult",
    "PackableJob",
    "PackingDecision",
    "ResourceEstimate",
    "ResourceEstimator",
    "ShapeGroups",
    "ValueFunction",
    "brute_force",
    "constant_value",
    "count_first_value",
    "get_value_function",
    "knapsack_1d",
    "knapsack_cardinality",
    "knapsack_thread_capped",
    "linear_value",
    "paper_value",
    "paper_value_floored",
    "value_function_names",
]
