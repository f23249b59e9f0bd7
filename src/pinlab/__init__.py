"""Phase diagrams and disorder-relevance diagnostics for random pinning."""

__version__ = "0.1.0"

from .disorder import (
    continuous_disorder,
    discrete_disorder,
    gaussian_disorder,
    rademacher_disorder,
)
from .errors import (
    DomainError,
    InternalConsistencyError,
    InvalidParameterError,
    PinlabError,
    PrecisionError,
    UndecidedError,
)
from .homopolymer import (
    annealed_critical_curve,
    annealed_free_energy,
    homopolymer_free_energy,
    joint_free_energy,
    joint_truncation_bound,
    lambda0_from_chi,
)
from .kernels import (
    chi,
    kernel_entropy,
    make_geometric_kernel,
    make_power_kernel,
    make_table_kernel,
    overlap_kernel,
    return_probabilities,
    truncate_kernel,
)
from .quenched import (
    partition_function_log,
    quenched_critical_point,
    quenched_free_energy,
    replica_charges,
)
from .relevance import critical_temperature_bounds, entropy_bounds, entropy_estimator
from .rng import RngStream, derive_stream

__all__ = [
    "__version__",
    # errors
    "PinlabError",
    "InvalidParameterError",
    "DomainError",
    "PrecisionError",
    "UndecidedError",
    "InternalConsistencyError",
    # kernels
    "make_power_kernel",
    "make_geometric_kernel",
    "make_table_kernel",
    "return_probabilities",
    "chi",
    "truncate_kernel",
    "kernel_entropy",
    "overlap_kernel",
    # disorder
    "gaussian_disorder",
    "rademacher_disorder",
    "discrete_disorder",
    "continuous_disorder",
    # homopolymer
    "homopolymer_free_energy",
    "annealed_free_energy",
    "annealed_critical_curve",
    "lambda0_from_chi",
    "joint_free_energy",
    "joint_truncation_bound",
    # quenched
    "partition_function_log",
    "replica_charges",
    "quenched_free_energy",
    "quenched_critical_point",
    # relevance
    "critical_temperature_bounds",
    "entropy_bounds",
    "entropy_estimator",
    # rng
    "RngStream",
    "derive_stream",
]
