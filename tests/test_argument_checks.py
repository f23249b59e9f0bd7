"""Each argument check of the library raises its typed error, with its
message, on the input it guards against."""

import math

import pytest

from pinlab.disorder import (
    continuous_disorder,
    disorder_from_json,
    gaussian_disorder,
    log_mgf,
    tilted_mean,
)
from pinlab.errors import InvalidParameterError, PrecisionError
from pinlab.homopolymer import annealed_critical_curve, joint_truncation_bound
from pinlab.kernels import (
    ChiResult,
    make_geometric_kernel,
    make_power_kernel,
    make_table_kernel,
    overlap_kernel,
    return_probabilities,
    truncate_kernel,
)
from pinlab.oracles import annealed_partition_check, replica_moment_exact_check
from pinlab.relevance import replica_moment_log
from pinlab.series import zeta_tail

GAUSS = gaussian_disorder()
P03 = make_power_kernel(0.3)
CHI_INFINITE = ChiResult("infinite", math.inf, 10.0, math.inf, 0.6, 1 << 16)
# densities that are 0 at the right end and at both ends, where the tilted
# mass underflows from |lam| near 1.5e161
RIGHT_ZERO = continuous_disorder([-1.0, 0.0, 1.0, 2.0], [1.0, 0.5, 0.2, 0.0])
TENT = continuous_disorder([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 1.0, 0.0])

CHECKS = {
    # kernels
    "geometric-p-zero": (lambda: make_geometric_kernel(0.0), InvalidParameterError,
                         r"geometric kernel needs p in \(0, 1\], got 0.0"),
    "table-empty": (lambda: make_table_kernel([]), InvalidParameterError,
                    "mass table must be a nonempty vector"),
    "table-matrix": (lambda: make_table_kernel([[0.5, 0.5]]), InvalidParameterError,
                     "mass table must be a nonempty vector"),
    "returns-negative-horizon": (lambda: return_probabilities(P03, -1), InvalidParameterError,
                                 "horizon must be >= 0"),
    "truncate-at-zero": (lambda: truncate_kernel(P03, 0), InvalidParameterError,
                         "truncation point must be >= 1"),
    "overlap-horizon-zero": (lambda: overlap_kernel(P03, 0), InvalidParameterError,
                             "horizon must be >= 1"),
    # disorder
    "density-two-nodes": (lambda: continuous_disorder([0.0, 1.0], [1.0, 1.0]),
                          InvalidParameterError, "need a density table with >= 3 nodes"),
    "density-zero": (lambda: continuous_disorder([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
                     InvalidParameterError, "density integrates to zero"),
    "disorder-family-unknown": (lambda: disorder_from_json({"family": "cauchy"}),
                                InvalidParameterError, "unknown disorder family 'cauchy'"),
    "log-mgf-mass-underflow": (lambda: log_mgf(RIGHT_ZERO, 1e200), PrecisionError,
                               r"tilted mass underflows at tilt 1e\+200"),
    "log-mgf-mass-underflow-down": (lambda: log_mgf(TENT, -1e200), PrecisionError,
                                    r"tilted mass underflows at tilt -1e\+200"),
    # homopolymer
    "curve-empty-grid": (lambda: annealed_critical_curve(GAUSS, []), InvalidParameterError,
                         "beta grid must be nonempty"),
    "bound-truncation-zero": (lambda: joint_truncation_bound(P03, 0, 0.1, CHI_INFINITE),
                              InvalidParameterError, "truncation point must be >= 1"),
    # oracles
    "annealed-oracle-n-15": (lambda: annealed_partition_check(P03, GAUSS, 0.5, 0.1, 15),
                             InvalidParameterError, "exhaustive check limited to n <= 14"),
    "replica-oracle-n-9": (lambda: replica_moment_exact_check(truncate_kernel(P03, 4), GAUSS,
                                                              0.5, 9),
                           InvalidParameterError, "exact check limited to n <= 8"),
    # relevance
    "replica-moment-n-zero": (lambda: replica_moment_log(truncate_kernel(P03, 4), 0.1, 0),
                              InvalidParameterError, "n must be >= 1"),
    # series
    "zeta-tail-s-one": (lambda: zeta_tail(1.0, 4), InvalidParameterError,
                        r"zeta_tail requires s > 1"),
}


@pytest.mark.parametrize("name", list(CHECKS))
def test_check_raises_its_error(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=message):
        call()


def test_underflow_check_leaves_the_other_end():
    # the density is positive at the left end, so the tilted mass at -1e200
    # is of order 1/|lam| and does not underflow
    left = float(RIGHT_ZERO.xs[0])
    assert log_mgf(RIGHT_ZERO, -1e200) == pytest.approx(-1e200 * left, rel=1e-15)
    assert tilted_mean(RIGHT_ZERO, -1e200) == pytest.approx(left, rel=1e-15)
