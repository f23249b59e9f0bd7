"""The bracketed root finder against SciPy's ``brentq``, bit for bit, on the
calls the library makes and on steps whose interpolation divides by zero."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest

import pinlab.homopolymer
import pinlab.relevance
from pinlab.disorder import continuous_disorder, discrete_disorder, gaussian_disorder
from pinlab.errors import InvalidParameterError, PrecisionError
from pinlab.homopolymer import homopolymer_free_energy
from pinlab.kernels import (
    ChiResult,
    make_geometric_kernel,
    make_power_kernel,
    make_table_kernel,
    truncate_kernel,
)
from pinlab.relevance import critical_temperature_bounds, replica_moment_log
from pinlab.roots import brentq

scipy_brentq = pytest.importorskip("scipy.optimize").brentq


def _same_root_as_scipy(module):
    """Patch ``module.brentq`` so that every call also runs SciPy's and
    compares the two roots bit for bit; returns the list of roots seen."""
    roots = []

    def both(f, a, b, **kw):
        ours = brentq(f, a, b, **kw)
        theirs = scipy_brentq(f, a, b, **kw)
        assert ours == theirs, (a, b, kw)
        roots.append(ours)
        return ours

    return roots, mock.patch.object(module, "brentq", side_effect=both)


@pytest.mark.parametrize(
    "kernel",
    [make_power_kernel(0.3), make_power_kernel(1.5), make_geometric_kernel(0.2),
     make_table_kernel([0.25, 0.0, 0.5, 0.25])],
    ids=["power0.3", "power1.5", "geometric", "table"],
)
def test_homopolymer_fixed_point_root_is_scipys(kernel):
    roots, patch = _same_root_as_scipy(pinlab.homopolymer)
    with patch:
        for lam in (1e-12, 1e-6, 1e-3, 0.1, 1.0, 5.0, 50.0, 700.0):
            homopolymer_free_energy(kernel, lam)
    assert len(roots) == 8


@pytest.mark.parametrize(
    "disorder",
    [gaussian_disorder(), discrete_disorder([-1.0, 0.0, 3.0], [0.3, 0.6999, 1e-4]),
     continuous_disorder(np.linspace(-1.0, 2.0, 13), np.linspace(1.0, 0.2, 13))],
    ids=["gaussian", "discrete", "continuous"],
)
def test_increasing_root_is_scipys(disorder):
    # beta_c* and beta_c** each solve once; a chi of 0.25 keeps both finite
    kernel = make_power_kernel(0.3)
    chi_result = ChiResult(status="finite", value=0.25, partial_sum=0.25, tail_estimate=0.0,
                           fitted_decay=1.4, horizon=1)
    roots, patch = _same_root_as_scipy(pinlab.relevance)
    with patch:
        critical_temperature_bounds(kernel, disorder, chi_result)
    assert len(roots) == 2


def test_replica_moment_tilt_root_is_scipys():
    roots, patch = _same_root_as_scipy(pinlab.relevance)
    with patch:
        replica_moment_log(truncate_kernel(make_power_kernel(0.3), 16), math.log(1.5), 2048)
    assert len(roots) == 1


@pytest.mark.parametrize(
    "f",
    [lambda x: 1e-300 * (x**3 - 0.1), lambda x: 1e-300 * (math.exp(x) - 1.5)],
    ids=["cubic", "exp"],
)
def test_zero_denominator_bisects_silently(f):
    # the slopes are about 1e-300, so their product underflows to 0 and the
    # extrapolation divides by it at several steps
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert brentq(f, 0.0, 1.0) == scipy_brentq(f, 0.0, 1.0)


def test_endpoint_root_and_rejections():
    assert brentq(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    with pytest.raises(InvalidParameterError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(InvalidParameterError, match="xtol"):
        brentq(lambda x: x, -1.0, 1.0, xtol=0.0)
    with pytest.raises(InvalidParameterError, match="rtol"):
        brentq(lambda x: x, -1.0, 1.0, rtol=1e-17)
    with pytest.raises(PrecisionError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.4 else x - 0.5, 0.0, 1.0)
    with pytest.raises(PrecisionError, match="converge"):
        brentq(lambda x: math.exp(x) - 1.5, 0.0, 1.0, maxiter=2)
