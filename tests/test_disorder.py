"""Charge laws: MGF closed forms, tilts, entropies, limits, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinlab.disorder import (
    continuous_disorder,
    discrete_disorder,
    disorder_from_json,
    disorder_to_json,
    gaussian_disorder,
    log_mgf,
    mgf,
    rademacher_disorder,
    relative_entropy_limit,
    relative_entropy_tilt,
    sample,
    tilt,
    tilted_mean,
    xi,
    xi_limit,
)
from pinlab.errors import InvalidParameterError
from pinlab.rng import derive_stream

from oracles import mgf_quadrature, relative_entropy_direct


def uniform_continuous_law():
    grid = np.linspace(-2.0, 2.0, 41)
    return continuous_disorder(grid, np.ones_like(grid))


ALL_LAWS = pytest.mark.parametrize(
    "law",
    [
        gaussian_disorder(),
        rademacher_disorder(),
        discrete_disorder([-2.0, 0.5, 3.0], [0.3, 0.5, 0.2]),
        uniform_continuous_law(),
    ],
    ids=["gaussian", "rademacher", "discrete", "continuous"],
)


class TestConstruction:
    def test_discrete_standardized(self):
        law = discrete_disorder([0.0, 1.0, 5.0], [0.2, 0.5, 0.3])
        mean = float(np.dot(law.ps, law.xs))
        var = float(np.dot(law.ps, law.xs**2))
        assert abs(mean) <= 1e-10
        assert abs(var - 1.0) <= 1e-10

    def test_continuous_standardized(self):
        law = uniform_continuous_law()
        mean = float(np.trapezoid(law.xs * law.ps, law.xs))
        var = float(np.trapezoid(law.xs**2 * law.ps, law.xs))
        assert abs(mean) <= 1e-10
        assert abs(var - 1.0) <= 1e-10
        assert law.atom_at_w == 0.0
        assert math.isfinite(law.w)

    def test_degenerate_rejected(self):
        with pytest.raises(InvalidParameterError):
            discrete_disorder([1.0, 1.0], [0.5, 0.5])
        with pytest.raises(InvalidParameterError):
            discrete_disorder([1.0], [1.0])

    def test_json_roundtrip(self):
        for law in (
            gaussian_disorder(),
            rademacher_disorder(),
            discrete_disorder([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25]),
            uniform_continuous_law(),
        ):
            clone = disorder_from_json(disorder_to_json(law))
            assert clone.family == law.family
            for lam in (-0.7, 0.0, 1.3):
                assert log_mgf(clone, lam) == pytest.approx(log_mgf(law, lam), abs=1e-12)


class TestMgf:
    def test_value_at_zero(self):
        assert mgf(gaussian_disorder(), 0.0) == 1.0

    def test_rademacher_cosh(self):
        assert mgf(rademacher_disorder(), 1.0) == pytest.approx(
            0.5 * (math.e + 1.0 / math.e), abs=1e-14
        )
        assert mgf(rademacher_disorder(), 1.0) == pytest.approx(1.5430806, abs=1e-7)

    def test_gaussian_against_quadrature(self):
        law = gaussian_disorder()
        assert mgf(law, 2.0) == pytest.approx(math.e**2, rel=1e-12)
        assert mgf(law, 2.0) == pytest.approx(mgf_quadrature(law, 2.0), rel=1e-10)

    def test_continuous_against_quadrature(self):
        law = uniform_continuous_law()
        for lam in (-1.5, 0.3, 2.0):
            assert mgf(law, lam) == pytest.approx(mgf_quadrature(law, lam), rel=1e-9)

    @ALL_LAWS
    @settings(max_examples=20)
    @given(
        lam1=st.floats(min_value=-3.0, max_value=3.0),
        lam2=st.floats(min_value=-3.0, max_value=3.0),
        t=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_log_mgf_convex(self, law, lam1, lam2, t):
        mix = t * lam1 + (1.0 - t) * lam2
        lhs = log_mgf(law, mix)
        rhs = t * log_mgf(law, lam1) + (1.0 - t) * log_mgf(law, lam2)
        assert lhs <= rhs + 1e-12


class TestTilt:
    @ALL_LAWS
    def test_identity_tilt(self, law):
        tilted = tilt(law, 0.0)
        assert tilted.normalizer == pytest.approx(1.0, abs=1e-12)
        assert tilted.mean == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_mean_shift(self):
        assert tilt(gaussian_disorder(), 1.0).mean == 1.0

    def test_rademacher_tanh(self):
        assert tilt(rademacher_disorder(), 1.0).mean == pytest.approx(
            math.tanh(1.0), abs=1e-14
        )

    @ALL_LAWS
    def test_tilted_mean_is_log_mgf_slope(self, law):
        beta, eps = 0.8, 1e-6
        slope = (log_mgf(law, beta + eps) - log_mgf(law, beta - eps)) / (2 * eps)
        assert tilted_mean(law, beta) == pytest.approx(slope, abs=1e-7)


class TestRelativeEntropy:
    @ALL_LAWS
    def test_zero_iff_zero_tilt(self, law):
        assert relative_entropy_tilt(law, 0.0) == 0.0
        assert relative_entropy_tilt(law, 0.7) > 0.0

    def test_gaussian_closed_form(self):
        for beta in (0.3, 1.0, 2.5):
            assert relative_entropy_tilt(gaussian_disorder(), beta) == pytest.approx(
                beta**2 / 2.0, abs=1e-12
            )

    def test_rademacher_value(self):
        got = relative_entropy_tilt(rademacher_disorder(), 1.0)
        want = math.tanh(1.0) - math.log(math.cosh(1.0))
        assert got == pytest.approx(want, abs=1e-14)
        assert got == pytest.approx(0.3278133, abs=1e-7)

    @ALL_LAWS
    def test_matches_density_ratio_integral(self, law):
        for beta in (0.4, 1.1):
            assert relative_entropy_tilt(law, beta) == pytest.approx(
                relative_entropy_direct(law, beta), abs=1e-8
            )

    def test_limits(self):
        assert abs(relative_entropy_tilt(rademacher_disorder(), 30.0) - math.log(2.0)) <= 1e-6
        assert relative_entropy_tilt(gaussian_disorder(), 100.0) > 1e3
        assert relative_entropy_limit(rademacher_disorder()) == pytest.approx(math.log(2.0))
        assert math.isinf(relative_entropy_limit(gaussian_disorder()))


class TestXi:
    @ALL_LAWS
    def test_unit_at_zero_and_monotone(self, law):
        assert xi(law, 0.0) == 1.0
        grid = np.linspace(0.0, 3.0, 31)
        vals = [xi(law, b) for b in grid]
        assert all(v >= 1.0 - 1e-12 for v in vals)
        assert all(b - a >= -1e-10 for a, b in zip(vals, vals[1:]))

    def test_gaussian_closed_form(self):
        for beta in (0.5, 1.0, 2.0):
            assert xi(gaussian_disorder(), beta) == pytest.approx(
                math.exp(beta**2), rel=1e-12
            )

    def test_rademacher_limit_is_inverse_atom(self):
        law = rademacher_disorder()
        assert xi_limit(law) == pytest.approx(1.0 / law.atom_at_w)
        assert abs(xi(law, 50.0) - 2.0) <= 1e-6
        assert math.isinf(xi_limit(gaussian_disorder()))


class TestSampling:
    @ALL_LAWS
    def test_deterministic_given_stream(self, law):
        a = sample(law, derive_stream(42, 0), 100)
        b = sample(law, derive_stream(42, 0), 100)
        np.testing.assert_array_equal(a, b)

    def test_rademacher_mean_clt(self):
        draws = sample(rademacher_disorder(), derive_stream(7, 0), 10**6)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(draws.mean()) <= 4.0 / math.sqrt(10**6)

    def test_gaussian_tilt_mean_clt(self):
        tilted = tilt(gaussian_disorder(), 1.0)
        draws = sample(tilted, derive_stream(8, 0), 10**6)
        assert abs(draws.mean() - 1.0) <= 4.0 / math.sqrt(10**6)

    def test_discrete_tilt_mean(self):
        law = discrete_disorder([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])
        beta = 0.9
        draws = sample(tilt(law, beta), derive_stream(9, 0), 10**6)
        assert abs(draws.mean() - tilted_mean(law, beta)) <= 6.0 / math.sqrt(10**6)

    def test_continuous_tilt_mean(self):
        law = uniform_continuous_law()
        beta = 0.8
        draws = sample(tilt(law, beta), derive_stream(10, 0), 10**6)
        assert abs(draws.mean() - tilted_mean(law, beta)) <= 0.01
