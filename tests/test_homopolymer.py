"""Fixed-point free energies: closed forms, exponents, joint variants,
and the finite-truncation bound."""

import math

import numpy as np
import pytest

from pinlab.disorder import gaussian_disorder, log_mgf, rademacher_disorder
from pinlab.errors import DomainError, PrecisionError, UndecidedError
from pinlab.homopolymer import (
    _solve_fixed_point,
    annealed_critical_curve,
    annealed_free_energy,
    homopolymer_free_energy,
    joint_free_energy,
    lambda0,
    lambda0_from_chi,
    joint_truncation_bound,
    joint_truncation_bound_limit,
)
from pinlab.kernels import ChiResult, chi, make_geometric_kernel, make_power_kernel

from oracles import loglog_slope


@pytest.fixture(scope="module")
def chi_03():
    return chi(make_power_kernel(0.3))


def geometric_closed_form(lam: float, p: float = 0.5) -> float:
    # exp(f) = p exp(lam) + (1 - p)
    return math.log(p * math.exp(lam) + (1.0 - p))


class TestHomopolymer:
    def test_unpinned_at_zero(self):
        res = homopolymer_free_energy(make_power_kernel(0.5), 0.0)
        assert res.f == 0.0
        assert res.status == "unpinned"

    def test_unpinned_below_zero(self):
        res = homopolymer_free_energy(make_geometric_kernel(0.5), -0.4)
        assert res.f == 0.0

    def test_geometric_closed_form_point(self):
        res = homopolymer_free_energy(make_geometric_kernel(0.5), math.log(3.0))
        assert res.f == pytest.approx(math.log(2.0), abs=1e-12)
        assert res.residual <= 1e-10

    def test_geometric_closed_form_sweep(self):
        kernel = make_geometric_kernel(0.5)
        for lam in np.linspace(0.04, 2.0, 50):
            res = homopolymer_free_energy(kernel, float(lam))
            assert abs(res.f - geometric_closed_form(lam)) <= 1e-10

    @pytest.mark.parametrize("alpha,slope_tol", [(0.3, 0.15), (0.5, 0.1), (0.8, 0.15)])
    def test_transition_order_exponent(self, alpha, slope_tol):
        kernel = make_power_kernel(alpha)
        lams = np.geomspace(1e-3, 1e-2, 9)
        fs = [homopolymer_free_energy(kernel, float(l)).f for l in lams]
        slope = loglog_slope(lams, fs)
        assert abs(slope - 1.0 / alpha) <= slope_tol / alpha

    def test_order_one_transition_above_alpha_one(self):
        kernel = make_power_kernel(1.5)
        lams = np.geomspace(1e-4, 1e-3, 7)
        fs = [homopolymer_free_energy(kernel, float(l)).f for l in lams]
        slope = loglog_slope(lams, fs)
        assert abs(slope - 1.0) <= 0.05

    def test_monotone_and_convex_in_lambda(self):
        kernel = make_power_kernel(0.5)
        lams = np.linspace(0.05, 2.0, 40)
        fs = np.array([homopolymer_free_energy(kernel, float(l)).f for l in lams])
        assert np.all(np.diff(fs) >= 0.0)
        second = np.diff(fs, 2)
        assert np.all(second >= -1e-10)

    def test_residuals_below_tolerance(self):
        kernel = make_power_kernel(0.3)
        for lam in (1e-6, 1e-3, 0.1, 1.0, 5.0):
            res = homopolymer_free_energy(kernel, lam, tol=1e-12)
            assert res.residual <= 1e-12


class TestAnnealed:
    def test_zero_at_critical_bias(self):
        kernel = make_power_kernel(0.5)
        disorder = gaussian_disorder()
        for beta in (0.5, 1.0, 2.0):
            res = annealed_free_energy(kernel, disorder, beta, log_mgf(disorder, beta))
            assert res.f == 0.0

    def test_beta_zero_reduces_to_homopolymer(self):
        kernel = make_power_kernel(0.5)
        lam = 0.37
        a = annealed_free_energy(kernel, gaussian_disorder(), 0.0, -lam)
        b = homopolymer_free_energy(kernel, lam)
        assert a.f == b.f

    def test_gaussian_beta_one_at_zero_bias(self):
        kernel = make_power_kernel(0.5)
        a = annealed_free_energy(kernel, gaussian_disorder(), 1.0, 0.0)
        b = homopolymer_free_energy(kernel, 0.5)
        assert a.f == pytest.approx(b.f, abs=1e-14)

    def test_critical_curve_values(self):
        kernel = make_power_kernel(0.5)
        pts = annealed_critical_curve(kernel, gaussian_disorder(), [0.0, 1.0])
        assert pts[0].h_c == 0.0
        assert pts[1].h_c == pytest.approx(0.5, abs=1e-14)
        rad = annealed_critical_curve(kernel, rademacher_disorder(), [1.0])
        assert rad[0].h_c == pytest.approx(math.log(math.cosh(1.0)), abs=1e-14)
        assert rad[0].h_c == pytest.approx(0.433781, abs=1e-6)

    def test_bisection_agrees(self):
        pts = annealed_critical_curve(
            make_power_kernel(0.3), rademacher_disorder(), [0.25, 0.5, 1.0, 2.0]
        )
        for p in pts:
            assert abs(p.bisection_zero - p.h_c) <= 1e-8


class TestLambda0:
    def test_infinite_chi_gives_zero(self):
        assert lambda0(make_geometric_kernel(0.5)) == 0.0

    def test_unit_chi_gives_log_two(self):
        stub = ChiResult("finite", 1.0, 1.0, 0.0, 1.4, 1 << 16)
        assert lambda0_from_chi(stub) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_pipeline_alpha_03(self, chi_03):
        val = lambda0_from_chi(chi_03)
        assert val == pytest.approx(math.log1p(1.0 / chi_03.value), abs=1e-15)

    def test_undecided_propagates(self):
        with pytest.raises(UndecidedError):
            lambda0(make_power_kernel(0.5))


class TestJointFreeEnergy:
    def test_unpinned_below_threshold(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam0 = lambda0_from_chi(chi_03)
        res = joint_free_energy(kernel, lam0 / 2.0, chi_result=chi_03)
        assert res.f2 == 0.0
        assert res.status == "unpinned"

    def test_truncated_pins_at_any_positive_strength(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam0 = lambda0_from_chi(chi_03)
        res = joint_free_energy(kernel, lam0 / 2.0, tr=50, chi_result=chi_03)
        assert res.f2 > 0.0
        assert res.status == "pinned"

    def test_truncated_converges_to_untruncated(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam = 1.5 * lambda0_from_chi(chi_03)
        full = joint_free_energy(kernel, lam, chi_result=chi_03)
        trunc = joint_free_energy(kernel, lam, tr=1000, chi_result=chi_03)
        assert trunc.f2 == pytest.approx(full.f2, rel=0.01)

    def test_unit_truncation_closed_form(self, chi_03):
        # tr = 1 collapses both chains to deterministic unit gaps: every
        # time is a simultaneous renewal and f2_1(lam) = lam
        kernel = make_power_kernel(0.3)
        res = joint_free_energy(kernel, 0.37, tr=1, chi_result=chi_03)
        assert res.f2 == pytest.approx(0.37, abs=1e-12)

    def test_unit_truncation_small_strength(self):
        # the overlap masses of the unit truncation sum to 1 + 5e-12 in
        # floats, so at lam = 1e-6 the bracket end f = lam must widen
        res = joint_free_energy(make_power_kernel(0.3), 1e-6, tr=1)
        assert res.f2 == pytest.approx(1e-6, rel=1e-5)

    def test_series_that_never_falls_is_precision_error(self):
        with pytest.raises(PrecisionError):
            _solve_fixed_point(lambda f: 1.5, 0.1, 1e-10)

    def test_insufficient_horizon_raises(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam0 = lambda0_from_chi(chi_03)
        with pytest.raises(PrecisionError) as info:
            joint_free_energy(
                kernel, 1.02 * lam0, chi_result=chi_03,
                start_horizon=32, max_horizon=64,
            )
        assert info.value.required_horizon is not None

    def test_truncation_monotone_on_subcritical_grid(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam0 = lambda0_from_chi(chi_03)
        for lam in (0.3 * lam0, 0.6 * lam0, 0.9 * lam0):
            values = [
                joint_free_energy(kernel, lam, tr=tr, chi_result=chi_03).f2
                for tr in (8, 16, 32, 64)
            ]
            assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))


class TestTruncationBound:
    def test_bound_positive(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam0 = lambda0_from_chi(chi_03)
        assert joint_truncation_bound(kernel, 10, lam0 / 2.0, chi_result=chi_03) > 0.0

    def test_domain_error_at_threshold(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam0 = lambda0_from_chi(chi_03)
        with pytest.raises(DomainError):
            joint_truncation_bound(kernel, 10, lam0, chi_result=chi_03)

    def test_bound_tends_to_limit(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam0 = lambda0_from_chi(chi_03)
        lam = lam0 / 2.0
        limit = joint_truncation_bound_limit(lam, lam0)
        bounds = [
            joint_truncation_bound(kernel, tr, lam, chi_result=chi_03) for tr in (10, 100, 1000)
        ]
        assert all(b <= a for a, b in zip([limit], bounds[-1:]))  # below the limit
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
        assert bounds[-1] == pytest.approx(limit, rel=0.05)

    def test_solver_respects_bound(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam0 = lambda0_from_chi(chi_03)
        lam = lam0 / 2.0
        for tr in (10, 100, 1000):
            f2tr = joint_free_energy(kernel, lam, tr=tr, chi_result=chi_03).f2
            assert tr * f2tr <= joint_truncation_bound(kernel, tr, lam, chi_result=chi_03)
