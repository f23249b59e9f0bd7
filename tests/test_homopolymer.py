"""Fixed-point free energies: closed forms, exponents, joint variants,
and the finite-truncation bound."""

import math
import re
from unittest import mock

import numpy as np
import pytest

import pinlab.homopolymer
from pinlab.disorder import continuous_disorder, gaussian_disorder, log_mgf, rademacher_disorder
from pinlab.errors import DomainError, InvalidParameterError, PrecisionError, UndecidedError
from pinlab.homopolymer import (
    _solve_fixed_point,
    annealed_critical_curve,
    annealed_free_energy,
    homopolymer_free_energy,
    joint_free_energy,
    lambda0_from_chi,
    joint_truncation_bound,
)
from pinlab.kernels import (
    ChiResult,
    chi,
    make_geometric_kernel,
    make_power_kernel,
    make_table_kernel,
    truncate_kernel,
)

from oracles import joint_truncation_bound_limit, loglog_slope


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
        assert res.residual == 0.0

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
        # brentq's fixed xtol sets f, so the residual is far inside the
        # solver's 1e-10 * exp(-lam) abort level
        kernel = make_power_kernel(0.3)
        for lam in (1e-6, 1e-3, 0.1, 1.0, 5.0):
            res = homopolymer_free_energy(kernel, lam)
            assert res.residual <= 1e-12 * math.exp(-lam)

    def test_geometric_closed_form_at_large_lambda(self):
        lam = 700.0
        res = homopolymer_free_energy(make_geometric_kernel(0.5), lam)
        assert res.f == pytest.approx(lam + math.log(0.5 + 0.5 * math.exp(-lam)), rel=1e-14)

    def test_wrong_root_at_large_lambda_is_precision_error(self):
        # exp(-700) ~ 1e-304, so an absolute residual test passes any f
        solve = pinlab.homopolymer.brentq
        with mock.patch.object(
            pinlab.homopolymer, "brentq", side_effect=lambda *a, **kw: solve(*a, **kw) + 0.1
        ):
            with pytest.raises(PrecisionError, match="residual"):
                homopolymer_free_energy(make_geometric_kernel(0.5), 700.0)

    def test_underflowing_root_is_precision_error(self):
        # the bracket passes 1e-290 while the model is pinned: f = 0 is off by 0.39
        with pytest.raises(PrecisionError, match="residual 3.935e-01 at f = 0.0"):
            homopolymer_free_energy(make_power_kernel(1e-3), 0.5)

    @pytest.mark.parametrize("shortfall, raises", [(0.5, True), (1e-12, False)])
    def test_underflow_exit_applies_the_residual_rule(self, shortfall, raises):
        # a series below exp(-lam) down to f = 1e-290 takes the underflow exit
        lam = 0.1
        target = math.exp(-lam)
        series = lambda f: target * (1.0 - shortfall)  # noqa: E731
        if raises:
            with pytest.raises(PrecisionError, match="at f = 0.0"):
                _solve_fixed_point(series, lam, 1e-10)
        else:
            f, residual = _solve_fixed_point(series, lam, 1e-10)
            assert f == 0.0 and residual <= 1e-10 * target

    @pytest.mark.parametrize(
        "kernel",
        [make_geometric_kernel(1.0), make_table_kernel([1.0]), truncate_kernel(make_power_kernel(0.3), 1)],
        ids=["geometric", "table", "truncated"],
    )
    def test_point_mass_root_at_the_bracket_end(self, kernel):
        # K(1) = 1 has the root f = lam at the bracket end f_hi = lam, and
        # brentq evaluates that end at exp(log lam), which rounding can put
        # on either side of the root (lam = 0.20737998817439787, for one)
        for lam in np.geomspace(1e-8, 700.0, 2000):
            res = homopolymer_free_energy(kernel, float(lam))
            assert res.residual <= 1e-10 * math.exp(-lam)
            assert res.f == pytest.approx(lam, rel=1e-12)

    @pytest.mark.parametrize("lam", [745.0, 800.0])
    @pytest.mark.parametrize(
        "kernel",
        [make_power_kernel(0.3), make_geometric_kernel(0.5), make_table_kernel([0.5, 0.5])],
        ids=["power", "geometric", "table"],
    )
    def test_underflowing_target_is_precision_error(self, kernel, lam):
        # exp(-lam) is subnormal or 0 here; no f may come back
        with pytest.raises(PrecisionError, match=f"lam = {lam!r}"):
            homopolymer_free_energy(kernel, lam)


def _bisect_annealed(kernel, disorder, beta):
    """The curve's bisection written over the public annealed free energy."""
    h_c = log_mgf(disorder, beta)
    lo, hi = h_c - 0.75, h_c + 0.75
    while hi - lo > 0.25e-8:
        mid = 0.5 * (lo + hi)
        if annealed_free_energy(kernel, disorder, beta, mid).f > 0.0:
            lo = mid
        else:
            hi = mid
    return h_c, 0.5 * (lo + hi)


_LAWS = {
    "continuous": lambda: continuous_disorder(
        [-1.0, -0.5, 0.0, 0.5, 1.0], [0.2, 1.0, 1.5, 1.0, 0.2]
    ),
    "gaussian": gaussian_disorder,
    "rademacher": rademacher_disorder,
}


class TestAnnealed:
    def test_curve_computes_log_mgf_once_per_beta(self, monkeypatch):
        calls = []

        def spy(law, beta):
            calls.append(beta)
            return log_mgf(law, beta)

        monkeypatch.setattr(pinlab.homopolymer, "log_mgf", spy)
        betas = [0.25, 0.5, 1.0]
        annealed_critical_curve(_LAWS["continuous"](), betas)
        assert calls == betas

    def test_curve_solves_no_fixed_point(self, monkeypatch):
        # every probe is decided by lam > 0, the pinning criterion of every
        # recurrent kernel, so the curve never calls the solver
        calls = []

        def spy(kernel, lam):
            calls.append(lam)
            return homopolymer_free_energy(kernel, lam)

        monkeypatch.setattr(pinlab.homopolymer, "homopolymer_free_energy", spy)
        annealed_critical_curve(_LAWS["continuous"](), [0.25, 0.5, 1.0])
        assert calls == []

    @pytest.mark.parametrize("law", sorted(_LAWS))
    def test_curve_equals_bisection_of_annealed_free_energy(self, law):
        kernel, disorder = make_power_kernel(0.3), _LAWS[law]()
        betas = [0.3, 1.2]
        points = annealed_critical_curve(disorder, betas)
        for beta, point in zip(betas, points):
            h_c, zero = _bisect_annealed(kernel, disorder, beta)
            assert point.h_c == h_c
            assert point.bisection_zero == zero

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
        pts = annealed_critical_curve(gaussian_disorder(), [0.0, 1.0])
        assert pts[0].h_c == 0.0
        assert pts[1].h_c == pytest.approx(0.5, abs=1e-14)
        rad = annealed_critical_curve(rademacher_disorder(), [1.0])
        assert rad[0].h_c == pytest.approx(math.log(math.cosh(1.0)), abs=1e-14)
        assert rad[0].h_c == pytest.approx(0.433781, abs=1e-6)

    def test_bisection_agrees(self):
        pts = annealed_critical_curve(rademacher_disorder(), [0.25, 0.5, 1.0, 2.0])
        for p in pts:
            assert abs(p.bisection_zero - p.h_c) <= 1e-8

    def test_gaussian_curve_up_to_the_float_spacing_limit(self):
        # log M(beta) = beta^2 / 2 from 1e-6 up to just below 2^24, the last
        # binade whose float spacing fits the bisection's 2.5e-9 stop width
        hs = list(np.geomspace(1e-6, 1e7, 27))
        hs += [2.0**24 - d for d in np.geomspace(3e3, 2e-9, 40)]
        pts = annealed_critical_curve(gaussian_disorder(), [math.sqrt(2.0 * h) for h in hs])
        assert pts[0].h_c == pytest.approx(1e-6, rel=1e-12)
        assert max(p.h_c for p in pts) < 2.0**24
        for p in pts:
            assert abs(p.bisection_zero - p.h_c) <= 1e-8, p

    def test_gaussian_point_at_beta_3000(self):
        (p,) = annealed_critical_curve(gaussian_disorder(), [3000.0])
        assert p.h_c == 4500000.0
        assert p.bisection_zero == 4499999.999999999

    @pytest.mark.parametrize(
        "law, beta",
        [("gaussian", 5792.6188), ("gaussian", 5793.0), ("gaussian", 1e4),
         ("gaussian", 1e200), ("rademacher", 2.0**25)],
    )
    def test_spacing_above_bisection_width_is_precision_error(self, law, beta):
        # at 2^24 and above the float spacing of log M(beta) exceeds the stop
        # width and the bisection could never end; at 1e200 log M(beta) is inf
        with pytest.raises(PrecisionError, match=re.escape(f"beta = {beta!r}")):
            annealed_critical_curve(_LAWS[law](), [1.0, beta])


class TestLambda0:
    def test_infinite_chi_gives_zero(self):
        assert lambda0_from_chi(chi(make_geometric_kernel(0.5))) == 0.0

    def test_unit_chi_gives_log_two(self):
        stub = ChiResult("finite", 1.0, 1.0, 0.0, 1.4, 1 << 16)
        assert lambda0_from_chi(stub) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_pipeline_alpha_03(self, chi_03):
        val = lambda0_from_chi(chi_03)
        assert val == pytest.approx(math.log1p(1.0 / chi_03.value), abs=1e-15)

    def test_undecided_propagates(self):
        with pytest.raises(UndecidedError):
            lambda0_from_chi(chi(make_power_kernel(0.5)))


class TestJointFreeEnergy:
    def test_unpinned_below_threshold(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam0 = lambda0_from_chi(chi_03)
        assert joint_free_energy(kernel, lam0 / 2.0, chi_result=chi_03) == 0.0

    def test_untruncated_needs_chi_result(self):
        with pytest.raises(InvalidParameterError, match="chi_result"):
            joint_free_energy(make_power_kernel(0.3), 1.0)

    def test_truncated_pins_at_any_positive_strength(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam0 = lambda0_from_chi(chi_03)
        assert joint_free_energy(kernel, lam0 / 2.0, tr=50) > 0.0

    def test_truncated_converges_to_untruncated(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam = 1.5 * lambda0_from_chi(chi_03)
        full = joint_free_energy(kernel, lam, chi_result=chi_03)
        trunc = joint_free_energy(kernel, lam, tr=1000)
        assert trunc == pytest.approx(full, rel=0.01)

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_truncated_unpinned_at_nonpositive_strength(self, lam):
        assert joint_free_energy(make_power_kernel(0.3), lam, tr=8) == 0.0

    def test_unit_truncation_closed_form(self):
        # tr = 1 collapses both chains to deterministic unit gaps: every
        # time is a simultaneous renewal and f2_1(lam) = lam
        kernel = make_power_kernel(0.3)
        assert joint_free_energy(kernel, 0.37, tr=1) == pytest.approx(0.37, abs=1e-12)

    def test_unit_truncation_small_strength(self):
        # the overlap masses of the unit truncation sum to 1 + 5e-12 in
        # floats, so at lam = 1e-6 the bracket end f = lam must widen
        f2 = joint_free_energy(make_power_kernel(0.3), 1e-6, tr=1)
        assert f2 == pytest.approx(1e-6, rel=1e-5)

    def test_series_that_never_falls_is_precision_error(self):
        with pytest.raises(PrecisionError):
            _solve_fixed_point(lambda f: 1.5, 0.1, 1e-10)

    def test_insufficient_horizon_raises(self, chi_03, monkeypatch):
        monkeypatch.setattr(pinlab.homopolymer, "_JOINT_START_HORIZON", 32)
        monkeypatch.setattr(pinlab.homopolymer, "_JOINT_MAX_HORIZON", 64)
        kernel = make_power_kernel(0.3)
        lam0 = lambda0_from_chi(chi_03)
        with pytest.raises(PrecisionError) as info:
            joint_free_energy(kernel, 1.02 * lam0, chi_result=chi_03)
        assert info.value.required_horizon is not None

    def test_truncation_monotone_on_subcritical_grid(self, chi_03):
        kernel = make_power_kernel(0.3)
        lam0 = lambda0_from_chi(chi_03)
        for lam in (0.3 * lam0, 0.6 * lam0, 0.9 * lam0):
            values = [
                joint_free_energy(kernel, lam, tr=tr)
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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lam_rejected(self, chi_03, lam):
        with pytest.raises(InvalidParameterError, match="lam must be finite"):
            joint_truncation_bound(make_power_kernel(0.3), 10, lam, chi_result=chi_03)

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
            f2tr = joint_free_energy(kernel, lam, tr=tr)
            assert tr * f2tr <= joint_truncation_bound(kernel, tr, lam, chi_result=chi_03)
