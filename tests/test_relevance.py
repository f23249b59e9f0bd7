"""Relevance diagnostics: temperature bounds, replica identity, the
entropy estimator and its sandwich, monotonicity, variational identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinlab.disorder import (
    continuous_disorder,
    gaussian_disorder,
    log_mgf,
    log_xi,
    rademacher_disorder,
    xi,
)
from pinlab.errors import InvalidParameterError, PrecisionError, UndecidedError
from pinlab.homopolymer import joint_free_energy
from pinlab.kernels import (
    chi,
    kernel_entropy,
    make_geometric_kernel,
    make_power_kernel,
    truncate_kernel,
)
from pinlab.oracles import replica_moment_exact_check
from pinlab.quenched import dp_log_partition, log_mass_vector
from pinlab.relevance import (
    _beta_c_star_from_chi,
    annealed_variational_check,
    beta_c_star,
    beta_c_star_star,
    critical_temperature_bounds,
    entropy_estimator,
    entropy_monotonicity_scan,
    replica_moment,
    replica_moment_log,
)
from pinlab.rng import derive_stream

from oracles import free_endpoint_likelihood_brute, pair_moment_brute, replica_moment_log_dp

GAUSS = gaussian_disorder()
RAD = rademacher_disorder()
P03 = make_power_kernel(0.3)


@pytest.fixture(scope="module")
def chi_03():
    return chi(P03)


class TestBetaCStar:
    def test_gaussian_closed_form(self, chi_03):
        got = beta_c_star(P03, GAUSS, chi_result=chi_03)
        want = math.sqrt(math.log(1.0 + 1.0 / chi_03.value))
        assert got.value == pytest.approx(want, abs=1e-10)
        assert got.residual <= 1e-9
        assert not got.degenerate
        assert got.value > 0.0  # finite overlap sum forces a positive bound

    def test_rademacher_small_chi_infinite(self, chi_03):
        # threshold 1 + 1/chi > 2 = limit of Xi for fair signs
        assert chi_03.value < 1.0
        got = beta_c_star(P03, RAD, chi_result=chi_03)
        assert math.isinf(got.value)

    def test_rademacher_chi_two_has_root(self):
        got = _beta_c_star_from_chi(RAD, 2.0, 1e-12)
        assert math.isfinite(got.value)
        assert xi(RAD, got.value) == pytest.approx(1.5, abs=1e-10)
        # cosh(2b)/cosh(b)^2 = 1.5 at b = arcsinh(1)
        assert got.value == pytest.approx(math.asinh(1.0), abs=1e-10)

    def test_rademacher_chi_half_infinite(self):
        got = _beta_c_star_from_chi(RAD, 0.5, 1e-12)
        assert math.isinf(got.value)

    def test_degenerate_chi_infinite(self):
        got = _beta_c_star_from_chi(GAUSS, math.inf, 1e-12)
        assert got.value == 0.0
        assert got.degenerate

    def test_undecided_chi_propagates(self):
        with pytest.raises(UndecidedError):
            beta_c_star(make_power_kernel(0.5), GAUSS)


class TestBetaCStarStar:
    def test_gaussian_closed_form(self):
        h_k = kernel_entropy(P03)
        got = beta_c_star_star(P03, GAUSS)
        assert got.value == pytest.approx(math.sqrt(2.0 * h_k), abs=1e-10)
        assert got.residual <= 1e-9

    def test_rademacher_saturates(self):
        assert kernel_entropy(P03) > math.log(2.0)
        got = beta_c_star_star(P03, RAD)
        assert math.isinf(got.value)

    def test_atomless_bounded_law_is_finite(self):
        grid = np.linspace(-1.0, 1.0, 33)
        law = continuous_disorder(grid, np.ones_like(grid))
        assert law.atom_at_w == 0.0
        got = beta_c_star_star(P03, law)
        assert math.isfinite(got.value)

    def test_bundle(self, chi_03):
        bounds = critical_temperature_bounds(P03, GAUSS, chi_result=chi_03)
        assert bounds.beta_c_star < bounds.beta_c_star_star
        assert bounds.chi_value == chi_03.value
        assert bounds.kernel_entropy == kernel_entropy(P03)


class TestReplicaMoment:
    def test_beta_zero_is_one(self):
        ktr = truncate_kernel(P03, 4)
        for n in (1, 2, 5, 17, 60):
            assert abs(replica_moment_log(ktr, 0.0, n)) <= 1e-12
        assert replica_moment_log(truncate_kernel(P03, 32), 0.0, 8192) == 0.0

    def test_single_step_is_xi(self):
        ktr = truncate_kernel(P03, 4)
        assert replica_moment(ktr, RAD, 0.8, 1) == pytest.approx(
            xi(RAD, 0.8), abs=1e-13
        )

    def test_dp_matches_enumeration(self):
        # truncated and untruncated kernels alike: the series needs no support bound
        kernels = [
            truncate_kernel(P03, 3),
            make_power_kernel(0.3),
            make_power_kernel(1.5),
            make_geometric_kernel(0.4),
        ]
        for kernel in kernels:
            for n in range(1, 8):
                masses = kernel.mass_array(n)
                for beta in (0.4, 1.1):
                    want = pair_moment_brute(masses, xi(RAD, beta), n)
                    got = replica_moment(kernel, RAD, beta, n)
                    assert got == pytest.approx(want, rel=1e-13)

    @settings(max_examples=40)
    @given(
        tr=st.integers(1, 64),
        log_xi_value=st.floats(0.0, 3.0),
        n=st.integers(1, 2048),
    )
    def test_matches_lag_state_dp(self, tr, log_xi_value, n):
        ktr = truncate_kernel(P03, tr)
        want = replica_moment_log_dp(ktr, log_xi_value, n)
        got = replica_moment_log(ktr, log_xi_value, n)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_unit_truncation_closed_form(self):
        # one return per step at tr = 1, so the overlap is n
        unit = truncate_kernel(P03, 1)
        for log_xi_value in (1e-6, 0.5, 3.0):
            for n in (1, 10, 8192):
                assert replica_moment_log(unit, log_xi_value, n) == pytest.approx(
                    n * log_xi_value, rel=1e-14
                )

    def test_overflow_is_precision_error(self):
        ktr = truncate_kernel(P03, 32)
        log_moment = replica_moment_log(ktr, log_xi(GAUSS, 1.5), 8192)
        assert log_moment > 709.8
        with pytest.raises(PrecisionError) as info:
            replica_moment(ktr, GAUSS, 1.5, 8192)
        assert repr(log_moment) in str(info.value)

    def test_identity_exact(self):
        ktr = truncate_kernel(P03, 3)
        lhs, rhs, dp = replica_moment_exact_check(ktr, RAD, 0.8, 4)
        assert abs(lhs - rhs) <= 1e-12
        assert abs(lhs - dp) <= 1e-12

    def test_identity_exact_discrete_law(self):
        from pinlab.disorder import discrete_disorder

        law = discrete_disorder([-1.0, 0.0, 2.0], [0.3, 0.5, 0.2])
        ktr = truncate_kernel(make_power_kernel(0.7), 2)
        lhs, rhs, dp = replica_moment_exact_check(ktr, law, 0.6, 4)
        assert abs(lhs - rhs) <= 1e-12
        assert abs(lhs - dp) <= 1e-12

    def test_growth_rate_matches_joint_free_energy(self, chi_03):
        # (1/n) log E[Xi^overlap] tends to the truncated joint free energy
        tr, beta = 4, 1.2
        ktr = truncate_kernel(P03, tr)
        lam = math.log(xi(RAD, beta))
        f2tr = joint_free_energy(P03, lam, tr=tr, chi_result=chi_03).f2
        n = 4000
        log_n = replica_moment_log(ktr, lam, n)
        assert log_n / n == pytest.approx(f2tr, abs=2e-3)
        # the boundary terms cancel in the difference quotient
        quotient = (replica_moment_log(ktr, lam, 2 * n) - log_n) / n
        assert quotient == pytest.approx(f2tr, abs=1e-10)


class TestEntropyEstimatorCore:
    def _log_fn_via_package(self, ktr, tr, weights):
        # mirrors the estimator's closing step for one explicit weight row
        n = len(weights)
        masses = ktr.mass_array(tr)
        log_z = dp_log_partition(log_mass_vector(ktr, n), weights[None, :], band=tr)
        cum = np.cumsum(masses)
        m_lo = max(0, n - tr)
        qs = n - 1 - np.arange(m_lo, n)
        surv = np.where(qs == 0, 1.0, 1.0 - cum[np.maximum(qs, 1) - 1])
        closing = log_z[0, m_lo:n] + weights[m_lo:n] + np.log(surv)
        peak = closing.max()
        return float(peak + np.log(np.exp(closing - peak).sum()))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("tr", [1, 3, 4])
    def test_free_endpoint_likelihood_matches_enumeration(self, n, tr):
        ktr = truncate_kernel(P03, tr)
        masses = ktr.mass_array(tr)
        stream = derive_stream(2024, n * 10 + tr)
        weights = 0.8 * stream.normal(n) - 0.32
        got = self._log_fn_via_package(ktr, tr, weights)
        want = math.log(free_endpoint_likelihood_brute(masses, weights))
        assert got == pytest.approx(want, abs=1e-12)

    def test_unit_weights_integrate_to_one(self):
        ktr = truncate_kernel(P03, 5)
        weights = np.zeros(64)
        assert abs(self._log_fn_via_package(ktr, 5, weights)) <= 1e-12


class TestEntropyEstimator:
    def test_beta_zero_exact(self):
        rep = entropy_estimator(P03, GAUSS, 0.0, tr=4, n=128, replicas=4, base_seed=1)
        assert rep.estimate == 0.0
        assert rep.stderr == 0.0
        assert np.all(rep.per_replica == 0.0)

    def test_deterministic(self):
        a = entropy_estimator(P03, GAUSS, 1.0, tr=4, n=256, replicas=8, base_seed=5)
        b = entropy_estimator(P03, GAUSS, 1.0, tr=4, n=256, replicas=8, base_seed=5)
        assert a.estimate == b.estimate
        np.testing.assert_array_equal(a.per_replica, b.per_replica)

    def test_nonnegative_within_noise(self):
        rep = entropy_estimator(P03, RAD, 0.7, tr=6, n=1024, replicas=24, base_seed=7)
        assert rep.estimate >= -3.0 * rep.stderr

    def test_unit_truncation_estimates_tilt_entropy(self):
        # at tr = 1 every letter starts a word and is tilted, so the
        # likelihood ratio per letter is exp(beta x - log M) under the
        # tilted law: the estimator targets h(mu_beta | mu_0) exactly
        from pinlab.disorder import relative_entropy_tilt

        beta = 1.2
        rep = entropy_estimator(P03, GAUSS, beta, tr=1, n=4096, replicas=32, base_seed=17)
        want = relative_entropy_tilt(GAUSS, beta)
        assert want == pytest.approx(beta**2 / 2.0, abs=1e-12)
        assert abs(rep.estimate - want) <= 3.0 * rep.stderr
        assert rep.lower_bound == pytest.approx(want, abs=1e-12)
        assert rep.m_tr == 1.0

    def test_sandwich_small_budget(self):
        rep = entropy_estimator(P03, GAUSS, 1.5, tr=8, n=2048, replicas=24, base_seed=9)
        assert rep.lower_bound is not None and rep.upper_bound is not None
        slack = 3.0 * rep.stderr
        assert rep.lower_bound - slack <= rep.estimate <= rep.upper_bound + slack
        assert rep.sandwich_ok
        assert rep.m_tr == pytest.approx(truncate_kernel(P03, 8).mean(), abs=1e-12)

    def test_upper_bound_via_replica_moment(self):
        # the estimate stays below the pair-moment growth rate at matched n
        beta, tr, n = 1.2, 4, 2048
        rep = entropy_estimator(P03, RAD, beta, tr=tr, n=n, replicas=24, base_seed=3)
        lam = math.log(xi(RAD, beta))
        ktr = truncate_kernel(P03, tr)
        rate = replica_moment_log(ktr, lam, n) / n
        assert rep.estimate <= rate + 3.0 * rep.stderr

    def test_validates_arguments(self):
        with pytest.raises(InvalidParameterError):
            entropy_estimator(P03, GAUSS, 1.0, tr=0, n=64, replicas=2, base_seed=0)
        with pytest.raises(InvalidParameterError):
            entropy_estimator(P03, GAUSS, 1.0, tr=4, n=1, replicas=2, base_seed=0)


class TestMonotonicityScan:
    def test_rademacher_grid_nondecreasing(self):
        scan = entropy_monotonicity_scan(
            P03, RAD, [0.0, 0.5, 1.0], tr=6, n=768, replicas=24, base_seed=13
        )
        assert scan.monotone_ok
        assert scan.reports[0].estimate == 0.0
        estimates = [r.estimate for r in scan.reports]
        assert estimates == sorted(estimates)

    def test_duplicate_betas_identical(self):
        scan = entropy_monotonicity_scan(
            P03, GAUSS, [0.8, 0.8], tr=4, n=256, replicas=8, base_seed=4
        )
        assert scan.reports[0].estimate == scan.reports[1].estimate
        assert scan.monotone_ok

    def test_rejects_decreasing_grid(self):
        with pytest.raises(InvalidParameterError):
            entropy_monotonicity_scan(
                P03, GAUSS, [1.0, 0.5], tr=4, n=256, replicas=4, base_seed=1
            )


class TestVariational:
    @pytest.mark.parametrize("disorder", [GAUSS, RAD], ids=["gaussian", "rademacher"])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_maximum_at_matching_tilt(self, disorder, beta):
        grid = np.linspace(0.0, 3.0, 601)
        res = annealed_variational_check(disorder, beta, grid)
        assert abs(res.argmax_tilt - beta) <= grid[1] - grid[0] + 1e-12
        assert res.reference == pytest.approx(log_mgf(disorder, beta), abs=1e-15)
        assert 0.0 <= res.gap <= 5e-5

    def test_zero_beta(self):
        res = annealed_variational_check(GAUSS, 0.0, np.linspace(0, 1, 101))
        assert res.argmax_tilt == 0.0
        assert res.max_value == 0.0

    def test_gaussian_objective_closed_form(self):
        beta = 1.0
        grid = np.linspace(0.0, 2.0, 201)
        res = annealed_variational_check(GAUSS, beta, grid)
        # objective is t -> beta t - t^2/2, peak 1/2 at t = 1
        assert res.max_value == pytest.approx(0.5, abs=1e-10)
        assert res.argmax_tilt == pytest.approx(1.0, abs=1e-12)
