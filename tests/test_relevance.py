"""Relevance diagnostics: temperature bounds, replica identity, the
entropy estimator and its sandwich, monotonicity under common random
numbers, and the variational identity at the matching tilt."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinlab.disorder import (
    continuous_disorder,
    gaussian_disorder,
    log_mgf,
    log_xi,
    rademacher_disorder,
    relative_entropy_limit,
    relative_entropy_tilt,
    tilted_mean,
)
from pinlab.errors import InvalidParameterError, PrecisionError, UndecidedError
from pinlab.homopolymer import joint_free_energy
from pinlab.kernels import (
    ChiResult,
    chi,
    kernel_entropy,
    make_geometric_kernel,
    make_power_kernel,
    make_table_kernel,
    truncate_kernel,
)
from pinlab.oracles import free_endpoint_likelihood, pair_moment, replica_moment_exact_check
from pinlab import relevance
from pinlab.quenched import _log_partitions, _mean_stderr, dp_log_partition, log_mass_vector
from pinlab.relevance import (
    critical_temperature_bounds,
    entropy_bounds,
    entropy_estimator,
    _free_endpoint_log_likelihood,
    _length_law,
    _sample_word_sequence,
    replica_moment_log,
)
from pinlab.rng import derive_stream

from oracles import partition_log_recursion, replica_moment_log_dp

GAUSS = gaussian_disorder()
RAD = rademacher_disorder()
P03 = make_power_kernel(0.3)


@pytest.fixture(scope="module")
def chi_03():
    return chi(P03)


def chi_stub(value):
    """A ``chi`` verdict with the given value, for ``critical_temperature_bounds``."""
    status = "infinite" if math.isinf(value) else "finite"
    return ChiResult(status, value, value, 0.0, 1.4, 1 << 16)


class TestBetaCStar:
    def test_gaussian_closed_form(self, chi_03):
        got = critical_temperature_bounds(P03, GAUSS, chi_03)
        want = math.sqrt(math.log(1.0 + 1.0 / chi_03.value))
        assert got.beta_c_star == pytest.approx(want, abs=1e-10)
        assert got.star_residual <= 1e-9
        assert not got.star_degenerate
        assert got.beta_c_star > 0.0  # finite overlap sum forces a positive bound

    def test_rademacher_small_chi_infinite(self, chi_03):
        # threshold 1 + 1/chi > 2 = limit of Xi for fair signs
        assert chi_03.value < 1.0
        got = critical_temperature_bounds(P03, RAD, chi_03)
        assert math.isinf(got.beta_c_star)

    def test_rademacher_chi_two_has_root(self):
        got = critical_temperature_bounds(P03, RAD, chi_stub(2.0))
        assert math.isfinite(got.beta_c_star)
        assert math.exp(log_xi(RAD, got.beta_c_star)) == pytest.approx(1.5, abs=1e-10)
        # cosh(2b)/cosh(b)^2 = 1.5 at b = arcsinh(1)
        assert got.beta_c_star == pytest.approx(math.asinh(1.0), abs=1e-10)

    def test_rademacher_chi_half_infinite(self):
        got = critical_temperature_bounds(P03, RAD, chi_stub(0.5))
        assert math.isinf(got.beta_c_star)

    def test_degenerate_chi_infinite(self):
        got = critical_temperature_bounds(P03, GAUSS, chi_stub(math.inf))
        assert got.beta_c_star == 0.0
        assert got.star_degenerate

    def test_undecided_chi_propagates(self):
        kernel = make_power_kernel(0.5)
        with pytest.raises(UndecidedError):
            critical_temperature_bounds(kernel, GAUSS, chi(kernel))


class TestBetaCStarStar:
    def test_gaussian_closed_form(self, chi_03):
        h_k = kernel_entropy(P03)
        got = critical_temperature_bounds(P03, GAUSS, chi_03)
        assert got.beta_c_star_star == pytest.approx(math.sqrt(2.0 * h_k), abs=1e-10)
        assert got.star_star_residual <= 1e-9

    def test_rademacher_saturates(self, chi_03):
        assert kernel_entropy(P03) > math.log(2.0)
        got = critical_temperature_bounds(P03, RAD, chi_03)
        assert math.isinf(got.beta_c_star_star)

    def test_atomless_bounded_law_is_finite(self, chi_03):
        grid = np.linspace(-1.0, 1.0, 33)
        law = continuous_disorder(grid, np.ones_like(grid))
        assert relative_entropy_limit(law) == math.inf
        got = critical_temperature_bounds(P03, law, chi_03)
        assert math.isfinite(got.beta_c_star_star)

    def test_bundle(self, chi_03):
        bounds = critical_temperature_bounds(P03, GAUSS, chi_03)
        assert bounds.beta_c_star < bounds.beta_c_star_star
        assert bounds.chi == chi_03.value
        assert bounds.kernel_entropy == kernel_entropy(P03)


class TestReplicaMoment:
    def test_beta_zero_is_one(self):
        ktr = truncate_kernel(P03, 4)
        for n in (1, 2, 5, 17, 60):
            assert abs(replica_moment_log(ktr, 0.0, n)) <= 1e-12
        assert replica_moment_log(truncate_kernel(P03, 32), 0.0, 8192) == 0.0

    @pytest.mark.parametrize("log_xi_value", [math.nan, math.inf, -math.inf])
    def test_non_finite_log_xi_rejected(self, log_xi_value):
        with pytest.raises(InvalidParameterError, match="log_xi_value must be finite"):
            replica_moment_log(truncate_kernel(P03, 4), log_xi_value, 8)

    def test_single_step_is_xi(self):
        ktr = truncate_kernel(P03, 4)
        assert math.exp(replica_moment_log(ktr, log_xi(RAD, 0.8), 1)) == pytest.approx(
            math.exp(log_xi(RAD, 0.8)), abs=1e-13
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
                for beta in (0.4, 1.1):
                    lx = log_xi(RAD, beta)
                    want = pair_moment(kernel, math.exp(lx), n)
                    got = math.exp(replica_moment_log(kernel, lx, n))
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

    def test_growth_rate_matches_joint_free_energy(self):
        # (1/n) log E[Xi^overlap] tends to the truncated joint free energy
        tr, beta = 4, 1.2
        ktr = truncate_kernel(P03, tr)
        lam = log_xi(RAD, beta)
        f2tr = joint_free_energy(P03, lam, tr=tr)
        n = 4000
        log_n = replica_moment_log(ktr, lam, n)
        assert log_n / n == pytest.approx(f2tr, abs=2e-3)
        # the boundary terms cancel in the difference quotient
        quotient = (replica_moment_log(ktr, lam, 2 * n) - log_n) / n
        assert quotient == pytest.approx(f2tr, abs=1e-10)

    @pytest.mark.parametrize("tr", [4, 8, 32])
    @pytest.mark.parametrize(
        "law, beta", [(GAUSS, 1.5), (GAUSS, 0.7), (RAD, 0.8)], ids=["gauss1.5", "gauss0.7", "rad0.8"]
    )
    def test_growth_rate_is_the_annealed_upper_bound(self, law, beta, tr):
        # as above at machine precision: the series inverse of
        # 1/(Xi - (Xi-1) U2) against the fixed point of the overlap kernel
        ktr = truncate_kernel(P03, tr)
        lx = log_xi(law, beta)
        n = 8192
        growth = (replica_moment_log(ktr, lx, 2 * n) - replica_moment_log(ktr, lx, n)) / n
        f2 = joint_free_energy(P03, lx, tr=tr)
        assert growth == pytest.approx(f2, rel=1e-12)


class TestEntropyEstimatorCore:
    @staticmethod
    def _log_fn(ktr, tr, weights):
        # the estimator's DP call and closing, for one explicit weight row
        rows = weights[None, :]
        log_z = _log_partitions(ktr, rows)
        return float(_free_endpoint_log_likelihood(log_z, rows, ktr.mass_array(tr))[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("tr", [1, 3, 4])
    def test_free_endpoint_likelihood_matches_enumeration(self, n, tr):
        ktr = truncate_kernel(P03, tr)
        stream = derive_stream(2024, n * 10 + tr)
        weights = 0.8 * stream.normal(n) - 0.32
        got = self._log_fn(ktr, tr, weights)
        want = math.log(free_endpoint_likelihood(ktr, weights))
        assert got == pytest.approx(want, abs=1e-12)

    def test_unit_weights_integrate_to_one(self):
        ktr = truncate_kernel(P03, 5)
        assert abs(self._log_fn(ktr, 5, np.zeros(64))) <= 1e-12

    @pytest.mark.parametrize("masses", [[0.5, 0.5 + 5e-13], [0.7, 0.2, 0.1]])
    def test_truncation_past_the_support(self, masses):
        # past the support 1 - sum K reads 5e-13 below 0 (a NaN log f_n) or
        # 1.1e-16 above it, which made a chain that stops early outweigh
        # every true path through the strongly negative weights
        ktr = truncate_kernel(make_table_kernel(masses), 12)
        weights = np.array([0.0, 0.3, -0.2] + [-100.0] * 6)
        got = self._log_fn(ktr, 12, weights)
        want = math.log(free_endpoint_likelihood(ktr, weights))
        assert got == pytest.approx(want, abs=1e-12)


# truncations whose top gaps carry no mass: the DP runs banded at the largest
# gap with mass (3 and 1), not at tr (8 and 4)
TOP_GAPS_EMPTY = [
    (make_table_kernel([0.5, 0.3, 0.2]), 8, 3),
    (make_geometric_kernel(1.0), 4, 1),
]
TOP_GAPS_IDS = ["table3-tr8", "geometric1-tr4"]


def log_z_error(got, want):
    """Largest ``|got - want|`` of finite entries relative to ``max(1,
    max_{j<=m} |want_j|)``, the DP's documented bound; infinities must agree."""
    zero = want == -np.inf
    np.testing.assert_array_equal(got[zero], want[zero])
    size = np.maximum.accumulate(np.abs(np.where(zero, 0.0, want)))
    return float(np.max(np.abs(got - want)[~zero] / np.maximum(1.0, size[~zero]), initial=0.0))


class TestFrontDoorBand:
    """The estimator's DP goes through ``quenched._log_partitions``, banded at
    the truncated kernel's ``support_upper``; where the top gaps of ``K^tr``
    carry no mass that band is below ``tr`` and must give the ``band=tr``
    results."""

    @pytest.mark.parametrize("kernel, tr, support", TOP_GAPS_EMPTY, ids=TOP_GAPS_IDS)
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
    def test_log_partitions_match_band_tr_and_recursion(self, kernel, tr, support, seed, n):
        ktr = truncate_kernel(kernel, tr)
        assert ktr.support_upper == support < tr
        stream = derive_stream(seed, 0)
        weights = (1.5 * stream.normal(3 * n) - 0.5).reshape(3, n)
        log_k = log_mass_vector(ktr, n)
        got = _log_partitions(ktr, weights)
        at_tr = dp_log_partition(log_k, weights, band=tr)
        for row, row_at_tr, w in zip(got, at_tr, weights):
            want = np.array(partition_log_recursion(log_k, w))
            assert log_z_error(row, want) <= 1e-12
            assert log_z_error(row, row_at_tr) <= 1e-12

    @pytest.mark.parametrize("kernel, tr, support", TOP_GAPS_EMPTY, ids=TOP_GAPS_IDS)
    def test_estimator_matches_band_tr_closing(self, kernel, tr, support, monkeypatch):
        seen = []

        def spy(ktr, site_weights):
            seen.append(site_weights.copy())
            return _log_partitions(ktr, site_weights)

        monkeypatch.setattr(relevance, "_log_partitions", spy)
        n = 256
        rep = entropy_estimator(kernel, GAUSS, 1.0, tr=tr, n=n, replicas=4, base_seed=3)
        (weights,) = seen
        ktr = truncate_kernel(kernel, tr)
        log_z = dp_log_partition(log_mass_vector(ktr, n), weights, band=tr)
        want = _free_endpoint_log_likelihood(log_z, weights, ktr.mass_array(tr)) / n
        np.testing.assert_allclose(rep.per_replica, want, rtol=1e-12, atol=0.0)
        assert rep.estimate == pytest.approx(float(np.mean(want)), rel=1e-12)


class TestWordLengths:
    class TopStream:
        """Every uniform the largest float below 1, every normal 0."""

        def uniform(self, count):
            return np.full(count, 1.0 - 2.0**-53)

        def normal(self, count):
            return np.zeros(count)

    @pytest.mark.parametrize(
        "kernel, tr, longest",
        [(make_power_kernel(0.5), 4, 4), (make_power_kernel(1.5), 32, 32),
         (make_table_kernel([0.6, 0.4 - 1e-13]), 6, 2)],
        ids=["power0.5-tr4", "power1.5-tr32", "table-past-support"],
    )
    def test_top_uniform_takes_the_longest_length_with_mass(self, kernel, tr, longest):
        # the truncated masses sum to 1 - 2^-53 or less, so the top uniform
        # lies at or past their cumulative total
        ktr = truncate_kernel(kernel, tr)
        assert np.cumsum(ktr.mass_array(tr))[-1] <= 1.0 - 2.0**-53
        letters = _sample_word_sequence(
            GAUSS, _length_law(ktr), 1.0, 3 * longest + 1, self.TopStream()
        )
        # only first letters are tilted away from 0, so they mark the word starts
        np.testing.assert_array_equal(
            np.flatnonzero(letters), np.arange(0, 3 * longest + 1, longest)
        )


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
        lower, _ = entropy_bounds(P03, GAUSS, beta, tr=1)
        assert lower == pytest.approx(want, abs=1e-12)
        assert rep.m_tr == 1.0

    def test_sandwich_small_budget(self):
        rep = entropy_estimator(P03, GAUSS, 1.5, tr=8, n=2048, replicas=24, base_seed=9)
        lower, upper = entropy_bounds(P03, GAUSS, 1.5, tr=8)
        slack = 3.0 * rep.stderr
        assert lower - slack <= rep.estimate <= upper + slack
        assert rep.m_tr == pytest.approx(truncate_kernel(P03, 8).mean(), abs=1e-12)

    def test_upper_bound_via_replica_moment(self):
        # the estimate stays below the pair-moment growth rate at matched n
        beta, tr, n = 1.2, 4, 2048
        rep = entropy_estimator(P03, RAD, beta, tr=tr, n=n, replicas=24, base_seed=3)
        lam = log_xi(RAD, beta)
        ktr = truncate_kernel(P03, tr)
        rate = replica_moment_log(ktr, lam, n) / n
        assert rep.estimate <= rate + 3.0 * rep.stderr

    def test_validates_arguments(self):
        with pytest.raises(InvalidParameterError):
            entropy_estimator(P03, GAUSS, 1.0, tr=0, n=64, replicas=2, base_seed=0)
        with pytest.raises(InvalidParameterError):
            entropy_estimator(P03, GAUSS, 1.0, tr=4, n=1, replicas=2, base_seed=0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(InvalidParameterError):
            entropy_estimator(P03, GAUSS, beta, tr=4, n=64, replicas=2, base_seed=0)
        with pytest.raises(InvalidParameterError):
            entropy_bounds(P03, GAUSS, beta, tr=4)

    def test_overflowing_weights_raise_precision_error(self):
        # log M(1e160) = 5e319 overflows, so no site weight is finite
        with pytest.raises(PrecisionError):
            entropy_estimator(P03, GAUSS, 1e160, 4, 16, 2, 0)

    def test_memory_is_the_weights_and_log_z(self):
        # the weights are written over the drawn letters and the banded DP
        # keeps a window of its terms, so two (replicas, n) arrays are live
        replicas, n = 16, 8192
        tracemalloc.start()
        try:
            entropy_estimator(P03, GAUSS, 1.5, 64, n, replicas, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * replicas * n * 8

    @pytest.mark.parametrize("beta", [1e15, 1e16, 1e160])
    def test_fair_signs_at_huge_beta(self, beta):
        # from beta 200 up a -1 letter weighs e^{-2 beta} or less against a +1
        # letter and is never drawn as a first letter, so the estimate is the
        # one at 200, provided the beta * anchor terms of beta x - log M(beta)
        # cancel before rounding and a +1 letter keeps its weight log 2
        want = entropy_estimator(P03, RAD, 200.0, 4, 16, 2, 0).estimate
        got = entropy_estimator(P03, RAD, beta, 4, 16, 2, 0).estimate
        assert abs(got - want) <= 1e-12 * abs(want)


def paired_drops(per_replica, betas):
    """The ``(beta_lo, beta_hi, mean_delta, stderr_delta)`` of consecutive
    estimates whose paired per-replica difference falls more than three of
    its standard errors below 0."""
    drops = []
    for b_lo, b_hi, lo, hi in zip(betas, betas[1:], per_replica, per_replica[1:]):
        mean_delta, stderr_delta = _mean_stderr(hi - lo)
        if mean_delta < -3.0 * stderr_delta:
            drops.append((b_lo, b_hi, mean_delta, stderr_delta))
    return drops


class TestMonotonicityScan:
    """Estimates along a tilt grid at one ``base_seed`` share their replica
    streams, so consecutive estimates are coupled and their paired
    differences carry far less variance than the raw estimates."""

    def test_rademacher_grid_nondecreasing(self):
        betas = [0.0, 0.5, 1.0]
        reports = [
            entropy_estimator(P03, RAD, beta, tr=6, n=768, replicas=24, base_seed=13)
            for beta in betas
        ]
        assert paired_drops([r.per_replica for r in reports], betas) == []
        assert reports[0].estimate == 0.0
        estimates = [r.estimate for r in reports]
        assert estimates == sorted(estimates)

    def test_duplicate_betas_identical(self):
        reports = [
            entropy_estimator(P03, GAUSS, 0.8, tr=4, n=256, replicas=8, base_seed=4)
            for _ in range(2)
        ]
        assert reports[0].estimate == reports[1].estimate
        assert paired_drops([r.per_replica for r in reports], [0.8, 0.8]) == []

    def test_decrease_past_three_stderr_is_a_violation(self):
        # paired drops of 0.975 +- 0.048 from 0.5 to 1.0 are flagged; the rise
        # to 1.5 is not
        per_replica = [
            np.array([2.0, 2.1, 1.9, 2.0]),
            np.array([1.0, 1.0, 1.0, 1.1]),
            np.array([1.2, 1.0, 1.1, 1.2]),
        ]
        [(lo, hi, mean_delta, stderr_delta)] = paired_drops(per_replica, [0.5, 1.0, 1.5])
        assert (lo, hi) == (0.5, 1.0)
        assert mean_delta == pytest.approx(-0.975, abs=1e-12)
        assert stderr_delta == pytest.approx(math.sqrt(0.0275 / 3.0) / 2.0, abs=1e-12)


def variational_argmax(disorder, beta, grid):
    """``(argmax, max)`` of ``beta * mean(mu_t) - h(mu_t | mu_0)`` over the
    tilts ``t`` of ``grid``."""
    values = [beta * tilted_mean(disorder, t) - relative_entropy_tilt(disorder, t) for t in grid]
    best = int(np.argmax(values))
    return float(grid[best]), values[best]


class TestVariational:
    """Over product word measures with tilted first letter the objective
    ``beta * mean(mu_t) - h(mu_t | mu_0)`` peaks at ``t = beta`` with value
    ``log M(beta)``, since ``h(mu_t | mu_0) = t mean(mu_t) - log M(t)``."""

    @pytest.mark.parametrize("disorder", [GAUSS, RAD], ids=["gaussian", "rademacher"])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_maximum_at_matching_tilt(self, disorder, beta):
        log_m = log_mgf(disorder, beta)
        at_beta = beta * tilted_mean(disorder, beta) - relative_entropy_tilt(disorder, beta)
        assert abs(at_beta - log_m) <= 1e-15 * max(1.0, abs(log_m))
        grid = np.linspace(0.0, 3.0, 601)
        argmax, peak = variational_argmax(disorder, beta, grid)
        assert abs(argmax - beta) <= grid[1] - grid[0] + 1e-12
        assert 0.0 <= log_m - peak <= 5e-5

    def test_zero_beta(self):
        assert 0.0 * tilted_mean(GAUSS, 0.0) - relative_entropy_tilt(GAUSS, 0.0) == 0.0
        argmax, peak = variational_argmax(GAUSS, 0.0, np.linspace(0, 1, 101))
        assert argmax == 0.0
        assert peak == 0.0

    def test_gaussian_objective_closed_form(self):
        beta = 1.0
        assert beta * tilted_mean(GAUSS, beta) - relative_entropy_tilt(GAUSS, beta) == 0.5
        argmax, peak = variational_argmax(GAUSS, beta, np.linspace(0.0, 2.0, 201))
        # objective is t -> beta t - t^2/2, peak 1/2 at t = 1
        assert peak == pytest.approx(0.5, abs=1e-10)
        assert argmax == pytest.approx(1.0, abs=1e-12)
