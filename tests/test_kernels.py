"""Return-time laws: construction, renewal recursion, chi, truncation,
entropy, and the joint-return kernel."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinlab import kernels
from pinlab.errors import InvalidParameterError, PrecisionError, UndecidedError
from pinlab.kernels import (
    chi,
    far_terms,
    kernel_entropy,
    kernel_from_json,
    kernel_to_json,
    make_geometric_kernel,
    make_power_kernel,
    make_table_kernel,
    overlap_kernel,
    return_probabilities,
    truncate_kernel,
)
from pinlab.series import kernel_from_renewal_function_dp, renewal_function_dp

from oracles import (
    loglog_fit,
    loglog_slope,
    power_kernel_tail_integral_bound,
    return_prefactor_limit,
    zeta_direct,
)


def random_table_kernel(weights):
    arr = np.asarray(weights, dtype=float)
    arr = arr / arr.sum()
    arr = arr / arr.sum()  # second pass tightens the float normalization
    return make_table_kernel(arr)


table_weights = st.lists(
    st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=8
)


class TestPowerKernel:
    def test_first_mass_against_series_oracle(self):
        kernel = make_power_kernel(0.5)
        k1 = kernel.mass_array(1)[0]
        assert k1 == pytest.approx(1.0 / zeta_direct(1.5), abs=1e-12)
        assert k1 == pytest.approx(0.382793, abs=5e-7)

    def test_mass_ratio_is_exact(self):
        kernel = make_power_kernel(1.0)
        k1, k2 = kernel.mass_array(2)
        assert k1 / k2 == pytest.approx(4.0, abs=1e-14)

    def test_partial_sum_with_tail_bracket(self):
        kernel = make_power_kernel(0.5)
        partial = float(np.sum(kernel.mass_array(10**6)))
        assert 0.999 < partial < 1.0
        lo, hi = power_kernel_tail_integral_bound(0.5, 10**6 + 1)
        z = zeta_direct(1.5)
        assert partial + lo / z <= 1.0 <= partial + hi / z

    def test_tail_mass_matches_direct_sum(self):
        kernel = make_power_kernel(0.7)
        cut = 400_000
        direct = float(np.sum(kernel.mass_array(cut)[99:]))
        lo, hi = power_kernel_tail_integral_bound(0.7, cut + 1)
        z = zeta_direct(1.7)
        assert direct + lo / z <= kernel.tail_mass(100) <= direct + hi / z

    def test_invalid_alpha_rejected(self):
        # at 1e-17 and 1e-16, 1 + alpha rounds to 1: every mass would be n^-1 / zeta(1) = 0
        for bad in (0.0, -1.0, math.nan, 1e-17, 1e-16):
            with pytest.raises(InvalidParameterError):
                make_power_kernel(bad)

    def test_alpha_just_above_rounding_accepted(self):
        assert make_power_kernel(2.3e-16).alpha == 2.3e-16

    def test_mean_finite_only_above_one(self):
        assert math.isinf(make_power_kernel(0.5).mean())
        kernel = make_power_kernel(1.5)
        direct = float(np.dot(np.arange(1, 2 * 10**6), kernel.mass_array(2 * 10**6 - 1)))
        assert kernel.mean() == pytest.approx(direct, rel=1e-3)


class TestTableKernel:
    def test_rejects_bad_mass(self):
        with pytest.raises(InvalidParameterError):
            make_table_kernel([0.5, 0.51])
        with pytest.raises(InvalidParameterError):
            make_table_kernel([1.2, -0.2])

    @pytest.mark.parametrize("masses", [[math.nan, 1.0], [0.5, math.nan], [math.inf, 0.0]])
    def test_rejects_non_finite_mass(self, masses):
        with pytest.raises(InvalidParameterError, match="finite"):
            make_table_kernel(masses)

    def test_rejects_periodic_support(self):
        with pytest.raises(InvalidParameterError):
            make_table_kernel([0.0, 0.5, 0.0, 0.5])

    def test_json_roundtrip(self):
        for kernel in (
            make_power_kernel(0.3),
            make_geometric_kernel(0.25),
            make_table_kernel([0.25, 0.5, 0.25]),
        ):
            clone = kernel_from_json(kernel_to_json(kernel))
            assert clone.family == kernel.family
            np.testing.assert_allclose(clone.mass_array(9), kernel.mass_array(9), rtol=0, atol=1e-15)

    def test_json_rejects_unread_field(self):
        with pytest.raises(InvalidParameterError, match="n_cap"):
            kernel_from_json({"family": "power", "alpha": 0.3, "n_cap": 100})


class TestReturnProbabilities:
    def test_boundary_values(self):
        kernel = make_power_kernel(0.5)
        k1, k2 = kernel.mass_array(2)
        expected = [1.0, k1, k2 + k1**2]
        for n in (0, 1, 2):
            u = return_probabilities(kernel, n)
            assert u.shape == (n + 1,)
            assert u[0] == 1.0
            np.testing.assert_allclose(u, expected[: n + 1], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5])
    def test_recursion_residual(self, alpha):
        kernel = make_power_kernel(alpha)
        n = 600
        u = return_probabilities(kernel, n)
        masses = kernel.mass_array(n)
        for m in range(1, n + 1):
            recon = float(np.dot(masses[:m][::-1], u[:m]))
            assert abs(u[m] - recon) <= 1e-14

    def test_fft_matches_dp(self):
        kernel = make_power_kernel(0.5)
        n = 4096
        u_dp = renewal_function_dp(kernel.mass_array(n), n)
        u_fft = return_probabilities(kernel, n)
        assert np.max(np.abs(u_dp - u_fft)) <= 1e-12

    def test_returns_that_do_not_decay_at_the_documented_bound(self):
        # today's bound for a finite mean (3.0e-12 measured at 2^18); the
        # tail-form inverse of ROADMAP item 5 should tighten it
        n = 1 << 18
        u = return_probabilities(make_table_kernel([0.5, 0.5]), n)
        exact = 2.0 / 3.0 + (-0.5) ** np.arange(n + 1) / 3.0
        assert np.max(np.abs(u - exact)) <= 5e-12

    def test_geometric_returns_are_flat(self):
        u = return_probabilities(make_geometric_kernel(0.5), 200)
        assert np.max(np.abs(u[1:] - 0.5)) <= 1e-13

    def test_bounds(self):
        u = return_probabilities(make_table_kernel([0.0, 0.6, 0.4]), 300)
        assert np.all(u >= -1e-15)
        assert np.all(u <= 1.0 + 1e-12)

    @settings(max_examples=25)
    @given(table_weights)
    def test_recursion_residual_property(self, weights):
        kernel = random_table_kernel(weights)
        n = 80
        u = return_probabilities(kernel, n)
        masses = kernel.mass_array(n)
        for m in range(1, n + 1):
            recon = float(np.dot(masses[:m][::-1], u[:m]))
            assert abs(u[m] - recon) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_return_probability_decay_exponent(self, alpha):
        kernel = make_power_kernel(alpha)
        u = return_probabilities(kernel, 100_000)
        ns = np.unique(np.geomspace(1000, 100_000, 60).astype(int))
        slope = loglog_slope(ns, u[ns])
        assert abs(slope - (alpha - 1.0)) <= 0.05


def chi_at(kernel, tolerance, start_horizon, max_horizon):
    """``chi`` with its horizon constants set for one call."""
    with mock.patch.object(kernels, "_START_HORIZON", start_horizon), \
            mock.patch.object(kernels, "_MAX_HORIZON", max_horizon):
        return chi(kernel, tolerance=tolerance)


class TestChi:
    def test_geometric_diverges(self):
        result = chi(make_geometric_kernel(0.5))
        assert result.status == "infinite"
        assert math.isinf(result.value)

    def test_alpha_030_finite_and_stable(self):
        a = chi_at(make_power_kernel(0.3), 1e-2, 1 << 16, 1 << 16)
        b = chi_at(make_power_kernel(0.3), 1e-2, 1 << 17, 1 << 17)
        assert a.status == b.status == "finite"
        assert abs(a.value - b.value) <= 0.01 * b.value

    def test_alpha_075_diverges(self):
        result = chi(make_power_kernel(0.75))
        assert result.status == "infinite"

    def test_alpha_050_undecided(self):
        result = chi(make_power_kernel(0.5))
        assert result.status == "undecided"
        with pytest.raises(UndecidedError):
            result.require_value()

    def test_tolerance_validated(self):
        with pytest.raises(InvalidParameterError):
            chi(make_power_kernel(0.3), tolerance=0.0)

    def test_unreachable_tolerance_reports_required_horizon(self):
        from pinlab.errors import PrecisionError

        with pytest.raises(PrecisionError) as info:
            chi_at(make_power_kernel(0.3), 1e-9, 1 << 14, 1 << 15)
        assert info.value.required_horizon is not None
        assert info.value.required_horizon > (1 << 15)

    def test_exhausted_budget_reports_required_horizon(self):
        from pinlab.errors import PrecisionError

        # the first horizon already extrapolates past twice _MAX_HORIZON, so
        # chi stops there instead of doubling up to _MAX_HORIZON
        with mock.patch.object(
            kernels, "return_probabilities", wraps=kernels.return_probabilities
        ) as spy:
            with pytest.raises(PrecisionError) as info:
                chi(make_power_kernel(0.4))
        assert spy.call_count == 1
        assert info.value.required_horizon > (1 << 21)

    def test_tiny_tolerance_is_precision_error(self):
        from pinlab.errors import PrecisionError

        # the extrapolated horizon (about 1e750) does not fit a float
        with pytest.raises(PrecisionError) as info:
            chi(make_power_kernel(0.3), tolerance=1e-300)
        assert info.value.required_horizon > (1 << 21)

    @pytest.mark.parametrize(
        "alpha, tolerance, status, horizon",
        [
            (0.3, 1e-3, "finite", 1 << 20),
            (0.3, 2e-3, "finite", 1 << 18),
            (0.5, 2e-3, "undecided", 1 << 16),
            (0.7, 2e-3, "infinite", 1 << 16),
        ],
    )
    def test_resumed_doubling_matches_a_fresh_horizon(self, alpha, tolerance, status, horizon):
        kernel = make_power_kernel(alpha)
        result = chi(kernel, tolerance=tolerance)
        assert (result.status, result.horizon) == (status, horizon)
        # one fresh reciprocal at the final horizon
        fresh = chi_at(kernel, tolerance, horizon, horizon)
        assert fresh.status == status
        for field in ("value", "partial_sum", "fitted_decay"):
            # the rungs are those of the fresh call, so the bits are too;
            # equal infinities and NaNs (the undecided value) count as equal
            np.testing.assert_array_equal(
                getattr(result, field), getattr(fresh, field), err_msg=field
            )

    def test_doubling_under_a_recording_spy(self):
        # the spy's call_args keep chi's returns array alive, so growing it in
        # place is refused and chi grows it by a copy instead
        kernel = make_power_kernel(0.3)
        plain = chi(kernel, 2e-3)
        with mock.patch.object(
            kernels, "return_probabilities", wraps=kernels.return_probabilities
        ) as spy:
            spied = chi(kernel, 2e-3)
        assert spy.call_count == 3
        assert spied == plain

    def test_search_holds_one_horizon_of_returns(self):
        # 40.03 MiB at horizon 2^20: the last rung's reciprocal, 1 - K(z) and
        # one array of returns; keeping the 2^19 horizon's returns beside the
        # new ones reads 44.03 MiB (a copy that frees the old array at once
        # keeps this traced peak and costs resident memory instead)
        kernel = make_power_kernel(0.3)
        tracemalloc.start()
        try:
            result = chi(kernel, tolerance=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.status, result.horizon) == ("finite", 1 << 20)
        assert result.value == pytest.approx(0.24243914554297924, rel=1e-9, abs=0.0)
        assert peak <= 40.5 * 2**20


def polyfit_decay(u, horizon):
    """``(s, C)`` of ``u_n ~ C n^-s`` by ``np.polyfit`` over the positive
    ``u_n`` of ``_fit_decay``'s window."""
    lo = max(horizon // 10, 8)
    ns = np.arange(lo, horizon + 1)
    vals = u[lo : horizon + 1]
    keep = vals > 0.0
    slope, prefactor = loglog_fit(ns[keep], vals[keep])
    return -slope, prefactor


def power_law_with_noise(horizon):
    """``0.4 n^-0.6`` for ``n = 0..horizon`` (``n = 0`` read as 1) with
    multiplicative log-normal noise."""
    ns = np.arange(horizon + 1, dtype=float)
    ns[0] = 1.0
    noise = np.exp(0.05 * np.random.default_rng(0).standard_normal(horizon + 1))
    return 0.4 * ns**-0.6 * noise


class TestFitDecay:
    @pytest.fixture(scope="class", params=[0.3, 0.5, 0.7])
    def power_returns(self, request):
        return return_probabilities(make_power_kernel(request.param), 1 << 18)

    @pytest.mark.parametrize("horizon", [1 << 16, 1 << 18])
    def test_matches_polyfit_on_power_returns(self, power_returns, horizon):
        s, c = kernels._fit_decay(power_returns, horizon)
        s_ref, c_ref = polyfit_decay(power_returns, horizon)
        assert s == pytest.approx(s_ref, rel=1e-12, abs=0.0)
        assert c == pytest.approx(c_ref, rel=1e-12, abs=0.0)

    def test_masks_zeros_and_negative_noise(self):
        horizon = 4096
        u = power_law_with_noise(horizon)
        lo = horizon // 10
        u[lo] = 0.0
        u[lo + 17 :: 301] = 0.0
        u[lo + 5 :: 211] = -1e-300
        u[horizon] = -1e-18
        s, c = kernels._fit_decay(u, horizon)
        s_ref, c_ref = polyfit_decay(u, horizon)
        assert s == pytest.approx(s_ref, rel=1e-12, abs=0.0)
        assert c == pytest.approx(c_ref, rel=1e-12, abs=0.0)
        # the noise is mean-zero in log scale, so the fit lands near the law
        assert s == pytest.approx(0.6, abs=0.02)

    # (10, 3): the window 8..10 holds three values, all positive
    @pytest.mark.parametrize("horizon, positive", [(4096, 0), (4096, 1), (4096, 7), (10, 3)])
    def test_fewer_than_eight_positive_values_raise(self, horizon, positive):
        u = np.zeros(horizon + 1)
        u[0] = 1.0
        u[horizon + 1 - positive :] = 1e-3
        u[horizon // 10 : horizon + 1 - positive : 2] = -1e-17
        with pytest.raises(PrecisionError):
            kernels._fit_decay(u, horizon)

    @pytest.mark.parametrize("masked", [False, True])
    def test_memory_is_a_few_window_arrays(self, masked):
        # a few float arrays of the window's length, not a least-squares system
        horizon = 1 << 20
        u = power_law_with_noise(horizon)
        if masked:
            u[horizon // 10 :: 1000] = 0.0
        tracemalloc.start()
        try:
            kernels._fit_decay(u, horizon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * horizon


class TestTruncation:
    def test_all_mass_at_one(self):
        ktr = truncate_kernel(make_power_kernel(0.5), 1)
        k1, k2 = ktr.mass_array(2)
        assert k1 == pytest.approx(1.0, abs=1e-15)
        assert k2 == 0.0

    def test_two_point_truncation(self):
        kernel = make_power_kernel(0.5)
        ktr = truncate_kernel(kernel, 2)
        k1 = kernel.mass_array(1)[0]
        t1, t2 = ktr.mass_array(2)
        assert t1 == pytest.approx(k1, abs=1e-15)
        assert t2 == pytest.approx(1.0 - k1, abs=1e-14)

    @pytest.mark.parametrize(
        "kernel",
        [make_power_kernel(1.5), make_geometric_kernel(0.3)],
        ids=["power", "geometric"],
    )
    def test_mean_monotone_and_dominated(self, kernel):
        full_mean = kernel.mean()
        previous = 0.0
        for tr in (1, 2, 4, 8, 16, 64, 256):
            m_tr = truncate_kernel(kernel, tr).mean()
            assert m_tr >= previous - 1e-12
            assert m_tr <= full_mean + 1e-12
            previous = m_tr

    @settings(max_examples=25)
    @given(table_weights, st.integers(min_value=1, max_value=12))
    def test_mass_preserved_property(self, weights, tr):
        kernel = random_table_kernel(weights)
        total = float(np.sum(truncate_kernel(kernel, tr).mass_array(tr)))
        assert abs(total - 1.0) <= 1e-14


class TestGeometricPrecision:
    """Masses, tails and entropy of the geometric family against mpmath at
    the float ``p``: all three are taken through ``log1p(-p)``, so they
    keep their digits at small ``p``.  A mass ``p (1-p)^(d-1)`` is exact to
    a few ulps times its condition number ``1 + |(d-1) log(1-p)|``."""

    @pytest.mark.parametrize("p", [1e-9, 1e-6, 0.3])
    def test_masses_and_tails(self, p):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        kernel = make_geometric_kernel(p)
        masses = kernel.mass_array(1 << 20)
        for d in (1, 2, 3, 65, 127, 1000, 1900, 65536, 1 << 20):
            exact = (1 - mp.mpf(p)) ** (d - 1)
            if exact * p < np.finfo(float).tiny:
                continue
            bound = 4e-16 * (1.0 + abs((d - 1) * math.log1p(-p)))
            assert abs(masses[d - 1] - p * exact) <= bound * p * exact, d
            assert abs(kernel.tail_mass(d) - exact) <= bound * exact, d

    @pytest.mark.parametrize("p", [1e-9, 1e-6, 0.3])
    def test_entropy(self, p):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        q = mp.mpf(p)
        exact = -mp.log(q) - ((1 - q) / q) * mp.log(1 - q)
        assert abs(kernel_entropy(make_geometric_kernel(p)) - exact) <= 4e-16 * exact

    @pytest.mark.parametrize("p", [1e-9, 1e-6, 0.3])
    def test_generating_function(self, p):
        # sum_n K(n) e^{-n f}, which the homopolymer solves invert
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        series = kernels._pinned_series(make_geometric_kernel(p))
        for f in (1e-9, 1e-6, 1e-3, 1.0, 30.0):
            q = mp.mpf(p) * mp.exp(-mp.mpf(f))
            exact = q / (1 - (1 - mp.mpf(p)) * mp.exp(-mp.mpf(f)))
            assert abs(series(f) - exact) <= 4e-16 * exact, f

    def test_point_mass_at_p_1(self):
        kernel = make_geometric_kernel(1.0)
        np.testing.assert_array_equal(kernel.mass_array(4), [1.0, 0.0, 0.0, 0.0])
        assert kernel.tail_mass(1) == 1.0
        assert kernel.tail_mass(2) == 0.0
        assert kernel_entropy(kernel) == 0.0

    @pytest.mark.parametrize(
        "make",
        [lambda: make_geometric_kernel(1.0), lambda: make_table_kernel([1.0]),
         lambda: truncate_kernel(make_power_kernel(0.3), 1)],
        ids=["geometric", "table", "truncated"],
    )
    def test_point_mass_is_the_one_mass_table(self, make):
        kernel = make()
        assert kernel.family == "table"
        np.testing.assert_array_equal(kernel.mass_array(4), [1.0, 0.0, 0.0, 0.0])
        assert (kernel.tail_mass(1), kernel.tail_mass(2), kernel.mean()) == (1.0, 0.0, 1.0)
        assert kernel.support_upper == 1
        assert far_terms(kernel, 4096) is None
        entropy = kernel_entropy(kernel)
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0


def far_errors(kernel, n):
    """Relative errors of the far terms against ``mass_array`` at every gap
    ``65 <= d <= n`` whose mass is a normal float, in blocks of 2^14 gaps."""
    weights, rates = far_terms(kernel, n)
    masses = kernel.mass_array(n)
    errors = []
    for lo in range(65, n + 1, 1 << 14):
        d = np.arange(lo, min(lo + (1 << 14), n + 1), dtype=float)
        want = masses[lo - 1 : lo - 1 + len(d)]
        normal = want >= np.finfo(float).tiny
        got = np.exp(-np.outer(d[normal], rates)) @ weights
        errors.append(np.abs(got / want[normal] - 1.0))
    return np.concatenate(errors)


class TestFarTerms:
    """The far gaps of the quenched DP as a positive sum of exponentials."""

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 1.5, 3.0])
    def test_power_within_2e_15_up_to_2_20(self, alpha):
        weights, rates = far_terms(make_power_kernel(alpha), 1 << 20)
        assert np.all(weights > 0.0) and np.all(rates > 0.0)
        assert far_errors(make_power_kernel(alpha), 1 << 20).max() <= 2e-15

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("n", [129, 1024, 3000])
    def test_power_positive_and_close_at_every_size(self, alpha, n):
        # at large alpha exp(-lam d) is rounded at the size of lam d ~ 1 + alpha
        kernel = make_power_kernel(alpha)
        weights, rates = far_terms(kernel, n)
        assert len(weights) == len(rates) > 0
        assert np.all(weights > 0.0) and np.all(rates > 0.0)
        assert far_errors(kernel, n).max() <= 1.25e-15 * max(1.0, (1.0 + alpha) / 4.0)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 1.0, 5.0])
    def test_term_count_nondecreasing_in_size_class(self, alpha):
        # the stopping test sums exactly, so a larger class never stops sooner
        kernel = make_power_kernel(alpha)
        counts = [len(far_terms(kernel, 1 << e)[0]) for e in range(8, 21)]
        assert counts == sorted(counts), counts

    def test_power_without_normal_far_masses(self):
        # 65^-201 underflows: there is no far mass to carry
        weights, rates = far_terms(make_power_kernel(200.0), 1024)
        assert len(weights) == len(rates) == 0

    @pytest.mark.parametrize("p", [1.0, 0.9, 0.3, 0.01, 1e-6])
    def test_geometric_one_term(self, p):
        kernel = make_geometric_kernel(p)
        n = 1 << 20 if p < 0.1 else 4096
        if p == 1.0:
            # the point mass is the one-mass table, which has no far terms
            assert far_terms(kernel, n) is None
            assert not kernel.mass_array(n)[1:].any()
            return
        weights, rates = far_terms(kernel, n)
        assert len(weights) == len(rates) == 1
        assert weights[0] > 0.0
        d = np.arange(65.0, n + 1.0)
        normal = kernel.mass_array(n)[64:] >= np.finfo(float).tiny
        # both sides are exp of about d log(1-p), rounded at its size
        bound = 4e-16 * (1.0 + d[normal] * rates[0])
        assert np.all(far_errors(kernel, n) <= bound)

    def test_tables_and_short_chains_have_none(self):
        assert far_terms(make_table_kernel([0.5, 0.5]), 4096) is None
        assert far_terms(make_power_kernel(0.3), 128) is None
        assert far_terms(make_geometric_kernel(0.3), 128) is None

    def test_cached_per_size_class(self):
        kernel = make_power_kernel(0.7)
        first = far_terms(kernel, 1024)
        assert far_terms(kernel, 1024) is first
        assert far_terms(make_power_kernel(0.7), 600) is first  # 600 is in 1024's class
        assert far_terms(kernel, 1025) is not first
        assert not first[0].flags.writeable and not first[1].flags.writeable
        geometric = far_terms(make_geometric_kernel(0.25), 300)
        assert far_terms(make_geometric_kernel(0.25), 5000) is geometric


class TestKernelEntropy:
    def test_geometric_half(self):
        assert kernel_entropy(make_geometric_kernel(0.5)) == pytest.approx(
            2.0 * math.log(2.0), abs=1e-14
        )

    def test_point_mass(self):
        assert kernel_entropy(make_table_kernel([1.0])) == 0.0

    def test_power_against_mpmath_closed_form(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for alpha in (0.3, 0.5, 1.5):
            s = 1.0 + alpha
            z = mp.zeta(s)
            expected = float(mp.log(z) - s * mp.zeta(s, 1, 1) / z)
            assert kernel_entropy(make_power_kernel(alpha)) == pytest.approx(
                expected, abs=1e-11
            )

    @staticmethod
    def _tail_bounded_entropy(alpha: float, n: int) -> float:
        # direct head plus Euler-Maclaurin tail of g(x) = (s log x + log z) x^-s / z
        s = 1.0 + alpha
        z = zeta_direct(s)
        kernel = make_power_kernel(alpha)
        masses = kernel.mass_array(n)
        head = float(-np.sum(masses * np.log(masses)))
        N = float(n)
        integral = (
            s * N ** (1.0 - s) * (math.log(N) / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
            + math.log(z) * N ** (1.0 - s) / (s - 1.0)
        ) / z
        g_n = (s * math.log(N) + math.log(z)) * N ** (-s) / z
        return head + integral - 0.5 * g_n

    def test_power_horizon_stability(self):
        # tail-bounded summation oracle: doubling the horizon moves the
        # estimate by < 1e-6, and it matches the closed form
        closed = kernel_entropy(make_power_kernel(0.5))
        est16 = self._tail_bounded_entropy(0.5, 1 << 16)
        est17 = self._tail_bounded_entropy(0.5, 1 << 17)
        assert abs(est17 - est16) <= 1e-6
        assert closed == pytest.approx(est17, abs=1e-6)


class TestOverlapKernel:
    def test_hand_inverted_masses(self):
        kernel = make_power_kernel(0.5)
        k1, k2 = kernel.mass_array(2)
        k2_masses = overlap_kernel(kernel, 8)
        assert k2_masses[0] == pytest.approx(k1**2, abs=1e-14)
        expected2 = (k2 + k1**2) ** 2 - k1**4
        assert k2_masses[1] == pytest.approx(expected2, abs=1e-14)

    def test_single_step_horizon(self):
        kernel = make_power_kernel(0.5)
        k2 = overlap_kernel(kernel, 1)
        assert k2.shape == (1,)
        assert k2[0] == pytest.approx(kernel.mass_array(1)[0] ** 2, abs=1e-15)
        assert not k2.flags.writeable

    def test_gap_law_matches_dp(self):
        kernel = make_power_kernel(0.5)
        n = 4096
        v = renewal_function_dp(kernel.mass_array(n), n) ** 2
        v[0] = 1.0
        k2_dp = kernel_from_renewal_function_dp(v, n)
        assert np.max(np.abs(overlap_kernel(kernel, n) - k2_dp)) <= 1e-12

    def test_partial_sums_nondecreasing(self):
        k2 = overlap_kernel(make_power_kernel(0.3), 2000)
        assert np.all(np.diff(np.cumsum(k2)) >= -1e-15)

    def test_total_mass_approaches_contact_probability(self):
        kernel = make_power_kernel(0.3)
        result = chi(kernel)
        k2 = overlap_kernel(kernel, 1 << 18)
        target = result.value / (result.value + 1.0)
        assert np.cumsum(k2)[-1] == pytest.approx(target, rel=0.01)

    def test_reconstructs_squared_returns(self):
        kernel = make_power_kernel(0.5)
        n = 512
        u = return_probabilities(kernel, n)
        v = u * u
        v[0] = 1.0
        k2 = overlap_kernel(kernel, n)
        for m in range(1, n + 1):
            recon = float(np.dot(k2[:m], v[m - 1 :: -1][:m]))
            assert abs(recon - v[m]) <= 1e-10

    def test_truncated_overlap_is_recurrent(self):
        base = truncate_kernel(make_power_kernel(0.3), 8)
        k2 = overlap_kernel(base, 20_000)
        assert 1.0 - np.cumsum(k2)[-1] <= 1e-6

    @settings(max_examples=20)
    @given(table_weights)
    def test_reconstruction_property(self, weights):
        kernel = random_table_kernel(weights)
        n = 60
        u = return_probabilities(kernel, n)
        v = u * u
        v[0] = 1.0
        k2 = overlap_kernel(kernel, n)
        for m in range(1, n + 1):
            recon = float(np.dot(k2[:m], v[m - 1 :: -1][:m]))
            assert abs(recon - v[m]) <= 1e-10


def test_return_probability_prefactor_at_large_n():
    kernel = make_power_kernel(0.5)
    u = return_probabilities(kernel, 100_000)
    value = u[100_000] * math.sqrt(100_000.0)
    assert value == pytest.approx(return_prefactor_limit(0.5), rel=1e-3)
