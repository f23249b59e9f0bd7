"""Return-time laws: construction, renewal recursion, chi, truncation,
entropy, and the joint-return kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinlab.errors import InvalidParameterError, UndecidedError
from pinlab.kernels import (
    chi,
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

from oracles import return_prefactor_limit, loglog_slope, power_kernel_tail_integral_bound, zeta_direct


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
        assert kernel.mass(1) == pytest.approx(1.0 / zeta_direct(1.5), abs=1e-12)
        assert kernel.mass(1) == pytest.approx(0.382793, abs=5e-7)

    def test_mass_ratio_is_exact(self):
        kernel = make_power_kernel(1.0)
        assert kernel.mass(1) / kernel.mass(2) == pytest.approx(4.0, abs=1e-14)

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
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidParameterError):
                make_power_kernel(bad)

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
            for n in (1, 2, 3, 9):
                assert clone.mass(n) == pytest.approx(kernel.mass(n), abs=1e-15)

    def test_json_rejects_unread_field(self):
        with pytest.raises(InvalidParameterError, match="n_cap"):
            kernel_from_json({"family": "power", "alpha": 0.3, "n_cap": 100})


class TestReturnProbabilities:
    def test_boundary_values(self):
        kernel = make_power_kernel(0.5)
        expected = [1.0, kernel.mass(1), kernel.mass(2) + kernel.mass(1) ** 2]
        for n in (0, 1, 2):
            rp = return_probabilities(kernel, n)
            assert rp.horizon == n
            assert rp.u.shape == (n + 1,)
            assert rp.u[0] == 1.0
            np.testing.assert_allclose(rp.u, expected[: n + 1], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5])
    def test_recursion_residual(self, alpha):
        kernel = make_power_kernel(alpha)
        n = 600
        rp = return_probabilities(kernel, n)
        masses = kernel.mass_array(n)
        for m in range(1, n + 1):
            recon = float(np.dot(masses[:m][::-1], rp.u[:m]))
            assert abs(rp.u[m] - recon) <= 1e-14

    def test_fft_matches_dp(self):
        kernel = make_power_kernel(0.5)
        n = 4096
        u_dp = renewal_function_dp(kernel.mass_array(n), n)
        u_fft = return_probabilities(kernel, n).u
        assert np.max(np.abs(u_dp - u_fft)) <= 1e-12

    def test_geometric_returns_are_flat(self):
        rp = return_probabilities(make_geometric_kernel(0.5), 200)
        assert np.max(np.abs(rp.u[1:] - 0.5)) <= 1e-13

    def test_bounds(self):
        rp = return_probabilities(make_table_kernel([0.0, 0.6, 0.4]), 300)
        assert np.all(rp.u >= -1e-15)
        assert np.all(rp.u <= 1.0 + 1e-12)

    @settings(max_examples=25)
    @given(table_weights)
    def test_recursion_residual_property(self, weights):
        kernel = random_table_kernel(weights)
        n = 80
        rp = return_probabilities(kernel, n)
        masses = kernel.mass_array(n)
        for m in range(1, n + 1):
            recon = float(np.dot(masses[:m][::-1], rp.u[:m]))
            assert abs(rp.u[m] - recon) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    def test_return_probability_decay_exponent(self, alpha):
        kernel = make_power_kernel(alpha)
        rp = return_probabilities(kernel, 100_000)
        ns = np.unique(np.geomspace(1000, 100_000, 60).astype(int))
        slope = loglog_slope(ns, rp.u[ns])
        assert abs(slope - (alpha - 1.0)) <= 0.05


class TestChi:
    def test_geometric_diverges(self):
        result = chi(make_geometric_kernel(0.5))
        assert result.status == "infinite"
        assert math.isinf(result.value)

    def test_alpha_030_finite_and_stable(self):
        a = chi(make_power_kernel(0.3), tolerance=1e-2, start_horizon=1 << 16, max_horizon=1 << 16)
        b = chi(make_power_kernel(0.3), tolerance=1e-2, start_horizon=1 << 17, max_horizon=1 << 17)
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
            chi(
                make_power_kernel(0.3),
                tolerance=1e-9,
                start_horizon=1 << 14,
                max_horizon=1 << 15,
            )
        assert info.value.required_horizon is not None
        assert info.value.required_horizon > (1 << 15)

    def test_exhausted_budget_reports_required_horizon(self):
        from pinlab.errors import PrecisionError

        with pytest.raises(PrecisionError) as info:
            chi(make_power_kernel(0.4))
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
        fresh = chi(kernel, tolerance=tolerance, start_horizon=horizon, max_horizon=horizon)
        assert fresh.status == status
        for field in ("value", "partial_sum", "fitted_decay"):
            # equal infinities and NaNs (the undecided value) count as equal
            np.testing.assert_allclose(
                getattr(result, field), getattr(fresh, field), rtol=1e-12, err_msg=field
            )


class TestTruncation:
    def test_all_mass_at_one(self):
        ktr = truncate_kernel(make_power_kernel(0.5), 1)
        assert ktr.mass(1) == pytest.approx(1.0, abs=1e-15)
        assert ktr.mass(2) == 0.0

    def test_two_point_truncation(self):
        kernel = make_power_kernel(0.5)
        ktr = truncate_kernel(kernel, 2)
        assert ktr.mass(1) == pytest.approx(kernel.mass(1), abs=1e-15)
        assert ktr.mass(2) == pytest.approx(1.0 - kernel.mass(1), abs=1e-14)

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
        k1, k2 = kernel.mass(1), kernel.mass(2)
        ov = overlap_kernel(kernel, 8)
        assert ov.masses[0] == pytest.approx(k1**2, abs=1e-14)
        expected2 = (k2 + k1**2) ** 2 - k1**4
        assert ov.masses[1] == pytest.approx(expected2, abs=1e-14)

    def test_single_step_horizon(self):
        kernel = make_power_kernel(0.5)
        ov = overlap_kernel(kernel, 1)
        assert ov.masses.shape == (1,)
        assert ov.masses[0] == pytest.approx(kernel.mass(1) ** 2, abs=1e-15)
        assert ov.l2(1) == ov.masses[0]

    def test_gap_law_matches_dp(self):
        kernel = make_power_kernel(0.5)
        n = 4096
        v = renewal_function_dp(kernel.mass_array(n), n) ** 2
        v[0] = 1.0
        k2_dp = kernel_from_renewal_function_dp(v, n)
        assert np.max(np.abs(overlap_kernel(kernel, n).masses - k2_dp)) <= 1e-12

    def test_partial_sums_nondecreasing(self):
        ov = overlap_kernel(make_power_kernel(0.3), 2000)
        assert np.all(np.diff(ov.partial_sums) >= -1e-15)

    def test_total_mass_approaches_contact_probability(self):
        kernel = make_power_kernel(0.3)
        result = chi(kernel)
        ov = overlap_kernel(kernel, 1 << 18)
        target = result.value / (result.value + 1.0)
        assert ov.l2(1 << 18) == pytest.approx(target, rel=0.01)

    def test_reconstructs_squared_returns(self):
        kernel = make_power_kernel(0.5)
        n = 512
        rp = return_probabilities(kernel, n)
        v = rp.u * rp.u
        v[0] = 1.0
        ov = overlap_kernel(kernel, n)
        for m in range(1, n + 1):
            recon = float(np.dot(ov.masses[:m], v[m - 1 :: -1][:m]))
            assert abs(recon - v[m]) <= 1e-10

    def test_truncated_overlap_is_recurrent(self):
        base = truncate_kernel(make_power_kernel(0.3), 8)
        ov = overlap_kernel(base, 20_000)
        assert 1.0 - ov.l2(20_000) <= 1e-6

    @settings(max_examples=20)
    @given(table_weights)
    def test_reconstruction_property(self, weights):
        kernel = random_table_kernel(weights)
        n = 60
        rp = return_probabilities(kernel, n)
        v = rp.u * rp.u
        v[0] = 1.0
        ov = overlap_kernel(kernel, n)
        for m in range(1, n + 1):
            recon = float(np.dot(ov.masses[:m], v[m - 1 :: -1][:m]))
            assert abs(recon - v[m]) <= 1e-10


def test_return_probability_prefactor_at_large_n():
    kernel = make_power_kernel(0.5)
    rp = return_probabilities(kernel, 100_000)
    value = rp.u[100_000] * math.sqrt(100_000.0)
    assert value == pytest.approx(return_prefactor_limit(0.5), rel=1e-3)
