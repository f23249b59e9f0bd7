"""The power-series reciprocal against the O(N^2) dynamic programs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinlab.kernels import make_power_kernel
from pinlab.series import (
    kernel_from_renewal_function,
    kernel_from_renewal_function_dp,
    power_series_inverse,
    renewal_function,
    renewal_function_dp,
)


def _odd_primes(limit):
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return [int(p) for p in np.nonzero(sieve)[0] if p > 2]


# coefficient counts of the reciprocal: the rung edge cases and odd primes,
# whose halving chains pass through every parity
LENGTHS = sorted(
    {1, 2, 3}
    | {2**k + d for k in range(2, 13) for d in (-1, 0, 1)}
    | set(_odd_primes(5000))
)
lengths = st.sampled_from(LENGTHS)


@st.composite
def kernel_masses(draw):
    """``K(1..)``: a power kernel, or a random table with gaps allowed."""
    if draw(st.booleans()):
        alpha = draw(st.floats(min_value=0.1, max_value=2.0))
        return make_power_kernel(alpha).mass_array(max(LENGTHS))
    weights = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0)),
            min_size=1,
            max_size=40,
        ).filter(lambda w: sum(w) > 0.0)
    )
    masses = np.asarray(weights) / sum(weights)
    return masses / masses.sum()


class TestAgainstDynamicPrograms:
    @settings(max_examples=60)
    @given(lengths, kernel_masses())
    def test_renewal_function(self, length, masses):
        n = length - 1
        u = renewal_function(masses, n)
        assert u.shape == (length,)
        assert np.max(np.abs(u - renewal_function_dp(masses, n))) <= 1e-12

    @settings(max_examples=60)
    @given(lengths, kernel_masses())
    def test_gap_law(self, length, masses):
        n = length - 1
        v = renewal_function_dp(masses, n) ** 2
        v[0] = 1.0
        k2 = kernel_from_renewal_function(v, n)
        assert k2.shape == (n,)
        if n:
            assert np.max(np.abs(k2 - kernel_from_renewal_function_dp(v, n))) <= 1e-12


class TestResume:
    @settings(max_examples=60)
    @given(lengths, kernel_masses(), st.integers(min_value=1, max_value=6000))
    def test_head_matches_fresh(self, length, masses, known):
        # for returns that do not decay (K(1) = 1 gives u = 1) the resumed and
        # the fresh inverse round apart by about 1e-14 at these lengths, so both
        # are held to the bound of a fresh inverse against the exact recursion
        n = length - 1
        head = renewal_function(masses, known - 1)
        resumed = renewal_function(masses, n, head)
        assert resumed.shape == (length,)
        assert np.max(np.abs(resumed - renewal_function_dp(masses, n))) <= 1e-12

    @pytest.mark.parametrize("horizon", [1, 40, 64, 100, 2048])
    def test_doubled_horizon_is_the_fresh_result(self, horizon):
        # the rungs below 2h - 1 coefficients are those of a call at h
        masses = make_power_kernel(0.3).mass_array(2 * horizon)
        head = renewal_function(masses, horizon)
        np.testing.assert_array_equal(
            renewal_function(masses, 2 * horizon, head), renewal_function(masses, 2 * horizon)
        )

    def test_power_kernel_head_matches_fresh(self):
        masses = make_power_kernel(0.5).mass_array(5000)
        fresh = renewal_function(masses, 5000)
        for known in (1, 2, 65, 700, 2501, 4999):
            resumed = renewal_function(masses, 5000, renewal_function(masses, known - 1))
            assert np.max(np.abs(resumed - fresh)) <= 1e-14

    def test_long_head_is_cut(self):
        a = np.concatenate(([1.0], -make_power_kernel(0.5).mass_array(99)))
        head = power_series_inverse(a, 100)
        v = power_series_inverse(a, 37, head)
        assert v.shape == (37,)
        np.testing.assert_array_equal(v, head[:37])
        assert np.max(np.abs(v - power_series_inverse(a, 37))) <= 1e-14


class TestRejects:
    def test_zero_constant_term(self):
        with pytest.raises(ValueError):
            power_series_inverse(np.array([0.0, 1.0]), 4)

    def test_no_coefficients(self):
        with pytest.raises(ValueError):
            power_series_inverse(np.array([1.0, -0.5]), 0)
