"""The power-series reciprocal against the O(N^2) dynamic programs, and
the polylogarithm behind the power kernel's fixed point."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinlab.errors import InvalidParameterError
from pinlab.kernels import make_power_kernel
from pinlab.series import (
    _SERIES_TERMS,
    _zeta_row,
    kernel_from_renewal_function_dp,
    next_fast_len,
    polylog_exp,
    power_series_inverse,
    renewal_function_dp,
    zeta,
    zeta_log_sum,
    zeta_tail,
)

from oracles import newton_rung


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


def renewal(masses, n, out=None, known=0):
    """``u_0..u_n`` as the library computes them: the reciprocal of
    ``1 - K(z)``, with ``K(j) = masses[j-1]`` (0 past the table), into
    ``out`` resumed from its first ``known`` entries."""
    return power_series_inverse(np.concatenate(([1.0], -masses[:n])), n + 1, out, known)


def with_head(head, length):
    """An output of ``length`` entries whose first ones are ``head``, and
    how many of them a call can resume from."""
    known = min(len(head), length)
    out = np.empty(length)
    out[:known] = head[:known]
    return out, known


class TestAgainstDynamicPrograms:
    @settings(max_examples=60)
    @given(lengths, kernel_masses())
    def test_renewal_function(self, length, masses):
        n = length - 1
        u = renewal(masses, n)
        assert u.shape == (length,)
        assert np.max(np.abs(u - renewal_function_dp(masses, n))) <= 1e-12

    @settings(max_examples=60)
    @given(lengths, kernel_masses())
    def test_gap_law(self, length, masses):
        n = length - 1
        v = renewal_function_dp(masses, n) ** 2
        v[0] = 1.0
        k2 = -power_series_inverse(v, n + 1)[1:]
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
        head = renewal(masses, known - 1)
        resumed = renewal(masses, n, *with_head(head, length))
        assert resumed.shape == (length,)
        assert np.max(np.abs(resumed - renewal_function_dp(masses, n))) <= 1e-12

    @pytest.mark.parametrize("horizon", [1, 40, 64, 100, 2048])
    def test_doubled_horizon_is_the_fresh_result(self, horizon):
        # the rungs below 2h - 1 coefficients are those of a call at h
        masses = make_power_kernel(0.3).mass_array(2 * horizon)
        head = renewal(masses, horizon)
        np.testing.assert_array_equal(
            renewal(masses, 2 * horizon, *with_head(head, 2 * horizon + 1)),
            renewal(masses, 2 * horizon),
        )

    def test_power_kernel_head_matches_fresh(self):
        masses = make_power_kernel(0.5).mass_array(5000)
        fresh = renewal(masses, 5000)
        for known in (1, 2, 65, 700, 2501, 4999):
            resumed = renewal(masses, 5000, *with_head(renewal(masses, known - 1), 5001))
            assert np.max(np.abs(resumed - fresh)) <= 1e-14

    def test_long_head_is_cut(self):
        # a longer out: the call reads and writes its first n entries only
        a = np.concatenate(([1.0], -make_power_kernel(0.5).mass_array(99)))
        head = power_series_inverse(a, 100)
        out = head.copy()
        v = power_series_inverse(a, 37, out, 37)
        assert v.shape == (37,)
        np.testing.assert_array_equal(v, head[:37])
        np.testing.assert_array_equal(out, head)
        assert np.max(np.abs(v - power_series_inverse(a, 37))) <= 1e-14

    def test_result_is_a_view_of_out(self):
        # grown in place between horizons, as chi grows its returns
        masses = make_power_kernel(0.5).mass_array(4096)
        out = np.empty(2049)
        assert np.shares_memory(renewal(masses, 2048, out), out)
        out.resize(4097)
        assert np.shares_memory(renewal(masses, 4096, out, 2049), out)
        np.testing.assert_array_equal(out, renewal(masses, 4096))


def power_series_a(alpha, n):
    """``1 - K(z)`` to ``n`` coefficients for the power kernel at ``alpha``."""
    return np.concatenate(([1.0], -make_power_kernel(alpha).mass_array(n - 1)))


def assert_same_bits(x, y):
    np.testing.assert_array_equal(x.view(np.int64), y.view(np.int64))


class TestRung:
    # the last rung's spectrum is 162 KB at 20001 and above 256 KiB at 40001
    # and 2^17 + 1, so on both sides of the size from which numpy's
    # temporary elision would reorder an unnamed product's operands
    @pytest.mark.parametrize("n", [20001, 40001, (1 << 17) + 1])
    @pytest.mark.parametrize("alpha", [0.3, 1.5])
    def test_last_rung_is_the_explicit_order_reference(self, alpha, n):
        a = power_series_a(alpha, n)
        head = power_series_inverse(a, (n + 1) // 2)
        assert_same_bits(power_series_inverse(a, n), newton_rung(a, head, n))

    def test_resumed_rungs_across_the_elision_size(self):
        n = 40001
        a = power_series_a(0.3, n)
        head = power_series_inverse(a, 10001)
        expected = newton_rung(a, newton_rung(a, head, 20001), n)
        assert_same_bits(power_series_inverse(a, n, *with_head(head, n)), expected)

    @pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
    def test_working_memory_is_v_and_three_fft_arrays(self, resumed):
        n = (1 << 18) + 1
        a = power_series_a(0.3, n)
        out, known = None, 0
        if resumed:
            out, known = with_head(power_series_inverse(a, (n + 1) // 2), n)
        tracemalloc.start()
        try:
            power_series_inverse(a, n, out, known)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 4.0 fresh, and 3.0 resumed into an out allocated before tracing; a
        # fourth FFT-length array, or a copy of the head kept through the
        # rungs, reads 0.5 more or above
        assert peak <= (3.25 if resumed else 4.25) * 8 * next_fast_len(n)


class TestRejects:
    def test_zero_constant_term(self):
        with pytest.raises(ValueError):
            power_series_inverse(np.array([0.0, 1.0]), 4)

    def test_no_coefficients(self):
        with pytest.raises(ValueError):
            power_series_inverse(np.array([1.0, -0.5]), 0)

    @pytest.mark.parametrize(
        "out_length, known, message, dtype",
        [
            (None, 1, "known coefficients need an out array", float),
            (None, -1, "known coefficients need an out array", float),
            (10, -1, r"needs 0 <= known <= n <= len\(out\), got known -1, n 10", float),
            (10, 11, r"needs 0 <= known <= n <= len\(out\), got known 11, n 10", float),
            (9, 0, r"needs 0 <= known <= n <= len\(out\), got known 0, n 10, len\(out\) 9",
             float),
            (9, 9, r"needs 0 <= known <= n <= len\(out\), got known 9, n 10, len\(out\) 9",
             float),
            (10, 0, "needs a float64 out, got float32", np.float32),
        ],
        ids=["known-no-out", "negative-no-out", "negative", "past-n", "short-out",
             "short-out-known", "float32-out"],
    )
    def test_bad_known_or_out(self, out_length, known, message, dtype):
        out = None if out_length is None else np.zeros(out_length, dtype=dtype)
        with pytest.raises(InvalidParameterError, match=message):
            power_series_inverse(np.array([1.0, -0.5]), 10, out, known)


class TestNextFastLen:
    def test_every_length_up_to_2_16_is_scipys(self):
        scipy_fft = pytest.importorskip("scipy.fft")
        for n in range(1, (1 << 16) + 1):
            assert next_fast_len(n) == scipy_fft.next_fast_len(n, real=True), n

    def test_around_every_5_smooth_length_up_to_2_21(self):
        scipy_fft = pytest.importorskip("scipy.fft")
        limit = 1 << 21
        smooth = [
            p2 * p3 * p5
            for p5 in (5**c for c in range(10))
            for p3 in (3**b for b in range(14))
            for p2 in (2**a for a in range(22))
            if p2 * p3 * p5 <= limit
        ]
        for m in smooth:
            for n in (m - 1, m, m + 1):
                if n >= 1:
                    assert next_fast_len(n) == scipy_fft.next_fast_len(n, real=True), n


class TestZeta:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.5])
    def test_series_row_arguments_against_mpmath(self, alpha):
        # zeta(1 + alpha - k) for every k the polylog series reads: the
        # reflection formula below 0, Euler-Maclaurin above
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for k in range(_SERIES_TERMS):
                s = 1.0 + alpha - k
                want = float(mp.zeta(s))
                assert zeta(s) == pytest.approx(want, rel=1e-12, abs=0.0), s

    def test_pole_and_trivial_zeros(self):
        assert zeta(1.0) == math.inf
        assert zeta(0.0) == -0.5
        assert zeta(-1e-20) == -0.5
        assert zeta(-2.0) == 0.0
        assert zeta(-200.0) == 0.0

    @pytest.mark.parametrize("s", [1.05, 1.3, 2.0, 2.5])
    def test_tail_against_mpmath(self, s):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for n0 in (1, 2, 64, 8193, 10**6):
                want = float(mp.zeta(s, n0))
                assert zeta_tail(s, n0) == pytest.approx(want, rel=1e-14, abs=0.0), n0

    @pytest.mark.parametrize("s", [1.01, 1.1, 1.3, 1.5, 1.7, 2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0])
    def test_log_sum_against_mpmath(self, s):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            want = float(-mp.zeta(s, derivative=1))
        assert zeta_log_sum(s) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("s", [1.0, 0.5, math.nan])
    def test_log_sum_rejects_s_at_most_one(self, s):
        with pytest.raises(InvalidParameterError):
            zeta_log_sum(s)


class TestPolylog:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0, 2.0])
    def test_zeta_row_is_the_scalar_zeta(self, alpha):
        # alpha 1.0 and 2.0 give integer orders, whose row holds zeta(1) = inf
        s = 1.0 + alpha
        row = _zeta_row(s)
        assert len(row) == 256
        for k, value in enumerate(row):
            assert value == zeta(s - k), k

    @pytest.mark.parametrize("s", [1.3, 1.7, 2.0, 3.0])
    def test_against_mpmath(self, s):
        # f = 0.69 and 0.7 sit either side of the series/direct switch
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for f in (1e-3, 0.05, 0.3, 0.69, 0.7, 3.0):
                expected = float(mp.polylog(s, mp.exp(-mp.mpf(f))))
                assert polylog_exp(s, f) == pytest.approx(expected, rel=1e-14, abs=0.0), f

    def test_underflowing_terms_end_the_direct_sum(self):
        assert polylog_exp(1.3, 800.0) == 0.0
        assert 0.0 < polylog_exp(1.3, 740.0) <= math.exp(-739.0)

    @pytest.mark.parametrize("f", [float("nan"), -1e-3])
    def test_rejects_nan_and_negative(self, f):
        with pytest.raises(InvalidParameterError):
            polylog_exp(1.5, f)
