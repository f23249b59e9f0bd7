"""The exact periodic-charge oracle and the quenched layer against it.

Charges ``w_i = pattern[i mod p]`` have an exact free energy and critical
bias (``oracles.periodic_free_energy``, ``oracles.periodic_critical_bias``).
Each is first checked against a computation that shares none of its steps,
then used as ground truth for the quenched DP and the critical-point search.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from pinlab.disorder import rademacher_disorder
from pinlab.kernels import make_geometric_kernel, make_power_kernel, make_table_kernel
from pinlab.quenched import partition_function_log, quenched_critical_point

from oracles import periodic_critical_bias, periodic_free_energy

PATTERNS = ([1, -1], [1, 1, -1], [1, -1, -1, 1, -1])
BETAS = (0.5, 1.0, 2.0)
TABLE = [0.2, 0.5, 0.3]


def _power_kernel(alpha):
    pytest.importorskip("mpmath")
    return make_power_kernel(alpha)


def _transfer_growth(masses, pattern, beta, h):
    """The growth rate ``lim log Z_n / n`` of the pinned partition sum of a
    finitely supported kernel, over periods of the pattern: ``log rho(M) / p``
    for ``M`` the product of one period of the recursion's companion
    matrices on ``(Z_m, ..., Z_{m-L+1})``.  It may be negative: the exact
    free energy is its positive part."""
    width, period = len(masses), len(pattern)
    product = np.eye(width)
    for m in range(period):
        step = np.eye(width, k=-1)
        phases = (m - np.arange(width)) % period
        step[0] = np.asarray(masses) * np.exp(beta * np.asarray(pattern, dtype=float)[phases] - h)
        product = step @ product
    return math.log(np.max(np.abs(np.linalg.eigvals(product)))) / period


def _periodic_weights(pattern, beta, h, n):
    return beta * np.resize(np.asarray(pattern, dtype=float), n) - h


class TestOracle:
    @pytest.mark.parametrize("p", [0.3, 0.7])
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_geometric_matches_long_table(self, p, pattern):
        # the closed-form residue sums against the finite ones of the kernel
        # cut where its mass falls below 1e-17
        kernel = make_geometric_kernel(p)
        length = math.ceil(math.log(1e-17) / math.log1p(-p))
        table = make_table_kernel(kernel.mass_array(length))
        for beta in BETAS:
            h_c = periodic_critical_bias(kernel, pattern, beta)
            assert abs(h_c - periodic_critical_bias(table, pattern, beta)) <= 1e-12
            for h in (h_c - 0.5, h_c - 0.05, h_c + 0.1):
                got = periodic_free_energy(kernel, pattern, beta, h)
                assert abs(got - periodic_free_energy(table, pattern, beta, h)) <= 1e-12

    @pytest.mark.parametrize("masses", [TABLE, [0.5, 0.0, 0.25, 0.25]])
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_table_matches_transfer_product(self, masses, pattern):
        kernel = make_table_kernel(masses)
        for beta in BETAS:
            h_c = periodic_critical_bias(kernel, pattern, beta)
            edges = beta * min(pattern) - 1.0, beta * max(pattern) + 1.0
            root = brentq(lambda h: _transfer_growth(masses, pattern, beta, h), *edges,
                          xtol=1e-15)
            assert abs(h_c - root) <= 1e-12
            for h in (h_c - 0.5, h_c - 0.05, h_c + 0.1):
                want = max(_transfer_growth(masses, pattern, beta, h), 0.0)
                assert abs(periodic_free_energy(kernel, pattern, beta, h) - want) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 1.5])
    def test_power_is_invariant_under_repeat_and_shift(self, alpha):
        # Hurwitz and Lerch sums at period 2 against those at period 4, and
        # the Perron root of a cyclically shifted pattern
        kernel = _power_kernel(alpha)
        h_c = periodic_critical_bias(kernel, [1, -1], 1.0)
        for pattern in ([1, -1, 1, -1], [-1, 1]):
            assert abs(periodic_critical_bias(kernel, pattern, 1.0) - h_c) <= 1e-12
        f = periodic_free_energy(kernel, [1, -1], 1.0, -0.5)
        assert f > 0.0
        assert abs(periodic_free_energy(kernel, [1, -1, 1, -1], 1.0, -0.5) - f) <= 1e-12
        assert periodic_free_energy(kernel, [1, -1], 1.0, h_c + 0.1) == 0.0


# (kernel, pattern, beta, h, C): C is n (F - log Z_n / n) at the first size,
# n = p floor(1024 / p), times 1.01 and rounded up (0.8663, 2.2161, 0.8818
# and 0.1137 before the margin)
DP_CASES = [
    ("power", [1, -1], 1.0, -0.5, 0.876),
    ("power", [1, -1], 1.0, 0.0, 2.239),
    ("geometric", [1, 1, -1], 0.5, 0.0, 0.891),
    ("table", [1, -1, -1, 1, -1], 1.0, 0.0, 0.115),
]


def _kernel(family):
    if family == "power":
        return _power_kernel(0.3)
    if family == "geometric":
        return make_geometric_kernel(0.3)
    return make_table_kernel(TABLE)


class TestQuenchedAgainstExact:
    @pytest.mark.parametrize("family, pattern, beta, h, c", DP_CASES)
    def test_dp_gap_is_within_c_over_n(self, family, pattern, beta, h, c):
        # for n a multiple of p, log Z_n is superadditive, so log Z_n / n
        # stays at or below F; the gap closes as C / n
        kernel = _kernel(family)
        exact = periodic_free_energy(kernel, pattern, beta, h)
        assert exact > 0.0
        for size in (1024, 4096, 16384, 65536):
            n = len(pattern) * (size // len(pattern))
            gap = exact - partition_function_log(kernel, _periodic_weights(pattern, beta, h, n)) / n
            assert 0.0 <= gap <= c / n, (n, gap * n)

    @pytest.mark.parametrize("family", ["power", "geometric", "table"])
    def test_search_lower_edge_is_below_exact(self, family):
        # localized declarations are sound, so the lower edge never passes
        # h_c; the upper edge is a finite-size surrogate and is not checked
        kernel = _kernel(family)
        for pattern in PATTERNS:
            n = len(pattern) * (1024 // len(pattern))
            # eight replicas, each a phase shift of the pattern, at 2n
            charges = np.array([np.roll(_periodic_weights(pattern, 1.0, 0.0, 2 * n), -r)
                                for r in range(8)])
            brackets = quenched_critical_point(
                kernel, rademacher_disorder(), list(BETAS), charges, 0.005
            )
            for beta, bracket in zip(BETAS, brackets):
                assert bracket.h_lo <= periodic_critical_bias(kernel, pattern, beta), (
                    pattern, beta
                )
