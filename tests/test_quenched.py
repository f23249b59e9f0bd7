"""Quenched DP, Monte Carlo estimates, streams, and the critical bracket."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from pinlab import quenched

from pinlab.disorder import gaussian_disorder, log_mgf, rademacher_disorder, sample
from pinlab.errors import InvalidParameterError
from pinlab.homopolymer import annealed_free_energy
from pinlab.kernels import make_power_kernel, make_table_kernel
from pinlab.oracles import annealed_partition_check, pinned_partition_log
from pinlab.quenched import (
    PolymerParams,
    QuenchedSearchConfig,
    dp_log_partition,
    log_mass_vector,
    partition_function_log,
    quenched_critical_point,
    quenched_free_energy,
)
from pinlab.rng import RngStream, derive_stream

from oracles import partition_log_brute, partition_log_recursion


KERNEL = make_power_kernel(0.5)
GAUSS = gaussian_disorder()


def homopolymer_log_reference(lam, n):
    """``log Z_n`` of the homogeneous chain, by the independent recursion."""
    return partition_log_recursion(np.log(KERNEL.mass_array(n)), [lam] * n)[n]


def params(**kw):
    defaults = dict(
        kernel=KERNEL, disorder=GAUSS, beta=1.0, h=0.2, n=8, replicas=2, base_seed=0
    )
    defaults.update(kw)
    return PolymerParams(**defaults)


class TestPartitionFunction:
    def test_single_site(self):
        p = params(n=1)
        omega = np.array([0.37])
        want = p.beta * 0.37 - p.h + math.log(KERNEL.mass(1))
        assert partition_function_log(p, omega) == pytest.approx(want, abs=1e-13)

    def test_two_sites(self):
        p = params(n=2)
        omega = np.array([0.37, -0.61])
        k1, k2 = KERNEL.mass(1), KERNEL.mass(2)
        w0 = math.exp(p.beta * omega[0] - p.h)
        w1 = math.exp(p.beta * omega[1] - p.h)
        want = math.log(k2 * w0 + k1 * k1 * w0 * w1)
        assert partition_function_log(p, omega) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_enumeration(self, n):
        stream = derive_stream(123, n)
        omega = stream.normal(n)
        p = params(n=n, beta=0.8, h=-0.1)
        got = partition_function_log(p, omega)
        want = partition_log_brute(KERNEL.mass_array(n), 0.8, -0.1, omega)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_package_oracle_matches_enumeration(self, n):
        # pinlab.oracles backs `pinlab validate`; a zero mass exercises the skipped gaps
        masses = np.array([0.4, 0.0, 0.6])
        weights = 0.8 * derive_stream(321, n).normal(n) - 0.1
        got = pinned_partition_log(masses, weights)
        want = partition_log_brute(masses, 1.0, 0.0, weights)
        assert got == pytest.approx(want, abs=1e-12)

    def test_beta_zero_equals_homopolymer(self):
        for n in range(1, 13):
            p = params(n=n, beta=0.0, h=-0.3)
            omega = np.zeros(n)
            got = partition_function_log(p, omega)
            want = homopolymer_log_reference(0.3, n)
            assert got == pytest.approx(want, abs=1e-12)

    def test_empty_chain(self):
        got = dp_log_partition(np.empty(0), np.empty((2, 0)))
        np.testing.assert_array_equal(got, np.zeros((2, 1)))

    def test_requires_enough_charges(self):
        with pytest.raises(InvalidParameterError):
            partition_function_log(params(n=4), np.zeros(3))

    def test_single_excursion_lower_bound(self):
        p = params(n=48, replicas=8, beta=1.3, h=0.5, base_seed=5)
        for r in range(p.replicas):
            omega = sample(p.disorder, derive_stream(p.base_seed, r), p.n)
            log_z = partition_function_log(p, omega)
            floor = p.beta * omega[0] - p.h + math.log(KERNEL.mass(p.n))
            assert log_z >= floor - 1e-12

    def test_monotone_in_h_at_fixed_charges(self):
        omega = derive_stream(77, 0).normal(64)
        values = [
            partition_function_log(params(n=64, h=h), omega)
            for h in (-0.5, -0.1, 0.0, 0.4, 1.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def assert_matches_recursion(log_k, weights, band):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dp_log_partition(log_k, weights, band=band)
    assert got.shape == (weights.shape[0], weights.shape[1] + 1)
    for row, w in zip(got, weights):
        want = np.array(partition_log_recursion(log_k, w, band))
        zero = want == -np.inf
        np.testing.assert_array_equal(row[zero], want[zero])
        assert np.all(np.isfinite(row[~zero]))
        err = np.abs(row[~zero] - want[~zero]) / np.maximum(1.0, np.abs(want[~zero]))
        assert err.max(initial=0.0) <= 1e-12


def charges(seed, replicas, n):
    return np.array([derive_stream(seed, r).normal(n) for r in range(replicas)])


GAPPED_TABLES = [
    [0.0, 0.3, 0.0, 0.0, 0.2, 0.5],
    [0.0, 0.0, 0.6, 0.0, 0.0, 0.0, 0.4],
    [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
]
sizes = st.integers(min_value=1, max_value=200)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
bands = st.none() | st.integers(min_value=1, max_value=40)


class TestScaledRecursionExtremes:
    """The scaled DP against the plain log-domain recursion, warnings fatal.

    Errors are relative to ``max(1, |log Z_m|)``, so 1e-12 is absolute where
    ``log Z_m`` is near zero.
    """

    @settings(max_examples=30)
    @given(st.floats(0.0, 300.0), st.floats(-5.0, 5.0), sizes, seeds, bands)
    def test_large_beta_gaussian(self, beta, h, n, seed, band):
        weights = beta * charges(seed, 3, n) - h
        assert_matches_recursion(log_mass_vector(KERNEL, n), weights, band)

    @settings(max_examples=30)
    @given(st.floats(0.0, 2.0), st.floats(-800.0, 800.0), sizes, seeds, bands)
    def test_extreme_bias(self, beta, h, n, seed, band):
        weights = beta * charges(seed, 3, n) - h
        assert_matches_recursion(log_mass_vector(KERNEL, n), weights, band)

    @settings(max_examples=30)
    @given(st.sampled_from(GAPPED_TABLES), st.floats(0.0, 50.0),
           st.floats(-800.0, 800.0), sizes, seeds, st.none() | st.integers(1, 10))
    @example(GAPPED_TABLES[1], 1.0, 0.0, 40, 0, 2)
    def test_gapped_table_kernel(self, table, beta, h, n, seed, band):
        # a band below the support's gaps leaves windows where every Z_j = 0
        weights = beta * charges(seed, 3, n) - h
        kernel = make_table_kernel(table)
        assert_matches_recursion(log_mass_vector(kernel, n), weights, band)

    @settings(max_examples=30)
    @given(st.integers(20, 200), st.data(), st.floats(-5000.0, -1000.0), seeds)
    def test_band_8_with_very_negative_stretch(self, n, data, low, seed):
        start = data.draw(st.integers(0, n - 1))
        stop = data.draw(st.integers(start + 1, n))
        weights = charges(seed, 2, n)
        weights[:, start:stop] = low
        assert_matches_recursion(log_mass_vector(KERNEL, n), weights, 8)

    @settings(max_examples=20)
    @given(st.integers(0, 3), st.integers(60, 200), seeds)
    def test_rescue_only_for_replica_that_needs_it(self, victim, n, seed):
        # eight sites of weight -1500 empty the band-8 window of every term
        # that survives the linear scale, so only the victim's sum is zero
        weights = charges(seed, 4, n)
        weights[victim, 30:40] = -1500.0
        with mock.patch.object(quenched, "_log_step", wraps=quenched._log_step) as spy:
            assert_matches_recursion(log_mass_vector(KERNEL, n), weights, 8)
        assert spy.call_count >= 1
        for call in spy.call_args_list:
            assert list(call.args[3]) == [victim]


class TestQuenchedFreeEnergy:
    def test_beta_zero_deterministic(self):
        p = params(beta=0.0, h=-0.2, n=64, replicas=4)
        est = quenched_free_energy(p)
        assert est.stderr == 0.0
        want = homopolymer_log_reference(0.2, 64) / 64
        assert est.mean == pytest.approx(want, abs=1e-13)

    def test_bitwise_reproducible(self):
        p = params(n=128, replicas=6, base_seed=99)
        a = quenched_free_energy(p)
        b = quenched_free_energy(p)
        assert a.mean == b.mean
        assert a.stderr == b.stderr
        np.testing.assert_array_equal(a.per_replica, b.per_replica)

    def test_quenched_below_annealed(self):
        p = params(beta=1.0, h=0.3, n=512, replicas=16, base_seed=11)
        est = quenched_free_energy(p)
        f_ann = annealed_free_energy(KERNEL, GAUSS, 1.0, 0.3).f
        assert est.mean <= f_ann + 3.0 * est.stderr

    def test_annealed_domination_of_mean_partition(self):
        # mean of Z_n itself (not log) matches the annealed value within
        # Monte Carlo error
        n, reps = 48, 300
        p = params(beta=0.6, h=0.1, n=n, replicas=reps, base_seed=21)
        zs = np.array(
            [
                math.exp(
                    partition_function_log(
                        p, sample(p.disorder, derive_stream(p.base_seed, r), n)
                    )
                )
                for r in range(reps)
            ]
        )
        lam = log_mgf(GAUSS, 0.6) - 0.1
        annealed = math.exp(homopolymer_log_reference(lam, n))
        stderr = zs.std(ddof=1) / math.sqrt(reps)
        assert abs(zs.mean() - annealed) <= 4.0 * stderr


class TestAnnealedPartitionCheck:
    def test_single_site_identity(self):
        ok, lhs, rhs = annealed_partition_check(
            KERNEL, rademacher_disorder(), beta=0.9, h=0.3, n=1
        )
        assert ok
        want = KERNEL.mass(1) * math.exp(log_mgf(rademacher_disorder(), 0.9) - 0.3)
        assert lhs == pytest.approx(want, abs=1e-12)

    def test_three_site_identity(self):
        ok, lhs, rhs = annealed_partition_check(
            KERNEL, rademacher_disorder(), beta=0.7, h=0.2, n=3
        )
        assert ok
        assert abs(lhs - rhs) <= 1e-10

    def test_beta_zero_trivial(self):
        ok, lhs, rhs = annealed_partition_check(
            KERNEL, rademacher_disorder(), beta=0.0, h=0.1, n=4
        )
        assert ok
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_rejects_gaussian(self):
        with pytest.raises(InvalidParameterError):
            annealed_partition_check(KERNEL, GAUSS, beta=0.5, h=0.0, n=3)


class TestStreams:
    def test_distinct_indices_differ(self):
        a = derive_stream(5, 0).uniform(8)
        b = derive_stream(5, 1).uniform(8)
        assert not np.array_equal(a, b)

    def test_same_address_same_stream(self):
        a = derive_stream(5, 3).uniform(8)
        b = derive_stream(5, 3).uniform(8)
        np.testing.assert_array_equal(a, b)

    def test_state_roundtrip(self):
        s = derive_stream(17, 4)
        s.uniform(10)
        clone = RngStream.from_state(s.state())
        np.testing.assert_array_equal(s.uniform(5), clone.uniform(5))
        assert clone.position == s.position

    def test_first_outputs_uniform_chi_square(self):
        firsts = np.array([derive_stream(31337, i).uniform(1)[0] for i in range(1000)])
        counts, _ = np.histogram(firsts, bins=10, range=(0.0, 1.0))
        _, pvalue = chisquare(counts)
        assert pvalue > 0.01


class TestCriticalPoint:
    def test_beta_zero_bracket_contains_zero(self):
        # light version of the acceptance run: order-1 kernel, small n
        kernel = make_power_kernel(1.5)
        cfg = QuenchedSearchConfig(n=1024, replicas=1, base_seed=0, target_width=0.004)
        bracket = quenched_critical_point(kernel, GAUSS, 0.0, cfg)
        assert bracket.h_lo <= 0.0 <= bracket.h_hi
        assert bracket.width <= 0.04
        assert not bracket.undecided
        assert set(bracket.diagnostics) == {"h_lo", "h_hi"}
        assert bracket.diagnostics["h_lo"]["n2"] == 2048

    def test_upper_edge_below_annealed_curve(self):
        kernel = make_power_kernel(1.5)
        cfg = QuenchedSearchConfig(n=512, replicas=8, base_seed=3, target_width=0.01)
        bracket = quenched_critical_point(kernel, GAUSS, 0.6, cfg)
        h_ann = log_mgf(GAUSS, 0.6)
        assert bracket.h_hi <= h_ann + bracket.width
        assert bracket.h_lo <= h_ann

    def test_charges_drawn_once_per_size(self):
        kernel = make_power_kernel(1.5)
        cfg = QuenchedSearchConfig(n=64, replicas=3, base_seed=4, target_width=0.05)
        with mock.patch.object(quenched, "sample", wraps=quenched.sample) as spy:
            bracket = quenched_critical_point(kernel, GAUSS, 0.6, cfg)
        drawn = sorted(call.args[2] for call in spy.call_args_list)
        assert drawn == [64] * 3 + [128] * 3
        for label, diag in bracket.diagnostics.items():
            for n, key in ((64, "mean"), (128, "mean_2n")):
                redrawn = quenched_free_energy(PolymerParams(
                    kernel=kernel, disorder=GAUSS, beta=0.6, h=diag["h"], n=n,
                    replicas=3, base_seed=4,
                ))
                assert redrawn.mean == diag[key], (label, key)

    def test_rejects_charges_of_wrong_shape(self):
        with pytest.raises(InvalidParameterError):
            quenched_free_energy(params(n=8, replicas=2), charges=np.zeros((2, 7)))

    def test_positive_bias_needed_at_positive_beta(self):
        # with disorder switched on, localization survives a strictly
        # positive bias, so the bracket's reliable lower edge is positive
        cfg = QuenchedSearchConfig(n=2048, replicas=16, base_seed=6, target_width=0.05)
        bracket = quenched_critical_point(KERNEL, GAUSS, 1.0, cfg)
        assert bracket.h_lo > 0.0
        assert not bracket.undecided
