"""Quenched DP, Monte Carlo estimates, streams, and the critical bracket."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from pinlab import quenched

from pinlab.disorder import (
    continuous_disorder,
    discrete_disorder,
    gaussian_disorder,
    log_mgf,
    rademacher_disorder,
)
from pinlab.errors import InvalidParameterError, PrecisionError
from pinlab.homopolymer import annealed_free_energy
from pinlab.kernels import far_terms, make_geometric_kernel, make_power_kernel, make_table_kernel
from pinlab.oracles import annealed_partition_check, pinned_partition_log
from pinlab.quenched import (
    dp_log_partition,
    log_mass_vector,
    partition_function_log,
    quenched_critical_point,
    quenched_free_energy,
    replica_charges,
)
from pinlab.rng import RngStream, derive_stream

import oracles
from oracles import critical_point_sequential, partition_log_recursion


KERNEL = make_power_kernel(0.5)
GAUSS = gaussian_disorder()


def homopolymer_log_reference(lam, n):
    """``log Z_n`` of the homogeneous chain, by the independent recursion."""
    return partition_log_recursion(np.log(KERNEL.mass_array(n)), [lam] * n)[n]


class TestPartitionFunction:
    def test_single_site(self):
        beta, h = 1.0, 0.2
        omega = np.array([0.37])
        want = beta * 0.37 - h + math.log(KERNEL.mass_array(1)[0])
        assert partition_function_log(KERNEL, beta * omega - h) == pytest.approx(want, abs=1e-13)

    def test_two_sites(self):
        beta, h = 1.0, 0.2
        omega = np.array([0.37, -0.61])
        k1, k2 = KERNEL.mass_array(2)
        w0 = math.exp(beta * omega[0] - h)
        w1 = math.exp(beta * omega[1] - h)
        want = math.log(k2 * w0 + k1 * k1 * w0 * w1)
        assert partition_function_log(KERNEL, beta * omega - h) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_enumeration(self, n):
        stream = derive_stream(123, n)
        omega = stream.normal(n)
        got = partition_function_log(KERNEL, 0.8 * omega + 0.1)
        want = pinned_partition_log(KERNEL.mass_array(n), 0.8 * omega + 0.1)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_package_oracle_matches_enumeration(self, n):
        # pinlab.oracles backs `pinlab validate`; a zero mass exercises the
        # skipped gaps, and gaps past the table have no mass
        masses = [0.4, 0.0, 0.6]
        log_masses = [math.log(m) if m > 0.0 else -math.inf for m in masses + [0.0] * n]
        weights = 0.8 * derive_stream(321, n).normal(n) - 0.1
        got = pinned_partition_log(np.array(masses), weights)
        want = partition_log_recursion(log_masses, weights)[n]
        assert got == pytest.approx(want, abs=1e-12)

    def test_beta_zero_equals_homopolymer(self):
        for n in range(1, 13):
            got = partition_function_log(KERNEL, np.full(n, 0.3))
            want = homopolymer_log_reference(0.3, n)
            assert got == pytest.approx(want, abs=1e-12)

    def test_empty_chain(self):
        got = dp_log_partition(np.empty(0), np.empty((2, 0)))
        np.testing.assert_array_equal(got, np.zeros((2, 1)))

    def test_single_excursion_lower_bound(self):
        beta, h, n = 1.3, 0.5, 48
        for omega in replica_charges(GAUSS, n, 8, 5):
            log_z = partition_function_log(KERNEL, beta * omega - h)
            floor = beta * omega[0] - h + math.log(KERNEL.mass_array(n)[-1])
            assert log_z >= floor - 1e-12

    def test_monotone_in_h_at_fixed_charges(self):
        omega = derive_stream(77, 0).normal(64)
        values = [
            partition_function_log(KERNEL, omega - h)
            for h in (-0.5, -0.1, 0.0, 0.4, 1.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


# The ``band`` of the far-state path: an unbounded kernel whose gaps past 64
# are carried by the far terms of KERNEL, built for at least 129 sites so
# that short chains take the path too.  ``band`` None is the dense product.
FAR = "far"


def band_and_far(band, n, kernel=KERNEL):
    """The ``band`` and ``far`` arguments of a DP call of ``n`` sites on the
    path ``band``."""
    if band == FAR:
        return None, far_terms(kernel, max(n, 129))
    return band, None


def assert_matches_recursion(log_k, weights, band, scale_by_path=False, kernel=KERNEL):
    """Errors relative to ``max(1, |log Z_m|)``, or with ``scale_by_path`` to
    ``max(1, max_{j<=m} |log Z_j|)``, must stay within 1e-12; ``kernel``
    gives the far terms of the path ``FAR``."""
    band, far = band_and_far(band, weights.shape[1], kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dp_log_partition(log_k, weights, band, far)
    assert got.shape == (weights.shape[0], weights.shape[1] + 1)
    for row, w in zip(got, weights):
        want = np.array(partition_log_recursion(log_k, w, band))
        zero = want == -np.inf
        np.testing.assert_array_equal(row[zero], want[zero])
        assert np.all(np.isfinite(row[~zero]))
        size = np.abs(np.where(zero, 0.0, want))
        if scale_by_path:
            size = np.maximum.accumulate(size)
        err = np.abs(row[~zero] - want[~zero]) / np.maximum(1.0, size[~zero])
        assert err.max(initial=0.0) <= 1e-12


def charges(seed, replicas, n):
    return np.array([derive_stream(seed, r).normal(n) for r in range(replicas)])


def test_recursion_reference_against_mpmath():
    # a band-1 chain at beta = 121 whose |log Z_m| reaches thousands: rounding
    # log Z_m to a double at every step drifted 1.4e-12 from the exact values
    mp = pytest.importorskip("mpmath")
    n = 44
    log_k = log_mass_vector(KERNEL, n)
    for w in 121.0 * charges(53278, 3, n) - 1.0:
        with mp.workprec(200):
            want = [mp.mpf(0)]
            for m in range(1, n + 1):
                want.append(want[m - 1] + float(w[m - 1]) + float(log_k[0]))
            want = [float(v) for v in want]
        got = partition_log_recursion(log_k, w, 1)
        err = np.abs(np.subtract(got, want)) / np.maximum(1.0, np.abs(want))
        assert err.max() <= 1e-15


GAPPED_TABLES = [
    [0.0, 0.3, 0.0, 0.0, 0.2, 0.5],
    [0.0, 0.0, 0.6, 0.0, 0.0, 0.0, 0.4],
    [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5],
]
sizes = st.integers(min_value=1, max_value=200)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
bands = st.sampled_from([None, FAR]) | st.integers(min_value=1, max_value=40)


class TestScaledRecursionExtremes:
    """The scaled DP against the plain log-domain recursion, warnings fatal,
    on the dense, far-state and banded paths.

    Errors are relative to ``max(1, |log Z_m|)``, so 1e-12 is absolute where
    ``log Z_m`` is near zero.
    """

    @settings(max_examples=30)
    @given(st.floats(0.0, 300.0), st.floats(-5.0, 5.0), sizes, seeds, bands)
    @example(153.0, 0.0, 59, 0, 1)
    @example(153.0, 0.0, 200, 0, FAR)
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

    @settings(max_examples=30)
    @given(st.integers(1, 600), st.integers(0, 600), st.sampled_from([600.0, -1500.0]),
           seeds, st.sampled_from([None, FAR, 8]))
    @example(600, 600, 600.0, 0, None)
    @example(600, 600, -1500.0, 0, 8)
    @example(600, 300, -1500.0, 0, FAR)
    def test_one_site_out_of_range(self, n, p, weight, seed, band):
        # the site falls inside or at the edge of a run; a run that doubles to
        # its cap needs about 130 steps, and p >= n puts the site last
        weights = charges(seed, 2, n)
        weights[0, min(p, n - 1)] = weight
        assert_matches_recursion(log_mass_vector(KERNEL, n), weights, band)

    @settings(max_examples=30)
    @given(sizes, seeds, st.just(FAR) | st.integers(1, 40))
    def test_mixed_large_weights_path_bound(self, n, seed, band):
        # half the sites carry +-300 to +-1500, so log Z_m climbs into the
        # thousands and can come back near zero; there the error is rounding
        # at the size of the largest |log Z_j| passed, not of |log Z_m|
        rng = np.random.default_rng(seed)
        large = rng.choice([-1.0, 1.0], (3, n)) * rng.uniform(300.0, 1500.0, (3, n))
        weights = np.where(rng.random((3, n)) < 0.5, charges(seed, 3, n), large)
        assert_matches_recursion(log_mass_vector(KERNEL, n), weights, band, scale_by_path=True)

    @pytest.mark.parametrize("band", [1, 3, None, FAR])
    def test_subnormal_growth_after_large_sum(self, band):
        # at site 2 the sum is about e^400 and e^w = e^-730 is subnormal, so
        # the new entry s e^w would be off by about 5e-7 relative
        weights = np.zeros((2, 8))
        weights[0, 1:3] = 400.0, -730.0
        assert_matches_recursion(log_mass_vector(KERNEL, 8), weights, band)

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


def shifted_log_k(n, log_k1):
    """KERNEL's log masses with ``log K(1)`` replaced: above 0 it lets a sum
    pass the largest new entry, as no normalized kernel does."""
    log_k = log_mass_vector(KERNEL, n)
    log_k[0] = log_k1
    return log_k


class TestRepairSchedule:
    """Which steps a run repairs, pinned by the calls of ``_rebase`` (one
    for the first site, then one per repaired step) and ``_log_step`` on
    fixed inputs, on the dense, far-state and banded paths.  Row 1 of each
    chain stays in range.

    Runs are steps [1, 2), [2, 4), [4, 8), ..., so at ``n = 3`` step ``n``
    shares its run with step 2, and site 3's growth factor is the 1 it was
    made with.  Step ``n`` is held to the rule of every step, and a failure
    there repairs nothing: it rebases no replica and takes the log-sum-exp
    step only for a sum past ``e^644``, so the counts stay (1, 0) and (1, 1).
    """

    @staticmethod
    def schedule(log_k, weights, band):
        with mock.patch.object(quenched, "_rebase", wraps=quenched._rebase) as rebase, \
                mock.patch.object(quenched, "_log_step", wraps=quenched._log_step) as exact:
            assert_matches_recursion(log_k, weights, band)
        return rebase.call_count, exact.call_count

    @pytest.mark.parametrize("band", [None, FAR, 8])
    @pytest.mark.parametrize("log_k1, calls", [(150.0, (1, 0)), (200.0, (1, 1))])
    def test_step_n_sum_above_the_safe_range(self, log_k1, calls, band):
        # y_1 = 1, y_2 = e^450 and s_3 = e^(log_k1 + 450): at e^600 step n is
        # out of the safe range and repairs nothing, at e^650 it takes the
        # log-sum-exp step
        weights = np.zeros((2, 3))
        weights[0, 1:] = -log_k1, 450.0 - log_k1
        assert self.schedule(shifted_log_k(3, log_k1), weights, band) == calls

    @pytest.mark.parametrize("band", [None, FAR, 8])
    def test_new_entry_above_the_safe_range(self, band):
        # site 5's sum is e^-1.70 and its entry e^460.5, and K(1) = e^-0.96,
        # so no later sum leaves the range: the run [4, 8) is repaired at
        # step 5 alone, for its entry
        weights = np.zeros((2, 8))
        weights[0, 5] = 462.2
        assert self.schedule(log_mass_vector(KERNEL, 8), weights, band) == (2, 0)

    @pytest.mark.parametrize("band", [None, FAR, 8])
    def test_subnormal_growth_at_a_positive_sum(self, band):
        # site 2's sum is about e^398 and its factor e^-730 subnormal, so its
        # entry is exact only to about 1e-6; every entry is below e^460
        weights = np.zeros((2, 8))
        weights[0, 1:3] = 400.0, -730.0
        assert self.schedule(log_mass_vector(KERNEL, 8), weights, band) == (2, 0)

    @pytest.mark.parametrize("band", [1, 8, 100, FAR])
    def test_runs_leave_the_steady_rows_and_return(self, band):
        # once the window has moved, full runs start at rows width and width
        # + 64, whose step prefixes are built once per call; the runs after a
        # repair in a full run start elsewhere until the window moves again
        n = 4 * (window_of(band) + 128)
        p = window_moves(n, band)[1] + 10
        weights = window_weights(n, band)
        weights[0, p] = 600.0
        steady = {window_of(band), window_of(band) + 64}
        before = [row for m, row, _ in run_starts(n, band) if m <= p][-2:]
        after = [row for m, row, _ in run_starts(n, band, p) if m > p]
        assert set(before) == steady
        assert after[0] not in steady and steady <= set(after)
        assert self.schedule(log_mass_vector(KERNEL, n), weights, band) == (2, 0)


_NORMAL = np.finfo(float).tiny


def range_rule(lz, entry, factor, tiny_growth):
    """The DP's range rule for one replica at one step, written out: the
    logged sum in [-460, 460], the new entry at most e^460 and, where some
    factor of the block is subnormal, a sum of at most 1 at a factor below
    the smallest normal float."""
    return (abs(lz) <= 460.0 and entry <= math.exp(460.0)
            and (not tiny_growth or factor >= _NORMAL or lz <= 0.0))


RULE_SUMS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -3.5, 5e-324, -5e-324,
             459.9, 460.0, np.nextafter(460.0, math.inf), 460.5, 644.0,
             -460.0, np.nextafter(-460.0, -math.inf), -460.5, -700.0]
RULE_ENTRIES = [0.0, 1.0, math.exp(459.0), math.exp(460.0), np.nextafter(math.exp(460.0), math.inf),
                math.exp(461.0), math.inf, math.nan]
RULE_FACTORS = [0.0, 5e-324, _NORMAL / 2, np.nextafter(_NORMAL, 0.0), _NORMAL, 1.0, math.exp(300.0)]


class TestRangeRule:
    """``_first_out_of_range`` against the rule of :func:`range_rule`, one
    step and one replica at a time: None exactly when every step of the
    run is in range, else the first step out of range and its replicas in
    range, at step ``n`` as at every other step."""

    @staticmethod
    def assert_rule(lz, entries, factors, tiny_growth):
        want = np.array([[range_rule(*cell, tiny_growth) for cell in zip(*rows)]
                         for rows in zip(lz, entries, factors)], dtype=bool)
        got = quenched._first_out_of_range(lz, entries, factors, tiny_growth)
        if want.all():
            assert got is None
            return
        i, ok = got
        assert i == int(np.flatnonzero(~want.all(axis=1))[0])
        assert ok.dtype == bool and ok.tolist() == want[i].tolist()

    @settings(max_examples=300)
    @given(st.integers(1, 6), st.integers(1, 4), st.booleans(), st.data())
    def test_matches_the_rule(self, steps, reps, tiny_growth, data):
        def cells(pool):
            drawn = data.draw(st.lists(st.sampled_from(pool), min_size=steps * reps,
                                       max_size=steps * reps))
            return np.array(drawn).reshape(steps, reps)

        self.assert_rule(cells(RULE_SUMS), cells(RULE_ENTRIES), cells(RULE_FACTORS), tiny_growth)

    @settings(max_examples=100)
    @given(st.integers(1, 64), st.integers(1, 8), st.booleans(), st.data())
    def test_clean_runs_with_one_cell_off(self, steps, reps, tiny_growth, data):
        # a run in range except, maybe, one cell, as the DP sees it most
        rng = np.random.default_rng(data.draw(seeds))
        lz = rng.uniform(-400.0, 400.0, (steps, reps))
        entries = np.exp(rng.uniform(-400.0, 400.0, (steps, reps)))
        factors = np.exp(rng.uniform(-700.0, 700.0, (steps, reps)))
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, steps - 1)), data.draw(st.integers(0, reps - 1))
            lz[at] = data.draw(st.sampled_from(RULE_SUMS))
            entries[at] = data.draw(st.sampled_from(RULE_ENTRIES))
            factors[at] = data.draw(st.sampled_from(RULE_FACTORS))
        self.assert_rule(lz, entries, factors, tiny_growth)

    @pytest.mark.parametrize("lz, entry, factor", [
        (460.5, 1.0, 1.0),
        (-460.5, 1.0, 1.0),
        (math.nan, 1.0, 1.0),
        (0.0, math.exp(461.0), 1.0),
        (1.0, 1.0, 5e-324),
    ])
    def test_last_step_out_of_range_alone(self, lz, entry, factor):
        # the last step of a run, step n included, fails by the same rule
        sums, entries, factors = np.zeros((5, 2)), np.ones((5, 2)), np.ones((5, 2))
        sums[-1, 1], entries[-1, 1], factors[-1, 1] = lz, entry, factor
        i, ok = quenched._first_out_of_range(sums, entries, factors, True)
        assert i == 4 and ok.tolist() == [True, False]

    def test_edges_are_in_range(self):
        sums = np.array([[460.0, -460.0, 0.0, -0.0]])
        entries = np.array([[math.exp(460.0), 0.0, 1.0, 1.0]])
        factors = np.array([[1.0, 5e-324, 0.0, _NORMAL]])
        assert quenched._first_out_of_range(sums, entries, factors, True) is None


class TestFarProduct:
    """The seams of the product over the sites before a run, which every
    window takes: windows shorter than a run (``width < 64``) read zeros past
    the band in the near masses, and runs start at steps 1, 2, 4, ..., 64,
    128, 192, ... while no step is repaired.  On the far-state path the
    window is the 64 sites before the run, and the sites before it are the
    far states from step 65 on."""

    @pytest.mark.parametrize("band", [None, FAR, 1, 8, 63, 64, 65, 100])
    @pytest.mark.parametrize("n", [63, 64, 65, 130, 200])
    def test_window_sizes(self, n, band):
        weights = 1.3 * charges(n + (0 if band in (None, FAR) else band), 3, n) - 0.2
        assert_matches_recursion(log_mass_vector(KERNEL, n), weights, band)

    @pytest.mark.parametrize("band", [None, FAR])
    @pytest.mark.parametrize("n", [127, 128, 129, 192, 193, 260, 600])
    def test_near_far_seams(self, n, band):
        # the near window's last gap is 127 and the far terms' first 65; the
        # far terms come from the size classes 256, 512 and 1024
        weights = 1.3 * charges(n, 3, n) - 0.2
        assert_matches_recursion(log_mass_vector(KERNEL, n), weights, band)

    @pytest.mark.parametrize("band", [None, FAR, 100])
    @pytest.mark.parametrize("weight", [800.0, -800.0])
    @pytest.mark.parametrize("n", [65, 130, 200])
    def test_rebase_every_step(self, n, weight, band):
        # every step leaves the safe range, so every run has length 1
        weights = np.full((2, n), weight)
        assert_matches_recursion(log_mass_vector(KERNEL, n), weights, band)

    @pytest.mark.parametrize("band", [None, FAR, 100])
    @pytest.mark.parametrize("weight", [600.0, -1500.0])
    @pytest.mark.parametrize("p", [64, 127, 128, 129, 192])
    def test_one_site_out_of_range_after_far_product(self, p, weight, band):
        # site 128 is the first step of a run whose far sums were just taken
        n = 260
        weights = charges(p, 2, n)
        weights[0, p] = weight
        assert_matches_recursion(log_mass_vector(KERNEL, n), weights, band)

    @pytest.mark.parametrize("band", [None, FAR, 100])
    def test_batch_composition(self, band):
        # BLAS may round a column differently with another column count;
        # each block of a wide call stays within the DP's bound of its own call
        n = 300
        log_k = log_mass_vector(KERNEL, n)
        weights = 1.1 * charges(17, 96, n) - 0.3
        band, far = band_and_far(band, n)
        wide = dp_log_partition(log_k, weights, band, far)
        for block in range(3):
            rows = slice(32 * block, 32 * block + 32)
            alone = dp_log_partition(log_k, weights[rows], band, far)
            err = np.abs(wide[rows] - alone) / np.maximum(1.0, np.abs(alone))
            assert err.max() <= 1e-12


class TestFarStates:
    """Regressions of the far-state path: the near product reaches gap 127,
    a rebase moves the far states on their old scale and keeps them in
    range, and the exact step reads every earlier site."""

    def test_near_product_reaches_gap_127(self):
        # every site of row 0 but site 0 is forbidden, so Z_m = K(m): the run
        # from step 64 reads site 0 at gaps 64..127 from its window, and the
        # far states hold it from step 128 on
        n = 260
        weights = charges(3, 2, n)
        weights[0, 1:] = -np.inf
        log_k = log_mass_vector(KERNEL, n)
        assert_matches_recursion(log_k, weights, FAR)
        got = dp_log_partition(log_k, weights, None, far_terms(KERNEL, n))
        np.testing.assert_allclose(got[0, 1:], weights[0, 0] + log_k, rtol=1e-14)

    def test_rebase_keeps_far_states_in_range(self):
        # site 10 leaves an entry near e^458 that reaches the far states, the
        # sites after it an entry near e^-250 each, and the -1500 stretch
        # that follows rebases: on its window's scale alone the far states
        # would pass e^709, and every later step would need the exact step
        n = 300
        weights = charges(4, 2, n)
        weights[0, :10] = 0.0
        weights[0, 10] = 459.0
        weights[0, 11:81] = -708.0
        weights[0, 81:200] = -1500.0
        with mock.patch.object(quenched, "_rebase", wraps=quenched._rebase) as rebase, \
                mock.patch.object(quenched, "_log_step", wraps=quenched._log_step) as exact:
            assert_matches_recursion(log_mass_vector(KERNEL, n), weights, FAR)
        assert rebase.call_count == 2
        assert exact.call_count == 0

    @pytest.mark.parametrize("weight", [600.0, -1500.0])
    @pytest.mark.parametrize("p", [100, 150, 200])
    def test_stretch_after_one_site(self, p, weight):
        # a site out of range, then a stretch of -1500 longer than the window
        n = 400
        weights = charges(p, 2, n)
        weights[0, p] = weight
        weights[0, p + 1 : p + 150] = -1500.0
        assert_matches_recursion(log_mass_vector(KERNEL, n), weights, FAR)

    def test_exact_step_reads_from_site_0(self):
        # at alpha 150, K(m) < e^-644 from m = 73 on, so with every site of row
        # 0 but site 0 forbidden each later step is the exact step, and its
        # one term is the far site 0
        kernel = make_power_kernel(150.0)
        n = 200
        weights = charges(5, 2, n)
        weights[0, 1:] = -np.inf
        with mock.patch.object(quenched, "_log_step", wraps=quenched._log_step) as exact:
            assert_matches_recursion(log_mass_vector(kernel, n), weights, FAR, kernel=kernel)
        assert exact.call_count >= 100
        assert {call.args[4] for call in exact.call_args_list} == {0}

    def test_far_terms_need_an_unbounded_kernel(self):
        log_k = log_mass_vector(KERNEL, 200)
        with pytest.raises(InvalidParameterError, match="without a band"):
            dp_log_partition(log_k, charges(0, 2, 200), 8, far_terms(KERNEL, 200))

    @pytest.mark.parametrize("p", [1.0, 0.3, 0.01, 1e-6])
    @pytest.mark.parametrize("n", [129, 300])
    def test_geometric_kernel(self, n, p):
        # one far term, or none at p = 1
        kernel = make_geometric_kernel(p)
        weights = 0.8 * charges(7, 3, n) - 0.1
        assert_matches_recursion(log_mass_vector(kernel, n), weights, FAR, kernel=kernel)


def window_of(band):
    """The window width of a banded DP, 64 on the far-state path."""
    return 64 if band == FAR else band


def run_starts(n, band, repaired=None):
    """The runs of a banded DP as ``(first step, its row of y, whether the
    window of band + 128 rows moved before it)``, while no step but
    ``repaired`` is repaired: a run starts at one step, doubles to 64 and
    starts again at one after the repaired step, and the window moves at the
    start of a run that would pass its end."""
    band = window_of(band)
    rows, off, runs, m, length = min(n + 1, min(band, n) + 128), 0, [], 1, 1
    while m <= n:
        end = min(m + length, n + 1)
        moved = end - off > rows
        if moved:
            off = m - band
        runs.append((m, m - off, moved))
        if repaired is not None and m <= repaired < end:
            m, length = repaired + 1, 1
        else:
            m, length = end, min(2 * length, 64)
    return runs


def window_moves(n, band):
    """The steps at which a banded DP's window moves while no step is
    repaired: runs start at 1, 2, 4, ..., 64, 128, 192, ..."""
    return [m for m, _, moved in run_starts(n, band) if moved]


def window_weights(n, band):
    return 0.5 * charges(n + window_of(band), 2, n) + 0.5


class TestWindow:
    """A banded DP keeps ``band + 128`` rows of its scaled terms and moves
    the last ``band`` of them to the front when a run would pass the end,
    so every seam of the window is read by the product over the sites
    before a run, the near steps, the range test and the rebase.  The
    far-state path keeps the window of band 64, and the sites that leave
    it go to the far states before it moves."""

    @pytest.mark.parametrize("band", [1, 8, 63, 64, 65, 100, FAR])
    def test_plain_weights(self, band):
        n = 4 * (window_of(band) + 128)
        assert len(window_moves(n, band)) >= 3
        # no step of these weights is repaired, so the window moves where
        # window_moves says
        with mock.patch.object(quenched, "_rebase", wraps=quenched._rebase) as spy:
            assert_matches_recursion(log_mass_vector(KERNEL, n), window_weights(n, band), band)
        assert spy.call_count == 1

    @pytest.mark.parametrize("band", [1, 8, 63, 64, 65, 100, FAR])
    @pytest.mark.parametrize("weight", [600.0, -1500.0])
    def test_one_site_out_of_range_after_a_move(self, band, weight):
        # the first step after the second move rebases, and at -1500 the
        # steps that follow take the log-sum-exp step across the seam
        n = 4 * (window_of(band) + 128)
        weights = window_weights(n, band)
        weights[0, window_moves(n, band)[1]] = weight
        assert_matches_recursion(log_mass_vector(KERNEL, n), weights, band)

    @pytest.mark.parametrize("band", [100, FAR])
    @pytest.mark.parametrize("weight", [800.0, -800.0])
    def test_rebase_every_step(self, weight, band):
        # every run has length 1, so the window moves every 128 steps
        n = 600
        assert_matches_recursion(log_mass_vector(KERNEL, n), np.full((2, n), weight), band)

    @settings(max_examples=30)
    @given(st.floats(0.0, 300.0), st.floats(-800.0, 800.0), st.integers(1, 600), seeds,
           st.just(FAR) | st.integers(1, 40))
    def test_long_banded_chains(self, beta, h, n, seed, band):
        weights = beta * charges(seed, 3, n) - h
        assert_matches_recursion(log_mass_vector(KERNEL, n), weights, band)


class TestKernelBlocks:
    """The kernel blocks of a DP call (the Toeplitz block, the near rows and
    the far-state matrices) are cached by the content of the log masses, the
    window width and the far terms, never by the caller's arrays."""

    N = 300

    @staticmethod
    def call(log_k, weights, band, kernel=KERNEL):
        return dp_log_partition(log_k, weights, *band_and_far(band, weights.shape[1], kernel))

    @pytest.mark.parametrize("band", [None, FAR, 8, 100])
    def test_cold_and_warm_calls_agree(self, band):
        weights = 1.2 * charges(11, 3, self.N) - 0.1
        quenched._kernel_blocks.cache_clear()
        cold = self.call(log_mass_vector(KERNEL, self.N), weights, band)
        warm = self.call(log_mass_vector(KERNEL, self.N), weights, band)
        assert quenched._kernel_blocks.cache_info().hits == 1
        np.testing.assert_array_equal(cold, warm)
        assert_matches_recursion(log_mass_vector(KERNEL, self.N), weights, band)

    @pytest.mark.parametrize("band", [None, FAR, 8])
    def test_kernels_of_one_reach_do_not_share_blocks(self, band):
        weights = 0.9 * charges(12, 2, self.N) - 0.2
        other = make_power_kernel(0.3)
        quenched._kernel_blocks.cache_clear()
        for kernel in (KERNEL, other, KERNEL, other):
            log_k = log_mass_vector(kernel, self.N)
            assert_matches_recursion(log_k, weights, band, kernel=kernel)
        assert quenched._kernel_blocks.cache_info().currsize == 2

    def test_far_term_sets_do_not_share_blocks(self):
        # the far terms of the size classes 512 and 4096 round K apart, so
        # a call that took the other set's blocks would move log Z
        log_k = log_mass_vector(KERNEL, self.N)
        weights = 0.9 * charges(13, 2, self.N) - 0.2
        fars = [far_terms(KERNEL, 512), far_terms(KERNEL, 4096)]
        colds = []
        for far in fars:
            quenched._kernel_blocks.cache_clear()
            colds.append(dp_log_partition(log_k, weights, None, far))
        assert not np.array_equal(*colds)
        quenched._kernel_blocks.cache_clear()
        for far, cold in zip(fars + fars, colds + colds):
            np.testing.assert_array_equal(dp_log_partition(log_k, weights, None, far), cold)
        assert quenched._kernel_blocks.cache_info().currsize == 2

    @pytest.mark.parametrize("band", [None, FAR, 8])
    def test_log_masses_changed_in_place(self, band):
        weights = 0.9 * charges(14, 2, self.N) - 0.2
        log_k = log_mass_vector(KERNEL, self.N)
        before = self.call(log_k, weights, band)
        other = make_power_kernel(0.3)
        log_k[:] = log_mass_vector(other, self.N)
        after = self.call(log_k, weights, band, kernel=other)
        assert not np.array_equal(before, after)
        assert_matches_recursion(log_k, weights, band, kernel=other)

    def test_the_cache_holds_at_most_its_maxsize(self):
        maxsize = quenched._kernel_blocks.cache_parameters()["maxsize"]
        log_k = log_mass_vector(KERNEL, 64)
        weights = charges(15, 1, 64)
        quenched._kernel_blocks.cache_clear()
        for band in range(1, maxsize + 5):
            dp_log_partition(log_k, weights, band)
            assert quenched._kernel_blocks.cache_info().currsize == min(band, maxsize)


def test_dp_memory_is_its_output_and_window():
    # a banded call keeps band + 128 rows of y and _RUN_CAP x replicas run
    # buffers, so only its log Z output scales with n
    n, reps, band = 4096, 64, 64
    weights = charges(0, reps, n)
    log_k = log_mass_vector(KERNEL, n)
    quenched._kernel_blocks.cache_clear()  # a cold call builds its kernel blocks
    tracemalloc.start()
    try:
        dp_log_partition(log_k, weights, band=band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    log_z_bytes = reps * (n + 1) * 8
    assert peak < 1.5 * log_z_bytes


def test_dp_memory_with_far_product():
    # the far-state path keeps its log Z output, a window of 64 + 128 rows,
    # the run buffers and r x replicas far states, not all n + 1 rows of y
    n, reps = 2048, 64
    weights = charges(1, reps, n)
    log_k = log_mass_vector(KERNEL, n)
    far = far_terms(KERNEL, n)
    quenched._kernel_blocks.cache_clear()  # a cold call builds its kernel blocks
    tracemalloc.start()
    try:
        dp_log_partition(log_k, weights, None, far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    log_z = reps * (n + 1) * 8
    rows = (64 + 128 + 5 * 64) * reps * 8  # the window, run buffers and range test
    states = len(far[0]) * (reps + 2 * 128) * 8  # S, its decay table and the far rows
    assert peak < log_z + rows + states + 2**18
    # the dense product keeps all n + 1 rows of y besides its output
    assert log_z + rows + states + 2**18 < 2 * log_z


class TestQuenchedFreeEnergy:
    def test_beta_zero_deterministic(self):
        est = quenched_free_energy(KERNEL, replica_charges(GAUSS, 64, 4, 0), 0.0, -0.2)
        assert est.stderr == 0.0
        want = homopolymer_log_reference(0.2, 64) / 64
        assert est.mean == pytest.approx(want, abs=1e-13)

    def test_bitwise_reproducible(self):
        a = quenched_free_energy(KERNEL, replica_charges(GAUSS, 128, 6, 99), 1.0, 0.2)
        b = quenched_free_energy(KERNEL, replica_charges(GAUSS, 128, 6, 99), 1.0, 0.2)
        assert a.mean == b.mean
        assert a.stderr == b.stderr
        np.testing.assert_array_equal(a.per_replica, b.per_replica)

    def test_quenched_below_annealed(self):
        est = quenched_free_energy(KERNEL, replica_charges(GAUSS, 512, 16, 11), 1.0, 0.3)
        f_ann = annealed_free_energy(KERNEL, GAUSS, 1.0, 0.3).f
        assert est.mean <= f_ann + 3.0 * est.stderr

    def test_annealed_domination_of_mean_partition(self):
        # mean of Z_n itself (not log) matches the annealed value within
        # Monte Carlo error
        n, reps = 48, 300
        zs = np.array(
            [
                math.exp(partition_function_log(KERNEL, 0.6 * omega - 0.1))
                for omega in replica_charges(GAUSS, n, reps, 21)
            ]
        )
        lam = log_mgf(GAUSS, 0.6) - 0.1
        annealed = math.exp(homopolymer_log_reference(lam, n))
        stderr = zs.std(ddof=1) / math.sqrt(reps)
        assert abs(zs.mean() - annealed) <= 4.0 * stderr

    def test_rejects_negative_beta(self):
        with pytest.raises(InvalidParameterError):
            quenched_free_energy(KERNEL, replica_charges(GAUSS, 8, 2, 0), -0.1, 0.2)

    @pytest.mark.parametrize(
        "beta, h, bad_site",
        [(math.nan, 0.2, None), (math.inf, 0.2, None), (1.0, math.nan, None),
         (1.0, math.inf, None), (1.0, [0.1, math.nan], None), (1.0, 0.2, math.nan),
         (1.0, 0.2, -math.inf)],
    )
    def test_rejects_non_finite_input(self, beta, h, bad_site):
        charges = replica_charges(GAUSS, 8, 2, 0)
        if bad_site is not None:
            charges[1, 3] = bad_site
        with pytest.raises(InvalidParameterError):
            quenched_free_energy(KERNEL, charges, beta, h)

    @pytest.mark.parametrize(
        "beta, h",
        [(1e308, 0.0),    # beta * charges overflows
         (1.0, -1e308),   # the weights are finite, log Z_n overflows: mean inf
         (1e300, 0.0)],   # the mean is finite, the spread's square overflows
    )
    def test_overflow_raises_precision_error(self, beta, h):
        with pytest.raises(PrecisionError):
            quenched_free_energy(KERNEL, replica_charges(GAUSS, 16, 4, 0), beta, h)

    def test_partition_rejects_nan_weight(self):
        with pytest.raises(InvalidParameterError):
            partition_function_log(KERNEL, [0.0, math.nan])

    def test_partition_rejects_plus_inf_weight(self):
        with pytest.raises(InvalidParameterError):
            partition_function_log(KERNEL, [0.0, math.inf])

    def test_partition_minus_inf_weight_forbids_the_contact(self):
        # no renewal at site 1, so Z_2 = K(2)
        got = partition_function_log(KERNEL, [0.0, -math.inf])
        assert got == pytest.approx(math.log(KERNEL.mass_array(2)[1]), rel=1e-15)

    @pytest.mark.parametrize("h", [[], [[0.1, 0.2]]])
    def test_rejects_empty_or_nested_biases(self, h):
        with pytest.raises(InvalidParameterError):
            quenched_free_energy(KERNEL, replica_charges(GAUSS, 8, 2, 0), 1.0, h)

    @pytest.mark.parametrize("n", [48, 130])
    def test_biases_as_extra_rows(self, n):
        # one call for several biases gives each bias's own estimate, to the
        # DP's bound (the row count may change BLAS's rounding)
        omega = replica_charges(GAUSS, n, 8, 12)
        biases = [-0.3, 0.05, 0.4]
        batch = quenched_free_energy(KERNEL, omega, 0.9, biases)
        assert len(batch) == len(biases)
        for h, est in zip(biases, batch):
            alone = quenched_free_energy(KERNEL, omega, 0.9, h)
            np.testing.assert_allclose(est.per_replica, alone.per_replica, rtol=1e-12, atol=1e-12)
            assert est.stderr == pytest.approx(alone.stderr, rel=1e-9, abs=1e-14)
            assert not est.per_replica.flags.writeable

    @pytest.mark.parametrize("replicas", [1, 3, 8])
    @pytest.mark.parametrize("n", [48, 130])
    def test_a_beta_per_bias(self, n, replicas):
        # each bias's block is weighted by its own beta: the same floats as a
        # call at that beta alone with the same biases, so the same row count
        omega = replica_charges(GAUSS, n, replicas, 12)
        betas, biases = [0.3, 1.1, 0.3, 0.0], [-0.2, 0.4, 0.1, 0.6]
        mixed = quenched_free_energy(KERNEL, omega, betas, biases)
        for i, beta in enumerate(betas):
            alone = quenched_free_energy(KERNEL, omega, beta, biases)[i]
            np.testing.assert_array_equal(mixed[i].per_replica, alone.per_replica)
            assert (mixed[i].mean, mixed[i].stderr) == (alone.mean, alone.stderr)
        # a numpy array of betas gives the same floats as a list
        again = quenched_free_energy(KERNEL, omega, np.array(betas), biases)
        for a, b in zip(again, mixed):
            np.testing.assert_array_equal(a.per_replica, b.per_replica)

    @pytest.mark.parametrize(
        "beta, h",
        [([0.5, 1.0], [0.1, 0.2, 0.3]),   # one beta short
         ([0.5], [0.1, 0.2]),
         ([0.5, 1.0], 0.1),               # a beta per bias, but one bias
         ([[0.5, 1.0]], [0.1, 0.2]),      # a 2-D grid
         ([0.5, -0.1], [0.1, 0.2]),
         ([0.5, math.nan], [0.1, 0.2]),
         ([math.inf, 0.5], [0.1, 0.2])],
    )
    def test_rejects_bad_betas_per_bias(self, beta, h):
        with pytest.raises(InvalidParameterError):
            quenched_free_energy(KERNEL, replica_charges(GAUSS, 8, 2, 0), beta, h)

    @pytest.mark.parametrize(
        "law",
        [GAUSS, discrete_disorder([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2]),
         continuous_disorder([0.0, 1.0, 2.0, 4.0], [1.0, 3.0, 1.0, 0.5])],
        ids=["gaussian", "discrete", "continuous"],
    )
    @pytest.mark.parametrize("n", [1, 37, 1024])
    def test_replica_charges_prefix(self, law, n):
        # the critical-point search draws once at 2n and runs on the first n
        # columns, which must be the charges drawn at n, bit for bit
        long = replica_charges(law, 2 * n, 5, 9)
        np.testing.assert_array_equal(long[:, :n], replica_charges(law, n, 5, 9))

    @pytest.mark.parametrize("n, replicas", [(0, 2), (8, 0)])
    def test_replica_charges_rejects_empty_sizes(self, n, replicas):
        with pytest.raises(InvalidParameterError):
            replica_charges(GAUSS, n, replicas, 0)


class TestAnnealedPartitionCheck:
    def test_single_site_identity(self):
        lhs, rhs = annealed_partition_check(
            KERNEL, rademacher_disorder(), beta=0.9, h=0.3, n=1
        )
        assert abs(lhs - rhs) <= 1e-10
        want = KERNEL.mass_array(1)[0] * math.exp(log_mgf(rademacher_disorder(), 0.9) - 0.3)
        assert lhs == pytest.approx(want, abs=1e-12)

    def test_three_site_identity(self):
        lhs, rhs = annealed_partition_check(
            KERNEL, rademacher_disorder(), beta=0.7, h=0.2, n=3
        )
        assert abs(lhs - rhs) <= 1e-10

    def test_beta_zero_trivial(self):
        lhs, rhs = annealed_partition_check(
            KERNEL, rademacher_disorder(), beta=0.0, h=0.1, n=4
        )
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_rejects_gaussian(self):
        with pytest.raises(InvalidParameterError):
            annealed_partition_check(KERNEL, GAUSS, beta=0.5, h=0.0, n=3)

    def test_assignments_share_one_dp_call(self, monkeypatch):
        # the 64 assignments at n 6 are the rows of one call, plus one for rhs
        rows = []

        def spy(log_k, site_weights, band=None, far=None):
            rows.append(site_weights.shape[0])
            return dp_log_partition(log_k, site_weights, band, far)

        monkeypatch.setattr(quenched, "dp_log_partition", spy)
        annealed_partition_check(KERNEL, rademacher_disorder(), beta=0.7, h=0.2, n=6)
        assert len(rows) <= 2
        assert sum(rows) == 65

    @pytest.mark.parametrize(
        "law, n",
        [(rademacher_disorder(), n) for n in range(1, 11)]
        # 3^8 = 6561 assignments: the sum crosses a block seam
        + [(discrete_disorder([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2]), 8)],
    )
    def test_blocked_average_matches_one_call_per_assignment(self, law, n):
        lhs, _ = annealed_partition_check(KERNEL, law, beta=0.7, h=0.2, n=n)
        want = oracles.annealed_average_per_assignment(KERNEL, law, 0.7, 0.2, n)
        assert abs(lhs - want) <= 1e-15 * want

    def test_non_finite_weight_is_rejected(self):
        law = discrete_disorder([-1.0, 1.0], [0.5, 0.5])
        with pytest.raises(InvalidParameterError, match="NaN or \\+inf"):
            annealed_partition_check(KERNEL, law, beta=math.inf, h=0.0, n=2)


class TestStreams:
    def test_distinct_indices_differ(self):
        a = derive_stream(5, 0).uniform(8)
        b = derive_stream(5, 1).uniform(8)
        assert not np.array_equal(a, b)

    def test_same_address_same_stream(self):
        a = derive_stream(5, 3).uniform(8)
        b = derive_stream(5, 3).uniform(8)
        np.testing.assert_array_equal(a, b)

    def test_negative_address_rejected(self):
        for base_seed, index in ((-1, 0), (0, -1)):
            with pytest.raises(InvalidParameterError):
                derive_stream(base_seed, index)

    def test_draws_are_the_seed_sequence_pcg64(self):
        for base_seed, index in ((0, 0), (17, 4), (2**40 + 3, 9000)):
            s = derive_stream(base_seed, index)
            ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence([base_seed, index])))
            np.testing.assert_array_equal(s.uniform(7), ref.random(7))
            np.testing.assert_array_equal(s.normal(5), ref.standard_normal(5))
            np.testing.assert_array_equal(s.uniform(3), ref.random(3))
            assert (s.base_seed, s.stream_index, s.position) == (base_seed, index, 15)

    def test_replayed_stream_continues_identically(self):
        s = derive_stream(17, 4)
        s.uniform(10)
        s.normal(3)
        replay = derive_stream(17, 4)
        replay.uniform(10)
        replay.normal(3)
        assert replay.position == s.position == 13
        np.testing.assert_array_equal(s.normal(5), replay.normal(5))
        np.testing.assert_array_equal(s.uniform(5), replay.uniform(5))
        assert replay.position == s.position == 23

    def test_address_is_the_only_constructor_argument(self):
        with pytest.raises(TypeError):
            RngStream(17, 4, 10)
        assert RngStream(17, 4).position == 0

    def test_first_outputs_uniform_chi_square(self):
        firsts = np.array([derive_stream(31337, i).uniform(1)[0] for i in range(1000)])
        counts, _ = np.histogram(firsts, bins=10, range=(0.0, 1.0))
        _, pvalue = chisquare(counts)
        assert pvalue > 0.01


def bracket_fields(bracket):
    """The fields of a bracket that :func:`critical_point_sequential` returns."""
    return {
        "h_lo": bracket.h_lo,
        "h_hi": bracket.h_hi,
        "h_hi_raw": bracket.h_hi_raw,
        "undecided": bracket.undecided,
        "diagnostic_h": tuple(bracket.per_n_diagnostics[edge]["h"] for edge in ("h_lo", "h_hi")),
    }


def assert_grid_is_sequential(kernel, betas, charges, target_width):
    """Each ``beta``'s bracket from one grid call is the one-bias-per-call
    bisection's, field for field."""
    brackets = quenched_critical_point(kernel, GAUSS, betas, charges, target_width)
    assert [b.beta for b in brackets] == list(betas)
    for beta, bracket in zip(betas, brackets):
        want = critical_point_sequential(kernel, GAUSS, beta, charges, target_width)
        assert bracket_fields(bracket) == want, beta
    return brackets


class TestCriticalPoint:
    def test_beta_zero_bracket_contains_zero(self):
        # light version of the acceptance run: order-1 kernel, small n
        kernel = make_power_kernel(1.5)
        charges = replica_charges(GAUSS, 2048, 1, 0)
        (bracket,) = quenched_critical_point(kernel, GAUSS, [0.0], charges, 0.004)
        assert bracket.h_lo <= 0.0 <= bracket.h_hi
        assert bracket.width <= 0.04
        assert not bracket.undecided
        assert set(bracket.per_n_diagnostics) == {"h_lo", "h_hi"}
        assert bracket.per_n_diagnostics["h_lo"]["n2"] == 2048

    @pytest.mark.parametrize("mean, edge", [(0.0, "localized left"), (1e9, "delocalized right")])
    def test_endpoint_search_gives_up(self, monkeypatch, mean, edge):
        # every estimate says delocalized (mean 0) or localized (mean 1e9), so
        # the window never gets the edge it needs
        def stub(kernel, charges, betas, hs):
            return [quenched.FreeEnergyEstimate(mean, 0.0, np.zeros(1)) for _ in hs]

        monkeypatch.setattr(quenched, "quenched_free_energy", stub)
        charges = replica_charges(GAUSS, 64, 2, 0)
        with pytest.raises(PrecisionError, match=f"could not find a {edge} endpoint"):
            quenched_critical_point(make_power_kernel(1.5), GAUSS, [0.5], charges, 0.01)

    def test_upper_edge_below_annealed_curve(self):
        kernel = make_power_kernel(1.5)
        charges = replica_charges(GAUSS, 1024, 8, 3)
        bracket = quenched_critical_point(kernel, GAUSS, [0.6], charges, 0.01)[0]
        h_ann = log_mgf(GAUSS, 0.6)
        assert bracket.h_hi <= h_ann + bracket.width
        assert bracket.h_lo <= h_ann

    @pytest.mark.parametrize(
        "alpha, beta, n, replicas, base_seed, target_width, undecided",
        [
            (1.5, 0.6, 128, 8, 3, 0.01, False),
            (0.5, 1.0, 256, 16, 6, 0.01, False),
            (0.5, 1.5, 200, 4, 2, 0.002, True),
        ],
    )
    def test_batched_search_equals_sequential(
        self, alpha, beta, n, replicas, base_seed, target_width, undecided
    ):
        # a one-beta grid probes the floats the one-bias-per-call bisection
        # computes, so every decision and edge is the same
        kernel = make_power_kernel(alpha)
        charges = replica_charges(GAUSS, 2 * n, replicas, base_seed)
        bracket = quenched_critical_point(kernel, GAUSS, [beta], charges, target_width)[0]
        want = critical_point_sequential(kernel, GAUSS, beta, charges, target_width)
        assert want["undecided"] is undecided
        assert bracket_fields(bracket) == want

    @pytest.mark.parametrize(
        "alpha, betas, n, replicas, base_seed, target_width",
        [
            # the undecided beta 1.5 stops early, the others run on without it
            (0.5, (0.5, 1.5, 0.0), 200, 4, 2, 0.002),
            # six betas: four blocks a round, so the last ones wait
            (0.5, (0.0, 0.25, 0.5, 0.75, 1.0, 1.25), 128, 6, 5, 0.01),
            # betas that need different numbers of edge moves and probes
            (1.5, (2.0, 0.0, 0.6), 128, 8, 3, 0.03),
            # a repeated beta
            (0.5, (1.0, 1.0), 96, 4, 1, 0.01),
        ],
    )
    def test_grid_equals_sequential(self, alpha, betas, n, replicas, base_seed, target_width):
        kernel = make_power_kernel(alpha)
        charges = replica_charges(GAUSS, 2 * n, replicas, base_seed)
        brackets = assert_grid_is_sequential(kernel, betas, charges, target_width)
        if 1.5 in betas:
            assert [b.undecided for b in brackets] == [beta == 1.5 for beta in betas]

    @settings(max_examples=25, deadline=None)
    @given(
        betas=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=6),
        n=st.integers(8, 128),
        replicas=st.integers(2, 8),
        seed=st.integers(0, 2**16),
        target_width=st.sampled_from([0.002, 0.01, 0.05]),
    )
    @example(betas=[0.0, 0.0], n=37, replicas=3, seed=0, target_width=0.002)
    def test_grid_equals_sequential_hypothesis(self, betas, n, replicas, seed, target_width):
        # BLAS may round a column differently with another column count, so
        # a round's estimates can differ from a lone beta's in the last bits
        # (3 rows against 6 at n 37: 3e-17 in log Z_n / n); the widened edge
        # is read from the beta's own 2n call, so it does not
        charges = replica_charges(GAUSS, 2 * n, replicas, seed)
        assert_grid_is_sequential(KERNEL, betas, charges, target_width)

    def test_search_batches_its_probes(self, monkeypatch):
        # a one-beta grid shares a call between its two starting edges, then
        # makes one call per probe, with no bias the one-bias-per-call
        # bisection does not probe; one more DP call, at 2n, reads both edges
        kernel = make_power_kernel(1.5)
        charges = replica_charges(GAUSS, 256, 8, 3)
        shapes = self.dp_rows(monkeypatch)
        calls = {}
        for name, module, run, beta in (
            ("grid", quenched, quenched_critical_point, [0.6]),
            ("sequential", oracles, critical_point_sequential, 0.6),
        ):
            with mock.patch.object(module, "quenched_free_energy",
                                   wraps=module.quenched_free_energy) as spy:
                run(kernel, GAUSS, beta, charges, 0.01)
            calls[name] = [list(np.atleast_1d(call.args[3])) for call in spy.call_args_list]
        probes = calls["grid"]
        assert [len(hs) for hs in probes] == [2] + [1] * (len(probes) - 1)
        assert sum(probes, []) == sum(calls["sequential"], [])
        grid_shapes = shapes[: len(probes) + 1]  # the oracle's calls follow
        assert grid_shapes[-1] == (16, 256)
        assert [rows for rows, _ in grid_shapes[:-1]] == [8 * len(hs) for hs in probes]

    @staticmethod
    def dp_rows(monkeypatch):
        """The ``(rows, n)`` of every DP call, in call order."""
        shapes = []
        real = quenched.dp_log_partition

        def spy(log_k, site_weights, band=None, far=None):
            shapes.append(site_weights.shape)
            return real(log_k, site_weights, band, far)

        monkeypatch.setattr(quenched, "dp_log_partition", spy)
        return shapes

    @pytest.mark.parametrize("count", [1, 2, 3, 6])
    def test_rounds_hold_at_most_four_blocks(self, monkeypatch, count):
        # a round at n holds at most 4 bias blocks, as many row-sites as a
        # two-bias diagnostics call at 2n, so no call is larger than that
        n, replicas = 64, 4
        shapes = self.dp_rows(monkeypatch)
        betas = list(np.linspace(0.0, 1.5, count))
        quenched_critical_point(KERNEL, GAUSS, betas, replica_charges(GAUSS, 2 * n, replicas, 1),
                                0.01)
        at_n = [rows for rows, sites in shapes if sites == n]
        at_2n = [rows for rows, sites in shapes if sites == 2 * n]
        assert len(at_n) + len(at_2n) == len(shapes)
        assert max(at_n) <= 4 * replicas
        assert at_2n == [2 * replicas] * count
        if count >= 2:
            assert at_n[0] == 4 * replicas  # both edges of the first two betas

    def test_two_betas_share_every_round(self):
        # the bench's two betas: each round holds both searches' next biases
        # until one of them stops, so the rounds are as many as the longer
        # search's one-bias-per-call probes, less its shared starting call
        n, replicas = 128, 8
        charges = replica_charges(GAUSS, 2 * n, replicas, 1)
        with mock.patch.object(quenched, "quenched_free_energy",
                               wraps=quenched.quenched_free_energy) as spy:
            quenched_critical_point(KERNEL, GAUSS, [0.5, 1.0], charges, 0.01)
        rounds = [list(call.args[2]) for call in spy.call_args_list
                  if call.args[1].shape[1] == n]
        assert rounds[0] == [0.5, 0.5, 1.0, 1.0]
        both = [r == [0.5, 1.0] for r in rounds[1:]]
        assert both == sorted(both, reverse=True)  # both, then the longer one alone
        lengths = []
        for beta in (0.5, 1.0):
            with mock.patch.object(oracles, "quenched_free_energy",
                                   wraps=oracles.quenched_free_energy) as seq:
                critical_point_sequential(KERNEL, GAUSS, beta, charges, 0.01)
            lengths.append(seq.call_count)
        assert both.count(True) == min(lengths) - 2
        assert len(rounds) == max(lengths) - 1

    @pytest.mark.parametrize("betas", [[], [[0.5, 1.0]], [0.5, -0.1], [math.nan], [0.5, math.inf]])
    def test_search_rejects_a_bad_grid(self, betas):
        with pytest.raises(InvalidParameterError):
            quenched_critical_point(KERNEL, GAUSS, betas, replica_charges(GAUSS, 16, 2, 0), 0.05)

    def test_rejects_charges_of_wrong_shape(self):
        # one chain's charges, no replicas, no sites
        for shape in ((8,), (0, 8), (2, 0)):
            with pytest.raises(InvalidParameterError):
                quenched_free_energy(KERNEL, np.zeros(shape), 1.0, 0.2)

    @pytest.mark.parametrize("shape", [(8,), (2, 0), (2, 7), (2, 1)])
    def test_search_rejects_charges_of_wrong_shape(self, shape):
        # one chain's charges, no sites, an odd width: no (replicas, 2n) array
        with pytest.raises(InvalidParameterError):
            quenched_critical_point(KERNEL, GAUSS, [1.0], np.zeros(shape), 0.05)

    @pytest.mark.parametrize("target_width", [0.0, -1.0, math.nan])
    def test_search_rejects_a_width_that_is_not_positive(self, target_width):
        # a NaN width would stop the bisection before its first probe and
        # return the start window as a decided bracket
        with pytest.raises(InvalidParameterError):
            quenched_critical_point(KERNEL, GAUSS, [1.0], replica_charges(GAUSS, 16, 2, 0),
                                    target_width)

    def test_positive_bias_needed_at_positive_beta(self):
        # with disorder switched on, localization survives a strictly
        # positive bias, so the bracket's reliable lower edge is positive
        charges = replica_charges(GAUSS, 4096, 16, 6)
        (bracket,) = quenched_critical_point(KERNEL, GAUSS, [1.0], charges, 0.05)
        assert bracket.h_lo > 0.0
        assert not bracket.undecided
