"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantity at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest

from pinlab.disorder import (
    continuous_disorder,
    discrete_disorder,
    gaussian_disorder,
    log_mgf,
    rademacher_disorder,
    relative_entropy_tilt,
    tilted_mean,
)
from pinlab.homopolymer import (
    annealed_critical_curve,
    annealed_free_energy,
    homopolymer_free_energy,
    joint_free_energy,
    lambda0_from_chi,
    joint_truncation_bound,
)
from pinlab.kernels import (
    chi,
    make_geometric_kernel,
    make_power_kernel,
    return_probabilities,
    truncate_kernel,
)
from pinlab.oracles import annealed_partition_check, pinned_partition_log, replica_moment_exact_check
from pinlab.quenched import (
    _mean_stderr,
    partition_function_log,
    quenched_critical_point,
    quenched_free_energy,
    replica_charges,
)
from pinlab.relevance import critical_temperature_bounds, entropy_bounds, entropy_estimator

from oracles import joint_truncation_bound_limit, return_prefactor_limit, loglog_slope

GAUSS = gaussian_disorder()
RAD = rademacher_disorder()


@pytest.fixture(scope="module")
def chi_03():
    return chi(make_power_kernel(0.3))


def report(number: int, message: str):
    print(f"[acceptance {number:02d}] PASS — {message}")


def test_01_annealed_critical_curve_exact():
    worst = 0.0
    for disorder, name in ((GAUSS, "gaussian"), (RAD, "rademacher")):
        for point in annealed_critical_curve(disorder, [0.5, 1.0, 2.0]):
            gap = abs(point.bisection_zero - point.h_c)
            worst = max(worst, gap)
            assert gap <= 1e-8, (name, point.beta, gap)
    report(1, f"annealed bisection zero matches log M(beta); worst gap {worst:.2e} <= 1e-8")


def test_02_homopolymer_closed_form():
    kernel = make_geometric_kernel(0.5)
    worst = 0.0
    for lam in np.linspace(2.0 / 50.0, 2.0, 50):
        res = homopolymer_free_energy(kernel, float(lam))
        exact = math.log((math.exp(lam) + 1.0) / 2.0)
        worst = max(worst, abs(res.f - exact))
    assert worst <= 1e-10
    report(2, f"geometric closed form on 50 points; worst error {worst:.2e} <= 1e-10")


def test_03_transition_order_exponents():
    details = []
    for alpha in (0.3, 0.5, 0.8):
        kernel = make_power_kernel(alpha)
        lams = np.geomspace(1e-3, 1e-2, 11)
        fs = [homopolymer_free_energy(kernel, float(l)).f for l in lams]
        slope = loglog_slope(lams, fs)
        expected = 1.0 / alpha
        assert abs(slope - expected) <= 0.15 * expected, (alpha, slope)
        details.append(f"alpha={alpha}: {slope:.3f} vs {expected:.3f}")
    report(3, "transition exponents within 15%: " + "; ".join(details))


def test_04_return_probability_prefactor():
    u = return_probabilities(make_power_kernel(0.5), 100_000)
    value = u[100_000] * math.sqrt(100_000.0)
    target = return_prefactor_limit(0.5)
    assert target == pytest.approx(0.4157, abs=2e-4)
    assert abs(value - target) <= 0.10 * target
    report(4, f"u_n sqrt(n) at n=1e5 is {value:.6f} vs {target:.6f} (within 10%)")


def test_05_dp_vs_enumeration():
    kernel = make_power_kernel(0.5)
    rng = np.random.default_rng([20_260_808, 0])
    worst = 0.0
    for case in range(20):
        n = int(rng.integers(1, 13))
        beta = float(2.0 * rng.random())
        h = float(2.0 * rng.random() - 1.0)
        omega = rng.standard_normal(n)
        got = partition_function_log(kernel, beta * omega - h)
        want = pinned_partition_log(kernel.mass_array(n), beta * omega - h)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-12, (case, n, beta, h)
    report(5, f"20 random instances, n <= 12; worst DP-vs-enumeration gap {worst:.2e} <= 1e-12")


def test_06_replica_identity():
    kernel = make_power_kernel(0.5)
    rng = np.random.default_rng([20_260_808, 1])
    worst = 0.0
    for case in range(10):
        n = int(rng.integers(2, 7))
        tr = int(rng.integers(1, 5))
        beta = float(2.0 * rng.random())
        ktr = truncate_kernel(kernel, tr)
        lhs, rhs, dp = replica_moment_exact_check(ktr, RAD, beta, n)
        gap = max(abs(lhs - rhs), abs(lhs - dp))
        worst = max(worst, gap)
        assert gap <= 1e-12, (case, n, tr, beta)
    report(6, f"replica identity over 10 random (n, tr, beta); worst gap {worst:.2e} <= 1e-12")


def test_07_annealed_moment_identity():
    kernel = make_power_kernel(0.5)
    worst = 0.0
    for n in range(1, 11):
        lhs, rhs = annealed_partition_check(kernel, RAD, beta=0.7, h=0.2, n=n)
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) <= 1e-10, (n, lhs, rhs)
    report(7, f"disorder-averaged partition equals homogeneous one for n <= 10; worst gap {worst:.2e} <= 1e-10")


def test_08_joint_truncation_bound(chi_03):
    kernel = make_power_kernel(0.3)
    lam0 = lambda0_from_chi(chi_03)
    lam = lam0 / 2.0
    limit = joint_truncation_bound_limit(lam, lam0)
    seq = []
    for tr in (10, 50, 100, 500, 1000):
        f2tr = joint_free_energy(kernel, lam, tr=tr)
        bound = joint_truncation_bound(kernel, tr, lam, chi_result=chi_03)
        assert tr * f2tr <= bound, (tr, tr * f2tr, bound)
        assert tr * f2tr <= 1.1 * limit, (tr, tr * f2tr, limit)
        seq.append(tr * f2tr)
    report(8, f"tr*f2_tr stays below the truncation bound; sequence {['%.4f' % v for v in seq]} vs limit {limit:.4f}")


def test_09_quenched_below_annealed():
    kernel = make_power_kernel(0.5)
    charges = replica_charges(GAUSS, 4096, 64, 1234)
    checks = []
    for beta in (0.5, 1.0):
        h_ann = log_mgf(GAUSS, beta)
        for h in (0.0, h_ann / 2.0, h_ann):
            est = quenched_free_energy(kernel, charges, beta, h)
            f_ann = annealed_free_energy(kernel, GAUSS, beta, h).f
            assert est.mean <= f_ann + 3.0 * est.stderr, (beta, h, est.mean, f_ann)
            checks.append(f_ann - est.mean)
    report(9, f"quenched estimate <= annealed at 6 (beta, h) points; min margin {min(checks):.4f}")


def test_10_critical_bias_vanishes_without_disorder():
    kernel = make_power_kernel(1.5)
    (bracket,) = quenched_critical_point(
        kernel, GAUSS, [0.0], replica_charges(GAUSS, 8192, 1, 0), 0.002
    )
    assert bracket.h_lo <= 0.0 <= bracket.h_hi, (bracket.h_lo, bracket.h_hi)
    assert bracket.width <= 0.01, bracket.width
    report(10, f"beta=0 bracket [{bracket.h_lo:.5f}, {bracket.h_hi:.5f}] contains 0, width {bracket.width:.5f} <= 0.01")


def test_11_entropy_sandwich(chi_03):
    kernel = make_power_kernel(0.3)
    beta = 1.5
    lines = []
    for tr in (8, 16, 32):
        rep = entropy_estimator(
            kernel, GAUSS, beta, tr=tr, n=256 * tr, replicas=64, base_seed=99
        )
        lower_bound, upper_bound = entropy_bounds(kernel, GAUSS, beta, tr)
        sigma = rep.m_tr * rep.stderr
        scaled = rep.m_tr * rep.estimate
        lower = rep.m_tr * lower_bound
        upper = rep.m_tr * upper_bound
        assert lower - 3.0 * sigma <= scaled <= upper + 3.0 * sigma, (tr, lower, scaled, upper)
        lines.append(f"tr={tr}: {lower:.3f} <= {scaled:.3f} <= {upper:.3f}")
    report(11, "entropy sandwich holds at 3 sigma: " + "; ".join(lines))


def test_12_entropy_monotone_in_beta():
    # every beta reuses the replica streams of base_seed 77, so consecutive
    # estimates are coupled and a drop counts only past 3 paired stderr
    kernel = make_power_kernel(0.3)
    reports = [
        entropy_estimator(kernel, GAUSS, beta, tr=16, n=4096, replicas=64, base_seed=77)
        for beta in (0.0, 0.5, 1.0, 1.5)
    ]
    assert reports[0].estimate == 0.0
    for left, right in zip(reports, reports[1:]):
        mean_delta, stderr_delta = _mean_stderr(right.per_replica - left.per_replica)
        assert mean_delta >= -3.0 * stderr_delta, (left.beta, right.beta, mean_delta, stderr_delta)
    estimates = [r.estimate for r in reports]
    report(12, "entropy nondecreasing on beta grid with shared noise: "
           + ", ".join(f"{e:.5f}" for e in estimates))


def test_13_temperature_bound_closed_forms(chi_03):
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    kernel = make_power_kernel(0.3)
    bounds = critical_temperature_bounds(kernel, GAUSS, chi_03)
    want_star = math.sqrt(math.log(1.0 + 1.0 / chi_03.value))
    assert abs(bounds.beta_c_star - want_star) <= 1e-8

    s = 1.3
    z = mp.zeta(s)
    h_k_independent = float(mp.log(z) - s * mp.zeta(s, 1, 1) / z)
    want_star_star = math.sqrt(2.0 * h_k_independent)
    assert abs(bounds.beta_c_star_star - want_star_star) <= 1e-8

    rad = critical_temperature_bounds(kernel, RAD, chi_03)
    assert chi_03.value <= 1.0
    assert math.isinf(rad.beta_c_star)
    report(13, f"beta_c* = {bounds.beta_c_star:.8f}, beta_c** = {bounds.beta_c_star_star:.8f} match closed forms to 1e-8; fair-sign case infinite")


def test_14_variational_identity():
    # over product word measures with tilted first letter, beta * mean(mu_t) -
    # h(mu_t | mu_0) peaks at t = beta with value log M(beta): Legendre duality
    laws = (
        (GAUSS, "gaussian"),
        (RAD, "rademacher"),
        (discrete_disorder([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2]), "3-atom table"),
        (continuous_disorder([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 1.0, 0.0]), "tent density"),
    )
    for disorder, name in laws:
        for beta in (0.5, 1.0, 2.0):
            log_m = log_mgf(disorder, beta)
            at_beta = beta * tilted_mean(disorder, beta) - relative_entropy_tilt(disorder, beta)
            assert abs(at_beta - log_m) <= 1e-15 * max(1.0, abs(log_m)), (name, beta)
    grid = np.linspace(0.0, 3.0, 1201)
    step = grid[1] - grid[0]
    worst_gap = 0.0
    for disorder, name in laws[:2]:
        for beta in (0.5, 1.0, 2.0):
            values = [beta * tilted_mean(disorder, t) - relative_entropy_tilt(disorder, t)
                      for t in grid]
            best = int(np.argmax(values))
            gap = log_mgf(disorder, beta) - values[best]
            assert abs(grid[best] - beta) <= step + 1e-12, (name, beta)
            grid_error = step * step  # curvature of the objective is O(1)
            assert 0.0 <= gap <= grid_error + 1e-10, (name, beta, gap)
            worst_gap = max(worst_gap, gap)
    report(14, f"restricted variational maximum at the matching tilt; worst value gap {worst_gap:.2e}")
