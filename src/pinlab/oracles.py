"""Brute-force enumeration oracles for ``pinlab validate`` and the tests.

Each check sums a small system term by term, so it shares no algorithm
with the recursions it checks.  Two enumerators carry all of it: renewal
configurations on ``[0, n]`` (the pinned partition sum keeps those whose
last renewal is ``n``) and charge assignments of a finitely supported law.
The cost is exponential in ``n``, so the checks cap ``n``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .disorder import DisorderLaw, log_mgf, xi
from .errors import InvalidParameterError
from .kernels import RenewalKernel
from .quenched import PolymerParams, partition_function_log
from .relevance import replica_moment

__all__ = [
    "renewal_configurations",
    "charge_assignments",
    "pinned_partition_log",
    "annealed_partition_check",
    "replica_moment_exact_check",
]


def renewal_configurations(masses: np.ndarray, n: int):
    """Yield ``(times, probability)`` for every renewal set ``0 = t_0 < ...
    < t_k <= n`` of positive probability ``prod K(t_i - t_{i-1})``, where
    ``masses[g-1] = K(g)``."""
    stack = [((0,), 1.0)]
    while stack:
        times, prob = stack.pop()
        yield times, prob
        last = times[-1]
        for gap in range(1, min(len(masses), n - last) + 1):
            if masses[gap - 1] > 0.0:
                stack.append((times + (last + gap,), prob * masses[gap - 1]))


def charge_assignments(disorder: DisorderLaw, n: int):
    """Yield ``(charges, probability)`` for all ``|support|^n`` assignments
    of ``n`` i.i.d. charges from a finitely supported law."""
    if disorder.xs is None or disorder.family not in ("rademacher", "discrete"):
        raise InvalidParameterError("exhaustive check needs finitely supported disorder")
    for digits in itertools.product(range(len(disorder.xs)), repeat=n):
        idx = np.array(digits, dtype=int)
        yield disorder.xs[idx], float(np.prod(disorder.ps[idx]))


def pinned_partition_log(masses: np.ndarray, site_weights) -> float:
    """``log Z_n`` on ``[0, n]``, ``n = len(site_weights)``: every renewal
    but the last (at ``n``) collects ``exp(site_weights[t])``."""
    n = len(site_weights)
    total = 0.0
    for times, prob in renewal_configurations(masses, n):
        if times[-1] == n:
            total += prob * math.exp(sum(site_weights[t] for t in times[:-1]))
    return math.log(total) if total > 0.0 else -math.inf


def annealed_partition_check(
    kernel: RenewalKernel,
    disorder: DisorderLaw,
    beta: float,
    h: float,
    n: int,
    atol: float = 1e-10,
) -> tuple[bool, float, float]:
    """Exhaustive disorder average of ``Z_n`` versus the homogeneous sum.

    Averages ``Z_n`` over every charge assignment and compares with the
    homogeneous partition sum at strength ``lam = log M(beta) - h``, i.e.
    the quenched sum at ``beta = 0``, ``h = -lam``.  Cost ``|support|^n``.
    """
    if n > 14:
        raise InvalidParameterError("exhaustive check limited to n <= 14")
    params = PolymerParams(kernel=kernel, disorder=disorder, beta=beta, h=h, n=n, replicas=1)
    lhs = 0.0
    for charges, prob in charge_assignments(disorder, n):
        lhs += prob * math.exp(partition_function_log(params, charges))
    lam = log_mgf(disorder, beta) - h
    flat = PolymerParams(kernel=kernel, disorder=disorder, beta=0.0, h=-lam, n=n, replicas=1)
    rhs = math.exp(partition_function_log(flat, np.zeros(n)))
    return abs(lhs - rhs) <= atol, lhs, rhs


def replica_moment_exact_check(
    kernel_tr: RenewalKernel, disorder: DisorderLaw, beta: float, n: int
) -> tuple[float, float, float]:
    """Brute-force both sides of the replica identity on a small window.

    Returns ``(disorder_average, pair_moment, library_value)``: the
    exhaustive charge average of the word-likelihood ``f_n`` over the
    tilted letter law, the exhaustive pair-chain moment, and
    :func:`pinlab.relevance.replica_moment` (the series inverse of the
    squared returns).  All three agree to near machine precision for
    ``n <= 8``.
    """
    if n > 8:
        raise InvalidParameterError("exact check limited to n <= 8")
    masses = kernel_tr.mass_array(kernel_tr.support_upper)
    lm = log_mgf(disorder, beta)
    # renewal sets on the window [0, n-1], times the probability that the
    # gap after the last renewal overshoots the window
    configs = [(times, prob * float(masses[n - 1 - times[-1]:].sum()))
               for times, prob in renewal_configurations(masses, n - 1)]

    # f_n = sum over configs of p * prod of exp(beta w_t - log M(beta)) at
    # its renewals; the tilted letter law gives the charges probability
    # prob * f_n, so the disorder average is sum prob * f_n^2
    lhs = 0.0
    for charges, prob in charge_assignments(disorder, n):
        tilt = np.exp(beta * charges - lm)
        f_n = sum(p * math.prod(tilt[t] for t in times) for times, p in configs)
        lhs += prob * f_n * f_n

    xi_value = xi(disorder, beta)
    rhs = 0.0
    for times_a, prob_a in configs:
        set_a = set(times_a)
        for times_b, prob_b in configs:
            rhs += prob_a * prob_b * xi_value ** len(set_a.intersection(times_b))

    return lhs, rhs, replica_moment(kernel_tr, disorder, beta, n)
