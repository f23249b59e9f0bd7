"""Brute-force enumeration oracles for ``pinlab validate`` and the tests.

Each check sums a small system term by term, so it shares no algorithm
with the recursions it checks.  Two enumerators carry all of it: renewal
configurations on ``[0, n]`` (the pinned partition sum keeps those whose
last renewal is ``n``, the free-endpoint sums those inside ``[0, n-1]``)
and charge assignments of a finitely supported law.
The cost is exponential in ``n``, so the checks cap ``n``.  The checks
return the values they compare, not a verdict: each caller applies its own
tolerance.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .disorder import DisorderLaw, log_mgf, log_xi
from .errors import InvalidParameterError
from .kernels import RenewalKernel
from .quenched import _partition_rows_log, partition_function_log
from .relevance import replica_moment_log

__all__ = [
    "renewal_configurations",
    "charge_assignments",
    "pinned_partition_log",
    "free_endpoint_configurations",
    "free_endpoint_likelihood",
    "pair_moment",
    "annealed_partition_check",
    "replica_moment_exact_check",
]

_BLOCK = 4096  # charge assignments per DP call of annealed_partition_check


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
    if disorder.family != "discrete":
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
) -> tuple[float, float]:
    """Both sides of the annealed identity ``E[Z_n] = Z_n(lam)``.

    Returns ``(lhs, rhs)``: the average of ``Z_n`` over every charge
    assignment, and the homogeneous partition sum at strength ``lam =
    log M(beta) - h``, i.e. the sum with every site weight ``lam``.  The
    caller compares them at its own tolerance.  Cost ``|support|^n``.
    The assignments' site weights go through the DP as the rows of one
    call per block of ``_BLOCK``, so memory stays ``O(_BLOCK * n)``; the
    average is summed in assignment order.
    """
    if n > 14:
        raise InvalidParameterError("exhaustive check limited to n <= 14")
    lhs = 0.0
    assignments = charge_assignments(disorder, n)
    while block := list(itertools.islice(assignments, _BLOCK)):
        charges, probs = zip(*block)
        log_z = _partition_rows_log(kernel, beta * np.array(charges) - h)
        for prob, value in zip(probs, log_z.tolist()):
            lhs += prob * math.exp(value)
    lam = log_mgf(disorder, beta) - h
    rhs = math.exp(partition_function_log(kernel, np.full(n, lam)))
    return lhs, rhs


def free_endpoint_configurations(kernel: RenewalKernel, n: int) -> list:
    """``(times, weight)`` for every renewal set ``0 = t_0 < ... < t_k <=
    n-1`` in the window ``[0, n-1]``: its probability times the chance
    ``P(gap > n-1-t_k)`` that the gap after the last renewal overshoots the
    window, the kernel's exact tail (0 past a finite support)."""
    out = []
    for times, prob in renewal_configurations(kernel.mass_array(n - 1), n - 1):
        tail = kernel.tail_mass(n - times[-1])
        if tail > 0.0:
            out.append((times, prob * tail))
    return out


def free_endpoint_likelihood(kernel: RenewalKernel, site_weights) -> float:
    """Word-averaged likelihood ``f_n`` with a free right endpoint,
    ``n = len(site_weights)``: every renewal in the window, ``0`` and the
    last included, collects ``exp(site_weights[t])``."""
    return sum(
        prob * math.exp(sum(site_weights[t] for t in times))
        for times, prob in free_endpoint_configurations(kernel, len(site_weights))
    )


def pair_moment(kernel: RenewalKernel, xi_value: float, n: int) -> float:
    """``E[xi^(# simultaneous renewals in [0, n-1])]`` of two independent
    chains, by double enumeration of their window sets."""
    configs = free_endpoint_configurations(kernel, n)
    return sum(prob_a * prob_b * xi_value ** len(set(times_a).intersection(times_b))
               for times_a, prob_a in configs for times_b, prob_b in configs)


def replica_moment_exact_check(
    kernel_tr: RenewalKernel, disorder: DisorderLaw, beta: float, n: int
) -> tuple[float, float, float]:
    """Brute-force both sides of the replica identity on a small window.

    Returns ``(disorder_average, pair_moment, library_value)``: the
    exhaustive charge average of the word-likelihood ``f_n`` over the
    tilted letter law, the exhaustive pair-chain moment, and the exponential
    of :func:`pinlab.relevance.replica_moment_log` (the series inverse of
    the squared returns).  All three agree to near machine precision for
    ``n <= 8``.
    """
    if n > 8:
        raise InvalidParameterError("exact check limited to n <= 8")
    lm = log_mgf(disorder, beta)
    # the tilted letter law gives the charges probability prob * f_n, so the
    # disorder average of f_n is sum prob * f_n^2
    lhs = 0.0
    for charges, prob in charge_assignments(disorder, n):
        lhs += prob * free_endpoint_likelihood(kernel_tr, beta * charges - lm) ** 2
    log_xi_value = log_xi(disorder, beta)
    rhs = pair_moment(kernel_tr, math.exp(log_xi_value), n)
    return lhs, rhs, math.exp(replica_moment_log(kernel_tr, log_xi_value, n))
