"""Disorder-relevance diagnostics.

Relevance of the disorder at inverse temperature ``beta`` is equivalent
to a positive limit of ``m_tr * H_tr`` over truncation levels, where
``H_tr`` is the specific relative entropy (against i.i.d. charges) of the
letter sequence obtained by concatenating words whose lengths follow the
truncated kernel and whose first letters are tilted.  Everything here
estimates or bounds that functional:

* a Monte Carlo estimator of ``H_tr``, :func:`entropy_estimator`: sample
  the tilted letter sequence, evaluate the word-averaged likelihood ratio
  ``f_n`` by the quenched DP closed with a free right endpoint
  (:func:`_free_endpoint_log_likelihood`), and average ``log f_n / n``
  over replicas;
* the replica identity: the disorder average of ``f_n`` equals the
  pair-chain moment ``E[Xi(beta)^(# simultaneous returns)]``; the
  simultaneous returns are a renewal process with renewal sequence
  ``u_n^2``, so the moment is one series inverse (checked by enumeration
  in :mod:`pinlab.oracles`);
* the annealed upper bound ``H_tr <= f2_tr(log Xi(beta))`` and the
  restriction lower bound ``m_tr H_tr >= h(mu_beta|mu_0) + sum K^tr log
  K^tr``, both from one call, :func:`entropy_bounds`; they depend on the
  kernel, the law, ``beta`` and ``tr``, never on a sample, and the
  ``relevance`` command reads its verdicts off the estimate against them;
* the induced temperature bounds ``beta_c* <= beta_c <= beta_c**``, both
  from one call, :func:`critical_temperature_bounds`, given the kernel's
  ``chi``: ``beta_c*`` where ``Xi`` crosses ``1 + 1/chi``, ``beta_c**``
  where the tilt entropy crosses the kernel entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import (
    DisorderLaw,
    _anchored_log_mgf,
    log_xi,
    relative_entropy_limit,
    relative_entropy_tilt,
    sample,
    sample_base,
    tilt_transform,
)
from .errors import InvalidParameterError
from .homopolymer import joint_free_energy
from .kernels import (
    ChiResult,
    RenewalKernel,
    kernel_entropy,
    return_probabilities,
    truncate_kernel,
)
from .quenched import _log_partitions, _mean_stderr, _row_logsumexp, _site_weights
from .rng import derive_stream
from .roots import brentq
from .series import power_series_inverse

__all__ = [
    "CriticalTemperatureBounds",
    "RelevanceReport",
    "critical_temperature_bounds",
    "replica_moment_log",
    "entropy_estimator",
    "entropy_bounds",
]


# ---------------------------------------------------------------------------
# Critical-temperature bounds
# ---------------------------------------------------------------------------


_ROOT_TOL = 1e-10  # xtol of the temperature-bound roots in beta


def _crossing(fn, level: float, disorder: DisorderLaw) -> float:
    """Where the nondecreasing ``fn``, which tends to ``log(1/mu_0({w}))`` as
    ``beta -> inf``, crosses ``level``; ``inf`` when that limit does not
    exceed it."""
    if relative_entropy_limit(disorder) <= level:
        return math.inf
    hi = 1.0
    for _ in range(200):
        if fn(hi) > level:
            break
        hi *= 2.0
    else:
        raise InvalidParameterError("no sign change found for increasing root")
    return brentq(lambda b: fn(b) - level, 0.0, hi, xtol=_ROOT_TOL, maxiter=200)


@dataclass(frozen=True)
class CriticalTemperatureBounds:
    beta_c_star: float        # may be inf; 0.0 in the degenerate chi = inf case
    beta_c_star_star: float   # may be inf
    star_residual: float
    star_star_residual: float
    star_degenerate: bool     # chi = inf: the defining set of beta_c_star is empty
    chi: float
    kernel_entropy: float


def critical_temperature_bounds(
    kernel: RenewalKernel,
    disorder: DisorderLaw,
    chi_result: ChiResult,
) -> CriticalTemperatureBounds:
    """``beta_c* <= beta_c <= beta_c**`` for the kernel's ``chi_result``.

    ``beta_c*`` is the last tilt with ``Xi(beta) = M(2 beta)/M(beta)^2``
    below ``1 + 1/chi`` (0, flagged degenerate, when ``chi`` diverges so the
    threshold collapses to 1); ``beta_c**`` the first tilt whose relative
    entropy ``h(mu_beta | mu_0)`` exceeds the kernel entropy ``h(K)``.  Both
    sides grow to ``log(1/mu_0({w}))``, so a bound is ``inf`` when that
    limit does not clear its level.  An undecided ``chi`` raises
    :class:`UndecidedError`.
    """
    chi_val = chi_result.require_value()
    h_k = kernel_entropy(kernel)
    star = star_residual = 0.0
    if not math.isinf(chi_val):
        threshold = 1.0 + 1.0 / chi_val
        star = _crossing(lambda b: log_xi(disorder, b), math.log(threshold), disorder)
        if math.isfinite(star):
            star_residual = abs(math.exp(log_xi(disorder, star)) - threshold)
    star_star = _crossing(lambda b: relative_entropy_tilt(disorder, b), h_k, disorder)
    star_star_residual = 0.0
    if math.isfinite(star_star):
        star_star_residual = abs(relative_entropy_tilt(disorder, star_star) - h_k)
    return CriticalTemperatureBounds(
        beta_c_star=star,
        beta_c_star_star=star_star,
        star_residual=star_residual,
        star_star_residual=star_star_residual,
        star_degenerate=math.isinf(chi_val),
        chi=chi_result.value,
        kernel_entropy=h_k,
    )


# ---------------------------------------------------------------------------
# Replica moment of the pair chain
# ---------------------------------------------------------------------------


def replica_moment_log(kernel_tr: RenewalKernel, log_xi_value: float, n: int) -> float:
    """``log E[ Xi^(# simultaneous renewals in [0, n-1]) ]`` for two
    independent chains with the kernel ``kernel_tr``; both renew at time 0,
    so ``n = 1`` gives ``log Xi``.

    The simultaneous renewals have renewal sequence ``u_m^2``, so with
    ``U2 = sum u_m^2 z^m`` and gap law ``K2 = 1 - 1/U2``,

        E = Xi [z^(n-1)] (1 - K2) / ((1 - Xi K2)(1 - z)) = Xi sum_{m<n} w_m,

    ``w = 1 / (Xi - (Xi - 1) U2)``: one series inverse for any kernel.  Its
    coefficients are tilted by ``exp(-g m)``, ``g`` the root of
    ``(Xi - 1) sum_{0<m<n} u_m^2 exp(-g m) = 1`` (0 when there is none),
    so that ``w`` stays of order one; the result is exact for any ``g``.
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if not math.isfinite(log_xi_value):
        raise InvalidParameterError(f"log_xi_value must be finite, got {log_xi_value!r}")
    u2 = return_probabilities(kernel_tr, n - 1) ** 2
    xi_minus_one = math.expm1(log_xi_value)
    steps = np.arange(n, dtype=float)

    def excess(g: float) -> float:
        return xi_minus_one * float(np.dot(u2[1:], np.exp(-g * steps[1:]))) - 1.0

    # E <= Xi^n, so the root lies below log Xi
    g = 0.0
    if xi_minus_one > 0.0 and excess(0.0) > 0.0:
        g = log_xi_value
        if excess(g) < 0.0:
            g = brentq(excess, 0.0, g, rtol=1e-6)
    a = -xi_minus_one * u2 * np.exp(-g * steps)
    a[0] = 1.0
    w = power_series_inverse(a, n)
    return log_xi_value + g * (n - 1) + math.log(float(np.dot(w, np.exp(-g * steps[::-1]))))


# ---------------------------------------------------------------------------
# Monte Carlo entropy estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RelevanceReport:
    """Entropy estimate at one truncation level.

    ``estimate`` approximates the specific relative entropy ``H_tr`` (per
    letter), with standard error ``stderr`` over the replicas' values
    ``per_replica``; multiply by ``m_tr`` for the relevance functional.
    :func:`entropy_bounds` gives the bounds in the same per-letter units.
    """

    beta: float
    tr: int
    m_tr: float
    estimate: float
    stderr: float
    per_replica: np.ndarray


def _length_law(kernel_tr: RenewalKernel) -> tuple[np.ndarray, int, float]:
    """What the word sampler reads of a truncated (table) kernel: its
    cumulative masses, the index of its longest length with mass on, and
    its mean length."""
    masses = kernel_tr.masses
    return np.cumsum(masses), int(np.flatnonzero(masses)[-1]), kernel_tr.mean()


def _sample_word_sequence(
    disorder: DisorderLaw, law: tuple[np.ndarray, int, float], beta: float, n: int, stream
) -> np.ndarray:
    """Concatenated letters of tilted words covering positions ``0..n-1``.

    Word lengths are i.i.d. from the (finitely supported) kernel, given as
    its :func:`_length_law`; the first letter of each word is tilted, the
    rest are not.  Draw order is fixed (lengths, base letters, first
    letters) and length draws do not depend on ``beta``, so a shared stream
    yields common random numbers across a tilt grid.  A uniform at or above
    the rounded total of the masses takes the longest length with mass on.
    """
    cum, longest, mean_len = law
    lengths = None
    covered = 0.0
    while covered < n:
        want = max(int((n - covered) / mean_len * 1.2) + 8, 16)
        draw = np.minimum(np.searchsorted(cum, stream.uniform(want), side="right"), longest) + 1
        lengths = draw if lengths is None else np.concatenate([lengths, draw])
        covered = float(lengths.sum())
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    starts = starts[starts < n]
    letters = sample(disorder, stream, n)
    first = tilt_transform(disorder, sample_base(disorder, stream, len(starts)), beta)
    letters[starts] = first
    return letters


def _free_endpoint_log_likelihood(
    log_z: np.ndarray, site_weights: np.ndarray, masses: np.ndarray
) -> np.ndarray:
    """``log f_n`` per row: the pinned sums closed with a free right endpoint,

        log f_n = logsumexp_m [ log Z_m + a_m + log P(gap > n-1-m) ],

    ``log_z`` is ``dp_log_partition`` of the ``(rows, n)`` ``site_weights``;
    ``a_m`` restores the weight of the last renewal ``m``, which the DP
    leaves out.  ``masses[g-1] = K^tr(g)`` lists the whole truncated law,
    and ``P(gap > q)`` is the suffix sum of its masses from ``q + 1``: never
    negative, and exactly 0 (log ``-inf``) from its last gap with mass on.
    """
    n = site_weights.shape[1]
    surv = np.cumsum(masses[::-1])[::-1]  # surv[q] = P(gap > q)
    m_lo = max(0, n - len(masses))
    with np.errstate(divide="ignore"):
        log_surv = np.log(surv[n - 1 - np.arange(m_lo, n)])
    return _row_logsumexp(log_z[:, m_lo:n] + site_weights[:, m_lo:n] + log_surv[None, :])


def entropy_estimator(
    kernel: RenewalKernel,
    disorder: DisorderLaw,
    beta: float,
    tr: int,
    n: int,
    replicas: int,
    base_seed: int,
) -> RelevanceReport:
    """Monte Carlo estimate of the truncated specific relative entropy.

    Per replica: sample the concatenated tilted-word sequence, run the
    renewal DP (:func:`pinlab.quenched.dp_log_partition`, the scaled
    linear-domain recursion, banded at the truncated kernel's largest gap
    with mass) for the truncated kernel at tilt ``beta`` and bias ``log
    M(beta)``, and close with a free right endpoint
    (:func:`_free_endpoint_log_likelihood`).  The per-letter average of
    ``log f_n`` over replicas tends to ``H_tr``; at ``beta = 0`` the
    likelihood ratio is identically one and the estimate is exactly zero.
    The site weights are written over the ``(replicas, n)`` array of the
    drawn letters, so they and the DP's ``log Z`` are the only arrays of
    that size.  Site weights, means or standard errors that are not finite
    raise :class:`PrecisionError`, as in
    :func:`pinlab.quenched.quenched_free_energy`.
    """
    if tr < 1 or n < 2 or replicas < 1:
        raise InvalidParameterError("need tr >= 1, n >= 2, replicas >= 1")
    if not math.isfinite(beta):
        raise InvalidParameterError(f"beta must be finite, got {beta!r}")
    ktr = truncate_kernel(kernel, tr)
    masses = ktr.mass_array(tr)
    m_tr = ktr.mean()

    if beta == 0.0:
        per_replica = np.zeros(replicas)
        estimate, stderr = 0.0, 0.0
    else:
        # beta * (x - anchor) - (log M(beta) - beta * anchor): the anchor
        # terms, which swamp the O(1) weights of an atom table at large
        # |beta|, cancel before rounding
        anchor, rest = _anchored_log_mgf(disorder, beta)
        law = _length_law(ktr)
        charges = np.empty((replicas, n))
        for r in range(replicas):
            stream = derive_stream(base_seed, r)
            charges[r] = _sample_word_sequence(disorder, law, beta, n, stream) - anchor
        site_weights = _site_weights(charges, beta, rest, out=charges)
        log_z = _log_partitions(ktr, site_weights)
        per_replica = _free_endpoint_log_likelihood(log_z, site_weights, masses) / n
        estimate, stderr = _mean_stderr(per_replica)

    per_replica.setflags(write=False)
    return RelevanceReport(beta, tr, m_tr, estimate, stderr, per_replica)


def entropy_bounds(
    kernel: RenewalKernel, disorder: DisorderLaw, beta: float, tr: int
) -> tuple[float, float]:
    """``(lower, upper)`` bounds on ``H_tr``, per letter as
    :attr:`RelevanceReport.estimate`: the restriction bound ``(h(mu_beta |
    mu_0) - h(K^tr)) / m_tr`` and the annealed bound ``f2_tr(log
    Xi(beta))``, the truncated joint free energy, solved to the joint
    solve's fixed tolerance (:func:`pinlab.homopolymer.joint_free_energy`).
    Neither depends on a sample.  A ``beta`` that is not finite raises
    :class:`InvalidParameterError`."""
    if not math.isfinite(beta):
        raise InvalidParameterError(f"beta must be finite, got {beta!r}")
    ktr = truncate_kernel(kernel, tr)
    lower = (relative_entropy_tilt(disorder, beta) - kernel_entropy(ktr)) / ktr.mean()
    upper = joint_free_energy(kernel, log_xi(disorder, beta), tr=tr)
    return lower, upper
