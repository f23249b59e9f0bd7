"""Disorder-relevance diagnostics.

Relevance of the disorder at inverse temperature ``beta`` is equivalent
to a positive limit of ``m_tr * H_tr`` over truncation levels, where
``H_tr`` is the specific relative entropy (against i.i.d. charges) of the
letter sequence obtained by concatenating words whose lengths follow the
truncated kernel and whose first letters are tilted.  Everything here
estimates or bounds that functional:

* a Monte Carlo estimator of ``H_tr``: sample the tilted letter sequence,
  evaluate the word-averaged likelihood ratio ``f_n`` by the quenched DP
  with a free right endpoint, and average ``log f_n / n`` over replicas;
* the replica identity: the disorder average of ``f_n`` equals the
  pair-chain moment ``E[Xi(beta)^(# simultaneous returns)]``; the
  simultaneous returns are a renewal process with renewal sequence
  ``u_n^2``, so the moment is one series inverse (checked by enumeration
  in :mod:`pinlab.oracles`);
* the annealed upper bound ``H_tr <= f2_tr(log Xi(beta))`` and the
  restriction lower bound ``m_tr H_tr >= h(mu_beta|mu_0) + sum K^tr log
  K^tr``;
* the induced temperature bounds: ``beta_c_star`` where ``Xi`` crosses
  ``1 + 1/chi`` and ``beta_c_star_star`` where the tilt entropy crosses
  the kernel entropy;
* a restricted variational check: over product word measures with tilted
  first letter, ``beta * mean(mu_t) - h(mu_t | mu_0)`` peaks at the tilt
  ``t = beta`` with value ``log M(beta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .disorder import (
    DisorderLaw,
    log_mgf,
    log_xi,
    relative_entropy_limit,
    relative_entropy_tilt,
    sample_base,
    tilt_transform,
    tilted_mean,
    xi,
    xi_limit,
)
from .errors import InvalidParameterError, PrecisionError
from .homopolymer import joint_free_energy
from .kernels import (
    ChiResult,
    RenewalKernel,
    chi as compute_chi,
    kernel_entropy,
    return_probabilities,
    truncate_kernel,
)
from .quenched import dp_log_partition, log_mass_vector
from .rng import derive_stream
from .series import power_series_inverse

__all__ = [
    "CriticalTemperatureBounds",
    "RelevanceReport",
    "MonotonicityScan",
    "VariationalCheck",
    "beta_c_star",
    "beta_c_star_star",
    "critical_temperature_bounds",
    "replica_moment",
    "replica_moment_log",
    "entropy_estimator",
    "entropy_monotonicity_scan",
    "annealed_variational_check",
]


# ---------------------------------------------------------------------------
# Critical-temperature bounds
# ---------------------------------------------------------------------------


def _increasing_root(fn, target: float, tol: float, hi_start: float = 1.0) -> float:
    """Root of a continuous nondecreasing ``fn`` crossing ``target``."""
    hi = hi_start
    for _ in range(200):
        if fn(hi) > target:
            break
        hi *= 2.0
    else:
        raise InvalidParameterError("no sign change found for increasing root")
    return brentq(
        lambda b: fn(b) - target, 0.0, hi,
        xtol=tol, rtol=4.0 * np.finfo(float).eps, maxiter=200,
    )


@dataclass(frozen=True)
class BetaCStar:
    value: float          # may be inf; 0.0 in the degenerate chi = inf case
    residual: float
    degenerate: bool      # chi = inf: the defining set is empty


def beta_c_star(
    kernel: RenewalKernel,
    disorder: DisorderLaw,
    tol: float = 1e-10,
    chi_result: ChiResult | None = None,
) -> BetaCStar:
    """Last tilt with ``Xi(beta) = M(2 beta)/M(beta)^2`` below ``1 + 1/chi``.

    Returns ``inf`` when the large-tilt limit ``1/mu_0({w})`` never
    reaches the threshold, and ``0`` (flagged degenerate) when ``chi``
    diverges so the threshold collapses to 1.
    """
    if chi_result is None:
        chi_result = compute_chi(kernel)
    chi_val = chi_result.require_value()
    return _beta_c_star_from_chi(disorder, chi_val, tol)


def _beta_c_star_from_chi(disorder: DisorderLaw, chi_val: float, tol: float) -> BetaCStar:
    if math.isinf(chi_val):
        return BetaCStar(value=0.0, residual=0.0, degenerate=True)
    threshold = 1.0 + 1.0 / chi_val
    if xi_limit(disorder) <= threshold:
        return BetaCStar(value=math.inf, residual=0.0, degenerate=False)
    root = _increasing_root(
        lambda b: log_xi(disorder, b), math.log(threshold), tol
    )
    residual = abs(xi(disorder, root) - threshold)
    return BetaCStar(value=root, residual=residual, degenerate=False)


@dataclass(frozen=True)
class BetaCStarStar:
    value: float  # may be inf
    residual: float


def beta_c_star_star(
    kernel: RenewalKernel, disorder: DisorderLaw, tol: float = 1e-10
) -> BetaCStarStar:
    """First tilt whose relative entropy exceeds the kernel entropy.

    ``h(mu_beta | mu_0)`` grows continuously from 0 to
    ``log(1/mu_0({w}))``; if that limit never clears ``h(K)`` the bound
    is ``inf``.
    """
    h_k = kernel_entropy(kernel)
    if relative_entropy_limit(disorder) <= h_k:
        return BetaCStarStar(value=math.inf, residual=0.0)
    root = _increasing_root(lambda b: relative_entropy_tilt(disorder, b), h_k, tol)
    return BetaCStarStar(
        value=root, residual=abs(relative_entropy_tilt(disorder, root) - h_k)
    )


@dataclass(frozen=True)
class CriticalTemperatureBounds:
    beta_c_star: float
    beta_c_star_star: float
    star_residual: float
    star_star_residual: float
    star_degenerate: bool
    chi_value: float
    kernel_entropy: float

    def to_json(self) -> dict:
        return {
            "beta_c_star": self.beta_c_star,
            "beta_c_star_star": self.beta_c_star_star,
            "star_residual": self.star_residual,
            "star_star_residual": self.star_star_residual,
            "star_degenerate": self.star_degenerate,
            "chi": self.chi_value,
            "kernel_entropy": self.kernel_entropy,
        }


def critical_temperature_bounds(
    kernel: RenewalKernel,
    disorder: DisorderLaw,
    tol: float = 1e-10,
    chi_result: ChiResult | None = None,
) -> CriticalTemperatureBounds:
    if chi_result is None:
        chi_result = compute_chi(kernel)
    star = beta_c_star(kernel, disorder, tol, chi_result=chi_result)
    star_star = beta_c_star_star(kernel, disorder, tol)
    return CriticalTemperatureBounds(
        beta_c_star=star.value,
        beta_c_star_star=star_star.value,
        star_residual=star.residual,
        star_star_residual=star_star.residual,
        star_degenerate=star.degenerate,
        chi_value=chi_result.value,
        kernel_entropy=kernel_entropy(kernel),
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
    u2 = return_probabilities(kernel_tr, n - 1).u ** 2
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


def replica_moment(
    kernel_tr: RenewalKernel, disorder: DisorderLaw, beta: float, n: int
) -> float:
    """Pair-chain moment ``E[Xi(beta)^(# simultaneous renewals)]``.

    Raises :class:`PrecisionError` when the moment overflows a float; the
    log moment is still available from :func:`replica_moment_log`.
    """
    log_moment = replica_moment_log(kernel_tr, log_xi(disorder, beta), n)
    try:
        return math.exp(log_moment)
    except OverflowError:
        raise PrecisionError(
            f"replica moment exp({log_moment!r}) overflows a float"
        ) from None


# ---------------------------------------------------------------------------
# Monte Carlo entropy estimator
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RelevanceReport:
    """Entropy estimate at one truncation level, with its two bounds.

    ``estimate`` approximates the specific relative entropy ``H_tr`` (per
    letter); multiply by ``m_tr`` for the relevance functional.
    ``lower_bound`` and ``upper_bound`` are in the same per-letter units,
    so the certified sandwich reads ``lower <= estimate <= upper`` up to
    ``3 * stderr``.
    """

    beta: float
    tr: int
    m_tr: float
    estimate: float
    stderr: float
    n: int
    replicas: int
    base_seed: int
    lower_bound: float | None
    upper_bound: float | None
    sandwich_ok: bool | None
    ci_excludes_zero: bool
    per_replica: np.ndarray

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "tr": self.tr,
            "m_tr": self.m_tr,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "n": self.n,
            "replicas": self.replicas,
            "seed": self.base_seed,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "sandwich_ok": self.sandwich_ok,
            "ci_excludes_zero": self.ci_excludes_zero,
        }


def _sample_word_sequence(
    disorder: DisorderLaw, masses: np.ndarray, beta: float, n: int, stream
) -> np.ndarray:
    """Concatenated letters of tilted words covering positions ``0..n-1``.

    Word lengths are i.i.d. from the (finitely supported) kernel; the
    first letter of each word is tilted, the rest are not.  Draw order is
    fixed (lengths, base letters, first letters) and length draws do not
    depend on ``beta``, so a shared stream yields common random numbers
    across a tilt grid.
    """
    cum = np.cumsum(masses)
    mean_len = float(np.dot(np.arange(1, len(masses) + 1), masses))
    lengths = np.empty(0, dtype=np.int64)
    covered = 0.0
    while covered < n:
        want = max(int((n - covered) / mean_len * 1.2) + 8, 16)
        draw = np.searchsorted(cum, stream.uniform(want), side="right") + 1
        lengths = np.concatenate([lengths, draw])
        covered = float(lengths.sum())
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    starts = starts[starts < n]
    letters = tilt_transform(disorder, sample_base(disorder, stream, n), 0.0)
    first = tilt_transform(disorder, sample_base(disorder, stream, len(starts)), beta)
    letters[starts] = first
    return letters


_F2_TOL = 1e-8  # fixed-point residual of the annealed upper bound


def entropy_estimator(
    kernel: RenewalKernel,
    disorder: DisorderLaw,
    beta: float,
    tr: int,
    n: int,
    replicas: int,
    base_seed: int,
    compute_bounds: bool = True,
) -> RelevanceReport:
    """Monte Carlo estimate of the truncated specific relative entropy.

    Per replica: sample the concatenated tilted-word sequence, run the
    log-domain renewal DP for the truncated kernel at tilt ``beta`` and
    bias ``log M(beta)``, and close with a free right endpoint,

        log f_n = logsumexp_m [ log Z_m + a_m + log P(gap > n-1-m) ],

    where ``a_m`` is the charge weight at the last renewal ``m`` (the DP
    convention leaves the terminal site unweighted, so it is restored
    here) and the survival factor accounts for the chain overshooting the
    window.  The per-letter average of ``log f_n`` over replicas tends to
    ``H_tr``; at ``beta = 0`` the likelihood ratio is identically one and
    the estimate is exactly zero.
    """
    if tr < 1 or n < 2 or replicas < 1:
        raise InvalidParameterError("need tr >= 1, n >= 2, replicas >= 1")
    ktr = truncate_kernel(kernel, tr)
    masses = ktr.mass_array(tr)
    m_tr = ktr.mean()

    if beta == 0.0:
        per_replica = np.zeros(replicas)
        estimate, stderr = 0.0, 0.0
    else:
        lm = log_mgf(disorder, beta)
        charges = np.empty((replicas, n))
        for r in range(replicas):
            stream = derive_stream(base_seed, r)
            charges[r] = _sample_word_sequence(disorder, masses, beta, n, stream)
        site_weights = beta * charges - lm
        log_k = log_mass_vector(ktr, n)
        log_z = dp_log_partition(log_k, site_weights, band=tr)

        cum = np.cumsum(masses)
        m_lo = max(0, n - tr)
        qs = n - 1 - np.arange(m_lo, n)
        surv = np.where(qs == 0, 1.0, 1.0 - cum[np.maximum(qs, 1) - 1])
        closing = log_z[:, m_lo:n] + site_weights[:, m_lo:n] + np.log(surv)[None, :]
        peak = closing.max(axis=1)
        log_f = peak + np.log(np.exp(closing - peak[:, None]).sum(axis=1))
        per_replica = log_f / n
        estimate = float(per_replica.mean())
        stderr = (
            float(per_replica.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
        )

    lower = upper = None
    sandwich = None
    if compute_bounds:
        pos = masses[masses > 0.0]
        lower = (relative_entropy_tilt(disorder, beta) + float(np.sum(pos * np.log(pos)))) / m_tr
        upper = joint_free_energy(kernel, log_xi(disorder, beta), tr=tr, tol=_F2_TOL).f2
        slack = 3.0 * stderr
        sandwich = (lower - slack <= estimate) and (estimate <= upper + slack)

    per_replica.setflags(write=False)
    return RelevanceReport(
        beta=beta,
        tr=tr,
        m_tr=m_tr,
        estimate=estimate,
        stderr=stderr,
        n=n,
        replicas=replicas,
        base_seed=base_seed,
        lower_bound=lower,
        upper_bound=upper,
        sandwich_ok=sandwich,
        ci_excludes_zero=bool(estimate - 3.0 * stderr > 0.0),
        per_replica=per_replica,
    )


@dataclass(frozen=True, eq=False)
class MonotonicityScan:
    reports: list
    violations: list  # (beta_lo, beta_hi, mean_delta, stderr_delta)

    @property
    def monotone_ok(self) -> bool:
        return not self.violations


def entropy_monotonicity_scan(
    kernel: RenewalKernel,
    disorder: DisorderLaw,
    beta_grid,
    tr: int,
    n: int,
    replicas: int,
    base_seed: int,
    compute_bounds: bool = False,
) -> MonotonicityScan:
    """Entropy estimates along a tilt grid with common random numbers.

    Every grid point reuses the same replica streams, so consecutive
    estimates are positively coupled and their paired differences carry
    far less variance than the raw estimates.  A decrease is flagged only
    when it exceeds three standard errors of the paired difference.
    """
    betas = list(beta_grid)
    reports = [
        entropy_estimator(
            kernel, disorder, b, tr, n, replicas, base_seed, compute_bounds=compute_bounds
        )
        for b in betas
    ]
    violations = []
    for left, right in zip(reports, reports[1:]):
        if right.beta < left.beta:
            raise InvalidParameterError("beta grid must be nondecreasing")
        deltas = right.per_replica - left.per_replica
        mean_delta = float(deltas.mean())
        stderr_delta = (
            float(deltas.std(ddof=1) / math.sqrt(len(deltas))) if len(deltas) > 1 else 0.0
        )
        if mean_delta < -3.0 * stderr_delta:
            violations.append((left.beta, right.beta, mean_delta, stderr_delta))
    return MonotonicityScan(reports=reports, violations=violations)


# ---------------------------------------------------------------------------
# Restricted variational identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationalCheck:
    beta: float
    argmax_tilt: float
    max_value: float
    reference: float  # log M(beta)

    @property
    def gap(self) -> float:
        return self.reference - self.max_value


def annealed_variational_check(
    disorder: DisorderLaw,
    beta: float,
    tilt_grid,
) -> VariationalCheck:
    """Maximize ``beta * mean(mu_t) - h(mu_t | mu_0)`` over the tilt grid.

    Over the product word family (i.i.d. words, any fixed length law,
    first letter tilted by ``t``) the length law cancels, the objective
    peaks at ``t = beta``, and the peak value is ``log M(beta)`` — the
    annealed critical bias.
    """
    grid = np.asarray(list(tilt_grid), dtype=float)
    if grid.size == 0:
        raise InvalidParameterError("tilt grid must be nonempty")
    values = np.array(
        [beta * tilted_mean(disorder, t) - relative_entropy_tilt(disorder, t) for t in grid]
    )
    best = int(np.argmax(values))
    return VariationalCheck(
        beta=beta,
        argmax_tilt=float(grid[best]),
        max_value=float(values[best]),
        reference=log_mgf(disorder, beta),
    )
