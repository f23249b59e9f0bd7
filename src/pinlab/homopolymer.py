"""Homogeneous pinning free energies and their joint-renewal variants.

The free energy ``f(lam)`` of the homogeneous model solves

    exp(-lam) = sum_n K(n) exp(-n f)

when a solution exists, and is zero otherwise.  For a recurrent kernel
(total mass one) the pinned phase is exactly ``lam > 0``.  The right-hand
side is strictly decreasing in ``f``, so the solve is a bracketed root
find; it runs in ``log f`` so that free energies down to ``1e-300``
(high-order transitions, truncated joint kernels) stay resolvable.  The
series itself, a closed form per kernel family, comes from
:mod:`pinlab.kernels`.

The annealed model with inverse temperature ``beta`` and bias ``h`` is
the same fixed point at ``lam = log M(beta) - h``, which is why the
annealed critical curve is ``log M(beta)`` exactly, for every recurrent
kernel: the curve reads no kernel and solves no fixed point.

The joint variants replace ``K`` with the gap law of the simultaneous
returns of two independent copies (the overlap kernel), whose total mass
is ``chi/(chi+1)``; the pinning threshold is then
``lambda_0 = log(1 + 1/chi)``, zero when ``chi`` diverges.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderLaw, log_mgf
from .errors import (
    DomainError,
    InternalConsistencyError,
    InvalidParameterError,
    PrecisionError,
)
from .kernels import (
    ChiResult,
    RenewalKernel,
    _mass_series,
    _pinned_series,
    overlap_kernel,
    truncate_kernel,
)
from .roots import brentq

__all__ = [
    "HomopolymerResult",
    "homopolymer_free_energy",
    "annealed_free_energy",
    "annealed_critical_curve",
    "AnnealedCurvePoint",
    "lambda0_from_chi",
    "joint_free_energy",
    "joint_truncation_bound",
]

_TINY_F = 1e-290
_RESIDUAL_TOL = 1e-10  # largest homopolymer residual, relative to exp(-lam)
_VERIFY_TOL = 1e-8  # allowed gap between the bisection zero and log M(beta)
_F2_TOL = 1e-8  # largest joint fixed-point residual, relative to exp(-lam)


@dataclass(frozen=True)
class HomopolymerResult:
    f: float
    residual: float


def _solve_fixed_point(series, lam: float, tol: float) -> tuple[float, float]:
    """Root of ``series(f) = exp(-lam)`` on ``f > 0``; series must decrease.

    Returns ``(f, residual)`` with ``residual = |series(f) - exp(-lam)|``;
    the solve raises :class:`PrecisionError` when it exceeds ``tol`` relative
    to ``exp(-lam)``, also where the bracket passes ``1e-290`` and ``f = 0``
    is returned, so an underflowing root is never a silent 0.  The bracket
    upper end ``f = lam`` works because ``series(f) <= exp(-f)`` for
    sub-probability masses; masses whose rounding sums above 1 (returns
    that do not decay) widen it.  Each end is tested where the root finder
    evaluates it, at ``exp(log f)``: for the point mass, ``f = lam`` is the
    root itself, and that rounding can put it on either side.
    Above ``lam`` of about 708.4 the target ``exp(-lam)`` is subnormal or
    0, too coarse to pin ``f`` down, so the solve raises
    :class:`PrecisionError` instead.
    """
    target = math.exp(-lam)
    if target < sys.float_info.min:
        raise PrecisionError(
            f"exp(-lam) = {target!r} is below the normal float range at lam = {float(lam)!r}; "
            "the fixed point cannot be resolved"
        )
    # each end is tested at exp(log f), where brentq evaluates it
    f_hi = lam
    while series(math.exp(math.log(f_hi))) > target:
        if f_hi > 1e3:
            raise PrecisionError(f"series above exp(-lam) = {target!r} at f = {f_hi!r}")
        f_hi *= 1e3
    f_lo = min(lam, 1.0) * 1e-3
    while series(math.exp(math.log(f_lo))) < target:
        f_lo *= 1e-3
        if f_lo < _TINY_F:
            f = 0.0  # the root lies below the float range the bracket searches
            break
    else:
        root_t = brentq(
            lambda t: series(math.exp(t)) - target,
            math.log(f_lo),
            math.log(f_hi),
            xtol=1e-14,
            maxiter=200,
        )
        f = math.exp(root_t)
    residual = abs(series(f) - target)
    if residual > tol * target:
        raise PrecisionError(
            f"fixed-point residual {residual:.3e} at f = {f!r} exceeds tol {tol:.3e} "
            f"times exp(-lam) = {target!r}"
        )
    return f, residual


def homopolymer_free_energy(kernel: RenewalKernel, lam: float) -> HomopolymerResult:
    """Free energy of the homogeneous model at pinning strength ``lam``.

    Recurrent kernels are unpinned exactly for ``lam <= 0``; for
    ``lam > 0`` the fixed point is solved, and a residual above
    ``1e-10 * exp(-lam)`` raises :class:`PrecisionError`.
    The series is built once per solve, so the power kernel's normaliser
    ``zeta(1+alpha)`` is computed once, not at every root-finder step.
    ``lam`` above about 708.4 raises :class:`PrecisionError`.
    """
    if lam <= 0.0:
        return HomopolymerResult(f=0.0, residual=abs(math.exp(-lam) - 1.0))
    f, residual = _solve_fixed_point(_pinned_series(kernel), lam, _RESIDUAL_TOL)
    return HomopolymerResult(f=f, residual=residual)


def annealed_free_energy(
    kernel: RenewalKernel,
    disorder: DisorderLaw,
    beta: float,
    h: float,
) -> HomopolymerResult:
    """Annealed free energy: the homogeneous model at ``log M(beta) - h``."""
    return homopolymer_free_energy(kernel, log_mgf(disorder, beta) - h)


@dataclass(frozen=True)
class AnnealedCurvePoint:
    beta: float
    h_c: float              # log M(beta), exact
    bisection_zero: float   # bisection of the pinning criterion log M(beta) - h > 0


def annealed_critical_curve(disorder: DisorderLaw, beta_grid) -> list[AnnealedCurvePoint]:
    """``(beta, log M(beta))`` pairs, each with a bisection of its phase.

    ``log M(beta)`` is computed once per ``beta``.  The annealed model at
    bias ``h`` is the homogeneous one at ``lam = log M(beta) - h``, pinned
    exactly when ``lam > 0`` for every recurrent kernel, so the bracket
    ``log M(beta) -+ 0.75`` is bisected on that criterion alone.  The
    bisection cross-checks the bracket arithmetic only: a zero more than
    1e-8 from ``log M(beta)`` aborts.  A ``log M(beta)`` whose float
    spacing exceeds the bisection's stop width (at or above ``2^24``, or
    not finite) raises :class:`PrecisionError` naming ``beta``.
    """
    betas = list(beta_grid)
    if not betas:
        raise InvalidParameterError("beta grid must be nonempty")
    points = []
    for beta in betas:
        h_c = log_mgf(disorder, beta)
        spacing = math.ulp(h_c)
        if not spacing <= 0.25 * _VERIFY_TOL:
            raise PrecisionError(
                f"log M(beta) = {h_c!r} at beta = {float(beta)!r} has float spacing "
                f"{spacing!r}, above the bisection width {0.25 * _VERIFY_TOL!r}"
            )
        lo, hi = h_c - 0.75, h_c + 0.75
        while hi - lo > 0.25 * _VERIFY_TOL:
            mid = 0.5 * (lo + hi)
            if h_c - mid > 0.0:
                lo = mid
            else:
                hi = mid
        zero = 0.5 * (lo + hi)
        if abs(zero - h_c) > _VERIFY_TOL:
            raise InternalConsistencyError(
                f"bisection zero {zero!r} disagrees with log M(beta) {h_c!r}"
            )
        points.append(AnnealedCurvePoint(beta=float(beta), h_c=h_c, bisection_zero=zero))
    return points


def lambda0_from_chi(chi_result: ChiResult) -> float:
    """Joint pinning threshold ``log(1 + 1/chi)``; zero when ``chi`` diverges."""
    value = chi_result.require_value()
    if math.isinf(value):
        return 0.0
    return math.log1p(1.0 / value)


# overlap-kernel horizons of the joint solve: the first, doubled up to the last
_JOINT_START_HORIZON = 1 << 13
_JOINT_MAX_HORIZON = 1 << 21


def _solve_on_overlap(base: RenewalKernel, lam: float, total: float) -> float:
    """``f2``: the fixed point on the overlap kernel of ``base``, whose masses
    sum to at most ``total``, solved to ``_F2_TOL``, with the horizon grown
    until the dropped tail is certified below ``_F2_TOL * exp(-lam) / 10``.
    """
    target = math.exp(-lam)
    horizon = _JOINT_START_HORIZON
    while True:
        k2 = overlap_kernel(base, horizon)
        reachable = float(np.cumsum(k2)[-1])
        if reachable <= target:
            if horizon >= _JOINT_MAX_HORIZON:
                raise PrecisionError(
                    f"overlap mass {reachable:.6f} within horizon {horizon} cannot reach "
                    f"exp(-lam) = {target:.6f}",
                    required_horizon=2 * horizon,
                )
            horizon *= 2
            continue
        f, _ = _solve_fixed_point(lambda g: _mass_series(k2, g), lam, _F2_TOL)
        dropped = max(total - reachable, 0.0)
        tail_bound = dropped * math.exp(-(horizon + 1) * f)
        if tail_bound <= 0.1 * _F2_TOL * target:
            return f
        if horizon >= _JOINT_MAX_HORIZON:
            needed = horizon + int(
                math.log(max(tail_bound / (0.1 * _F2_TOL * target), 2.0)) / max(f, 1e-300)
            )
            raise PrecisionError(
                f"overlap series tail {tail_bound:.3e} above certification level at "
                f"horizon {horizon}",
                required_horizon=needed,
            )
        horizon *= 2


def joint_free_energy(
    kernel: RenewalKernel,
    lam: float,
    tr: int | None = None,
    chi_result: ChiResult | None = None,
) -> float:
    """Free energy ``f2`` on the joint-return kernel of two independent copies.

    Untruncated (``tr is None``): unpinned exactly on ``lam <= lambda_0``,
    read from the kernel's ``chi_result``, which is then required;
    above the threshold the transient overlap kernel is solved with a
    certified series tail.  Truncated: the joint kernel of the truncated
    chain is recurrent, so any ``lam > 0`` pins, with free energies of
    order ``1/tr`` near the threshold resolved in log scale; ``chi_result``
    is not read, and a ``tr`` below 1 raises :class:`InvalidParameterError`.
    Either way the fixed point is solved to one fixed tolerance,
    ``_F2_TOL = 1e-8`` relative to ``exp(-lam)``, and the dropped series
    tail is certified below a tenth of it.
    """
    if tr is None:
        if chi_result is None:
            raise InvalidParameterError("an untruncated joint solve needs the kernel's chi_result")
        if lam <= lambda0_from_chi(chi_result):
            return 0.0
        total = 1.0
        if chi_result.status == "finite":
            total = chi_result.value / (chi_result.value + 1.0)
        return _solve_on_overlap(kernel, lam, total)
    ktr = truncate_kernel(kernel, tr)
    if lam <= 0.0:
        return 0.0
    return _solve_on_overlap(ktr, lam, 1.0)


def joint_truncation_bound(
    kernel: RenewalKernel,
    tr: int,
    lam: float,
    chi_result: ChiResult,
) -> float:
    """Finite-truncation bound: ``tr * f2_tr(lam) <= log[(1 - L2(tr-1)) /
    (exp(-lam) - L2(tr-1))]`` for ``lam`` below the joint threshold
    ``lambda_0``, read from the kernel's ``chi_result``.

    Uses partial sums of the untruncated overlap kernel, which coincide
    with the truncated one below ``tr``.
    """
    if tr < 1:
        raise InvalidParameterError("truncation point must be >= 1")
    if not math.isfinite(lam):
        raise InvalidParameterError(f"lam must be finite, got {lam!r}")
    lam0 = lambda0_from_chi(chi_result)
    if lam >= lam0:
        raise DomainError(f"bound requires lam < lambda0 = {lam0!r}, got {lam!r}")
    l2 = 0.0
    if tr > 1:
        l2 = float(np.cumsum(overlap_kernel(kernel, tr - 1))[-1])
    gap = math.exp(-lam) - l2
    if gap <= 0.0:
        raise InternalConsistencyError(
            f"partial overlap mass {l2!r} reached exp(-lam) below the threshold"
        )
    return math.log((1.0 - l2) / gap)

