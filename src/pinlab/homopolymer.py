"""Homogeneous pinning free energies and their joint-renewal variants.

The free energy ``f(lam)`` of the homogeneous model solves

    exp(-lam) = sum_n K(n) exp(-n f)

when a solution exists, and is zero otherwise.  For a recurrent kernel
(total mass one) the pinned phase is exactly ``lam > 0``.  The right-hand
side is strictly decreasing in ``f``, so the solve is a bracketed root
find; it runs in ``log f`` so that free energies down to ``1e-300``
(high-order transitions, truncated joint kernels) stay resolvable.

The annealed model with inverse temperature ``beta`` and bias ``h`` is
the same fixed point at ``lam = log M(beta) - h``, which is why the
annealed critical curve is ``log M(beta)`` exactly.

The joint variants replace ``K`` with the gap law of the simultaneous
returns of two independent copies (the overlap kernel), whose total mass
is ``chi/(chi+1)``; the pinning threshold is then
``lambda_0 = log(1 + 1/chi)``, zero when ``chi`` diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

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
    chi as compute_chi,
    overlap_kernel,
    truncate_kernel,
)
from .series import polylog_exp, zeta

__all__ = [
    "HomopolymerResult",
    "JointFreeEnergy",
    "homopolymer_free_energy",
    "annealed_free_energy",
    "annealed_critical_curve",
    "AnnealedCurvePoint",
    "lambda0",
    "lambda0_from_chi",
    "joint_free_energy",
    "joint_truncation_bound",
    "joint_truncation_bound_limit",
]

_TINY_F = 1e-290
_VERIFY_TOL = 1e-8  # allowed gap between the bisection zero and log M(beta)


@dataclass(frozen=True)
class HomopolymerResult:
    lam: float
    f: float
    residual: float
    status: str  # 'pinned' | 'unpinned'

    @property
    def pinned(self) -> bool:
        return self.status == "pinned"


def _pinned_series(kernel: RenewalKernel, f: float) -> float:
    """``sum_n K(n) exp(-n f)`` exactly (closed forms; finite sums for tables)."""
    if kernel.family == "power":
        s = 1.0 + kernel.alpha
        return polylog_exp(s, f) / zeta(s)
    if kernel.family == "geometric":
        p, q = kernel.p, 1.0 - kernel.p
        ef = math.exp(-f)
        return p * ef / (1.0 - q * ef)
    return _mass_series(kernel.masses, f)


def _mass_series(masses: np.ndarray, f: float) -> float:
    ns = np.arange(1, len(masses) + 1, dtype=float)
    return float(np.dot(masses, np.exp(-ns * f)))


def _solve_fixed_point(series, lam: float, tol: float) -> tuple[float, float]:
    """Root of ``series(f) = exp(-lam)`` on ``f > 0``; series must decrease.

    Returns ``(f, residual)``.  The bracket upper end ``f = lam`` works
    because ``series(f) <= exp(-f)`` for sub-probability masses; masses
    whose rounding sums above 1 (returns that do not decay) widen it.
    """
    target = math.exp(-lam)
    f_hi = lam
    while series(f_hi) > target:
        if f_hi > 1e3:
            raise PrecisionError(f"series above exp(-lam) = {target!r} at f = {f_hi!r}")
        f_hi *= 1e3
    f_lo = min(lam, 1.0) * 1e-3
    while series(f_lo) < target:
        f_lo *= 1e-3
        if f_lo < _TINY_F:
            return 0.0, abs(series(0.0) - target)
    root_t = brentq(
        lambda t: series(math.exp(t)) - target,
        math.log(f_lo),
        math.log(f_hi),
        xtol=1e-14,
        rtol=4.0 * np.finfo(float).eps,
        maxiter=200,
    )
    f = math.exp(root_t)
    residual = abs(series(f) - target)
    if residual > tol:
        raise PrecisionError(f"fixed-point residual {residual:.3e} exceeds tol {tol:.3e}")
    return f, residual


def homopolymer_free_energy(
    kernel: RenewalKernel, lam: float, tol: float = 1e-10
) -> HomopolymerResult:
    """Free energy of the homogeneous model at pinning strength ``lam``.

    Recurrent kernels are unpinned exactly for ``lam <= 0``; for
    ``lam > 0`` the fixed point is solved with residual at most ``tol``.
    """
    if not tol > 0.0:
        raise InvalidParameterError("tol must be positive")
    if lam <= 0.0:
        residual = abs(math.exp(-lam) - 1.0)
        return HomopolymerResult(lam=lam, f=0.0, residual=residual, status="unpinned")
    series = lambda f: _pinned_series(kernel, f)
    f, residual = _solve_fixed_point(series, lam, tol)
    return HomopolymerResult(lam=lam, f=f, residual=residual, status="pinned")


def annealed_free_energy(
    kernel: RenewalKernel,
    disorder: DisorderLaw,
    beta: float,
    h: float,
    tol: float = 1e-10,
) -> HomopolymerResult:
    """Annealed free energy: the homogeneous model at ``log M(beta) - h``."""
    return homopolymer_free_energy(kernel, log_mgf(disorder, beta) - h, tol)


@dataclass(frozen=True)
class AnnealedCurvePoint:
    beta: float
    h_c: float              # log M(beta), exact
    bisection_zero: float   # location recovered by bisecting the solver's phase


def annealed_critical_curve(
    kernel: RenewalKernel,
    disorder: DisorderLaw,
    beta_grid,
) -> list[AnnealedCurvePoint]:
    """``(beta, log M(beta))`` pairs, each cross-checked by bisection.

    The bisection brackets the sign change of the annealed free energy in
    ``h``; disagreement with ``log M(beta)`` beyond 1e-8 aborts.
    """
    betas = list(beta_grid)
    if not betas:
        raise InvalidParameterError("beta grid must be nonempty")
    points = []
    for beta in betas:
        h_c = log_mgf(disorder, beta)
        lo, hi = h_c - 0.75, h_c + 0.75
        if not annealed_free_energy(kernel, disorder, beta, lo).pinned:
            raise InternalConsistencyError("annealed phase not pinned below log M(beta)")
        if annealed_free_energy(kernel, disorder, beta, hi).pinned:
            raise InternalConsistencyError("annealed phase pinned above log M(beta)")
        while hi - lo > 0.25 * _VERIFY_TOL:
            mid = 0.5 * (lo + hi)
            if annealed_free_energy(kernel, disorder, beta, mid).pinned:
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


def lambda0(kernel: RenewalKernel) -> float:
    return lambda0_from_chi(compute_chi(kernel))


@dataclass(frozen=True)
class JointFreeEnergy:
    lam: float
    f2: float
    tr: int | None          # None = untruncated joint kernel
    lambda0: float | None
    residual: float
    horizon: int
    status: str


def _solve_on_overlap(
    kernel: RenewalKernel,
    lam: float,
    tr: int | None,
    tol: float,
    start_horizon: int,
    max_horizon: int,
    limit_mass: float | None,
) -> tuple[float, float, int]:
    """Solve the fixed point on the overlap kernel of ``kernel`` (or of its
    truncation), growing the horizon until the dropped tail is certified
    below ``tol * exp(-lam) / 10``.
    """
    base = kernel if tr is None else truncate_kernel(kernel, tr)
    target = math.exp(-lam)
    horizon = start_horizon
    while True:
        ov = overlap_kernel(base, horizon)
        reachable = float(ov.partial_sums[-1])
        if reachable <= target:
            if horizon >= max_horizon:
                raise PrecisionError(
                    f"overlap mass {reachable:.6f} within horizon {horizon} cannot reach "
                    f"exp(-lam) = {target:.6f}",
                    required_horizon=2 * horizon,
                )
            horizon *= 2
            continue
        total = 1.0 if tr is not None else (limit_mass if limit_mass is not None else 1.0)
        f, residual = _solve_fixed_point(
            lambda g: _mass_series(ov.masses, g), lam, tol
        )
        dropped = max(total - reachable, 0.0)
        tail_bound = dropped * math.exp(-(horizon + 1) * f)
        if tail_bound <= 0.1 * tol * target:
            return f, residual + tail_bound, horizon
        if horizon >= max_horizon:
            needed = horizon + int(
                math.log(max(tail_bound / (0.1 * tol * target), 2.0)) / max(f, 1e-300)
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
    tol: float = 1e-10,
    start_horizon: int = 1 << 13,
    max_horizon: int = 1 << 21,
    chi_result: ChiResult | None = None,
) -> JointFreeEnergy:
    """Free energy on the joint-return kernel of two independent copies.

    Untruncated (``tr is None``): unpinned exactly on ``lam <= lambda_0``;
    above the threshold the transient overlap kernel is solved with a
    certified series tail.  Truncated: the joint kernel of the truncated
    chain is recurrent, so any ``lam > 0`` pins, with free energies of
    order ``1/tr`` near the threshold resolved in log scale.
    """
    lam0: float | None = None
    limit_mass = None
    if tr is None or chi_result is not None:
        if chi_result is None:
            chi_result = compute_chi(kernel)
        lam0 = lambda0_from_chi(chi_result)
        if chi_result.is_finite:
            limit_mass = chi_result.value / (chi_result.value + 1.0)
    if tr is None:
        if lam <= lam0:
            return JointFreeEnergy(
                lam=lam, f2=0.0, tr=None, lambda0=lam0, residual=0.0,
                horizon=0, status="unpinned",
            )
    elif tr < 1:
        raise InvalidParameterError("truncation point must be >= 1")
    elif lam <= 0.0:
        return JointFreeEnergy(
            lam=lam, f2=0.0, tr=tr, lambda0=lam0, residual=0.0,
            horizon=0, status="unpinned",
        )
    f, residual, horizon = _solve_on_overlap(
        kernel, lam, tr, tol, start_horizon, max_horizon, limit_mass
    )
    return JointFreeEnergy(
        lam=lam, f2=f, tr=tr, lambda0=lam0, residual=residual,
        horizon=horizon, status="pinned",
    )


def joint_truncation_bound(
    kernel: RenewalKernel,
    tr: int,
    lam: float,
    chi_result: ChiResult | None = None,
) -> float:
    """Finite-truncation bound: ``tr * f2_tr(lam) <= log[(1 - L2(tr-1)) /
    (exp(-lam) - L2(tr-1))]`` for ``lam`` below the joint threshold.

    Uses partial sums of the untruncated overlap kernel, which coincide
    with the truncated one below ``tr``.
    """
    if tr < 1:
        raise InvalidParameterError("truncation point must be >= 1")
    if chi_result is None:
        chi_result = compute_chi(kernel)
    lam0 = lambda0_from_chi(chi_result)
    if lam >= lam0:
        raise DomainError(f"bound requires lam < lambda0 = {lam0!r}, got {lam!r}")
    l2 = 0.0
    if tr > 1:
        l2 = overlap_kernel(kernel, tr - 1).l2(tr - 1)
    gap = math.exp(-lam) - l2
    if gap <= 0.0:
        raise InternalConsistencyError(
            f"partial overlap mass {l2!r} reached exp(-lam) below the threshold"
        )
    return math.log((1.0 - l2) / gap)


def joint_truncation_bound_limit(lam: float, lam0: float) -> float:
    """Large-truncation limit of the bound above."""
    if lam >= lam0:
        raise DomainError("limit defined for lam < lambda0")
    return math.log((1.0 - math.exp(-lam0)) / (math.exp(-lam) - math.exp(-lam0)))
