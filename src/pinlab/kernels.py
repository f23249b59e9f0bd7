"""Return-time laws of recurrent renewal processes.

A kernel ``K`` assigns probability ``K(n)`` to a first return at time
``n >= 1`` and sums to one.  Three families are built in:

* ``power``: ``K(n) = n^-(1+alpha) / zeta(1+alpha)`` with tail exponent
  ``alpha > 0`` (the slowly varying factor is pinned to the constant
  ``1/zeta(1+alpha)`` so that tails normalize in closed form),
* ``geometric``: ``K(n) = p (1-p)^(n-1)``,
* ``table``: an explicit finite mass table.

Derived objects: return probabilities ``u_n`` (renewal function), the
overlap sum ``chi = sum u_n^2`` with a tri-state convergence verdict, the
truncated kernel that collapses all mass beyond ``tr`` onto ``tr``, the
kernel entropy ``-sum K log K``, and the gap law of the simultaneous
returns of two independent copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvalidParameterError,
    PrecisionError,
    UndecidedError,
)
from .series import (
    kernel_from_renewal_function,
    renewal_function,
    zeta,
    zeta_log_sum,
    zeta_tail,
)

__all__ = [
    "RenewalKernel",
    "ReturnProbabilities",
    "ChiResult",
    "OverlapKernel",
    "make_power_kernel",
    "make_geometric_kernel",
    "make_table_kernel",
    "return_probabilities",
    "chi",
    "truncate_kernel",
    "kernel_entropy",
    "overlap_kernel",
    "kernel_to_json",
    "kernel_from_json",
]

_MASS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class RenewalKernel:
    """Immutable return-time law.  Use the ``make_*`` constructors."""

    family: str
    alpha: float | None = None
    p: float | None = None
    masses: np.ndarray | None = None  # table family; masses[i] = K(i+1)

    # -- mass queries -----------------------------------------------------

    def mass(self, n: int) -> float:
        """``K(n)`` at a single ``n >= 1``."""
        if n < 1:
            raise InvalidParameterError("kernel mass defined for n >= 1")
        if self.family == "power":
            return n ** (-(1.0 + self.alpha)) / zeta(1.0 + self.alpha)
        if self.family == "geometric":
            return self.p * (1.0 - self.p) ** (n - 1)
        return float(self.masses[n - 1]) if n <= len(self.masses) else 0.0

    def mass_array(self, n: int) -> np.ndarray:
        """``K(1..n)`` as a vector."""
        if self.family == "power":
            ns = np.arange(1, n + 1, dtype=float)
            return ns ** (-(1.0 + self.alpha)) / zeta(1.0 + self.alpha)
        if self.family == "geometric":
            ns = np.arange(n)
            return self.p * (1.0 - self.p) ** ns
        out = np.zeros(n, dtype=float)
        avail = min(n, len(self.masses))
        out[:avail] = self.masses[:avail]
        return out

    def tail_mass(self, n0: int) -> float:
        """``sum_{m >= n0} K(m)``, exact for the closed-form families."""
        if n0 <= 1:
            return 1.0
        if self.family == "power":
            return zeta_tail(1.0 + self.alpha, n0) / zeta(1.0 + self.alpha)
        if self.family == "geometric":
            return (1.0 - self.p) ** (n0 - 1)
        return float(np.sum(self.masses[n0 - 1 :]))

    def mean(self) -> float:
        """``sum n K(n)``; ``inf`` for power kernels with ``alpha <= 1``."""
        if self.family == "power":
            if self.alpha <= 1.0:
                return math.inf
            return zeta(self.alpha) / zeta(1.0 + self.alpha)
        if self.family == "geometric":
            return 1.0 / self.p
        ns = np.arange(1, len(self.masses) + 1, dtype=float)
        return float(np.dot(ns, self.masses))

    @property
    def support_upper(self) -> int | None:
        """Largest ``n`` with ``K(n) > 0``; ``None`` when unbounded."""
        if self.family == "table":
            nz = np.nonzero(self.masses)[0]
            return int(nz[-1]) + 1 if nz.size else 0
        return None


def make_power_kernel(alpha: float) -> RenewalKernel:
    """Pure power-law kernel ``K(n) = n^-(1+alpha) / zeta(1+alpha)``.

    ``alpha = 0`` is not representable in closed form (the bare series
    diverges); supply such laws as explicit tables with a summable
    slowly-varying choice instead.
    """
    if not (alpha > 0.0) or not math.isfinite(alpha):
        raise InvalidParameterError(f"power kernel needs alpha > 0, got {alpha}")
    return RenewalKernel(family="power", alpha=float(alpha))


def make_geometric_kernel(p: float) -> RenewalKernel:
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError(f"geometric kernel needs p in (0, 1], got {p}")
    return RenewalKernel(family="geometric", p=float(p))


def make_table_kernel(masses) -> RenewalKernel:
    """Kernel from an explicit mass table ``masses[i] = K(i+1)``.

    Enforces nonnegativity, normalization within 1e-12, and aperiodicity
    (gcd of the support equals 1; periodic laws can be rescaled to the
    sublattice and are out of scope).
    """
    arr = np.array(masses, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidParameterError("mass table must be a nonempty vector")
    if np.any(arr < 0.0):
        raise InvalidParameterError("kernel masses must be nonnegative")
    total = float(np.sum(arr))
    if abs(total - 1.0) > _MASS_TOL:
        raise InvalidParameterError(
            f"kernel-mass-normalization: masses sum to {total!r}, expected 1 within {_MASS_TOL}"
        )
    support = np.nonzero(arr)[0] + 1
    if support.size == 0:
        raise InvalidParameterError("kernel has empty support")
    g = int(np.gcd.reduce(support))
    if g != 1:
        raise InvalidParameterError(f"kernel support has period {g}; expected gcd 1")
    arr.setflags(write=False)
    return RenewalKernel(family="table", masses=arr)


# ---------------------------------------------------------------------------
# Return probabilities and the overlap sum chi
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReturnProbabilities:
    """``u_n = P(S_n = 0)`` for ``n = 0..horizon``; ``u_0 = 1``."""

    u: np.ndarray
    horizon: int


def return_probabilities(
    kernel: RenewalKernel, n: int, head: np.ndarray | None = None
) -> ReturnProbabilities:
    """Solve ``u_m = sum_{j=1}^m K(j) u_{m-j}`` up to horizon ``n``.

    O(N log N) power-series reciprocal; agrees with the exact recursion to
    better than 1e-12 per term.  ``head``, the ``u`` of the same kernel at
    a shorter horizon, lets the reciprocal resume instead of restart.
    """
    if n < 0:
        raise InvalidParameterError("horizon must be >= 0")
    u = renewal_function(kernel.mass_array(n), n, head)
    u.setflags(write=False)
    return ReturnProbabilities(u=u, horizon=n)


@dataclass(frozen=True)
class ChiResult:
    """Tri-state value of ``chi = sum_n u_n^2``.

    ``status`` is ``'finite'`` (``value`` carries partial sum plus fitted
    tail, with ``tail_estimate <= tolerance``), ``'infinite'`` (``value``
    is ``inf``), or ``'undecided'`` when the fitted decay exponent of
    ``u_n^2`` falls inside the indecision band around 1.
    """

    status: str
    value: float
    partial_sum: float
    tail_estimate: float
    fitted_decay: float
    horizon: int

    def require_value(self) -> float:
        if self.status == "undecided":
            raise UndecidedError(
                f"chi convergence undecided (fitted u^2 decay {self.fitted_decay:.4f})"
            )
        return self.value

    @property
    def is_finite(self) -> bool:
        return self.status == "finite"


def _fit_decay(u: np.ndarray, horizon: int) -> tuple[float, float]:
    """Least-squares slope of ``log u_n`` vs ``log n`` on the last decade."""
    lo = max(horizon // 10, 8)
    ns = np.arange(lo, horizon + 1, dtype=float)
    vals = u[lo : horizon + 1]
    keep = vals > 0.0
    if keep.sum() < 8:
        raise PrecisionError("too few positive return probabilities to fit a decay")
    slope, intercept = np.polyfit(np.log(ns[keep]), np.log(vals[keep]), 1)
    return -float(slope), math.exp(float(intercept))


_UNDECIDED_BAND = (0.95, 1.05)  # fitted decay of u_n^2 too close to 1 to call


def chi(
    kernel: RenewalKernel,
    tolerance: float = 2e-3,
    start_horizon: int = 1 << 16,
    max_horizon: int = 1 << 21,
) -> ChiResult:
    """Overlap sum ``chi = sum_{n>=1} u_n^2`` with convergence verdict.

    Convergence is decided from the fitted decay exponent of ``u_n``: with
    ``u_n ~ C n^-s`` the square sums iff ``2s > 1``.  ``2s`` at or below
    the band ``(0.95, 1.05)`` is reported infinite, above it finite with
    fitted tail ``C^2 N^(1-2s) / (2s-1)`` added and certified ``<=
    tolerance`` (doubling the horizon as needed), inside the band
    undecided.  Each doubling resumes the reciprocal from the previous
    ``u``, so the whole search costs about one reciprocal at the final
    horizon.
    """
    if not tolerance > 0.0:
        raise InvalidParameterError("tolerance must be positive")
    horizon = start_horizon
    head = None
    while True:
        rp = return_probabilities(kernel, horizon, head)
        head = rp.u
        s_fit, c_fit = _fit_decay(rp.u, horizon)
        decay2 = 2.0 * s_fit
        partial = float(np.sum(rp.u[1:] ** 2))
        if decay2 <= _UNDECIDED_BAND[0]:
            return ChiResult("infinite", math.inf, partial, math.inf, decay2, horizon)
        if decay2 < _UNDECIDED_BAND[1]:
            return ChiResult("undecided", math.nan, partial, math.nan, decay2, horizon)
        tail = c_fit * c_fit * horizon ** (1.0 - decay2) / (decay2 - 1.0)
        if tail <= tolerance:
            return ChiResult("finite", partial + tail, partial, tail, decay2, horizon)
        if horizon >= max_horizon:
            needed = int(horizon * (tail / tolerance) ** (1.0 / (decay2 - 1.0)))
            raise PrecisionError(
                f"chi tail {tail:.3e} exceeds tolerance {tolerance:.3e} at horizon {horizon}",
                required_horizon=needed,
            )
        horizon *= 2


# ---------------------------------------------------------------------------
# Truncation, entropy, overlap kernel
# ---------------------------------------------------------------------------


def truncate_kernel(kernel: RenewalKernel, tr: int) -> RenewalKernel:
    """Collapse all mass beyond ``tr`` onto ``tr``.

    ``K^tr(n) = K(n)`` for ``n < tr``, ``K^tr(tr) = sum_{m>=tr} K(m)``
    (exact tail for the closed-form families), zero above.
    """
    if tr < 1:
        raise InvalidParameterError("truncation point must be >= 1")
    masses = np.empty(tr, dtype=float)
    if tr > 1:
        masses[: tr - 1] = kernel.mass_array(tr - 1)
    masses[tr - 1] = kernel.tail_mass(tr)
    masses.setflags(write=False)
    return RenewalKernel(family="table", masses=masses)


def kernel_entropy(kernel: RenewalKernel) -> float:
    """``-sum_n K(n) log K(n)``; finite for every built-in family.

    For the power family the sum collapses to the closed form
    ``log zeta(s) + s * (sum n^-s log n) / zeta(s)`` with ``s = 1+alpha``,
    evaluated by Euler-Maclaurin, so no horizon is involved.
    """
    if kernel.family == "power":
        s = 1.0 + kernel.alpha
        z = zeta(s)
        return math.log(z) + s * zeta_log_sum(s) / z
    if kernel.family == "geometric":
        p = kernel.p
        if p == 1.0:
            return 0.0
        q = 1.0 - p
        return -math.log(p) - (q / p) * math.log(q)
    m = kernel.masses
    pos = m[m > 0.0]
    return float(-np.sum(pos * np.log(pos)))


@dataclass(frozen=True, eq=False)
class OverlapKernel:
    """Gap law of the joint returns of two independent copies.

    ``masses[i] = K_2(i+1)`` reconstructs the squared return
    probabilities through the renewal recursion; ``partial_sums[i] =
    L_2(i+1)``.  For an untruncated transient input, ``L_2`` increases to
    ``chi / (chi + 1)``; for truncated inputs it increases to 1.
    """

    masses: np.ndarray
    partial_sums: np.ndarray
    horizon: int

    def l2(self, n: int) -> float:
        """``L_2(n) = sum_{k<=n} K_2(k)`` (``L_2(0) = 0``)."""
        if n <= 0:
            return 0.0
        return float(self.partial_sums[min(n, self.horizon) - 1])


_NEGATIVE_MASS_ABORT = -1e-10


def overlap_kernel(kernel: RenewalKernel, n: int) -> OverlapKernel:
    """Joint-return gap law up to horizon ``n``.

    Squares the return probabilities (independence of the two copies) and
    inverts the renewal recursion.  Inversion noise in ``(-1e-10, 0)`` is
    clamped to zero; anything below aborts as numerical corruption.
    """
    if n < 1:
        raise InvalidParameterError("horizon must be >= 1")
    rp = return_probabilities(kernel, n)
    v = rp.u * rp.u
    v[0] = 1.0
    k2 = kernel_from_renewal_function(v, n)
    worst = float(k2.min()) if k2.size else 0.0
    if worst < _NEGATIVE_MASS_ABORT:
        raise InternalConsistencyError(
            f"overlap kernel produced mass {worst:.3e} below {_NEGATIVE_MASS_ABORT}"
        )
    np.clip(k2, 0.0, None, out=k2)
    sums = np.cumsum(k2)
    k2.setflags(write=False)
    sums.setflags(write=False)
    return OverlapKernel(masses=k2, partial_sums=sums, horizon=n)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def kernel_to_json(kernel: RenewalKernel) -> dict:
    doc: dict = {"family": kernel.family}
    if kernel.family == "power":
        doc["alpha"] = kernel.alpha
    elif kernel.family == "geometric":
        doc["p"] = kernel.p
    else:
        doc["masses"] = [float(x) for x in kernel.masses]
    return doc


_FAMILY_FIELD = {"power": "alpha", "geometric": "p", "table": "masses"}


def kernel_from_json(doc: dict) -> RenewalKernel:
    """Kernel from its JSON form; a field the family does not read is an error."""
    family = doc.get("family")
    if family not in _FAMILY_FIELD:
        raise InvalidParameterError(f"unknown kernel family {family!r}")
    unknown = sorted(set(doc) - {"family", _FAMILY_FIELD[family]})
    if unknown:
        raise InvalidParameterError(f"unknown {family} kernel field(s) {', '.join(unknown)}")
    if family == "power":
        return make_power_kernel(doc["alpha"])
    if family == "geometric":
        return make_geometric_kernel(doc["p"])
    return make_table_kernel(doc["masses"])
