"""Return-time laws of recurrent renewal processes.

A kernel ``K`` assigns probability ``K(n)`` to a first return at time
``n >= 1`` and sums to one.  Three families are built in:

* ``power``: ``K(n) = n^-(1+alpha) / zeta(1+alpha)`` with tail exponent
  ``alpha > 0`` (the slowly varying factor is pinned to the constant
  ``1/zeta(1+alpha)`` so that tails normalize in closed form),
* ``geometric``: ``K(n) = p (1-p)^(n-1)``; ``p = 1``, the point mass
  ``K(1) = 1``, is the one-mass table ``[1.0]``,
* ``table``: an explicit finite mass table.

For the two closed-form families, :func:`far_terms` gives the masses of
long gaps as a positive sum of exponentials, which lets the quenched DP
carry its far sums as a few running states instead of one product over
every earlier site.

Derived objects: return probabilities ``u_n`` (renewal function, one
read-only array from :func:`return_probabilities`), the overlap sum
``chi = sum u_n^2`` with a tri-state convergence verdict, the
truncated kernel that collapses all mass beyond ``tr`` onto ``tr``, the
kernel entropy ``-sum K log K``, and the gap law of the simultaneous
returns of two independent copies (the overlap kernel, one read-only
array from :func:`overlap_kernel`).
"""

from __future__ import annotations

import functools
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
    polylog_exp,
    power_series_inverse,
    zeta,
    zeta_log_sum,
    zeta_tail,
)

__all__ = [
    "RenewalKernel",
    "ChiResult",
    "make_power_kernel",
    "make_geometric_kernel",
    "make_table_kernel",
    "return_probabilities",
    "chi",
    "truncate_kernel",
    "kernel_entropy",
    "far_terms",
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

    def mass_array(self, n: int) -> np.ndarray:
        """``K(1..n)`` as a vector."""
        if self.family == "power":
            ns = np.arange(1, n + 1, dtype=float)
            return ns ** (-(1.0 + self.alpha)) / zeta(1.0 + self.alpha)
        if self.family == "geometric":
            return self.p * np.exp(np.arange(n) * math.log1p(-self.p))
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
            return math.exp((n0 - 1) * math.log1p(-self.p))
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
            return int(np.nonzero(self.masses)[0][-1]) + 1
        return None


def make_power_kernel(alpha: float) -> RenewalKernel:
    """Pure power-law kernel ``K(n) = n^-(1+alpha) / zeta(1+alpha)``.

    ``alpha = 0`` is not representable in closed form (the bare series
    diverges); supply such laws as explicit tables with a summable
    slowly-varying choice instead.  Nor is an ``alpha`` for which ``1 +
    alpha`` rounds to 1, where every mass would be 0.
    """
    if not (alpha > 0.0) or not math.isfinite(alpha):
        raise InvalidParameterError(f"power kernel needs alpha > 0, got {alpha}")
    if 1.0 + alpha == 1.0:
        raise InvalidParameterError(f"power kernel needs 1 + alpha > 1 in floats, got {alpha}")
    return RenewalKernel(family="power", alpha=float(alpha))


def make_geometric_kernel(p: float) -> RenewalKernel:
    """Geometric kernel ``K(n) = p (1-p)^(n-1)``.  At ``p = 1`` it is the
    point mass, returned as the one-mass table that ``truncate_kernel(k,
    1)`` also gives, so that no formula in ``log1p(-p)`` meets ``p = 1``.
    """
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError(f"geometric kernel needs p in (0, 1], got {p}")
    if p == 1.0:
        return make_table_kernel([1.0])
    return RenewalKernel(family="geometric", p=float(p))


def make_table_kernel(masses) -> RenewalKernel:
    """Kernel from an explicit mass table ``masses[i] = K(i+1)``.

    Enforces finite nonnegative entries, normalization within 1e-12, and
    aperiodicity (gcd of the support equals 1; periodic laws can be
    rescaled to the sublattice and are out of scope).
    """
    arr = np.array(masses, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidParameterError("mass table must be a nonempty vector")
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise InvalidParameterError("kernel masses must be finite and nonnegative")
    total = float(np.sum(arr))
    if abs(total - 1.0) > _MASS_TOL:
        raise InvalidParameterError(
            f"kernel-mass-normalization: masses sum to {total!r}, expected 1 within {_MASS_TOL}"
        )
    g = int(np.gcd.reduce(np.nonzero(arr)[0] + 1))
    if g != 1:
        raise InvalidParameterError(f"kernel support has period {g}; expected gcd 1")
    arr.setflags(write=False)
    return RenewalKernel(family="table", masses=arr)


# ---------------------------------------------------------------------------
# Generating function of the masses
# ---------------------------------------------------------------------------


def _pinned_series(kernel: RenewalKernel):
    """``f -> sum_n K(n) exp(-n f)`` exactly (closed forms; finite sums for
    tables).  The power kernel's normaliser ``zeta(1+alpha)`` is computed
    here, once, not at every evaluation."""
    if kernel.family == "power":
        s = 1.0 + kernel.alpha
        norm = zeta(s)
        # polylog_exp is looked up at each call, so a wrapper bound to this
        # module's name (a tracer) sees every evaluation
        return lambda f: polylog_exp(s, f) / norm
    if kernel.family == "geometric":
        p = kernel.p

        def geometric(f: float) -> float:
            # p e^-f / (1 - (1-p) e^-f), without the rounded 1 - p
            pe = p * math.exp(-f)
            return pe / (pe - math.expm1(-f))

        return geometric
    return lambda f: _mass_series(kernel.masses, f)


def _mass_series(masses: np.ndarray, f: float) -> float:
    ns = np.arange(1, len(masses) + 1, dtype=float)
    return float(np.dot(masses, np.exp(-ns * f)))


# ---------------------------------------------------------------------------
# Return probabilities and the overlap sum chi
# ---------------------------------------------------------------------------


def return_probabilities(
    kernel: RenewalKernel, n: int, out: np.ndarray | None = None, known: int = 0
) -> np.ndarray:
    """Read-only ``u_m = P(S_m = 0)`` for ``m = 0..n`` (``u_0 = 1``), the
    solution of ``u_m = sum_{j=1}^m K(j) u_{m-j}``.

    ``U(z) = 1 / (1 - K(z))`` by the O(N log N) power-series reciprocal.
    Its error per term, measured: returns that decay (power kernels with
    alpha 0.3-0.8) agree with the exact recursion to 3e-14 or better up to
    ``n = 2^16``; returns that do not decay (a finite mean, ``u_n -> 1 /
    mean``) carry each Newton rung's rounding forward, so for K = (1/2,
    1/2) the error against ``2/3 + (-1/2)^m / 3`` is 6.1e-14 at ``n =
    4096``, 3.0e-12 at 2^18 and 1.9e-11 at 2^20 (ROADMAP item 5 takes the
    tail form ``(1 - K(z)) / (1 - z)`` to close this).
    With ``out``, the returns go to ``out[:n + 1]`` and the result is a
    read-only view of it (``out`` itself stays writable); its first
    ``known`` entries, the ``u`` of the same kernel at a shorter horizon,
    let the reciprocal resume instead of restart, as in
    :func:`~pinlab.series.power_series_inverse`.
    """
    if n < 0:
        raise InvalidParameterError("horizon must be >= 0")
    a = np.empty(n + 1)
    a[0] = 1.0
    np.negative(kernel.mass_array(n), out=a[1:])
    u = power_series_inverse(a, n + 1, out, known)
    u.setflags(write=False)
    return u


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


def _fit_decay(u: np.ndarray, horizon: int) -> tuple[float, float]:
    """Fit ``u_n ~ C n^-s`` on the last decade ``n = max(H // 10, 8)..H``
    and return ``(s, C)``.

    Least squares of ``y = log u_n`` against ``x = log n`` over the
    positive ``u_n``, in closed form on the deviations ``dx``, ``dy`` from
    the means: ``slope = sum dx dy / sum dx^2`` and ``intercept = mean(y)
    - slope mean(x)``.  O(H): both products are taken in place, so two
    window-length float arrays are alive (three while a window holding a
    nonpositive ``u_n`` is masked); the sums are numpy's pairwise ones, so
    the fit does not depend on the BLAS thread count.  Fewer than 8
    positive values raise :class:`PrecisionError`.
    """
    lo = max(horizon // 10, 8)
    vals = u[lo : horizon + 1]
    keep = vals > 0.0
    x = np.arange(lo, horizon + 1, dtype=float)
    if not keep.all():
        x, vals = x[keep], vals[keep]
    del keep
    if len(vals) < 8:
        raise PrecisionError("too few positive return probabilities to fit a decay")
    np.log(x, out=x)
    y = np.log(vals)
    x_mean, y_mean = float(np.mean(x)), float(np.mean(y))
    x -= x_mean
    y -= y_mean
    y *= x
    x *= x
    slope = float(np.sum(y)) / float(np.sum(x))
    return -slope, math.exp(y_mean - slope * x_mean)


_UNDECIDED_BAND = (0.95, 1.05)  # fitted decay of u_n^2 too close to 1 to call
# chi starts at _START_HORIZON and doubles up to _MAX_HORIZON; it gives up once
# the extrapolated horizon exceeds _REACH * _MAX_HORIZON, since the
# extrapolation moves a few percent per doubling and more cannot help
_START_HORIZON = 1 << 16
_MAX_HORIZON = 1 << 21
_REACH = 2


def chi(kernel: RenewalKernel, tolerance: float = 2e-3) -> ChiResult:
    """Overlap sum ``chi = sum_{n>=1} u_n^2`` with convergence verdict.

    Convergence is decided from the fitted decay exponent of ``u_n``: with
    ``u_n ~ C n^-s`` the square sums iff ``2s > 1``.  ``2s`` at or below
    the band ``(0.95, 1.05)`` is reported infinite, above it finite with
    fitted tail ``C^2 N^(1-2s) / (2s-1)`` added and certified ``<=
    tolerance`` (doubling the horizon as needed), inside the band
    undecided.  Each doubling resumes the reciprocal from the previous
    ``u`` and fits the decay in closed form (:func:`_fit_decay`), so the
    whole search costs about one reciprocal at the final horizon plus one
    O(H) fit per horizon ``H``.  The search holds one array of returns,
    grown in place between horizons, so no horizon's ``u`` is alive
    beside the next one's: at alpha 0.3 and tolerance 1e-3 (horizon 2^20)
    the traced peak is 40 MiB.  :class:`PrecisionError` is raised, with
    the extrapolated ``required_horizon``, at ``_MAX_HORIZON`` or as soon
    as that horizon exceeds twice ``_MAX_HORIZON``.
    """
    if not tolerance > 0.0:
        raise InvalidParameterError("tolerance must be positive")
    horizon = _START_HORIZON
    u = np.empty(horizon + 1)
    known = 0
    while True:
        # the returned view is dropped at once, so that u.resize below
        # normally finds no other reference to u
        return_probabilities(kernel, horizon, u, known)
        s_fit, c_fit = _fit_decay(u, horizon)
        decay2 = 2.0 * s_fit
        partial = float(np.sum(u[1:] ** 2))
        if decay2 <= _UNDECIDED_BAND[0]:
            return ChiResult("infinite", math.inf, partial, math.inf, decay2, horizon)
        if decay2 < _UNDECIDED_BAND[1]:
            return ChiResult("undecided", math.nan, partial, math.nan, decay2, horizon)
        tail = c_fit * c_fit * horizon ** (1.0 - decay2) / (decay2 - 1.0)
        if tail <= tolerance:
            return ChiResult("finite", partial + tail, partial, tail, decay2, horizon)
        # log of the horizon at which the fitted tail would meet the tolerance; the
        # reported estimate is capped at e^700 so that it fits a float
        log_needed = math.log(horizon) + math.log(tail / tolerance) / (decay2 - 1.0)
        if horizon >= _MAX_HORIZON or log_needed > math.log(_REACH * _MAX_HORIZON):
            raise PrecisionError(
                f"chi tail {tail:.3e} exceeds tolerance {tolerance:.3e} at horizon {horizon}",
                required_horizon=int(math.exp(min(log_needed, 700.0))),
            )
        known = horizon + 1
        horizon *= 2
        # in place where the allocator's realloc grows a large block without
        # copying it (glibc remaps it; measured on Linux only): there a copy,
        # even one that frees the old array at once, peaks as high in resident
        # memory as keeping both horizons.  resize refuses while anything else
        # holds u (a spy recording its arguments, a debugger's frame locals)
        # and always on PyPy; growing by a copy then gives the same values.
        try:
            u.resize(horizon + 1)
        except ValueError:
            u = np.concatenate((u, np.empty(horizon + 1 - len(u))))


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
        return -math.log(p) - ((1.0 - p) / p) * math.log1p(-p)
    m = kernel.masses
    pos = m[m > 0.0]
    # 0.0 minus the sum, so that the one-mass table gives +0.0, not -0.0
    return 0.0 - float(np.sum(pos * np.log(pos)))


# ---------------------------------------------------------------------------
# Far gaps as a positive sum of exponentials
# ---------------------------------------------------------------------------


# The quenched DP sums the gaps up to 64 + 63 directly and the gaps from
# _FAR_GAP on through these terms; at n <= 2 * 64 its dense product holds no
# more rows than that window, so no terms are built there.  The DP's run
# length is _FAR_GAP - 1.
_FAR_GAP = 65
_FAR_MIN_N = 2 * _FAR_GAP - 1
# The power terms are checked at _FAR_CHECK gaps spaced evenly in log d over
# the size class, against 1.25e-15 relative (more at large s, where exp(-lam
# d) is rounded at the size of lam d ~ s); terms below _FAR_CUT of every
# checked mass are dropped.
_FAR_CHECK = 300
_FAR_CUT = 1e-18
_FAR_STEP = 0.25
_FAR_MIN_STEP = 0.02


def far_terms(kernel: RenewalKernel, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Read-only ``(weights, rates)`` with ``K(d) = sum_i weights[i]
    exp(-rates[i] d)`` for every gap ``65 <= d <= n``, every weight > 0: the
    far gaps of the quenched DP.  ``None`` for tables (they stay banded) and
    for ``n <= 128``.

    Geometric: one term, ``p / (1-p) e^{-d (-log1p(-p))}``.  Power, ``s =
    1 + alpha``: the trapezoid rule on ``Gamma(s) d^-s = int e^{s x - d
    e^x} dx`` after the substitution ``x = u - e^{a - u}``, ``a = -log
    d_max``, which makes the lower tail decay double-exponentially (McLean
    2018, "Exponential sum approximations for t^-beta"), scaled to the
    float masses ``d^-s / zeta(s)`` at the checked gaps.  The step starts
    at 0.25 and shrinks by 0.9 until every checked gap is within bound; at
    alpha 0.3, 45 terms at ``d_max`` 1024 and 75 at 2^20 (72 at 2^20 for
    alpha 1.5).  Gaps whose mass is below the normal float range are not checked.  The
    terms are built once per kernel law and size class ``d_max``, the
    power of two at or above ``n``.
    """
    if kernel.family == "table" or n < _FAR_MIN_N:
        return None
    if kernel.family == "geometric":
        return _geometric_terms(kernel.p)
    return _power_terms(1.0 + kernel.alpha, 1 << (n - 1).bit_length())


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.lru_cache(maxsize=16)
def _geometric_terms(p: float) -> tuple[np.ndarray, np.ndarray]:
    return _read_only(np.array([p / (1.0 - p)]), np.array([-math.log1p(-p)]))


@functools.lru_cache(maxsize=32)
def _power_terms(s: float, d_max: int) -> tuple[np.ndarray, np.ndarray]:
    gaps = np.unique(np.geomspace(_FAR_GAP, d_max, _FAR_CHECK).round())
    masses = gaps ** -s / zeta(s)
    normal = masses >= np.finfo(float).tiny
    gaps, masses = gaps[normal], masses[normal]
    if not gaps.size:
        return _read_only(np.empty(0), np.empty(0))
    bound = 1.25e-15 * max(1.0, s / 4.0)
    a = -math.log(d_max)
    step = _FAR_STEP
    while step >= _FAR_MIN_STEP:
        u = step * np.arange(math.floor((a - 5.0) / step), math.ceil(2.0 / step) + 1)
        e = np.exp(a - u)
        x = u - e
        weights = step * (1.0 + e) * np.exp(s * x)
        rates = np.exp(x)
        share = weights * np.exp(-np.outer(gaps, rates)) / masses[:, None]
        sums = share.sum(axis=1)
        norm = float(np.mean(1.0 / sums))
        weights *= norm
        # a weight that underflows carries no normal mass
        keep = (share.max(axis=0) > _FAR_CUT) & (weights > 0.0)
        # exact row sums, so the loop stops on the terms' error, not its own rounding
        check = np.array([math.fsum(row) for row in share[:, keep]])
        if np.abs(check * norm - 1.0).max() <= bound:
            return _read_only(weights[keep], rates[keep])
        step *= 0.9
    raise PrecisionError(f"no exponential sum for d^-{s} within {bound:.2e} up to {d_max}")


_NEGATIVE_MASS_ABORT = -1e-10


def overlap_kernel(kernel: RenewalKernel, n: int) -> np.ndarray:
    """Read-only gap law ``K_2(1..n)`` of the joint returns of two
    independent copies.

    Squares the return probabilities (independence of the two copies) and
    inverts the renewal recursion, ``K_2(z) = 1 - 1/V(z)`` with ``V(z) =
    sum u_m^2 z^m``.  Inversion noise in ``(-1e-10, 0)`` is
    clamped to zero; anything below aborts as numerical corruption.  The
    partial sums ``L_2(n)`` increase to ``chi / (chi + 1)`` for an
    untruncated transient input and to 1 for a truncated one.
    """
    if n < 1:
        raise InvalidParameterError("horizon must be >= 1")
    u = return_probabilities(kernel, n)
    v = u * u
    v[0] = 1.0
    k2 = power_series_inverse(v, n + 1)[1:]
    np.negative(k2, out=k2)
    worst = float(k2.min()) if k2.size else 0.0
    if worst < _NEGATIVE_MASS_ABORT:
        raise InternalConsistencyError(
            f"overlap kernel produced mass {worst:.3e} below {_NEGATIVE_MASS_ABORT}"
        )
    np.clip(k2, 0.0, None, out=k2)
    k2.setflags(write=False)
    return k2


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# family -> (constructor, the one JSON field it reads)
_FAMILIES = {
    "power": (make_power_kernel, "alpha"),
    "geometric": (make_geometric_kernel, "p"),
    "table": (make_table_kernel, "masses"),
}


def kernel_to_json(kernel: RenewalKernel) -> dict:
    field = _FAMILIES[kernel.family][1]
    # tolist gives the float of a parameter and the float list of a table
    return {"family": kernel.family, field: np.asarray(getattr(kernel, field)).tolist()}


def kernel_from_json(doc: dict) -> RenewalKernel:
    """Kernel from its JSON form; a field the family does not read is an error."""
    family = doc.get("family")
    if family not in _FAMILIES:
        raise InvalidParameterError(f"unknown kernel family {family!r}")
    make, field = _FAMILIES[family]
    unknown = sorted(set(doc) - {"family", field})
    if unknown:
        raise InvalidParameterError(f"unknown {family} kernel field(s) {', '.join(unknown)}")
    return make(doc[field])
