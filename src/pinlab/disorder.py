"""Charge distributions, exponential tilts, and their entropies.

Every law is standardized to mean 0 and variance 1 at construction (a
location shift and a scale change are absorbed into the model's other
parameters, so nothing is lost).  The moment generating function
``M(lambda) = E[exp(lambda x)]`` must be finite for every real
``lambda``; the built-in families guarantee this by construction:

* ``gaussian``: standard normal, ``M = exp(lambda^2 / 2)``,
* ``discrete``: finite atom table; fair signs (``rademacher_disorder``,
  ``M = cosh(lambda)``) are the two-atom table ``(-1, 1), (1/2, 1/2)``,
* ``continuous``: a tabulated density on a bounded interval, linear
  between its nodes, integrated in closed form segment by segment.

The exponential tilt ``mu_beta`` reweights by ``exp(beta x) / M(beta)``;
``tilted_mean`` gives its mean ``M'(beta)/M(beta)`` and
``relative_entropy_tilt`` its relative entropy with respect to the base law,
``beta M'(beta)/M(beta) - log M(beta)``.

Draws from ``mu_beta`` are ``tilt_transform(law, sample_base(...), beta)``:
base draws plus a deterministic transform, so that a shared stream yields
common random numbers across a grid of tilts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, PrecisionError
from .rng import RngStream

__all__ = [
    "DisorderLaw",
    "gaussian_disorder",
    "rademacher_disorder",
    "discrete_disorder",
    "continuous_disorder",
    "log_mgf",
    "tilted_mean",
    "relative_entropy_tilt",
    "log_xi",
    "relative_entropy_limit",
    "sample",
    "sample_base",
    "tilt_transform",
    "disorder_to_json",
    "disorder_from_json",
]


@dataclass(frozen=True, eq=False)
class DisorderLaw:
    """Standardized charge law.  Use the ``*_disorder`` constructors."""

    family: str
    xs: np.ndarray | None = None       # discrete atoms (ascending) / density grid
    ps: np.ndarray | None = None       # atom probabilities (all > 0) / density values


def gaussian_disorder() -> DisorderLaw:
    return DisorderLaw(family="gaussian")


def rademacher_disorder() -> DisorderLaw:
    """Fair signs: the discrete table ``(-1, 1), (1/2, 1/2)``."""
    return discrete_disorder([-1.0, 1.0], [0.5, 0.5])


def discrete_disorder(xs, ps) -> DisorderLaw:
    """Finite atom table, standardized to mean 0 and variance 1.

    Atoms without mass are dropped, so the top atom of a table, where the
    tilts are anchored, always carries mass; a table left with a single
    atom is degenerate.
    """
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if xs.shape != ps.shape or xs.ndim != 1 or xs.size < 2:
        raise InvalidParameterError("need matching atom and probability vectors, >= 2 atoms")
    if not np.all(np.isfinite(xs)):
        raise InvalidParameterError("atoms must be finite")
    # written so that a NaN probability fails it
    if not (np.all(ps >= 0) and abs(ps.sum() - 1.0) <= 1e-12):
        raise InvalidParameterError("atom probabilities must be nonnegative and sum to 1")
    order = np.argsort(xs)
    xs, ps = xs[order], ps[order]
    # a sorted scan, not np.unique, which imports numpy.ma (about 1.3 MB)
    if np.any(xs[1:] == xs[:-1]):
        raise InvalidParameterError("atoms must be distinct")
    xs, ps = xs[ps > 0.0], ps[ps > 0.0]
    mean = float(np.dot(ps, xs))
    var = float(np.dot(ps, (xs - mean) ** 2))
    if var <= 0.0:
        raise InvalidParameterError("law is degenerate; variance must be positive")
    xs = (xs - mean) / math.sqrt(var)
    xs.setflags(write=False)
    ps.setflags(write=False)
    return DisorderLaw(family="discrete", xs=xs, ps=ps)


def continuous_disorder(grid, values) -> DisorderLaw:
    """Bounded continuous law from a tabulated density.

    ``values[i]`` is the density at ``grid[i]``; between nodes the density
    is linear.  Normalization, centering, and scaling happen here, and the
    supremum of the (bounded) support carries no atom.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.shape != values.shape or grid.size < 3:
        raise InvalidParameterError("need a density table with >= 3 nodes")
    if not (np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0)):
        raise InvalidParameterError("density grid must be finite and strictly increasing")
    if not np.all(np.isfinite(values) & (values >= 0)):
        raise InvalidParameterError("density values must be finite and nonnegative")
    total = float(np.trapezoid(values, grid))
    if total <= 0.0:
        raise InvalidParameterError("density integrates to zero")
    values = values / total
    mean = float(np.trapezoid(grid * values, grid))
    var = float(np.trapezoid((grid - mean) ** 2 * values, grid))
    if var <= 0.0:
        raise InvalidParameterError("law is degenerate; variance must be positive")
    sd = math.sqrt(var)
    grid = (grid - mean) / sd
    values = values * sd
    grid.setflags(write=False)
    values.setflags(write=False)
    return DisorderLaw(family="continuous", xs=grid, ps=values)


# ---------------------------------------------------------------------------
# Moment generating function and derived quantities
# ---------------------------------------------------------------------------


# Taylor coefficients at 0 of the segment weights w0, w1, w2 (below), in
# increasing order: 1/(k+2)!, 1/(k! (k+2)), 1/(k! (k+3)).  For |y| < 1
# eighteen terms leave a remainder below 1e-17 relative.
_W_TERMS = 18
_W_TAYLOR = np.array(
    [
        [1.0 / math.factorial(k + 2) for k in range(_W_TERMS)],
        [1.0 / (math.factorial(k) * (k + 2)) for k in range(_W_TERMS)],
        [1.0 / (math.factorial(k) * (k + 3)) for k in range(_W_TERMS)],
    ]
)


_FAR_Y = -(2.0**64)  # below it e^y is 0 and 1/|y| is below half an ulp of 1
_EXP_ZERO = -800.0   # e^y rounds to 0 below it


def _segment_weights(y: np.ndarray) -> np.ndarray:
    """``w_j(y) = int_0^1 g_j(t) e^{y t} dt`` for ``y <= 0`` or ``|y| < 1``,
    with ``g = (1 - t, t, t^2)``; rows ``j = 0, 1, 2``.

    The closed forms lose digits to cancellation as ``y -> 0``, so they
    serve only for ``y <= -1``; above it the Taylor series does.  Below
    ``_FAR_Y`` they reduce to ``-1/y``, ``1/y^2`` and ``-2/y^3``, taken by
    division so that no power of ``y`` overflows, down to ``y = -inf``.
    """
    w = np.empty((3, y.size))
    near = y > -1.0
    far = y < _FAR_Y
    yn = y[near]
    acc = np.zeros((3, yn.size))
    for k in reversed(range(_W_TERMS)):
        acc = acc * yn + _W_TAYLOR[:, k : k + 1]
    w[:, near] = acc
    mid = ~(near | far)
    ym = y[mid]
    e = np.exp(ym)
    w[0, mid] = (np.expm1(ym) - ym) / (ym * ym)
    w[1, mid] = (e * (ym - 1.0) + 1.0) / (ym * ym)
    w[2, mid] = (e * (ym * (ym - 2.0) + 2.0) - 2.0) / (ym * ym * ym)
    yf = y[far]
    w[0, far] = -1.0 / yf
    w[1, far] = 1.0 / yf / yf
    w[2, far] = -2.0 / yf / yf / yf
    return w


def _scaled_segment_weights(y: np.ndarray) -> np.ndarray:
    """``(|y| w0, |y| w1, y^2 w1, y^2 w2)`` of :func:`_segment_weights` for
    ``y <= 0``, as rows; each stays in ``[0, 1]``, with the limits ``(1, 0,
    1, 0)`` at ``y = -inf``.

    Below ``-1`` they are ``1 - (e^y - 1)/y``, ``-q/y``, ``q = e^y (y - 1) +
    1`` and ``(e^y (y (y - 2) + 2) - 2)/y``, with ``e^y`` taken at ``y``
    clipped to ``_EXP_ZERO``, where it is 0 already, so that no product of
    ``e^y`` with a power of ``y`` is ``0 * inf``.
    """
    v = np.empty((4, y.size))
    near = y > -1.0
    yn = y[near]
    w0, w1, w2 = _segment_weights(yn)
    v[:, near] = -yn * w0, -yn * w1, yn * yn * w1, yn * yn * w2
    yf = y[~near]
    yc = np.maximum(yf, _EXP_ZERO)
    e = np.exp(yc)
    q1 = e * (yc - 1.0) + 1.0
    v[:, ~near] = 1.0 - np.expm1(yc) / yf, -q1 / yf, q1, (e * (yc * (yc - 2.0) + 2.0) - 2.0) / yf
    return v


def _mass_span(law: DisorderLaw) -> slice:
    """The nodes of a continuous law from its first to its last segment with mass."""
    live = np.flatnonzero((law.ps[:-1] > 0.0) | (law.ps[1:] > 0.0))
    return slice(live[0], live[-1] + 2)


def _continuous_segments(law: DisorderLaw, lam: float):
    """``(top, h, xc, pc, pd)`` of a continuous law's segments with mass:
    ``top`` is the node where ``lam x`` is largest, and each segment of
    length ``h`` runs from its endpoint ``xc`` where ``lam x`` is largest,
    of density ``pc``, to its other endpoint, of density ``pd``."""
    # outer segments without mass are dropped: a shift taken at their far end
    # would make the scale of every segment with mass underflow
    span = _mass_span(law)
    xs, ps = law.xs[span], law.ps[span]
    h = np.diff(xs)
    if lam >= 0.0:
        return float(xs[-1]), h, xs[1:], ps[1:], ps[:-1]
    return float(xs[0]), h, xs[:-1], ps[:-1], ps[1:]


def _continuous_moments(law: DisorderLaw, lam: float) -> tuple[float, float, float]:
    """``(shift, m0, m1)`` with ``m_j = e^-shift int x^j p(x) e^{lam x} dx``
    for the piecewise-linear density ``p`` of a continuous law.

    Each segment is integrated in closed form from its endpoint ``c`` where
    ``lam x`` is largest: with ``x = c + s h t`` (``s = +-1`` toward the
    other endpoint ``d``) and ``y = -|lam| h``,

        int p e^{lam x} = h e^{lam c} (p_c w0(y) + p_d w1(y)),

    and the ``x``-weighted integral adds ``s h (p_c (w1 - w2) + p_d w2)``
    to ``c (p_c w0 + p_d w1)``.  ``shift`` is the largest ``lam x`` on the
    segments with positive mass, so every scale ``e^{lam c - shift}`` of such
    a segment is at most 1 and the sums are a log-sum-exp over segments.
    Where the density is 0 at ``top``, ``m0`` is of order ``1/lam^2``; if it
    underflows to 0 (from ``|lam|`` near 1.5e161) :class:`PrecisionError` is
    raised.
    """
    top, h, xc, pc, pd = _continuous_segments(law, lam)
    s = -1.0 if lam >= 0.0 else 1.0
    with np.errstate(over="ignore"):
        w0, w1, w2 = _segment_weights(-abs(lam) * h)
        scale = h * np.exp(lam * (xc - top))
        shift = float(lam * top)
    mass = pc * w0 + pd * w1
    m0 = math.fsum(scale * mass)
    if m0 == 0.0:
        # m0 ~ 1/lam^2 where the density is 0 at top, so it can underflow
        raise PrecisionError(f"tilted mass underflows at tilt {lam!r}")
    m1 = math.fsum(scale * (xc * mass + s * h * (pc * (w1 - w2) + pd * w2)))
    return shift, m0, m1


def _anchored_continuous(law: DisorderLaw, lam: float, factor: float):
    """``(top, rest, slope)`` of a continuous law tilted by ``t = factor *
    lam`` from its anchor ``top`` (:func:`_continuous_segments`, at ``lam``;
    ``factor > 0``): ``rest = log m0`` with ``m0 = int p e^{t (x - top)}``,
    and ``slope = t E_t[x - top]``.

    Both are taken with the factor ``1/|t|`` of ``m0`` pulled out, from
    :func:`_scaled_segment_weights`: ``|t| m0 = sum e^{u_c} (p_c v0 + p_d
    v1)`` with ``u_c = t (c - top)``, and ``t |t|`` times the first moment
    about ``top`` is ``sum e^{u_c} (u_c (p_c v0 + p_d v1) - p_c (q1 - q2) -
    p_d q2)``.  So neither the moment about 0 nor ``m0`` itself, which
    underflow at large ``|t|``, is formed, nor ``t`` itself: each product
    is taken as ``factor`` times a product with ``lam``, so that ``2 lam``
    cannot overflow.  Where the density is 0 at ``top``, ``|t| m0`` is of
    order ``1/|t|``; if it underflows to 0 (only at ``|t h|`` near the
    float limit) :class:`PrecisionError` is raised.
    """
    top, h, xc, pc, pd = _continuous_segments(law, lam)
    with np.errstate(over="ignore"):
        v0, v1, q1, q2 = _scaled_segment_weights(factor * (-abs(lam) * h))
        u = np.maximum(factor * (lam * (xc - top)), _EXP_ZERO)
    scale = np.exp(u)
    mass = pc * v0 + pd * v1
    total = math.fsum(scale * mass)
    if total == 0.0:
        # |lam| m0 ~ 1/|lam| where the density is 0 at top, so it can underflow
        raise PrecisionError(f"tilted mass underflows at tilt {factor!r} * {lam!r}")
    slope = math.fsum(scale * (u * mass - pc * (q1 - q2) - pd * q2)) / total
    return top, math.log(total) - math.log(abs(lam)) - math.log(factor), slope


def _exact_mean(law: DisorderLaw) -> float:
    """``sum p x`` over the stored atom table in exact arithmetic, rounded once."""
    num, den = 0, 1
    for p, x in zip(law.ps.tolist(), law.xs.tolist()):
        a, b = p.as_integer_ratio()
        c, d = x.as_integer_ratio()
        num, den = num * b * d + a * c * den, den * b * d
    return num / den


def _atom_weights(law: DisorderLaw, lam: float, factor: float) -> tuple[float, np.ndarray]:
    """``(anchor, wts)`` for an atom table tilted by ``factor * lam``
    (``factor > 0``): ``anchor`` is the atom where ``lam x`` is largest and
    ``wts = p * exp(factor * (lam (x - anchor)))``, so ``M(factor lam) =
    exp(factor lam anchor) * sum(wts)`` with every weight at most its
    probability.  An exponent that overflows to ``-inf`` gives the right 0.
    """
    anchor = float(law.xs[-1] if lam >= 0.0 else law.xs[0])
    with np.errstate(over="ignore"):
        return anchor, law.ps * np.exp(factor * (lam * (law.xs - anchor)))


def _anchored(law: DisorderLaw, lam: float) -> bool:
    """Whether a tilt by ``lam`` of an atom table or a continuous law is
    taken from its anchor (:func:`_anchored_tilt`) rather than from the
    small-tilt forms."""
    return law.family != "gaussian" and abs(lam) * float(np.abs(law.xs).max()) >= 1.0


def _anchored_tilt(law: DisorderLaw, lam: float, factor: float) -> tuple[float, float, float]:
    """``(anchor, rest, slope)`` of an atom table or a continuous law tilted
    by ``t = factor * lam`` from its anchor at ``lam`` (``factor > 0``):
    ``rest = log E e^{t (x - anchor)}`` and ``slope = t E_t[x - anchor]``,
    so ``log M(t) = t anchor + rest``; ``t`` itself is never formed.  A
    continuous law is :func:`_anchored_continuous`.
    """
    if law.family == "continuous":
        return _anchored_continuous(law, lam, factor)
    anchor, wts = _atom_weights(law, lam, factor)
    total = float(wts.sum())
    return anchor, math.log(total), factor * (lam * float(np.dot(wts, law.xs - anchor)) / total)


def _anchored_log_mgf(law: DisorderLaw, lam: float) -> tuple[float, float]:
    """``(anchor, rest)`` with ``log M(lam) = lam * anchor + rest``.

    Where a law is tilted from its anchor (the atom, or the end of the
    support, where ``lam x`` is largest), ``rest`` is the log of ``E
    e^{lam (x - anchor)} <= 1``, so the O(1) part of a difference such as
    ``lam * x - log M(lam)`` survives any ``lam`` when the ``lam * anchor``
    terms cancel algebraically.  Otherwise ``anchor`` is 0 and ``rest`` is
    ``log M(lam)`` (``lam^2 / 2`` for gaussian laws).
    """
    if not _anchored(law, lam):
        return 0.0, log_mgf(law, lam)
    return _anchored_tilt(law, lam, 1.0)[:2]


def log_mgf(law: DisorderLaw, lam: float) -> float:
    """``log M(lambda)``, stable for large tilts.

    Gaussian laws and atom tables are relatively accurate at small tilts
    too.  Continuous laws are accurate to about 1e-16 absolute there, not
    relative: their ``shift + log m0`` cancels to ``O(lam^2)``.  On a
    five-node density, against a 40-digit quadrature, the relative error
    is 0.72 at ``lam`` 1e-8, 2.8e-5 at 1e-6 and 6.0e-10 at 1e-4, while the
    absolute error stays below 1e-16.  :func:`relative_entropy_tilt` and
    :func:`log_xi` inherit that absolute bound at small ``beta``.
    """
    if law.family == "gaussian":
        return 0.5 * lam * lam
    if law.family == "discrete":
        if not _anchored(law, lam):
            # M - 1 = lam sum p x + lam^2 sum p x^2 w0(lam x), with w0(y) =
            # (e^y - 1 - y) / y^2 > 0 from its Taylor series: only the first
            # moment cancels, so it is summed exactly
            curv = math.fsum(law.ps * law.xs * law.xs * _segment_weights(lam * law.xs)[0])
            return math.log1p(lam * _exact_mean(law) + lam * lam * curv)
        anchor, rest = _anchored_log_mgf(law, lam)
        return lam * anchor + rest
    shift, m0, _ = _continuous_moments(law, lam)
    return shift + math.log(m0)


def tilted_mean(law: DisorderLaw, beta: float) -> float:
    """Mean of the tilted law, ``M'(beta) / M(beta)``.  A continuous law
    tilted from its anchor ``a`` takes ``a + E_beta[x - a]``, so it stays
    in the support where the tilted mass is too small for ``m1 / m0``."""
    if law.family == "gaussian":
        return beta
    if law.family == "discrete":
        _, wts = _atom_weights(law, beta, 1.0)
        return float(np.dot(wts / wts.sum(), law.xs))
    if _anchored(law, beta):
        top, _, slope = _anchored_continuous(law, beta, 1.0)
        return top + slope / beta
    _, m0, m1 = _continuous_moments(law, beta)
    return m1 / m0


def relative_entropy_tilt(law: DisorderLaw, beta: float) -> float:
    """``h(mu_beta | mu_0) = beta M'(beta)/M(beta) - log M(beta)``.

    Nonnegative, zero exactly at ``beta = 0``, nondecreasing in ``|beta|``.
    At small ``beta`` a continuous law has the absolute, not relative,
    accuracy of :func:`log_mgf`.  A law tilted from its anchor ``a`` takes
    ``beta E_beta[x - a] - log E e^{beta (x - a)}``: the ``beta a`` terms
    cancel before rounding.
    """
    if _anchored(law, beta):
        _, rest, slope = _anchored_tilt(law, beta, 1.0)
        return slope - rest
    return beta * tilted_mean(law, beta) - log_mgf(law, beta)


def log_xi(law: DisorderLaw, beta: float) -> float:
    """``log Xi(beta)`` with ``Xi(beta) = M(2 beta) / M(beta)^2``, the
    second-moment ratio: ``Xi >= 1``, nondecreasing for ``beta >= 0``.
    At small ``beta`` a continuous law has the absolute, not relative,
    accuracy of :func:`log_mgf`.

    A law tilted from its anchor ``a`` takes ``log E e^{2 beta (x - a)} -
    2 log E e^{beta (x - a)}``: the ``2 beta a`` terms cancel before
    rounding, and ``2 beta`` itself is never formed, so it cannot overflow.
    """
    if _anchored(law, beta):
        rest = _anchored_tilt(law, beta, 1.0)[1]
        return _anchored_tilt(law, beta, 2.0)[1] - 2.0 * rest
    return log_mgf(law, 2.0 * beta) - 2.0 * log_mgf(law, beta)


def relative_entropy_limit(law: DisorderLaw) -> float:
    """``lim_{beta->inf} h(mu_beta | mu_0) = log(1 / mu_0({w}))``: only an
    atom table has mass at the supremum ``w`` of its support, on its top atom."""
    return -math.log(law.ps[-1]) if law.family == "discrete" else math.inf


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_base(law: DisorderLaw, stream: RngStream, count: int) -> np.ndarray:
    """Family-specific base variates; feed to :func:`tilt_transform`.

    Gaussian laws draw standard normals, the others draw uniforms, so a
    fixed stream position gives a monotone coupling across tilts (common
    random numbers).
    """
    if law.family == "gaussian":
        return stream.normal(count)
    return stream.uniform(count)


def tilt_transform(law: DisorderLaw, base: np.ndarray, beta: float) -> np.ndarray:
    """Deterministically map base variates to draws from ``mu_beta``.

    Exact for gaussian (mean shift by ``beta``) and atomic laws
    (reweighted table via the inverse CDF); continuous tables use an
    inverse CDF interpolated on the density grid.
    """
    if law.family == "gaussian":
        return base + beta
    if law.family == "discrete":
        _, wts = _atom_weights(law, beta, 1.0)
        cdf = np.cumsum(wts / wts.sum())
        idx = np.searchsorted(cdf, base, side="right")
        return law.xs[np.minimum(idx, len(law.xs) - 1)]
    # tilted from the node top where beta x is largest on the segments with
    # mass (_continuous_segments), as beta (x - top), so beta x is never
    # formed; an exponent that overflows to -inf gives the right factor 0,
    # and the clip keeps the factor of a node past those segments, whose
    # density is 0, from overflowing
    top = _continuous_segments(law, beta)[0]
    with np.errstate(over="ignore"):
        t = beta * (law.xs - top)
    dens = law.ps * np.exp(np.minimum(t, 0.0))
    gaps = np.diff(law.xs) * 0.5 * (dens[1:] + dens[:-1])
    cdf = np.concatenate([[0.0], np.cumsum(gaps)])
    if not cdf[-1] > 0.0:
        raise PrecisionError(
            f"tilt {beta!r} underflows every node factor of the continuous law; "
            "its draws cannot be resolved"
        )
    cdf /= cdf[-1]
    return np.interp(base, cdf, law.xs)


def sample(law: DisorderLaw, stream: RngStream, count: int) -> np.ndarray:
    """``count`` i.i.d. draws from ``law`` itself (tilt 0)."""
    return tilt_transform(law, sample_base(law, stream, count), 0.0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


# family -> (constructor, the keys of its table in argument order); a law's
# table holds its xs and ps under those keys
_FAMILIES = {
    "gaussian": (gaussian_disorder, ()),
    "rademacher": (rademacher_disorder, ()),
    "discrete": (discrete_disorder, ("xs", "ps")),
    "continuous": (continuous_disorder, ("grid", "values")),
}


def disorder_to_json(law: DisorderLaw) -> dict:
    doc: dict = {"family": law.family}
    keys = _FAMILIES[law.family][1]
    if keys:
        doc["table"] = dict(zip(keys, (law.xs.tolist(), law.ps.tolist())))
    return doc


def disorder_from_json(doc: dict) -> DisorderLaw:
    """Law from its JSON form; a field or table key the family does not read
    is an error.  The family name ``rademacher`` spells fair signs."""
    family = doc.get("family")
    if family not in _FAMILIES:
        raise InvalidParameterError(f"unknown disorder family {family!r}")
    make, keys = _FAMILIES[family]
    unknown = sorted(set(doc) - ({"family", "table"} if keys else {"family"}))
    if unknown:
        raise InvalidParameterError(f"unknown {family} disorder field(s) {', '.join(unknown)}")
    if not keys:
        return make()
    table = doc["table"]
    unknown = sorted(set(table) - set(keys))
    if unknown:
        raise InvalidParameterError(f"unknown {family} table key(s) {', '.join(unknown)}")
    return make(*(table[key] for key in keys))
