"""Charge distributions, exponential tilts, and their entropies.

Every law is standardized to mean 0 and variance 1 at construction (a
location shift and a scale change are absorbed into the model's other
parameters, so nothing is lost).  The moment generating function
``M(lambda) = E[exp(lambda x)]`` must be finite for every real
``lambda``; the built-in families guarantee this by construction:

* ``gaussian``: standard normal, ``M = exp(lambda^2 / 2)``,
* ``rademacher``: fair signs, ``M = cosh(lambda)``,
* ``discrete``: finite atom table,
* ``continuous``: a tabulated density on a bounded interval, integrated
  by adaptive quadrature.

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
from scipy.integrate import quad

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
    "xi",
    "log_xi",
    "xi_limit",
    "relative_entropy_limit",
    "sample",
    "sample_base",
    "tilt_transform",
    "disorder_to_json",
    "disorder_from_json",
]

_QUAD_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class DisorderLaw:
    """Standardized charge law.  Use the ``*_disorder`` constructors."""

    family: str
    xs: np.ndarray | None = None       # discrete atoms (ascending) / density grid
    ps: np.ndarray | None = None       # atom probabilities / density values
    w: float = math.inf                # essential supremum of the support
    atom_at_w: float = 0.0             # mass at w (0 when w = inf or no atom)


def gaussian_disorder() -> DisorderLaw:
    return DisorderLaw(family="gaussian")


def rademacher_disorder() -> DisorderLaw:
    xs = np.array([-1.0, 1.0])
    ps = np.array([0.5, 0.5])
    xs.setflags(write=False)
    ps.setflags(write=False)
    return DisorderLaw(family="rademacher", xs=xs, ps=ps, w=1.0, atom_at_w=0.5)


def discrete_disorder(xs, ps) -> DisorderLaw:
    """Finite atom table, standardized to mean 0 and variance 1."""
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if xs.shape != ps.shape or xs.ndim != 1 or xs.size < 2:
        raise InvalidParameterError("need matching atom and probability vectors, >= 2 atoms")
    if np.any(ps < 0) or abs(ps.sum() - 1.0) > 1e-12:
        raise InvalidParameterError("atom probabilities must be nonnegative and sum to 1")
    if len(np.unique(xs)) != len(xs):
        raise InvalidParameterError("atoms must be distinct")
    order = np.argsort(xs)
    xs, ps = xs[order], ps[order]
    mean = float(np.dot(ps, xs))
    var = float(np.dot(ps, (xs - mean) ** 2))
    if var <= 0.0:
        raise InvalidParameterError("law is degenerate; variance must be positive")
    xs = (xs - mean) / math.sqrt(var)
    xs.setflags(write=False)
    ps.setflags(write=False)
    return DisorderLaw(
        family="discrete", xs=xs, ps=ps, w=float(xs[-1]), atom_at_w=float(ps[-1])
    )


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
    if np.any(np.diff(grid) <= 0):
        raise InvalidParameterError("density grid must be strictly increasing")
    if np.any(values < 0):
        raise InvalidParameterError("density values must be nonnegative")
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
    return DisorderLaw(
        family="continuous", xs=grid, ps=values, w=float(grid[-1]), atom_at_w=0.0
    )


# ---------------------------------------------------------------------------
# Moment generating function and derived quantities
# ---------------------------------------------------------------------------


def _log_cosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def _quad_integral(law: DisorderLaw, integrand) -> float:
    # relative target 1e-10, with an absolute floor for integrals whose
    # true value sits at zero (odd integrands of a centered law)
    lo, hi = float(law.xs[0]), float(law.xs[-1])
    density = lambda x: np.interp(x, law.xs, law.ps)
    breakpoints = law.xs[1:-1] if law.xs.size <= 60 else None
    val, err = quad(
        lambda x: density(x) * integrand(x),
        lo,
        hi,
        points=breakpoints,
        limit=500,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    if not math.isfinite(val) or err > max(_QUAD_RTOL * abs(val), 1e-12):
        raise PrecisionError(
            f"quadrature error {err:.2e} exceeds relative tolerance {_QUAD_RTOL}"
        )
    return val


def log_mgf(law: DisorderLaw, lam: float) -> float:
    """``log M(lambda)``, stable for large tilts."""
    if law.family == "gaussian":
        return 0.5 * lam * lam
    if law.family == "rademacher":
        return _log_cosh(lam)
    if law.family == "discrete":
        t = lam * law.xs
        mx = float(np.max(t))
        return mx + math.log(float(np.dot(law.ps, np.exp(t - mx))))
    shift = lam * (law.xs[-1] if lam > 0 else law.xs[0])
    val = _quad_integral(law, lambda x: np.exp(lam * x - shift))
    return float(shift + math.log(val))


def tilted_mean(law: DisorderLaw, beta: float) -> float:
    """Mean of the tilted law, ``M'(beta) / M(beta)``."""
    if law.family == "gaussian":
        return beta
    if law.family == "rademacher":
        return math.tanh(beta)
    if law.family == "discrete":
        t = beta * law.xs
        t -= t.max()
        wts = law.ps * np.exp(t)
        return float(np.dot(wts, law.xs) / wts.sum())
    shift = beta * (law.xs[-1] if beta > 0 else law.xs[0])
    num = _quad_integral(law, lambda x: x * np.exp(beta * x - shift))
    den = _quad_integral(law, lambda x: np.exp(beta * x - shift))
    return float(num / den)


def relative_entropy_tilt(law: DisorderLaw, beta: float) -> float:
    """``h(mu_beta | mu_0) = beta M'(beta)/M(beta) - log M(beta)``.

    Nonnegative, zero exactly at ``beta = 0``, nondecreasing in ``|beta|``.
    """
    return beta * tilted_mean(law, beta) - log_mgf(law, beta)


def log_xi(law: DisorderLaw, beta: float) -> float:
    """``log Xi(beta)`` with ``Xi(beta) = M(2 beta) / M(beta)^2``."""
    return log_mgf(law, 2.0 * beta) - 2.0 * log_mgf(law, beta)


def xi(law: DisorderLaw, beta: float) -> float:
    """Second-moment ratio ``Xi(beta) >= 1``, nondecreasing for ``beta >= 0``."""
    return math.exp(log_xi(law, beta))


def xi_limit(law: DisorderLaw) -> float:
    """``lim_{beta->inf} Xi(beta) = 1 / mu_0({w})`` (``inf`` when no atom)."""
    return 1.0 / law.atom_at_w if law.atom_at_w > 0.0 else math.inf


def relative_entropy_limit(law: DisorderLaw) -> float:
    """``lim_{beta->inf} h(mu_beta | mu_0) = log(1 / mu_0({w}))``."""
    return -math.log(law.atom_at_w) if law.atom_at_w > 0.0 else math.inf


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
    if law.family in ("rademacher", "discrete"):
        t = beta * law.xs
        t -= t.max()
        wts = law.ps * np.exp(t)
        cdf = np.cumsum(wts / wts.sum())
        idx = np.searchsorted(cdf, base, side="right")
        return law.xs[np.minimum(idx, len(law.xs) - 1)]
    dens = law.ps * np.exp(beta * law.xs - beta * law.xs[-1])
    gaps = np.diff(law.xs) * 0.5 * (dens[1:] + dens[:-1])
    cdf = np.concatenate([[0.0], np.cumsum(gaps)])
    cdf /= cdf[-1]
    return np.interp(base, cdf, law.xs)


def sample(law: DisorderLaw, stream: RngStream, count: int) -> np.ndarray:
    """``count`` i.i.d. draws from ``law`` itself (tilt 0)."""
    return tilt_transform(law, sample_base(law, stream, count), 0.0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def disorder_to_json(law: DisorderLaw) -> dict:
    doc: dict = {"family": law.family}
    if law.family == "discrete":
        doc["table"] = {"xs": [float(x) for x in law.xs], "ps": [float(p) for p in law.ps]}
    elif law.family == "continuous":
        doc["table"] = {"grid": [float(x) for x in law.xs], "values": [float(p) for p in law.ps]}
    return doc


def disorder_from_json(doc: dict) -> DisorderLaw:
    family = doc.get("family")
    if family == "gaussian":
        return gaussian_disorder()
    if family == "rademacher":
        return rademacher_disorder()
    if family == "discrete":
        table = doc["table"]
        return discrete_disorder(table["xs"], table["ps"])
    if family == "continuous":
        table = doc["table"]
        return continuous_disorder(table["grid"], table["values"])
    raise InvalidParameterError(f"unknown disorder family {family!r}")
