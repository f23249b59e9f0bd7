"""Quenched partition functions, free-energy estimates, and the critical point.

The partition sum over paths tied to the defect line at both ends obeys

    Z_0 = 1,   Z_m = sum_{j=0}^{m-1} Z_j exp(beta w_j - h) K(m - j),

where a reward is collected at every renewal start (site 0 included, the
terminal site excluded).  At depth ``n = 4096`` the summands span
hundreds of orders of magnitude, so the recursion is the scaled forward
algorithm: each replica holds its terms in the linear domain under one
log-scale, a step is one matrix-vector product, the scale moves only when
a sum or a new term leaves a safe range, and ``log Z_m`` is stored in the
log domain.  A step whose linear sum underflows or overflows is redone by
an exact log-sum-exp, so the extremes give the log-domain result.
Replicas share nothing; each owns a private stream derived from
``(base_seed, replica_index)``, which makes estimates bit-reproducible and
embarrassingly parallel.

The quenched free energy per site is estimated as the replica average of
``log Z_n / n``.  Locating its zero in ``h`` is done by bisection with an
explicit finite-size allowance: a point is declared localized only when
the estimate clears ``max(3 stderr, 5 / n)``, and the reported upper
edge is widened by the allowance mapped through the locally observed
slope, so the returned interval is an honest bracket rather than a point
estimate.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderLaw, log_mgf, sample
from .errors import InvalidParameterError, PrecisionError
from .kernels import RenewalKernel
from .rng import derive_stream

__all__ = [
    "PolymerParams",
    "FreeEnergyEstimate",
    "QuenchedSearchConfig",
    "CriticalPointBracket",
    "dp_log_partition",
    "log_mass_vector",
    "partition_function_log",
    "quenched_free_energy",
    "quenched_critical_point",
]


@dataclass(frozen=True, eq=False)
class PolymerParams:
    """Model configuration for one quenched estimate."""

    kernel: RenewalKernel
    disorder: DisorderLaw
    beta: float
    h: float
    n: int
    replicas: int = 64
    base_seed: int = 0

    def __post_init__(self):
        if self.beta < 0.0:
            raise InvalidParameterError("beta must be >= 0")
        if self.n < 1:
            raise InvalidParameterError("system size n must be >= 1")
        if self.replicas < 1:
            raise InvalidParameterError("replicas must be >= 1")


@dataclass(frozen=True, eq=False)
class FreeEnergyEstimate:
    mean: float
    stderr: float
    n: int
    replicas: int
    base_seed: int
    seeds_digest: str
    per_replica: np.ndarray

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "n": self.n,
            "replicas": self.replicas,
            "seed": self.base_seed,
            "seeds_digest": self.seeds_digest,
        }


def log_mass_vector(kernel: RenewalKernel, n: int) -> np.ndarray:
    masses = kernel.mass_array(n)
    out = np.full(n, -np.inf)
    pos = masses > 0.0
    out[pos] = np.log(masses[pos])
    return out


# A replica is rebased when its new entry exceeds e^460 (about 1e200) or its
# sum leaves [e^-460, e^460], so a sum of up to n entries stays far from
# overflow.  A sum outside [e^-644, e^644] (about 1e-280 to 1e280) is redone
# in the log domain: entries that underflowed to zero or to subnormals may
# then carry a relevant share of it.
_LOG_SAFE = 460.0
_LOG_EXACT = 644.0


def dp_log_partition(
    log_k: np.ndarray, site_weights: np.ndarray, band: int | None = None
) -> np.ndarray:
    """Batched renewal DP as a scaled linear-domain recursion.

    ``site_weights[r, j] = beta * w_j - h`` for replica ``r``; returns the
    ``(replicas, n+1)`` array of ``log Z_m``.  ``band`` limits the gap
    length for kernels of bounded support (O(n * band) instead of O(n^2)).

    Replica ``r`` keeps ``y[j, r] = Z_j exp(w_j - c_r)`` for the sites of
    its window under one log-scale ``c_r`` (the scaled forward algorithm of
    HMMs), so a step is one product of the reversed kernel masses with the
    window's rows of ``y``, one ``log`` and one ``exp`` per replica.  A
    replica whose sum or new entry leaves the safe range is rebased:
    ``c_r`` becomes the window's largest ``log Z_j + w_j`` and its window is
    recomputed from ``log Z``.  A sum that is zero, subnormal or near either
    end of the float range is recomputed by the exact log-sum-exp step for
    that replica alone, so large ``beta * w``, extreme ``h``, gapped kernels
    and long stretches of very negative weight give the log-domain values,
    and ``-inf`` where ``Z_m = 0``.
    """
    reps, n = site_weights.shape
    width = n if band is None else min(band, n)
    k_rev = np.exp(log_k[:width][::-1])  # K(width), ..., K(1)
    log_z = np.empty((reps, n + 1))
    log_z[:, 0] = 0.0
    y = np.empty((n, reps))
    scale = np.empty(reps)
    steps = np.empty((2, reps))
    lz, a = steps  # log of the sum, log of the new entry, relative to scale
    with np.errstate(divide="ignore", over="ignore"):
        if n:
            _rebase(y, scale, log_z, site_weights, np.arange(reps), 0, 1)
        for m in range(1, n + 1):
            j0 = max(0, m - width)
            np.log(k_rev[width - m + j0:] @ y[j0:m], out=lz)
            np.add(scale, lz, out=log_z[:, m])
            if m < n:
                np.add(lz, site_weights[:, m], out=a)
                np.exp(a, out=y[m])
                if steps.max() <= _LOG_SAFE and lz.min() >= -_LOG_SAFE:
                    continue
            elif np.abs(lz).max() <= _LOG_EXACT:
                break
            exact = np.flatnonzero(~(np.abs(lz) <= _LOG_EXACT))
            if exact.size:
                log_z[exact, m] = _log_step(log_z, site_weights, log_k, exact, j0, m)
            if m < n:
                off = np.flatnonzero(~((np.abs(lz) <= _LOG_SAFE) & (a <= _LOG_SAFE)))
                start = max(0, m + 1 - width)  # the next step's window
                _rebase(y, scale, log_z, site_weights, off, start, m + 1)
    return log_z


def _rebase(y, scale, log_z, site_weights, rows, j0, j1):
    """Put ``rows`` on the scale of their largest ``log Z_j + w_j``, j0 <= j < j1."""
    a = log_z[rows, j0:j1] + site_weights[rows, j0:j1]
    top = a.max(axis=1)
    top[~np.isfinite(top)] = 0.0
    scale[rows] = top
    a -= top[:, None]
    y[j0:j1, rows] = np.exp(a, out=a).T


def _log_step(log_z, site_weights, log_k, rows, j0, m):
    """``log Z_m`` of ``rows`` by log-sum-exp over the sites ``j0 <= j < m``."""
    t = log_z[rows, j0:m] + site_weights[rows, j0:m] + log_k[: m - j0][::-1]
    top = t.max(axis=1)
    top[~np.isfinite(top)] = 0.0
    return top + np.log(np.exp(t - top[:, None]).sum(axis=1))


def partition_function_log(params: PolymerParams, omega) -> float:
    """``log Z_n`` for one fixed charge sequence (length >= n)."""
    omega = np.asarray(omega, dtype=float)
    if omega.size < params.n:
        raise InvalidParameterError(
            f"need at least n = {params.n} charges, got {omega.size}"
        )
    weights = (params.beta * omega[: params.n] - params.h)[None, :]
    log_k = log_mass_vector(params.kernel, params.n)
    band = params.kernel.support_upper
    return float(dp_log_partition(log_k, weights, band=band)[0, params.n])


def _replica_charges(params: PolymerParams) -> np.ndarray:
    rows = np.empty((params.replicas, params.n))
    for r in range(params.replicas):
        stream = derive_stream(params.base_seed, r)
        rows[r] = sample(params.disorder, stream, params.n)
    return rows


def _seeds_digest(base_seed: int, replicas: int) -> str:
    payload = ",".join(f"{base_seed}:{r}" for r in range(replicas))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def quenched_free_energy(
    params: PolymerParams, *, charges: np.ndarray | None = None
) -> FreeEnergyEstimate:
    """Replica average of ``log Z_n / n`` with its standard error.

    Deterministic given ``base_seed``: replica ``r`` draws its charges
    from the stream at ``(base_seed, r)``.  A caller that evaluates several
    biases at one ``(n, replicas, base_seed)`` may pass those draws as
    ``charges`` (shape ``(replicas, n)``) instead of having them redrawn.
    """
    if charges is None:
        omegas = _replica_charges(params)
    elif charges.shape == (params.replicas, params.n):
        omegas = charges
    else:
        raise InvalidParameterError(
            f"charges must have shape {(params.replicas, params.n)}, "
            f"got {charges.shape}"
        )
    weights = params.beta * omegas - params.h
    log_k = log_mass_vector(params.kernel, params.n)
    log_z = dp_log_partition(log_k, weights, band=params.kernel.support_upper)
    per_replica = log_z[:, params.n] / params.n
    mean = float(per_replica.mean())
    stderr = 0.0
    if params.replicas > 1:
        stderr = float(per_replica.std(ddof=1) / math.sqrt(params.replicas))
    per_replica.setflags(write=False)
    return FreeEnergyEstimate(
        mean=mean,
        stderr=stderr,
        n=params.n,
        replicas=params.replicas,
        base_seed=params.base_seed,
        seeds_digest=_seeds_digest(params.base_seed, params.replicas),
        per_replica=per_replica,
    )


# ---------------------------------------------------------------------------
# Critical-point bracketing
# ---------------------------------------------------------------------------


_C_FS = 5.0           # finite-size allowance: threshold _C_FS / n
_WIDEN_FACTOR = 2.0   # upper-edge widening in units of threshold/slope
_MIN_SLOPE = 0.02
_MAX_PROBES = 60


@dataclass(frozen=True)
class QuenchedSearchConfig:
    n: int = 4096
    replicas: int = 64
    base_seed: int = 0
    target_width: float = 0.002


@dataclass(frozen=True)
class CriticalPointBracket:
    beta: float
    h_lo: float
    h_hi: float          # widened upper edge
    h_hi_raw: float      # last bisection point declared delocalized
    width: float
    undecided: bool
    threshold: float
    diagnostics: dict

    def to_json(self) -> dict:
        return {
            "beta": self.beta,
            "h_lo": self.h_lo,
            "h_hi": self.h_hi,
            "h_hi_raw": self.h_hi_raw,
            "width": self.width,
            "undecided": self.undecided,
            "threshold": self.threshold,
            "per_n_diagnostics": self.diagnostics,
        }


def quenched_critical_point(
    kernel: RenewalKernel,
    disorder: DisorderLaw,
    beta: float,
    config: QuenchedSearchConfig,
) -> CriticalPointBracket:
    """Bisection bracket for the quenched critical bias at fixed ``beta``.

    The search starts from the window ``(-0.1, log M(beta) + 0.1)``.  A
    bias ``h`` is declared localized when the estimate exceeds
    ``max(3 stderr, 5 / n)`` and delocalized otherwise; localized
    declarations are reliable (finite-size estimates only undershoot the
    limit in expectation), so the lower edge is trustworthy while the raw
    upper edge is widened by ``2 * threshold / slope`` with the slope read
    off the bracket endpoints (floored at 0.02).  If sampling noise swamps
    the allowance near the transition the search stops early and the
    bracket is flagged undecided instead of being narrowed artificially.
    """
    cfg = config
    h_lo, h_hi = -0.1, log_mgf(disorder, beta) + 0.1

    # charges depend on (n, replicas, base_seed) only: draw them once per n
    charges: dict[int, np.ndarray] = {}

    def estimate_at(h: float, n: int) -> FreeEnergyEstimate:
        params = PolymerParams(
            kernel=kernel, disorder=disorder, beta=beta, h=h, n=n,
            replicas=cfg.replicas, base_seed=cfg.base_seed,
        )
        if n not in charges:
            charges[n] = _replica_charges(params)
        return quenched_free_energy(params, charges=charges[n])

    cache: dict[float, FreeEnergyEstimate] = {}

    def estimate(h: float) -> FreeEnergyEstimate:
        if h not in cache:
            cache[h] = estimate_at(h, cfg.n)
        return cache[h]

    def threshold(est: FreeEnergyEstimate) -> float:
        return max(3.0 * est.stderr, _C_FS / cfg.n)

    def is_localized(est: FreeEnergyEstimate) -> bool:
        return est.mean > threshold(est)

    def is_noise_bound(est: FreeEnergyEstimate) -> bool:
        return 3.0 * est.stderr > _C_FS / cfg.n and abs(est.mean) <= 3.0 * est.stderr

    probes = 0
    while not is_localized(estimate(h_lo)):
        h_lo -= 2.0 * max(abs(h_lo), 0.1)
        probes += 1
        if probes > 8:
            raise PrecisionError("could not find a localized left endpoint")
    while is_localized(estimate(h_hi)):
        h_hi += 2.0 * max(abs(h_hi), 0.1)
        probes += 1
        if probes > 16:
            raise PrecisionError("could not find a delocalized right endpoint")

    undecided = False
    while h_hi - h_lo > cfg.target_width and probes < _MAX_PROBES:
        mid = 0.5 * (h_lo + h_hi)
        est = estimate(mid)
        probes += 1
        if is_noise_bound(est):
            undecided = True
            break
        if is_localized(est):
            h_lo = mid
        else:
            h_hi = mid

    est_lo, est_hi = estimate(h_lo), estimate(h_hi)
    diag = {}
    for label, h, est in (("h_lo", h_lo, est_lo), ("h_hi", h_hi, est_hi)):
        est2 = estimate_at(h, 2 * cfg.n)
        diag[label] = {
            "h": h,
            "n": cfg.n,
            "mean": est.mean,
            "stderr": est.stderr,
            "n2": 2 * cfg.n,
            "mean_2n": est2.mean,
            "stderr_2n": est2.stderr,
        }

    slope = (est_lo.mean - est_hi.mean) / max(h_hi - h_lo, 1e-12)
    slope = max(slope, _MIN_SLOPE)
    widen = _WIDEN_FACTOR * threshold(est_hi) / slope
    if undecided:
        widen *= 2.0
    h_hi_report = h_hi + widen
    return CriticalPointBracket(
        beta=beta,
        h_lo=h_lo,
        h_hi=h_hi_report,
        h_hi_raw=h_hi,
        width=h_hi_report - h_lo,
        undecided=undecided,
        threshold=threshold(est_hi),
        diagnostics=diag,
    )
