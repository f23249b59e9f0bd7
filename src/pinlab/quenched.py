"""Quenched partition functions, free-energy estimates, and the critical point.

The partition sum over paths tied to the defect line at both ends obeys

    Z_0 = 1,   Z_m = sum_{j=0}^{m-1} Z_j exp(beta w_j - h) K(m - j),

where a reward is collected at every renewal start (site 0 included, the
terminal site excluded).  At depth ``n = 4096`` the summands span
hundreds of orders of magnitude, so the recursion is the scaled forward
algorithm: each replica holds its terms in the linear domain under one
log-scale, a step is one matrix-vector product and one multiply, the scale
moves only when a sum or a new term leaves a safe range, and ``log Z_m`` is
stored in the log domain.  Logs and range tests are taken once per run of
steps; the first step of a run that leaves the range is repaired and the
steps after it are computed again.  A step whose linear sum underflows or
overflows is redone by an exact log-sum-exp, so the extremes give the
log-domain result.
Replicas share nothing: :func:`replica_charges` draws the charges of
replica ``r`` from its private stream at ``(base_seed, r)``, which makes
estimates bit-reproducible and embarrassingly parallel.

The quenched free energy per site is estimated as the replica average of
``log Z_n / n`` over one ``(replicas, n)`` array of charges, drawn once
and reused for every bias.  Locating its zero in ``h`` is done by
bisection with an explicit finite-size allowance: a point is declared
localized only when the estimate clears ``max(3 stderr, 5 / n)``, and the
reported upper edge is widened by the allowance mapped through the
locally observed slope, so the returned interval is an honest bracket
rather than a point estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderLaw, log_mgf, sample
from .errors import InvalidParameterError, PrecisionError
from .kernels import RenewalKernel
from .rng import derive_stream

__all__ = [
    "FreeEnergyEstimate",
    "QuenchedSearchConfig",
    "CriticalPointBracket",
    "dp_log_partition",
    "log_mass_vector",
    "partition_function_log",
    "replica_charges",
    "quenched_free_energy",
    "quenched_critical_point",
]


@dataclass(frozen=True, eq=False)
class FreeEnergyEstimate:
    mean: float
    stderr: float
    per_replica: np.ndarray


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
# then carry a relevant share of it.  A new entry ``s e^w`` whose factor
# ``e^w`` is subnormal or zero is exact only to about ``s * 5e-324``, so a
# replica whose sum exceeds 1 at such a site is rebased too, which recomputes
# the entry from ``log Z``.
_LOG_SAFE = 460.0
_LOG_EXACT = 644.0
_SAFE = math.exp(_LOG_SAFE)
_TINY = np.finfo(float).tiny
# Steps between two range tests.  A run starts at one step, doubles after each
# run whose steps all stay in range, and starts again at one after a step that
# does not; the run buffers hold _RUN_CAP x replicas floats each.
_RUN_CAP = 64


def dp_log_partition(
    log_k: np.ndarray, site_weights: np.ndarray, band: int | None = None
) -> np.ndarray:
    """Batched renewal DP as a scaled linear-domain recursion.

    ``site_weights[r, j] = beta * w_j - h`` for replica ``r``; returns the
    ``(replicas, n+1)`` array of ``log Z_m``.  ``band`` limits the gap
    length for kernels of bounded support (O(n * band) instead of O(n^2)).

    Replica ``r`` keeps ``y[j, r] = Z_j exp(w_j - c_r)`` for the sites of
    its window under one log-scale ``c_r`` (the scaled forward algorithm of
    HMMs).  A step is two array operations across the replicas: the sum
    ``s_m``, one product of the reversed kernel masses with the window's
    rows of ``y``, and the new entry ``y[m] = s_m e^{w_m}``.  ``e^w`` is
    taken once per block of ``_RUN_CAP`` sites, and steps go in runs of up to
    ``_RUN_CAP``: after a run, one ``log`` gives its ``log Z_m = c_r +
    log s_m`` and one range test covers all its steps.  The first step at
    which a replica's sum or new entry leaves the safe range is repaired and
    the run's later steps are computed again: the replica is rebased
    (``c_r`` becomes the window's largest ``log Z_j + w_j`` and its window
    is recomputed from ``log Z``), and a sum that is zero, subnormal or near
    either end of the float range is first recomputed by the exact
    log-sum-exp step for that replica alone.  So large ``beta * w``, extreme
    ``h``, gapped kernels and long stretches of very negative weight give
    the log-domain values, and ``-inf`` where ``Z_m = 0``.

    Each finite ``log Z_m`` is within ``1e-12 * max(1, max_{j<=m} |log Z_j|)``
    of the exact recursion: ``c_r`` and the log-sum-exp terms are rounded at
    the size of the largest ``|log Z_j|`` on the path (about 2e-13 at 1000),
    so where ``log Z_m`` returns near zero the error stays that large.
    """
    reps, n = site_weights.shape
    width = n if band is None else min(band, n)
    k_rev = np.exp(log_k[:width][::-1])  # K(width), ..., K(1)
    log_z = np.empty((reps, n + 1))
    log_z[:, 0] = 0.0
    y = np.empty((n + 1, reps))  # row n takes the last step's unused entry
    scale = np.empty(reps)
    sums = np.empty((_RUN_CAP, reps))  # a run's s_m, then their logs
    growth = np.ones((_RUN_CAP, reps))  # e^{w_j} for the sites g0 <= j < g0 + _RUN_CAP
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n:
            _rebase(y, scale, log_z, site_weights, np.arange(reps), 0, 1)
        m, length, g0 = 1, 1, -_RUN_CAP
        while m <= n:
            end = min(m + length, n + 1)  # the run is steps m <= t < end
            if end > g0 + _RUN_CAP:
                g0, hi = m, min(m + _RUN_CAP, n)
                np.exp(site_weights[:, m:hi], out=growth[: hi - m].T)
                tiny_growth = not growth[: hi - m].min(initial=1.0) >= _TINY
            s, g = sums[: end - m], growth[m - g0 : end - g0]
            for s_t, g_t, t in zip(s, g, range(m, end)):
                j0 = t - width if t > width else 0
                np.dot(k_rev[width - t + j0:], y[j0:t], out=s_t)
                np.multiply(s_t, g_t, out=y[t])
            lz = np.log(s, out=s)
            np.add(scale, lz, out=log_z[:, m:end].T)
            size = np.abs(lz)
            ok = (size <= _LOG_SAFE) & (y[m:end] <= _SAFE)
            if tiny_growth and not lz.max() <= 0.0:
                ok &= (g >= _TINY) | (lz <= 0.0)
            if end > n:
                ok[-1] = size[-1] <= _LOG_EXACT  # step n stores no entry
            if np.count_nonzero(ok) == ok.size:
                m, length = end, min(2 * length, _RUN_CAP)
                continue
            i = int(ok.all(axis=1).argmin())
            t = m + i  # the first step out of range; the steps after it are redone
            if not size[i].max() <= _LOG_EXACT:
                exact = np.flatnonzero(~(size[i] <= _LOG_EXACT))
                j0 = max(0, t - width)
                log_z[exact, t] = _log_step(log_z, site_weights, log_k, exact, j0, t)
            if t < n:
                off = np.flatnonzero(~ok[i])
                _rebase(y, scale, log_z, site_weights, off, max(0, t + 1 - width), t + 1)
            m, length = t + 1, 1
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


def partition_function_log(kernel: RenewalKernel, site_weights) -> float:
    """``log Z_n``, ``n = len(site_weights)``, of one chain whose renewal at
    site ``j`` collects ``exp(site_weights[j])``, e.g. ``beta * omega_j - h``."""
    weights = np.asarray(site_weights, dtype=float)[None, :]
    n = weights.shape[1]
    log_k = log_mass_vector(kernel, n)
    return float(dp_log_partition(log_k, weights, band=kernel.support_upper)[0, n])


def replica_charges(disorder: DisorderLaw, n: int, replicas: int, base_seed: int) -> np.ndarray:
    """The ``(replicas, n)`` i.i.d. charges of replicas ``0..replicas-1``;
    row ``r`` is drawn from the stream at ``(base_seed, r)``."""
    if n < 1:
        raise InvalidParameterError("system size n must be >= 1")
    if replicas < 1:
        raise InvalidParameterError("replicas must be >= 1")
    rows = np.empty((replicas, n))
    for r in range(replicas):
        rows[r] = sample(disorder, derive_stream(base_seed, r), n)
    return rows


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean of the replica values and its standard error ``std(ddof=1) /
    sqrt(R)``, 0 for a single replica."""
    mean = float(values.mean())
    if len(values) == 1:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(len(values)))


def quenched_free_energy(
    kernel: RenewalKernel, charges: np.ndarray, beta: float, h: float
) -> FreeEnergyEstimate:
    """Replica average of ``log Z_n / n`` with its standard error.

    ``charges`` is the ``(replicas, n)`` array of the replicas' charges,
    e.g. from :func:`replica_charges`; row ``r`` gives the site weights
    ``beta * charges[r] - h`` of replica ``r``.
    """
    if beta < 0.0:
        raise InvalidParameterError("beta must be >= 0")
    if charges.ndim != 2 or charges.size == 0:
        raise InvalidParameterError(
            f"charges must be a nonempty (replicas, n) array, got shape {charges.shape}"
        )
    n = charges.shape[1]
    log_k = log_mass_vector(kernel, n)
    log_z = dp_log_partition(log_k, beta * charges - h, band=kernel.support_upper)
    per_replica = log_z[:, n] / n
    mean, stderr = _mean_stderr(per_replica)
    per_replica.setflags(write=False)
    return FreeEnergyEstimate(mean=mean, stderr=stderr, per_replica=per_replica)


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

    charges = replica_charges(disorder, cfg.n, cfg.replicas, cfg.base_seed)
    cache: dict[float, FreeEnergyEstimate] = {}

    def estimate(h: float) -> FreeEnergyEstimate:
        if h not in cache:
            cache[h] = quenched_free_energy(kernel, charges, beta, h)
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
    charges_2n = replica_charges(disorder, 2 * cfg.n, cfg.replicas, cfg.base_seed)
    diag = {}
    for label, h, est in (("h_lo", h_lo, est_lo), ("h_hi", h_hi, est_hi)):
        est2 = quenched_free_energy(kernel, charges_2n, beta, h)
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
