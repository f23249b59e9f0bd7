"""Quenched partition functions, free-energy estimates, and the critical point.

The partition sum over paths tied to the defect line at both ends obeys

    Z_0 = 1,   Z_m = sum_{j=0}^{m-1} Z_j exp(beta w_j - h) K(m - j),

where a reward is collected at every renewal start (site 0 included, the
terminal site excluded).  At depth ``n = 4096`` the summands span
hundreds of orders of magnitude, so the recursion is the scaled forward
algorithm: each replica holds its terms in the linear domain under one
log-scale, a step is one matrix-vector product and one multiply, the scale
moves only when a sum or a new term leaves a safe range, and ``log Z_m`` is
stored in the log domain.  Steps go in runs of up to 64; the part of a
run's sums over the sites before it is one matrix product at the start of
the run, and each step's product covers only the run's own sites.  For
power and geometric kernels the product reads only the 64 sites before the
run: the sites before those are held as a few dozen running states per
replica, one per term of the positive exponential sum that
:func:`pinlab.kernels.far_terms` gives for the gaps past 64, so ``log Z_n``
costs O(n) time and the working rows do not grow with ``n``.  Logs
and range tests are taken once per run; the first step of a run that
leaves the range is repaired and the steps after it are computed again.
A step whose linear sum underflows or overflows is redone by an exact
log-sum-exp, so the extremes give the log-domain result.
Replicas share nothing: :func:`replica_charges` draws the charges of
replica ``r`` from its private stream at ``(base_seed, r)``, which makes
estimates bit-reproducible and embarrassingly parallel.

The quenched free energy per site is estimated as the replica average of
``log Z_n / n`` over one ``(replicas, n)`` array of charges, drawn once
and reused for every bias; several biases, each with its own ``beta``, can
share one DP call as extra rows.  The critical-point search takes a
``beta`` grid and a ``(replicas, 2n)`` array of charges, which
``phase-diagram`` draws once for all its ``beta``, and runs on its first
``n`` columns.  Each ``beta``'s zero in ``h`` is located by bisection with
an explicit finite-size allowance: a point is declared localized only when
the estimate clears ``max(3 stderr, 5 / n)``, and the reported upper edge
is widened by the allowance mapped through the locally observed slope.
The returned interval is a finite-size surrogate with that documented
allowance, not a certified enclosure of the critical bias: ROADMAP item 2
shows brackets of the bench configuration that exclude the exact ``log
M(beta)`` at betas below ``beta_c*``.
The grid is searched in lockstep: each round is one DP call that takes the
next biases of every active ``beta`` (both starting edges in its first
round, then one bias), up to four bias blocks per call.  Each bracket's
reported estimates come from one DP call per ``beta`` on the whole ``2n``
array, read at ``n`` and at ``2n``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderLaw, log_mgf, sample
from .errors import InvalidParameterError, PrecisionError
from .kernels import _FAR_GAP, RenewalKernel, _read_only, far_terms
from .rng import derive_stream

__all__ = [
    "FreeEnergyEstimate",
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
# the entry from ``log Z``.  The rule is one test for every step of a run,
# step n included: step n stores no entry, so a failure there rebases
# nothing and only a sum outside [e^-644, e^644] is redone.
_LOG_SAFE = 460.0
_LOG_EXACT = 644.0
_SAFE = math.exp(_LOG_SAFE)
_TINY = np.finfo(float).tiny
# Steps between two range tests.  A run starts at one step, doubles after each
# run whose steps all stay in range, and starts again at one after a step that
# does not; the run buffers hold _RUN_CAP x replicas floats each.  The sites
# more than _RUN_CAP before a run are its far states, so their gaps start at
# the first gap of far_terms.
_RUN_CAP = _FAR_GAP - 1
# Rows of the Toeplitz block of the far sums: half a run, so the block is
# _HALF x (width + _HALF) floats (0.5 MB at width 2048).
_HALF = _RUN_CAP // 2


def dp_log_partition(
    log_k: np.ndarray, site_weights: np.ndarray, band: int | None = None, far=None
) -> np.ndarray:
    """Batched renewal DP as a scaled linear-domain recursion.

    ``site_weights[r, j] = beta * w_j - h`` for replica ``r``; returns the
    ``(replicas, n+1)`` array of ``log Z_m``, the transposed view of the
    site-major ``(n+1, replicas)`` array the DP writes.  ``band`` limits
    the gap length for kernels of bounded support (O(n * band) instead of
    O(n^2)).
    ``far``, for an unbounded kernel (``band`` None), is the ``(weights,
    rates)`` of :func:`pinlab.kernels.far_terms` with ``K(d) = sum_i
    weights[i] e^{-rates[i] d}`` for the gaps ``d >= 65``: the sums over the
    sites more than 64 before a run are then ``r`` running states per
    replica, and the DP costs O(n * (64 + r)).  Without it an unbounded
    kernel takes the dense O(n^2) product.  Rows are independent, so several
    biases can share one call as extra rows.

    Replica ``r`` keeps ``y[j, r] = Z_j exp(w_j - c_r)`` for the sites of
    its window under one log-scale ``c_r`` (the scaled forward algorithm of
    HMMs).  Steps go in runs of up to ``_RUN_CAP``, and a step is two numpy
    calls across the replicas, into row views built once per call: one BLAS
    product for the sum ``s_m`` of the kernel masses times the window's rows
    of ``y``, called as the bound ``dot`` method of its row of masses, and
    one multiply for the new entry ``y[m] = s_m e^{w_m}``, both with
    positional outs so that numpy's Python-level dispatch is not run per
    step.  The part of every sum of a run ``[m, end)`` over the ``width``
    sites before it is one matrix product at the start of the run, written
    into ``y[m:end]`` (its Toeplitz factor is a column slice of one
    ``_HALF``-row block, which holds ``K`` up to ``width + 63``), and the
    sum of step ``m + i`` is the product of ``K(i), ..., K(1), 1`` (0 past
    the band) with the prefix ``y[m : m+i+1]`` of its run.  Once a window
    of ``width + 2 * _RUN_CAP`` rows has moved, every full run starts at
    row ``width`` or ``width + _RUN_CAP`` of ``y``: the prefixes of those
    two rows are views built once per call, and a run from any other row
    (warm-up runs, runs after a repair, every run of the dense DP) slices
    its own.  The kernel blocks (the Toeplitz block, the near rows' bound
    products and the far-state matrices) are built once per kernel: a cache
    of 8 entries keys them on the bytes of ``log_k[:reach]``, the width and
    the far terms, never on the caller's arrays, so a new or changed
    ``log_k`` gives the blocks of its own masses.  With ``far`` the window
    is the 64 sites before the run, and the sites ``j < b = m - 64`` are
    held as ``S[i] = sum_{j<b} e^{-rates[i] (b-j)} y[j]``: the run adds ``weights[i] e^{-rates[i] (t-b)} S[i]`` to
    step ``t``'s sum in one more product, and ``S`` moves to the next run's
    boundary as ``S e^{-rates L} + (e^{-rates (L-k)})_k y[b : b+L]`` for the
    ``L`` sites that leave the window.  A run never spans a rebase, so
    ``y[j]`` for ``j < m`` stays fixed while the run goes on.  ``e^w`` is
    taken once per block of ``_RUN_CAP`` sites; after a run, one ``log``
    gives its ``log Z_m = c_r + log s_m`` (contiguous rows of the site-major
    ``log Z``), and one range test, the same rule for every step, step
    ``n`` included, covers all its steps: a few reductions decide it, and
    only a run that fails builds the per-step test.  The first step at
    which a replica's sum or new entry leaves the safe range is repaired
    and the run's later steps are computed again: the replica is rebased
    (``c_r`` becomes the window's largest ``log Z_j + w_j``, or the log of
    its largest far state where that is larger, so that no state passes 1;
    its window is recomputed from ``log Z``, and its far states, first
    moved to the next boundary on the old scale, are multiplied by
    ``e^{old c_r - new c_r}``), and a sum that is zero, subnormal or near
    either end of the float range is first recomputed by the exact
    log-sum-exp step over every earlier site (over the band) for that
    replica alone.  Step ``n`` stores no entry, so a repair there rebases
    nothing and changes only a sum that the log-sum-exp step redoes.  So
    large ``beta * w``, extreme ``h``, gapped kernels and long stretches of
    very negative weight give the log-domain values, and ``-inf`` where
    ``Z_m = 0``.

    Site ``j`` of ``y`` is stored at row ``j - off`` of an array of
    ``min(n + 1, width + 2 * _RUN_CAP)`` rows.  A run reads the ``width``
    sites before it and writes at most ``_RUN_CAP``, so when the next run
    from ``m`` would pass the last row, the rows of the sites ``[m - width,
    m)`` move to the front and ``off`` becomes ``m - width``.  The dense DP
    (``width = n``) keeps all ``n + 1`` rows at offset 0; a banded one holds
    ``O(replicas * band)`` floats besides its ``log Z`` output, and one with
    ``far`` 192 rows and ``S``, ``r x replicas`` floats.  Each row of ``y``
    also has its view object (about 100 bytes) in the row list, and a
    moving window 128 prefix views.  The block cache keeps, per kernel,
    about ``264 * width + 1300 * r + 22000`` bytes (``r`` far terms): the
    Toeplitz block, the keys, and the near rows with their bound methods.

    Each finite ``log Z_m`` is within ``1e-12 * max(1, max_{j<=m} |log Z_j|)``
    of the exact recursion: ``c_r`` and the log-sum-exp terms are rounded at
    the size of the largest ``|log Z_j|`` on the path (about 2e-13 at 1000),
    so where ``log Z_m`` returns near zero the error stays that large.  The
    far terms' masses are within about 1e-15 relative of ``K``, and every
    term is positive, so they move ``log Z_m`` by about ``1e-15 m / 64``
    at most.  The sums are of nonnegative terms, so their order (which BLAS
    may choose by the number of rows and threads) moves ``log Z_m`` by
    rounding only.
    """
    reps, n = site_weights.shape
    if far is not None and band is not None:
        raise InvalidParameterError("far terms are for kernels without a band")
    if far is None:
        width = n if band is None else min(band, n)
        reach = width
    else:
        width = min(_RUN_CAP, n)
        reach = width + _RUN_CAP - 1  # the gaps a run's near product reads
    lead = n if band is None else width  # the sites a log-sum-exp step reads
    far_key = None if far is None else tuple(_key(a) for a in far)
    toe, near_dots, e_out, e_in = _kernel_blocks(_key(log_k[:reach]), width, far_key)
    # log_z[m] holds log Z_m of every replica, so a run's logs are contiguous
    # rows; the caller gets the (replicas, n + 1) transposed view
    log_z = np.empty((n + 1, reps))
    log_z[0] = 0.0
    # y[j - off] holds site j; site n takes the last step's unused entry
    y = np.empty((min(n + 1, width + 2 * _RUN_CAP), reps))
    off = 0
    scale = np.empty(reps)
    sums = np.empty((_RUN_CAP, reps))  # a run's s_m, then their logs
    growth = np.ones((_RUN_CAP, reps))  # e^{w_j} for the sites g0 <= j < g0 + _RUN_CAP
    # the rows a step reads and writes, as views built once per call
    sum_rows, growth_rows, y_rows = list(sums), list(growth), list(y)
    # the prefixes run[: i + 1] of the runs from rows width and width +
    # _RUN_CAP: once a window of width + 2 * _RUN_CAP rows has moved, every
    # full run starts at one of them
    steady = {}
    if len(y) == width + 2 * _RUN_CAP:
        steady = {r: [y[r : r + i + 1] for i in range(_RUN_CAP)] for r in (width, width + _RUN_CAP)}
    multiply = np.multiply
    states, b = None, 0  # the far states hold the sites j < b
    if far is not None:
        states = np.zeros((len(e_in), reps))
        far_sums = np.empty((_RUN_CAP, reps))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if n:
            _rebase(y, off, scale, log_z, site_weights, np.arange(reps), 0, 1)
        m, length, g0 = 1, 1, -_RUN_CAP
        while m <= n:
            end = min(m + length, n + 1)  # the run is steps m <= t < end
            b = _advance(states, e_in, y, off, b, m - width)
            if end - off > len(y):  # keep the window's rows [m - width, m)
                y[:width] = y[m - width - off : m - off]
                off = m - width
            if end > g0 + _RUN_CAP:
                g0, hi = m, min(m + _RUN_CAP, n)
                np.exp(site_weights[:, m:hi], out=growth[: hi - m].T)
                tiny_growth = not np.minimum.reduce(growth[: hi - m], None, initial=1.0) >= _TINY
            j0 = max(0, m - width)
            c0 = width + _HALF - (m - j0)
            top = min(end, m + _HALF)
            window, run = y[j0 - off : m - off], y[m - off : end - off]
            np.matmul(toe[: top - m, c0:], window, out=run[: top - m])
            if end > top:
                np.matmul(toe[: end - top, c0 - _HALF : width], window, out=run[top - m :])
            if b:
                np.add(run, np.matmul(e_out[: end - m], states, out=far_sums[: end - m]), out=run)
            # a step is one BLAS product and one multiply, called as bound
            # methods and with positional outs, past numpy's Python-level
            # dispatch
            heads = steady.get(m - off) or [run[: i + 1] for i in range(end - m)]
            for k_t, h_t, s_t, g_t, y_t in zip(
                near_dots, heads, sum_rows, growth_rows[m - g0 : end - g0],
                y_rows[m - off : end - off],
            ):
                k_t(h_t, s_t)
                multiply(s_t, g_t, y_t)
            lz = np.log(sums[: end - m], out=sums[: end - m])
            np.add(scale, lz, log_z[m:end])
            out = _first_out_of_range(lz, run, growth[m - g0 : end - g0], tiny_growth)
            if out is None:
                m, length = end, min(2 * length, _RUN_CAP)
                continue
            # the first step out of range is repaired, and the steps after it
            # are redone; step n stores no entry, so only its sum can be
            i, ok = out
            t = m + i
            size = np.abs(lz[i])
            if not size.max() <= _LOG_EXACT:
                exact = np.flatnonzero(~(size <= _LOG_EXACT))
                log_z[t, exact] = _log_step(log_z, site_weights, log_k, exact, max(0, t - lead), t)
            if t < n:
                j0 = max(0, t + 1 - width)
                b = _advance(states, e_in, y, off, b, j0)  # on the old scale
                _rebase(y, off, scale, log_z, site_weights, np.flatnonzero(~ok), j0, t + 1, states)
            m, length = t + 1, 1
    return log_z.T


def _key(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@functools.lru_cache(maxsize=8)
def _kernel_blocks(log_k: bytes, width: int, far: tuple[bytes, bytes] | None):
    """The read-only kernel blocks of a DP call, built once per kernel:
    ``(toe, near_dots, e_out, e_in)`` for the log masses ``log K(1), ...,
    log K(reach)``, the window ``width`` and the far ``(weights, rates)``,
    each given as the bytes of its float64 array.  The key is their content,
    not the caller's arrays, which are new for every call.  ``e_out`` and
    ``e_in`` are None without far terms.  A phase diagram's calls share two
    entries (its ``n`` and ``2n`` far terms), a relevance scan takes one per
    truncation level."""
    # K(reach), ..., K(1), after zeros, in 2 * _HALF - 1 + width entries
    pad = np.zeros(2 * _HALF - 1 + width)
    masses = np.exp(np.frombuffer(log_k)[::-1])
    pad[len(pad) - len(masses) :] = masses
    # toe[i, c] = K(width + _HALF + i - c), 0 past the reach: in a run from m,
    # rows i and i + _HALF take site j from column width + _HALF - m + j and
    # from the column _HALF to its left
    toe = np.lib.stride_tricks.sliding_window_view(pad, width + _HALF)[_HALF - 1 :: -1].copy()
    near = np.append(pad[1 - _RUN_CAP :], 1.0)  # K(63), ..., K(1), 1, 0 past the band
    _read_only(toe, near)
    # step m + i's product, as the bound dot method of its row
    near_dots = tuple(near[_RUN_CAP - 1 - i :].dot for i in range(_RUN_CAP))
    if far is None:
        return toe, near_dots, None, None
    weights, rates = (np.frombuffer(a) for a in far)
    # decay[d, i] = e^{-rates[i] d}, d < 2 * _RUN_CAP
    decay = np.exp(-np.outer(np.arange(2 * _RUN_CAP), rates))
    e_out = decay[_RUN_CAP:] * weights  # e_out[k, i]: from S[i] to step b + _RUN_CAP + k
    e_in = decay[_RUN_CAP::-1].T.copy()  # e_in[i, q] = e^{-rates[i] (_RUN_CAP - q)}
    return (toe, near_dots, *_read_only(e_out, e_in))


def _first_out_of_range(lz, run, growth, tiny_growth):
    """The first step of a run out of range, as ``(i, ok)`` with ``ok`` the
    replicas in range at step ``i``, or None if every step is in range.  A
    step is in range where its logged sum ``lz`` lies in ``[-_LOG_SAFE,
    _LOG_SAFE]``, its new entry ``run`` is at most ``_SAFE`` and, if
    ``tiny_growth``, its sum is at most 1 at a subnormal or zero factor
    ``growth``.  A NaN is out of range.  A few reductions decide a clean
    run; only one that fails them builds the per-step mask."""
    top = np.maximum.reduce(lz, None)
    if (top <= _LOG_SAFE and np.minimum.reduce(lz, None) >= -_LOG_SAFE
            and np.maximum.reduce(run, None) <= _SAFE and not (tiny_growth and top > 0.0)):
        return None
    ok = (np.abs(lz) <= _LOG_SAFE) & (run <= _SAFE)
    if tiny_growth:
        ok &= (growth >= _TINY) | (lz <= 0.0)
    i = int(ok.all(axis=1).argmin())
    return None if ok[i].all() else (i, ok[i])


def _advance(states, e_in, y, off, b0, b1):
    """Move the far states from boundary ``b0`` to ``b1``, at most
    ``_RUN_CAP`` sites on, by the entries ``y[b0 - off : b1 - off]`` of the
    sites that leave the window; returns the new boundary, ``b0`` unchanged
    without far states or where ``b1 <= b0``."""
    if states is None or b1 <= b0:
        return b0
    span = b1 - b0
    q = e_in.shape[1] - 1 - span
    states *= e_in[:, q, None]
    states += e_in[:, q : q + span] @ y[b0 - off : b1 - off]
    return b1


def _rebase(y, off, scale, log_z, site_weights, rows, j0, j1, states=None):
    """Put ``rows`` on the scale of their largest ``log Z_j + w_j``, j0 <= j < j1,
    or of their largest far state where that is larger, and rescale their far
    ``states``; ``y[j - off]`` and ``log_z[j]`` hold site ``j``."""
    a = log_z[j0:j1, rows] + site_weights[rows, j0:j1].T
    top = a.max(axis=0)
    if states is not None:
        held, old = states[:, rows], scale[rows]
        np.maximum(top, old + np.log(held.max(axis=0, initial=0.0)), out=top)
    top[~np.isfinite(top)] = 0.0
    scale[rows] = top
    a -= top
    y[j0 - off : j1 - off, rows] = np.exp(a, out=a)
    if states is not None:
        # e^{old - new} in two halves: it passes e^709 where the states are
        # subnormal, and a zero state takes any factor
        half = np.exp(0.5 * np.minimum(old - top, 1400.0))
        held *= half
        held *= half
        states[:, rows] = held


def _log_step(log_z, site_weights, log_k, rows, j0, m):
    """``log Z_m`` of ``rows`` by log-sum-exp over the sites ``j0 <= j < m``;
    ``log_z[j]`` holds site ``j``.  The terms are laid out one row per
    replica, so each sum runs along a contiguous row."""
    t = np.add(log_z[j0:m, rows].T, site_weights[rows, j0:m], order="C")
    t += log_k[: m - j0][::-1]
    return _row_logsumexp(t)


def _row_logsumexp(t: np.ndarray) -> np.ndarray:
    """``log sum_j exp(t[r, j])`` per row ``r``.  A row whose largest term is
    not finite is shifted by 0, so it gives ``-inf`` or ``inf``, not NaN."""
    top = t.max(axis=1)
    top[~np.isfinite(top)] = 0.0
    return top + np.log(np.exp(t - top[:, None]).sum(axis=1))


def partition_function_log(kernel: RenewalKernel, site_weights) -> float:
    """``log Z_n``, ``n = len(site_weights)``, of one chain whose renewal at
    site ``j`` collects ``exp(site_weights[j])``, e.g. ``beta * omega_j - h``;
    a weight of ``-inf`` forbids a renewal at its site."""
    return float(_partition_rows_log(kernel, np.asarray(site_weights, dtype=float)[None, :])[0])


def _log_partitions(kernel: RenewalKernel, site_weights: np.ndarray) -> np.ndarray:
    """:func:`dp_log_partition` of the ``(rows, n)`` ``site_weights`` for
    ``kernel``: banded at its largest gap with mass for a table, with its far
    terms for the closed-form families.  The one place that maps a kernel to
    a DP call; it checks nothing, so callers pass weights they have checked."""
    n = site_weights.shape[1]
    return dp_log_partition(
        log_mass_vector(kernel, n), site_weights, kernel.support_upper, far_terms(kernel, n)
    )


def _partition_rows_log(kernel: RenewalKernel, weights: np.ndarray) -> np.ndarray:
    """:func:`partition_function_log` of each row of ``weights``, in one DP call."""
    if np.isnan(weights).any() or (weights == math.inf).any():
        raise InvalidParameterError("site weights must not be NaN or +inf")
    return _log_partitions(kernel, weights)[:, weights.shape[1]]


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


def _site_weights(charges: np.ndarray, beta, h, out=None) -> np.ndarray:
    """``beta * charges - h``, built in one array, for a bias ``h`` or each
    bias of a 1-D array ``h`` (then one ``charges``-shaped block per bias).
    ``beta`` is one value for every block or a 1-D array of one per bias.
    The weights of one bias may be written into ``out``, e.g. ``charges``
    itself.  A weight that is not finite raises :class:`PrecisionError`."""
    biases = np.asarray(h, dtype=float)
    betas = np.asarray(beta, dtype=float)
    weights = np.empty(biases.shape + charges.shape) if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(charges, betas.reshape(betas.shape + (1, 1)), out=weights)
        weights -= biases.reshape(biases.shape + (1, 1))
    if not np.isfinite(weights).all():
        raise PrecisionError(f"site weights overflow at beta = {beta!r}, h = {h!r}")
    return weights


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean of the replica values and its standard error ``std(ddof=1) /
    sqrt(R)``, 0 for a single replica.  A mean or standard error that is
    not finite raises :class:`PrecisionError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(values.mean())
        stderr = 0.0 if len(values) == 1 else float(values.std(ddof=1) / math.sqrt(len(values)))
    if not (math.isfinite(mean) and math.isfinite(stderr)):
        raise PrecisionError(
            f"the replicas have no finite mean and stderr (mean {mean!r}, stderr {stderr!r})"
        )
    return mean, stderr


def quenched_free_energy(
    kernel: RenewalKernel, charges: np.ndarray, beta, h: float | list[float]
) -> FreeEnergyEstimate | list[FreeEnergyEstimate]:
    """Replica average of ``log Z_n / n`` with its standard error.

    ``charges`` is the ``(replicas, n)`` array of the replicas' charges,
    e.g. from :func:`replica_charges`; row ``r`` gives the site weights
    ``beta * charges[r] - h`` of replica ``r``.  For a 1-D sequence of
    biases ``h`` the result is the list of their estimates, from one DP call
    that takes the replicas of every bias as its rows; ``beta`` is then one
    value for all of them or a 1-D sequence of one per bias.  A ``beta``
    that is not finite and >= 0, or a sequence of them whose length is not
    that of ``h``, raises :class:`InvalidParameterError`.  Site weights,
    means or standard errors that are not finite raise
    :class:`PrecisionError`.
    """
    betas = np.asarray(beta, dtype=float)
    if not (np.isfinite(betas).all() and (betas >= 0.0).all()):
        raise InvalidParameterError(f"beta must be finite and >= 0, got {beta!r}")
    if charges.ndim != 2 or charges.size == 0:
        raise InvalidParameterError(
            f"charges must be a nonempty (replicas, n) array, got shape {charges.shape}"
        )
    biases = np.asarray(h, dtype=float)
    if biases.ndim > 1 or biases.size == 0:
        raise InvalidParameterError(f"h must be a bias or a nonempty 1-D sequence, got {h!r}")
    if betas.ndim and betas.shape != biases.shape:
        raise InvalidParameterError(
            f"beta must be one value or one per bias, got {betas.shape} for h of {biases.shape}"
        )
    if not (np.isfinite(biases).all() and np.isfinite(charges).all()):
        raise InvalidParameterError(f"h and the charges must be finite, got h = {h!r}")
    (estimates,) = _estimates(kernel, charges, beta, h, (charges.shape[1],))
    return estimates if biases.ndim else estimates[0]


def _estimates(kernel, charges, beta, h, sizes) -> list[list[FreeEnergyEstimate]]:
    """For each ``m`` of ``sizes`` (at most the width of ``charges``), the
    estimates of ``log Z_m / m`` at each bias, from one DP call: ``log Z_m``
    is the DP's value at site ``m``, which reads only the first ``m``
    columns of the charges."""
    reps, n = charges.shape
    log_z = _log_partitions(kernel, _site_weights(charges, beta, h).reshape(-1, n))
    out = []
    for m in sizes:
        per_replica = log_z[:, m] / m
        per_replica.setflags(write=False)
        out.append([
            FreeEnergyEstimate(*_mean_stderr(rows), per_replica=rows)
            for rows in per_replica.reshape(-1, reps)
        ])
    return out


# ---------------------------------------------------------------------------
# Critical-point bracketing
# ---------------------------------------------------------------------------


_C_FS = 5.0           # finite-size allowance: threshold _C_FS / n
_WIDEN_FACTOR = 2.0   # upper-edge widening in units of threshold/slope
_MIN_SLOPE = 0.02
_MAX_PROBES = 60
# Bias blocks (replicas x n rows each) in one round of the grid search: 4
# blocks at n are as many row-sites as the two-bias diagnostics call at 2n,
# so no round's DP call is larger than the largest call the search makes
# anyway.  A round takes the searches in grid order while they fit.
_ROUND_BLOCKS = 4


@dataclass(frozen=True)
class CriticalPointBracket:
    beta: float
    h_lo: float
    h_hi: float          # widened upper edge
    h_hi_raw: float      # last bisection point declared delocalized
    width: float
    undecided: bool
    threshold: float
    per_n_diagnostics: dict


def quenched_critical_point(
    kernel: RenewalKernel,
    disorder: DisorderLaw,
    betas,
    charges: np.ndarray,
    target_width: float,
) -> list[CriticalPointBracket]:
    """Bisection brackets for the quenched critical bias at each ``beta`` of
    a grid, one :class:`CriticalPointBracket` per ``beta`` in grid order.

    Each search starts from the window ``(-0.1, log M(beta) + 0.1)``.  A
    bias ``h`` is declared localized when the estimate exceeds
    ``max(3 stderr, 5 / n)`` and delocalized otherwise; localized
    declarations are reliable (finite-size estimates only undershoot the
    limit in expectation), so the lower edge is trustworthy while the raw
    upper edge is widened by ``2 * threshold / slope`` with the slope read
    off the bracket endpoints (floored at 0.02).  If sampling noise swamps
    the allowance near the transition the search stops early and the
    bracket is flagged undecided instead of being narrowed artificially.

    The searches run in lockstep rounds.  A round is one DP call whose row
    blocks are the next biases of the active searches, in grid order while
    they fit in ``_ROUND_BLOCKS`` blocks: both starting edges in a search's
    first round, then one bias per round.  Rows are independent, so each
    ``beta`` probes and stops as a search with one bias per call would (BLAS
    may round a row by the call's row count, which moves an estimate in its
    last bits only).  ``charges`` is the ``(replicas, 2n)`` array of
    :func:`replica_charges` at ``2n``, drawn once by the caller: each
    replica's stream gives the same first ``n`` draws at either length, so
    the searches run on the first ``n`` columns.  Each ``beta``'s edges are
    then read from one DP call of its own on the whole array, its ``log
    Z_n`` and ``log Z_2n``: the estimates at ``n`` that widen the upper
    edge and the ``2n`` diagnostics.  So a bracket, byte for byte, does not
    depend on the other betas of the grid.  A grid that
    is not a nonempty 1-D sequence of finite ``beta >= 0``, charges that are
    not 2-D or whose width is odd or below 2, and a ``target_width`` that is
    not positive raise :class:`InvalidParameterError`.
    """
    values = np.asarray(betas, dtype=float)
    if not (values.ndim == 1 and values.size and np.isfinite(values).all()
            and (values >= 0.0).all()):
        raise InvalidParameterError(
            f"betas must be a nonempty 1-D grid of finite values >= 0, got {betas!r}"
        )
    if charges.ndim != 2 or charges.shape[1] < 2 or charges.shape[1] % 2:
        raise InvalidParameterError(f"charges must be a (replicas, 2n) array, got {charges.shape}")
    if not target_width > 0.0:
        raise InvalidParameterError(f"target_width must be > 0, got {target_width!r}")
    n = charges.shape[1] // 2
    charges_n = charges[:, :n]
    grid = values.tolist()
    searches = [
        _bisection(-0.1, log_mgf(disorder, beta) + 0.1, n, target_width) for beta in grid
    ]
    wants = {i: next(search) for i, search in enumerate(searches)}  # in grid order
    outcomes = [None] * len(grid)
    while wants:
        batch, room = [], _ROUND_BLOCKS
        for i, hs in wants.items():
            if len(hs) > room:
                break
            batch.append(i)
            room -= len(hs)
        ests = iter(quenched_free_energy(
            kernel, charges_n, [grid[i] for i in batch for _ in wants[i]],
            [h for i in batch for h in wants[i]],
        ))
        for i in batch:
            try:
                wants[i] = searches[i].send([next(ests) for _ in wants[i]])
            except StopIteration as done:
                del wants[i]
                outcomes[i] = done.value
    return [
        _bracket(kernel, charges, beta, n, *outcome) for beta, outcome in zip(grid, outcomes)
    ]


def _bisection(h_lo: float, h_hi: float, n: int, target_width: float):
    """One ``beta``'s search from the window ``(h_lo, h_hi)`` as a generator:
    it yields the list of biases it needs estimated next, is sent their
    estimates, and returns ``(h_lo, h_hi, undecided)``.  A bias is
    estimated once."""
    cache: dict[float, FreeEnergyEstimate] = {}

    def estimate(*hs: float):
        todo = [h for h in dict.fromkeys(hs) if h not in cache]
        if todo:
            cache.update(zip(todo, (yield todo)))
        return cache[hs[0]]

    probes = 0
    yield from estimate(h_lo, h_hi)
    while not _is_localized((yield from estimate(h_lo)), n):
        h_lo -= 2.0 * max(abs(h_lo), 0.1)
        probes += 1
        if probes > 8:
            raise PrecisionError("could not find a localized left endpoint")
    while _is_localized((yield from estimate(h_hi)), n):
        h_hi += 2.0 * max(abs(h_hi), 0.1)
        probes += 1
        if probes > 16:
            raise PrecisionError("could not find a delocalized right endpoint")

    undecided = False
    while h_hi - h_lo > target_width and probes < _MAX_PROBES:
        mid = 0.5 * (h_lo + h_hi)
        est = yield from estimate(mid)
        probes += 1
        if 3.0 * est.stderr > _C_FS / n and abs(est.mean) <= 3.0 * est.stderr:
            undecided = True  # noise-bound: the sampling noise swamps the allowance
            break
        if _is_localized(est, n):
            h_lo = mid
        else:
            h_hi = mid
    return h_lo, h_hi, undecided


def _threshold(est: FreeEnergyEstimate, n: int) -> float:
    return max(3.0 * est.stderr, _C_FS / n)


def _is_localized(est: FreeEnergyEstimate, n: int) -> bool:
    return est.mean > _threshold(est, n)


def _bracket(kernel, charges, beta, n, h_lo, h_hi, undecided):
    """The bracket of one finished search.  Its estimates at both edges, at
    ``n`` and at ``2n``, come from one DP call on the whole ``(replicas,
    2n)`` array, so they depend on nothing but ``beta``, the edges and the
    charges: not on the betas that shared the search's rounds, whose row
    count BLAS may round by."""
    (est_lo, est_hi), ests_2n = _estimates(kernel, charges, beta, [h_lo, h_hi], (n, 2 * n))
    diag = {}
    for label, h, est, est2 in zip(("h_lo", "h_hi"), (h_lo, h_hi), (est_lo, est_hi), ests_2n):
        diag[label] = {
            "h": h,
            "n": n,
            "mean": est.mean,
            "stderr": est.stderr,
            "n2": 2 * n,
            "mean_2n": est2.mean,
            "stderr_2n": est2.stderr,
        }

    slope = (est_lo.mean - est_hi.mean) / max(h_hi - h_lo, 1e-12)
    slope = max(slope, _MIN_SLOPE)
    widen = _WIDEN_FACTOR * _threshold(est_hi, n) / slope
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
        threshold=_threshold(est_hi, n),
        per_n_diagnostics=diag,
    )
