"""Series primitives shared by the kernel and free-energy modules.

Three ingredients live here:

* zeta-function helpers (Riemann values, Hurwitz tails, and the
  log-weighted sum ``sum n^-s log n``), all from one Euler-Maclaurin
  expansion: one loop gives both ``sum n^-s`` and the log-weighted sum, its
  ``s``-derivative term by term, with the reflection formula for the
  Riemann values at ``s < 0``,
* evaluation of ``sum_{n>=1} n^-s x^n`` at ``x = exp(-f)``, accurate down
  to ``f ~ 1e-300`` (needed to resolve free energies near a high-order
  phase transition),
* the power-series reciprocal :func:`power_series_inverse` (O(N log N)),
  which solves every renewal-type convolution recursion: the return
  probabilities are ``1 / (1 - K(z))``, the overlap gap law is ``1 -
  1/V(z)``, and the pair-chain moment is one reciprocal too.  Newton
  steps take the middle product, their real FFTs (``numpy.fft``) have
  the 5-smooth length just above the coefficients they lift, and they
  resume from the known first coefficients of a caller-owned output, so a
  horizon grown in place costs about one reciprocal at its end and holds
  one copy of the coefficients.
  This is the only path the library runs; the exact O(N^2) dynamic
  programs (``renewal_function_dp``, ``kernel_from_renewal_function_dp``)
  are kept as reference oracles for the tests.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.fft import irfft, rfft

from .errors import InvalidParameterError, PrecisionError

__all__ = [
    "zeta",
    "zeta_tail",
    "zeta_log_sum",
    "polylog_exp",
    "next_fast_len",
    "power_series_inverse",
    "renewal_function_dp",
    "kernel_from_renewal_function_dp",
]


# Euler-Maclaurin: sum_{n>=N} n^-s = N^(1-s)/(s-1) + N^-s/2
#   + sum_k B_2k/(2k)! s(s+1)...(s+2k-2) N^(-s-2k+1) + remainder.
# From N = 16 on, eight correction terms leave a remainder below 1e-19
# relative for every s >= 0 (the terms fall like ((s+2k)/(2 pi N))^2).
_EM_BASE = 16
_EM_COEFFS = (
    1.0 / 12.0,
    -1.0 / 720.0,
    1.0 / 30240.0,
    -1.0 / 1209600.0,
    1.0 / 47900160.0,
    -691.0 / 1307674368000.0,
    1.0 / 74724249600.0,
    -3617.0 / 10670622842880000.0,
)


def _power_sum(s: float, n0: int) -> tuple[float, float]:
    """``(sum n^-s, sum n^-s log n)`` over ``n >= n0`` for ``n0 >= 1`` and
    ``s >= 0``, ``s != 1`` (the analytic continuation below 1): the terms
    below ``_EM_BASE`` directly, the rest by Euler-Maclaurin, all summed by
    ``math.fsum``.  The second sum is ``-d/ds`` of the first, term by term:
    each rising factorial is carried with its ``s``-derivative."""
    start = max(n0, _EM_BASE)
    powers = [n ** -s for n in range(n0, start)]
    logs = [p * math.log(n) for n, p in zip(range(n0, start), powers)]
    x = float(start)
    log_x = math.log(x)
    integral = x ** (1.0 - s) / (s - 1.0)
    half = 0.5 * x ** -s
    powers += [integral, half]
    logs += [integral * log_x, integral / (s - 1.0), half * log_x]
    rising = s * x ** (-s - 1.0)  # s(s+1)...(s+2k-2) x^(-s-2k+1)
    d_rising = x ** (-s - 1.0) - rising * log_x  # its s-derivative
    for k, coeff in enumerate(_EM_COEFFS):
        powers.append(coeff * rising)
        logs.append(-coeff * d_rising)
        a, b = s + 2 * k + 1, s + 2 * k + 2
        d_rising = (d_rising * a * b + rising * (a + b)) / (x * x)
        rising *= a * b / (x * x)
    return math.fsum(powers), math.fsum(logs)


def _sinpi(x: float) -> float:
    """``sin(pi x)`` with the argument reduced exactly, so that it is
    accurate to a few ulps relative near every zero."""
    r = math.fmod(x, 2.0)
    if r > 1.0:
        r -= 2.0
    elif r < -1.0:
        r += 2.0
    if r > 0.5:
        r = 1.0 - r
    elif r < -0.5:
        r = -1.0 - r
    return math.sin(math.pi * r)


@functools.lru_cache(maxsize=1024)
def zeta(s: float) -> float:
    """Riemann zeta at real ``s`` (analytic continuation included;
    ``inf`` at the pole ``s = 1``), memoised per ``s``.

    Euler-Maclaurin for ``s >= 0``.  Below 0, the reflection formula
    ``zeta(s) = 2 (2 pi)^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)`` in log
    form, which keeps ``zeta(s)`` finite down to ``s`` about -260.
    """
    s = float(s)
    if s == 1.0:
        return math.inf
    x = 1.0 - s
    if s >= 0.0 or x == 1.0:
        # Euler-Maclaurin also holds just below 0, where zeta(1 - s) would
        # land on the pole
        return _power_sum(s, 1)[0]
    sine = _sinpi(0.5 * s)
    if sine == 0.0:
        return 0.0  # the trivial zeros at negative even integers
    log_abs = (
        math.log(2.0 * abs(sine))
        + math.lgamma(x)
        - x * math.log(2.0 * math.pi)
        + math.log(_power_sum(x, 1)[0])
    )
    return math.copysign(math.exp(log_abs), sine)


def zeta_tail(s: float, n0: int) -> float:
    """``sum_{n >= n0} n^-s`` for ``s > 1`` and ``n0 >= 1`` (Hurwitz zeta)."""
    if s <= 1.0:
        raise InvalidParameterError("zeta_tail requires s > 1")
    return _power_sum(float(s), int(n0))[0]


def zeta_log_sum(s: float) -> float:
    """``sum_{n>=1} n^-s log n = -zeta'(s)`` for ``s > 1``, the second sum
    of :func:`_power_sum`.  Within about 1e-16 relative for ``s`` in
    ``[1.01, 10]``."""
    if not s > 1.0:
        raise InvalidParameterError("zeta_log_sum requires s > 1")
    return _power_sum(float(s), 1)[1]


_POLYLOG_RTOL = 1e-16


def _polylog_direct(s: float, f: float) -> float:
    # e^{-nf} decays fast enough for term-by-term summation once f is O(1).
    # Terms fall with n, so once one underflows to 0 every later one does.
    total = 0.0
    n = 1
    while True:
        t = math.exp(-s * math.log(n) - n * f)
        if t == 0.0:
            return total
        total += t
        if t < _POLYLOG_RTOL * total and n > 4:
            return total
        n += 1
        if n > 100_000:  # unreachable for f >= 0.5; guards misuse
            raise PrecisionError("polylog direct summation failed to converge")


_SERIES_TERMS = 256


@functools.lru_cache(maxsize=64)
def _zeta_row(s: float) -> tuple[float, ...]:
    """``zeta(s - k)`` for ``k < _SERIES_TERMS``, computed once per ``s``.

    At integer ``s`` the row holds ``zeta(1) = inf``, which the series
    skips.
    """
    return tuple(zeta.__wrapped__(s - k) for k in range(_SERIES_TERMS))


def _polylog_series(s: float, f: float) -> float:
    # Expansion of Li_s(e^-f) around f = 0, valid for 0 < f < 2*pi:
    #   non-integer s:  Gamma(1-s) f^(s-1) + sum_k zeta(s-k) (-f)^k / k!
    #   integer  s=m:   (-f)^(m-1)/(m-1)! (H_{m-1} - log f)
    #                   + sum_{k != m-1} zeta(m-k) (-f)^k / k!
    # Terms decay geometrically at rate f/(2*pi); stop only after two
    # consecutive negligible terms (single terms can vanish accidentally).
    m = round(s)
    integer_order = abs(s - m) < 1e-9
    if integer_order:
        harmonic = sum(1.0 / j for j in range(1, m))
        total = (-f) ** (m - 1) / math.factorial(m - 1) * (harmonic - math.log(f))
    else:
        total = math.gamma(1.0 - s) * f ** (s - 1.0)
    zetas = _zeta_row(s)
    small_streak = 0
    term = 1.0  # (-f)^k / k!
    for k in range(0, _SERIES_TERMS):
        if k > 0:
            term *= -f / k
        if integer_order and k == m - 1:
            continue
        t = zetas[k] * term
        total += t
        if abs(t) <= _POLYLOG_RTOL * abs(total):
            small_streak += 1
            if small_streak >= 2 and k >= 3:
                return total
        else:
            small_streak = 0
    raise PrecisionError("polylog series failed to converge; f too close to 2*pi?")


def polylog_exp(s: float, f: float) -> float:
    """``Li_s(e^-f) = sum_{n>=1} n^-s e^{-n f}`` for ``s > 1`` and ``f >= 0``.

    Switches between direct summation (large ``f``) and the expansion
    around ``f = 0`` (small ``f``), so that free energies as small as
    ``1e-300`` remain resolvable.  The expansion's coefficients
    ``zeta(s - k)`` are computed once per ``s`` and kept (``_zeta_row``).
    Direct summation stops at the first term that underflows to 0, so
    ``f`` large enough that ``e^-f`` underflows gives 0.
    """
    if not f >= 0.0:
        raise InvalidParameterError(f"polylog_exp requires f >= 0, got {f!r}")
    if f == 0.0:
        return zeta(s)
    if f >= 0.7:
        return _polylog_direct(s, f)
    return _polylog_series(s, f)


# ---------------------------------------------------------------------------
# Renewal-type convolution recursions
# ---------------------------------------------------------------------------


_EXACT_BASE = 64


def next_fast_len(n: int) -> int:
    """Smallest 5-smooth integer ``>= n`` (``2^a 3^b 5^c``), the fast
    lengths of a real FFT."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^k >= n
            candidate = p35 << ((n - 1) // p35).bit_length()
            if candidate < best:
                best = candidate
            p35 *= 3
        p5 *= 5
    return best


def power_series_inverse(
    a: np.ndarray, n: int, out: np.ndarray | None = None, known: int = 0
) -> np.ndarray:
    """First ``n`` coefficients of ``1/A(z)`` where ``A(z) = sum a_j z^j``.

    Requires ``a[0] != 0`` and ``n >= 1``.  Middle-product Newton steps
    (Hanrot, Quercia and Zimmermann, 2004) lift ``m`` known coefficients
    of ``V`` to ``m2 <= 2m``: with ``E`` the coefficients ``m..m2-1`` of
    ``A V``, the new ones are ``-(V E mod z^(m2-m))``.  Coefficients below
    ``m`` of ``A V`` are not needed, so both products of a step fit a
    cyclic convolution of length ``>= m2`` (the wrap-around lands below
    ``m``), taken at the fast real FFT length ``next_fast_len(m2)``.  The
    ``m2`` run up the rungs ``..., ceil(n/4), ceil(n/2), n``, so the last
    step lifts about ``n/2`` coefficients to exactly ``n``.  O(n log n).

    A step keeps the coefficients it starts from, so their rounding
    carries into every later one.  The first ``_EXACT_BASE`` therefore
    come from the exact recursion, and the result agrees with the O(n^2)
    dynamic program to a few 1e-13 for ``n`` up to a few thousand (returns
    that do not decay are the hardest case).

    The coefficients go to ``out[:n]``, returned as a view of ``out``, or
    to a new array when ``out`` is None.  The first ``known`` entries of
    ``out`` are taken as coefficients already known, from a call with the
    same leading ``a``, and the steps resume from them, so a caller that
    grows one ``out`` in place holds one copy of the coefficients.  The
    rungs below ``2h - 1`` are those of a call at ``h``, so resuming from
    the ``h`` coefficients of a call at ``h`` to ``2h - 1`` (or from ``h +
    1`` to ``2h + 1``) gives the fresh result exactly.  ``0 <= known <= n
    <= len(out)`` must hold, ``known`` needs an ``out``, and ``out``
    must be float64.
    """
    a = np.asarray(a, dtype=float)
    if a[0] == 0.0:
        raise InvalidParameterError("power series inverse needs a nonzero constant term")
    if n < 1:
        raise InvalidParameterError("power series inverse needs n >= 1 coefficients")
    if out is None:
        if known:
            raise InvalidParameterError("known coefficients need an out array to hold them")
        v = np.empty(n, dtype=float)
    elif out.dtype != np.float64:
        raise InvalidParameterError(
            f"power series inverse needs a float64 out, got {out.dtype}"
        )
    elif 0 <= known <= n <= len(out):
        v = out[:n]
    else:
        raise InvalidParameterError(
            f"power series inverse needs 0 <= known <= n <= len(out), got "
            f"known {known}, n {n}, len(out) {len(out)}"
        )
    if known == 0:
        v[0] = 1.0 / a[0]
    m = max(known, 1)
    # Rounding of the tiny mixed-radix FFTs at the bottom rungs would be
    # copied into each block above them, doubling with every rung.
    base = min(n, max(m, _EXACT_BASE))
    lead = np.zeros(min(n, _EXACT_BASE))
    lead[: min(len(lead), len(a))] = a[: len(lead)]
    for j in range(m, base):
        v[j] = -np.dot(lead[1 : j + 1], v[j - 1 :: -1]) / a[0]
    m = base
    rungs = []
    rung = n
    while rung > m:
        rungs.append(rung)
        rung = (rung + 1) // 2
    # A rung holds v and at most three arrays of its FFT length: each
    # spectrum or signal is dropped once read, and both products are taken
    # in place.  With FMA, a complex product rounds its imaginary part by
    # operand order, so both orders are written out, the same at every
    # size: rfft(a) * fv, then fv * rfft(e).  No temporary is left for
    # numpy's elision to reorder, so PyPy and numpy builds that never elide
    # take the same orders.
    for m2 in reversed(rungs):
        size = next_fast_len(m2)
        fv = rfft(v[:m], size)
        spec = rfft(a[:m2], size)
        spec *= fv
        t = irfft(spec, size)
        del spec
        spec = rfft(t[m:m2], size)
        del t
        np.multiply(fv, spec, out=spec)
        del fv
        np.negative(irfft(spec, size)[: m2 - m], out=v[m:m2])
        m = m2
    return v


def renewal_function_dp(k_masses: np.ndarray, n: int) -> np.ndarray:
    """Renewal probabilities ``u_0..u_n`` by the exact dynamic program.

    Reference oracle for :func:`power_series_inverse` of ``1 - K(z)``.

    ``u_0 = 1`` and ``u_m = sum_{j=1}^{m} K(j) u_{m-j}``, with
    ``k_masses[j-1] = K(j)`` (entries beyond the kernel support are 0).
    """
    k = np.zeros(n, dtype=float)
    avail = min(n, len(k_masses))
    k[:avail] = k_masses[:avail]
    u = np.empty(n + 1, dtype=float)
    u[0] = 1.0
    for m in range(1, n + 1):
        u[m] = np.dot(k[:m][::-1], u[:m])
    return u


def kernel_from_renewal_function_dp(v: np.ndarray, n: int) -> np.ndarray:
    """Invert ``v_m = sum_{j=1}^m K(j) v_{m-j}`` for the gap law ``K(1..n)``.

    Reference oracle for ``1 - 1/V(z)`` by :func:`power_series_inverse`.

    ``v`` must carry ``v_0 = 1`` and at least ``n`` further entries.
    """
    k = np.empty(n, dtype=float)
    for m in range(1, n + 1):
        acc = v[m] - np.dot(k[: m - 1], v[m - 1 : 0 : -1])
        k[m - 1] = acc
    return k
