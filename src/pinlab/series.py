"""Series primitives shared by the kernel and free-energy modules.

Three ingredients live here:

* zeta-function helpers (Riemann values, tails, and the log-weighted sum
  ``sum n^-s log n`` via Euler-Maclaurin),
* evaluation of ``sum_{n>=1} n^-s x^n`` at ``x = exp(-f)``, accurate down
  to ``f ~ 1e-300`` (needed to resolve free energies near a high-order
  phase transition),
* solution of renewal-type convolution recursions by Newton iteration on
  the power-series reciprocal (O(N log N)): middle-product steps whose
  FFTs have the fast real length just above the coefficients they lift,
  resumable from a known ``head`` so that a growing horizon costs about
  one reciprocal at its end.  This is the only path the library runs; the
  exact O(N^2) dynamic programs (``renewal_function_dp``,
  ``kernel_from_renewal_function_dp``) are kept as reference oracles for
  the tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import zeta as _riemann_zeta

__all__ = [
    "zeta",
    "zeta_tail",
    "zeta_log_sum",
    "polylog_exp",
    "power_series_inverse",
    "renewal_function",
    "renewal_function_dp",
    "kernel_from_renewal_function",
    "kernel_from_renewal_function_dp",
]


def zeta(s: float) -> float:
    """Riemann zeta at real ``s != 1`` (analytic continuation included)."""
    return float(_riemann_zeta(s))


def zeta_tail(s: float, n0: int) -> float:
    """``sum_{n >= n0} n^-s`` for ``s > 1`` (Hurwitz zeta)."""
    if s <= 1.0:
        raise ValueError("zeta_tail requires s > 1")
    return float(_riemann_zeta(s, n0))


def zeta_log_sum(s: float) -> float:
    """``sum_{n>=1} n^-s log n`` for ``s > 1``, i.e. ``-zeta'(s)``.

    The head is summed directly; the tail from ``N = 64`` on is the
    Euler-Maclaurin expansion of ``f(x) = x^-s log x``:

        sum_{n>=N} f(n) = int_N^inf f + f(N)/2 - f'(N)/12 + f'''(N)/720 - ...

    For ``N = 64`` the first three correction terms already leave a
    remainder far below double precision for every ``s > 1``.
    """
    if s <= 1.0:
        raise ValueError("zeta_log_sum requires s > 1")
    N = 64.0
    ns = np.arange(1.0, N)
    head = float(np.sum(ns ** (-s) * np.log(ns)))
    lg = math.log(N)
    sm1 = s - 1.0
    integral = N ** (-sm1) * (lg / sm1 + 1.0 / (sm1 * sm1))
    f0 = N ** (-s) * lg
    f1 = N ** (-s - 1.0) * (1.0 - s * lg)
    f3 = N ** (-s - 3.0) * (
        -s * (s + 1.0) * (s + 2.0) * lg
        + (3.0 * s * s + 6.0 * s + 2.0)
    )
    return head + integral + f0 / 2.0 - f1 / 12.0 + f3 / 720.0


_POLYLOG_RTOL = 1e-16


def _polylog_direct(s: float, f: float) -> float:
    # e^{-nf} decays fast enough for term-by-term summation once f is O(1).
    total = 0.0
    n = 1
    while True:
        t = math.exp(-s * math.log(n) - n * f)
        total += t
        if t < _POLYLOG_RTOL * total and n > 4:
            return total
        n += 1
        if n > 100_000:  # unreachable for f >= 0.5; guards misuse
            raise RuntimeError("polylog direct summation failed to converge")


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
    small_streak = 0
    term = 1.0  # (-f)^k / k!
    for k in range(0, 256):
        if k > 0:
            term *= -f / k
        if integer_order and k == m - 1:
            continue
        t = zeta(s - k) * term
        total += t
        if abs(t) <= _POLYLOG_RTOL * abs(total):
            small_streak += 1
            if small_streak >= 2 and k >= 3:
                return total
        else:
            small_streak = 0
    raise RuntimeError("polylog series failed to converge; f too close to 2*pi?")


def polylog_exp(s: float, f: float) -> float:
    """``Li_s(e^-f) = sum_{n>=1} n^-s e^{-n f}`` for ``s > 1`` and ``f >= 0``.

    Switches between direct summation (large ``f``) and the expansion
    around ``f = 0`` (small ``f``), so that free energies as small as
    ``1e-300`` remain resolvable.
    """
    if f < 0:
        raise ValueError("polylog_exp requires f >= 0")
    if f == 0.0:
        return zeta(s)
    if f >= 0.7:
        return _polylog_direct(s, f)
    return _polylog_series(s, f)


# ---------------------------------------------------------------------------
# Renewal-type convolution recursions
# ---------------------------------------------------------------------------


_EXACT_BASE = 64


def power_series_inverse(a: np.ndarray, n: int, head: np.ndarray | None = None) -> np.ndarray:
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

    ``head`` holds coefficients already known, from a call with the same
    leading ``a``; it is cut to ``n`` and the steps resume from it.  The
    rungs below ``2h - 1`` are those of a call at ``h``, so resuming the
    result of a call at ``h`` to ``2h - 1`` gives the fresh result exactly.
    """
    a = np.asarray(a, dtype=float)
    if a[0] == 0.0:
        raise ValueError("power series inverse needs a nonzero constant term")
    if n < 1:
        raise ValueError("power series inverse needs n >= 1 coefficients")
    v = np.empty(n, dtype=float)
    m = 0 if head is None else min(len(head), n)
    if m == 0:
        v[0] = 1.0 / a[0]
        m = 1
    else:
        v[:m] = head[:m]
    # Rounding of the tiny mixed-radix FFTs at the bottom rungs would be
    # copied into each block above them, doubling with every rung.
    base = min(n, max(m, _EXACT_BASE))
    lead = np.zeros(base)
    lead[: min(base, len(a))] = a[:base]
    for j in range(m, base):
        v[j] = -np.dot(lead[1 : j + 1], v[j - 1 :: -1]) / a[0]
    m = base
    rungs = []
    rung = n
    while rung > m:
        rungs.append(rung)
        rung = (rung + 1) // 2
    for m2 in reversed(rungs):
        size = next_fast_len(m2, real=True)
        fv = rfft(v[:m], size)
        e = irfft(rfft(a[:m2], size) * fv, size)[m:m2]
        v[m:m2] = -irfft(fv * rfft(e, size), size)[: m2 - m]
        m = m2
    return v


def renewal_function_dp(k_masses: np.ndarray, n: int) -> np.ndarray:
    """Renewal probabilities ``u_0..u_n`` by the exact dynamic program.

    Reference oracle for :func:`renewal_function`.

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


def renewal_function(
    k_masses: np.ndarray, n: int, head: np.ndarray | None = None
) -> np.ndarray:
    """Renewal probabilities ``u_0..u_n``; ``U(z) = 1 / (1 - K(z))``.

    Agrees with :func:`renewal_function_dp` to better than 1e-12 per term.
    ``head`` is ``u_0..u_h`` of the same kernel at a shorter horizon; the
    inverse resumes from it (see :func:`power_series_inverse`).
    """
    a = np.zeros(n + 1, dtype=float)
    a[0] = 1.0
    avail = min(n, len(k_masses))
    a[1 : avail + 1] = -np.asarray(k_masses[:avail], dtype=float)
    return power_series_inverse(a, n + 1, head)


def kernel_from_renewal_function_dp(v: np.ndarray, n: int) -> np.ndarray:
    """Invert ``v_m = sum_{j=1}^m K(j) v_{m-j}`` for the gap law ``K(1..n)``.

    Reference oracle for :func:`kernel_from_renewal_function`.

    ``v`` must carry ``v_0 = 1`` and at least ``n`` further entries.
    """
    k = np.empty(n, dtype=float)
    for m in range(1, n + 1):
        acc = v[m] - np.dot(k[: m - 1], v[m - 1 : 0 : -1])
        k[m - 1] = acc
    return k


def kernel_from_renewal_function(v: np.ndarray, n: int) -> np.ndarray:
    """Gap law ``K(1..n)`` of a renewal sequence ``v``: ``K(z) = 1 - 1/V(z)``."""
    w = power_series_inverse(np.asarray(v[: n + 1], dtype=float), n + 1)
    return -w[1:]
