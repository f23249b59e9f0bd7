"""Independent oracles used to freeze expected values.

Everything here is deliberately naive (direct summation, exhaustive
enumeration, quadrature of explicit densities) and shares no code path
with the package internals it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.fft import next_fast_len
from scipy.integrate import quad
from scipy.optimize import brentq

from pinlab.disorder import log_mgf
from pinlab.errors import InvalidParameterError
from pinlab.kernels import far_terms
from pinlab.oracles import charge_assignments
from pinlab.quenched import (
    dp_log_partition,
    log_mass_vector,
    partition_function_log,
    quenched_free_energy,
)


def zeta_direct(s: float, n_direct: int = 200) -> float:
    """Riemann zeta for s > 1 by direct series plus Euler-Maclaurin tail."""
    head = sum(n ** (-s) for n in range(1, n_direct))
    N = float(n_direct)
    # tail via Euler-Maclaurin: integral + f(N)/2 - f'(N)/12 + f'''(N)/720
    tail = (
        N ** (1.0 - s) / (s - 1.0)
        + 0.5 * N ** (-s)
        + (s / 12.0) * N ** (-s - 1.0)
        - (s * (s + 1.0) * (s + 2.0) / 720.0) * N ** (-s - 3.0)
    )
    return head + tail


def power_kernel_tail_integral_bound(alpha: float, n0: int) -> tuple[float, float]:
    """Bracket for ``sum_{n >= n0} n^-(1+alpha)`` by integral comparison."""
    upper = n0 ** (-alpha) / alpha + n0 ** (-(1.0 + alpha))
    lower = n0 ** (-alpha) / alpha - n0 ** (-(1.0 + alpha))
    return lower, upper


def partition_log_recursion(log_masses, site_weights, band=None) -> list[float]:
    """``log Z_m`` for ``m = 0..n`` by the plain log-domain renewal recursion.

    ``log_masses[g-1] = log K(g)`` (``-inf`` for a zero mass) and
    ``site_weights[j]`` is the log weight of a renewal started at ``j``;
    ``band`` caps the gap length.  Each step is a log-sum-exp in Python
    floats with exactly rounded sums (``math.fsum``).  ``log Z_m`` is kept as
    an unevaluated pair ``hi + lo`` and each exponent is summed exactly from
    its parts, so one step's rounding is not passed on to the next: where
    ``|log Z|`` reaches thousands a double's spacing is about 1e-12, and a
    chain of such roundings would use up the tolerance the tests check.
    """
    weights = [float(x) for x in site_weights]
    log_masses = [float(x) for x in log_masses]
    n = len(weights)
    width = n if band is None else min(band, n)
    hi, lo = [0.0], [0.0]
    for m in range(1, n + 1):
        parts = [(hi[j], lo[j], weights[j], log_masses[m - j - 1])
                 for j in range(max(0, m - width), m)]
        terms = [math.fsum(p) for p in parts]
        top = max(terms)
        if top == -math.inf:
            hi.append(-math.inf)
            lo.append(0.0)
            continue
        lead = parts[terms.index(top)]
        minus_lead = tuple(-x for x in lead)
        log_sum = math.log(math.fsum(math.exp(math.fsum(p + minus_lead)) for p in parts))
        hi.append(math.fsum(lead + (log_sum,)))
        lo.append(math.fsum(lead + (log_sum, -hi[-1])))
    return hi


def critical_point_sequential(
    kernel, disorder, beta: float, charges: np.ndarray, target_width: float
) -> dict:
    """The bisection of ``quenched_critical_point`` with one bias per DP call.

    The same ``(replicas, 2n)`` charges, searched on their first ``n``
    columns, with the same start window, decision rules and stops, written
    out plainly: each probe is its own ``quenched_free_energy`` call and
    nothing is evaluated ahead.  The upper edge is widened with the edges'
    estimates at ``n`` read from one DP call on the whole array (its
    ``log Z_n``), as the bracket reports them.  Returns the fields that fix
    the bracket.
    """
    reps, n2 = charges.shape
    n = n2 // 2
    cache = {}

    def estimate(h):
        if h not in cache:
            cache[h] = quenched_free_energy(kernel, charges[:, :n], beta, h)
        return cache[h]

    def threshold(stderr):
        return max(3.0 * stderr, 5.0 / n)

    def localized(est):
        return est.mean > threshold(est.stderr)

    h_lo, h_hi = -0.1, log_mgf(disorder, beta) + 0.1
    probes = 0
    while not localized(estimate(h_lo)):
        h_lo -= 2.0 * max(abs(h_lo), 0.1)
        probes += 1
    while localized(estimate(h_hi)):
        h_hi += 2.0 * max(abs(h_hi), 0.1)
        probes += 1
    undecided = False
    while h_hi - h_lo > target_width and probes < 60:
        mid = 0.5 * (h_lo + h_hi)
        est = estimate(mid)
        probes += 1
        if 3.0 * est.stderr > 5.0 / n and abs(est.mean) <= 3.0 * est.stderr:
            undecided = True
            break
        if localized(est):
            h_lo = mid
        else:
            h_hi = mid
    weights = np.concatenate([beta * charges - h for h in (h_lo, h_hi)])
    log_z = dp_log_partition(
        log_mass_vector(kernel, n2), weights, kernel.support_upper, far_terms(kernel, n2)
    )
    (mean_lo, _), (mean_hi, stderr_hi) = (
        (float(v.mean()), 0.0 if reps == 1 else float(v.std(ddof=1) / math.sqrt(reps)))
        for v in (log_z[:reps, n] / n, log_z[reps:, n] / n)
    )
    slope = max((mean_lo - mean_hi) / max(h_hi - h_lo, 1e-12), 0.02)
    widen = 2.0 * threshold(stderr_hi) / slope
    if undecided:
        widen *= 2.0
    return {"h_lo": h_lo, "h_hi": h_hi + widen, "h_hi_raw": h_hi,
            "undecided": undecided, "diagnostic_h": (h_lo, h_hi)}


def replica_moment_log_dp(kernel_tr, log_xi_value: float, n: int) -> float:
    """``log E[ Xi^(# simultaneous renewals in [0, n-1]) ]`` for two
    independent chains with the (finitely supported) kernel ``kernel_tr``.

    Exact DP over the pair of residual times-to-renewal, O(n * tr^2);
    both chains renew at time 0, so ``n = 1`` gives ``log Xi``.
    """
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    support = kernel_tr.support_upper
    if support is None:
        raise InvalidParameterError("replica moment needs a finitely supported kernel")
    masses = kernel_tr.mass_array(support)
    xi_value = math.exp(log_xi_value)
    dist = xi_value * np.outer(masses, masses)
    log_scale = 0.0
    for _ in range(1, n):
        nxt = np.zeros_like(dist)
        nxt[:-1, :-1] += dist[1:, 1:]
        nxt[:, :-1] += np.outer(masses, dist[0, 1:])
        nxt[:-1, :] += np.outer(dist[1:, 0], masses)
        nxt += (xi_value * dist[0, 0]) * np.outer(masses, masses)
        peak = nxt.max()
        if peak > 1e250 or peak < 1e-250:
            nxt /= peak
            log_scale += math.log(peak)
        dist = nxt
    return log_scale + math.log(float(dist.sum()))


def relative_entropy_direct(law, beta: float) -> float:
    """Density-ratio form of the tilt entropy, evaluated per family."""
    if law.family == "discrete":
        t = beta * law.xs
        t = t - t.max()
        q = law.ps * np.exp(t)
        q = q / q.sum()
        keep = q > 0
        return float(np.sum(q[keep] * np.log(q[keep] / law.ps[keep])))
    if law.family == "gaussian":
        def integrand(x):
            base = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
            shifted = math.exp(-0.5 * (x - beta) ** 2) / math.sqrt(2.0 * math.pi)
            return shifted * math.log(shifted / base)

        val, _ = quad(integrand, -12.0 + min(0.0, beta), 12.0 + max(0.0, beta), limit=300)
        return val
    # tabulated continuous density
    xs, ps = law.xs, law.ps
    grid = np.linspace(xs[0], xs[-1], 200_001)
    rho = np.interp(grid, xs, ps)
    tilted = rho * np.exp(beta * grid)
    tilted /= np.trapezoid(tilted, grid)
    keep = (tilted > 0) & (rho > 0)
    return float(np.trapezoid(
        np.where(keep, tilted * np.log(np.where(keep, tilted / np.maximum(rho, 1e-300), 1.0)), 0.0),
        grid,
    ))


def mgf_quadrature(law, lam: float) -> float:
    """MGF by quadrature of the explicit density (gaussian/continuous)."""
    if law.family == "gaussian":
        val, _ = quad(
            lambda x: math.exp(lam * x) * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
            -15.0 + min(0.0, lam),
            15.0 + max(0.0, lam),
            limit=300,
        )
        return val
    xs, ps = law.xs, law.ps
    val, _ = quad(lambda x: math.exp(lam * x) * np.interp(x, xs, ps), xs[0], xs[-1], limit=300)
    return val


def return_prefactor_limit(alpha: float) -> float:
    """Limit of ``u_n n^(1-alpha)`` for the pure power family.

    The return probabilities obey ``u_n ~ C / (n^(1-alpha) L(n))`` with
    ``C = (alpha/pi) sin(alpha pi)`` and here ``L = 1/zeta(1+alpha)``.
    """
    return (alpha / math.pi) * math.sin(alpha * math.pi) * zeta_direct(1.0 + alpha)


def joint_truncation_bound_limit(lam: float, lam0: float) -> float:
    """Large-truncation limit of ``pinlab.homopolymer.joint_truncation_bound``
    below the joint threshold ``lam0``: the partial overlap mass
    ``L2(tr-1)`` tends to ``exp(-lam0)``, so the bound tends to

        log[(1 - exp(-lam0)) / (exp(-lam) - exp(-lam0))].
    """
    return math.log((1.0 - math.exp(-lam0)) / (math.exp(-lam) - math.exp(-lam0)))


def loglog_fit(xs, ys) -> tuple[float, float]:
    """``(slope, prefactor)`` of the least-squares line of ``log ys`` against
    ``log xs`` by ``np.polyfit``, so ``ys ~ prefactor * xs^slope``."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope), math.exp(float(intercept))


def loglog_slope(xs, ys) -> float:
    return loglog_fit(xs, ys)[0]


def annealed_average_per_assignment(kernel, disorder, beta: float, h: float, n: int) -> float:
    """``E[Z_n]`` over every charge assignment, in assignment order, with one
    DP call per assignment: the reference for the blocked sum of
    ``pinlab.oracles.annealed_partition_check``."""
    total = 0.0
    for charges, prob in charge_assignments(disorder, n):
        total += prob * math.exp(partition_function_log(kernel, beta * charges - h))
    return total


def newton_rung(a, head, n: int) -> np.ndarray:
    """``head`` extended to the first ``n`` coefficients of ``1/A(z)`` by one
    middle-product Newton rung, at the real FFT length
    ``scipy.fft.next_fast_len(n)``.

    Every spectrum is a named array and each complex product is one
    ``np.multiply(x, y, out=...)`` into a fresh array, so no temporary
    elision can reorder its operands: ``rfft(a) * rfft(head)``, then
    ``rfft(head) * rfft(e)``.
    """
    m = len(head)
    size = next_fast_len(n, real=True)
    head_spec = np.fft.rfft(head, size)
    a_spec = np.fft.rfft(a[:n], size)
    first = np.empty_like(a_spec)
    np.multiply(a_spec, head_spec, out=first)
    product = np.fft.irfft(first, size)
    e_spec = np.fft.rfft(product[m:n], size)
    second = np.empty_like(e_spec)
    np.multiply(head_spec, e_spec, out=second)
    lifted = np.fft.irfft(second, size)
    out = np.empty(n)
    out[:m] = head
    np.negative(lifted[: n - m], out=out[m:])
    return out


def _residue_masses(kernel, period: int, f: float) -> np.ndarray:
    """``R[r] = sum_{n >= 1, n = r mod period} K(n) e^{-f n}`` for ``r =
    0..period-1``, ``f >= 0``: a closed form for geometric kernels, a finite
    sum for tables, and for power kernels (``s = 1 + alpha``) Lerch's
    transcendent ``period^-s e^{-f r} Phi(e^{-f period}, s, r / period) /
    zeta(s)`` in mpmath at 30 digits, Hurwitz's zeta at ``f = 0``."""
    first = np.arange(1, period + 1)  # the least gap of each residue; period stands for 0
    if kernel.family == "geometric":
        q = 1.0 - kernel.p
        cycle = 1.0 - q**period * math.exp(-f * period)
        sums = kernel.p * q ** (first - 1) * np.exp(-f * first) / cycle
    elif kernel.family == "table":
        gaps = np.arange(1, len(kernel.masses) + 1)
        terms = kernel.masses * np.exp(-f * gaps)
        return np.bincount(gaps % period, weights=terms, minlength=period)
    else:
        import mpmath

        with mpmath.workdps(30):
            s = 1 + mpmath.mpf(kernel.alpha)
            z = mpmath.exp(-f * period)

            def tail(r):
                a = mpmath.mpf(r) / period
                lerch = mpmath.zeta(s, a) if f == 0.0 else mpmath.lerchphi(z, s, a)
                return float(mpmath.exp(-f * r) * lerch / period**s / mpmath.zeta(s))

            sums = np.array([tail(int(r)) for r in first])
    return np.roll(sums, 1)


def _periodic_perron_root(kernel, pattern, beta: float, h: float, f: float) -> float:
    """The Perron root of ``A(f)_{ij} = e^{beta pattern_i - h} R[(j - i) mod
    p]``, ``p = len(pattern)``: the transfer matrix from a renewal at a site
    of phase ``i`` to the next, at phase ``j``, discounted by ``e^{-f}`` a
    step.  Its eigenvalue of largest real part, from ``numpy.linalg.eigvals``."""
    weights = beta * np.asarray(pattern, dtype=float) - h
    period = len(weights)
    phase = np.arange(period)
    masses = _residue_masses(kernel, period, f)[(phase[None, :] - phase[:, None]) % period]
    return float(np.max(np.linalg.eigvals(np.exp(weights)[:, None] * masses).real))


def periodic_critical_bias(kernel, pattern, beta: float) -> float:
    """The exact quenched critical bias of the periodic charges ``w_i =
    pattern[i mod p]``: ``h_c = log rho(diag(e^{beta w}) P)``, ``P_{ij} =
    P(tau_1 = j - i mod p)`` (Caravenna, Giacomin and Zambotti 2007)."""
    return math.log(_periodic_perron_root(kernel, pattern, beta, 0.0, 0.0))


def periodic_free_energy(kernel, pattern, beta: float, h: float) -> float:
    """The exact free energy ``F(beta, h)`` of the periodic charges ``w_i =
    pattern[i mod p]``, the limit of ``log Z_n / n``: the ``f > 0`` where
    the Perron root of ``A(f)`` is 1, or 0 where ``rho(A(0)) <= 1``.  Since
    ``rho(A(f)) <= e^{max(beta w - h) - f}``, the root lies below ``max(beta
    w - h) + 1``."""
    if _periodic_perron_root(kernel, pattern, beta, h, 0.0) <= 1.0:
        return 0.0
    top = float(np.max(beta * np.asarray(pattern, dtype=float) - h)) + 1.0
    return brentq(
        lambda f: math.log(_periodic_perron_root(kernel, pattern, beta, h, f)),
        0.0, top, xtol=1e-16, rtol=4.0 * np.finfo(float).eps,
    )
