"""Independent oracles used to freeze expected values.

Everything here is deliberately naive (direct summation, exhaustive
enumeration, quadrature of explicit densities) and shares no code path
with the package internals it checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from pinlab.errors import InvalidParameterError


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


def partition_log_brute(masses: np.ndarray, beta: float, h: float, omega) -> float:
    """log of the pinned partition sum by exhaustive renewal enumeration.

    Sums over all renewal subsets 0 = k_0 < ... < k_N = n, weighting each
    gap by its kernel mass and each renewal start by exp(beta w - h).
    """
    omega = np.asarray(omega, dtype=float)
    n = len(omega)
    total = 0.0
    for code in range(1 << (n - 1)):
        points = [0] + [j for j in range(1, n) if (code >> (j - 1)) & 1] + [n]
        weight = 1.0
        for a, b in zip(points, points[1:]):
            gap = b - a
            mass = masses[gap - 1] if gap <= len(masses) else 0.0
            weight *= mass * math.exp(beta * omega[a] - h)
        total += weight
    return math.log(total)


def partition_log_recursion(log_masses, site_weights, band=None) -> list[float]:
    """``log Z_m`` for ``m = 0..n`` by the plain log-domain renewal recursion.

    ``log_masses[g-1] = log K(g)`` (``-inf`` for a zero mass) and
    ``site_weights[j]`` is the log weight of a renewal started at ``j``;
    ``band`` caps the gap length.  Each step is a log-sum-exp in Python
    floats with an exactly rounded sum (``math.fsum``).
    """
    weights = [float(x) for x in site_weights]
    log_masses = [float(x) for x in log_masses]
    n = len(weights)
    width = n if band is None else min(band, n)
    log_z = [0.0]
    for m in range(1, n + 1):
        terms = [log_z[j] + weights[j] + log_masses[m - j - 1]
                 for j in range(max(0, m - width), m)]
        top = max(terms)
        if top == -math.inf:
            log_z.append(-math.inf)
        else:
            log_z.append(top + math.log(math.fsum(math.exp(t - top) for t in terms)))
    return log_z


def enumerate_renewal_configs(masses: np.ndarray, n: int):
    """(renewal_times, probability) over the window [0, n-1], including the
    survival factor of the gap that overshoots the window."""
    tr = len(masses)
    cum = np.cumsum(masses)

    def survival(q):
        if q <= 0:
            return 1.0
        if q >= tr:
            return 0.0
        return float(1.0 - cum[q - 1])

    out = []
    stack = [((0,), 1.0)]
    while stack:
        times, prob = stack.pop()
        last = times[-1]
        tail = survival(n - 1 - last)
        if tail > 0.0:
            out.append((times, prob * tail))
        for gap in range(1, min(tr, n - 1 - last) + 1):
            if masses[gap - 1] > 0.0:
                stack.append((times + (last + gap,), prob * masses[gap - 1]))
    return out


def free_endpoint_likelihood_brute(masses: np.ndarray, site_weights) -> float:
    """Word-averaged likelihood with a free right endpoint, enumerated.

    ``site_weights[k] = log w_k``; every renewal inside the window
    (including 0 and the last one) collects its weight.
    """
    site_weights = np.asarray(site_weights, dtype=float)
    n = len(site_weights)
    total = 0.0
    for times, prob in enumerate_renewal_configs(masses, n):
        total += prob * math.exp(sum(site_weights[t] for t in times))
    return total


def pair_moment_brute(masses: np.ndarray, xi_value: float, n: int) -> float:
    """E[xi^(# simultaneous renewals in [0, n-1])] by double enumeration."""
    configs = enumerate_renewal_configs(masses, n)
    total = 0.0
    for times_a, prob_a in configs:
        set_a = set(times_a)
        for times_b, prob_b in configs:
            overlap = len(set_a.intersection(times_b))
            total += prob_a * prob_b * xi_value**overlap
    return total


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
    if law.family in ("rademacher", "discrete"):
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


def loglog_slope(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
