"""Bracketed scalar root finding.

:func:`brentq` is Brent's method (Brent 1973, ch. 4) in the form of the
``brentq`` C routine of SciPy's ``optimize`` package, step for step: the
same inverse quadratic extrapolation, the same acceptance test for an
interpolated step and the same bisection fallback, so that it returns the
same root bit for bit.  Where the C code divides by zero, the IEEE result
(an infinite or NaN trial step) fails the acceptance test and the step
bisects; here the zero denominator is tested and the step bisects
directly, without a warning or an exception.
"""

from __future__ import annotations

import math
import sys

from .errors import InvalidParameterError, PrecisionError

__all__ = ["brentq"]

_MIN_RTOL = 4.0 * sys.float_info.epsilon


def brentq(f, a: float, b: float, xtol: float = 2e-12, rtol: float = _MIN_RTOL,
           maxiter: int = 100) -> float:
    """A root of ``f`` in ``[a, b]``, where ``f(a)`` and ``f(b)`` differ in sign.

    The returned ``x`` lies within ``xtol + rtol * |x|`` of a sign change
    of ``f``.  ``f`` must return a real number; NaN raises
    :class:`PrecisionError`, as does a bracket not closed within
    ``maxiter`` steps.  A bracket without a sign change, ``xtol <= 0`` or
    ``rtol`` below four machine epsilons raises
    :class:`InvalidParameterError`.
    """
    if not xtol > 0.0:
        raise InvalidParameterError(f"brentq needs xtol > 0, got {xtol!r}")
    if not rtol >= _MIN_RTOL:
        raise InvalidParameterError(f"brentq needs rtol >= {_MIN_RTOL!r}, got {rtol!r}")

    def call(x: float) -> float:
        fx = float(f(x))
        if fx != fx:
            raise PrecisionError(f"function value at x = {x!r} is NaN; the root cannot be bracketed")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise InvalidParameterError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:
                # inverse quadratic extrapolation
                num = den = 0.0
                if xpre != xcur and xblk != xcur:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    num = -fcur * (fblk * dblk - fpre * dpre)
                    den = dblk * dpre * (fblk - fpre)
            if den != 0.0:
                stry = num / den
                if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                    spre, scur = scur, stry
                    bisect = False
        if bisect:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise PrecisionError(f"brentq did not converge in {maxiter} steps; last x = {xcur!r}")
