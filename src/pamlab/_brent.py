"""Brent's bracketed root-finder, a line-for-line port of scipy's C brentq.

scipy.optimize is this package's only need for one function, and importing
it pulls in linprog, shgo and scipy.spatial, some 140 modules, on every
command's start.  This port takes the same steps in the same order as
scipy/optimize/Zeros/brentq.c, so it evaluates f at the same points and
returns the same root, bit for bit (tests/test_brent.py checks both against
scipy.optimize.brentq as an oracle).

Like scipy's C loop, it hands f Python floats: a, b, xtol and rtol are
coerced first, so an np.float64 tolerance cannot turn every iterate into an
np.float64.
"""
from __future__ import annotations

import math
from typing import Callable


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _call(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float,
           maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Converges when the bracket's half-width drops below
    delta = (xtol + rtol*|x|)/2.  Raises ValueError if f(a) and f(b) have the
    same sign (or f returns NaN), RuntimeError after maxiter iterations.
    """
    xpre, xcur = float(a), float(b)
    xtol, rtol = float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0

    fpre = _call(f, xpre)
    fcur = _call(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")

    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = _call(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")
