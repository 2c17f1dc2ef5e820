"""Lattice Green function of the simple random walk on Z^d, and alpha_d.

Conventions.  The walk has generator Delta (nearest-neighbour differences,
total jump rate 2d), so its transition kernel factorizes per coordinate and
the return probability is p_t(0,0) = (e^{-2t} I0(2t))^d.  The quantities
computed here are

    G_d(0)      = int_0^inf (e^{-2t} I0(2t))^d dt            (finite iff d >= 3)
    G_d(x)      = int_0^inf prod_i e^{-2t} I_{|x_i|}(2t) dt
    |G_d|_2^2   = int_0^inf t (e^{-2t} I0(2t))^d dt          (finite iff d >= 5)
    alpha_d     = G_d(0) / (2d |G_d|_2^2)                    (0 for d in {3,4})

The one-dimensional time integrals are the primary method: the integrand is
smooth with a known t^{-d/2} tail, whereas the equivalent d-fold Fourier
integrals have an integrable singularity at theta=0 (and naive Monte Carlo on
them has infinite variance for d in {3,4}).  The Fourier form is kept only as
a cross-check at moderate accuracy.

Error accounting.  Every certified number here comes from one core,
_certified_integral(ks, weight, nu, tol), for
int_0^inf t^w e^{-nu t} prod_i e^{-2t} I_{k_i}(2t) dt; spectral.mu and
mu_inverse use it too.  Its abs_error is built from (a) the spread between
two Gauss-Legendre node counts on the head interval [0,T] and (b) a
two-sided envelope of the integrand on the tail [T,inf), with T chosen by
_horizon so that (b) is at most tol/4.  The envelope,

    1 + 1/(8x)  <=  sqrt(2 pi x) e^{-x} I0(x)  <=  1 + 1/(8x) + 0.08/x^2

for x >= 60 (and its order-k analogues), is validated against an independent
power-series oracle in the test suite, so the tail contribution to abs_error
is a certified bound rather than a heuristic.  The envelope's power
integrals int_T^inf e^{-nu t} t^{-sigma} dt are float evaluations with a
proven error (_tail_power_err: a power series or a positive continued
fraction for the incomplete gamma function, whose truncation is bracketed,
plus a running rounding bound under a stated libm accuracy); that error
widens the tail half-width and never moves the midpoint.

_green_table alone uses a fixed-node mode: the same horizon and tail midpoint,
48 nodes per panel and no error check.  It holds G_d on the radius-R cube
as one flat value per _multisets row (a sorted multiset of |coordinates|);
_green_box_sums reduces it to the sums spectral.f0_rayleigh needs, and
green_box_values scatters it over the cube, both through the lookup _rows.
spectral._quotient builds its frame-box orbits from _multisets too.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np
from scipy.special import i0e, ive

from .lattice import MAX_SITES, CapacityError

__all__ = [
    "GreenEstimate",
    "heat_kernel_diag",
    "green_zero",
    "green_at",
    "green_l2sq",
    "alpha",
    "green_box_values",
]

# int_{[0,pi]^d} dtheta/|theta|^2 for the Fourier cross-check's singularity
# subtraction; recomputed by a nested adaptive-quadrature oracle in the tests.
_CUBE_INV_SQ = {3: 6.027243069991175, 4: 10.57738843003051}

#: envelope sqrt(2 pi x) e^{-x} I_k(x) = 1 - (4k^2-1)/(8x) + r, |r| <= _env_b(k)/x^2
#: valid for x >= _env_xmin(k); both claims validated in the tests.
def _env_xmin(k: int) -> float:
    return max(60.0, 6.0 * k * k)


def _env_a(k):
    """The envelope's 1/t coefficient (x = 2t); exact for integer k or arrays."""
    return (1.0 - 4.0 * k * k) / 16.0


def _env_b(k: int) -> float:
    mu = 4 * k * k
    return 1.5 * abs((mu - 1) * (mu - 9)) / 128.0 + 0.2


@dataclass(frozen=True)
class GreenEstimate:
    """A Green-function quantity with a certified absolute error bound.

    ``value`` is ``math.inf`` exactly when the quantity diverges (G_d(0) for
    d <= 2, |G_d|_2^2 for d <= 4); divergence is a typed result, not an
    exception, so sweeps over d handle low dimensions uniformly.
    """

    d: int
    quantity: str
    value: float
    abs_error: float
    method: str

    @property
    def divergent(self) -> bool:
        return math.isinf(self.value)


def heat_kernel_diag(d: int, nu: float, t: float) -> float:
    """Return probability p_t(0,0) = (e^{-2 nu t} I0(2 nu t))^d of the rate-2d*nu walk."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    if nu < 0 or t < 0:
        raise ValueError("rate and time must be non-negative")
    return float(i0e(2.0 * nu * t)) ** d


# ---------------------------------------------------------------------------
# quadrature machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _gl_rule(nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def _panel_nodes(edges: np.ndarray, nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    x, w = _gl_rule(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    ts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    ws = (half[:, None] * w[None, :]).ravel()
    return ts, ws


def _edges(scale: float, T: float) -> np.ndarray:
    """Geometric panel edges from 0 to T, graded near 0 at the given scale."""
    e = [0.0, min(scale, T)]
    while e[-1] < T:
        e.append(min(e[-1] * 1.5, T))
    return np.array(e)


# Rounding model of the float tail route below: IEEE double arithmetic with
# unit roundoff _U (+ - * / sqrt correctly rounded), and libm exp, log and
# pow accurate to 2 ulp, i.e. relative error _LIBM = 4u (an assumed margin
# over libm's own accuracy; the test suite checks the resulting bounds
# against 30-digit values).  Each step's error is propagated to first
# order; the 1.01 factors cover the second-order terms and the rounding of
# the error sums themselves, relative perturbations below 1e-8 for the
# <= 10^4 steps taken.  Quantities that underflow err by less than 1e-307
# each; _UNDERFLOW covers them.
_U = 2.0 ** -53
_LIBM = 4.0 * _U
_UNDERFLOW = 1e-300
_EULER_GAMMA = 0.5772156649015329
_X_CF = 1.0   # switch-over: power series plus recurrence below, continued fraction above


def _alternating_sum(terms) -> Tuple[float, float]:
    """(s, abs_error) for s = t_0 - t_1 + t_2 - ... from (t_k, relerr_k) pairs.

    The exact terms must decrease in magnitude, so the truncated remainder is
    at most the first neglected term; summation stops once that term is
    below 2^-60 |s|.
    """
    s = err = 0.0
    for k, (t, rel) in enumerate(terms):
        if t <= 2.0 ** -60 * abs(s):
            return s, err + t * (1.0 + rel)
        s = s - t if k & 1 else s + t
        err += t * rel + _U * abs(s)


def _series_terms(x: float, first: int, denom):
    """(x^k/k!/denom(k), relerr) for k >= first; p *= x/k costs 2u per step."""
    p, k = 1.0, 0
    while True:
        if k >= first:
            yield p / denom(k), (2 * k + 1) * _U
        k += 1
        p *= x / k


def _scaled_gamma_series(a: float, x: float) -> Tuple[float, float]:
    """(h, abs_error), h = x^-a Gamma(a, x) for a in {0, 1/2} and 0 < x <= 1.

    Both series alternate with terms decreasing for x <= 1:
      h(0, x)   = E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k k!)
      h(1/2, x) = sqrt(pi/x) - 2 sum_{k>=0} (-x)^k / (k! (2k+1)).
    """
    if a == 0.0:
        s, s_err = _alternating_sum(_series_terms(x, 1, lambda k: k))
        lg = math.log(x)
        head = -_EULER_GAMMA - lg
        head_err = _U * _EULER_GAMMA + _LIBM * abs(lg) + _U * abs(head)
        h = head + s
        return h, head_err + s_err + _U * abs(h)
    s, s_err = _alternating_sum(_series_terms(x, 0, lambda k: 2 * k + 1))
    head = math.sqrt(math.pi / x)   # pi, the division and sqrt: within 2u
    h = head - 2.0 * s
    return h, 2.0 * _U * head + 2.0 * s_err + _U * abs(h)


def _cf_pass(a: float, x: float, n: int) -> Tuple[float, float]:
    """(f_n, relerr): the n-th approximant of (DLMF 8.9.2)

        e^x x^-a Gamma(a, x) = 1/(x + (1-a)/(1 + 1/(x + (2-a)/(1 + 2/(x + ...)))))

    evaluated bottom-up.  Every element is positive for a < 1, so each
    level's relative error is damped by t/(b+t) < 1 before 2u is added.
    """
    t = rel = 0.0
    for k in range(n, 0, -1):
        if k & 1:
            c, s = (k + 1) // 2 - a, 1.0 + t
        else:
            c, s = k // 2, x + t
        rel = rel * t / s + 2.0 * _U
        t = c / s
    s = x + t
    return 1.0 / s, rel * t / s + 2.0 * _U


def _scaled_gamma_cf(a: float, x: float) -> Tuple[float, float]:
    """(f, abs_error), f = e^x x^-a Gamma(a, x) for a < 1 and x > _X_CF.

    A continued fraction with positive elements has its value strictly
    between any two consecutive approximants (each level is a decreasing
    map of the tail below it, and the true tail lies in (0, inf)), so
    |f - f_{n+1}| <= |f_n - f_{n+1}|.  The depth 12 + 260/x meets the 2^-56
    stopping test for every a in [-3.5, 1/2]; it doubles otherwise.
    """
    n = 12 + int(260.0 / x)
    while True:
        f0, r0 = _cf_pass(a, x, n)
        f1, r1 = _cf_pass(a, x, n + 1)
        if abs(f0 - f1) <= 2.0 ** -56 * f1 or n > 4096:
            return f1, abs(f0 - f1) + r0 * f0 + 2.0 * r1 * f1
        n *= 2


def _scaled_gamma(a: float, x: float) -> Tuple[float, float]:
    """(h, abs_error), h = x^-a Gamma(a, x) = int_1^inf e^{-x s} s^{a-1} ds.

    a must be in {1/2, 0, -1/2, -1, ...}.  For x > _X_CF the continued
    fraction gives h directly.  Otherwise the series gives h at the b in
    {0, 1/2} with b - a integral, and x h(b) = (b-1) h(b-1) + e^{-x} recurs
    down to a; for x <= 1 the e^{-x} term dominates x h(b), so the
    cancellation costs a bounded factor, which the running bound tracks.
    """
    if not (a <= 0.5 and 2.0 * a == round(2.0 * a)):
        raise ValueError(f"tail power needs sigma in {{1/2, 1, 3/2, ...}}, got {1.0 - a}")
    E = math.exp(-x)
    if x > _X_CF:
        f, f_err = _scaled_gamma_cf(a, x)
        h = E * f
        return h, 1.01 * h * (f_err / f + _LIBM + _U) + _UNDERFLOW
    b = 0.5 if 2.0 * a % 2.0 else 0.0
    h, err = _scaled_gamma_series(b, x)
    while b > a:    # h(b-1) = (e^{-x} - x h(b)) / (1-b)
        num = E - x * h
        err = (_LIBM * E + x * err + _U * x * h + _U * abs(num)) / (1.0 - b)
        h = num / (1.0 - b)
        err += _U * abs(h)
        b -= 1.0
    return h, 1.01 * err + _UNDERFLOW


def _tail_power_err(sigma: float, nu: float, T: float) -> Tuple[float, float]:
    """(value, abs_error) for int_T^inf e^{-nu t} t^{-sigma} dt.

    Requires nu > 0 or sigma > 1, and for nu > 0 sigma in {1/2, 1, 3/2, ...}
    (_tail_bracket asks for sigma = d/2 - w + j).  For nu = 0 it is the
    closed power form with abs_error 0: its few roundings are covered by
    _certified_integral's rounding term.  For nu > 0 the integral is T^a h(a, x) with
    a = 1 - sigma, x = nu T and h = _scaled_gamma; abs_error adds the
    rounding of x = fl(nu T): |dh/dx| = h(a+1, x), and
    x h(a+1, x) = a h(a, x) + e^{-x}, so it moves h by at most
    u (max(a, 0) h + e^{-x}).
    """
    if nu == 0.0:
        if sigma <= 1.0:
            raise ValueError("power tail diverges")
        return T ** (1.0 - sigma) / (sigma - 1.0), 0.0
    a = 1.0 - sigma
    x = nu * T
    h, h_err = _scaled_gamma(a, x)
    h_err += 1.01 * _U * (max(a, 0.0) * h + math.exp(-x))
    Ta = T ** a
    value = Ta * h
    return value, 1.01 * (Ta * h_err + (_LIBM + _U) * value) + _UNDERFLOW


def _product_envelope(ks: Sequence[int], T: float) -> Tuple[float, float]:
    """(A, B) with |(4 pi t)^{d/2} prod_i ive(k_i, 2t) - 1 - A/t| <= B/t^2 on [T,inf).

    Built from the per-factor Bessel envelopes; the quadratic-and-higher cross
    terms are absorbed into B via the elementary bound
    |prod(1+u_i) - 1 - sum u_i| <= (sum |u_i|)^2 e^{sum |u_i|} / 2.
    """
    a = [_env_a(k) for k in ks]
    b = [_env_b(k) / 4.0 for k in ks]
    A = sum(a)
    c = sum(abs(ai) for ai in a) + sum(b) / T
    B = sum(b) + 0.5 * c * c * math.exp(c / T)
    return A, B


def _tail_bracket(ks: Sequence[int], weight: int, nu: float, T: float) -> Tuple[float, float]:
    """(midpoint, halfwidth) bracketing int_T^inf t^w e^{-nu t} prod_i ive(k_i, 2t) dt."""
    return _envelope_tail(len(ks), weight, nu, T, *_product_envelope(ks, T))


def _envelope_tail(d: int, weight: int, nu: float, T: float, A, B):
    """(midpoint, halfwidth) of the tail integral of a d-factor envelope (A, B)
    from _product_envelope; elementwise when A and B are arrays."""
    s = 0.5 * d - weight
    pref = (4.0 * math.pi) ** (-0.5 * d)
    p0, e0 = _tail_power_err(s, nu, T)
    p1, e1 = _tail_power_err(s + 1.0, nu, T)
    p2, e2 = _tail_power_err(s + 2.0, nu, T)
    mid = pref * (p0 + A * p1)
    # the tail powers' errors widen the bracket only (they are 0 for nu = 0)
    half = pref * B * p2 + pref * (e0 + abs(A) * e1 + B * e2)
    return mid, half


def _horizon(ks: Sequence[int], weight: int, nu: float,
             tol: float) -> Tuple[float, float, float]:
    """(T, mid, half): the tail start and _tail_bracket there.

    T starts where every per-factor envelope holds (2T >= _env_xmin(k)) and
    doubles until the tail half-width is at most tol/4, or past 1e8.
    """
    T = max(60.0, *(0.5 * _env_xmin(k) for k in ks))
    while True:
        mid, half = _tail_bracket(ks, weight, nu, T)
        if half <= 0.25 * tol or T > 1e8:
            return T, mid, half
        T *= 2.0


def _certified_integral(ks: Sequence[int], weight: int, nu: float, tol: float,
                        strict: bool = True) -> Tuple[float, float]:
    """(value, abs_error) for int_0^inf t^w e^{-nu t} prod_i ive(k_i, 2t) dt.

    The integral must converge: nu > 0, or len(ks)/2 - w > 1.  The head [0,T]
    is Gauss-Legendre on graded panels, certified by the spread between two
    node counts; the tail [T,inf) is the envelope bracket.  With strict=False
    the best (value, abs_error) pair is returned even when abs_error > tol,
    for callers that only need the value up to a self-reported error (e.g.
    sign queries far from a root).
    """
    if nu <= 0.0 and 0.5 * len(ks) - weight <= 1.0:
        raise ValueError("integral diverges")
    T, mid, half = _horizon(ks, weight, nu, tol)
    edges = _edges(0.25 / (len(ks) + nu + 1.0), T)
    # each distinct order once, raised to its multiplicity (i0e(2t)**d is
    # ten times cheaper than d calls of ive(0, 2t))
    orders = sorted(Counter(ks).items())

    def head(nodes: int) -> float:
        t, w = _panel_nodes(edges, nodes)
        f = math.prod((i0e(2.0 * t) if k == 0 else ive(k, 2.0 * t)) ** mult
                      for k, mult in orders)
        if weight:
            f = f * t ** weight
        if nu:
            f = f * np.exp(-nu * t)
        return float(np.dot(w, f))

    for lo, hi in ((32, 48), (64, 96), (96, 144)):
        h_lo, h_hi = head(lo), head(hi)
        value = h_hi + mid
        err = abs(h_hi - h_lo) + half + 1e-15 * (1.0 + abs(value))
        if err <= tol:
            return value, err
    if strict:
        raise ValueError(
            f"requested tol {tol} not certifiable (best abs_error {err:.3e})")
    return value, err


# ---------------------------------------------------------------------------
# public quantities
# ---------------------------------------------------------------------------

def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _fourier_green_zero(d: int, tol: float) -> GreenEstimate:
    """Cross-check method: deterministic tensor quadrature of the momentum-space
    form (1/pi^d) int_{[0,pi]^d} dtheta / (2 sum_i (1-cos theta_i)), with the
    1/|theta|^2 singularity subtracted and added back from a precomputed cube
    constant.  Only supported for d in {3,4}."""
    if d not in _CUBE_INV_SQ:
        raise ValueError(
            f"fourier-quadrature cross-check implemented for d in {{3,4}}, got d={d}")

    def at(nodes: int) -> float:
        x, w = _gl_rule(nodes)
        th = 0.5 * math.pi * (x + 1.0)
        ww = 0.5 * math.pi * w
        one_minus_cos = [1.0 - np.cos(th)] * d
        S2 = 0.0
        r2 = 0.0
        for axis in range(d):
            shape = [1] * d
            shape[axis] = nodes
            S2 = S2 + 2.0 * one_minus_cos[axis].reshape(shape)
            r2 = r2 + (th ** 2).reshape(shape)
        reg = 1.0 / S2 - 1.0 / r2
        wt = ww
        for _ in range(d - 1):
            wt = np.multiply.outer(wt, ww)
        return (float(np.sum(wt * reg)) + _CUBE_INV_SQ[d]) / math.pi ** d

    n_hi = 64 if d == 3 else 48
    v_lo, v_hi = at(n_hi // 2), at(n_hi)
    err = 4.0 * abs(v_hi - v_lo) + 1e-9
    return GreenEstimate(d=d, quantity="G(0)", value=v_hi, abs_error=err,
                         method="fourier-quadrature")


def _mc_green_zero(d: int, seed: int, samples: int) -> GreenEstimate:
    """Monte Carlo on the momentum-space expectation E[1/(2 sum (1-cos Theta_i))]
    with Theta_i i.i.d. uniform on [0,pi].  The integrand is square-integrable
    only for d >= 5; lower d is refused (infinite variance)."""
    if d < 5:
        raise ValueError(
            f"monte-carlo method has infinite variance for d={d}; requires d >= 5")
    if seed is None:
        raise ValueError("monte-carlo method requires an explicit seed")
    if samples < 2:
        raise ValueError(f"need at least 2 samples for a standard error, got {samples}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining > 0:
        block = min(remaining, 1_000_000)
        th = rng.uniform(0.0, math.pi, size=(block, d))
        vals = 1.0 / (2.0 * np.sum(1.0 - np.cos(th), axis=1))
        total += float(vals.sum())
        total_sq += float(np.dot(vals, vals))
        remaining -= block
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    stderr = math.sqrt(var / samples)
    return GreenEstimate(d=d, quantity="G(0)", value=mean, abs_error=3.0 * stderr,
                         method="monte-carlo")


@lru_cache(maxsize=1024)
def _green_zero_cached(d: int, tol: float) -> GreenEstimate:
    if d <= 2:
        return GreenEstimate(d=d, quantity="G(0)", value=math.inf, abs_error=0.0,
                             method="time-integral")
    value, err = _certified_integral((0,) * d, 0, 0.0, tol)
    return GreenEstimate(d=d, quantity="G(0)", value=value, abs_error=err,
                         method="time-integral")


def green_zero(d: int, tol: float = 1e-9, method: str = "time-integral",
               seed: int | None = None, samples: int = 4_000_000) -> GreenEstimate:
    """G_d(0), divergent for d <= 2; finite and certified to tol for d >= 3."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    _check_tol(tol)
    if method == "time-integral":
        return _green_zero_cached(d, float(tol))
    if d <= 2:
        return GreenEstimate(d=d, quantity="G(0)", value=math.inf, abs_error=0.0,
                             method=method)
    if method == "fourier-quadrature":
        return _fourier_green_zero(d, tol)
    if method == "monte-carlo":
        return _mc_green_zero(d, seed, samples)
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=1024)
def _green_l2sq_cached(d: int, tol: float) -> GreenEstimate:
    if d <= 4:
        return GreenEstimate(d=d, quantity="|G|_2^2", value=math.inf, abs_error=0.0,
                             method="time-integral")
    value, err = _certified_integral((0,) * d, 1, 0.0, tol)
    return GreenEstimate(d=d, quantity="|G|_2^2", value=value, abs_error=err,
                         method="time-integral")


def green_l2sq(d: int, tol: float = 1e-9) -> GreenEstimate:
    """|G_d|_2^2 = sum_x G_d(x)^2, divergent for d <= 4."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    _check_tol(tol)
    return _green_l2sq_cached(d, float(tol))


@lru_cache(maxsize=65536)
def _green_at_cached(d: int, ks: Tuple[int, ...], tol: float) -> GreenEstimate:
    value, err = _certified_integral(ks, 0, 0.0, tol)
    return GreenEstimate(d=d, quantity=f"G({list(ks)})", value=value, abs_error=err,
                         method="time-integral")


def green_at(d: int, x: Sequence[int], tol: float = 1e-9) -> GreenEstimate:
    """G_d(x) for a lattice site x, via the per-coordinate Bessel factorization."""
    if d <= 2:
        raise ValueError(f"G_d(x) diverges for d={d} <= 2")
    _check_tol(tol)
    x = tuple(int(c) for c in x)
    if len(x) != d:
        raise ValueError(f"site has {len(x)} coordinates, expected d={d}")
    ks = tuple(sorted(abs(c) for c in x))
    return _green_at_cached(d, ks, float(tol))


@lru_cache(maxsize=256)
def _alpha_cached(d: int, tol: float) -> GreenEstimate:
    g = _green_zero_cached(d, tol)
    l2 = _green_l2sq_cached(d, tol)
    value = g.value / (2.0 * d * l2.value)
    err = g.abs_error / (2.0 * d * l2.value) + value * l2.abs_error / l2.value
    return GreenEstimate(d=d, quantity="alpha", value=value, abs_error=err,
                         method="time-integral")


def alpha(d: int, tol: float = 1e-9) -> GreenEstimate:
    """alpha_d = G_d(0)/(2d |G_d|_2^2); exactly 0 for d in {3,4}."""
    if d <= 2:
        raise ValueError(f"alpha_d undefined for d={d} <= 2 (G_d(0) diverges)")
    _check_tol(tol)
    if d <= 4:
        return GreenEstimate(d=d, quantity="alpha", value=0.0, abs_error=0.0,
                             method="time-integral")
    return _alpha_cached(d, float(tol))


# ---------------------------------------------------------------------------
# bulk evaluation on a cube (shared quadrature grid)
# ---------------------------------------------------------------------------

# Products per chunk of the table build: (rows, nodes) temporaries near 0.5 MB
_CHUNK_FLOATS = 1 << 16


def _multisets(m: int, radius: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted multisets k_1 <= ... <= k_m of {0,...,R} (m >= 1), one row each
    in lexicographic order, built a column at a time, and their orbit sizes
    under the signed axis permutations B_m (the sites of {-R,...,R}^m with
    those sorted |x_i|): m!/prod(repeats!) * 2^(number of k_i > 0).  The
    second caller, spectral._quotient, reads the rows as frame sites.

    The orbit sizes sum to (2R+1)^m, which must stay below 2^63 (it also
    bounds the base-(R+1) codes of _rows).  The multinomial is the running
    product over v of C(c_0+...+c_v, c_v), c_v the repeats of v, each read
    where the run of v's ends; each partial product divides the orbit size,
    so none overflows int64.
    """
    if math.comb(radius + m, m) > MAX_SITES or (2 * radius + 1) ** m >= 2 ** 63:
        raise CapacityError(f"multisets of {m} values in 0..{radius} exceed the table budget")
    keys = np.arange(radius + 1, dtype=np.int64)[:, None]
    for _ in range(m - 1):   # a row ending in k spawns the rows appending k..R
        last = keys[:, -1]
        reps = radius + 1 - last
        new = np.repeat(last - (np.cumsum(reps) - reps), reps) + np.arange(reps.sum())
        keys = np.column_stack((np.repeat(keys, reps, axis=0), new))
    # C(n, k) for k <= n <= m, saturated at 2^63 - 1; no read hits a
    # saturated entry, as each C(s_v, c_v) read divides an orbit size
    cap = 2 ** 63 - 1
    comb = np.zeros((m + 1, m + 1), dtype=np.int64)
    for n in range(m + 1):
        comb[n, :n + 1] = [min(math.comb(n, k), cap) for k in range(n + 1)]
    mult = np.ones(len(keys), dtype=np.int64)
    run = np.zeros(len(keys), dtype=np.int64)
    # the run of v's ends at column s_v - 1, s_v = c_0+...+c_v
    for j, end in enumerate((np.diff(keys, axis=1, append=radius + 1) != 0).T):
        run += 1
        mult[end] *= comb[j + 1, run[end]]
        run[end] = 0
    return keys, mult << np.count_nonzero(keys, axis=1)


def _rows(keys: np.ndarray, radius: int, sorted_keys: np.ndarray) -> np.ndarray:
    """Index in keys (from _multisets) of each sorted row of sorted_keys, by
    base-(R+1) codes, which rise with lexicographic order."""
    place = (radius + 1) ** np.arange(keys.shape[1] - 1, -1, -1, dtype=np.int64)
    return np.searchsorted(keys @ place, sorted_keys @ place)


def _green_table(keys: np.ndarray, radius: int, tol: float) -> np.ndarray:
    """G_d at each row of keys = _multisets(d, R)[0], i.e. at every x in the
    radius-R cube with those sorted |x_i|: C(R+d, d) products over one shared
    node set, in row chunks of about _CHUNK_FLOATS products.

    Fixed-node mode: T comes from _horizon, but the head uses 48 nodes per
    panel with no spread check and the tail adds only its midpoint, so the
    values carry no certificate.  None is needed: spectral.f0_rayleigh
    evaluates a Rayleigh-type ratio of whatever vector it gets.  The
    midpoint's A sums exact dyadic terms, so it has _tail_bracket's bits.
    """
    _check_tol(tol)
    d = keys.shape[1]
    T, _, _ = _horizon((radius,) * d, 0, 0.0, tol)
    t, w = _panel_nodes(_edges(0.25 / (d + 1.0), T), 48)
    V = ive(np.arange(radius + 1)[:, None], 2.0 * t)
    # the tail midpoints; each chunk of rows then adds its head
    out, _ = _envelope_tail(d, 0, 0.0, T, _env_a(keys).sum(axis=1), 0.0)
    chunk = max(1, _CHUNK_FLOATS // t.size)
    for lo in range(0, len(keys), chunk):
        ks = keys[lo:lo + chunk]
        prod = w * V[ks[:, 0]]
        for i in range(1, d):
            prod *= V[ks[:, i]]
        out[lo:lo + chunk] += prod.sum(axis=1)
    return out


def _green_box_sums(d: int, radius: int, tol: float) -> Tuple[float, float, float]:
    """(G(0), sum G^2, sum |grad G|^2) over the radius-R cube, G zero outside.

    Each multiset counts with its orbit size.  The d axes give equal gradient
    sums; on axis 1, G along a line is h(|x_1|) with the other |x_i| fixed,
    with squared gradient 2 sum_{k<R} (h(k+1) - h(k))^2 + 2 h(R)^2.
    """
    keys, mult = _multisets(d, radius)
    g = _green_table(keys, radius, tol)
    # exactly rounded sums: a BLAS dot splits long ones by thread count
    sq = math.fsum(mult * (g * g))
    rest, mult_rest = _multisets(d - 1, radius)
    lines = np.empty((len(rest), radius + 1, d), dtype=np.int64)
    lines[:, :, 0] = np.arange(radius + 1)
    lines[:, :, 1:] = rest[:, None, :]
    lines.sort(axis=2)
    h = g[_rows(keys, radius, lines)]
    per_line = 2.0 * np.sum(np.diff(h, axis=1) ** 2, axis=1) + 2.0 * h[:, radius] ** 2
    return float(g[0]), sq, d * math.fsum(mult_rest * per_line)


def green_box_values(d: int, radius: int, tol: float = 1e-9) -> np.ndarray:
    """G_d(x) for every x in {-R,...,R}^d, as a C-contiguous array of shape
    (2R+1,)*d: the uncertified _green_table values, scattered through _rows
    one (2R+1)^(d-1) slab at a time, so the index arrays stay a factor 2R+1
    smaller than the result.  spectral.f0_rayleigh reads _green_box_sums
    instead; this whole-cube form is the tests' oracle for those sums.
    """
    if d <= 2:
        raise ValueError(f"G_d diverges for d={d} <= 2")
    if radius < 0:
        raise ValueError(f"box radius must be >= 0, got R={radius}")
    L = 2 * radius + 1
    if L ** d > 60_000_000:
        raise CapacityError(f"green value grid (2R+1)^d = {L}^{d} too large")
    keys, _ = _multisets(d, radius)
    table = _green_table(keys, radius, tol)

    # slabs i and L-1-i of the first axis hold the same values
    absk = np.abs(np.arange(-radius, radius + 1)).astype(np.int16)
    idx = np.unravel_index(np.arange(L ** (d - 1)), (L,) * (d - 1))
    rest = np.stack([absk[i] for i in idx], axis=1)
    out = np.empty((L,) * d)
    for k in range(radius + 1):
        slab = np.concatenate([np.full((len(rest), 1), k, dtype=np.int16), rest], axis=1)
        slab.sort(axis=1)
        out[radius + k] = out[radius - k] = table[_rows(keys, radius, slab)].reshape(out.shape[1:])
    return out
