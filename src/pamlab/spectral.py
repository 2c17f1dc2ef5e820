"""Spectral side of the model: mu(kappa), the p-particle operator, and
variational eigenvalue bounds.

The central object is the symmetric operator

    L_p f = kappa * Delta_x f + rho * Delta_y f + I_p f,
    I_p(x, y) = sum_{j<=p, k<=n} delta_0(x_j - y_k),

acting on l^2 of the d(p+n)-dimensional lattice; the p-th annealed Lyapunov
exponent is (1/p) sup of its Rayleigh quotient.  Restricting to a centered
box with zero (Dirichlet) extension restricts the admissible set, so every
box eigenvalue reported here is a certified lower bound of the full
exponent, and the estimates are non-decreasing in the box radius.

L_p commutes with shifting all p+n walks at once.  lambda_spectral therefore
works in the frame of catalyst 1, z = (x_j - y_1, y_k - y_1 for k >= 2) in
Z^{d(p+n-1)}: there L_p's zero-total-momentum fiber H_0 has walkers hopping
at rate kappa, catalysts k >= 2 at rate rho, and catalyst 1's moves become
rate-rho diagonal hops that shift every block at once.  A radius-R estimate
solves the frame box of radius 2R.  It stays certified, and is never below
the full box of radius R, because for f on that box each fiber f_k lives in
the frame box of radius 2R, and <f_k, H_k f_k> <= <|f_k|, H_0 |f_k|> since
H_k's off-diagonals are H_0's times phases:

    theta_full(R) <= theta_frame(2R) <= sup spec H_0 <= p * lambda_p.

The frame box is not solved whole.  H_0 on it commutes with the group
G = S_p x S_{n-1} x B_d: permutations of the walker blocks, permutations of
the catalyst blocks k >= 2, and the 2^d d! signed axis permutations B_d
applied to every block at once.  Each g in G acts as a permutation matrix.
H_0 + shift is symmetric with non-negative entries, so by Perron-Frobenius
it has a non-negative top eigenvector v, and sum_g g v is a non-zero,
non-negative, G-invariant top eigenvector, even where H_0 is reducible
(kappa = 0, or rho = 0 with n >= 2).  The top eigenvalue is therefore that
of the quotient on the orbit basis e_O = 1_O / sqrt|O|,

    Q[O, O'] = sqrt(|O| / |O'|) * sum_{y in O'} H_0(x_O, y),

a symmetric matrix with one row per orbit (255 orbits for the 15,625-site
box at d=3, p=2, n=1, R=1).  For f = sum_O c_O e_O, ||f|| = ||c||,
<f, H_0 f> = <c, Q c> and ||H_0 f - theta f|| = ||Q c - theta c||, so a
quotient Ritz value is a Rayleigh quotient of H_0, a certified lower bound
with the same residual certificate.  The orbits and the hop counts between
them depend only on (d, p, n, radius) and are built once per box shape, with
no site loop: up to B_d a frame site is the sorted multiset of its d axis
columns taken up to sign, which greens._multisets enumerates.

top_eigen keeps the full operator: it is the small-box oracle, the base of
tensor_gap, and the route on which the swap symmetry
lambda_p^(n)(kappa, rho) = (n/p) lambda_n^(p)(rho, kappa) is exact per box.

mu(kappa) is the top of the spectrum of kappa*Delta + delta_0 on l^2(Z^d):
1 for kappa = 0, the root of the resolvent identity
1 = int_0^inf e^{-mu t} (e^{-2 kappa t} I0(2 kappa t))^d dt for
0 < kappa < G_d(0), and 0 beyond.  Several exact limits of the exponent are
expressed through mu, which is what makes it a useful oracle for the
eigensolver.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import greens
from ._brent import brentq
from .lattice import (
    Box,
    DimensionMismatchError,
    Field,
    build_box,
    grad_sq_norm,
    lap_grid,
    norms,
)

__all__ = [
    "PamParams",
    "LyapunovEstimate",
    "ConvergenceError",
    "mu",
    "mu_inverse",
    "apply_generator",
    "top_eigen",
    "lambda_spectral",
    "tensor_gap",
    "TensorGap",
    "check_gn",
    "f0_rayleigh",
    "F0Bound",
]


@dataclass(frozen=True)
class PamParams:
    """One model instance: dimension, catalyst count, moment order, rates."""

    d: int
    n: int
    p: int
    kappa: float
    rho: float

    def __post_init__(self):
        if self.d < 1 or self.n < 1 or self.p < 1:
            raise ValueError(f"d, n, p must be positive integers, got {self}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ValueError(f"rho must be finite and >= 0, got {self.rho}")

    @property
    def m(self) -> int:
        """Total lattice dimension d*(p+n) of the operator's configuration space."""
        return self.d * (self.p + self.n)

    def swapped(self) -> "PamParams":
        """The symmetry partner (d, p, n, rho, kappa)."""
        return PamParams(d=self.d, n=self.p, p=self.n, kappa=self.rho, rho=self.kappa)


@dataclass(frozen=True)
class LyapunovEstimate:
    """A box estimate of lambda_p^{(n)} with provenance.

    value is a certified lower bound (a Rayleigh quotient on a Dirichlet
    box); error is the residual-based bound on the distance to the box's own
    top eigenvalue, scaled to the lambda = theta/p axis, and solver ("dense"
    or "arpack"), dim and matvecs record how the eigenproblem was solved.
    """

    params: PamParams
    value: float
    error: float
    radius: int | None = None
    converged: bool = True
    solver: str | None = None    # "dense" | "arpack"
    dim: int | None = None       # unknowns solved: orbits (lambda_spectral) or sites
    matvecs: int | None = None   # operator applications, dense assembly included


class ConvergenceError(RuntimeError):
    """Eigensolver ran out of iterations; carries the best iterate found."""

    def __init__(self, message: str, best: LyapunovEstimate, residual: float):
        super().__init__(message)
        self.best = best
        self.residual = residual


# ---------------------------------------------------------------------------
# mu and its inverse
# ---------------------------------------------------------------------------

# The smallest tol mu and mu_inverse accept.  Their resolvent integrals are
# asked for quad_tol = min(1e-12, 0.01*tol), and greens._certified_integral
# cannot certify much below 1e-14 (its rounding term is 1e-15).  Over 40
# kappa in [0.01, 0.99 G_d(0)], the largest abs_error/quad_tol is 0.37 at
# d = 3 and 0.29 at d = 5 for tol = 1e-12, but 1.45 and 1.21 for tol = 1e-13.
_MU_TOL_FLOOR = 1e-12


def _check_mu_tol(tol: float) -> None:
    if not tol >= _MU_TOL_FLOOR:
        raise ValueError(
            f"tol must be >= {_MU_TOL_FLOOR:g}, the certified quadrature floor; got {tol}")


def _resolvent_minus_one(d: int, kappa: float, m: float, quad_tol: float) -> float:
    # int_0^inf e^{-m t} (e^{-2 kappa t} I0(2 kappa t))^d dt - 1, via u = kappa t.
    # Non-strict: far from the root (tiny m, d <= 2) the integral is huge and
    # only its sign matters; near the root the certification succeeds anyway.
    val, _ = greens._certified_integral((0,) * d, 0, m / kappa, quad_tol, strict=False)
    return val / kappa - 1.0


@lru_cache(maxsize=65536)
def _mu_cached(d: int, kappa: float, tol: float) -> float:
    if 2.0 * d * kappa <= 0.5 * tol:
        # 1 - 2 d kappa <= mu <= 1 (test function delta_0): 1 within tol/2.
        # Also keeps the quadrature's m/kappa finite at subnormal kappa.
        return 1.0
    if d >= 3:
        gz = greens.green_zero(d, min(tol, 1e-10)).value
        if kappa >= gz:
            return 0.0
    quad_tol = min(1e-12, 0.01 * tol)
    lo, hi = 0.5 * tol, 1.0 + 4.0 * d * kappa
    if _resolvent_minus_one(d, kappa, lo, quad_tol) < 0.0:
        return 0.5 * lo  # root below the resolution floor; equivalent to 0 at tol
    root = brentq(lambda m: _resolvent_minus_one(d, kappa, m, quad_tol),
                  lo, hi, xtol=0.5 * tol, rtol=4 * np.finfo(float).eps)
    # the root-find's error may overshoot the theorem bound mu <= 1 at tiny kappa
    return min(root, 1.0)


def mu(d: int, kappa: float, tol: float = 1e-10) -> float:
    """Top of the spectrum of kappa*Delta + delta_0 on l^2(Z^d).

    Exactly 1 for kappa <= tol/(4d), where 1 - 2 d kappa <= mu <= 1 already
    pins it within tol/2; exactly 0 for kappa >= G_d(0) (d >= 3); otherwise
    the unique positive root of the diagonal resolvent identity, found by
    Brent's method (_brent.brentq, a port of scipy's brentq) over
    [tol/2, 1 + 4 d kappa] on certified quadrature values and clamped to
    [0, 1].  Continuous, non-increasing and convex in kappa.  tol must be at
    least 1e-12 (_MU_TOL_FLOOR).
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    _check_mu_tol(tol)
    if not (math.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    return _mu_cached(d, float(kappa), float(tol))


@lru_cache(maxsize=8192)
def _mu_inverse_cached(d: int, t: float, tol: float) -> float:
    if t >= 1.0:
        return 0.0
    if d <= 2 and t == 0.0:
        raise ValueError(
            f"mu_inverse(d={d}, 0) diverges: G_d(0) is infinite for d <= 2")
    quad_tol = min(1e-12, 0.01 * tol)
    f = lambda k: _resolvent_minus_one(d, k, t, quad_tol)
    if d >= 3:
        hi = greens.green_zero(d, min(tol, 1e-10)).value
        if t == 0.0 or f(hi) > 0.0:
            return hi
    else:
        hi = 1.0
        while f(hi) > 0.0:  # mu(d, hi) > t
            hi *= 2.0
    lo = 0.25 * tol / d  # f divides by kappa; below lo, mu is 1 within tol/2
    if f(lo) < 0.0:
        return 0.5 * lo  # root below the resolution floor; equivalent to 0 at tol
    return brentq(f, lo, hi, xtol=0.5 * tol, rtol=4 * np.finfo(float).eps)


def mu_inverse(d: int, t: float, tol: float = 1e-10) -> float:
    """Inverse of kappa -> mu(d, kappa), extended by 0 for t > 1.

    For t in [0, 1] returns the unique kappa in [0, G_d(0)] with
    mu(d, kappa) = t (d >= 3); mu_inverse(d, 0) diverges for d <= 2.

    One bracketed root-find in kappa on the resolvent identity at m = t,

        int_0^inf e^{-t s} (e^{-2 kappa s} I0(2 kappa s))^d ds - 1 = 0,

    with no inner root-find over m.  The residual is strictly decreasing in
    kappa, because e^{-x} I0(x) is strictly decreasing in x, and it tends to
    1/t - 1 > 0 as kappa -> 0; so it has one root, and mu(d, kappa) > t
    exactly where it is positive.  The bracket is [tol/(4d), G_d(0)] for
    d >= 3 and [tol/(4d), 2^j] for d <= 2, doubling until the residual
    turns negative.  tol must be at least 1e-12, as for mu.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    _check_mu_tol(tol)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    return _mu_inverse_cached(d, float(t), float(tol))


# ---------------------------------------------------------------------------
# the operator L_p on a box
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _collision_counts(d: int, p: int, n: int, radius: int) -> np.ndarray:
    """I_p as a flat vector over the full box: at each site, the number of
    walker-catalyst pairs (j, k) with x_j = y_k."""
    m = d * (p + n)
    L = 2 * radius + 1
    coords = np.arange(-radius, radius + 1)

    def coord(block: int, i: int) -> np.ndarray:
        shape = [1] * m
        shape[block * d + i] = L
        return coords.reshape(shape)

    counts = np.zeros((L,) * m, dtype=np.float64)
    for j in range(p):
        for k in range(p, p + n):
            eq = np.bool_(True)
            for i in range(d):
                eq = eq & (coord(j, i) == coord(k, i))
            counts += eq
    out = counts.reshape(-1, order="F")
    out.flags.writeable = False
    return out


def apply_generator(params: PamParams, f: Field) -> Field:
    """L_p f = kappa*Delta_x f + rho*Delta_y f + I_p f on f's box (Dirichlet)."""
    if f.box.m != params.m:
        raise DimensionMismatchError(
            f"field lives on an m={f.box.m} box, operator needs m=d(p+n)={params.m}")
    out = _apply_flat(params, f.box, f.values)
    return Field(f.box, out)


def _apply_flat(params: PamParams, box: Box, v: np.ndarray,
                shift: float = 0.0) -> np.ndarray:
    """L_p v (+ shift v) on the full box, with v flat in F order, or L_p
    applied to each column of a (sites, k) block v; every column's result
    is the same to the last bit as applying L_p to that column alone."""
    ip = _collision_counts(params.d, params.p, params.n, box.radius)
    if v.ndim == 2:
        ip = ip[:, None]
    out = (ip + shift) * v if shift else ip * v
    g = v.reshape(box.shape + v.shape[1:], order="F")
    walkers = params.d * params.p    # the axes of x_1..x_p come first
    for rate, axes in ((params.kappa, range(walkers)), (params.rho, range(walkers, box.m))):
        if rate:
            out += rate * lap_grid(g, axes).reshape(v.shape, order="F")
    return out


# ---------------------------------------------------------------------------
# the frame operator on its symmetric sector
# ---------------------------------------------------------------------------

def _orbit_keys(z: np.ndarray, p: int, radius: int) -> np.ndarray:
    """A label of each site's orbit under S_p x S_{n-1} x B_d.

    z has shape (sites, p+n-1, d): walker blocks, then catalysts k >= 2.
    The label is the minimum over the group of an encoding of the image,
    read as base-(2*radius+1) digits of z + radius that run axis by axis,
    each axis's column block by block.  The function enumerates the
    p!(n-1)! block orders: for each, the smaller of each column and its
    negation, sorted, is the minimum over B_d.
    """
    sites, blocks, d = z.shape
    L = 2 * radius + 1
    C = L ** blocks
    u = z + radius
    key = None
    for walkers in itertools.permutations(range(p)):
        for catalysts in itertools.permutations(range(p, blocks)):
            order = walkers + catalysts
            cols = u[:, order[0], :]
            for b in order[1:]:
                cols = cols * L + u[:, b, :]
            cols = np.minimum(cols, C - 1 - cols)
            cols.sort(axis=1)
            k = cols[:, 0]
            for i in range(1, d):
                k = k * C + cols[:, i]
            key = k if key is None else np.minimum(key, k)
    return key


class _Quotient(NamedTuple):
    """The frame operator's parts on the orbit basis e_O = 1_O / sqrt|O|.

    kappa_hops and rho_hops hold the hop counts between orbits,
    sum_{x in O, y in O'} A(x, y) / sqrt(|O| |O'|), of the walker hops and
    of the catalyst and diagonal hops; collisions holds I_p on each orbit.
    """

    sizes: np.ndarray
    collisions: np.ndarray
    kappa_hops: sparse.csr_matrix
    rho_hops: sparse.csr_matrix
    center: int                # the orbit of z = 0, a fixed point


@lru_cache(maxsize=8)
def _quotient(d: int, p: int, n: int, radius: int) -> _Quotient:
    """Orbits of the radius frame box and the operator's parts between them.

    A site is d columns, each coding one axis in every block base
    L = 2*radius+1 as in _orbit_keys.  greens._multisets(d, half) lists its
    B_d-orbits with their sizes, value v the column coded half + v, and
    _orbit_keys merges them into orbits of G.  The hops are read off one
    representative per orbit: x in O has as many neighbours in O' as x_O.
    """
    blocks = p + n - 1
    build_box(d * blocks, radius)    # the frame box must stay within lattice.MAX_SITES
    L = 2 * radius + 1
    half = (L ** blocks - 1) // 2
    cols, mult = greens._multisets(d, half)
    place = L ** np.arange(blocks - 1, -1, -1)      # block 0 is the leading digit
    reps = (half + cols)[:, None, :] // place[:, None] % L - radius
    labels, first, which = np.unique(_orbit_keys(reps, p, radius),
                                     return_index=True, return_inverse=True)
    sizes = np.bincount(which, weights=mult).astype(np.int64)
    z = reps[first]

    walkers = z[:, :p, None, :]
    others = np.concatenate((np.zeros_like(z[:, :1]), z[:, p:]), axis=1)[:, None]
    collisions = (walkers == others).all(axis=3).sum(axis=(1, 2)).astype(np.float64)

    def hops(steps):
        rows, cols = [], []
        for step in steps:
            for nb in (z + step, z - step):
                inside = (np.abs(nb) <= radius).all(axis=(1, 2))
                rows.append(np.flatnonzero(inside))
                cols.append(labels.searchsorted(
                    _orbit_keys(nb[inside], p, radius)))
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        counted = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)),
                                    shape=(len(labels),) * 2)
        counted.sum_duplicates()
        # |O| * (neighbours of x_O in O') counts the hops between O and O'
        # both ways, so these entries are symmetric to the last bit
        r, c = counted.row, counted.col
        counted.data = counted.data * sizes[r] / np.sqrt(sizes[r] * sizes[c])
        return counted.tocsr()

    def unit(cells):
        step = np.zeros((blocks, d), dtype=np.int64)
        for cell in cells:
            step[cell] = 1
        return step

    kappa_hops = hops([unit([(j, i)]) for j in range(p) for i in range(d)])
    rho_hops = hops([unit([(k, i)]) for k in range(p, blocks) for i in range(d)]
                    + [unit([(b, i) for b in range(blocks)]) for i in range(d)])
    center = int(which[0])    # row 0, the all-zero multiset, is the site z = 0
    return _Quotient(sizes, collisions, kappa_hops, rho_hops, center)


# ---------------------------------------------------------------------------
# top eigenpair
# ---------------------------------------------------------------------------

class _Solution(NamedTuple):
    theta: float               # includes the shift
    vec: np.ndarray
    residual: float
    converged: bool
    solver: str                # "dense" | "arpack"
    matvecs: int


def _start_vector(box: Box) -> np.ndarray:
    v = np.full(box.size, 1e-3)
    v[(box.size - 1) // 2] += 1.0  # the all-zero configuration is the center index
    return v / np.linalg.norm(v)


# At most this many unknowns (orbits for lambda_spectral, sites for
# top_eigen) are solved densely, on the assembled matrix; larger problems
# go to ARPACK.
_DENSE_CUTOFF = 600

# ARPACK's Lanczos basis size (ncv) and restart count (maxiter): the former
# defaults, ncv = min(40, size - 1) and maxiter = max(4, 800 // ncv), as they
# come out on every problem ARPACK sees, which has more than _DENSE_CUTOFF
# unknowns.
_NCV = 40
_MAXITER = 20


def _top_pair(A, v0: np.ndarray, tol: float, scale: float) -> _Solution:
    """Top eigenpair of the symmetric operator A (a sparse matrix or a
    LinearOperator); converged means residual ||A v - theta v||_2 <= tol,
    and scale bounds ||A||.

    At most _DENSE_CUTOFF unknowns, A is assembled in one product A @ I and
    LAPACK's MRRR driver (syevr) computes its top eigenpair alone, at the
    cost of size + 1 operator applications; larger problems go to
    _krylov_top from v0.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    size = v0.size
    if size > _DENSE_CUTOFF:
        return _krylov_top(A.dot, v0, tol, scale)
    w, V = eigh(A.dot(np.eye(size)), subset_by_index=[size - 1, size - 1])
    theta = float(w[0])
    vec = V[:, 0]
    res = float(np.linalg.norm(A.dot(vec) - theta * vec))
    return _Solution(theta, vec, res, res <= tol, "dense", size + 1)


def _krylov_top(matvec, v0: np.ndarray, tol: float, scale: float) -> _Solution:
    """Implicitly-restarted Lanczos (ARPACK) plus explicit residual certification.

    ARPACK's stopping rule is relative and internal; convergence here is
    declared only from our own residual ||A v - theta v|| <= tol, and a
    pair that misses it is returned unconverged.  With k=1, ARPACK raises
    ArpackNoConvergence only when no Ritz value converged, and then returns
    none; the best iterate is then the unit start vector.  Either way theta
    is a Rayleigh quotient, so even an unconverged pair is a lower bound.
    """
    mv_count = 0

    def counted(x):
        nonlocal mv_count
        mv_count += 1
        return matvec(np.asarray(x, dtype=np.float64).ravel())

    size = v0.size
    A = LinearOperator((size, size), matvec=counted, dtype=np.float64)
    try:
        w, V = eigsh(A, k=1, which="LA", v0=v0, ncv=_NCV, maxiter=_MAXITER,
                     tol=0.1 * tol / scale)
    except ArpackNoConvergence:
        u = v0 / np.linalg.norm(v0)
        Au = matvec(u)
        theta = float(np.dot(u, Au))
    else:
        theta, u = float(w[0]), V[:, 0]
        Au = matvec(u)
    res = float(np.linalg.norm(Au - theta * u))
    return _Solution(theta, u, res, res <= tol, "arpack", mv_count + 1)


def _shift(params: PamParams) -> float:
    # 4 * (sum of hop rates), the same in both frames: makes L_p + shift >= 0
    return 4.0 * params.d * (params.p * params.kappa + params.n * params.rho)


def _scale(params: PamParams, shift: float) -> float:
    # bounds ||L_p + shift||: the hops add at most shift, I_p at most n p
    return shift + params.n * params.p + 1.0


def _certified(params: PamParams, R: int, shift: float, sol: _Solution,
               tol: float) -> LyapunovEstimate:
    """The estimate of a solve; raises ConvergenceError if it did not converge."""
    value = (sol.theta - shift) / params.p
    est = LyapunovEstimate(params=params, value=value,
                           error=sol.residual / params.p, radius=R,
                           converged=sol.converged, solver=sol.solver,
                           dim=sol.vec.size, matvecs=sol.matvecs)
    if not sol.converged:
        how = ("by the dense top-eigenpair solve" if sol.solver == "dense"
               else f"after {sol.matvecs} operator applications")
        raise ConvergenceError(
            f"eigensolver did not reach residual {tol:g} {how} "
            f"(best value {value:.12g}, residual {sol.residual:.3g})",
            best=est, residual=sol.residual)
    return est


def top_eigen(params: PamParams, R: int, tol: float = 1e-8) -> LyapunovEstimate:
    """(1/p) * top Dirichlet eigenvalue of L_p on the radius-R box.

    A certified lower bound of lambda_p^{(n)}; raises ConvergenceError (with
    the best iterate attached) if the residual ||L v - theta v||_2 does not
    reach tol.
    """
    est, _ = _top_eigen_vec(params, R, tol)
    return est


def _top_eigen_vec(params: PamParams, R: int, tol: float) -> tuple[LyapunovEstimate, np.ndarray]:
    """Top eigenpair of L_p on the full radius-R box."""
    box = build_box(params.m, R)
    shift = _shift(params)
    apply = lambda v: _apply_flat(params, box, v, shift)
    A = LinearOperator((box.size, box.size), matvec=apply, matmat=apply, dtype=np.float64)
    sol = _top_pair(A, _start_vector(box), tol, _scale(params, shift))
    return _certified(params, R, shift, sol, tol), sol.vec


def _quotient_top(params: PamParams, R: int, tol: float) -> LyapunovEstimate:
    """(1/p) * top eigenvalue of the frame box of radius 2R, solved on the
    functions invariant under S_p x S_{n-1} x B_d (module docstring)."""
    d, n, p = params.d, params.n, params.p
    q = _quotient(d, p, n, 2 * R)
    shift = _shift(params)
    # the Dirichlet diagonal -2 d (p kappa + n rho), plus I_p and the shift
    diagonal = q.collisions + (shift - 2.0 * d * (p * params.kappa + n * params.rho))
    Q = (params.kappa * q.kappa_hops + params.rho * q.rho_hops
         + sparse.diags(diagonal)).tocsr()
    # the start vector of the full frame box, projected on the orbit basis
    v0 = 1e-3 * np.sqrt(q.sizes)
    v0[q.center] += 1.0
    sol = _top_pair(Q, v0 / np.linalg.norm(v0), tol, _scale(params, shift))
    return _certified(params, R, shift, sol, tol)


def lambda_spectral(params: PamParams, radii: Sequence[int],
                    tol: float = 1e-8) -> list[LyapunovEstimate]:
    """Box estimates over strictly increasing radii.

    Radius R is solved on the catalyst-frame box of radius 2R, restricted to
    its symmetric sector (see the module docstring); the value is at least
    the full radius-R box value.  Values are non-decreasing in R (nested
    admissible sets) and each is a certified lower bound; the final entry's
    ``converged`` flag records whether the last increment fell below tol,
    which is also each solve's residual target.  If a solve fails below an
    earlier radius's converged value, its ConvergenceError carries that
    larger proven bound as best, marked unconverged.
    """
    radii = list(radii)
    if not radii:
        raise ValueError("radii must be nonempty")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be strictly increasing, got {radii}")
    if radii[0] < 0:
        raise ValueError(f"box radius must be >= 0, got R={radii[0]}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    out = []
    for R in radii:
        try:
            out.append(_quotient_top(params, R, tol))
        except ConvergenceError as exc:
            prev = max(out, key=lambda e: e.value, default=exc.best)
            if prev.value <= exc.best.value:
                raise
            raise ConvergenceError(
                f"{exc} at R={R}; R={prev.radius} converged to the larger bound "
                f"{prev.value:.12g}", replace(prev, converged=False), exc.residual) from exc
    if len(out) >= 2:
        settled = abs(out[-1].value - out[-2].value) < tol
        out[-1] = replace(out[-1], converged=settled)
    return out


# ---------------------------------------------------------------------------
# tensor-product second moment bound
# ---------------------------------------------------------------------------

class TensorGap(NamedTuple):
    lambda1: float
    gap: float
    rayleigh2: float


def tensor_gap(params: PamParams, R: int, tol: float = 1e-10) -> TensorGap:
    """Lower-bound the p=2 exponent from the p=1 eigenfunction f.

    Builds f~(x1,x2,y) = f(x1,y) f(x2,y) and evaluates its p=2 Rayleigh
    quotient two ways: directly through apply_generator, and through the
    identity rayleigh2 = lambda1 + gap with

        gap = (rho/2) sum_{y, z~y} (sum_x f(x,y)(f(x,z) - f(x,y)))^2 / |f~|_2^2,

    which holds exactly for an exact box eigenfunction (completing the square
    in the y-Laplacian cross term).  Certifies lambda_2 >= lambda_1 + gap on
    the box.  Requires p = 1.
    """
    if params.p != 1:
        raise ValueError(f"tensor_gap needs p=1 parameters, got p={params.p}")
    est, vec = _top_eigen_vec(params, R, tol)
    d, n = params.d, params.n
    L = 2 * R + 1
    A = L ** d          # x-block size
    Y = L ** (d * n)    # y-block size
    M = vec.reshape((A, Y), order="F")

    gram = M.T @ M                       # gram[y, z] = sum_x f(x,y) f(x,z)
    diag = np.ascontiguousarray(np.diag(gram))
    norm_sq = float(np.dot(diag, diag))  # |f~|_2^2 = sum_y N(y)^2
    if norm_sq <= 0.0 or not np.isfinite(norm_sq):
        raise ValueError("degenerate eigenvector: |f~|_2 = 0")

    codes = np.arange(Y).reshape((L,) * (d * n), order="F")
    total = 0.0
    for ax in range(d * n):
        sel = [slice(None)] * (d * n)
        sel[ax] = slice(0, L - 1)
        lo = codes[tuple(sel)].reshape(-1)
        sel[ax] = slice(1, L)
        hi = codes[tuple(sel)].reshape(-1)
        for a, b in ((lo, hi), (hi, lo)):     # ordered pairs (y, z = y +- e)
            s = gram[a, b] - diag[a]
            total += float(np.dot(s, s))
        for edge in (0, L - 1):               # z outside the box: C(y,z) = 0
            sel[ax] = edge
            face = diag[codes[tuple(sel)].reshape(-1)]
            total += float(np.dot(face, face))
    gap = 0.5 * params.rho * total / norm_sq

    # independent route: materialize f~ and apply the p=2 operator
    f2 = np.einsum("ay,by->aby", M, M).reshape(-1, order="F")
    params2 = PamParams(d=d, n=n, p=2, kappa=params.kappa, rho=params.rho)
    lf2 = _apply_flat(params2, build_box(params2.m, R), f2)
    rayleigh2 = float(np.dot(f2, lf2)) / (2.0 * norm_sq)

    lam1 = est.value
    scale = 1.0 + abs(lam1) + gap
    slack = 100.0 * est.error + 1e-11 * scale
    if abs(rayleigh2 - (lam1 + gap)) > slack:
        raise ArithmeticError(
            f"tensor identity violated: rayleigh2={rayleigh2!r} vs "
            f"lambda1+gap={lam1 + gap!r} (allowed {slack:.3g})")
    return TensorGap(lambda1=lam1, gap=gap, rayleigh2=rayleigh2)


# ---------------------------------------------------------------------------
# Gagliardo-Nirenberg checks (d = 1, 2)
# ---------------------------------------------------------------------------

def check_gn(f: Field, d: int) -> tuple[float, float, bool]:
    """Discrete Gagliardo-Nirenberg inequality with constant 2.

    d=1:  |f|_inf^2 <= 2 |f|_2 |grad f|_2;  d=2:  |f|_4^2 <= 2 |f|_2 |grad f|_2.
    Returns (lhs, rhs, lhs <= rhs).
    """
    if d not in (1, 2):
        raise ValueError(f"inequality implemented for d in {{1,2}}, got d={d}")
    if f.box.m != d:
        raise DimensionMismatchError(
            f"field lives on an m={f.box.m} box, expected m=d={d}")
    l2, l4, linf = norms(f)
    grad = math.sqrt(grad_sq_norm(f, range(1, d + 1)))
    lhs = linf ** 2 if d == 1 else l4 ** 2
    rhs = 2.0 * l2 * grad
    return lhs, rhs, lhs <= rhs


# ---------------------------------------------------------------------------
# explicit test function f0 for the critical-kappa lower bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class F0Bound:
    """Rayleigh-type ratio of the product test function f0 on a box.

    f0(x, y) = prod_j g(x_j) * prod_k delta_0(y_k) with g the box-truncated,
    box-normalized Green function.  value = (ip_mass - rho*grad_y_sq)/grad_x_sq
    lower-bounds the critical kappa; the three constituents converge to
    n p G_d(0)^2/|G_d|_2^2,  2 d n,  and  p G_d(0)/|G_d|_2^2.
    """

    d: int
    n: int
    p: int
    rho: float
    radius: int
    value: float
    ip_mass: float
    grad_y_sq: float
    grad_x_sq: float

    def __float__(self) -> float:
        return self.value


def f0_rayleigh(d: int, n: int, p: int, rho: float, R: int,
                tol: float = 1e-9) -> F0Bound:
    """Evaluate the critical-kappa lower-bound functional of f0 on a box.

    As R grows the value tends to n G_d(0) - rho n/(p alpha_d); requires
    d >= 5 so that |G_d|_2 is finite.  g(0) and the sums of g^2 and
    |grad g|^2 over the cube come from greens' table of G_d, one value per
    multiset of |x_i|, so memory is O(C(R+d, d)), not O((2R+1)^d).
    """
    if d <= 4:
        raise ValueError(f"f0 bound needs |G_d|_2 < inf, i.e. d >= 5; got d={d}")
    if n < 1 or p < 1 or not (math.isfinite(rho) and rho >= 0) or R < 0:
        raise ValueError(f"bad parameters n={n}, p={p}, rho={rho}, R={R}")
    center, s2, grad_sq = greens._green_box_sums(d, R, tol)   # g = G / sqrt(s2)
    ip_mass = n * p * (center * center / s2)     # sum I_p f0^2 over the product box
    grad_y_sq = 2.0 * d * n       # exact: delta_0 factors, zero-extended
    grad_x_sq = p * (grad_sq / s2)
    value = (ip_mass - rho * grad_y_sq) / grad_x_sq
    return F0Bound(d=d, n=n, p=p, rho=rho, radius=R, value=value,
                   ip_mass=ip_mass, grad_y_sq=grad_y_sq, grad_x_sq=grad_x_sq)
