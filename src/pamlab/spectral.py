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

No box is solved whole.  H_0 on the frame box commutes with the group
G = S_p x S_{n-1} x B_d: permutations of the walker blocks, permutations of
the catalyst blocks k >= 2, and the 2^d d! signed axis permutations B_d
applied to every block at once; L_p on the full box, with S_p x S_n x B_d.
Each g in G acts as a permutation matrix.  H_0 + shift is symmetric with
non-negative entries, so by Perron-Frobenius it has a non-negative top
eigenvector v, and sum_g g v is a non-zero, non-negative, G-invariant top
eigenvector, even where H_0 is reducible (kappa = 0, or rho = 0 with
n >= 2).  The top eigenvalue is therefore that of the quotient on the orbit
basis e_O = 1_O / sqrt|O|,

    Q[O, O'] = sqrt(|O| / |O'|) * sum_{y in O'} H_0(x_O, y),

a symmetric matrix with one row per orbit (255 orbits for the 15,625-site
box at d=3, p=2, n=1, R=1).  For f = sum_O c_O e_O, ||f|| = ||c||,
<f, H_0 f> = <c, Q c> and ||H_0 f - theta f|| = ||Q c - theta c||, so a
quotient Ritz value is a Rayleigh quotient of H_0, a certified lower bound
with the same residual certificate.  The orbits and the hop counts between
them depend only on the box shape and are built once per shape, with no
site loop: up to B_d a site is the sorted multiset of its d axis columns
taken up to sign, which greens._multisets enumerates.

top_eigen solves the full box on its sector the same way: it is the base
of tensor_gap, and the route on which the swap symmetry
lambda_p^(n)(kappa, rho) = (n/p) lambda_n^(p)(rho, kappa) is exact per box.

mu(kappa) is the top of the spectrum of kappa*Delta + delta_0 on l^2(Z^d):
1 for kappa = 0, the root of the resolvent identity
1 = int_0^inf e^{-mu t} (e^{-2 kappa t} I0(2 kappa t))^d dt for
0 < kappa < G_d(0), and 0 beyond.  Several exact limits of the exponent are
expressed through mu, which is what makes it a useful oracle for the
eigensolver.
"""
from __future__ import annotations

import ctypes
import itertools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache, lru_cache
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
    dim: int | None = None       # unknowns solved: orbits of the box's sector
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
# d = 3 and 0.29 at d = 5 for tol = 1e-12, but 1.48 and 1.21 for tol = 1e-13.
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
    # memoized per root-find: the sign test and brentq share f(lo)
    f = cache(lambda m: _resolvent_minus_one(d, kappa, m, quad_tol))
    lo, hi = 0.5 * tol, 1.0 + 4.0 * d * kappa
    if f(lo) < 0.0:
        return 0.5 * lo  # root below the resolution floor; equivalent to 0 at tol
    root = brentq(f, lo, hi, xtol=0.5 * tol, rtol=4 * np.finfo(float).eps)
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
    # memoized per root-find: the bracket tests and brentq share f(lo), f(hi)
    f = cache(lambda k: _resolvent_minus_one(d, k, t, quad_tol))
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


def _apply_flat(params: PamParams, box: Box, v: np.ndarray) -> np.ndarray:
    """L_p v on the full box, with v flat in F order."""
    out = _collision_counts(params.d, params.p, params.n, box.radius) * v
    g = v.reshape(box.shape, order="F")
    walkers = params.d * params.p    # the axes of x_1..x_p come first
    for rate, axes in ((params.kappa, range(walkers)), (params.rho, range(walkers, box.m))):
        if rate:
            out += rate * lap_grid(g, axes).reshape(-1, order="F")
    return out


# ---------------------------------------------------------------------------
# the box operators on their symmetric sectors
# ---------------------------------------------------------------------------

def _orbit_keys(z: np.ndarray, p: int, radius: int) -> np.ndarray:
    """A label of each site's orbit under S_p x S_c x B_d.

    z has shape (sites, p+c, d): walker blocks, then c catalyst blocks.
    The label is the minimum over the group of an encoding of the image,
    read as base-(2*radius+1) digits of z + radius that run axis by axis,
    each axis's column block by block.  The function enumerates the
    p! c! block orders: for each, the smaller of each column and its
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
    """A box operator's parts on the orbit basis e_O = 1_O / sqrt|O|.

    kappa_hops and rho_hops hold the hop counts between orbits,
    sum_{x in O, y in O'} A(x, y) / sqrt(|O| |O'|), of the walker hops and
    of the catalyst and diagonal hops; collisions holds I_p on each orbit.
    indptr and indices are the csr pattern of the union of both hop
    matrices' entries and the diagonal; kappa_at, rho_at and diagonal_at
    place each of those entries in it (see operator).
    """

    labels: np.ndarray         # each orbit's _orbit_keys label, ascending
    sizes: np.ndarray
    collisions: np.ndarray
    kappa_hops: sparse.csr_matrix
    rho_hops: sparse.csr_matrix
    center: int                # the orbit of z = 0, a fixed point
    indptr: np.ndarray
    indices: np.ndarray
    kappa_at: np.ndarray
    rho_at: np.ndarray
    diagonal_at: np.ndarray

    def operator(self, kappa: float, rho: float, diagonal: np.ndarray) -> sparse.csr_matrix:
        """kappa * kappa_hops + rho * rho_hops + diag(diagonal), filled into
        the merged pattern in the order of operations of that scipy sum,
        (kappa k + rho r) + diag, so every stored value has its bits; where
        the sum drops a zero (kappa = 0, say) the fill keeps it."""
        data = np.zeros(len(self.indices))
        data[self.kappa_at] = kappa * self.kappa_hops.data
        data[self.rho_at] += rho * self.rho_hops.data
        data[self.diagonal_at] += diagonal
        return sparse.csr_matrix((data, self.indices, self.indptr), shape=(len(self.sizes),) * 2)


@lru_cache(maxsize=8)
def _quotient(d: int, p: int, n: int, radius: int, frame: bool) -> _Quotient:
    """Orbits of the radius frame box (p+n-1 blocks; catalyst 1 at z = 0,
    its moves diagonal hops) or full box (p+n blocks), and the operator's
    parts between them.

    A site is d columns, each coding one axis in every block base
    L = 2*radius+1 as in _orbit_keys.  greens._multisets(d, half) lists its
    B_d-orbits with their sizes, value v the column coded half + v.  One
    table reads each of the half + 1 codes under each block order (its
    digits permuted) and folds it with its negation; sorting a site's d
    table entries and encoding them is _orbit_keys, which merges the
    multisets into orbits of G.  The hops are read off one representative
    per orbit, kept as its d column codes: x in O has as many neighbours in
    O' as x_O.  A hop moves one column, by one digit (a walker or catalyst
    step) or by every digit (a diagonal step); inside the box that adds the
    same constant to the column read under an order, whatever the digits.
    So a neighbour's label is the moved column, folded and inserted among
    the other d - 1 table entries, one axis and step at a time, over the
    representatives.  The neighbours are merged by one sort of their
    (label, row) codes; the hop counts are symmetric to the last bit, so
    sorted by label they are the matrix's rows.  No array is site-sized.
    """
    blocks = p + n - 1 if frame else p + n
    build_box(d * blocks, radius)    # the box must stay within lattice.MAX_SITES
    L = 2 * radius + 1
    C = L ** blocks
    half = (C - 1) // 2
    place = L ** np.arange(blocks - 1, -1, -1)      # block 0 is the leading digit
    orders = [walkers + catalysts for walkers in itertools.permutations(range(p))
              for catalysts in itertools.permutations(range(p, blocks))]

    def folded(c):
        return np.minimum(c, C - 1 - c)

    def inserted(ordered, v):
        # the arrays ordered, elementwise ascending, with v inserted: one
        # pass of insertion sort by elementwise min and max
        out = ordered + [v]
        for j in range(len(ordered), 0, -1):
            out[j - 1], out[j] = np.minimum(out[j - 1], out[j]), np.maximum(out[j - 1], out[j])
        return out

    def ascending(columns):
        out = []
        for v in columns:
            out = inserted(out, v)
        return out

    def keys(ordered):
        # _orbit_keys from the d ascending folded columns, each (orders, sites)
        k = ordered[0]
        for v in ordered[1:]:
            k = k * C + v
        return k.min(axis=0)

    cols, mult = greens._multisets(d, half)     # values 0..half, all in use
    digits = (half + np.arange(half + 1))[:, None] // place % L     # (codes, blocks)
    # (orders, codes): each code with its digits permuted by each order
    read = np.stack([digits[:, order] @ place for order in orders])
    table = folded(read)
    labels, first, which = np.unique(keys(ascending([table.take(v, axis=1) for v in cols.T])),
                                     return_index=True, return_inverse=True)
    sizes = np.bincount(which, weights=mult).astype(np.int64)
    N = len(labels)
    at = cols[first].T                        # (d, N): the representatives' columns

    def block(b):
        # (d, N): block b's coordinate on each axis, as a digit
        return digits[:, b].take(at)

    # I_p: pairs of a walker and a catalyst on the same site; in the frame,
    # catalyst 1 is at z = 0, the digit radius on every axis
    catalysts = [block(k) for k in range(p, blocks)] + [radius] * frame
    collisions = sum((block(j) == y).all(axis=0)
                     for j in range(p) for y in catalysts).astype(np.float64)

    S = N.bit_length()        # codes carry an orbit index in their low S bits
    low = (1 << S) - 1

    def firsts(a):
        # the first entry of each run of equal values in the sorted a
        out = np.ones(len(a), dtype=bool)
        np.not_equal(a[1:], a[:-1], out=out[1:])
        return out

    def indptr_of(rows):
        # csr row pointers of the ascending row indices rows; the merged
        # pattern has fewer than 2^31 entries (lattice.MAX_SITES times
        # 1 + 2 d (p + n)), so int32 indices hold, as scipy stores them
        out = np.zeros(N + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=N), out=out[1:])
        return out

    def hops(steps):
        # steps: the blocks each step moves.  A code can move if none of the
        # moved digits is at the edge; the move adds shift under each order
        moves = []
        for moved in steps:
            for sign in (1, -1):
                inside = np.ones(half + 1, dtype=bool)
                for b in moved:
                    inside &= digits[:, b] != (L - 1 if sign > 0 else 0)
                shift = [sign * sum(place[order.index(b)] for b in moved) for order in orders]
                moves.append((inside, np.array(shift)[:, None]))
        found = np.empty(d * len(moves) * N, dtype=np.int64)
        end = 0
        for i in range(d):
            rest = ascending([table.take(at[j], axis=1) for j in range(d) if j != i])
            column = read.take(at[i], axis=1)
            for inside, shift in moves:
                rows = np.flatnonzero(inside[at[i]])
                k = keys(inserted([v.take(rows, axis=1) for v in rest],
                                  folded(column.take(rows, axis=1) + shift)))
                stop = end + len(rows)
                np.bitwise_or(k << S, rows, out=found[end:stop])
                end = stop
        found = found[:end]
        found.sort()
        first = firsts(found)
        counts = np.diff(np.flatnonzero(first), append=end).astype(np.float64)
        found = found[first]
        r = found & low
        c = labels.searchsorted(found >> S)
        # |O| * (neighbours of x_O in O') counts the hops between O and O'
        # both ways, so these entries are symmetric to the last bit, and
        # entry (r, c) is stored as entry (c, r)
        data = counts * sizes[r]
        data /= np.sqrt(sizes[r] * sizes[c])
        np.bitwise_or(c << S, r, out=found)
        return found, sparse.csr_matrix((data, r, indptr_of(c)), shape=(N, N))

    kappa_found, kappa_hops = hops([[j] for j in range(p)])
    # catalyst hops, and in the frame catalyst 1's diagonal ones
    rho_found, rho_hops = hops([[k] for k in range(p, blocks)] + [list(range(blocks))] * frame)
    diagonal_found = (np.arange(N) << S) | np.arange(N)
    parts = (kappa_found, rho_found, diagonal_found)
    merged = np.concatenate(parts)
    merged.sort()
    merged = merged[firsts(merged)]
    places = [merged.searchsorted(part).astype(np.int32) for part in parts]
    del parts, kappa_found, rho_found, diagonal_found    # keeps the peak below 12 B/site
    indptr = indptr_of(merged >> S)
    indices = (merged & low).astype(np.int32)
    center = int(which[0])    # row 0, the all-zero multiset, is the site z = 0
    return _Quotient(labels, sizes, collisions, kappa_hops, rho_hops, center, indptr, indices,
                     *places)


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


# At most this many unknowns (orbits) are solved densely, on the assembled
# matrix; larger problems go to ARPACK.  The measured crossover on a 2-core Xeon: per solve, syevr
# on the assembled matrix is faster up to 225 unknowns (2.9 ms against
# ARPACK's 3.4 ms) and slower from 241 (5.3 ms against 2.9 ms), where its
# O(size^3) reduction passes ARPACK's 42-62 sparse products.
_DENSE_CUTOFF = 240

# ARPACK's Lanczos basis size (ncv) and restart count (maxiter): the former
# defaults, ncv = min(40, size - 1) and maxiter = max(4, 800 // ncv), as they
# come out on every problem ARPACK sees, which has more than _DENSE_CUTOFF
# unknowns and so more than _NCV.
_NCV = 40
_MAXITER = 20


def _openblas_function(package: str, *names: str):
    """The first of the functions names found in the OpenBLAS bundled in
    package's wheel (<package>.libs/libscipy_openblas*.so), through ctypes,
    or None where there is none.  numpy and scipy each bundle their own
    library, with its own symbol names and thread count."""
    import glob
    import importlib

    root = os.path.dirname(importlib.import_module(package).__file__)
    libs = os.path.join(root, os.pardir, package + ".libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                return fn
    return None


@lru_cache(maxsize=None)
def _openblas_set_threads(package: str):
    """openblas_set_num_threads_local of the OpenBLAS bundled in package's
    wheel: scipy.libs, the library scipy.linalg's LAPACK and ARPACK run on,
    or numpy.libs, numpy's dot and norm.  None where there is none (a build
    against another BLAS).  It sets the thread count and returns the
    previous one."""
    fn = _openblas_function(package, "openblas_set_num_threads_local")
    if fn is not None:
        fn.argtypes = [ctypes.c_int]
        fn.restype = ctypes.c_int
    return fn


def _openblas_threads(package: str) -> int | None:
    """The live thread count of the OpenBLAS bundled in package's wheel, or
    None where there is none."""
    get_threads = _openblas_function(
        package, "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
        "openblas_get_num_threads")
    if get_threads is None:
        return None
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    return get_threads()


@contextmanager
def _one_blas_thread():
    """Run the block, or as a decorator the function, on one thread of
    scipy's and of numpy's OpenBLAS and restore the caller's counts after
    it, also when it raises.

    syevr's last bits depend on how many threads its BLAS calls split the
    work over, so a dense value pinned this way reads the same whatever
    OPENBLAS_NUM_THREADS is.  So does an ARPACK solve: besides ARPACK's own
    calls on scipy's library, it normalises its start vector and its
    residual with numpy's dot, which splits vectors of more than 10,000
    entries over the threads and so moves their last bits.  Without a
    bundled library the block runs on the caller's count of that one.  The
    wheels ship a pthreads OpenBLAS, where the count set here is the whole
    process's, not only the calling thread's; pamlab makes no BLAS call from
    another thread.
    """
    setters = [f for f in map(_openblas_set_threads, ("scipy", "numpy")) if f is not None]
    previous = [f(1) for f in setters]
    try:
        yield
    finally:
        for f, count in zip(setters, previous):
            f(count)


@_one_blas_thread()
def _top_pair(A: sparse.csr_matrix, v0: np.ndarray, tol: float, scale: float) -> _Solution:
    """Top eigenpair of the symmetric sparse matrix A; converged means
    residual ||A v - theta v||_2 <= tol, and scale bounds ||A||.

    At most _DENSE_CUTOFF unknowns, A is made dense in one product A @ I and
    LAPACK's MRRR driver (syevr) computes its top eigenpair alone, at the
    cost of size + 1 operator applications.  Larger problems go to
    implicitly-restarted Lanczos (ARPACK) from v0, normalised here: above
    _DENSE_CUTOFF the O(size^3) reduction costs more than ARPACK's few
    dozen products.  ARPACK's stopping rule is relative and internal;
    convergence is declared only from our own residual, and a pair that
    misses it is returned unconverged.  With k=1, ARPACK raises
    ArpackNoConvergence only when no Ritz value converged, and then returns
    none; the best iterate is then the unit start vector.  Either way theta
    is a Rayleigh quotient, so even an unconverged pair is a lower bound.

    Both solvers, with the dot products around them, run on one OpenBLAS
    thread (_one_blas_thread) at every size, so no value depends on the
    BLAS thread count.  A second thread saved no wall time up to at least
    24,649 unknowns; above about 30,000 a restarted solve takes longer on
    one thread, but less CPU.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    size = v0.size
    if size <= _DENSE_CUTOFF:
        w, V = eigh(A.dot(np.eye(size)), subset_by_index=[size - 1, size - 1])
        theta, vec = float(w[0]), V[:, 0]
        res = float(np.linalg.norm(A.dot(vec) - theta * vec))
        return _Solution(theta, vec, res, res <= tol, "dense", size + 1)
    v0 = v0 / np.linalg.norm(v0)
    mv_count = 0

    def counted(x):
        nonlocal mv_count
        mv_count += 1
        return A.dot(np.asarray(x, dtype=np.float64).ravel())

    op = LinearOperator((size, size), matvec=counted, dtype=np.float64)
    try:
        w, V = eigsh(op, k=1, which="LA", v0=v0, ncv=_NCV, maxiter=_MAXITER,
                     tol=0.1 * tol / scale)
    except ArpackNoConvergence:
        u = v0
        Au = A.dot(u)
        theta = float(np.dot(u, Au))
    else:
        theta, u = float(w[0]), V[:, 0]
        Au = A.dot(u)
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


def _sector_top(params: PamParams, R: int, tol: float,
                frame: bool) -> tuple[LyapunovEstimate, np.ndarray]:
    """(1/p) * top eigenvalue, and orbit eigenvector, of the frame box of
    radius 2R or the full radius-R box, on its symmetric sector."""
    d, n, p = params.d, params.n, params.p
    q = _quotient(d, p, n, 2 * R if frame else R, frame)
    shift = _shift(params)
    # the Dirichlet diagonal -2 d (p kappa + n rho), plus I_p and the shift
    diagonal = q.collisions + (shift - 2.0 * d * (p * params.kappa + n * params.rho))
    Q = q.operator(params.kappa, params.rho, diagonal)
    # the box's start vector, 1e-3 plus 1 at z = 0, on the orbit basis
    v0 = 1e-3 * np.sqrt(q.sizes)
    v0[q.center] += 1.0
    sol = _top_pair(Q, v0, tol, _scale(params, shift))
    return _certified(params, R, shift, sol, tol), sol.vec


def top_eigen(params: PamParams, R: int, tol: float = 1e-8) -> LyapunovEstimate:
    """(1/p) * top Dirichlet eigenvalue of L_p on the radius-R box.

    A certified lower bound of lambda_p^{(n)}; raises ConvergenceError (with
    the best iterate attached) if the residual ||L v - theta v||_2 does not
    reach tol.
    """
    return _sector_top(params, R, tol, frame=False)[0]


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
            out.append(_sector_top(params, R, tol, frame=True)[0])
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


@_one_blas_thread()
def tensor_gap(params: PamParams, R: int, tol: float = 1e-10) -> TensorGap:
    """Lower-bound the p=2 exponent from the p=1 eigenfunction f.

    Builds f~(x1,x2,y) = f(x1,y) f(x2,y) and evaluates its p=2 Rayleigh
    quotient two ways: directly through apply_generator, and through the
    identity rayleigh2 = lambda1 + gap with

        gap = (rho/2) sum_{y, z~y} (sum_x f(x,y)(f(x,z) - f(x,y)))^2 / |f~|_2^2,

    which holds exactly for an exact box eigenfunction (completing the square
    in the y-Laplacian cross term).  Certifies lambda_2 >= lambda_1 + gap on
    the box.  Requires p = 1, and a p=2 box within lattice.MAX_SITES.
    It runs on one OpenBLAS thread (_one_blas_thread): M.T @ M and the
    np.dot sums would otherwise split long sums by thread and so move their
    last bits with the thread count.
    """
    if params.p != 1:
        raise ValueError(f"tensor_gap needs p=1 parameters, got p={params.p}")
    d, n = params.d, params.n
    params2 = PamParams(d=d, n=n, p=2, kappa=params.kappa, rho=params.rho)
    box2 = build_box(params2.m, R)      # before the solve and before f~
    est, c = _sector_top(params, R, tol, frame=False)
    L = 2 * R + 1
    q = _quotient(d, 1, n, R, False)    # scatter c to the sites, in F order
    z = np.indices((L,) * params.m).reshape(params.m, -1, order="F").T
    which = q.labels.searchsorted(_orbit_keys(z.reshape(-1, 1 + n, d) - R, 1, R))
    vec = c[which] / np.sqrt(q.sizes[which])
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
    lf2 = _apply_flat(params2, box2, f2)
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
