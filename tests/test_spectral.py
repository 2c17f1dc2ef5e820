"""mu, the p-particle operator, and the eigenvalue machinery.

Oracles: the d=1 closed form mu = -2k + sqrt(4k^2+1) (re-derived here from
the explicit resolvent integral), the nested root-find route to mu_inverse,
a naive site-by-site implementation of the operator, dense diagonalization
on tiny boxes, the column-by-column matrix and its full spectrum for the
dense top-pair solve, the brute-force minimum over the symmetry group for
the orbit labels, the labelling of every box site for the enumerated
orbits, the whole catalyst-frame box for its symmetric sector, and the
site-space solve of the whole full box for top_eigen's sector.
"""
import ctypes
import glob
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.sparse.linalg import LinearOperator, eigsh

from pamlab import greens, phase, spectral
from pamlab.lattice import (
    Box,
    CapacityError,
    DimensionMismatchError,
    Field,
    build_box,
    grad_sq_grid,
)
from pamlab.spectral import (
    ConvergenceError,
    F0Bound,
    LyapunovEstimate,
    PamParams,
    apply_generator,
    check_gn,
    f0_rayleigh,
    lambda_spectral,
    mu,
    mu_inverse,
    tensor_gap,
    top_eigen,
)
from pamlab.spectral import (
    _apply_flat,
    _orbit_keys,
    _quotient,
    _sector_top,
)

from lattice_helpers import box_site, delta_field


def mu1(kappa: float) -> float:
    """d=1 closed form: the resolvent identity reduces to mu(mu + 4k) = 1."""
    return -2.0 * kappa + math.sqrt(4.0 * kappa * kappa + 1.0)


def test_mu1_closed_form_derivation():
    # confirm the algebra behind the oracle: at mu = mu1(k) the 1-D resolvent
    # (1/2pi) int dtheta / (mu + 2k(1 - cos theta)) equals exactly 1
    for k in (0.25, 0.75, 2.0):
        m = mu1(k)
        val, _ = quad(lambda th: 1.0 / (m + 2 * k * (1 - math.cos(th))),
                      -math.pi, math.pi)
        assert val / (2 * math.pi) == pytest.approx(1.0, abs=1e-10)


def naive_apply(params: PamParams, box: Box, vec: np.ndarray) -> np.ndarray:
    """Direct definition: collision count + per-axis neighbor sums."""
    d, n, p = params.d, params.n, params.p
    out = np.zeros(box.size)
    for i in range(box.size):
        site = box_site(box, i)
        xs = [site[j * d:(j + 1) * d] for j in range(p)]
        ys = [site[(p + k) * d:(p + k + 1) * d] for k in range(n)]
        ip = sum(1 for a in xs for b in ys if a == b)
        acc = float(ip) * vec[i]
        for ax in range(box.m):
            nu = params.kappa if ax < d * p else params.rho
            if nu == 0.0:
                continue
            for sg in (1, -1):
                nb = list(site)
                nb[ax] += sg
                val = vec[box.index(nb)] if abs(nb[ax]) <= box.radius else 0.0
                acc += nu * (val - vec[i])
        out[i] = acc
    return out


def naive_frame_apply(params: PamParams, box: Box, vec: np.ndarray) -> np.ndarray:
    """The operator in the frame of catalyst 1, site by site.

    Blocks are z_j = x_j - y_1 (j <= p) and z_k = y_k - y_1 (k >= 2); each
    block axis hops alone, and a catalyst-1 move shifts all blocks at once.
    """
    d, n, p = params.d, params.n, params.p
    out = np.zeros(box.size)
    moves = [(params.kappa if ax < d * p else params.rho, [ax]) for ax in range(box.m)]
    moves += [(params.rho, list(range(c, box.m, d))) for c in range(d)]

    def value(site):
        return vec[box.index(site)] if max(map(abs, site)) <= box.radius else 0.0

    for i in range(box.size):
        site = box_site(box, i)
        xs = [site[j * d:(j + 1) * d] for j in range(p)]
        ys = [(0,) * d] + [site[(p + k) * d:(p + k + 1) * d] for k in range(n - 1)]
        ip = sum(1 for a in xs for b in ys if a == b)
        acc = float(ip) * vec[i]
        for nu, axes in moves:
            for sg in (1, -1):
                nb = list(site)
                for ax in axes:
                    nb[ax] += sg
                acc += nu * (value(nb) - vec[i])
        out[i] = acc
    return out


def site_coords(flat: np.ndarray, d: int, blocks: int, radius: int) -> np.ndarray:
    """Coordinates, shaped (sites, blocks, d), of flat frame-box indices."""
    L = 2 * radius + 1
    digits = np.unravel_index(flat, (L,) * (blocks * d), order="F")
    return np.stack(digits, axis=1).reshape(-1, blocks, d) - radius


def frame_collisions(z: np.ndarray, p: int, frame: bool = True) -> np.ndarray:
    """I_p at sites z: the walkers that sit on a catalyst block, and in the
    frame also on catalyst 1 (z = 0)."""
    others = z[:, p:]
    if frame:
        others = np.concatenate((np.zeros_like(z[:, :1]), others), axis=1)
    return (z[:, :p, None, :] == others[:, None]).all(axis=3).sum(axis=(1, 2))


def frame_matrix(params: PamParams, radius: int, frame: bool = True) -> sparse.csr_matrix:
    """The operator H_0 in the frame of catalyst 1 on the frame box of this
    radius, or L_p on the full box (frame=False), as a sparse matrix over
    F-order site indices.

    Each hop is T + T^T - 2 I, where T is the Kronecker product over the box
    axes of the 1-D Dirichlet shift (on the axes the hop moves) or the
    identity: a walker or catalyst moves one block axis, and in the frame a
    catalyst-1 move shifts axis i of every block at once.
    """
    d, n, p = params.d, params.n, params.p
    blocks = p + n - 1 if frame else p + n
    m = d * blocks
    L = 2 * radius + 1
    step, stay = sparse.eye(L, k=1, format="csr"), sparse.identity(L, format="csr")

    def hop(axes):
        T = sparse.identity(1, format="csr")
        for a in reversed(range(m)):      # axis 0 runs fastest: the last factor
            T = sparse.kron(T, step if a in axes else stay, format="csr")
        return T + T.T - 2.0 * sparse.identity(L ** m)

    H = sparse.csr_matrix((L ** m, L ** m))
    for a in range(m):
        H = H + (params.kappa if a < d * p else params.rho) * hop({a})
    for i in range(d if frame else 0):
        H = H + params.rho * hop(set(range(i, m, d)))
    collisions = frame_collisions(site_coords(np.arange(L ** m), d, blocks, radius), p, frame)
    return (H + sparse.diags(collisions.astype(np.float64))).tocsr()


def frame_top(params: PamParams, radius: int) -> float:
    """(1/p) * the top eigenvalue of H_0 on the whole frame box."""
    H = frame_matrix(params, radius)
    if H.shape[0] <= 2000:
        theta = np.linalg.eigvalsh(H.toarray())[-1]
    else:
        theta = eigsh(H, k=1, which="LA", return_eigenvectors=False)[0]
    return float(theta) / params.p


def site_start_vector(box: Box) -> np.ndarray:
    """1e-3 at every site plus 1 at the all-zero site, normalized: the start
    vector top_eigen's sector solve projects on the orbits."""
    v = np.full(box.size, 1e-3)
    v[(box.size - 1) // 2] += 1.0    # the middle F-order index is the all-zero site
    return v / np.linalg.norm(v)


def site_top(params: PamParams, R: int) -> float:
    """(1/p) * the top eigenvalue of L_p on the whole radius-R box, solved in
    site space: the oracle for top_eigen's sector route.  Up to 2,000 sites
    the matrix is assembled one unit vector at a time and fully
    diagonalized; larger boxes go to ARPACK at machine precision on the
    stencil operator, from site_start_vector."""
    box = build_box(params.m, R)
    shift = spectral._shift(params)

    def apply(v):
        return _apply_flat(params, box, np.ravel(v)) + shift * np.ravel(v)

    if box.size <= 2000:
        theta = np.linalg.eigvalsh(np.column_stack([apply(e) for e in np.eye(box.size)]))[-1]
    else:
        A = LinearOperator((box.size, box.size), matvec=apply, dtype=np.float64)
        theta = eigsh(A, k=1, which="LA", v0=site_start_vector(box),
                      return_eigenvectors=False)[0]
    return (float(theta) - shift) / params.p


# ---------------------------------------------------------------------------
# mu
# ---------------------------------------------------------------------------

def test_mu_at_zero_is_exactly_one():
    for d in range(1, 6):
        assert mu(d, 0.0) == 1.0


def test_mu_vanishes_past_green_zero():
    gz = greens.green_zero(3).value
    assert mu(3, gz + 0.5) == 0.0
    assert abs(mu(3, gz)) <= 1e-6


def test_mu_d1_closed_form():
    for k in np.linspace(0.0, 5.0, 11):
        assert mu(1, float(k)) == pytest.approx(mu1(float(k)), abs=1e-8)
    assert mu(1, 0.75) == pytest.approx((math.sqrt(13) - 3) / 2, abs=1e-9)


def test_mu_monotone_convex():
    for d in (1, 3):
        hi = 1.0 if d == 1 else greens.green_zero(3).value
        ks = np.linspace(0.0, hi, 9)
        vals = [mu(d, float(k)) for k in ks]
        assert all(a > b for a, b in zip(vals, vals[1:]))          # strictly down
        for i in range(1, len(vals) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9


def test_mu_at_most_one_at_tiny_kappa():
    assert mu(1, 1e-12) == 1.0


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 4), kappa=st.floats(0.0, 3.0))
def test_mu_in_unit_interval(d, kappa):
    assert 0.0 <= mu(d, kappa) <= 1.0


@settings(max_examples=25, deadline=None)
@given(d=st.integers(1, 4), k1=st.floats(0.0, 2.0), k2=st.floats(0.0, 2.0))
def test_mu_non_increasing_in_kappa(d, k1, k2):
    lo, hi = min(k1, k2), max(k1, k2)
    # up to the solver tolerance, as in the other mu-bound checks
    assert mu(d, hi) <= mu(d, lo) + 1e-9


@settings(max_examples=8, deadline=None)
@given(d=st.sampled_from((1, 3)), u1=st.floats(0.0, 1.0), u2=st.floats(0.0, 1.0))
def test_mu_convex_in_kappa(d, u1, u2):
    # kappa in [0, G_d(0)) at d=3, where mu > 0, and in [0, 2] at d=1
    top = 2.0 if d == 1 else greens.green_zero(3).value
    k1, k2 = sorted((u1 * top, u2 * top))
    if d == 3:
        k2 = min(k2, math.nextafter(top, 0.0))
    mid = mu(d, 0.5 * (k1 + k2))
    assert mid <= 0.5 * (mu(d, k1) + mu(d, k2)) + 1e-9


def test_mu_validation():
    with pytest.raises(ValueError):
        mu(0, 0.1)
    with pytest.raises(ValueError):
        mu(1, -0.1)
    with pytest.raises(ValueError):
        mu(1, 0.1, tol=0.0)


def test_mu_tolerance_floor():
    # below 1e-12 the resolvent quadrature can no longer certify its integrals
    assert mu(3, 0.1, 1e-12) == pytest.approx(mu(3, 0.1), abs=1e-10)
    assert mu_inverse(3, 0.5, 1e-12) == pytest.approx(mu_inverse(3, 0.5), abs=1e-10)
    for tol in (1e-13, 1e-14):
        with pytest.raises(ValueError, match="1e-12"):
            mu(3, 0.1, tol)
        with pytest.raises(ValueError, match="1e-12"):
            mu_inverse(3, 0.5, tol)


def test_mu_inverse_anchors():
    assert mu_inverse(3, 1.0) == 0.0
    assert mu_inverse(5, 2.5) == 0.0
    gz = greens.green_zero(3).value
    assert mu_inverse(3, 0.0) == pytest.approx(gz, abs=1e-9)


def test_mu_inverse_round_trip():
    for t in (0.2, 0.5, 0.8):
        k = mu_inverse(3, t)
        assert mu(3, k) == pytest.approx(t, abs=1e-8)
    # d=1 has no finite t=0 endpoint but finite positive levels work
    k = mu_inverse(1, 0.3)
    assert mu1(k) == pytest.approx(0.3, abs=1e-8)


def test_mu_inverse_validation():
    with pytest.raises(ValueError):
        mu_inverse(1, 0.0)      # diverges
    with pytest.raises(ValueError):
        mu_inverse(3, -0.5)


def nested_mu_inverse(d: int, t: float, tol: float = 1e-10) -> float:
    """The nested route: brentq over kappa on mu, itself a brentq over m."""
    if t >= 1.0:
        return 0.0
    if d >= 3:
        hi = greens.green_zero(d, min(tol, 1e-10)).value
    else:
        hi = 1.0
        while mu(d, hi, tol) > t:
            hi *= 2.0
    if t == 0.0:
        return hi
    mu_tol = min(tol, 1e-10, 0.01 * t)
    f = lambda k: mu(d, k, mu_tol) - t
    if f(hi) > 0.0:
        return hi
    return float(brentq(f, 0.0, hi, xtol=0.5 * tol, rtol=4 * np.finfo(float).eps))


@pytest.mark.parametrize("d", (1, 2, 3, 5))
def test_mu_inverse_matches_nested_route(d):
    # The oracle resolves m, not kappa, to its tolerance, so where mu is flat
    # (d=1, small t) its kappa error is tol/|mu'|: at tol=1e-10 it is off the
    # d=1 closed form by 2.7e-10 at t=0.05.  It runs at 1e-12 to stay below
    # the 1e-10 comparison everywhere.
    for t in (0.02, 0.05, 0.1, 0.3, 0.6, 0.9, 0.95):
        assert mu_inverse(d, t) == pytest.approx(nested_mu_inverse(d, t, 1e-12),
                                                 abs=1e-10)


def test_mu_inverse_d1_closed_form():
    # mu1(k) = t  <=>  k = (1 - t^2) / (4 t)
    for t in (0.02, 0.05, 0.3, 0.95):
        assert mu_inverse(1, t) == pytest.approx((1 - t * t) / (4 * t), abs=1e-10)


@settings(max_examples=10, deadline=None)
@given(d=st.sampled_from((3, 5)), t=st.floats(0.01, 0.99))
def test_mu_inverse_round_trip_property(d, t):
    assert abs(mu(d, mu_inverse(d, t)) - t) <= 1e-8


# re-recorded once when the quadrature head moved to shared node tables
# graded at greens._nu_grade(nu), which moved these by 1-9 ulps
_MU_RECORDED = {(1, 0.1): 0.8198039027185571, (1, 0.75): 0.3027756377407485,
                (2, 0.25): 0.2614695417089407, (3, 0.1): 0.46194071806701803,
                (3, 0.25): 0.0002914813431103043, (5, 0.1): 0.10981329561035334}
_MU_INVERSE_RECORDED = {(1, 0.3): 0.7583333333356096, (2, 0.5): 0.14704932092140702,
                        (3, 0.1): 0.19279692011777114, (3, 0.9): 0.016954365585939685,
                        (5, 0.5): 0.05285208496769167}


def test_mu_and_inverse_values_unchanged():
    for (d, kappa), want in _MU_RECORDED.items():
        assert mu(d, kappa) == want
    for (d, t), want in _MU_INVERSE_RECORDED.items():
        assert mu_inverse(d, t) == want


def test_mu_inverse_never_calls_mu(monkeypatch):
    def forbidden(*args):
        raise AssertionError("mu_inverse must not run a root-find over mu")

    monkeypatch.setattr(spectral, "_mu_cached", forbidden)
    uncached = spectral._mu_inverse_cached.__wrapped__
    for d in (1, 3):
        for t in (0.05, 0.5, 0.95):
            assert 0.0 < uncached(d, t, 1e-10) < math.inf
    assert uncached(3, 0.0, 1e-10) == greens.green_zero(3, 1e-10).value
    assert uncached(1, 1.0, 1e-10) == 0.0


def test_each_root_find_evaluates_each_point_once(monkeypatch):
    # the bracket ends' sign tests and brentq's first two calls share one
    # quadrature each, and those are a root-find's costliest: T = 15,360
    # near nu = 1e-9, 3,744-node heads near nu = 1e11
    seen = []
    real = spectral._resolvent_minus_one

    def counted(d, kappa, m, quad_tol):
        seen.append((kappa, m))
        return real(d, kappa, m, quad_tol)

    monkeypatch.setattr(spectral, "_resolvent_minus_one", counted)
    runs = [(spectral._mu_cached, d, 0.1) for d in (1, 3, 5)] + \
        [(spectral._mu_inverse_cached, d, t) for d, t in ((1, 0.3), (2, 0.5), (3, 0.6))]
    for cached, d, arg in runs:
        seen.clear()
        cached.__wrapped__(d, arg, 1e-10)
        assert len(seen) > 2 and len(set(seen)) == len(seen), (cached, d, arg)


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------

def test_apply_delta_config_value():
    params = PamParams(d=1, n=2, p=1, kappa=0.3, rho=0.4)
    box = build_box(params.m, 1)
    out = apply_generator(params, delta_field(box))
    want = -2 * params.d * (params.p * params.kappa + params.n * params.rho) \
        + params.n * params.p
    assert out[(0,) * box.m] == pytest.approx(want, rel=1e-14)


def test_apply_is_multiplication_at_zero_rates():
    params = PamParams(d=1, n=1, p=2, kappa=0.0, rho=0.0)
    box = build_box(3, 1)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(8)))
    f = Field(box, rng.standard_normal(box.size))
    out = apply_generator(params, f)
    for i in range(box.size):
        site = box_site(box, i)
        ip = float(site[0] == site[2]) + float(site[1] == site[2])
        assert out.values[i] == pytest.approx(ip * f.values[i], abs=1e-14)


@pytest.mark.parametrize("d,n,p,R", [(1, 1, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1)])
def test_apply_matches_naive_oracle(d, n, p, R):
    params = PamParams(d=d, n=n, p=p, kappa=0.35, rho=0.15)
    box = build_box(params.m, R)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(d * 7 + n)))
    v = rng.standard_normal(box.size)
    got = apply_generator(params, Field(box, v)).values
    assert np.allclose(got, naive_apply(params, box, v), atol=1e-12)


@pytest.mark.parametrize("d,n,p,R", [(1, 1, 1, 2), (1, 2, 1, 1), (1, 1, 2, 1),
                                     (2, 1, 1, 1), (2, 2, 1, 1)])
def test_frame_apply_matches_naive_oracle(d, n, p, R):
    params = PamParams(d=d, n=n, p=p, kappa=0.35, rho=0.15)
    box = build_box(d * (p + n - 1), R)
    H = frame_matrix(params, R)
    assert H.shape == (box.size, box.size)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(d * 11 + n + 5 * p)))
    v = rng.standard_normal(box.size)
    assert np.allclose(H @ v, naive_frame_apply(params, box, v), atol=1e-12)


def test_apply_self_adjoint():
    params = PamParams(d=1, n=2, p=1, kappa=0.2, rho=0.7)
    box = build_box(params.m, 1)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    f = Field(box, rng.standard_normal(box.size))
    g = Field(box, rng.standard_normal(box.size))
    lhs = float(np.dot(f.values, apply_generator(params, g).values))
    rhs = float(np.dot(apply_generator(params, f).values, g.values))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_apply_dimension_mismatch():
    params = PamParams(d=2, n=1, p=1, kappa=0.1, rho=0.1)
    with pytest.raises(DimensionMismatchError):
        apply_generator(params, delta_field(build_box(3, 1)))


def test_params_validation_and_swap():
    with pytest.raises(ValueError):
        PamParams(d=0, n=1, p=1, kappa=0.1, rho=0.1)
    with pytest.raises(ValueError):
        PamParams(d=1, n=1, p=1, kappa=-0.1, rho=0.1)
    with pytest.raises(ValueError):
        PamParams(d=1, n=1, p=1, kappa=math.inf, rho=0.1)
    s = PamParams(d=2, n=3, p=1, kappa=0.1, rho=0.4).swapped()
    assert (s.n, s.p, s.kappa, s.rho) == (1, 3, 0.4, 0.1)


# ---------------------------------------------------------------------------
# top eigenvalue
# ---------------------------------------------------------------------------

def test_top_eigen_trivial_is_n():
    for n, p in ((1, 1), (2, 3)):
        params = PamParams(d=1, n=n, p=p, kappa=0.0, rho=0.0)
        est = top_eigen(params, 1)
        assert est.value == pytest.approx(n, abs=1e-9)


def test_lambda_spectral_monotone_in_radius():
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    ests = lambda_spectral(params, [1, 2, 3, 6, 10])
    vals = [e.value for e in ests]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert ests[-1].radius == 10


def test_lambda_spectral_approaches_mu_sum():
    # d=1, n=p=1: lambda = mu(kappa + rho)
    params = PamParams(d=1, n=1, p=1, kappa=0.2, rho=0.3)
    est = lambda_spectral(params, [8, 16])[-1]
    assert est.value == pytest.approx(mu1(0.5), abs=2e-2)
    assert est.value <= mu1(0.5) + 1e-12          # certified lower bound


@pytest.mark.parametrize("d,R", [(1, 2), (2, 1)])
@pytest.mark.parametrize("n,p", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_lambda_spectral_not_below_full_box(d, R, n, p):
    # theta_full(R) <= theta_frame(2R): each total-momentum fiber of a
    # function on the full box lives in the frame box of radius 2R
    params = PamParams(d=d, n=n, p=p, kappa=0.3, rho=0.2)
    est = lambda_spectral(params, [R])[-1]
    assert est.radius == R
    assert est.value >= top_eigen(params, R).value - 1e-9


def test_lambda_spectral_frame_closed_form():
    est = lambda_spectral(PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25), [8])[-1]
    assert est.value == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-8)


def test_lambda_spectral_d3_beats_old_full_box():
    # 0.43101842764 is the full-box value at R=1 (15,625 frame sites vs 19,683)
    est = lambda_spectral(PamParams(d=3, n=1, p=2, kappa=0.05, rho=0.1), [1])[-1]
    assert est.value >= 0.43101842764


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 2), p=st.integers(1, 2),
       kappa=st.floats(0.05, 1.0), rho=st.floats(0.05, 1.0))
def test_lambda_spectral_below_mu_bound(n, p, kappa, rho):
    # box value <= lambda_p <= n min(mu(kappa/n), mu(rho/p)) (d=1)
    est = lambda_spectral(PamParams(d=1, n=n, p=p, kappa=kappa, rho=rho), [2])[-1]
    assert est.value <= n * min(mu(1, kappa / n), mu(1, rho / p)) + 1e-9


def test_lambda_spectral_radii_validation():
    params = PamParams(d=1, n=1, p=1, kappa=0.1, rho=0.1)
    with pytest.raises(ValueError):
        lambda_spectral(params, [])
    with pytest.raises(ValueError):
        lambda_spectral(params, [2, 2, 3])
    with pytest.raises(ValueError):
        lambda_spectral(params, [3, 1])
    # the frame box has radius 2R; the message must name R as passed
    with pytest.raises(ValueError, match=r"got R=-1\b"):
        lambda_spectral(params, [-1, 2])


def test_box_value_monotone_in_rates():
    mk = lambda k, r: top_eigen(PamParams(d=1, n=1, p=1, kappa=k, rho=r), 2).value
    assert mk(0.1, 0.2) >= mk(0.3, 0.2) >= mk(0.6, 0.2)
    assert mk(0.2, 0.1) >= mk(0.2, 0.3) >= mk(0.2, 0.6)


def test_box_value_convex_in_kappa():
    mk = lambda k: top_eigen(PamParams(d=1, n=1, p=1, kappa=k, rho=0.2), 2).value
    assert mk(0.3) <= 0.5 * (mk(0.1) + mk(0.5)) + 1e-9


def test_box_value_monotone_in_p():
    for R in (1, 2):
        vals = [top_eigen(PamParams(d=1, n=1, p=p, kappa=0.2, rho=0.2), R).value
                for p in (1, 2, 3)]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_symmetry_on_matched_boxes():
    # lambda_p^(n)(kappa, rho) = (n/p) lambda_n^(p)(rho, kappa), exact per box
    a = top_eigen(PamParams(d=1, n=2, p=1, kappa=0.3, rho=0.2), 2).value
    b = top_eigen(PamParams(d=1, n=1, p=2, kappa=0.2, rho=0.3), 2).value
    assert a == pytest.approx(2.0 * b, abs=1e-9)


def test_upper_bound_ub2():
    # box value <= n min(mu(kappa/n), mu(rho/p)); holds for every box
    for k, r, n, p in ((0.3, 0.1, 1, 1), (0.2, 0.4, 2, 1), (0.05, 0.6, 1, 2)):
        est = top_eigen(PamParams(d=1, n=n, p=p, kappa=k, rho=r), 2)
        assert est.value <= n * min(mu1(k / n), mu1(r / p)) + 1e-9


def test_sandwich_lower_bounds_at_converged_radius():
    est = top_eigen(PamParams(d=1, n=1, p=1, kappa=0.05, rho=0.3), 20)
    assert est.value >= mu1(0.3) - 4 * 1 * 0.05 - 5e-3
    assert est.value >= mu1(0.05) - 4 * 1 * 0.3 - 5e-3


def test_zero_region_box_values_nonpositive():
    # d=3, kappa past n G_3(0): lambda = 0, so every box value <= tol
    kz = 1.1 * greens.green_zero(3).value
    est = top_eigen(PamParams(d=3, n=1, p=1, kappa=kz, rho=0.1), 2)
    assert est.value <= 1e-8


def starve_arpack(monkeypatch):
    # a 4-vector Lanczos basis and 4 restarts: too little for R=40 at d=1
    monkeypatch.setattr(spectral, "_NCV", 4)
    monkeypatch.setattr(spectral, "_MAXITER", 4)


def test_convergence_error_carries_best(monkeypatch):
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    starve_arpack(monkeypatch)
    with pytest.raises(ConvergenceError) as exc:
        top_eigen(params, 40, 1e-13)
    err = exc.value
    assert isinstance(err.best, LyapunovEstimate)
    assert not err.best.converged
    assert err.residual > 1e-13
    assert "best value" in str(err)
    # even the failed iterate is a Rayleigh quotient: still a lower bound
    assert err.best.value <= mu1(0.5) + 1e-9


def test_dense_path_certifies_residual():
    # 65-site frame box: solved densely, residual ~1e-15 cannot reach 1e-16
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    with pytest.raises(ConvergenceError) as exc:
        lambda_spectral(params, [16], 1e-16)
    err = exc.value
    assert not err.best.converged and err.best.radius == 16
    assert err.residual > 1e-16
    assert err.best.value == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-8)
    with pytest.raises(ConvergenceError):
        top_eigen(params, 2, 1e-16)      # 25-site full box, 13 orbits


@pytest.mark.parametrize("solve", [
    lambda params, tol: top_eigen(params, 20, tol),            # 841 orbits
    lambda params, tol: lambda_spectral(params, [400], tol),   # 801 orbits
], ids=["top_eigen", "quotient"])
def test_krylov_path_returns_arpack_pair_unconverged(solve):
    # above the dense cutoff: ARPACK's residual ~1e-15 cannot reach 1e-16
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    with pytest.raises(ConvergenceError) as exc:
        solve(params, 1e-16)
    best = exc.value.best
    assert best.solver == "arpack" and not best.converged
    assert best.value <= math.sqrt(2.0) - 1.0 + 1e-9


def test_arpack_failure_reports_the_start_vector(monkeypatch):
    # ARPACK converges no Ritz value here; the best iterate is then the
    # Rayleigh quotient of the start vector, one operator application more.
    # The site start vector is invariant, so its projection on the orbits
    # has the same Rayleigh quotient and residual.
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    starve_arpack(monkeypatch)
    with pytest.raises(ConvergenceError) as exc:
        top_eigen(params, 40, 1e-13)
    box = build_box(params.m, 40)
    shift = spectral._shift(params)
    v0 = site_start_vector(box)
    Av = _apply_flat(params, box, v0) + shift * v0
    theta = float(np.dot(v0, Av))
    best = exc.value.best
    assert best.solver == "arpack"
    assert best.value == pytest.approx(theta - shift, abs=1e-12)
    assert exc.value.residual == pytest.approx(np.linalg.norm(Av - theta * v0), rel=1e-12)


def test_failed_radius_reports_the_largest_converged_bound(monkeypatch):
    # R=100 has 201 orbits and is solved densely; R=400 has 801 and goes to
    # the starved ARPACK, whose start vector is a far worse bound
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    want = lambda_spectral(params, [100])[-1]
    assert want.solver == "dense"
    starve_arpack(monkeypatch)
    with pytest.raises(ConvergenceError) as exc:
        lambda_spectral(params, [100, 400])
    best = exc.value.best
    assert (best.radius, best.value, best.converged) == (100, want.value, False)
    assert exc.value.residual > 1e-8 and "R=100 converged" in str(exc.value)
    row = phase._row_job((1, 1, 1, 0.25, 0.25, [100, 400], 1e-8,
                          phase.Regime("NotIntermittent", "")))
    assert (row.lambda_est, row.lambda_kind) == (want.value, "spectral(R=100,unconverged)")


@pytest.mark.parametrize("bad", [
    dict(tol=0.0), dict(tol=-1.0), dict(tol=math.inf), dict(tol=math.nan)])
def test_solver_options_validation(bad):
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    with pytest.raises(ValueError):
        top_eigen(params, 1, **bad)
    with pytest.raises(ValueError):
        lambda_spectral(params, [1], **bad)
    with pytest.raises(ValueError):
        tensor_gap(params, 1, **bad)


@pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
def test_lambda_spectral_checks_tol_before_labelling(monkeypatch, tol):
    # a bad tol must be refused before any work: building the orbits of the
    # first frame box (_quotient) is the first thing a solve does
    def no_labelling(*args):
        raise AssertionError("tol reached the orbit labelling")

    monkeypatch.setattr(spectral, "_quotient", no_labelling)
    params = PamParams(d=3, n=1, p=2, kappa=0.05, rho=0.1)
    with pytest.raises(ValueError, match="tol must be finite"):
        lambda_spectral(params, [2], tol=tol)


# (value, error, solver, dim, matvecs) of eight ARPACK solves, recorded with
# ncv = 40 and 20 restarts; any change to the Krylov path's arguments or
# arithmetic shows here.  The top_eigen pin solves the 1,681-site box on
# its 841 orbits.  The 16,641-orbit pin is the one-thread value: numpy's
# dot splits more than 10,000 entries over the threads, and on 2 unpinned
# threads this solve reads 0.4533729938997526.
KRYLOV_PINS = [
    ("top_eigen(PamParams(1, 1, 1, 0.25, 0.25), 20)",
     (0.4136841612181623, 4.179676555851766e-12, "arpack", 841, 82)),
    ("lambda_spectral(PamParams(1, 1, 1, 0.25, 0.25), [400])[-1]",
     (0.41421356237309404, 2.386174591310132e-15, "arpack", 801, 42)),
    ("lambda_spectral(PamParams(3, 1, 2, 0.05, 0.1), [2])[-1]",
     (0.4340527149629716, 1.048002967868722e-15, "arpack", 6325, 42)),
    ("lambda_spectral(PamParams(3, 1, 2, 0.05, 0.1), [1])[-1]",
     (0.43404903514337767, 1.4454379961758632e-16, "arpack", 255, 42)),
    ("lambda_spectral(PamParams(1, 1, 2, 0.25, 0.25), [8])[-1]",
     (0.45337299389975283, 3.9463768196697873e-16, "arpack", 289, 42)),
    ("lambda_spectral(PamParams(2, 1, 2, 0.1, 0.2), [2])[-1]",
     (0.30446889883088524, 7.622959965737709e-16, "arpack", 461, 42)),
    ("lambda_spectral(PamParams(1, 1, 2, 0.25, 0.25), [48])[-1]",
     (0.45337299389975283, 2.1850130037710184e-15, "arpack", 9409, 42)),
    ("lambda_spectral(PamParams(1, 1, 2, 0.25, 0.25), [64])[-1]",
     (0.4533729938997524, 2.1035497103002212e-15, "arpack", 16641, 42)),
    ("lambda_spectral(PamParams(3, 1, 2, 0.05, 0.1), [3])[-1]",
     (0.43405271528996114, 1.1957274477609858e-15, "arpack", 53459, 42)),
]


@pytest.mark.parametrize("solve,want", KRYLOV_PINS,
                         ids=["top_eigen-1681-sites", "quotient-801-orbits",
                              "quotient-6325-orbits", "quotient-255-orbits",
                              "quotient-289-orbits", "quotient-461-orbits",
                              "quotient-9409-orbits", "quotient-16641-orbits",
                              "quotient-53459-orbits"])
def test_krylov_solves_are_pinned(solve, want):
    est = eval(solve, vars(spectral))
    assert est.converged
    assert (est.value, est.error, est.solver, est.dim, est.matvecs) == want


# (value, error, solver, dim, matvecs) of three dense solves: the matrix
# assembled in one product, its top pair from LAPACK's syevr on one OpenBLAS
# thread.  Any change to the dense path's assembly or driver shows here.
# The top_eigen pin solves the 81-site box on its 41 orbits.
DENSE_PINS = [
    ("top_eigen(PamParams(1, 1, 1, 0.25, 0.25), 4)",
     (0.402533405170892, 7.7824962373645185e-16, "dense", 41, 42)),
    ("lambda_spectral(PamParams(2, 1, 1, 0.25, 0.2), [6])[-1]",
     (0.04738067542543423, 1.2593339183767098e-15, "dense", 91, 92)),
    ("lambda_spectral(PamParams(1, 1, 1, 0.25, 0.25), [100])[-1]",
     (0.4142135623730945, 5.102928256283809e-16, "dense", 201, 202)),
]


@pytest.mark.parametrize("solve,want", DENSE_PINS,
                         ids=["top_eigen-81-sites", "quotient-91-orbits",
                              "quotient-201-orbits"])
def test_dense_solves_are_pinned(solve, want):
    est = eval(solve, vars(spectral))
    assert est.converged
    assert (est.value, est.error, est.solver, est.dim, est.matvecs) == want


def pins_in_a_fresh_interpreter(pins, threads: str) -> list[tuple]:
    """(value, error, solver, dim, matvecs) of each pinned solve, run in a
    fresh interpreter: scipy's OpenBLAS reads the thread count at import."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import json; from pamlab.spectral import *; "
            f"ests = [eval(s) for s in {[solve for solve, _ in pins]!r}]; "
            "print(json.dumps([(e.value, e.error, e.solver, e.dim, e.matvecs) "
            "for e in ests]))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads))
    assert proc.returncode == 0, proc.stderr
    return [tuple(e) for e in json.loads(proc.stdout)]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_dense_pins_hold_under_each_blas_thread_count(threads):
    # syevr's last bits move with the thread count, so it runs on one
    # whatever the count is
    assert pins_in_a_fresh_interpreter(DENSE_PINS, threads) == [w for _, w in DENSE_PINS]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_krylov_pins_hold_under_each_blas_thread_count(threads):
    # ARPACK and the dot products around it run on one thread of each
    # OpenBLAS at every size, so no pin's last bits move with the count;
    # unpinned, the 16,641- and 53,459-orbit ones would
    assert pins_in_a_fresh_interpreter(KRYLOV_PINS, threads) == [w for _, w in KRYLOV_PINS]


def scipy_blas_threads() -> int:
    """The thread count of the OpenBLAS that scipy.linalg calls."""
    libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs")
    path = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so")))[0]
    get_threads = ctypes.CDLL(path).scipy_openblas_get_num_threads
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    return get_threads()


def test_dense_solve_restores_the_blas_thread_count(monkeypatch):
    # both libraries: scipy's, which syevr and ARPACK run on, and numpy's,
    # whose dot normalises ARPACK's start vector and residual
    setters = [spectral._openblas_set_threads(package) for package in ("scipy", "numpy")]
    assert None not in setters, "scipy.libs or numpy.libs holds no bundled OpenBLAS"
    previous = [set_threads(2) for set_threads in setters]

    def counts():
        return [spectral._openblas_threads(package) for package in ("scipy", "numpy")]

    try:
        seen = []
        dense_eigh = spectral.eigh

        def spy_eigh(M, **kwargs):
            seen.append(counts())
            return dense_eigh(M, **kwargs)

        monkeypatch.setattr(spectral, "eigh", spy_eigh)
        top_eigen(PamParams(1, 1, 1, 0.25, 0.25), 4)
        assert seen == [[1, 1]]
        assert counts() == [2, 2]
        with pytest.raises(RuntimeError, match="inside"):
            with spectral._one_blas_thread():
                assert counts() == [1, 1]
                raise RuntimeError("raised inside")
        assert counts() == [2, 2]
    finally:
        for set_threads, count in zip(setters, previous):
            set_threads(count)


def test_arpack_runs_on_one_thread_at_every_size(monkeypatch):
    # the 255- and 16,641-orbit quotients and the 33,826-orbit full box are
    # ARPACK's, on one thread like a dense solve
    setters = [spectral._openblas_set_threads(package) for package in ("scipy", "numpy")]
    assert None not in setters, "scipy.libs or numpy.libs holds no bundled OpenBLAS"
    previous = [set_threads(2) for set_threads in setters]
    try:
        seen = []
        arpack = spectral.eigsh

        def spy_eigsh(A, **kwargs):
            seen.append((A.shape[0], scipy_blas_threads(), spectral._openblas_threads("numpy")))
            return arpack(A, **kwargs)

        monkeypatch.setattr(spectral, "eigsh", spy_eigsh)
        lambda_spectral(PamParams(3, 1, 2, 0.05, 0.1), [1])
        lambda_spectral(PamParams(1, 1, 2, 0.25, 0.25), [64])
        top_eigen(PamParams(1, 1, 2, 0.25, 0.25), 25)
        assert seen == [(255, 1, 1), (16641, 1, 1), (33826, 1, 1)]
        assert scipy_blas_threads() == 2
    finally:
        for set_threads, count in zip(setters, previous):
            set_threads(count)


def test_dense_solve_runs_unpinned_without_the_library(monkeypatch):
    monkeypatch.setattr(spectral, "_openblas_set_threads", lambda package: None)
    solve, want = DENSE_PINS[1]
    est = eval(solve, vars(spectral))
    assert (est.value, est.error, est.solver, est.dim, est.matvecs) == want


@pytest.mark.parametrize("solve,size,solver", [
    (lambda tol: lambda_spectral(PamParams(1, 1, 1, 0.25, 0.25), [12], tol)[-1], 25, "dense"),
    (lambda tol: lambda_spectral(PamParams(2, 1, 1, 0.25, 0.2), [6], tol)[-1], 91, "dense"),
    (lambda tol: lambda_spectral(PamParams(1, 1, 1, 0.25, 0.25), [100], tol)[-1], 201, "dense"),
    (lambda tol: lambda_spectral(PamParams(3, 1, 2, 0.05, 0.1), [1], tol)[-1], 255, "arpack"),
    (lambda tol: lambda_spectral(PamParams(1, 1, 2, 0.25, 0.25), [8], tol)[-1], 289, "arpack"),
    (lambda tol: lambda_spectral(PamParams(2, 1, 2, 0.1, 0.2), [2], tol)[-1], 461, "arpack"),
    (lambda tol: top_eigen(PamParams(1, 1, 2, 0.25, 0.25), 3, tol), 100, "dense"),
], ids=["quotient-25", "quotient-91", "quotient-201", "quotient-255", "quotient-289",
        "quotient-461", "top_eigen-343-sites"])
def test_dense_route_matches_the_full_spectrum(monkeypatch, solve, size, solver):
    # the oracle is the route the dense path replaced: the matrix assembled
    # one unit vector at a time, and its whole spectrum from np.linalg.eigh.
    # Above _DENSE_CUTOFF the solve is ARPACK's, and there is no assembled
    # matrix to compare.
    seen = {}
    top_pair, dense_eigh = spectral._top_pair, spectral.eigh

    def spy_top_pair(A, *args):
        seen["operator"] = A
        return top_pair(A, *args)

    def spy_eigh(M, **kwargs):
        seen["matrix"] = M.copy()
        return dense_eigh(M, **kwargs)

    monkeypatch.setattr(spectral, "_top_pair", spy_top_pair)
    monkeypatch.setattr(spectral, "eigh", spy_eigh)
    tol = 1e-10
    est = solve(tol)
    A = seen["operator"]
    loop = np.empty((size, size))
    e = np.zeros(size)
    for i in range(size):
        e[i] = 1.0
        loop[:, i] = A.dot(e)
        e[i] = 0.0
    if solver == "dense":
        assert np.array_equal(seen["matrix"], loop)
    else:
        assert "matrix" not in seen
    p = est.params.p
    want = (np.linalg.eigh(loop)[0][-1] - spectral._shift(est.params)) / p
    assert (est.solver, est.dim, est.converged) == (solver, size, True)
    assert abs(est.value - want) <= 1e-13
    assert est.error * p <= tol


# ---------------------------------------------------------------------------
# the symmetric sector of the frame box
# ---------------------------------------------------------------------------

def brute_force_keys(z, p, radius):
    """min over S_p x S_{n-1} x B_d of the encoding _orbit_keys minimises."""
    sites, blocks, d = z.shape
    L = 2 * radius + 1
    best = None
    for walkers in itertools.permutations(range(p)):
        for catalysts in itertools.permutations(range(p, blocks)):
            for perm in itertools.permutations(range(d)):
                for signs in itertools.product((1, -1), repeat=d):
                    w = z[:, walkers + catalysts][:, :, perm] * np.array(signs) + radius
                    w = w.transpose(0, 2, 1)   # axis by axis, each column block by block
                    k = np.ravel_multi_index(tuple(w.reshape(sites, -1).T),
                                             (L,) * (blocks * d))
                    best = k if best is None else np.minimum(best, k)
    return best


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("p,n", list(itertools.product((1, 2, 3), repeat=2)))
def test_orbit_keys_are_the_brute_force_minimum(d, p, n):
    blocks = p + n - 1
    rng = np.random.Generator(np.random.Philox(key=np.uint64(100 * d + 10 * p + n)))
    for radius in (1, 2):
        # small radii make repeated coordinates, zeros and equal blocks common
        z = rng.integers(-radius, radius + 1, size=(40, blocks, d))
        keys = _orbit_keys(z, p, radius)
        assert np.array_equal(keys, brute_force_keys(z, p, radius))


def test_site_coords_match_box_sites():
    box = build_box(6, 1)
    flat = np.array([0, 5, 100, box.size - 1])
    z = site_coords(flat, 2, 3, 1)
    assert [tuple(row.reshape(-1)) for row in z] == [box_site(box, int(i)) for i in flat]


@pytest.mark.parametrize("d,p,n,radius", [(1, 1, 1, 4), (1, 3, 1, 2), (1, 2, 2, 2),
                                          (2, 1, 2, 2), (2, 2, 2, 1), (3, 2, 1, 2),
                                          (3, 2, 1, 4)])
def test_orbit_sizes_sum_to_the_site_count(d, p, n, radius):
    q = _quotient(d, p, n, radius, True)
    assert q.sizes.sum() == (2 * radius + 1) ** (d * (p + n - 1))
    assert q.sizes[q.center] == 1          # z = 0 is fixed by the whole group


def labelled_quotient(d, p, n, radius, frame=True):
    """The all-sites oracle for _quotient: every site of the frame box (or
    of the full box) is labelled by _orbit_keys and the orbit sizes are
    counted; the hop counts between orbits are P^T A P, summed over every
    site, with P the site-orbit incidence and A the walker or the catalyst
    adjacency of frame_matrix."""
    blocks = p + n - 1 if frame else p + n
    z = site_coords(np.arange((2 * radius + 1) ** (d * blocks)), d, blocks, radius)
    _, first, orbit = np.unique(_orbit_keys(z, p, radius),
                                return_index=True, return_inverse=True)
    sizes = np.bincount(orbit)
    P = sparse.csr_matrix((np.ones(len(z)), (np.arange(len(z)), orbit)))

    def hops(kappa, rho):
        A = frame_matrix(PamParams(d=d, n=n, p=p, kappa=kappa, rho=rho), radius, frame)
        A.setdiag(0.0)
        A.eliminate_zeros()
        counted = (P.T @ A @ P).tocoo()
        counted.data /= np.sqrt(sizes[counted.row] * sizes[counted.col])
        out = counted.tocsr()
        out.sort_indices()
        return out

    collisions = frame_collisions(z[first], p, frame).astype(np.float64)
    center = int(orbit[(len(z) - 1) // 2])      # the middle F-order index is z = 0
    return sizes, collisions, hops(1.0, 0.0), hops(0.0, 1.0), center


@pytest.mark.parametrize("d,p,n,radius", [(1, 2, 1, 64), (3, 2, 1, 4), (2, 2, 2, 2),
                                          (3, 1, 2, 2), (1, 1, 1, 0), (2, 3, 1, 1),
                                          (3, 2, 2, 1), (1, 1, 3, 3), (3, 1, 1, 2),
                                          (5, 1, 1, 1)])
def test_quotient_is_the_all_sites_labelling(d, p, n, radius):
    # (1, 2, 1, 64) has 8,321 multisets: decoding them must not go through
    # np.unravel_index on an (N, 1) array, wrong past row 8,192 on numpy 2.4.6.
    # (3, 1, 1, 2) is the one-block frame box phase solves for p = 1, where
    # a walker step and a diagonal step move the same digit; (5, 1, 1, 1)
    # inserts a moved column among four others
    assert_quotient_is_labelled(d, p, n, radius, True)


def assert_quotient_is_labelled(d, p, n, radius, frame):
    q = _quotient(d, p, n, radius, frame)
    sizes, collisions, kappa_hops, rho_hops, center = labelled_quotient(d, p, n, radius,
                                                                        frame)
    assert np.array_equal(q.sizes, sizes) and np.array_equal(q.collisions, collisions)
    assert q.center == center
    for got, want in ((q.kappa_hops, kappa_hops), (q.rho_hops, rho_hops)):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("d,p,n,radius", [(1, 1, 1, 8), (1, 2, 2, 2), (2, 2, 1, 2),
                                          (3, 1, 1, 2), (1, 1, 1, 0), (3, 1, 2, 1),
                                          (2, 2, 2, 1), (1, 1, 3, 2), (2, 3, 1, 1),
                                          (5, 1, 1, 1)])
def test_full_box_quotient_is_the_all_sites_labelling(d, p, n, radius):
    # p+n blocks, all n catalysts permuting, and no diagonal hops; (2, 3, 1, 1)
    # reads each column under the 6 orders of three walkers
    assert_quotient_is_labelled(d, p, n, radius, False)


def test_quotient_build_stays_orbit_sized():
    # the radius-6 frame box at d=3, p=2, n=1 has 13^6 = 4,826,809 sites and
    # 53,459 orbits; the build holds no array over the sites, and at its
    # peak about 8 bytes per site in all
    sites = 13 ** 6
    tracemalloc.start()
    try:
        q = _quotient.__wrapped__(3, 2, 1, 6, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(q.sizes) == 53459 and q.sizes.sum() == sites
    assert peak <= 12 * sites


@pytest.mark.parametrize("d,p,n,radius,frame", [(1, 2, 1, 8, True), (3, 2, 1, 2, True),
                                                (2, 2, 2, 1, True), (3, 1, 1, 2, True),
                                                (1, 1, 1, 0, True), (2, 1, 2, 2, False),
                                                (1, 1, 3, 2, False)])
@pytest.mark.parametrize("kappa,rho", [(0.05, 0.1), (0.0, 0.2), (0.3, 0.0), (0.25, 0.25)])
def test_operator_fill_is_the_scipy_sum(d, p, n, radius, frame, kappa, rho):
    # the solve's matrix, filled into one merged pattern, against the sum it
    # replaces: equal entries and equal products, bit for bit, also where
    # the sum drops the zero entries of a zero rate
    q = _quotient(d, p, n, radius, frame)
    params = PamParams(d=d, n=n, p=p, kappa=kappa, rho=rho)
    shift = spectral._shift(params)
    diagonal = q.collisions + (shift - 2.0 * d * (p * kappa + n * rho))
    want = (kappa * q.kappa_hops + rho * q.rho_hops + sparse.diags(diagonal)).tocsr()
    got = q.operator(kappa, rho, diagonal)
    assert got.has_sorted_indices
    assert np.array_equal(got.toarray(), want.toarray())
    rng = np.random.Generator(np.random.Philox(key=np.uint64(len(q.sizes))))
    for x in (rng.standard_normal(len(q.sizes)), np.ones(len(q.sizes))):
        assert np.array_equal(got @ x, want @ x)
    # the eye product the dense route assembles its matrix from
    eye = np.eye(len(q.sizes))
    assert np.array_equal(got.dot(eye), want.dot(eye))


def test_quotient_keeps_the_frame_box_cap():
    # d=3, p=2, R=4: the radius-8 frame box has 17^6 = 24M sites, over
    # lattice.MAX_SITES, though it has only about 0.25M orbits
    with pytest.raises(CapacityError):
        lambda_spectral(PamParams(3, 1, 2, 0.1, 0.1), [4])


def test_orbit_counts():
    # d=3, p=2, n=1: a group of order 96
    assert len(_quotient(3, 2, 1, 2, True).sizes) == 255
    assert len(_quotient(3, 2, 1, 4, True).sizes) == 6325
    # d=1, p+n=4, R=1: the radius-2 frame box has 125 sites, the full box 81
    for p in (1, 2, 3):
        assert len(_quotient(1, p, 4 - p, 2, True).sizes) < 81
    # the full boxes: 531,441 sites at d=3, p=3, n=1, R=1; 289 at d=1, R=8
    assert len(_quotient(3, 3, 1, 1, False).sizes) == 2510
    assert len(_quotient(3, 2, 1, 1, False).sizes) == 320
    assert len(_quotient(1, 1, 1, 8, False).sizes) == 145


def lifted(q, d, p, n, radius, c):
    """The frame-box function sum_O c_O 1_O / sqrt|O| of orbit coefficients c."""
    blocks = p + n - 1
    flat = np.arange((2 * radius + 1) ** (d * blocks))
    keys = _orbit_keys(site_coords(flat, d, blocks, radius), p, radius)
    labels = np.flatnonzero(np.bincount(keys))
    orbit = labels.searchsorted(keys)
    return c[orbit] / np.sqrt(q.sizes[orbit])


@pytest.mark.parametrize("d,p,n,radius,kappa,rho", [
    (1, 1, 1, 6, 0.3, 0.2), (1, 3, 1, 2, 0.3, 0.2), (2, 2, 2, 1, 0.3, 0.2),
    (2, 2, 1, 2, 0.0, 0.2), (3, 2, 1, 2, 0.05, 0.1)])
def test_quotient_is_the_frame_operator_on_invariant_functions(d, p, n, radius,
                                                               kappa, rho):
    # H lifts Q: for any c, H f(c) = f(Q c), and so the residuals agree
    params = PamParams(d=d, n=n, p=p, kappa=kappa, rho=rho)
    q = _quotient(d, p, n, radius, True)
    shift = spectral._shift(params)
    Q = (kappa * q.kappa_hops + rho * q.rho_hops).toarray() + np.diag(
        q.collisions + shift - 2.0 * d * (p * kappa + n * rho))
    assert np.array_equal(Q, Q.T)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(7 * d + p + 3 * n)))
    c = rng.standard_normal(len(q.sizes))
    f = lifted(q, d, p, n, radius, c)
    Hf = frame_matrix(params, radius) @ f + shift * f
    assert np.allclose(Hf, lifted(q, d, p, n, radius, Q @ c),
                       atol=1e-12)
    theta = float(c @ (Q @ c)) / float(c @ c)
    assert np.linalg.norm(Hf - theta * f) == pytest.approx(
        np.linalg.norm(Q @ c - theta * c), rel=1e-12)


@pytest.mark.parametrize("d,R,n,p", [
    (1, 2, 1, 1), (1, 2, 1, 2), (1, 2, 2, 1), (1, 2, 2, 2), (1, 1, 1, 3),
    (2, 1, 1, 1), (2, 1, 1, 2), (2, 1, 2, 1), (2, 1, 2, 2),
    (3, 1, 1, 1), (3, 1, 1, 2), (3, 1, 2, 1)])
@pytest.mark.parametrize("kappa,rho", [(0.3, 0.2), (0.0, 0.2), (0.3, 0.0)])
def test_quotient_matches_the_whole_frame_box(d, R, n, p, kappa, rho):
    # the whole frame box is the oracle; rho = 0 with n = 2 and kappa = 0
    # make the operator reducible, where the averaging argument still holds
    # (d=3, n=p=2 is left out: its frame box has 1.95M sites)
    params = PamParams(d=d, n=n, p=p, kappa=kappa, rho=rho)
    tol = 1e-8
    got, _ = _sector_top(params, R, tol, frame=True)
    assert got.value == pytest.approx(frame_top(params, 2 * R), abs=tol)
    assert got.dim < (4 * R + 1) ** (d * (p + n - 1))


def test_quotient_krylov_path():
    # 801 orbits: above dense_cutoff, so ARPACK solves the quotient
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    est = lambda_spectral(params, [400])[-1]
    assert est.solver == "arpack" and est.dim == 801
    assert est.value == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-8)
    assert est.error <= 1e-8


def test_lambda_spectral_never_applies_the_frame_operator(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("lambda_spectral must solve on the orbit quotient")

    monkeypatch.setattr(spectral, "_apply_flat", forbidden)
    ests = lambda_spectral(PamParams(d=3, n=1, p=2, kappa=0.05, rho=0.1), [1])
    assert ests[-1].value >= 0.43101842764
    lambda_spectral(PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25), [400])


def test_top_eigen_never_applies_the_site_operator(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("top_eigen must solve on the orbit quotient")

    monkeypatch.setattr(spectral, "_apply_flat", forbidden)
    est = top_eigen(PamParams(d=3, n=1, p=2, kappa=0.05, rho=0.1), 1)
    # 0.43101842764 is the value test_lambda_spectral_d3_beats_old_full_box
    # quotes for this 19,683-site box
    assert est.dim == 320 and est.value == pytest.approx(0.43101842764, abs=1e-11)
    top_eigen(PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25), 20)


# (d, n, p, kappa, rho) over the (n, p) pairs up to four walks, on the
# boxes of radius 2 at d=1 and 1 at d >= 2.  kappa = 0, and rho = 0 with
# n = 2, make L_p reducible, where averaging a non-negative top eigenvector
# over the group still holds.  The two 3^12 = 531,441-site boxes (d=3,
# n+p=4), whose site solves take seconds each, run at one rate pair.
SITE_ORACLE_CASES = [
    (d, n, p, kappa, rho)
    for d in (1, 2, 3)
    for n, p in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2))
    for kappa, rho in ((0.3, 0.2), (0.0, 0.2), (0.3, 0.0))
    if d < 3 or n + p < 4 or (kappa, rho) == (0.3, 0.2)]


@pytest.mark.parametrize("d,n,p,kappa,rho", SITE_ORACLE_CASES)
def test_top_eigen_matches_the_site_space_oracle(d, n, p, kappa, rho):
    params = PamParams(d=d, n=n, p=p, kappa=kappa, rho=rho)
    R = 2 if d == 1 else 1
    est = top_eigen(params, R, 1e-10)
    assert est.dim < (2 * R + 1) ** params.m
    assert abs(est.value - site_top(params, R)) <= 1e-13


def test_estimates_carry_their_provenance():
    est = lambda_spectral(PamParams(d=3, n=1, p=2, kappa=0.05, rho=0.1), [1])[-1]
    assert (est.solver, est.dim, est.matvecs) == ("arpack", 255, 42)
    est = lambda_spectral(PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25), [100])[-1]
    assert (est.solver, est.dim, est.matvecs) == ("dense", 201, 202)
    est = top_eigen(PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25), 20)
    assert est.solver == "arpack" and est.dim == 841 and est.matvecs > 0   # of 41^2 sites


# ---------------------------------------------------------------------------
# tensor gap
# ---------------------------------------------------------------------------

def test_tensor_gap_positive_and_ordered():
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    tg = tensor_gap(params, 6)
    assert tg.gap > 0
    assert tg.rayleigh2 == pytest.approx(tg.lambda1 + tg.gap, abs=1e-8)
    top2 = top_eigen(PamParams(d=1, n=1, p=2, kappa=0.25, rho=0.25), 6)
    assert top2.value >= tg.rayleigh2 - 1e-10


def test_tensor_gap_zero_rho():
    tg = tensor_gap(PamParams(d=1, n=1, p=1, kappa=0.3, rho=0.0), 4)
    assert tg.gap == 0.0
    assert tg.rayleigh2 == pytest.approx(tg.lambda1, abs=1e-12)


def test_tensor_gap_dense_oracle():
    """Recompute all three quantities from scratch on a tiny box."""
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    R = 2
    box = build_box(2, R)
    A = np.array([naive_apply(params, box, e) for e in np.eye(box.size)]).T
    w, V = np.linalg.eigh(A)
    lam1, f = w[-1], V[:, -1]
    L = 2 * R + 1
    M = f.reshape((L, L), order="F")            # M[x, y]
    ften = np.einsum("ay,by->aby", M, M)
    norm_sq = float(np.sum(ften ** 2))
    # gap by direct loops over y and its neighbors (zero outside)
    total = 0.0
    for y in range(L):
        for z in (y - 1, y + 1):
            col = M[:, z] if 0 <= z < L else np.zeros(L)
            s = float(np.dot(M[:, y], col - M[:, y]))
            total += s * s
    gap = 0.5 * params.rho * total / norm_sq
    p2 = PamParams(d=1, n=1, p=2, kappa=0.25, rho=0.25)
    box2 = build_box(3, R)
    fv = ften.reshape(-1, order="F")
    ray2 = float(np.dot(fv, naive_apply(p2, box2, fv))) / (2.0 * norm_sq)

    tg = tensor_gap(params, R)
    assert tg.lambda1 == pytest.approx(lam1, abs=1e-9)
    assert tg.gap == pytest.approx(gap, abs=1e-9)
    assert tg.rayleigh2 == pytest.approx(ray2, abs=1e-9)


def test_tensor_gap_checks_the_p2_box_before_solving(monkeypatch):
    # d=3, n=1, R=3: the p=2 box has 7^9 = 40M sites, over lattice.MAX_SITES;
    # it is refused before the p=1 solve and before f~ is built
    def no_solve(*args):
        raise AssertionError("tensor_gap solved before checking the p=2 box")

    monkeypatch.setattr(spectral, "_quotient", no_solve)
    monkeypatch.setattr(spectral, "_apply_flat", no_solve)
    with pytest.raises(CapacityError):
        tensor_gap(PamParams(d=3, n=1, p=1, kappa=0.1, rho=0.1), 3)


def test_tensor_gap_requires_p1():
    with pytest.raises(ValueError):
        tensor_gap(PamParams(d=1, n=1, p=2, kappa=0.1, rho=0.1), 2)


# ---------------------------------------------------------------------------
# Gagliardo-Nirenberg
# ---------------------------------------------------------------------------

def test_gn_delta_anchors():
    lhs, rhs, ok = check_gn(delta_field(build_box(1, 3)), 1)
    assert (lhs, ok) == (1.0, True)
    assert rhs == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    lhs, rhs, ok = check_gn(delta_field(build_box(2, 3)), 2)
    assert (lhs, ok) == (1.0, True)
    assert rhs == pytest.approx(4.0, rel=1e-12)


def test_gn_random_fields():
    for d, R in ((1, 8), (2, 3)):
        box = build_box(d, R)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(21 + d)))
        for _ in range(300):
            f = Field(box, rng.standard_normal(box.size))
            lhs, rhs, ok = check_gn(f, d)
            assert ok and lhs <= rhs


def test_gn_validation():
    with pytest.raises(ValueError):
        check_gn(delta_field(build_box(3, 1)), 3)
    with pytest.raises(DimensionMismatchError):
        check_gn(delta_field(build_box(2, 1)), 1)


# ---------------------------------------------------------------------------
# f0 functional
# ---------------------------------------------------------------------------

def test_f0_needs_d5():
    with pytest.raises(ValueError):
        f0_rayleigh(4, 1, 1, 0.0, 2)
    with pytest.raises(ValueError):
        f0_rayleigh(5, 1, 1, -0.1, 2)


def test_f0_converges_to_green_zero():
    g = greens.green_zero(5).value
    prev = math.inf
    for R in (2, 4, 8):
        b = f0_rayleigh(5, 1, 2, 0.0, R)
        dist = abs(b.value - g)
        assert dist < prev
        prev = dist
    assert dist <= 0.005 * g


def test_f0_constituents_near_closed_forms():
    g = greens.green_zero(5).value
    l2 = greens.green_l2sq(5).value
    b = f0_rayleigh(5, 1, 2, 0.0, 8)
    assert b.grad_y_sq == 2.0 * 5 * 1                       # exact at any R
    assert b.ip_mass == pytest.approx(2 * g * g / l2, rel=0.03)
    assert b.grad_x_sq == pytest.approx(2 * g / l2, rel=0.03)
    assert float(b) == b.value
    assert isinstance(b, F0Bound)


def f0_grid_route(d: int, n: int, p: int, rho: float, R: int):
    """(value, ip_mass, grad_x_sq) of f0 from the whole (2R+1)^d Green grid."""
    g = greens.green_box_values(d, R)
    flat = g.reshape(-1)
    s2 = float(np.dot(flat, flat))
    center = float(g[(R,) * d])
    ip_mass = n * p * center * center / s2
    grad_x_sq = p * grad_sq_grid(g, range(d)) / s2
    return (ip_mass - rho * 2.0 * d * n) / grad_x_sq, ip_mass, grad_x_sq


@pytest.mark.parametrize("d, R", [(5, 0), (5, 1), (5, 2), (5, 4), (6, 1), (6, 2)])
def test_f0_table_route_matches_grid_route(d, R):
    b = f0_rayleigh(d, 2, 3, 0.01, R)
    want = f0_grid_route(d, 2, 3, 0.01, R)
    for got, ref in zip((b.value, b.ip_mass, b.grad_x_sq), want):
        assert abs(got - ref) <= 1e-13 * abs(ref)
    # the orbit sizes tile the cube and every line's (d-1)-face
    for m in (d, d - 1):
        keys, mult = greens._multisets(m, R)
        assert int(mult.sum()) == (2 * R + 1) ** m
        assert np.all(np.diff(keys, axis=1) >= 0)


def test_f0_beyond_the_grid_cap():
    # (2*18+1)^5 = 69M sites: the whole-grid route refuses this radius
    with pytest.raises(CapacityError):
        greens.green_box_values(5, 18)
    g0 = greens.green_zero(5)
    b16 = f0_rayleigh(5, 1, 1, 0.0, 16)
    b18 = f0_rayleigh(5, 1, 1, 0.0, 18)
    assert b16.value < b18.value <= g0.value + g0.abs_error


def test_f0_in_high_dimension():
    # 21! overflowed the int64 orbit sizes; the binomial product does not
    b = f0_rayleigh(21, 1, 1, 0.0, 1)
    g0 = greens.green_zero(21)
    assert math.isfinite(b.value) and 0.0 < b.value <= g0.value + g0.abs_error


# (value, ip_mass, grad_x_sq) of f0_rayleigh(d, 1, 1, 0.0, R), the same bits
# with 1 and with 2 OpenBLAS threads
F0_PINS = {
    (5, 12): (0.11561081413244335, 0.7000142335622311, 6.05492002469853),
    (5, 16): (0.11561935056998035, 0.6978088281626895, 6.0353982678732505),
    (5, 18): (0.1156216987995436, 0.6970667850253586, 6.028857837782523),
    (6, 2): (0.09300364256439413, 0.8304120758192526, 8.928812387582449),
}


@pytest.mark.parametrize("d, R", list(F0_PINS))
def test_f0_values_are_pinned(d, R):
    b = f0_rayleigh(d, 1, 1, 0.0, R)
    assert (b.value, b.ip_mass, b.grad_x_sq) == F0_PINS[d, R]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_f0_pins_hold_under_each_blas_thread_count(threads):
    # a fresh interpreter: numpy and scipy each load their OpenBLAS at import,
    # which reads the thread count once
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import json; from pamlab.spectral import f0_rayleigh; "
            f"bs = [f0_rayleigh(d, 1, 1, 0.0, R) for d, R in {list(F0_PINS)!r}]; "
            "print(json.dumps([(b.value, b.ip_mass, b.grad_x_sq) for b in bs]))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads))
    assert proc.returncode == 0, proc.stderr
    got = [tuple(v) for v in json.loads(proc.stdout)]
    assert got == list(F0_PINS.values())


@pytest.mark.parametrize("threads", ["1", "2"])
def test_quadrature_values_hold_under_each_blas_thread_count(threads):
    # the head of greens._certified_integral sums with np.dot, BLAS ddot,
    # which splits its partial sums by thread once the vectors are long;
    # mu_inverse(3, 0.6) builds the phase-certify sweep's largest node
    # table, 3,744 nodes at nu_grade = 2^37, and mu_inverse(1, 1e-6) the
    # largest found at all, 7,632 nodes: below the 10,000 entries from which
    # numpy's OpenBLAS splits a dot, so the quadrature runs unpinned
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import json; from pamlab import greens, spectral; "
            "gs = [greens.green_zero(3), greens.alpha(5), greens.green_at(3, (1, 2, 3))]; "
            "print(json.dumps([[g.value, g.abs_error] for g in gs] "
            "+ [spectral.mu(3, 0.1), spectral.mu_inverse(3, 0.4), "
            "spectral.mu_inverse(3, 0.6), spectral.mu_inverse(1, 1e-6)]))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads))
    assert proc.returncode == 0, proc.stderr
    gs = [greens.green_zero(3), greens.alpha(5), greens.green_at(3, (1, 2, 3))]
    here = [[g.value, g.abs_error] for g in gs] + [mu(3, 0.1), mu_inverse(3, 0.4),
                                                   mu_inverse(3, 0.6), mu_inverse(1, 1e-6)]
    assert json.loads(proc.stdout) == here


def test_f0_table_memory_stays_flat():
    # the dense (R+1)^d table and its per-multiset build peaked at 17.7 MB
    f0_rayleigh(5, 1, 1, 0.0, 2)     # imports and quadrature caches first
    tracemalloc.start()
    try:
        f0_rayleigh(5, 1, 1, 0.0, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


@pytest.mark.parametrize("bad", [dict(rho=math.nan), dict(rho=math.inf),
                                 dict(tol=math.nan), dict(tol=0.0), dict(tol=-1.0),
                                 dict(tol=math.inf)])
def test_f0_rejects_non_finite_inputs(bad):
    args = dict(d=5, n=1, p=1, rho=0.0, R=2) | bad
    with pytest.raises(ValueError):
        f0_rayleigh(**args)


def test_f0_rho_dependence_is_exact_shift():
    b0 = f0_rayleigh(5, 2, 1, 0.0, 4)
    b1 = f0_rayleigh(5, 2, 1, 0.3, 4)
    want = b0.value - 0.3 * b0.grad_y_sq / b0.grad_x_sq
    assert b1.value == pytest.approx(want, rel=1e-12)
