"""Green-function quantities against independent oracles.

The oracles here deliberately avoid the package's own quadrature path:
high-precision mpmath evaluation for the Bessel envelope and tails, the
Watson product-of-Gammas closed form for the d=3 value, an erf-based 1-D
reduction for the cube constants, and scipy's adaptive quadrature as an
unrelated integrator.
"""
import math
from collections import Counter
from itertools import combinations_with_replacement, product

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf, i0e, ive

from pamlab import greens
from pamlab.greens import (
    GreenEstimate,
    alpha,
    green_at,
    green_box_values,
    green_l2sq,
    green_zero,
    heat_kernel_diag,
)
from pamlab.lattice import CapacityError

# Watson's closed form for the simple cubic lattice integral; our G_3(0)
# equals that integral divided by 6 (rate normalization + parity folding).
mp.mp.dps = 30
_W3 = (mp.sqrt(6) / (32 * mp.pi ** 3) * mp.gamma(mp.mpf(1) / 24)
       * mp.gamma(mp.mpf(5) / 24) * mp.gamma(mp.mpf(7) / 24)
       * mp.gamma(mp.mpf(11) / 24))
G3_CLOSED = float(_W3 / 6)   # 0.25273100985866300...


def i0_series(x: float, terms: int = 20) -> float:
    """Power series sum_k (x/2)^(2k) / (k!)^2."""
    total, term = 0.0, 1.0
    for k in range(terms):
        total += term
        term *= (x / 2.0) ** 2 / ((k + 1) ** 2)
    return total


# ---------------------------------------------------------------------------
# heat kernel and the tail envelope certification
# ---------------------------------------------------------------------------

def test_heat_kernel_anchors():
    assert heat_kernel_diag(3, 0.7, 0.0) == 1.0
    assert heat_kernel_diag(2, 0.0, 5.0) == 1.0
    expected = math.exp(-2.0) * i0_series(2.0)
    assert heat_kernel_diag(1, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.308508322553671, abs=1e-12)
    with pytest.raises(ValueError):
        heat_kernel_diag(0, 1.0, 1.0)
    with pytest.raises(ValueError):
        heat_kernel_diag(1, -0.1, 1.0)


def test_i0e_against_series():
    for x in (0.0, 0.5, 2.0, 7.5):
        assert float(i0e(x)) == pytest.approx(math.exp(-x) * i0_series(x, 30),
                                              rel=1e-14)


@pytest.mark.parametrize("k", list(range(0, 21)))
def test_bessel_tail_envelope_certified(k):
    """sqrt(2 pi x) e^{-x} I_k(x) = 1 - (4k^2-1)/(8x) + r with |r| <= B_k/x^2.

    This claim is what makes every reported abs_error a certified bound; it
    is validated here against arbitrary-precision Bessel values on a dense
    geometric grid from the claimed threshold up to 1e7.
    """
    xmin = greens._env_xmin(k)
    bk = greens._env_b(k)
    xs = [xmin * 1.15 ** j for j in range(40) if xmin * 1.15 ** j <= 1e7]
    xs += [1e7]
    with mp.workdps(40):
        for x in xs:
            s = mp.sqrt(2 * mp.pi * x) * mp.exp(-x) * mp.besseli(k, x)
            r = s - 1 + (4 * k * k - 1) / (8 * mp.mpf(x))
            assert abs(r) <= bk / (x * x), f"envelope fails at k={k}, x={x}"


def test_tail_power_oracle():
    # int_T^inf e^{-nu t} t^{-sigma} dt against mpmath quadrature
    with mp.workdps(30):
        for sigma, nu, T in ((2.5, 0.0, 60.0), (1.5, 0.0, 200.0),
                             (2.5, 0.3, 60.0), (0.5, 1.2, 80.0)):
            want = mp.quad(lambda t: mp.exp(-nu * t) * t ** (-sigma), [T, mp.inf])
            got, _ = greens._tail_power_err(sigma, nu, T)
            assert got == pytest.approx(float(want), rel=1e-10)
    with pytest.raises(ValueError):
        greens._tail_power_err(0.9, 0.0, 60.0)


def _tail_grid():
    sigmas = [0.5 * j for j in range(1, 10)]
    grid = [(s, nu, 60.0 * 2 ** j) for s in sigmas
            for nu in (1e-10, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3)
            for j in range(21)]
    # both sides of the series / continued-fraction switch-over at x = nu*T
    x_cf = greens._X_CF
    grid += [(s, x / 60.0, 60.0) for s in sigmas
             for x in (0.5 * x_cf, x_cf * (1 - 1e-12), x_cf * (1 + 1e-12), 2.0 * x_cf)]
    # where a 40-node Gauss-Laguerre stand-in was about 100% wrong
    grid.append((3.5, 1e-6, 60.0))
    return grid


def test_tail_power_err_contains_gammainc():
    # the float route's (value, abs_error) brackets int_T^inf e^{-nu t} t^{-sigma} dt
    # = nu^(sigma-1) Gamma(1-sigma, nu T), evaluated by mpmath at 30 digits
    with mp.workdps(30):
        for sigma, nu, T in _tail_grid():
            value, err = greens._tail_power_err(sigma, nu, T)
            s, x = mp.mpf(sigma), mp.mpf(nu) * mp.mpf(T)
            want = mp.gammainc(1 - s, x) * mp.mpf(nu) ** (s - 1)
            assert abs(mp.mpf(value) - want) <= err, (sigma, nu, T)
            if want > 1e-250:   # and tight: at most a few hundred ulps
                assert err <= 1e-12 * float(want), (sigma, nu, T)
    for sigma in (2.25, 0.0):
        with pytest.raises(ValueError, match="tail power needs sigma"):
            greens._tail_power_err(sigma, 0.1, 60.0)


def test_tail_bracket_contains_truth():
    # d=5 mixed orders: the certified bracket must contain the mpmath value
    ks, T = (0, 0, 0, 1, 2), 60.0
    mid, half = greens._tail_bracket(ks, 0, 0.0, T)
    with mp.workdps(30):
        truth = mp.quad(
            lambda t: mp.exp(-10 * t) * mp.besseli(0, 2 * t) ** 3
            * mp.besseli(1, 2 * t) * mp.besseli(2, 2 * t), [T, 200, 2000, mp.inf])
    assert abs(mid - float(truth)) <= half
    assert half < 1e-3 * mid   # bracket is tight relative to the value at T=60


def bessel_product_oracle(ks, weight, nu):
    """int_0^inf t^w e^{-nu t} prod_i e^{-2t} I_{k_i}(2t) dt by mpmath quadrature."""
    with mp.workdps(20):
        def f(t):
            bessel = mp.fprod(mp.besseli(k, 2 * t) ** ks.count(k) for k in set(ks))
            return t ** weight * mp.exp(-(nu + 2 * len(ks)) * t) * bessel
        return float(mp.quad(f, [0, 1, 10, 60, 200, 2000, mp.inf]))


@pytest.mark.parametrize("ks, weight, nu", [
    *(((0, 0, 0, 1, 2), w, nu) for w in (0, 1) for nu in (0.0, 0.3, 5.0)),
    ((0, 0, 0), 0, 0.3), ((0, 0, 0), 1, 0.3),
    # the regime of spectral.mu: nu > 0 at low dimension
    *(((0,) * d, 0, nu) for d in (1, 2) for nu in (0.05, 1.0))])
def test_certified_integral_contains_oracle(ks, weight, nu):
    value, err = greens._certified_integral(ks, weight, nu, 1e-9)
    assert err <= 1e-9
    assert abs(value - bessel_product_oracle(ks, weight, nu)) <= err


def test_certified_integral_non_strict():
    # 1e-16 is below the rounding term of abs_error, so never certifiable
    ks, nu = (0, 0, 0), 0.3
    with pytest.raises(ValueError, match="not certifiable"):
        greens._certified_integral(ks, 0, nu, 1e-16)
    value, err = greens._certified_integral(ks, 0, nu, 1e-16, strict=False)
    assert err > 1e-16
    ref, ref_err = greens._certified_integral(ks, 0, nu, 1e-9)
    assert abs(value - ref) <= err + ref_err
    with pytest.raises(ValueError, match="diverges"):
        greens._certified_integral(ks, 1, 0.0, 1e-9)


@pytest.mark.parametrize("ks, weight", [((0,), 1), ((0, 0), 1), ((0, 0, 0), 2)])
def test_certified_integral_refuses_tails_it_cannot_bracket(ks, weight):
    # nu > 0 makes these integrals converge, but the tail bracket needs
    # len(ks)/2 - weight >= 1/2: refused up front, not deep in the tail
    with pytest.raises(ValueError, match=r"len\(ks\)/2 - weight >= 1/2"):
        greens._certified_integral(ks, weight, 0.5, 1e-9)


def per_call_integral(ks, weight, nu, tol):
    """The oracle for _certified_integral's shared node tables: the same
    horizon, tail and certificate, with panels graded at the exact nu and
    nodes and integrand built on every call; non-strict."""
    T, mid, half = greens._horizon(ks, weight, nu, tol)
    edges = greens._edges(0.25 / (len(ks) + nu + 1.0), T)
    orders = sorted(Counter(ks).items())

    def head(nodes):
        t, w = greens._panel_nodes(edges, nodes)
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
            break
    return value, err


# (d, w) = (1, 1) and (2, 1) are left out: their tail powers t^{w - d/2}
# (sigma < 1/2) are outside _tail_power_err, on either route
@pytest.mark.parametrize("d, weight", [(1, 0), (2, 0), (3, 0), (3, 1), (5, 0), (5, 1)])
def test_shared_tables_agree_with_the_per_call_heads(d, weight):
    # a log grid over the nu that spectral.mu and mu_inverse reach, at their
    # quadrature tol; both routes are certified, so their brackets overlap
    for nu in np.logspace(-10, 11, 43):
        value, err = greens._certified_integral((0,) * d, weight, nu, 1e-12, strict=False)
        want, want_err = per_call_integral((0,) * d, weight, nu, 1e-12)
        assert abs(value - want) <= err + want_err, nu


@pytest.mark.parametrize("ks, weight", [((0, 0, 0), 0), ((0,) * 5, 0), ((0,) * 5, 1),
                                        ((0, 0, 0, 1, 2), 0), ((1, 2, 3), 0)])
def test_shared_tables_keep_every_operation_at_nu_zero(ks, weight):
    assert greens._nu_grade(0.0) == 0.0
    assert greens._certified_integral(ks, weight, 0.0, 1e-9) == \
        per_call_integral(ks, weight, 0.0, 1e-9)


@settings(max_examples=300, deadline=None)
@given(nu=st.floats(min_value=5e-324, max_value=2.0 ** 1023)
       | st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e)))
@example(nu=0.3)
@example(nu=1e11)
@example(nu=1.0)
@example(nu=2.0 ** 1023)
def test_nu_grade_is_the_next_power_of_two(nu):
    grade = greens._nu_grade(nu)
    assert math.frexp(grade)[0] == 0.5
    if math.frexp(nu)[0] == 0.5:
        assert grade == nu
    else:
        assert nu < grade < 2.0 * nu


def test_head_tables_are_read_only():
    t, w, f = greens._head_table(((0, 3),), 0, 1.0, 60.0, 32)
    for a in (t, w, f):
        with pytest.raises(ValueError):
            a[0] = 0.0


# (value, abs_error) recorded before the three quadrature loops were merged
# into _certified_integral; the merge keeps every operation, so these hold
# with ==.
_RECORDED = {
    ("G(0)", 3): (0.252731009838387, 7.758767069624246e-11),
    ("G(0)", 4): (0.15493339021672076, 5.147026880866017e-11),
    ("G(0)", 5): (0.11563081244501507, 1.3207278417039238e-10),
    ("G(0)", 6): (0.09308028110061566, 5.171444221646213e-12),
    ("G(0)", 7): (0.07813616539906694, 2.008872900566109e-13),
    ("G(0)", 8): (0.06741543825105523, 8.736385813604802e-15),
    ("|G|_2^2", 5): (0.019349414385837562, 6.100442724742726e-11),
    ("|G|_2^2", 6): (0.010514915657776885, 5.153931584831383e-11),
    ("|G|_2^2", 7): (0.006973398819097239, 1.541485598786373e-11),
    ("|G|_2^2", 8): (0.00503516714707942, 5.75136979233092e-13),
    ("alpha", 5): (0.5975933438566949, 2.5666470878954222e-09),
    ("alpha", 6): (0.7376844802346165, 3.6567775110882576e-09),
    ("alpha", 7): (0.8003492724491051, 1.7712478788844577e-09),
    ("alpha", 8): (0.836807352688364, 9.569193297149085e-11),
    ("G(x)", (1, 2, 3)): (0.021157661922126317, 8.61241468207072e-11),
    ("G(x)", (1, 2, 3, 4)): (0.0008380622594338691, 9.556660918684323e-11),
}


@pytest.mark.parametrize("key", list(_RECORDED))
def test_quadrature_values_unchanged(key):
    quantity, arg = key
    fn = {"G(0)": green_zero, "|G|_2^2": green_l2sq, "alpha": alpha}.get(quantity)
    est = green_at(len(arg), arg) if fn is None else fn(arg)
    assert (est.value, est.abs_error) == _RECORDED[key]


# ---------------------------------------------------------------------------
# G_d(0)
# ---------------------------------------------------------------------------

def test_green_zero_d3_watson():
    est = green_zero(3)
    assert abs(est.value - G3_CLOSED) <= est.abs_error
    assert est.abs_error <= 1e-9
    assert est.method == "time-integral"
    assert not est.divergent


def test_green_zero_adaptive_quad_oracle():
    # scipy's adaptive integrator is a completely different quadrature engine
    for d in (3, 4, 5):
        ref, ref_err = quad(lambda t: i0e(2.0 * t) ** d, 0.0, np.inf, limit=400)
        est = green_zero(d)
        assert abs(est.value - ref) <= est.abs_error + 10 * abs(ref_err)


def test_green_zero_divergent_low_d():
    for d in (1, 2):
        est = green_zero(d)
        assert est.divergent
        assert est.value == math.inf
        assert est.quantity == "G(0)"


def test_green_zero_decreasing_in_d():
    vals = [green_zero(d).value for d in range(3, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_green_zero_method_cross_agreement():
    t3 = green_zero(3)
    f3 = green_zero(3, method="fourier-quadrature")
    assert abs(t3.value - f3.value) <= t3.abs_error + f3.abs_error
    f4 = green_zero(4, method="fourier-quadrature")
    t4 = green_zero(4)
    assert abs(t4.value - f4.value) <= t4.abs_error + f4.abs_error
    with pytest.raises(ValueError):
        green_zero(5, method="fourier-quadrature")
    with pytest.raises(ValueError):
        green_zero(3, method="resummation")


def test_cube_constant_erf_oracle():
    # int_{[0,pi]^d} dtheta/|theta|^2 = int_0^inf (sqrt(pi/4s) erf(pi sqrt(s)))^d ds
    def g(s):
        return math.sqrt(math.pi / (4 * s)) * erf(math.sqrt(s) * math.pi)

    for d in (3, 4):
        ref, ref_err = quad(lambda s: g(s) ** d, 0.0, np.inf, limit=400)
        assert greens._CUBE_INV_SQ[d] == pytest.approx(ref, abs=100 * ref_err)


def test_green_zero_monte_carlo():
    est = green_zero(5, method="monte-carlo", seed=7, samples=2_000_000)
    ref = green_zero(5)
    assert abs(est.value - ref.value) <= est.abs_error + ref.abs_error
    assert est.method == "monte-carlo"
    with pytest.raises(ValueError):
        green_zero(4, method="monte-carlo", seed=1)   # infinite variance
    with pytest.raises(ValueError):
        green_zero(5, method="monte-carlo")           # no seed
    # one sample has zero spread, so its abs_error would claim an exact value
    for samples in (1, 0, -5):
        with pytest.raises(ValueError, match="need at least 2 samples"):
            green_zero(5, method="monte-carlo", seed=1, samples=samples)


def test_green_zero_validation():
    with pytest.raises(ValueError):
        green_zero(0)
    with pytest.raises(ValueError):
        green_zero(3, tol=0.0)
    with pytest.raises(ValueError):
        green_zero(3, tol=-1e-9)
    for d in (2, 3):                 # d <= 2 diverges, but the method is checked first
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            green_zero(d, method="bogus")


# ---------------------------------------------------------------------------
# G_d(x)
# ---------------------------------------------------------------------------

def test_green_at_origin_matches_zero():
    a = green_at(3, (0, 0, 0))
    b = green_zero(3)
    assert abs(a.value - b.value) <= a.abs_error + b.abs_error


def test_green_at_defining_relation():
    # sum over neighbors of (G(y) - G(x)) = -delta_0(x), within 10*tol
    tol = 1e-9
    for x in product(range(-2, 3), repeat=3):
        gx = green_at(3, x, tol).value
        lap = sum(green_at(3, tuple(np.add(x, sg * np.eye(3, dtype=int)[i])), tol).value - gx
                  for i in range(3) for sg in (1, -1))
        assert lap == pytest.approx(-1.0 if x == (0, 0, 0) else 0.0, abs=10 * tol)


def test_green_at_axis_decay():
    vals = [green_at(3, (k, 0, 0)).value for k in range(6)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_green_at_symmetries():
    assert green_at(3, (1, -2, 0)).value == green_at(3, (2, 0, 1)).value
    assert green_at(4, (3, 0, 0, 1)).value == green_at(4, (0, -1, -3, 0)).value


def test_green_at_validation():
    with pytest.raises(ValueError):
        green_at(2, (1, 1))
    with pytest.raises(ValueError):
        green_at(3, (1, 1))       # wrong coordinate count
    with pytest.raises(ValueError):
        green_at(3, (0, 0, 0), tol=0.0)


def test_green_at_refuses_non_integer_sites():
    # a float coordinate is refused, not truncated to G_3(1, 0, 0)
    for site in ((1.5, 0, 0), (np.float64(2.0), 0, 0)):
        with pytest.raises(TypeError):
            green_at(3, site)
    assert green_at(3, (np.int64(2), 0, 0)) == green_at(3, (2, 0, 0))


# ---------------------------------------------------------------------------
# |G|_2^2 and alpha
# ---------------------------------------------------------------------------

def test_l2sq_divergent_through_d4():
    for d in (1, 2, 3, 4):
        assert green_l2sq(d).divergent
    est = green_l2sq(5)
    assert not est.divergent
    assert est.value > 0


def test_l2sq_adaptive_quad_oracle():
    ref, ref_err = quad(lambda t: t * i0e(2.0 * t) ** 5, 0.0, np.inf, limit=400)
    est = green_l2sq(5)
    assert abs(est.value - ref) <= est.abs_error + 10 * abs(ref_err)


def test_l2sq_dominates_center_square():
    for d in (5, 6):
        assert green_l2sq(d).value >= green_zero(d).value ** 2


def test_truncated_lattice_sum_increases_to_l2sq():
    # G(x)^2 ~ |x|^(2(2-d)) so the missing mass only shrinks like 1/R;
    # assert the increasing-and-bounded structure plus a shrinking deficit
    target = green_l2sq(5).value
    prev, prev_deficit = 0.0, math.inf
    for R in (0, 1, 2, 3):
        s = float(np.sum(green_box_values(5, R) ** 2))
        assert prev < s <= target + 1e-9
        deficit = target - s
        assert deficit < prev_deficit
        prev, prev_deficit = s, deficit
    assert prev_deficit < 0.05 * target


def test_alpha_zero_at_d34():
    for d in (3, 4):
        est = alpha(d)
        assert est.value == 0.0
        assert est.abs_error == 0.0
    with pytest.raises(ValueError):
        alpha(2)


def test_alpha_trend_and_range():
    vals = {d: alpha(d).value for d in range(5, 31)}
    for d, v in vals.items():
        assert 0.0 < v <= 1.0
    assert all(vals[d] < vals[d + 1] for d in range(5, 30))
    assert vals[30] > vals[5]
    assert vals[5] == pytest.approx(0.5975933438566949, abs=1e-8)


def test_smallest_d_per_moment_threshold():
    # smallest D with alpha_D > (p-1)/p, the hypothesis that certifies
    # a p-window; reported per p for the log
    vals = {d: alpha(d).value for d in range(5, 31)}
    smallest = {}
    for p in (2, 3, 4, 5):
        smallest[p] = next(d for d in sorted(vals) if vals[d] > (p - 1) / p)
    print(f"smallest d with alpha_d > (p-1)/p: {smallest}")
    assert smallest == {2: 5, 3: 6, 4: 7, 5: 7}


# ---------------------------------------------------------------------------
# bulk cube evaluation
# ---------------------------------------------------------------------------

def test_box_values_match_pointwise():
    g = green_box_values(3, 2)
    assert g.shape == (5, 5, 5)
    for site in ((0, 0, 0), (1, 0, 0), (-2, 1, 2), (2, 2, 2), (-1, -1, 0)):
        idx = tuple(c + 2 for c in site)
        assert g[idx] == pytest.approx(green_at(3, site).value, abs=1e-10)


def old_cube_scatter(table: np.ndarray, radius: int) -> np.ndarray:
    """The whole-cube scatter: table[sorted |x|] for every site x at once, F order."""
    d = table.ndim
    L = 2 * radius + 1
    absk = np.abs(np.arange(-radius, radius + 1)).astype(np.int16)
    idx = np.unravel_index(np.arange(L ** d), (L,) * d, order="F")
    keys = np.stack([absk[i] for i in idx], axis=1)
    keys.sort(axis=1)
    strides = np.array([(radius + 1) ** j for j in range(d - 1, -1, -1)], dtype=np.int64)
    codes = keys.astype(np.int64) @ strides
    return table.ravel()[codes].reshape((L,) * d, order="F")


@pytest.mark.parametrize("d, R", [(3, 0), (3, 1), (3, 3), (4, 2), (5, 1), (6, 1)])
def test_box_values_slab_scatter_matches_cube_scatter(d, R):
    g = green_box_values(d, R)
    assert g.flags.c_contiguous and np.shares_memory(g, g.reshape(-1))
    # the nonnegative orthant holds the table at every sorted-key index
    table = g[(slice(R, None),) * d]
    assert np.array_equal(g, old_cube_scatter(table, R))


def test_box_values_off_axis_sites():
    R = 3
    g = green_box_values(4, R)
    for site in ((1, -2, 0, 3), (-3, 3, -1, 2), (2, 0, -1, 0), (-1, -1, -1, -1)):
        idx = tuple(c + R for c in site)
        assert g[idx] == pytest.approx(green_at(4, site).value, abs=1e-10)


def test_box_values_d5():
    g = green_box_values(5, 1)
    assert g.shape == (3,) * 5
    assert g[(1,) * 5] == pytest.approx(green_zero(5).value, abs=1e-10)
    assert g[(2, 1, 1, 1, 1)] == pytest.approx(green_at(5, (1, 0, 0, 0, 0)).value,
                                               abs=1e-10)


def test_box_values_validation():
    with pytest.raises(ValueError):
        green_box_values(2, 1)
    with pytest.raises(CapacityError):
        green_box_values(3, 200)


def test_box_values_reject_bad_radius_and_tol():
    with pytest.raises(ValueError, match="radius must be >= 0"):
        green_box_values(3, -1)
    for tol in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            green_box_values(3, 2, tol)


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_every_public_quantity_checks_tol(monkeypatch, tol):
    # a NaN once slipped past tol <= 0 and ran the quadrature to its 1e8 horizon
    def no_quadrature(*args, **kwargs):
        raise AssertionError("tol reached the quadrature")

    monkeypatch.setattr(greens, "_certified_integral", no_quadrature)
    for call in (lambda: green_zero(3, tol), lambda: green_l2sq(5, tol),
                 lambda: green_at(3, (1, 0, 0), tol), lambda: alpha(5, tol),
                 lambda: green_zero(3, tol, method="fourier-quadrature")):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            call()


# ---------------------------------------------------------------------------
# the flat multiset table
# ---------------------------------------------------------------------------

def loop_green_table(d: int, radius: int, tol: float) -> np.ndarray:
    """The table one multiset at a time, in a dense (R+1)^d array: the scalar
    _tail_bracket midpoint per multiset, and the head as a product of
    per-order Bessel rows over the same 48-node panels."""
    T, _, _ = greens._horizon((radius,) * d, 0, 0.0, tol)
    t, w = greens._panel_nodes(greens._edges(0.25 / (d + 1.0), T), 48)
    V = np.array([ive(k, 2.0 * t) for k in range(radius + 1)])
    table = np.zeros((radius + 1,) * d)
    for ks in combinations_with_replacement(range(radius + 1), d):
        prod = w.copy()
        for k in ks:
            prod = prod * V[k]
        mid, _ = greens._tail_bracket(ks, 0, 0.0, T)
        table[ks] = float(prod.sum()) + mid
    return table


@pytest.mark.parametrize("d, R", [(3, 0), (3, 20), (5, 12), (6, 6)])
def test_flat_table_matches_the_multiset_loop(d, R):
    keys, _ = greens._multisets(d, R)
    got = greens._green_table(keys, R, 1e-9)
    assert np.array_equal(got, loop_green_table(d, R, 1e-9)[tuple(keys.T)])


@pytest.mark.parametrize("m, R", [(1, 0), (1, 4), (3, 0), (3, 5), (5, 3)])
def test_multisets_enumerate_sorted_keys_in_order(m, R):
    keys, mult = greens._multisets(m, R)
    want = list(combinations_with_replacement(range(R + 1), m))
    assert [tuple(row) for row in keys.tolist()] == want
    assert int(mult.sum()) == (2 * R + 1) ** m
    # the lookup maps every row to its own index
    assert np.array_equal(greens._rows(keys, R, keys), np.arange(len(keys)))


@pytest.mark.parametrize("m, R", [(1, 8320), (3, 40), (21, 1)])
def test_multiset_orbit_sizes_are_the_closed_form(m, R):
    # m!/prod(repeats!) * 2^(number of nonzero values), in Python ints;
    # (1, 8320) is the frame-column shape of a d=1, p=2, R=32 spectral box
    keys, mult = greens._multisets(m, R)
    want = []
    for row in keys.tolist():
        size = math.factorial(m)
        for repeats in Counter(row).values():
            size //= math.factorial(repeats)
        want.append(size << sum(1 for k in row if k))
    assert mult.tolist() == want


def test_multisets_refuse_an_oversized_table():
    with pytest.raises(CapacityError):
        greens._multisets(5, 100)            # C(105, 5) = 96M rows
    with pytest.raises(CapacityError):
        greens._multisets(20, 8)             # 9^20 overflows the int64 codes


@pytest.mark.parametrize("R", [1, 2])
def test_multiset_orbits_tile_the_cube_up_to_the_int64_bound(R):
    # the orbit sizes are exact up to the last m with (2R+1)^m < 2^63 (m = 39
    # at R = 1, where m! alone overflows int64 from m = 21 on)
    m = 1
    while (2 * R + 1) ** m < 2 ** 63:
        _, mult = greens._multisets(m, R)
        assert int(mult.sum()) == (2 * R + 1) ** m
        m += 1
    with pytest.raises(CapacityError):
        greens._multisets(m, R)


def test_multisets_of_one_value_are_single_orbits():
    keys, mult = greens._multisets(60, 0)
    assert keys.shape == (1, 60) and mult.tolist() == [1]


def test_estimate_divergent_flag():
    fin = GreenEstimate(d=3, quantity="G(0)", value=0.25, abs_error=1e-9,
                        method="time-integral")
    assert not fin.divergent
    inf_est = GreenEstimate(d=2, quantity="G(0)", value=math.inf, abs_error=0.0,
                            method="time-integral")
    assert inf_est.divergent
