"""pamlab._brent.brentq against scipy.optimize.brentq, a test-only oracle.

The port claims scipy's C loop step for step, so each case records every
point passed to f by both solvers and compares the sequences with ==, along
with the root (or the exception type).  The hand-made cases are checked to
take the branch they are named after by tracing which lines of the port run.
"""
import inspect
import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from pamlab import _brent, spectral

EPS4 = 4 * np.finfo(float).eps


def _run(solver, f, a, b, xtol, rtol, maxiter=100):
    """(root or exception type, points passed to f) of one solve."""
    xs = []

    def rec(x):
        xs.append(x)
        return f(x)

    try:
        return solver(rec, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter), xs
    except (ValueError, RuntimeError) as exc:
        return type(exc), xs


def _assert_twin(f, a, b, xtol, rtol, maxiter=100):
    got, xs = _run(_brent.brentq, f, a, b, xtol, rtol, maxiter)
    want, ys = _run(scipy_brentq, f, a, b, xtol, rtol, maxiter)
    assert xs == ys
    assert all(type(x) is float for x in xs)
    assert got == want
    if isinstance(got, float):
        assert got.hex() == want.hex()
    return got, xs


# ---------------------------------------------------------------------------
# the resolvent residuals of mu and mu_inverse
# ---------------------------------------------------------------------------

@pytest.fixture
def twin_brentq(monkeypatch):
    """spectral.brentq replaced by a check that both solvers agree; returns
    the list of (root, calls) of the root-finds made."""
    finds = []

    def twin(f, a, b, xtol, rtol, maxiter=100):
        root, xs = _assert_twin(f, a, b, xtol, rtol, maxiter)
        finds.append((root, len(xs)))
        return root

    monkeypatch.setattr(spectral, "brentq", twin)
    return finds


_KAPPAS = (0.001, 0.003, 0.01, 0.03, 0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0)
_TS = (0.01, 0.05, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 0.99)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_mu_root_finds_match_scipy(d, twin_brentq):
    for kappa in _KAPPAS:
        # bypass the cache, so every grid point runs its root-find here
        spectral._mu_cached.__wrapped__(d, kappa, 1e-10)
    # past G_d(0) mu is 0 without a root-find: G_3(0) = 0.2527, G_5(0) = 0.1156
    assert len(twin_brentq) >= {1: 11, 2: 11, 3: 9, 4: 7, 5: 6}[d]
    assert all(calls >= 3 for _, calls in twin_brentq)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_mu_inverse_root_finds_match_scipy(d, twin_brentq):
    for t in _TS:
        spectral._mu_inverse_cached.__wrapped__(d, t, 1e-10)
    assert len(twin_brentq) == len(_TS)


# ---------------------------------------------------------------------------
# hand-made functions, one per branch
# ---------------------------------------------------------------------------

# each branch of brentq, by the text of its first statement and which
# occurrence of that text it is
_BRANCH_STATEMENTS = {
    "interpolate": ("stry = -fcur * (xcur - xpre)", 0),
    "extrapolate": ("dpre = (fpre - fcur)", 0),
    "good short step": ("scur = stry", 0),
    "bisect (step rejected)": ("spre = sbis", 0),
    "bisect (no step tried)": ("spre = sbis", 1),
    "minimum step": ("delta if sbis > 0", 0),
}


def _branch_lines():
    """Line number of each branch's first statement in brentq."""
    lines, start = inspect.getsourcelines(_brent.brentq)
    marks = {}
    for name, (text, k) in _BRANCH_STATEMENTS.items():
        marks[name] = [start + i for i, line in enumerate(lines) if text in line][k]
    return marks


def _branches_taken(f, a, b, xtol, rtol, maxiter=100):
    code = _brent.brentq.__code__
    hit = set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            hit.add(frame.f_lineno)
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        _run(_brent.brentq, f, a, b, xtol, rtol, maxiter)
    finally:
        sys.settrace(old)
    return {name for name, line in _branch_lines().items() if line in hit}


def _step(x):
    return -1.0 if x < 0.3 else 1.0


def _cubic(x):
    return x ** 3 - x - 1.0


def _signed_sqrt(x):
    return math.copysign(abs(x - 0.3) ** 0.5, x - 0.3)


_STEP_TAKEN = {"interpolate", "good short step"}

# (f, a, b, xtol, the branches taken)
_CASES = {
    # |f| never shrinks, so no step is ever tried
    "bisection only": (_step, 0.0, 1.0, 1e-12, {"bisect (no step tried)"}),
    "secant only": (lambda x: math.atan(10.0 * (x - 0.3)), -5.0, 5.0, 1e-12,
                    _STEP_TAKEN),
    "inverse quadratic": (_cubic, 1.0, 2.0, 1e-12,
                          _STEP_TAKEN | {"extrapolate", "minimum step"}),
    "rejected step": (lambda x: math.tan(x) - x, 4.0, 4.7, 1e-12,
                      _STEP_TAKEN | {"extrapolate", "minimum step",
                                     "bisect (step rejected)"}),
    # a secant step shorter than delta is padded to delta
    "minimum step": (_signed_sqrt, 0.0, 1.0, 1e-3, _STEP_TAKEN | {"minimum step"}),
}


@pytest.mark.parametrize("name", list(_CASES))
def test_hand_made_branches_match_scipy(name):
    f, a, b, xtol, taken = _CASES[name]
    assert _branches_taken(f, a, b, xtol, EPS4) == taken
    root, _ = _assert_twin(f, a, b, xtol, EPS4)
    assert isinstance(root, float)


@pytest.mark.parametrize("f, a, b, where", [
    (lambda x: x - 0.25, 0.25, 1.0, "a"),
    (lambda x: x - 1.0, 0.25, 1.0, "b"),
    (lambda x: x - 0.5, 0.0, 1.0, "mid-iteration"),
])
def test_exact_zeros_match_scipy(f, a, b, where):
    root, xs = _assert_twin(f, a, b, 1e-12, EPS4)
    assert f(root) == 0.0
    if where == "a":
        assert root == a and len(xs) == 2
    elif where == "b":
        assert root == b and len(xs) == 2
    else:
        assert len(xs) == 3


def test_same_sign_endpoints_raise_like_scipy():
    got, xs = _assert_twin(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, EPS4)
    assert got is ValueError and xs == [-1.0, 1.0]
    with pytest.raises(ValueError, match="different signs"):
        _brent.brentq(lambda x: 1.0, 0.0, 1.0, 1e-12, EPS4)


def test_nan_raises_like_scipy():
    got, xs = _assert_twin(lambda x: math.nan if x > 0.6 else x - 0.5, 0.0, 2.0,
                           1e-12, EPS4)
    assert got is ValueError and len(xs) == 2


@pytest.mark.parametrize("maxiter", [0, 1, 3])
def test_maxiter_exhaustion_raises_like_scipy(maxiter):
    got, xs = _assert_twin(_step, 0.0, 1.0, 1e-12, EPS4, maxiter)
    assert got is RuntimeError and len(xs) == 2 + maxiter
    with pytest.raises(RuntimeError, match=f"after {maxiter} iterations"):
        _brent.brentq(_step, 0.0, 1.0, 1e-12, EPS4, maxiter)


def test_f_receives_python_floats_only():
    # numpy endpoints and an np.float64 rtol, as spectral passes 4*eps
    types = set()

    def f(x):
        types.add(type(x))
        return _cubic(x)

    root = _brent.brentq(f, np.float64(1.0), np.int64(2), np.float64(1e-12), EPS4)
    assert types == {float} and type(root) is float
    assert root == scipy_brentq(_cubic, 1.0, 2.0, xtol=1e-12, rtol=EPS4)
