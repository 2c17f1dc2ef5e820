"""Path sampling, exact collision measure, and the Feynman-Kac estimator.

The collision oracle here is a midpoint Riemann sum on a fine grid; the
implementation computes the same measure exactly from the merged jump
epochs, so the two may differ only near cut points (O(h) per cut).  A second
oracle is the piece-by-piece exact measure over tuple-built trajectories;
the array implementation must match it bit for bit.  The PDE oracle's
reference is the sparse route it replaced: the kronsum Laplacian and one
scipy expm_multiply step per interval.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from pamlab import montecarlo
from pamlab.montecarlo import (
    JumpPath,
    collision_time,
    lambda_mc,
    pde_moment_oracle,
    sample_path,
)
from pamlab.lattice import build_box
from pamlab.spectral import PamParams, _quotient, _shift


def grid_collision(xs, ys, t, h=1e-4):
    total = 0.0
    mids = (np.arange(int(round(t / h))) + 0.5) * h
    for x in xs:
        for y in ys:
            hits = sum(1 for s in mids if x.position(s) == y.position(t - s))
            total += hits * h
    return total


def still(d=1, horizon=4.0, start=None):
    return JumpPath(d=d, start=start or (0,) * d, events=(), horizon=horizon)


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_path_validation():
    with pytest.raises(ValueError):
        JumpPath(d=0, start=(), events=(), horizon=1.0)
    with pytest.raises(ValueError):
        JumpPath(d=2, start=(0,), events=(), horizon=1.0)
    with pytest.raises(ValueError):        # epochs must strictly increase
        JumpPath(d=1, start=(0,),
                 events=((0.5, 1, 1), (0.5, 1, -1)), horizon=1.0)
    with pytest.raises(ValueError):        # epoch past horizon
        JumpPath(d=1, start=(0,), events=((1.5, 1, 1),), horizon=1.0)
    with pytest.raises(ValueError):        # axis out of range
        JumpPath(d=1, start=(0,), events=((0.5, 2, 1),), horizon=1.0)
    with pytest.raises(ValueError):        # bad sign
        JumpPath(d=1, start=(0,), events=((0.5, 1, 2),), horizon=1.0)


@pytest.mark.parametrize("horizon", [math.nan, -1.0])
def test_path_refuses_a_nan_or_negative_horizon(horizon):
    # with no events no epoch comparison runs, so the horizon is checked itself
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        JumpPath(d=1, start=(0,), events=(), horizon=horizon)


@pytest.mark.parametrize("start", [(0.5,), (1.0,)])
def test_path_start_must_be_integer(start):
    with pytest.raises(TypeError):
        JumpPath(d=1, start=start, events=((0.5, 1, 1),), horizon=1.0)


def test_path_positions_are_plain_ints():
    p = JumpPath(d=2, start=(np.int64(1), np.int64(-2)),
                 events=((0.5, 2, 1),), horizon=1.0)
    assert p.position(0.0) == (1, -2) and p.position(1.0) == (1, -1)
    assert all(type(c) is int for s in (0.0, 1.0) for c in p.position(s))


def loop_positions(d, start, counts, axes, signs):
    """Positions path by path, step by step."""
    rows, k = [], 0
    for c in counts:
        pos = list(start)
        rows.append(tuple(pos))
        for _ in range(c):
            pos[int(axes[k]) - 1] += int(signs[k])
            rows.append(tuple(pos))
            k += 1
    return rows


def test_positions_of_a_batch_match_a_loop():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(41)))
    for d in (1, 2, 3):
        counts = rng.integers(0, 4, size=12)
        counts[[0, 5, 11]] = 0             # empty paths first, inside, last
        epochs = np.concatenate([np.sort(rng.uniform(0.0, 2.0, c)) for c in counts])
        axes = rng.integers(1, d + 1, size=counts.sum())
        signs = 2 * rng.integers(0, 2, size=counts.sum()) - 1
        start = tuple(range(d))
        got = montecarlo._positions(d, start, 2.0, counts, epochs, axes, signs)
        assert [tuple(r) for r in got] == loop_positions(d, start, counts, axes, signs)
        # epochs are checked within each path only: a path's first epoch may
        # lie before the last epoch of the path before it, as here
        for name, bad in (("epochs", -1e-9), ("epochs", 2.5), ("epochs", None),
                          ("axes", 0), ("axes", d + 1), ("signs", 0)):
            args = {"epochs": epochs.copy(), "axes": axes.copy(), "signs": signs.copy()}
            if bad is None:                # a repeated epoch inside one path
                assert (counts >= 2).any()
                k = int(counts.cumsum()[np.argmax(counts >= 2)]) - 1
                args["epochs"][k] = args["epochs"][k - 1]
            else:
                args[name][int(rng.integers(0, len(epochs)))] = bad
            with pytest.raises(ValueError):
                montecarlo._positions(d, start, 2.0, counts, **args)


def test_path_right_continuous():
    p = JumpPath(d=2, start=(0, 0),
                 events=((1.0, 2, 1), (2.0, 1, -1)), horizon=3.0)
    assert p.position(0.0) == (0, 0)
    assert p.position(0.999) == (0, 0)
    assert p.position(1.0) == (0, 1)       # value at the jump epoch is the new one
    assert p.position(2.0) == (-1, 1)
    assert p.position(3.0) == (-1, 1)
    with pytest.raises(ValueError):
        p.position(3.1)
    with pytest.raises(ValueError):
        p.position(-0.1)


def test_sample_path_zero_rate():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(0)))
    p = sample_path(3, 0.0, 5.0, rng)
    assert p.events == () and p.start == (0, 0, 0) and p.horizon == 5.0


def test_sample_path_statistics():
    # 10^4 rate-2 paths on [0, 10]: mean jump count ~ 20, mean endpoint ~ 0,
    # both with 3-sigma bands sqrt(20/10^4)*3 = 0.1342
    rng = np.random.Generator(np.random.Philox(key=np.uint64(0)))
    counts, ends = [], []
    for _ in range(10_000):
        p = sample_path(1, 1.0, 10.0, rng)
        counts.append(len(p.events))
        ends.append(p.position(10.0)[0])
        eps = [e[0] for e in p.events]
        assert eps == sorted(eps)
        assert all(0.0 <= e <= 10.0 for e in eps)
        assert all(a == 1 and s in (-1, 1) for _, a, s in p.events)
    assert abs(np.mean(counts) - 20.0) < 0.1342
    assert abs(np.mean(ends)) < 0.1342


def test_sample_path_validation():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(0)))
    with pytest.raises(ValueError):
        sample_path(1, -0.5, 1.0, rng)
    with pytest.raises(ValueError):
        sample_path(1, 0.5, -1.0, rng)
    for nu in (0.0, 0.5):
        with pytest.raises(ValueError, match="horizon must be finite"):
            sample_path(1, nu, math.inf, rng)


@pytest.mark.parametrize("nu", [math.nan, math.inf])
def test_a_nan_or_infinite_rate_is_refused(nu):
    # nu < 0 and nu > 0 are both false for NaN, which drew no jumps
    rng = np.random.Generator(np.random.Philox(key=np.uint64(0)))
    with pytest.raises(ValueError, match="rate must be finite"):
        sample_path(3, nu, 1.0, rng)
    with pytest.raises(ValueError, match="rate must be finite"):
        montecarlo._draw(3, nu, 1.0, rng)
    params = PamParams(d=2, n=1, p=1, kappa=0.1, rho=0.1)
    object.__setattr__(params, "kappa", nu)   # PamParams itself refuses it
    with pytest.raises(ValueError, match="rate must be finite"):
        lambda_mc(params, t=1.0, samples=10, seed=1)


# ---------------------------------------------------------------------------
# sample_path's word route
# ---------------------------------------------------------------------------

class EqualWords(np.random.Philox):
    """Philox whose `random_raw` words all read 2^62: every epoch read from
    them is t/4, and every sign half's top bit is 0."""

    def random_raw(self, size=None, output=True):
        words = super().random_raw(size, output)
        words[...] = 1 << 62
        return words


def drawn_path(d, nu, t, rng):
    """The oracle for `sample_path`: its draws through `_draw`'s numpy calls."""
    epochs, axes, signs = montecarlo._draw(d, nu, t, rng)
    events = tuple(zip(epochs.tolist(), axes.tolist(), signs.tolist()))
    return JumpPath(d=d, start=(0,) * d, events=events, horizon=float(t))


def plain(value):
    """A bit generator's state as lists and ints, comparable with ==."""
    if isinstance(value, dict):
        return {key: plain(v) for key, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def stream_state(rng):
    """The stream's state, less numpy's uinteger when no half is buffered:
    the next 32-bit draw reads a new word then, whatever uinteger holds."""
    state = plain(rng.bit_generator.state)
    if not state["has_uint32"]:
        state["uinteger"] = None
    return state


@pytest.fixture
def numpy_draws(monkeypatch):
    """The streams `_draw_jumps` draws from, one entry per call."""
    streams = []
    draw_jumps = montecarlo._draw_jumps

    def spy(d, count, t_end, rng_stream):
        streams.append(rng_stream)
        return draw_jumps(d, count, t_end, rng_stream)

    monkeypatch.setattr(montecarlo, "_draw_jumps", spy)
    return streams


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_word_route_matches_draw_on_a_shared_stream(numpy_draws, d):
    # paths at zero and positive rates, between 32-bit draws of odd sizes
    # (a half left in numpy's buffer) and uniform draws, on two copies of a
    # stream; every path, draw and state must agree
    fast = np.random.Generator(np.random.Philox(key=np.array([31, d], dtype=np.uint64)))
    slow = np.random.Generator(np.random.Philox(key=np.array([31, d], dtype=np.uint64)))
    plan = np.random.Generator(np.random.PCG64(d))
    carried_in = carried_out = jumps = 0
    for _ in range(500):
        step = int(plan.integers(0, 4))
        if step == 0:
            size = int(plan.integers(1, 4))
            assert fast.integers(0, 7, size).tolist() == slow.integers(0, 7, size).tolist()
        elif step == 1:
            assert fast.uniform(0.0, 2.0) == slow.uniform(0.0, 2.0)
        else:
            nu, t = float(plan.choice([0.0, 0.05, 0.3, 1.0])), float(plan.uniform(0.5, 3.0))
            carried_in += fast.bit_generator.state["has_uint32"]
            path = sample_path(d, nu, t, fast)
            assert path == drawn_path(d, nu, t, slow)
            carried_out += fast.bit_generator.state["has_uint32"]
            jumps += len(path.events)
        assert stream_state(fast) == stream_state(slow)
    assert carried_in > 0 and carried_out > 0 and jumps > 300
    assert not [rng for rng in numpy_draws if rng is fast]


def test_rejected_half_rewinds_and_draws_through_numpy(numpy_draws):
    # a buffered half of 0 is the first axis half; numpy rejects 0 from a
    # range of 3 and reads another half
    fast = np.random.Generator(np.random.Philox(key=np.array([5, 5], dtype=np.uint64)))
    slow = np.random.Generator(np.random.Philox(key=np.array([5, 5], dtype=np.uint64)))
    for rng in (fast, slow):
        state = rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, 0
        rng.bit_generator.state = state
    path = sample_path(3, 1.0, 5.0, fast)
    assert path.events and path == drawn_path(3, 1.0, 5.0, slow)
    assert plain(fast.bit_generator.state) == plain(slow.bit_generator.state)
    assert [rng for rng in numpy_draws if rng is fast] == [fast]


@pytest.mark.parametrize("bits", [np.random.PCG64, EqualWords], ids=["PCG64", "subclass"])
def test_other_streams_draw_through_numpy(numpy_draws, bits):
    # only np.random.Philox itself takes the word route: a subclass may
    # override random_raw, which numpy's own draws do not call
    fast = np.random.Generator(bits(8))
    slow = np.random.Generator(bits(8))
    paths = [sample_path(2, 0.5, 3.0, fast) for _ in range(20)]
    assert paths == [drawn_path(2, 0.5, 3.0, slow) for _ in range(20)]
    assert plain(fast.bit_generator.state) == plain(slow.bit_generator.state)
    assert sum(rng is fast for rng in numpy_draws) == sum(1 for p in paths if p.events) > 0


# ---------------------------------------------------------------------------
# collision measure
# ---------------------------------------------------------------------------

def test_collision_constant_paths():
    assert collision_time([still()], [still()], 2.0) == 2.0
    # two walkers, two catalysts, all parked at 0: npt exactly
    assert collision_time([still()] * 3, [still()] * 2, 2.0) == 12.0
    assert collision_time([still(start=(1,))], [still()], 2.0) == 0.0


def test_collision_single_jump():
    x = JumpPath(d=1, start=(0,), events=((1.0, 1, 1),), horizon=2.0)
    assert collision_time([x], [still()], 2.0) == 1.0


def test_collision_matches_grid_oracle():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(123)))
    xs = [sample_path(1, 0.8, 3.0, rng) for _ in range(2)]
    ys = [sample_path(1, 0.6, 3.0, rng) for _ in range(2)]
    exact = collision_time(xs, ys, 3.0)
    assert 0.0 <= exact <= 2 * 2 * 3.0
    assert exact == pytest.approx(grid_collision(xs, ys, 3.0), abs=5e-3)


def test_collision_validation():
    with pytest.raises(ValueError):
        collision_time([still()], [still()], -1.0)
    with pytest.raises(ValueError):
        collision_time([still(horizon=1.0)], [still()], 2.0)


def test_collision_time_refuses_a_nan_horizon():
    x = JumpPath(d=1, start=(0,), events=((0.5, 1, 1),), horizon=2.0)
    with pytest.raises(ValueError, match="horizon must be >= 0"):
        collision_time([x], [still(horizon=2.0)], math.nan)


def test_collision_of_paths_of_different_dimensions_is_refused():
    with pytest.raises(ValueError):
        collision_time([still(d=1)], [still(d=2)], 2.0)
    with pytest.raises(ValueError):
        collision_time([still(d=2), still(d=1)], [still(d=2)], 2.0)


# ---------------------------------------------------------------------------
# lambda_mc
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,p", [(1, 1), (2, 3)])
def test_lambda_mc_frozen_case_is_exact(n, p):
    # kappa = rho = 0: nobody moves, W = e^{npt} surely, Lambda = n exactly
    params = PamParams(d=1, n=n, p=p, kappa=0.0, rho=0.0)
    est = lambda_mc(params, t=4.0, samples=50, seed=1)
    assert est.lambda_t == float(n)
    assert est.stderr == 0.0
    assert est.ess == 50.0


def test_lambda_mc_worker_invariance():
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    base = lambda_mc(params, t=3.0, samples=64, seed=11, workers=1)
    for w in (4, 8):
        est = lambda_mc(params, t=3.0, samples=64, seed=11, workers=w)
        assert est.lambda_t == base.lambda_t       # bit-for-bit
        assert est.stderr == base.stderr
        assert est.ess == base.ess


def test_lambda_mc_seed_determinism_and_bounds():
    params = PamParams(d=2, n=2, p=1, kappa=0.3, rho=0.15)
    a = lambda_mc(params, t=2.0, samples=80, seed=42)
    b = lambda_mc(params, t=2.0, samples=80, seed=42)
    c = lambda_mc(params, t=2.0, samples=80, seed=43)
    assert a.lambda_t == b.lambda_t
    assert a.lambda_t != c.lambda_t
    for est in (a, c):
        assert 0.0 <= est.lambda_t <= params.n + 1e-12
        assert 2.0 <= est.ess <= 80.0 and est.stderr > 0.0


def test_lambda_mc_converges_from_above():
    # Lambda_p(t) starts at n as t -> 0 and decreases toward the limit
    # mu(kappa+rho) = sqrt(2)-1 here; check the distance shrinks and the
    # drop is real relative to the noise.
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    limit = math.sqrt(2.0) - 1.0
    early = lambda_mc(params, t=2.0, samples=2000, seed=5)
    late = lambda_mc(params, t=6.0, samples=2000, seed=5)
    assert abs(early.lambda_t - limit) > abs(late.lambda_t - limit)
    assert early.lambda_t - late.lambda_t > 3 * (early.stderr + late.stderr)
    assert late.lambda_t >= limit - 3 * late.stderr


def test_lambda_mc_validation():
    params = PamParams(d=1, n=1, p=1, kappa=0.1, rho=0.1)
    with pytest.raises(ValueError):
        lambda_mc(params, t=0.0, samples=10, seed=1)
    with pytest.raises(ValueError):
        lambda_mc(params, t=1.0, samples=1, seed=1)
    with pytest.raises(ValueError):
        lambda_mc(params, t=1.0, samples=10, seed=None)
    with pytest.raises(ValueError):
        lambda_mc(params, t=1.0, samples=10, seed=-3)
    with pytest.raises(ValueError):
        lambda_mc(params, t=1.0, samples=10, seed=1, workers=0)


@pytest.mark.parametrize("seed", [1.5, True, np.True_, "1", None, -1, 2**64])
def test_lambda_mc_refuses_a_seed_that_is_no_64_bit_integer(seed):
    # 1.5 and True once ran as seed 1; 2**64 failed in numpy
    params = PamParams(d=1, n=1, p=1, kappa=0.1, rho=0.1)
    with pytest.raises(ValueError, match=r"the seed must be an integer in \[0, 2\*\*64\)"):
        lambda_mc(params, t=1.0, samples=10, seed=seed)


def test_lambda_mc_takes_every_64_bit_seed():
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    top = lambda_mc(params, t=2.0, samples=20, seed=2**64 - 1)
    assert top == lambda_mc(params, t=2.0, samples=20, seed=np.uint64(2**64 - 1))
    assert type(top.seed) is int and top.seed == 2**64 - 1
    assert lambda_mc(params, t=2.0, samples=20, seed=np.int64(7)) == lambda_mc(
        params, t=2.0, samples=20, seed=7)


def test_lambda_mc_refuses_a_nan_horizon():
    params = PamParams(d=1, n=1, p=1, kappa=0.1, rho=0.1)
    with pytest.raises(ValueError, match="horizon must be positive"):
        lambda_mc(params, t=math.nan, samples=10, seed=1)


def test_lambda_mc_refuses_an_infinite_horizon():
    # refused by name, also when nobody moves and no draw would fail
    with pytest.raises(ValueError, match="horizon must be finite"):
        lambda_mc(PamParams(d=1, n=1, p=1, kappa=0.1, rho=0.1),
                  t=math.inf, samples=10, seed=1)
    with pytest.raises(ValueError, match="horizon must be finite"):
        lambda_mc(PamParams(d=1, n=1, p=1, kappa=0.0, rho=0.0),
                  t=math.inf, samples=10, seed=1)
    params = PamParams(d=1, n=1, p=1, kappa=0.0, rho=0.0)
    with pytest.raises(ValueError, match="horizon must be finite"):
        montecarlo._chunk_logws((params, math.inf, 1, 0, 10))


def test_lambda_mc_refuses_a_negative_rate():
    params = PamParams(d=2, n=1, p=1, kappa=0.1, rho=0.1)
    object.__setattr__(params, "rho", -0.1)   # PamParams itself refuses it
    with pytest.raises(ValueError, match="need nu >= 0"):
        lambda_mc(params, t=1.0, samples=10, seed=1)


# ---------------------------------------------------------------------------
# PDE oracle
# ---------------------------------------------------------------------------

def test_pde_frozen_catalysts():
    # kappa = 0, both catalysts parked at the origin: u(0,t) = e^{2t}
    params = PamParams(d=1, n=2, p=1, kappa=0.0, rho=0.5)
    u = pde_moment_oracle(params, R=3, t=1.3, catalyst_paths=[still(), still()])
    assert u == pytest.approx(math.exp(2.6), rel=1e-12)


def test_pde_far_catalyst_is_inert():
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.0)
    u = pde_moment_oracle(params, R=8, t=1.0,
                          catalyst_paths=[still(start=(9,), horizon=2.0)])
    assert abs(u - 1.0) <= 1e-8        # catalyst outside the box, tiny leak


def test_pde_agrees_with_path_average():
    # one fixed catalyst, u(0,t) vs the quenched path average over X
    rng = np.random.Generator(np.random.Philox(key=np.array([99, 0], dtype=np.uint64)))
    y = sample_path(1, 0.5, 3.0, rng)
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.5)
    u = pde_moment_oracle(params, R=10, t=3.0, catalyst_paths=[y])

    ws = []
    for i in range(3000):
        key = np.array([7, i], dtype=np.uint64)
        xr = np.random.Generator(np.random.Philox(key=key))
        x = sample_path(1, 0.25, 3.0, xr)
        ws.append(math.exp(collision_time([x], [y], 3.0)))
    mean = float(np.mean(ws))
    stderr = float(np.std(ws, ddof=1) / math.sqrt(len(ws)))
    assert abs(u - mean) <= 3 * stderr + 0.01


def test_pde_validation():
    params = PamParams(d=1, n=2, p=1, kappa=0.1, rho=0.1)
    with pytest.raises(ValueError):
        pde_moment_oracle(params, R=3, t=1.0, catalyst_paths=[still()])
    with pytest.raises(ValueError):
        pde_moment_oracle(params, R=3, t=-1.0,
                          catalyst_paths=[still(), still()])
    with pytest.raises(ValueError):
        pde_moment_oracle(params, R=3, t=5.0,
                          catalyst_paths=[still(), still()])


def test_pde_refuses_a_nan_time():
    params = PamParams(d=1, n=1, p=1, kappa=0.1, rho=0.1)
    with pytest.raises(ValueError, match="time must be >= 0"):
        pde_moment_oracle(params, R=3, t=math.nan, catalyst_paths=[still()])


def test_pde_refuses_catalysts_of_another_dimension():
    # outside the box at every midpoint, such a catalyst was never looked up
    params = PamParams(d=3, n=1, p=1, kappa=0.1, rho=0.1)
    with pytest.raises(ValueError, match="d=3, got d=1"):
        pde_moment_oracle(params, R=3, t=1.0, catalyst_paths=[still(start=(5,))])
    with pytest.raises(ValueError, match="d=3, got d=1"):
        pde_moment_oracle(params, R=3, t=1.0, catalyst_paths=[still()])


def expm_oracle(params, R, t, catalyst_paths):
    """u(0, t) by one expm_multiply step per interval on the kronsum
    Laplacian plus diag(xi)."""
    box = build_box(params.d, R)
    L = box.side
    lap1 = sparse.diags([np.ones(L - 1), -2.0 * np.ones(L), np.ones(L - 1)],
                        offsets=[-1, 0, 1], format="csr")
    lap = lap1
    for _ in range(params.d - 1):
        lap = sparse.kronsum(lap, lap1, format="csr")
    cuts = {0.0, t}
    for path in catalyst_paths:
        cuts.update(float(e[0]) for e in path.events if e[0] < t)
    grid = sorted(cuts)
    u = np.ones(box.size)
    for a, b in zip(grid, grid[1:]):
        xi = np.zeros(box.size)
        for path in catalyst_paths:
            pos = path.position(0.5 * (a + b))
            if all(abs(c) <= R for c in pos):
                xi[box.index(pos)] += 1.0
        A = (params.kappa * lap + sparse.diags(xi)) if params.kappa else sparse.diags(xi)
        u = expm_multiply(A * (b - a), u)
    return float(u[(box.size - 1) // 2])


def pde_with_bound(monkeypatch, params, R, t, catalyst_paths):
    """pde_moment_oracle's u(0, t) and the certified error bound of its last
    kernel step, 0 where no interval was stepped."""
    kernel, bounds = montecarlo._uniformize, [0.0]

    def spy(*args):
        v, err = kernel(*args)
        bounds.append(err)
        return v, err

    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_uniformize", spy)
        u = pde_moment_oracle(params, R, t, catalyst_paths)
    return u, bounds[-1]


def assert_matches_expm_oracle(monkeypatch, params, R, t, catalyst_paths):
    u, err = pde_with_bound(monkeypatch, params, R, t, catalyst_paths)
    want = expm_oracle(params, R, t, catalyst_paths)
    assert u == pytest.approx(want, rel=1e-13, abs=0)
    assert abs(u - want) <= err


@pytest.mark.parametrize("kappa", [0.0, 0.3])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d,R", [(1, 8), (2, 5), (3, 3)])
def test_pde_matches_the_expm_oracle(monkeypatch, d, R, n, kappa):
    params = PamParams(d=d, n=n, p=1, kappa=kappa, rho=0.4)
    rng = np.random.Generator(np.random.Philox(key=np.array([30, d * n], dtype=np.uint64)))
    paths = [sample_path(d, 0.4, 2.5, rng) for _ in range(n)]
    assert_matches_expm_oracle(monkeypatch, params, R, 2.5, paths)


@pytest.mark.parametrize("case", ["one site", "leaving", "t=0"])
def test_pde_edge_cases_match_the_expm_oracle(monkeypatch, case):
    params = PamParams(d=2, n=2, p=1, kappa=0.3, rho=0.4)
    if case == "one site":            # xi = 2 at the origin throughout
        paths, t = [still(d=2), still(d=2)], 1.5
    elif case == "leaving":           # one catalyst steps out of the box at 0.5
        out = JumpPath(d=2, start=(0, 3), events=((0.5, 2, 1),), horizon=4.0)
        paths, t = [out, still(d=2)], 1.5
    else:
        paths, t = [still(d=2), still(d=2)], 0.0
    assert_matches_expm_oracle(monkeypatch, params, 3, t, paths)
    if t == 0:
        assert pde_with_bound(monkeypatch, params, 3, t, paths) == (1.0, 0.0)


def test_pde_matches_the_expm_oracle_on_the_bench_case(monkeypatch):
    # the cross-check case of the benchmark's mc-crosscheck workload, seed 0
    params = PamParams(d=3, n=1, p=1, kappa=0.1, rho=0.1)
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 10_000], dtype=np.uint64)))
    assert_matches_expm_oracle(monkeypatch, params, 16, 10.0,
                               [sample_path(3, 0.1, 10.0, rng)])


def test_uniformize_matches_expm_on_a_quotient_operator():
    # the full-box quotient of d=1, n=p=1: P = L_p + shift >= 0 in csr
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.2)
    q = _quotient(1, 1, 1, 4, False)
    shift = _shift(params)
    P = q.operator(params.kappa, params.rho,
                   q.collisions + (shift - 2.0 * (params.kappa + params.rho)))
    v, t = np.sqrt(q.sizes.astype(float)), 3.0
    norm = float(abs(P).sum(axis=1).max()) * (1 + 1e-12)
    depth = int(np.diff(P.indptr).max()) + 1     # a row's products and sum, then c
    u, err = montecarlo._uniformize(lambda x, c: P.dot(x) * c, v, t, shift, norm, depth)
    want = expm_multiply((P - shift * sparse.identity(len(v))) * t, v)
    assert np.allclose(u, want, rtol=1e-13, atol=0)
    assert np.abs(u - want).max() <= err


def test_pde_oracle_holds_a_few_box_vectors():
    # the benchmark's d=3, R=16 box has 35,937 sites; the sparse route held
    # about 64 vectors' worth, for its Laplacian and its expm_multiply steps
    params = PamParams(d=3, n=1, p=1, kappa=0.1, rho=0.1)
    rng = np.random.Generator(np.random.Philox(key=np.array([0, 10_000], dtype=np.uint64)))
    catalyst = sample_path(3, 0.1, 10.0, rng)
    tracemalloc.start()
    try:
        pde_moment_oracle(params, 16, 10.0, [catalyst])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * 33 ** 3


# ---------------------------------------------------------------------------
# bit-identity with the piece-by-piece oracle
# ---------------------------------------------------------------------------

def oracle_trajectory(path):
    """(epochs, positions) built event by event from the events tuple."""
    eps = np.array([e[0] for e in path.events])
    pos = np.zeros((len(path.events) + 1, path.d), dtype=np.int64)
    pos[0] = path.start
    for i, (_, ax, sg) in enumerate(path.events):
        pos[i + 1] = pos[i]
        pos[i + 1, ax - 1] += sg
    return eps, pos


def oracle_pair_collision(x, y, t):
    """|{s in [0,t]: x(s) = y(t-s)}|, one searchsorted pair per piece."""
    ex, px = oracle_trajectory(x)
    ey, py = oracle_trajectory(y)
    cuts = {0.0, t}
    cuts.update(float(e) for e in ex if e < t)
    cuts.update(t - float(e) for e in ey if e < t)
    grid = sorted(cuts)
    pieces = []
    for a, b in zip(grid, grid[1:]):
        mid = 0.5 * (a + b)
        ix = int(np.searchsorted(ex, mid, side="right"))
        iy = int(np.searchsorted(ey, t - mid, side="right"))
        if np.array_equal(px[ix], py[iy]):
            pieces.append(b - a)
    return math.fsum(pieces)


def oracle_collision_time(xs, ys, t):
    return math.fsum(oracle_pair_collision(x, y, t) for x in xs for y in ys)


def grid_path(rng, d, t, horizon, step):
    """A path whose epochs lie on multiples of step, so cuts often coincide."""
    slots = int(horizon / step) + 1
    k = int(rng.integers(0, min(slots, 8) + 1))
    epochs = np.sort(rng.choice(slots, size=k, replace=False)) * step
    events = tuple((float(e), int(rng.integers(1, d + 1)), int(rng.choice([-1, 1])))
                   for e in epochs)
    start = tuple(int(c) for c in rng.integers(-1, 2, size=d))
    return JumpPath(d=d, start=start, events=events, horizon=horizon)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_collision_is_bit_identical_to_oracle(d):
    rng = np.random.Generator(np.random.Philox(key=np.array([2024, d], dtype=np.uint64)))
    for i in range(700):
        t = float(rng.choice([0.5, 1.0, 2.0, 3.7]))
        horizon = t if i % 3 else t + float(rng.choice([0.25, 1.5]))
        if i % 2:
            x = sample_path(d, float(rng.uniform(0.0, 1.5)), horizon, rng)
            y = sample_path(d, float(rng.uniform(0.0, 1.5)), horizon, rng)
        else:
            x = grid_path(rng, d, t, horizon, 0.25)
            y = grid_path(rng, d, t, horizon, 0.25)
        assert collision_time([x], [y], t) == oracle_pair_collision(x, y, t)
    # several walkers and catalysts in one call
    for _ in range(30):
        xs = [sample_path(d, 0.7, 2.0, rng) for _ in range(int(rng.integers(1, 4)))]
        ys = [grid_path(rng, d, 2.0, 2.0, 0.25) for _ in range(int(rng.integers(1, 4)))]
        assert collision_time(xs, ys, 2.0) == oracle_collision_time(xs, ys, 2.0)


def test_collision_edge_cases_match_oracle():
    def path(events, horizon=2.0, start=(0,)):
        return JumpPath(d=1, start=start, events=events, horizon=horizon)

    cases = [
        # epoch at exactly 0.0: x sits at 1 on all of [0, 2]
        (path(((0.0, 1, 1),)), path((), start=(1,)), 2.0, 2.0),
        # x epoch 0.75 equals t minus the y epoch 1.25: two cuts coincide,
        # and both paths change at s = 0.75
        (path(((0.75, 1, 1),)), path(((1.25, 1, 1),)), 2.0, 0.0),
        (path(((0.75, 1, 1),), start=(-1,)), path(((1.25, 1, 1),)), 2.0, 1.25),
        # horizons past t, with epochs after t: both sit at 1 on [0.5, 1]
        (path(((0.5, 1, 1), (2.5, 1, -1)), horizon=3.0),
         path(((1.0, 1, 1), (2.9, 1, 1)), horizon=3.0), 2.0, 0.5),
        # epochs at exactly t
        (path(((2.0, 1, 1),)), path(((2.0, 1, -1),)), 2.0, 2.0),
        # a one-ulp piece [0.75, 0.75 + 2^-53] whose midpoint rounds onto its
        # left cut, so t - mid is exactly the y epoch 1.25: the lookup takes
        # y's value from that epoch on, as the piece-by-piece route does
        (path(((math.nextafter(0.75, 1.0), 1, 1),)), path(((1.25, 1, 1),)), 2.0, 0.0),
        # no jumps
        (path(()), path(()), 2.0, 2.0),
        (path((), start=(3,)), path(()), 2.0, 0.0),
    ]
    for x, y, t, expected in cases:
        assert collision_time([x], [y], t) == oracle_pair_collision(x, y, t) == expected


# The two tests above take collision_time's plain-Python route; the tests
# below take the same pairs through lambda_mc's numpy batch kernel.

def kernel_collision(xs, ys, t):
    """collision_time through the kernel of lambda_mc's blocks: each path's
    positions from `_positions`, every pair in one `_collision_measures`."""
    paths = (*xs, *ys)
    jumps = [np.array(path.events, dtype=float).reshape(-1, 3).T for path in paths]
    positions = np.concatenate([
        montecarlo._positions(path.d, path.start, path.horizon,
                              np.array([len(epochs)]), epochs, axes, signs)
        for path, (epochs, axes, signs) in zip(paths, jumps)])
    return math.fsum(montecarlo._collision_measures(
        t, len(xs), len(ys), np.array([len(path.events) for path in paths]),
        np.concatenate([epochs for epochs, _, _ in jumps]), positions))


def oracle_cases(d):
    """(xs, ys, t) for the pairs and multi-path calls, drawn as
    test_collision_is_bit_identical_to_oracle draws them."""
    rng = np.random.Generator(np.random.Philox(key=np.array([2024, d], dtype=np.uint64)))
    for i in range(700):
        t = float(rng.choice([0.5, 1.0, 2.0, 3.7]))
        horizon = t if i % 3 else t + float(rng.choice([0.25, 1.5]))
        if i % 2:
            x = sample_path(d, float(rng.uniform(0.0, 1.5)), horizon, rng)
            y = sample_path(d, float(rng.uniform(0.0, 1.5)), horizon, rng)
        else:
            x = grid_path(rng, d, t, horizon, 0.25)
            y = grid_path(rng, d, t, horizon, 0.25)
        yield [x], [y], t
    for _ in range(30):
        xs = [sample_path(d, 0.7, 2.0, rng) for _ in range(int(rng.integers(1, 4)))]
        ys = [grid_path(rng, d, 2.0, 2.0, 0.25) for _ in range(int(rng.integers(1, 4)))]
        yield xs, ys, 2.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_is_bit_identical_to_oracle(d):
    for xs, ys, t in oracle_cases(d):
        assert kernel_collision(xs, ys, t) == oracle_collision_time(xs, ys, t)


def test_kernel_edge_cases_match_oracle():
    def path(events, horizon=2.0, start=(0,)):
        return JumpPath(d=1, start=start, events=events, horizon=horizon)

    # the cases of test_collision_edge_cases_match_oracle
    cases = [
        (path(((0.0, 1, 1),)), path((), start=(1,)), 2.0, 2.0),
        (path(((0.75, 1, 1),)), path(((1.25, 1, 1),)), 2.0, 0.0),
        (path(((0.75, 1, 1),), start=(-1,)), path(((1.25, 1, 1),)), 2.0, 1.25),
        (path(((0.5, 1, 1), (2.5, 1, -1)), horizon=3.0),
         path(((1.0, 1, 1), (2.9, 1, 1)), horizon=3.0), 2.0, 0.5),
        (path(((2.0, 1, 1),)), path(((2.0, 1, -1),)), 2.0, 2.0),
        (path(((math.nextafter(0.75, 1.0), 1, 1),)), path(((1.25, 1, 1),)), 2.0, 0.0),
        (path(()), path(()), 2.0, 2.0),
        (path((), start=(3,)), path(()), 2.0, 0.0),
    ]
    for x, y, t, expected in cases:
        assert kernel_collision([x], [y], t) == oracle_pair_collision(x, y, t) == expected


@pytest.mark.parametrize("d, n, p", [(1, 1, 1), (3, 2, 2)])
def test_blocks_match_collision_time(d, n, p):
    # lambda_mc's block kernel and the plain-Python route give the same log W
    # for the same draws
    params = PamParams(d=d, n=n, p=p, kappa=0.25, rho=0.2)
    t = 3.0
    rng = np.random.Generator(np.random.Philox(key=np.array([77, d], dtype=np.uint64)))
    rates = (params.kappa,) * p + (params.rho,) * n
    draws = [montecarlo._draw(d, nu, t, rng) for _ in range(300) for nu in rates]
    paths = [JumpPath(d=d, start=(0,) * d, horizon=t,
                      events=tuple(zip(epochs.tolist(), axes.tolist(), signs.tolist())))
             for epochs, axes, signs in draws]
    k = p + n
    expected = [collision_time(paths[i:i + p], paths[i + p:i + k], t)
                for i in range(0, len(paths), k)]
    assert montecarlo._block_logws(params, t, draws) == expected
    assert 0 < sum(0 < w < n * p * t for w in expected) < 300


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 3), t=st.floats(0.01, 5.0), data=st.data())
def test_collision_time_reversal_symmetry(d, t, data):
    # s -> t-s maps {s: x(s) = y(t-s)} onto {s: y(s) = x(t-s)}; only the
    # rounding of t - epoch differs between the two sides
    def path():
        epochs = sorted(set(data.draw(st.lists(st.floats(0.0, t), max_size=6))))
        events = tuple((e, data.draw(st.integers(1, d)),
                        data.draw(st.sampled_from([-1, 1]))) for e in epochs)
        return JumpPath(d=d, start=(0,) * d, events=events, horizon=t)

    x, y = path(), path()
    assert collision_time([x], [y], t) == pytest.approx(
        collision_time([y], [x], t), abs=1e-12)


# ---------------------------------------------------------------------------
# the vectorised sampling route
# ---------------------------------------------------------------------------

# recorded with the tuple-based, piece-by-piece implementation
GOLDEN = dict(lambda_t=1.088697617643726, stderr=0.06586406134749145,
              ess=6.269434537364525)


@pytest.mark.parametrize("workers", [1, 2])
def test_lambda_mc_golden(workers):
    params = PamParams(d=3, n=2, p=2, kappa=0.1, rho=0.1)
    est = lambda_mc(params, t=3.0, samples=300, seed=2024, workers=workers)
    assert (est.lambda_t, est.stderr, est.ess) == (
        GOLDEN["lambda_t"], GOLDEN["stderr"], GOLDEN["ess"])


def test_lambda_mc_golden_in_small_blocks(monkeypatch):
    # samples are evaluated in vectorised blocks; block size must not matter
    monkeypatch.setattr(montecarlo, "_BLOCK_JUMPS", 5)
    params = PamParams(d=3, n=2, p=2, kappa=0.1, rho=0.1)
    est = lambda_mc(params, t=3.0, samples=300, seed=2024)
    assert (est.lambda_t, est.stderr, est.ess) == (
        GOLDEN["lambda_t"], GOLDEN["stderr"], GOLDEN["ess"])


class FedStream:
    """A stand-in random stream: two jumps, both at epoch 0.5."""

    def poisson(self, lam):
        return 2

    def uniform(self, low, high, size):
        return np.full(size, 0.5)

    def integers(self, low, high, size):
        return np.full(size, low)


def test_equal_epochs_raise_through_the_fast_route(monkeypatch):
    with pytest.raises(ValueError, match="strictly increasing"):
        sample_path(1, 0.5, 1.0, FedStream())
    # the counts come from the same words: each reads 0.5 as numpy's
    # next_double, so at lam = 2*d*kappa*t = 5 every path has 7 jumps
    monkeypatch.setattr(montecarlo.np.random, "Philox", EqualWords)
    params = PamParams(d=1, n=1, p=1, kappa=2.5, rho=2.5)
    with pytest.raises(ValueError, match="strictly increasing"):
        lambda_mc(params, t=1.0, samples=4, seed=0)


def drawn_chunk(args):
    """The oracle for `_chunk_logws`: every path through `_draw`, each sample
    from a new Philox(key=(seed, i)); also the jumps drawn and 0 redrawn."""
    params, t, seed, lo, hi = args
    rates = (params.kappa,) * params.p + (params.rho,) * params.n
    logws, jumps = [], 0
    for i in range(lo, hi):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        draws = [montecarlo._draw(params.d, nu, t, rng) for nu in rates]
        logws += montecarlo._block_logws(params, t, draws)
        jumps += sum(len(epochs) for epochs, _, _ in draws)
    return np.array(logws), jumps, 0


# d=1 reads one half per jump, so odd counts carry a half to the next path;
# d=3 and d=5 have nonzero rejection thresholds (2^32 mod d = 1); a zero
# rate draws no count
WORD_ROUTE_CASES = [
    (PamParams(d=1, n=1, p=2, kappa=0.25, rho=0.25), 5.0),
    (PamParams(d=2, n=2, p=1, kappa=0.3, rho=0.0), 2.0),
    (PamParams(d=3, n=2, p=2, kappa=0.1, rho=0.1), 3.0),
    (PamParams(d=4, n=1, p=2, kappa=0.2, rho=0.1), 2.0),
    (PamParams(d=5, n=1, p=1, kappa=0.0, rho=0.2), 2.0),
    (PamParams(d=3, n=1, p=1, kappa=0.25, rho=0.25), 20.0),
    # the bench's d=1 rate, lam = 10, numpy's switch to PTRS
    (PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25), 20.0),
    # a sample mixing the running product (lam 2.4) with PTRS (lam 12)
    (PamParams(d=2, n=1, p=1, kappa=0.3, rho=1.5), 2.0),
]


@pytest.mark.parametrize("block_jumps", [montecarlo._BLOCK_JUMPS, 5])
@pytest.mark.parametrize("params, t", WORD_ROUTE_CASES)
def test_word_route_matches_the_drawn_route(monkeypatch, params, t, block_jumps):
    # chunk splits of 777 start chunks mid-stream, as a worker pool does
    monkeypatch.setattr(montecarlo, "_BLOCK_JUMPS", block_jumps)
    samples = 1000
    logws, jumps, redrawn = drawn_chunk((params, t, 9, 0, samples))
    parts = [montecarlo._chunk_logws((params, t, 9, lo, min(lo + 777, samples)))
             for lo in range(0, samples, 777)]
    assert np.concatenate([part[0] for part in parts]).tolist() == logws.tolist()
    assert sum(part[1] for part in parts) == jumps > 0
    assert sum(part[2] for part in parts) == redrawn == 0


@pytest.mark.parametrize("params, t", WORD_ROUTE_CASES)
def test_samples_past_their_words_are_read_again(monkeypatch, params, t):
    # at its own width a sample runs past its words with odds below 1e-9;
    # at 16 words most samples do, and their blocks are read again with 32,
    # 64, ... words, the samples that fitted included
    reads = []
    read_block = montecarlo._read_block

    def spy(words, width, *args):
        read = read_block(words, width, *args)
        reads.append(read is None)
        return read

    monkeypatch.setattr(montecarlo, "_words_per_sample", lambda lams, d: 16)
    monkeypatch.setattr(montecarlo, "_read_block", spy)
    logws, jumps, redrawn = drawn_chunk((params, t, 9, 0, 300))
    got, got_jumps, got_redrawn = montecarlo._chunk_logws((params, t, 9, 0, 300))
    assert got.tolist() == logws.tolist()
    assert (got_jumps, got_redrawn) == (jumps, redrawn)
    assert any(reads)


@pytest.mark.parametrize("params, t", WORD_ROUTE_CASES[:3])
def test_word_route_matches_the_drawn_route_with_workers(monkeypatch, params, t):
    fast = lambda_mc(params, t=t, samples=400, seed=5, workers=2)
    monkeypatch.setattr(montecarlo, "_chunk_logws", drawn_chunk)
    drawn = lambda_mc(params, t=t, samples=400, seed=5)
    assert fast == drawn


@pytest.mark.parametrize("lam", [0.5, 3.0, 9.99, 10.0, 25.0])
def test_poisson_counts_read_numpys_draws_from_words(lam):
    # each of 100,000 keys: the count `Generator.poisson` draws from a new
    # Philox, and the word after it, against `_poisson_counts` on the words
    # of the same key (the running product below lam = 10, PTRS above,
    # some rows with more than one pass of PTRS tries)
    width = int(lam + 7 * math.sqrt(lam)) + 24
    bits = np.random.Philox(key=np.array([17, 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    state = bits.state
    for block in range(10):
        keys = range(block * 10_000, (block + 1) * 10_000)
        words, counts, nexts = [], [], []
        for i in keys:
            state["state"]["key"] = np.array([17, i], dtype=np.uint64)
            bits.state = state
            words.append(bits.random_raw(width))
            bits.state = state
            counts.append(int(rng.poisson(lam)))
            nexts.append(int(bits.random_raw()))
        words = np.concatenate(words)
        at = np.arange(len(keys)) * width
        got, after, short, unsure = montecarlo._poisson_counts(words, at, at + width, lam)
        assert not short.any() and not unsure and (after < at + width).all()
        assert got.tolist() == counts
        assert words[after].tolist() == nexts


def test_poisson_counts_flag_rows_past_their_words():
    # rows of 3 words: a count that needs more is short, the others exact
    bits = np.random.Philox(key=np.array([3, 0], dtype=np.uint64))
    rng = np.random.Generator(bits)
    state = bits.state
    for lam in (3.0, 10.0):
        words, counts = [], []
        for i in range(400):
            state["state"]["key"] = np.array([3, i], dtype=np.uint64)
            bits.state = state
            words.append(bits.random_raw(3))
            bits.state = state
            counts.append(int(rng.poisson(lam)))
        at = np.arange(400) * 3
        got, after, short, _ = montecarlo._poisson_counts(np.concatenate(words), at, at + 3, lam)
        assert 0 < short.sum() < 400
        assert (after[~short] <= at[~short] + 3).all()
        assert got[~short].tolist() == np.array(counts)[~short].tolist()


def word(x):
    """The Philox word numpy's next_double reads as x, to 53 bits."""
    return int(x * 2**53) << 11


def test_poisson_counts_flag_counts_they_cannot_vouch_for():
    # factors of 1 - 2^-53 outlast the running product's window...
    at = np.array([0])
    ones = np.full(64, 2**64 - 1, dtype=np.uint64)
    _, _, short, unsure = montecarlo._poisson_counts(ones, at, at + 64, 3.0)
    assert unsure and not short.any()
    # ... or, where the row ends inside the window, run past its words
    _, _, short, unsure = montecarlo._poisson_counts(ones, at, at + 8, 3.0)
    assert short.all() and not unsure
    # a PTRS try whose log test lands on its threshold, as numpy's formulas
    # give it: V is picked so that both sides agree to 53 bits
    lam = 10.0
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    U = word(0.6) / 2.0**64 - 0.5
    us = 0.5 - abs(U)
    k = math.floor((2 * a / us + b) * U + lam + 0.43)
    V = math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)
                 - math.log(1.1239 + 1.1328 / (b - 3.4)) + math.log(a / (us * us) + b))
    assert 0.9277 - 3.6224 / (b - 2) < V < 1      # past the quick acceptance
    words = np.array([word(0.6), word(V)] + [word(0.5)] * 14, dtype=np.uint64)
    _, _, short, unsure = montecarlo._poisson_counts(words, at, at + 16, lam)
    assert unsure and not short.any()
    words[1] = word(V - 1e-6)                       # clearly accepted: k jumps
    count, after, short, unsure = montecarlo._poisson_counts(words, at, at + 16, lam)
    assert (count.tolist(), after.tolist(), short.any(), unsure) == ([k], [2], False, False)


def test_position_codes_are_equal_exactly_where_rows_are():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    for scale in (3, 2**40):          # one radix in int64, and past it
        positions = rng.integers(-2, 3, size=(300, 3)) * scale
        codes = montecarlo._position_codes(positions)
        same = (positions[:, None] == positions[None]).all(axis=2)
        assert ((codes[:, None] == codes[None]) == same).all()


def test_a_count_it_cannot_vouch_for_redraws_its_block(monkeypatch):
    poisson_counts, calls = montecarlo._poisson_counts, []

    def first_unsure(*args):
        count, after, short, unsure = poisson_counts(*args)
        calls.append(args)
        return count, after, short, unsure or len(calls) == 1

    monkeypatch.setattr(montecarlo, "_poisson_counts", first_unsure)
    params = PamParams(d=3, n=2, p=2, kappa=0.1, rho=0.1)
    est = lambda_mc(params, t=3.0, samples=300, seed=2024)
    assert (est.lambda_t, est.stderr, est.ess) == (
        GOLDEN["lambda_t"], GOLDEN["stderr"], GOLDEN["ess"])
    assert est.redrawn_blocks == 1
    assert est.jumps == drawn_chunk((params, 3.0, 2024, 0, 300))[1]


def test_decode_flags_the_words_numpy_rejects():
    # range 3 rejects a 32-bit word u exactly when 3u mod 2^32 < 1, i.e. u = 0
    words = np.array([0, 5, 7, 2**63 + 12345], dtype=np.uint64)
    bits = np.random.Philox(key=np.array([1, 2], dtype=np.uint64))
    state = bits.state
    state["buffer"], state["buffer_pos"] = words, 0
    bits.state = state
    drawn = np.random.Generator(bits).integers(1, 4, size=3)
    # numpy read seven halves: the four words, the last one's high half kept
    assert (bits.state["buffer_pos"], bits.state["has_uint32"]) == (4, 1)
    halves = np.stack((words & 0xFFFFFFFF, words >> 32), axis=1).ravel()
    values, rejected = montecarlo._bounded(halves, 3)
    assert rejected.tolist() == [True, True, False, True, False, True, False, False]
    assert (values[~rejected][:3] + 1).tolist() == drawn.tolist() == [1, 1, 1]
    axes, signs, any_rejected = montecarlo._decode(3, np.array([3]), np.array([0]), words)
    assert (axes.tolist(), signs.tolist(), any_rejected) == ([1, 1, 1], [-1, -1, -1], True)
    # a power-of-two range never rejects
    assert not montecarlo._bounded(halves, 2)[1].any()
    # the scalar decode reads the same values and rejections from any half on
    listed = halves.tolist()
    for k in range(len(halves)):
        for count in range(1, (len(halves) - k) // 2 + 1):
            values, rejected = montecarlo._bounded(halves[k:k + count], 3)
            signs = 2 * montecarlo._bounded(halves[k + count:k + 2 * count], 2)[0] - 1
            want = None if rejected.any() else ((values + 1).tolist(), signs.tolist())
            assert montecarlo._decode_path(3, count, listed[k:]) == want
            signs = 2 * montecarlo._bounded(halves[k:k + count], 2)[0] - 1
            assert montecarlo._decode_path(1, count, listed[k:]) == ([1] * count, signs.tolist())


def words_before_first_axis(seed, lam):
    """The first path of sample 0 (key (seed, 0)): its count, and the words
    its Poisson draw and its epochs read, by numpy's own calls.  The next
    word's low half is the path's first axis half: a sample starts with no
    half carried."""
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    raw = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)).random_raw(64)
    count = int(np.random.Generator(bits).poisson(lam))
    return count, int(np.flatnonzero(raw == bits.random_raw())[0]) + count


class FirstHalfZero(np.random.Philox):
    """Philox whose first `random_raw` call reads 0 as the low half of word
    `at`, which numpy rejects as a draw from a range of 3.

    That call reads sample 0's words; `at` is set to the word after its
    first path's Poisson and epoch words (`words_before_first_axis`)."""

    at = None

    def random_raw(self, size=None, output=True):
        words = super().random_raw(size, output)
        if not getattr(self, "zeroed", False):
            words[self.at] &= np.uint64(0xFFFFFFFF00000000)
            self.zeroed = True
        return words


def test_rejected_word_redraws_its_block(monkeypatch):
    params = PamParams(d=3, n=2, p=2, kappa=0.1, rho=0.1)
    count, at = words_before_first_axis(2024, 2 * 3 * 0.1 * 3.0)
    assert count > 0
    monkeypatch.setattr(FirstHalfZero, "at", at)
    monkeypatch.setattr(montecarlo.np.random, "Philox", FirstHalfZero)
    est = lambda_mc(params, t=3.0, samples=300, seed=2024)
    assert (est.lambda_t, est.stderr, est.ess) == (
        GOLDEN["lambda_t"], GOLDEN["stderr"], GOLDEN["ess"])
    assert est.redrawn_blocks == 1
    assert est.jumps == drawn_chunk((params, 3.0, 2024, 0, 300))[1]


# ---------------------------------------------------------------------------
# worker pool shutdown
# ---------------------------------------------------------------------------

def test_lambda_mc_interrupt_cancels_pending_chunks(monkeypatch):
    shutdowns, calls = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            pass

        def map(self, fn, jobs):
            return map(fn, jobs)

        def shutdown(self, wait=True, cancel_futures=False):
            shutdowns.append({"wait": wait, "cancel_futures": cancel_futures})

    def interrupted(args):
        calls.append(args)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return np.zeros(args[4] - args[3])

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(montecarlo, "_chunk_logws", interrupted)
    params = PamParams(d=1, n=1, p=1, kappa=0.25, rho=0.25)
    with pytest.raises(KeyboardInterrupt):
        lambda_mc(params, t=1.0, samples=64, seed=3, workers=2)
    assert shutdowns == [{"wait": True, "cancel_futures": True}]
