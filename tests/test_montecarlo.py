"""Path sampling, exact collision measure, and the Feynman-Kac estimator.

The collision oracle here is a midpoint Riemann sum on a fine grid; the
implementation computes the same measure exactly from the merged jump
epochs, so the two may differ only near cut points (O(h) per cut).  A second
oracle is the piece-by-piece exact measure over tuple-built trajectories;
the array implementation must match it bit for bit.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamlab import montecarlo
from pamlab.montecarlo import (
    JumpPath,
    collision_time,
    lambda_mc,
    pde_moment_oracle,
    sample_path,
)
from pamlab.spectral import PamParams


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
    monkeypatch.setattr(montecarlo.np.random, "Generator", lambda bits: FedStream())
    params = PamParams(d=1, n=1, p=1, kappa=0.5, rho=0.5)
    with pytest.raises(ValueError, match="strictly increasing"):
        lambda_mc(params, t=1.0, samples=4, seed=0)


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
