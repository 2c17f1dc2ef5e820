"""Feynman-Kac Monte Carlo for the finite-time exponents Lambda_p(t).

The moment E[u(0,t)^p] is the expectation of exp(total collision time)
between p walker paths (rate 2*d*kappa, run forward) and n catalyst paths
(rate 2*d*rho, read backward in time), all started at the origin:

    W = exp( sum_{j,k} |{s in [0,t]: X_j(s) = Y_k(t-s)}| ),
    Lambda_p(t) = (1/(p t)) log E[W].

Paths are piecewise constant with finitely many jumps, so the collision set
of each (j,k) pair is a finite union of intervals whose endpoints come from
the merged jump epochs; its measure is computed exactly (no time grid).
Sampling draws p independent X-copies per catalyst draw, which makes the
product over copies an unbiased estimator of u^p without nested averaging.

A path is a pair of arrays: its jump epochs and its positions, the running
sum of the start and one one-hot step per jump.  Many paths are stored back
to back in one batch, and a batch's collision measures come from a few
whole-array numpy operations: one sort of every pair's merged cut points,
and one lookup of both paths' positions at every piece's midpoint.
`lambda_mc` evaluates a whole block of samples in one batch; `collision_time`
evaluates its p*n pairs in one batch.  These are the same floats, summed by
`math.fsum`, as a piece-by-piece evaluation, so the results are the same
bit for bit.

Per-sample RNG streams are keyed by (seed, sample index), and the final
log-sum-exp reduction runs in sample-index order, so results are bit-for-bit
reproducible for any worker count.  Weights live in [1, e^{npt}]; everything
is accumulated in log space with compensated summation.
"""
from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import expm_multiply

from .lattice import build_box
from .spectral import PamParams

__all__ = [
    "JumpPath",
    "McEstimate",
    "sample_path",
    "collision_time",
    "lambda_mc",
    "pde_moment_oracle",
]

logger = logging.getLogger(__name__)

# Jumps drawn per vectorised block of lambda_mc samples: enough to spread the
# fixed cost of a block's numpy calls over hundreds of samples, while its
# arrays stay near a megabyte (plus at most one sample past the budget).
_BLOCK_JUMPS = 1 << 12


@dataclass(frozen=True)
class JumpPath:
    """A continuous-time nearest-neighbour path on Z^d.

    events are time-sorted (epoch, axis, sign) triples with axis in 1..d and
    sign +-1; the position is piecewise constant and right-continuous.  The
    events are checked and turned into the arrays ``_epochs`` and
    ``_positions`` at construction; every computation reads those arrays.
    """

    d: int
    start: Tuple[int, ...]
    events: Tuple[Tuple[float, int, int], ...]
    horizon: float

    def __post_init__(self):
        epochs, axes, signs = np.array(self.events, dtype=float).reshape(-1, 3).T
        positions = _positions(self.d, self.start, self.horizon,
                               np.array([len(epochs)]), epochs, axes, signs)
        object.__setattr__(self, "_epochs", epochs)
        object.__setattr__(self, "_positions", positions)

    def position(self, s: float) -> Tuple[int, ...]:
        if not 0.0 <= s <= self.horizon:
            raise ValueError(f"time {s} outside [0, {self.horizon}]")
        i = int(np.searchsorted(self._epochs, s, side="right"))
        return tuple(int(c) for c in self._positions[i])


@dataclass(frozen=True)
class McEstimate:
    params: PamParams
    t: float
    samples: int
    seed: int
    lambda_t: float
    stderr: float
    ess: float


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + l) over (s, l) in zip(starts, lengths),
    for at least one range."""
    ends = lengths.cumsum()
    return np.arange(ends[-1]) + (starts - ends + lengths).repeat(lengths)


def _keyed(index, values) -> np.ndarray:
    """Complex numbers index + i*values: numpy orders complex numbers by
    real part, then by imaginary part, so these sort by index, then value."""
    out = np.empty(len(values), dtype=complex)
    out.real = index
    out.imag = values
    return out


# The largest float below 0.  It stands for the epoch before a path's first
# jump, so the one test "epoch after the one before" also asks epoch >= 0.
_BEFORE_ZERO = -math.ulp(0.0)


def _positions(d: int, start: Sequence[int], horizon: float, counts: np.ndarray,
               epochs: np.ndarray, axes: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Check a batch of paths and return their stacked positions.

    Path i has counts[i] jumps, stored back to back with the other paths'
    in epochs, axes and signs; every path starts at ``start``.  Its epochs
    must be strictly increasing within [0, horizon], its axes in 1..d and
    its signs +-1.  The result has counts[i] + 1 rows for path i, in path
    order: row r is the position on [epoch r-1, epoch r), the start plus the
    one-hot steps of the first r jumps (right-continuous at jumps).

    The checks reuse the row layout of the positions, each path's start row
    holding _BEFORE_ZERO as its time, which keeps down the fixed cost that
    one short path pays.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got d={d}")
    if len(start) != d:
        raise ValueError(f"start has {len(start)} coordinates, d={d}")
    paths = len(counts)
    rows = np.arange(len(epochs)) + np.arange(1, paths + 1).repeat(counts)
    times = np.full(len(epochs) + paths, _BEFORE_ZERO)
    times[rows] = epochs
    prev = times[rows - 1]
    # one +-1 entry per row exactly when the axis is in 1..d and the sign +-1
    step = (axes[:, None] == np.arange(1, d + 1)) * signs[:, None]
    ok = (prev < epochs) & (epochs <= horizon) & (np.abs(step).sum(axis=1) == 1)
    if not ok.all():
        i = int(np.argmin(ok))
        first_jump = i == 0 or rows[i - 1] + 1 < rows[i]
        after = "its path's start" if first_jump else prev[i]
        raise ValueError(
            f"epochs must be strictly increasing within [0, {horizon}], axes in "
            f"1..{d} and signs +-1; got epoch {epochs[i]} after {after}, "
            f"axis {axes[i]}, sign {signs[i]}")
    steps = np.zeros((len(times), d), dtype=np.int64)
    steps[rows] = step
    positions = steps.cumsum(axis=0)
    if paths > 1:
        # after the running sum, a path's start row holds the steps of the
        # paths before it
        first = np.arange(paths) + counts.cumsum() - counts
        positions -= positions[first].repeat(counts + 1, axis=0)
    positions += start
    return positions


def _draw(d: int, nu: float, t_end: float, rng_stream: np.random.Generator):
    """The jumps (epochs, axes, signs) of a rate-2*d*nu walk on [0, t_end].

    Jump count ~ Poisson(2 d nu t_end), epochs uniform, directions uniform
    over the 2d axis-sign choices.  Draw order (count, epochs, axes, signs)
    is fixed as part of the reproducibility contract.
    """
    if nu < 0 or t_end < 0:
        raise ValueError(f"need nu >= 0 and t_end >= 0, got nu={nu}, t_end={t_end}")
    count = int(rng_stream.poisson(2.0 * d * nu * t_end)) if nu > 0 else 0
    epochs = rng_stream.uniform(0.0, t_end, size=count)
    epochs.sort()
    axes = rng_stream.integers(1, d + 1, size=count)
    signs = 2 * rng_stream.integers(0, 2, size=count) - 1
    return epochs, axes, signs


def sample_path(d: int, nu: float, t_end: float,
                rng_stream: np.random.Generator) -> JumpPath:
    """Draw a rate-2*d*nu simple-random-walk path on [0, t_end] from the origin.

    Jump count ~ Poisson(2 d nu t_end), epochs uniform, directions uniform
    over the 2d axis-sign choices; the draws and their order are `_draw`'s.
    """
    epochs, axes, signs = _draw(d, nu, t_end, rng_stream)
    events = tuple(zip(epochs.tolist(), axes.tolist(), signs.tolist()))
    return JumpPath(d=d, start=(0,) * d, events=events, horizon=float(t_end))


def _collision_measures(t: float, p: int, n: int, counts: np.ndarray,
                        epochs: np.ndarray, positions: np.ndarray) -> list[float]:
    """Exact |{s in [0,t]: X_j(s) = Y_k(t-s)}| for every walker-catalyst pair
    (j, k) of every group of a batch of paths, in (group, j, k) order.

    The batch, stored as `_positions` stores it, is a run of groups of p
    walker paths followed by n catalyst paths.  The cuts of a pair are 0, t,
    X's epochs and t minus Y's epochs, the epochs clipped to t.  Both paths
    are constant on each piece between two consecutive cuts, so one lookup
    at the piece's midpoint decides it.  Cuts and epochs are `_keyed` by
    their pair or path index, so one sort orders every pair's cuts, and one
    searchsorted per side counts, for every piece, its own path's epochs up
    to the midpoint (X) or up to t minus the midpoint (Y).  Equal cuts only
    add zero-length pieces, which add exact zeros to a pair's `math.fsum`;
    the piece from one pair's last cut to the next pair's first is left out
    of both sums.
    """
    pair = np.arange(len(counts) // (p + n) * p * n)
    group = (p + n) * (pair // (p * n))
    xi, yi = group + pair // n % p, group + p + pair % n
    first = counts.cumsum() - counts
    keys = _keyed(np.arange(len(counts)).repeat(counts), epochs)
    cx, cy = counts[xi], counts[yi]
    clipped = np.minimum(epochs, t)
    cuts = _keyed(
        np.concatenate((pair, pair, pair.repeat(cx), pair.repeat(cy))),
        np.concatenate((np.zeros(len(pair)), np.full(len(pair), t),
                        clipped[_ranges(first[xi], cx)],
                        t - clipped[_ranges(first[yi], cy)])))
    cuts.sort()
    owner = cuts.real.astype(np.intp)
    a, b = cuts.imag[:-1], cuts.imag[1:]
    mid = 0.5 * (a + b)
    x, y = xi[owner[:-1]], yi[owner[:-1]]
    rx = keys.searchsorted(_keyed(x, mid), side="right") + x
    ry = keys.searchsorted(_keyed(y, t - mid), side="right") + y
    hit = (positions[rx] == positions[ry]).all(axis=1)
    lengths = np.where(hit, b - a, 0.0).tolist()
    ends = (2 + cx + cy).cumsum().tolist()
    return [math.fsum(lengths[lo:hi - 1]) for lo, hi in zip([0] + ends, ends)]


def collision_time(xs: Sequence[JumpPath], ys: Sequence[JumpPath], t: float) -> float:
    """Total pairwise collision time sum_{j,k} |{s: X_j(s) = Y_k(t-s)}| in [0, npt]."""
    if t < 0:
        raise ValueError(f"horizon must be >= 0, got t={t}")
    paths = (*xs, *ys)
    for path in paths:
        if path.horizon < t:
            raise ValueError(
                f"path horizon {path.horizon} shorter than requested t={t}")
    if not xs or not ys:
        return 0.0
    return math.fsum(_collision_measures(
        t, len(xs), len(ys), np.array([len(path._epochs) for path in paths]),
        np.concatenate([path._epochs for path in paths]),
        np.concatenate([path._positions for path in paths])))


def _block_logws(params: PamParams, t: float, draws: list) -> list[float]:
    """log W of each sample in draws, which holds sample after sample the
    `_draw` results of its p walkers, then of its n catalysts."""
    counts = np.array([len(epochs) for epochs, _, _ in draws])
    epochs, axes, signs = (np.concatenate(column) for column in zip(*draws))
    positions = _positions(params.d, (0,) * params.d, t, counts, epochs, axes, signs)
    measures = _collision_measures(t, params.p, params.n, counts, epochs, positions)
    pairs = params.p * params.n
    return [math.fsum(measures[k:k + pairs]) for k in range(0, len(measures), pairs)]


def _chunk_logws(args) -> np.ndarray:
    """log W of samples lo..hi-1, drawn sample by sample, evaluated in blocks."""
    params, t, seed, lo, hi = args
    bits = np.random.Philox(key=np.array([seed, lo], dtype=np.uint64))
    rng = np.random.Generator(bits)
    fresh = bits.state
    logws, draws, jumps = [], [], 0
    for i in range(lo, hi):
        # the state of a new Philox(key=(seed, i)), set without building one
        fresh["state"]["key"] = np.array([seed, i], dtype=np.uint64)
        bits.state = fresh
        for nu in (params.kappa,) * params.p + (params.rho,) * params.n:
            draws.append(_draw(params.d, nu, t, rng))
            jumps += len(draws[-1][0])
        if jumps >= _BLOCK_JUMPS or i == hi - 1:
            logws += _block_logws(params, t, draws)
            draws, jumps = [], 0
    return np.array(logws)


def lambda_mc(params: PamParams, t: float, samples: int, seed: int,
              workers: int = 1) -> McEstimate:
    """Monte Carlo estimate of Lambda_p(t) = (1/(pt)) log E[W].

    stderr is the delta-method error of the log-mean; ess is the
    effective sample size (sum w)^2 / sum w^2 of the weights, the
    meaningful diagnostic here because W is heavy-tailed for large t.
    """
    if t <= 0:
        raise ValueError(f"horizon must be positive, got t={t}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if seed is None or seed < 0:
        raise ValueError("a non-negative integer seed is required")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    if workers == 1:
        logws = _chunk_logws((params, t, seed, 0, samples))
    else:
        chunk = max(1, -(-samples // (workers * 4)))
        jobs = [(params, t, seed, lo, min(lo + chunk, samples))
                for lo in range(0, samples, chunk)]
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            parts = list(pool.map(_chunk_logws, jobs))
        finally:
            # after an error or interrupt, drop the chunks not yet started
            pool.shutdown(cancel_futures=True)
        logws = np.concatenate(parts)

    m = float(np.max(logws))
    q = np.exp(logws - m)
    s1 = math.fsum(q)
    s2 = math.fsum(q * q)
    mean1 = s1 / samples
    mean2 = s2 / samples
    lambda_t = (m + math.log(mean1)) / (params.p * t)
    var = max(mean2 - mean1 * mean1, 0.0)
    stderr = math.sqrt(var / samples) / mean1 / (params.p * t)
    ess = s1 * s1 / s2 if s2 > 0 else 0.0
    return McEstimate(params=params, t=t, samples=samples, seed=seed,
                      lambda_t=lambda_t, stderr=stderr, ess=ess)


def pde_moment_oracle(params: PamParams, R: int, t: float,
                      catalyst_paths: Sequence[JumpPath]) -> float:
    """u(0, t) for one fixed catalyst realization, by direct integration.

    Solves du/ds = kappa*Delta u + xi(., s) u on the radius-R box (Dirichlet)
    with u(., 0) = 1 and xi(x, s) = sum_k delta_x(Y_k(s)), using one exact
    sparse exponential step (expm_multiply) per interval where xi is constant
    (between catalyst jump epochs), so there is no time discretization.  The
    caller picks R large enough for the boundary leak (logged as a diagnostic)
    to be negligible at the desired accuracy.
    """
    if len(catalyst_paths) != params.n:
        raise ValueError(
            f"need {params.n} catalyst paths, got {len(catalyst_paths)}")
    if t < 0:
        raise ValueError(f"time must be >= 0, got t={t}")
    for path in catalyst_paths:
        if path.horizon < t:
            raise ValueError(
                f"catalyst horizon {path.horizon} shorter than t={t}")
    d = params.d
    box = build_box(d, R)
    L = box.side
    lap1 = sparse.diags([np.ones(L - 1), -2.0 * np.ones(L), np.ones(L - 1)],
                        offsets=[-1, 0, 1], format="csr")
    # kronsum(A, B) = I (x) A + B (x) I adds B as the new slowest index, so
    # coordinate 1, the fastest, is the first factor
    lap = lap1
    for _ in range(d - 1):
        lap = sparse.kronsum(lap, lap1, format="csr")

    cuts = {0.0, t}
    for path in catalyst_paths:
        cuts.update(float(e[0]) for e in path.events if e[0] < t)
    grid = sorted(cuts)

    u = np.ones(box.size)
    for a, b in zip(grid, grid[1:]):
        mid = 0.5 * (a + b)
        xi = np.zeros(box.size)
        for path in catalyst_paths:
            pos = path.position(mid)
            if all(abs(c) <= R for c in pos):
                xi[box.index(pos)] += 1.0
        A = (params.kappa * lap + sparse.diags(xi)) if params.kappa else sparse.diags(xi)
        u = expm_multiply(A * (b - a), u)
    total = float(np.sum(u))
    logger.debug("pde_moment_oracle: box mass %.6g after t=%g (leak diagnostic)",
                 total / box.size, t)
    return float(u[(box.size - 1) // 2])
