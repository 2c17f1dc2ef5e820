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

A single path is a list of its jump epochs and a list of its positions,
the start plus one unit step per jump.  `collision_time` takes each
walker-catalyst pair in plain Python: one sort of the pair's cut points and
one bisection per side at every piece's midpoint.  `lambda_mc` instead
stores a block of samples back to back in arrays, and a block's collision
measures come from a few whole-array numpy operations: one sort of every
pair's merged cut points, and one lookup of both paths' positions at every
piece's midpoint.  A single call pays no numpy fixed cost; a block of about
4,096 jumps spreads it over hundreds of samples.  Both routes compute the
same floats, summed by `math.fsum`, as a piece-by-piece evaluation, so
their results are the same bit for bit.

Per-sample RNG streams are keyed by (seed, sample index), and the final
log-sum-exp reduction runs in sample-index order, so results are bit-for-bit
reproducible for any worker count.  Every path's draws are `_draw`'s: a
Poisson count, uniform epochs, then axes and signs from two `integers`
calls.  On Philox, `sample_path` and `lambda_mc` draw only the count on the
`Generator` and read the rest straight from Philox, one `random_raw` per
path (`_path_words`): a word per epoch, then the words the `integers` calls
would split into 32-bit halves.  `sample_path` decodes its few words in
plain Python, `lambda_mc` a block's words at once in numpy; both follow
numpy's own rules, so the values are `_draw`'s bit for bit.  Weights live in
[1, e^{npt}]; everything is accumulated in log space with compensated
summation.
"""
from __future__ import annotations

import bisect
import logging
import math
import operator
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

# the words of a path without jumps
_NO_WORDS = np.zeros(0, dtype=np.uint64)


@dataclass(frozen=True)
class JumpPath:
    """A continuous-time nearest-neighbour path on Z^d.

    events are time-sorted (epoch, axis, sign) triples with axis in 1..d and
    sign +-1; the position is piecewise constant and right-continuous.  The
    events are checked and turned into the lists ``_epochs`` (floats) and
    ``_positions`` (int tuples, one more than the epochs) at construction;
    every computation reads those lists.
    """

    d: int
    start: Tuple[int, ...]
    events: Tuple[Tuple[float, int, int], ...]
    horizon: float

    def __post_init__(self):
        d, horizon = self.d, self.horizon
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got d={d}")
        if not horizon >= 0:
            raise ValueError(f"horizon must be >= 0, got horizon={horizon}")
        if len(self.start) != d:
            raise ValueError(f"start has {len(self.start)} coordinates, d={d}")
        position = [operator.index(c) for c in self.start]
        epochs, positions = [], [tuple(position)]
        prev, axes = _BEFORE_ZERO, range(1, d + 1)
        for epoch, axis, sign in self.events:
            if not (prev < epoch <= horizon and axis in axes and sign in (1, -1)):
                after = prev if epochs else "its path's start"
                raise ValueError(
                    f"epochs must be strictly increasing within [0, {horizon}], axes "
                    f"in 1..{d} and signs +-1; got epoch {float(epoch)} after {after}, "
                    f"axis {float(axis)}, sign {float(sign)}")
            prev = float(epoch)
            position[int(axis) - 1] += int(sign)
            epochs.append(prev)
            positions.append(tuple(position))
        object.__setattr__(self, "_epochs", epochs)
        object.__setattr__(self, "_positions", positions)

    def position(self, s: float) -> Tuple[int, ...]:
        if not 0.0 <= s <= self.horizon:
            raise ValueError(f"time {s} outside [0, {self.horizon}]")
        return self._positions[bisect.bisect_right(self._epochs, s)]


@dataclass(frozen=True)
class McEstimate:
    params: PamParams
    t: float
    samples: int
    seed: int
    lambda_t: float
    stderr: float
    ess: float
    jumps: int              # jumps drawn over all paths of all samples
    redrawn_blocks: int     # blocks drawn again through `_draw` (see `_chunk_logws`)


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
    holding _BEFORE_ZERO as its time, so a whole block is checked by a few
    whole-array operations.
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
    # after the running sum, a path's start row holds the steps of the paths
    # before it
    first = np.arange(paths) + counts.cumsum() - counts
    positions -= positions[first].repeat(counts + 1, axis=0)
    positions += start
    return positions


def _check_rate(nu: float, t_end: float) -> None:
    # by name: at nu = 0 the word routes make no draw that would refuse it
    if not math.isfinite(t_end):
        raise ValueError(f"horizon must be finite, got t_end={t_end}")
    if nu < 0 or t_end < 0:
        raise ValueError(f"need nu >= 0 and t_end >= 0, got nu={nu}, t_end={t_end}")


def _draw(d: int, nu: float, t_end: float, rng_stream: np.random.Generator):
    """The jumps (epochs, axes, signs) of a rate-2*d*nu walk on [0, t_end].

    Jump count ~ Poisson(2 d nu t_end), epochs uniform, directions uniform
    over the 2d axis-sign choices.  Draw order (count, epochs, axes, signs)
    is fixed as part of the reproducibility contract.  This is the route for
    any stream; on Philox, `sample_path` and `lambda_mc` draw the count the
    same way and read the rest as raw words (`_path_words`), with the same
    values.
    """
    _check_rate(nu, t_end)
    count = int(rng_stream.poisson(2.0 * d * nu * t_end)) if nu > 0 else 0
    return _draw_jumps(d, count, t_end, rng_stream)


def _draw_jumps(d: int, count: int, t_end: float, rng_stream: np.random.Generator):
    """`_draw`'s draws after its count: count uniform epochs, sorted, then
    the axes and the signs from two `integers` calls."""
    epochs = rng_stream.uniform(0.0, t_end, size=count)
    epochs.sort()
    axes = rng_stream.integers(1, d + 1, size=count)
    signs = 2 * rng_stream.integers(0, 2, size=count) - 1
    return epochs, axes, signs


def _path_words(bits: np.random.Philox, d: int, count: int, carried: int) -> np.ndarray:
    """The raw Philox words `_draw` reads after a path's count of jumps, in
    one `random_raw` call: count words for the epochs, then the words of the
    axis and sign halves.

    `uniform` reads one word per epoch (`_uniform`).  The two `integers`
    calls then read one 32-bit half per axis (none at d=1, where numpy draws
    nothing for a range holding one value) and one per sign, through
    Philox's `next_uint32`: first the half its buffer holds (`carried`, 0 or
    1), then the low and the high half of each new word.  A half left over
    at the end stays in that buffer for the stream's next 32-bit draw.
    """
    halves = count if d == 1 else 2 * count
    return bits.random_raw(count + (halves - carried + 1) // 2)


def _uniform(words, t: float):
    """numpy's `uniform(0.0, t)` from raw Philox words, an int or a uint64
    array: 0.0 + t * next_double, where next_double is the word's top 53
    bits times 2^-53."""
    return 0.0 + t * ((words >> 11) * 2.0 ** -53)


def _bounded(halves: np.ndarray, r: int):
    """numpy's draw from [0, r) for each 32-bit word in halves, and whether
    numpy rejects that word and reads another.

    This is Lemire's rule as numpy's `buffered_bounded_lemire_uint32` applies
    it: the value is (u * r) >> 32, rejected where (u * r) mod 2^32 is below
    2^32 mod r, which is 0 when r is a power of 2.
    """
    v = halves.astype(np.int64) * r
    return v >> 32, (v & 0xFFFFFFFF) < (1 << 32) % r


def _decode(d: int, counts: np.ndarray, starts: np.ndarray, words: np.ndarray):
    """The axes and signs `_draw`'s two `integers` calls read from words, and
    whether numpy would have rejected any word they used.

    words are raw 64-bit Philox words, each read as Philox's `next_uint32`
    does: the low half, then the high half.  Path i's draws start at half
    starts[i]: counts[i] axes, then counts[i] signs.  At d=1 the axes take
    no half, since numpy draws nothing for a range holding one value.
    """
    halves = words.astype("<u8", copy=False).view("<u4")
    if d == 1:
        signs, rejected = _bounded(halves[_ranges(starts, counts)], 2)
        axes = np.ones(len(signs), dtype=np.int64)
    else:
        signs, rejected = _bounded(halves[_ranges(starts + counts, counts)], 2)
        axes, axis_rejected = _bounded(halves[_ranges(starts, counts)], d)
        axes += 1
        rejected |= axis_rejected
    return axes, 2 * signs - 1, bool(rejected.any())


def _decode_path(d: int, count: int, halves: list[int]):
    """`_decode` for one path in plain Python: the axes and signs its count
    jumps read from the 32-bit halves (ints, in draw order), or None where
    numpy would reject an axis half.  A sign is a draw from [0, 2), the
    half's top bit, which numpy never rejects."""
    if d == 1:
        return [1] * count, [(u >> 31) * 2 - 1 for u in halves[:count]]
    threshold = (1 << 32) % d
    axes = []
    for u in halves[:count]:
        v = u * d
        if v & 0xFFFFFFFF < threshold:
            return None
        axes.append((v >> 32) + 1)
    return axes, [(u >> 31) * 2 - 1 for u in halves[count:2 * count]]


def sample_path(d: int, nu: float, t_end: float,
                rng_stream: np.random.Generator) -> JumpPath:
    """Draw a rate-2*d*nu simple-random-walk path on [0, t_end] from the origin.

    Jump count ~ Poisson(2 d nu t_end), epochs uniform, directions uniform
    over the 2d axis-sign choices; the draws, their order and the stream's
    state after the call are `_draw`'s.  On a stream whose bit generator is
    exactly `np.random.Philox`, the count comes from `poisson` and the rest
    from one `_path_words` call (`_philox_events`); any other stream, and a
    path holding a half numpy would reject, draws through `_draw`'s calls.
    """
    _check_rate(nu, t_end)
    count = int(rng_stream.poisson(2.0 * d * nu * t_end)) if nu > 0 else 0
    events = None
    if not count:
        events = ()
    elif type(getattr(rng_stream, "bit_generator", None)) is np.random.Philox:
        events = _philox_events(d, count, float(t_end), rng_stream.bit_generator)
    if events is None:
        epochs, axes, signs = _draw_jumps(d, count, t_end, rng_stream)
        events = zip(epochs.tolist(), axes.tolist(), signs.tolist())
    return JumpPath(d=d, start=(0,) * d, events=tuple(events), horizon=float(t_end))


def _philox_events(d: int, count: int, t: float, bits: np.random.Philox):
    """The (epoch, axis, sign) triples of count jumps drawn after a path's
    count, read from `_path_words` and decoded in plain Python, or None,
    with the state unchanged, where numpy would reject an axis half.

    The half buffer is read from the state before the words are drawn.
    When the path used a buffered half or leaves one, the state is set
    back with the buffer as numpy leaves it, and the words drawn again.
    """
    state = bits.state
    carried = state["has_uint32"]
    words = _path_words(bits, d, count, carried).tolist()
    halves = [state["uinteger"]] if carried else []
    for w in words[count:]:
        halves += (w & 0xFFFFFFFF, w >> 32)
    jumps = _decode_path(d, count, halves)
    if jumps is None:
        bits.state = state
        return None
    left = len(halves) - (count if d == 1 else 2 * count)
    if carried or left:
        # numpy keeps the last half it read as uinteger, used or not
        state["has_uint32"], state["uinteger"] = left, halves[-1]
        bits.state = state
        bits.random_raw(len(words))
    return zip(sorted([_uniform(w, t) for w in words[:count]]), *jumps)


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


def _pair_measure(x: JumpPath, y: JumpPath, t: float) -> float:
    """Exact |{s in [0,t]: x(s) = y(t-s)}|, piece by piece.

    The same cuts, midpoints, lookups and piece lengths as
    `_collision_measures`, so the same float.
    """
    ex, ey = x._epochs, y._epochs
    cuts = sorted([0.0, t, *(min(e, t) for e in ex), *(t - min(e, t) for e in ey)])
    px, py = x._positions, y._positions
    pieces = []
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        if px[bisect.bisect_right(ex, mid)] == py[bisect.bisect_right(ey, t - mid)]:
            pieces.append(b - a)
    return math.fsum(pieces)


def collision_time(xs: Sequence[JumpPath], ys: Sequence[JumpPath], t: float) -> float:
    """Total pairwise collision time sum_{j,k} |{s: X_j(s) = Y_k(t-s)}| in [0, npt]."""
    if not t >= 0:
        raise ValueError(f"horizon must be >= 0, got t={t}")
    paths = (*xs, *ys)
    for path in paths:
        if path.horizon < t:
            raise ValueError(
                f"path horizon {path.horizon} shorter than requested t={t}")
        if path.d != paths[0].d:
            raise ValueError(
                f"paths must share one dimension, got d={paths[0].d} and d={path.d}")
    t = float(t)
    return math.fsum(_pair_measure(x, y, t) for x in xs for y in ys)


def _logws(params: PamParams, t: float, counts: np.ndarray, epochs: np.ndarray,
           axes: np.ndarray, signs: np.ndarray) -> list[float]:
    """log W of each sample of a batch stored as `_positions` takes it:
    sample after sample, its p walkers, then its n catalysts."""
    positions = _positions(params.d, (0,) * params.d, t, counts, epochs, axes, signs)
    measures = _collision_measures(t, params.p, params.n, counts, epochs, positions)
    pairs = params.p * params.n
    return [math.fsum(measures[k:k + pairs]) for k in range(0, len(measures), pairs)]


def _block_logws(params: PamParams, t: float, draws: list) -> list[float]:
    """log W of each sample in draws, which holds sample after sample the
    `_draw` results of its p walkers, then of its n catalysts."""
    counts = np.array([len(epochs) for epochs, _, _ in draws])
    return _logws(params, t, counts, *(np.concatenate(column) for column in zip(*draws)))


def _chunk_logws(args) -> tuple[np.ndarray, int, int]:
    """log W of samples lo..hi-1, drawn sample by sample, evaluated in blocks,
    with the number of jumps drawn and of blocks drawn again.

    Sample i's draws are `_draw`'s for its p walkers, then its n catalysts,
    from a new Philox(key=(seed, i)).  Each path's count comes from the
    Generator's `poisson`; its epochs, axes and signs are read instead as
    raw Philox words, one `_path_words` call per path, and decoded a block
    at a time (`_uniform` and `_decode`).  The axes and signs take 32-bit
    halves, low then high, and a half left over is the next path's first:
    `random_raw` and `poisson` leave numpy's half buffer alone, so the
    paths' half words, put end to end, are the sample's halves in draw
    order.  numpy rejects a half with odds below r / 2^32 and reads another,
    which moves every later draw; a block holding such a half is drawn
    again through `_draw`.
    """
    params, t, seed, lo, hi = args
    d = params.d
    rates = (params.kappa,) * params.p + (params.rho,) * params.n
    for nu in rates:
        _check_rate(nu, t)
    lams = [2.0 * d * nu * t if nu > 0 else None for nu in rates]
    bits = np.random.Philox(key=np.array([seed, lo], dtype=np.uint64))
    rng = np.random.Generator(bits)
    fresh = bits.state

    def restart(i):
        # the state of a new Philox(key=(seed, i)), set without building one
        fresh["state"]["key"] = np.array([seed, i], dtype=np.uint64)
        bits.state = fresh

    logws, jumps, redrawn = [], 0, 0
    first, counts, starts, words, base, block_jumps = lo, [], [], [], 0, 0
    for i in range(lo, hi):
        restart(i)
        used = 0        # 32-bit halves this sample's paths have drawn; the
                        # block's samples before it drew base halves
        for lam in lams:
            count = int(rng.poisson(lam)) if lam is not None else 0
            counts.append(count)
            block_jumps += count
            starts.append(base + used)
            words.append(_path_words(bits, d, count, used % 2) if count else _NO_WORDS)
            used += count if d == 1 else 2 * count
        base += 2 * ((used + 1) // 2)
        if block_jumps >= _BLOCK_JUMPS or i == hi - 1:
            jumps += block_jumps
            counts = np.array(counts)
            sizes = np.array([len(w) for w in words])
            raw = np.concatenate(words)
            at_epochs = _ranges(sizes.cumsum() - sizes, counts)
            half_words = np.ones(len(raw), dtype=bool)
            half_words[at_epochs] = False
            axes, signs, rejected = _decode(d, counts, np.array(starts), raw[half_words])
            if rejected:
                redrawn += 1
                draws = []
                for j in range(first, i + 1):
                    restart(j)
                    draws += [_draw(d, nu, t, rng) for nu in rates]
                logws += _block_logws(params, t, draws)
            else:
                # each path's epochs sorted, as `_draw` sorts them
                keyed = _keyed(np.arange(len(counts)).repeat(counts),
                               _uniform(raw[at_epochs], t))
                keyed.sort()
                logws += _logws(params, t, counts, keyed.imag, axes, signs)
            first, counts, starts, words, base, block_jumps = i + 1, [], [], [], 0, 0
    return np.array(logws), jumps, redrawn


def lambda_mc(params: PamParams, t: float, samples: int, seed: int,
              workers: int = 1) -> McEstimate:
    """Monte Carlo estimate of Lambda_p(t) = (1/(pt)) log E[W].

    stderr is the delta-method error of the log-mean; ess is the
    effective sample size (sum w)^2 / sum w^2 of the weights, the
    meaningful diagnostic here because W is heavy-tailed for large t.
    """
    if not t > 0:
        raise ValueError(f"horizon must be positive, got t={t}")
    if not math.isfinite(t):
        raise ValueError(f"horizon must be finite, got t={t}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if seed is None or seed < 0:
        raise ValueError("a non-negative integer seed is required")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    if workers == 1:
        parts = [_chunk_logws((params, t, seed, 0, samples))]
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
    logws = np.concatenate([part[0] for part in parts])

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
                      lambda_t=lambda_t, stderr=stderr, ess=ess,
                      jumps=sum(part[1] for part in parts),
                      redrawn_blocks=sum(part[2] for part in parts))


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
    if not t >= 0:
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
