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

`collision_time` takes each walker-catalyst pair of `JumpPath`s in plain
Python (`_pair_measure`), paying no numpy fixed cost; `lambda_mc` takes a
block of samples, stored back to back in arrays, in a few whole-array numpy
operations (`_collision_measures`), spreading that cost over hundreds of
samples.  Both sum the same floats by `math.fsum`, so their results are the
same bit for bit.

Per-sample RNG streams are keyed by (seed, sample index), and the final
log-sum-exp reduction runs in sample-index order, so results are bit-for-bit
reproducible for any worker count.  Every path's draws are `_draw`'s; on
Philox they are read as raw words and decoded by numpy's own rules, a path
at a time for `sample_path` (`_path_words`) and a block of samples at once
for `lambda_mc` (`_read_block`).  Weights live in [1, e^{npt}]; everything
is accumulated in log space with compensated summation.

`pde_moment_oracle` checks the representation for one fixed catalyst path
by solving du/ds = kappa*Delta u + xi u on a Dirichlet box, matrix-free, by
uniformization (Jensen's method; Moler and Van Loan, SIAM Review 45, 2003):
where xi is constant, A = kappa*Delta + xi = P - qI with q = 2 d kappa and
P >= 0, and e^{hA} u = e^{-qh} sum_k (hP)^k u / k! (`_uniformize`).  Steps
of h ||P||_inf <= _STEP_NORM are summed until the Poisson tail, at
||P||_inf <= q + max xi, is below the unit roundoff.  No term is negative,
so the error has a certified bound: the tail, carried through later steps
by e^{h max xi}, plus Higham's relative bound for sums and products of
non-negative floats (Accuracy and Stability of Numerical Algorithms, ch. 3).
"""
from __future__ import annotations

import bisect
import logging
import math
import operator
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.special import gammaln

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

# Jumps expected per vectorised block of lambda_mc samples: enough to spread
# the fixed cost of a block's numpy calls over hundreds of samples, while its
# arrays stay near a megabyte.
_BLOCK_JUMPS = 1 << 12

# PTRS tries read per row and pass: at lam = 10 a try fails with odds of
# about 0.21, so one pass in about 500 rows ends without a count
_PTRS_TRIES = 4

# The largest h * ||P||_inf of one uniformization step (`_uniformize`):
# longer intervals are halved until their steps fit
_STEP_NORM = 8.0


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


def _run_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """`math.fsum` of each run of values, runs of sizes[i] values back to
    back.  A run of one or two values is summed in numpy: fsum rounds the
    exact sum once, and so does a single addition."""
    ends = sizes.cumsum()
    sums = np.zeros(len(sizes))
    some = sizes > 0
    sums[some] = values[ends[some] - 1]
    two = sizes == 2
    sums[two] += values[ends[two] - 2]
    many = np.flatnonzero(sizes > 2)
    if many.size:
        listed = values.tolist()
        sums[many] = [math.fsum(listed[lo:hi]) for lo, hi in
                      zip((ends[many] - sizes[many]).tolist(), ends[many].tolist())]
    return sums


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
    # by name: at nu = 0 the word routes make no draw that would refuse it,
    # and a NaN rate passes both nu < 0 and nu > 0 as false
    if not math.isfinite(t_end):
        raise ValueError(f"horizon must be finite, got t_end={t_end}")
    if not math.isfinite(nu):
        raise ValueError(f"rate must be finite, got nu={nu}")
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


def _position_codes(positions: np.ndarray) -> np.ndarray:
    """One int64 per row of positions, equal exactly where the rows are:
    the row's coordinates, less their minimum, as digits in one radix."""
    low = int(positions.min())
    radix = int(positions.max()) - low + 1
    if radix ** positions.shape[1] >= 1 << 63:
        return np.unique(positions, axis=0, return_inverse=True)[1].reshape(-1)
    return (positions - low) @ radix ** np.arange(positions.shape[1])


def _collision_measures(t: float, p: int, n: int, counts: np.ndarray,
                        epochs: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Exact |{s in [0,t]: X_j(s) = Y_k(t-s)}| for every walker-catalyst pair
    (j, k) of every group of a batch of paths, in (group, j, k) order.

    The batch, stored as `_positions` stores it, is a run of groups of p
    walker paths followed by n catalyst paths.  The cuts of a pair are 0, t,
    X's epochs and t minus Y's epochs, the epochs clipped to t.  Both paths
    are constant on each piece between two consecutive cuts, so one lookup
    at the piece's midpoint decides it, and each path's position there is
    its row after the epochs up to the midpoint (X) or up to t minus it (Y).
    Every pair's cuts are sorted at once; a piece of positive length from
    a to b then has X's cuts up to a before it and Y's cuts from b on after
    it, so running counts of each side's cuts in that order are the
    lookups.  That holds for t - mid against t minus Y's epochs, each
    rounded, once the piece is longer than 3 ulps of t; the few pieces up
    to 4 ulps long search the epochs at the rounded midpoint as
    `_pair_measure` does.  Pieces of length zero add nothing, and a pair's
    sum is `_run_sums`' fsum of its hit pieces.
    """
    pair = np.arange(len(counts) // (p + n) * p * n)
    group = (p + n) * (pair // (p * n))
    xi, yi = group + pair // n % p, group + p + pair % n
    first = counts.cumsum() - counts
    cx, cy = counts[xi], counts[yi]
    clipped = np.minimum(epochs, t)
    values = np.concatenate((np.zeros(len(pair)), np.full(len(pair), t),
                             clipped[_ranges(first[xi], cx)],
                             t - clipped[_ranges(first[yi], cy)]))
    owner = np.concatenate((pair, pair, pair.repeat(cx), pair.repeat(cy)))
    # an argsort of the values, then a stable sort by pair: numpy's radix
    # sort while the pairs fit in 16 bits
    order = np.argsort(values)
    by_pair = owner[order].astype(np.uint16 if len(pair) <= 1 << 16 else np.intp)
    order = order[np.argsort(by_pair, kind="stable")]
    x_cuts = 2 * len(pair) + cx.sum()
    ran_x = ((order >= 2 * len(pair)) & (order < x_cuts)).cumsum()
    ran_y = (order >= x_cuts).cumsum()
    values = values[order]
    lengths = values[1:] - values[:-1]
    # one pair's last cut, t, is never below the next pair's first, 0
    live = np.flatnonzero(lengths > 0)
    at = owner[order[live]]
    rx = ran_x[live] - (cx.cumsum() - cx)[at]
    ry = cy.cumsum()[at] - ran_y[live]
    x, y = xi[at], yi[at]
    for k in np.flatnonzero(lengths[live] <= 4 * math.ulp(t)).tolist():
        mid = 0.5 * (values[live[k]] + values[live[k] + 1])
        ex = epochs[first[x[k]]:first[x[k]] + counts[x[k]]]
        ey = epochs[first[y[k]]:first[y[k]] + counts[y[k]]]
        rx[k], ry[k] = ex.searchsorted(mid, "right"), ey.searchsorted(t - mid, "right")
    codes = _position_codes(positions)
    hit = codes[first[x] + x + rx] == codes[first[y] + y + ry]
    return _run_sums(lengths[live[hit]], np.bincount(at[hit], minlength=len(pair)))


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
    return _run_sums(measures, np.full(len(measures) // pairs, pairs)).tolist()


def _block_logws(params: PamParams, t: float, draws: list) -> list[float]:
    """log W of each sample in draws, which holds sample after sample the
    `_draw` results of its p walkers, then of its n catalysts."""
    counts = np.array([len(epochs) for epochs, _, _ in draws])
    return _logws(params, t, counts, *(np.concatenate(column) for column in zip(*draws)))


def _poisson_counts(words: np.ndarray, at: np.ndarray, end: np.ndarray, lam: float):
    """numpy's `poisson(lam)` for each row, read from words at[row] up to,
    at most, end[row]: below lam = 10 numpy's running product of
    `next_double`s (`random_poisson_mult`), from lam = 10 its PTRS rejection
    (`random_poisson_ptrs`), each with numpy's operations in numpy's order.

    Returns the counts, each row's next word, the rows that ran past their
    end, and whether a count may differ from numpy's: a product that
    outlasts its window (odds below 1e-10), or a PTRS log test within 2^-40
    of its terms' size of its threshold.  There numpy takes libm's log and
    its own log-gamma; numpy's vector log is within an ulp of libm's, and
    `gammaln` within 4e-16 (relative) of numpy's log-gamma.
    """
    if lam < 10:
        idx = at[:, None] + np.arange(int(lam + 7 * math.sqrt(lam)) + 9)
        # `_uniform(w, 1.0)` is numpy's next_double; its cumprod is numpy's product
        prod = np.cumprod(_uniform(words[np.minimum(idx, len(words) - 1)], 1.0), axis=1)
        stop = (prod <= math.exp(-lam)) | (idx >= end[:, None])
        count = stop.argmax(axis=1)
        return count, at + count + 1, at + count >= end, not stop.any(axis=1).all()
    loglam = math.log(lam)
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    log_alpha = math.log(1.1239 + 1.1328 / (b - 3.4))
    vr = 0.9277 - 3.6224 / (b - 2)
    count, short, unsure = np.zeros(len(at), dtype=np.int64), np.zeros(len(at), dtype=bool), False
    rows, at, tries = np.arange(len(at)), at.copy(), 2 * np.arange(_PTRS_TRIES)
    while rows.size:
        # the next _PTRS_TRIES (U, V) word pairs of each row at once
        i = at[rows][:, None] + tries
        past = i + 2 > end[rows][:, None]
        i = np.minimum(i, len(words) - 2)
        U = _uniform(words[i], 1.0) - 0.5
        V = _uniform(words[i + 1], 1.0)
        us = 0.5 - np.abs(U)
        with np.errstate(divide="ignore"):
            k = np.floor((2 * a / us + b) * U + lam + 0.43)
        again = (us < 0.07) | (V > vr)
        test = np.flatnonzero(again & (k >= 0) & ((us >= 0.013) | (V <= us)))
        if test.size:
            kt, ut = k.ravel()[test], us.ravel()[test]
            with np.errstate(divide="ignore"):
                log_v, log_q = np.log(V.ravel()[test]), np.log(a / (ut * ut) + b)
            lgam = gammaln(kt + 1)
            lhs, rhs = log_v + log_alpha - log_q, -lam + kt * loglam - lgam
            size = 1 + lam + kt * loglam + lgam + np.abs(log_v) + np.abs(log_q)
            # a near test after the accepted try is no draw of numpy's: refused all the same
            unsure |= bool((np.abs(lhs - rhs) <= 2.0 ** -40 * size).any())
            again.ravel()[test] = lhs > rhs
        stop = ~again | past
        found, j = stop.any(axis=1), stop.argmax(axis=1)
        at_j = np.arange(len(rows)) * len(tries) + j
        over = found & past.ravel()[at_j]
        short[rows[over]] = True
        done = found & ~over
        count[rows[done]] = k.ravel()[at_j[done]]
        at[rows] += np.where(found, tries[j] + 2, 2 * len(tries))
        rows = rows[~found]
    return count, at, short, unsure


def _words_per_sample(lams, d: int) -> int:
    """Words read for each sample: 6 standard deviations past the words its
    paths read on average.  Per jump a path reads an epoch word, half a
    word of halves at d=1 or a whole one above, and below lam = 10 a
    Poisson factor; per path a few more (the product's last factor, PTRS's
    tries, a half word)."""
    per_jump = [(lam < 10) + (1.5 if d == 1 else 2.0) for lam in lams]
    mean = sum(f * lam for f, lam in zip(per_jump, lams))
    var = sum(f * f * lam for f, lam in zip(per_jump, lams))
    return int(mean + 6 * math.sqrt(var)) + 4 * len(lams) + 8


def _read_block(words: np.ndarray, width: int, lams, d: int, t: float):
    """`_draw`'s draws for a block of samples, each from its own width words,
    path by path: (exact, counts, epochs, axes, signs) in `_logws`' order,
    or None where a sample ran past its words.

    Each path reads its count (`_poisson_counts`), count epoch words, then
    the new words of its halves, after a half carried from the path before
    (`_path_words`); the sample's half words, put end to end, are its
    halves in draw order (`_decode`).  exact is False where a count may
    differ from numpy's or numpy would reject a half.
    """
    samples = len(words) // width
    at = np.arange(samples) * width
    end, carried = at + width, np.zeros(samples, dtype=np.int64)
    short, unsure, columns = np.zeros(samples, dtype=bool), False, []
    for lam in lams:
        count = np.zeros(samples, dtype=np.int64)
        if lam is not None:
            count, at, ran_out, doubt = _poisson_counts(words, at, end, lam)
            short |= ran_out
            unsure |= doubt
        halves = count if d == 1 else 2 * count
        new = (halves - carried + 1) // 2
        columns.append((count, at, at + count, new, halves))
        at = at + count + new
        carried += 2 * new - halves
    if (short | (at > end)).any():
        return None
    counts, epoch_at, half_at, new, halves = (np.stack(c, axis=1) for c in zip(*columns))
    counts = counts.ravel()
    # each path's epochs sorted, as `_draw` sorts them: by the 53 bits
    # `_uniform` reads, below the path's index, 2^11 paths per uint64 sort
    path = np.arange(len(counts)).repeat(counts)
    keys = words[_ranges(epoch_at.ravel(), counts)] >> 11 | (path % 2048).astype(np.uint64) << 53
    for run in np.split(keys, np.searchsorted(path, np.arange(2048, len(counts), 2048))):
        run.sort()
    epochs = _uniform(keys << 11, t)
    # a sample's halves start at the first half of its first half word
    base = 2 * (new.sum(axis=1).cumsum() - new.sum(axis=1))
    starts = base[:, None] + halves.cumsum(axis=1) - halves
    axes, signs, rejected = _decode(d, counts, starts.ravel(),
                                    words[_ranges(half_at.ravel(), new.ravel())])
    return not (unsure or rejected), counts, epochs, axes, signs


def _chunk_logws(args) -> tuple[np.ndarray, int, int]:
    """log W of samples lo..hi-1, read and evaluated in blocks, with the
    number of jumps drawn and of blocks drawn again.

    Sample i's draws are `_draw`'s for its p walkers, then its n catalysts,
    from a new Philox(key=(seed, i)).  One Philox serves every sample, its
    key reset per sample, and reads 6 standard deviations more words than
    the sample's paths read on average (`_words_per_sample`).  A block of
    samples is decoded at once (`_read_block`); a block with a sample that
    ran past its words is read again with twice as many, and a block holding
    a half numpy would reject, or a count that may differ from numpy's, is
    drawn again through `_draw` and counted as redrawn.
    """
    params, t, seed, lo, hi = args
    d = params.d
    rates = (params.kappa,) * params.p + (params.rho,) * params.n
    for nu in rates:
        _check_rate(nu, t)
    lams = [2.0 * d * nu * t if nu > 0 else None for nu in rates]
    bits = np.random.Philox(key=np.array([seed, lo], dtype=np.uint64))
    rng = np.random.Generator(bits)
    # the state of a new Philox, its key set per sample, held in lists,
    # which the state setter reads faster than arrays
    state, key = bits.state, [seed, lo]
    state["state"] = {"counter": state["state"]["counter"].tolist(), "key": key}
    state["buffer"] = state["buffer"].tolist()

    def restart(i):
        # the state of a new Philox(key=(seed, i)), set without building one
        key[1] = i
        bits.state = state
        return bits

    width = _words_per_sample([lam for lam in lams if lam is not None], d)
    block = max(1, int(_BLOCK_JUMPS / max(1.0, sum(lam or 0.0 for lam in lams))))
    logws, jumps, redrawn = [], 0, 0
    for first in range(lo, hi, block):
        samples, size, read = range(first, min(first + block, hi)), width, None
        while read is None:
            words = np.concatenate([restart(i).random_raw(size) for i in samples])
            read = _read_block(words, size, lams, d, t)
            size *= 2
        exact, counts, epochs, axes, signs = read
        if exact:
            jumps += int(counts.sum())
            logws += _logws(params, t, counts, epochs, axes, signs)
        else:
            redrawn += 1
            draws = []
            for i in samples:
                restart(i)
                draws += [_draw(d, nu, t, rng) for nu in rates]
            jumps += sum(len(epochs) for epochs, _, _ in draws)
            logws += _block_logws(params, t, draws)
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
    try:
        # a float or a bool would pass into the uint64 key silently
        key = None if isinstance(seed, bool) else operator.index(seed)
    except TypeError:
        key = None
    if key is None or not 0 <= key < 1 << 64:
        raise ValueError(f"the seed must be an integer in [0, 2**64), got {seed!r}")
    seed = key
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


def _uniformize(apply, v: np.ndarray, h: float, q: float, norm: float, depth: int,
                err: float = 0.0) -> tuple[np.ndarray, float]:
    """e^{hA} v for A = P - qI, P >= 0 entrywise and v >= 0, and a bound on
    its max-norm error given err, that of v.  apply(x, c) is c P x, each
    entry within depth roundings for an exact c; norm >= ||P||_inf; q may be
    rounded.  h is cut into 2^j steps, exact in floats.  A step's bound is
    the incoming one times e^{tau (norm - q)} >= ||e^{tau A}||_inf, plus the
    tail, ||v||_inf times that factor and twice the computed Poisson tail,
    plus the rounding, M u / (1 - 2 M u) of the result's max, which covers
    Higham's gamma_M = M u / (1 - M u) of the exact sum.  Subnormal
    products, hundreds of orders below the bound, are not counted.
    """
    steps = 1 << max(0, math.ceil(math.log2(h * norm / _STEP_NORM))) if h * norm else 1
    tau = h / steps
    c = tau * norm
    # K: the Poisson(c) weights w_k, until w_{K+1} / (1 - c / (K + 2)), a
    # bound on the tail past K, is below the unit roundoff
    K, w = 0, math.exp(-c)
    while (w := w * c / (K + 1)) * (K + 2) > 2.0 ** -53 * (K + 2 - c):
        K += 1
    tail = 2.0 * w * (K + 2) / (K + 2 - c)
    growth, scale = math.exp(tau * (norm - q)), math.exp(-q * tau)
    # roundings along a term's chain: depth + 1 per term (c = tau / k), one
    # per addition, 2 q tau + 4 for e^{-q tau} (q and q tau rounded, exp
    # within an ulp, the product), one for the bound's own arithmetic
    M = K * (depth + 1) + 1 + math.ceil(2.0 * q * tau) + 5
    rel = M * 2.0 ** -53 / (1.0 - 2.0 * M * 2.0 ** -53)
    for _ in range(steps):
        top, term = float(v.max()), v
        v = v.copy()
        for k in range(1, K + 1):
            term = apply(term, tau / k)
            v += term
        v *= scale
        err = (err + top * tail) * growth + rel * float(v.max())
    return v, err


def pde_moment_oracle(params: PamParams, R: int, t: float,
                      catalyst_paths: Sequence[JumpPath]) -> float:
    """u(0, t) for one fixed catalyst realization, by exact-time uniformization.

    Solves du/ds = kappa*Delta u + xi(., s) u on the radius-R box (Dirichlet)
    with u(., 0) = 1 and xi(x, s) = sum_k delta_x(Y_k(s)), one interval at a
    time where xi is constant (between catalyst jump epochs), so there is no
    time discretization.  P = kappa*Delta + xi + 2 d kappa is applied by
    slice additions on the grid, so a few box-sized vectors are held, and
    each interval is cut into steps of h ||P||_inf <= _STEP_NORM, each summed
    until its Poisson tail is below the unit roundoff (`_uniformize`).  The
    certified error bound is logged at debug level with the boundary leak;
    the caller picks R large enough for the leak to be negligible at the
    desired accuracy.
    """
    d, kappa = params.d, params.kappa
    if len(catalyst_paths) != params.n:
        raise ValueError(f"need {params.n} catalyst paths, got {len(catalyst_paths)}")
    if not t >= 0:
        raise ValueError(f"time must be >= 0, got t={t}")
    for path in catalyst_paths:
        if path.d != d:
            raise ValueError(f"catalyst paths must have d={d}, got d={path.d}")
        if path.horizon < t:
            raise ValueError(f"catalyst horizon {path.horizon} shorter than t={t}")
    box = build_box(d, R)
    faces = [((np.s_[:],) * axis + (np.s_[:-1],), (np.s_[:],) * axis + (np.s_[1:],))
             for axis in range(d)]

    def apply(x, c):
        # c P x: kappa times the 2d neighbours (none outside the box), then
        # the interval's catalyst sites; 2d additions after two roundings
        y, a = np.zeros(box.shape), (x * (c * kappa)).reshape(box.shape)
        for lo, hi in faces:
            y[lo] += a[hi]
            y[hi] += a[lo]
        y = y.reshape(-1)
        y[sites] += (c * weights) * x[sites]
        return y

    cuts = {0.0, t}
    for path in catalyst_paths:
        cuts.update(float(e[0]) for e in path.events if e[0] < t)
    grid = sorted(cuts)
    q = 2.0 * d * kappa
    u, err = np.ones(box.size), 0.0
    for a, b in zip(grid, grid[1:]):
        at = [path.position(0.5 * (a + b)) for path in catalyst_paths]
        xi = Counter(box.index(pos) for pos in at if all(abs(c) <= R for c in pos))
        sites, weights = np.array(list(xi), dtype=np.intp), np.array(list(xi.values()), float)
        u, err = _uniformize(apply, u, b - a, q, q + max(xi.values(), default=0),
                             2 * d + 2, err)
    logger.debug("pde_moment_oracle: box mass %.6g after t=%g (leak diagnostic), "
                 "error bound %r", float(np.sum(u)) / box.size, t, err)
    return float(u[(box.size - 1) // 2])
